"""The JSON writer of `emit` against its oracle, the stdlib encoder with
`sort_keys=True, indent=2`: seeded nested payloads, payloads that hold one
object at several places, the real diagonal reports, one document per
operation, the types it refuses, and a guard that `emit` never reaches the
stdlib's pure-Python indent encoder."""

import collections
import functools
import json
import pathlib
import random
from fractions import Fraction

import pytest

from logfan import cli
from logfan.cli import OPERATIONS, _write_json, emit, parse, run
from logfan.lattice import IntMatrix

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

STRINGS = ["", "a", "P^1", 'say "hi"', "back\\slash", "tab\there\nnewline",
           "nul\x00bell\x07\x1f\x7f", "café", "∃x  ", "\U0001f600",
           "lone \ud800 surrogate", "\udfff", "/", "10", "9", "B", "b"]
INTS = [0, 1, -1, 2, 10, -7, 2 ** 63, -(2 ** 63) - 1, 10 ** 200, 10 ** 200 + 7,
        -(10 ** 200), -(10 ** 200) - 3]
SCALARS = [None, True, False, 0, 1] + STRINGS + INTS


def oracle(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


def write(value) -> str:
    out: list = []
    _write_json(value, out, "\n")
    return "".join(out)


def seeded_payload(rng: random.Random, depth: int = 0):
    """A nested value with containers of 0-5 items at every depth."""
    roll = rng.random()
    if depth >= 5 or roll < 0.25:
        return rng.choice(SCALARS)
    n = rng.choice([0, 0, 1, 2, 3, 5])
    if roll < 0.45:        # a flat int list, sometimes with True or False among the ints
        items = [rng.choice(INTS) for _ in range(n)]
        if items and rng.random() < 0.3:
            items[rng.randrange(n)] = rng.choice([True, False])
        return items if rng.random() < 0.7 else tuple(items)
    if roll < 0.7:
        items = [seeded_payload(rng, depth + 1) for _ in range(n)]
        return items if rng.random() < 0.7 else tuple(items)
    return {rng.choice(STRINGS): seeded_payload(rng, depth + 1) for _ in range(n)}


def test_writer_matches_oracle_on_seeded_payloads():
    for seed in range(500):
        value = seeded_payload(random.Random(seed))
        assert write(value) == oracle(value), seed


def test_writer_matches_oracle_on_empties_at_every_depth():
    value = {}
    for depth in range(8):
        value = ([value, [], {}, ()] if depth % 2 else
                 {"deeper": value, "list": [], "dict": {}, "tuple": ()})
        assert write(value) == oracle(value)


def aliased(shared):
    """`shared` at three depths, more than once at each, and between the two
    writings of another shared list."""
    other = [[7], {"x": 8}]
    return {"a": shared, "b": shared,
            "c": [shared, shared, {"d": shared}],
            "e": [[shared], shared, other, shared, other]}


INNER = [[5], [6, -7]]
ALIASED = {
    "empty list": [],
    "flat int list": [1, -2, 10 ** 20],
    "list of int lists": [[1, 0], [0, 1]],
    "list of dicts": [{"a": 1}, {"b": [2], "c": None}],
    "tuple": (3, [4], "x", ()),
    "repeated list in a repeated list": [INNER, INNER, {"k": INNER}, [INNER]],
}


@pytest.mark.parametrize("name", list(ALIASED))
def test_writer_matches_oracle_on_aliased_payloads(name):
    """A list met again at the same indent is written from its first writing,
    and one met at another indent is written afresh."""
    value = aliased(ALIASED[name])
    assert write(value) == oracle(value)
    assert write([value, value, {"v": value}]) == oracle([value, value, {"v": value}])


@pytest.mark.parametrize("value", [
    [1, True, 0, False], (True, 1), {"one": 1, "true": True, "zero": 0, "false": False},
    [None], None, True, 0, -(10 ** 200) - 1, "x", [], (), {},
], ids=repr)
def test_writer_matches_oracle_on_scalars_and_bools(value):
    assert write(value) == oracle(value)


@pytest.mark.parametrize("value", [
    1.5, Fraction(1, 2), {1, 2}, {1: "a"}, {True: 1}, [1, 2.0], {"a": [Fraction(1)]},
    ({"a": 1}, {2: 3}),
], ids=repr)
def test_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        write(value)


# The diagonal documents of the benchmark's finite family, written out here.
P1_FAN = {"kind": "complex", "builtin": "toric_fan", "rays": [[1], [-1]],
          "maximal_cones": [[0], [1]], "rank": 1}
A2_FAN = {"kind": "complex", "builtin": "toric_fan", "rays": [[1, 0], [0, 1]],
          "maximal_cones": [[0, 1]], "rank": 2}


def hirzebruch_fan(a: int) -> dict:
    return {"kind": "complex", "builtin": "toric_fan",
            "rays": [[1, 0], [0, 1], [-1, a], [0, -1]],
            "maximal_cones": [[0, 1], [1, 2], [2, 3], [3, 0]], "rank": 2}


def diagonal_document(surface: str) -> dict:
    if surface == "P2":
        objects = {"X": {"kind": "model", "builtin": "p2"}}
        tasks = [{"op": "log_diagonal", "args": {"model": "X"}}]
    elif surface.startswith("F"):
        objects = {"F": hirzebruch_fan(int(surface[1:]))}
        tasks = [{"op": "subdivide_along_diagonal", "args": {"complex": "F"}}]
    else:
        model = ({"kind": "model", "builtin": "p1"} if surface == "P1" else
                 {"kind": "model", "builtin": "affine_space", "d": 2})
        objects = {"X": model, "F": P1_FAN if surface == "P1" else A2_FAN}
        tasks = [{"op": "log_diagonal", "args": {"model": "X"}},
                 {"op": "subdivide_along_diagonal", "args": {"complex": "F"}}]
    return {"version": "logfan/1", "objects": objects, "tasks": tasks}


@functools.lru_cache(maxsize=None)
def diagonal_report(surface: str):
    return run(parse(json.dumps(diagonal_document(surface))))


def emitted_by_oracle(report) -> bytes:
    return (oracle({"version": "logfan/1", "results": report.results}) + "\n").encode()


@pytest.mark.parametrize("surface", ["P1", "A2", "P2", "F1", "F2", "F3"])
def test_emit_matches_oracle_on_diagonal_reports(surface):
    report = diagonal_report(surface)
    assert all(r["status"] == "ok" for r in report.results)
    assert emit(report, "json") == emitted_by_oracle(report)


class AppendOnly(list):
    """An output list that records each slice read and refuses every write
    but an append."""

    def __init__(self):
        super().__init__()
        self.reads = []

    def __getitem__(self, index):
        self.reads.append(index)
        return super().__getitem__(index)

    def refuse(self, *args):
        raise AssertionError("the writer changed what it had written")

    __setitem__ = __delitem__ = __iadd__ = insert = extend = pop = remove = refuse


def test_f2_report_reads_and_joins_each_shared_matrix_once(monkeypatch):
    """All 1,369 face maps of F_2's refinement share one identity matrix, and
    the 25 of its image subcomplex another: each `_json_complex` call turns a
    matrix object into rows once, and the writer joins each shared rows list's
    text once, at the one depth where it recurs."""
    rows_calls = []
    per_call = []
    as_rows, json_complex = IntMatrix.as_rows, cli._json_complex

    def counted_as_rows(matrix):
        rows_calls.append(matrix)
        return as_rows(matrix)

    def counted_json_complex(K):
        before = len(rows_calls)
        data = json_complex(K)
        per_call.append((len(K.face_maps), len({id(fm.matrix) for fm in K.face_maps}),
                         len(rows_calls) - before))
        return data

    monkeypatch.setattr(IntMatrix, "as_rows", counted_as_rows)
    monkeypatch.setattr(cli, "_json_complex", counted_json_complex)
    report = run(parse(json.dumps(diagonal_document("F2"))))
    monkeypatch.undo()
    assert per_call == [(1369, 1, 1), (25, 1, 1)]

    out = AppendOnly()
    _write_json({"version": "logfan/1", "results": report.results}, out, "\n")
    assert "".join(out) + "\n" == emitted_by_oracle(report).decode()
    assert len(out.reads) == 2
    # both identities have one text; each is joined once and written again
    # as that one string
    text = write(IntMatrix.identity(4).as_rows()).replace("\n", "\n" + " " * 14)
    joined = collections.Counter(id(item) for item in out if item == text)
    assert sorted(joined.values()) == [25 - 1, 1369 - 1]


# Literal complexes: a ray whose face maps omit their matrices, and a ray in
# rank 2 onto which two maps write the same matrix.
RAY = {"kind": "complex", "cones": [{"rank": 1}, {"rank": 1, "rays": [[1]]}],
       "face_maps": [{"source": 0, "target": 0}, {"source": 1, "target": 1},
                     {"source": 0, "target": 1}]}
GLUED_RAY = {"kind": "complex", "cones": [{"rank": 2}, {"rank": 2, "rays": [[1, 0]]}],
             "face_maps": [{"source": 0, "target": 0}, {"source": 1, "target": 1}]
             + [{"source": s, "target": 1, "matrix": [[1, 1], [0, 0]]} for s in (0, 1)]}
OBJECTS = {
    "M": {"kind": "matrix", "entries": [[2, 4, 4], [-6, 6, 12]]},
    "G": {"kind": "matrix", "entries": [[1, 0], [1, 3]]},
    "S": {"kind": "monoid", "free_rank": 1, "generators": [[2], [3]]},
    "T": {"kind": "monoid", "free_rank": 1, "torsion": [2], "generators": [[1, 1], [2, 0]]},
    "N": {"kind": "monoid", "free_rank": 1, "generators": [[1]]},
    "x2": {"kind": "hom", "source": "N", "target": "N", "matrix": [[2]]},
    "x3": {"kind": "hom", "source": "N", "target": "N", "matrix": [[3]]},
    "ray": RAY, "glued": GLUED_RAY, "A2": A2_FAN, "P1fan": P1_FAN,
    "A1": {"kind": "model", "builtin": "affine_space", "d": 1},
    "P1": {"kind": "model", "builtin": "p1"},
    "half": {"kind": "model", "builtin": "mixed_affine", "coords": 1, "log": [0]},
    "neg": {"kind": "action", "model": "half", "orders": [2], "characters": [[1]]},
}
OPERATION_TASKS = {
    "smith_normal_form": [{"matrix": "M"}],
    "cokernel": [{"matrix": "M"}],
    "saturate_subgroup": [{"generators": "M"}],
    "hilbert_basis": [{"generators": "G"}],
    "saturate": [{"monoid": "S"}],
    "is_saturated": [{"monoid": "S"}],
    "spec_component_count": [{"monoid": "T", "require_saturated": False}],
    "fs_pushout": [{"left": "x2", "right": "x3"}],
    "product": [{"left": "ray", "right": "glued"}],
    "star_subdivision": [{"complex": "A2", "cone": 2, "ray": [1, 1]}],
    "subdivide_along_diagonal": [{"complex": "P1fan"}],
    "complex_info": [{"complex": "ray"}, {"complex": "glued"}],
    "is_isomorphic": [{"left": "ray", "right": "glued"}],
    "hh_homology": [{"model": "A1"}],
    "hh_cohomology": [{"model": "P1"}],
    "log_diagonal": [{"model": "A1"}],
    "periodic_cyclic": [{"model": "P1"}],
    "euler_check": [{"model": "P1"}],
    "check_firm": [{"action": "neg"}],
    "twisted_sector": [{"action": "neg", "element": [1]}],
    "orbifold_hh": [{"action": "neg"}],
}


def operation_document(op: str) -> dict:
    """The tasks of `op` with the objects they name, and the objects those name."""
    tasks = [{"op": op, "args": args} for args in OPERATION_TASKS[op]]
    names, objects = [v for args in OPERATION_TASKS[op] for v in args.values()], {}
    while names:
        name = names.pop()
        if isinstance(name, str) and name in OBJECTS and name not in objects:
            objects[name] = OBJECTS[name]
            names += OBJECTS[name].values()
    return {"version": "logfan/1", "objects": objects, "tasks": tasks}


def test_every_operation_emits_as_its_oracle(monkeypatch):
    """One small document per operation runs, every task succeeds, its
    handler runs, and its JSON report has the oracle's bytes."""
    assert set(OPERATION_TASKS) == set(OPERATIONS) and len(OPERATIONS) == 21
    ran = []
    for op, (schema, fn) in list(OPERATIONS.items()):
        monkeypatch.setitem(OPERATIONS, op, (schema, lambda args, fn=fn: ran.append(fn) or fn(args)))
    for op in OPERATION_TASKS:
        report = run(parse(json.dumps(operation_document(op))))
        assert [r["status"] for r in report.results] == ["ok"] * len(OPERATION_TASKS[op]), op
        assert emit(report, "json") == emitted_by_oracle(report), op
    handlers = {getattr(cli, name) for name in dir(cli) if name.startswith("_op_")}
    assert set(ran) == handlers and len(handlers) == 21


def test_emit_never_reaches_the_stdlib_encoder(monkeypatch):
    """With `json.dumps` and the pure-Python indent encoder made to raise,
    every fixture report and the F_2 diagonal report still emit as JSON."""
    reports = [run(parse(p.read_text())) for p in sorted(FIXTURES.glob("*.lf.json"))]
    reports.append(diagonal_report("F2"))

    def refuse(*args, **kwargs):
        raise AssertionError("emit reached the stdlib JSON encoder")

    monkeypatch.setattr(json, "dumps", refuse)
    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError):
        json.JSONEncoder(sort_keys=True, indent=2).encode({"a": [1]})
    written = [emit(report, "json") for report in reports]
    monkeypatch.undo()
    assert written == [emitted_by_oracle(report) for report in reports]


def test_writer_matches_oracle_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    text = st.text(st.sampled_from("aB9 \"\\/\x00\n\x1f\x7fé∃\U0001f600\ud800"), max_size=6)
    values = st.recursive(
        st.none() | st.booleans() | st.integers() | text,
        lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                       | st.dictionaries(text, inner)),
        max_leaves=20)

    @hypothesis.settings(max_examples=50, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(values)
    def check(value):
        assert write(value) == oracle(value)

    check()
