"""The JSON writer of `emit` against its oracle, the stdlib encoder with
`sort_keys=True, indent=2`: seeded nested payloads, payloads that hold one
object at several places, the real diagonal reports, one document per
operation, the types it refuses, and a guard that `emit` never reaches the
stdlib's pure-Python indent encoder.  The text and dot formats against the
whole-string renderers they replaced, every format with a chunk boundary
after every part and after every seventh, the memory a streamed report
takes, and how often a recurring list is rendered."""

import collections
import functools
import itertools
import json
import pathlib
import random
import tracemalloc
from fractions import Fraction

import pytest

from logfan import cli
from logfan.cli import OPERATIONS, _write_json, emit, parse, run
from logfan.lattice import IntMatrix
from logfan.logmodel import GradedEntry

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

STRINGS = ["", "a", "P^1", 'say "hi"', "back\\slash", "tab\there\nnewline",
           "nul\x00bell\x07\x1f\x7f", "café", "∃x  ", "\U0001f600",
           "lone \ud800 surrogate", "\udfff", "/", "10", "9", "B", "b"]
INTS = [0, 1, -1, 2, 10, -7, 2 ** 63, -(2 ** 63) - 1, 10 ** 200, 10 ** 200 + 7,
        -(10 ** 200), -(10 ** 200) - 3]
SCALARS = [None, True, False, 0, 1] + STRINGS + INTS


def oracle(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


def chunked(value) -> list[bytes]:
    """The chunks `_write_json` hands its sink for `value`."""
    chunks: list = []
    out = cli._Chunks(chunks.append)
    _write_json(value, out, "\n", {})
    out.flush()
    return chunks


def write(value) -> str:
    return b"".join(chunked(value)).decode()


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


class AppendOnly(cli._Chunks):
    """An output buffer that records each slice read, each part appended and
    each chunk flushed, and refuses every write but an append and a flush."""

    def __init__(self):
        self.written = []
        super().__init__(self.written.append)
        self.reads = []
        self.parts = []

    def append(self, part):
        self.parts.append(part)
        super().append(part)

    def __getitem__(self, index):
        self.reads.append(index)
        return super().__getitem__(index)

    def refuse(self, *args):
        raise AssertionError("the writer changed what it had written")

    __setitem__ = __delitem__ = __iadd__ = insert = extend = pop = remove = refuse


def test_f2_report_writes_each_shared_matrix_as_one_string_and_reads_nothing_back(monkeypatch):
    """All 1,369 face maps of F_2's refinement share one identity matrix, and
    the 25 of its image subcomplex another: each `_json_complex` call turns a
    matrix object into rows once, and the writer writes each shared rows
    list's kept text as one string at every repeat, at the one depth where it
    recurs, without reading back anything it wrote."""
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
    _write_json({"version": "logfan/1", "results": report.results}, out, "\n", {})
    out.flush()
    assert b"".join(out.written).decode() + "\n" == emitted_by_oracle(report).decode()
    assert len(out.reads) == 0
    # both identities have one text, written as that one string at each repeat
    text = write(IntMatrix.identity(4).as_rows()).replace("\n", "\n" + " " * 14)
    joined = collections.Counter(id(item) for item in out.parts if item == text)
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


# The whole-string text and dot renderers that `emit` streamed away, kept as
# the oracles of those formats.

def render_value(value, indent="    "):
    if isinstance(value, list):
        return "\n".join(f"{indent}- {item}" for item in value)
    lines = []
    for k in sorted(value, key=str):
        v = value[k]
        if isinstance(v, dict) and set(v) == {"series", "truncation"}:
            lines.append(f"{indent}{k}: {GradedEntry.series(v['series']).render()}")
        elif isinstance(v, (dict, list)):
            lines.append(f"{indent}{k}:")
            lines.append(render_value(v, indent + "  "))
        else:
            lines.append(f"{indent}{k}: {v}")
    return "\n".join(lines)


def text_by_oracle(report) -> bytes:
    blocks = []
    for r in report.results:
        head = f"[{r['task']}] {r['op']}"
        if r.get("label"):
            head += f" ({r['label']})"
        if r["status"] == "ok":
            blocks.append(head + "\n" + render_value(r["data"]))
        else:
            err = r["error"]
            blocks.append(f"{head}\n    ERROR {err['type']}: {err['message']}")
    return ("\n\n".join(blocks) + "\n").encode()


def dot_by_oracle(report) -> bytes:
    graphs = []
    for label, K in report.attachments:
        lines = (["digraph face_poset {"]
                 + [f'  c{i} [label="c{i} (dim {c.dim})"];' for i, c in enumerate(K.cones)]
                 + [f"  c{fm.source} -> c{fm.target};" for fm in K.nontrivial_face_maps()]
                 + ["}"])
        graphs.append(f"// {label}\n" + "\n".join(lines) + "\n")
    return "\n".join(graphs).encode()


DEFAULT_CHUNK_PARTS = cli._CHUNK_PARTS


@pytest.fixture(params=[1, 7, DEFAULT_CHUNK_PARTS])
def chunk_parts(request, monkeypatch):
    """The number of parts per chunk: a boundary after every part, after
    every seventh, and the default."""
    monkeypatch.setattr(cli, "_CHUNK_PARTS", request.param)
    return request.param


def test_chunked_writer_matches_oracle_on_seeded_and_aliased_payloads(chunk_parts):
    for seed in range(500):
        value = seeded_payload(random.Random(seed))
        assert write(value) == oracle(value), seed
    for shared in ALIASED.values():
        for value in (aliased(shared), [aliased(shared)] * 2 + [{"v": aliased(shared)}]):
            assert write(value) == oracle(value), shared


def test_a_shared_list_flushed_before_it_recurs_matches_oracle(chunk_parts):
    """A shared list, 40 other lists, and the shared list twice more: with
    a boundary every 1 or 7 parts a chunk ends inside the first writing or
    between it and the first repeat, and the bytes still match the oracle."""
    shared = [[1, 2], {"k": [3], "l": ["x", None]}, [[4], []]]
    value = {"a": [shared, [[i] for i in range(40)], shared, {"b": shared}], "c": shared}
    chunks = chunked(value)
    text = oracle(value)
    assert b"".join(chunks).decode() == text
    first = oracle(shared).replace("\n", "\n    ")
    s1 = text.index(first)
    s2 = text.index(first, s1 + len(first))
    assert text.count(first) == 2          # at the indent where it recurs
    boundaries = list(itertools.accumulate(map(len, chunks)))
    assert any(s1 < b <= s2 for b in boundaries) == (chunk_parts < DEFAULT_CHUNK_PARTS)


class Visited(list):
    """A list that counts the passes made over all of its items."""
    visits = 0

    def __iter__(self):
        yield from list.__iter__(self)
        self.visits += 1


@pytest.mark.parametrize("times", [1, 2, 3, 60])
def test_a_recurring_list_is_rendered_at_most_twice(chunk_parts, times):
    """However often a list recurs at one indent, and wherever the chunk
    boundaries fall, the writer passes over its items at most twice: at its
    first writing and at its first repeat, whose text it keeps."""
    shared = Visited([[1, 2], {"k": [3], "l": ["x", None]}, [[4], []]])
    value = {"a": [x for i in range(times) for x in (shared, [[i], {"i": i}])]}
    expected = oracle(value)
    shared.visits = 0
    assert write(value) == expected
    assert 1 <= shared.visits <= min(times, 2)


def reports_of_every_fixture_and_diagonal():
    reports = [run(parse(p.read_text())) for p in sorted(FIXTURES.glob("*.lf.json"))]
    return reports + [diagonal_report(s) for s in ("P1", "A2", "P2", "F1", "F2", "F3")]


def test_chunked_emit_matches_the_oracles_in_every_format(chunk_parts):
    """Every fixture and diagonal report as json, text and dot (where it has
    complexes) is the oracle's bytes, and a sink sees them in chunks of at
    most `chunk_parts` parts."""
    for report in reports_of_every_fixture_and_diagonal():
        expected = {"json": emitted_by_oracle(report), "text": text_by_oracle(report)}
        if report.attachments:
            expected["dot"] = dot_by_oracle(report)
        for fmt, want in expected.items():
            chunks = []
            assert emit(report, fmt, chunks.append) is None
            assert b"".join(chunks) == want == emit(report, fmt), fmt
            if chunk_parts == 1 and len(want) > 1:
                assert len(chunks) > 1, fmt


def test_f2_report_streams_in_under_a_quarter_of_its_size():
    """Emitting the 921,377 bytes of F_2's JSON report to a sink that drops
    them allocates at its peak under a quarter of that: the output is never
    held whole, and neither is every list's text."""
    report = diagonal_report("F2")
    size = len(emit(report, "json"))
    assert size == 921_377
    tracemalloc.start()
    try:
        emit(report, "json", lambda chunk: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size / 4, peak
