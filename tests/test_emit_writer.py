"""The JSON writer of `emit` against its oracle, the stdlib encoder with
`sort_keys=True, indent=2`: seeded nested payloads, the real diagonal
reports, the types it refuses, and a guard that `emit` never reaches the
stdlib's pure-Python indent encoder."""

import functools
import json
import pathlib
import random
from fractions import Fraction

import pytest

from logfan.cli import _write_json, emit, parse, run

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
