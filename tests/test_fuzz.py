"""Single-field mutations of the fixtures through `main`: every malformed
document ends in exit 0, 1 or 2 with a one-line diagnostic, never a
traceback, and fast enough to need no alarm or memory limit."""

import copy
import json
import pathlib
import random
import time

from logfan.cli import main

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

DROP = object()
VALUES = [DROP, None, 5, -3, "x", [], {}, [[0, 99]], [1.5], 10**6, [-1], True]


def _paths(node, prefix=()):
    """Every field of a JSON value: object keys and list positions, nested."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _documents():
    for fixture in sorted(FIXTURES.glob("*.lf.json")):
        doc = json.loads(fixture.read_text())
        for path in _paths(doc):
            for value in VALUES:
                yield fixture.stem, path, value, _mutated(doc, path, value)


def test_every_field_mutation_exits_cleanly(tmp_path, capsysbinary):
    documents = list(_documents())
    sample = random.Random(7).sample(documents, len(documents) // 6)
    target = tmp_path / "doc.lf.json"
    start = time.perf_counter()
    for i, (stem, path, value, doc) in enumerate(sample):
        target.write_text(json.dumps(doc))
        fmt = ("json", "text")[i % 2]
        case = f"{stem} {path} <- {'drop' if value is DROP else value!r}"
        try:
            code = main(["run", str(target), "--format", fmt])
        except Exception as exc:     # anything here would be a traceback
            raise AssertionError(f"{case}: {type(exc).__name__}: {exc}") from exc
        err = capsysbinary.readouterr().err.decode()
        assert code in (0, 1, 2), case
        assert "Traceback" not in err, case
        if code == 2:
            assert err.count("\n") == 1, (case, err)
    assert time.perf_counter() - start < 5.0
