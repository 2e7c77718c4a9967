"""CLI: parsing, execution, emission formats, determinism, fixtures."""

import hashlib
import importlib
import json
import pathlib
import re
import subprocess
import sys
import time

import pytest

from logfan import conecomplex as cc
from logfan import cli, hkr, lattice
from logfan import logmodel as lm
from logfan import monoid as mn
from logfan.cli import OPERATIONS, Document, emit, main, parse, run
from logfan.conecomplex import MAX_COMPOSABLE_PAIRS
from logfan.errors import (FormatUnavailable, KindMismatch, ParseError,
                           UnknownOperation, UnresolvedReference)
from logfan.lattice import FgAbelianGroup, IntMatrix
from test_conecomplex import orthant_morphism
from test_exit import _env

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

MINIMAL = """
{
  "version": "logfan/1",
  "objects": {
    "A2": {"kind": "complex", "builtin": "toric_fan",
           "rays": [[1, 0], [0, 1]], "maximal_cones": [[0, 1]], "rank": 2}
  },
  "tasks": [
    {"op": "product", "args": {"left": "A2", "right": "A2"}}
  ]
}
"""


def test_parse_minimal_document():
    doc = parse(MINIMAL)
    assert isinstance(doc, Document)
    assert len(doc.objects) == 1
    assert len(doc.tasks) == 1


def test_parse_rejects_bad_json():
    with pytest.raises(ParseError) as err:
        parse("{not json")
    assert "line" in str(err.value)


def test_parse_rejects_unknown_version():
    with pytest.raises(ParseError):
        parse('{"version": "logfan/99", "objects": {}, "tasks": []}')


def test_parse_unresolved_reference():
    doc = """
    {"version": "logfan/1", "objects": {},
     "tasks": [{"op": "hh_homology", "args": {"model": "missing"}}]}
    """
    with pytest.raises(UnresolvedReference) as err:
        parse(doc)
    assert "missing" in str(err.value)


def test_parse_unknown_operation():
    doc = """
    {"version": "logfan/1", "objects": {},
     "tasks": [{"op": "frobnicate", "args": {}}]}
    """
    with pytest.raises(UnknownOperation):
        parse(doc)


def test_parse_kind_mismatch():
    doc = """
    {"version": "logfan/1",
     "objects": {"M": {"kind": "matrix", "entries": [[1]]}},
     "tasks": [{"op": "hh_homology", "args": {"model": "M"}}]}
    """
    with pytest.raises(KindMismatch):
        parse(doc)


def test_run_product_task():
    report = run(parse(MINIMAL))
    assert report.exit_status == 0
    data = report.results[0]["data"]
    assert data["cone_count"] == 16


def test_errors_do_not_abort_later_tasks():
    doc = parse("""
    {"version": "logfan/1",
     "objects": {
        "X": {"kind": "model", "builtin": "affine_space", "d": 1},
        "Y": {"kind": "model", "builtin": "nodal_cubic"}},
     "tasks": [
        {"op": "periodic_cyclic", "args": {"model": "X"}},
        {"op": "hh_homology", "args": {"model": "Y"}}]}
    """)
    report = run(doc)
    assert report.exit_status == 1
    assert report.results[0]["status"] == "error"
    assert report.results[0]["error"]["type"] == "SeriesNotSupported"
    assert report.results[1]["status"] == "ok"


def test_json_round_trip_and_determinism():
    for fixture in sorted(FIXTURES.glob("*.lf.json")):
        text = fixture.read_text()
        r1 = run(parse(text))
        r2 = run(parse(text))
        b1 = emit(r1, "json")
        b2 = emit(r2, "json")
        assert b1 == b2, fixture
        assert emit(r1, "text") == emit(r2, "text")
        parsed = json.loads(b1.decode())
        assert parsed["results"] == r1.results


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("fixture", sorted(p.name[:-len(".lf.json")]
                                            for p in FIXTURES.glob("*.lf.json")))
def test_fixture_output_bytes_are_pinned(capsysbinary, fixture, fmt):
    """Every fixture's stdout is byte-identical to its digest in the benchmark
    goldens (read here, never written)."""
    goldens = json.loads((ROOT / "perfbench" / "goldens.json").read_text())["outputs"]
    status = main(["run", str(FIXTURES / f"{fixture}.lf.json"), "--format", fmt])
    assert status == (1 if fixture == "orbifold_a1" else 0)
    out = capsysbinary.readouterr().out
    assert hashlib.sha256(out).hexdigest() == goldens[f"fixture:{fixture}:{fmt}"]


def test_paper_suite_stdout_is_pinned(capsys):
    """Every `paper-suite` line, the 186 cocones of check 11c among them, is
    the one in the benchmark goldens (read here, never written)."""
    goldens = json.loads((ROOT / "perfbench" / "goldens.json").read_text())["paper_suite"]
    assert main(["paper-suite"]) == 0
    assert capsys.readouterr().out.splitlines() == goldens


def test_fixture_r_lines_component_counts():
    report = run(parse((FIXTURES / "r_lines.lf.json").read_text()))
    counts = [r["data"]["component_count"] for r in report.results]
    assert counts == [2, 3, 5]


def test_fixture_nodal_cubic_table():
    report = run(parse((FIXTURES / "nodal_cubic.lf.json").read_text()))
    hh = report.results[0]["data"]
    assert hh == {"-1": 1, "0": 2, "1": 1}
    waffle = report.results[3]["data"]
    assert waffle["cone_count"] == 3


def test_dot_output_waffle():
    report = run(parse((FIXTURES / "nodal_cubic.lf.json").read_text()))
    dot = emit(report, "dot").decode()
    assert dot.count("label=") == 3
    assert dot.count("->") == 4


def test_dot_unavailable_without_complexes():
    report = run(parse((FIXTURES / "r_lines.lf.json").read_text()))
    with pytest.raises(FormatUnavailable):
        emit(report, "dot")


def test_main_run_matches_emit_and_rejects_jobs(capsysbinary):
    path = FIXTURES / "r_lines.lf.json"
    expected = emit(run(parse(path.read_text())), "json")
    assert main(["run", str(path), "--format", "json"]) == 0
    assert capsysbinary.readouterr().out == expected
    with pytest.raises(SystemExit) as exc:
        main(["run", str(path), "--format", "json", "--jobs", "2"])
    assert exc.value.code == 2


def test_main_check_and_run(capsys):
    path = str(FIXTURES / "a2_product.lf.json")
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "ok: 1 objects, 1 tasks" in out
    assert main(["run", path, "--format", "json"]) == 0


def test_main_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.lf.json"
    bad.write_text("{]")
    assert main(["run", str(bad)]) == 2


@pytest.mark.parametrize("depth", [995, 100_000])
def test_deeply_nested_document_is_a_parse_error(tmp_path, capsys, depth):
    """A document nested past the JSON parser's recursion limit is refused
    with a ParseError and exit 2, not a RecursionError traceback."""
    deep = "[" * depth + "]" * depth
    p = tmp_path / "deep.lf.json"
    p.write_text('{"version": "logfan/1", "objects": {"M": {"kind": "matrix", '
                 f'"entries": {deep}}}}}, "tasks": []}}')
    assert main(["check", str(p)]) == 2
    assert capsys.readouterr().err == "ParseError: document nested too deeply\n"


@pytest.mark.parametrize("command", ["run", "check"])
def test_an_integer_too_long_to_convert_is_a_parse_error(tmp_path, capsys, command):
    """A matrix entry of 5,000 digits, past the interpreter's limit on
    converting an integer from text, is one ParseError line and exit 2."""
    p = tmp_path / "long.lf.json"
    p.write_text('{"version": "logfan/1", "objects": {"M": {"kind": "matrix", '
                 f'"entries": [[{"7" * 5000}]]}}}}, "tasks": []}}')
    assert main([command, str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ParseError: Exceeds the limit ({sys.get_int_max_str_digits()} digits)")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["run", "check"])
def test_a_document_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    p = tmp_path / "utf16.lf.json"
    p.write_bytes(b'\xff\xfe{"version": "logfan/1"}')
    assert main([command, str(p)]) == 2
    err = capsys.readouterr().err
    assert err == "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"


def test_main_seed_and_truncation_accepted():
    """--truncation is accepted; --seed, which did nothing, is gone."""
    path = str(FIXTURES / "a2_product.lf.json")
    assert main(["--truncation", "5", "run", path, "--format", "json"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "42", "run", path])
    assert exc.value.code == 2


def test_negative_truncation_rejected(capsys, monkeypatch):
    path = FIXTURES / "a1_diagonal.lf.json"
    with pytest.raises(ParseError):
        parse(path.read_text(), truncation=-1)
    assert main(["--truncation", "-1", "run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "truncation must be >= 0" in err and err.count("\n") == 1
    monkeypatch.setenv("LOGFAN_TRUNCATION", "-1")
    assert main(["paper-suite"]) == 2


def test_paper_suite_runs_at_the_default_truncation(capsys):
    """--truncation applies to documents; the suite's lines do not move."""
    assert main(["paper-suite"]) == 0
    default = capsys.readouterr().out
    for t in range(4):
        assert main(["--truncation", str(t), "paper-suite"]) == 0
        assert capsys.readouterr().out == default
    assert main(["--truncation", "-1", "paper-suite"]) == 2
    assert main(["--truncation", "-1", "check", str(FIXTURES / "a1_diagonal.lf.json")]) == 2


def test_truncation_is_bounded_for_every_command(capsys):
    """One check of `--truncation` for every command: paper-suite refuses an
    order past 15 as `check` does, with the same one line, and runs at 15."""
    assert main(["paper-suite"]) == 0
    default = capsys.readouterr().out
    assert main(["--truncation", "15", "paper-suite"]) == 0
    assert capsys.readouterr().out == default
    refusal = "ScopeExceeded: 'truncation' is 16, above the desk-scale bound 15\n"
    for command in (["paper-suite"], ["check", str(FIXTURES / "a1_diagonal.lf.json")]):
        assert main(["--truncation", "16", *command]) == 2
        assert capsys.readouterr() == ("", refusal)


def test_truncation_flag_controls_series(tmp_path, capsys):
    doc = """
    {"version": "logfan/1",
     "objects": {"X": {"kind": "model", "builtin": "affine_space", "d": 1}},
     "tasks": [{"op": "hh_homology", "args": {"model": "X"}}]}
    """
    p = tmp_path / "t.lf.json"
    p.write_text(doc)
    assert main(["--truncation", "3", "run", str(p), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"][0]["data"]["0"]["truncation"] == 3


def test_truncation_zero_reaches_orbifold_tables(tmp_path, capsys):
    halfline = {"kind": "model", "builtin": "mixed_affine", "coords": 1, "log": [0]}
    bare = {"builtin": "mixed_affine", "coords": 1, "log": []}
    doc = {"version": "logfan/1",
           "objects": {"X": halfline,
                       "A": {"kind": "action", "model": "X", "orders": [2],
                             "characters": [[1]]},
                       "B": {"kind": "action", "model": bare, "orders": [2],
                             "characters": [[1]]}},
           "tasks": [{"op": "hh_homology", "args": {"model": "X"}},
                     {"op": "orbifold_hh", "args": {"action": "A"}},
                     {"op": "twisted_sector", "args": {"action": "B", "element": [1]}}]}
    p = tmp_path / "t.lf.json"
    p.write_text(json.dumps(doc))
    assert main(["--truncation", "0", "run", str(p), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out.count('"truncation": 0') == 5 and '"truncation": 1' not in out


def test_complex_literal_roundtrip():
    """The waffle cone written out as a raw {cones, face_maps} literal."""
    doc = parse("""
    {"version": "logfan/1",
     "objects": {
       "W": {"kind": "complex",
             "cones": [{"rank": 0, "rays": []},
                       {"rank": 1, "rays": [[1]]},
                       {"rank": 2, "rays": [[0, 1], [1, 0]]}],
             "face_maps": [
               {"source": 0, "target": 0, "matrix": []},
               {"source": 1, "target": 1, "matrix": [[1]]},
               {"source": 2, "target": 2, "matrix": [[1, 0], [0, 1]]},
               {"source": 0, "target": 1, "matrix": [[]]},
               {"source": 0, "target": 2, "matrix": [[], []]},
               {"source": 1, "target": 2, "matrix": [[1], [0]]},
               {"source": 1, "target": 2, "matrix": [[0], [1]]}]}},
     "tasks": [{"op": "complex_info", "args": {"complex": "W"}}]}
    """)
    report = run(doc)
    assert report.exit_status == 0
    assert report.results[0]["data"]["cone_count"] == 3
    assert report.results[0]["data"]["ray_count"] == 1


def test_model_builtins_toric_and_snc():
    doc = parse("""
    {"version": "logfan/1",
     "objects": {
       "P1": {"kind": "model", "builtin": "toric", "rays": [[1], [-1]],
              "maximal_cones": [[0], [1]], "rank": 1, "complete": true,
              "name": "P^1"},
       "E":  {"kind": "complex", "builtin": "snc", "simplices": [[0, 1]]},
       "sq": {"kind": "model", "builtin": "product",
              "factors": ["P1", {"builtin": "marked_p1", "n": 2}]}},
     "tasks": [
        {"op": "hh_homology", "args": {"model": "P1"}},
        {"op": "complex_info", "args": {"complex": "E"}},
        {"op": "hh_homology", "args": {"model": "sq"}}]}
    """)
    report = run(doc)
    assert report.exit_status == 0
    assert report.results[0]["data"] == {"0": 1, "1": 1}
    assert report.results[1]["data"]["cone_count"] == 4
    assert report.results[2]["data"] == {"0": 1, "1": 2, "2": 1}


def test_truncation_env_var(tmp_path, capsys, monkeypatch):
    doc = """
    {"version": "logfan/1",
     "objects": {"X": {"kind": "model", "builtin": "affine_space", "d": 1}},
     "tasks": [{"op": "hh_homology", "args": {"model": "X"}}]}
    """
    p = tmp_path / "t.lf.json"
    p.write_text(doc)
    monkeypatch.setenv("LOGFAN_TRUNCATION", "4")
    assert main(["run", str(p), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"][0]["data"]["0"]["truncation"] == 4


def test_fixtures_match_published_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((FIXTURES.parent / "docs" / "logfan.schema.json").read_text())
    for p in sorted(FIXTURES.glob("*.lf.json")):
        jsonschema.validate(json.loads(p.read_text()), schema)
    assert set(schema["$defs"]["task"]["properties"]["op"]["enum"]) == set(OPERATIONS)


def test_every_bound_is_stated_in_readme_scale():
    """Each MAX_* constant of src/ is named in README "Scale", with its value
    in the same paragraph."""
    root = FIXTURES.parent
    scale = (root / "README.md").read_text().split("\n## Scale\n")[1].split("\n## ")[0]
    paragraphs = [" ".join(p.split()) for p in scale.split("\n\n")]
    bounds = {}
    for path in sorted((root / "src" / "logfan").glob("*.py")):
        module = importlib.import_module(f"logfan.{path.stem}")
        for name in re.findall(r"^(MAX_\w+) =", path.read_text(), re.M):
            bounds[name] = getattr(module, name)
    assert len(bounds) >= 11
    for name, value in bounds.items():
        stated = [p for p in paragraphs if f"`{name}`" in p]
        assert stated, f"{name} is not named in README Scale"
        assert any(f"{value:,}" in p for p in stated), f"{name} = {value:,} is not stated"


def test_console_script_paper_suite():
    proc = subprocess.run([sys.executable, "-m", "logfan.cli", "paper-suite"],
                          env=_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "17/17 checks passed" in proc.stdout


def _run_document(tmp_path, objects):
    p = tmp_path / "bad.lf.json"
    p.write_text(json.dumps({"version": "logfan/1", "objects": objects, "tasks": []}))
    return main(["run", str(p)])


def test_non_integer_model_field_is_a_parse_error(tmp_path, capsys):
    objects = {"X": {"kind": "model", "builtin": "affine_space", "d": "two"}}
    with pytest.raises(ParseError, match="object 'X': 'd' must be an integer"):
        parse(json.dumps({"version": "logfan/1", "objects": objects, "tasks": []}))
    assert _run_document(tmp_path, objects) == 2
    assert capsys.readouterr().err.startswith("ParseError: object 'X'")


def test_maximal_cone_index_out_of_range_is_a_parse_error(tmp_path, capsys):
    fan = {"rays": [[1, 0], [0, 1]], "maximal_cones": [[0, 5]], "rank": 2}
    objects = {"F": {"kind": "complex", "builtin": "toric_fan", **fan}}
    with pytest.raises(ParseError, match="object 'F': 'maximal_cones' index 5"):
        parse(json.dumps({"version": "logfan/1", "objects": objects, "tasks": []}))
    assert _run_document(tmp_path, objects) == 2
    assert capsys.readouterr().err.startswith("ParseError: object 'F'")
    model = {"M": {"kind": "model", "builtin": "toric", "complete": False, **fan}}
    assert _run_document(tmp_path, model) == 2
    assert capsys.readouterr().err.startswith("ParseError: object 'M'")


_MIXED_AFFINE = {"kind": "model", "builtin": "mixed_affine", "coords": 1, "log": [0]}


@pytest.mark.parametrize("objects", [
    {"M": {"kind": "monoid", "free_rank": "x", "generators": [[1]]}},
    {"M": {"kind": "monoid", "free_rank": 1, "generators": 5}},
    {"M": {"kind": "monoid", "torsion": ["x"], "generators": [[1]]}},
    {"X": _MIXED_AFFINE,
     "A": {"kind": "action", "model": "X", "orders": ["z"], "characters": [[1]]}},
    {"X": _MIXED_AFFINE,
     "A": {"kind": "action", "model": "X", "orders": [2], "characters": [["q"]]}},
    {"K": {"kind": "complex", "builtin": "snc", "simplices": [[0, "a"]]}},
    {"K": {"kind": "complex", "builtin": "snc", "simplices": 5}},
], ids=["free_rank", "generators", "torsion", "orders", "characters",
        "simplex_entry", "simplices"])
def test_malformed_monoid_action_and_snc_fields(tmp_path, capsys, objects):
    assert _run_document(tmp_path, objects) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ParseError: object ")


@pytest.mark.parametrize("fields", [
    {"cones": 5, "face_maps": []},
    {"cones": [], "face_maps": {}},
    {"cones": [5], "face_maps": []},
    {"cones": [{"rank": 1, "rays": [[1]]}], "face_maps": ["x"]},
], ids=["cones", "face_maps", "cone_entry", "face_map_entry"])
def test_malformed_literal_complex_fields(tmp_path, capsys, fields):
    assert _run_document(tmp_path, {"K": {"kind": "complex", **fields}}) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ParseError: object 'K'")


def test_deep_membership_check_is_out_of_scope(tmp_path, capsys):
    objects = {"N": {"kind": "monoid", "free_rank": 1, "generators": [[1]]},
               "S": {"kind": "monoid", "free_rank": 1, "generators": [[2], [3]]},
               "f": {"kind": "hom", "source": "N", "target": "S", "matrix": [[1000000]]}}
    p = tmp_path / "deep.lf.json"
    p.write_text(json.dumps({"version": "logfan/1", "objects": objects, "tasks": []}))
    start = time.perf_counter()
    assert main(["check", str(p)]) == 2
    assert time.perf_counter() - start < 0.1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ScopeExceeded: object 'f': ")
    assert "500000 generator steps" in err[0]


def test_large_product_model_is_out_of_scope(tmp_path, capsys):
    """Eight copies of P^1 would build 3^8 = 6,561 cones; the product is
    sized from its factors before any of it is built."""
    objects = {"P": {"kind": "model", "builtin": "p1"},
               "X": {"kind": "model", "builtin": "product", "factors": ["P"] * 8}}
    p = tmp_path / "product.lf.json"
    p.write_text(json.dumps({"version": "logfan/1", "objects": objects, "tasks": []}))
    start = time.perf_counter()
    assert main(["check", str(p)]) == 2
    assert time.perf_counter() - start < 0.1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ScopeExceeded: object 'X': ")
    assert "6561 cones" in err[0]


def test_large_snc_simplex_is_out_of_scope(tmp_path, capsys):
    """One simplex on 10 vertices would build 2^10 cones; the simplices are
    counted before any cone is built."""
    objects = {"K": {"kind": "complex", "builtin": "snc", "simplices": [list(range(10))]}}
    p = tmp_path / "simplex.lf.json"
    p.write_text(json.dumps({"version": "logfan/1", "objects": objects, "tasks": []}))
    start = time.perf_counter()
    assert main(["check", str(p)]) == 2
    assert time.perf_counter() - start < 0.1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ScopeExceeded: object 'K': ")
    assert "more than 1000 cones" in err[0]


def test_large_product_task_is_out_of_scope(tmp_path, capsys):
    """Two snc simplices on 6 vertices have 64 cones each, but their product
    would build 4,096 cones and 531,441 face maps; it is sized first."""
    doc = {"version": "logfan/1",
           "objects": {"K": {"kind": "complex", "builtin": "snc",
                             "simplices": [list(range(6))]}},
           "tasks": [{"op": "product", "args": {"left": "K", "right": "K"}}]}
    p = tmp_path / "product.lf.json"
    p.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["run", str(p), "--format", "json"]) == 1
    assert time.perf_counter() - start < 0.1
    error = json.loads(capsys.readouterr().out)["results"][0]["error"]
    assert error["type"] == "ScopeExceeded" and "4096 cones" in error["message"]


def _glued_ray(maps, malformed_last=False):
    """The zero cone and the ray (1, 0) in rank 2, with the maps [[1, a], [0, 0]]
    from each onto the ray: closed under composition, and 2 (maps / 2)^2
    composable pairs.  With `malformed_last`, the last matrix is not integral."""
    glue = [{"source": s, "target": 1, "matrix": [[1, a], [0, 0]]}
            for a in range(maps // 2 - 1) for s in (0, 1)]
    if malformed_last:
        glue[-1]["matrix"] = [[1, "a"], [0, 0]]
    return {"cones": [{"rank": 2, "rays": []}, {"rank": 2, "rays": [[1, 0]]}],
            "face_maps": [{"source": 0, "target": 0}, {"source": 1, "target": 1}] + glue}


@pytest.mark.parametrize("fields, count", [
    ({"cones": [{"rank": 0}] * 1_001, "face_maps": []}, "'cones' has 1001 entries"),
    ({"cones": [{"rank": 0}], "face_maps": [{"source": 0, "target": 0}] * 10_001},
     "'face_maps' has 10001 entries"),
    (_glued_ray(10_000), "more than 100000 composable pairs"),
    (_glued_ray(10_000, malformed_last=True), "more than 100000 composable pairs"),
], ids=["cones", "face_maps", "composable_pairs", "composable_pairs_then_malformed"])
def test_large_literal_complex_is_out_of_scope(tmp_path, capsys, fields, count):
    """A literal complex is counted before its face maps are checked: cones
    and face maps before any cone is built, the composable pairs of the face
    maps as each map is read, so no map past the bound, not even a malformed
    one, is read."""
    p = tmp_path / "literal.lf.json"
    p.write_text(json.dumps({"version": "logfan/1",
                             "objects": {"K": {"kind": "complex", **fields}}, "tasks": []}))
    start = time.perf_counter()
    assert main(["check", str(p)]) == 2
    assert time.perf_counter() - start < 0.1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ScopeExceeded: object 'K': ")
    assert count in err[0]


def test_repeated_face_map_counts_once(tmp_path, capsys):
    """The pre-count, like `validate`, counts distinct face maps: an identity
    listed 317 times is 100,489 listed pairs but one composable pair."""
    maps = [{"source": 0, "target": 0}] * 317
    p = tmp_path / "repeated.lf.json"
    p.write_text(json.dumps({"version": "logfan/1", "objects": {"K": {
        "kind": "complex", "cones": [{"rank": 1}], "face_maps": maps}},
        "tasks": []}))
    assert 317 ** 2 > MAX_COMPOSABLE_PAIRS
    assert main(["check", str(p)]) == 0
    assert capsys.readouterr().err == ""


def test_written_identity_counts_as_the_identity_left_out(tmp_path, capsys):
    """The pre-count keys a map with no matrix by the identity it stands for,
    as `validate` does: the ray's identity, left out and written out, is one
    map, so 99,542 composable pairs stay under the bound."""
    maps = ([{"source": 0, "target": 0}, {"source": 1, "target": 1},
             {"source": 0, "target": 1, "matrix": [[], []]}]
            + [{"source": 1, "target": 1, "matrix": [[1, a], [0, 0]]} for a in range(1, 315)]
            + [{"source": 1, "target": 1, "matrix": [[1, 0], [0, 1]]}])
    p = tmp_path / "identity.lf.json"
    p.write_text(json.dumps({"version": "logfan/1", "objects": {"K": {
        "kind": "complex", "cones": [{"rank": 0}, {"rank": 2, "rays": [[1, 0]]}],
        "face_maps": maps}}, "tasks": []}))
    assert 317 * 316 + 2 > MAX_COMPOSABLE_PAIRS >= 316 * 315 + 2
    assert main(["check", str(p)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("op, args, message", [
    ("subdivide_along_diagonal", {},
     "subdividing needs an embedded target (one lattice, identity face maps)"),
    ("star_subdivision", {"cone": 4, "ray": [1, 1]},
     "stellar subdivision needs an embedded complex (one lattice, identity face maps)"),
], ids=["subdivide_along_diagonal", "star_subdivision"])
def test_subdividing_snc_complex_is_refused_as_not_embedded(tmp_path, capsys, op, args, message):
    """An snc complex has no parallel face maps, so it is not self-glued; it is
    refused because its cones live in lattices of ranks 0, 1 and 2."""
    doc = {"version": "logfan/1",
           "objects": {"K": {"kind": "complex", "builtin": "snc",
                             "simplices": [[0, 1], [1, 2]]}},
           "tasks": [{"op": op, "args": {"complex": "K", **args}}]}
    p = tmp_path / "snc.lf.json"
    p.write_text(json.dumps(doc))
    assert main(["run", str(p), "--format", "json"]) == 1
    error = json.loads(capsys.readouterr().out)["results"][0]["error"]
    assert error == {"type": "ScopeExceeded", "message": message}


@pytest.mark.parametrize("builtin, rank", [("toric", 7), ("toric_fan", 11)])
def test_large_toric_rank_is_out_of_scope(tmp_path, capsys, builtin, rank):
    """A toric rank is bounded like `d`: the identity cone of rank 11 would
    give a fan of 2^11 cones."""
    fields = {"builtin": builtin, "rays": [[int(i == j) for j in range(rank)]
                                           for i in range(rank)],
              "maximal_cones": [list(range(rank))], "rank": rank}
    if builtin == "toric":
        fields.update(kind="model", complete=False)
    else:
        fields.update(kind="complex")
    p = tmp_path / "toric.lf.json"
    p.write_text(json.dumps({"version": "logfan/1", "objects": {"X": fields}, "tasks": []}))
    start = time.perf_counter()
    assert main(["check", str(p)]) == 2
    assert time.perf_counter() - start < 0.1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ScopeExceeded: object 'X': ")
    assert f"'rank' is {rank}, above the desk-scale bound 6" in err[0]
    fields.update(rays=[row[:6] for row in fields["rays"][:6]],
                  maximal_cones=[list(range(6))], rank=6)
    p.write_text(json.dumps({"version": "logfan/1", "objects": {"X": fields}, "tasks": []}))
    assert main(["check", str(p)]) == 0


def test_hexagon_is_not_two_triangles(tmp_path, capsys):
    """The two complexes agree on every cone invariant; the search refutes
    each placement of a cycle as soon as it closes."""
    hexagon = [[i, (i + 1) % 6] for i in range(6)]
    triangles = [[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]]
    doc = {"version": "logfan/1",
           "objects": {"H": {"kind": "complex", "builtin": "snc", "simplices": hexagon},
                       "T": {"kind": "complex", "builtin": "snc", "simplices": triangles}},
           "tasks": [{"op": "is_isomorphic", "args": {"left": "H", "right": "T"}}]}
    p = tmp_path / "cycles.lf.json"
    p.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["run", str(p), "--format", "json"]) == 0
    assert time.perf_counter() - start < 1
    assert json.loads(capsys.readouterr().out)["results"][0]["data"] == {"isomorphic": False}


def test_inline_hom_argument_is_built():
    R = {"kind": "monoid", "free_rank": 1, "generators": [[1]]}
    hom = {"kind": "hom", "source": "R", "target": "R", "matrix": [[1]]}
    doc = parse(json.dumps({"version": "logfan/1", "objects": {"R": R}, "tasks": [
        {"op": "fs_pushout", "args": {"left": hom, "right": hom}}]}))
    assert run(doc).results[0]["status"] == "ok"


_FAN = {"kind": "complex", "builtin": "toric_fan", "rays": [[1, 0], [0, 1]],
        "maximal_cones": [[0, 1]], "rank": 2}
_ACTION = {"kind": "action", "model": _MIXED_AFFINE, "orders": [2], "characters": [[1]]}
_MONOID = {"kind": "monoid", "free_rank": 1, "generators": [[1]]}
_TORIC = {"kind": "model", "builtin": "toric", "rays": [[1], [-1]],
          "maximal_cones": [[0], [1]], "rank": 1, "complete": True}


def _star(**args):
    return {"K": _FAN}, {"op": "star_subdivision", "args": {"complex": "K", **args}}


@pytest.mark.parametrize("objects, task", [
    _star(ray="11"),
    _star(ray=[1, 1], cone=3.9),
    _star(ray=[1, 1], cone=True),
    _star(),
    ({"M": {"kind": "matrix", "entries": [[1.5]]}}, None),
    ({"M": {"kind": "matrix", "entries": [["7"]]}}, None),
    ({"M": {"kind": "matrix", "entries": [[True]]}}, None),
    ({"P": {**_TORIC, "complete": "no"}}, None),
    ({"P": {**_TORIC, "name": 5}}, None),
    ({"N": _MONOID}, {"op": "spec_component_count",
                      "args": {"monoid": "N", "require_saturated": "no"}}),
    ({"N": _MONOID}, {"op": "is_saturated", "args": {"monoid": "N"}, "label": 5}),
    ({"A": _ACTION}, {"op": "twisted_sector", "args": {"action": "A"}}),
    ({"A": _ACTION}, {"op": "twisted_sector", "args": {"action": "A", "element": "1"}}),
], ids=["ray_string", "cone_float", "cone_bool", "ray_missing", "entry_float",
        "entry_string", "entry_bool", "complete_string", "name_int",
        "require_saturated_string", "label_int", "element_missing", "element_string"])
def test_values_are_read_not_coerced(tmp_path, capsys, objects, task):
    p = tmp_path / "bad.lf.json"
    p.write_text(json.dumps({"version": "logfan/1", "objects": objects,
                             "tasks": [task] if task else []}))
    assert main(["run", str(p)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ParseError: ")


def _main_json(tmp_path, capsysbinary, objects, tasks):
    """(exit status, results) of one document through `main --format json`."""
    p = tmp_path / "doc.lf.json"
    p.write_text(json.dumps({"version": "logfan/1", "objects": objects, "tasks": tasks}))
    status = main(["run", str(p), "--format", "json"])
    return status, json.loads(capsysbinary.readouterr().out)["results"]


# (1, 1) is in the group and 2 (1, 1) = (2, 0) is in the monoid, but (1, 1) is not
_SATURABLE = {"kind": "monoid", "free_rank": 1, "torsion": [2], "generators": [[2, 0], [3, 1]]}
_TWO_COMPONENTS = {"kind": "monoid", "free_rank": 1, "torsion": [2],
                   "generators": [[1, 0], [0, 1]]}


def _monoid(spec):
    return mn.FineMonoid.make(FgAbelianGroup(spec["free_rank"], spec.get("torsion", ())),
                              spec["generators"])


def _expect_saturate():
    rep = mn.saturate(_monoid(_SATURABLE))
    S = rep.saturated
    return {"ambient": {"free_rank": S.ambient.free_rank,
                        "torsion": list(S.ambient.torsion_orders)},
            "generators": [list(g) for g in S.generators],
            "torsion_order": rep.torsion_order,
            "added_generators": [list(g) for g in rep.index_data]}


def _expect_star():
    sub = cc.star_subdivision(cc.from_toric_fan([(1, 0), (0, 1)], [(0, 1)], 2), 3, (1, 2))
    K = sub.refined
    return {"cones": [{"rank": c.lattice_rank, "rays": [list(r) for r in c.rays]}
                      for c in K.cones],
            "face_maps": [{"source": fm.source, "target": fm.target,
                           "matrix": fm.matrix.as_rows()} for fm in K.face_maps],
            "cone_count": K.cone_count, "ray_count": K.ray_count,
            "trivial": sub.is_trivial(),
            "unimodular": {str(i): K.cones[i].is_unimodular for i in K.maximal_cone_indices()}}


_M = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]


def _snf():
    snf = lattice.smith_normal_form(IntMatrix.from_rows(_M))
    return {"U": snf.U.as_rows(), "D": snf.D.as_rows(), "V": snf.V.as_rows(),
            "diagonal": list(snf.diagonal())}


def _cokernel():
    G = lattice.cokernel(IntMatrix.from_rows(_M))
    return {"free_rank": G.free_rank, "torsion": list(G.torsion_orders)}


# op: (objects, args, the data the library gives)
HANDLER_CASES = {
    "smith_normal_form": ({"M": {"kind": "matrix", "entries": _M}}, {"matrix": "M"}, _snf),
    "cokernel": ({"M": {"kind": "matrix", "entries": _M}}, {"matrix": "M"}, _cokernel),
    "saturate_subgroup": (
        {"G": {"kind": "matrix", "entries": [[2, 0, 2], [0, 3, 3]]}}, {"generators": "G"},
        lambda: {"basis": [list(b) for b in
                           lattice.saturate_subgroup([(2, 0, 2), (0, 3, 3)], 3)]}),
    "hilbert_basis": (
        {"G": {"kind": "matrix", "entries": [[1, 0], [2, 7]]}}, {"generators": "G"},
        lambda: {"basis": [list(b) for b in mn.hilbert_basis([(1, 0), (2, 7)], 2)]}),
    "saturate": ({"P": _SATURABLE}, {"monoid": "P"}, _expect_saturate),
    "is_saturated": ({"P": _SATURABLE}, {"monoid": "P"},
                     lambda: {"saturated": mn.is_saturated(_monoid(_SATURABLE))}),
    "spec_component_count": (
        {"P": _TWO_COMPONENTS}, {"monoid": "P"},
        lambda: {"count": mn.spec_component_count(_monoid(_TWO_COMPONENTS))}),
    "star_subdivision": ({"K": _FAN}, {"complex": "K", "cone": 3, "ray": [1, 2]},
                         _expect_star),
    "periodic_cyclic": ({"X": {"kind": "model", "builtin": "p2"}}, {"model": "X"},
                        lambda: hkr.periodic_cyclic(lm.p2_toric_model()).to_json()),
}


@pytest.mark.parametrize("op", sorted(HANDLER_CASES))
def test_handler_data_through_main_matches_the_library(tmp_path, capsysbinary, op):
    objects, args, expect = HANDLER_CASES[op]
    status, results = _main_json(tmp_path, capsysbinary, objects,
                                 [{"op": op, "args": args}])
    assert status == 0
    assert results[0]["status"] == "ok"
    assert results[0]["data"] == expect()


def test_euler_check_of_an_open_model_is_a_task_error(tmp_path, capsysbinary):
    objects = {"X": {"kind": "model", "builtin": "affine_space", "d": 2}}
    status, results = _main_json(tmp_path, capsysbinary, objects,
                                 [{"op": "euler_check", "args": {"model": "X"}}])
    assert status == 1
    assert results[0]["error"]["type"] == "SeriesNotSupported"


def test_product_model_of_series_and_finite_factors_commutes(tmp_path, capsysbinary):
    """A^1 x P^1 multiplies series entries by finite ones, P^1 x A^1 finite
    by series: both give the same Hodge table and homology."""
    A, P = lm.affine_space_model(1), lm.p1_toric_model()
    assert lm.product_model(A, P).hodge == lm.product_model(P, A).hodge
    objects = {"A": {"kind": "model", "builtin": "affine_space", "d": 1},
               "P": {"kind": "model", "builtin": "p1"},
               "AP": {"kind": "model", "builtin": "product", "factors": ["A", "P"]},
               "PA": {"kind": "model", "builtin": "product", "factors": ["P", "A"]}}
    status, results = _main_json(tmp_path, capsysbinary, objects,
                                 [{"op": "hh_homology", "args": {"model": m}}
                                  for m in ("AP", "PA")])
    assert status == 0
    assert results[0]["data"] == results[1]["data"]
    assert results[0]["data"] == hkr.hh_homology(lm.product_model(A, P)).to_json()


# ------------------------------------------- documents reaching rare branches

_P1 = {"kind": "model", "builtin": "p1"}


def _product_of(*factors):
    return {"kind": "model", "builtin": "product", "factors": list(factors)}


def _toric_model(rays, cones, rank, complete):
    return {"kind": "model", "builtin": "toric", "rays": rays, "maximal_cones": cones,
            "rank": rank, "complete": complete}


def _literal(cones, maps):
    return {"kind": "complex", "cones": cones,
            "face_maps": [{"source": s, "target": t, **({"matrix": m} if m else {})}
                          for s, t, m in maps]}


# A ray in rank 2 glued to itself twice, as the nodal cubic's quadrant is:
# both have 3 cones and 7 face maps, but different cone shapes.
_GLUED_RAYS = _literal([{"rank": 0}, {"rank": 1, "rays": [[1]]}, {"rank": 2, "rays": [[1, 0]]}],
                       [(0, 0, None), (1, 1, None), (2, 2, None), (0, 1, [[]]),
                        (0, 2, [[], []]), (2, 2, [[1, 1], [0, 0]]), (2, 2, [[1, 2], [0, 0]])])

# name: (objects, tasks, the one line `main` writes to stderr)
REFUSED_WHILE_READ = {
    "unknown_complex_builtin": (
        {"K": {"kind": "complex", "builtin": "sphere"}}, [],
        "ParseError: object 'K': unknown complex builtin 'sphere'"),
    "product_of_one": (
        {"X": _product_of(_P1)}, [],
        "ParseError: object 'X': a product needs at least two factors"),
    "ragged_rows": (
        {"M": {"kind": "matrix", "entries": [[1, 2], [3]]}}, [],
        "ParseError: object 'M': 'entries' rows must have equal lengths"),
    "unknown_argument": (
        {"X": _P1}, [{"op": "hh_homology", "args": {"model": "X", "degree": 1}}],
        "ParseError: task 0: operation 'hh_homology' got unknown argument 'degree'"),
    "inline_wrong_kind": (
        {}, [{"op": "hh_homology", "args": {"model": {"kind": "complex", "builtin": "point"}}}],
        "KindMismatch: task 0: inline object has kind 'complex', expected 'model'"),
    "circular_reference": (
        {"A": _product_of("B", _P1), "B": _product_of("A", _P1)}, [],
        "ParseError: object 'A': object 'B': circular reference to 'A'"),
    "illegal_face_map": (
        {"K": _literal([{"rank": 1, "rays": [[1]]}, {"rank": 2, "rays": [[1, 0], [0, 1]]}],
                       [(0, 0, None), (1, 1, None), (0, 1, [[1], [1]])])}, [],
        "ParseError: object 'K': illegal face map 0 -> 1"),
    "missing_face": (
        {"K": _literal([{"rank": 1, "rays": [[1]]}], [(0, 0, None)])}, [],
        "ParseError: object 'K': face of cone 0 is not the image of any face map"),
    "complete_with_a_lower_dimensional_cone": (
        {"X": _toric_model([[1, 0], [-1, 0]], [[0], [1]], 2, True)}, [],
        "NotComplete: object 'X': fan support is not the whole space"),
    "affine_with_two_cones": (
        {"X": _toric_model([[1], [-1]], [[0], [1]], 1, False)}, [],
        "ScopeExceeded: object 'X': affine toric models use a single maximal cone"),
    "affine_with_a_lower_dimensional_cone": (
        {"X": _toric_model([[1, 0]], [[0]], 2, False)}, [],
        "ScopeExceeded: object 'X': affine toric models need a full-dimensional cone"),
    "group_on_p1": (
        {"A": {"kind": "action", "model": _P1, "orders": [2], "characters": [[1]]}}, [],
        "ScopeExceeded: object 'A': nontrivial actions are supported on mixed-affine "
        "models and marked P^1"),
}


@pytest.mark.parametrize("name", sorted(REFUSED_WHILE_READ))
def test_document_refused_while_read(tmp_path, capsys, name):
    objects, tasks, message = REFUSED_WHILE_READ[name]
    p = tmp_path / "doc.lf.json"
    p.write_text(json.dumps({"version": "logfan/1", "objects": objects, "tasks": tasks}))
    assert main(["run", str(p)]) == 2
    assert capsys.readouterr() == ("", message + "\n")


_MARKED_P1_ACTION = {"kind": "action", "model": {"kind": "model", "builtin": "marked_p1", "n": 2},
                     "orders": [2], "characters": [[1, 0]]}

# name: (objects, task, the task's error type and message)
TASK_ERRORS = {
    "star_at_zero": ({"K": _FAN}, _star(ray=[0, 0], cone=3)[1],
                     ("RayOutsideSupport", "the zero vector generates no ray")),
    "star_cone_out_of_range": ({"K": _FAN}, _star(ray=[1, 1], cone=4)[1],
                               ("ValueError", "cone index out of range")),
    "orbifold_hh_of_marked_p1": (
        {"A": _MARKED_P1_ACTION}, {"op": "orbifold_hh", "args": {"action": "A"}},
        ("ScopeExceeded", "orbifold tables are computed for mixed-affine models")),
}


@pytest.mark.parametrize("name", sorted(TASK_ERRORS))
def test_task_error_reached_through_main(tmp_path, capsysbinary, name):
    objects, task, (kind, message) = TASK_ERRORS[name]
    status, results = _main_json(tmp_path, capsysbinary, objects, [task])
    assert status == 1
    assert results[0]["error"] == {"type": kind, "message": message}


def test_small_builtins_through_main(tmp_path, capsysbinary):
    """The point complex, a toric fan with no maximal cone (the zero cone of
    its rank), A^0, a toric model of rank 0 (its cone has no rays, so index
    1), and two complexes with equal counts but different cone shapes."""
    objects = {"pt": {"kind": "complex", "builtin": "point"},
               "zero": {"kind": "complex", "builtin": "toric_fan", "rays": [[1, 0]],
                        "maximal_cones": [], "rank": 2},
               "A0": {"kind": "model", "builtin": "affine_space", "d": 0},
               "T0": _toric_model([], [[]], 0, False),
               "waffle": {"kind": "complex", "builtin": "nodal_cubic"},
               "glued": _GLUED_RAYS}
    tasks = [{"op": "complex_info", "args": {"complex": "pt"}},
             {"op": "complex_info", "args": {"complex": "zero"}},
             {"op": "hh_homology", "args": {"model": "A0"}},
             {"op": "hh_cohomology", "args": {"model": "T0"}},
             {"op": "is_isomorphic", "args": {"left": "waffle", "right": "glued"}}]
    status, results = _main_json(tmp_path, capsysbinary, objects, tasks)
    assert status == 0
    data = [r["data"] for r in results]
    assert data[0] == {"cones": [{"rank": 0, "rays": []}], "cone_count": 1, "ray_count": 0,
                       "face_maps": [{"source": 0, "target": 0, "matrix": []}]}
    assert data[1] == {"cones": [{"rank": 2, "rays": []}], "cone_count": 1, "ray_count": 0,
                       "face_maps": [{"source": 0, "target": 0, "matrix": [[1, 0], [0, 1]]}]}
    assert data[2] == {"0": 1}
    assert data[3] == {"0": {"series": [1] + [0] * 10, "truncation": 10}}
    assert data[4] == {"isomorphic": False}


def test_main_refuses_what_it_cannot_read_or_draw(tmp_path, capsys):
    p = tmp_path / "doc.lf.json"
    assert main(["run", str(p)]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 2] No such file")
    p.write_text("[]")
    assert main(["run", str(p)]) == 2
    assert capsys.readouterr().err == "ParseError: document must be a JSON object\n"
    assert main(["run", str(FIXTURES / "r_lines.lf.json"), "--format", "dot"]) == 2
    assert capsys.readouterr() == (
        "", "FormatUnavailable: no face-poset-bearing results in this report\n")


def test_emit_refuses_an_unknown_format():
    with pytest.raises(FormatUnavailable, match="unknown format 'xml'"):
        emit(run(parse(MINIMAL)), "xml")


def test_image_flags_say_when_the_diagonal_was_subdivided():
    """A morphism whose image cone a barycenter round splits (see
    test_barycenter_round_resolves_a_crossed_image_cone) does not factor."""
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    source = cc.from_toric_fan(e, [(0, 1), (2,)], 3)
    res = cc.subdivide_along(orthant_morphism(source, [(0, 0, 1), (1, 1, 0), (0, 1, 1)]))
    assert res.factoring is None
    assert cli._json_image_flags(res) == {
        "4": {"dim": 2, "naive_star_convex": False}, "diagonal_subdivided": True}


def _perfbench_workloads():
    """The benchmark's job lists and output checks, imported read-only."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


@pytest.mark.parametrize("surface", ["P1", "A2", "P2", "F1", "F2", "F3"])
def test_diagonal_outputs_match_the_benchmark_goldens(surface):
    """The log_diagonal and subdivide_along_diagonal results of each surface
    of the benchmark's diagonal family, run in process, pass its check."""
    workloads = _perfbench_workloads()
    job = workloads.diagonal_job(surface)
    report = run(parse(json.dumps(job.document)))
    checks = workloads.check(job, report.exit_status, emit(report, "json"),
                             workloads.load_goldens())
    assert len(checks) == 1 + len(job.tasks)
    assert all(ok for _, ok in checks), checks


def test_kernels_outputs_match_the_benchmark_checks():
    """Every job of the benchmark's kernels workload, for ten seeds, run in
    process, passes its check: goldens for the 3-d cones and the monoids,
    and the benchmark's own oracles for the plane cones and the orbifold
    tables."""
    workloads = _perfbench_workloads()
    goldens = workloads.load_goldens()
    names = set()
    for seed in range(1, 11):
        for job in workloads.build("kernels", seed):
            report = run(parse(json.dumps(job.document)))
            checks = workloads.check(job, report.exit_status, emit(report, "json"), goldens)
            assert len(checks) == 1 + len(job.tasks)
            assert all(ok for _, ok in checks), (seed, checks)
            names.add(job.name)
    assert names == {"hb-wide", "hb-narrow", "monoids", "orbifold"}
