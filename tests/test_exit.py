"""The CLI through a real interpreter exit.

`main` registers `gc.freeze` with `atexit`, so the interpreter's final
collection skips what is left when the process ends.  What a command prints,
its stderr and its exit status must not change for it: every fixture in
every format, a document that is refused, and `paper-suite`, each with
stdout piped and redirected to a file, against the same work done in this
process.  `main` registers the hook once however often it runs, and a
program that only imports the package registers nothing.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from logfan.cli import emit, parse, run
from logfan.errors import FormatUnavailable, LogfanError
from logfan.suite import run_paper_suite

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
SRC = ROOT / "src"

# `logfan run` on this is refused while the document is read (exit 2)
UNREADABLE = '{"version": "logfan/1", "objects": {"X": {"kind": "model"}}, "tasks": []}'


def _env():
    """The default truncation, and stdout buffered as it is by default, so
    that output lost with an unflushed buffer shows."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    for key in ("LOGFAN_TRUNCATION", "PYTHONUNBUFFERED"):
        env.pop(key, None)
    return env


def _real_exit(args, tmp_path, to_file):
    """(stdout, stderr, exit status) of `python -m logfan.cli ARGS`."""
    cmd = [sys.executable, "-m", "logfan.cli", *args]
    if not to_file:
        proc = subprocess.run(cmd, env=_env(), capture_output=True)
        return proc.stdout, proc.stderr, proc.returncode
    out = tmp_path / "stdout"
    with open(out, "wb") as fh:
        proc = subprocess.run(cmd, env=_env(), stdout=fh, stderr=subprocess.PIPE)
    return out.read_bytes(), proc.stderr, proc.returncode


def _in_process_run(path, fmt):
    try:
        report = run(parse(path.read_text(encoding="utf-8")))
    except LogfanError as exc:
        return b"", f"{type(exc).__name__}: {exc}\n".encode(), 2
    try:
        return emit(report, fmt), b"", report.exit_status
    except FormatUnavailable as exc:
        return b"", f"FormatUnavailable: {exc}\n".encode(), 2


def _in_process_suite():
    results = run_paper_suite()
    lines = [f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}" for r in results]
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return ("\n".join(lines) + "\n").encode(), b"", 0 if failed == 0 else 1


CASES = ([(path.name, fmt) for path in sorted(FIXTURES.glob("*.lf.json"))
          for fmt in ("json", "text", "dot")]
         + [("unreadable", "json"), ("paper-suite", None)])


@pytest.mark.parametrize("name, fmt", CASES)
def test_output_survives_a_real_exit(tmp_path, name, fmt):
    if name == "paper-suite":
        args, expected = ["paper-suite"], _in_process_suite()
    else:
        path = FIXTURES / name
        if name == "unreadable":
            path = tmp_path / "unreadable.lf.json"
            path.write_text(UNREADABLE)
        args, expected = ["run", str(path), "--format", fmt], _in_process_run(path, fmt)
    if name == "unreadable":
        assert expected[2] == 2 and expected[1].startswith(b"ParseError: object 'X'")
    for to_file in (False, True):
        assert _real_exit(args, tmp_path, to_file) == expected, (name, fmt, to_file)


HOOK_PROBE = """
import atexit, gc, sys
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0))
before = atexit._ncallbacks()
import logfan.cli
print("import registers:", atexit._ncallbacks() - before)
for _ in range(3):
    logfan.cli.main(["check", sys.argv[1]])
print("main registers:", atexit._ncallbacks() - before, gc.isenabled(), gc.get_freeze_count())
"""


def test_main_registers_the_freeze_once_and_import_registers_nothing():
    """Three calls of `main` register one handler and leave `gc` enabled and
    unfrozen while the process lives.  The probe's own handler goes in
    first, so it runs last, after the freeze: by then the permanent
    generation holds what was left."""
    fixture = FIXTURES / "r_lines.lf.json"
    proc = subprocess.run([sys.executable, "-c", HOOK_PROBE, str(fixture)], env=_env(),
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    checked = proc.stdout.splitlines()[1]
    assert checked.startswith("ok: ")
    assert proc.stdout.splitlines() == ["import registers: 0", *[checked] * 3,
                                        "main registers: 1 True 0", "frozen at exit: True"]

