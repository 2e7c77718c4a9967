"""Run one logfan command in this fresh process and record what it cost.

    python3 perfbench/job.py META TRACE ARGS...

Imports logfan from the checkout's `src/` and runs `logfan ARGS...` through
`logfan.cli.main`, as the console script does.  Writes META, a JSON record
of the monotonic time at which set-up ended (interpreter start, import and
document parse; for `paper-suite`, the call into the suite), the CPU time
spent after set-up, the peak RSS, the interpreter's optimize flag, and with
TRACE=1 the per-layer trace summary together with the time spent building it.
"""

import os
import sys
import time


def peak_rss_kb() -> int:
    """Peak resident set of this program image: the VmHWM of /proc/self/status.

    getrusage's ru_maxrss is not used: it also counts the parent's resident
    set at fork time (Linux carries it across exec)."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")


def main() -> int:
    meta_path, trace, args = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import logfan.cli as cli

    recorder = None
    if trace:
        import tracer
        recorder = tracer.Tracer()
        tracer.install(recorder)

    marks = {}
    if args[:1] == ["paper-suite"]:
        hook, before = "run_paper_suite", True
    else:
        hook, before = "parse", False
    inner = getattr(cli, hook)

    def mark():
        marks.setdefault("setup", (time.monotonic(), time.process_time()))

    def mark_setup(*a, **kw):
        if before:
            mark()
        result = inner(*a, **kw)
        mark()
        return result

    setattr(cli, hook, mark_setup)
    try:
        code = cli.main(args)
    finally:
        sys.stdout.flush()
        end, cpu = time.monotonic(), time.process_time()
        setup_end, setup_cpu = marks.get("setup", (end, cpu))
        import json
        meta = {"setup_end": setup_end, "end": end, "cpu_s": cpu - setup_cpu,
                "maxrss_kb": peak_rss_kb(),
                "optimize": sys.flags.optimize, "trace": None, "bookkeeping_s": 0.0}
        if recorder is not None:
            meta["trace"] = recorder.summary()
            meta["bookkeeping_s"] = time.monotonic() - end
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
