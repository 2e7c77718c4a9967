"""logfan benchmark: end-to-end cost of whole jobs, and a traced per-layer view.

    python3 perfbench/run.py --workload diagonal|kernels|desk --seed N
                             --seconds 40 --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  Each job is one `logfan` command in a
fresh interpreter (users pay cold state on every invocation, so nothing may
be reused across repetitions), run one after another from this process.
A pass runs every job of the workload once; passes repeat while another
fits in `--seconds`.  Every output is checked (see workloads.py).

With `--trace 0` the last line reports the end-to-end metrics:
  wall_s       median over passes of the summed job time, set-up excluded,
               scaled to the reference speed (below)
  setup_s      median over processes of interpreter start + import + parse,
               scaled to the reference speed
  peak_rss_mb  largest peak RSS of any job

The machine this was tuned on, a 2-core VM shared with other tenants, runs
the same code up to twice as slowly at times, in stretches from under a
second to minutes.  So a reference process, a fixed pure-Python loop in a
fresh interpreter that shares no code with logfan, runs before the first job
and after every job.  Each job's time is multiplied by REFERENCE_TOTAL_S over
the mean time of the two reference processes around it, and its set-up by
REFERENCE_START_S over the mean of their start-up times.  The figures read as
seconds on a machine that runs the reference at those times, as this one does
at full speed.  The unscaled figures are printed too.

With `--trace 1` untraced and traced passes alternate, and the last line
reports the per-layer metrics of the traced passes (see PER_LAYER).

`--smoke` runs a two-job pass untraced and traced in under two seconds, to
show that the harness still works.  The tool refuses to time an interpreter
running with -O or PYTHONOPTIMIZE: that strips the package's asserts and
would measure a different program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
JOB_SCRIPT = os.path.join(HERE, "job.py")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("diagonal", "kernels", "desk")
JOB_TIMEOUT_S = 120

# Metric names may not start with "_".
LAYER_NAMES = {layer: layer.lstrip("_") for layer in tracer.LAYERS}

SUITE_CHECKS = (
    "check_r_disjoint_lines", "check_artin_fan_products",
    "check_log_blowup_affine_line", "check_a2_diagonal", "check_nodal_cubic_hkr",
    "check_marked_p1_family", "check_a1_concentration",
    "check_log_alteration_invariance", "check_periodic_cyclic",
    "check_orbifold_decomposition", "property_saturation_idempotence",
    "property_hilbert_minimality", "property_pushout_universal",
    "property_smith_recomposition", "property_subdivision_volumes",
    "property_kunneth", "check_koszul_oracle",
)

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _per_layer() -> list[tuple[str, str]]:
    names = [LAYER_NAMES[layer] for layer in tracer.LAYERS]
    return ([(f"{n}.calls", "count") for n in names]
            + [(f"{n}.self_s", "s") for n in names]
            + [("lattice.snf_calls", "count"), ("lattice.snf_distinct", "count"),
               ("lattice.snf_distinct_frac", "ratio"),
               ("geometry.dd_calls", "count"), ("geometry.dd_distinct", "count"),
               ("geometry.dd_distinct_frac", "ratio"),
               ("conecomplex.cone_make_calls", "count"),
               ("conecomplex.cone_distinct", "count"),
               ("conecomplex.cone_distinct_frac", "ratio"),
               ("geometry.parallelepiped_points", "count"),
               ("monoid.hb_kept_frac", "ratio")]
            + [(f"cli.{phase}_s", "s") for phase in ("parse", "run", "emit")]
            + [(f"suite.{check}_s", "s") for check in SUITE_CHECKS]
            + [("trace_overhead_frac", "ratio"), ("fail_frac", "ratio")]
            + [(f"{n}.lines", "lines") for n in names] + [("src.lines", "lines")])


PER_LAYER = _per_layer()


class Refused(Exception):
    """The benchmark cannot run here; exit nonzero without a result."""


def preflight() -> dict:
    if sys.flags.optimize or os.environ.get("PYTHONOPTIMIZE"):
        raise Refused("refusing to time under -O / PYTHONOPTIMIZE: users run "
                      "without it, and it strips the package's assert checks")
    needed = [os.path.join(ROOT, "src", "logfan", "cli.py"), workloads.GOLDENS_PATH]
    needed += [os.path.join(ROOT, "fixtures", f"{f}.lf.json") for f in workloads.FIXTURES]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        raise Refused("not a logfan checkout; missing " + ", ".join(
            os.path.relpath(p, ROOT) for p in missing))
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            has_hwm = any(line.startswith("VmHWM:") for line in fh)
    except OSError:
        has_hwm = False
    if not has_hwm:
        raise Refused("peak RSS needs VmHWM in /proc/self/status")
    return workloads.load_goldens()


def _child_env() -> dict:
    # Jobs see the package as an installed copy would be: bytecode cached
    # after the first import, the default truncation, no other logfan.
    env = dict(os.environ)
    for key in ("PYTHONOPTIMIZE", "PYTHONDONTWRITEBYTECODE", "LOGFAN_TRUNCATION",
                "PYTHONPATH"):
        env.pop(key, None)
    return env


class Runner:
    """Runs jobs in fresh processes and checks what they print."""

    def __init__(self, workdir: str, goldens: dict):
        self.workdir = workdir
        self.goldens = goldens
        self.env = _child_env()

    def execute(self, job: workloads.Job, traced: bool):
        """Run one job; return (exit code, stdout, meta, start, end)."""
        args = list(job.args)
        if job.document is not None:
            doc_path = os.path.join(self.workdir, f"{job.name}.lf.json")
            if not os.path.exists(doc_path):
                with open(doc_path, "w", encoding="utf-8") as fh:
                    json.dump(job.document, fh)
            args = [doc_path if a == "{doc}" else a for a in args]
        meta_path = os.path.join(self.workdir, "meta.json")
        if os.path.exists(meta_path):
            os.remove(meta_path)
        cmd = [sys.executable, JOB_SCRIPT, meta_path, "1" if traced else "0", *args]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, timeout=JOB_TIMEOUT_S)
            code, out = proc.returncode, proc.stdout
        except subprocess.TimeoutExpired:
            code, out = None, b""
        t1 = time.monotonic()
        meta = {"setup_end": t1, "cpu_s": 0.0, "maxrss_kb": 0, "optimize": 0,
                "trace": None, "bookkeeping_s": 0.0}
        if os.path.exists(meta_path):
            with open(meta_path, encoding="utf-8") as fh:
                meta = json.load(fh)
        if meta["optimize"]:
            raise Refused("a job ran with optimizations on")
        return code, out, meta, t0, t1

    def run(self, job: workloads.Job, traced: bool) -> dict:
        code, out, meta, t0, t1 = self.execute(job, traced)
        return {
            "name": job.name,
            "setup_s": meta["setup_end"] - t0,
            "wall_s": t1 - meta["setup_end"] - meta["bookkeeping_s"],
            "cpu_s": meta["cpu_s"],
            "rss_mb": meta["maxrss_kb"] / 1024.0,
            "items": workloads.check(job, code, out, self.goldens),
            "trace": meta["trace"],
        }


# The reference process: interpreter start, then a fixed piece of pure-Python
# work of the kind logfan does, timed from inside.
REFERENCE_LOOP = """
import time
t0 = time.perf_counter()
seen = {}
acc = 0
for i in range(60000):
    v = (i % 97, i % 89, i % 83)
    seen[v] = seen.get(v, 0) + 1
    acc += v[0] * v[1] - v[2]
print(time.perf_counter() - t0)
"""
# Its start-up and total time on this machine (2-core Xeon VM at 2.1 GHz,
# Python 3.11.7) at full speed.
REFERENCE_START_S = 0.05
REFERENCE_TOTAL_S = 0.09


def reference(env: dict) -> tuple[float, float]:
    """(start-up, total) seconds of one reference process."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", REFERENCE_LOOP], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, check=True, timeout=JOB_TIMEOUT_S)
    total = time.monotonic() - t0
    return total - float(proc.stdout), total


def measure(runner: Runner, jobs, seconds: float, trace: bool) -> list[dict]:
    """Whole passes, untraced (and traced, alternating) while another cycle fits."""
    modes = (False, True) if trace else (False,)
    passes = []
    start = time.monotonic()
    cycles = 0
    before = reference(runner.env)
    while True:
        for traced in modes:
            results = []
            for job in jobs:
                r = runner.run(job, traced)
                after = reference(runner.env)
                r["scaled_setup_s"] = (r["setup_s"] * REFERENCE_START_S
                                       / ((before[0] + after[0]) / 2))
                r["scaled_s"] = r["wall_s"] * REFERENCE_TOTAL_S / ((before[1] + after[1]) / 2)
                before = after
                results.append(r)
            passes.append({"traced": traced, "jobs": results})
        cycles += 1
        elapsed = time.monotonic() - start
        if elapsed + elapsed / cycles > seconds:
            return passes


def _frac(num, den) -> float:
    return num / den if den else 0.0


def pass_median(passes: list[dict], key: str) -> float:
    """Median over `passes` of the sum of `key` over the pass's jobs."""
    return statistics.median(sum(r[key] for r in p["jobs"]) for p in passes)


def end_to_end(untraced: list[dict]) -> dict:
    jobs = [r for p in untraced for r in p["jobs"]]
    return {
        "wall_s": pass_median(untraced, "scaled_s"),
        "setup_s": statistics.median(r["scaled_setup_s"] for r in jobs),
        "peak_rss_mb": max(r["rss_mb"] for r in jobs),
    }


def _pass_trace(p: dict) -> dict:
    """Sum the per-job trace summaries of one traced pass."""
    layers = {layer: {"calls": 0, "self_s": 0.0} for layer in tracer.LAYERS}
    functions: dict = {}
    counters: dict = {}
    for r in p["jobs"]:
        t = r["trace"] or {"layers": {}, "functions": {}, "counters": {}}
        for layer, v in t["layers"].items():
            layers[layer]["calls"] += v["calls"]
            layers[layer]["self_s"] += v["self_s"]
        for name, v in t["functions"].items():
            functions[name] = functions.get(name, 0.0) + v["inclusive_s"]
        for name, v in t["counters"].items():
            counters[name] = counters.get(name, 0) + v
    return {"layers": layers, "functions": functions, "counters": counters}


def _source_lines() -> dict:
    src = os.path.join(ROOT, "src")
    lines = {}
    total = 0
    for dirpath, _dirs, files in os.walk(src):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    n = sum(1 for _ in fh)
                total += n
                lines[os.path.splitext(f)[0]] = n
    out = {f"{LAYER_NAMES[layer]}.lines": lines.get(layer, 0) for layer in tracer.LAYERS}
    out["src.lines"] = total
    return out


def per_layer(untraced: list[dict], traced: list[dict], fail_frac: float) -> dict:
    sums = [_pass_trace(p) for p in traced]
    first = sums[0]
    calls = [({k: v["calls"] for k, v in s["layers"].items()}, s["counters"]) for s in sums]
    if any(c != calls[0] for c in calls):
        print("warning: traced passes disagree on call counts; reporting the first")

    def med(get):
        return statistics.median(get(s) for s in sums)

    out = {}
    for layer in tracer.LAYERS:
        name = LAYER_NAMES[layer]
        out[f"{name}.calls"] = first["layers"][layer]["calls"]
        out[f"{name}.self_s"] = med(lambda s: s["layers"][layer]["self_s"])
    c = first["counters"]
    out["lattice.snf_calls"] = c["snf_calls"]
    out["lattice.snf_distinct"] = c["snf_distinct"]
    out["lattice.snf_distinct_frac"] = _frac(c["snf_distinct"], c["snf_calls"])
    out["geometry.dd_calls"] = c["dd_calls"]
    out["geometry.dd_distinct"] = c["dd_distinct"]
    out["geometry.dd_distinct_frac"] = _frac(c["dd_distinct"], c["dd_calls"])
    out["conecomplex.cone_make_calls"] = c["cone_make_calls"]
    out["conecomplex.cone_distinct"] = c["cone_distinct"]
    out["conecomplex.cone_distinct_frac"] = _frac(c["cone_distinct"], c["cone_make_calls"])
    out["geometry.parallelepiped_points"] = c["parallelepiped_points"]
    out["monoid.hb_kept_frac"] = _frac(c["hb_kept"], c["hb_candidates"])
    for phase in ("parse", "run", "emit"):
        out[f"cli.{phase}_s"] = med(lambda s: s["functions"].get(f"cli.{phase}", 0.0))
    for check in SUITE_CHECKS:
        out[f"suite.{check}_s"] = med(lambda s: s["functions"].get(f"suite.{check}", 0.0))
    out["trace_overhead_frac"] = (pass_median(traced, "scaled_s")
                                  / pass_median(untraced, "scaled_s") - 1)
    out["fail_frac"] = fail_frac
    out.update(_source_lines())
    return out


def report(passes: list[dict], trace: bool, smoke: bool) -> dict:
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    items = [item for p in passes for r in p["jobs"] for item in r["items"]]
    failed = [name for name, ok in items if not ok]
    fail_frac = len(failed) / len(items)

    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; "
          f"{len(items)} checked outputs, {len(failed)} wrong")
    for name in sorted(set(failed)):
        print(f"  WRONG {name}")
    for label, group in (("untraced", untraced), ("traced", traced)):
        if group:
            print(f"{label} pass wall_s, unscaled: "
                  + " ".join(f"{sum(r['wall_s'] for r in p['jobs']):.3f}" for p in group))
    print("first untraced pass:")
    for r in untraced[0]["jobs"]:
        print(f"  {r['name']:<22} wall {r['wall_s']:8.3f} s  setup {r['setup_s']:6.3f} s"
              f"  rss {r['rss_mb']:7.1f} MB")
    if traced:
        print("first traced pass (per job: Cone.make calls/distinct, SNF calls/distinct, "
              "double descriptions calls/distinct):")
        for r in traced[0]["jobs"]:
            c = r["trace"]["counters"] if r["trace"] else {}
            print(f"  {r['name']:<22} cones {c.get('cone_make_calls', 0)}/"
                  f"{c.get('cone_distinct', 0)}  snf {c.get('snf_calls', 0)}/"
                  f"{c.get('snf_distinct', 0)}  dd {c.get('dd_calls', 0)}/"
                  f"{c.get('dd_distinct', 0)}")

    values = {}
    units = {}
    if not trace or smoke:
        values.update(end_to_end(untraced))
        units.update(dict(END_TO_END))
    if trace:
        values.update(per_layer(untraced, traced, fail_frac))
        units.update(dict(PER_LAYER))
    if "fail_frac" not in values:
        print(f"fail_frac {fail_frac} ratio")
    # Unscaled figures and job CPU time, for comparison; not metrics.
    print(f"raw_wall_s {pass_median(untraced, 'wall_s')} s")
    print(f"raw_setup_s {statistics.median(r['setup_s'] for p in untraced for r in p['jobs'])} s")
    print(f"cpu_s {pass_median(untraced, 'cpu_s')} s")
    for name, value in values.items():
        print(f"{name} {value} {units[name]}")
    return {"correct": not failed, "attempted": len(items), "failed": len(failed),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    try:
        goldens = preflight()
    except Refused as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"interpreter: {platform.python_implementation()} {platform.python_version()} "
          f"({sys.executable}); optimize={sys.flags.optimize} "
          f"hash_randomization={sys.flags.hash_randomization} "
          f"dont_write_bytecode={sys.flags.dont_write_bytecode}")
    workdir = os.path.join(WORK_DIR, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        runner = Runner(workdir, goldens)
        if args.smoke:
            jobs = workloads.build("smoke", args.seed)
            passes = measure(runner, jobs, 0, True)
        else:
            jobs = workloads.build(args.workload, args.seed)
            # Compile the package's bytecode before anything is timed, as an
            # installed package would have it.
            runner.run(workloads.fixture_job("r_lines", "json"), False)
            passes = measure(runner, jobs, args.seconds, bool(args.trace))
        result = report(passes, bool(args.trace) or args.smoke, args.smoke)
    except Refused as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
