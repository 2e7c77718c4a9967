"""Record the goldens: logfan's outputs for every finite-family input.

    python3 perfbench/capture_goldens.py

Runs each job of `workloads.golden_jobs()` once and overwrites goldens.json
with a SHA-256 digest per task result and per whole output, and the
paper-suite lines.  Run it only at a commit whose outputs are trusted: a
change to any golden is a change to the program's answers.
"""

import json
import os
import shutil
import sys

import run
import workloads


def main() -> int:
    goldens = {"tasks": {}, "outputs": {}, "paper_suite": []}
    workdir = os.path.join(run.WORK_DIR, f"capture-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        runner = run.Runner(workdir, goldens)
        for job in workloads.golden_jobs():
            code, out, _meta, t0, t1 = runner.execute(job, False)
            print(f"{job.name}: exit {code} in {t1 - t0:.2f} s")
            if code != job.expect_exit:
                print(f"unexpected exit status {code}", file=sys.stderr)
                return 1
            if job.output == "paper-suite":
                goldens["paper_suite"] = out.decode().splitlines()
            elif job.output is not None:
                goldens["outputs"][job.output] = workloads.digest(out)
            else:
                results = json.loads(out)["results"]
                for (kind, key), result in zip(job.tasks, results):
                    goldens["tasks"][key] = workloads.digest(workloads.task_outcome(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.GOLDENS_PATH, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
