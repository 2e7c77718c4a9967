"""Seeded job lists for the benchmark workloads, and how each output is checked.

A job is one `logfan` command line, run in a fresh process.  Generated
documents are the program's only input; the seed never reaches it.

Every output is checked.  Results for inputs drawn from a finite family
(the fixtures, the paper suite, the surfaces of `diagonal`, the 3-d cones and
monoids of `kernels`) are compared with goldens captured from the program by
`capture_goldens.py`.  Seeded inputs outside a finite family are compared
with the independent oracles in `oracles.py`.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from math import gcd

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS_PATH = os.path.join(HERE, "goldens.json")

FIXTURES = ("a1_diagonal", "a2_product", "nodal_cubic", "orbifold_a1", "r_lines")
# orbifold_a1 exits 1 by design: its last task (the P^1 inversion) is rejected.
FIXTURE_EXIT = {"orbifold_a1": 1}

# --------------------------------------------------------------- families

P1_FAN = {"kind": "complex", "builtin": "toric_fan", "rays": [[1], [-1]],
          "maximal_cones": [[0], [1]], "rank": 1}
A2_FAN = {"kind": "complex", "builtin": "toric_fan", "rays": [[1, 0], [0, 1]],
          "maximal_cones": [[0, 1]], "rank": 2}


def hirzebruch_fan(a: int) -> dict:
    return {"kind": "complex", "builtin": "toric_fan",
            "rays": [[1, 0], [0, 1], [-1, a], [0, -1]],
            "maximal_cones": [[0, 1], [1, 2], [2, 3], [3, 0]], "rank": 2}


HIRZEBRUCH = (1, 2, 3)

# 3-d cones for hilbert_basis, simplicial and not, determinants up to ~150.
CONES_3D = {
    "c3a": [[1, 0, 0], [0, 1, 0], [1, 1, 5]],
    "c3b": [[1, 0, 0], [0, 1, 0], [2, 3, 7]],
    "c3c": [[1, 0, 0], [0, 1, 0], [1, 0, 3], [0, 1, 3]],
    "c3d": [[1, 0, 0], [1, 4, 0], [1, 1, 9]],
    "c3e": [[2, 1, 0], [0, 1, 2], [1, 0, 5]],
    "c3f": [[1, 2, 3], [3, 1, 2], [2, 3, 1]],
    "c3g": [[1, 0, 0], [0, 1, 0], [7, 11, 60]],
    "c3h": [[1, 0, 0], [0, 1, 0], [13, 29, 150]],
}

# Fine monoids for saturate: (free rank, torsion orders, generators).
MONOIDS = {
    "m1": (1, [], [[2], [3]]),
    "m2": (2, [], [[2, 0], [1, 1], [0, 2]]),
    "m3": (2, [], [[1, 0], [1, 2], [1, 3]]),
    "m4": (1, [2], [[2, 0], [3, 1]]),
    "m5": (2, [], [[3, 0], [1, 1], [0, 3], [2, 1]]),
    "m6": (2, [3], [[1, 0, 1], [0, 1, 2], [2, 1, 0]]),
}

# fs pushouts of N <-a- N -b-> N.
PUSHOUTS = [(a, b) for a in range(2, 7) for b in range(2, 7)]

# --------------------------------------------------------------- jobs


@dataclass
class Job:
    """One logfan command and the expected outcome of each part of its output.

    `args` is the command line after `logfan`; `{doc}` stands for the path of
    `document`, written to the work directory before the job runs.  For a
    JSON report, `tasks` holds one expectation per task: ("golden", key) or
    ("value", data).  Otherwise `output` names the golden of the whole
    stdout ("paper-suite" compares it line by line).
    """

    name: str
    args: list
    expect_exit: int = 0
    document: dict | None = None
    tasks: list = field(default_factory=list)
    output: str | None = None


def _doc_job(name: str, entries) -> Job:
    """A `run --format json` job over one generated document.  Each entry
    is (objects, (op, args), expectation) and adds one task."""
    objects, tasks, expectations = {}, [], []
    for objs, (op, args), expect in entries:
        objects.update(objs)
        tasks.append({"op": op, "args": args})
        expectations.append(expect)
    return Job(name, ["run", "{doc}", "--format", "json"],
               document={"version": "logfan/1", "objects": objects, "tasks": tasks},
               tasks=expectations)


def _golden(key: str, objects: dict, op: str, args: dict):
    return objects, (op, args), ("golden", f"{key}:{op}")


def _diagonal_entries(surface: str) -> list:
    """The diagonal tasks of one surface of the finite family."""
    if surface == "P1":
        model, fan = {"kind": "model", "builtin": "p1"}, P1_FAN
    elif surface == "A2":
        model, fan = {"kind": "model", "builtin": "affine_space", "d": 2}, A2_FAN
    elif surface == "P2":
        return [_golden("P2", {"X": {"kind": "model", "builtin": "p2"}},
                        "log_diagonal", {"model": "X"})]
    else:
        return [_golden(surface, {"F": hirzebruch_fan(int(surface[1:]))},
                        "subdivide_along_diagonal", {"complex": "F"})]
    return [_golden(surface, {"X": model}, "log_diagonal", {"model": "X"}),
            _golden(surface, {"F": fan}, "subdivide_along_diagonal", {"complex": "F"})]


def diagonal_job(surface: str) -> Job:
    return _doc_job(f"diag-{surface}", _diagonal_entries(surface))


def _unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """A random product of four elementary matrices with small multipliers."""
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(4):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        M[i] = [x + c * y for x, y in zip(M[i], M[j])]
    return M


def _plane_cone(rng, p, q, name):
    """hilbert_basis of M * cone((1,0),(p,q)) for a seeded unimodular M,
    checked against M applied to the Hirzebruch-Jung basis."""
    M = _unimodular(rng, 2)
    rays = [list(oracles.apply(M, (1, 0))), list(oracles.apply(M, (p, q)))]
    expected = sorted(list(oracles.apply(M, u)) for u in oracles.hilbert_basis_2d(p, q))
    return ({name: {"kind": "matrix", "entries": rays}},
            ("hilbert_basis", {"generators": name}), ("value", {"basis": expected}))


def _narrow_plane_cone(rng):
    """(p, q) with q in [500, 1000] and at most 12 basis elements, so the
    cost (parallelepiped enumeration plus minimisation, roughly q * basis
    size) varies little between seeds."""
    while True:
        q = rng.randint(500, 1000)
        p = rng.randint(1, q - 1)
        if gcd(p, q) == 1 and oracles.hilbert_basis_size(p, q) <= 12:
            return p, q


# Orbifold inputs: (coordinates, log coordinates, exact work).  The work is
# the number of (monomial, form) pairs logfan enumerates; fixing it keeps
# seeds equally heavy while the characters, and which coordinates carry the
# log structure, vary.  Both targets have a nonempty twisted sector besides
# the identity.  The work targets hold for logfan's default truncation,
# TRUNCATION, only; at any other truncation `_orbifold` would never meet them.
TRUNCATION = 10
ORBIFOLD_SHAPES = ((4, 2, 13728), (3, 1, 2024))
GROUP = (3, 2)


def _orbifold(rng, n, l, work, name):
    while True:
        log = sorted(rng.sample(range(n), l))
        chars = [[rng.randrange(d) for _ in range(n)] for d in GROUP]
        if oracles.orbifold_work(n, log, GROUP, chars, TRUNCATION) == work:
            break
    model = {"builtin": "mixed_affine", "coords": n, "log": log}
    obj = {"kind": "action", "model": model, "orders": list(GROUP), "characters": chars}
    series = oracles.orbifold_series(n, log, GROUP, chars, TRUNCATION)
    expected = {str(q): {"series": s, "truncation": TRUNCATION} for q, s in series.items()}
    return {name: obj}, ("orbifold_hh", {"action": name}), ("value", expected)


def _cone3(key):
    return _golden(key, {key: {"kind": "matrix", "entries": CONES_3D[key]}},
                   "hilbert_basis", {"generators": key})


def _saturation(key):
    free, torsion, gens = MONOIDS[key]
    monoid = {"kind": "monoid", "free_rank": free, "torsion": torsion, "generators": gens}
    return _golden(key, {key: monoid}, "saturate", {"monoid": key})


def _pushout(a, b):
    objects = {"N": {"kind": "monoid", "free_rank": 1, "generators": [[1]]}}
    for r in (a, b):
        objects[f"x{r}"] = {"kind": "hom", "source": "N", "target": "N", "matrix": [[r]]}
    return _golden(f"pushout{a}x{b}", objects, "fs_pushout",
                   {"left": f"x{a}", "right": f"x{b}"})


def kernels_jobs(rng: random.Random) -> list[Job]:
    return [
        # The quadratic minimisation at its worst: every candidate is kept.
        _doc_job("hb-wide", [_plane_cone(rng, 1, 1000, "wide")]),
        _doc_job("hb-narrow",
                 [_plane_cone(rng, *_narrow_plane_cone(rng), f"narrow{k}") for k in range(3)]
                 + [_cone3(key) for key in rng.sample(sorted(CONES_3D), 3)]),
        _doc_job("monoids", [_saturation(k) for k in rng.sample(sorted(MONOIDS), 3)]
                 + [_pushout(a, b) for a, b in rng.sample(PUSHOUTS, 3)]),
        _doc_job("orbifold", [_orbifold(rng, n, l, work, f"act{k}")
                              for k, (n, l, work) in enumerate(ORBIFOLD_SHAPES)]),
    ]


def fixture_job(name: str, fmt: str) -> Job:
    return Job(f"{name}.{fmt}", ["run", f"fixtures/{name}.lf.json", "--format", fmt],
               expect_exit=FIXTURE_EXIT.get(name, 0), output=f"fixture:{name}:{fmt}")


PAPER_SUITE = Job("paper-suite", ["paper-suite"], output="paper-suite")


def build(workload: str, seed: int) -> list[Job]:
    """The job list of one pass of `workload` for `seed`."""
    rng = random.Random(seed)
    if workload == "diagonal":
        jobs = [diagonal_job(s) for s in ("P1", "A2", "P2", f"F{rng.choice(HIRZEBRUCH)}")]
    elif workload == "kernels":
        jobs = kernels_jobs(rng)
    elif workload == "desk":
        jobs = [fixture_job(f, fmt) for f in FIXTURES for fmt in ("json", "text")]
        jobs.append(PAPER_SUITE)
    elif workload == "smoke":
        jobs = [_doc_job("smoke", _diagonal_entries("P1") + [_plane_cone(rng, 3, 50, "small")]),
                fixture_job("a1_diagonal", "text")]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


def golden_jobs() -> list[Job]:
    """Jobs covering every member of every finite family once."""
    jobs = [diagonal_job(s) for s in ("P1", "A2", "P2") + tuple(f"F{a}" for a in HIRZEBRUCH)]
    jobs.append(_doc_job("cones3", [_cone3(k) for k in sorted(CONES_3D)]))
    jobs.append(_doc_job("monoid-family", [_saturation(k) for k in sorted(MONOIDS)]
                         + [_pushout(a, b) for a, b in PUSHOUTS]))
    jobs += [fixture_job(f, fmt) for f in FIXTURES for fmt in ("json", "text")]
    jobs.append(PAPER_SUITE)
    return jobs


# --------------------------------------------------------------- checking

def digest(data) -> str:
    if isinstance(data, bytes):
        return hashlib.sha256(data).hexdigest()
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def task_outcome(result: dict) -> dict:
    """The part of a task result that must not change: status and payload."""
    return {k: result[k] for k in ("status", "data", "error") if k in result}


def load_goldens() -> dict:
    with open(GOLDENS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check(job: Job, exit_code: int, stdout: bytes, goldens: dict) -> list[tuple[str, bool]]:
    """(item, ok) for every checked part of one job's outcome."""
    items = [(f"{job.name} exit {job.expect_exit}", exit_code == job.expect_exit)]
    if job.output == "paper-suite":
        want = goldens["paper_suite"]
        got = stdout.decode(errors="replace").splitlines()
        n = max(len(got), len(want))
        got += [None] * (n - len(got))
        want = want + [None] * (n - len(want))
        items += [(f"paper-suite line {i}", g == w) for i, (g, w) in enumerate(zip(got, want))]
        return items
    if job.output is not None:
        items.append((job.output, digest(stdout) == goldens["outputs"][job.output]))
        return items
    try:
        results = json.loads(stdout)["results"]
    except (ValueError, KeyError, TypeError):
        results = []
    for i, (kind, want) in enumerate(job.tasks):
        got = task_outcome(results[i]) if i < len(results) else None
        if kind == "golden":
            ok = got is not None and digest(got) == goldens["tasks"][want]
        else:
            ok = got == {"status": "ok", "data": want}
        items.append((f"{job.name} task {i}", ok))
    return items
