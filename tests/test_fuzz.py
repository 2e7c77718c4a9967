"""Documents through `main`: single-field mutations of the fixtures end in
exit 0, 1 or 2 with a one-line diagnostic, never a traceback, and fast
enough to need no alarm or memory limit; and a document just outside each
bound read while parsing is refused at once, while one just inside it is
read in full."""

import collections
import copy
import gc
import json
import math
import pathlib
import random
import time

import pytest

from logfan import _geometry as geom
from logfan import cli
from logfan import conecomplex as cc
from logfan.cli import (MAX_DIMENSION, MAX_FACE_MAPS, MAX_MARKED_POINTS, MAX_TRUNCATION,
                        OPERATIONS, main)
from logfan.conecomplex import (MAX_COMPOSABLE_PAIRS, MAX_CONES, MAX_ISO_CANDIDATES,
                                MAX_ISO_PLACEMENTS)
from logfan.errors import LogfanError
from logfan.lattice import (MAX_SMITH_BITS, MAX_SMITH_SIDE, MAX_SMITH_TRANSFORM_BITS,
                            IntMatrix, lattice_rank, saturate_subgroup, solve_integer)
from logfan.logmodel import DEFAULT_TRUNCATION
from logfan.monoid import (MAX_MEMBERSHIP_DEPTH, MAX_MEMBERSHIP_STATES,
                           MAX_PARALLELEPIPED_POINTS)
from logfan.orbifold import MAX_GROUP_ORDER

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


# ------------------------------------------------------------------ scale fuzz

INSIDE_BUDGET = 2.0    # seconds for `logfan check` on a document inside a bound


def _model(**fields):
    return {"kind": "model", **fields}


def _complex(**fields):
    return {"kind": "complex", **fields}


def _unit_rows(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _toric(rng, rank):
    """A toric model or a toric fan on the identity cone of this rank."""
    rays, cones = _unit_rows(rank), [list(range(rank))]
    if rng.random() < 0.5:
        return _model(builtin="toric", rays=rays, maximal_cones=cones, rank=rank,
                      complete=False)
    return _complex(builtin="toric_fan", rays=rays, maximal_cones=cones, rank=rank)


def _action(rng, orders):
    coords = rng.randint(1, 2)
    return {"kind": "action", "model": _model(builtin="mixed_affine", coords=coords),
            "orders": rng.sample(orders, len(orders)),
            "characters": [[rng.randrange(d) for _ in range(coords)] for d in orders]}


def _product(rng, factors):
    """A product model of these factors, in a random order."""
    return _model(builtin="product", factors=[
        _model(builtin=f) if isinstance(f, str) else _model(builtin="marked_p1", n=f)
        for f in rng.sample(factors, len(factors))])


def _snc(rng, cones):
    """One simplex on k vertices (2^k faces, the empty one included) and
    enough isolated points to make `cones` cones."""
    k = rng.randint(1, 8)
    return _complex(builtin="snc", simplices=[list(range(k))]
                    + [[v] for v in range(k, k + cones - 2 ** k)])


def _literal(rng, cones):
    ranks = [rng.randint(0, 2) for _ in range(cones)]
    return _complex(cones=[{"rank": r} for r in ranks],
                    face_maps=[{"source": i, "target": i} for i in range(cones)])


def _literal_rank(rank):
    """A literal zero cone of this rank: a product of two models' cones has
    rank up to 2 * MAX_DIMENSION, and `emit` writes it as a literal."""
    return _complex(cones=[{"rank": rank}], face_maps=[{"source": 0, "target": 0}])


def _face_maps(rng, maps):
    return _complex(cones=[{"rank": rng.randint(0, 2)}],
                    face_maps=[{"source": 0, "target": 0}] * maps)


def _glued_ray(rng, k):
    """The zero cone (rank 0) and the ray (1, 0) in rank 2, each with its
    identity, the 2x0 map between them and the maps [[1, a], [0, 0]] of the
    ray to itself for a = 1..k: (k + 2)(k + 1) + 2 composable pairs.  The
    ray's identity is left out, written out, or both, which is one map."""
    ray_identity = rng.choice([[{}], [{"matrix": [[1, 0], [0, 1]]}],
                               [{}, {"matrix": [[1, 0], [0, 1]]}]])
    maps = ([{"source": 0, "target": 0}, {"source": 0, "target": 1, "matrix": [[], []]}]
            + [{"source": 1, "target": 1, **m} for m in ray_identity]
            + [{"source": 1, "target": 1, "matrix": [[1, a], [0, 0]]}
               for a in range(1, k + 1)])
    rng.shuffle(maps)
    return _complex(cones=[{"rank": 0}, {"rank": 2, "rays": [[1, 0]]}], face_maps=maps)


def _bounds(rng):
    """(bound, object just inside it, object just outside it); an object given
    as (object, t) is read at `--truncation t`, the others at the default."""
    groups = {1000: [[1000], [2, 500], [10, 100], [8, 125], [4, 5, 50], [2, 2, 2, 125]],
              1001: [[1001], [7, 143], [11, 91], [13, 77], [7, 11, 13]]}
    # factors: marked P^1s by their count of points (n + 1 cones), the point
    # (1 cone) and P^2 (7 cones)
    products = {1000: [[9, 9, 9], [3, 4, 49], [4, 9, 19], [1, 4, 4, 19], ["point", 9, 9, 9]],
                1001: [[6, 10, 12], ["p2", 10, 12]]}
    coords = rng.randint(0, MAX_DIMENSION - 1)
    return [
        ("d", _model(builtin="affine_space", d=MAX_DIMENSION),
         _model(builtin="affine_space", d=MAX_DIMENSION + 1)),
        ("coords", _model(builtin="mixed_affine", coords=MAX_DIMENSION, log=[coords]),
         _model(builtin="mixed_affine", coords=MAX_DIMENSION + 1, log=[coords])),
        ("n", _model(builtin="marked_p1", n=MAX_MARKED_POINTS),
         _model(builtin="marked_p1", n=MAX_MARKED_POINTS + 1)),
        ("rank", _toric(rng, MAX_DIMENSION), _toric(rng, MAX_DIMENSION + 1)),
        ("group order", _action(rng, rng.choice(groups[MAX_GROUP_ORDER])),
         _action(rng, rng.choice(groups[MAX_GROUP_ORDER + 1]))),
        ("product cones", _product(rng, rng.choice(products[MAX_CONES])),
         _product(rng, rng.choice(products[MAX_CONES + 1]))),
        ("snc cones", _snc(rng, MAX_CONES), _snc(rng, MAX_CONES + 1)),
        ("literal cones", _literal(rng, MAX_CONES), _literal(rng, MAX_CONES + 1)),
        ("literal rank", _literal_rank(2 * MAX_DIMENSION), _literal_rank(2 * MAX_DIMENSION + 1)),
        ("face maps", _face_maps(rng, MAX_FACE_MAPS), _face_maps(rng, MAX_FACE_MAPS + 1)),
        ("composable pairs", _glued_ray(rng, 314), _glued_ray(rng, 315)),
        # the series order is the document's, so its refusal names no object
        ("truncation", (_model(builtin="affine_space", d=MAX_DIMENSION), MAX_TRUNCATION),
         (_model(builtin="affine_space", d=MAX_DIMENSION), MAX_TRUNCATION + 1)),
    ]


def test_scale_fuzz_just_inside_and_just_outside_every_parse_bound(tmp_path, capsys, frozen_heap):
    assert (MAX_DIMENSION, MAX_MARKED_POINTS, MAX_GROUP_ORDER, MAX_CONES, MAX_FACE_MAPS,
            MAX_COMPOSABLE_PAIRS, MAX_TRUNCATION) == (6, 64, 1000, 1000, 10_000, 100_000, 15)
    assert 316 * 315 + 2 <= MAX_COMPOSABLE_PAIRS < 317 * 316 + 2
    target = tmp_path / "scale.lf.json"
    start = time.perf_counter()
    for bound, inside, outside in _bounds(random.Random(13)):
        for where, obj in (("inside", inside), ("outside", outside)):
            obj, truncation = obj if isinstance(obj, tuple) else (obj, DEFAULT_TRUNCATION)
            target.write_text(json.dumps({"version": "logfan/1",
                                          "objects": {"X": obj}, "tasks": []}))
            # A full collection of the test run's heap (other tests' objects)
            # can fall inside the timed call and take longer than the bound.
            gc.collect()
            began = time.perf_counter()
            code = main(["--truncation", str(truncation), "check", str(target)])
            took = time.perf_counter() - began
            out, err = capsys.readouterr()
            if where == "inside":
                assert (code, err) == (0, ""), (bound, err)
                assert took < INSIDE_BUDGET, (bound, took)
            else:
                assert code == 2 and out == "", (bound, out)
                lines = err.splitlines()
                named = (f"'truncation' is {MAX_TRUNCATION + 1}, above"
                         if bound == "truncation" else "object 'X': ")
                assert len(lines) == 1 and lines[0].startswith(f"ScopeExceeded: {named}"), \
                    (bound, err)
                assert took < 0.1, (bound, took)
    assert time.perf_counter() - start < 5.0


def test_diagonal_source_dimension_just_inside_and_just_outside(tmp_path, capsysbinary,
                                                                 frozen_heap):
    """`subdivide_along_diagonal` takes source cones of dimension at most 2:
    a complete rank-2 fan (a seeded Hirzebruch surface) is subdivided within
    INSIDE_BUDGET, and the 3-d orthant is refused in under 0.1 s, before
    F x F is built."""
    a = random.Random(83).randint(0, 3)
    inside = _complex(builtin="toric_fan", rays=[[1, 0], [0, 1], [-1, a], [0, -1]],
                      maximal_cones=[[0, 1], [1, 2], [2, 3], [3, 0]], rank=2)
    outside = _complex(builtin="toric_fan", rays=_unit_rows(3), maximal_cones=[[0, 1, 2]],
                       rank=3)
    target = tmp_path / "diagonal.lf.json"
    for where, fan in (("inside", inside), ("outside", outside)):
        target.write_text(json.dumps({
            "version": "logfan/1", "objects": {"F": fan},
            "tasks": [{"op": "subdivide_along_diagonal", "args": {"complex": "F"}}]}))
        gc.collect()
        began = time.perf_counter()
        code = main(["run", str(target), "--format", "json"])
        took = time.perf_counter() - began
        result = json.loads(capsysbinary.readouterr().out)["results"][0]
        if where == "inside":
            assert code == 0 and result["status"] == "ok", result
            assert took < INSIDE_BUDGET, took
        else:
            assert code == 1 and result["error"] == {
                "type": "ScopeExceeded",
                "message": "source cones of dimension > 2 are out of scope"}, result
            assert took < 0.1, took


def _snc_of(rng, cones):
    """An snc complex of exactly `cones` cones: a simplex on k vertices (2^k
    faces, the empty one included) and cones - 2^k isolated points."""
    k = rng.randint(0, cones.bit_length() - 1)
    return _complex(builtin="snc", simplices=[list(range(k))] * bool(k)
                    + [[v] for v in range(k, k + cones - 2 ** k)])


def test_product_cones_just_inside_and_just_outside(tmp_path, capsysbinary, frozen_heap):
    """A `product` task of complexes with MAX_CONES cones between them runs
    within INSIDE_BUDGET; one with MAX_CONES + 1 is refused in under 0.1 s,
    before any cone of the product is built."""
    rng = random.Random(89)
    sides = {"inside": rng.choice([(8, 125), (10, 100), (20, 50), (40, 25)]),
             "outside": rng.choice([(7, 143), (11, 91), (13, 77), (77, 13)])}
    assert [a * b for a, b in sides.values()] == [MAX_CONES, MAX_CONES + 1]
    target = tmp_path / "product.lf.json"
    for where, (left, right) in sides.items():
        target.write_text(json.dumps({
            "version": "logfan/1",
            "objects": {"L": _snc_of(rng, left), "R": _snc_of(rng, right)},
            "tasks": [{"op": "product", "args": {"left": "L", "right": "R"}}]}))
        gc.collect()
        began = time.perf_counter()
        code = main(["run", str(target), "--format", "json"])
        took = time.perf_counter() - began
        result = json.loads(capsysbinary.readouterr().out)["results"][0]
        if where == "inside":
            assert code == 0 and result["status"] == "ok", result
            assert result["data"]["cone_count"] == MAX_CONES
            assert took < INSIDE_BUDGET, took
        else:
            assert code == 1 and result["error"] == {
                "type": "ScopeExceeded",
                "message": f"the product would have {MAX_CONES + 1} cones, "
                           f"above the desk-scale bound {MAX_CONES}"}, result
            assert took < 0.1, took


def test_membership_depth_and_states_just_inside_and_just_outside(tmp_path, capsys, frozen_heap):
    """Reading a hom from N = (N, +) asks whether its target holds the image
    of 1.  Depth: 1000 in N is 1,000 generator steps and is answered, 1001
    is refused before any search.  States: (n, 0) in the monoid of Z + Z/1000
    generated by (1, 0) and (1, 1) is n (1, 0) only, and the search tries
    every use of (1, 1) first; (139, 0) sees 9,870 remainders and is
    answered, (140, 0) is refused once it has seen 10,001.  Both refusals
    take under 0.1 s: the depth before any search, the states after those
    10,000 remainders, which take 0.04-0.05 s (Python 3.11 on a 2-core VM)."""
    assert (MAX_MEMBERSHIP_DEPTH, MAX_MEMBERSHIP_STATES) == (1000, 10_000)
    N = {"kind": "monoid", "free_rank": 1, "generators": [[1]]}
    cases = [(N, [1000], [1001], "may take 1001 generator steps, more than 1000", 0.1),
             ({"kind": "monoid", "free_rank": 1, "torsion": [1000],
               "generators": [[1, 0], [1, 1]]},
              [139, 0], [140, 0], "visits more than 10000 remainders", 0.1)]
    target = tmp_path / "membership.lf.json"
    for T, inside, outside, refusal, budget in cases:
        for where, image in (("inside", inside), ("outside", outside)):
            target.write_text(json.dumps({"version": "logfan/1", "objects": {
                "N": N, "f": {"kind": "hom", "source": "N", "target": T,
                              "matrix": [[x] for x in image]}}, "tasks": []}))
            gc.collect()
            began = time.perf_counter()
            code = main(["check", str(target)])
            took = time.perf_counter() - began
            out, err = capsys.readouterr()
            if where == "inside":
                assert (code, err) == (0, ""), err
                assert took < INSIDE_BUDGET, (image, took)
            else:
                assert code == 2 and out == "", out
                assert err == (f"ScopeExceeded: object 'f': membership of {tuple(image)} "
                               f"{refusal}\n"), err
                assert took < budget, (image, took)


ORBIFOLD_BUDGET = 0.5    # seconds for `orbifold_hh` on an action of order 1,000
HB_INSIDE_BUDGET = 3.0   # seconds for the Hilbert basis just inside its point bound


def test_orbifold_tables_of_order_1000_stay_fast(tmp_path, capsysbinary, frozen_heap):
    """`orbifold_hh` on seeded actions of order MAX_GROUP_ORDER, of the
    shapes 1000, 2 x 500, 10 x 100 and 4 x 5 x 50, on 1 and on MAX_DIMENSION
    coordinates, all of them log or none, each within ORBIFOLD_BUDGET (up
    to 0.1 s each, Python 3.11 on a 2-core VM).  Work of order |G| per
    sector, such as building the character shift tables for each element
    rather than once per action, makes these of order |G|^2 and fails."""
    rng = random.Random(97)
    target = tmp_path / "orbifold.lf.json"
    for orders in ([1000], [2, 500], [10, 100], [4, 5, 50]):
        assert math.prod(orders) == MAX_GROUP_ORDER
        for coords in (1, MAX_DIMENSION):
            for log in ([], list(range(coords))):
                action = {"kind": "action",
                          "model": _model(builtin="mixed_affine", coords=coords, log=log),
                          "orders": orders,
                          "characters": [[rng.randrange(d) for _ in range(coords)]
                                         for d in orders]}
                target.write_text(json.dumps({
                    "version": "logfan/1", "objects": {"A": action},
                    "tasks": [{"op": "orbifold_hh", "args": {"action": "A"}}]}))
                gc.collect()
                began = time.perf_counter()
                code = main(["run", str(target), "--format", "json"])
                took = time.perf_counter() - began
                result = json.loads(capsysbinary.readouterr().out)["results"][0]
                assert code == 0 and result["status"] == "ok", (action, result)
                assert took < ORBIFOLD_BUDGET, (action, took)


def test_parallelepiped_points_just_inside_and_just_outside(tmp_path, capsysbinary,
                                                            frozen_heap):
    """`hilbert_basis` of the simplicial cone e_1, ..., e_11, (1, ..., 11, m)
    in rank 12, the highest lattice rank it takes: its one parallelepiped
    holds m points.  m = MAX_PARALLELEPIPED_POINTS is answered within
    HB_INSIDE_BUDGET (about 1.1 s, Python 3.11 on a 2-core VM; every
    candidate is kept, so the minimisation is at its quadratic worst), and
    m + 1 is refused in under 0.1 s, before any point is enumerated."""
    assert MAX_PARALLELEPIPED_POINTS == 10_000
    rank = 2 * MAX_DIMENSION
    target = tmp_path / "points.lf.json"
    for where, m in (("inside", MAX_PARALLELEPIPED_POINTS),
                     ("outside", MAX_PARALLELEPIPED_POINTS + 1)):
        rays = _unit_rows(rank)[:-1] + [list(range(1, rank)) + [m]]
        target.write_text(json.dumps({
            "version": "logfan/1", "objects": {"M": {"kind": "matrix", "entries": rays}},
            "tasks": [{"op": "hilbert_basis", "args": {"generators": "M"}}]}))
        gc.collect()
        began = time.perf_counter()
        code = main(["run", str(target), "--format", "json"])
        took = time.perf_counter() - began
        result = json.loads(capsysbinary.readouterr().out)["results"][0]
        if where == "inside":
            assert code == 0 and len(result["data"]["basis"]) == m + rank - 1, result
            assert took < HB_INSIDE_BUDGET, took
        else:
            assert code == 1 and result["error"] == {
                "type": "ScopeExceeded",
                "message": f"the cone's simplices hold {m} parallelepiped points, "
                           f"more than {MAX_PARALLELEPIPED_POINTS}"}, result
            assert took < 0.1, took


@pytest.mark.parametrize("width", [600, 2 * MAX_DIMENSION])
def test_hilbert_basis_rank_is_bounded_before_the_double_description(tmp_path, capsysbinary,
                                                                     frozen_heap, width):
    """Width 600 would build a double description whose O(rank^3) normal
    form runs first; it is refused at once, and width 12 still runs."""
    target = tmp_path / "rank.lf.json"
    target.write_text(json.dumps({
        "version": "logfan/1",
        "objects": {"M": {"kind": "matrix", "entries": [[1] + [0] * (width - 1)]}},
        "tasks": [{"op": "hilbert_basis", "args": {"generators": "M"}}]}))
    gc.collect()
    began = time.perf_counter()
    code = main(["run", str(target), "--format", "json"])
    took = time.perf_counter() - began
    result = json.loads(capsysbinary.readouterr().out)["results"][0]
    assert took < 0.1, took
    if width > 2 * MAX_DIMENSION:
        assert code == 1 and result["error"] == {
            "type": "ScopeExceeded",
            "message": "the lattice rank is 600, above the desk-scale bound 12"}
    else:
        assert code == 0 and result["data"] == {"basis": [[1] + [0] * (width - 1)]}


def test_smith_form_is_bounded_before_the_elimination(tmp_path, capsysbinary, frozen_heap):
    """A matrix at both Smith-form bounds, 32x32 with entries +-1 (1,024
    bits), runs every Smith-form task; one more row, one more column or one
    more bit is refused before any elimination, for every such task."""
    assert (MAX_SMITH_SIDE, MAX_SMITH_BITS) == (32, 1024)
    rng = random.Random(19)
    inside = [[rng.choice((-1, 1)) for _ in range(MAX_SMITH_SIDE)]
              for _ in range(MAX_SMITH_SIDE)]
    heavier = copy.deepcopy(inside)
    heavier[rng.randrange(MAX_SMITH_SIDE)][rng.randrange(MAX_SMITH_SIDE)] *= 2
    outside = {"rows": [[1]] * (MAX_SMITH_SIDE + 1), "columns": [[1] * (MAX_SMITH_SIDE + 1)],
               "bits": heavier}
    target = tmp_path / "smith.lf.json"

    def run_tasks(rows):
        target.write_text(json.dumps({
            "version": "logfan/1", "objects": {"M": {"kind": "matrix", "entries": rows}},
            "tasks": [{"op": "smith_normal_form", "args": {"matrix": "M"}},
                      {"op": "cokernel", "args": {"matrix": "M"}},
                      {"op": "saturate_subgroup", "args": {"generators": "M"}}]}))
        gc.collect()
        began = time.perf_counter()
        code = main(["run", str(target), "--format", "json"])
        took = time.perf_counter() - began
        return code, took, json.loads(capsysbinary.readouterr().out)["results"]

    code, took, results = run_tasks(inside)
    assert code == 0 and [r["status"] for r in results] == ["ok"] * 3, results
    assert took < INSIDE_BUDGET, took
    for bound, rows in outside.items():
        code, took, results = run_tasks(rows)
        m, n = len(rows), len(rows[0])
        bits = m * n + (bound == "bits")
        # saturate_subgroup puts the generators, the rows here, in columns
        assert code == 1 and [r["error"] for r in results] == [
            {"type": "ScopeExceeded",
             "message": f"the matrix is {shape} with {bits} bits of entries, above the "
                        "desk-scale bound of 32 rows and columns and 1024 bits"}
            for shape in (f"{m}x{n}", f"{m}x{n}", f"{n}x{m}")], (bound, results)
        assert took < 0.1, (bound, took)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_smith_transforms_are_bounded_before_the_emit(tmp_path, capsysbinary, fmt):
    """A 2x3 matrix of 976 bits, inside MAX_SMITH_BITS, has a transform entry
    of 15,974 bits: more digits than `str` of an int accepts, so writing it
    out raised a ValueError with a traceback.  It is refused instead, and a
    2x2 matrix with 60-digit entries (4,880-bit transforms) is still solved."""
    assert MAX_SMITH_TRANSFORM_BITS == 8192
    rng = random.Random(0)
    a, b, c = (rng.randrange(10 ** (d - 1), 10 ** d) for d in (143, 72, 79))
    inside = [[rng.randrange(10 ** 59, 10 ** 60) for _ in range(2)] for _ in range(2)]
    target = tmp_path / "smith.lf.json"
    for rows, code in (([[a, 0, 0], [b, c, 0]], 1), (inside, 0)):
        assert sum(abs(x).bit_length() for row in rows for x in row) <= MAX_SMITH_BITS
        target.write_text(json.dumps({
            "version": "logfan/1", "objects": {"M": {"kind": "matrix", "entries": rows}},
            "tasks": [{"op": "smith_normal_form", "args": {"matrix": "M"}}]}))
        assert main(["run", str(target), "--format", fmt]) == code
        out, err = capsysbinary.readouterr()
        assert b"Traceback" not in out + err and not err
        if code == 0:
            assert b"ERROR" not in out and b'"error"' not in out
            continue
        message = (b"ScopeExceeded: the transforms of the 2x3 matrix have an entry of "
                   b"15974 bits, above the desk-scale bound of 8192 bits")
        if fmt == "json":
            error = json.loads(out)["results"][0]["error"]
            out = f"{error['type']}: {error['message']}".encode()
        assert message in out, out


def test_in_bound_saturations_are_answered_through_main(tmp_path, capsysbinary):
    """The 2x3 matrix of 976 bits whose Smith transforms pass
    MAX_SMITH_TRANSFORM_BITS: its rows saturate to e_1, e_2 through `main`
    (a Smith-form saturation refused them, its transforms having 15,716
    bits), and the index of the lattice they span is a * c."""
    rng = random.Random(0)
    a, b, c = (rng.randrange(10 ** (d - 1), 10 ** d) for d in (143, 72, 79))
    rows = [[a, 0, 0], [b, c, 0]]
    assert sum(abs(x).bit_length() for row in rows for x in row) == 976
    target = tmp_path / "saturate.lf.json"
    target.write_text(json.dumps({
        "version": "logfan/1", "objects": {"M": {"kind": "matrix", "entries": rows}},
        "tasks": [{"op": "saturate_subgroup", "args": {"generators": "M"}}]}))
    assert main(["run", str(target), "--format", "json"]) == 0
    result = json.loads(capsysbinary.readouterr().out)["results"][0]
    assert result["data"] == {"basis": [[1, 0, 0], [0, 1, 0]]}, result
    assert geom.simplicial_index(rows) == a * c


LATTICE_BUDGET = 0.05    # seconds for one in-bound saturation or integer solve


def test_in_bound_saturations_and_solves_are_never_refused(frozen_heap):
    """400 seeded sparse sets of at most 12 generators in Z^n, n <= 12, of
    up to MAX_SMITH_BITS bits: every saturation and every solve of A x = b
    for b in the image is answered, each within LATTICE_BUDGET (at most
    about 2 ms, Python 3.11 on a 2-core VM).  Read off Smith forms, 9
    saturations and 9 solves were refused for their transforms' size, and
    the slowest took 0.06 s."""
    rng = random.Random(0)
    worst = 0.0
    for _ in range(400):
        n, k = rng.randint(1, 12), rng.randint(1, 12)
        budget = rng.choice([64, 256, MAX_SMITH_BITS])
        gens = [[0] * n for _ in range(k)]
        cells = [(i, j) for i in range(k) for j in range(n)]
        rng.shuffle(cells)
        cells = cells[:rng.randint(1, max(1, len(cells) // 3))]
        for i, j in cells:
            gens[i][j] = rng.choice((-1, 1)) * rng.getrandbits(max(1, budget // len(cells)))
        assert sum(abs(x).bit_length() for g in gens for x in g) <= MAX_SMITH_BITS
        A = IntMatrix.from_columns(gens, rows=n)
        b = A.apply([rng.randint(-3, 3) for _ in range(k)])
        began = time.perf_counter()
        basis = saturate_subgroup(gens, n)
        middle = time.perf_counter()
        x = solve_integer(A, b)
        worst = max(worst, middle - began, time.perf_counter() - middle)
        assert len(basis) == lattice_rank(gens), gens
        assert x is not None and A.apply(x) == b, gens
    assert worst < LATTICE_BUDGET, worst


ISO_SEARCH_BUDGET = 1.5   # seconds for `is_isomorphic` at the placements bound


def _cycles(*lengths):
    """An snc complex of disjoint cycles of the given lengths."""
    simplices, start = [], 0
    for n in lengths:
        simplices += [[start + i, start + (i + 1) % n] for i in range(n)]
        start += n
    return _complex(builtin="snc", simplices=simplices)


def test_isomorphism_bounds_just_inside_and_just_outside(tmp_path, capsysbinary, monkeypatch,
                                                         frozen_heap):
    """Candidates: the cone on 28 rays (i, i^2, 1) in rank 3 has
    28 * 27 * 26 = 19,656 basis placements, inside MAX_ISO_CANDIDATES, and is
    isomorphic to itself within INSIDE_BUDGET (about 0.04 s); 29 rays are
    refused in under 0.1 s, before any search.  Placements: a 34-cycle
    against two 17-cycles is answered `false` after 87,924 placements,
    inside MAX_ISO_PLACEMENTS; a 36-cycle against two 18-cycles is refused
    once it has tried 100,000.  That bound counts placements while it
    searches, so its refusal comes only after them: both take about 0.3-0.4 s
    (Python 3.11 on a 2-core VM), and ISO_SEARCH_BUDGET states their limit."""
    assert (MAX_ISO_CANDIDATES, MAX_ISO_PLACEMENTS) == (20_000, 100_000)
    placed = collections.Counter()
    real_consistent = cc._consistent

    def consistent(*args):
        placed["n"] += 1
        return real_consistent(*args)

    monkeypatch.setattr(cc, "_consistent", consistent)
    fans = {k: _complex(builtin="toric_fan", rays=[[i, i * i, 1] for i in range(k)],
                        maximal_cones=[list(range(k))], rank=3) for k in (28, 29)}
    cases = [(fans[28], fans[28], {"data": {"isomorphic": True}}, INSIDE_BUDGET, None),
             (fans[29], fans[29], "a cone with 29 rays in rank 3 has more than 20000 "
              "isomorphism candidates", 0.1, 0),
             (_cycles(34), _cycles(17, 17), {"data": {"isomorphic": False}},
              ISO_SEARCH_BUDGET, 87_924),
             (_cycles(36), _cycles(18, 18), "the isomorphism search tried more than "
              "100000 placements of a cone", ISO_SEARCH_BUDGET, MAX_ISO_PLACEMENTS)]
    target = tmp_path / "iso.lf.json"
    for left, right, want, budget, placements in cases:
        target.write_text(json.dumps({
            "version": "logfan/1", "objects": {"L": left, "R": right},
            "tasks": [{"op": "is_isomorphic", "args": {"left": "L", "right": "R"}}]}))
        placed.clear()
        gc.collect()
        began = time.perf_counter()
        code = main(["run", str(target), "--format", "json"])
        took = time.perf_counter() - began
        result = json.loads(capsysbinary.readouterr().out)["results"][0]
        if isinstance(want, dict):
            assert code == 0 and result["data"] == want["data"], result
        else:
            assert code == 1 and result["error"] == {"type": "ScopeExceeded",
                                                     "message": want}, result
        assert placements is None or placed["n"] == placements, placed
        assert took < budget, (want, took)


# -------------------------------------------------------------- operation fuzz

OPERATION_BUDGET = 0.5    # seconds for `logfan run` on one fuzzed document
# A run-time error is a diagnostic of the toolkit, or a ValueError for an
# argument outside its object (a cone index, a group element); an internal
# fault or any other Python error is a bug.
RUN_ERRORS = {cls.__name__ for cls in LogfanError.__subclasses__()} - {"InternalInvariant"} \
    | {"ValueError"}


def _entries(rng, rows, cols, low=-6, high=6):
    return [[rng.randint(low, high) for _ in range(cols)] for _ in range(rows)]


def _fan(rng):
    """Rays, maximal cones and rank of a small toric fan, and whether it is
    complete: P^1, A^2, P^2, a Hirzebruch surface or a seeded 2-d cone."""
    a = rng.randint(0, 2)
    return rng.choice([
        ([[1], [-1]], [[0], [1]], 1, True),
        ([[1, 0], [0, 1]], [[0, 1]], 2, False),
        ([[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [2, 0]], 2, True),
        ([[1, 0], [0, 1], [-1, a], [0, -1]], [[0, 1], [1, 2], [2, 3], [3, 0]], 2, True),
        ([[1, 0], [rng.randint(-3, 3), rng.randint(1, 3)]], [[0, 1]], 2, False),
    ])


def _fuzz_complex(rng):
    rays, cones, rank, _ = _fan(rng)
    return rng.choice([
        _complex(builtin="toric_fan", rays=rays, maximal_cones=cones, rank=rank),
        _complex(builtin="snc", simplices=[list(range(rng.randint(1, 3)))]),
        _complex(builtin=rng.choice(["point", "nodal_cubic"])),
        _literal(rng, rng.randint(1, 3)),
    ])


def _fuzz_model(rng, factor=False):
    coords = rng.randint(0, 3)
    rays, cones, rank, complete = _fan(rng)
    models = [
        _model(builtin="affine_space", d=rng.randint(0, 3)),
        _model(builtin=rng.choice(["point", "p1", "p2", "nodal_cubic"])),
        _model(builtin="marked_p1", n=rng.randint(0, 5)),
        _model(builtin="mixed_affine", coords=coords,
               log=sorted(rng.sample(range(coords), rng.randint(0, coords)))),
        _model(builtin="toric", rays=rays, maximal_cones=cones, rank=rank, complete=complete),
    ]
    if not factor:
        models.append(_model(builtin="product",
                             factors=[_fuzz_model(rng, True), _fuzz_model(rng, True)]))
    return rng.choice(models)


def _fuzz_monoid(rng):
    free, torsion = rng.randint(1, 2), rng.choice([[], [], [2], [3]])
    return {"kind": "monoid", "free_rank": free, "torsion": torsion,
            "generators": [[rng.randint(-1, 3) for _ in range(free)]
                           + [rng.randrange(d) for d in torsion]
                           for _ in range(rng.randint(1, 3))]}


def _fuzz_hom(rng):
    """A hom from the named monoid N = (N, +) that sends 1 to a sum of
    target generators."""
    target = _fuzz_monoid(rng)
    gens = rng.sample(target["generators"], rng.randint(1, len(target["generators"])))
    return {"kind": "hom", "source": "N", "target": target,
            "matrix": [[sum(column)] for column in zip(*gens)]}


def _fuzz_action(rng):
    coords = rng.randint(1, 3)
    orders = rng.choice([[], [2], [3], [2, 2], [4]])
    action = {"kind": "action",
              "model": _model(builtin="mixed_affine", coords=coords,
                              log=sorted(rng.sample(range(coords), rng.randint(0, coords)))),
              "orders": orders,
              "characters": _entries(rng, len(orders), coords, 0, 3)}
    if rng.random() < 0.3:
        action["permutation"] = rng.sample(range(coords), coords)
    return action, orders


def _fuzz_args(rng, op):
    """Valid-shaped arguments of one task of `op`."""
    if op in ("smith_normal_form", "cokernel"):
        return {"matrix": {"kind": "matrix", "entries": _entries(rng, rng.randint(1, 4),
                                                                 rng.randint(1, 4))}}
    if op == "saturate_subgroup":
        return {"generators": {"kind": "matrix",
                               "entries": _entries(rng, rng.randint(1, 4), rng.randint(1, 4))}}
    if op == "hilbert_basis":
        return {"generators": {"kind": "matrix",
                               "entries": _entries(rng, rng.randint(1, 4), rng.randint(1, 3),
                                                   -3, 4)}}
    if op in ("saturate", "is_saturated"):
        return {"monoid": _fuzz_monoid(rng)}
    if op == "spec_component_count":
        return {"monoid": _fuzz_monoid(rng), "require_saturated": rng.random() < 0.5}
    if op == "fs_pushout":
        return {"left": _fuzz_hom(rng), "right": _fuzz_hom(rng)}
    if op in ("product", "is_isomorphic"):
        return {"left": _fuzz_complex(rng), "right": _fuzz_complex(rng)}
    if op == "star_subdivision":
        rays, cones, rank, _ = _fan(rng)
        return {"complex": _complex(builtin="toric_fan", rays=rays, maximal_cones=cones,
                                    rank=rank),
                "cone": rng.randint(0, len(cones) + 1),
                "ray": [rng.randint(-2, 2) for _ in range(rank)]}
    if op in ("subdivide_along_diagonal", "complex_info"):
        return {"complex": _fuzz_complex(rng)}
    if op in ("check_firm", "orbifold_hh"):
        return {"action": _fuzz_action(rng)[0]}
    if op == "twisted_sector":
        action, orders = _fuzz_action(rng)
        return {"action": action, "element": [rng.randint(0, d) for d in orders]}
    return {"model": _fuzz_model(rng)}


def test_seeded_operation_fuzz_through_main(tmp_path, capsysbinary, monkeypatch,
                                             frozen_heap):
    """Seeded valid-shaped single-task documents for every operation, run
    through `main`: exit 0, 1 or 2, no traceback, only toolkit diagnostics
    as run-time errors, each document under OPERATION_BUDGET, and every
    `_op_*` handler reached."""
    ran = set()
    for op, (schema, fn) in list(OPERATIONS.items()):
        monkeypatch.setitem(OPERATIONS, op, (schema, lambda args, fn=fn: ran.add(fn) or fn(args)))
    rng = random.Random(67)
    target = tmp_path / "op.lf.json"
    codes, errors = collections.Counter(), collections.Counter()
    gc.collect()
    start = time.perf_counter()
    for i, op in enumerate(sorted(OPERATIONS) * 10):
        doc = {"version": "logfan/1",
               "objects": {"N": {"kind": "monoid", "free_rank": 1, "generators": [[1]]}},
               "tasks": [{"op": op, "args": _fuzz_args(rng, op)}]}
        target.write_text(json.dumps(doc))
        fmt = ("json", "text")[i % 2]
        began = time.perf_counter()
        code = main(["run", str(target), "--format", fmt])
        took = time.perf_counter() - began
        out, err = capsysbinary.readouterr()
        assert code in (0, 1, 2) and b"Traceback" not in out + err, (doc, err)
        assert took < OPERATION_BUDGET, (doc, took)
        codes[code] += 1
        if fmt == "json" and code != 2:
            for result in json.loads(out)["results"]:
                if result["status"] == "error":
                    errors[result["error"]["type"]] += 1
                    assert result["error"]["type"] in RUN_ERRORS, (doc, result)
    assert time.perf_counter() - start < 3.0
    handlers = {getattr(cli, name) for name in dir(cli) if name.startswith("_op_")}
    assert ran == handlers and len(handlers) == 21
    # most documents run to the end, and the errors are of several kinds
    assert codes[0] >= 150 and len(errors) >= 3, (codes, errors)
