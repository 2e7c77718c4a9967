"""Interned cones and geometries, and the identity product fast path,
cross-checked against fresh uninterned construction and plain arithmetic."""

import collections
import random
import sys
from math import gcd

import pytest

from logfan import _geometry as geom
from logfan import conecomplex as cc
from logfan import hkr, lattice
from logfan import monoid as mn
from logfan import suite
from logfan.conecomplex import Cone
from logfan.errors import ScopeExceeded
from logfan.lattice import FgAbelianGroup, IntMatrix
from logfan.logmodel import p2_toric_model


def reference_rays(rays):
    """Sorted distinct primitive nonzero rays, computed without logfan."""
    out = set()
    for r in rays:
        g = 0
        for x in r:
            g = gcd(g, x)
        if g:
            out.add(tuple(x // g for x in r))
    return tuple(sorted(out))


def reference_extreme(prims, rank):
    """Drop each ray that an uninterned cone of the other rays contains."""
    out = list(prims)
    for r in prims:
        if geom.ConeGeometry(rank, tuple(s for s in out if s != r)).contains(r):
            out.remove(r)
    return tuple(out)


def scale(c, r):
    return tuple(c * x for x in r)


def uninterned_cone(rays, rank):
    """A Cone whose geometry is built directly, bypassing both tables."""
    c = Cone(rank, rays)
    c.__dict__["geometry"] = geom.ConeGeometry(rank, rays)
    return c


def random_cone_input(rng):
    rank = rng.randint(1, 4)
    rays = [tuple(rng.randint(-3, 3) for _ in range(rank))
            for _ in range(rng.randint(1, 5))]
    return rank, rays


def test_interned_cones_match_uninterned_construction():
    rng = random.Random(11)
    sharp = non_sharp = redundant = 0
    for _ in range(300):
        rank, rays = random_cone_input(rng)
        prims = reference_rays(rays)
        if not uninterned_cone(prims, rank).geometry.is_sharp:
            non_sharp += 1
            for _ in range(2):          # failures are never stored
                with pytest.raises(ValueError):
                    Cone.make(rays, rank)
            continue
        sharp += 1
        extreme = reference_extreme(prims, rank)
        redundant += extreme != prims
        fresh = uninterned_cone(extreme, rank)
        c = Cone.make(rays, rank)
        assert c.rays == fresh.rays == extreme
        for attr in ("rays", "normals", "equations", "span_dim"):
            assert getattr(c.geometry, attr) == getattr(fresh.geometry, attr)
        assert c.face_ray_sets == fresh.face_ray_sets
        assert c.multiplicity == fresh.multiplicity
        scaled = [scale(rng.randint(1, 4), r) for r in reversed(rays)]
        assert Cone.make(scaled, rank) is c
        assert geom.ConeGeometry.of([scale(2, r) for r in reversed(extreme)],
                                    rank) is c.geometry
    assert sharp >= 50 and non_sharp >= 50 and redundant >= 20


def test_non_sharp_cone_raises_every_time():
    line = [(1, 0), (-1, 0)]
    for _ in range(2):
        with pytest.raises(ValueError, match="not strongly convex"):
            Cone.make(line, 2)
    assert (2, ((-1, 0), (1, 0))) not in cc._CONES
    with pytest.raises(ValueError, match="ray length"):
        Cone.make([(1, 0, 0)], 2)


def spellings(rng, rays):
    """Ways to write the same cone: canonical, scaled, shuffled, duplicated,
    with zero rays, and as lists of lists."""
    rank = len(rays[0])
    shuffled = list(rays)
    rng.shuffle(shuffled)
    return {"canonical": tuple(rays),
            "scaled": [scale(rng.randint(2, 5), r) for r in rays],
            "shuffled": shuffled,
            "duplicated": list(rays) + [rng.choice(rays) for _ in range(2)],
            "zero rays": [(0,) * rank, *rays, (0,) * rank],
            "lists": [list(r) for r in reversed(rays)]}


def test_every_spelling_interns_to_one_object_whichever_comes_first(monkeypatch):
    """The as-given lookup returns the object the normalized lookup made, and
    the normalized lookup the one the as-given lookup found."""
    rng = random.Random(20)
    cones = 0
    while cones < 40:
        rank, rays = random_cone_input(rng)
        prims = reference_rays(rays)
        if not prims or not uninterned_cone(prims, rank).geometry.is_sharp:
            continue
        cones += 1
        forms = spellings(rng, prims)
        for first in forms:
            monkeypatch.setattr(cc, "_CONES", {})
            monkeypatch.setattr(geom, "_GEOMETRIES", {})
            c = Cone.make(forms[first], rank)
            g = geom.ConeGeometry.of(forms[first], rank)
            assert c.rays == reference_extreme(prims, rank) and g.rays == prims
            for name, form in forms.items():
                assert Cone.make(form, rank) is c, (first, name)
                assert geom.ConeGeometry.of(form, rank) is g, (first, name)
            assert set(cc._CONES) <= {(rank, prims), (rank, c.rays)}
            assert set(geom._GEOMETRIES) <= {(rank, prims), (rank, c.rays)}


def test_failing_inputs_raise_on_every_call_in_every_spelling(monkeypatch):
    """Wrong-length and non-sharp rays never reach `_CONES`, so they raise on
    every call, whichever spelling comes first.  A wrong-length input leaves
    both tables as they were; a non-sharp one leaves its geometry in
    `_GEOMETRIES`, which interns every geometry, after its first call only."""
    monkeypatch.setattr(cc, "_CONES", {})
    monkeypatch.setattr(geom, "_GEOMETRIES", {})
    rng = random.Random(21)
    stored = Cone.make([(1, 0), (0, 1)], 2)
    cases = [([(1, 0), (0, 1)], 3, "ray length")]   # a stored key, at another rank
    while len(cases) < 30:
        rank, rays = random_cone_input(rng)
        prims = reference_rays(rays)
        if prims and not uninterned_cone(prims, rank).geometry.is_sharp:
            cases.append((prims, rank, "not strongly convex"))
        elif prims and rank > 1:
            cases.append((prims + ((1,) * (rank - 1),), rank, "ray length"))
    for prims, rank, message in cases:
        geometries = set(geom._GEOMETRIES)
        for form in spellings(rng, prims).values():
            for _ in range(2):
                with pytest.raises(ValueError, match=message):
                    Cone.make(form, rank)
                assert set(cc._CONES) == {(2, stored.rays)}
                if message == "ray length":
                    assert set(geom._GEOMETRIES) == geometries
                else:
                    assert set(geom._GEOMETRIES) == geometries | {(rank, prims)}
    assert {message for *_, message in cases} == {"ray length", "not strongly convex"}


def entrywise_product(A, B):
    return IntMatrix(A.rows, B.cols, tuple(
        sum(A.at(i, k) * B.at(k, j) for k in range(A.cols))
        for i in range(A.rows) for j in range(B.cols)))


def test_identity_fast_path_matches_entrywise_product():
    rng = random.Random(5)

    def random_matrix(m, n):
        return IntMatrix(m, n, tuple(rng.randint(-4, 4) for _ in range(m * n)))

    assert IntMatrix.identity(3) is IntMatrix.identity(3)
    for _ in range(400):
        m, k, n = (rng.randint(0, 4) for _ in range(3))
        A = IntMatrix.identity(k) if m == k and rng.random() < 0.4 else random_matrix(m, k)
        B = IntMatrix.identity(k) if k == n and rng.random() < 0.4 else random_matrix(k, n)
        assert A @ B == entrywise_product(A, B)
    # zero-width factors: the identity of size 0 must not swallow an m x 0 shape
    for m, n in [(0, 0), (3, 0), (0, 3), (2, 2)]:
        A, B = random_matrix(m, 0), random_matrix(0, n)
        assert A @ B == entrywise_product(A, B) == IntMatrix.zero(m, n)
        assert A @ IntMatrix.identity(0) == A
        assert IntMatrix.identity(0) @ B == B


def test_identity_checks_make_no_matrix_comparison(monkeypatch):
    """`is_identity`, a product with an identity on either side, and the
    face-map check of the A^2 diagonal's structure morphism compare entries:
    none of them goes through `IntMatrix.__eq__`."""
    F = cc.from_toric_fan([(1, 0), (0, 1)], [(0, 1)], 2)
    structure = cc.subdivide_along_diagonal(F).subdivision.structure
    calls = collections.Counter()
    real = IntMatrix.__eq__

    def eq(a, b):
        calls["eq"] += 1
        return real(a, b)

    monkeypatch.setattr(IntMatrix, "__eq__", eq)
    A = IntMatrix(2, 3, (1, 2, 3, 4, 5, 6))
    assert IntMatrix.identity(2).is_identity and IntMatrix.identity(0).is_identity
    assert not A.is_identity and not IntMatrix.zero(2, 2).is_identity
    assert IntMatrix.identity(2) @ A is A and A @ IntMatrix.identity(3) is A
    assert len(structure.source.face_maps) == 225
    cc.ComplexMorphism(structure.source, structure.target, structure.assignment)
    assert calls["eq"] == 0
    assert A == IntMatrix(2, 3, (1, 2, 3, 4, 5, 6)) and calls["eq"] == 1


def test_p2_log_diagonal_runs_each_double_description_once(monkeypatch):
    """With empty interning tables, one P^2 log diagonal computes no double
    description input twice, and leaves 155 normalized keys in each table:
    the lookup of rays as given stores nothing."""
    monkeypatch.setattr(cc, "_CONES", {})
    monkeypatch.setattr(geom, "_GEOMETRIES", {})
    X = p2_toric_model()
    calls = collections.Counter()
    real = geom.dual_generators

    def counting(constraints, dim):
        calls[(tuple(tuple(c) for c in constraints), dim)] += 1
        return real(constraints, dim)

    monkeypatch.setattr(geom, "dual_generators", counting)
    hkr.log_diagonal(X)
    assert calls, "the diagonal must run double descriptions"
    repeated = {key: n for key, n in calls.items() if n > 1}
    assert not repeated
    assert len(cc._CONES) == len(geom._GEOMETRIES) == 155
    for table in (cc._CONES, geom._GEOMETRIES):
        for rank, rays in table:
            assert reference_rays(rays) == rays and all(len(r) == rank for r in rays)


def test_f1_diagonal_work_counts(monkeypatch):
    """With empty interning tables, one F_1 diagonal subdivision stays within
    the Smith-form and cone-containment counts of the home-map code.  The
    pairwise search for the structure morphism alone made 169 x 81 = 13,689
    containment tests, and a sharpness test through the lineality space for
    every new cone took the count of Smith forms to 229; with simplicial
    indices and saturations read off Hermite forms it takes none (16 before).
    It normalizes at most 314 ray lists, each new one once (527 when
    `Cone.make` and then `ConeGeometry.of` normalized it, 2,771 when every
    intern lookup did), though only 222 distinct cones come out."""
    monkeypatch.setattr(cc, "_CONES", {})
    monkeypatch.setattr(geom, "_GEOMETRIES", {})
    F = cc.from_toric_fan([(1, 0), (0, 1), (-1, 1), (0, -1)],
                          [(0, 1), (1, 2), (2, 3), (3, 0)], 2)
    calls = collections.Counter()
    real_snf, real_contains = lattice.smith_normal_form, geom.ConeGeometry.contains_cone
    real_primitive_rays = geom.primitive_rays

    def snf(A):
        calls["snf"] += 1
        return real_snf(A)

    def primitive_rays(rays):
        calls["primitive_rays"] += 1
        return real_primitive_rays(rays)

    def contains_cone(g, other):
        calls["contains_cone"] += 1
        return real_contains(g, other)

    for module in (lattice, geom):
        monkeypatch.setattr(module, "smith_normal_form", snf)
    monkeypatch.setattr(geom.ConeGeometry, "contains_cone", contains_cone)
    monkeypatch.setattr(geom, "primitive_rays", primitive_rays)
    res = cc.subdivide_along_diagonal(F)
    assert len(res.subdivision.refined.cones) == 169
    assert calls["snf"] == 0
    assert 0 < calls["contains_cone"] <= 2_500
    assert 0 < calls["primitive_rays"] <= 314


def test_f1_diagonal_reads_double_descriptions_only_for_inequalities(monkeypatch):
    """A cone's dimension is the rank of its rays, so a cone of independent
    rays is made, and answers its dimension, sharpness, faces and
    multiplicity, with no double description.  With empty interning tables,
    one F_1 diagonal subdivision runs at most 125 (228 when every dimension
    read the double description's equations)."""
    monkeypatch.setattr(cc, "_CONES", {})
    monkeypatch.setattr(geom, "_GEOMETRIES", {})
    calls = collections.Counter()
    real = geom.dual_generators

    def dual_generators(constraints, dim):
        calls["dd"] += 1
        return real(constraints, dim)

    monkeypatch.setattr(geom, "dual_generators", dual_generators)
    c = Cone.make([(1, 2, 0, 0), (0, 3, 1, 0), (2, 0, 0, 1)], 4)
    assert (c.dim, c.is_simplicial, c.geometry.is_sharp, len(c.faces), c.multiplicity) == \
        (3, True, True, 8, 1)
    assert calls["dd"] == 0 and "_dual" not in vars(c.geometry)
    res = cc.subdivide_along_diagonal(_hirzebruch_fan(1))
    assert len(res.subdivision.refined.cones) == 169
    assert 0 < calls["dd"] <= 125, calls


def test_equal_complexes_share_one_diagonal_subdivision(monkeypatch):
    """A second call on an equal but distinct complex returns the stored
    result and builds no product; so does a log diagonal's fan."""
    products = collections.Counter()
    real = cc.product

    def product(F, G):
        products["product"] += 1
        return real(F, G)

    monkeypatch.setattr(cc, "product", product)
    F, G = _hirzebruch_fan(2), _hirzebruch_fan(2)
    assert F == G and F is not G
    res = cc.subdivide_along_diagonal(F)
    assert products["product"] == 1
    assert cc.subdivide_along_diagonal(G) is res and products["product"] == 1
    assert list(cc._DIAGONALS) == [F]
    pic = hkr.log_diagonal(p2_toric_model())
    assert products["product"] == 2
    fan = cc.from_toric_fan([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0)], 2)
    assert cc.subdivide_along_diagonal(fan) is pic.diagonal and products["product"] == 2


def test_refused_complexes_raise_on_every_call_and_are_never_stored(monkeypatch):
    """A source cone of dimension above 2 is refused before F x F is built,
    and a target that is not embedded after; neither leaves an entry."""
    products = collections.Counter()
    real = cc.product

    def product(F, G):
        products["product"] += 1
        return real(F, G)

    monkeypatch.setattr(cc, "product", product)
    orthant = cc.from_toric_fan(IntMatrix.identity(3).as_rows(), [(0, 1, 2)], 3)
    for F, message, built in [(orthant, "dimension > 2", 0),
                              (cc.nodal_cubic_complex(), "embedded target", 2)]:
        for _ in range(2):
            with pytest.raises(ScopeExceeded, match=message):
                cc.subdivide_along_diagonal(F)
            assert cc._DIAGONALS == {}
        assert products["product"] == built
        products.clear()


def test_paper_suite_work_counts(monkeypatch):
    """With empty interning tables, one paper suite takes 375 Smith forms
    and at most 136 double descriptions (155 when the placing triangulation
    built the double description of every prefix of a cone's rays, also of
    those a new ray only adds rank to)."""
    monkeypatch.setattr(cc, "_CONES", {})
    monkeypatch.setattr(geom, "_GEOMETRIES", {})
    calls = collections.Counter()
    real_snf, real_dd = lattice.smith_normal_form, geom.dual_generators

    def snf(A):
        calls["snf"] += 1
        return real_snf(A)

    def dual_generators(constraints, dim):
        calls["dd"] += 1
        return real_dd(constraints, dim)

    for module in (lattice, geom, cc, mn, suite):
        monkeypatch.setattr(module, "smith_normal_form", snf)
    monkeypatch.setattr(geom, "dual_generators", dual_generators)
    assert all(r.passed for r in suite.run_paper_suite())
    assert calls["snf"] == 375 and 0 < calls["dd"] <= 136, calls


def _hirzebruch_fan(a):
    return cc.from_toric_fan([(1, 0), (0, 1), (-1, a), (0, -1)],
                             [(0, 1), (1, 2), (2, 3), (3, 0)], 2)


def test_f1_diagonal_work_counts_read_off_the_rays(monkeypatch):
    """With empty interning tables, the F_1 diagonal subdivision makes 432
    containment tests and no Smith form (16 when simplicial indices and
    saturations took one each).  The cones inside an image cone are found
    from one bitmask per ray: a test of every cone against every image cone
    made 1,917 containment tests."""
    monkeypatch.setattr(cc, "_CONES", {})
    monkeypatch.setattr(geom, "_GEOMETRIES", {})
    F = _hirzebruch_fan(1)
    calls = collections.Counter()
    real_snf, real_contains = lattice.smith_normal_form, geom.ConeGeometry.contains_cone

    def snf(A):
        calls["snf"] += 1
        return real_snf(A)

    def contains_cone(g, other):
        calls["contains_cone"] += 1
        return real_contains(g, other)

    for module in (lattice, geom):
        monkeypatch.setattr(module, "smith_normal_form", snf)
    monkeypatch.setattr(geom.ConeGeometry, "contains_cone", contains_cone)
    res = cc.subdivide_along_diagonal(F)
    assert len(res.subdivision.refined.cones) == 169
    assert (calls["snf"], calls["contains_cone"]) == (0, 432), calls


def test_stellar_compares_no_cones(monkeypatch):
    """`_stellar` finds tau among the interned faces by identity: with empty
    interning tables, the F_2 diagonal subdivision calls `Cone.__eq__` from
    no `_stellar` frame (it made 3,558 such calls by `in` and `index`)."""
    monkeypatch.setattr(cc, "_CONES", {})
    monkeypatch.setattr(geom, "_GEOMETRIES", {})
    F = _hirzebruch_fan(2)
    calls = collections.Counter()
    real_eq = Cone.__eq__

    def eq(self, other):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not cc._stellar.__code__:
            frame = frame.f_back
        calls["stellar" if frame is not None else "other"] += 1
        return real_eq(self, other)

    monkeypatch.setattr(Cone, "__eq__", eq)
    res = cc.subdivide_along_diagonal(F)
    assert len(res.subdivision.refined.cones) == 169
    assert calls["stellar"] == 0 and calls["other"] > 0, calls


def test_saturation_takes_no_smith_form_and_torsion_one(monkeypatch):
    """`saturate_subgroup` is the kernel of a kernel, read off Hermite forms,
    and `_gp_torsion` reads V^-1 off U C, so it takes no Smith form beyond
    its own."""
    calls = collections.Counter()
    real = lattice.smith_normal_form

    def counting(A):
        calls["snf"] += 1
        return real(A)

    for module in (lattice, mn):
        monkeypatch.setattr(module, "smith_normal_form", counting)
    assert lattice.saturate_subgroup([(2, 4, 6), (0, 6, 12)], 3) == ((1, 0, -1), (0, 1, 2))
    assert calls["snf"] == 0
    # both Smith transforms of this torsion are not the identity
    P = mn.FineMonoid.make(FgAbelianGroup(1, (2, 6)), [(-2, 1, 3), (1, 1, 1), (2, 0, 2)])
    assert P._gp_torsion == (6, ((0, 1, 1),))
    assert calls["snf"] == 1


def test_cone_lattice_coords_takes_no_smith_form(monkeypatch):
    """The coordinates of k rays in the saturated lattice of their span take
    no Smith form, whatever k is: the saturation and the coordinates are
    both read off Hermite forms."""
    calls = collections.Counter()
    real = lattice.smith_normal_form

    def counting(A):
        calls["snf"] += 1
        return real(A)

    for module in (lattice, geom):
        monkeypatch.setattr(module, "smith_normal_form", counting)
    for k in (1, 3, 8, 20):
        rays = [(2 * i + 1, 2 * (i % 3), 4 * i + 2, 0) for i in range(k)]
        basis, coords = geom.cone_lattice_coords(rays, 4)
        assert basis == lattice.saturate_subgroup(rays, 4) and len(coords) == k
    assert calls["snf"] == 0
