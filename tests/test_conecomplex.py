"""Cone complexes: constructors, products, subdivisions, isomorphism."""

import gc
import itertools
import json
import math
import random
import time

import pytest

from logfan import cli
from logfan import conecomplex as cc
from logfan._geometry import ConeGeometry
from logfan.conecomplex import (Cone, ComplexMorphism, FaceMap,
                                GeneralizedConeComplex, diagonal_morphism,
                                face_poset_dot,
                                from_toric_fan, identity_morphism, is_isomorphic,
                                nodal_cubic_complex, point_complex, product,
                                product_projections, snc_artin_fan,
                                star_subdivision, subdivide_along,
                                subdivide_along_diagonal)
from logfan.errors import (NotAFan, NotSimplicial, RayOutsideSupport,
                           ScopeExceeded)
from logfan.lattice import IntMatrix, lattice_rank, primitive
from rational_solve import det, solve_rational


def a1_complex():
    return from_toric_fan([(1,)], [(0,)], 1)

def a2_complex():
    return from_toric_fan([(1, 0), (0, 1)], [(0, 1)], 2)

def quadrant_index(K):
    return next(i for i, c in enumerate(K.cones) if c.dim == 2)


# -------------------------------------------------------------- constructors

def test_from_toric_fan_counts():
    assert a1_complex().cone_count == 2
    assert a2_complex().cone_count == 4
    p1 = from_toric_fan([(1,), (-1,)], [(0,), (1,)], 1)
    assert p1.cone_count == 3


def test_from_toric_fan_validates():
    a2_complex().validate()
    with pytest.raises(NotAFan):
        from_toric_fan([(1, 0), (0, 1), (1, 2)], [(0, 1), (0, 2)], 2)


def test_snc_artin_fan():
    one = snc_artin_fan([(0,)])
    assert one.cone_count == 2
    edge = snc_artin_fan([(0, 1)])
    assert edge.cone_count == 4
    assert is_isomorphic(edge, a2_complex())
    disjoint = snc_artin_fan([(0,), (1,)])
    assert disjoint.cone_count == 3
    disjoint.validate()
    with pytest.raises(NotSimplicial):
        snc_artin_fan([(0, 0)])


def test_snc_face_maps_share_one_matrix_per_face_position():
    """A face map's matrix depends only on the size of s and the positions of
    t in s, so equal matrices are one object: 63 for the 243 maps of the
    simplex on five vertices, one per subset of the positions of each size."""
    K = snc_artin_fan([range(5)])
    first = {}
    for fm in K.face_maps:
        assert first.setdefault(fm.matrix, fm.matrix) is fm.matrix
    assert len(K.face_maps) == 243
    assert len(first) == len({id(fm.matrix) for fm in K.face_maps}) == 63


def test_large_snc_simplex_is_out_of_scope():
    """The simplices are closed face by face against MAX_CONES, so a library
    caller is refused before any cone is built: a simplex on k vertices has
    2^k cones, and at 30 vertices the closure alone would never finish."""
    for vertices in (10, 11, 30):
        start = time.perf_counter()
        with pytest.raises(ScopeExceeded, match="more than 1000 cones"):
            snc_artin_fan([tuple(range(vertices))])
        assert time.perf_counter() - start < 0.1
    assert snc_artin_fan([tuple(range(9))]).cone_count == 512


def test_nodal_cubic_complex():
    W = nodal_cubic_complex()
    W.validate()
    assert W.ray_count == 1
    assert W.cone_count == 3
    assert len(W.maps_between(1, 2)) == 2
    assert len(W.nontrivial_face_maps()) == 4


# ------------------------------------------------------------------- product

def test_product_counts_and_iso():
    a1 = a1_complex()
    prod = product(a1, a1)
    assert prod.cone_count == len(a1.cones) ** 2
    assert len(prod.face_maps) == len(a1.face_maps) ** 2
    assert is_isomorphic(prod, a2_complex())


def test_product_unital_and_associative_up_to_iso():
    pt = point_complex()
    pieces = [a1_complex(), nodal_cubic_complex(), snc_artin_fan([(0,), (1,)])]
    for K in pieces:
        assert is_isomorphic(product(K, pt), K)
        assert is_isomorphic(product(pt, K), K)
    a1 = a1_complex()
    for K in pieces:
        left = product(product(K, a1), pt)
        right = product(K, product(a1, pt))
        assert is_isomorphic(left, right)


def test_product_projections_commute():
    a1 = a1_complex()
    left, right = product_projections(a1, nodal_cubic_complex())
    # construction validates the commuting squares; spot check a cone
    assert left.target is a1


def test_waffle_times_a1():
    assert product(nodal_cubic_complex(), a1_complex()).cone_count == 6


# ------------------------------------------------------------------ stellar

def test_star_subdivision_interior():
    K = a2_complex()
    sub = star_subdivision(K, quadrant_index(K), (1, 1))
    assert len(sub.refined.maximal_cone_indices()) == 2
    assert sub.refined.cone_count == 6
    assert sub.all_unimodular()
    assert sub.refined.ray_count == K.ray_count + 1
    assert sub.support_volumes_ok()


def test_star_subdivision_existing_ray_is_identity():
    K = a2_complex()
    sub = star_subdivision(K, quadrant_index(K), (1, 0))
    assert sub.is_trivial()


def test_star_subdivision_nonunimodular_flagged():
    K = a2_complex()
    sub = star_subdivision(K, quadrant_index(K), (1, 2))
    maxima = sub.refined.maximal_cone_indices()
    assert len(maxima) == 2
    bad = [i for i in maxima if not sub.refined.cones[i].is_unimodular]
    assert len(bad) == 1
    assert sub.refined.cones[bad[0]].multiplicity == 2
    assert sub.support_volumes_ok()


def test_make_drops_redundant_generators():
    quadrant = Cone.make([(1, 0), (0, 1)], 2)
    c = Cone.make([(1, 0), (1, 1), (0, 1)], 2)
    assert c is quadrant
    assert c.rays == ((0, 1), (1, 0)) and c.is_simplicial and c.is_unimodular


def test_star_subdivision_outside_support():
    with pytest.raises(RayOutsideSupport):
        star_subdivision(a2_complex(), 0, (-1, -1))


def test_star_subdivision_self_glued_scope():
    W = nodal_cubic_complex()
    with pytest.raises(ScopeExceeded):
        star_subdivision(W, 2, (1, 1))
    # no-op at an existing ray is fine even on the waffle
    sub = star_subdivision(W, 2, (1, 0))
    assert sub.is_trivial()


def test_vectors_of_another_rank_are_rejected_not_truncated():
    g = Cone.make([(1, 0)], 2).geometry
    for x in [(1, 0, 5), (1,)]:
        with pytest.raises(ValueError, match="rank 2"):
            g.contains(x)
        with pytest.raises(ValueError, match="rank 2"):
            g.contains_relative_interior(x)
    # the named cone (the waffle's rank-1 ray) cannot hold (1, 0), so the
    # search finds the quadrant, where (1, 0) is already a ray
    sub = star_subdivision(nodal_cubic_complex(), 1, (1, 0))
    assert sub.is_trivial()


# ---------------------------------------------------------- subdivide along

def test_subdivide_along_a1_diagonal():
    a1 = a1_complex()
    res = subdivide_along(diagonal_morphism(a1))
    prod = product(a1, a1)
    star = star_subdivision(prod, prod.cone_count - 1, (1, 1))
    assert res.subdivision.refined == star.refined
    assert res.subdivision.all_unimodular()
    assert sorted(c.rays for c in res.image_subcomplex.cones) == [(), ((1, 1),)]
    assert res.factoring is not None


def test_subdivide_along_identity_is_trivial():
    a2 = a2_complex()
    res = subdivide_along(identity_morphism(a2))
    assert res.subdivision.is_trivial()
    assert res.factoring is not None


def test_subdivide_along_a2_diagonal():
    res = subdivide_along(diagonal_morphism(a2_complex()))
    refined = res.subdivision.refined
    diag = tuple(sorted(((1, 0, 1, 0), (0, 1, 0, 1))))
    assert any(c.rays == diag for c in refined.cones)
    assert any(not f.naive_star_convex for f in res.image_flags)
    assert res.subdivision.support_volumes_ok()
    assert res.factoring is not None


# toric fans (rays, maximal cones, rank) whose diagonals are cross-checked
DIAGONAL_FANS = {
    "A1": ([(1,)], [(0,)], 1),
    "A2": ([(1, 0), (0, 1)], [(0, 1)], 2),
    "P1": ([(1,), (-1,)], [(0,), (1,)], 1),
    "P2": ([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0)], 2),
    **{f"F{a}": ([(1, 0), (0, 1), (-1, a), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)], 2)
       for a in (1, 2, 3)},
}


def structure_oracle(refined, original):
    """The pairwise search the home map replaces: each refined cone goes to
    the smallest original cone containing it (a cone index per refined cone)."""
    out = []
    for rc in refined.cones:
        best = None
        for j, oc in enumerate(original.cones):
            if oc.geometry.contains_cone(rc.geometry):
                if best is None or oc.dim < original.cones[best].dim:
                    best = j
        assert best is not None, "refined cone escapes the original support"
        out.append(best)
    return tuple(out)


def homes(sub):
    return tuple(j for j, _ in sub.structure.assignment)


@pytest.mark.parametrize("name", sorted(DIAGONAL_FANS))
def test_subdivide_along_matches_stepwise_star_subdivision(name, monkeypatch):
    """The stellar cuts of subdivide_along, replayed through the public
    star_subdivision (a checked structure morphism at every step), give the
    same refinement; every home-map structure morphism, stepwise and final,
    is the one the pairwise search finds."""
    phi = diagonal_morphism(from_toric_fan(*DIAGONAL_FANS[name]))
    cuts = []
    stellar = cc._stellar
    monkeypatch.setattr(cc, "_stellar",
                        lambda home_of, v: cuts.append(v) or stellar(home_of, v))
    res = subdivide_along(phi)
    assert cuts
    monkeypatch.undo()
    K = phi.target
    for v in cuts:
        step = star_subdivision(K, next(i for i, c in enumerate(K.cones) if c.contains(v)), v)
        assert step.support_volumes_ok()
        assert homes(step) == structure_oracle(step.refined, K)
        K = step.refined
    assert K == res.subdivision.refined
    assert res.subdivision.support_volumes_ok()
    assert homes(res.subdivision) == structure_oracle(K, phi.target)


# embedded complexes with non-simplicial cones (rays, maximal cones, rank)
CUBE = list(itertools.product((-1, 1), repeat=3))
NON_SIMPLICIAL_FANS = {
    # the face fan of the cube: six cones over squares
    "cube": (CUBE, [[i for i, v in enumerate(CUBE) if v[axis] == sign]
                    for axis in range(3) for sign in (-1, 1)], 3),
    # one cone over a 3-cube: its facets are cones over squares, so the join
    # of two faces can be a proper face that is not on the union of their rays
    "cube_cone": ([v + (1,) for v in CUBE], [list(range(8))], 4),
    # a cone over a pentagon next to a cone over a square
    "pentagon": ([(1, 0, 1), (0, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1),
                  (2, -1, 1), (2, 0, 1)], [(0, 1, 2, 3, 4), (0, 4, 5, 6)], 3),
}


@pytest.mark.parametrize("name", sorted(NON_SIMPLICIAL_FANS))
def test_star_subdivision_homes_on_non_simplicial_cones(name):
    """Seeded stellar steps on fans with non-simplicial cones, where the join
    of a face and the cone holding the new ray is often not the cone on the
    union of their rays: the home map equals the pairwise search at every
    step."""
    rng = random.Random(sorted(NON_SIMPLICIAL_FANS).index(name) + 8)
    rank = NON_SIMPLICIAL_FANS[name][2]
    joins_beyond_union = 0
    for _ in range(12):
        K = from_toric_fan(*NON_SIMPLICIAL_FANS[name])
        for _ in range(3):
            c = rng.choice([c for c in K.cones if c.dim])
            picked = [(rng.randint(1, 3), r)
                      for r in rng.sample(c.rays, rng.randint(1, len(c.rays)))]
            v = tuple(sum(a * r[k] for a, r in picked) for k in range(rank))
            tau = next(t for t in K.cones if t.geometry.contains_relative_interior(v))
            for big in K.cones:
                if tau in big.faces:
                    sets = big.face_ray_sets
                    ts = sets[big.faces.index(tau)]
                    joins_beyond_union += sum(s | ts not in sets for s in sets)
            step = star_subdivision(K, K.cones.index(c), v)
            assert homes(step) == structure_oracle(step.refined, K)
            assert step.support_volumes_ok()
            K = step.refined
    assert joins_beyond_union >= 100


def orthant_morphism(source, images):
    """source -> the orthant of Z^len(images[0]), every cone sent into the
    top cone by the matrix with these columns."""
    n = len(images[0])
    A = from_toric_fan([tuple(int(i == j) for j in range(n)) for i in range(n)],
                       [tuple(range(n))], n)
    M = IntMatrix.from_columns(images, rows=n)
    return ComplexMorphism(source, A, tuple((len(A.cones) - 1, M) for _ in source.cones))


def skew_image_morphism():
    return orthant_morphism(a2_complex(), [(1, 1, 0, 0), (0, 1, 1, 1)])


def test_subdivide_along_skew_image_cone():
    """An image plane not parallel to any coordinate pair still resolves."""
    res = subdivide_along(skew_image_morphism())
    diag = tuple(sorted(((1, 1, 0, 0), (0, 1, 1, 1))))
    assert any(c.rays == diag for c in res.subdivision.refined.cones)
    assert res.factoring is not None
    assert res.subdivision.support_volumes_ok()


def test_barycenter_round_resolves_a_crossed_image_cone(monkeypatch):
    """The cut at (0, 1, 1), the image of a lone ray, crosses the image
    cone((0, 0, 1), (1, 1, 0)) at (1, 1, 1) before (1, 1, 0) is cut, so the
    image is not a union of cones after the ray cuts; one barycenter round,
    at (1, 1, 1), resolves it, and splits it in two."""
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    source = from_toric_fan(e, [(0, 1), (2,)], 3)
    phi = orthant_morphism(source, [(0, 0, 1), (1, 1, 0), (0, 1, 1)])
    cuts = []
    stellar = cc._stellar
    monkeypatch.setattr(cc, "_stellar",
                        lambda home_of, v: cuts.append(v) or stellar(home_of, v))
    res = subdivide_along(phi)
    assert cuts == [(0, 0, 1), (0, 1, 1), (1, 1, 0), (1, 1, 1)]
    assert res.subdivision.support_volumes_ok()
    refined = res.subdivision.refined
    for half in [((0, 0, 1), (1, 1, 1)), ((1, 1, 0), (1, 1, 1))]:
        assert any(c.rays == half for c in refined.cones)
    assert res.factoring is None


def meets_interior_of(g, other):
    """Does cone g meet the relative interior of cone `other`?  The sum of
    the rays of their intersection is in its relative interior, which meets
    relint(other) exactly when that point lies there."""
    rays = g.intersect_rays(other)
    return bool(rays) and other.contains_relative_interior(
        tuple(map(sum, zip(*rays))))


def naive_star_is_fan(target, image):
    """Would coning the image cone to the target's faces tile convexly?  The
    naive one-shot subdivision along an image cone: its wedges over the
    proper faces that neither meet relint(image) nor lie in it must not
    overlap in full dimension."""
    if image.span_dim < 2:
        return True
    rank = target.lattice_rank
    wedges = []
    for f in target.faces:
        if f == target:
            continue
        if meets_interior_of(f.geometry, image) or image.contains_cone(f.geometry):
            continue
        w = ConeGeometry.of(image.rays + f.rays, rank)
        if w.span_dim == target.dim:
            wedges.append(w)
    for a, b in itertools.combinations(wedges, 2):
        if ConeGeometry.of(a.intersect_rays(b), rank).span_dim == target.dim:
            return False
    return True


def test_naive_star_is_never_a_fan_around_a_plane():
    """The naive star of a 2-d image cone in a simplicial cone of dimension
    3 or 4 is never a fan (the argument in ImageConeFlag), on 200 seeded
    pairs in rank 3 and 4, within 1.5 s; around a plane of its own
    dimension it is."""
    rng = random.Random(16)
    start = time.perf_counter()
    pairs = 0
    while pairs < 200:
        rank = rng.choice((3, 4))
        k = rng.randint(3, rank)
        rays = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(k)]
        if lattice_rank(rays) < k:
            continue
        home = Cone.make(rays, rank)
        a, b = ([sum(t * x for t, x in zip(ts, col)) for col in zip(*home.rays)]
                for ts in ([rng.randint(0, 2) for _ in home.rays] for _ in range(2)))
        image = ConeGeometry.of([a, b], rank)
        if image.span_dim != 2:
            continue
        assert home.geometry.contains_cone(image) and home.dim == k
        assert not naive_star_is_fan(home, image), (home, image.rays)
        pairs += 1
    assert time.perf_counter() - start < 1.5
    plane = Cone.make(image.rays, rank)
    assert naive_star_is_fan(plane, image)


MORPHISMS = {**{f"diagonal-{name}": lambda name=name: diagonal_morphism(
                    from_toric_fan(*DIAGONAL_FANS[name])) for name in DIAGONAL_FANS},
             "skew": skew_image_morphism,
             "identity-A2": lambda: identity_morphism(a2_complex()),
             "identity-P2": lambda: identity_morphism(from_toric_fan(*DIAGONAL_FANS["P2"]))}


@pytest.mark.parametrize("name", sorted(MORPHISMS))
def test_image_flags_match_the_naive_star_oracle(name):
    """Each 2-d image cone's flag is the naive-star oracle over its homes,
    the target cones of higher dimension around it."""
    phi = MORPHISMS[name]()
    rank = phi.target.cones[0].lattice_rank
    images = [ConeGeometry.of(phi.image_cone_rays(i), rank)
              for i in range(len(phi.source.cones))]
    flags = subdivide_along(phi).image_flags
    assert [f.index for f in flags] == [i for i, g in enumerate(images) if g.span_dim >= 2]
    for f in flags:
        image = images[f.index]
        homes = [c for c in phi.target.cones
                 if c.geometry.contains_cone(image) and c.dim > image.span_dim]
        assert f.dim == image.span_dim
        assert f.naive_star_convex == all(naive_star_is_fan(c, image) for c in homes)
    # the 2-d images of the diagonals and of the skew map lie in 4-d cones
    assert {f.naive_star_convex for f in flags} <= {name.startswith("identity")}


def test_subdivide_along_scope():
    p2_rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    big = from_toric_fan(p2_rays, [(0, 1, 2)], 3)
    with pytest.raises(ScopeExceeded):
        subdivide_along(diagonal_morphism(big))   # source cones of dim 3
    square = from_toric_fan([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], [(0, 1, 2, 3)], 3)
    M = IntMatrix.from_columns([(1, 0, 1)], rows=3)
    phi = ComplexMorphism(a1_complex(), square, ((0, M), (len(square.cones) - 1, M)))
    with pytest.raises(ScopeExceeded, match="target must be simplicial"):
        subdivide_along(phi)


def test_image_subcomplex():
    a1 = a1_complex()
    res = subdivide_along(diagonal_morphism(a1))
    B = res.image_subcomplex
    assert sorted(c.dim for c in B.cones) == [0, 1]
    B.validate()   # face-closed by construction

    pt = point_complex()
    res0 = subdivide_along(diagonal_morphism(pt))
    assert res0.image_subcomplex.cone_count == 1

    a2 = a2_complex()
    res2 = subdivide_along(diagonal_morphism(a2))
    B2 = res2.image_subcomplex
    assert sorted(c.dim for c in B2.cones) == [0, 1, 1, 2]
    # recomposition: the diagonal factors through the subcomplex
    assert res2.factoring.target == B2


# -------------------------------------------------------------- isomorphism

def test_p1_fan_is_two_rays_glued_at_origin():
    p1 = from_toric_fan([(1,), (-1,)], [(0,), (1,)], 1)
    assert is_isomorphic(p1, snc_artin_fan([(0,), (1,)]))


def test_non_isomorphic_same_cone_count():
    K = a2_complex()
    refined = star_subdivision(K, quadrant_index(K), (1, 1)).refined
    other = product(nodal_cubic_complex(), a1_complex())
    assert refined.cone_count == other.cone_count == 6
    assert not is_isomorphic(refined, other)


def test_multiplicity_distinguishes_fans():
    smooth = a2_complex()
    singular = from_toric_fan([(1, 0), (1, 2)], [(0, 1)], 2)
    assert smooth.cone_count == singular.cone_count
    assert not is_isomorphic(smooth, singular)
    # any unimodular 2-cone fan is isomorphic to the quadrant fan
    sheared = from_toric_fan([(1, 0), (1, 1)], [(0, 1)], 2)
    assert is_isomorphic(smooth, sheared)


def iso_candidates_oracle(c1, c2):
    """The search the basis placement replaces: every permutation of all
    the rays of c2, as images of the rays of c1."""
    n = c1.lattice_rank
    if n == 0:
        return {IntMatrix.identity(0)}
    out = set()
    src_t = IntMatrix.from_rows(c1.rays)   # the rays of c1 as rows
    for perm in itertools.permutations(c2.rays):
        dst = IntMatrix.from_columns(perm, rows=n)
        rows = [solve_rational(src_t, dst.row(i)) for i in range(n)]
        if any(r is None or any(x.denominator != 1 for x in r) for r in rows):
            continue
        U = IntMatrix.from_rows([[int(x) for x in r] for r in rows])
        if abs(det(U)) == 1 and {primitive(U.apply(r)) for r in c1.rays} == set(c2.rays):
            out.add(U)
    return out


def random_unimodular(rng, n):
    U = IntMatrix.identity(n)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        E = [[int(r == c) for c in range(n)] for r in range(n)]
        if i == j:
            E[i][i] = -1
        else:
            E[i][j] = rng.choice((-1, 1))
        U = IntMatrix.from_rows(E) @ U
    return U


def test_iso_candidates_against_all_permutations():
    """Placing a basis of rays finds exactly the maps the search over every
    ray permutation finds, on seeded full-dimensional cones of rank 1-3 with
    up to 5 rays, mapped by seeded unimodular maps or drawn independently."""
    rng = random.Random(31)

    def full_cone(n, count):
        try:
            c = Cone.make([tuple(rng.randint(-2, 2) for _ in range(n))
                           for _ in range(count)], n)
        except ValueError:
            return None
        return c if c.dim == n else None

    found, compared = 0, 0
    for case in range(150):
        n = rng.randint(1, 3)
        c1 = full_cone(n, rng.randint(n, 5))
        if c1 is None:
            continue
        if case % 3:
            U = random_unimodular(rng, n)
            c2 = Cone.make([U.apply(r) for r in c1.rays], n)
        else:
            c2 = full_cone(n, len(c1.rays))
            if c2 is None or len(c2.rays) != len(c1.rays):
                continue
        got = list(cc._iso_candidates(c1, c2))
        assert len(set(got)) == len(got)
        assert set(got) == iso_candidates_oracle(c1, c2), (c1, c2)
        found += bool(got)
        compared += 1
    assert found >= 60 and compared - found >= 10


def polygon_cone_fan(k, flip=False):
    """One rank-3 cone over a lattice k-gon, its coordinates reversed if flip."""
    pts = [(round(10 * math.cos(2 * math.pi * i / k)),
            round(10 * math.sin(2 * math.pi * i / k))) for i in range(k)]
    rays = [(x, y, 1)[::-1] if flip else (x, y, 1) for x, y in pts]
    return from_toric_fan(rays, [list(range(k))], 3)


def test_isomorphism_of_an_eight_ray_cone_is_quick():
    start = time.perf_counter()
    assert len(polygon_cone_fan(8).cones[-1].rays) == 8
    assert is_isomorphic(polygon_cone_fan(8), polygon_cone_fan(8, flip=True))
    assert time.perf_counter() - start < 1


def test_isomorphism_candidates_are_bounded():
    """29 rays in rank 3 give 29 * 28 * 27 basis placements, above the bound."""
    rays = [(i, i * i, 1) for i in range(29)]
    K = from_toric_fan(rays, [list(range(29))], 3)
    start = time.perf_counter()
    with pytest.raises(ScopeExceeded, match="isomorphism candidates"):
        is_isomorphic(K, K)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("vertices", [8, 9])
def test_large_simplex_isomorphism_is_refused_first(vertices):
    """The top cone of the snc simplex on 8 (9) vertices has 8! (9!) basis
    placements; every cone is checked before any work starts."""
    K = snc_artin_fan([tuple(range(vertices))])
    start = time.perf_counter()
    with pytest.raises(ScopeExceeded, match="isomorphism candidates"):
        is_isomorphic(K, K)
    assert time.perf_counter() - start < 0.1


def test_seven_vertex_simplex_isomorphism_answers_quickly_through_main(tmp_path, capsysbinary,
                                                                      monkeypatch, frozen_heap):
    """The top cone of the snc simplex on 7 vertices has 7! = 5,040 basis
    placements, inside the bound.  Candidates are made as the search reads
    them, so `true` comes back through `main` in under 0.5 s after parse
    (1.5 s when every candidate of a cone pair was made before the first
    was tried)."""
    simplex = {"kind": "complex", "builtin": "snc", "simplices": [list(range(7))]}
    target = tmp_path / "iso.lf.json"
    target.write_text(json.dumps({
        "version": "logfan/1", "objects": {"K": simplex},
        "tasks": [{"op": "is_isomorphic", "args": {"left": "K", "right": "K"}}]}))
    parsed = []
    real_parse = cli.parse

    def parse(*args, **kwargs):
        doc = real_parse(*args, **kwargs)
        parsed.append(time.perf_counter())
        return doc

    monkeypatch.setattr(cli, "parse", parse)
    gc.collect()
    code = cli.main(["run", str(target), "--format", "json"])
    took = time.perf_counter() - parsed[0]
    assert code == 0
    assert json.loads(capsysbinary.readouterr().out)["results"][0]["data"] == {"isomorphic": True}
    assert took < 0.5, took


def test_iso_candidates_of_the_zero_cone_are_its_identity():
    zero = Cone.zero(0)
    assert list(cc._iso_candidates(zero, zero)) == [IntMatrix.identity(0)]


def test_isomorphism_of_cones_with_large_rays_is_answered():
    """cone((1, 0), (N, 1)) and cone((-M, 1), (1, 0)) are both unimodular,
    and the first candidate map, [[-M, MN + 1], [1, -N]], has about four
    times the bits of N: with 300-bit N and M, 1,200 bits, past the Smith
    scale bound that `simplicial_index` checks.  The unimodularity test
    takes no such bound, so the pair is found isomorphic, as the
    determinant test found it."""
    rng = random.Random(71)
    N, M = rng.getrandbits(300) | 1, rng.getrandbits(300) | 1
    K = from_toric_fan([(1, 0), (N, 1)], [(0, 1)], 2)
    G = from_toric_fan([(1, 0), (-M, 1)], [(0, 1)], 2)
    first = next(cc._iso_candidates(K.cones[-1], G.cones[-1]))
    assert sum(abs(x).bit_length() for x in first.entries) > 1024 and abs(det(first)) == 1
    assert is_isomorphic(K, G)


def dimension_first_isomorphic(F, G):
    """The search the linked order replaces: cones placed by dimension first,
    every face map rechecked after each placement."""
    if len(F.cones) != len(G.cones) or len(F.face_maps) != len(G.face_maps):
        return False
    Ft, Gt = cc._tighten(F), cc._tighten(G)
    n = len(Ft.cones)
    inv_f, inv_g = cc._cone_invariants(Ft), cc._cone_invariants(Gt)
    if sorted(inv_f) != sorted(inv_g):
        return False
    order = sorted(range(n), key=lambda i: (-Ft.cones[i].dim, inv_f[i]))

    def extend(pos, bij, isos):
        if pos == n:
            return True
        i = order[pos]
        for j in range(n):
            if j in bij.values() or inv_g[j] != inv_f[i]:
                continue
            for u in cc._iso_candidates(Ft.cones[i], Gt.cones[j]):
                bij[i], isos[i] = j, u
                if cc._consistent(Ft, Gt, Ft.face_maps, bij, isos) and \
                        extend(pos + 1, bij, isos):
                    return True
                del bij[i], isos[i]
        return False

    return extend(0, {}, {})


def cycles(*lengths):
    """Edges of disjoint cycles of the given lengths on consecutive vertices."""
    edges, start = [], 0
    for k in lengths:
        edges += [(start + i, start + (i + 1) % k) for i in range(k)]
        start += k
    return edges


def random_simplices(rng):
    """A seeded graph or 2-complex on at most 5 vertices and 4 edges."""
    pairs = list(itertools.combinations(range(rng.randint(3, 5)), 2))
    edges = rng.sample(pairs, rng.randint(2, min(len(pairs), 4)))
    return edges + [t for t in itertools.combinations(range(5), 3)
                    if all(e in edges for e in itertools.combinations(t, 2))
                    and rng.random() < 0.5]


def random_chain(rng):
    """A seeded chain of 2 or 3 plane cones on rays near compass directions."""
    dirs = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
    steps = [rng.randint(0, 7)]
    for _ in range(rng.randint(2, 3)):
        steps.append(steps[-1] + rng.randint(1, 2))
    rays = [(3 * x + rng.randint(-1, 1), 3 * y + rng.randint(-1, 1))
            for x, y in (dirs[a % 8] for a in steps)]
    return rays, [(i, i + 1) for i in range(len(rays) - 1)]


def relabelled(rng, simplices):
    v = 1 + max(x for s in simplices for x in s)
    perm = rng.sample(range(v), v)
    return snc_artin_fan([tuple(perm[x] for x in s) for s in simplices])


def transformed(rng, rays, cones):
    U = random_unimodular(rng, 2)
    return from_toric_fan([U.apply(r) for r in rays], cones, 2)


# Two pairs that agree on every cone invariant and are not isomorphic: a path
# on five vertices and a triangle beside an edge; chains of plane cones of
# multiplicities 1, 2, 1 and 2, 1, 1.
PATH_5 = [(0, 1), (1, 2), (2, 3), (3, 4)]
TRIANGLE_AND_EDGE = [(0, 1), (1, 2), (0, 2), (3, 4)]
CHAIN_121 = ([(1, 0), (0, 1), (-2, 1), (-1, 0)], [(0, 1), (1, 2), (2, 3)])
CHAIN_211 = ([(1, 0), (1, 2), (0, 1), (-1, 0)], [(0, 1), (1, 2), (2, 3)])


def test_linked_order_against_dimension_first_search():
    """The linked order answers as the dimension-first search does on seeded
    relabellings and unimodular images of small complexes, isomorphic and
    not."""
    rng = random.Random(41)
    for case in range(32):
        kind = case % 4
        if kind == 0:
            simplices = random_simplices(rng)
            F, G = relabelled(rng, simplices), relabelled(rng, simplices)
        elif kind == 1:
            F, G = relabelled(rng, PATH_5), relabelled(rng, TRIANGLE_AND_EDGE)
        elif kind == 2:
            chain = random_chain(rng)
            F, G = transformed(rng, *chain), transformed(rng, *chain)
        else:
            F, G = transformed(rng, *CHAIN_121), transformed(rng, *CHAIN_211)
        assert is_isomorphic(F, G) == dimension_first_isomorphic(F, G) == (kind % 2 == 0)


def test_isomorphism_of_cycles_is_quick():
    start = time.perf_counter()
    assert not is_isomorphic(snc_artin_fan(cycles(8)), snc_artin_fan(cycles(4, 4)))
    assert not is_isomorphic(snc_artin_fan(cycles(12)), snc_artin_fan(cycles(6, 6)))
    assert is_isomorphic(snc_artin_fan(cycles(12)),
                         snc_artin_fan([(5 * a % 12, 5 * b % 12) for a, b in cycles(12)]))
    assert time.perf_counter() - start < 1


def test_isomorphism_search_is_bounded():
    """A 36-cycle against two 18-cycles agrees on every cone invariant and
    needs more than the bounded number of placements to be refused."""
    start = time.perf_counter()
    with pytest.raises(ScopeExceeded, match="placements of a cone"):
        is_isomorphic(snc_artin_fan(cycles(36)), snc_artin_fan(cycles(18, 18)))
    assert time.perf_counter() - start < 3


# ------------------------------------------------------------------- other

def test_face_map_validation():
    rho = Cone.make([(1,)], 1)
    sigma = Cone.make([(1, 0), (0, 1)], 2)
    bad = FaceMap(0, 1, IntMatrix.from_columns([(1, 1)], rows=2))
    K = GeneralizedConeComplex((rho, sigma), (bad,))
    with pytest.raises(ValueError):
        K.validate()


def test_validate_finds_a_missing_composite():
    """Dropping the zero cone's map into the top cone of a triangle leaves
    its composite through a vertex without a face map."""
    K = snc_artin_fan([(0, 1, 2)])
    top = len(K.cones) - 1
    maps = tuple(fm for fm in K.face_maps if (fm.source, fm.target) != (0, top))
    with pytest.raises(ValueError, match="not closed under composition"):
        GeneralizedConeComplex(K.cones, maps).validate()


def test_validate_bounds_composable_pairs_first():
    """Closure is one check per composable pair of distinct face maps; the
    pairs are counted before any map is checked."""
    zero, ray = Cone.zero(2), Cone.make([(1, 0)], 2)

    def glued(n, copies=1):
        # maps [[1, a], [0, 0]] onto the ray: 2 (n + 1)^2 pairs of distinct maps
        maps = [FaceMap(s, 1, IntMatrix.from_rows([[1, a], [0, 0]]))
                for a in range(n) for s in (0, 1)] * copies
        ends = [FaceMap(i, i, IntMatrix.identity(2)) for i in (0, 1)]
        return GeneralizedConeComplex((zero, ray), tuple(ends + maps))

    glued(10, copies=100).validate()     # 2,000 listed maps, 242 distinct pairs
    start = time.perf_counter()
    with pytest.raises(ScopeExceeded, match="more than 100000 composable pairs"):
        glued(223).validate()
    assert time.perf_counter() - start < 0.1
    # n distinct maps of a cone to itself have n^2 pairs: 99,856 pass, 100,489 do not
    cc.check_composable_pairs([(0, 0, a) for a in range(316)] * 2)
    with pytest.raises(ScopeExceeded):
        cc.check_composable_pairs([(0, 0, a) for a in range(317)])


def test_large_diagonal_is_out_of_scope():
    """The product is sized before it is built: the diagonal of 200 disjoint
    rays (201 cones) is refused at once."""
    rays = snc_artin_fan([(i,) for i in range(200)])
    start = time.perf_counter()
    with pytest.raises(ScopeExceeded, match="40401 cones"):
        subdivide_along_diagonal(rays)
    assert time.perf_counter() - start < 0.1


def face_poset_text(K: GeneralizedConeComplex) -> str:
    lines = [f"cones: {K.cone_count}"]
    for i, c in enumerate(K.cones):
        rays = ", ".join(str(r) for r in c.rays) or "origin"
        lines.append(f"  [{i}] dim {c.dim} rank {c.lattice_rank}: {rays}")
    lines.append("face maps (nontrivial):")
    for fm in K.nontrivial_face_maps():
        lines.append(f"  {fm.source} -> {fm.target} via {fm.matrix.as_rows()}")
    return "\n".join(lines) + "\n"


def test_renderings():
    W = nodal_cubic_complex()
    txt = face_poset_text(W)
    assert "cones: 3" in txt
    dot = face_poset_dot(W)
    assert dot.count("->") == 4
    assert dot.count("label=") == 3
