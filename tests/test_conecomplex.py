"""Cone complexes: constructors, products, subdivisions, isomorphism."""

import pytest

from logfan import conecomplex as cc
from logfan.conecomplex import (Cone, ComplexMorphism, FaceMap,
                                GeneralizedConeComplex, diagonal_morphism,
                                face_poset_dot, face_poset_text,
                                from_toric_fan, is_isomorphic,
                                nodal_cubic_complex, point_complex, product,
                                product_projections, snc_artin_fan,
                                star_subdivision, subdivide_along)
from logfan.errors import (NotAFan, NotSimplicial, RayOutsideSupport,
                           ScopeExceeded)
from logfan.lattice import IntMatrix


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
    flags = sub.unimodular
    bad = [i for i in maxima if not flags[i]]
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
    from logfan.conecomplex import identity_morphism
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


@pytest.mark.parametrize("name", sorted(DIAGONAL_FANS))
def test_subdivide_along_matches_stepwise_star_subdivision(name, monkeypatch):
    """The stellar cuts of subdivide_along, replayed through the public
    star_subdivision (a checked structure morphism at every step), give the
    same refinement; subdivide_along itself builds one structure morphism."""
    phi = diagonal_morphism(from_toric_fan(*DIAGONAL_FANS[name]))
    cuts, structures = [], []
    stellar, structure_to = cc._stellar, cc._structure_to
    monkeypatch.setattr(cc, "_stellar", lambda K, v: cuts.append(v) or stellar(K, v))
    monkeypatch.setattr(cc, "_structure_to",
                        lambda R, K: structures.append(R) or structure_to(R, K))
    res = subdivide_along(phi)
    assert len(structures) == 1 and cuts
    monkeypatch.undo()
    K = phi.target
    for v in cuts:
        step = star_subdivision(K, next(i for i, c in enumerate(K.cones) if c.contains(v)), v)
        assert step.support_volumes_ok()
        K = step.refined
    assert K == res.subdivision.refined
    assert res.subdivision.support_volumes_ok()


def test_subdivide_along_skew_image_cone():
    """An image plane not parallel to any coordinate pair still resolves."""
    A4 = from_toric_fan([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
                        [(0, 1, 2, 3)], 4)
    big = max(range(len(A4.cones)), key=lambda i: A4.cones[i].dim)
    M = IntMatrix.from_columns([(1, 1, 0, 0), (0, 1, 1, 1)], rows=4)
    phi = ComplexMorphism(a2_complex(), A4,
                          tuple((big, M) for _ in a2_complex().cones))
    res = subdivide_along(phi)
    diag = tuple(sorted(((1, 1, 0, 0), (0, 1, 1, 1))))
    assert any(c.rays == diag for c in res.subdivision.refined.cones)
    assert res.factoring is not None
    assert res.subdivision.support_volumes_ok()


def test_subdivide_along_scope():
    p2_rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    big = from_toric_fan(p2_rays, [(0, 1, 2)], 3)
    with pytest.raises(ScopeExceeded):
        subdivide_along(diagonal_morphism(big))   # source cones of dim 3


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


# ------------------------------------------------------------------- other

def test_face_map_validation():
    rho = Cone.make([(1,)], 1)
    sigma = Cone.make([(1, 0), (0, 1)], 2)
    bad = FaceMap(0, 1, IntMatrix.from_columns([(1, 1)], rows=2))
    K = GeneralizedConeComplex((rho, sigma), (bad,))
    with pytest.raises(ValueError):
        K.validate()


def test_renderings():
    W = nodal_cubic_complex()
    txt = face_poset_text(W)
    assert "cones: 3" in txt
    dot = face_poset_dot(W)
    assert dot.count("->") == 4
    assert dot.count("label=") == 3
