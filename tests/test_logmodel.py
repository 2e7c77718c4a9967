"""Model tables: constructors, Kunneth, Serre duality, subdivision invariance."""

import itertools

import pytest

from logfan.conecomplex import star_subdivision
from logfan.errors import KindMismatch, NotComplete, ScopeExceeded
from logfan.logmodel import (GradedEntry, HodgeTable, affine_space_model,
                             marked_p1, mixed_affine, nodal_cubic,
                             p1_toric_model, p2_toric_model, point_model,
                             product_model, subdivided_model, toric_model)


def finite_cells(X):
    return {k: e.total() for k, e in X.hodge.cells}


def test_graded_entry_arithmetic():
    a = GradedEntry.series([1, 2, 3])
    b = GradedEntry.series([1, 1, 1])
    assert (a + b).value == (2, 3, 4)
    with pytest.raises(KindMismatch, match="series x series products are out of scope"):
        a * b
    assert (GradedEntry.finite(2) * a).value == (2, 4, 6)
    assert a.shifted(1).value == (0, 1, 2)
    with pytest.raises(KindMismatch):
        GradedEntry.finite(1) + a


def test_table_kind_consistency():
    with pytest.raises(KindMismatch):
        HodgeTable.build(1, {(0, 0): GradedEntry.finite(1),
                             (0, 1): GradedEntry.series([1, 1])})


def test_a1_toric_table():
    X = affine_space_model(1, truncation=6)
    ones = (1,) * 7
    assert X.hodge.entry(0, 0).value == ones
    assert X.hodge.entry(0, 1).value == ones
    assert X.hodge.entry(1, 1).is_zero()
    assert X.dimension == 1


def test_p1_toric_table():
    X = p1_toric_model()
    assert finite_cells(X) == {(0, 0): 1, (0, 1): 1}


def test_p2_toric_table():
    X = p2_toric_model()
    assert finite_cells(X) == {(0, 0): 1, (0, 1): 2, (0, 2): 1}
    assert sum(X.hodge.entry(0, q).total() for q in range(3)) == 2 ** 2


def test_toric_completeness_check():
    with pytest.raises(NotComplete):
        toric_model([(1, 0), (0, 1)], [(0, 1)], 2, complete=True)
    with pytest.raises(NotComplete):
        toric_model([(1,)], [(0,)], 1, complete=True)
    with pytest.raises(NotComplete):      # a half-line, though both rays are listed
        toric_model([(1,), (-1,)], [(0,)], 1, complete=True)
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    with pytest.raises(NotComplete):
        toric_model(e, [(0, 1, 2)], 3, complete=True)
    p3 = toric_model(e + [(-1, -1, -1)], list(itertools.combinations(range(4), 3)), 3,
                     complete=True)
    signs = e + [tuple(-x for x in r) for r in e]
    p1_cubed = toric_model(signs, [(a, b, c) for a in (0, 3) for b in (1, 4) for c in (2, 5)],
                           3, complete=True)
    assert not p3.affine and not p1_cubed.affine


def test_marked_p1_family():
    assert finite_cells(marked_p1(0)) == {(0, 0): 1, (1, 1): 1}
    assert finite_cells(marked_p1(2)) == {(0, 0): 1, (0, 1): 1}
    X5 = marked_p1(5)
    assert X5.hodge.entry(0, 1).total() == 4
    assert X5.hodge.entry(1, 1).total() == 0
    assert marked_p1(2).artin_fan.cone_count == 3


def test_marked_p1_serre_duality_spot_check():
    from logfan.logmodel import _line_bundle_h0, _line_bundle_h1
    for m in range(-5, 6):
        assert _line_bundle_h1(m) == _line_bundle_h0(-2 - m)


def test_nodal_cubic_model():
    X = nodal_cubic()
    assert finite_cells(X) == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    assert X.artin_fan.ray_count == 1
    assert X.dimension == 1


def test_product_point_is_unit():
    X = marked_p1(3)
    P = product_model(point_model(), X)
    assert finite_cells(P) == finite_cells(X)


def test_product_two_marked_p1_matches_toric():
    sq = product_model(marked_p1(2), marked_p1(2))
    assert finite_cells(sq) == {(0, 0): 1, (0, 1): 2, (0, 2): 1}
    toric_sq = product_model(p1_toric_model(), p1_toric_model())
    assert finite_cells(sq) == finite_cells(toric_sq)


def test_product_nodal_cubic_with_marked_p1():
    prod = product_model(nodal_cubic(), marked_p1(2))
    expect = {}
    nodal = {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    mp2 = {(0, 0): 1, (0, 1): 1}
    for (p1, q1), a in nodal.items():
        for (p2, q2), b in mp2.items():
            key = (p1 + p2, q1 + q2)
            expect[key] = expect.get(key, 0) + a * b
    assert finite_cells(prod) == expect


def test_product_convolution_commutative_associative():
    models = [marked_p1(0), marked_p1(3), nodal_cubic(), p1_toric_model()]
    for X, Y in itertools.combinations(models, 2):
        assert finite_cells(product_model(X, Y)) == finite_cells(product_model(Y, X))
    X, Y, Z = models[:3]
    assert finite_cells(product_model(product_model(X, Y), Z)) == \
        finite_cells(product_model(X, product_model(Y, Z)))


def test_product_series_series_rejected():
    A1 = affine_space_model(1)
    with pytest.raises(KindMismatch):
        product_model(A1, A1)
    with pytest.raises(KindMismatch, match="series x series products are out of scope"):
        A1.hodge.convolve(A1.hodge)


def test_product_finite_series_allowed():
    P = product_model(p1_toric_model(), affine_space_model(1, truncation=4))
    assert P.hodge.kind == "series"
    assert P.hodge.entry(0, 1).value == (2, 2, 2, 2, 2)


def test_subdivided_model_keeps_table():
    P2 = p2_toric_model()
    fan = P2.artin_fan
    quad = next(i for i, c in enumerate(fan.cones) if c.rays == ((0, 1), (1, 0)))
    sub = star_subdivision(fan, quad, (1, 1))
    X = subdivided_model(P2, sub)
    assert X.hodge == P2.hodge
    assert X.artin_fan.ray_count == fan.ray_count + 1

    trivial = star_subdivision(fan, quad, (1, 0))
    Y = subdivided_model(P2, trivial)
    assert Y.hodge == P2.hodge
    assert Y.artin_fan == fan

    P1 = p1_toric_model()
    ident = star_subdivision(P1.artin_fan, 1, (1,))
    Z = subdivided_model(P1, ident)
    assert Z.hodge == P1.hodge
    assert Z.artin_fan == P1.artin_fan


def test_subdivided_model_scope():
    A1 = affine_space_model(1)
    fan = p2_toric_model().artin_fan
    quad = next(i for i, c in enumerate(fan.cones) if c.rays == ((0, 1), (1, 0)))
    sub = star_subdivision(fan, quad, (1, 1))
    with pytest.raises(ScopeExceeded, match="require a complete toric model"):
        subdivided_model(A1, sub)
    # P^1 x P^1 is complete toric, but this subdivides P^2's fan
    signs = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    P1xP1 = toric_model(signs, [(0, 1), (1, 2), (2, 3), (3, 0)], 2, complete=True)
    with pytest.raises(ScopeExceeded, match="does not refine this model's fan"):
        subdivided_model(P1xP1, sub)
    # non-unimodular subdivisions are not log modifications
    P2 = p2_toric_model()
    bad = star_subdivision(fan, quad, (1, 2))
    with pytest.raises(ScopeExceeded):
        subdivided_model(P2, bad)


def test_mixed_affine_matches_full_toric():
    assert mixed_affine(2, [0, 1], truncation=5).hodge.cells == \
        affine_space_model(2, truncation=5).hodge.cells


def test_mixed_affine_no_log_weights():
    X = mixed_affine(1, [], truncation=4)
    assert X.hodge.entry(0, 0).value == (1, 1, 1, 1, 1)
    assert X.hodge.entry(0, 1).value == (0, 1, 1, 1, 1)
    assert X.artin_fan.cone_count == 1
