"""HKR calculators: homology/cohomology tables, diagonal pictures, cyclic."""

import itertools
import time
from math import comb

import pytest

from logfan.conecomplex import star_subdivision
from logfan.errors import KindMismatch, ScopeExceeded, SeriesNotSupported
from logfan.hkr import (euler_check, hh_cohomology, hh_homology, log_diagonal,
                        periodic_cyclic)
from logfan.logmodel import (affine_space_model, marked_p1, mixed_affine,
                             nodal_cubic, p1_toric_model, p2_toric_model,
                             point_model, product_model, subdivided_model,
                             toric_model)


def dims(table):
    return {n: e.total() for n, e in table.degrees}


# ------------------------------------------------------------------ homology

def test_hh_point():
    assert dims(hh_homology(point_model())) == {0: 1}


def test_hh_nodal_cubic():
    assert dims(hh_homology(nodal_cubic())) == {-1: 1, 0: 2, 1: 1}


def test_hh_marked_p1():
    assert dims(hh_homology(marked_p1(5))) == {0: 1, 1: 4}
    assert dims(hh_homology(marked_p1(0))) == {0: 2}
    for n in range(2, 7):
        assert hh_homology(marked_p1(n)).dimension(1) == n - 1


def test_hh_equals_antidiagonal_resummation():
    models = [point_model(), marked_p1(0), marked_p1(4), nodal_cubic(),
              p1_toric_model(), p2_toric_model()]
    for X in models:
        hh = hh_homology(X)
        d = X.dimension
        for n in range(-d, d + 1):
            expected = sum(X.hodge.entry(p, q).total()
                           for p in range(d + 1) for q in range(d + 1)
                           if q - p == n)
            assert hh.dimension(n) == expected


def test_complete_toric_binomials():
    for X, d in ((p1_toric_model(), 1), (p2_toric_model(), 2)):
        hh = dims(hh_homology(X))
        assert hh == {n: comb(d, n) for n in range(d + 1)}
        co = dims(hh_cohomology(X))
        assert co == hh


# ---------------------------------------------------------------- cohomology

def test_cohomology_a1_concentration():
    X = affine_space_model(1, truncation=6)
    hh = hh_homology(X)
    co = hh_cohomology(X)
    assert hh.support() == (0, 1)
    assert co.support() == (0, 1)
    # both entries are free rank-1 over k[t]: all-ones after a shift
    assert co.entry(0).value == (1,) * 7
    assert co.entry(1).value == (0,) + (1,) * 6


def test_cohomology_nodal_cubic():
    assert dims(hh_cohomology(nodal_cubic())) == {0: 1, 1: 2, 2: 1}


def test_cohomology_point():
    assert dims(hh_cohomology(point_model())) == {0: 1}


def test_cohomology_scope():
    with pytest.raises(ScopeExceeded):
        hh_cohomology(mixed_affine(2, [0]))


# ------------------------------------------------------------- log diagonal

def test_log_diagonal_a1():
    pic = log_diagonal(affine_space_model(1))
    assert pic.b_description.text == "A^1 x G_m"
    assert pic.b_description.torus_rank == 1
    assert pic.conormal_rank == 1
    assert sorted(c.rays for c in pic.b_subcomplex.cones) == [(), ((1, 1),)]


def test_log_diagonal_point():
    pic = log_diagonal(point_model())
    assert pic.b_description.text == "point"
    assert pic.b_subcomplex.cone_count == 1
    assert pic.conormal_rank == 0


def test_log_diagonal_a2():
    pic = log_diagonal(affine_space_model(2))
    assert pic.b_description.torus_rank == 2
    diag = tuple(sorted(((1, 0, 1, 0), (0, 1, 0, 1))))
    assert any(c.rays == diag for c in pic.diagonal.subdivision.refined.cones)
    assert any(c.rays == diag for c in pic.b_subcomplex.cones)


def test_log_diagonal_of_a_non_toric_model_names_b_only():
    b = log_diagonal(mixed_affine(2, [0, 1])).b_description
    assert (b.text, b.torus_rank) == ("B(A^2 (log at x0,x1))", None)


def test_log_diagonal_complete_toric():
    pic = log_diagonal(p1_toric_model())
    assert pic.b_description.text == "P^1 x G_m"
    assert sorted(c.rays for c in pic.b_subcomplex.cones) == \
        [(), ((-1, -1),), ((1, 1),)]
    assert pic.diagonal.subdivision.support_volumes_ok()

    pic2 = log_diagonal(p2_toric_model())
    # the diagonal copy of the P^2 fan survives as the B subcomplex
    assert sorted(c.dim for c in pic2.b_subcomplex.cones) == [0, 1, 1, 1, 2, 2, 2]
    assert pic2.diagonal.subdivision.support_volumes_ok()


def test_log_diagonal_scope():
    with pytest.raises(ScopeExceeded):
        log_diagonal(nodal_cubic())   # self-glued fan


def test_log_diagonal_scope_is_checked_before_the_product():
    X = affine_space_model(5)
    start = time.perf_counter()
    with pytest.raises(ScopeExceeded, match="source cones of dimension > 2"):
        log_diagonal(X)
    assert time.perf_counter() - start < 0.1


# ------------------------------------------------------------------- cyclic

def test_periodic_cyclic_examples():
    c = periodic_cyclic(marked_p1(3))
    assert (c.even.total(), c.odd.total()) == (1, 2)
    c0 = periodic_cyclic(marked_p1(0))
    assert (c0.even.total(), c0.odd.total()) == (2, 0)
    cp = periodic_cyclic(point_model())
    assert (cp.even.total(), cp.odd.total()) == (1, 0)


def test_periodic_cyclic_betti_oracle():
    # n-punctured sphere: b0 = 1, b1 = max(0, n - 1), b2 = (n == 0)
    for n in range(0, 7):
        c = periodic_cyclic(marked_p1(n))
        b0, b1, b2 = 1, max(0, n - 1), 1 if n == 0 else 0
        assert c.even.total() == b0 + b2
        assert c.odd.total() == b1


def hodge_total(table):
    return sum(e.total() for _, e in table.cells)


def test_periodic_cyclic_totals_match_table():
    for X in (marked_p1(0), marked_p1(4), nodal_cubic(), p2_toric_model()):
        c = periodic_cyclic(X)
        assert c.even.total() + c.odd.total() == hodge_total(X.hodge)


def test_periodic_cyclic_series_rejected():
    with pytest.raises(SeriesNotSupported):
        periodic_cyclic(affine_space_model(1))


def euler_oracle_models():
    """(model, chi(X minus D) by its closed form, or None for a series table):
    the built-ins, the subdivided P^2, and every product of two of them that
    builds; chi multiplies over a product."""
    F1 = toric_model([(1, 0), (0, 1), (-1, 1), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)],
                     2, complete=True, name="F_1")
    P2 = p2_toric_model()
    quad = next(i for i, c in enumerate(P2.artin_fan.cones) if c.rays == ((0, 1), (1, 0)))
    base = [(point_model(), 1), (affine_space_model(0), 1), (nodal_cubic(), 0),
            (p1_toric_model(), 0), (P2, 0), (F1, 0),
            (subdivided_model(P2, star_subdivision(P2.artin_fan, quad, (1, 1))), 0)]
    base += [(marked_p1(n), 2 - n) for n in range(7)]
    base += [(affine_space_model(d), None) for d in (1, 2, 3)]
    base += [(mixed_affine(n, log), None) for n, log in ((0, ()), (1, ()), (2, (0,)))]
    base.append((toric_model([(1, 0), (1, 2)], [(0, 1)], 2, complete=False), None))
    products = []
    for (X, a), (Y, b) in itertools.combinations(base, 2):
        try:
            products.append((product_model(X, Y), None if None in (a, b) else a * b))
        except (KindMismatch, ValueError):   # series x series, or a series with h^1
            assert a is None or b is None
    return base + products


def test_euler_check():
    """chi(X minus D) against its closed forms: point 1, P^1 with n marks
    2 - n, complete toric 0, nodal cubic 0, products multiply; every series
    table is refused."""
    models = euler_oracle_models()
    for X, chi in models:
        if chi is None:
            with pytest.raises(SeriesNotSupported, match="need a complete model"):
                euler_check(X)
        else:
            assert euler_check(X) == chi, X.name
    assert sum(chi is None for _, chi in models) > 50
    assert len({chi for _, chi in models}) > 10


# ----------------------------------------------------------------- invariance

def test_kunneth_for_hh():
    models = [point_model(), marked_p1(0), marked_p1(3), nodal_cubic(),
              p1_toric_model()]
    for X, Y in itertools.combinations(models, 2):
        got = dims(hh_homology(product_model(X, Y)))
        conv = {}
        for i, a in dims(hh_homology(X)).items():
            for j, b in dims(hh_homology(Y)).items():
                conv[i + j] = conv.get(i + j, 0) + a * b
        assert got == {k: v for k, v in conv.items() if v}


def test_subdivision_invariance_exact():
    P2 = p2_toric_model()
    fan = P2.artin_fan
    quad = next(i for i, c in enumerate(fan.cones) if c.rays == ((0, 1), (1, 0)))
    X = subdivided_model(P2, star_subdivision(fan, quad, (1, 1)))
    assert hh_homology(X) == hh_homology(P2)
    assert hh_cohomology(X) == hh_cohomology(P2)


def test_affine_space_binomial_series():
    for d in (1, 2, 3):
        X = affine_space_model(d, truncation=6)
        hh = hh_homology(X)
        for q in range(d + 1):
            expected = tuple(comb(d, q) * comb(w + d - 1, d - 1) for w in range(7))
            assert hh.entry(q).value == expected
