"""Firm actions, twisted sectors, and the orbifold decomposition."""

import itertools
from fractions import Fraction

import pytest

from logfan.errors import NotFirm, ScopeExceeded
from logfan.hkr import hh_homology
from logfan.logmodel import marked_p1, mixed_affine, nodal_cubic
from logfan.orbifold import (DiagonalAction, check_firm, orbifold_hh,
                             twisted_sector)
from test_kernel_oracles import fraction_fixes


def halfline(trunc=8):
    return DiagonalAction(mixed_affine(1, [0], truncation=trunc), (2,), ((1,),))


def bareline(trunc=8):
    return DiagonalAction(mixed_affine(1, [], truncation=trunc), (2,), ((1,),))


# ------------------------------------------------------------------ firmness

def test_negation_on_a1_is_firm():
    assert check_firm(halfline())


def test_p1_inversion_is_not_firm():
    act = DiagonalAction(marked_p1(2), (2,), ((0, 0),), permutation=(1, 0))
    assert not check_firm(act)
    with pytest.raises(NotFirm):
        twisted_sector(act, (1,))
    with pytest.raises(NotFirm):
        orbifold_hh(act)


def test_trivial_group_is_firm():
    act = DiagonalAction(nodal_cubic(), (), ())
    assert check_firm(act)


def test_permutation_of_non_log_coordinates_is_firm():
    act = DiagonalAction(mixed_affine(3, [0], truncation=4), (2,),
                         ((0, 1, 1),), permutation=(0, 2, 1))
    assert check_firm(act)


def test_firm_permutation_is_outside_the_sector_machinery():
    act = DiagonalAction(mixed_affine(3, [0]), (2,), ((0, 1, 1),), permutation=(0, 2, 1))
    with pytest.raises(ScopeExceeded, match="sector machinery needs a purely diagonal action"):
        orbifold_hh(act)


def test_permutation_moving_log_coordinates_is_not_firm():
    act = DiagonalAction(mixed_affine(3, [0, 1], truncation=4), (2,),
                         ((0, 0, 0),), permutation=(1, 0, 2))
    assert not check_firm(act)


# ------------------------------------------------------------------- sectors

def test_twisted_sector_empty_on_log_coordinate():
    sector = twisted_sector(halfline(), (1,))
    assert sector.is_empty


def test_untwisted_sector_is_whole_model():
    act = halfline()
    sector = twisted_sector(act, (0,))
    assert not sector.is_empty
    assert sector.locus is act.model


def test_classical_fixed_point_of_negation():
    sector = twisted_sector(bareline(), (1,))
    assert not sector.is_empty
    assert sector.locus.dimension == 0


def test_sector_dimension_counts_trivial_characters():
    act = DiagonalAction(mixed_affine(3, [0], truncation=4), (2,), ((0, 1, 1),))
    sector = twisted_sector(act, (1,))
    assert not sector.is_empty
    assert sector.locus.dimension == 1


@pytest.mark.parametrize("g", [(1, 5), (), (7,), (-1,), (2,)])
def test_twisted_sector_rejects_elements_outside_the_group(g):
    with pytest.raises(ValueError, match="one residue per order"):
        twisted_sector(bareline(), g)


def test_group_order_is_bounded():
    with pytest.raises(ScopeExceeded, match="order above 1000"):
        DiagonalAction(mixed_affine(1, [0]), (10**6,), ((1,),))


def test_sector_empty_iff_nontrivial_log_character():
    act = DiagonalAction(mixed_affine(2, [0], truncation=4), (2, 2),
                         ((1, 0), (0, 1)))
    for g in act.elements():
        sector = twisted_sector(act, g)
        assert sector.is_empty == (not fraction_fixes(act, g, 0))


# ------------------------------------------------------------- orbifold HH

def brute_invariant_counts(coords_log, coords_dx, orders, chars, trunc):
    """Independent oracle: enumerate every monomial-times-form basis element
    and count the G-invariant ones per (degree, weight)."""
    n = len(coords_log) + len(coords_dx)
    group = list(itertools.product(*(range(d) for d in orders)))
    out = {}
    for expo in itertools.product(range(trunc + 1), repeat=n):
        if sum(expo) > trunc:
            continue
        for dlogs in _subsets(range(len(coords_log))):
            for dxs in _subsets(range(len(coords_dx))):
                w = sum(expo) + len(dxs)
                if w > trunc:
                    continue
                invariant = True
                for g in group:
                    tot = Fraction(0)
                    for i in range(n):
                        coord = (coords_log + coords_dx)[i]
                        for gj, row, d in zip(g, chars, orders):
                            tot += Fraction(gj * row[coord] * expo[i], d)
                    for j in dxs:
                        coord = coords_dx[j]
                        for gj, row, d in zip(g, chars, orders):
                            tot += Fraction(gj * row[coord], d)
                    if tot % 1 != 0:
                        invariant = False
                        break
                if invariant:
                    q = len(dlogs) + len(dxs)
                    out.setdefault(q, [0] * (trunc + 1))[w] += 1
    return out


def _subsets(it):
    items = list(it)
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def test_orbifold_hh_logged_halfline():
    hh = orbifold_hh(halfline(8))
    even = tuple(1 if w % 2 == 0 else 0 for w in range(9))
    assert hh.support() == (0, 1)
    assert hh.entry(0).value == even
    assert hh.entry(1).value == even


def test_orbifold_hh_bare_line_against_direct_count():
    act = bareline(6)
    hh = orbifold_hh(act)
    # untwisted sector: all of A^1; twisted sector: the origin
    untwisted = brute_invariant_counts([], [0], (2,), ((1,),), 6)
    expected0 = list(untwisted[0])
    expected0[0] += 1   # the twisted point adds one class in degree 0
    assert list(hh.entry(0).value) == expected0
    assert list(hh.entry(1).value) == untwisted[1]


def test_orbifold_hh_trivial_group_matches_hh():
    for X in (nodal_cubic(), marked_p1(3), mixed_affine(1, [0], truncation=5)):
        act = DiagonalAction(X, (), ())
        assert orbifold_hh(act) == hh_homology(X)


def test_orbifold_two_generator_group():
    act = DiagonalAction(mixed_affine(2, [], truncation=5), (2, 2),
                         ((1, 0), (0, 1)))
    hh = orbifold_hh(act)
    # four sectors: full plane, two axes, origin; compare with direct count
    expected = {0: [0] * 6, 1: [0] * 6, 2: [0] * 6}
    full = brute_invariant_counts([], [0, 1], (2, 2), ((1, 0), (0, 1)), 5)
    for q, ser in full.items():
        for w, c in enumerate(ser):
            expected[q][w] += c
    axis = brute_invariant_counts([], [0], (2,), ((1,),), 5)
    for q, ser in axis.items():
        for w, c in enumerate(ser):
            expected[q][w] += 2 * c      # two one-dimensional sectors
    expected[0][0] += 1                  # the origin sector
    got = {n: list(e.value) for n, e in hh.degrees}
    assert got == {q: s for q, s in expected.items() if any(s)}


def test_invariants_commute_with_sector_sum():
    act = DiagonalAction(mixed_affine(2, [], truncation=4), (2,), ((1, 1),))
    total = orbifold_hh(act)
    sector_tables = []
    for g in act.elements():
        single = brute_per_sector(act, g)
        sector_tables.append(single)
    summed = {}
    for table in sector_tables:
        for q, ser in table.items():
            acc = summed.setdefault(q, [0] * 5)
            for w, c in enumerate(ser):
                acc[w] += c
    got = {n: list(e.value) for n, e in total.degrees}
    assert got == {q: s for q, s in summed.items() if any(s)}


def brute_per_sector(act, g):
    if any(not fraction_fixes(act, g, i) for i in act.model.log_coords):
        return {}
    coords = ([i for i in range(act.model.dimension) if fraction_fixes(act, g, i)]
              if any(g) else list(range(act.model.dimension)))
    logs = [i for i in coords if i in act.model.log_coords]
    dxs = [i for i in coords if i not in act.model.log_coords]
    return brute_invariant_counts(logs, dxs, act.group_orders, act.characters,
                                  act.model.hodge.truncation)


def test_marked_p1_characters_out_of_sector_scope():
    act = DiagonalAction(marked_p1(2), (2,), ((1, 1),))
    assert check_firm(act)
    with pytest.raises(ScopeExceeded):
        twisted_sector(act, (1,))
