"""Check 11c reads the mediating hom of an fs pushout off a section of its
legs; cross-checked against a row-by-row solve with a search mod the torsion
of the target.  Its hom enumeration, which tests each column vector of the
entry box for membership once and takes the homs out of a free source as
products of admissible columns, is cross-checked against one that tests
every generator image of every matrix.  Its comparison of phi . leg with the
given homs as whole matrices is cross-checked against the column-by-column
comparison it replaced.  A corrupted pushout leg makes the check fail."""

import collections
import itertools

import pytest

from logfan import monoid as mn
from logfan import suite
from logfan.errors import InternalInvariant
from logfan.lattice import FgAbelianGroup, IntMatrix, solve_integer


def searched_mediator(data, S, T, A, B):
    """Solve phi . leg == given legs on the pushout, one row of phi at a time;
    verify phi lands in T.  Rows of phi with a torsion coordinate of T are
    searched for in [-m, m]^n, m the order of that coordinate."""
    H = data.ambient
    nH = H.num_coords
    cols = [data.leg_left.column(j) for j in range(data.leg_left.cols)] + \
           [data.leg_right.column(j) for j in range(data.leg_right.cols)]
    rhs_cols = [A.column(j) for j in range(A.cols)] + [B.column(j) for j in range(B.cols)]
    rows_phi = []
    fT = T.ambient.free_rank
    for i in range(T.ambient.num_coords):
        mod = 0 if i < fT else T.ambient.torsion_orders[i - fT]
        sol = solve_row(cols, [rc[i] for rc in rhs_cols], nH, H, mod)
        if sol is None:
            return None
        rows_phi.append(sol)
    phi = IntMatrix.from_rows(rows_phi)
    if not mn.hom_well_defined(H, T.ambient, phi):
        return None
    if not all(mn.contains(T, phi.apply(s)) for s in S.generators):
        return None
    for leg, given in ((data.leg_left, A), (data.leg_right, B)):
        if any(T.ambient.reduce(phi.apply(leg.column(j)))
               != T.ambient.reduce(given.column(j)) for j in range(given.cols)):
            return None
    return phi


def solve_row(cols, rhs, n, H: FgAbelianGroup, mod: int):
    """x with x . col == rhs (mod mod), killing the torsion relations of H."""
    fH = H.free_rank
    eqs = [tuple(c) for c in cols]
    want = list(rhs)
    for j, d in enumerate(H.torsion_orders):
        eqs.append(tuple(d if t == fH + j else 0 for t in range(n)))
        want.append(0)
    if mod == 0:
        return solve_integer(IntMatrix.from_rows(eqs), want) if eqs else (0,) * n
    for x in itertools.product(range(-mod, mod + 1), repeat=n):
        if all((sum(a * b for a, b in zip(x, e)) - w) % mod == 0
               for e, w in zip(eqs, want)):
            return x
    return None


def enumerated_homs(src, dst, bound):
    """All ambient-group homs with small entries mapping src into dst, with a
    membership test for every generator of every matrix."""
    rows, cols = dst.ambient.num_coords, src.ambient.num_coords
    out = []
    for entries in itertools.product(range(-bound, bound + 1), repeat=rows * cols):
        M = IntMatrix(rows, cols, entries)
        if not mn.hom_well_defined(src.ambient, dst.ambient, M):
            continue
        if all(mn.contains(dst, M.apply(g)) for g in src.generators):
            out.append(M)
    return out


def test_enumerated_homs_match_per_matrix_membership():
    """Every source and target of check 11c: the same homs in the same order."""
    diagrams, targets = suite._pushout_cases()
    sources = list(dict.fromkeys(h.target for f, g in diagrams for h in (f, g)))
    found = 0
    for src in sources:
        for T in targets:
            homs = suite._enumerate_monoid_homs(src, T, bound=2)
            assert homs == enumerated_homs(src, T, bound=2), (src, T)
            found += len(homs)
    assert found > 0


def test_hom_enumeration_refuses_a_source_that_is_not_free():
    N2 = mn.FineMonoid.free(2)
    assert len(suite._enumerate_monoid_homs(N2, N2, bound=1)) == 4 ** 2
    for src in (mn.FineMonoid.free(2, [(1, 0), (1, 2)]),
                mn.FineMonoid.make(FgAbelianGroup(1, (2,)), [(1, 0), (0, 1)])):
        with pytest.raises(InternalInvariant, match="needs a free source"):
            suite._enumerate_monoid_homs(src, N2, bound=1)


def test_mediates_against_searched_mediator():
    """On every diagram and target of check 11c, and for every pair of homs
    (A, B) out of the two legs, commuting or not, the one candidate of
    `_mediates` is accepted exactly when the search finds a mediator."""
    diagrams, targets = suite._pushout_cases()
    accepted = rejected = 0
    for f, g in diagrams:
        data = mn.amalgamated_sum(f, g)
        section = suite._leg_section(data)
        S = data.report.saturated
        for T in targets:
            alphas = suite._enumerate_monoid_homs(f.target, T, bound=2)
            betas = suite._enumerate_monoid_homs(g.target, T, bound=2)
            for A in alphas:
                for B in betas:
                    found = searched_mediator(data, S, T, A, B) is not None
                    assert suite._mediates(data, section, T, A, B) == found, (A, B, T)
                    accepted += found
                    rejected += not found
    assert accepted >= 186 and rejected > 0


def columnwise_mediates(data, section, T, A, B):
    """`suite._mediates` with each leg applied to one column at a time and
    both sides reduced modulo the torsion of T."""
    phi = IntMatrix.from_rows([A.row(i) + B.row(i) for i in range(A.rows)]) @ section
    H, S = data.ambient, data.report.saturated
    if not mn.hom_well_defined(H, T.ambient, phi):
        return False
    if not all(mn.contains(T, phi.apply(s)) for s in S.generators):
        return False
    for leg, given in ((data.leg_left, A), (data.leg_right, B)):
        if any(T.ambient.reduce(phi.apply(leg.column(j)))
               != T.ambient.reduce(given.column(j)) for j in range(given.cols)):
            return False
    return True


def test_mediates_matches_the_columnwise_comparison():
    """On every diagram and target of check 11c, and for every pair of homs
    (A, B) out of the two legs, commuting or not, the whole-matrix comparison
    of the legs gives the column-by-column verdict."""
    diagrams, targets = suite._pushout_cases()
    verdicts = collections.Counter()
    for f, g in diagrams:
        data = mn.amalgamated_sum(f, g)
        section = suite._leg_section(data)
        for T in targets:
            alphas = suite._enumerate_monoid_homs(f.target, T, bound=2)
            betas = suite._enumerate_monoid_homs(g.target, T, bound=2)
            for A in alphas:
                for B in betas:
                    got = suite._mediates(data, section, T, A, B)
                    assert got == columnwise_mediates(data, section, T, A, B), (A, B, T)
                    verdicts[got, (A @ f.matrix) == (B @ g.matrix)] += 1
    assert verdicts[True, True] >= 186 and verdicts[False, False] > 0, verdicts


def test_leg_section_is_a_section():
    for f, g in suite._pushout_cases()[0]:
        data = mn.amalgamated_sum(f, g)
        legs = IntMatrix.from_rows([data.leg_left.row(i) + data.leg_right.row(i)
                                    for i in range(data.ambient.num_coords)])
        assert legs @ suite._leg_section(data) == IntMatrix.identity(legs.rows)


def test_check_11c_fails_on_a_corrupted_pushout_leg(monkeypatch):
    """With the right leg of every pushout doubled, a commuting cocone has no
    mediating hom, so the check fails.  A skipped saturation is no such
    fault: every target of 11c is saturated, so a hom from the integral
    pushout into it extends to the saturation, and check 01 covers that."""
    real = mn.amalgamated_sum

    def doubled_right_leg(f, g):
        data = real(f, g)
        R = data.leg_right
        return mn.PushoutData(data.report, data.leg_left,
                              IntMatrix(R.rows, R.cols, tuple(2 * x for x in R.entries)))

    assert suite.property_pushout_universal().passed
    monkeypatch.setattr(mn, "amalgamated_sum", doubled_right_leg)
    assert suite.property_pushout_universal() == suite.CheckResult(
        "11c fs pushout universal property", False, "no mediating hom found")


def test_check_11c_scans_each_target_box_once(monkeypatch):
    """The box [-2, 2]^n of each target is tested once, not once per source
    mapped into it: from a cold start one check makes 5 + 25 + 25 membership
    tests for the boxes of N, N^2 and N + Z/2 and 375 in `_mediates`, and a
    second check only those 375."""
    calls = []
    real = mn.contains

    def counting(P, x):
        calls.append((P, x))
        return real(P, x)

    monkeypatch.setattr(suite.mn, "contains", counting)
    suite._box_members.cache_clear()
    for expected in (430, 375):
        calls.clear()
        result = suite.property_pushout_universal()
        assert (result.passed, result.detail) == (True, "186 commuting cocones mediated uniquely")
        assert len(calls) == expected
