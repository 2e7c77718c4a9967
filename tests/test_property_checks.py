"""Checks 11a, 11b and 11d of the paper suite: the enumerations they replaced
as oracles, and a fault each check must catch.

* `randint_smith_cases` draws check 11d's triples with `rng.randint` and
  builds each unimodular matrix through `IntMatrix.from_rows`, applying
  every row addition, a zero multiple included;
* `product_sums` enumerates check 11b's combinations as the product of the
  coefficient ranges, skipping the zero coefficient vector.
"""

import itertools
import random

from logfan import monoid as mn
from logfan import suite
from logfan.lattice import IntMatrix, SmithDecomposition


def randint_unimodular(rng, n):
    M = IntMatrix.identity(n).as_rows()
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-2, 2)
        M[i] = [a + q * b for a, b in zip(M[i], M[j])]
    return IntMatrix.from_rows(M)


def randint_smith_cases():
    rng = random.Random(3)
    cases = []
    for _ in range(120):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = IntMatrix(m, n, tuple(rng.randint(-5, 5) for _ in range(m * n)))
        cases.append((A, randint_unimodular(rng, m), randint_unimodular(rng, n)))
    return cases


def product_sums(hb, rank):
    elems = set()
    for coeffs in itertools.product(range(4), repeat=len(hb)):
        if sum(coeffs) == 0:
            continue
        elems.add(tuple(sum(c * h[i] for c, h in zip(coeffs, hb)) for i in range(rank)))
    return elems


def test_smith_cases_match_the_randint_draws():
    """All 120 triples (A, U, V) of check 11d, entry for entry."""
    got = list(suite._smith_cases())
    assert got == randint_smith_cases()
    assert len(got) == 120 and all(U.rows == A.rows and V.rows == A.cols for A, U, V in got)


def test_small_sums_match_the_product_enumeration():
    """On the Hilbert bases of check 11b's six cones, and on each with the sum
    of its first two elements added, the iterated sums are the products'."""
    for rays, rank in suite._HILBERT_CASES:
        hb = mn.hilbert_basis(rays, rank)
        for basis in (hb, hb + [tuple(map(sum, zip(*hb[:2])))]):
            assert suite._small_sums(basis, rank) == product_sums(basis, rank), basis
    assert len(suite._HILBERT_CASES) == 6


def test_check_11a_fails_on_a_dropped_saturation_generator(monkeypatch):
    """With the first generator dropped from the saturation of each random
    monoid, saturating that monoid again does not give it back."""
    assert suite.property_saturation_idempotence().passed
    real, dropped = mn.saturate, set()

    def dropping(P):
        report = real(P)
        if P in dropped:
            return report
        sat = report.saturated
        smaller = mn.FineMonoid(sat.ambient, sat.generators[1:])
        dropped.add(smaller)
        return mn.SaturationReport(smaller, report.index_data)

    monkeypatch.setattr(mn, "saturate", dropping)
    result = suite.property_saturation_idempotence()
    assert not result.passed and result.name == "11a saturation idempotence", result
    assert dropped


def test_check_11b_fails_on_a_reducible_extra_element(monkeypatch):
    """With the sum of its first two elements added to every Hilbert basis,
    the first cone's basis is no longer minimal."""
    real = mn.hilbert_basis

    def with_a_sum(rays, rank):
        hb = real(rays, rank)
        return hb + [tuple(map(sum, zip(*hb[:2])))]

    monkeypatch.setattr(mn, "hilbert_basis", with_a_sum)
    result = suite.property_hilbert_minimality()
    assert not result.passed, result
    assert result.detail.startswith("(1, 1) = ") and result.detail.endswith(
        f"in cone {suite._HILBERT_CASES[0][0]}"), result


def test_check_11d_fails_on_a_perturbed_second_smith_form(monkeypatch):
    """With one more on the first diagonal entry of the Smith form of every
    U A V, the first matrix's invariant factors disagree."""
    real, calls = suite.smith_normal_form, itertools.count()

    def perturbed(M):
        snf = real(M)
        if next(calls) % 2 == 0:
            return snf
        D = snf.D
        return SmithDecomposition(snf.U, IntMatrix(D.rows, D.cols, (D.entries[0] + 1,)
                                                   + D.entries[1:]), snf.V)

    monkeypatch.setattr(suite, "smith_normal_form", perturbed)
    first = next(suite._smith_cases())[0]
    assert suite.property_smith_recomposition() == suite.CheckResult(
        "11d Smith recomposition & invariance", False, str(first))
