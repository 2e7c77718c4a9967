"""Exact linear algebra: Smith form against the determinantal-divisor oracle."""

import itertools
import random
from math import gcd

from logfan import lattice
from logfan.lattice import (FgAbelianGroup, IntMatrix, cokernel,
                            cokernel_projection, hnf_coords, hnf_rows,
                            in_lattice, kernel_basis, saturate_subgroup,
                            smith_normal_form, solve_integer)

from rational_solve import det
from test_kernel_oracles import unimodular_inverse


def minor_gcd_diagonal(A: IntMatrix):
    """Independent oracle: d_k = gcd(k-minors) / gcd((k-1)-minors)."""
    r = min(A.rows, A.cols)
    out = []
    prev = 1
    for k in range(1, r + 1):
        g = 0
        for rows in itertools.combinations(range(A.rows), k):
            for cols in itertools.combinations(range(A.cols), k):
                sub = IntMatrix.from_rows([[A.at(i, j) for j in cols] for i in rows])
                g = gcd(g, det(sub))
        if g == 0:
            out.extend([0] * (r - k + 1))
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def test_smith_identity():
    A = IntMatrix.identity(2)
    snf = smith_normal_form(A)
    assert snf.D == A
    assert snf.U == A and snf.V == A


def test_smith_diag_2_3():
    A = IntMatrix.from_rows([[2, 0], [0, 3]])
    snf = smith_normal_form(A)
    assert snf.diagonal() == (1, 6)
    assert snf.diagonal() == minor_gcd_diagonal(A)


def test_smith_row_r_minus_r():
    for r in (2, 3, 5, 7):
        A = IntMatrix.from_rows([[r, -r]])
        snf = smith_normal_form(A)
        assert snf.diagonal() == (r,)
        assert snf.diagonal() == minor_gcd_diagonal(A)


def test_smith_randomized_against_oracle():
    rng = random.Random(0)
    shapes = set()
    for _ in range(150):
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        A = IntMatrix(m, n, tuple(rng.randint(-5, 5) for _ in range(m * n)))
        snf = smith_normal_form(A)
        diag = snf.diagonal()
        assert diag == minor_gcd_diagonal(A)
        nz = [d for d in diag if d]
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0
        assert abs(det(snf.U)) == 1
        assert abs(det(snf.V)) == 1
        assert (snf.U @ A) @ snf.V == snf.D
        assert snf.U @ unimodular_inverse(snf.U) == IntMatrix.identity(m)
        assert unimodular_inverse(snf.V) @ snf.V == IntMatrix.identity(n)
        shapes.add((m > 0, n > 0))
    assert shapes == {(True, True), (False, True), (True, False), (False, False)}


def test_smith_gcd_repair_leaves_a_positive_chain(monkeypatch):
    """Diagonal and near-diagonal inputs up to 5x5 whose diagonal is no
    divisibility chain, so the 2x2 gcd repair runs.  Recomposition alone would
    pass a negative d_i, so the diagonal is compared with the oracle."""
    repairs = []
    xgcd = lattice._xgcd
    monkeypatch.setattr(lattice, "_xgcd", lambda a, b: repairs.append(a) or xgcd(a, b))
    rng = random.Random(18)
    cases = [[[4, 0, 0, 0], [0, 6, 0, 0], [0, 0, 10, 0], [0, 0, 0, 15]]]
    for case in range(120):
        n = rng.randint(2, 5)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = rng.choice((-1, 1)) * rng.randint(2, 1000)
        for _ in range(case % 3):              # a third stay diagonal
            i, j = rng.sample(range(n), 2)
            rows[i][j] = rng.randint(-1000, 1000)
        cases.append(rows)
    for rows in cases:
        A = IntMatrix.from_rows(rows)
        diag = smith_normal_form(A).diagonal()
        assert diag == minor_gcd_diagonal(A), rows
        assert all(d > 0 for d in diag)
        assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
    assert repairs[0] == 4 and len(repairs) >= 200


def test_smith_diag_invariant_under_unimodular():
    rng = random.Random(1)

    def random_unimodular(n):
        M = IntMatrix.identity(n).as_rows()
        for _ in range(3 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                q = rng.randint(-2, 2)
                M[i] = [a + q * b for a, b in zip(M[i], M[j])]
        return IntMatrix.from_rows(M)

    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = IntMatrix(m, n, tuple(rng.randint(-5, 5) for _ in range(m * n)))
        U, V = random_unimodular(m), random_unimodular(n)
        assert smith_normal_form((U @ A) @ V).diagonal() == \
            smith_normal_form(A).diagonal()


def test_empty_matrices():
    for shape in ((0, 0), (0, 3), (3, 0)):
        A = IntMatrix.zero(*shape)
        snf = smith_normal_form(A)
        assert snf.D == A
    assert cokernel(IntMatrix.zero(2, 0)) == FgAbelianGroup(2)


def test_cokernel_r_lines_group():
    for r in (2, 3):
        A = IntMatrix.from_rows([[r], [-r]])
        assert cokernel(A) == FgAbelianGroup(1, (r,))


def test_cokernel_mixed():
    A = IntMatrix.from_rows([[2, 0], [0, 3], [0, 0]])
    G = cokernel(A)
    assert G.free_rank == 1
    assert G.torsion_orders == (6,)


def test_from_columns_keeps_column_count():
    assert IntMatrix.from_columns([(), ()], rows=0) == IntMatrix.zero(0, 2)


def test_cokernel_projection_kills_image_and_is_onto():
    rng = random.Random(5)
    for _ in range(60):
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        A = IntMatrix(m, n, tuple(rng.randint(-4, 4) for _ in range(m * n)))
        G, proj = cokernel_projection(A)
        assert G == cokernel(A)
        assert (proj.rows, proj.cols) == (G.num_coords, m)
        for j in range(n):
            assert G.reduce(proj.apply(A.column(j))) == (0,) * G.num_coords
        k, f = G.num_coords, G.free_rank
        relations = [tuple(d if t == f + i else 0 for t in range(k))
                     for i, d in enumerate(G.torsion_orders)]
        span = [proj.column(j) for j in range(m)] + relations
        assert hnf_rows(span) == tuple(IntMatrix.identity(k).row(i) for i in range(k))


def brute_saturation(gens, rank, bound=6, mult=12):
    """Oracle: collect v with n*v in the integer span for some small n."""
    span = hnf_rows(gens)
    out = []
    for v in itertools.product(range(-bound, bound + 1), repeat=rank):
        if any(in_lattice([n * x for x in v], span) for n in range(1, mult + 1)):
            out.append(v)
    return hnf_rows(out)


def test_saturate_subgroup_examples():
    assert saturate_subgroup([(2, 0)], 2) == ((1, 0),)
    assert saturate_subgroup([(2, 2)], 2) == ((1, 1),)
    assert saturate_subgroup([(1, 0), (0, 1)], 2) == ((1, 0), (0, 1))


def test_saturate_subgroup_against_bruteforce():
    cases = [
        ([(2, 0)], 2),
        ([(2, 2)], 2),
        ([(2, 4), (4, 2)], 2),
        ([(3, 0, 0), (0, 2, 2)], 3),
    ]
    for gens, rank in cases:
        assert hnf_rows(saturate_subgroup(gens, rank)) == brute_saturation(gens, rank)


def test_saturate_subgroup_idempotent_and_finite_index():
    rng = random.Random(2)
    for _ in range(40):
        rank = rng.randint(1, 3)
        gens = [tuple(rng.randint(-3, 3) for _ in range(rank))
                for _ in range(rng.randint(1, 3))]
        sat = saturate_subgroup(gens, rank)
        assert saturate_subgroup(sat, rank) == sat
        span = hnf_rows(sat)
        for g in gens:
            assert in_lattice(g, span)
        # saturation has the same rank as the input span
        assert len(sat) == len(hnf_rows(gens))


def test_kernel_and_solve():
    A = IntMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    ker = kernel_basis(A)
    assert len(ker) == 2
    for v in ker:
        assert A.apply(v) == (0, 0)
    x = solve_integer(A, (6, 12))
    assert x is not None and A.apply(x) == (6, 12)
    assert solve_integer(A, (1, 1)) is None


def test_hnf_coords_against_solve_integer():
    """The echelon walk agrees with a Smith-form solve against the same HNF
    basis: exact coefficients on combinations of the basis, and None exactly
    when the solve finds no solution."""
    rng = random.Random(29)
    ranks, members, strangers = set(), 0, 0
    for _ in range(400):
        n = rng.randint(1, 5)
        gens = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(rng.randint(0, 4))]
        basis = hnf_rows(gens)
        ranks.add(len(basis))
        B = IntMatrix.from_columns(basis, rows=n)
        coeffs = tuple(rng.randint(-5, 5) for _ in basis)
        combination = tuple(sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(n))
        assert hnf_coords(combination, basis) == coeffs
        v = tuple(rng.randint(-6, 6) for _ in range(n))
        want = solve_integer(B, v)
        assert hnf_coords(v, basis) == want
        assert in_lattice(v, basis) == (want is not None)
        members += want is not None
        strangers += want is None
    assert ranks == {0, 1, 2, 3, 4}
    assert members > 20 and strangers > 20
