"""Gaussian elimination over the rationals, the oracle that the integer
solves, ranks and kernels of logfan are checked against, and the Bareiss
determinant that simplicial indices and unimodular transforms are checked
against."""

from fractions import Fraction

from logfan.lattice import IntMatrix


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.as_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def solve_rational(A: IntMatrix, b) -> tuple[Fraction, ...] | None:
    """One rational solution of A x = b by Gaussian elimination, or None."""
    m, n = A.rows, A.cols
    aug = [[Fraction(A.at(i, j)) for j in range(n)] + [Fraction(b[i])] for i in range(m)]
    pivots = []
    row = 0
    for col in range(n):
        sel = next((i for i in range(row, m) if aug[i][col] != 0), None)
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for i in range(m):
            if i != row and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    for i in range(row, m):
        if aug[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        x[col] = aug[i][n]
    return tuple(x)


def rational_kernel(cols) -> list[dict[int, Fraction]]:
    """Kernel of a family of sparse columns (dicts from row index to entry),
    as combinations of column indices, by elimination over Q."""
    rows: list[tuple[dict[int, Fraction], dict[int, Fraction]]] = []
    kernel = []
    for j, col in enumerate(cols):
        vec = {i: Fraction(v) for i, v in col.items() if v}
        combo = {j: Fraction(1)}
        for prow, pcombo in sorted(rows, key=lambda rc: min(rc[0])):
            lead = min(prow)
            if lead in vec:
                f = vec[lead] / prow[lead]
                for k, v in prow.items():
                    vec[k] = vec.get(k, Fraction(0)) - f * v
                    if vec[k] == 0:
                        del vec[k]
                for k, v in pcombo.items():
                    combo[k] = combo.get(k, Fraction(0)) - f * v
                    if combo[k] == 0:
                        del combo[k]
        if vec:
            rows.append((vec, combo))
        else:
            kernel.append(combo)
    return kernel


def rational_rank(cols) -> int:
    """Rank over Q of a family of sparse columns."""
    return len(cols) - len(rational_kernel(cols))
