"""Exact integer linear algebra over finitely generated abelian groups.

Everything here runs on plain Python integers, so there is no overflow to
worry about: saturation indices and Hilbert basis determinants overflow
64-bit arithmetic already on small inputs.  Matrices are immutable and
row-major.  Two forms do the work.  The row Hermite normal form answers every
lattice question that is not about group structure: ranks, kernels and
integer solves (from the HNF of the rows (column j | e_j)), saturation (a
kernel of a kernel), simplicial indices (the product of its pivots) and
coordinates in a basis already in that form (`hnf_coords` walks down the
echelon).  The Smith normal form U A V = D is taken only where its invariant
factors are the answer: cokernels, a monoid's torsion, parallelepiped points,
the adjugate of an isomorphism candidate, check 11d of the paper suite and
the `smith_normal_form` task; a row of V^-1 is read off U A = D V^-1, so no
transform is inverted.  The two forms share one 2x2 gcd row step: the Hermite
form joins a row to a pivot with it, and the Smith form repairs its
divisibility chain with it.  `check_scale` is the Smith form's desk-scale bound,
also checked before any elimination by every question that once took one.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from math import gcd
from operator import mul

from ._record import Record, set_field
from .errors import InternalInvariant, ScopeExceeded


Vector = tuple[int, ...]

# Desk-scale bound on a Smith normal form, stated in README "Scale": rows and
# columns each, the entries' bit lengths summed, and the bits of any transform entry.
MAX_SMITH_SIDE = 32
MAX_SMITH_BITS = 1_024
MAX_SMITH_TRANSFORM_BITS = 8_192


class IntMatrix(Record):
    """Immutable integer matrix, entries stored flat in row-major order."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __init__(self, rows: int, cols: int, entries: tuple[int, ...]):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match rows x cols")
        set_field(self, "rows", rows)
        set_field(self, "cols", cols)
        set_field(self, "entries", entries)

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        rows = [tuple(map(int, r)) for r in rows]
        n = len(rows[0]) if rows else 0
        if any(len(r) != n for r in rows):
            raise ValueError("ragged rows")
        return IntMatrix(len(rows), n, tuple(chain.from_iterable(rows)))

    @staticmethod
    def from_columns(cols, rows: int | None = None) -> "IntMatrix":
        cols = [tuple(map(int, c)) for c in cols]
        m = len(cols[0]) if cols else rows or 0
        if any(len(c) != m for c in cols):
            raise ValueError("ragged columns")
        return IntMatrix(m, len(cols), tuple(chain.from_iterable(zip(*cols))))

    @staticmethod
    @cache
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, (0,) * (rows * cols))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> Vector:
        return self.entries[j::self.cols]

    def as_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        # Face maps of embedded complexes are identities: skip the arithmetic.
        if self.is_identity:
            return other
        if other.is_identity:
            return self
        cols = [other.entries[j::other.cols] for j in range(other.cols)]
        return IntMatrix(self.rows, other.cols, tuple(
            [sum(map(mul, r, c)) for r in map(self.row, range(self.rows)) for c in cols]))

    def apply(self, v) -> Vector:
        """Matrix times column vector."""
        v = tuple(v)
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple([sum(map(mul, r, v)) for r in map(self.row, range(self.rows))])

    @property
    def is_identity(self) -> bool:
        return self.rows == self.cols and self.entries == IntMatrix.identity(self.rows).entries

    def diagonal(self) -> Vector:
        return self.entries[::self.cols + 1][:min(self.rows, self.cols)]


class FgAbelianGroup(Record):
    """Finitely generated abelian group: free rank plus invariant factors.

    The torsion orders satisfy d1 | d2 | ... and are each at least 2.
    Elements are coordinate tuples: free coordinates first, then one
    coordinate per torsion factor (reduced modulo its order).
    """

    free_rank: int
    torsion_orders: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for d in self.torsion_orders:
            if d < 2:
                raise ValueError("torsion orders must be >= 2")
        for a, b in zip(self.torsion_orders, self.torsion_orders[1:]):
            if b % a != 0:
                raise ValueError("torsion orders must form a divisibility chain")

    @property
    def num_coords(self) -> int:
        return self.free_rank + len(self.torsion_orders)

    def reduce(self, v) -> Vector:
        """Canonical coordinates: torsion entries taken mod their orders."""
        v = tuple(map(int, v))
        if len(v) != self.num_coords:
            raise ValueError("coordinate length mismatch")
        if not self.torsion_orders:
            return v
        f = self.free_rank
        return v[:f] + tuple(x % d for x, d in zip(v[f:], self.torsion_orders))

    def free_part(self, v) -> Vector:
        return tuple(v[:self.free_rank])


class SmithDecomposition(Record):
    """U @ A @ V = D with U, V unimodular and D a divisibility-chain diagonal."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def diagonal(self) -> Vector:
        return self.D.diagonal()


def _select_pivot(M, t, m, n):
    """Smallest absolute value in the trailing block; ties by (row, col).  No
    entry is smaller than a unit, so the scan stops at the first entry of
    absolute value 1 in row-major order: that is the least (abs, row, col)."""
    best = None
    for i in range(t, m):
        for j in range(t, n):
            if a := M[i][j]:
                if a == 1 or a == -1:
                    return i, j
                if best is None or (abs(a), i, j) < best:
                    best = (abs(a), i, j)
    return best and best[1:]


def check_scale(A: IntMatrix) -> None:
    """Raise ScopeExceeded, before any elimination, past MAX_SMITH_SIDE rows or
    columns or MAX_SMITH_BITS bits of entries: the desk-scale bound of the
    Smith form and of every lattice question that once took one."""
    m, n = A.rows, A.cols
    bits = sum(map(int.bit_length, map(abs, A.entries)))
    if max(m, n) > MAX_SMITH_SIDE or bits > MAX_SMITH_BITS:
        raise ScopeExceeded(f"the matrix is {m}x{n} with {bits} bits of entries, above the "
                            f"desk-scale bound of {MAX_SMITH_SIDE} rows and columns and "
                            f"{MAX_SMITH_BITS} bits")


def smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    """Smith normal form with tracked transforms.

    Deterministic: pivots are chosen by smallest absolute value, ties broken
    by lowest (row, col).  Handles empty matrices.  Checks the exact
    identity U A V = D on the elimination's own rows of U, D and V, before
    they become matrices.  Raises ScopeExceeded before any elimination past
    `check_scale`, and after it past MAX_SMITH_TRANSFORM_BITS in an entry of
    U or V.
    """
    check_scale(A)
    m, n = A.rows, A.cols
    # each row is D's row followed by U's, so a row operation is one list
    # operation; column operations run down the first n columns and V
    R = [d + u for d, u in zip(A.as_rows(), IntMatrix.identity(m).as_rows())]
    V = IntMatrix.identity(n).as_rows()

    def col_sub(i, j, q):
        """col i -= q * col j"""
        for r in R:
            r[i] -= q * r[j]
        for r in V:
            r[i] -= q * r[j]

    t = 0
    while (piv := _select_pivot(R, t, m, n)) is not None:
        i0, j0 = piv
        R[t], R[i0] = R[i0], R[t]
        if j0 != t:
            for r in R + V:
                r[t], r[j0] = r[j0], r[t]
        dirty = False
        p = R[t][t]
        for i in range(t + 1, m):
            if R[i][t] != 0:
                q = R[i][t] // p
                R[i] = [a - q * b for a, b in zip(R[i], R[t])]
                dirty |= R[i][t] != 0
        for j in range(t + 1, n):
            if R[t][j] != 0:
                col_sub(j, t, R[t][j] // p)
                dirty |= R[t][j] != 0
        if not dirty:
            t += 1

    for i in range(min(m, n)):
        if R[i][i] < 0:
            R[i] = [-a for a in R[i]]

    # enforce d1 | d2 | ... by the classic gcd/lcm 2x2 repair
    r = sum(1 for i in range(min(m, n)) if R[i][i] != 0)
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            a, b = R[i][i], R[i + 1][i + 1]
            if b % a != 0:
                changed = True
                col_sub(i, i + 1, -1)              # col i += col i+1
                # the gcd step leaves [[g, y*b/g], [0, a*b/g]]: g, a*b/g > 0, y != 0
                R[i], R[i + 1] = _gcd_step(a, b, R[i], R[i + 1])
                col_sub(i + 1, i, R[i][i + 1] // R[i][i])

    U = [r[n:] for r in R]
    u, d, v = (tuple(chain.from_iterable(X)) for X in (U, (r[:n] for r in R), V))
    top = max(map(abs, u + v), default=0).bit_length()
    if top > MAX_SMITH_TRANSFORM_BITS:
        raise ScopeExceeded(f"the transforms of the {m}x{n} matrix have an entry of {top} bits, "
                            f"above the desk-scale bound of {MAX_SMITH_TRANSFORM_BITS} bits")
    A_columns, V_columns = [A.entries[j::n] for j in range(n)], [v[j::n] for j in range(n)]
    UA = [[sum(map(mul, r, c)) for c in A_columns] for r in U]
    if tuple([sum(map(mul, r, c)) for r in UA for c in V_columns]) != d:
        raise InternalInvariant("Smith recomposition failed")
    return SmithDecomposition(IntMatrix(m, m, u), IntMatrix(m, n, d), IntMatrix(n, n, v))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with x*a + y*b == g == gcd(a, b), g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _gcd_step(a: int, b: int, p, q) -> tuple[list[int], list[int]]:
    """The unimodular row pair op [[x, y], [-b/g, a/g]], g = x*a + y*b = gcd(a, b):
    rows x*p + y*q and (a/g)*q - (b/g)*p, which are g and 0 where p, q are a, b."""
    g, x, y = _xgcd(a, b)
    return ([x * s + y * t for s, t in zip(p, q)],
            [(a // g) * t - (b // g) * s for s, t in zip(p, q)])


def cokernel_projection(A: IntMatrix) -> tuple[FgAbelianGroup, IntMatrix]:
    """Z^rows / image(A) and the matrix of the projection Z^rows onto it.

    With U A V = D in Smith form, the rows of U whose diagonal entry is 0
    give the free coordinates and those whose entry is at least 2 give the
    torsion coordinates, in that order.
    """
    snf = smith_normal_form(A)
    diag = snf.diagonal()
    diag += (0,) * (A.rows - len(diag))
    free = [j for j, d in enumerate(diag) if d == 0]
    tors = [j for j, d in enumerate(diag) if d >= 2]
    G = FgAbelianGroup(len(free), tuple(diag[j] for j in tors))
    rows = [snf.U.row(j) for j in free + tors]
    return G, IntMatrix.from_rows(rows) if rows else IntMatrix.zero(0, A.rows)


def cokernel(A: IntMatrix) -> FgAbelianGroup:
    """Z^rows / image(A), read off the Smith diagonal."""
    return cokernel_projection(A)[0]


def _graph_hnf(A: IntMatrix) -> tuple[Vector, ...]:
    """HNF of the rows (column j of A | e_j), which span {(A x | x)}: the A parts
    of its rows with a pivot there are the HNF of the image of A."""
    unit = IntMatrix.identity(A.cols)
    return hnf_rows([A.column(j) + unit.row(j) for j in range(A.cols)])


def kernel_basis(A: IntMatrix) -> tuple[Vector, ...]:
    """HNF basis of the (saturated) integer kernel of A, as column vectors:
    the rows of `_graph_hnf` that vanish on the A part, cut to their e part.
    No side bound applies; the rank of A over Q is cols minus its length.
    """
    m = A.rows
    return tuple(r[m:] for r in _graph_hnf(A) if not any(r[:m]))


def solve_integer(A: IntMatrix, b) -> Vector | None:
    """One integer solution x of A x = b, or None if none exists.  Walking
    (b | 0) down `_graph_hnf(A)` leaves (b - A x | -x), its A part reduced
    modulo the image of A: b is solvable exactly when that part is zero."""
    b = tuple(int(v) for v in b)
    if len(b) != A.rows:
        raise ValueError("rhs length mismatch")
    check_scale(A)
    rest = _echelon_walk(b + (0,) * A.cols, _graph_hnf(A))[1]
    if any(rest[:A.rows]):
        return None
    return tuple(-x for x in rest[A.rows:])


def hnf_rows(rows) -> tuple[Vector, ...]:
    """Row-style Hermite normal form; canonical basis of the row span.

    Pivots are positive, entries below a pivot are zero and entries above are
    reduced into [0, pivot).  Zero rows are dropped, so equal lattices give
    equal outputs.  Rows join the basis one at a time, each by 2x2 gcd steps
    against the pivots it meets (in the column of its first nonzero entry),
    and after each the entries of changed rows and above changed pivots are
    reduced, so entries stay near the size of the pivots instead of doubling
    per column.
    """
    basis = {}   # pivot column -> row
    for r in rows:
        v, touched = list(map(int, r)), set()
        while a := next(filter(None, v), 0):
            j = v.index(a)
            b = basis.get(j)
            if b is None:
                basis[j] = v if a > 0 else [-x for x in v]
                touched.add(j)
                break
            if a % b[j] == 0:
                k = a // b[j]
                v = [q - k * p for p, q in zip(b, v)]
            else:
                basis[j], v = _gcd_step(b[j], a, b, v)    # pivot gcd(b_j, a), v_j = 0
                touched.add(j)
        cols = sorted(basis) if touched and len(basis) > 1 else ()
        for i, c in enumerate(cols):
            for d in cols[i + 1:]:
                if c in touched or d in touched:
                    q = basis[c][d] // basis[d][d]
                    if q:
                        basis[c] = [p - q * t for p, t in zip(basis[c], basis[d])]
                        touched.add(c)
    return tuple([tuple(basis[c]) for c in sorted(basis)])


def lattice_rank(rows) -> int:
    """Rank of the rows over Q: the number of their HNF rows (no side bound)."""
    return len(hnf_rows(rows))


def _echelon_walk(v, basis_hnf) -> tuple[Vector, Vector]:
    """Walk v down echelon rows (such as HNF rows), subtracting from it the
    floor quotient of its entry in each pivot column: the quotients, and what
    is left.  The rows after a row vanish in its pivot column, so v lies in
    their lattice exactly when nothing is left, and then the quotients are its
    coefficients; for HNF rows, what is left is canonical modulo the lattice.
    """
    v = list(map(int, v))
    coeffs = []
    for row in basis_hnf:
        p = next(filter(None, row))
        q = v[row.index(p)] // p     # the pivot is the row's first nonzero entry
        coeffs.append(q)
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return tuple(coeffs), tuple(v)


def hnf_coords(v, basis_hnf) -> Vector | None:
    """Coefficients of v in HNF rows, or None when v is not in their lattice."""
    coeffs, rest = _echelon_walk(v, basis_hnf)
    return None if any(rest) else coeffs


def in_lattice(v, basis_hnf) -> bool:
    """Membership of v in the lattice spanned by HNF rows."""
    return hnf_coords(v, basis_hnf) is not None


def reduce_mod_lattice(v, basis_hnf) -> Vector:
    """Canonical coset representative of v modulo the HNF lattice."""
    return _echelon_walk(v, basis_hnf)[1]


def saturate_subgroup(generators, ambient_rank: int) -> tuple[Vector, ...]:
    """Basis of {v : n*v in span(generators) for some n >= 1}.

    It is the integer kernel of the integer kernel of the generators' rows;
    the output is its canonical (HNF) basis, a primitive sublattice.
    """
    gens = [tuple(int(x) for x in g) for g in generators]
    for g in gens:
        if len(g) != ambient_rank:
            raise ValueError("generator length mismatch")
    if not gens:
        return ()
    check_scale(IntMatrix.from_columns(gens, rows=ambient_rank))
    normals = kernel_basis(IntMatrix(len(gens), ambient_rank, sum(gens, ())))
    return kernel_basis(IntMatrix(len(normals), ambient_rank, sum(normals, ())))


def divide_exactly(v, d: int) -> Vector:
    """v / d for a vector that d divides; a remainder is an internal fault."""
    if any(x % d for x in v):
        raise InternalInvariant(f"{d} does not divide {tuple(v)}")
    return tuple(x // d for x in v)


def primitive(v) -> Vector:
    """Divide out the gcd of the coordinates; primitive(0) is 0."""
    v = tuple(map(int, v))
    g = gcd(*v)
    if g <= 1:
        return v
    return tuple(x // g for x in v)
