"""Independent answers for seeded inputs that come from no finite family.

Neither oracle shares code or algorithm with logfan:

* `hilbert_basis_2d` walks the boundary of the convex hull of the lattice
  points of a plane cone with Hirzebruch-Jung steps, instead of minimising
  parallelepiped candidates.
* `orbifold_series` counts invariants of a diagonal abelian action by a
  dynamic program over (weight, character residue), instead of enumerating
  monomials.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd


def _det(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def hilbert_basis_2d(p: int, q: int) -> list[tuple[int, int]]:
    """Hilbert basis of cone((1,0), (p,q)) for coprime 0 < p < q.

    Consecutive basis elements u, w form a lattice basis; writing the far
    ray as x*u + y*w (x < 0 < y), the next element is ceil(y/-x)*w - u.
    """
    if not (0 < p < q and gcd(p, q) == 1):
        raise ValueError("need coprime 0 < p < q")
    far = (p, q)
    u, w = (1, 0), (1, 1)
    basis = [u, w]
    while w != far:
        # far = x*u + y*w, solved with det(u, w) = 1
        x = _det(far, w)
        y = _det(u, far)
        b = -(-y // -x)
        u, w = w, (b * w[0] - u[0], b * w[1] - u[1])
        basis.append(w)
    return basis


def hilbert_basis_size(p: int, q: int) -> int:
    return len(hilbert_basis_2d(p, q))


def apply(M, v) -> tuple[int, ...]:
    return tuple(sum(M[i][j] * v[j] for j in range(len(v))) for i in range(len(M)))


def _monomial_residues(coords, characters, orders, N):
    """table[w][r]: monomials of degree w on `coords` with residue vector r."""
    residues = list(product(*(range(d) for d in orders)))
    zero = tuple(0 for _ in orders)
    table = [{r: 0 for r in residues} for _ in range(N + 1)]
    table[0][zero] = 1
    for i in coords:
        step = tuple(row[i] for row in characters)
        new = [{r: 0 for r in residues} for _ in range(N + 1)]
        for w in range(N + 1):
            for r, c in table[w].items():
                if not c:
                    continue
                # x_i^e for e = 0..N-w
                rr = r
                for e in range(N - w + 1):
                    new[w + e][rr] += c
                    rr = tuple((a + s) % d for a, s, d in zip(rr, step, orders))
        table = new
    return table


def _trivial(g, i, orders, characters) -> bool:
    return sum(Fraction(gj * row[i], d)
               for gj, row, d in zip(g, characters, orders)) % 1 == 0


def _sectors(num_coords, log_coords, orders, characters):
    """(log coordinates, other coordinates) of each nonempty twisted sector.

    The sector of g is empty when g scales a log coordinate; otherwise it
    holds the coordinates g fixes (all of them for the identity)."""
    out = []
    for g in product(*(range(d) for d in orders)):
        if any(g):
            if not all(_trivial(g, i, orders, characters) for i in log_coords):
                continue
            coords = [i for i in range(num_coords) if _trivial(g, i, orders, characters)]
        else:
            coords = list(range(num_coords))
        out.append(([i for i in coords if i in log_coords],
                    [i for i in coords if i not in log_coords]))
    return out


def orbifold_series(num_coords: int, log_coords, orders, characters, N: int) -> dict:
    """The `orbifold_hh` table of A^n (log at `log_coords`) under the
    diagonal action of prod Z/d with the given characters, truncated at N,
    as {degree: series} over the nonzero degrees.

    A basis element of degree q in a sector is a monomial on the sector's
    coordinates wedged with dlog's on a subset A of its log coordinates
    (weight 0, trivial character) and dx's on a subset B of its other
    coordinates (weight 1 and the coordinate's character each), with
    |A| + |B| = q; it counts when its total character is trivial.
    """
    counts: dict[int, list[int]] = {}
    for logs, dxs in _sectors(num_coords, log_coords, orders, characters):
        table = _monomial_residues(logs + dxs, characters, orders, N)
        for b in range(len(dxs) + 1):
            for B in combinations(dxs, b):
                need = tuple(-sum(row[i] for i in B) % d
                             for row, d in zip(characters, orders))
                for a in range(len(logs) + 1):
                    series = counts.setdefault(a + b, [0] * (N + 1))
                    for w in range(b, N + 1):
                        series[w] += comb(len(logs), a) * table[w - b][need]
    return {q: s for q, s in sorted(counts.items()) if any(s)}


def orbifold_work(num_coords: int, log_coords, orders, characters, N: int) -> int:
    """How many (monomial, form) pairs logfan's enumeration tests: the
    cost model the workload generator uses to keep seeds equally heavy."""
    work = 0
    for logs, dxs in _sectors(num_coords, log_coords, orders, characters):
        k = len(logs) + len(dxs)
        work += 2 ** len(logs) * sum(comb(len(dxs), b) * comb(N - b + k, k)
                                     for b in range(len(dxs) + 1))
    return work
