"""The exact kernels against the brute-force algorithms they replaced.

Each oracle below is the earlier implementation of a kernel, kept here so the
faster one is checked against it on seeded inputs:

* `pairwise_hilbert_basis` minimises the parallelepiped candidates by testing
  every candidate pair for h - g in the cone, and `degree_sorted_hilbert_basis`
  sorts them by a grading vector and takes each one's facet values in turn;
* `rational_parallelepiped_points` solves for the box coordinates of each
  class representative over the rationals;
* `enumerated_orbifold_series` tests every monomial-and-form of each twisted
  sector for invariance, and `residue_table_orbifold_series` counts them per
  sector in a table keyed by (form degree, weight, residue tuple);
* `fraction_fixes` tests a character for triviality in `Fraction`s;
* `recursive_contains` is the recursive depth-first membership search;
* `unimodular_inverse` inverts a Smith transform by one more Smith form, and
  `saturate_subgroup_by_inverse` and `gp_torsion_by_inverse` read the
  saturation and the torsion generators off such inverses;
* `euclid_hnf_rows` reduces column by column, the rows below each pivot
  left unreduced;
* `smith_solve_integer`, `smith_saturate_subgroup` and
  `smith_simplicial_index` read an integer solve, a saturation and a
  simplicial index off a Smith form, as they did before the Hermite form
  answered them;
* `smith_kernel_basis` reads an integer kernel off a whole Smith form, and
  `rational_kernel` and `rational_rank` (in `rational_solve`) are the
  elimination over Q that check 12 took its kernels and ranks from;
* `generator_dot`, `generator_is_zero` and `generator_contains` take the
  geometry kernel's inner products and zero tests by generator expressions;
* `frozenset_dual_generators` keeps the double description's zero sets as
  frozensets, and `loop_primitive` takes the gcd of a vector entry by entry;
* `reference_smith_normal_form` finishes the Smith elimination through
  `IntMatrix.from_rows` and checks it by matrix products, with its own pivot
  search `reference_select_pivot`, which scans the whole trailing block for
  the least (abs, row, col) key;
* `support_first_triangulate` builds the double description of every prefix
  of the placed rays, before it tests whether the next ray adds rank;
* `fraction_tiled_by` and `fraction_truncated_volume` compare truncated
  volumes of cones as `Fraction`s, where the tiling test now scales them to
  integers;
* `closed_form_mixed_affine` is the Hodge table of a mixed-affine space in
  closed form, where the form count of the orbifold tables now gives it.
"""

import bisect
import collections
import itertools
import math
import operator
import random
import time
from fractions import Fraction

import pytest

from logfan import _geometry as geom
from logfan import conecomplex as cc
from logfan import hkr
from logfan import suite
from logfan.errors import InternalInvariant, ScopeExceeded
from logfan.lattice import (MAX_SMITH_BITS, MAX_SMITH_SIDE, MAX_SMITH_TRANSFORM_BITS,
                            FgAbelianGroup, IntMatrix, SmithDecomposition, _xgcd,
                            cokernel_projection, divide_exactly, hnf_coords, hnf_rows,
                            in_lattice, kernel_basis, lattice_rank, primitive,
                            saturate_subgroup, smith_normal_form, solve_integer)
from logfan.logmodel import (GradedEntry, HodgeTable, affine_space_model, mixed_affine,
                             p1_toric_model, p2_toric_model)
from logfan.monoid import (MAX_DIMENSION, FineMonoid, _unit_subgroup_rows, contains,
                           hilbert_basis, saturate)
from logfan.orbifold import DiagonalAction, orbifold_hh
from logfan.suite import _random_fine_monoid
from rational_solve import det, rational_kernel, rational_rank, solve_rational


# ------------------------------------------------------------------ oracles

def smith_rank(snf: SmithDecomposition) -> int:
    return sum(1 for d in snf.diagonal() if d)


def unimodular_inverse(M: IntMatrix) -> IntMatrix:
    """M^-1 = V' U' from U' M V' = 1; that form is checked to be the identity,
    and smith_normal_form checks its recomposition, so the inverse is exact."""
    snf = smith_normal_form(M)
    assert snf.D == IntMatrix.identity(M.rows), "a Smith transform is not unimodular"
    return snf.V @ snf.U


def saturate_subgroup_by_inverse(generators, ambient_rank: int):
    """HNF basis of the saturation: the first rank columns of U^-1."""
    gens = [tuple(g) for g in generators]
    if not gens:
        return ()
    snf = smith_normal_form(IntMatrix.from_columns(gens, rows=ambient_rank))
    U_inverse = unimodular_inverse(snf.U)
    return hnf_rows([U_inverse.column(i) for i in range(smith_rank(snf))])


def smith_solve_integer(A: IntMatrix, b):
    """x = V y for U A V = D, where D y = U b is solved entry by entry."""
    snf = smith_normal_form(A)
    c = snf.U.apply(b)
    diag = snf.diagonal()
    y = []
    for j in range(A.cols):
        d = diag[j] if j < len(diag) else 0
        cj = c[j] if j < len(c) else 0
        if d == 0:
            if cj != 0:
                return None
            y.append(0)
        else:
            if cj % d != 0:
                return None
            y.append(cj // d)
    for i in range(A.cols, A.rows):
        if c[i] != 0:
            return None
    return snf.V.apply(y)


def smith_saturate_subgroup(generators, ambient_rank: int):
    """HNF of the first rank columns of U^-1, read off A V = U^-1 D."""
    gens = [tuple(g) for g in generators]
    if not gens:
        return ()
    A = IntMatrix.from_columns(gens, rows=ambient_rank)
    snf = smith_normal_form(A)
    AV = A @ snf.V
    return hnf_rows([divide_exactly(AV.column(i), d)
                     for i, d in enumerate(snf.diagonal()[:smith_rank(snf)])])


def smith_simplicial_index(rays) -> int:
    """The product of the Smith diagonal of the rays as columns."""
    rays = [tuple(r) for r in rays]
    if not rays:
        return 1
    diag = smith_normal_form(IntMatrix.from_columns(rays, rows=len(rays[0]))).diagonal()
    if 0 in diag:
        raise ValueError("rays are linearly dependent")
    return math.prod(diag)


def euclid_hnf_rows(rows):
    """Row-style HNF by repeated division down each column in turn, with the
    rows above each pivot reduced once its column is done."""
    work = [list(r) for r in rows]
    pivot_row = 0
    for col in range(len(work[0]) if work else 0):
        nonzero = [i for i in range(pivot_row, len(work)) if work[i][col]]
        if not nonzero:
            continue
        best = min(nonzero, key=lambda i: abs(work[i][col]))
        work[pivot_row], work[best] = work[best], work[pivot_row]
        while any(work[i][col] for i in range(pivot_row + 1, len(work))):
            for i in range(pivot_row + 1, len(work)):
                q = work[i][col] // work[pivot_row][col]
                work[i] = [a - q * b for a, b in zip(work[i], work[pivot_row])]
                if work[i][col]:
                    work[pivot_row], work[i] = work[i], work[pivot_row]
        if work[pivot_row][col] < 0:
            work[pivot_row] = [-a for a in work[pivot_row]]
        for i in range(pivot_row):
            q = work[i][col] // work[pivot_row][col]
            work[i] = [a - q * b for a, b in zip(work[i], work[pivot_row])]
        pivot_row += 1
    return tuple(tuple(r) for r in work[:pivot_row])


def smith_kernel_basis(A: IntMatrix):
    """Basis of the integer kernel of A: the columns of V in U A V = D whose
    diagonal entry is 0."""
    snf = smith_normal_form(A)
    diag = snf.diagonal()
    return [snf.V.column(j) for j in range(A.cols) if j >= len(diag) or diag[j] == 0]


def gp_torsion_by_inverse(P: FineMonoid):
    """Order and cyclic generators of the torsion of P^gp: the rows of V^-1
    with a diagonal entry of at least 2, as combinations of the torsion rows
    of P^gp's HNF."""
    f = P.ambient.free_rank
    if not P.ambient.torsion_orders:
        return 1, ()
    K = [row[f:] for row in P.gp_lattice if not any(row[:f])]
    coeffs = [hnf_coords(rel[f:], K) for rel in P._relation_rows]
    snf = smith_normal_form(IntMatrix.from_rows(coeffs))
    order = 1
    for d in snf.diagonal():
        order *= max(d, 1)
    newbasis = unimodular_inverse(snf.V) @ IntMatrix.from_rows(K)
    return order, tuple(P.ambient.reduce((0,) * f + newbasis.row(i))
                        for i, d in enumerate(snf.diagonal()) if d >= 2)


def generator_dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def generator_is_zero(a):
    return all(x == 0 for x in a)


def generator_contains(g: geom.ConeGeometry, x) -> bool:
    x = tuple(x)
    if len(x) != g.dim:
        raise ValueError(f"vector {x} does not have the cone's rank {g.dim}")
    return (all(generator_dot(e, x) == 0 for e in g.equations)
            and all(generator_dot(n, x) >= 0 for n in g.normals))


def vscale(c, a):
    return tuple(c * x for x in a)


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def loop_primitive(v):
    v = tuple(int(x) for x in v)
    g = 0
    for x in v:
        g = math.gcd(g, x)
    if g <= 1:
        return v
    return tuple(x // g for x in v)


def frozenset_dual_generators(constraints, dim, branches=None):
    """The double description with zero sets as frozensets, three dot products
    per ray and constraint, and combinations built by vscale and vsub.
    `branches` counts the constraints that combined a ray pair."""
    constraints = [tuple(int(x) for x in c) for c in constraints]
    lines = [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]
    rays = []
    processed = 0
    for a in constraints:
        pivot = next((l for l in lines if geom.dot(l, a) != 0), None)
        if pivot is not None:
            d0 = geom.dot(pivot, a)
            if d0 < 0:
                pivot = geom.vneg(pivot)
                d0 = -d0
            new_lines = []
            for l in lines:
                if l == pivot or l == geom.vneg(pivot):
                    continue
                dl = geom.dot(l, a)
                if dl != 0:
                    l = loop_primitive(vsub(vscale(d0, l), vscale(dl, pivot)))
                new_lines.append(l)
            new_rays = []
            for r, z in rays:
                dr = geom.dot(r, a)
                if dr != 0:
                    r = loop_primitive(vsub(vscale(d0, r), vscale(dr, pivot)))
                new_rays.append((r, z | {processed}))
            new_rays.append((loop_primitive(pivot), frozenset(range(processed))))
            lines = new_lines
            rays = new_rays
        else:
            plus = [(r, z) for r, z in rays if geom.dot(r, a) > 0]
            zero = [(r, z | {processed}) for r, z in rays if geom.dot(r, a) == 0]
            minus = [(r, z) for r, z in rays if geom.dot(r, a) < 0]
            combos = []
            if branches is not None and plus and minus:
                branches["combination"] += 1
            for rp, zp in plus:
                for rm, zm in minus:
                    common = zp & zm
                    if any((common <= z) and r != rp and r != rm for r, z in rays):
                        continue
                    # (a.rp) rm - (a.rm) rp: tight on a, nonnegative combination
                    vec = loop_primitive(vsub(vscale(geom.dot(rp, a), rm),
                                              vscale(geom.dot(rm, a), rp)))
                    combos.append((vec, common | {processed}))
            rays = plus + zero + combos
        processed += 1
    return hnf_rows(lines), tuple(sorted({r for r, _ in rays if not geom.is_zero(r)}))


def reference_select_pivot(M, t, m, n):
    """Smallest absolute value in the trailing block; ties by (row, col)."""
    best = None
    best_key = None
    for i in range(t, m):
        for j in range(t, n):
            a = M[i][j]
            if a != 0:
                key = (abs(a), i, j)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (i, j)
    return best


def reference_smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    """The same elimination, finished by `from_rows` on each of U, D and V
    and checked by the matrix products (U @ A) @ V."""
    m, n = A.rows, A.cols
    bits = sum(abs(x).bit_length() for x in A.entries)
    if max(m, n) > MAX_SMITH_SIDE or bits > MAX_SMITH_BITS:
        raise ScopeExceeded(f"the matrix is {m}x{n} with {bits} bits of entries, above the "
                            f"desk-scale bound of {MAX_SMITH_SIDE} rows and columns and "
                            f"{MAX_SMITH_BITS} bits")
    M = A.as_rows()
    U = IntMatrix.identity(m).as_rows()
    V = IntMatrix.identity(n).as_rows()

    def swap_rows(i, j):
        M[i], M[j] = M[j], M[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in M:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def row_sub(i, j, q):
        """row i -= q * row j"""
        M[i] = [a - q * b for a, b in zip(M[i], M[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_sub(i, j, q):
        """col i -= q * col j"""
        for r in M:
            r[i] -= q * r[j]
        for r in V:
            r[i] -= q * r[j]

    def negate_row(i):
        M[i] = [-a for a in M[i]]
        U[i] = [-a for a in U[i]]

    t = 0
    while True:
        piv = reference_select_pivot(M, t, m, n)
        if piv is None:
            break
        i0, j0 = piv
        if i0 != t:
            swap_rows(t, i0)
        if j0 != t:
            swap_cols(t, j0)
        while True:
            dirty = False
            p = M[t][t]
            for i in range(t + 1, m):
                if M[i][t] != 0:
                    row_sub(i, t, M[i][t] // p)
                    if M[i][t] != 0:
                        dirty = True
            for j in range(t + 1, n):
                if M[t][j] != 0:
                    col_sub(j, t, M[t][j] // p)
                    if M[t][j] != 0:
                        dirty = True
            if not dirty:
                break
            i0, j0 = reference_select_pivot(M, t, m, n)
            if i0 != t:
                swap_rows(t, i0)
            if j0 != t:
                swap_cols(t, j0)
        t += 1

    for i in range(min(m, n)):
        if M[i][i] < 0:
            negate_row(i)

    # enforce d1 | d2 | ... by the classic gcd/lcm 2x2 repair
    r = sum(1 for i in range(min(m, n)) if M[i][i] != 0)
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            a, b = M[i][i], M[i + 1][i + 1]
            if b % a != 0:
                changed = True
                col_sub(i, i + 1, -1)              # col i += col i+1
                g, x, y = _xgcd(a, b)
                # unimodular row pair op [[x, y], [-b//g, a//g]]; it leaves
                # [[g, y*b/g], [0, a*b/g]] with g > 0, a*b/g > 0 and y != 0
                ri, rj = M[i][:], M[i + 1][:]
                M[i] = [x * p + y * q for p, q in zip(ri, rj)]
                M[i + 1] = [-(b // g) * p + (a // g) * q for p, q in zip(ri, rj)]
                ui, uj = U[i][:], U[i + 1][:]
                U[i] = [x * p + y * q for p, q in zip(ui, uj)]
                U[i + 1] = [-(b // g) * p + (a // g) * q for p, q in zip(ui, uj)]
                col_sub(i + 1, i, M[i][i + 1] // M[i][i])

    Um, Dm, Vm = (IntMatrix.from_rows(U) if m else IntMatrix.zero(0, 0),
                  IntMatrix.from_rows(M) if m else IntMatrix.zero(0, n),
                  IntMatrix.from_rows(V) if n else IntMatrix.zero(0, 0))
    top = max(map(abs, Um.entries + Vm.entries), default=0).bit_length()
    if top > MAX_SMITH_TRANSFORM_BITS:
        raise ScopeExceeded(f"the transforms of the {m}x{n} matrix have an entry of {top} bits, "
                            f"above the desk-scale bound of {MAX_SMITH_TRANSFORM_BITS} bits")
    if (Um @ A) @ Vm != Dm:
        raise InternalInvariant("Smith recomposition failed")
    return SmithDecomposition(Um, Dm, Vm)


def support_first_triangulate(rays, dim: int):
    """The placing triangulation, taking the double description of the rays
    placed so far before it compares their rank with and without the next."""
    order = sorted(range(len(rays)), key=lambda i: rays[i])
    placed, simplices = [], []
    for idx in order:
        v = rays[idx]
        if not placed:
            placed.append(idx)
            simplices = [(idx,)]
            continue
        support = geom.ConeGeometry.of([rays[i] for i in placed], dim)
        if support.contains(v):
            continue
        placed_rank = lattice_rank([rays[i] for i in placed])
        if lattice_rank([rays[i] for i in placed] + [v]) > placed_rank:
            simplices = [s + (idx,) for s in simplices]
        else:
            new = []
            for n in support.normals:
                if geom.dot(n, v) >= 0:
                    continue
                for s in simplices:
                    tight = tuple(i for i in s if geom.dot(n, rays[i]) == 0)
                    if len(tight) == len(s) - 1:
                        new.append(tight + (idx,))
            simplices.extend(new)
        placed.append(idx)
    return simplices


def rational_parallelepiped_points(basis):
    basis = [tuple(b) for b in basis]
    k = len(basis)
    W = IntMatrix.from_columns(basis, rows=k)
    snf = smith_normal_form(W)
    U_inverse = unimodular_inverse(snf.U)
    points = set()
    for rep in itertools.product(*(range(d) for d in snf.diagonal())):
        x = U_inverse.apply(rep)
        shift = tuple(int(Fraction(t).__floor__()) for t in solve_rational(W, x))
        x = vsub(x, W.apply(shift))
        assert all(0 <= t < 1 for t in solve_rational(W, x))
        points.add(tuple(x))
    return sorted(points)


def pairwise_hilbert_basis(rays, rank):
    rays = [r for r in rays if any(r)]
    basis, coords = geom.cone_lattice_coords(rays, rank)
    dim = len(basis)
    minimal = []
    if dim:
        cone = geom.ConeGeometry.of(coords, dim)
        candidates = {geom.primitive(r) for r in coords}
        for simplex in geom.triangulate(list(cone.rays), dim):
            points = rational_parallelepiped_points([cone.rays[i] for i in simplex])
            candidates.update(p for p in points if any(p))
        minimal = [h for h in candidates
                   if not any(g != h and cone.contains(vsub(h, g)) for g in candidates)]
    B = IntMatrix.from_columns(basis, rows=rank)
    return sorted(B.apply(h) for h in minimal)


def degree_sorted_hilbert_basis(rays, rank):
    """hilbert_basis with the candidates sorted by the grading vector (the sum
    of the facet normals) and each candidate's facet values taken when it is
    visited; also returns how many candidates share their degree with
    another."""
    rays = [r for r in rays if any(r)]
    basis, coords = geom.cone_lattice_coords(rays, rank)
    dim = len(basis)
    cone = geom.ConeGeometry.of(coords, dim)
    candidates = set(cone.rays)
    for simplex in geom.triangulate(list(cone.rays), dim):
        candidates.update(geom.parallelepiped_points([cone.rays[i] for i in simplex]))
    candidates.discard((0,) * dim)
    normals = cone.normals
    grading = [sum(column) for column in zip(*normals)]
    graded = sorted(candidates, key=lambda h: sum(map(operator.mul, grading, h)))
    top = sum(map(operator.mul, grading, graded[-1]))
    kept, reducers, degrees = [], [], []
    for h in graded:
        values = [sum(map(operator.mul, n, h)) for n in normals]
        deg = sum(values)
        smaller = itertools.islice(reducers, bisect.bisect_right(degrees, deg // 2))
        if not any(map(all, map(map, itertools.repeat(int.__le__), smaller,
                                itertools.repeat(values)))):
            kept.append(h)
            if 2 * deg <= top:
                reducers.append(values)
                degrees.append(deg)
    shared = collections.Counter(sum(map(operator.mul, grading, h)) for h in graded)
    B = IntMatrix.from_columns(basis, rows=rank)
    return sorted(map(B.apply, kept)), sum(c for c in shared.values() if c > 1)


def fraction_fixes(a: DiagonalAction, g, coord: int) -> bool:
    """Is sum_j g_j c_j(coord) / d_j an integer?"""
    return sum(Fraction(gj * row[coord], d)
               for gj, row, d in zip(g, a.characters, a.group_orders)) % 1 == 0


def residue_table_orbifold_series(a: DiagonalAction) -> dict:
    """orbifold_hh's counts, one (form degree, weight, residue tuple) table
    per twisted sector."""
    N = a.model.hodge.truncation
    identity = (0,) * len(a.group_orders)
    counts = [[0] * (N + 1) for _ in range(a.model.dimension + 1)]
    for g in a.elements():
        fixed = [i for i in range(a.model.dimension) if fraction_fixes(a, g, i)]
        if any(i not in fixed for i in a.model.log_coords):
            continue
        table = {(0, 0, identity): 1}
        for i in fixed:
            chi = tuple(row[i] for row in a.characters)
            is_log = i in a.model.log_coords
            step = {}
            for (q, w, r), c in table.items():
                for e in range(N - w + 1):
                    for dq in (0, 1) if is_log or e else (0,):
                        key = (q + dq, w + e, r)
                        step[key] = step.get(key, 0) + c
                    r = tuple((x + y) % d for x, y, d in zip(r, chi, a.group_orders))
            table = step
        for (q, w, r), c in table.items():
            if r == identity:
                counts[q][w] += c
    return {q: c for q, c in enumerate(counts) if any(c)}


def enumerated_orbifold_series(a: DiagonalAction, N: int) -> dict:
    counts = {}
    for g in a.elements():
        fixed = [i for i in range(a.model.dimension) if fraction_fixes(a, g, i)]
        if any(i not in fixed for i in a.model.log_coords):
            continue
        logs = [i for i in fixed if i in a.model.log_coords]
        dxs = [i for i in fixed if i not in a.model.log_coords]
        for mono in itertools.product(range(N + 1), repeat=len(fixed)):
            for A in _subsets(logs):
                for B in _subsets(dxs):
                    w = sum(mono) + len(B)
                    if w > N:
                        continue
                    if all((sum(e * row[i] for i, e in zip(fixed, mono))
                            + sum(row[i] for i in B)) % d == 0
                           for row, d in zip(a.characters, a.group_orders)):
                        counts.setdefault(len(A) + len(B), [0] * (N + 1))[w] += 1
    return counts


def _subsets(items):
    return itertools.chain.from_iterable(
        itertools.combinations(items, r) for r in range(len(items) + 1))


def recursive_contains(P: FineMonoid, x) -> bool:
    G = P.ambient
    x = G.reduce(x)
    if not any(x):
        return True
    if not P.generators:
        return False
    units = _unit_subgroup_rows(P)
    if units:
        H, proj = cokernel_projection(IntMatrix.from_columns(
            units + list(P._relation_rows), rows=G.num_coords))
        Q = FineMonoid.make(H, [proj.apply(g) for g in P.generators])
        return _recursive_search(Q, H.reduce(proj.apply(x)))
    return _recursive_search(P, x)


def _recursive_search(P: FineMonoid, x) -> bool:
    G = P.ambient
    f = G.free_rank
    mixed = [g for g in P.generators if any(G.free_part(g))]
    tors_lat = hnf_rows([g[f:] for g in P.generators if not any(G.free_part(g))]
                        + [tuple(d if j == i else 0 for j in range(len(G.torsion_orders)))
                           for i, d in enumerate(G.torsion_orders)])
    memo = {}

    def search(rem):
        if rem not in memo:
            fp = G.free_part(rem)
            if not any(fp):
                memo[rem] = in_lattice(rem[f:], tors_lat)
            else:
                memo[rem] = P.free_cone.contains(fp) and any(
                    search(G.reduce(vsub(rem, g))) for g in mixed)
        return memo[rem]

    return search(x)


def fraction_tiled_by(g: geom.ConeGeometry, cones) -> bool:
    """Do the cones of g's dimension inside g tile it?  Their volumes, cut
    off at ell(x) <= 1 for ell the sum of g's facet normals, summed in
    `Fraction`s against g's."""
    if g.span_dim == 0:
        return True
    ell = g.normals[0]
    for nrm in g.normals[1:]:
        ell = geom.vadd(ell, nrm)
    have = sum((fraction_truncated_volume(c.rays, c.lattice_rank, ell) for c in cones
                if c.dim == g.span_dim and g.contains_cone(c.geometry)), Fraction(0))
    return have == fraction_truncated_volume(g.rays, g.dim, ell)


def fraction_truncated_volume(rays, rank: int, ell) -> Fraction:
    """Normalized volume of cone(rays) in Z^rank truncated at ell(x) <= 1."""
    total = Fraction(0)
    for s in geom.triangulate(list(rays), rank):
        block = [rays[i] for i in s]
        denom = 1
        for r in block:
            h = geom.dot(ell, r)
            if h <= 0:
                raise InternalInvariant("height functional must be positive on the cone")
            denom *= h
        total += Fraction(geom.simplicial_index(block), denom)
    return total


# -------------------------------------------------------------------- tests

def test_parallelepiped_points_match_rational_solve():
    rng = random.Random(11)
    sizes = {k: 0 for k in range(1, 5)}
    nontrivial = 0
    while min(sizes.values()) < 10:
        k = rng.randint(1, 4)
        basis = [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(k)]
        index = abs(det(IntMatrix.from_columns(basis, rows=k)))
        if index == 0 or index > 100:
            continue
        points = geom.parallelepiped_points(basis)
        assert points == rational_parallelepiped_points(basis), basis
        assert len(points) == index
        sizes[k] += 1
        nontrivial += index > 1
    assert nontrivial >= 20


def _unimodular(rng, k):
    """A seeded unimodular k x k matrix: row operations on the identity."""
    rows = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(2 * k):
        i, j = rng.sample(range(k), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return IntMatrix.from_rows(rows)


def test_parallelepiped_points_of_non_cyclic_groups_match_rational_solve():
    """Bases U diag(d_1 | ... | d_k) V with two or more invariant factors
    above 1, so the walk carries from one step to the next."""
    rng = random.Random(53)
    ranks = {k: 0 for k in range(2, 7)}
    cases = 0
    while min(ranks.values()) < 2:
        k = rng.randint(2, 6)
        factors = [rng.choice((2, 3))]
        for _ in range(rng.randint(1, k - 1)):
            factors.append(factors[-1] * rng.choice((1, 2, 3)))
        diag = (1,) * (k - len(factors)) + tuple(factors)
        if math.prod(diag) > 3000:
            continue
        D = IntMatrix.from_rows([[d if i == j else 0 for j in range(k)]
                                 for i, d in enumerate(diag)])
        W = _unimodular(rng, k) @ D @ _unimodular(rng, k)
        basis = [W.column(j) for j in range(k)]
        assert smith_normal_form(W).diagonal() == diag
        points = geom.parallelepiped_points(basis)
        assert points == rational_parallelepiped_points(basis), basis
        assert len(points) == math.prod(diag)
        ranks[k] += 1
        cases += sum(d > 1 for d in diag) >= 2
    assert cases >= 10


def test_hilbert_basis_matches_pairwise_minimisation():
    rng = random.Random(17)
    families = {"simplicial": 0, "non-simplicial": 0, "lower-dimensional": 0}
    ranks = set()
    beyond_rays = 0
    while min(families.values()) < 15:
        rank = rng.randint(2, 4)
        rays = [tuple(rng.randint(-2, 3) for _ in range(rank))
                for _ in range(rng.randint(1, rank + 2))]
        rays = [r for r in rays if any(r)]
        if not rays:
            continue
        cone = geom.ConeGeometry.of(rays, rank)
        if not cone.is_sharp:
            continue
        if cone.span_dim < rank:
            family = "lower-dimensional"
        elif len(cone.rays) == rank:
            family = "simplicial"
        else:
            family = "non-simplicial"
        hb = hilbert_basis(rays, rank)
        assert hb == pairwise_hilbert_basis(rays, rank), rays
        families[family] += 1
        ranks.add(rank)
        beyond_rays += len(hb) > len(cone.rays)
    assert ranks == {2, 3, 4}
    assert beyond_rays >= 15


def test_hilbert_basis_matches_the_degree_sorted_minimisation():
    """Seeded simplicial cones (one parallelepiped) and cones of more rays
    than their dimension (several), ranks 2 to 4; the simplicial cones
    e_1, ..., e_(k-1), (1, ..., k-1, 997) of ranks 2, 4, 6 and 12; and
    cone((2, 1), (1, 2)), whose top-degree candidate (2, 2) only a reducer
    of exactly half its degree, (1, 1), reduces."""
    rng = random.Random(43)
    families = {"simplicial": 0, "several blocks": 0}
    ties = 0
    while min(families.values()) < 15:
        rank = rng.randint(2, 4)
        rays = [tuple(rng.randint(-3, 4) for _ in range(rank))
                for _ in range(rng.randint(rank, rank + 3))]
        rays = [r for r in rays if any(r)]
        cone = geom.ConeGeometry.of(rays, rank)
        if not rays or not cone.is_sharp:
            continue
        want, shared = degree_sorted_hilbert_basis(rays, rank)
        assert hilbert_basis(rays, rank) == want, rays
        families["simplicial" if len(cone.rays) == cone.span_dim else "several blocks"] += 1
        ties += shared > 0
    assert ties >= 20
    for k in (2, 4, 6, 12):
        rays = [tuple(int(i == j) for j in range(k)) for i in range(k - 1)]
        rays.append(tuple(range(1, k)) + (997,))
        want, shared = degree_sorted_hilbert_basis(rays, k)
        assert hilbert_basis(rays, k) == want and len(want) > 997 and shared
    assert hilbert_basis([(2, 1), (1, 2)], 2) == [(1, 1), (1, 2), (2, 1)]
    assert degree_sorted_hilbert_basis([(2, 1), (1, 2)], 2)[0] == [(1, 1), (1, 2), (2, 1)]


def test_hilbert_basis_scope_is_checked_before_enumeration():
    start = time.perf_counter()
    with pytest.raises(ScopeExceeded, match="parallelepiped points"):
        hilbert_basis([(1, 0), (1, 10 ** 6)], 2)
    assert time.perf_counter() - start < 0.1
    assert len(hilbert_basis([(1, 0), (1, 1000)], 2)) == 1001


def test_hilbert_basis_takes_no_matrix_product_per_point(monkeypatch):
    """One Smith form per parallelepiped, and as many matrix-vector products
    for the plane cone of determinant 1000 as for determinant 10."""
    calls = collections.Counter()
    real_snf, real_apply = geom.smith_normal_form, IntMatrix.apply
    real_points = geom.parallelepiped_points

    def snf(A):
        calls["snf"] += 1
        return real_snf(A)

    def apply(M, v):
        calls["apply"] += 1
        return real_apply(M, v)

    def parallelepiped_points(basis):
        calls["blocks"] += 1
        return real_points(basis)

    monkeypatch.setattr(geom, "smith_normal_form", snf)
    monkeypatch.setattr(IntMatrix, "apply", apply)
    monkeypatch.setattr(geom, "parallelepiped_points", parallelepiped_points)
    applies = {}
    for q in (10, 100, 1000):
        calls.clear()
        assert len(hilbert_basis([(1, 0), (1, q)], 2)) == q + 1
        assert calls["blocks"] == calls["snf"] == 1
        applies[q] = calls["apply"]
    assert applies[10] == applies[100] == applies[1000] <= 2


def closed_form_mixed_affine(n: int, log_coords, N: int) -> HodgeTable:
    """h^{0,q} of A^n with l log coordinates and m = n - l others: the forms
    with a of the dlog's and b of the dx's, C(l, a) C(m, b) of them, times
    the degree series of n variables, shifted by the b weights of the dx's."""
    l = len(log_coords)
    m = n - l
    degree = [math.comb(w + n - 1, n - 1) if n else int(w == 0) for w in range(N + 1)]
    entries = {}
    for q in range(n + 1):
        series = [0] * (N + 1)
        for a in range(max(0, q - m), min(q, l) + 1):
            b = q - a
            for w in range(b, N + 1):
                series[w] += math.comb(l, a) * math.comb(m, b) * degree[w - b]
        entries[(0, q)] = GradedEntry.series(series)
    return HodgeTable.build(n, entries)


def test_mixed_affine_matches_the_closed_form():
    """Every coordinate count up to MAX_DIMENSION, every log subset and the
    truncations 0, 1, 3, 10 and 15: 635 tables."""
    cases = 0
    for n in range(MAX_DIMENSION + 1):
        for l in range(n + 1):
            for log in itertools.combinations(range(n), l):
                for N in (0, 1, 3, 10, 15):
                    got = mixed_affine(n, log, truncation=N).hodge
                    assert got == closed_form_mixed_affine(n, log, N), (n, log, N)
                    cases += 1
    assert cases == 635


def test_shift_keeps_the_series_length():
    e = GradedEntry.series([1, 2, 3])
    assert e.shifted(0) == e and e.shifted(1).value == (0, 1, 2)
    for w in (3, 4, 10):
        assert e.shifted(w).value == (0, 0, 0)


GROUPS = [(2,), (4,), (2, 2), (3, 2)]


def test_orbifold_hh_matches_monomial_enumeration():
    rng = random.Random(23)
    seen = set()
    twisted = 0
    for _ in range(64):
        orders = rng.choice(GROUPS)
        n = rng.randint(1, 4)
        N = rng.randint(1, 8 if n <= 2 else 5)
        logs = sorted(rng.sample(range(n), rng.randint(0, min(n, 2))))
        chars = tuple(tuple(rng.randrange(d) for _ in range(n)) for d in orders)
        a = DiagonalAction(mixed_affine(n, logs, truncation=N), orders, chars)
        got = {q: list(e.value) for q, e in orbifold_hh(a).degrees}
        assert got == enumerated_orbifold_series(a, N), (n, logs, orders, chars, N)
        seen.add((orders, bool(logs)))
        twisted += sum(1 for g in a.elements()
                       if any(g) and all(fraction_fixes(a, g, i) for i in logs))
    assert seen == {(g, has_log) for g in GROUPS for has_log in (False, True)}
    assert twisted >= 50


def test_orbifold_hh_matches_the_residue_table_oracle():
    """Seeded actions of the groups in GROUPS on up to 4 coordinates and of
    (10, 10, 10) on up to 2, at every truncation from 0 to 10; some have
    empty sectors, and some have no sector but the identity's."""
    rng = random.Random(41)
    truncations = set()
    empty = identity_only = cube = 0
    for _ in range(72):
        orders = rng.choice(GROUPS + [(10, 10, 10)])
        n = rng.randint(1, 2 if orders == (10, 10, 10) else 4)
        logs = sorted(rng.sample(range(n), rng.randint(0, n)))
        chars = tuple(tuple(rng.randrange(d) for _ in range(n)) for d in orders)
        N = rng.randint(0, 10)
        a = DiagonalAction(mixed_affine(n, logs, truncation=N), orders, chars)
        got = {q: list(e.value) for q, e in orbifold_hh(a).degrees}
        assert got == residue_table_orbifold_series(a), (n, logs, orders, chars, N)
        sectors = sum(all(fraction_fixes(a, g, i) for i in logs) for g in a.elements())
        empty += sectors < math.prod(orders)
        identity_only += sectors == 1
        cube += orders == (10, 10, 10)
        truncations.add(N)
    assert truncations == set(range(11))
    assert empty >= 20 and identity_only >= 10 and cube >= 10


def test_acts_trivially_matches_the_fraction_formula():
    rng = random.Random(47)
    fixed = moved = 0
    for _ in range(40):
        orders = rng.choice(GROUPS + [(6, 10), (3, 4, 5)])
        n = rng.randint(1, 4)
        chars = tuple(tuple(rng.randrange(-d, 2 * d) for _ in range(n)) for d in orders)
        a = DiagonalAction(mixed_affine(n, []), orders, chars)
        for g in a.elements():
            for i in range(n):
                want = fraction_fixes(a, g, i)
                assert a.acts_trivially(g, i) == want, (orders, chars, g, i)
                fixed += want
                moved += not want
    assert min(fixed, moved) >= 200


def test_membership_matches_recursive_search():
    rng = random.Random(5)
    answers = {True: 0, False: 0}
    for _ in range(25):
        P = _random_fine_monoid(rng)
        G = P.ambient
        for v in itertools.product(range(-3, 4), repeat=G.free_rank):
            for t in itertools.product(*(range(d) for d in G.torsion_orders)):
                x = v + t
                want = recursive_contains(P, x)
                assert contains(P, x) == want, (P, x)
                answers[want] += 1
    assert min(answers.values()) >= 200


def test_membership_search_is_bounded():
    # Remainders of (x, x - 1) by (2, 0), (0, 2), (1, 1): none is 0, and the
    # search visits about x^2 / 2 of them before it can answer no.
    P = FineMonoid.free(2, [(2, 0), (0, 2), (1, 1)])
    assert not contains(P, (61, 60))
    with pytest.raises(ScopeExceeded, match="visits more than"):
        contains(P, (500, 499))


def test_saturate_subgroup_matches_the_inverse_oracle():
    rng = random.Random(29)
    proper = 0
    for _ in range(3000):
        rank = rng.randint(1, 5)
        gens = [tuple(rng.randint(-6, 6) for _ in range(rank))
                for _ in range(rng.randint(0, rank + 1))]
        got = saturate_subgroup(gens, rank)
        assert got == saturate_subgroup_by_inverse(gens, rank), (gens, rank)
        proper += bool(gens) and got != hnf_rows(gens)
    assert proper >= 1000


def test_hermite_solves_saturations_and_indices_match_the_smith_oracles():
    """On seeded matrices, 0 x n, m x 0, rank-deficient and with up to 900
    bits of entries among them: the simplicial index of independent columns
    is the product of their Smith diagonal (|det| when square), and
    dependent ones raise; a right-hand side is solvable for both or for
    neither, and each solution solves; the saturations of the columns are
    equal."""
    rng = random.Random(61)
    kinds = collections.Counter()
    for _ in range(1000):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        e = rng.choice([1, 2, 9, 100, 2 ** (900 // max(1, m * n) - 1)])
        rows = [[rng.randint(-e, e) if rng.random() < 0.6 else 0 for _ in range(n)]
                for _ in range(m)]
        if m >= 2 and rng.random() < 0.3:
            rows[-1] = [rng.choice((-2, 1, 3)) * x + y for x, y in zip(rows[0], rows[1])]
        A = IntMatrix(m, n, tuple(x for r in rows for x in r))
        columns = [A.column(j) for j in range(n)]
        rank = smith_rank(smith_normal_form(A))
        kinds["0 x n" if m == 0 else "m x 0" if n == 0 else
              "rank-deficient" if rank < min(m, n) else "full rank"] += 1
        if rank == n and m:
            index = geom.simplicial_index(columns)
            assert index == smith_simplicial_index(columns), rows
            assert m != n or index == abs(det(A)), rows
            kinds["index"] += 1
        elif n and m:
            with pytest.raises(ValueError, match="dependent"):
                geom.simplicial_index(columns)
        assert saturate_subgroup(columns, m) == smith_saturate_subgroup(columns, m), rows
        x = [rng.randint(-3, 3) for _ in range(n)]
        for b in (A.apply(x), tuple(rng.randint(-e, e) for _ in range(m))):
            got, want = solve_integer(A, b), smith_solve_integer(A, b)
            assert (got is None) == (want is None), (rows, b)
            assert got is None or A.apply(got) == b, (rows, b)
            kinds["unsolvable" if got is None else "solvable"] += 1
    assert min(kinds.values()) >= 100 and len(kinds) == 7, kinds


def test_hnf_rows_matches_the_column_by_column_oracle():
    rng = random.Random(37)
    for _ in range(3000):
        cols = rng.randint(1, 7)
        rows = [[rng.randint(-e, e) if rng.random() < 0.7 else 0 for _ in range(cols)]
                for e in [rng.choice([1, 2, 9, 100])] for _ in range(rng.randint(0, 7))]
        rows += [[k * x for x in rows[0]] for k in (-2, 3) if rows and rng.random() < 0.3]
        assert hnf_rows(rows) == euclid_hnf_rows(rows), rows


def test_hnf_and_saturation_of_twelve_random_vectors_stay_small():
    """Column by column, the unreduced rows below a pivot about double in
    size per column: the oracle took 0.45 s on ten of these vectors in Z^10
    and did not finish twelve in Z^12 in 100 s (Python 3.11, 2-core VM)."""
    rng = random.Random(41)
    gens = [tuple(rng.randint(-9, 9) for _ in range(12)) for _ in range(12)]
    began = time.perf_counter()
    basis = hnf_rows(gens)
    saturation = saturate_subgroup(gens, 12)
    assert time.perf_counter() - began < 0.1
    assert len(basis) == 12 and max(abs(x) for r in basis for x in r) < 10 ** 15
    assert saturation == tuple(IntMatrix.identity(12).row(i) for i in range(12))


TORSION = [(2,), (3,), (4,), (6,), (2, 2), (2, 4), (3, 3), (2, 6)]


def test_gp_torsion_and_saturation_match_the_inverse_oracle(monkeypatch):
    rng = random.Random(31)
    monoids = []
    while len(monoids) < 600:
        orders = rng.choice(TORSION)
        rank = rng.randint(1, 3)
        gens = [tuple(rng.randint(-2, 3) for _ in range(rank))
                + tuple(rng.randrange(d) for d in orders)
                for _ in range(rng.randint(1, 4))]
        P = FineMonoid.make(FgAbelianGroup(rank, orders), gens)
        assert P._gp_torsion == gp_torsion_by_inverse(P), P
        if P.gp_torsion_order > 1:
            monoids.append(P)
    assert sum(len(P._gp_torsion[1]) == 2 for P in monoids) >= 60
    got = [saturate(P) for P in monoids]
    monkeypatch.setattr(FineMonoid, "_gp_torsion", property(gp_torsion_by_inverse))
    assert got == [saturate(P) for P in monoids]


def _vector(rng, length):
    bound = rng.choice([1, 3, 10 ** 6])
    return tuple(rng.randint(-bound, bound) if rng.random() < 0.6 else 0
                 for _ in range(length))


def test_dot_and_is_zero_match_the_generator_oracles():
    rng = random.Random(43)
    zeros = 0
    for _ in range(5000):
        a = _vector(rng, rng.randint(0, 8))
        b = _vector(rng, len(a) if rng.random() < 0.9 else rng.randint(0, 8))
        assert geom.dot(a, b) == generator_dot(a, b), (a, b)
        assert geom.is_zero(a) == generator_is_zero(a), a
        zeros += generator_is_zero(a)
    assert zeros >= 200


def test_contains_matches_the_generator_oracle(monkeypatch):
    """Every geometry the P^2 and F_1 diagonals intern, from empty tables,
    against its rays, sums and negations of them, and seeded vectors."""
    monkeypatch.setattr(cc, "_CONES", {})
    monkeypatch.setattr(geom, "_GEOMETRIES", {})
    hkr.log_diagonal(p2_toric_model())
    cc.subdivide_along_diagonal(cc.from_toric_fan([(1, 0), (0, 1), (-1, 1), (0, -1)],
                                                  [(0, 1), (1, 2), (2, 3), (3, 0)], 2))
    geometries = set(geom._GEOMETRIES.values())
    assert len(geometries) >= 300
    rng = random.Random(47)
    inside = outside = 0
    for g in sorted(geometries, key=lambda g: (g.dim, g.rays)):
        vectors = [_vector(rng, g.dim) for _ in range(8)] + list(g.rays)
        for _ in range(4):
            picked = [r for r in g.rays if rng.random() < 0.5]
            total = tuple(map(sum, zip(*picked))) if picked else (0,) * g.dim
            vectors += [total, geom.vneg(total)]
        for x in vectors:
            got = g.contains(x)
            assert got == generator_contains(g, x), (g, x)
            assert g.contains(list(x)) == got
            inside += got
            outside += not got
        for length in {0, g.dim - 1, g.dim + 1}:
            for check in (g.contains, lambda x: generator_contains(g, x)):
                with pytest.raises(ValueError, match="does not have the cone's rank"):
                    check(_vector(rng, length))
    assert inside >= 1000 and outside >= 1000


def koszul_complex(d):
    """The box, bases and differentials that check 12 builds for A^d."""
    box = 2 if d <= 2 else 1
    bases = suite._koszul_basis(d, box)
    return box, bases, {q: suite._koszul_matrix(box, q, bases) for q in range(1, d + 1)}


def test_criterion_12_window_fails_on_corrupted_complexes():
    """The window test passes the true complexes and fails three corruptions,
    one per failure branch: an inner column of the top differential zeroed
    (not injective); an exact column of d_1 outside the inner domain made
    t^0, so t^0 enters the exact image (H_0); and one sign flipped in an
    inner column of d_2 (d . d != 0)."""
    for d in (1, 2, 3):
        box, bases, diffs = koszul_complex(d)
        assert suite._koszul_resolution_window(box, bases, diffs)
        inner = [j for j, (_, b) in enumerate(bases[d]) if max(map(abs, b)) < box]
        zeroed = {**diffs, d: list(diffs[d])}
        zeroed[d][inner[0]] = {}
        assert not suite._koszul_resolution_window(box, bases, zeroed), d

        t0 = bases[0].index(((), (0,) * d))
        outside = bases[1].index(((0,), (-box,) + (0,) * (d - 1)))
        with_t0 = {**diffs, 1: list(diffs[1])}
        with_t0[1][outside] = {t0: 1}
        assert not suite._koszul_resolution_window(box, bases, with_t0), d

        if d >= 2:
            inner = [j for j, (_, b) in enumerate(bases[2]) if max(map(abs, b)) < box]
            col = dict(diffs[2][inner[0]])
            k = min(col)
            col[k] = -col[k]
            flipped = {**diffs, 2: list(diffs[2])}
            flipped[2][inner[0]] = col
            assert not suite._koszul_resolution_window(box, bases, flipped), d


def test_kernel_basis_matches_the_smith_kernel():
    """Inside the Smith bounds, the kernel read off the Hermite form of the
    rows (column | e_j) is the HNF of the kernel read off a Smith form."""
    rng = random.Random(53)
    nonzero = 0
    for _ in range(1500):
        m, n = rng.randint(0, 7), rng.randint(0, 7)
        e = rng.choice([1, 2, 9, 100])
        rows = [[rng.randint(-e, e) if rng.random() < 0.6 else 0 for _ in range(n)]
                for _ in range(m)]
        rows += [[k * x for x in rows[0]] for k in (-2, 3) if rows and rng.random() < 0.3]
        A = IntMatrix(len(rows), n, tuple(x for r in rows for x in r))
        got = kernel_basis(A)
        assert got == hnf_rows(smith_kernel_basis(A)), rows
        nonzero += bool(got) and bool(rows)
    assert nonzero >= 300
    assert kernel_basis(IntMatrix.zero(0, 3)) == tuple(IntMatrix.identity(3).row(i)
                                                       for i in range(3))


def sparse_family(rng, rows, cols):
    """Sparse columns with entries in +-1..3, some of them combinations of
    earlier ones, so the family has a kernel."""
    family = []
    for _ in range(cols):
        if family and rng.random() < 0.3:
            a, b = rng.sample(family, 2) if len(family) > 1 else family * 2
            ka, kb = rng.choice((-1, 1)), rng.choice((-2, -1, 1))
            col = {i: ka * a.get(i, 0) + kb * b.get(i, 0) for i in set(a) | set(b)}
        else:
            col = {i: rng.choice((-3, -2, -1, 1, 2, 3))
                   for i in rng.sample(range(rows), rng.randint(1, min(3, rows)))}
        family.append({i: v for i, v in col.items() if v})
    return family


def test_kernels_and_ranks_past_the_smith_side_match_elimination_over_q():
    """On sparse families of up to 81 columns, among them every differential
    check 12 builds and its inner and exact parts, the HNF rank is the rank
    over Q, and the HNF kernel has the kernel's size over Q, lies in the
    kernel, and spans the kernel found over Q."""
    rng = random.Random(59)
    families = [(rows, sparse_family(rng, rows, rng.randint(1, 81)))
                for rows in (rng.randint(1, 81) for _ in range(30))]
    for d in (1, 2, 3):
        box, bases, diffs = koszul_complex(d)
        for q, cols in diffs.items():
            inner = [c for c, (_, b) in zip(cols, bases[q]) if max(map(abs, b)) < box]
            exact = [c for c, (S, b) in zip(cols, bases[q]) if all(b[i] < box for i in S)]
            families += [(len(bases[q - 1]), f) for f in (cols, inner, exact)]
    assert max(len(f) for _, f in families) == 81 > MAX_SMITH_SIDE
    for rows, family in families:
        dense = [tuple(col.get(i, 0) for i in range(rows)) for col in family]
        A = IntMatrix.from_columns(dense, rows=rows)
        assert lattice_rank(dense) == rational_rank(family)
        kernel, over_q = kernel_basis(A), rational_kernel(family)
        assert len(kernel) == len(over_q)
        assert all(not any(A.apply(v)) for v in kernel)
        as_columns = [{j: x for j, x in enumerate(v) if x} for v in kernel]
        assert rational_rank(as_columns) == rational_rank(as_columns + over_q) == len(kernel)


def test_check_12_verdicts_match_elimination_over_q(monkeypatch):
    """Seeded corruptions of check 12's differentials get one verdict from the
    window test whether its kernels and ranks come from the Hermite form or
    from elimination over Q."""
    def sparse(cols):
        return [{i: x for i, x in enumerate(c) if x} for c in cols]

    def q_kernel(A):
        cols = sparse(A.column(j) for j in range(A.cols))
        return [tuple(c.get(j, 0) for j in range(A.cols)) for c in rational_kernel(cols)]

    rng = random.Random(61)
    cases = []
    for d in (1, 2, 3):
        box, bases, diffs = koszul_complex(d)
        for _ in range(30):
            q = rng.randint(1, d)
            j = rng.randrange(len(diffs[q]))
            col = dict(diffs[q][j])
            how = rng.choice(("zero", "flip", "bump"))
            if how == "zero":
                col = {}
            elif how == "flip":
                k = rng.choice(sorted(col))
                col[k] = -col[k]
            else:
                k = rng.randrange(len(bases[q - 1]))
                col[k] = col.get(k, 0) + rng.choice((-1, 1))
            changed = {**diffs, q: list(diffs[q])}
            changed[q][j] = {k: v for k, v in col.items() if v}
            cases.append((box, bases, changed))
    def q_basis(rows):
        """The rows independent of those before them over Q: a column that
        elimination reduces to zero is the last one of its kernel vector."""
        rows = list(rows)
        dependent = {max(combo) for combo in rational_kernel(sparse(rows))}
        return [r for j, r in enumerate(rows) if j not in dependent]

    verdicts = [suite._koszul_resolution_window(*case) for case in cases]
    monkeypatch.setattr(suite, "kernel_basis", q_kernel)
    monkeypatch.setattr(suite, "hnf_rows", q_basis)
    assert verdicts == [suite._koszul_resolution_window(*case) for case in cases]
    assert 10 <= verdicts.count(False) <= len(cases) - 10


def _constraint_list(rng):
    """Up to 8 constraints in dimension 1-6 with entries in +-3, among them
    zero, repeated and opposite ones, so that lines survive, the dual is
    lower-dimensional, and ray pairs are combined."""
    dim = rng.randint(1, 6)
    constraints = []
    for _ in range(rng.randint(0, 8)):
        roll = rng.random()
        if constraints and roll < 0.15:
            constraints.append(rng.choice(constraints))
        elif constraints and roll < 0.3:
            constraints.append(geom.vneg(rng.choice(constraints)))
        elif roll < 0.35:
            constraints.append((0,) * dim)
        else:
            constraints.append(tuple(rng.randint(-3, 3) for _ in range(dim)))
    return constraints, dim


def test_dual_generators_match_the_frozenset_oracle():
    rng = random.Random(71)
    seen = collections.Counter()
    dims = set()
    for _ in range(1500):
        constraints, dim = _constraint_list(rng)
        got = geom.dual_generators(constraints, dim)
        assert got == frozenset_dual_generators(constraints, dim, seen), (constraints, dim)
        lines, rays = got
        seen["lineality"] += bool(lines)
        seen["lower-dimensional"] += lattice_rank(lines + rays) < dim
        dims.add(dim)
    assert dims == set(range(1, 7))
    assert min(seen[k] for k in ("lineality", "lower-dimensional", "combination")) >= 100, seen


def test_dual_generators_match_the_frozenset_oracle_on_the_diagonals(monkeypatch):
    """Every double description the P^1, A^2 and P^2 log diagonals and the
    F_1, F_2 and F_3 diagonal subdivisions run, from empty intern tables."""
    monkeypatch.setattr(cc, "_CONES", {})
    monkeypatch.setattr(geom, "_GEOMETRIES", {})
    seen = []
    real = geom.dual_generators

    def capture(constraints, dim):
        constraints = [tuple(c) for c in constraints]
        seen.append((constraints, dim, real(constraints, dim)))
        return seen[-1][2]

    monkeypatch.setattr(geom, "dual_generators", capture)
    for model in (p1_toric_model(), affine_space_model(2), p2_toric_model()):
        hkr.log_diagonal(model)
    fans = [([(1,), (-1,)], [(0,), (1,)], 1), ([(1, 0), (0, 1)], [(0, 1)], 2)]
    fans += [([(1, 0), (0, 1), (-1, a), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)], 2)
             for a in (1, 2, 3)]
    for rays, cones, rank in fans:
        cc.subdivide_along_diagonal(cc.from_toric_fan(rays, cones, rank))
    assert len(seen) >= 300
    for constraints, dim, got in seen:
        assert got == frozenset_dual_generators(constraints, dim), (constraints, dim)


def test_primitive_matches_the_gcd_loop():
    rng = random.Random(73)
    cases = [(), (0,), (0, 0, 0), (5,), (-5,), (-6, 9, 0), (2 ** 300, -(3 * 2 ** 299)),
             (-(2 ** 300 + 1),)]
    for _ in range(2000):
        bound = 2 ** rng.choice([2, 8, 300])
        scale = rng.choice([1, 2, 6, 2 ** 150])
        cases.append(tuple(scale * rng.randint(-bound, bound) if rng.random() < 0.7 else 0
                           for _ in range(rng.randint(0, 6))))
    for v in cases:
        want = loop_primitive(v)
        assert primitive(v) == primitive(list(v)) == want, v
        assert all(type(x) is int for x in primitive(v))
    assert sum(max(map(abs, v), default=0).bit_length() >= 300 for v in cases) >= 200


def _as_fields(M: IntMatrix):
    return M.rows, M.cols, M.entries


def test_smith_normal_form_matches_the_reference_finish():
    """U, D and V entry for entry on seeded matrices up to 6 x 6, among them
    0 x n, m x 0 and rank-deficient ones, and the same refusals."""
    rng = random.Random(79)
    kinds = collections.Counter()
    for _ in range(2000):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        e = rng.choice([1, 3, 20, 10 ** 6])
        rows = [[rng.randint(-e, e) if rng.random() < 0.7 else 0 for _ in range(n)]
                for _ in range(m)]
        if m >= 2 and rng.random() < 0.3:
            k = rng.choice((-2, 1, 3))
            rows[-1] = [k * x + y for x, y in zip(rows[0], rows[1])]
        A = IntMatrix(m, n, tuple(x for r in rows for x in r))
        got, want = smith_normal_form(A), reference_smith_normal_form(A)
        for name in ("U", "D", "V"):
            assert _as_fields(getattr(got, name)) == _as_fields(getattr(want, name)), (rows, name)
        kinds["0 x n" if m == 0 else "m x 0" if n == 0 else
              "rank-deficient" if smith_rank(got) < min(m, n) else "full rank"] += 1
    assert min(kinds.values()) >= 200 and len(kinds) == 4, kinds
    rng = random.Random(0)
    a, b, c = (rng.randrange(10 ** (d - 1), 10 ** d) for d in (143, 72, 79))
    for rows in ([[a, 0, 0], [b, c, 0]], [[1]] * (MAX_SMITH_SIDE + 1)):
        messages = []
        for snf in (smith_normal_form, reference_smith_normal_form):
            with pytest.raises(ScopeExceeded) as refused:
                snf(IntMatrix.from_rows(rows))
            messages.append(str(refused.value))
        assert messages[0] == messages[1]


class SkewedRows:
    """A matrix whose rows, which the elimination reads, differ in one entry
    from its entries, which the recomposition check reads."""

    def __init__(self, entries, rows):
        self.rows, self.cols, self.entries = len(rows), len(rows[0]), entries
        self._rows = rows

    def as_rows(self):
        return [list(r) for r in self._rows]


def test_smith_recomposition_is_checked_against_the_entries():
    """The check on the elimination's own rows multiplies out A's entries,
    so an elimination of other rows fails it."""
    for rows in ([[2, 4], [6, 8]], [[1, 0, 3]], [[5], [0]], [[0, 0], [0, 0]]):
        entries = tuple(x for r in rows for x in r)
        skewed = [list(r) for r in rows]
        skewed[-1][-1] += 1
        with pytest.raises(InternalInvariant, match="Smith recomposition failed"):
            smith_normal_form(SkewedRows(entries, skewed))


def _tiling_cases(rng, rank):
    """(g, cones): g a cone of random rays in the nonnegative orthant, some
    of them redundant, and the cones of a stellar subdivision of g, as they
    are, with one cone of g's dimension dropped, or with one more added."""
    rays = {tuple(rng.randint(0, 3) for _ in range(rank)) for _ in range(rng.randint(1, 5))}
    rays = sorted(r for r in rays if any(r))
    if not rays:
        return []
    if len(rays) >= 2 and rng.random() < 0.4:
        rays.append(geom.vadd(rays[0], rays[1]))          # a redundant ray
    g = geom.ConeGeometry.of(rays, rank)
    fan = cc.from_toric_fan(g.rays, [range(len(g.rays))], rank)
    top = max(range(len(fan.cones)), key=lambda i: fan.cones[i].dim)
    sub = None
    for _ in range(rng.randint(0, 3)):
        refined = sub.refined if sub else fan
        v = geom.vadd(*rng.sample(refined.cones[-1].rays, 2)) \
            if len(refined.cones[-1].rays) >= 2 else refined.cones[-1].rays[0]
        home = next(i for i, c in enumerate(refined.cones) if c.contains(v))
        sub = cc.star_subdivision(refined, home, v)
    cones = list((sub.refined if sub else fan).cones)
    tops = [c for c in cones if c.dim == g.span_dim]
    drop = rng.choice(tops)
    out = [(g, cones), (g, [c for c in cones if c is not drop])]
    extra = rng.sample(g.rays, min(len(g.rays), g.span_dim))
    if lattice_rank(extra) == g.span_dim:
        out.append((g, cones + [cc.Cone.make(extra, rank)]))
    return out


def test_integer_tiling_matches_the_fraction_oracle():
    """On seeded cones in rank 2 and 3, simplicial or not, with redundant
    rays, the integer tiling test agrees with the `Fraction` one on stellar
    subdivisions and on them with a cone dropped or added; both verdicts
    occur.  Each integer volume is T^d times the `Fraction` volume."""
    rng = random.Random(29)
    verdicts = collections.Counter()
    nonsimplicial = 0
    for _ in range(120):
        for g, cones in _tiling_cases(rng, rng.choice([2, 3])):
            got = cc._tiled_by(g, cones)
            assert got == fraction_tiled_by(g, cones), (g, cones)
            verdicts[got] += 1
            nonsimplicial += len(g.rays) > g.span_dim
            if g.span_dim:
                ell = g.normals[0]
                for nrm in g.normals[1:]:
                    ell = geom.vadd(ell, nrm)
                heights = {r: geom.dot(ell, r) for r in g.rays}
                T = math.lcm(*heights.values())
                assert cc._truncated_volume(g.rays, g.dim, heights, T) == \
                    T ** g.span_dim * fraction_truncated_volume(g.rays, g.dim, ell)
    assert verdicts[True] >= 50 and verdicts[False] >= 50, verdicts
    assert nonsimplicial >= 50, nonsimplicial


def test_subdivision_volumes_check_fails_on_a_dropped_cone(monkeypatch):
    """Check 11e passes the true subdivisions and fails every one whose
    refined complex has lost its last maximal cone."""
    assert suite.property_subdivision_volumes().passed
    true_refined = cc.Subdivision.refined

    def dropped(s):
        F = true_refined.fget(s)
        last = F.maximal_cone_indices()[-1]
        return cc._embedded_from_cones([c for i, c in enumerate(F.cones) if i != last],
                                       F.cones[0].lattice_rank)

    monkeypatch.setattr(cc.Subdivision, "refined", property(dropped))
    result = suite.property_subdivision_volumes()
    assert not result.passed and result.detail.endswith("failed [0, 1, 2, 3, 4]"), result


def test_triangulate_matches_the_support_first_oracle(monkeypatch):
    """On seeded ray lists of lattice rank 1-12, the rank-first placing
    triangulation gives the oracle's simplices, among them lists with a
    redundant ray, non-simplicial cones and cones of lower dimension, and
    builds no more double descriptions than the oracle."""
    rng = random.Random(97)
    kinds = collections.Counter()
    for _ in range(240):
        rank = rng.randint(1, 12)
        span = rng.randint(1, rank) if rng.random() < 0.3 else rank
        rays = [tuple(rng.randint(0, 2) if i < span else 0 for i in range(rank))
                for _ in range(rng.randint(1, span + 2))]
        if len(rays) >= 2 and rng.random() < 0.4:
            rays.append(geom.vadd(rays[0], rays[1]))
        rays = list(geom.primitive_rays(rays))
        if not rays:
            continue
        counts = []
        for triangulate in (geom.triangulate, support_first_triangulate):
            calls = collections.Counter()
            real = geom.dual_generators

            def counting(constraints, dim):
                calls["dd"] += 1
                return real(constraints, dim)

            monkeypatch.setattr(geom, "_GEOMETRIES", {})
            monkeypatch.setattr(geom, "dual_generators", counting)
            counts.append((triangulate(rays, rank), calls["dd"]))
            monkeypatch.setattr(geom, "dual_generators", real)
        (got, dd), (want, dd_oracle) = counts
        assert got == want, rays
        assert dd <= dd_oracle
        dim = lattice_rank(rays)
        kinds["lower-dimensional"] += dim < rank
        kinds["non-simplicial"] += len(got) > 1
        kinds["redundant"] += len({i for s in got for i in s}) < len(rays)
        kinds["fewer double descriptions"] += dd < dd_oracle
    assert min(kinds.values()) >= 20 and len(kinds) == 4, kinds
