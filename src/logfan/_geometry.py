"""Exact rational polyhedral kernel for desk-scale cones.

Cones are handed around as tuples of integer ray generators.  The double
description step converts between ray and inequality descriptions with the
classic incremental algorithm (lineality handled explicitly, adjacency by
inclusion of zero sets kept as int bitmasks), entirely over Python integers.
Dimensions stay small: at most 12, the lattice rank `monoid.hilbert_basis`
allows (twice `monoid.MAX_DIMENSION`, that of a product of two models), so
no effort is spent on asymptotics.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import chain
from operator import add, mul, sub

from ._record import Record
from .errors import InternalInvariant
from .lattice import (IntMatrix, Vector, check_scale, hnf_coords, hnf_rows, kernel_basis,
                      primitive, saturate_subgroup, smith_normal_form)


def dot(a, b) -> int:
    return sum(map(mul, a, b))


def vadd(a, b) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def vneg(a) -> Vector:
    return tuple(-x for x in a)


def is_zero(a) -> bool:
    return not any(a)


def dual_generators(constraints, dim: int) -> tuple[tuple[Vector, ...], tuple[Vector, ...]]:
    """Generators (lines, rays) of {y : y . c >= 0 for every nonzero constraint c}.

    Incremental double description.  Lines come back as an HNF basis of the
    lineality space; rays are primitive, minimal and sorted.  A ray's zero set,
    the constraints it is tight on, is an int with bit k set for constraint k,
    so the adjacency test (no third ray tight on every constraint two rays
    share) is one `&` per ray.
    """
    unit = IntMatrix.identity(dim)
    lines: list[Vector] = [unit.row(i) for i in range(dim)]
    rays: list[tuple[Vector, int]] = []
    bit = 1
    for a in constraints:
        a = tuple(map(int, a))
        dls = [dot(l, a) for l in lines]
        k = next((i for i, dl in enumerate(dls) if dl), None)
        if k is not None:
            pivot, d0 = lines[k], dls[k]
            if d0 < 0:
                pivot = vneg(pivot)
                d0 = -d0
            # the lines stay independent, so only the pivot's own line drops
            lines = [primitive([d0 * x - dl * y for x, y in zip(l, pivot)]) if dl else l
                     for i, (l, dl) in enumerate(zip(lines, dls)) if i != k]
            new_rays = []
            for r, z in rays:
                dr = dot(r, a)
                if dr != 0:
                    r = primitive([d0 * x - dr * y for x, y in zip(r, pivot)])
                new_rays.append((r, z | bit))
            new_rays.append((primitive(pivot), bit - 1))
            rays = new_rays
        else:
            plus, zero, minus = [], [], []
            for r, z in rays:
                d = dot(r, a)
                if d > 0:
                    plus.append((r, z, d))
                elif d < 0:
                    minus.append((r, z, d))
                else:
                    zero.append((r, z | bit))
            combos = []
            for rp, zp, dp in plus:
                for rm, zm, dm in minus:
                    common = zp & zm
                    if any(not (common & ~z) and r != rp and r != rm for r, z in rays):
                        continue
                    # (a.rp) rm - (a.rm) rp: tight on a, nonnegative combination
                    combos.append((primitive([dp * x - dm * y for x, y in zip(rm, rp)]),
                                   common | bit))
            rays = [(r, z) for r, z, _ in plus] + zero + combos
        bit <<= 1
    return hnf_rows(lines), tuple(sorted({r for r, _ in rays if not is_zero(r)}))


def primitive_rays(rays) -> tuple[Vector, ...]:
    """Sorted distinct primitive vectors of the nonzero input rays."""
    return tuple(sorted({p for p in map(primitive, rays) if not is_zero(p)}))


# Interning table of ConeGeometry.of: one object per (dim, primitive rays), so
# the double description and everything cached on it are computed once.  Keys
# are normalized, so rays found here as given need no normalizing.
_GEOMETRIES: dict[tuple[int, tuple[Vector, ...]], "ConeGeometry"] = {}


class ConeGeometry(Record):
    """One rational cone's rays, and its double description, computed once
    when an inequality is read: its dimension is the rank of its rays."""

    dim: int
    rays: tuple[Vector, ...]

    @staticmethod
    def of(rays, dim: int) -> "ConeGeometry":
        """Looked up as given, then, on a miss, by `primitive_rays`, which
        leaves every stored key as it is; so a hit needs no normalizing."""
        rays = tuple(map(tuple, rays))
        g = _GEOMETRIES.get((dim, rays))
        if g is not None:
            return g
        key = (dim, primitive_rays(rays))
        g = _GEOMETRIES.get(key)
        if g is None:
            g = _GEOMETRIES[key] = ConeGeometry(*key)
        return g

    @cached_property
    def _dual(self):
        return dual_generators(self.rays, self.dim)

    @property
    def equations(self) -> tuple[Vector, ...]:
        """Covectors vanishing on the cone (basis of span(cone)-perp)."""
        return self._dual[0]

    @property
    def normals(self) -> tuple[Vector, ...]:
        """Facet inequalities: minimal generators of the dual modulo lineality."""
        return self._dual[1]

    @cached_property
    def grading(self) -> Vector:
        """The sum of the facet normals (zero without any), positive on every
        nonzero point of a sharp cone: a point on which every normal vanishes
        lies in the cone together with its negative."""
        return tuple(map(sum, zip((0,) * self.dim, *self.normals)))

    @cached_property
    def facets(self) -> tuple[frozenset, ...]:
        """For each facet normal, the indices of the rays lying on it."""
        return tuple(frozenset(i for i, r in enumerate(self.rays) if dot(n, r) == 0)
                     for n in self.normals)

    @cached_property
    def lineality_basis(self) -> tuple[Vector, ...]:
        # Independent rays span a sharp cone: if x = sum a_i r_i and
        # -x = sum b_i r_i with a, b >= 0, then sum (a_i + b_i) r_i = 0 forces
        # a = b = 0, so x = 0.  Only dependent rays need the kernel.
        if len(self.rays) == self.span_dim:
            return ()
        stacked = self.equations + self.normals
        return kernel_basis(IntMatrix(len(stacked), self.dim, tuple(chain.from_iterable(stacked))))

    @property
    def is_sharp(self) -> bool:
        return not self.lineality_basis

    @cached_property
    def span_dim(self) -> int:
        return len(hnf_rows(self.rays))

    def _vector(self, x) -> Vector:
        x = tuple(x)
        if len(x) != self.dim:
            raise ValueError(f"vector {x} does not have the cone's rank {self.dim}")
        return x

    def contains(self, x) -> bool:
        x = self._vector(x)
        return (not any(sum(map(mul, e, x)) for e in self.equations)
                and all(sum(map(mul, n, x)) >= 0 for n in self.normals))

    def contains_relative_interior(self, x) -> bool:
        x = self._vector(x)
        if self.span_dim == 0:
            return is_zero(x)
        return (all(dot(e, x) == 0 for e in self.equations)
                and all(dot(n, x) > 0 for n in self.normals))

    def contains_cone(self, other: "ConeGeometry") -> bool:
        return all(self.contains(r) for r in other.rays)

    def intersect_rays(self, other: "ConeGeometry") -> tuple[Vector, ...]:
        """Ray generators of the intersection with another cone."""
        cons = [c for e in self.equations + other.equations for c in (e, vneg(e))]
        lines, rays = dual_generators(cons + [*self.normals, *other.normals], self.dim)
        if lines:
            raise InternalInvariant("intersection of sharp cones grew a line")
        return rays


def simplicial_index(rays) -> int:
    """Lattice-normalized volume of the cone spanned by independent rays.

    Equals the index of the subgroup the rays generate inside the saturated
    lattice of their span; 1 means unimodular.  It is the product of the HNF
    pivots of the rays' coordinate columns, which have the same invariant
    factors (|det| for k rays in rank k), after the rays' `check_scale`.
    """
    rays = [tuple(r) for r in rays]
    if not rays:
        return 1
    check_scale(IntMatrix.from_columns(rays, rows=len(rays[0])))
    basis = hnf_rows(zip(*rays))
    if len(basis) < len(rays):
        raise ValueError("rays are linearly dependent")
    return math.prod(next(filter(None, r)) for r in basis)


def triangulate(rays, dim: int) -> list[tuple[int, ...]]:
    """Placing triangulation of cone(nonzero rays), rays inserted in lex order.

    Returns maximal simplices as tuples of ray indices.  Rays interior to the
    cone already placed are skipped (they are redundant generators).  The rank
    is tested first: a ray outside the span of those placed joins every simplex,
    so the support's double description is built only for a ray in that span.
    """
    order = sorted(range(len(rays)), key=lambda i: rays[i])
    placed: list[int] = []
    span: tuple[Vector, ...] = ()
    simplices: list[tuple[int, ...]] = [()]
    for idx in order:
        v = rays[idx]
        grown = hnf_rows(span + (v,))
        if len(grown) > len(span):
            span = grown
            simplices = [s + (idx,) for s in simplices]
        else:
            support = ConeGeometry.of([rays[i] for i in placed], dim)
            if support.contains(v):
                continue
            new = []
            for n in support.normals:
                if dot(n, v) >= 0:
                    continue
                for s in simplices:
                    tight = tuple(i for i in s if dot(n, rays[i]) == 0)
                    if len(tight) == len(s) - 1:
                        new.append(tight + (idx,))
            simplices.extend(new)
        placed.append(idx)
    return simplices


def parallelepiped_points(basis) -> list[Vector]:
    """Lattice points of the half-open parallelepiped spanned by a basis.

    `basis` is a list of k >= 1 linearly independent integer vectors of length k.
    Returns all x in Z^k with x = sum t_i b_i, 0 <= t_i < 1, sorted.  These
    points are one per class of the finite group Z^k / W Z^k, W the basis
    matrix, so they are found by walking that group.  With U W V = D the
    Smith form and `last` the last invariant factor, a point is stored with
    its box numerators m = last * t.  Each invariant factor d > 1 gives a
    step: numerators g = (last / d) V e_i mod last and lattice point
    s = W g / last.  Taking a step adds g and s, then, for every numerator
    that wrapped past `last`, subtracts `last` from it and that basis vector
    from the point.  The steps turn the digits of an odometer: d turns of a
    digit bring the walk back to where the digit was 0, and carry one turn
    to the next digit.  So every class is met once, and no list of
    (numerators, point) pairs is kept.  Integrality is checked once per step;
    by linearity that covers every point.
    """
    W = IntMatrix.from_columns(basis)
    snf = smith_normal_form(W)
    diag = snf.diagonal()
    if not all(diag):
        raise InternalInvariant("parallelepiped basis is degenerate")
    last = diag[-1]
    steps = []
    for i, d in enumerate(diag):
        if d == 1:
            continue
        g = tuple(last // d * v % last for v in snf.V.column(i))
        x = W.apply(g)
        if any(c % last for c in x):
            raise InternalInvariant("parallelepiped point is not a lattice point")
        steps.append((d, g, tuple(c // last for c in x)))
    coords = range(len(diag))
    m, point = [0] * len(diag), (0,) * len(diag)
    points = {point}
    digits = [0] * len(steps)
    i = 0
    while i < len(steps):
        d, g, s = steps[i]
        point = tuple(map(add, point, s))
        for j in coords:
            x = m[j] + g[j]
            if x >= last:
                x -= last
                point = tuple(map(sub, point, basis[j]))
            m[j] = x
        digits[i] += 1
        if digits[i] < d:
            points.add(point)
            i = 0
        else:
            digits[i] = 0
            i += 1
    if len(points) != math.prod(diag):
        raise InternalInvariant("parallelepiped point count differs from the index")
    return sorted(points)


def cone_lattice_coords(rays, dim: int):
    """Coordinates of rays in the saturated lattice of their span.

    Returns (span_basis_rows, coords) where coords[i] expresses rays[i] in the
    basis; the basis is the canonical HNF basis from lattice saturation.
    """
    basis = saturate_subgroup(rays, dim)
    coords = [hnf_coords(r, basis) for r in rays]
    if None in coords:
        raise InternalInvariant("ray escapes the saturated span lattice")
    return basis, coords
