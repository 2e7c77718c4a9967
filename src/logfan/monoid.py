"""Fine and fine-saturated monoids inside finitely generated abelian groups.

A fine monoid is stored by its ambient group and a reduced generator list,
so integrality is automatic.  Saturation runs through a Hilbert basis of the
rational cone over the free parts and absorbs the full torsion subgroup of
the groupification; this is exactly what makes the "r disjoint lines"
pushout come out right.

The fs pushout is the chart-level engine for fs fiber products: amalgamated
sum inside the cokernel, image monoid, then saturation.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from itertools import islice, repeat
from operator import le, mod, mul, sub

from . import _geometry as geom
from ._record import Record
from .errors import (InternalInvariant, NotSaturated, NotStronglyConvex,
                     ScopeExceeded)
from .lattice import (FgAbelianGroup, IntMatrix, Vector, cokernel_projection,
                      divide_exactly, hnf_coords, hnf_rows, in_lattice,
                      lattice_rank as _span_rank, reduce_mod_lattice, smith_normal_form,
                      solve_integer)

# Desk-scale bounds, stated in README "Scale".
MAX_DIMENSION = 6         # `d` of affine_space, `coords` of mixed_affine, toric `rank`
MAX_PARALLELEPIPED_POINTS = 10_000
MAX_MEMBERSHIP_DEPTH = 1_000
MAX_MEMBERSHIP_STATES = 10_000


class FineMonoid(Record):
    """Finitely generated submonoid of a finitely generated abelian group."""

    ambient: FgAbelianGroup
    generators: tuple[Vector, ...]

    @staticmethod
    def make(ambient: FgAbelianGroup, generators) -> "FineMonoid":
        """Canonical construction: reduce, drop zeros, dedupe, sort."""
        gens = {g for g in map(ambient.reduce, generators) if any(g)}
        return FineMonoid(ambient, tuple(sorted(gens)))

    @staticmethod
    def free(rank: int, generators=None) -> "FineMonoid":
        """Monoid in Z^rank; defaults to N^rank on the standard basis."""
        G = FgAbelianGroup(rank)
        if generators is None:
            generators = IntMatrix.identity(rank).as_rows()
        return FineMonoid.make(G, generators)

    @property
    def free_rank(self) -> int:
        return self.ambient.free_rank

    def free_parts(self) -> list[Vector]:
        return [self.ambient.free_part(g) for g in self.generators]

    @cached_property
    def _relation_rows(self) -> tuple[Vector, ...]:
        f = self.ambient.free_rank
        n = self.ambient.num_coords
        return tuple(tuple(d if j == f + i else 0 for j in range(n))
                     for i, d in enumerate(self.ambient.torsion_orders))

    @cached_property
    def gp_lattice(self) -> tuple[Vector, ...]:
        """HNF basis of the groupification, in presentation coordinates."""
        return hnf_rows(list(self.generators) + list(self._relation_rows))

    @cached_property
    def _gp_torsion(self) -> tuple[int, tuple[Vector, ...]]:
        """Order and cyclic generators of the torsion subgroup of P^gp."""
        f = self.ambient.free_rank
        if not self.ambient.torsion_orders:
            return 1, ()
        # the rows of P^gp's HNF with zero free part: an HNF basis of its torsion
        K = [row[f:] for row in self.gp_lattice if not any(row[:f])]
        coeffs = [hnf_coords(rel[f:], K) for rel in self._relation_rows]
        if None in coeffs:
            raise InternalInvariant("a torsion relation is outside the torsion of P^gp")
        C = IntMatrix.from_rows(coeffs)
        snf = smith_normal_form(C)
        order = 1
        for d in snf.diagonal():
            order *= max(d, 1)
        # U C = D V^-1: row i of U C is d_i times row i of V^-1, whose
        # combination of the rows of K is the i-th cyclic generator
        UC, Kt = snf.U @ C, IntMatrix.from_columns(K)
        return order, tuple(
            self.ambient.reduce((0,) * f + Kt.apply(divide_exactly(UC.row(i), d)))
            for i, d in enumerate(snf.diagonal()) if d >= 2)

    @property
    def gp_torsion_order(self) -> int:
        return self._gp_torsion[0]

    @cached_property
    def free_cone(self) -> geom.ConeGeometry:
        return geom.ConeGeometry.of(self.free_parts(), self.free_rank)

    @cached_property
    def _sharp_quotient(self) -> "tuple[IntMatrix, FineMonoid] | None":
        """The projection onto the ambient group modulo the units of P, and
        the image of P there (sharp); None when P has no units."""
        units = _unit_subgroup_rows(self)
        if not units:
            return None
        H, proj = cokernel_projection(IntMatrix.from_columns(
            units + list(self._relation_rows), rows=self.ambient.num_coords))
        return proj, FineMonoid.make(H, [proj.apply(g) for g in self.generators])

    @cached_property
    def _search_data(self) -> tuple[tuple[Vector, ...], tuple[Vector, ...], int]:
        """For the membership search in a sharp P: the generators with a
        nonzero free part, an HNF basis of the torsion lattice spanned by the
        others and the relations, and the least facet-normal degree of the
        former (1 when there are none)."""
        G = self.ambient
        f = G.free_rank
        mixed = tuple(g for g in self.generators if not geom.is_zero(G.free_part(g)))
        tors_lat = hnf_rows([g[f:] for g in self.generators if g not in mixed]
                            + [rel[f:] for rel in self._relation_rows])
        least = min((geom.dot(self.free_cone.grading, G.free_part(g)) for g in mixed), default=1)
        return mixed, tors_lat, least


def hilbert_basis(cone_generators, lattice_rank: int) -> list[Vector]:
    """Minimal generating set of cone(generators) intersected with Z^rank.

    Triangulates into simplicial subcones (placing triangulation in lex ray
    order), enumerates each half-open fundamental parallelepiped, unions with
    the primitive rays, and drops each candidate that a kept one of at most
    half its degree reduces (Bruns-Ichim).  Candidates are visited in degree
    order; a reduction test compares facet values, read off one `map` per
    facet.  Output is sorted lexicographically.

    Raises NotStronglyConvex when the cone contains a line, and ScopeExceeded
    above lattice rank 2 * MAX_DIMENSION, that of a product of two models,
    before any work, and past MAX_PARALLELEPIPED_POINTS parallelepiped points.
    """
    if lattice_rank > 2 * MAX_DIMENSION:
        raise ScopeExceeded(f"the lattice rank is {lattice_rank}, above the desk-scale "
                            f"bound {2 * MAX_DIMENSION}")
    rays = [tuple(int(x) for x in v) for v in cone_generators]
    for r in rays:
        if len(r) != lattice_rank:
            raise ValueError("generator length mismatch")
    rays = [r for r in rays if not geom.is_zero(r)]
    if not rays:
        return []
    if not geom.ConeGeometry.of(rays, lattice_rank).is_sharp:
        raise NotStronglyConvex("cone contains a line; quotient by it first")
    basis, coords = geom.cone_lattice_coords(rays, lattice_rank)
    dim = len(basis)
    cone = geom.ConeGeometry.of(coords, dim)
    blocks = [[cone.rays[i] for i in simplex]
              for simplex in geom.triangulate(list(cone.rays), dim)]
    if any(len(block) != dim for block in blocks):
        raise InternalInvariant("triangulation simplex is not full-dimensional")
    points = sum(map(geom.simplicial_index, blocks))
    if points > MAX_PARALLELEPIPED_POINTS:
        raise ScopeExceeded(
            f"the cone's simplices hold {points} parallelepiped points, "
            f"more than {MAX_PARALLELEPIPED_POINTS}")
    candidates = set(cone.rays)
    for block in blocks:
        candidates.update(geom.parallelepiped_points(block))
    candidates.discard((0,) * dim)    # every parallelepiped holds the origin
    # The cone is full-dimensional in its span's lattice, so h - g lies in it
    # exactly when no facet value of g exceeds h's.  A reducible h has a basis
    # summand of at most half its degree (the sum of its facet values, or the
    # grading times h), so candidates of equal degree never reduce each other.
    # In degree order the reducers' degrees stay sorted and those of at most
    # half h's degree are a prefix.  Only reducers keep their facet values.
    candidates, normals = list(candidates), cone.normals
    degree = list(map(sum, map(map, repeat(mul), repeat(cone.grading), candidates)))
    top = max(degree)
    graded = list(map(candidates.__getitem__, sorted(range(len(degree)), key=degree.__getitem__)))
    del candidates, degree    # only `graded` stays, so the peak memory stays low
    values = zip(*(map(sum, map(map, repeat(mul), repeat(n), graded)) for n in normals))
    kept, reducers, degrees = [], [], []
    for h, v in zip(graded, values):
        deg = sum(v)
        k = bisect_right(degrees, deg // 2)
        if k and any(map(all, map(map, repeat(le), islice(reducers, k), repeat(v)))):
            continue
        kept.append(h)
        if 2 * deg <= top:
            reducers.append(v)
            degrees.append(deg)
    B = IntMatrix.from_columns(basis, rows=lattice_rank)
    if B.is_identity:
        return sorted(kept)
    return sorted(map(B.apply, kept))


def _unit_subgroup_rows(P: FineMonoid) -> list[Vector]:
    """Presentation-space generators of the unit group of P.

    The units are exactly the submonoid generated by the generators whose
    free part lies in the lineality space of the free cone; for a fine
    monoid this submonoid is a group.
    """
    lin = P.free_cone.lineality_basis
    return [g for g in P.generators
            if lin and _span_rank([*lin, P.ambient.free_part(g)]) == len(lin)]


def contains(P: FineMonoid, x) -> bool:
    """Exact membership of an ambient element in the monoid."""
    G = P.ambient
    x = G.reduce(x)
    if geom.is_zero(x):
        return True
    if not P.generators:
        return False
    if P._sharp_quotient is not None:
        proj, Q = P._sharp_quotient
        return _contains_sharp(Q, Q.ambient.reduce(proj.apply(x)))
    return _contains_sharp(P, x)


def _contains_sharp(P: FineMonoid, x) -> bool:
    """Membership in a sharp monoid: search for generators to subtract.

    Each subtracted generator lowers the facet-normal degree of the free
    part by at least the least generator degree, which bounds the length of
    a decomposition; the search is refused past MAX_MEMBERSHIP_DEPTH, and
    stopped past MAX_MEMBERSHIP_STATES remainders.
    """
    G = P.ambient
    f = G.free_rank
    cone = P.free_cone
    if not cone.is_sharp:
        raise InternalInvariant("membership search needs a sharp monoid")
    if not cone.contains(G.free_part(x)):
        return False
    mixed, tors_lat, least = P._search_data
    depth = geom.dot(cone.grading, G.free_part(x)) // least
    if depth > MAX_MEMBERSHIP_DEPTH:
        raise ScopeExceeded(f"membership of {x} may take {depth} generator steps, "
                            f"more than {MAX_MEMBERSHIP_DEPTH}")
    orders = G.torsion_orders
    seen, stack = {x}, [x]
    while stack:
        rem = stack.pop()
        fp = rem[:f]
        if geom.is_zero(fp):
            if in_lattice(rem[f:], tors_lat):
                return True
            continue
        if rem is not x and not cone.contains(fp):   # x was tested above
            continue
        for g in mixed:
            nxt = tuple(map(sub, rem, g))
            if orders:
                nxt = nxt[:f] + tuple(map(mod, nxt[f:], orders))
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
        if len(seen) > MAX_MEMBERSHIP_STATES:
            raise ScopeExceeded(
                f"membership of {x} visits more than {MAX_MEMBERSHIP_STATES} remainders")
    return False


class SaturationReport(Record):
    """Result of saturating a fine monoid."""

    saturated: FineMonoid
    index_data: tuple[Vector, ...]   # generators the saturation added

    @property
    def torsion_order(self) -> int:
        """|torsion(P^gp)|, which saturating P does not change."""
        return self.saturated.gp_torsion_order


def _saturate_generators(P: FineMonoid) -> tuple[Vector, ...]:
    """Generators of P^sat inside the ambient group."""
    G = P.ambient
    f = G.free_rank
    torsion_gens = P._gp_torsion[1]
    # The HNF rows of P^gp with a nonzero free part have as free parts the HNF
    # basis of the free parts of P^gp; the other rows are an HNF basis of its
    # torsion.
    free_rows = [row for row in P.gp_lattice if any(row[:f])]
    K = [row for row in P.gp_lattice if not any(row[:f])]
    free_basis = [row[:f] for row in free_rows]
    r = len(free_basis)
    out: list[Vector] = list(torsion_gens)
    if r:
        ws = [hnf_coords(G.free_part(g), free_basis) for g in P.generators]
        if None in ws:
            raise InternalInvariant("a generator's free part is outside P^gp")
        cone = geom.ConeGeometry.of(ws, r)
        lam_gens: list[Vector] = []
        lin = cone.lineality_basis
        if lin:
            quotient, proj = cokernel_projection(IntMatrix.from_columns(lin, rows=r))
            if quotient != FgAbelianGroup(r - len(lin)):
                raise InternalInvariant("lineality space is not saturated")
            projected = [proj.apply(w) for w in ws]
            hb = hilbert_basis(projected, r - len(lin))
            for h in hb:
                lift = solve_integer(proj, h)
                if lift is None:
                    raise InternalInvariant("Hilbert basis element does not lift")
                lam_gens.append(reduce_mod_lattice(lift, lin))
            for l in lin:
                lam_gens.append(tuple(l))
                lam_gens.append(geom.vneg(l))
        else:
            lam_gens.extend(hilbert_basis(ws, r))
        # u in the coordinates of free_basis lifts into P^gp as the same
        # combination of free_rows, canonical modulo the torsion rows
        for u in lam_gens:
            vec = tuple(sum(map(mul, u, column)) for column in zip(*free_rows))
            out.append(G.reduce(reduce_mod_lattice(vec, K)))
    return tuple(out)


def saturate(P: FineMonoid) -> SaturationReport:
    """Saturation P^sat = {g in P^gp : n*g in P for some n >= 1}.

    Computed as the preimage in P^gp of the rational cone over the free
    parts; the full torsion subgroup of P^gp is absorbed.  That re-saturating
    the result changes nothing is checked by the paper suite's property 11a,
    not on every call.
    """
    sat = FineMonoid.make(P.ambient, _saturate_generators(P))
    given = set(P.generators)
    added = tuple(g for g in sat.generators if g not in given)
    return SaturationReport(sat, added)


def is_saturated(P: FineMonoid) -> bool:
    """True iff P equals its saturation as a submonoid of the ambient group."""
    sat = saturate(P).saturated
    return all(contains(P, g) for g in sat.generators)


class MonoidHom(Record):
    """Homomorphism of fine monoids, given on ambient groups.

    The matrix acts on presentation coordinates (target coords x source
    coords).  Construction checks that torsion is respected and that every
    source generator lands inside the target monoid.
    """

    source: FineMonoid
    target: FineMonoid
    matrix: IntMatrix

    def __post_init__(self):
        if (self.matrix.rows, self.matrix.cols) != (
                self.target.ambient.num_coords, self.source.ambient.num_coords):
            raise ValueError("hom matrix has wrong shape")
        if not hom_well_defined(self.source.ambient, self.target.ambient, self.matrix):
            raise ValueError("matrix does not define a map of ambient groups")
        for g in self.source.generators:
            if not contains(self.target, self.matrix.apply(g)):
                raise ValueError(f"generator {g} does not map into the target monoid")


def hom_well_defined(src: FgAbelianGroup, dst: FgAbelianGroup, matrix: IntMatrix) -> bool:
    """Does the coordinate matrix send src relations into dst relations?"""
    fs = src.free_rank
    for i, d in enumerate(src.torsion_orders):
        col = matrix.column(fs + i)
        image = tuple(d * x for x in col)
        if any(image[:dst.free_rank]):
            return False
        for j, dj in enumerate(dst.torsion_orders):
            if image[dst.free_rank + j] % dj != 0:
                return False
    return True


class PushoutData(Record):
    """fs pushout together with the chart maps into it."""

    report: SaturationReport
    leg_left: IntMatrix    # target-of-f coords -> pushout coords
    leg_right: IntMatrix   # target-of-g coords -> pushout coords

    @property
    def ambient(self) -> FgAbelianGroup:
        return self.report.saturated.ambient

    @cached_property
    def legs(self) -> IntMatrix:
        """(leg_left | leg_right): the projection onto the pushout's group."""
        return IntMatrix.from_rows([self.leg_left.row(i) + self.leg_right.row(i)
                                    for i in range(self.ambient.num_coords)])


def amalgamated_sum(f: MonoidHom, g: MonoidHom) -> PushoutData:
    """P +_R Q inside coker(P^gp + Q^gp <- R^gp), integralized and saturated."""
    if f.source != g.source:
        raise ValueError("pushout legs must share their source monoid")
    P, Q = f.target, g.target
    nP, nQ = P.ambient.num_coords, Q.ambient.num_coords
    nR = f.source.ambient.num_coords
    N = nP + nQ

    cols = ([rel + (0,) * nQ for rel in P._relation_rows]
            + [(0,) * nP + rel for rel in Q._relation_rows]
            + [f.matrix.column(j) + tuple(-x for x in g.matrix.column(j)) for j in range(nR)])
    H, proj = cokernel_projection(IntMatrix.from_columns(cols, rows=N))
    # proj sends e_j to its column j: P's coordinates come first, then Q's
    leg_left = IntMatrix.from_columns(map(proj.column, range(nP)), rows=H.num_coords)
    leg_right = IntMatrix.from_columns(map(proj.column, range(nP, N)), rows=H.num_coords)

    gens = [leg_left.apply(v) for v in P.generators] + \
           [leg_right.apply(v) for v in Q.generators]
    return PushoutData(saturate(FineMonoid.make(H, gens)), leg_left, leg_right)


def fs_pushout(f: MonoidHom, g: MonoidHom) -> SaturationReport:
    """Fine-saturated pushout of P <- R -> Q; chart form of fs fiber products."""
    return amalgamated_sum(f, g).report


def spec_component_count(P: FineMonoid, require_saturated: bool = True) -> int:
    """Connected components of Spec k[P], k algebraically closed of char 0.

    For an fs monoid this is the order of the torsion subgroup of P^gp.  The
    flag makes the fs precondition explicit; only that case is asserted.
    """
    if require_saturated and not is_saturated(P):
        raise NotSaturated("component count by torsion order needs a saturated monoid")
    return P.gp_torsion_order
