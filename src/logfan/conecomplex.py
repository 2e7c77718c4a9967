"""Generalized cone complexes: combinatorial Artin fans.

A complex is a finite diagram of strongly convex rational cones with face
maps; two face maps may share source and target, which is how self-gluing
(the nodal cubic "waffle cone") is represented without ever quotienting a
cone.  Products, stellar subdivisions and subdivision along a morphism (the
diagonal picture) live here.

Complexes built from honest fans are "embedded": every cone sits in one
ambient lattice and every face map is an identity matrix.  Subdivision
machinery requires embedded complexes; other complexes only support the
no-op cases.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from collections import Counter
from collections.abc import Iterator
from functools import cached_property
from operator import and_

from . import _geometry as geom
from ._record import Record, set_field
from .errors import (InternalInvariant, NotAFan, NotSimplicial, RayOutsideSupport,
                     ScopeExceeded)
from .lattice import (IntMatrix, Vector, hnf_coords, hnf_rows, lattice_rank, primitive,
                      saturate_subgroup, smith_normal_form)


# Desk-scale bound on the cones of a product, of an snc complex and of a
# literal complex, stated in README "Scale".
MAX_CONES = 1_000
# Bound on the composable pairs of distinct face maps `validate` checks.
MAX_COMPOSABLE_PAIRS = 100_000

# Interning table of Cone.make: one object per (rank, primitive rays), so the
# checks below and the cached properties run once per distinct cone.  Inputs
# that fail a check are never stored, so they raise on every call, and every
# key holds rays that passed them: rays found here as given need no checks.
_CONES: dict[tuple[int, tuple[Vector, ...]], "Cone"] = {}


class Cone(Record):
    """Strongly convex rational cone given by primitive ray generators."""

    lattice_rank: int
    rays: tuple[Vector, ...]

    @staticmethod
    def make(rays, rank: int) -> "Cone":
        """Looked up as given, then, on a miss, checked and normalized (once, by
        ConeGeometry.of): a hit is a stored key: primitive, sorted, sharp rays of length rank."""
        rays = tuple(map(tuple, rays))
        c = _CONES.get((rank, rays))
        if c is not None:
            return c
        if any(len(r) != rank for r in rays):
            raise ValueError("ray length does not match the lattice rank")
        g = geom.ConeGeometry.of(rays, rank)
        key = (rank, g.rays)
        c = _CONES.get(key)
        if c is None:
            if not g.is_sharp:
                raise ValueError("cone is not strongly convex")
            # keep the extreme rays: those that alone lie on the meet of
            # the facets through them; independent rays are all extreme
            full = frozenset(range(len(g.rays)))
            extreme = g.rays if len(g.rays) == g.span_dim else tuple(
                r for i, r in enumerate(g.rays)
                if full.intersection(*(f for f in g.facets if i in f)) == {i})
            c = _CONES.setdefault((rank, extreme), Cone(rank, extreme))
            _CONES[key] = c
        return c

    @staticmethod
    def zero(rank: int) -> "Cone":
        return Cone(rank, ())

    @cached_property
    def geometry(self) -> geom.ConeGeometry:
        return geom.ConeGeometry.of(self.rays, self.lattice_rank)

    @property
    def dim(self) -> int:
        return self.geometry.span_dim

    @property
    def is_simplicial(self) -> bool:
        return len(self.rays) == self.dim

    @cached_property
    def multiplicity(self) -> int:
        """Lattice-normalized volume; 1 for unimodular simplicial cones.  A
        simplicial cone's is the index of its rays' lattice in the saturated
        lattice of their span; any other cone sums it over a triangulation."""
        if self.is_simplicial:
            return geom.simplicial_index(self.rays)
        return _truncated_volume(self.rays, self.lattice_rank, dict.fromkeys(self.rays, 1), 1)

    @property
    def is_unimodular(self) -> bool:
        return self.is_simplicial and self.multiplicity == 1

    def contains(self, v) -> bool:
        return self.geometry.contains(v)

    @cached_property
    def face_ray_sets(self) -> tuple[frozenset, ...]:
        """All faces, as frozensets of ray indices, ordered by size and then
        lexicographically (zero face to the whole cone).  Those of a simplicial
        cone are all the subsets of its rays; those of any other sharp cone
        are the intersections of its facets."""
        if self.is_simplicial:
            return tuple(frozenset(s) for k in range(len(self.rays) + 1)
                         for s in itertools.combinations(range(len(self.rays)), k))
        facets = self.geometry.facets
        # seeded with the facets, so the face sets share the geometry's frozensets
        found = {frozenset(range(len(self.rays))), *facets}
        for facet in facets:
            found |= {facet & s for s in found}
        return tuple(sorted(found, key=lambda s: (len(s), sorted(s))))

    @cached_property
    def faces(self) -> tuple["Cone", ...]:
        """The faces as cones, in the order of `face_ray_sets`."""
        return tuple(Cone.make([self.rays[i] for i in s], self.lattice_rank)
                     for s in self.face_ray_sets)

    @cached_property
    def span_basis(self) -> tuple[Vector, ...]:
        """Canonical basis of the saturated span lattice."""
        return saturate_subgroup(self.rays, self.lattice_rank)


class FaceMap(Record):
    """Lattice map carrying the source cone isomorphically onto a face of the target."""

    source: int
    target: int
    matrix: IntMatrix

    def __init__(self, source: int, target: int, matrix: IntMatrix):
        set_field(self, "source", source)
        set_field(self, "target", target)
        set_field(self, "matrix", matrix)

    def is_identity(self) -> bool:
        return self.source == self.target and self.matrix.is_identity


def _face_image(src: Cone, dst: Cone, matrix: IntMatrix) -> Cone | None:
    """The face of dst that matrix carries src isomorphically onto, or None."""
    if (matrix.rows, matrix.cols) != (dst.lattice_rank, src.lattice_rank):
        return None
    image = Cone.make([primitive(matrix.apply(r)) for r in src.rays], dst.lattice_rank)
    if image not in dst.faces:
        return None
    # isomorphism onto the face: saturated span lattices must correspond
    src_basis = src.span_basis
    if len(src_basis) != image.dim:
        return None
    mapped = [matrix.apply(b) for b in src_basis]
    return image if hnf_rows(mapped) == image.span_basis else None


def check_composable_pairs(maps) -> None:
    """Raise ScopeExceeded once the distinct face maps among these (source,
    target, matrix) keys have more than MAX_COMPOSABLE_PAIRS composable
    pairs, a map into a cone followed by a map out of it.  The pairs are
    (maps into a cone) x (maps out of it), summed over the cones, and are
    counted map by map, so no key past the bound is read."""
    seen, into, out_of, pairs = set(), Counter(), Counter(), 0
    for key in maps:
        if key in seen:
            continue
        seen.add(key)
        source, target = key[0], key[1]
        into[target] += 1
        out_of[source] += 1
        # pairs that begin with the new map, end with it, or (a loop) both
        pairs += out_of[target] + into[source] - (source == target)
        if pairs > MAX_COMPOSABLE_PAIRS:
            raise ScopeExceeded(f"the face maps have more than {MAX_COMPOSABLE_PAIRS} "
                                f"composable pairs, the desk-scale bound")


class GeneralizedConeComplex(Record):
    """Finite diagram of cones and face maps; self-gluing allowed."""

    cones: tuple[Cone, ...]
    face_maps: tuple[FaceMap, ...]

    def __post_init__(self):
        n = len(self.cones)
        for fm in self.face_maps:
            if not (0 <= fm.source < n and 0 <= fm.target < n):
                raise ValueError("face map endpoints out of range")

    def validate(self) -> None:
        """Full structural check: identities, legality, closure, face-completeness.

        Closure is one check per composable pair of distinct face maps, so
        the pairs are counted, up to their bound, before any check runs."""
        key = {(fm.source, fm.target, fm.matrix) for fm in self.face_maps}
        check_composable_pairs(key)
        has_identity = {fm.source for fm in self.face_maps if fm.is_identity()}
        for i in range(len(self.cones)):
            if i not in has_identity:
                raise ValueError(f"missing identity face map for cone {i}")
        images: dict[int, set[Cone]] = {}
        for fm in self.face_maps:
            image = _face_image(self.cones[fm.source], self.cones[fm.target], fm.matrix)
            if image is None:
                raise ValueError(f"illegal face map {fm.source} -> {fm.target}")
            images.setdefault(fm.target, set()).add(image)
        by_source: dict[int, list[tuple[int, IntMatrix]]] = {}
        for source, target, matrix in key:
            by_source.setdefault(source, []).append((target, matrix))
        for source, middle, first in key:
            for target, then in by_source.get(middle, ()):
                if (source, target, then @ first) not in key:
                    raise ValueError("face maps are not closed under composition")
        for j, c in enumerate(self.cones):
            if not images.get(j, set()).issuperset(c.faces):
                raise ValueError(f"face of cone {j} is not the image of any face map")

    @property
    def cone_count(self) -> int:
        return len(self.cones)

    @property
    def ray_count(self) -> int:
        return sum(1 for c in self.cones if c.dim == 1)

    @cached_property
    def _maps_by_ends(self) -> dict[tuple[int, int], tuple[FaceMap, ...]]:
        out: dict[tuple[int, int], list[FaceMap]] = {}
        for fm in self.face_maps:
            out.setdefault((fm.source, fm.target), []).append(fm)
        return {ends: tuple(maps) for ends, maps in out.items()}

    def maps_between(self, i: int, j: int) -> tuple[FaceMap, ...]:
        return self._maps_by_ends.get((i, j), ())

    def nontrivial_face_maps(self) -> list[FaceMap]:
        return [fm for fm in self.face_maps if not fm.is_identity()]

    @cached_property
    def is_embedded(self) -> bool:
        """One ambient lattice, all face maps identity matrices."""
        ranks = {c.lattice_rank for c in self.cones}
        if len(ranks) > 1:
            return False
        return all(fm.matrix.is_identity for fm in self.face_maps)

    def maximal_cone_indices(self) -> list[int]:
        """Cones that are the source of no face map into another cone."""
        proper = {fm.source for fm in self.face_maps if fm.target != fm.source}
        return [i for i in range(len(self.cones)) if i not in proper]


def point_complex() -> GeneralizedConeComplex:
    z = Cone.zero(0)
    return GeneralizedConeComplex((z,), (FaceMap(0, 0, IntMatrix.identity(0)),))


def _embedded_from_cones(cones, rank: int) -> GeneralizedConeComplex:
    """Embedded complex from a face-closed family of cones in Z^rank."""
    seen: dict[tuple, Cone] = {}
    for c in cones:
        for f in c.faces:
            seen.setdefault(f.rays, f)
    ordered = sorted(seen.values(), key=lambda c: (c.dim, c.rays))
    index = {c.rays: i for i, c in enumerate(ordered)}
    ident = IntMatrix.identity(rank)
    # the faces of one cone are distinct, so no (source, target) pair repeats
    maps = sorted((FaceMap(index[f.rays], index[c.rays], ident)
                   for c in ordered for f in c.faces), key=lambda m: (m.source, m.target))
    return GeneralizedConeComplex(tuple(ordered), tuple(maps))


def from_toric_fan(rays, maximal_cones, rank: int) -> GeneralizedConeComplex:
    """Complex of a toric fan: all faces of the input cones, inclusion maps.

    Raises NotAFan when two input cones intersect in a non-face.
    """
    rays = [tuple(int(x) for x in r) for r in rays]
    tops = [Cone.make([rays[i] for i in mc], rank) for mc in maximal_cones]
    if not tops:
        tops = [Cone.zero(rank)]
    for a, b in itertools.combinations(tops, 2):
        inter = Cone.make(a.geometry.intersect_rays(b.geometry), rank)
        if not (inter in a.faces and inter in b.faces):
            raise NotAFan(f"cones {a.rays} and {b.rays} intersect in a non-face")
    return _embedded_from_cones(tops, rank)


def snc_artin_fan(simplices) -> GeneralizedConeComplex:
    """Cone over an intersection complex: one smooth k-cone per (k-1)-simplex.

    `simplices` is an iterable of vertex tuples (the nonempty faces, or just
    the maximal ones; the downward closure is taken).  Raises NotSimplicial
    for degenerate input, and ScopeExceeded once the faces and the zero cone
    pass MAX_CONES cones (2^k for one simplex on k vertices), counted face by
    face before any cone is built.
    """
    closed: set[tuple] = set()
    for s in simplices:
        s = tuple(s)
        if len(set(s)) != len(s):
            raise NotSimplicial(f"simplex {s} repeats a vertex")
        s = tuple(sorted(s))
        for k in range(1, len(s) + 1):
            for face in itertools.combinations(s, k):
                closed.add(face)
                if len(closed) >= MAX_CONES:
                    raise ScopeExceeded(f"the simplices give more than {MAX_CONES} cones, "
                                        f"the desk-scale bound")
    ordered = [()] + sorted(closed, key=lambda s: (len(s), s))
    cones = [Cone.make(IntMatrix.identity(len(s)).as_rows(), len(s)) if s else Cone.zero(0)
             for s in ordered]
    index = {s: i for i, s in enumerate(ordered)}
    shared: dict[tuple, IntMatrix] = {}   # one matrix per len(s) and positions of t in s
    maps = []
    for s in ordered:
        unit = IntMatrix.identity(len(s))
        for k in range(0, len(s) + 1):
            for t in itertools.combinations(s, k):
                key = (len(s), tuple(map(s.index, t)))
                if key not in shared:
                    shared[key] = IntMatrix.from_columns(map(unit.row, key[1]), rows=len(s))
                maps.append(FaceMap(index[t], index[s], shared[key]))
    return GeneralizedConeComplex(tuple(cones), tuple(maps))


def nodal_cubic_complex() -> GeneralizedConeComplex:
    """The waffle cone: one quadrant with both facets glued onto a single ray."""
    zero = Cone.zero(0)
    rho = Cone.make([(1,)], 1)
    sigma = Cone.make([(1, 0), (0, 1)], 2)
    cones = (zero, rho, sigma)
    maps = (
        FaceMap(0, 0, IntMatrix.identity(0)),
        FaceMap(1, 1, IntMatrix.identity(1)),
        FaceMap(2, 2, IntMatrix.identity(2)),
        FaceMap(0, 1, IntMatrix.zero(1, 0)),
        FaceMap(0, 2, IntMatrix.zero(2, 0)),
        FaceMap(1, 2, IntMatrix.from_columns([(1, 0)], rows=2)),
        FaceMap(1, 2, IntMatrix.from_columns([(0, 1)], rows=2)),
    )
    return GeneralizedConeComplex(cones, maps)


class ComplexMorphism(Record):
    """Morphism of complexes: a cone assignment commuting with face maps."""

    source: GeneralizedConeComplex
    target: GeneralizedConeComplex
    assignment: tuple[tuple[int, IntMatrix], ...]

    def __post_init__(self):
        if len(self.assignment) != len(self.source.cones):
            raise ValueError("assignment must cover every source cone")
        for i, (j, m) in enumerate(self.assignment):
            src, dst = self.source.cones[i], self.target.cones[j]
            if (m.rows, m.cols) != (dst.lattice_rank, src.lattice_rank):
                raise ValueError("assignment matrix shape mismatch")
            for r in src.rays if m.is_identity else map(m.apply, src.rays):
                if not dst.contains(r):
                    raise ValueError(f"cone {i} does not land inside target cone {j}")
        images: dict[tuple[int, int, int], set] = {}   # one image set per (ja, jb, ma)
        for fm in self.source.face_maps:
            ja, ma = self.assignment[fm.source]
            jb, mb = self.assignment[fm.target]
            # psi.matrix @ ma has the shape of mb @ fm.matrix, so entries decide;
            # the assignment keeps ma alive, so its id names it
            found = images.get((ja, jb, id(ma)))
            if found is None:
                found = images[ja, jb, id(ma)] = {
                    (psi.matrix @ ma).entries for psi in self.target.maps_between(ja, jb)}
            if (mb @ fm.matrix).entries not in found:
                raise ValueError("assignment does not commute with a face map")

    def image_cone_rays(self, i: int) -> tuple[Vector, ...]:
        j, m = self.assignment[i]
        return geom.primitive_rays(m.apply(r) for r in self.source.cones[i].rays)


def identity_morphism(F: GeneralizedConeComplex) -> ComplexMorphism:
    return ComplexMorphism(F, F, tuple(
        (i, IntMatrix.identity(c.lattice_rank)) for i, c in enumerate(F.cones)))


def product(F: GeneralizedConeComplex, G: GeneralizedConeComplex) -> GeneralizedConeComplex:
    """Product complex: pairs of cones, pairs of face maps, sum lattices.

    Raises ScopeExceeded, before building anything, past MAX_CONES cones."""
    count = len(F.cones) * len(G.cones)
    if count > MAX_CONES:
        raise ScopeExceeded(f"the product would have {count} cones, "
                            f"above the desk-scale bound {MAX_CONES}")
    cones = []
    for cf in F.cones:
        for cg in G.cones:
            rank = cf.lattice_rank + cg.lattice_rank
            rays = [r + (0,) * cg.lattice_rank for r in cf.rays] + \
                   [(0,) * cf.lattice_rank + s for s in cg.rays]
            cones.append(Cone.make(rays, rank) if rays else Cone.zero(rank))

    def idx(i, j):
        return i * len(G.cones) + j

    # one block-diagonal matrix per pair of matrix objects (F and G keep them
    # alive, so their ids name them): the maps of an embedded complex share one
    maps, blocks = [], {}
    for mf in F.face_maps:
        for mg in G.face_maps:
            a, b = mf.matrix, mg.matrix
            block = blocks.get((id(a), id(b)))
            if block is None:
                entries = [x for r in range(a.rows) for x in a.row(r) + (0,) * b.cols] + \
                          [x for r in range(b.rows) for x in (0,) * a.cols + b.row(r)]
                block = blocks[id(a), id(b)] = IntMatrix(a.rows + b.rows, a.cols + b.cols,
                                                         tuple(entries))
            maps.append(FaceMap(idx(mf.source, mg.source), idx(mf.target, mg.target), block))
    return GeneralizedConeComplex(tuple(cones), tuple(maps))


def _projection(offset: int, rows: int, cols: int) -> IntMatrix:
    """Z^cols onto its `rows` coordinates starting at `offset`."""
    unit = IntMatrix.identity(cols).entries
    return IntMatrix(rows, cols, unit[offset * cols:(offset + rows) * cols])


def product_projections(F, G) -> tuple[ComplexMorphism, ComplexMorphism]:
    P = product(F, G)
    left, right = [], []
    for i, cf in enumerate(F.cones):
        for j, cg in enumerate(G.cones):
            a, b = cf.lattice_rank, cg.lattice_rank
            left.append((i, _projection(0, a, a + b)))
            right.append((j, _projection(a, b, a + b)))
    return (ComplexMorphism(P, F, tuple(left)), ComplexMorphism(P, G, tuple(right)))


def diagonal_morphism(F: GeneralizedConeComplex) -> ComplexMorphism:
    """The diagonal F -> F x F."""
    P = product(F, F)
    n = len(F.cones)
    assignment = []
    for i, c in enumerate(F.cones):
        r = c.lattice_rank
        # columns (e_j, e_j): the identity stacked on itself
        assignment.append((i * n + i, IntMatrix(2 * r, r, IntMatrix.identity(r).entries * 2)))
    return ComplexMorphism(F, P, tuple(assignment))


class Subdivision(Record):
    """A refinement of a complex, given by its structure morphism."""

    structure: ComplexMorphism        # refined -> original

    @property
    def refined(self) -> GeneralizedConeComplex:
        return self.structure.source

    def is_trivial(self) -> bool:
        return self.refined == self.structure.target

    def all_unimodular(self) -> bool:
        """Is every maximal refined cone unimodular?"""
        cones = self.refined.cones
        return all(cones[i].is_unimodular for i in self.refined.maximal_cone_indices())

    def support_volumes_ok(self) -> bool:
        """Support preservation: refined pieces tile each original maximal cone."""
        orig = self.structure.target
        return all(_tiled_by(orig.cones[j].geometry, self.refined.cones)
                   for j in orig.maximal_cone_indices())


def _tiled_by(g: geom.ConeGeometry, cones) -> bool:
    """Do the cones of g's dimension lying inside g tile it?

    Volumes are compared after truncating by g's grading, positive on g,
    which makes the lattice-normalized volume additive across any
    subdivision.  Scaled by T^d, T the lcm of the rays' heights under the
    grading, every truncated volume is an integer.
    """
    if g.span_dim == 0:
        return True
    inside = [c for c in cones if c.dim == g.span_dim and g.contains_cone(c.geometry)]
    heights = {r: geom.dot(g.grading, r) for c in [g, *inside] for r in c.rays}
    if min(heights.values()) <= 0:
        raise InternalInvariant("height functional must be positive on the cone")
    T = math.lcm(*heights.values())
    have = sum(_truncated_volume(c.rays, c.lattice_rank, heights, T) for c in inside)
    return have == _truncated_volume(g.rays, g.dim, heights, T)


def _truncated_volume(rays, rank: int, heights, T: int) -> int:
    """T^d times the normalized volume of the d-dimensional cone(rays) in
    Z^rank truncated at ell(x) <= 1, ell(r) = heights[r] for each ray r: the
    sum over the placing triangulation of the simplicial indices, scaled."""
    total = 0
    for s in geom.triangulate(list(rays), rank):
        block = [rays[i] for i in s]
        total += geom.simplicial_index(block) * math.prod(T // heights[r] for r in block)
    return total


def star_subdivision(F: GeneralizedConeComplex, cone_index: int, ray) -> Subdivision:
    """Stellar subdivision at a primitive ray located in a named cone.

    Subdividing at an existing ray is the identity subdivision.  Genuine
    subdivision requires an embedded complex.
    """
    v = primitive(ray)
    if geom.is_zero(v):
        raise RayOutsideSupport("the zero vector generates no ray")
    if not (0 <= cone_index < len(F.cones)):
        raise ValueError("cone index out of range")
    home = F.cones[cone_index]
    if home.lattice_rank != len(v) or not home.contains(v):
        home = next((c for c in F.cones if c.lattice_rank == len(v) and c.contains(v)), None)
        if home is None:
            raise RayOutsideSupport(f"{v} lies in no cone of the complex")
    if v in home.rays:
        return Subdivision(identity_morphism(F))
    if not F.is_embedded:
        raise ScopeExceeded("stellar subdivision needs an embedded complex "
                            "(one lattice, identity face maps)")
    return _homed(F, _stellar({c: i for i, c in enumerate(F.cones)}, v))


def _homed(original: GeneralizedConeComplex, home_of: dict[Cone, int]) -> Subdivision:
    """The subdivision of an embedded complex into the cones of home_of, whose
    structure morphism sends each cone to its home, the smallest original
    cone containing it."""
    refined = _embedded_from_cones(home_of, original.cones[0].lattice_rank)
    return Subdivision(ComplexMorphism(refined, original, tuple(
        (home_of[c], IntMatrix.identity(c.lattice_rank)) for c in refined.cones)))


def _stellar(home_of: dict[Cone, int], v: Vector) -> dict[Cone, int]:
    """Stellar subdivision at a primitive ray v of the support of an embedded
    complex in progress, given as the home map of its cones: the home map of
    the result, or home_of itself when v is already a ray.

    home_of[c] is the index of the smallest original cone containing c.  A
    kept cone keeps its home.  A new cone fc + v, for fc a face of a cone c
    around tau (the cone holding v in its relative interior), has the home of
    the join of fc and tau in c, the smallest face of c with both as faces:
    relint(fc) + relint(tau) lies in relint(join), and so does the relative
    interior of fc + v.
    """
    tau = next((c for c in home_of if c.geometry.contains_relative_interior(v)), None)
    if tau is None:
        raise InternalInvariant("embedded complex must have a relative-interior home")
    if v in tau.rays:
        return home_of
    rank = tau.lattice_rank
    out = {}
    for c, h in home_of.items():
        # faces are interned, as tau (never the zero cone) is: found by identity
        k = next((k for k, f in enumerate(c.faces) if f is tau), None)
        if k is None:
            out[c] = h
            continue
        sets = c.face_ray_sets
        ts = sets[k]
        for s, fc in zip(sets, c.faces):
            if not ts <= s:
                join = next(f for u, f in zip(sets, c.faces) if s | ts <= u)
                out[Cone.make(fc.rays + (v,), rank)] = home_of[join]
    return out


class ImageConeFlag(Record):
    """The image of source cone `index`, of dimension `dim` >= 2, and whether
    its naive star in every target cone around it is a fan.

    The naive star of an image cone I in a target cone T around it cones I
    to each proper face of T that neither meets the relative interior of I
    nor lies in I; it is a fan when no two of these wedges of full dimension
    overlap in full dimension.  `subdivide_along` only asks this for I =
    cone(a, b) of dimension 2 and T simplicial of dimension k >= 3 (the
    target is simplicial and T is a cone of higher dimension than I), and
    there the naive star is never a fan:

    1. Let F be the smallest face of T containing I.  In the coordinates of
       T's rays, a and b are independent and supported on F's rays, so some
       two rays s, s' of F give a nonzero 2x2 minor of (a, b).
    2. Let Ts and Ts' be the facets of T without s and without s'.  Neither
       meets relint I: the s (or s') coordinate of a point of relint I is a
       positive combination of those of a and b, not both zero.  So neither
       lies in I either, as a facet, of dimension k - 1 >= 2, inside I would.
    3. By the minor, a, b and the rays of T other than s and s' form a basis,
       and a + b plus those rays is interior to the cone they span.  That
       cone lies in the wedges over Ts and Ts', so they overlap in full
       dimension.

    So `naive_star_convex` is true exactly when no target cone of higher
    dimension contains the image."""

    index: int
    dim: int
    naive_star_convex: bool


class DiagonalSubdivision(Record):
    """Result of subdividing along a morphism.

    Carries the fan refinement of the target, the subcomplex of refined
    cones inside the image closure, and (when the image cones survived as
    cones of the refinement) the factoring morphism through that subcomplex.
    """

    subdivision: Subdivision
    image_subcomplex: GeneralizedConeComplex
    factoring: ComplexMorphism | None
    image_flags: tuple[ImageConeFlag, ...]


def _check_source_scope(F: GeneralizedConeComplex) -> None:
    if any(c.dim > 2 for c in F.cones):
        raise ScopeExceeded("source cones of dimension > 2 are out of scope")


# Interning table of subdivide_along_diagonal: one result per equal complex.
# A refused complex is never stored, so it raises on every call.
_DIAGONALS: dict[GeneralizedConeComplex, DiagonalSubdivision] = {}


def subdivide_along_diagonal(F: GeneralizedConeComplex) -> DiagonalSubdivision:
    """subdivide_along(diagonal_morphism(F)), with the scope of F checked
    before F x F is built, computed once per equal F."""
    res = _DIAGONALS.get(F)
    if res is None:
        _check_source_scope(F)
        res = _DIAGONALS[F] = subdivide_along(diagonal_morphism(F))
    return res


def subdivide_along(phi: ComplexMorphism) -> DiagonalSubdivision:
    """Refine the target of phi along the images of the source cones.

    The target is cut by stellar subdivision at the primitive image rays,
    in lex order.  A cut keeps an image cone that is a union of cones one,
    as each new cone fc + v lies in the cone it replaces.  But a cut at one
    image cone's ray can cross another image cone through a point that is
    no ray, before that cone's own rays are cut: in the 3-d orthant, the cut
    at (0, 1, 1) crosses cone((0, 0, 1), (1, 1, 0)) at (1, 1, 1).  So while
    an image cone is not a union of cones, a round cuts the first such cone
    at the sum of its rays.  Each 2-d image cone is flagged (see
    ImageConeFlag).  Every cone stays simplicial (the target's are, and
    fc + v has independent rays), so faces and multiplicities come from the
    rays, and the cones inside the image are found ray by ray (`_inside`).
    """
    target = phi.target
    _check_source_scope(phi.source)
    if not target.is_embedded:
        raise ScopeExceeded("subdividing needs an embedded target "
                            "(one lattice, identity face maps)")
    if any(c.dim > 4 for c in target.cones) or \
            any(not c.is_simplicial for c in target.cones):
        raise ScopeExceeded("target must be simplicial of dimension <= 4")
    rank = target.cones[0].lattice_rank if target.cones else 0

    image_geoms = []
    image_ray_pool = set()
    for i in range(len(phi.source.cones)):
        rays = phi.image_cone_rays(i)
        image_geoms.append(geom.ConeGeometry.of(rays, rank))
        image_ray_pool.update(rays)

    image_flags = []
    for i, ig in enumerate(image_geoms):
        if ig.span_dim >= 2:
            homes = [c for c in target.cones
                     if c.dim > ig.span_dim and c.geometry.contains_cone(ig)]
            image_flags.append(ImageConeFlag(i, ig.span_dim, not homes))

    # Every cut lies in the support, as phi is a morphism; the refined complex
    # and its structure morphism are built once, from the final home map.
    unrefined = home_of = {c: i for i, c in enumerate(target.cones)}
    for v in sorted(image_ray_pool):
        home_of = _stellar(home_of, v)

    rounds = 0
    while True:
        pending = [ig for ig in image_geoms if not _tiled_by(ig, home_of)]
        if not pending:
            break
        rounds += 1
        if rounds > 16:
            raise ScopeExceeded("image cones did not resolve after 16 barycenter rounds")
        home_of = _stellar(home_of, primitive(tuple(map(sum, zip(*pending[0].rays)))))

    if home_of is unrefined:    # no cut changed anything: keep the target's cone order
        sub = Subdivision(identity_morphism(target))
    else:
        sub = _homed(target, home_of)

    inside = _inside(home_of, image_geoms)
    image_subcomplex = _embedded_from_cones(inside, rank) if inside else point_complex()

    # the factoring exists when every image cone is a cone of the subcomplex
    lookup = {c.rays: i for i, c in enumerate(image_subcomplex.cones)}
    found = [lookup.get(ig.rays) for ig in image_geoms]
    factoring = None if None in found else ComplexMorphism(
        phi.source, image_subcomplex, tuple((j, m) for j, (_, m) in zip(found, phi.assignment)))
    return DiagonalSubdivision(sub, image_subcomplex, factoring, tuple(image_flags))


def _inside(cones, images: list[geom.ConeGeometry]) -> list[Cone]:
    """The cones lying in some image cone.  A cone does when all its rays lie
    in one image cone, so each distinct ray gets a bitmask of the image cones
    holding it, and a cone is inside when its rays' masks share a bit."""
    holders = {r: sum(1 << i for i, ig in enumerate(images) if ig.contains(r))
               for r in {r for c in cones for r in c.rays}}
    every = (1 << len(images)) - 1
    return [c for c in cones if functools.reduce(and_, map(holders.get, c.rays), every)]


# ------------------------------------------------------------------ rendering

def face_poset_dot(K: GeneralizedConeComplex) -> str:
    out = ["digraph face_poset {"]
    for i, c in enumerate(K.cones):
        out.append(f'  c{i} [label="c{i} (dim {c.dim})"];')
    for fm in K.nontrivial_face_maps():
        out.append(f"  c{fm.source} -> c{fm.target};")
    out.append("}")
    return "\n".join(out) + "\n"


# ------------------------------------------------------------- isomorphism

# Bounds on the basis placements `_iso_candidates` would try for one pair of
# cones, checked for every cone before the search, and on the placements of a
# cone on a cone `is_isomorphic` tries.
MAX_ISO_CANDIDATES = 20_000
MAX_ISO_PLACEMENTS = 100_000


def _tighten(K: GeneralizedConeComplex) -> GeneralizedConeComplex:
    """Re-express every cone in the saturated lattice of its own span."""
    bases = []
    new_cones = []
    for c in K.cones:
        basis, coords = geom.cone_lattice_coords(c.rays, c.lattice_rank)
        bases.append(basis)
        new_cones.append(Cone.make(coords, len(basis)))
    new_maps = []
    for fm in K.face_maps:
        sb, tb = bases[fm.source], bases[fm.target]
        cols = [hnf_coords(fm.matrix.apply(b), tb) for b in sb]
        if None in cols:
            raise InternalInvariant("face map leaves the span lattice of its target")
        new_maps.append(FaceMap(fm.source, fm.target,
                                IntMatrix.from_columns(cols, rows=len(tb))))
    return GeneralizedConeComplex(tuple(new_cones), tuple(new_maps))


def _cone_invariants(K: GeneralizedConeComplex) -> list[tuple]:
    """(dim, ray count, multiplicity, maps in, maps out) of each cone."""
    ins = Counter(fm.target for fm in K.face_maps)
    outs = Counter(fm.source for fm in K.face_maps)
    return [(c.dim, len(c.rays), c.multiplicity, ins[i], outs[i])
            for i, c in enumerate(K.cones)]


def _iso_candidates(c1: Cone, c2: Cone) -> Iterator[IntMatrix]:
    """Unimodular maps carrying c1 onto c2 (tight cones of one rank and ray count).

    Such a map sends rays to rays and is fixed by the images of a basis
    chosen from the rays of c1, so only the k!/(k-n)! placements of that
    basis on the k rays of c2 are tried, each when the map before it has
    been read.
    """
    n = c1.lattice_rank
    if n == 0:
        yield IntMatrix.identity(0)
        return
    basis = []
    for r in c1.rays:
        if lattice_rank(basis + [r]) > len(basis):
            basis.append(r)
    if len(basis) != n:
        raise InternalInvariant("a tight cone spans its lattice")
    # U A = B has the integer solution B (d A^-1) / d when d divides B (d A^-1).
    # With A = basis columns in Smith form, d A^-1 = V (d D^-1) U is integral
    # for d the last invariant factor, which every other one divides.
    snf = smith_normal_form(IntMatrix.from_columns(basis, rows=n))
    d = snf.diagonal()[-1]
    adj = snf.V @ IntMatrix.from_rows([[d // di * x for x in snf.U.row(i)]
                                       for i, di in enumerate(snf.diagonal())])
    for images in itertools.permutations(c2.rays, n):
        dU = IntMatrix.from_columns(images, rows=n) @ adj
        if any(x % d for x in dU.entries):
            continue
        U = IntMatrix(n, n, tuple(x // d for x in dU.entries))
        # U is unimodular exactly when its rows' HNF is the identity; `simplicial_index`
        # would refuse a U of a few times the rays' bits, which is in scope
        if {primitive(U.apply(r)) for r in c1.rays} == set(c2.rays) and \
                IntMatrix.from_rows(hnf_rows(U.as_rows())).is_identity:
            yield U


def is_isomorphic(F: GeneralizedConeComplex, G: GeneralizedConeComplex) -> bool:
    """Isomorphism search over cone bijections with lattice identifications.

    Raises ScopeExceeded when a cone of k rays and dimension n has more than
    MAX_ISO_CANDIDATES basis placements, k!/(k-n)!, checked for every cone
    once the counts agree and before any cone is re-expressed."""
    if len(F.cones) != len(G.cones) or len(F.face_maps) != len(G.face_maps):
        return False
    shape = sorted((c.dim, len(c.rays)) for c in F.cones)
    if shape != sorted((c.dim, len(c.rays)) for c in G.cones):
        return False
    for dim, k in shape:
        if math.perm(k, dim) > MAX_ISO_CANDIDATES:
            raise ScopeExceeded(f"a cone with {k} rays in rank {dim} has more than "
                                f"{MAX_ISO_CANDIDATES} isomorphism candidates")
    Ft, Gt = _tighten(F), _tighten(G)
    n = len(Ft.cones)
    inv_f, inv_g = _cone_invariants(Ft), _cone_invariants(Gt)
    if sorted(inv_f) != sorted(inv_g):
        return False
    # Place each cone right after one it shares a face map with, so that the
    # face maps prune a wrong choice at once.  The zero cone, a face of every
    # cone, links nothing.
    key = {i: (-Ft.cones[i].dim, inv_f[i], i) for i in range(n)}
    touching: dict[int, list[FaceMap]] = {i: [] for i in range(n)}
    for fm in Ft.face_maps:
        touching[fm.source].append(fm)
        if fm.source != fm.target:
            touching[fm.target].append(fm)
    order: list[int] = []
    placed: set[int] = set()
    for start in sorted(range(n), key=key.get):
        heap = [(key[start], start)]
        while heap:
            _, i = heapq.heappop(heap)
            if i not in placed:
                placed.add(i)
                order.append(i)
                for j in (fm.source + fm.target - i for fm in touching[i]
                          if Ft.cones[fm.source].dim):
                    heapq.heappush(heap, (key[j], j))
    # One memo per cone pair, filled as it is read and read by index, so each
    # candidate is computed once and every read of a pair sees all of them.
    memo: dict[tuple[int, int], tuple[list[IntMatrix], Iterator[IntMatrix]]] = {}

    def candidates(i: int, j: int) -> Iterator[IntMatrix]:
        if (i, j) not in memo:
            memo[i, j] = [], _iso_candidates(Ft.cones[i], Gt.cones[j])
        found, more = memo[i, j]
        for k in itertools.count():
            if k == len(found):
                u = next(more, None)
                if u is None:
                    return
                found.append(u)
            yield found[k]

    tried = 0

    def extend(pos: int, bij: dict, isos: dict) -> bool:
        nonlocal tried
        if pos == n:
            return True
        i = order[pos]
        for j in range(n):
            if j in bij.values() or inv_g[j] != inv_f[i]:
                continue
            for u in candidates(i, j):
                tried += 1
                if tried > MAX_ISO_PLACEMENTS:
                    raise ScopeExceeded(f"the isomorphism search tried more than "
                                        f"{MAX_ISO_PLACEMENTS} placements of a cone")
                bij[i] = j
                isos[i] = u
                # the maps between earlier cones were checked when they were placed
                if _consistent(Ft, Gt, touching[i], bij, isos) and \
                        extend(pos + 1, bij, isos):
                    return True
                del bij[i]
                del isos[i]
        return False

    return extend(0, {}, {})


def _consistent(Ft, Gt, face_maps, bij, isos) -> bool:
    """Do the placed cones carry each of these face maps between them to a
    map of Gt, with as many maps between their images as between them?"""
    for fm in face_maps:
        if fm.source in bij and fm.target in bij:
            images = Gt.maps_between(bij[fm.source], bij[fm.target])
            if len(images) != len(Ft.maps_between(fm.source, fm.target)):
                return False
            # need psi with psi @ ua == ub @ fm.matrix
            lhs = isos[fm.target] @ fm.matrix
            if not any(psi.matrix @ isos[fm.source] == lhs for psi in images):
                return False
    return True
