"""The cone layer's answers read off the rays, against the general polyhedral
computations they replaced.

Each oracle below is the earlier implementation, kept here so the shortcut is
checked against it on seeded cones of ranks 1-6 (simplicial and not, with
redundant generators) and on every cone of the P^1, A^2 and P^2 log
diagonals and the F_1, F_2 and F_3 diagonal subdivisions:

* `facet_closure_face_ray_sets` closes the facets under intersection, where
  a simplicial cone now lists every subset of its rays;
* `facet_meet_extreme_rays` keeps each ray that alone lies on the meet of the
  facets through it, where independent rays are now all kept;
* `triangulated_multiplicity` sums the simplicial indices of a triangulation,
  where a simplicial cone now takes its own index, and is compared with
  `ConeGeometry.grading`, the sum of the facet normals, on seeded cones;
* `contains_cone_inside` tests every cone against every image cone, where
  `_inside` now takes one bitmask of image cones per distinct ray;
* `per_map_product` builds one block-diagonal matrix per pair of face maps,
  where `product` now builds one per pair of matrix objects;
* `per_map_commuting_check` searches the target maps for each face map of a
  morphism, where `ComplexMorphism` now builds one set of images per
  (target end, target end, assignment matrix) and looks each face map up;
* `ConeGeometry.span_dim`, the rank of the rays, is compared with the rank
  left by the double description's equations.
"""

import collections
import random

from logfan import _geometry as geom
from logfan import conecomplex as cc
from logfan import hkr
from logfan.conecomplex import Cone, FaceMap, GeneralizedConeComplex
from logfan.lattice import IntMatrix, lattice_rank
from logfan.logmodel import affine_space_model, p1_toric_model, p2_toric_model


# ------------------------------------------------------------------ oracles

def facet_closure_face_ray_sets(c: Cone):
    facets = c.geometry.facets
    found = {frozenset(range(len(c.rays))), *facets}
    for facet in facets:
        found |= {facet & s for s in found}
    return tuple(sorted(found, key=lambda s: (len(s), sorted(s))))


def facet_meet_extreme_rays(rays, rank):
    g = geom.ConeGeometry.of(geom.primitive_rays(rays), rank)
    full = frozenset(range(len(g.rays)))
    return tuple(r for i, r in enumerate(g.rays)
                 if full.intersection(*(f for f in g.facets if i in f)) == {i})


def triangulated_multiplicity(c: Cone):
    if not c.rays:
        return 1
    return sum(geom.simplicial_index([c.rays[i] for i in s])
               for s in geom.triangulate(list(c.rays), c.lattice_rank))


def contains_cone_inside(cones, images):
    return [c for c in cones if any(ig.contains_cone(c.geometry) for ig in images)]


def per_map_product(F: GeneralizedConeComplex, G: GeneralizedConeComplex):
    cones = []
    for cf in F.cones:
        for cg in G.cones:
            rank = cf.lattice_rank + cg.lattice_rank
            rays = [r + (0,) * cg.lattice_rank for r in cf.rays] + \
                   [(0,) * cf.lattice_rank + s for s in cg.rays]
            cones.append(Cone.make(rays, rank) if rays else Cone.zero(rank))
    maps = []
    for mf in F.face_maps:
        for mg in G.face_maps:
            a, b = mf.matrix, mg.matrix
            entries = [x for r in range(a.rows) for x in a.row(r) + (0,) * b.cols] + \
                      [x for r in range(b.rows) for x in (0,) * a.cols + b.row(r)]
            maps.append(FaceMap(mf.source * len(G.cones) + mg.source,
                                mf.target * len(G.cones) + mg.target,
                                IntMatrix(a.rows + b.rows, a.cols + b.cols, tuple(entries))))
    return GeneralizedConeComplex(tuple(cones), tuple(maps))


def per_map_commuting_check(source, target, assignment):
    for fm in source.face_maps:
        ja, ma = assignment[fm.source]
        jb, mb = assignment[fm.target]
        want = (mb @ fm.matrix).entries
        if not any((psi.matrix @ ma).entries == want for psi in target.maps_between(ja, jb)):
            raise ValueError("assignment does not commute with a face map")


# ------------------------------------------------------------ seeded inputs

def _vector(rng, rank):
    v = (0,) * rank
    while not any(v):
        v = tuple(rng.randint(-3, 3) for _ in range(rank))
    return v


def _seeded_rays(rng, rank):
    """Rays of a cone in Z^rank: independent ones (simplicial), or more
    than the rank (not), then at times a positive combination of two of
    them or a multiple of one, so that some generators are redundant."""
    if rng.random() < 0.5:
        rays = []
        for _ in range(rng.randint(1, rank)):
            v = _vector(rng, rank)
            if lattice_rank(rays + [v]) > len(rays):
                rays.append(v)
    else:
        rays = [_vector(rng, rank) for _ in range(rng.randint(2, rank + 2))]
    if rng.random() < 0.4:
        a, b = rng.choice(rays), rng.choice(rays)
        rays.append(tuple(rng.randint(1, 3) * x + rng.randint(0, 2) * y for x, y in zip(a, b)))
    return rays


def _seeded_cones():
    """(rank, input rays, sharp cone) for 600 seeded inputs, the sharp ones."""
    rng = random.Random(97)
    out = []
    for _ in range(600):
        rank = rng.randint(1, 6)
        rays = _seeded_rays(rng, rank)
        try:
            out.append((rank, rays, Cone.make(rays, rank)))
        except ValueError:          # not strongly convex
            continue
    return out


def _check_cone(c: Cone):
    assert c.face_ray_sets == facet_closure_face_ray_sets(c), c
    assert c.faces == tuple(Cone.make([c.rays[i] for i in s], c.lattice_rank)
                            for s in c.face_ray_sets), c
    assert c.multiplicity == triangulated_multiplicity(c), c


def test_seeded_cones_match_the_polyhedral_oracles():
    seen = collections.Counter()
    for rank, rays, c in _seeded_cones():
        assert c.rays == facet_meet_extreme_rays(rays, rank), (rays, rank)
        _check_cone(c)
        seen["simplicial" if c.is_simplicial else "not simplicial"] += 1
        seen["redundant"] += len(c.rays) < len(geom.primitive_rays(rays))
        seen[rank] += 1
    assert min(seen[k] for k in ("simplicial", "not simplicial", "redundant")) >= 50, seen
    assert all(seen[rank] >= 20 for rank in range(1, 7)), seen


def test_grading_sums_the_facet_normals_and_is_positive_on_sharp_cones():
    """Seeded cones in rank up to 4, simplicial or not, of full dimension or
    not: the grading is the column sums of the normals, positive on every
    ray of a sharp cone.  The multiplicity of a cone that is not simplicial,
    a unit-height truncated volume, is the sum over its triangulation."""
    rng = random.Random(107)
    seen = collections.Counter()
    for _ in range(400):
        k = rng.randint(1, 4)
        rank = rng.randint(k, 4)
        B = IntMatrix(rank, k, tuple(rng.randint(-2, 2) for _ in range(rank * k)))
        # rays in an orthant of Z^k, which span a sharp cone there, or anywhere
        rays = ([tuple(rng.randint(0, 3) for _ in range(k)) for _ in range(rng.randint(1, k + 3))]
                if rng.random() < 0.6 else _seeded_rays(rng, k))
        g = geom.ConeGeometry.of([B.apply(r) for r in rays], rank)
        assert g.grading == tuple(sum(n[i] for n in g.normals) for i in range(rank)), g
        if not g.is_sharp:
            continue
        assert all(geom.dot(g.grading, r) > 0 for r in g.rays), g
        c = Cone.make(g.rays, rank)
        assert c.multiplicity == triangulated_multiplicity(c), c
        seen["simplicial" if c.is_simplicial else "not simplicial"] += 1
        seen["full" if g.span_dim == rank else "not full"] += 1
    assert min(seen.values()) >= 40 and len(seen) == 4, seen
    # the cone over a square, in a 3-d span of Z^4: two simplices of index 2
    square = Cone.make([(1, 0, 1, 0), (0, 1, 1, 0), (-1, 0, 1, 0), (0, -1, 1, 0)], 4)
    assert not square.is_simplicial
    assert square.multiplicity == triangulated_multiplicity(square) == 4


def test_inside_matches_the_containment_scan_on_seeded_cones():
    by_rank = collections.defaultdict(list)
    for rank, rays, c in _seeded_cones():
        by_rank[rank].append(c)
    rng = random.Random(101)
    hits = 0
    for rank, cones in sorted(by_rank.items()):
        cones = [Cone.zero(rank), *dict.fromkeys(f for c in cones for f in c.faces)]
        for _ in range(10):
            images = [geom.ConeGeometry.of(rng.choice(cones).rays, rank)
                      for _ in range(rng.randint(0, 4))]
            got = cc._inside(cones, images)
            assert got == contains_cone_inside(cones, images), (rank, images)
            hits += len(got)
    assert hits >= 500


def _seeded_complexes():
    rng = random.Random(103)
    out = [cc.point_complex(), cc.nodal_cubic_complex(),
           cc.from_toric_fan([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0)], 2)]
    for _ in range(4):
        k = rng.randint(1, 3)
        out.append(cc.snc_artin_fan([tuple(rng.sample(range(k + 1), rng.randint(1, k)))
                                     for _ in range(rng.randint(1, 3))]))
    return out


def test_product_matches_the_per_map_oracle_on_seeded_complexes():
    complexes = _seeded_complexes()
    for F in complexes:
        for G in complexes:
            P = cc.product(F, G)
            assert P == per_map_product(F, G)
            # one block per pair of distinct matrix objects, shared by its maps
            pairs = {(id(mf.matrix), id(mg.matrix)) for mf in F.face_maps for mg in G.face_maps}
            assert len({id(fm.matrix) for fm in P.face_maps}) == len(pairs)


def test_every_cone_of_the_diagonals_matches_the_oracles(monkeypatch):
    """From empty intern tables: every interned cone, every `_inside` and
    every `product` call the diagonals make.  The table of diagonal
    subdivisions is emptied before each one, as the P^1 and A^2 fans are
    subdivided twice."""
    monkeypatch.setattr(cc, "_CONES", {})
    monkeypatch.setattr(geom, "_GEOMETRIES", {})
    insides, products = [], []
    real_inside, real_product = cc._inside, cc.product

    def inside(cones, images):
        insides.append((list(cones), images, real_inside(cones, images)))
        return insides[-1][2]

    def product(F, G):
        products.append((F, G, real_product(F, G)))
        return products[-1][2]

    monkeypatch.setattr(cc, "_inside", inside)
    monkeypatch.setattr(cc, "product", product)
    for model in (p1_toric_model(), affine_space_model(2), p2_toric_model()):
        cc._DIAGONALS.clear()
        hkr.log_diagonal(model)
    fans = [([(1,), (-1,)], [(0,), (1,)], 1), ([(1, 0), (0, 1)], [(0, 1)], 2)]
    fans += [([(1, 0), (0, 1), (-1, a), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)], 2)
             for a in (1, 2, 3)]
    for rays, cones, rank in fans:
        cc._DIAGONALS.clear()
        cc.subdivide_along_diagonal(cc.from_toric_fan(rays, cones, rank))
    assert len(insides) == len(products) == 8
    for cones, images, got in insides:
        assert got == contains_cone_inside(cones, images)
    for F, G, got in products:
        assert got == per_map_product(F, G)
    assert len(cc._CONES) >= 500
    for (rank, rays), c in list(cc._CONES.items()):
        assert c.rays == facet_meet_extreme_rays(rays, rank), (rays, rank)
        _check_cone(c)


def _commuting_verdict(check, source, target, assignment):
    try:
        check(source, target, assignment)
    except ValueError as e:
        return str(e)
    return None


def _lands(phi_source, target, assignment):
    return all(target.cones[j].contains(m.apply(r))
               for c, (j, m) in zip(phi_source.cones, assignment) for r in c.rays)


def _corruptions(rng, phi, count):
    """Copies of phi's assignment with one cone sent to another target cone,
    or one matrix entry moved by one, that still land inside the target."""
    out = []
    for _ in range(count):
        assignment = list(phi.assignment)
        i = rng.randrange(len(assignment))
        j, m = assignment[i]
        if rng.random() < 0.5:
            others = [k for k, c in enumerate(phi.target.cones)
                      if k != j and c.lattice_rank == m.rows]
            if not others:
                continue
            assignment[i] = (rng.choice(others), m)
        elif m.entries:
            k = rng.randrange(len(m.entries))
            entries = list(m.entries)
            entries[k] += rng.choice((-1, 1))
            assignment[i] = (j, IntMatrix(m.rows, m.cols, tuple(entries)))
        if _lands(phi.source, phi.target, assignment):
            out.append(tuple(assignment))
    return out


def test_commuting_check_matches_the_per_map_oracle():
    """The structure, diagonal and factoring morphisms of the P^1, A^2 and
    P^2 log diagonals and the F_1-F_3 diagonal subdivisions, the product
    projections of the seeded complexes, and the nodal cubic's glued maps
    pass both checks; copies with one assignment index or matrix changed
    that still land get the same verdict from both, and most of them raise
    "does not commute" from both."""
    morphisms = []
    fans = [model.artin_fan for model in (p1_toric_model(), affine_space_model(2),
                                          p2_toric_model())]
    fans += [cc.from_toric_fan([(1, 0), (0, 1), (-1, a), (0, -1)],
                               [(0, 1), (1, 2), (2, 3), (3, 0)], 2) for a in (1, 2, 3)]
    for F in fans:
        res = cc.subdivide_along_diagonal(F)
        morphisms += [res.subdivision.structure, res.factoring, cc.diagonal_morphism(F)]
    complexes = _seeded_complexes()
    for F in complexes:
        for G in complexes:
            morphisms += cc.product_projections(F, G)
    nodal = cc.nodal_cubic_complex()
    swap = IntMatrix(2, 2, (0, 1, 1, 0))
    assert len(nodal.maps_between(1, 2)) == 2
    morphisms += [cc.identity_morphism(nodal),
                  cc.ComplexMorphism(nodal, nodal, ((0, IntMatrix.identity(0)),
                                                    (1, IntMatrix.identity(1)), (2, swap)))]
    assert None not in morphisms and len(morphisms) == 18 + 2 * len(complexes) ** 2 + 2
    rng = random.Random(109)
    verdicts = collections.Counter()
    for phi in morphisms:
        assert _commuting_verdict(per_map_commuting_check, phi.source, phi.target,
                                  phi.assignment) is None
        for assignment in _corruptions(rng, phi, 6):
            want = _commuting_verdict(per_map_commuting_check, phi.source, phi.target,
                                      assignment)
            got = _commuting_verdict(cc.ComplexMorphism, phi.source, phi.target, assignment)
            assert got == want, (phi, assignment)
            verdicts[want] += 1
    # the glued maps: rho sent to itself doubled hits neither gluing of sigma
    doubled = ((0, IntMatrix.identity(0)), (1, IntMatrix(1, 1, (2,))),
               (2, IntMatrix.identity(2)))
    for check in (per_map_commuting_check, cc.ComplexMorphism):
        assert _commuting_verdict(check, nodal, nodal, doubled) == \
            "assignment does not commute with a face map"
    assert verdicts["assignment does not commute with a face map"] >= 150, verdicts
    assert set(verdicts) <= {None, "assignment does not commute with a face map"}, verdicts


def test_span_dim_is_the_rank_left_by_the_equations():
    """On seeded cones, uninterned so nothing is cached: independent and
    dependent rays, spans of full and of lower dimension, with and without
    lines, the zero cone, and ranks up to 12."""
    rng = random.Random(113)
    seen = collections.Counter()
    cases = [(rank, ()) for rank in (0, 1, 5, 12)]
    for _ in range(300):
        k = rng.randint(1, 5)
        rank = rng.randint(k, 6)
        B = IntMatrix(rank, k, tuple(rng.randint(-2, 2) for _ in range(rank * k)))
        cases.append((rank, tuple(B.apply(r) for r in _seeded_rays(rng, k))))
    for _ in range(6):
        cases.append((12, tuple(_vector(rng, 12) for _ in range(rng.randint(1, 13)))))
    cases.append((12, IntMatrix.identity(12).as_rows()))
    for rank, rays in cases:
        g = geom.ConeGeometry(rank, geom.primitive_rays(rays))
        assert g.span_dim == g.dim - len(g.equations), (rank, rays)
        seen["zero" if not g.rays else
             "independent" if g.span_dim == len(g.rays) else "dependent"] += 1
        seen["full" if g.span_dim == rank else "lower"] += 1
        seen["lines"] += not g.is_sharp
        seen["rank 12"] += rank == 12
    assert seen["zero"] >= 4 and seen["rank 12"] >= 7, seen
    assert min(seen[k] for k in ("independent", "dependent", "full", "lower", "lines")) >= 30, seen
