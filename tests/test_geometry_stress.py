"""Seeded randomized cross-checks of the polyhedral kernel.

Each implementation path is compared against an oracle that shares no code
with it: membership against Caratheodory enumeration, triangulations
against pointwise coverage, Hilbert bases against box enumeration, monoid
membership and saturation against reachability closures.
"""

import itertools
import math
import random

from logfan._geometry import ConeGeometry, dot, dual_generators, triangulate
from logfan.conecomplex import Cone
from logfan.errors import NotStronglyConvex
from logfan.lattice import (FgAbelianGroup, hnf_rows, in_lattice, lattice_rank,
                            primitive)
from logfan.monoid import FineMonoid, contains, hilbert_basis, saturate

from test_monoid import brute_hilbert, in_cone_bruteforce


def test_membership_against_caratheodory():
    rng = random.Random(42)
    for _ in range(120):
        dim = rng.randint(1, 3)
        rays = [tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(1, 4))]
        rays = [r for r in rays if any(r)]
        if not rays:
            continue
        g = ConeGeometry.of(rays, dim)
        for _ in range(6):
            x = tuple(rng.randint(-4, 4) for _ in range(dim))
            assert g.contains(x) == in_cone_bruteforce(x, rays), (rays, x)


def _det(m):
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def brute_facet_normals(rays, dim):
    """Facet normals of a full-dimensional cone: primitive normals of the
    hyperplanes through dim - 1 rays that have every ray on one side."""
    out = set()
    for sub in itertools.combinations(rays, dim - 1):
        n = tuple((-1) ** j * _det([r[:j] + r[j + 1:] for r in sub]) for j in range(dim))
        g = 0
        for x in n:
            g = math.gcd(g, x)
        if not g:
            continue
        for s in (tuple(x // g for x in n), tuple(-x // g for x in n)):
            if all(sum(a * b for a, b in zip(s, r)) >= 0 for r in rays):
                out.add(s)
    return out


def test_facet_normals_against_bruteforce():
    """Double description finds every facet, whatever the order of the rays."""
    rng = random.Random(19)
    done = 0
    while done < 150:
        dim = rng.randint(3, 4)
        rays = list({primitive(tuple(rng.randint(-3, 3) for _ in range(dim)))
                     for _ in range(rng.randint(dim + 1, dim + 4))} - {(0,) * dim})
        normals = brute_facet_normals(rays, dim)
        full = any(_det(list(s)) for s in itertools.combinations(rays, dim))
        sharp = any(_det(list(s)) for s in itertools.combinations(normals, dim))
        if not (full and sharp):
            continue
        done += 1
        for order in (sorted(rays), sorted(rays, reverse=True)):
            lines, found = dual_generators(order, dim)
            assert lines == () and set(found) == normals, (order, found, normals)


def test_faces_are_the_intersections_of_facets():
    """Faces of cones of dimension 2-4, lower-dimensional and non-simplicial
    ones included, against the ray sets cut out by every subset of facet
    normals."""
    rng = random.Random(23)
    kinds = set()
    done = 0
    while done < 200:
        rank = rng.randint(2, 5)
        dim = rng.randint(2, min(rank, 4))
        basis = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(dim)]
        rays = []
        for _ in range(rng.randint(dim, dim + 3)):
            coeffs = [rng.randint(-2, 2) for _ in range(dim)]
            rays.append(tuple(sum(c * b[k] for c, b in zip(coeffs, basis))
                              for k in range(rank)))
        try:
            c = Cone.make(rays, rank)
        except ValueError:
            continue
        if c.dim != dim:
            continue
        done += 1
        kinds.add((dim < rank, c.is_simplicial))
        normals = c.geometry.normals
        want = {frozenset(i for i, r in enumerate(c.rays)
                          if all(dot(n, r) == 0 for n in sub))
                for k in range(len(normals) + 1)
                for sub in itertools.combinations(normals, k)}
        assert sorted(c.face_ray_sets, key=sorted) == sorted(want, key=sorted), c.rays
        assert sorted(f.rays for f in c.faces) == sorted(
            tuple(c.rays[i] for i in sorted(s)) for s in want), c.rays
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


def test_sharpness_shortcut_against_lineality_space():
    """is_sharp skips the lineality space for independent rays; on seeded
    cones of rank 2-5 it agrees with the lineality-space answer, over
    independent rays, dependent sharp cones and cones containing a line."""
    rng = random.Random(23)
    seen = {"independent": 0, "dependent sharp": 0, "line": 0}
    while min(seen.values()) < 40:
        dim = rng.randint(2, 5)
        rays = [tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(1, dim + 2))]
        if rng.random() < 0.3:
            # minus a positive combination of some rays: a line when nonzero
            picked = rng.sample(rays, rng.randint(1, len(rays)))
            rays.append(tuple(-sum(rng.randint(1, 2) * r[k] for r in picked)
                              for k in range(dim)))
        rays = [r for r in rays if any(r)]
        if not rays:
            continue
        g = ConeGeometry.of(rays, dim)
        sharp = not g.lineality_basis
        assert g.is_sharp == sharp, (rays, dim)
        if not sharp:
            seen["line"] += 1
        elif lattice_rank(list(g.rays)) == len(g.rays):
            seen["independent"] += 1
        else:
            seen["dependent sharp"] += 1


def test_triangulation_covers_exactly():
    rng = random.Random(7)
    for _ in range(80):
        dim = rng.randint(2, 3)
        rays = [primitive(tuple(rng.randint(-2, 2) for _ in range(dim)))
                for _ in range(rng.randint(2, 4))]
        rays = [r for r in rays if any(r)]
        if not rays:
            continue
        g = ConeGeometry.of(rays, dim)
        if not g.is_sharp:
            continue
        parts = [ConeGeometry.of([g.rays[i] for i in s], dim)
                 for s in triangulate(list(g.rays), dim)]
        for _ in range(8):
            x = tuple(rng.randint(-3, 3) for _ in range(dim))
            assert g.contains(x) == any(p.contains(x) for p in parts), (g.rays, x)


def test_random_hilbert_bases_against_bruteforce():
    rng = random.Random(3)
    done = 0
    while done < 40:
        rays = [tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2)]
        rays = [r for r in rays if any(r)]
        if not rays:
            continue
        if not ConeGeometry.of(rays, 2).is_sharp:
            continue
        try:
            hb = hilbert_basis(rays, 2)
        except NotStronglyConvex:
            raise AssertionError(f"sharp cone rejected: {rays}")
        if all(abs(c) <= 7 for h in hb for c in h):
            assert sorted(hb) == brute_hilbert(rays, 2, box=7), rays
            done += 1


def _brute_closure(P, coord_bound, steps):
    G = P.ambient
    zero = (0,) * G.num_coords
    reach = {zero}
    frontier = [zero]
    for _ in range(steps):
        nxt = []
        for v in frontier:
            for g in P.generators:
                w = G.reduce(tuple(a + b for a, b in zip(v, g)))
                if all(abs(c) <= coord_bound for c in G.free_part(w)) and w not in reach:
                    reach.add(w)
                    nxt.append(w)
        if not nxt:
            break
        frontier = nxt
    return reach


def test_membership_and_saturation_against_closure():
    rng = random.Random(99)
    for _ in range(60):
        rank = rng.randint(1, 2)
        torsion = rng.choice([(), (2,), (3,), (2, 4)])
        G = FgAbelianGroup(rank, torsion)
        gens = [tuple(rng.randint(-2, 2) for _ in range(rank))
                + tuple(rng.randint(0, d - 1) for d in torsion)
                for _ in range(rng.randint(1, 4))]
        P = FineMonoid.make(G, gens)
        if not P.generators:
            continue
        bound = 4
        reach = _brute_closure(P, 2 * bound, 30)
        for v in itertools.product(range(-bound, bound + 1), repeat=rank):
            for t in itertools.product(*(range(d) for d in torsion)):
                x = v + t
                assert contains(P, x) == (x in reach), (P.generators, G, x)
        S = saturate(P).saturated
        gp = P.gp_lattice
        for v in itertools.product(range(-2, 3), repeat=rank):
            for t in itertools.product(*(range(d) for d in torsion)):
                x = v + t
                want = in_lattice(x, gp) and any(
                    contains(P, tuple(n * c for c in x)) for n in range(1, 13))
                assert contains(S, x) == want, (P.generators, G, x)
