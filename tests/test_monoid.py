"""Monoid layer: Hilbert bases, saturation, fs pushouts, component counts."""

import collections
import itertools
import random
from fractions import Fraction

import pytest

from logfan import _geometry as geom
from logfan import monoid as mn
from logfan import suite
from logfan.errors import NotSaturated, NotStronglyConvex
from logfan.lattice import FgAbelianGroup, IntMatrix
from logfan.monoid import (FineMonoid, MonoidHom, amalgamated_sum, contains,
                           fs_pushout, hilbert_basis, hom_well_defined,
                           is_saturated, saturate, spec_component_count)

N = FineMonoid.free(1)
N2 = FineMonoid.free(2)


# ------------------------------------------------------ independent oracles

def in_cone_bruteforce(x, rays):
    """Membership by Caratheodory: nonnegative solution over some independent
    subset of the rays.  Shares no code with the double-description path."""
    rank = len(x)
    for k in range(1, min(len(rays), rank) + 1):
        for subset in itertools.combinations(rays, k):
            sol = _solve_nonneg(subset, x)
            if sol is not None:
                return True
    return all(v == 0 for v in x)


def _solve_nonneg(rays, x):
    rows = len(x)
    cols = len(rays)
    aug = [[Fraction(rays[j][i]) for j in range(cols)] + [Fraction(x[i])]
           for i in range(rows)]
    pivots = []
    r = 0
    for c in range(cols):
        sel = next((i for i in range(r, rows) if aug[i][c] != 0), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        pv = aug[r][c]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, rows):
        if aug[i][cols] != 0:
            return None
    if len(pivots) < cols:
        return None   # dependent subset; a smaller one will cover it
    sol = [aug[i][cols] for i in range(len(pivots))]
    return sol if all(v >= 0 for v in sol) else None


def brute_hilbert(rays, rank, box=5):
    pts = [p for p in itertools.product(range(-box, box + 1), repeat=rank)
           if any(p) and in_cone_bruteforce(p, rays)]
    pset = set(pts)
    out = []
    for h in pts:
        decomposable = any(
            tuple(a - b for a, b in zip(h, g)) in pset and g != h
            for g in pts)
        if not decomposable:
            out.append(h)
    return sorted(out)


# ------------------------------------------------------------- hilbert basis

def test_hilbert_basis_examples():
    assert hilbert_basis([(1, 0), (0, 1)], 2) == [(0, 1), (1, 0)]
    assert hilbert_basis([(1, 0), (1, 2)], 2) == [(1, 0), (1, 1), (1, 2)]
    assert hilbert_basis([(0, 1), (2, -1)], 2) == [(0, 1), (1, 0), (2, -1)]


def test_hilbert_basis_against_bruteforce():
    cases = [
        [(1, 0), (1, 2)],
        [(0, 1), (2, -1)],
        [(1, 0), (1, 3)],
        [(2, 1), (1, 2)],
        [(1, 0), (2, 3)],
    ]
    for rays in cases:
        assert hilbert_basis(rays, 2) == brute_hilbert(rays, 2)


def test_hilbert_basis_line_rejected():
    with pytest.raises(NotStronglyConvex):
        hilbert_basis([(1, 0), (-1, 0)], 2)
    with pytest.raises(NotStronglyConvex):
        hilbert_basis([(1, 1), (-1, 0), (0, -1)], 2)


def test_hilbert_basis_lower_dimensional_cone():
    # cone on a ray of index 2 in its span
    assert hilbert_basis([(2, 2)], 2) == [(1, 1)]


# ----------------------------------------------------------------- saturation

def closure_upto(gens, bound):
    """Brute-force membership closure of a numerical semigroup up to bound."""
    reach = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = v + g
                if w <= bound and w not in reach:
                    reach.add(w)
                    nxt.append(w)
        frontier = nxt
    return reach


def test_saturate_numerical_semigroup():
    P = FineMonoid.free(1, [(2,), (3,)])
    rep = saturate(P)
    assert rep.saturated.generators == ((1,),)
    # brute-force oracle: 1 is absent from <2,3> but 2*1 is present
    reach = closure_upto([2, 3], 20)
    assert 1 not in reach and 2 in reach
    assert not is_saturated(P)


def test_saturate_idempotent_on_N():
    rep = saturate(N)
    assert rep.saturated == N
    assert saturate(rep.saturated).saturated == rep.saturated
    assert rep.index_data == ()


def test_saturation_absorbs_pushout_torsion():
    mul2 = MonoidHom(N, N, IntMatrix.from_rows([[2]]))
    rep = fs_pushout(mul2, mul2)
    assert rep.saturated.ambient == FgAbelianGroup(1, (2,))
    assert rep.torsion_order == 2


def test_is_saturated_examples():
    assert is_saturated(N2)
    assert not is_saturated(FineMonoid.free(1, [(2,), (3,)]))
    # The monoid on (1,0), (1,2) is free on its generators, hence saturated
    # inside its own groupification (an index-2 sublattice of Z^2).  The
    # missing-lattice-point phenomenon needs the groupification to be all of
    # Z^2, e.g. by adding (2,1): then (1,1) is missing but 2*(1,1) is not.
    assert is_saturated(FineMonoid.free(2, [(1, 0), (1, 2)]))
    P = FineMonoid.free(2, [(1, 0), (1, 2), (2, 1)])
    assert not is_saturated(P)
    assert (1, 1) in saturate(P).index_data


def test_saturate_keeps_groupification():
    rng = random.Random(5)
    for _ in range(25):
        rank = rng.randint(1, 3)
        torsion = rng.choice([(), (2,), (3,)])
        G = FgAbelianGroup(rank, torsion)
        gens = [tuple(rng.randint(-2, 2) for _ in range(rank))
                + tuple(rng.randint(0, d - 1) for d in torsion)
                for _ in range(rng.randint(1, 4))]
        P = FineMonoid.make(G, gens)
        rep = saturate(P)
        assert rep.saturated.gp_lattice == P.gp_lattice
        assert saturate(rep.saturated).saturated == rep.saturated
        for g in P.generators:
            assert contains(rep.saturated, g)


# ---------------------------------------------------------------- membership

def test_membership_numerical():
    P = FineMonoid.free(1, [(2,), (3,)])
    reach = closure_upto([2, 3], 20)
    for v in range(21):
        assert contains(P, (v,)) == (v in reach)


def test_membership_with_units():
    P = FineMonoid.free(2, [(1, 0), (-1, 0), (0, 1)])
    assert contains(P, (-7, 3))
    assert not contains(P, (0, -1))
    assert is_saturated(P)


def test_membership_with_torsion():
    G = FgAbelianGroup(1, (2,))
    P = FineMonoid.make(G, [(1, 1)])
    assert contains(P, (2, 0))
    assert not contains(P, (1, 0))
    assert contains(P, (3, 1))


def reachable_within(P, radius):
    """Every sum of generators of P, reduced in the ambient group, that some
    order of its summands reaches with every partial sum's free part within
    `radius` in the max norm: one generator added at a time."""
    f, orders = P.ambient.free_rank, P.ambient.torsion_orders
    start = (0,) * P.ambient.num_coords
    seen, stack = {start}, [start]
    while stack:
        v = stack.pop()
        for g in P.generators:
            w = tuple(a + b for a, b in zip(v, g))
            w = w[:f] + tuple(x % d for x, d in zip(w[f:], orders))
            if w not in seen and max(map(abs, w[:f]), default=0) <= radius:
                seen.add(w)
                stack.append(w)
    return seen


def test_membership_against_generator_sums():
    """`contains` on every vector of a box, free part in [-2, 2]^rank, against
    the sums of generators, on seeded random monoids (with units and with
    torsion), the targets of check 11c and one monoid with a generator of
    pure torsion.

    The search is exact on the box.  By the Steinitz lemma (in any norm, with
    the dimension as constant), the free parts of the summands of x and of -x
    can be ordered so that every partial sum has norm at most
    rank * max(|g|, |x|).  Leaving -x out of that order moves the later
    partial sums by x, so the summands of x alone stay within that plus |x|.

    Each monoid is asked twice, and a freshly built equal one once, so a
    stale or shared per-monoid set-up shows."""
    rng = random.Random(5)
    monoids = [suite._random_fine_monoid(rng) for _ in range(60)]
    monoids += suite._pushout_cases()[1]
    # a generator of pure torsion, 2 in Z/3, spans all of Z/3 only with the relation
    monoids.append(FineMonoid.make(FgAbelianGroup(1, (3,)), [(1, 0), (0, 2)]))
    box = 2
    units = torsion = members = 0
    for P in monoids:
        G = P.ambient
        f = G.free_rank
        units += bool(P.free_cone.lineality_basis)
        torsion += bool(G.torsion_orders)
        largest = max((max(map(abs, g[:f])) for g in P.generators), default=0)
        reach = reachable_within(P, f * max(largest, box) + box)
        fresh = FineMonoid.make(G, P.generators)
        for x in itertools.product(*[range(-box, box + 1)] * f,
                                   *[range(d) for d in G.torsion_orders]):
            want = x in reach
            members += want
            assert [contains(Q, x) for Q in (P, P, fresh)] == [want] * 3, (P, x)
    assert units >= 10 and torsion >= 10 and members >= 300


def test_membership_set_up_runs_once_per_monoid(monkeypatch):
    """The unit subgroup and the torsion lattice of the search are found once
    per monoid, however often membership is asked."""
    calls = collections.Counter()

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(mn, name, wrapped)

    counting("_unit_subgroup_rows", mn._unit_subgroup_rows)
    counting("hnf_rows", mn.hnf_rows)
    with_units = FineMonoid.free(2, [(1, 0), (-1, 0), (0, 1)])
    with_torsion = FineMonoid.make(FgAbelianGroup(1, (2,)), [(1, 1), (2, 1)])
    for P in (with_units, with_torsion):
        calls.clear()
        answers = [contains(P, (i % 7 - 3, i % 3 - 1)) for i in range(50)]
        assert any(answers) and not all(answers)
        assert calls == {"_unit_subgroup_rows": 1, "hnf_rows": 1}, (P, calls)


def test_membership_tests_each_remainder_against_the_cone_once(monkeypatch):
    """The search tests x against the free cone before it starts and every
    later remainder when it is popped, so no remainder is tested twice: not
    x = (4, 3), a sum of the generators (2, 0), (1, 1), (0, 3), and not
    (1, 0), which lies in their cone but not in the monoid."""
    P = FineMonoid.free(2, [(2, 0), (1, 1), (0, 3)])
    real = geom.ConeGeometry.contains
    tested = []

    def counting(cone, v):
        tested.append(tuple(v))
        return real(cone, v)

    for x, member in (((4, 3), True), ((1, 0), False)):
        assert contains(P, x) == member      # the set-up runs here, untested
        monkeypatch.setattr(geom.ConeGeometry, "contains", counting)
        tested.clear()
        assert contains(P, x) == member
        monkeypatch.undo()
        assert tested[0] == x and len(tested) == len(set(tested)) > 1, (x, tested)


# ---------------------------------------------------------------- fs pushout

def test_pushout_coproduct_is_plane():
    zero = FineMonoid.make(FgAbelianGroup(0), [])
    inc = MonoidHom(zero, N, IntMatrix.zero(1, 0))
    rep = fs_pushout(inc, inc)
    assert rep.saturated.ambient == FgAbelianGroup(2)
    assert rep.saturated.generators == ((0, 1), (1, 0))


def test_pushout_r_lines():
    for r in (2, 3, 5):
        mul = MonoidHom(N, N, IntMatrix.from_rows([[r]]))
        rep = fs_pushout(mul, mul)
        assert rep.saturated.ambient == FgAbelianGroup(1, (r,))
        assert rep.torsion_order == r
        assert spec_component_count(rep.saturated) == r


def test_pushout_onto_trivial_group():
    Z2 = FineMonoid.make(FgAbelianGroup(0, (2,)), [(1,)])
    zero = FineMonoid.make(FgAbelianGroup(0), [])
    rep = fs_pushout(MonoidHom(Z2, Z2, IntMatrix.identity(1)),
                     MonoidHom(Z2, zero, IntMatrix.zero(0, 1)))
    assert spec_component_count(rep.saturated) == 1


def test_pushout_diagonal_chart():
    diag = MonoidHom(N, N2, IntMatrix.from_rows([[1], [1]]))
    ident = MonoidHom(N, N, IntMatrix.from_rows([[1]]))
    rep = fs_pushout(diag, ident)
    S = rep.saturated
    assert S.ambient == FgAbelianGroup(2)
    assert rep.torsion_order == 1
    # abstractly N^2: two generators forming a lattice basis
    assert len(S.generators) == 2
    M = IntMatrix.from_columns(S.generators, rows=2)
    from rational_solve import det
    assert abs(det(M)) == 1
    assert is_saturated(S)


def test_component_count_examples():
    assert spec_component_count(N2) == 1
    with pytest.raises(NotSaturated):
        spec_component_count(FineMonoid.free(1, [(2,), (3,)]))
    # unchecked variant just reads the torsion order
    assert spec_component_count(FineMonoid.free(1, [(2,), (3,)]),
                                require_saturated=False) == 1


def test_component_count_multiplicative_over_coproduct():
    zero = FineMonoid.make(FgAbelianGroup(0), [])
    G = FgAbelianGroup(1, (2,))
    P = saturate(FineMonoid.make(G, [(1, 1), (1, 0)])).saturated
    incP = MonoidHom(zero, P, IntMatrix.zero(2, 0))
    G3 = FgAbelianGroup(1, (3,))
    Q = saturate(FineMonoid.make(G3, [(1, 1), (1, 0)])).saturated
    incQ = MonoidHom(zero, Q, IntMatrix.zero(2, 0))
    rep = fs_pushout(incP, incQ)
    assert spec_component_count(rep.saturated) == \
        spec_component_count(P) * spec_component_count(Q)


def test_hom_validation():
    with pytest.raises(ValueError):
        MonoidHom(N, N, IntMatrix.from_rows([[-1]]))   # image leaves N
    G2 = FgAbelianGroup(0, (2,))
    G4 = FgAbelianGroup(0, (4,))
    M = IntMatrix.from_rows([[1]])
    # Z/2 -> Z/4 by 1 -> 1 is not well defined
    assert not hom_well_defined(G2, G4, M)
    assert hom_well_defined(G2, G4, IntMatrix.from_rows([[2]]))


def test_pushout_universal_property_small():
    """Mediating map exists and is unique for commuting cocones on N <- N -> N."""
    mul2 = MonoidHom(N, N, IntMatrix.from_rows([[2]]))
    mul3 = MonoidHom(N, N, IntMatrix.from_rows([[3]]))
    data = amalgamated_sum(mul2, mul3)
    H = data.ambient
    # cocone alpha, beta: N -> N with alpha(2 x) = beta(3 x): alpha = 3k, beta = 2k
    for k in range(3):
        alpha, beta = 3 * k, 2 * k
        # find row vectors phi with phi . legL = alpha and phi . legR = beta
        found = []
        for phi in itertools.product(range(-6, 7), repeat=H.num_coords):
            ok = True
            v = sum(p * c for p, c in zip(phi, data.leg_left.column(0)))
            w = sum(p * c for p, c in zip(phi, data.leg_right.column(0)))
            for j, d in enumerate(H.torsion_orders):
                if phi[H.free_rank + j] * d != 0:
                    ok = False
            if ok and v == alpha and w == beta:
                found.append(phi)
        assert found, f"no mediating hom for k={k}"
        # uniqueness modulo torsion relations of H: all solutions act equally
        # on the generators of H
        images = set()
        for phi in found:
            img = tuple(sum(p * c for p, c in zip(phi, col))
                        for col in [data.leg_left.column(0), data.leg_right.column(0)])
            images.add(img)
        assert len(images) == 1
