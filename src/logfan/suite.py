"""Built-in reproduction suite: every numeric claim the toolkit is built
around, as one pass/fail check per criterion.

The CLI `paper-suite` subcommand runs these and exits nonzero when any
fails; the acceptance tests assert them one by one.  Checks 1-10 are the
worked examples, 11 bundles the property suites over their documented
desk-scale domains, 12 is the independent Koszul/Tor oracle for affine
space.
"""

from __future__ import annotations

import functools
import itertools
import random
from math import comb
from operator import add, sub

from . import conecomplex as cc
from . import hkr
from . import logmodel as lm
from . import monoid as mn
from . import orbifold as ob
from ._record import Record
from .errors import InternalInvariant, NotFirm
from .lattice import (FgAbelianGroup, IntMatrix, hnf_rows, kernel_basis,
                      smith_normal_form, solve_integer)


class CheckResult(Record):
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


# ----------------------------------------------------------------- criteria

def check_r_disjoint_lines() -> CheckResult:
    got = []
    for r in (2, 3, 5):
        N = mn.FineMonoid.free(1)
        mul = mn.MonoidHom(N, N, IntMatrix.from_rows([[r]]))
        rep = mn.fs_pushout(mul, mul)
        got.append(mn.spec_component_count(rep.saturated))
    return _result("01 r disjoint lines", got == [2, 3, 5],
                   f"component counts {got}")


def check_artin_fan_products() -> CheckResult:
    a1 = cc.from_toric_fan([(1,)], [(0,)], 1)
    a2 = cc.from_toric_fan([(1, 0), (0, 1)], [(0, 1)], 2)
    prod = cc.product(a1, a1)
    glued = cc.product(cc.nodal_cubic_complex(), a1)
    ok = (prod.cone_count == 4
          and cc.is_isomorphic(prod, a2)
          and glued.cone_count == 6)
    return _result("02 product of Artin fans", ok,
                   f"A1xA1: {prod.cone_count} cones, waffle x A1: "
                   f"{glued.cone_count} cones")


def check_log_blowup_affine_line() -> CheckResult:
    a1 = cc.from_toric_fan([(1,)], [(0,)], 1)
    res = cc.subdivide_along_diagonal(a1)
    refined = res.subdivision.refined
    prod = cc.product(a1, a1)
    star = cc.star_subdivision(prod, prod.cone_count - 1, (1, 1))
    sub_rays = sorted(c.rays for c in res.image_subcomplex.cones)
    ok = (refined == star.refined
          and len(refined.maximal_cone_indices()) == 2
          and res.subdivision.all_unimodular()
          and sub_rays == [(), ((1, 1),)]
          and res.factoring is not None)
    return _result("03 log blowup of the affine line", ok,
                   f"max cones {len(refined.maximal_cone_indices())}, "
                   f"B subcomplex rays {sub_rays}")


def check_a2_diagonal() -> CheckResult:
    a2 = cc.from_toric_fan([(1, 0), (0, 1)], [(0, 1)], 2)
    res = cc.subdivide_along_diagonal(a2)
    refined = res.subdivision.refined
    diag_cone = tuple(sorted(((1, 0, 1, 0), (0, 1, 0, 1))))
    has_cone = any(c.rays == diag_cone for c in refined.cones)
    flagged = any(not f.naive_star_convex for f in res.image_flags)
    ok = (has_cone and flagged
          and res.subdivision.support_volumes_ok()
          and res.factoring is not None)
    return _result("04 A^2 diagonal subdivision", ok,
                   f"diagonal 2-cone present: {has_cone}, "
                   f"non-convex naive star flagged: {flagged}")


def check_nodal_cubic_hkr() -> CheckResult:
    X = lm.nodal_cubic()
    hh = hkr.hh_homology(X)
    table = {n: e.total() for n, e in hh.degrees}
    ok = table == {-1: 1, 0: 2, 1: 1} and hkr.euler_check(X) == 0
    return _result("05 log HKR for the nodal cubic", ok, f"table {table}")


def check_marked_p1_family() -> CheckResult:
    details = []
    ok = True
    for n in range(2, 7):
        d1 = hkr.hh_homology(lm.marked_p1(n)).dimension(1)
        details.append(f"n={n}: {d1}")
        ok = ok and d1 == n - 1 and d1 > 0
    classical = {n: e.total() for n, e in hkr.hh_homology(lm.marked_p1(0)).degrees}
    ok = ok and classical == {0: 2}
    return _result("06 marked P^1 family", ok,
                   "; ".join(details) + f"; n=0 table {classical}")


def _is_shifted_ones(coeffs) -> bool:
    coeffs = list(coeffs)
    for shift in (0, 1):
        if coeffs == [0] * shift + [1] * (len(coeffs) - shift):
            return True
    return False


def check_a1_concentration() -> CheckResult:
    X = lm.affine_space_model(1)
    hh = hkr.hh_homology(X)
    co = hkr.hh_cohomology(X)
    ok = (hh.support() == (0, 1) and co.support() == (0, 1)
          and all(_is_shifted_ones(e.value) for _, e in hh.degrees)
          and all(_is_shifted_ones(e.value) for _, e in co.degrees))
    return _result("07 A^1 concentration in two degrees", ok,
                   f"homology support {hh.support()}, cohomology support {co.support()}")


def check_log_alteration_invariance() -> CheckResult:
    P2 = lm.p2_toric_model()
    fan = P2.artin_fan
    quadrant = next(i for i, c in enumerate(fan.cones)
                    if c.rays == ((0, 1), (1, 0)))
    blowup = cc.star_subdivision(fan, quadrant, (1, 1))
    X = lm.subdivided_model(P2, blowup)
    t1 = {n: e.total() for n, e in hkr.hh_homology(P2).degrees}
    t2 = {n: e.total() for n, e in hkr.hh_homology(X).degrees}
    ok = t1 == t2 == {0: 1, 1: 2, 2: 1}
    return _result("08 log alteration invariance", ok, f"P^2 {t1} vs blowup {t2}")


def check_periodic_cyclic() -> CheckResult:
    c3 = hkr.periodic_cyclic(lm.marked_p1(3))
    c0 = hkr.periodic_cyclic(lm.marked_p1(0))
    got = (c3.even.total(), c3.odd.total(), c0.even.total(), c0.odd.total())
    ok = got == (1, 2, 2, 0)
    return _result("09 periodic cyclic homology", ok,
                   f"3 marks (even, odd) = {got[:2]}, classical P^1 = {got[2:]}")


def check_orbifold_decomposition() -> CheckResult:
    logged = ob.DiagonalAction(lm.mixed_affine(1, [0]), (2,), ((1,),))
    bare = ob.DiagonalAction(lm.mixed_affine(1, []), (2,), ((1,),))
    even = [1 if w % 2 == 0 else 0 for w in range(lm.DEFAULT_TRUNCATION + 1)]

    sector = ob.twisted_sector(logged, (1,))
    hh_logged = ob.orbifold_hh(logged)
    ok = sector.is_empty
    ok = ok and hh_logged.support() == (0, 1)
    ok = ok and all(list(e.value) == even for _, e in hh_logged.degrees)

    point_sector = ob.twisted_sector(bare, (1,))
    hh_bare = ob.orbifold_hh(bare)
    gained = list(hh_bare.entry(0).value)
    expected0 = [even[0] + 1] + even[1:]
    ok = ok and (not point_sector.is_empty) and point_sector.locus.dimension == 0
    ok = ok and gained == expected0

    inversion = ob.DiagonalAction(lm.marked_p1(2), (2,), ((0, 0),),
                                  permutation=(1, 0))
    rejected = False
    if not ob.check_firm(inversion):
        try:
            ob.orbifold_hh(inversion)
        except NotFirm:
            rejected = True
    ok = ok and rejected
    return _result("10 orbifold decomposition", ok,
                   f"empty twisted sector: {sector.is_empty}, degree-0 with "
                   f"twisted point: {gained[:4]}..., non-firm rejected: {rejected}")


# ------------------------------------------------------------ property suites

def _random_fine_monoid(rng) -> mn.FineMonoid:
    rank = rng.randint(1, 3)
    torsion = rng.choice([(), (), (2,), (3,)])
    G = FgAbelianGroup(rank, torsion)
    gens = []
    for _ in range(rng.randint(1, 4)):
        v = tuple(rng.randint(-2, 2) for _ in range(rank)) + \
            tuple(rng.randint(0, d - 1) for d in torsion)
        gens.append(v)
    return mn.FineMonoid.make(G, gens)


def property_saturation_idempotence() -> CheckResult:
    rng = random.Random(7)
    for _ in range(30):
        P = _random_fine_monoid(rng)
        try:
            sat = mn.saturate(P).saturated
            idempotent = mn.saturate(sat).saturated == sat
        except InternalInvariant:
            idempotent = False
        if not idempotent:
            return _result("11a saturation idempotence", False, f"failed on {P}")
        if sat.gp_lattice != P.gp_lattice:
            return _result("11a saturation idempotence", False,
                           f"groupification changed on {P}")
    return _result("11a saturation idempotence", True, "30 random monoids")


# The sharp cones of check 11b, as (rays, lattice rank).
_HILBERT_CASES = (([(1, 0), (0, 1)], 2), ([(1, 0), (1, 2)], 2), ([(0, 1), (2, -1)], 2),
                  ([(1, 0), (1, 3)], 2), ([(2, 1), (1, 2)], 2),
                  ([(1, 0, 0), (0, 1, 0), (1, 1, 2)], 3))


def _small_sums(hb, rank: int) -> set:
    """Sums of the nonzero combinations of hb with coefficients 0..3, one element's
    multiples at a time; hb's cone is sharp, so only the zero combination sums to 0."""
    elems = {(0,) * rank}
    for h in hb:
        multiples = [tuple(c * x for x in h) for c in range(4)]
        elems = {tuple(map(add, e, m)) for e in elems for m in multiples}
    elems.discard((0,) * rank)
    return elems


def property_hilbert_minimality() -> CheckResult:
    """No Hilbert basis element is the sum of two of its `_small_sums`."""
    for rays, rank in _HILBERT_CASES:
        hb = mn.hilbert_basis(rays, rank)
        elems = _small_sums(hb, rank)
        for h in hb:
            for a in elems:
                b = tuple(map(sub, h, a))
                if b in elems:
                    return _result("11b Hilbert basis minimality", False,
                                   f"{h} = {a} + {b} in cone {rays}")
    return _result("11b Hilbert basis minimality", True, f"{len(_HILBERT_CASES)} cones")


@functools.cache
def _box_members(dst: mn.FineMonoid, bound: int) -> tuple[tuple[int, ...], ...]:
    """The vectors of [-bound, bound]^n in dst: one scan per target, for all its sources."""
    box = itertools.product(range(-bound, bound + 1), repeat=dst.ambient.num_coords)
    return tuple(v for v in box if mn.contains(dst, v))


def _enumerate_monoid_homs(src: mn.FineMonoid, dst: mn.FineMonoid, bound: int):
    """All homs with entries in [-bound, bound] mapping the free monoid src
    into dst, in the order of their entries.

    Column j is the image of the generator e_j, and a free source has no
    relations, so a matrix is a hom exactly when each of its columns lies in
    dst: the columns are the `_box_members` of dst."""
    rows, cols = dst.ambient.num_coords, src.ambient.num_coords
    if src != mn.FineMonoid.free(cols):
        raise InternalInvariant(f"hom enumeration needs a free source, not {src}")
    entries = sorted(tuple(itertools.chain.from_iterable(zip(*columns)))
                     for columns in itertools.product(_box_members(dst, bound), repeat=cols))
    return [IntMatrix(rows, cols, e) for e in entries]


def _pushout_cases():
    """The diagrams R -> P, R -> Q and the targets T of check 11c."""
    N = mn.FineMonoid.free(1)
    N2 = mn.FineMonoid.free(2)
    diagrams = [
        (mn.MonoidHom(N, N2, IntMatrix.from_rows([[1], [1]])),
         mn.MonoidHom(N, N, IntMatrix.from_rows([[1]]))),
        (mn.MonoidHom(N, N, IntMatrix.from_rows([[2]])),
         mn.MonoidHom(N, N, IntMatrix.from_rows([[2]]))),
        (mn.MonoidHom(N, N, IntMatrix.from_rows([[2]])),
         mn.MonoidHom(N, N, IntMatrix.from_rows([[3]]))),
    ]
    n_mod2 = mn.FineMonoid.make(FgAbelianGroup(1, (2,)), [(1, 0), (0, 1)])
    return diagrams, [N, N2, n_mod2]


def property_pushout_universal() -> CheckResult:
    diagrams, targets = _pushout_cases()
    sources = {h.target for pair in diagrams for h in pair}
    homs = {(P, T): _enumerate_monoid_homs(P, T, bound=2) for P in sources for T in targets}
    checked = 0
    for f, g in diagrams:
        data = mn.amalgamated_sum(f, g)
        section = _leg_section(data)
        for T in targets:
            by_image: dict[tuple[int, ...], list[IntMatrix]] = {}
            for B in homs[g.target, T]:
                by_image.setdefault((B @ g.matrix).entries, []).append(B)
            for A in homs[f.target, T]:
                for B in by_image.get((A @ f.matrix).entries, ()):
                    if not _mediates(data, section, T, A, B):
                        return _result("11c fs pushout universal property", False,
                                       "no mediating hom found")
                    checked += 1
    return _result("11c fs pushout universal property", True,
                   f"{checked} commuting cocones mediated uniquely")


def _leg_section(data: mn.PushoutData) -> IntMatrix:
    """S with `data.legs` S = 1: the legs side by side are the projection onto
    the pushout's group H, which is onto, so each unit vector of H has a
    preimage."""
    legs = data.legs
    cols = [solve_integer(legs, e) for e in IntMatrix.identity(legs.rows).as_rows()]
    if None in cols:
        raise InternalInvariant("the pushout legs do not generate its group")
    return IntMatrix.from_columns(cols, rows=legs.cols)


def _mediates(data: mn.PushoutData, section: IntMatrix, T: mn.FineMonoid,
              A: IntMatrix, B: IntMatrix) -> bool:
    """Is there a hom phi from the pushout to T with phi . legs == (A | B)?

    Any such phi equals phi . legs . section = (A | B) . section, so that is
    the one candidate; it must be well defined, map the saturated pushout into
    T, and give (A | B) modulo the torsion of T: as whole matrices, row i of
    phi . legs - (A | B) vanishes modulo the order of T's coordinate i, if any."""
    given = IntMatrix.from_rows([A.row(i) + B.row(i) for i in range(A.rows)])
    phi = given @ section
    H, S = data.ambient, data.report.saturated
    if not mn.hom_well_defined(H, T.ambient, phi):
        return False
    if not all(mn.contains(T, phi.apply(s)) for s in S.generators):
        return False
    got, orders = phi @ data.legs, (0,) * T.ambient.free_rank + T.ambient.torsion_orders
    return not any((x - y) % d if d else x - y for i, d in enumerate(orders)
                   for x, y in zip(got.row(i), given.row(i)))


def _smith_cases():
    """Check 11d's 120 seeded (A, U, V), U and V unimodular; rng.randrange(b - a + 1)
    + a draws what rng.randint(a, b) draws, with less work per draw."""
    rng = random.Random(3)
    for _ in range(120):
        m, n = rng.randrange(5) + 1, rng.randrange(5) + 1
        A = IntMatrix(m, n, tuple(rng.randrange(11) - 5 for _ in range(m * n)))
        yield A, _random_unimodular(rng, m), _random_unimodular(rng, n)


def property_smith_recomposition() -> CheckResult:
    for A, U, V in _smith_cases():
        snf = smith_normal_form(A)   # recomposition checked internally
        if smith_normal_form((U @ A) @ V).diagonal() != snf.diagonal():
            return _result("11d Smith recomposition & invariance", False, str(A))
    return _result("11d Smith recomposition & invariance", True, "120 random matrices")


def _random_unimodular(rng, n: int) -> IntMatrix:
    M = IntMatrix.identity(n).as_rows()
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randrange(5) - 2
        if q:
            M[i] = [a + q * b for a, b in zip(M[i], M[j])]
    return IntMatrix(n, n, tuple(itertools.chain.from_iterable(M)))


def property_subdivision_volumes() -> CheckResult:
    a2 = cc.from_toric_fan([(1, 0), (0, 1)], [(0, 1)], 2)
    quadrant = next(i for i, c in enumerate(a2.cones) if c.dim == 2)
    subs = [
        cc.star_subdivision(a2, quadrant, (1, 1)),
        cc.star_subdivision(a2, quadrant, (1, 2)),
        cc.subdivide_along_diagonal(a2).subdivision,
        cc.subdivide_along_diagonal(cc.from_toric_fan([(1,)], [(0,)], 1)).subdivision,
    ]
    P2 = lm.p2_toric_model().artin_fan
    q = next(i for i, c in enumerate(P2.cones) if c.rays == ((0, 1), (1, 0)))
    subs.append(cc.star_subdivision(P2, q, (1, 1)))
    bad = [i for i, s in enumerate(subs) if not s.support_volumes_ok()]
    return _result("11e subdivision volume conservation", not bad,
                   f"{len(subs)} subdivisions checked" + (f", failed {bad}" if bad else ""))


def property_kunneth() -> CheckResult:
    models = [lm.point_model(), lm.marked_p1(0), lm.marked_p1(2), lm.marked_p1(5),
              lm.nodal_cubic(), lm.p1_toric_model(), lm.p2_toric_model()]
    for X, Y in itertools.combinations(models, 2):
        left = dict(hkr.hh_homology(lm.product_model(X, Y)).degrees)
        a = dict(hkr.hh_homology(X).degrees)
        b = dict(hkr.hh_homology(Y).degrees)
        conv: dict[int, int] = {}
        for i, e1 in a.items():
            for j, e2 in b.items():
                conv[i + j] = conv.get(i + j, 0) + e1.total() * e2.total()
        conv = {k: v for k, v in conv.items() if v}
        got = {n: e.total() for n, e in left.items()}
        if got != conv:
            return _result("11f Kunneth convolution", False,
                           f"{X.name} x {Y.name}: {got} != {conv}")
    return _result("11f Kunneth convolution", True, "all finite built-in pairs")


def check_property_suites() -> list[CheckResult]:
    return [
        property_saturation_idempotence(),
        property_hilbert_minimality(),
        property_pushout_universal(),
        property_smith_recomposition(),
        property_subdivision_volumes(),
        property_kunneth(),
    ]


# ------------------------------------------------------------- Koszul oracle

def _koszul_basis(d: int, box: int):
    """Basis of Lambda^q tensor the Laurent monomial box, per q."""
    points = list(itertools.product(range(-box, box + 1), repeat=d))
    bases = []
    for q in range(d + 1):
        subsets = list(itertools.combinations(range(d), q))
        bases.append([(S, b) for S in subsets for b in points])
    return bases


def _koszul_matrix(box: int, q: int, bases):
    """Differential K_q -> K_{q-1} on the truncated Laurent box.

    One column per element of the q-basis, as a sparse map from indices of
    the (q-1)-basis.  Terms leaving the box are dropped.
    """
    cod_index = {x: i for i, x in enumerate(bases[q - 1])}
    cols = []
    for S, b in bases[q]:
        col: dict[int, int] = {}
        for pos, i in enumerate(S):
            sign = (-1) ** pos
            rest = S[:pos] + S[pos + 1:]
            up = b[:i] + (b[i] + 1,) + b[i + 1:]
            if b[i] < box:                  # up leaves the box only at coordinate i
                k = cod_index[(rest, up)]
                col[k] = col.get(k, 0) + sign
            k = cod_index[(rest, b)]
            col[k] = col.get(k, 0) - sign
        cols.append({k: v for k, v in col.items() if v})
    return cols


def _koszul_resolution_window(box: int, bases, diffs) -> bool:
    """Exactness of the t-part Koszul complex in a truncation window.

    `diffs[q]` holds the columns of d_q over the whole q-basis.  Kernels are
    taken over columns whose differentials stay inside the box, and images
    only use such exact columns, so the truncated image is an honest subset
    of the true one.  Kernels and ranks (over Q: the number of HNF rows) are
    taken on the dense columns, the image's HNF once per rank comparison.
    """
    d = len(bases) - 1

    def kept(q, test):
        return [i for i, x in enumerate(bases[q]) if test(x)]

    def dense(cols, q):
        """Sparse columns as dense vectors over the q-basis."""
        return [tuple(map(col.get, range(len(bases[q])), itertools.repeat(0))) for col in cols]

    inner = lambda x: max((abs(v) for v in x[1]), default=0) <= box - 1
    exact = lambda x: all(x[1][i] + 1 <= box for i in x[0])

    # d . d == 0 on the inner domain (no truncation effects there)
    for q in range(2, d + 1):
        for j in kept(q, inner):
            acc: dict[int, int] = {}
            for k, v in diffs[q][j].items():
                for kk, vv in diffs[q - 1][k].items():
                    acc[kk] = acc.get(kk, 0) + v * vv
            if any(acc.values()):
                return False

    # window homology: inner kernel of d_q lands in the image of d_{q+1}
    for q in range(1, d + 1):
        dom = kept(q, inner)
        cols = dense([diffs[q][j] for j in dom], q - 1)
        kern = kernel_basis(IntMatrix.from_columns(cols, rows=len(bases[q - 1])))
        if not kern:
            continue
        if q == d:
            return False    # top differential must be injective
        img = hnf_rows(dense([diffs[q + 1][j] for j in kept(q + 1, exact)], q))
        embedded = dense([dict(zip(dom, kv)) for kv in kern], q)
        if len(hnf_rows([*img, *embedded])) != len(img):
            return False

    # H_0 window: the class of t^0 is nonzero against the exact image
    img = hnf_rows(dense([diffs[1][j] for j in kept(1, exact)], 0))
    t0 = dense([{bases[0].index(((), (0,) * d)): 1}], 0)
    return len(hnf_rows([*img, *t0])) != len(img)


def check_koszul_oracle() -> CheckResult:
    """Tor of the diagonal chart of A^d against the HKR table.

    The chart of B is k[x][t^, 1/t] and the diagonal is cut by the regular
    sequence (t_1 - 1, ..., t_d - 1).  Tensoring the Koszul resolution down
    to the diagonal kills every differential (each entry is a multiple of
    some t_i - 1), so Tor_q is free of rank C(d, q); the graded dimensions
    must match the hh table of A^d.  Resolution exactness is verified on a
    truncated Laurent window first.
    """
    for d in (1, 2, 3):
        box = 2 if d <= 2 else 1
        bases = _koszul_basis(d, box)
        diffs = {q: _koszul_matrix(box, q, bases) for q in range(1, d + 1)}
        if not _koszul_resolution_window(box, bases, diffs):
            return _result("12 Koszul oracle", False,
                           f"resolution window failed for d={d}")
        for q in range(1, d + 1):
            # substitute t = 1: each column entry pairs +1 at b+e_i with -1
            # at b; after substitution every column must vanish identically.
            for (S, b), col in zip(bases[q], diffs[q]):
                if any(abs(x) > box - 1 for x in b):
                    continue    # only interior columns keep both terms of each pair
                collapsed: dict[tuple, int] = {}
                for k, v in col.items():
                    rest, pt = bases[q - 1][k]
                    collapsed[rest] = collapsed.get(rest, 0) + v
                if any(collapsed.values()):
                    return _result("12 Koszul oracle", False,
                                   f"tensored differential nonzero at d={d}")
        # Tor ranks: C(d, q) copies of k[x], graded by total degree
        X = lm.affine_space_model(d, truncation=8)
        hh = hkr.hh_homology(X)
        for q in range(d + 1):
            expected = [comb(d, q) * comb(w + d - 1, d - 1) for w in range(9)]
            got = list(hh.entry(q).value)
            if got != expected:
                return _result("12 Koszul oracle", False,
                               f"d={d}, q={q}: {got} != {expected}")
    return _result("12 Koszul oracle", True, "d in {1,2,3}, resolution windows verified")


# ---------------------------------------------------------------- aggregate

def run_paper_suite() -> list[CheckResult]:
    """Every check, at the default truncation whatever a document would use."""
    checks = [
        check_r_disjoint_lines(),
        check_artin_fan_products(),
        check_log_blowup_affine_line(),
        check_a2_diagonal(),
        check_nodal_cubic_hkr(),
        check_marked_p1_family(),
        check_a1_concentration(),
        check_log_alteration_invariance(),
        check_periodic_cyclic(),
        check_orbifold_decomposition(),
    ]
    checks.extend(check_property_suites())
    checks.append(check_koszul_oracle())
    return checks
