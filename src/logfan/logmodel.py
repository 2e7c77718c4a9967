"""Desk-scale log-smooth models: an Artin fan plus a log Hodge table.

A model packages exactly what the homology calculators consume: its cone
complex, its flags, and the table h^p(X, Omega^{q,log}), which fixes its
dimension, whether it is affine and its truncation.  For
affine models the entries are weight-graded dimension series truncated at a
configurable order; for complete models they are plain integers.  The two
kinds never mix inside one table.

Model classes provided: complete smooth toric, affine toric, P^1 with n
marked points, the nodal cubic, mixed-affine spaces (A^n with a designated
log subset, the orbifold substrate), products, and subdivided toric models.
One form count, `_form_series`, gives both the mixed-affine tables (every
form, trivial character) and the invariants of `orbifold_hh` (the forms of
each twisted sector by character).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from math import comb
from operator import add

from . import _geometry as geom
from . import monoid as monoid_mod
from ._record import Record
from .conecomplex import (GeneralizedConeComplex, Subdivision, from_toric_fan,
                          point_complex, product as complex_product,
                          snc_artin_fan)
from .conecomplex import nodal_cubic_complex
from .errors import KindMismatch, NotComplete, ScopeExceeded, SeriesNotSupported
from .lattice import IntMatrix, primitive

DEFAULT_TRUNCATION = 10

FINITE = "finite"
SERIES = "series"


class GradedEntry(Record):
    """A dimension: a plain count (an int), or a truncated weight-graded
    series (a tuple of coefficients)."""

    value: int | tuple[int, ...]

    @staticmethod
    def finite(n: int) -> "GradedEntry":
        if n < 0:
            raise ValueError("dimensions are nonnegative")
        return GradedEntry(int(n))

    @staticmethod
    def series(coeffs) -> "GradedEntry":
        coeffs = [int(c) for c in coeffs]
        if any(c < 0 for c in coeffs):
            raise ValueError("series coefficients are nonnegative")
        return GradedEntry(tuple(coeffs))

    @property
    def kind(self) -> str:
        return FINITE if isinstance(self.value, int) else SERIES

    @property
    def truncation(self) -> int | None:
        return len(self.value) - 1 if self.kind == SERIES else None

    def is_zero(self) -> bool:
        if self.kind == FINITE:
            return self.value == 0
        return not any(self.value)

    def total(self) -> int:
        """Finite value, or sum of the stored coefficients."""
        return self.value if self.kind == FINITE else sum(self.value)

    def __add__(self, other: "GradedEntry") -> "GradedEntry":
        if self.kind != other.kind:
            raise KindMismatch("cannot add finite and series entries")
        if self.kind == FINITE:
            return GradedEntry.finite(self.value + other.value)
        n = min(len(self.value), len(other.value))
        return GradedEntry.series([self.value[i] + other.value[i] for i in range(n)])

    def __mul__(self, other: "GradedEntry") -> "GradedEntry":
        if self.kind == FINITE and other.kind == FINITE:
            return GradedEntry.finite(self.value * other.value)
        if self.kind == FINITE:
            return GradedEntry.series([self.value * c for c in other.value])
        if other.kind == FINITE:
            return other * self
        raise KindMismatch("series x series products are out of scope")

    def shifted(self, w: int) -> "GradedEntry":
        """Multiply a series by t^w."""
        if self.kind == FINITE:
            raise SeriesNotSupported("shift applies to series entries")
        return GradedEntry.series(([0] * w + list(self.value))[:len(self.value)])

    def to_json(self):
        if self.kind == FINITE:
            return self.value
        return {"series": list(self.value), "truncation": self.truncation}

    def render(self) -> str:
        if self.kind == FINITE:
            return str(self.value)
        terms = []
        for w, c in enumerate(self.value):
            if c == 0:
                continue
            if w == 0:
                terms.append(str(c))
            else:
                base = "t" if w == 1 else f"t^{w}"
                terms.append(base if c == 1 else f"{c}{base}")
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O(t^{len(self.value)})"


class HodgeTable(Record):
    """h^p(X, Omega^{q,log}) for 0 <= p, q <= dim, one entry kind per table."""

    dim: int
    cells: tuple[tuple[tuple[int, int], GradedEntry], ...]

    @staticmethod
    def build(dim: int, entries: dict) -> "HodgeTable":
        kinds = {e.kind for e in entries.values() if not e.is_zero()}
        if len(kinds) > 1:
            raise KindMismatch("finite and series entries mixed within one table")
        cells = []
        for (p, q), e in sorted(entries.items()):
            if not (0 <= p <= dim and 0 <= q <= dim):
                if not e.is_zero():
                    raise ValueError("entry outside the Hodge square")
                continue
            if not e.is_zero():
                cells.append(((p, q), e))
        return HodgeTable(dim, tuple(cells))

    @property
    def kind(self) -> str:
        return self.cells[0][1].kind if self.cells else FINITE

    @property
    def truncation(self) -> int | None:
        return self.cells[0][1].truncation if self.cells else None

    def entry(self, p: int, q: int) -> GradedEntry:
        for key, e in self.cells:
            if key == (p, q):
                return e
        return GradedEntry(0 if self.kind == FINITE else (0,) * (self.truncation + 1))

    def convolve(self, other: "HodgeTable") -> "HodgeTable":
        dim = self.dim + other.dim
        out: dict = {}
        for (p1, q1), e1 in self.cells:
            for (p2, q2), e2 in other.cells:
                key = (p1 + p2, q1 + q2)
                prod = e1 * e2
                out[key] = out[key] + prod if key in out else prod
        return HodgeTable.build(dim, out)

    def to_json(self):
        return {f"{p},{q}": e.to_json() for (p, q), e in self.cells}


class LogModel(Record):
    """A log-smooth combinatorial model, so the rank of its log differentials
    is its dimension.

    The Hodge table fixes the dimension, whether the model is affine (its
    entries are weight series) and the series truncation."""

    name: str
    artin_fan: GeneralizedConeComplex
    hodge: HodgeTable
    dual_hodge: HodgeTable | None
    kind: str
    log_coords: tuple[int, ...] = ()

    def __post_init__(self):
        # a series table has no entry with p > 0
        if self.affine and any(p > 0 and not e.is_zero() for (p, _), e in self.hodge.cells):
            raise ValueError("affine models have no higher cohomology")

    @property
    def dimension(self) -> int:
        return self.hodge.dim

    @property
    def affine(self) -> bool:
        return self.hodge.kind == SERIES


def point_model() -> LogModel:
    table = HodgeTable.build(0, {(0, 0): GradedEntry.finite(1)})
    return LogModel("point", point_complex(), table, table, kind="point")


def _covers_space(fan: GeneralizedConeComplex, rank: int) -> bool:
    """Is the support of a fan in Z^rank the whole space?

    Exactly when every maximal cone is full-dimensional and every wall (a
    face of codimension one) lies in two maximal cones: the last point of
    the support on a generic path out of it would sit inside a wall of a
    single maximal cone.
    """
    tops = [fan.cones[j] for j in fan.maximal_cone_indices()]
    if any(c.dim != rank for c in tops):
        return False
    walls = Counter(f for c in tops for f in c.faces if f.dim == rank - 1)
    return all(n == 2 for n in walls.values())


def toric_model(rays, maximal_cones, rank: int, complete: bool,
                name: str = "toric", truncation: int = DEFAULT_TRUNCATION) -> LogModel:
    """Toric variety with its full boundary divisor; Omega^{1,log} is trivial.

    Complete models get finite tables h^{0,q} = C(d,q).  Affine models (one
    full-dimensional maximal cone) get weight series: the coordinate ring
    graded by pairing with the sum of the primitive rays.
    """
    fan = from_toric_fan(rays, maximal_cones, rank)
    if complete:
        if not _covers_space(fan, rank):
            raise NotComplete("fan support is not the whole space")
        entries = {(0, q): GradedEntry.finite(comb(rank, q)) for q in range(rank + 1)}
        table = HodgeTable.build(rank, entries)
        return LogModel(name, fan, table, table, kind="toric")
    if len(maximal_cones) != 1:
        raise ScopeExceeded("affine toric models use a single maximal cone")
    sigma = [tuple(int(x) for x in rays[i]) for i in maximal_cones[0]]
    if geom.ConeGeometry.of(sigma, rank).span_dim != rank:
        raise ScopeExceeded("affine toric models need a full-dimensional cone")
    S = _affine_weight_series(sigma, rank, truncation)
    entries = {(0, q): GradedEntry.finite(comb(rank, q)) * S for q in range(rank + 1)}
    table = HodgeTable.build(rank, entries)
    dual = None
    if len(sigma) == rank and geom.simplicial_index(sigma) == 1:
        dual_entries = {(0, q): (GradedEntry.finite(comb(rank, q)) * S).shifted(q)
                        for q in range(rank + 1)}
        dual = HodgeTable.build(rank, dual_entries)
    return LogModel(name, fan, table, dual, kind="toric", log_coords=tuple(range(rank)))


def _affine_weight_series(sigma_rays, rank: int, truncation: int) -> GradedEntry:
    """Monomial count of k[dual(sigma) cap M] by weight against sum of rays."""
    dual = geom.ConeGeometry.of(sigma_rays, rank)
    hb = monoid_mod.hilbert_basis(dual.normals, rank)
    w = tuple(map(sum, zip(*map(primitive, sigma_rays))))
    counts = [0] * (truncation + 1)
    seen = {(0,) * rank}
    counts[0] = 1
    frontier = [(0,) * rank]
    while frontier:
        nxt = []
        for p in frontier:
            for h in hb:
                cand = geom.vadd(p, h)
                wt = geom.dot(w, cand)
                if wt <= truncation and cand not in seen:
                    seen.add(cand)
                    counts[wt] += 1
                    nxt.append(cand)
        frontier = nxt
    return GradedEntry.series(counts)


def affine_space_model(d: int, truncation: int = DEFAULT_TRUNCATION) -> LogModel:
    """A^d with its full toric boundary."""
    if d == 0:
        return point_model()
    return toric_model(IntMatrix.identity(d).as_rows(), [tuple(range(d))], d, complete=False,
                       name=f"A^{d}", truncation=truncation)


def p1_toric_model() -> LogModel:
    return toric_model([(1,), (-1,)], [(0,), (1,)], 1, complete=True, name="P^1")


def p2_toric_model() -> LogModel:
    return toric_model([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0)], 2,
                       complete=True, name="P^2")


def _line_bundle_h0(m: int) -> int:
    return max(0, m + 1)


def _line_bundle_h1(m: int) -> int:
    return max(0, -m - 1)


def marked_p1(n: int) -> LogModel:
    """P^1 with n distinct marked points; Omega^{1,log} = O(n-2)."""
    if n < 0:
        raise ValueError("marked point count is nonnegative")
    entries = {
        (0, 0): GradedEntry.finite(1),
        (1, 0): GradedEntry.finite(0),
        (0, 1): GradedEntry.finite(_line_bundle_h0(n - 2)),
        (1, 1): GradedEntry.finite(_line_bundle_h1(n - 2)),
    }
    dual_entries = {
        (0, 0): GradedEntry.finite(1),
        (1, 0): GradedEntry.finite(0),
        (0, 1): GradedEntry.finite(_line_bundle_h0(2 - n)),
        (1, 1): GradedEntry.finite(_line_bundle_h1(2 - n)),
    }
    fan = snc_artin_fan([(i,) for i in range(n)]) if n else point_complex()
    return LogModel(f"P^1 with {n} marked points", fan,
                    HodgeTable.build(1, entries), HodgeTable.build(1, dual_entries),
                    kind="marked_p1")


def nodal_cubic() -> LogModel:
    """The nodal cubic, log smooth over a rank-one base point.

    The log cotangent bundle is trivial and the curve has arithmetic genus 1,
    so all four Hodge entries equal 1 (classical; not recomputed here).
    """
    one = GradedEntry.finite(1)
    entries = {(0, 0): one, (1, 0): one, (0, 1): one, (1, 1): one}
    table = HodgeTable.build(1, entries)
    return LogModel("nodal cubic", nodal_cubic_complex(), table, table, kind="nodal_cubic")


def mixed_affine(num_coords: int, log_coords, *,
                 truncation: int = DEFAULT_TRUNCATION, name: str | None = None) -> LogModel:
    """A^n with the divisorial log structure on a subset of the coordinates.

    Weight convention: a monomial contributes its total degree, a dx_j form
    index contributes 1, a dlog x_i contributes 0.  Every form has the
    trivial character, so the entries are row 0 of `_form_series`.
    """
    log_coords = tuple(sorted(set(int(i) for i in log_coords)))
    if any(i < 0 or i >= num_coords for i in log_coords):
        raise ValueError("log coordinate out of range")
    table = _form_series(log_coords, range(num_coords), [(0,)] * num_coords, truncation)
    entries = {(0, q): GradedEntry.series(rows[0]) for q, rows in table.items()}
    if name is None:
        marks = ",".join(f"x{i}" for i in log_coords) or "no log"
        name = f"A^{num_coords} (log at {marks})" if log_coords else f"A^{num_coords} ({marks})"
    if l := len(log_coords):
        fan = from_toric_fan(IntMatrix.identity(l).as_rows(), [tuple(range(l))], l)
    else:
        fan = point_complex()
    return LogModel(name, fan, HodgeTable.build(num_coords, entries), None,
                    kind="mixed_affine", log_coords=log_coords)


def _form_series(log_coords, coords, shifts, N: int) -> dict:
    """Forms on `coords` of weight <= N, counted by form degree q and
    character: table[q][r] is the weight series (N + 1 counts) of the forms
    whose character is group element number r, 0 being the identity.  Rows
    stay sparse: a character no form reaches has none.

    Built one coordinate at a time: a log coordinate contributes x^e and
    x^e dlog x (weight e, character e chi), any other coordinate x^e and,
    for e >= 1, x^(e-1) dx (weight e, character e chi).  Raising the weight
    by e shifts a series e places; the character moves one step per e along
    `shifts[i]`, the element index of r + chi_i for each r.  The last
    coordinate adds only to the identity's rows, the invariant ones.
    """
    table = {0: {0: [1] + [0] * N}}
    for i in coords:
        shift, is_log, final = shifts[i], i in log_coords, i == coords[-1]
        step = defaultdict(lambda: defaultdict(lambda: [0] * (N + 1)))
        for q, rows in table.items():
            for r, series in rows.items():
                # from e = N + 1 - (the lowest weight present) on, nothing is left
                low = next(filter(series.__getitem__, range(N + 1)))
                for e in range(N + 1 - low):
                    if not (r and final):
                        part = series[:N + 1 - e]
                        for dq in (0, 1) if is_log or e else (0,):
                            out = step[q + dq][r]
                            out[e:] = map(add, out[e:], part)
                    r = shift[r]
        table = step
    return table


def product_model(X: LogModel, Y: LogModel) -> LogModel:
    """Product: Artin fans multiply, Hodge tables convolve (Kunneth)."""
    if X.hodge.kind == SERIES and Y.hodge.kind == SERIES:
        raise KindMismatch("series x series product models are out of scope")
    table = X.hodge.convolve(Y.hodge)
    # a dual table has its Hodge table's kind, so two series were refused above
    dual = None
    if X.dual_hodge is not None and Y.dual_hodge is not None:
        dual = X.dual_hodge.convolve(Y.dual_hodge)
    fan = complex_product(X.artin_fan, Y.artin_fan)
    return LogModel(f"{X.name} x {Y.name}", fan, table, dual, kind="product")


def subdivided_model(X: LogModel, s: Subdivision) -> LogModel:
    """Log alteration instance: subdividing the fan keeps the Hodge table.

    Scope: complete smooth toric models and unimodular subdivisions.
    """
    if X.kind != "toric" or X.affine:
        raise ScopeExceeded("subdivided models require a complete toric model")
    if s.structure.target != X.artin_fan:
        raise ScopeExceeded("subdivision does not refine this model's fan")
    if not s.all_unimodular():
        raise ScopeExceeded("subdivision must be unimodular (log modification)")
    return LogModel(f"{X.name} (subdivided)", s.refined, X.hodge, X.dual_hodge, kind="toric")
