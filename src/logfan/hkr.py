"""Log Hochschild homology/cohomology tables, the log diagonal picture, and
periodic cyclic homology.

The formality of the derived self-intersection of the log diagonal reduces
every computation here to bookkeeping over the log Hodge table:

  homology degree n   = sum over q - p = n of h^p(Omega^{q,log})
  cohomology degree n = sum over p + q = n of h^p(Lambda^q T^log)
  periodic cyclic     = even/odd halves of the whole table

Degree conventions: homology is indexed by q - p (negative degrees happen),
cohomology by p + q >= 0.  The sign dictionary against the usual homological
indexing is spelled out in the README.
"""

from __future__ import annotations


from ._record import Record
from .conecomplex import (DiagonalSubdivision, GeneralizedConeComplex,
                          subdivide_along_diagonal)
from .errors import InternalInvariant, ScopeExceeded, SeriesNotSupported
from .logmodel import FINITE, GradedEntry, LogModel


class HHTable(Record):
    """Graded dimensions of log Hochschild homology or cohomology."""

    degrees: tuple[tuple[int, GradedEntry], ...]  # sorted, nonzero entries only

    @staticmethod
    def build(entries: dict) -> "HHTable":
        return HHTable(tuple(sorted((n, e) for n, e in entries.items() if not e.is_zero())))

    def entry(self, n: int) -> GradedEntry | None:
        for d, e in self.degrees:
            if d == n:
                return e
        return None

    def support(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.degrees)

    def dimension(self, n: int) -> int:
        e = self.entry(n)
        return 0 if e is None else e.total()

    def to_json(self):
        return {str(n): e.to_json() for n, e in self.degrees}


def _regraded(cells, degree) -> dict[int, GradedEntry]:
    """A table's entries summed by degree(p, q)."""
    out: dict[int, GradedEntry] = {}
    for (p, q), e in cells:
        n = degree(p, q)
        out[n] = out[n] + e if n in out else e
    return out


def hh_homology(X: LogModel) -> HHTable:
    """Anti-diagonal sums of the Hodge table: degree n = sum over q - p = n."""
    return HHTable.build(_regraded(X.hodge.cells, lambda p, q: q - p))


def hh_cohomology(X: LogModel) -> HHTable:
    """Diagonal sums of the dual Hodge table: degree n = sum over p + q = n."""
    if X.dual_hodge is None:
        raise ScopeExceeded(f"no polyvector table rule for model {X.name!r}")
    return HHTable.build(_regraded(X.dual_hodge.cells, lambda p, q: p + q))


class BDescription(Record):
    """What the log diagonal's middle object looks like."""

    text: str
    torus_rank: int | None


class LogDiagonalPicture(Record):
    """The factorization X -> B -> X x X at the cone-complex level."""

    base_model: LogModel
    diagonal: DiagonalSubdivision     # fan x fan subdivided along the diagonal

    @property
    def b_description(self) -> BDescription:
        X = self.base_model
        if X.dimension == 0:
            return BDescription("point", 0)
        if X.kind == "toric":
            d = X.dimension
            torus = "G_m" if d == 1 else f"G_m^{d}"
            return BDescription(f"{X.name} x {torus}", d)
        return BDescription(f"B({X.name})", None)

    @property
    def b_subcomplex(self) -> GeneralizedConeComplex:
        return self.diagonal.image_subcomplex

    @property
    def conormal_rank(self) -> int:
        """Always the model dimension, since the conormal is Omega^{1,log}."""
        return self.base_model.dimension


def log_diagonal(X: LogModel) -> LogDiagonalPicture:
    """Assemble the diagonal picture: subdivision of fan x fan along the
    diagonal and the subcomplex the diagonal factors through."""
    fan = X.artin_fan
    if not fan.is_embedded:
        raise ScopeExceeded("diagonal pictures need an embedded (fan-like) Artin fan")
    diagonal = subdivide_along_diagonal(fan)
    if diagonal.factoring is None:
        raise InternalInvariant(f"{X.name}: the diagonal should factor through its image")
    return LogDiagonalPicture(X, diagonal)


class CyclicTable(Record):
    """Periodic cyclic homology: 2-periodic even/odd totals."""

    even: GradedEntry
    odd: GradedEntry

    def to_json(self):
        return {"even": self.even.to_json(), "odd": self.odd.to_json()}


def periodic_cyclic(X: LogModel) -> CyclicTable:
    """Even/odd sums of the Hodge table, via log Hodge-to-de Rham degeneration."""
    if X.hodge.kind != FINITE:
        raise SeriesNotSupported("periodic cyclic homology needs a complete model")
    halves = _regraded(X.hodge.cells, lambda p, q: (p + q) % 2)
    zero = GradedEntry.finite(0)
    return CyclicTable(halves.get(0, zero), halves.get(1, zero))


def euler_check(X: LogModel) -> int:
    """Alternating sum of HH dimensions, which is chi(X minus D)."""
    if X.hodge.kind != FINITE:
        raise SeriesNotSupported("euler characteristics need a complete model")
    return sum((-1 if n % 2 else 1) * e.total() for n, e in hh_homology(X).degrees)
