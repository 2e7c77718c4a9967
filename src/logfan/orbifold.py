"""Firm finite-group actions and the orbifold Hochschild decomposition.

An action is diagonal: a finite abelian group acting by characters on the
coordinates of a mixed-affine model (or on the marked points of P^1, where
only firmness detection applies).  A permutation part may be supplied but is
used solely to detect non-firm actions; sector machinery requires a genuine
diagonal action.

For a firm action the g-twisted sector is empty as soon as g scales a log
coordinate nontrivially (the twisted diagonal misses the log diagonal);
otherwise it is the mixed-affine submodel on the fixed coordinates.
Invariants are counted exactly up to the truncation order by the form count
that also gives the mixed-affine tables, `logmodel._form_series`: for each
form degree and each character (a group element), a series of counts by
weight, the Molien series of a diagonal abelian action read without roots of
unity; no cyclotomic arithmetic anywhere.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

from ._record import Record, set_field
from .errors import NotFirm, ScopeExceeded
from .hkr import HHTable, hh_homology
from .logmodel import GradedEntry, LogModel, _form_series, mixed_affine

MAX_GROUP_ORDER = 1_000


class DiagonalAction(Record):
    """Finite abelian group acting by characters on model coordinates.

    group_orders are the cyclic factor orders; characters[j][i] is the
    exponent by which the j-th generator scales the i-th coordinate, modulo
    the generator order.  The optional permutation detects non-firmness.
    """

    model: LogModel
    group_orders: tuple[int, ...]
    characters: tuple[tuple[int, ...], ...]
    permutation: tuple[int, ...] | None = None

    def __post_init__(self):
        for d in self.group_orders:
            if d < 2:
                raise ValueError("cyclic factor orders must be >= 2")
        if math.prod(self.group_orders) > MAX_GROUP_ORDER:
            raise ScopeExceeded(f"groups of order above {MAX_GROUP_ORDER} are out of scope")
        if len(self.characters) != len(self.group_orders):
            raise ValueError("one character row per group generator")
        n = self._coord_count()
        for row in self.characters:
            if len(row) != n:
                raise ValueError("character row length must match the coordinate count")
        set_field(self, "characters", tuple(
            tuple(x % d for x in row)
            for row, d in zip(self.characters, self.group_orders)))
        if self.permutation is not None:
            if sorted(self.permutation) != list(range(n)):
                raise ValueError("permutation must permute the coordinates")
        if self.group_orders and self.model.kind not in ("mixed_affine", "marked_p1"):
            raise ScopeExceeded(
                "nontrivial actions are supported on mixed-affine models and marked P^1")

    def _coord_count(self) -> int:
        if self.model.kind == "marked_p1":
            return self.model.artin_fan.ray_count
        return self.model.dimension

    def elements(self):
        """Group elements in a fixed lexicographic order."""
        return list(itertools.product(*(range(d) for d in self.group_orders)))

    def acts_trivially(self, g, coord: int) -> bool:
        """Is sum_j g_j c_j(coord) / d_j an integer?  With L the lcm of the
        orders d_j: is sum_j g_j c_j(coord) L / d_j = 0 mod L?"""
        L = math.lcm(*self.group_orders)
        return sum(gj * row[coord] * (L // d) for gj, row, d in
                   zip(g, self.characters, self.group_orders)) % L == 0


def check_firm(a: DiagonalAction) -> bool:
    """Firmness: the induced action on the Artin fan is trivial.

    Diagonal character parts always fix the fan.  A permutation moving log
    coordinates (equivalently, rays) breaks firmness; permuting marked
    points of P^1 does too.
    """
    coords = range(a._coord_count()) if a.model.kind == "marked_p1" else a.model.log_coords
    return a.permutation is None or all(a.permutation[i] == i for i in coords)


class TwistedSector(Record):
    """The g-summand of the orbifold decomposition."""

    g: tuple[int, ...]
    locus: LogModel | None

    @property
    def is_empty(self) -> bool:
        return self.locus is None


def _sector_coords(a: DiagonalAction, g) -> tuple[int, ...] | None:
    """The coordinates g fixes, or None when its twisted sector is empty
    (g moves a log coordinate).  The identity fixes every coordinate of any
    model; other elements need a purely diagonal action on a firm mixed-affine one."""
    if len(g) != len(a.group_orders) or not all(
            0 <= x < d for x, d in zip(g, a.group_orders)):
        raise ValueError(f"element {g} must give one residue per order {a.group_orders}")
    if not any(g):
        return tuple(range(a._coord_count()))
    if a.model.kind != "mixed_affine":
        raise ScopeExceeded("twisted sectors are computed for mixed-affine models")
    if a.permutation is not None and any(a.permutation[i] != i
                                         for i in range(len(a.permutation))):
        raise ScopeExceeded("sector machinery needs a purely diagonal action")
    if not all(a.acts_trivially(g, i) for i in a.model.log_coords):
        return None
    return tuple(i for i in range(a.model.dimension) if a.acts_trivially(g, i))


def twisted_sector(a: DiagonalAction, g) -> TwistedSector:
    """Log fixed locus of g: empty when g moves a log coordinate, otherwise
    the mixed-affine submodel on the chi-trivial coordinates."""
    g = tuple(g)
    if not check_firm(a):
        raise NotFirm("the action moves the Artin fan")
    fixed = _sector_coords(a, g)
    if fixed is None:
        return TwistedSector(g, None)
    if not any(g):
        return TwistedSector(g, a.model)
    log_positions = [fixed.index(i) for i in a.model.log_coords]
    locus = mixed_affine(len(fixed), log_positions,
                         truncation=a.model.hodge.truncation,
                         name=f"{a.model.name} ^ g={g}")
    return TwistedSector(g, locus)


def orbifold_hh(a: DiagonalAction) -> HHTable:
    """Orbifold log Hochschild homology: sector sum followed by G-invariants.

    Sectors are affine here, so homology degree n only sees q = n.  A basis
    element is a monomial on the sector coordinates wedged with dlog's
    (weight 0, trivial character) and dx's (weight 1, coordinate character);
    the invariant ones are the residue-0 series of `_form_series`, taken
    once per set of fixed coordinates, times the number of sectors on it.
    """
    if not check_firm(a):
        raise NotFirm("the action moves the Artin fan")
    if not a.group_orders:
        return hh_homology(a.model)
    if a.model.kind != "mixed_affine":
        raise ScopeExceeded("orbifold tables are computed for mixed-affine models")
    N = a.model.hodge.truncation
    elements = a.elements()
    index = {g: k for k, g in enumerate(elements)}
    shifts = [[index[tuple((x + c) % d for x, c, d in zip(g, chi, a.group_orders))]
               for g in elements] for chi in zip(*a.characters)]
    counts = [[0] * (N + 1) for _ in range(a.model.dimension + 1)]
    sectors = Counter(_sector_coords(a, g) for g in elements)
    sectors.pop(None, None)
    for coords, mult in sectors.items():
        for q, rows in _form_series(a.model.log_coords, coords, shifts, N).items():
            for w, c in enumerate(rows.get(0, ())):
                counts[q][w] += mult * c
    return HHTable.build({q: GradedEntry.series(c) for q, c in enumerate(counts)})

