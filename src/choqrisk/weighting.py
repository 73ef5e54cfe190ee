"""Parametric probability-weighting (distortion) functions on [0, 1].

Every family maps 0 to 0 and 1 to 1 exactly and is validated to be
nondecreasing on a 1001-point grid at construction.  The conjugate reading
``dual_value(p) = 1 - value(1 - p)`` is what pairs a gains-side weighting
with a losses-side one when checking conjugate dominance of the induced
distorted capacities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import DomainError, TooLarge
from .utility import _interpolate, _parse_spec, _spec

GRID_POINTS = 1001
#: cap on the rows of one figure_data grid (the published figures use 1001)
_MAX_GRID_POINTS = 10**6
DOMINANCE_TOL = 1e-12

# Empirically the inverse-S family below loses monotonicity once its
# curvature parameter drops to about 0.28, hence the guarded range.
KT_GAMMA_MIN = 0.28


def _check_p(p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"probability must lie in [0, 1], got {p!r}")
    return p


class WeightingFunction:
    """Base class; concrete families implement ``_raw(p)`` on (0, 1)."""

    def value(self, p: float) -> float:
        p = _check_p(p)
        if p == 0.0:
            return 0.0
        if p == 1.0:
            return 1.0
        return self._raw(p)

    __call__ = value

    def spec(self) -> str:
        return _spec(self, _WEIGHTING_FAMILIES)

    def dual_value(self, p: float) -> float:
        """Conjugate weighting ``1 - value(1 - p)``."""
        return 1.0 - self.value(1.0 - _check_p(p))

    def _validate_shape(self):
        grid = np.linspace(0.0, 1.0, GRID_POINTS)
        vals = np.array([self.value(float(p)) for p in grid])
        if not (abs(vals[0]) <= 1e-12 and abs(vals[-1] - 1.0) <= 1e-12):
            raise ValueError(f"{self!r}: endpoints map to ({vals[0]}, {vals[-1]}), expected (0, 1)")
        drops = np.nonzero(~(np.diff(vals) >= -1e-12))[0]  # written so that a NaN step fails
        if drops.size:
            k = int(drops[0])
            raise ValueError(
                f"{self!r} is decreasing between p={grid[k]:.4f} and p={grid[k + 1]:.4f}"
            )


@dataclass(frozen=True)
class Identity(WeightingFunction):
    def _raw(self, p: float) -> float:
        return p


@dataclass(frozen=True)
class KahnemanTversky(WeightingFunction):
    """Inverse-S weighting ``p^g / (p^g + (1-p)^g)^(1/g)``, with ``gamma`` in (0.28, 1]."""

    gamma: float

    def __post_init__(self):
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma!r}")
        if not KT_GAMMA_MIN < self.gamma <= 1.0:
            raise ValueError(f"gamma={self.gamma!r} outside ({KT_GAMMA_MIN}, 1]")
        self._validate_shape()

    def _raw(self, p: float) -> float:
        g = self.gamma
        num = p**g
        return num / (num + (1.0 - p) ** g) ** (1.0 / g)


@dataclass(frozen=True)
class GoldsteinEinhorn(WeightingFunction):
    """Linear-in-log-odds weighting ``d p^g / (d p^g + (1-p)^g)``."""

    delta: float
    gamma: float

    def __post_init__(self):
        if not (0.0 < self.delta < math.inf and 0.0 < self.gamma < math.inf):
            raise ValueError(f"parameters must be positive and finite, got ({self.delta!r}, {self.gamma!r})")
        self._validate_shape()

    def _raw(self, p: float) -> float:
        num = self.delta * p**self.gamma
        return num / (num + (1.0 - p) ** self.gamma)


@dataclass(frozen=True)
class Prelec(WeightingFunction):
    """Compound-invariant weighting ``exp(-d (-ln p)^g)``.

    The value at p = 0 is the limit 0.  For d = 1 the point 1/e is fixed
    for every ``gamma``.
    """

    delta: float
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.delta < math.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta!r}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma!r}")
        self._validate_shape()

    def _raw(self, p: float) -> float:
        return math.exp(-self.delta * (-math.log(p)) ** self.gamma)


@dataclass(frozen=True)
class TabulatedWeighting(WeightingFunction):
    """Monotone piecewise-linear interpolation through empirical knots.

    Knots must start at (0, 0), end at (1, 1) and be nondecreasing in both
    coordinates; empirical weighting estimates usually come this way.
    """

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        knots = tuple((float(p), float(w)) for p, w in self.knots)
        object.__setattr__(self, "knots", knots)
        if len(knots) < 2:
            raise ValueError("need at least the two endpoint knots")
        if knots[0] != (0.0, 0.0) or knots[-1] != (1.0, 1.0):
            raise ValueError("knots must start at (0, 0) and end at (1, 1)")
        # between the finite ends these comparisons also refuse NaN and infinity
        for (p0, w0), (p1, w1) in zip(knots, knots[1:]):
            if not p1 > p0:
                raise ValueError("knot abscissae must be finite and strictly increasing")
            if not w1 >= w0 - 1e-12:
                raise ValueError("knot ordinates must be finite and nondecreasing")

    def _raw(self, p: float) -> float:
        return _interpolate(self.knots, p)


@dataclass(frozen=True)
class DominanceScan:
    """Grid scan of ``g(p) - dual_h(p)``; dominance holds iff max <= 1e-12."""

    holds: bool
    max_gap: float
    argmax: float
    grid_size: int

    def __bool__(self) -> bool:
        return self.holds


class _DominanceTally:
    """The largest ``g(p) - dual_h(p)`` over figure rows, kept while the rows stream past."""

    def __init__(self):
        self.rows, self.argmax, self.max_gap = 0, 0.0, float("-inf")

    def watch(self, rows: Iterable[tuple[float, float, float]]) -> Iterator[tuple[float, float, float]]:
        """Yield ``rows`` unchanged, tallying each one."""
        for row in rows:
            p, gp, hp = row
            gap = gp - hp
            if gap > self.max_gap:
                self.argmax, self.max_gap = p, gap
            self.rows += 1
            yield row

    def scan(self) -> DominanceScan:
        return DominanceScan(self.max_gap <= DOMINANCE_TOL, self.max_gap, self.argmax, self.rows)


def dominance_check(
    g: WeightingFunction, h: WeightingFunction, grid_size: int = GRID_POINTS
) -> DominanceScan:
    """Check ``g(p) <= 1 - h(1 - p)`` on a uniform grid.

    This is exactly conjugate dominance of the induced distorted capacities
    for every base probability, certified at grid resolution.
    """
    tally = _DominanceTally()
    for _ in tally.watch(_figure_rows(g, h, grid_size)):
        pass
    return tally.scan()


def _figure_rows(
    g: WeightingFunction, h: WeightingFunction, grid_size: int
) -> Iterator[tuple[float, float, float]]:
    """Rows ``(p, g(p), dual_h(p))`` on a uniform grid of at most _MAX_GRID_POINTS, made one at a
    time; the grid size is checked on the call, before any row."""
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    if grid_size > _MAX_GRID_POINTS:
        raise TooLarge(f"grid_size {grid_size} is above the cap of {_MAX_GRID_POINTS} rows")
    return ((p, g.value(p), h.dual_value(p)) for p in (k / (grid_size - 1) for k in range(grid_size)))


def figure_data(
    g: WeightingFunction, h: WeightingFunction, grid_size: int = GRID_POINTS
) -> list[tuple[float, float, float]]:
    """Rows ``(p, g(p), dual_h(p))`` on a uniform grid of at most _MAX_GRID_POINTS, ready for CSV."""
    return list(_figure_rows(g, h, grid_size))


#: kind -> (class, parameter count), None for a knot table
_WEIGHTING_FAMILIES = {
    "identity": (Identity, 0), "kt": (KahnemanTversky, 1), "ge": (GoldsteinEinhorn, 2),
    "prelec": (Prelec, 2), "table": (TabulatedWeighting, None),
}


def parse_weighting(spec: str) -> WeightingFunction:
    """Build a weighting function from a CLI spec string.

    Formats: ``identity``, ``kt:0.61``, ``ge:0.65,0.60``, ``prelec:1,0.74``,
    ``table:0,0;0.4,0.5;1,1``.
    """
    return _parse_spec(spec, _WEIGHTING_FAMILIES, "weighting")
