"""Utility functions: values, derivatives, inverses and shape checks.

All families are strictly increasing with ``u(0) = 0``.  Each carries its
own open domain; two families are only defined from 0 upward (power with
zero shift, and power-expo with fractional exponent), recorded by a closed
left endpoint at 0.  Derivatives and inverses are closed-form wherever the
family admits them; the tabulated family inverts by bisection and stands in
for empirical utilities that arrive as point estimates.

``values`` evaluates a list of points at once, bit for bit ``value`` at
each: it maps ``_value`` over the list (numpy's ufuncs would round
differently), and the domain and overflow tests run once per list.

Shape certificates (concavity, weak superadditivity) are grid-based:
midpoint concavity over all grid pairs, and the two-sided inequality
``f(a) + f(b) <= f(a + b)`` over all grid pairs with ``a <= 0 <= b``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, fields
from operator import itemgetter
from typing import Sequence

import numpy as np

from .errors import DomainError, NonDifferentiable, NotInRange, ZeroDerivative

INF = float("inf")
SHAPE_TOL = 1e-12
DEFAULT_GRID_POINTS = 201
DEFAULT_GRID_BOUNDS = (-10.0, 10.0)
BISECTION_TOL = 1e-12
BISECTION_MAX_ITER = 200


class UtilityFunction:
    """Base class for strictly increasing utilities vanishing at 0.

    Families define ``_value``, ``_prime``, ``_second`` and ``_inverse`` on
    checked arguments and ``range()`` (the endpoints of the image of the
    domain; ``in_range`` says which are included).
    """

    #: open domain endpoints; subclasses override
    domain_lo: float = -INF
    domain_hi: float = INF
    #: True when the domain is [domain_lo, hi) rather than (domain_lo, hi)
    closed_at_lo: bool = False

    def in_domain(self, x: float) -> bool:
        if self.closed_at_lo:
            return self.domain_lo <= x < self.domain_hi
        return self.domain_lo < x < self.domain_hi

    def in_range(self, y: float) -> bool:
        """True where ``inverse`` applies: y is the image of a domain point."""
        lo, hi = self.range()
        return lo <= y < hi if self.closed_at_lo else lo < y < hi

    def spec(self) -> str:
        return _spec(self, _UTILITY_FAMILIES)

    def _require(self, x: float) -> float:
        x = float(x)
        if not self.in_domain(x):
            raise DomainError(f"{self.spec()}: {x!r} outside domain")
        return x

    def value(self, x: float) -> float:
        x = float(x)
        if not self.in_domain(x):
            raise DomainError(f"{self.spec()}: {x!r} outside domain")
        try:
            v = self._value(x)
        except OverflowError:
            v = INF
        if v == INF or v == -INF:
            raise ValueError(f"{self.spec()}: u({x!r}) is not a finite float (overflow)")
        return v

    __call__ = value

    def values(self, xs: Sequence[float]) -> list[float]:
        """``[self.value(x) for x in xs]``, bit for bit.

        The points are taken as floats, as ``value`` takes them, and mapped
        through ``_value`` in one comprehension.  Every domain is an
        interval, so the domain test reads the least and the greatest
        point, once the sum of the points shows no NaN; the overflow test
        looks for an infinity among the values.  Where either fails, or
        ``_value`` raises, the scalar loop runs instead and raises what
        ``value`` raises at the first point that fails.
        """
        xs = [float(x) for x in xs]
        if not xs:
            return []
        total = sum(xs)
        if total == total and self.in_domain(min(xs)) and self.in_domain(max(xs)):
            value = self._value
            try:
                vs = [value(x) for x in xs]
                if INF not in vs and -INF not in vs:
                    return vs
            except Exception:  # the scalar loop below raises it again, at its point
                pass
        return [self.value(x) for x in xs]

    def prime(self, x: float) -> float:
        return self._prime(self._require(x))

    def second(self, x: float) -> float:
        return self._second(self._require(x))

    def inverse(self, y: float) -> float:
        if not self.in_range(y):
            lo, hi = self.range()
            raise NotInRange(f"{self.spec()}: {y!r} outside the range from {lo} to {hi}")
        return self._inverse(float(y))

    def _validate_shape(self):
        # u(0) = 0 and monotone growth, certified on a grid.  Bounded
        # families saturate in floating point far from 0 (1 - exp(-...)
        # rounds to 1), so strictness is only demanded on a central window
        # where values stay resolvable; elsewhere nondecreasing suffices.
        # A steep bounded family saturates inside that window too, so a tie
        # at the top of its range counts as saturation, not as a flat piece.
        # Every test is written so that a NaN value fails it.
        value = self.value
        if not abs(value(0.0)) <= 1e-12:
            raise ValueError(f"{self.spec()}: u(0) = {value(0.0)!r}, expected 0")
        grid = default_grid(self)
        vals = self.values(grid)
        for (x0, v0), (x1, v1) in zip(zip(grid, vals), zip(grid[1:], vals[1:])):
            if not v1 >= v0:
                raise ValueError(f"{self.spec()}: decreasing between {x0} and {x1}")
        central = default_grid(self, 41, (-1.0, 1.0))
        cvals = self.values(central)
        top = self.range()[1]
        for (x0, v0), (x1, v1) in zip(zip(central, cvals), zip(central[1:], cvals[1:])):
            if not (v1 > v0 or v0 == v1 == top):
                raise ValueError(f"{self.spec()}: not strictly increasing between {x0} and {x1}")


def default_grid(
    u: UtilityFunction,
    points: int = DEFAULT_GRID_POINTS,
    bounds: tuple[float, float] = DEFAULT_GRID_BOUNDS,
) -> list[float]:
    """Evaluation grid inside the domain, clipped to ``bounds``.

    Open endpoints are approached but not touched; a closed left endpoint
    at 0 is included.
    """
    lo = max(bounds[0], u.domain_lo)
    hi = min(bounds[1], u.domain_hi)
    if not u.closed_at_lo and lo == u.domain_lo:
        lo = lo + max(1e-9, abs(lo) * 1e-9)
    if hi == u.domain_hi:
        hi = hi - max(1e-9, abs(hi) * 1e-9)
    if not lo < hi:
        raise ValueError("empty grid")
    step = (hi - lo) / (points - 1)
    return [lo + k * step for k in range(points)]


@dataclass(frozen=True)
class Exponential(UtilityFunction):
    """Constant absolute risk aversion: ``u(x) = 1 - exp(-a x)``."""

    a: float

    def __post_init__(self):
        if not 0.0 < self.a < INF:
            raise ValueError(f"a must be positive and finite, got {self.a!r}")
        self._validate_shape()

    def _value(self, x: float) -> float:
        return -math.expm1(-self.a * x)

    def _prime(self, x: float) -> float:
        return self.a * math.exp(-self.a * x)

    def _second(self, x: float) -> float:
        return -self.a * self.a * math.exp(-self.a * x)

    def _inverse(self, y: float) -> float:
        return -math.log1p(-y) / self.a

    def range(self) -> tuple[float, float]:
        return (-INF, 1.0)


@dataclass(frozen=True)
class Power(UtilityFunction):
    """Shifted power: ``u(x) = (x + a)^b - a^b`` on ``x > -a``.

    Concave iff ``b <= 1``; with ``b > 1`` it is the convex probe used by
    the shape checkers (``a=0.5, b=2`` is ``x^2 + x``).  ``a = 0`` restricts
    the domain to ``x >= 0``.
    """

    a: float
    b: float

    def __post_init__(self):
        if not (0.0 <= self.a < INF and 0.0 < self.b < INF):
            raise ValueError(f"need finite a >= 0 and b > 0, got ({self.a!r}, {self.b!r})")
        object.__setattr__(self, "domain_lo", -self.a)
        if self.a == 0.0:
            object.__setattr__(self, "closed_at_lo", True)
        self._validate_shape()

    def _value(self, x: float) -> float:
        return (x + self.a) ** self.b - self.a**self.b

    def _prime(self, x: float) -> float:
        if x == -self.a:
            raise NonDifferentiable(f"{self.spec()}: derivative undefined at the domain edge")
        return self.b * (x + self.a) ** (self.b - 1.0)

    def _second(self, x: float) -> float:
        if x == -self.a:
            raise NonDifferentiable(f"{self.spec()}: derivative undefined at the domain edge")
        return self.b * (self.b - 1.0) * (x + self.a) ** (self.b - 2.0)

    def _inverse(self, y: float) -> float:
        return (y + self.a**self.b) ** (1.0 / self.b) - self.a

    def range(self) -> tuple[float, float]:
        return (-(self.a**self.b), INF)


@dataclass(frozen=True)
class Logarithmic(UtilityFunction):
    """``u(x) = ln((x + a) / a)`` on ``x > -a``, with ``a >= 1``."""

    a: float

    def __post_init__(self):
        if not 1.0 <= self.a < INF:
            raise ValueError(f"a must be finite and >= 1, got {self.a!r}")
        object.__setattr__(self, "domain_lo", -self.a)
        self._validate_shape()

    def _value(self, x: float) -> float:
        return math.log1p(x / self.a)

    def _prime(self, x: float) -> float:
        return 1.0 / (x + self.a)

    def _second(self, x: float) -> float:
        return -1.0 / (x + self.a) ** 2

    def _inverse(self, y: float) -> float:
        return self.a * math.expm1(y)

    def range(self) -> tuple[float, float]:
        return (-INF, INF)


@dataclass(frozen=True)
class PowerExpo(UtilityFunction):
    """``u(x) = 1 - exp(-b x^c)`` on ``x >= 0``.

    Fractional powers of negative numbers are undefined (and even integer
    exponents destroy monotonicity below 0), so the domain is one-sided;
    the left endpoint 0 itself is admitted with ``u(0) = 0``.  Derivatives
    at 0 exist only for ``c = 1``.
    """

    b: float
    c: float

    domain_lo = 0.0
    closed_at_lo = True

    def __post_init__(self):
        if not (0.0 < self.b < INF and 0.0 < self.c < INF):
            raise ValueError(f"parameters must be positive and finite, got ({self.b!r}, {self.c!r})")
        self._validate_shape()

    def _value(self, x: float) -> float:
        return -math.expm1(-self.b * x**self.c)

    def _prime(self, x: float) -> float:
        if x == 0.0 and self.c != 1.0:
            raise NonDifferentiable(f"{self.spec()}: derivative undefined at 0")
        return self.b * self.c * x ** (self.c - 1.0) * math.exp(-self.b * x**self.c)

    def _second(self, x: float) -> float:
        if x == 0.0 and self.c != 1.0:
            raise NonDifferentiable(f"{self.spec()}: derivative undefined at 0")
        b, c = self.b, self.c
        return b * c * x ** (c - 2.0) * math.exp(-b * x**c) * ((c - 1.0) - b * c * x**c)

    def _inverse(self, y: float) -> float:
        return (-math.log1p(-y) / self.b) ** (1.0 / self.c)

    def range(self) -> tuple[float, float]:
        return (0.0, 1.0)


@dataclass(frozen=True)
class Linear(UtilityFunction):
    """Risk-neutral benchmark ``u(x) = x``."""

    def _value(self, x: float) -> float:
        return x

    def _prime(self, x: float) -> float:
        return 1.0

    def _second(self, x: float) -> float:
        return 0.0

    def _inverse(self, y: float) -> float:
        return y

    def range(self) -> tuple[float, float]:
        return (-INF, INF)


@dataclass(frozen=True)
class NegSqrtKink(UtilityFunction):
    """``u(x) = x - sqrt(max(-x, 0))``: weakly superadditive but not concave.

    Linear from 0 upward, with a square-root drop (convex) below 0; the
    derivative blows up at the kink.
    """

    def _value(self, x: float) -> float:
        return x - math.sqrt(-x) if x < 0.0 else x

    def _prime(self, x: float) -> float:
        if x == 0.0:
            raise NonDifferentiable(f"{self.spec()}: kink at 0")
        return 1.0 + 0.5 / math.sqrt(-x) if x < 0.0 else 1.0

    def _second(self, x: float) -> float:
        if x == 0.0:
            raise NonDifferentiable(f"{self.spec()}: kink at 0")
        return 0.25 * (-x) ** -1.5 if x < 0.0 else 0.0

    def _inverse(self, y: float) -> float:
        if y >= 0.0:
            return y
        s = (-1.0 + math.sqrt(1.0 - 4.0 * y)) / 2.0
        return -s * s

    def range(self) -> tuple[float, float]:
        return (-INF, INF)


@dataclass(frozen=True)
class PiecewiseLinearKink(UtilityFunction):
    """``u(x) = x - max(-x, 0)``, i.e. ``min(x, 2x)``: concave with a kink at 0."""

    def _value(self, x: float) -> float:
        return 2.0 * x if x < 0.0 else x

    def _prime(self, x: float) -> float:
        if x == 0.0:
            raise NonDifferentiable(f"{self.spec()}: kink at 0")
        return 2.0 if x < 0.0 else 1.0

    def _second(self, x: float) -> float:
        if x == 0.0:
            raise NonDifferentiable(f"{self.spec()}: kink at 0")
        return 0.0

    def _inverse(self, y: float) -> float:
        return y / 2.0 if y < 0.0 else y

    def range(self) -> tuple[float, float]:
        return (-INF, INF)


_abscissa = itemgetter(0)


def _segment(knots: Sequence[tuple[float, float]], x: float) -> Sequence[tuple[float, float]]:
    """End knots of the segment holding x (the first or last one beyond the ends).

    The segment ends at the first inner knot at or beyond x, found by
    bisection over the abscissae, or at the last knot; below the first
    knot and at NaN it is the first segment.
    """
    j = bisect_left(knots, x, 1, len(knots) - 1, key=_abscissa)
    return knots[j - 1], knots[j]


def _interpolate(knots: Sequence[tuple[float, float]], x: float) -> float:
    """Piecewise-linear value through ``knots`` (sorted by abscissa) at x."""
    (x0, y0), (x1, y1) = _segment(knots, x)
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


@dataclass(frozen=True)
class TabulatedUtility(UtilityFunction):
    """Strictly increasing piecewise-linear utility through knots.

    A knot at ``(0, 0)`` is required.  Domain and range are closed at both
    ends: the end knots belong to them.  The inverse runs the generic
    bisection bracket rather than segment algebra, exercising the fallback
    path an empirical (non-closed-form) utility would take; tests pin it
    against the exact segment inverse.  Its steps find each midpoint's
    segment by bisection over the knot abscissae (``_segment``), looked
    up again only when the midpoint leaves the segment of the step before,
    and take the segment's rise and run once per lookup; each step is then
    ``_interpolate``'s formula, one comparison of its distance to the
    target and one width test.  ``values`` interpolates a list of points
    with ``_interpolate``, one segment lookup per point.
    """

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        knots = tuple((float(x), float(y)) for x, y in self.knots)
        object.__setattr__(self, "knots", knots)
        if len(knots) < 2:
            raise ValueError("need at least two knots")
        if (0.0, 0.0) not in knots:
            raise ValueError("a knot at (0, 0) is required")
        for (x0, y0), (x1, y1) in zip(knots, knots[1:]):
            if not (-INF < x0 < x1 < INF and -INF < y0 < y1 < INF):
                raise ValueError("knots must be finite and strictly increasing in both coordinates")
        object.__setattr__(self, "domain_lo", knots[0][0])
        object.__setattr__(self, "domain_hi", knots[-1][0])
        object.__setattr__(self, "closed_at_lo", True)

    def in_domain(self, x: float) -> bool:
        return self.domain_lo <= x <= self.domain_hi

    def in_range(self, y: float) -> bool:
        lo, hi = self.range()
        return lo <= y <= hi

    def _value(self, x: float) -> float:
        return _interpolate(self.knots, x)

    def _prime(self, x: float) -> float:
        (x0, y0), (x1, y1) = _segment(self.knots, x)
        if x == x0 or x == x1:  # a knot: the segment's right end, or the first knot
            raise NonDifferentiable(f"{self.spec()}: knot at {x}")
        return (y1 - y0) / (x1 - x0)

    def _second(self, x: float) -> float:
        self._prime(x)
        return 0.0

    def _inverse(self, y: float) -> float:
        tol = BISECTION_TOL
        lo, hi = self.domain_lo, self.domain_hi
        x0 = x1 = lo  # no segment in hand yet: (x0, x1] is empty
        for _ in range(BISECTION_MAX_ITER):
            mid = (lo + hi) / 2.0
            # _segment maps every point of (x0, x1] to this segment; else look it up again
            if not x0 < mid <= x1:
                (x0, y0), (x1, y1) = _segment(self.knots, mid)
                dy, dx = y1 - y0, x1 - x0
            d = y0 + dy * (mid - x0) / dx - y  # v - y, with _interpolate's formula for v
            if -tol <= d <= tol:  # abs(v - y) <= tol
                return mid
            if d < 0.0:  # v < y: v - y rounds to 0 only where v == y
                lo = mid
            else:
                hi = mid
            # the step is tol * max(1.0, abs(lo)); rounding commutes with the sign and with max
            if hi - lo <= (tol * lo if lo > 1.0 else tol * -lo if lo < -1.0 else tol):
                break
        return (lo + hi) / 2.0

    def range(self) -> tuple[float, float]:
        return (self.knots[0][1], self.knots[-1][1])


def arrow_pratt(u: UtilityFunction, x: float) -> float:
    """Absolute risk-aversion coefficient ``-u''(x) / u'(x)``."""
    d1 = u.prime(x)
    if d1 <= 0.0:
        raise ZeroDerivative(f"{u.spec()}: u'({x}) = {d1}")
    return -u.second(x) / d1


@dataclass(frozen=True)
class ShapeCheck:
    """Grid certificate; ``witness`` is the offending pair when it fails."""

    holds: bool
    witness: tuple[float, float] | None
    gap: float

    def __bool__(self) -> bool:
        return self.holds


def _per_distinct(fn, xs: np.ndarray, dtype=float) -> np.ndarray:
    """The list function ``fn`` (such as ``values``) at every entry of xs, called once on the list of
    its distinct floats (by bit pattern, so 0.0 and -0.0 are apart)."""
    xs = np.ascontiguousarray(xs, dtype=float)
    keys, inverse = np.unique(xs.view(np.int64).ravel(), return_inverse=True)
    out = np.array(fn(keys.view(np.float64).tolist()), dtype=dtype)
    return out[inverse].reshape(xs.shape)


def _each(fn):
    """The list function of the scalar ``fn``: it calls fn once per point, in order."""
    return lambda xs: [fn(x) for x in xs]


def is_concave_on(f, grid: Sequence[float], tol: float = SHAPE_TOL) -> ShapeCheck:
    """Midpoint concavity ``f((x+y)/2) >= (f(x)+f(y))/2 - tol`` over grid pairs.

    Every pair x < y of distinct grid points is scored at once, as
    ``(f(x) + f(y)) / 2 - f((x + y) / 2)``; the worst is the first largest
    gap in the order of a double loop over the pairs, and a NaN gap never
    is.  f runs once per distinct grid point and midpoint.
    """
    xs = sorted(set(float(x) for x in grid))
    pts, order = np.array(xs), np.arange(len(xs))
    i, j = np.nonzero(order[:, None] < order)  # np.triu_indices(len(xs), 1) at an eighth of its cost
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN arise as in float arithmetic
        mids = (pts[i] + pts[j]) / 2.0
    vals = _per_distinct(_each(f.value), np.concatenate([pts, mids]))
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = (vals[i] + vals[j]) / 2.0 - vals[len(xs) :]
    gaps[np.isnan(gaps)] = -INF
    k = int(np.argmax(gaps)) if len(gaps) else 0
    worst_gap = float(gaps[k]) if len(gaps) else -INF
    worst = None if worst_gap == -INF else (xs[i[k]], xs[j[k]])
    return ShapeCheck(worst_gap <= tol, None if worst_gap <= tol else worst, worst_gap)


def is_weakly_superadditive_on(f, grid: Sequence[float], tol: float = SHAPE_TOL) -> ShapeCheck:
    """Check ``f(a) + f(b) <= f(a + b)`` for grid pairs with ``a <= 0 <= b``.

    Pairs whose sum leaves the evaluation domain are skipped.  f runs once
    per distinct point of the pairs it scores.
    """
    xs = sorted(set(float(x) for x in grid))
    neg = [x for x in xs if x <= 0.0]
    pos = [x for x in xs if x >= 0.0]
    if not neg or not pos:
        raise ValueError("grid must straddle 0")
    triples = [(a, b, a + b) for a in neg for b in pos if f.in_domain(a + b)]
    vals = _per_distinct(_each(f.value), np.array(triples, dtype=float).reshape(-1, 3)).tolist()
    worst, worst_gap = None, float("-inf")
    for (a, b, _), (f_a, f_b, f_sum) in zip(triples, vals):
        gap = f_a + f_b - f_sum
        if gap > worst_gap:
            worst, worst_gap = (a, b), gap
    return ShapeCheck(worst_gap <= tol, None if worst_gap <= tol else worst, worst_gap)


@dataclass(frozen=True)
class ComposedMap:
    """``g = u o v^{-1}`` with the closed-form second derivative.

    ``second`` evaluates
    ``-(u'(y) / v'(y)^2) (r_u(y) - r_v(y))`` at ``y = v^{-1}(x)``; the sign
    of the bracket is exactly the Arrow-Pratt comparison, so g is concave
    where u is (weakly) more risk averse than v.
    """

    u: UtilityFunction
    v: UtilityFunction

    def value(self, x: float) -> float:
        return self.u.value(self.v.inverse(x))

    def second(self, x: float) -> float:
        y = self.v.inverse(x)
        ru = arrow_pratt(self.u, y)
        rv = arrow_pratt(self.v, y)
        d = self.v.prime(y)  # twice over d: d ** 2 overflows for a steep v, such as exp:70 at -10
        return -(self.u.prime(y) / d / d) * (ru - rv)

    def grid(self, points: int = DEFAULT_GRID_POINTS, bounds=DEFAULT_GRID_BOUNDS) -> list[float]:
        """Grid in the x-space of g (the image of v), without the points that round out of v's range."""
        ys = default_grid(self.v, points, bounds)
        xs = self.v.values([y for y in ys if self.u.in_domain(y)])
        return [x for x in xs if self.v.in_range(x)]


def compose_via_inverse(u: UtilityFunction, v: UtilityFunction) -> ComposedMap:
    """Relative-curvature map ``u o v^{-1}`` used by agent comparison."""
    return ComposedMap(u, v)


def _number(p: float) -> str:
    """p as a spec writes it: in ``:g`` form where that reads back as p, else in full (``repr``)."""
    text = f"{p:g}"
    return text if float(text) == p else repr(float(p))


def _spec(f, families: dict) -> str:
    """The spec of f that ``_parse_spec`` reads back from ``families`` as f.

    f's family is the first class of its MRO in the table, so a subclass
    writes its base family's spec.  A knot family writes its knots, any
    other family its first ``count`` dataclass fields: the ones
    ``_parse_spec`` fills positionally.  Each number goes through
    ``_number``.
    """
    kinds = {cls: (kind, count) for kind, (cls, count) in families.items()}
    family = next((cls for cls in type(f).__mro__ if cls in kinds), None)
    if family is None:
        raise TypeError(f"{type(f).__name__} is in no family table, so it has no spec")
    kind, count = kinds[family]
    params = [getattr(f, field.name) for field in fields(family)]
    if count is None:
        args = ";".join(f"{_number(x)},{_number(y)}" for x, y in params[0])
    else:
        args = ",".join(map(_number, params[:count]))
    return f"{kind}:{args}" if args else kind


def _parse_spec(spec: str, families: dict, what: str):
    """Build ``kind``, ``kind:p1,p2,...`` or ``kind:x,y;x,y;...`` from ``families``.

    ``families`` maps a kind to its class and parameter count (None: a knot
    table).  Bare kinds match exactly, kinds before a colon in any case.
    """
    spec = spec.strip()
    kind, colon, args = spec.partition(":")
    kind = kind.lower() if colon else kind
    if kind not in families:
        raise ValueError(f"unknown {what} family {kind!r}" if colon else f"cannot parse {what} spec {spec!r}")
    cls, count = families[kind]
    try:
        if count is None:
            return cls(tuple(tuple(float(t) for t in knot.split(",")) for knot in args.split(";")))
        params = [float(t) for t in args.split(",")] if colon else []
        if len(params) != count:
            raise ValueError(f"{what} family {kind!r} takes {count} parameter(s), got {len(params)}")
        return cls(*params)
    except ArithmeticError as exc:  # e.g. an overflow in the shape check
        raise ValueError(f"cannot parse {what} spec {spec!r}: {exc}") from exc


#: kind -> (class, parameter count), None for a knot table
_UTILITY_FAMILIES = {
    "linear": (Linear, 0), "negsqrt": (NegSqrtKink, 0), "kink": (PiecewiseLinearKink, 0),
    "exp": (Exponential, 1), "log": (Logarithmic, 1), "power": (Power, 2), "powerexpo": (PowerExpo, 2),
    "utable": (TabulatedUtility, None),
}


def parse_utility(spec: str) -> UtilityFunction:
    """Build a utility from a CLI spec string.

    Formats: ``linear``, ``exp:1.0``, ``power:4,0.5``, ``log:1``,
    ``powerexpo:1,2``, ``negsqrt``, ``kink``,
    ``utable:-1,-2;0,0;1,0.5``.
    """
    return _parse_spec(spec, _UTILITY_FAMILIES, "utility")
