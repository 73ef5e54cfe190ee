"""Exact evaluation of the generalized Choquet integral on finite ground sets.

For capacities ``mu`` (gains side) and ``nu`` (losses side) and a random
variable X the integral is

    C(X) = int_0^inf mu(X > t) dt  -  int_{-inf}^0 nu(X < t) dt.

On a finite ground set both tail functions are step functions whose jumps
sit at the distinct values of X, so both integrals are finite sums and the
evaluation is exact.  The positive part is accumulated in Abel (summation
by parts) form

    sum_j d_j * (mu(X >= d_j) - mu(X >= d_{j+1}))

over the ascending distinct positive values d_j, and symmetrically for the
negative part.  For {0,1}-valued capacities every weight in this sum is
exactly 0.0 or 1.0, which makes the identity ``C(X) = a_X + b_X`` hold
bit-for-bit, not merely within tolerance.

A midpoint-quadrature evaluator is kept alongside as an independent oracle;
it never shares code with the exact path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .capacity import Capacity, GroundSet, _check_same_ground
from .errors import NotZeroOneValued, TooLarge

INF = float("inf")
# Cap on n * cells for riemann_oracle: its mask step holds two int64 arrays of
# n x cells at once (16 bytes per cell and element), so one call stays near 160 MB.
ORACLE_MAX_CELLS = 10**7


@dataclass(frozen=True)
class IntervalI:
    """Open interval containing 0; either endpoint may be infinite."""

    lo: float = -INF
    hi: float = INF

    def __post_init__(self):
        if not (self.lo < 0.0 < self.hi):
            raise ValueError(f"interval must be open and contain 0, got ({self.lo}, {self.hi})")

    def __contains__(self, x: float) -> bool:
        return self.lo < x < self.hi


REALS = IntervalI()


@dataclass(frozen=True, eq=False)
class RandomVariable:
    """One real value per ground-set element."""

    ground: GroundSet
    values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if len(values) != self.ground.n:
            raise ValueError(f"expected {self.ground.n} values, got {len(values)}")
        if not all(math.isfinite(v) for v in values):
            raise ValueError("values must be finite")

    def map(self, fn: Callable[[float], float]) -> "RandomVariable":
        return RandomVariable(self.ground, tuple(fn(v) for v in self.values))

    def __add__(self, a: float) -> "RandomVariable":
        return RandomVariable(self.ground, tuple(v + a for v in self.values))

    __radd__ = __add__

    def __sub__(self, a: float) -> "RandomVariable":
        return self + (-a)

    def __rsub__(self, a: float) -> "RandomVariable":
        return RandomVariable(self.ground, tuple(a - v for v in self.values))

    def __neg__(self) -> "RandomVariable":
        return RandomVariable(self.ground, tuple(-v for v in self.values))

    def __mul__(self, b: float) -> "RandomVariable":
        return RandomVariable(self.ground, tuple(v * b for v in self.values))

    __rmul__ = __mul__

    @property
    def min(self) -> float:
        return min(self.values)

    @property
    def max(self) -> float:
        return max(self.values)


def _mask(values: Sequence[float], pred: Callable[[float], bool]) -> int:
    m = 0
    for i, v in enumerate(values):
        if pred(v):
            m |= 1 << i
    return m


def survival(mu: Capacity, x: RandomVariable, t: float, strict: bool = True) -> float:
    """Upper tail ``mu(X > t)``, or ``mu(X >= t)`` with ``strict=False``."""
    _check_same_ground(mu, x)
    if strict:
        return mu.table[_mask(x.values, lambda v: v > t)]
    return mu.table[_mask(x.values, lambda v: v >= t)]


def lower_tail(nu: Capacity, x: RandomVariable, t: float, strict: bool = True) -> float:
    """Lower tail ``nu(X < t)``, or ``nu(X <= t)`` with ``strict=False``."""
    _check_same_ground(nu, x)
    if strict:
        return nu.table[_mask(x.values, lambda v: v < t)]
    return nu.table[_mask(x.values, lambda v: v <= t)]


def gen_choquet(mu: Capacity, nu: Capacity, x: RandomVariable, strict_tails: bool = True) -> float:
    """Exact generalized Choquet integral of X with respect to (mu, nu).

    ``strict_tails`` selects which of the two (equal) tail conventions is
    used when reading the step functions off the sorted distinct values:
    ``True`` evaluates ``mu(X > left endpoint)`` / ``nu(X < right endpoint)``
    on each constancy interval, ``False`` evaluates ``mu(X >= right)`` /
    ``nu(X <= left)``.  The two conventions select identical events between
    consecutive distinct values, so the results agree exactly; both are kept
    so the equality can be asserted rather than assumed.
    """
    _check_same_ground(mu, nu, x)
    vals = x.values

    pos = sorted({v for v in vals if v > 0.0})
    if strict_tails:
        tails = [mu.table[_mask(vals, lambda v, d=d: v > d)] for d in [0.0] + pos[:-1]]
    else:
        tails = [mu.table[_mask(vals, lambda v, d=d: v >= d)] for d in pos]
    tails.append(0.0)
    total = 0.0
    for j, d in enumerate(pos):
        total += d * (tails[j] - tails[j + 1])

    neg = sorted({v for v in vals if v < 0.0})
    if strict_tails:
        lowers = [nu.table[_mask(vals, lambda v, c=c: v < c)] for c in neg[1:] + [0.0]]
    else:
        lowers = [nu.table[_mask(vals, lambda v, c=c: v <= c)] for c in neg]
    prev = 0.0
    lower_part = 0.0
    for j, c in enumerate(neg):
        lower_part += c * (prev - lowers[j])
        prev = lowers[j]
    return total - lower_part


def _outcome_rows(ground: GroundSet, xs) -> np.ndarray:
    """xs as a float array of finite rows of n values; RandomVariable's checks."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != ground.n:
        raise ValueError(f"expected rows of {ground.n} values, got an array of shape {xs.shape}")
    if not np.isfinite(xs).all():
        raise ValueError("values must be finite")
    return xs


def gen_choquet_batch(mu: Capacity, nu: Capacity, xs) -> np.ndarray:
    """``gen_choquet`` of every row of a (K, n) array, bit-for-bit.

    The plan depends only on the ordering of each row: a stable argsort, the
    first column of each tie group, and the prefix bitmasks of the sorted
    elements.  At the first column of a tie group with value d, the prefix
    before the group is the event ``X < d`` and the prefix through it is
    ``X <= d``; their complements are ``X >= d`` and ``X > d``.  These are
    the events both tail conventions select, so one plan serves both.
    Evaluation gathers the capacity values at those masks, walks the columns
    in ascending order and adds the scalar loop's terms in its order, so
    every row equals the scalar integral under either convention.  Rows must
    be finite and have n columns, as for RandomVariable.
    """
    ground = _check_same_ground(mu, nu)
    n = ground.n
    xs = _outcome_rows(ground, xs)

    # plan
    order = np.argsort(xs, axis=1, kind="stable")
    srt = np.take_along_axis(xs, order, axis=1)
    before = np.zeros((len(xs), n + 1), dtype=np.int64)
    np.cumsum(np.left_shift(1, order), axis=1, out=before[:, 1:])
    starts = np.ones(srt.shape, dtype=bool)
    starts[:, 1:] = srt[:, 1:] != srt[:, :-1]
    # first column of the next tie group, n after the last one
    first = np.where(starts, np.arange(n), n)
    nxt = np.concatenate([first[:, 1:], np.full((len(xs), 1), n)], axis=1)
    nxt = np.minimum.accumulate(nxt[:, ::-1], axis=1)[:, ::-1]
    below = before[:, :n]  # X < d at the first column of d's group
    upto = np.take_along_axis(before, nxt, axis=1)  # X <= d

    # evaluate
    mu_t, nu_t = np.asarray(mu.table, dtype=float), np.asarray(nu.table, dtype=float)
    full = ground.full
    tail, tail_next = mu_t[full ^ below], mu_t[full ^ upto]
    prev, low = nu_t[below], nu_t[upto]
    total = np.zeros(len(xs))
    lower = np.zeros(len(xs))
    for j in range(n):
        d = srt[:, j]
        total = np.where(starts[:, j] & (d > 0.0), total + d * (tail[:, j] - tail_next[:, j]), total)
        lower = np.where(starts[:, j] & (d < 0.0), lower + d * (prev[:, j] - low[:, j]), lower)
    return total - lower


def choquet(mu: Capacity, x: RandomVariable) -> float:
    """Choquet integral: losses weighted by the conjugate of ``mu``."""
    return gen_choquet(mu, mu.dual(), x)


def sipos(mu: Capacity, x: RandomVariable) -> float:
    """Symmetric integral: the same capacity on both tails."""
    return gen_choquet(mu, mu, x)


def scaled_integral(mu: Capacity, nu: Capacity, x: RandomVariable, b: float) -> float:
    """Integral of ``b * X``.

    Contract (positive homogeneity with capacity swap):
    equals ``b * gen_choquet(mu, nu, X)`` for ``b > 0`` and
    ``b * gen_choquet(nu, mu, X)`` for ``b <= 0``.
    """
    return gen_choquet(mu, nu, x * b)


def riemann_oracle(mu: Capacity, nu: Capacity, x: RandomVariable, step: float = 1e-4) -> float:
    """Midpoint-rule approximation of both tail integrals.

    Independent of the exact sorted-threshold path.  Each tail function is
    monotone with total variation at most 1, so the midpoint error is at
    most one cell width per tail: ``|exact - oracle| <= 2 * step``.  Raises
    ValueError unless the step is positive and finite, and TooLarge when n
    times the cell count exceeds ORACLE_MAX_CELLS.
    """
    _check_same_ground(mu, nu, x)
    if not 0.0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step!r}")
    cells = (max(x.max, 0.0) - min(x.min, 0.0)) / step
    if x.ground.n * cells > ORACLE_MAX_CELLS:
        raise TooLarge(
            f"oracle needs {x.ground.n} x {cells:.3g} mask cells, over the cap of "
            f"{ORACLE_MAX_CELLS:.0e}; use a larger step"
        )
    vals = np.asarray(x.values, dtype=float)
    mu_arr = np.asarray(mu.table, dtype=float)
    nu_arr = np.asarray(nu.table, dtype=float)
    bits = 1 << np.arange(x.ground.n, dtype=np.int64)

    total = 0.0
    hi = max(float(vals.max()), 0.0)
    if hi > 0.0:
        k = max(1, math.ceil(hi / step))
        h = hi / k
        mids = (np.arange(k) + 0.5) * h
        masks = ((vals[:, None] > mids[None, :]).astype(np.int64) * bits[:, None]).sum(axis=0)
        total += h * float(mu_arr[masks].sum())
    lo = min(float(vals.min()), 0.0)
    if lo < 0.0:
        k = max(1, math.ceil(-lo / step))
        h = -lo / k
        mids = lo + (np.arange(k) + 0.5) * h
        masks = ((vals[:, None] < mids[None, :]).astype(np.int64) * bits[:, None]).sum(axis=0)
        total -= h * float(nu_arr[masks].sum())
    return total


def step_integral(
    integrand: Callable[[float], float],
    lo: float,
    hi: float,
    breakpoints: Iterable[float] = (),
) -> float:
    """Exact integral of a piecewise-constant integrand over ``[lo, hi]``.

    ``breakpoints`` must contain every point where the integrand can jump;
    the integrand is then evaluated once per constancy cell, at the
    midpoint, so the result carries no quadrature error.  ``lo > hi`` is
    understood as the oriented integral (sign flipped).
    """
    if lo == hi:
        return 0.0
    sign = 1.0
    if lo > hi:
        lo, hi, sign = hi, lo, -1.0
    pts = sorted({lo, hi} | {b for b in breakpoints if lo < b < hi})
    acc = 0.0
    for left, right in zip(pts, pts[1:]):
        acc += (right - left) * integrand((left + right) / 2.0)
    return sign * acc


@dataclass(frozen=True)
class TranslationGap:
    """Both sides of the translation identity.

    ``lhs = C(a + X) - a - C(X)`` and ``correction`` is the exact step
    integral of ``mu(X > s) - dual(nu)(X >= s)`` over ``[-a, 0]``; the two
    agree within DERIVED_TOL.
    """

    lhs: float
    correction: float


def translation_gap(mu: Capacity, nu: Capacity, x: RandomVariable, a: float) -> TranslationGap:
    """Measure how far C deviates from translation equivariance at shift ``a``."""
    _check_same_ground(mu, nu, x)
    lhs = gen_choquet(mu, nu, x + a) - a - gen_choquet(mu, nu, x)

    def integrand(s: float) -> float:
        # dual(nu)(X >= s) = 1 - nu(X < s)
        return survival(mu, x, s) - (1.0 - lower_tail(nu, x, s))

    correction = step_integral(integrand, -a, 0.0, x.values)
    return TranslationGap(lhs, correction)


def ax_bx(mu: Capacity, nu: Capacity, x: RandomVariable) -> tuple[float, float]:
    """Tail-collapse points of a {0,1}-valued pair.

    ``b_X = inf{t >= 0 : mu(X > t) = 0}`` and
    ``a_X = sup{t <= 0 : nu(X < t) = 0}``; both are attained on the finite
    set of values of X (or are 0), and ``gen_choquet(mu, nu, X) = a_X + b_X``.
    """
    _check_same_ground(mu, nu, x)
    if not mu.is_zero_one_valued() or not nu.is_zero_one_valued():
        raise NotZeroOneValued("tail-collapse points require {0,1}-valued capacities")
    vals = x.values
    b = 0.0
    for d in sorted({v for v in vals if v > 0.0}, reverse=True):
        if mu.table[_mask(vals, lambda v, d=d: v >= d)] >= 0.5:
            b = d
            break
    a = 0.0
    for c in sorted({v for v in vals if v < 0.0}):
        if nu.table[_mask(vals, lambda v, c=c: v <= c)] >= 0.5:
            a = c
            break
    return a, b


def in_l_class(mu: Capacity, nu: Capacity, x: RandomVariable, interval: IntervalI = REALS) -> bool:
    """Membership in the integrable class: values and integral inside the interval."""
    if not all(v in interval for v in x.values):
        return False
    return gen_choquet(mu, nu, x) in interval
