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

from .capacity import Capacity, GroundSet, _check_same_ground, _values
from .errors import NotZeroOneValued, TooLarge

INF = float("inf")
# Cap on n * cells for riemann_oracle, which makes n passes over the cells.  Its working
# memory is O(cells): it gathers from the capacities' own arrays, and holds per cell an
# int64 mask, a comparison flag and the gathered value, with no Python object per cell.
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


def _finite(values: tuple[float, ...]) -> tuple[float, ...]:
    """values, refused with ValueError unless every one is finite."""
    if not all(map(math.isfinite, values)):
        raise ValueError("values must be finite")
    return values


@dataclass(frozen=True, eq=False)
class RandomVariable:
    """One real value per ground-set element."""

    ground: GroundSet
    values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(map(float, self.values))
        object.__setattr__(self, "values", values)
        if len(values) != self.ground.n:
            raise ValueError(f"expected {self.ground.n} values, got {len(values)}")
        _finite(values)

    def map(self, fn: Callable[[float], float]) -> "RandomVariable":
        return RandomVariable(self.ground, tuple(map(fn, self.values)))

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


def _order(values: Sequence[float]) -> list[int]:
    """The indices of values in ascending order of value, from one stable sort."""
    return sorted(range(len(values)), key=values.__getitem__)


def _event(values: Sequence[float], keep: Callable[[float], bool]) -> int:
    """Bitmask of the event ``{i : keep(values[i])}``, read by its definition."""
    return sum(1 << i for i, v in enumerate(values) if keep(v))


def survival(mu: Capacity, x: RandomVariable, t: float, strict: bool = True) -> float:
    """Upper tail ``mu(X > t)``, or ``mu(X >= t)`` with ``strict=False``."""
    _check_same_ground(mu, x)
    if math.isnan(t):
        raise ValueError("threshold t is NaN")
    return mu[_event(x.values, (lambda v: v > t) if strict else (lambda v: v >= t))]


def lower_tail(nu: Capacity, x: RandomVariable, t: float, strict: bool = True) -> float:
    """Lower tail ``nu(X < t)``, or ``nu(X <= t)`` with ``strict=False``."""
    _check_same_ground(nu, x)
    if math.isnan(t):
        raise ValueError("threshold t is NaN")
    return nu[_event(x.values, (lambda v: v < t) if strict else (lambda v: v <= t))]


def gen_choquet(mu: Capacity, nu: Capacity, x: RandomVariable) -> float:
    """Exact generalized Choquet integral of X with respect to (mu, nu).

    Walks the values of X in ascending order (``_walk``) and reads the
    strict tails at each tie group: ``mu(X > t)`` is ``mu(X > previous
    value)`` up to each distinct value, and ``nu(X < t)`` is ``nu(X < next
    value)`` from it.  ``_halves`` reaches the same events as the weak
    tails ``mu(X >= d)`` and ``nu(X <= d)``, by other code.
    """
    _check_same_ground(mu, nu, x)
    total, lower_part = _walk(mu._view, nu._view, x.values, _order(x.values), x.ground.full)
    return total - lower_part


def _walk(mu_t, nu_t, values: Sequence[float], order: Sequence[int], full: int) -> tuple[float, float] | None:
    """``gen_choquet``'s walk over X in ``order`` as its parts ``(total, lower_part)``: the gains read the
    mask-indexed table mu_t only, the losses nu_t only.  It closes each tie group d as it passes, with
    the events ``X < d`` and ``X <= d``, so every order that takes the values in ascending order gives
    the same terms in the same order; any other gives None.  The caller has checked the ground sets."""
    total = lower_part = 0.0
    below = seen = 0  # X < d and X <= d of the open group d
    d = values[order[0]]
    for i in order:
        v = values[i]
        if v != d:
            if v < d:
                return None
            if d > 0.0:
                total += d * (mu_t[full ^ below] - mu_t[full ^ seen])
            elif d < 0.0:
                lower_part += d * (nu_t[below] - nu_t[seen])
            below, d = seen, v
        seen |= 1 << i
    if d > 0.0:
        total += d * (mu_t[full ^ below] - mu_t[full ^ seen])
    elif d < 0.0:
        lower_part += d * (nu_t[below] - nu_t[seen])
    return total, lower_part


def _outcome_rows(ground: GroundSet, xs) -> np.ndarray:
    """xs as a float array of finite rows of n values; RandomVariable's checks."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != ground.n:
        raise ValueError(f"expected rows of {ground.n} values, got an array of shape {xs.shape}")
    if not np.isfinite(xs).all():
        raise ValueError("values must be finite")
    return xs


def _plan(xs: np.ndarray):
    """Sorted rows, tie-group starts, and the ``X < d`` and ``X <= d`` masks of each row."""
    k, n = xs.shape
    order = np.argsort(xs, axis=1, kind="stable")
    srt = np.take_along_axis(xs, order, axis=1)
    before = np.zeros((k, n + 1), dtype=np.int64)
    np.cumsum(np.left_shift(1, order), axis=1, out=before[:, 1:])
    starts = np.ones(srt.shape, dtype=bool)
    starts[:, 1:] = srt[:, 1:] != srt[:, :-1]
    # first column of the next tie group, n after the last one
    first = np.where(starts, np.arange(n), n)
    nxt = np.concatenate([first[:, 1:], np.full((k, 1), n)], axis=1)
    nxt = np.minimum.accumulate(nxt[:, ::-1], axis=1)[:, ::-1]
    return srt, starts, before[:, :n], np.take_along_axis(before, nxt, axis=1)


def _halves(tables, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gains and loss halves of the integral of every row of xs under every table of a stack.

    ``tables`` is a (C, 2ⁿ) stack and xs a finite (K, n) array.  Returns
    ``(gains, losses)``, each (C, K): ``gains[i]`` is the scalar loop's
    ``total`` with table i as mu and ``losses[j]`` its ``lower_part`` with
    table j as nu, so ``gains[i] - losses[j]`` is ``gen_choquet`` of the pair
    bit-for-bit.

    The plan (``_plan``) depends only on the ordering of each row.  At the
    first column of a tie group with value d it holds the events ``X < d``
    and ``X <= d``; their complements are ``X >= d`` and ``X > d``.  So the
    halves read the weak tails ``mu(X >= d)`` and ``nu(X <= d)`` at each
    value, where the scalar loop (``_walk``) reads the strict tails between
    values: the same events, reached by other code.  Evaluation gathers
    the table values at those masks for every column at once, then adds
    the scalar loop's terms column by column in its order.  One half is
    summed before the other is gathered, in place, so at most two (C, K, n)
    arrays are alive.
    """
    tables = np.asarray(tables, dtype=float)
    srt, starts, below, upto = _plan(xs)
    full = tables.shape[1] - 1

    def half(before: np.ndarray, after: np.ndarray, adds: np.ndarray) -> np.ndarray:
        # every column's term srt * (t[before] - t[after]) at once, 0.0 where the scalar loop adds
        # none; a sum that starts at 0.0 is never -0.0, so adding 0.0 leaves it as it is
        terms = np.take(tables, before, axis=1)  # (C, K, n); faster than tables[:, before]
        terms -= np.take(tables, after, axis=1)
        terms *= srt
        np.copyto(terms, 0.0, where=~(starts & adds))
        out = np.zeros(terms.shape[:2])
        for j in range(srt.shape[1]):  # in ascending order, as the scalar loop adds its terms
            out += terms[:, :, j]
        return out

    return half(full ^ below, full ^ upto, srt > 0.0), half(below, upto, srt < 0.0)


def gen_choquet_batch(mu: Capacity, nu: Capacity, xs) -> np.ndarray:
    """``gen_choquet`` of every row of a (K, n) array, bit-for-bit.

    The call of ``_halves`` on the stack (mu, nu), which reads the weak tails
    where the scalar walk reads the strict ones.  Rows must be finite and
    have n columns, as for RandomVariable.
    """
    ground = _check_same_ground(mu, nu)
    gains, losses = _halves((_values(mu), _values(nu)), _outcome_rows(ground, xs))
    return gains[0] - losses[1]


def _collapse_ends(tables: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(a_X, b_X)`` of every row of a finite (K, n) array under every table t of a (C, 2ⁿ)
    stack, as two (C, K) arrays read off one plan of the rows: b_X is the largest d > 0 with
    ``t(X >= d) >= 0.5``, a_X the least c < 0 with ``t(X <= c) >= 0.5``."""
    srt, starts, below, upto = _plan(xs)
    full = tables.shape[1] - 1
    b_hit = starts & (srt > 0.0) & (tables[:, full ^ below] >= 0.5)
    a_hit = starts & (srt < 0.0) & (tables[:, upto] >= 0.5)
    return np.where(a_hit, srt, 0.0).min(axis=2), np.where(b_hit, srt, 0.0).max(axis=2)


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

    def tail_sum(table: np.ndarray, mids: np.ndarray, inside) -> float:
        """The sum over the cells of ``table`` at the set of elements whose value ``v`` has
        ``inside(v, mid)`` at the cell's midpoint."""
        masks = np.zeros(mids.size, dtype=np.int64)
        for i, v in enumerate(vals):
            np.bitwise_or(masks, 1 << i, out=masks, where=inside(v, mids))
        return float(table[masks].sum())

    total = 0.0
    hi = max(float(vals.max()), 0.0)
    if hi > 0.0:
        k = max(1, math.ceil(hi / step))
        h = hi / k
        total += h * tail_sum(_values(mu), (np.arange(k) + 0.5) * h, np.greater)
    lo = min(float(vals.min()), 0.0)
    if lo < 0.0:
        k = max(1, math.ceil(-lo / step))
        h = -lo / k
        total -= h * tail_sum(_values(nu), lo + (np.arange(k) + 0.5) * h, np.less)
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
    understood as the oriented integral (sign flipped).  Raises ValueError
    unless both bounds are finite.
    """
    for name, bound in (("lo", lo), ("hi", hi)):
        if not math.isfinite(bound):
            raise ValueError(f"bound {name} must be finite, got {bound!r}")
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


def _step_cells(xs: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """The cells of ``step_integral`` over [lo, hi] with the values of X as breakpoints, per row.

    xs is a (K, n) array and lo, hi hold each row's interval ends.  Returns
    ``(width, above, below, sign)``: per row, the width of each cell in
    ascending order, the events ``X > s`` and ``X < s`` at its midpoint s,
    and the orientation sign.  Every row has n + 1 cells: a value outside
    (lo, hi), or equal to the one before it, stands for a cell of width 0,
    which adds nothing to ``_cell_sums``.  Widths and midpoints are
    ``step_integral``'s arithmetic on the same points, so they are its
    cells bit for bit.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    flip = lo > hi
    sign = np.where(flip, -1.0, 1.0)
    lo, hi = np.where(flip, hi, lo)[:, None], np.where(flip, lo, hi)[:, None]
    inside = (xs > lo) & (xs < hi)
    pts = np.sort(np.concatenate([lo, np.where(inside, xs, hi), hi], axis=1), axis=1)
    left, right = pts[:, :-1], pts[:, 1:]
    mid = (left + right) / 2.0
    above, below = np.zeros(mid.shape, dtype=np.int64), np.zeros(mid.shape, dtype=np.int64)
    for i in range(xs.shape[1]):
        above |= np.where(xs[:, i, None] > mid, 1 << i, 0)
        below |= np.where(xs[:, i, None] < mid, 1 << i, 0)
    return right - left, above, below, sign


def _cell_sums(width: np.ndarray, sign: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``step_integral`` of each row from ``_step_cells`` and the integrand's value in each cell:
    the width times the value, added left to right from 0.0, times the sign.  ``values`` may
    stack several integrands' (K, cells) arrays in front, as (..., K, cells)."""
    # accumulate adds left to right; adding 0.0 last stands for starting from it (-0.0 becomes 0.0)
    return sign * (np.add.accumulate(width * values, axis=-1)[..., -1] + 0.0)


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
        # mu(X > s) - dual(nu)(X >= s), where dual(nu)(X >= s) = 1 - nu(X < s)
        return mu._view[_event(x.values, lambda v: v > s)] - (1.0 - nu._view[_event(x.values, lambda v: v < s)])

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
    a, b = _collapse_ends(np.stack([_values(nu), _values(mu)]), np.array([x.values]))
    return float(a[0, 0]), float(b[1, 0])


def in_l_class(mu: Capacity, nu: Capacity, x: RandomVariable, interval: IntervalI = REALS) -> bool:
    """Membership in the integrable class: values and integral inside the interval."""
    if not all(v in interval for v in x.values):
        return False
    return gen_choquet(mu, nu, x) in interval
