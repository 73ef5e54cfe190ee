"""Utility families: derivatives against finite differences, inverses,
Arrow-Pratt coefficients, shape certificates.

The finite-difference oracles here are the independent check on every
closed-form derivative; step 1e-4, tolerance 1e-5 at interior points.
"""

import importlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choqrisk import (
    Exponential,
    Linear,
    Logarithmic,
    NegSqrtKink,
    PiecewiseLinearKink,
    Power,
    PowerExpo,
    TabulatedUtility,
    TabulatedWeighting,
    arrow_pratt,
    compose_via_inverse,
    is_concave_on,
    is_weakly_superadditive_on,
    parse_utility,
)
from choqrisk.errors import DomainError, NonDifferentiable, NotInRange
from choqrisk.utility import (
    BISECTION_MAX_ITER,
    BISECTION_TOL,
    SHAPE_TOL,
    ShapeCheck,
    UtilityFunction,
    _UTILITY_FAMILIES,
    _number,
    _segment,
    default_grid,
)

FD_STEP = 1e-4
FD_TOL = 1e-5

ALL_SMOOTH = [
    Exponential(0.7),
    Exponential(2.0),
    Power(4.0, 0.5),
    Power(2.0, 0.8),
    Logarithmic(1.0),
    Logarithmic(3.0),
    PowerExpo(1.0, 0.5),
    PowerExpo(0.5, 2.0),
    Linear(),
]


def fd_prime(u, x, h=FD_STEP):
    return (u.value(x + h) - u.value(x - h)) / (2 * h)


def fd_second(u, x, h=FD_STEP):
    return (u.value(x + h) - 2 * u.value(x) + u.value(x - h)) / (h * h)


def interior_points(u):
    lo = max(u.domain_lo, -4.0)
    hi = min(u.domain_hi, 4.0)
    lo = lo + 0.3 * (hi - lo) / 10 if lo > -4.0 else lo
    pts = [lo + k * (hi - lo) / 12 for k in range(1, 12)]
    return [p for p in pts if u.in_domain(p - FD_STEP) and u.in_domain(p + FD_STEP) and abs(p) > 0.01]


# --- values and closed forms -------------------------------------------------

def test_exponential_at_origin():
    u = Exponential(1.0)
    assert u.value(0.0) == 0.0
    assert u.prime(0.0) == 1.0
    assert u.second(0.0) == -1.0


def test_power_worked():
    u = Power(4.0, 0.5)
    assert u.value(5.0) == pytest.approx(1.0, abs=1e-15)  # 3 - 2
    assert u.inverse(1.0) == pytest.approx(5.0, abs=1e-12)


def test_logarithmic_inverse():
    u = Logarithmic(1.0)
    assert u.inverse(math.log(2.0)) == pytest.approx(1.0, abs=1e-15)


def test_powerexpo_inverse_round_trip():
    u = PowerExpo(0.8, 0.6)
    for x in (0.1, 1.0, 3.7):
        assert u.inverse(u.value(x)) == pytest.approx(x, rel=1e-12)


def test_every_family_vanishes_at_zero():
    for u in ALL_SMOOTH + [NegSqrtKink(), PiecewiseLinearKink()]:
        assert u.value(0.0) == 0.0


def test_domain_enforced():
    u = Logarithmic(1.0)
    with pytest.raises(DomainError):
        u.value(-1.0)
    with pytest.raises(DomainError):
        PowerExpo(1.0, 0.5).value(-0.1)


def test_inverse_range_enforced():
    with pytest.raises(NotInRange):
        Exponential(1.0).inverse(1.0)
    with pytest.raises(NotInRange):
        Power(4.0, 0.5).inverse(-5.0)


# --- derivative oracles ----------------------------------------------------------

@pytest.mark.parametrize("u", ALL_SMOOTH, ids=lambda u: u.spec())
def test_prime_matches_finite_difference(u):
    for x in interior_points(u):
        assert u.prime(x) == pytest.approx(fd_prime(u, x), rel=1e-6, abs=FD_TOL)


@pytest.mark.parametrize("u", ALL_SMOOTH, ids=lambda u: u.spec())
def test_second_matches_finite_difference(u):
    for x in interior_points(u):
        assert u.second(x) == pytest.approx(fd_second(u, x), rel=1e-4, abs=FD_TOL)


@pytest.mark.parametrize("u", ALL_SMOOTH, ids=lambda u: u.spec())
def test_inverse_round_trip(u):
    for x in interior_points(u):
        assert u.inverse(u.value(x)) == pytest.approx(x, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("u", ALL_SMOOTH, ids=lambda u: u.spec())
def test_increasing_on_grid(u):
    # nondecreasing over the full grid (bounded families saturate in float
    # far from 0), strictly increasing on the central window
    grid = default_grid(u)
    vals = [u.value(x) for x in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    central = default_grid(u, 41, (-1.0, 1.0))
    cvals = [u.value(x) for x in central]
    assert all(b > a for a, b in zip(cvals, cvals[1:]))


# --- arrow-pratt -------------------------------------------------------------------

def test_cara_constant():
    u = Exponential(1.7)
    for x in (-2.0, 0.0, 3.5):
        assert arrow_pratt(u, x) == pytest.approx(1.7, abs=1e-12)


def test_linear_zero():
    assert arrow_pratt(Linear(), 1.0) == 0.0


def test_logarithmic_curvature():
    u = Logarithmic(1.0)
    for x in (0.0, 1.0, 4.0):
        assert arrow_pratt(u, x) == pytest.approx(1.0 / (1.0 + x), abs=1e-12)


@pytest.mark.parametrize("u", ALL_SMOOTH, ids=lambda u: u.spec())
def test_arrow_pratt_matches_finite_differences(u):
    for x in interior_points(u):
        expected = -fd_second(u, x) / fd_prime(u, x)
        assert arrow_pratt(u, x) == pytest.approx(expected, rel=1e-4, abs=FD_TOL)


def test_kink_derivatives_raise():
    for u in (NegSqrtKink(), PiecewiseLinearKink()):
        with pytest.raises(NonDifferentiable):
            u.prime(0.0)
        with pytest.raises(NonDifferentiable):
            u.second(0.0)


# --- shape certificates ---------------------------------------------------------------

def grid_for(u, lo=-6.0, hi=6.0, pts=121):
    return [x for x in (lo + k * (hi - lo) / (pts - 1) for k in range(pts)) if u.in_domain(x)]


def test_exponential_concave():
    u = Exponential(1.0)
    assert is_concave_on(u, grid_for(u)).holds


def test_linear_concave_weakly():
    assert is_concave_on(Linear(), grid_for(Linear())).holds


def test_negsqrt_not_concave_with_negative_witness():
    u = NegSqrtKink()
    check = is_concave_on(u, grid_for(u))
    assert not check.holds
    x, y = check.witness
    assert x < 0.0  # convex stretch sits on the negative side


def test_concavity_agrees_with_second_derivative_sign():
    for u in ALL_SMOOTH:
        grid = grid_for(u, -4.0, 4.0, 81)
        grid = [x for x in grid if abs(x) > 1e-9 or not u.closed_at_lo]
        check = is_concave_on(u, grid)
        seconds = [u.second(x) for x in grid if x != u.domain_lo]
        assert check.holds == all(s <= 1e-9 for s in seconds)


def test_weak_superadditivity_of_exponential():
    u = Exponential(1.0)
    assert is_weakly_superadditive_on(u, grid_for(u)).holds


def test_weak_superadditivity_of_kink():
    u = PiecewiseLinearKink()
    assert is_weakly_superadditive_on(u, grid_for(u)).holds


def test_weak_superadditivity_of_negsqrt():
    u = NegSqrtKink()
    assert is_weakly_superadditive_on(u, grid_for(u)).holds


def test_log1p_is_weakly_superadditive():
    """ln(1+a) + ln(1+b) <= ln(1+a+b) reduces to ab <= 0, true for a <= 0 <= b.

    Sometimes quoted the other way round in the literature; the checker
    reports the algebraic truth (see README, "known discrepancies").
    """
    u = Logarithmic(1.0)
    check = is_weakly_superadditive_on(u, grid_for(u, -0.95, 6.0, 141))
    assert check.holds


def test_convex_probe_is_not_weakly_superadditive():
    u = Power(0.5, 2.0)  # x^2 + x
    check = is_weakly_superadditive_on(u, grid_for(u, -0.45, 4.0, 101))
    assert not check.holds
    a, b = check.witness
    assert u.value(a) + u.value(b) > u.value(a + b)


def test_ws_grid_must_straddle_zero():
    with pytest.raises(ValueError):
        is_weakly_superadditive_on(Linear(), [1.0, 2.0])


def double_loop_concave(f, grid, tol=SHAPE_TOL):
    """``is_concave_on`` as a double loop that calls f at every pair's midpoint (the reference)."""
    fn = f.value
    xs = sorted(set(float(x) for x in grid))
    vals = [fn(x) for x in xs]
    worst, worst_gap = None, float("-inf")
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            gap = (vals[i] + vals[j]) / 2.0 - fn((xs[i] + xs[j]) / 2.0)
            if gap > worst_gap:
                worst, worst_gap = (xs[i], xs[j]), gap
    return ShapeCheck(worst_gap <= tol, None if worst_gap <= tol else worst, worst_gap)


def double_loop_superadditive(f, grid, tol=SHAPE_TOL):
    """``is_weakly_superadditive_on`` as a double loop that calls f three times per pair."""
    fn = f.value
    xs = sorted(set(float(x) for x in grid))
    neg = [x for x in xs if x <= 0.0]
    pos = [x for x in xs if x >= 0.0]
    if not neg or not pos:
        raise ValueError("grid must straddle 0")
    worst, worst_gap = None, float("-inf")
    for a in neg:
        for b in pos:
            if not f.in_domain(a + b):
                continue
            gap = fn(a) + fn(b) - fn(a + b)
            if gap > worst_gap:
                worst, worst_gap = (a, b), gap
    return ShapeCheck(worst_gap <= tol, None if worst_gap <= tol else worst, worst_gap)


SHAPE_UTILITIES = [
    Exponential(1.0), Power(1.0, 0.5), Power(0.5, 2.0), Logarithmic(1.0), NegSqrtKink(),
    PiecewiseLinearKink(), Linear(), TabulatedUtility(((-3.0, -6.0), (-1.0, -1.5), (0.0, 0.0), (2.0, 1.4))),
]


@pytest.mark.parametrize("u", SHAPE_UTILITIES, ids=lambda u: u.spec())
def test_shape_checks_match_the_double_loops_bitwise(u):
    rng = np.random.default_rng(17)
    for trial in range(20):
        lo, hi = max(u.domain_lo + 1e-6, -4.0), min(u.domain_hi, 4.0)
        pts = rng.uniform(lo, hi, int(rng.integers(2, 30)))
        # a lattice makes midpoints land on grid points; signed zeros test the memo's keys
        pts = np.round(pts * 4.0) / 4.0 if trial % 2 else pts
        grid = [float(p) for p in pts] + [[0.0], [-0.0], []][trial % 3]
        grid = [x for x in grid if u.in_domain(x)]
        if len(grid) < 2:
            continue
        assert repr(is_concave_on(u, grid)) == repr(double_loop_concave(u, grid))
        if min(grid) <= 0.0 <= max(grid):
            assert repr(is_weakly_superadditive_on(u, grid)) == repr(double_loop_superadditive(u, grid))


class NaNAtOddQuarters:
    """x -> sign * x², except NaN at the odd multiples of 1/4."""

    def __init__(self, sign):
        self.sign = sign

    def value(self, x):
        return math.nan if (4.0 * x) % 2.0 == 1.0 else self.sign * x * x


@pytest.mark.parametrize(
    "f, grid",
    [
        # NaN gaps, first in pair order, among finite ones; and only NaN gaps
        (NaNAtOddQuarters(1.0), [0.0, 0.5, 1.0, 1.5, 2.0]),
        (NaNAtOddQuarters(-1.0), [0.0, 0.5, 1.0, 1.5, 2.0]),
        (NaNAtOddQuarters(1.0), [0.0, 0.5]),
        (NaNAtOddQuarters(1.0), [-0.25, 0.25, 1.0, 3.0]),  # NaN at grid points too
        # one point and none: no pair
        (Exponential(1.0), [1.0]),
        (Exponential(1.0), []),
        # both zeros: the grid keeps the first one, whose sign f's value and the witness show
        (Power(0.5, 2.0), [0.0, -0.0, 0.25, 1.0]),
        (Power(0.5, 2.0), [-0.0, 0.0, 0.25, 1.0]),
        (Power(0.5, 2.0), [0.25, -0.25, -0.0, 0.0]),
        (Exponential(1.0), [-0.0, 1.0, 0.0, -1.0]),
    ],
    ids=["nan-convex", "nan-concave", "nan-only", "nan-at-grid", "one-point", "empty",
         "zero-first", "minus-zero-first", "zeros-as-midpoints", "zeros-concave"],
)
def test_concavity_check_matches_the_double_loop_at_its_edges(f, grid):
    assert repr(is_concave_on(f, grid)) == repr(double_loop_concave(f, grid))


def test_shape_checks_call_f_once_per_distinct_point():
    u = Exponential(1.0)
    calls = []
    object.__setattr__(u, "value", lambda x: calls.append(x) or Exponential.value(u, x))
    # nonneg_loss_check's concavity grid: 101 points on [0, 10)
    grid = [0.0 + k * (10.0 - 1e-8) / 100 for k in range(101)]
    assert repr(is_concave_on(u, grid)) == repr(double_loop_concave(Exponential(1.0), grid))
    midpoints = {(a + b) / 2.0 for i, a in enumerate(grid) for b in grid[i + 1 :]}
    assert len(calls) == len(set(calls)) == len(midpoints | set(grid)) == 435  # the double loop: 5,151
    calls.clear()
    grid = [-5.0 + 0.25 * k for k in range(41)]
    assert repr(is_weakly_superadditive_on(u, grid)) == repr(double_loop_superadditive(Exponential(1.0), grid))
    assert len(calls) == len(set(calls)) == 41  # every sum a + b is a grid point


# --- bulk values -----------------------------------------------------------------------

class NaNBelowZero(Linear):
    """The identity, except NaN below 0: a subclass that overrides ``_value`` alone."""

    def _value(self, x):
        return math.nan if x < 0.0 else x


def bulk_maps():
    from choqrisk.theorems import AffineMap, PlainMap

    return [
        Exponential(1.0), Exponential(70.0), Power(1.0, 0.5), Power(0.0, 2.0), Power(0.5, 2.0), Power(6.0, 0.5),
        Logarithmic(1.0), PowerExpo(1.0, 0.5), PowerExpo(0.5, 2.0), Linear(), NegSqrtKink(), PiecewiseLinearKink(),
        TabulatedUtility(((-3.0, -6.0), (-1.0, -1.5), (0.0, 0.0), (1.0, 0.8), (2.0, 1.4), (6.0, 2.8))),
        NaNBelowZero(), AffineMap(1.0, 2.0), PlainMap("expm1", math.expm1),
    ]


@pytest.mark.parametrize("f", bulk_maps(), ids=lambda f: f.spec())
def test_values_match_the_scalar_values_bitwise(f):
    """``values`` of a list is ``value`` at each point, bit for bit, or raises what the first
    failing ``value`` call raises: out of the domain, NaN, or an overflow (exp:70 below about -10,
    power:0.5,2 and expm1 far above 0)."""
    rng = np.random.default_rng(43)
    specials = [0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, -3.0, 6.0, -6.0, -20.0, 800.0, 1e200, -1e200]
    pool = [float(x) for x in rng.uniform(-12.0, 12.0, 300)] + specials
    inside = [x for x in pool if f.in_domain(x)]
    outside = [math.nan, math.inf, -math.inf] + [x for x in pool if not f.in_domain(x)]
    kinds = set()
    for trial in range(300):
        xs = [inside[k] for k in rng.integers(0, len(inside), int(rng.integers(1, 12)))]
        if trial % 3 == 0:  # one bad point, anywhere in the list
            xs.insert(int(rng.integers(0, len(xs) + 1)), outside[int(rng.integers(0, len(outside)))])
        want = outcome(lambda: [f.value(x) for x in xs])
        assert outcome(f.values, xs) == want, xs
        kinds.add(want[0] if isinstance(want, tuple) else "ok")
    assert f.values([]) == []
    assert "ok" in kinds
    if isinstance(f, UtilityFunction):  # NaN and the infinities lie outside every domain
        assert "DomainError" in kinds
    if f.spec() in ("exp:70", "power:0.5,2"):
        assert "ValueError" in kinds  # the overflow message, u(...) is not a finite float
    if f.spec() == "expm1":
        assert "OverflowError" in kinds


def test_values_evaluate_a_list_without_the_scalar_method(monkeypatch):
    """In the domain and without overflow, ``values`` makes no ``value`` call, and a subclass that
    overrides ``_value`` alone is evaluated through its own ``_value``."""
    maps = [f for f in bulk_maps() if isinstance(f, UtilityFunction)]
    xs = [[0.0, 0.5, 1.0, 2.0, 5.0, -0.0, 0.25] for _ in maps]
    want = [[f.value(x) for x in pts] for f, pts in zip(maps, xs)]
    monkeypatch.setattr(UtilityFunction, "value", lambda self, x: pytest.fail("a scalar value call"))
    for f, pts, expected in zip(maps, xs, want):
        assert repr(f.values(pts)) == repr(expected), f.spec()
    assert repr(NaNBelowZero().values([-1.0, 1.0])) == "[nan, 1.0]"


@pytest.mark.parametrize("f", [f for f in bulk_maps() if isinstance(f, UtilityFunction)], ids=lambda f: f.spec())
def test_values_take_ints_and_numpy_scalars_as_value_does(f):
    """``value`` takes its point as a float first; ``values`` does too, so an int or an
    np.float64 point gives the same Python float, or the same error, as ``value`` gives."""
    for xs in ([0, 1, 2], [np.float64(0.0), np.float64(0.5), np.float64(1.0)], [np.float64(800.0)], [np.float64(-20.0)]):
        want = outcome(lambda: [f.value(x) for x in xs])
        got = outcome(f.values, xs)
        assert got == want, xs
        if not isinstance(want, tuple):
            assert all(type(v) is float for v in f.values(xs)), xs


# --- composition -----------------------------------------------------------------------

def test_compose_same_utility_is_identity():
    u = Exponential(1.3)
    comp = compose_via_inverse(u, u)
    for x in (-0.5, 0.0, 0.7):
        assert comp.value(x) == pytest.approx(x, abs=1e-12)
        assert comp.second(x) == pytest.approx(0.0, abs=1e-12)


def test_compose_exponentials_strictly_concave():
    comp = compose_via_inverse(Exponential(2.0), Exponential(1.0))
    for x in comp.grid(41, (-3.0, 3.0)):
        assert comp.second(x) < 0.0


def test_compose_grid_drops_the_points_that_round_out_of_the_range():
    v = Exponential(70.0)
    comp = compose_via_inverse(v, v)
    xs = comp.grid()
    assert len(xs) == 201 - 95  # 95 of the y points map to 1.0, the open end of v's range
    assert all(v.in_range(x) for x in xs)
    assert all(comp.second(x) == 0.0 for x in xs)


def test_compose_second_matches_finite_difference():
    comp = compose_via_inverse(Exponential(2.0), Logarithmic(2.0))
    for x in (-0.5, 0.2, 1.0):
        h = FD_STEP
        fd = (comp.value(x + h) - 2 * comp.value(x) + comp.value(x - h)) / (h * h)
        assert comp.second(x) == pytest.approx(fd, rel=1e-4, abs=FD_TOL)


def test_compose_concavity_iff_arrow_pratt_order():
    pairs = [
        (Exponential(2.0), Exponential(1.0), True),
        (Exponential(1.0), Exponential(2.0), False),
        (Logarithmic(1.0), Logarithmic(2.0), True),
    ]
    for u, v, expect in pairs:
        comp = compose_via_inverse(u, v)
        xs = comp.grid(81, (-0.9, 5.0))
        concave = all(comp.second(x) <= 1e-9 for x in xs)
        r_order = all(
            arrow_pratt(u, v.inverse(x)) >= arrow_pratt(v, v.inverse(x)) - 1e-9 for x in xs
        )
        assert concave == expect and r_order == expect


# --- tabulated utility --------------------------------------------------------------------

def test_tabulated_bisection_matches_segment_algebra():
    u = TabulatedUtility(((-2.0, -3.0), (0.0, 0.0), (1.0, 0.5), (3.0, 1.0)))

    def exact_inverse(y):
        ks = u.knots
        for (x0, y0), (x1, y1) in zip(ks, ks[1:]):
            if y0 <= y <= y1:
                return x0 + (x1 - x0) * (y - y0) / (y1 - y0)
        raise AssertionError

    for y in (-2.5, -1.0, 0.0, 0.25, 0.75, 1.0):
        assert u.inverse(y) == pytest.approx(exact_inverse(y), abs=1e-9)


def linear_walk_segment(knots, x):
    """End knots of the segment holding x by a walk over the knots, kept verbatim as the reference."""
    j = 1
    while j < len(knots) - 1 and knots[j][0] < x:
        j += 1
    return knots[j - 1], knots[j]


class LinearWalkTable(TabulatedUtility):
    """TabulatedUtility with the knot walk and the bisection inverse kept verbatim as the reference."""

    def _value(self, x):
        (x0, y0), (x1, y1) = linear_walk_segment(self.knots, x)
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def _prime(self, x: float) -> float:
        for kx, _ in self.knots:
            if x == kx:
                raise NonDifferentiable(f"{self.spec()}: knot at {x}")
        (x0, y0), (x1, y1) = linear_walk_segment(self.knots, x)
        return (y1 - y0) / (x1 - x0)

    def _inverse(self, y: float) -> float:
        lo, hi = self.domain_lo, self.domain_hi
        for _ in range(BISECTION_MAX_ITER):
            mid = (lo + hi) / 2.0
            v = self._value(mid)
            if abs(v - y) <= BISECTION_TOL:
                return mid
            if v < y:
                lo = mid
            else:
                hi = mid
            if hi - lo <= BISECTION_TOL * max(1.0, abs(lo)):
                break
        return (lo + hi) / 2.0


def knot_tables(rng):
    """Knot tables through (0, 0): two knots, dyadic knots that bisection midpoints land on,
    neighbouring floats as knots, and random tables of 3-9 knots."""
    tiny = 5e-324
    yield ((-1.0, -2.0), (0.0, 0.0))
    yield ((0.0, 0.0), (1.0, 0.5))
    # bisection over [-4, 4] visits 0, then 2 on the segment (1, 3], then its ends 1 or 3
    yield ((-4.0, -8.0), (-2.0, -3.0), (-1.0, -1.0), (0.0, 0.0), (1.0, 0.75), (3.0, 1.25), (4.0, 1.5))
    yield ((-1.0, -1.0), (-tiny, -1e-300), (0.0, 0.0), (tiny, 1e-300), (math.nextafter(1.0, 0.0), 0.5), (1.0, 0.6))
    for _ in range(20):
        xs = sorted({0.0, *(float(x) for x in rng.uniform(-5.0, 5.0, int(rng.integers(2, 9))))})
        ys = np.cumsum(rng.uniform(0.01, 2.0, len(xs)))
        yield tuple(zip(xs, (ys - ys[xs.index(0.0)]).tolist()))


def probe_points(knots, rng):
    """The knot abscissae and their neighbours, the range ends and beyond, signed zeros, NaN,
    cell midpoints and random points."""
    xs = [x for x, _ in knots]
    points = xs + [math.nextafter(x, d) for x in xs for d in (-math.inf, math.inf)]
    points += [(a + b) / 2.0 for a, b in zip(xs, xs[1:])]
    points += [0.0, -0.0, xs[0] - 1.0, xs[-1] + 1.0, -math.inf, math.inf, math.nan]
    return points + [float(x) for x in rng.uniform(xs[0], xs[-1], 40)]


def inverse_targets(knots, rng):
    """The knot ordinates, their midpoints and neighbours, the range ends and beyond, -0.0, NaN
    and random points of the range."""
    ys = [y for _, y in knots]
    targets = ys + [(a + b) / 2.0 for a, b in zip(ys, ys[1:])]
    targets += [math.nextafter(y, d) for y in ys for d in (-math.inf, math.inf)]
    targets += [ys[0] - 1.0, ys[-1] + 1.0, -0.0, math.nan]
    return targets + [float(y) for y in rng.uniform(ys[0], ys[-1], 40)]


def outcome(fn, *args):
    """repr of fn's result, or the type and message of what it raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:
        return type(exc).__name__, str(exc)


def test_segment_lookup_matches_the_linear_walk_bitwise():
    rng = np.random.default_rng(31)
    weightings = [((0.0, 0.0), (0.1, 0.3), (0.4, 0.5), (0.7, 0.5), (1.0, 1.0)), ((0.0, 0.0), (1.0, 1.0))]
    for knots in [*knot_tables(rng), *weightings]:
        for x in probe_points(knots, rng):
            assert repr(_segment(knots, x)) == repr(linear_walk_segment(knots, x)), (knots, x)


def test_tabulated_inverse_and_prime_match_the_linear_walk_bitwise():
    rng = np.random.default_rng(32)
    for knots in knot_tables(rng):
        u, ref = TabulatedUtility(knots), LinearWalkTable(knots)
        for y in inverse_targets(knots, rng):  # the inverse itself, out of range too
            assert repr(u._inverse(y)) == repr(ref._inverse(y)), (knots, y)
        for x in probe_points(knots, rng):
            if u.in_domain(x):
                assert outcome(u.prime, x) == outcome(ref.prime, x), (knots, x)
                assert outcome(u.second, x) == outcome(ref.second, x), (knots, x)


def test_tabulated_inverse_looks_up_a_segment_only_when_the_midpoint_leaves_it(monkeypatch):
    utility = importlib.import_module("choqrisk.utility")
    segment, lookups, mids = utility._segment, [], []

    def recorded(knots, x):
        lookups.append(x)
        return segment(knots, x)

    class WalkedMids(LinearWalkTable):
        def _value(self, x):
            mids.append(x)
            return super()._value(x)

    monkeypatch.setattr(utility, "_segment", recorded)
    rng = np.random.default_rng(33)
    for knots in knot_tables(rng):
        u, ref = TabulatedUtility(knots), WalkedMids(knots)
        for y in inverse_targets(knots, rng):
            lookups.clear()
            mids.clear()
            assert repr(u._inverse(y)) == repr(ref._inverse(y))
            steps = [linear_walk_segment(knots, mid) for mid in mids]
            changes = [mid for k, mid in enumerate(mids) if k == 0 or steps[k] != steps[k - 1]]
            assert [repr(x) for x in lookups] == [repr(x) for x in changes], (knots, y)


def test_tabulated_prime_raises_exactly_at_the_knots():
    u = TabulatedUtility(((-3.0, -6.0), (-1.0, -1.5), (0.0, 0.0), (1.0, 0.8), (2.0, 1.4), (6.0, 2.8)))
    for x in (-3.0, -1.0, 0.0, -0.0, 1.0, 2.0, 6.0):
        with pytest.raises(NonDifferentiable, match=re.escape(f"{u.spec()}: knot at {x}")):
            u.prime(x)
        with pytest.raises(NonDifferentiable):
            u.second(x)
    slopes = [(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(u.knots, u.knots[1:])]
    for (x0, _), (x1, _), slope in zip(u.knots, u.knots[1:], slopes):
        for x in (math.nextafter(x0, x1), (x0 + x1) / 2.0, math.nextafter(x1, x0)):
            assert u.prime(x) == slope and u.second(x) == 0.0


def test_tabulated_requires_zero_knot():
    with pytest.raises(ValueError):
        TabulatedUtility(((-1.0, -1.0), (1.0, 1.0)))


def test_tabulated_value_and_domain():
    u = TabulatedUtility(((-1.0, -2.0), (0.0, 0.0), (2.0, 1.0)))
    assert u.value(1.0) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(DomainError):
        u.value(2.5)


# --- spec parsing ----------------------------------------------------------------------------

def test_parse_round_trip():
    specs = ("linear", "exp:1.5", "power:4,0.5", "log:2", "powerexpo:1,0.5", "negsqrt", "kink",
             "utable:-1,-2;0,0;1,0.5")
    assert {spec.partition(":")[0] for spec in specs} == set(_UTILITY_FAMILIES)
    for spec in specs:
        u = parse_utility(spec)
        assert u.spec() == spec
        assert parse_utility(u.spec()).spec() == u.spec()
    assert NaNBelowZero().spec() == "linear"  # a subclass writes its base family's spec

    class Unlisted(UtilityFunction):
        pass

    with pytest.raises(TypeError, match="Unlisted"):
        Unlisted().spec()


def _utility_knots():
    """Knot tables through (0, 0): up to three knots below it and one to three above, each a
    positive step in both coordinates from the knot before."""
    steps = st.tuples(st.floats(1e-3, 10.0), st.floats(1e-3, 10.0))

    def walk(sign, moves):
        x = y = 0.0
        out = []
        for dx, dy in moves:
            x, y = x + sign * dx, y + sign * dy
            out.append((x, y))
        return out

    return st.tuples(st.lists(steps, max_size=3), st.lists(steps, min_size=1, max_size=3)).map(
        lambda sides: (tuple(walk(-1.0, sides[0])[::-1] + [(0.0, 0.0)] + walk(1.0, sides[1])),)
    )


#: kind -> strategy for the constructor's arguments, in their order
_UTILITY_ARGS = {
    "linear": st.just(()), "negsqrt": st.just(()), "kink": st.just(()),
    "exp": st.tuples(st.floats(0.01, 20.0)),
    "log": st.tuples(st.floats(1.0, 100.0)),
    "power": st.tuples(st.floats(0.01, 10.0), st.floats(0.1, 2.0)),
    "powerexpo": st.tuples(st.floats(0.1, 5.0), st.floats(0.2, 3.0)),
    "utable": _utility_knots(),
}


@pytest.mark.parametrize("kind", sorted(_UTILITY_ARGS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_written_spec_parses_back_equal(kind, data):
    assert set(_UTILITY_ARGS) == set(_UTILITY_FAMILIES)
    u = _UTILITY_FAMILIES[kind][0](*data.draw(_UTILITY_ARGS[kind]))
    assert parse_utility(u.spec()) == u


def test_non_round_specs_name_their_function():
    # in six significant digits these read exp:1.23457 and utable:-1,-2;0,0;1,0.333333
    assert Exponential(1.23456789).spec() == "exp:1.23456789"
    assert parse_utility("exp:1.23456789") == Exponential(1.23456789)
    spec = "utable:-1,-2.0000001;0,0;1,0.3333333333"
    assert parse_utility(spec).spec() == spec


@given(st.floats(allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_spec_number_reads_back(p):
    text = _number(p)
    assert float(text) == p
    assert text == f"{p:g}" or text == repr(p)


def test_no_family_class_writes_its_own_spec():
    from choqrisk.weighting import _WEIGHTING_FAMILIES

    for cls, _ in [*_UTILITY_FAMILIES.values(), *_WEIGHTING_FAMILIES.values()]:
        assert "spec" not in vars(cls), cls.__name__


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_utility("nope:1")
    for spec in ("power:1", "exp:1,2", "utable:-1,-2;0,0,0;1,0.5"):
        with pytest.raises(ValueError):
            parse_utility(spec)


@pytest.mark.parametrize(
    "spec, build",
    [
        ("exp:nan", lambda: Exponential(math.nan)),
        ("exp:inf", lambda: Exponential(math.inf)),
        ("power:nan,1", lambda: Power(math.nan, 1.0)),
        ("power:1,inf", lambda: Power(1.0, math.inf)),
        ("log:nan", lambda: Logarithmic(math.nan)),
        ("powerexpo:nan,1", lambda: PowerExpo(math.nan, 1.0)),
        ("powerexpo:1,nan", lambda: PowerExpo(1.0, math.nan)),
        ("utable:0,0;1,nan", lambda: TabulatedUtility(((0.0, 0.0), (1.0, math.nan)))),
        ("utable:0,0;inf,1", lambda: TabulatedUtility(((0.0, 0.0), (math.inf, 1.0)))),
    ],
)
def test_nan_and_infinite_parameters_are_refused(spec, build):
    # the rule sits in the constructors, so a spec and a direct call fail alike
    for make in (lambda: parse_utility(spec), build):
        with pytest.raises(ValueError, match="finite"):
            make()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Exponential(100.0), "u(-10.0) is not a finite float"),
        (lambda: PowerExpo(1.0, 400.0), "is not a finite float"),
        (lambda: parse_utility("exp:100"), "u(-10.0) is not a finite float"),
    ],
    ids=["Exponential(100)", "PowerExpo(1,400)", "exp:100"],
)
def test_shape_check_overflow_is_a_value_error(build, message):
    # the [-10, 10] shape grid overflows a float for large parameters
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


@pytest.mark.parametrize("spec", ["exp:40", "exp:60", "exp:70"])
def test_steep_cara_saturates_at_its_range_top_and_prices(spec, g2, mu_worked, nu_worked):
    # 1 - exp(-a x) rounds to 1.0 inside [-1, 1] for these a; that tie is saturation
    from choqrisk import RandomVariable, Scenario, gen_choquet, premium

    u = parse_utility(spec)
    w, x = 0.1, (0.05, -0.05)
    pi = premium(Scenario(w, RandomVariable(g2, x), mu_worked, nu_worked, u))
    utilities = RandomVariable(g2, tuple(u.value(w - v) for v in x))
    assert math.isfinite(pi)
    assert pi == w - u.inverse(gen_choquet(mu_worked, nu_worked, utilities))


def test_shape_check_refuses_a_flat_piece_below_the_range_top():
    class FlatPiece(UtilityFunction):
        """Identity below 0.5, flat at 0.5 on [0.5, 0.8], then rising towards 1."""

        def _value(self, x):
            return x if x < 0.5 else 0.5 if x <= 0.8 else 1.0 - 0.5 * math.exp(-(x - 0.8))

        def range(self):
            return (-math.inf, 1.0)

        def spec(self):
            return "flat-piece"

    with pytest.raises(ValueError, match="flat-piece: not strictly increasing between 0.5 and 0.55"):
        FlatPiece()._validate_shape()


def test_knot_interpolation_is_bitwise_the_per_family_formula():
    def utility_formula(knots, x):
        j = 1
        while j < len(knots) - 1 and knots[j][0] < x:
            j += 1
        (x0, y0), (x1, y1) = knots[j - 1], knots[j]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def weighting_formula(knots, p):
        ps = [k[0] for k in knots]
        ws = [k[1] for k in knots]
        j = 1
        while ps[j] < p:
            j += 1
        return ws[j - 1] + (ws[j] - ws[j - 1]) * (p - ps[j - 1]) / (ps[j] - ps[j - 1])

    u = TabulatedUtility(((-3.0, -6.0), (-1.0, -1.5), (0.0, 0.0), (1.0, 0.8), (2.0, 1.4), (6.0, 2.8)))
    w = TabulatedWeighting(((0.0, 0.0), (0.1, 0.3), (0.4, 0.5), (0.7, 0.5), (1.0, 1.0)))
    # the weighting's ends 0 and 1 are answered by value() itself, so _raw is probed there
    for knots, fn, formula in ((u.knots, u.value, utility_formula), (w.knots, w._raw, weighting_formula)):
        xs = [x for x, _ in knots]
        lo, hi = xs[0], xs[-1]
        points = xs + [(a + b) / 2.0 for a, b in zip(xs, xs[1:])]
        points += [lo + (hi - lo) * k / 97.0 for k in range(98)]
        points += [math.nextafter(lo, hi), math.nextafter(hi, lo)]
        for x in points:
            got, want = fn(x), formula(knots, x)
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), x
