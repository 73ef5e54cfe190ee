"""Utility families: derivatives against finite differences, inverses,
Arrow-Pratt coefficients, shape certificates.

The finite-difference oracles here are the independent check on every
closed-form derivative; step 1e-4, tolerance 1e-5 at interior points.
"""

import math
import re

import pytest

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
from choqrisk.utility import default_grid

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
    for spec in ("linear", "exp:1.5", "power:4,0.5", "log:2", "powerexpo:1,0.5", "negsqrt", "kink",
                 "utable:-1,-2;0,0;1,0.5"):
        u = parse_utility(spec)
        assert parse_utility(u.spec()).spec() == u.spec()


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
