"""Premium pricing: closed-form consistency, risk-aversion sweeps,
agent comparison, and the quadratic approximation.

The linear-utility identity ``premium == risk_neutral_premium`` is the
consistency check that pins the capacity order in the benchmark formula.
"""

import importlib
import math
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choqrisk import (
    Exponential,
    GroundSet,
    Linear,
    Logarithmic,
    NegSqrtKink,
    PiecewiseLinearKink,
    Power,
    RandomVariable,
    Scenario,
    TabulatedUtility,
    approx_premium,
    compare_agents,
    from_probability,
    is_risk_averse,
    new_capacity,
    nonneg_loss_check,
    premium,
    risk_neutral_premium,
    unanimity,
)
from choqrisk.errors import OutOfClass, ZeroDerivative, ZeroOneCapacity
from choqrisk.integral import _groups, _lower, step_integral
from choqrisk.premium import class_membership, sample_outcomes, two_point_outcomes
from choqrisk.utility import parse_utility
from choqrisk.sampling import (
    random_capacity,
    random_dominant_pair,
    random_variable,
    rng_from_seed,
)

TOL = 1e-9


# --- basic premium values -----------------------------------------------------

def test_linear_additive_premium_is_expectation(g2):
    p = from_probability(g2, [0.4, 0.6])
    x = RandomVariable(g2, (3.0, -1.0))
    s = Scenario(2.0, x, p, p, Linear())
    assert premium(s) == pytest.approx(0.4 * 3.0 + 0.6 * (-1.0), abs=1e-12)


def test_linear_premium_worked(mu_worked, nu_worked, g2):
    # w = 0, X = (-4, 2): premium = -C((4, -2)) = 0.2
    x = RandomVariable(g2, (-4.0, 2.0))
    s = Scenario(0.0, x, mu_worked, nu_worked, Linear())
    assert premium(s) == pytest.approx(0.2, abs=1e-12)


def test_constant_outcome_prices_at_itself(mu_worked, nu_worked, g2):
    x = RandomVariable(g2, (0.7, 0.7))
    # the tabulated utility's top knot sits at w - c = 0.8, inside its closed domain
    top_knot = TabulatedUtility(((-1.0, -2.0), (0.0, 0.0), (0.8, 0.5)))
    for u in (Linear(), Exponential(2.0), Logarithmic(1.0), top_knot):
        s = Scenario(1.5, x, mu_worked, nu_worked, u)
        assert premium(s) == pytest.approx(0.7, abs=1e-9)


@pytest.mark.parametrize("x", [(0.0, 0.5), (0.0, 0.0)])
def test_tabulated_top_endpoint_is_in_class(g2, x):
    # w - X reaches the top knot (1, 0.5) where the unanimity game looks
    u = TabulatedUtility(((-1.0, -2.0), (0.0, 0.0), (1.0, 0.5)))
    cap = unanimity(g2, 0b01)
    s = Scenario(1.0, RandomVariable(g2, x), cap, cap, u)
    assert class_membership(s) == (True, None)
    assert premium(s) == pytest.approx(0.0, abs=1e-9)


def test_out_of_class_reports_reason(g2, mu_worked, nu_worked):
    x = RandomVariable(g2, (5.0, -1.0))  # w - X hits -4, below log domain
    s = Scenario(1.0, x, mu_worked, nu_worked, Logarithmic(1.0))
    ok, reason = class_membership(s)
    assert not ok and reason == "values"
    with pytest.raises(OutOfClass) as err:
        premium(s)
    assert err.value.reason == "values"


def test_negative_wealth_rejected(g2, mu_worked, nu_worked, x_worked):
    # NaN and infinity used to pass the nonnegativity test and price to nan
    for w in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            Scenario(w, x_worked, mu_worked, nu_worked, Linear())


# --- risk-neutral benchmark ------------------------------------------------------

def test_zero_wealth_benchmark_is_swapped_integral(mu_worked, nu_worked, x_worked, g2):
    from choqrisk import gen_choquet

    s = Scenario(0.0, x_worked, mu_worked, nu_worked, Linear())
    assert risk_neutral_premium(s) == gen_choquet(nu_worked, mu_worked, x_worked)


def test_conjugate_pair_kills_the_correction(mu_worked, g2, x_worked):
    from choqrisk import gen_choquet

    nu = mu_worked.dual()
    s = Scenario(2.0, x_worked, mu_worked, nu, Linear())
    assert risk_neutral_premium(s) == pytest.approx(
        gen_choquet(nu, mu_worked, x_worked), abs=1e-14
    )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_linear_utility_consistency(seed):
    """premium == risk_neutral_premium for linear u, any capacities.

    This equality is what fixes the capacity order in the benchmark
    formula; it held to 2e-15 over 20k draws during calibration.
    """
    rng = rng_from_seed(seed)
    ground = GroundSet(int(rng.integers(2, 6)))
    mu = random_capacity(rng, ground)
    nu = random_capacity(rng, ground)
    w = float(rng.uniform(0, 3))
    x = random_variable(rng, ground, -5.0, 5.0)
    s = Scenario(w, x, mu, nu, Linear())
    assert premium(s) == pytest.approx(risk_neutral_premium(s), abs=1e-12)


# --- invariants -----------------------------------------------------------------

@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_translation_consistency_for_conjugate_pair(seed):
    rng = rng_from_seed(seed)
    ground = GroundSet(3)
    mu = random_capacity(rng, ground)
    nu = mu.dual()
    x = random_variable(rng, ground, -2.0, 2.0)
    w = float(rng.uniform(1, 2))
    delta = float(rng.uniform(0, 1))
    s0 = Scenario(w, x, mu, nu, Linear())
    s1 = Scenario(w + delta, x + delta, mu, nu, Linear())
    assert premium(s1) == pytest.approx(premium(s0) + delta, abs=1e-9)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_premium_monotone_in_outcome(seed):
    rng = rng_from_seed(seed)
    ground = GroundSet(3)
    mu = random_capacity(rng, ground)
    nu = random_capacity(rng, ground)
    x = random_variable(rng, ground, -1.5, 1.5)
    bigger = RandomVariable(ground, tuple(v + d for v, d in zip(x.values, rng.uniform(0, 1, 3))))
    u = Exponential(0.8)
    w = 2.0
    assert premium(Scenario(w, x, mu, nu, u)) <= premium(Scenario(w, bigger, mu, nu, u)) + TOL


# --- risk aversion ------------------------------------------------------------------

@pytest.mark.parametrize(
    "u",
    [Exponential(1.5), Power(3.0, 0.5), Logarithmic(2.0), PiecewiseLinearKink()],
    ids=lambda u: u.spec(),
)
def test_concave_agent_is_averse_under_dominance(u):
    rng = rng_from_seed(101)
    ground = GroundSet(3)
    mu, nu = random_dominant_pair(rng, ground)
    outcomes = sample_outcomes(rng, ground, 300, w_range=(0.5, 2.5), x_range=(-1.0, 1.0))
    report = is_risk_averse(u, mu, nu, outcomes)
    assert report.averse and report.checked > 200


def test_dominance_violating_pair_with_kinked_utility_fails(pl_pair):
    """The conjugate-dominance violator admits a premium violation, found by
    the two-valued search seeded with the Jensen-witness shape, using the
    increasing-but-not-concave utility x - sqrt((-x)+)."""
    pl, _ = pl_pair
    grid_neg = [-6.0 + 0.5 * k for k in range(12)]
    grid_pos = [0.25 * k for k in range(9)]
    outcomes = two_point_outcomes(pl.ground, 1.0, grid_neg, grid_pos)
    report = is_risk_averse(NegSqrtKink(), pl, pl, outcomes)
    assert not report.averse
    assert report.gap > 0.01
    # the witness re-evaluates to a genuine premium shortfall
    s = report.witness
    assert premium(s) < risk_neutral_premium(s) - TOL


def test_concave_utilities_find_no_violation_even_without_dominance(pl_pair):
    """Concave u with u(0) = 0 never drops below the benchmark, dominance or
    not; the violation above genuinely needs the non-concave member."""
    pl, _ = pl_pair
    grid_neg = [-6.0 + 0.5 * k for k in range(12)]
    grid_pos = [0.25 * k for k in range(9)]
    for u in (Exponential(1.0), PiecewiseLinearKink(), Linear()):
        outcomes = two_point_outcomes(pl.ground, 1.0, grid_neg, grid_pos)
        report = is_risk_averse(u, pl, pl, outcomes)
        assert report.averse


def test_constant_outcome_never_violates(mu_worked, nu_worked, g2):
    outcomes = [(1.0, RandomVariable(g2, (c, c))) for c in (-0.5, 0.0, 0.9)]
    report = is_risk_averse(Exponential(1.0), mu_worked, nu_worked, outcomes)
    assert report.averse


# --- quadratic approximation -----------------------------------------------------------

def test_linear_approximation_equals_benchmark(mu_worked, nu_worked, x_worked):
    s = Scenario(2.0, x_worked, mu_worked, nu_worked, Linear())
    assert approx_premium(s) == pytest.approx(risk_neutral_premium(s), abs=1e-12)


def test_approximation_frozen_value(g2):
    # uniform additive pair, a = 1, w = 1, X = (0.02, 0):
    # Y = (0.0202, 0), pi_hat = E[Y] = 0.0101, and the exact premium is
    # ln((exp(0.02) + 1) / 2) by direct algebra on the defining equation.
    p = from_probability(g2, [0.5, 0.5])
    x = RandomVariable(g2, (0.02, 0.0))
    s = Scenario(1.0, x, p, p, Exponential(1.0))
    assert approx_premium(s) == pytest.approx(0.0101, abs=1e-15)
    assert premium(s) == pytest.approx(math.log((math.exp(0.02) + 1.0) / 2.0), abs=1e-12)


def test_approximation_stays_finite_where_the_tail_gap_end_overflows(mu_worked, nu_worked, g2):
    """exp:1 has u(w) / u'(w) = inf at w = 740 and 745 (u'(740) = 4e-322 is subnormal, not 0).
    The tail gap is 0 above every value of Y, so the approximation keeps its value at w = 700."""
    x = RandomVariable(g2, (1.0, -0.5))
    assert approx_premium(Scenario(700.0, x, mu_worked, nu_worked, Exponential(1.0))) == 0.5625
    for w in (740.0, 745.0):
        s = Scenario(w, x, mu_worked, nu_worked, Exponential(1.0))
        assert s.u.value(w) / s.u.prime(w) == math.inf
        assert approx_premium(s) == 0.5625


def test_approximation_error_decays_quadratically():
    rng = rng_from_seed(5)
    ground = GroundSet(3)
    mu = random_capacity(rng, ground)
    nu = random_capacity(rng, ground)
    base = random_variable(rng, ground, -1.0, 1.0)
    u = Exponential(1.0)
    errors = []
    for k in range(5):
        scale = 0.1 * 2.0**-k
        s = Scenario(1.5, base * scale, mu, nu, u)
        errors.append(abs(premium(s) - approx_premium(s)))
    for bigger, smaller in zip(errors, errors[1:]):
        assert smaller <= bigger * 0.3 + 1e-12  # ratio ~0.25 per halving


def test_approximation_dominates_benchmark_for_conjugate_pair():
    rng = rng_from_seed(17)
    ground = GroundSet(3)
    for _ in range(60):
        mu = random_capacity(rng, ground)
        nu = mu.dual()
        x = random_variable(rng, ground, -0.5, 0.5)
        s = Scenario(1.0, x, mu, nu, Exponential(1.0))
        assert approx_premium(s) >= risk_neutral_premium(s) - 1e-12


# --- agent comparison ---------------------------------------------------------------------

def comparison_setup(seed=301):
    rng = rng_from_seed(seed)
    ground = GroundSet(3)
    mu, nu = random_dominant_pair(rng, ground)
    outcomes = sample_outcomes(rng, ground, 250, w_range=(0.5, 2.0), x_range=(-1.0, 1.0))
    return mu, nu, outcomes


def test_more_curved_exponential_dominates():
    mu, nu, outcomes = comparison_setup()
    comp = compare_agents(Exponential(2.0), Exponential(1.0), mu, nu, outcomes)
    assert comp.hypotheses_met
    assert comp.premium_order_holds and comp.r_order_holds and comp.composition_concave
    assert comp.verdicts_agree()


def test_identical_agents_compare_equal():
    mu, nu, outcomes = comparison_setup(302)
    comp = compare_agents(Exponential(1.0), Exponential(1.0), mu, nu, outcomes)
    assert comp.premium_order_holds and comp.r_order_holds and comp.composition_concave


def test_reversed_exponentials_fail_with_witness():
    mu, nu, outcomes = comparison_setup(303)
    comp = compare_agents(Exponential(1.0), Exponential(2.0), mu, nu, outcomes)
    assert not comp.r_order_holds
    assert not comp.composition_concave
    assert not comp.premium_order_holds and comp.witness is not None


def test_comparison_with_a_tabulated_utility_skips_its_knots():
    # the default grids hit the knots -1 and 0, where the slopes are undefined
    mu, nu, outcomes = comparison_setup()
    table = TabulatedUtility(((-1.0, -2.0), (0.0, 0.0), (1.0, 0.5)))
    comp = compare_agents(table, Exponential(1.0), mu, nu, outcomes)
    assert comp.checked > 0
    assert not comp.r_order_holds and not comp.composition_concave
    comp = compare_agents(Exponential(1.0), table, mu, nu, outcomes)
    assert comp.checked > 0
    assert comp.r_order_holds and comp.composition_concave


def test_comparison_with_a_steep_second_utility():
    # v'(-10) = 70 exp(700) is a float but its square is not; u is less risk averse than v
    mu, nu, outcomes = comparison_setup()
    comp = compare_agents(Exponential(1.0), Exponential(70.0), mu, nu, outcomes)
    assert not comp.premium_order_holds and not comp.r_order_holds and not comp.composition_concave


def test_comparison_reports_hypothesis_failure(pl_pair):
    pl, _ = pl_pair
    outcomes = sample_outcomes(rng_from_seed(7), pl.ground, 50)
    comp = compare_agents(Exponential(2.0), Exponential(1.0), pl, pl, outcomes)
    assert not comp.hypotheses_met  # dominance fails; verdicts still reported


# --- losses capped by wealth -----------------------------------------------------------------

def test_nonneg_loss_concave_agent(mu_worked, nu_worked, g2):
    rng = rng_from_seed(11)
    outcomes = sample_outcomes(rng, g2, 150, w_range=(1.0, 3.0), x_range=(-1.0, 1.0), x_below_w=True)
    report = nonneg_loss_check(Exponential(1.0), mu_worked, nu_worked, outcomes)
    assert report.averse and report.concave_on_nonneg and report.agree


def test_nonneg_loss_convex_agent_found(mu_worked, nu_worked, g2):
    # x^2 + x is convex on the nonnegative axis; a two-valued scenario with
    # X <= w exposes it
    neg = [0.0]
    pos = [0.5 * k for k in range(7)]
    outcomes = [
        (w, RandomVariable(g2, tuple(min(v, w) for v in x.values)))
        for w, x in two_point_outcomes(g2, 3.0, neg, pos)
    ]
    report = nonneg_loss_check(Power(0.5, 2.0), mu_worked, nu_worked, outcomes)
    assert not report.averse
    assert not report.concave_on_nonneg
    assert report.agree


def test_nonneg_loss_kinked_on_negatives_is_still_averse(nu_worked, mu_worked, g2):
    # concave on x >= 0 is all that matters when X <= w
    rng = rng_from_seed(13)
    outcomes = sample_outcomes(rng, g2, 150, w_range=(1.0, 3.0), x_range=(-1.0, 1.0), x_below_w=True)
    report = nonneg_loss_check(NegSqrtKink(), mu_worked, nu_worked, outcomes)
    assert report.averse and report.agree


def test_nonneg_loss_rejects_zero_one_capacity(g2):
    mu = unanimity(g2, 1)
    with pytest.raises(ZeroOneCapacity):
        nonneg_loss_check(Exponential(1.0), mu, mu, [])


def test_nonneg_loss_rejects_bad_sampler(mu_worked, nu_worked, g2):
    outcomes = [(1.0, RandomVariable(g2, (2.0, 0.0)))]
    with pytest.raises(ValueError):
        nonneg_loss_check(Exponential(1.0), mu_worked, nu_worked, outcomes)


def test_nonneg_loss_stops_at_the_witness(mu_worked, nu_worked, g2):
    # the scan is lazy: a row with X > w after the witness is never reached
    w, x = 3.0, RandomVariable(g2, (3.0, 0.0))
    bad = (1.0, RandomVariable(g2, (2.0, 0.0)))
    report = nonneg_loss_check(Power(0.5, 2.0), mu_worked, nu_worked, [(w, x), bad])
    assert not report.averse and report.checked == 1
    assert (report.witness.w, report.witness.x) == (w, x)


# --- the batched engine and the scans on it ----------------------------------------------------
#
# The scans used to price one row at a time; those loops are kept here verbatim as the
# reference the kernel-backed scans must reproduce, repr for repr.

pm = importlib.import_module("choqrisk.premium")  # the package's premium() hides the module


def scalar_is_risk_averse(u, mu, nu, outcomes):
    checked = skipped = 0
    for w, x in outcomes:
        s = Scenario(w, x, mu, nu, u)
        reason, pi = pm._price(s)
        if reason is not None:
            skipped += 1
            continue
        checked += 1
        shortfall = risk_neutral_premium(s) - pi
        if shortfall > pm.PREMIUM_TOL:
            return pm.RiskAversionReport(False, checked, skipped, s, shortfall)
    return pm.RiskAversionReport(True, checked, skipped, None, 0.0)


def scalar_compare_agents(u, v, mu, nu, outcomes):
    hypotheses = pm.dominates_dual(mu, nu).holds and pm.coexistence_set(mu, nu) is not None

    lo = max(u.domain_lo, v.domain_lo)
    hi = min(u.domain_hi, v.domain_hi)
    shrink = lambda t, s: t + s * max(1e-6, abs(t) * 1e-6)
    glo = shrink(lo, 1.0) if lo > -np.inf else -10.0
    ghi = shrink(hi, -1.0) if hi < np.inf else 10.0
    grid = [glo + k * (ghi - glo) / 200 for k in range(201)]

    r_order = all(
        not ru < rv - pm.PREMIUM_TOL
        for ru, rv in pm._where_differentiable(lambda x: (pm.arrow_pratt(u, x), pm.arrow_pratt(v, x)), grid)
    )
    comp = pm.compose_via_inverse(u, v)
    comp_concave = all(g2 <= pm.PREMIUM_TOL for g2 in pm._where_differentiable(comp.second, comp.grid()))

    premium_order = True
    witness = None
    checked = 0
    for w, x in outcomes:
        su = Scenario(w, x, mu, nu, u)
        reason_u, pi_u = pm._price(su)
        if reason_u is not None:
            continue
        reason_v, pi_v = pm._price(Scenario(w, x, mu, nu, v))
        if reason_v is not None:
            continue
        checked += 1
        if pi_u < pi_v - pm.PREMIUM_TOL:
            premium_order = False
            witness = su
            break
    return pm.AgentComparison(
        hypotheses, premium_order, r_order, comp_concave, checked, witness
    )


def scalar_nonneg_loss_check(u, mu, nu, outcomes):
    if mu.is_zero_one_valued():
        raise ZeroOneCapacity("hypothesis requires a capacity that is not {0,1}-valued")

    def capped():
        # lazy, so a bad row after the witness is never reached
        for w, x in outcomes:
            if any(v > w for v in x.values):
                raise ValueError("sampler must keep X <= w pointwise")
            yield w, x

    scan = scalar_is_risk_averse(u, mu, nu, capped())
    hi = min(u.domain_hi, 10.0)
    pts = 101
    eps = max(1e-9, hi * 1e-9)
    grid = [0.0 + k * (hi - eps) / (pts - 1) for k in range(pts)]
    if not u.closed_at_lo and u.domain_lo >= 0.0:
        grid = grid[1:]
    concave = pm.is_concave_on(u, grid).holds
    return pm.NonnegLossReport(scan.averse, concave, scan.averse == concave, scan.checked, scan.witness)


TABLE = "utable:-3,-6;-1,-1.5;0,0;1,0.8;2,1.4;4,2.2;6,2.8"
#: exp:70 saturates to 1.0 (out of its open range) and overflows below about -10
SCAN_SPECS = ("exp:1", "exp:70", "power:1,0.5", "power:0,0.5", "log:1", TABLE, "negsqrt", "kink")
AGENT_PAIRS = (("exp:1", "exp:2"), ("negsqrt", "linear"), (TABLE, "exp:1"), ("exp:70", "log:1"))


def scan_rows(rng, ground, count, capped=False):
    """(w, X) rows drawn from a small pool: ties, values at 0 and at w, w = 0, and X > w + 1
    (out of the power and log domains).  Half the rows are constant, which no scan flags,
    so witnesses fall at varied rows."""
    rows = []
    for _ in range(count):
        w = float(rng.choice([0.0, 0.5, 1.0, 2.5, rng.uniform(0.0, 3.0)]))
        pool = [-2.0, -0.5, 0.0, 0.5, w, w + 1.5, float(rng.uniform(-3.0, 3.0))]
        vals = [float(rng.choice(pool)) for _ in range(ground.n)]
        if rng.random() < 0.5:
            vals = vals[:1] * ground.n
        rows.append((w, RandomVariable(ground, tuple(min(v, w) for v in vals) if capped else tuple(vals))))
    return rows


def outcome_of(fn, *args):
    """repr of fn's result, or the type and message of what it raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:
        return type(exc).__name__, str(exc)


def with_bad_rows(rng, rows, ground, bad):
    """rows with 0-2 of the rows in ``bad`` inserted at random places."""
    rows = list(rows)
    for _ in range(int(rng.integers(0, 3))):
        rows.insert(int(rng.integers(0, len(rows) + 1)), bad[int(rng.integers(0, len(bad)))])
    return rows


def bad_rows(ground, capped=False):
    other = GroundSet(ground.n + 1)
    rows = [
        (-1.0, RandomVariable(ground, (0.0,) * ground.n)),  # negative wealth
        (1.0, RandomVariable(other, (0.0,) * other.n)),  # another ground set
        # exp:70 overflows at every value; the row raises at its first one, u(-10 - 10n)
        (0.0, RandomVariable(ground, tuple(10.0 + 10.0 * (ground.n - i) for i in range(ground.n)))),
    ]
    if not capped:
        rows.append((1e308, RandomVariable(ground, (-1e308,) * ground.n)))  # w - X is infinite
    return rows


def generated(rows, fail_at=None):
    for j, row in enumerate(rows):
        if j == fail_at:
            raise RuntimeError(f"the generator failed at row {j}")
        yield row


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_premium_batch_matches_the_scalar_pricing_row_by_row(n):
    rng = rng_from_seed(400 + n)
    ground = GroundSet(n)
    for spec in SCAN_SPECS:
        u = parse_utility(spec)
        mu, nu = random_capacity(rng, ground), random_capacity(rng, ground)
        # rows where exp:70 overflows make a batch raise; the next test takes them
        rows = [row for row in scan_rows(rng, ground, 40) if not (spec == "exp:70" and row[1].max - row[0] > 10)]
        ws, xs = np.array([w for w, _ in rows]), np.array([x.values for _, x in rows])
        batch = pm.premium_batch(ws, xs, mu, nu, u)
        pi0 = pm._risk_neutral_rows(ws, xs, mu, nu)
        assert len(batch.reasons) == len(rows)
        for i, (w, x) in enumerate(rows):
            s = Scenario(w, x, mu, nu, u)
            assert batch.reasons[i] == class_membership(s)[1]
            assert repr(pi0[i].item()) == repr(risk_neutral_premium(s))
            assert outcome_of(batch.premium, i) == outcome_of(premium, s)
        reasons = set(batch.reasons)
        assert None in reasons
        if spec in ("power:1,0.5", "log:1"):
            assert "values" in reasons


def test_premium_batch_stops_at_a_utility_error_and_takes_an_empty_batch(mu_worked, nu_worked):
    u = parse_utility("exp:70")
    ws, xs = [1.0, 0.0, 2.0, 0.0], [(0.5, -0.5), (20.0, 1.0), (0.0, 0.0), (30.0, 30.0)]
    with pytest.raises(ValueError, match=re.escape("exp:70: u(-20.0) is not a finite float (overflow)")):
        pm.premium_batch(ws, xs, mu_worked, nu_worked, u)
    empty = pm.premium_batch([], np.zeros((0, 2)), mu_worked, nu_worked, u)
    assert (empty.reasons, empty.levels) == ((), ())
    assert pm._risk_neutral_rows(np.zeros(0), np.zeros((0, 2)), mu_worked, nu_worked).shape == (0,)


@dataclass(frozen=True)
class RefusesOne(Power):
    """A shifted power, except that u raises at the one point ``bad``."""

    bad: float = math.nan

    def _value(self, x):
        if x == self.bad:
            raise RuntimeError(f"refused {x!r}")
        return super()._value(x)


def counted_values(u):
    """u with the length of each list it evaluates through ``values`` recorded in ``calls``."""
    calls = []
    values = u.values
    object.__setattr__(u, "values", lambda xs: calls.append(len(xs)) or values(xs))
    return u, calls


def batch_outcome(batch):
    return repr(batch.reasons), repr(batch.levels)


def row_by_row_batch(ws, xs, mu, nu, u):
    """``batch_outcome`` of premium_batch called on one row at a time."""
    reasons, levels = (), ()
    for i in range(len(ws)):
        one = pm.premium_batch(ws[i : i + 1], xs[i : i + 1], mu, nu, u)
        reasons, levels = reasons + one.reasons, levels + one.levels
    return repr(reasons), repr(levels)


def test_premium_batch_makes_one_values_call_and_meets_a_raising_row_as_row_by_row():
    """The in-domain rows of a batch go through one ``values`` call.  When it raises, the batch
    raises, and the scans, which price that chunk again row by row, meet the row as the row-by-row
    reference loops do."""
    rng = rng_from_seed(2600)
    ground = GroundSet(3)
    mu, nu = random_dominant_pair(rng, ground)
    ws, xs = rng.uniform(0.0, 3.0, 40), rng.uniform(-2.0, 2.0, (40, 3))
    inside = np.flatnonzero((ws[:, None] - xs > -1.0).all(axis=1))  # the domain of power:1,0.5
    assert 0 < len(inside) < 40
    u, calls = counted_values(RefusesOne(1.0, 0.5))
    batch = pm.premium_batch(ws, xs, mu, nu, u)
    assert len(batch.reasons) == 40 and calls == [3 * len(inside)]
    assert batch_outcome(batch) == row_by_row_batch(ws, xs, mu, nu, u)
    rows = [(w, RandomVariable(ground, tuple(x))) for w, x in zip(ws.tolist(), xs.tolist())]
    v = parse_utility("linear")
    for k in inside[[0, 1, len(inside) // 2, -1]].tolist():
        bad = float(ws[k] - xs[k, 1])
        u, calls = counted_values(RefusesOne(1.0, 0.5, bad))
        with pytest.raises(RuntimeError, match=re.escape(f"refused {bad!r}")):
            pm.premium_batch(ws, xs, mu, nu, u)
        assert calls == [3 * len(inside)]
        u = RefusesOne(1.0, 0.5, bad)
        assert outcome_of(is_risk_averse, u, mu, nu, rows) == outcome_of(scalar_is_risk_averse, u, mu, nu, rows)
        assert outcome_of(nonneg_loss_check, u, mu, nu, rows) == outcome_of(scalar_nonneg_loss_check, u, mu, nu, rows)
        for a, b in ((u, v), (v, u)):
            got = outcome_of(compare_agents, a, b, mu, nu, rows)
            assert got == outcome_of(scalar_compare_agents, a, b, mu, nu, rows)


def test_premium_batch_stops_at_a_non_finite_outcome(mu_worked, nu_worked):
    # w - X overflows in the third row, and the batch raises as the scalar pricing of that row does
    ws, xs = [1.0, 0.0, 1e308, 2.0], [(0.5, -0.5), (0.0, 0.0), (-1e308, 0.0), (0.0, 0.0)]
    with pytest.raises(ValueError, match="values must be finite"):
        pm.premium_batch(ws, xs, mu_worked, nu_worked, Exponential(1.0))


@pytest.mark.parametrize(
    "ws, xs, message",
    [([1.0, 2.0], [(0.0, 0.0)], "expected 1 wealths"),
     ([1.0], [(0.0, 0.0, 0.0)], "expected rows of 2 values"),
     ([1.0], [(math.inf, 0.0)], "values must be finite")],
)
def test_premium_batch_rejects_malformed_input(mu_worked, nu_worked, ws, xs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        pm.premium_batch(ws, xs, mu_worked, nu_worked, Exponential(1.0))


@pytest.mark.parametrize("chunk", [1, 3, 256])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_scans_match_the_row_by_row_reference(n, chunk, monkeypatch):
    monkeypatch.setattr(pm, "_SCAN_CHUNK", chunk)
    rng = rng_from_seed(500 + 10 * n + chunk)
    ground = GroundSet(n)
    witness_rows = set()
    for trial in range(6):
        mu, nu = random_capacity(rng, ground), random_capacity(rng, ground)
        rows = with_bad_rows(rng, scan_rows(rng, ground, int(rng.integers(0, 30))), ground, bad_rows(ground))
        capped = with_bad_rows(
            rng, scan_rows(rng, ground, int(rng.integers(0, 30)), capped=True), ground,
            bad_rows(ground, capped=True) + [(0.0, RandomVariable(ground, (1.0,) * n))],  # X > w
        )
        fail_at = int(rng.integers(0, len(rows) + 1))
        for spec in SCAN_SPECS:
            u = parse_utility(spec)
            got = outcome_of(is_risk_averse, u, mu, nu, rows)
            assert got == outcome_of(scalar_is_risk_averse, u, mu, nu, rows)
            if "witness=Scenario" in got:
                witness_rows.add(got.split("checked=")[1].split(",")[0])
            got = outcome_of(is_risk_averse, u, mu, nu, generated(rows, fail_at))
            assert got == outcome_of(scalar_is_risk_averse, u, mu, nu, generated(rows, fail_at))
            got = outcome_of(nonneg_loss_check, u, mu, nu, capped)
            assert got == outcome_of(scalar_nonneg_loss_check, u, mu, nu, capped)
        for a, b in (AGENT_PAIRS[trial % 4], AGENT_PAIRS[(trial + 1) % 4]):
            u, v = parse_utility(a), parse_utility(b)
            got = outcome_of(compare_agents, u, v, mu, nu, rows)
            assert got == outcome_of(scalar_compare_agents, u, v, mu, nu, rows)
            if "witness=Scenario" in got:
                witness_rows.add(got.split("checked=")[1].split(",")[0])
            got = outcome_of(compare_agents, v, u, mu, nu, iter(rows))
            assert got == outcome_of(scalar_compare_agents, v, u, mu, nu, iter(rows))
    # witnesses fall at varied rows; with one element every premium is X itself
    assert len(witness_rows) >= 3 or n == 1


def test_scans_take_an_empty_input(mu_worked, nu_worked):
    u = Exponential(1.0)
    for scan, reference in ((is_risk_averse, scalar_is_risk_averse), (nonneg_loss_check, scalar_nonneg_loss_check)):
        assert repr(scan(u, mu_worked, nu_worked, [])) == repr(reference(u, mu_worked, nu_worked, []))
        assert repr(scan(u, mu_worked, nu_worked, iter(()))) == repr(reference(u, mu_worked, nu_worked, []))
    v = Exponential(2.0)
    assert repr(compare_agents(u, v, mu_worked, nu_worked, [])) == repr(
        scalar_compare_agents(u, v, mu_worked, nu_worked, [])
    )


def counted(rows, drawn):
    """rows, yielded one at a time, with the number drawn so far in ``drawn[0]``."""
    for row in rows:
        drawn[0] += 1
        yield row


@pytest.mark.parametrize("at", [0, 1, 255, 256, 300, 511, 512, 600])
def test_scans_read_whole_chunks_up_to_the_witness(at, mu_worked, nu_worked):
    # the convex u prices X = (3, 0) at w = 3 below pi0 and the linear v, and a constant X at X
    u, v = Power(0.5, 2.0), parse_utility("linear")
    g2 = GroundSet(2)
    flat, witness = (1.0, RandomVariable(g2, (0.5, 0.5))), (3.0, RandomVariable(g2, (3.0, 0.0)))
    rows = [flat] * at + [witness] + [flat] * 600
    read = 256 * (at // 256 + 1)
    assert read <= at + 256
    drawn = [0]
    report = is_risk_averse(u, mu_worked, nu_worked, counted(rows, drawn))
    assert (report.averse, report.checked, drawn[0]) == (False, at + 1, read)
    drawn = [0]
    report = nonneg_loss_check(u, mu_worked, nu_worked, counted(rows, drawn))
    assert (report.averse, report.checked, drawn[0]) == (False, at + 1, read)
    drawn = [0]
    comparison = compare_agents(u, v, mu_worked, nu_worked, counted(rows, drawn))
    assert (comparison.premium_order_holds, comparison.checked, drawn[0]) == (False, at + 1, read)


def counted_inverse(u):
    """u with its inverse calls counted in ``calls``."""
    calls = []
    inverse = u.inverse
    object.__setattr__(u, "inverse", lambda y: calls.append(y) or inverse(y))
    return u, calls


def test_scans_make_no_scalar_integral_call_and_one_inverse_per_row(monkeypatch):
    rng = rng_from_seed(3)
    ground = GroundSet(8)
    mu, nu = random_dominant_pair(rng, ground)
    batch = sample_outcomes(rng, ground, 250)
    capped = [(w, x) for w, x in batch if max(x.values) <= w]
    expected = {}
    for spec in ("exp:1", "power:1,0.5", "log:1", TABLE, "negsqrt"):
        u = parse_utility(spec)
        expected[spec] = (scalar_is_risk_averse(u, mu, nu, batch), scalar_nonneg_loss_check(u, mu, nu, capped))
    pairs = (("exp:1", "exp:0.5"), ("power:1,0.5", "linear"), ("exp:0.5", "exp:1"))
    expected_rows = {}
    for a, b in pairs:
        comp = scalar_compare_agents(parse_utility(a), parse_utility(b), mu, nu, batch)
        upto = batch if comp.witness is None else batch[: [x for _, x in batch].index(comp.witness.x) + 1]
        expected_rows[a, b] = sum(class_membership(Scenario(w, x, mu, nu, parse_utility(a)))[0] for w, x in upto)

    monkeypatch.setattr(pm, "_integral", lambda *args: pytest.fail("a scan called the scalar integral"))
    monkeypatch.setattr(pm, "_walk_groups", lambda *args: pytest.fail("a scan called the scalar group walk"))
    for spec, (averse, nonneg) in expected.items():
        u, calls = counted_inverse(parse_utility(spec))
        report = is_risk_averse(u, mu, nu, batch)
        assert repr(report) == repr(averse) and len(calls) == report.checked
        calls.clear()
        report = nonneg_loss_check(u, mu, nu, capped)
        assert repr(report) == repr(nonneg) and len(calls) == report.checked
    for a, b in pairs:
        u, calls = counted_inverse(parse_utility(a))
        compare_agents(u, parse_utility(b), mu, nu, batch)
        assert 0 < len(calls) <= expected_rows[a, b]


class OverflowingKink(NegSqrtKink):
    """x - sqrt((-x)+), except that u overflows below -100, as exp:70 does below about -10."""

    def _value(self, x):
        if x < -100.0:
            raise OverflowError("math range error")
        return super()._value(x)


def test_risk_aversion_scan_raises_a_utility_overflow_at_its_row(mu_worked, nu_worked, g2, pl_pair):
    fine = (1.0, RandomVariable(g2, (0.5, -0.5)))
    overflow = (0.0, RandomVariable(g2, (20.0, 1.0)))
    with pytest.raises(ValueError, match=re.escape("exp:70: u(-20.0) is not a finite float (overflow)")):
        is_risk_averse(parse_utility("exp:70"), mu_worked, nu_worked, [fine, overflow, fine])
    # with a witness before the overflowing row the scan returns it; after it, the row raises
    pl, _ = pl_pair
    rows = list(two_point_outcomes(pl.ground, 1.0, [-6.0 + 0.5 * k for k in range(12)], [0.25 * k for k in range(9)]))
    witness = is_risk_averse(NegSqrtKink(), pl, pl, rows)
    at = witness.checked + witness.skipped
    far = (0.0, RandomVariable(g2, (150.0, 150.0)))
    report = is_risk_averse(OverflowingKink(), pl, pl, rows[:at] + [far] + rows[at:])
    assert (report.averse, report.checked, report.skipped, repr(report.gap)) == (
        False, witness.checked, witness.skipped, repr(witness.gap))
    assert (report.witness.w, report.witness.x.values) == (witness.witness.w, witness.witness.x.values)
    with pytest.raises(ValueError, match=re.escape("negsqrt: u(-150.0) is not a finite float (overflow)")):
        is_risk_averse(OverflowingKink(), pl, pl, rows[: at - 1] + [far] + rows[at - 1 :])


def test_comparison_raises_where_the_second_utility_raises_at_a_row_the_first_prices(g2):
    # linear prices boom's w - X = (-150, -1); OverflowingKink raises at -150
    mu, nu = new_capacity(g2, [0.0, 0.3, 0.5, 1.0]), new_capacity(g2, [0.0, 0.4, 0.2, 1.0])
    u, v = parse_utility("linear"), OverflowingKink()
    flat, boom = (1.0, RandomVariable(g2, (0.5, 0.5))), (0.0, RandomVariable(g2, (150.0, 1.0)))
    two_point = [
        (w, RandomVariable(g2, (a, b)))
        for w in (0.5, 1.0, 2.0) for a in (-2.0, -0.5, 0.5, 2.0) for b in (-2.0, 0.0, 1.0)
    ]
    overflow = ("ValueError", "negsqrt: u(-150.0) is not a finite float (overflow)")
    for rows, raises in (([flat, flat, boom], True), ([flat] * 300 + [boom], True), (two_point + [boom], False)):
        for a, b in ((u, v), (v, u)):
            got = outcome_of(compare_agents, a, b, mu, nu, rows)
            assert got == outcome_of(scalar_compare_agents, a, b, mu, nu, rows)
            assert (got == overflow) == raises and (raises or "premium_order_holds=False" in got)


def test_an_outcome_integral_outside_the_utility_domain_is_out_of_class(g2):
    # mu may exceed 1 by MONOTONE_TOL, so C(w - X) = 1 + 5e-13 lies above max(w - X) = 1, the top of u's domain
    mu = new_capacity(g2, [0.0, 1.0 + 1e-12, 0.5, 1.0])
    u = parse_utility("utable:-1,-1;0,0;1,1")
    row = (1.0, RandomVariable(g2, (0.0, 0.5)))
    s = Scenario(*row, mu, mu, u)
    assert class_membership(s) == (False, "outcome_integral")
    assert pm.premium_batch([1.0], [(0.0, 0.5)], mu, mu, u).reasons == ("outcome_integral",)
    with pytest.raises(OutOfClass, match="outcome_integral"):
        premium(s)
    report = is_risk_averse(u, mu, mu, [row])
    assert (report.averse, report.checked, report.skipped) == (True, 0, 1)


# --- scalar pricing: one sort per variable --------------------------------------------------

def closure_tail_gap(mu, nu, z, upper):
    """The tail gap as step_integral over a closure, kept verbatim as the reference."""

    groups = _groups(z.values)

    def integrand(t: float) -> float:
        # dual(nu)(Z < t) = 1 - nu(Z >= t), and Z >= t is the complement of Z < t
        below = _lower(groups, t, True)
        return (1.0 - nu.table[z.ground.full ^ below]) - mu.table[below]

    return step_integral(integrand, 0.0, upper, z.values)


def reference_risk_neutral_premium(s):
    from choqrisk import gen_choquet

    return gen_choquet(s.nu, s.mu, s.x) + closure_tail_gap(s.mu, s.nu, s.x, s.w)


def reference_approx_premium(s):
    from choqrisk import arrow_pratt, gen_choquet

    r = arrow_pratt(s.u, s.w)
    d1 = s.u.prime(s.w)
    if d1 <= 0.0:
        raise ZeroDerivative(f"u'({s.w}) = {d1}")
    y = s.x.map(lambda v: v + r * v * v / 2.0)
    upper = s.u.value(s.w) / d1
    return gen_choquet(s.nu, s.mu, y) + closure_tail_gap(s.mu, s.nu, y, upper)


def tail_gap_cases(rng, n):
    """(values of Z, upper): ties, values at 0 and at upper, signed zeros, an upper of 0.0, -0.0,
    below 0 or not finite, and neighbouring floats, whose cell midpoint rounds onto a cell end."""
    tiny = 5e-324
    for _ in range(60):
        upper = float(rng.choice([0.0, -0.0, 1.0, -1.5, 2.5, tiny, -tiny, 1.7e308, math.inf, -math.inf, math.nan,
                                  rng.uniform(-3.0, 3.0)]))
        edge = upper if math.isfinite(upper) else 2.0
        pool = [0.0, -0.0, edge, math.nextafter(edge, math.inf), math.nextafter(edge, -math.inf), -1.0, 0.5,
                tiny, -tiny, 1e308, float(rng.uniform(-3.0, 3.0))]
        yield tuple(float(rng.choice(pool)) for _ in range(n)), upper


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_tail_gap_matches_the_closure_reference_bitwise(n):
    rng = rng_from_seed(900 + n)
    ground = GroundSet(n)
    for _ in range(6):
        mu, nu = random_capacity(rng, ground), random_capacity(rng, ground)
        for vals, upper in tail_gap_cases(rng, n):
            z = RandomVariable(ground, vals)
            got = pm._tail_gap_integral(mu, nu, _groups(z.values), ground.full, upper)
            assert repr(got) == repr(closure_tail_gap(mu, nu, z, upper)), (vals, upper)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_risk_neutral_and_approx_premium_match_the_reference_bitwise(n):
    rng = rng_from_seed(950 + n)
    ground = GroundSet(n)
    for spec in ("linear", "exp:1", "power:1,0.5", "log:1", TABLE, "kink"):
        u = parse_utility(spec)
        mu, nu = random_dominant_pair(rng, ground)
        for w, x in scan_rows(rng, ground, 40):
            s = Scenario(w, x, mu, nu, u)
            assert outcome_of(risk_neutral_premium, s) == outcome_of(reference_risk_neutral_premium, s)
            assert outcome_of(approx_premium, s) == outcome_of(reference_approx_premium, s)


def test_scalar_pricing_sorts_each_variable_once(monkeypatch, mu_worked, nu_worked, x_worked):
    integral = importlib.import_module("choqrisk.integral")
    groups, sorted_values = integral._groups, []

    def counting(values):
        sorted_values.append(values)
        return groups(values)

    monkeypatch.setattr(integral, "_groups", counting)
    monkeypatch.setattr(pm, "_groups", counting)
    s = Scenario(1.0, x_worked, mu_worked, nu_worked, Exponential(1.0))
    # premium sorts w - X and u(w - X); the benchmark and its approximation sort X or Y once
    for fn, sorts in ((premium, 2), (risk_neutral_premium, 1), (approx_premium, 1)):
        sorted_values.clear()
        fn(s)
        assert len(sorted_values) == sorts, fn.__name__


# --- one-row pricing on tuples ---------------------------------------------------------------

def rv_price(s):
    """``premium._price`` as it was when it built RandomVariables for w - X and u(w - X),
    kept verbatim as the reference."""
    from choqrisk import gen_choquet

    u, y = s.u, s.outcome
    if not all(map(u.in_domain, y.values)):
        return "values", None
    if not u.in_domain(gen_choquet(s.mu, s.nu, y)):
        return "outcome_integral", None
    mu_val = gen_choquet(s.mu, s.nu, y.map(u.value))
    if not u.in_range(mu_val):
        return "utility_integral", None
    return None, s.w - u.inverse(mu_val)


def rv_premium(s):
    reason, pi = rv_price(s)
    if reason is not None:
        raise OutOfClass(reason)
    return pi


def rv_class_membership(s):
    reason, _ = rv_price(s)
    return reason is None, reason


def rv_approx_premium(s):
    """``approx_premium`` as it was when it built a RandomVariable for Y, kept verbatim as the
    reference."""
    from choqrisk import arrow_pratt

    r = arrow_pratt(s.u, s.w)
    d1 = s.u.prime(s.w)
    if d1 <= 0.0:
        raise ZeroDerivative(f"u'({s.w}) = {d1}")
    y = s.x.map(lambda v: v + r * v * v / 2.0)
    upper = s.u.value(s.w) / d1
    if upper == np.inf:  # the tail gap is 0 above every value of Y, and an infinite cell would give inf * 0
        upper = max(0.0, *y.values)
    return pm._swapped_with_gap(s, y.values, upper)


class NaNBelowZero(Linear):
    """The identity, except that u is NaN below 0 (``value`` passes a NaN on)."""

    def _value(self, x):
        return math.nan if x < 0.0 else x


def one_row_outcomes(s):
    return [outcome_of(fn, s) for fn in (premium, class_membership, approx_premium)]


def test_one_row_pricing_matches_the_random_variable_reference():
    rng = rng_from_seed(2500)
    ground = GroundSet(8)
    seen = set()
    for spec in ("exp:1", "power:1,0.5", "log:1", TABLE):
        u = parse_utility(spec)
        mu, nu = random_dominant_pair(rng, ground)
        for w, x in sample_outcomes(rng, ground, 40) + scan_rows(rng, ground, 40):
            s = Scenario(w, x, mu, nu, u)
            got = one_row_outcomes(s)
            assert got == [outcome_of(fn, s) for fn in (rv_premium, rv_class_membership, rv_approx_premium)]
            seen.add(got[1])
    assert {repr((True, None)), repr((False, "values"))} <= seen
    mu, nu = random_dominant_pair(rng, ground)
    edges = [
        (1e308, (-1e308,) * 8, "exp:1"),  # w - X overflows to inf
        (1.0, (1e200,) + (0.5,) * 7, "exp:1"),  # u(w - X) overflows, and so does Y
        (1.0, (2.0, 0.5, 3.0, 1.0, -1.0, 0.0, 0.25, 1.5), NaNBelowZero()),  # u is NaN at three values
        (1.0, (0.5, -1.0, 0.0, 1.0, 0.25, 0.5, -2.0, 0.75), NaNBelowZero()),  # and finite at every one
    ]
    priced = []
    for w, vals, u in edges:
        s = Scenario(w, RandomVariable(ground, vals), mu, nu, parse_utility(u) if isinstance(u, str) else u)
        priced.append(one_row_outcomes(s))
        assert priced[-1] == [outcome_of(fn, s) for fn in (rv_premium, rv_class_membership, rv_approx_premium)]
    finite = ("ValueError", "values must be finite")
    overflow = ("ValueError", "exp:1: u(-1e+200) is not a finite float (overflow)")
    assert [got[0] for got in priced[:3]] == [finite, overflow, finite]
    assert priced[1][2] == finite and priced[3][1] == repr((True, None))


def test_one_row_pricing_builds_no_random_variable(monkeypatch):
    rng = rng_from_seed(2501)
    ground = GroundSet(8)
    mu, nu = random_dominant_pair(rng, ground)
    [(w, x)] = sample_outcomes(rng, ground, 1)
    s = Scenario(w, x, mu, nu, parse_utility("exp:1"))
    builds, init = [], RandomVariable.__post_init__
    monkeypatch.setattr(RandomVariable, "__post_init__", lambda self: builds.append(self) or init(self))
    for fn in (premium, class_membership, approx_premium, risk_neutral_premium):
        builds.clear()
        fn(s)
        assert builds == [], fn.__name__
    s.outcome  # the counter sees a build
    assert len(builds) == 1
