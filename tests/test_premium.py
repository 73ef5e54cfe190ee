"""Premium pricing: closed-form consistency, risk-aversion sweeps,
agent comparison, and the quadratic approximation.

The linear-utility identity ``premium == risk_neutral_premium`` is the
consistency check that pins the capacity order in the benchmark formula.
"""

import math

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
    nonneg_loss_check,
    premium,
    risk_neutral_premium,
    unanimity,
)
from choqrisk.errors import OutOfClass, ZeroOneCapacity
from choqrisk.premium import class_membership, sample_outcomes, two_point_outcomes
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
