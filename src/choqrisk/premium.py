"""Certainty-equivalent premiums under the generalized Choquet integral.

A scenario is (wealth w, outcome X, capacity pair (mu, nu), utility u).
The premium solves ``u(w - pi) = C(u(w - X))`` and is computed in closed
form as ``pi = w - u^{-1}(C(u(w - X)))``; strict monotonicity of u makes it
unique whenever the scenario passes the membership test below.

The risk-neutral benchmark is

    pi0 = C_swapped(X) + int_0^w (dual(nu)(X < s) - mu(X < s)) ds,

where ``C_swapped`` applies nu to gains and mu to losses (the capacity
order is the one under which a linear-utility agent's premium equals pi0
exactly; tests pin this identity).  The quadratic approximation replaces X
by ``Y = X + r_u(w) X^2 / 2`` and the upper limit by ``u(w) / u'(w)``.

All step integrals are evaluated exactly by enumerating the atoms of the
relevant variable inside the integration range; there is no quadrature
error anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .capacity import Capacity, _check_same_ground, coexistence_set, dominates_dual
from .errors import NonDifferentiable, OutOfClass, TooLarge, ZeroDerivative, ZeroOneCapacity
from .integral import RandomVariable, _groups, _lower, gen_choquet, step_integral
from .utility import UtilityFunction, arrow_pratt, compose_via_inverse, is_concave_on

PREMIUM_TOL = 1e-9
#: cap on one sample_outcomes batch (the CLI defaults draw 200 and 500)
_MAX_SAMPLES = 10**5


@dataclass(frozen=True)
class Scenario:
    """One premium-pricing instance; immutable and cheap to fan out."""

    w: float
    x: RandomVariable
    mu: Capacity
    nu: Capacity
    u: UtilityFunction

    def __post_init__(self):
        if not 0.0 <= self.w < np.inf:
            raise ValueError(f"wealth must be finite and nonnegative, got {self.w!r}")
        _check_same_ground(self.mu, self.nu, self.x)

    @property
    def outcome(self) -> RandomVariable:
        """The wealth position ``w - X`` entering the utility."""
        return self.w - self.x


def _price(s: Scenario) -> tuple[str | None, float | None]:
    """Membership test and pricing in one pass over the scenario.

    Returns ``(failed-check name, None)`` outside the premium class and
    ``(None, premium)`` inside it.  Checks, in order: every value of
    ``w - X`` lies in the utility domain; the integral of ``w - X`` does
    too; and the integral of ``u(w - X)`` lies in the utility's range so
    the inverse applies.  Both tests are the utility's own ``in_domain``
    and ``in_range``, so endpoints are admitted exactly where u has them.
    """
    y = s.outcome
    if not all(s.u.in_domain(v) for v in y.values):
        return "values", None
    if not s.u.in_domain(gen_choquet(s.mu, s.nu, y)):
        return "outcome_integral", None
    mu_val = gen_choquet(s.mu, s.nu, y.map(s.u.value))
    if not s.u.in_range(mu_val):
        return "utility_integral", None
    return None, s.w - s.u.inverse(mu_val)


def class_membership(s: Scenario) -> tuple[bool, str | None]:
    """Premium-existence test; returns (ok, failed-check name)."""
    reason, _ = _price(s)
    return reason is None, reason


def premium(s: Scenario) -> float:
    """Certainty-equivalent premium ``w - u^{-1}(C(u(w - X)))``."""
    reason, pi = _price(s)
    if reason is not None:
        raise OutOfClass(reason)
    return pi


def _tail_gap_integral(mu: Capacity, nu: Capacity, z: RandomVariable, upper: float) -> float:
    """Exact ``int_0^upper (dual(nu)(Z < t) - mu(Z < t)) dt``."""

    groups = _groups(z.values)

    def integrand(t: float) -> float:
        # dual(nu)(Z < t) = 1 - nu(Z >= t), and Z >= t is the complement of Z < t
        below = _lower(groups, t, True)
        return (1.0 - nu.table[z.ground.full ^ below]) - mu.table[below]

    return step_integral(integrand, 0.0, upper, z.values)


def risk_neutral_premium(s: Scenario) -> float:
    """Linear-utility benchmark premium; ignores ``s.u``."""
    return gen_choquet(s.nu, s.mu, s.x) + _tail_gap_integral(s.mu, s.nu, s.x, s.w)


def approx_premium(s: Scenario) -> float:
    """Quadratic (local-curvature) approximation of the premium.

    Requires u twice differentiable at w with positive slope.  Error decays
    quadratically in the scale of X; see the risk-aversion tests for the
    measured constants.
    """
    r = arrow_pratt(s.u, s.w)
    d1 = s.u.prime(s.w)
    if d1 <= 0.0:
        raise ZeroDerivative(f"u'({s.w}) = {d1}")
    y = s.x.map(lambda v: v + r * v * v / 2.0)
    upper = s.u.value(s.w) / d1
    return gen_choquet(s.nu, s.mu, y) + _tail_gap_integral(s.mu, s.nu, y, upper)


@dataclass(frozen=True)
class RiskAversionReport:
    """Outcome of sweeping ``premium >= risk_neutral_premium - PREMIUM_TOL``.

    ``witness`` is the first violating scenario; ``gap`` its shortfall
    ``pi0 - pi`` (positive at a violation).  Scenarios that fail the
    membership test are skipped and counted separately.
    """

    averse: bool
    checked: int
    skipped: int
    witness: Scenario | None
    gap: float

    def __bool__(self) -> bool:
        return self.averse


def is_risk_averse(
    u: UtilityFunction,
    mu: Capacity,
    nu: Capacity,
    outcomes: Iterable[tuple[float, RandomVariable]],
) -> RiskAversionReport:
    """Test the agent against the risk-neutral benchmark over sampled (w, X)."""
    checked = skipped = 0
    for w, x in outcomes:
        s = Scenario(w, x, mu, nu, u)
        reason, pi = _price(s)
        if reason is not None:
            skipped += 1
            continue
        checked += 1
        shortfall = risk_neutral_premium(s) - pi
        if shortfall > PREMIUM_TOL:
            return RiskAversionReport(False, checked, skipped, s, shortfall)
    return RiskAversionReport(True, checked, skipped, None, 0.0)


def two_point_outcomes(
    ground, w: float, negatives: Sequence[float], positives: Sequence[float]
) -> Iterator[tuple[float, RandomVariable]]:
    """Wealth positions of the form ``w - X = beta on B, alpha off B``.

    Scans every proper nonempty subset B and all (alpha, beta) pairs with
    ``alpha <= 0 <= beta``; this is the witness shape that breaks the
    Jensen inequality whenever anything does, so it seeds counterexample
    searches.
    """
    full = ground.full
    for b_set in range(1, full):
        for alpha in negatives:
            for beta in positives:
                vals = tuple(
                    w - (beta if b_set >> i & 1 else alpha) for i in range(ground.n)
                )
                yield w, RandomVariable(ground, vals)


def sample_outcomes(
    rng: np.random.Generator,
    ground,
    count: int,
    w_range: tuple[float, float] = (0.0, 3.0),
    x_range: tuple[float, float] = (-2.0, 2.0),
    x_below_w: bool = False,
) -> list[tuple[float, RandomVariable]]:
    """Seeded batch of at most _MAX_SAMPLES (w, X) pairs; ``x_below_w`` caps X at w pointwise."""
    if count > _MAX_SAMPLES:
        raise TooLarge(f"{count} samples requested, above the cap of {_MAX_SAMPLES}")
    out = []
    for _ in range(count):
        w = float(rng.uniform(*w_range))
        vals = rng.uniform(x_range[0], x_range[1], size=ground.n)
        if x_below_w:
            vals = np.minimum(vals, w - np.abs(rng.normal(0.0, 0.1, size=ground.n)))
        out.append((w, RandomVariable(ground, tuple(float(v) for v in vals))))
    return out


@dataclass(frozen=True)
class AgentComparison:
    """Three-way risk-aversion comparison of two agents u and v.

    Under the hypotheses (conjugate dominance plus a set B with
    ``mu(B) > 0`` and ``nu(B^c) > 0``) the three verdicts coincide; when
    ``hypotheses_met`` is False they are still reported but no equivalence
    is claimed.
    """

    hypotheses_met: bool
    premium_order_holds: bool
    r_order_holds: bool
    composition_concave: bool
    checked: int
    witness: Scenario | None
    detail: str = ""

    def verdicts_agree(self) -> bool:
        return self.premium_order_holds == self.r_order_holds == self.composition_concave


def _where_differentiable(fn, xs: Iterable[float]) -> Iterator:
    """``fn`` at each point of xs, skipping kinks and knots where it raises NonDifferentiable."""
    for x in xs:
        try:
            yield fn(x)
        except NonDifferentiable:
            continue


def compare_agents(
    u: UtilityFunction,
    v: UtilityFunction,
    mu: Capacity,
    nu: Capacity,
    outcomes: Iterable[tuple[float, RandomVariable]],
) -> AgentComparison:
    """Compare premiums, Arrow-Pratt coefficients and composed curvature.

    Grid points where u or v has no derivative (a kink, a tabulated knot)
    are left out of the Arrow-Pratt and curvature verdicts.
    """
    hypotheses = dominates_dual(mu, nu).holds and coexistence_set(mu, nu) is not None

    lo = max(u.domain_lo, v.domain_lo)
    hi = min(u.domain_hi, v.domain_hi)
    shrink = lambda t, s: t + s * max(1e-6, abs(t) * 1e-6)
    glo = shrink(lo, 1.0) if lo > -np.inf else -10.0
    ghi = shrink(hi, -1.0) if hi < np.inf else 10.0
    grid = [glo + k * (ghi - glo) / 200 for k in range(201)]

    r_order = all(
        not ru < rv - PREMIUM_TOL
        for ru, rv in _where_differentiable(lambda x: (arrow_pratt(u, x), arrow_pratt(v, x)), grid)
    )
    comp = compose_via_inverse(u, v)
    comp_concave = all(g2 <= PREMIUM_TOL for g2 in _where_differentiable(comp.second, comp.grid()))

    premium_order = True
    witness = None
    checked = 0
    for w, x in outcomes:
        su = Scenario(w, x, mu, nu, u)
        reason_u, pi_u = _price(su)
        if reason_u is not None:
            continue
        reason_v, pi_v = _price(Scenario(w, x, mu, nu, v))
        if reason_v is not None:
            continue
        checked += 1
        if pi_u < pi_v - PREMIUM_TOL:
            premium_order = False
            witness = su
            break
    return AgentComparison(
        hypotheses, premium_order, r_order, comp_concave, checked, witness
    )


@dataclass(frozen=True)
class NonnegLossReport:
    """Risk-aversion verdict restricted to losses not exceeding wealth.

    With ``X <= w`` pointwise only the behavior of u on the nonnegative
    axis matters, so the verdict must match grid concavity there.
    """

    averse: bool
    concave_on_nonneg: bool
    agree: bool
    checked: int
    witness: Scenario | None


def nonneg_loss_check(
    u: UtilityFunction,
    mu: Capacity,
    nu: Capacity,
    outcomes: Iterable[tuple[float, RandomVariable]],
) -> NonnegLossReport:
    """Check risk aversion over scenarios with ``X <= w`` pointwise."""
    if mu.is_zero_one_valued():
        raise ZeroOneCapacity("hypothesis requires a capacity that is not {0,1}-valued")

    def capped():
        # lazy, so a bad row after the witness is never reached
        for w, x in outcomes:
            if any(v > w for v in x.values):
                raise ValueError("sampler must keep X <= w pointwise")
            yield w, x

    scan = is_risk_averse(u, mu, nu, capped())
    hi = min(u.domain_hi, 10.0)
    pts = 101
    eps = max(1e-9, hi * 1e-9)
    grid = [0.0 + k * (hi - eps) / (pts - 1) for k in range(pts)]
    if not u.closed_at_lo and u.domain_lo >= 0.0:
        grid = grid[1:]
    concave = is_concave_on(u, grid).holds
    return NonnegLossReport(scan.averse, concave, scan.averse == concave, scan.checked, scan.witness)
