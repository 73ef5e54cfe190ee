"""Certainty-equivalent premiums under the generalized Choquet integral.

A scenario is (wealth w, outcome X, capacity pair (mu, nu), utility u).
The premium solves ``u(w - pi) = C(u(w - X))`` and is computed in closed
form as ``pi = w - u^{-1}(C(u(w - X)))``; strict monotonicity of u makes it
unique whenever the scenario passes the membership test below.

The risk-neutral benchmark pi0 is the linear agent's premium
``w - C(w - X)``, and the quadratic approximation is the linear agent's
premium of ``Y = X + r_u(w) X^2 / 2`` at the wealth ``u(w) / u'(w)``.  Both
are read at the cap ``V = min(w, max(0, max X))``: the linear premium is
the same at every wealth from ``max(0, max X)`` up, and at V the rounding
error stays in proportion to X rather than to w.  The closed form

    pi0 = C_swapped(X) + int_0^w (dual(nu)(X < s) - mu(X < s)) ds,

where ``C_swapped`` applies nu to gains and mu to losses, is the same
number; the tests check the identity.

Every integral is the exact walk over the atoms of its variable; there is
no quadrature error anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .capacity import Capacity, _check_same_ground, _values, coexistence_set, dominates_dual
from .errors import NonDifferentiable, OutOfClass, TooLarge, ZeroOneCapacity
from .integral import RandomVariable, _finite, _halves, _order, _outcome_rows, _walk
from .utility import UtilityFunction, arrow_pratt, compose_via_inverse, is_concave_on

PREMIUM_TOL = 1e-9
#: cap on one sample_outcomes batch (the CLI defaults draw 200 and 500)
_MAX_SAMPLES = 10**5
#: rows of each premium_batch call of the scans
_SCAN_CHUNK = 256


def _check_scenario(w: float, x, mu: Capacity, nu: Capacity) -> None:
    """Scenario's checks: a finite, nonnegative wealth and one ground set."""
    if not 0.0 <= w < np.inf:
        raise ValueError(f"wealth must be finite and nonnegative, got {w!r}")
    _check_same_ground(mu, nu, x)


@dataclass(frozen=True)
class Scenario:
    """One premium-pricing instance; immutable and cheap to fan out."""

    w: float
    x: RandomVariable
    mu: Capacity
    nu: Capacity
    u: UtilityFunction

    def __post_init__(self):
        _check_scenario(self.w, self.x, self.mu, self.nu)

    @property
    def outcome(self) -> RandomVariable:
        """The wealth position ``w - X`` entering the utility."""
        return self.w - self.x


def _integral(s: Scenario, values: tuple[float, ...], order: list[int] | None = None) -> float:
    """``gen_choquet(s.mu, s.nu, Z)`` of the Z with these values, whose ground set Scenario has checked,
    walked in ``order`` where that takes the values in ascending order, else on a sort of their own."""
    parts = order and _walk(s.mu._view, s.nu._view, values, order, s.x.ground.full)
    total, lower_part = parts or _walk(s.mu._view, s.nu._view, values, _order(values), s.x.ground.full)
    return total - lower_part


def _price(s: Scenario) -> tuple[str | None, float | None]:
    """Membership test and pricing in one pass over the scenario.

    Returns ``(failed-check name, None)`` outside the premium class and
    ``(None, premium)`` inside it.  Checks, in order: every value of
    ``w - X`` lies in the utility domain; the integral of ``w - X`` does
    too; and the integral of ``u(w - X)`` lies in the utility's range so
    the inverse applies.  Both tests are the utility's own ``in_domain``
    and ``in_range``, so endpoints are admitted exactly where u has them.
    w - X is sorted once: a domain is an interval, so the first test reads
    its ends, and u(w - X), one ``values`` call, is walked in its order (u
    is nondecreasing), sorted again only where rounding breaks it.  w - X
    and u(w - X) are tuples of floats, refused as RandomVariable refuses
    them when a value is not finite; no RandomVariable is built.
    """
    u, y = s.u, _finite(tuple([s.w - v for v in s.x.values]))
    order = _order(y)
    if not (u.in_domain(y[order[0]]) and u.in_domain(y[order[-1]])):
        return "values", None
    if not u.in_domain(_integral(s, y, order)):
        return "outcome_integral", None
    mu_val = _integral(s, _finite(tuple(map(float, u.values(y)))), order)
    if not u.in_range(mu_val):
        return "utility_integral", None
    return None, s.w - u.inverse(mu_val)


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


def _linear_premium(s: Scenario, values, upper: float) -> float:
    """The linear agent's premium ``V - C(V - Z)`` of the Z with these values at the wealth
    ``upper``, read at the cap ``V = min(upper, max(0, max Z))``; refused as RandomVariable
    refuses it where a value of V - Z is not finite."""
    v = min(upper, max(0.0, *values))
    return v - _integral(s, _finite(tuple([v - z for z in values])))


def risk_neutral_premium(s: Scenario) -> float:
    """Linear-utility benchmark premium ``w - C(w - X)``; ignores ``s.u``."""
    return _linear_premium(s, s.x.values, s.w)


def _risk_neutral_rows(ws: np.ndarray, xs: np.ndarray, mu: Capacity, nu: Capacity) -> np.ndarray:
    """``risk_neutral_premium`` of every (w, X) row, bit for bit: one ``_halves`` call on the rows
    V - X, whose caps are taken as ``min`` and ``max`` take them, the first argument on a tie."""
    top = xs.max(axis=1)
    caps = np.where(top > 0.0, top, 0.0)
    caps = np.where(caps < ws, caps, ws)
    with np.errstate(over="ignore"):  # an infinite V - X is refused as not finite
        rows = _outcome_rows(mu.ground, caps[:, None] - xs)
    gains, losses = _halves((_values(mu), _values(nu)), rows)
    return caps - (gains[0] - losses[1])


def approx_premium(s: Scenario) -> float:
    """Quadratic (local-curvature) approximation of the premium: the linear agent's premium of
    ``Y = X + r_u(w) X^2 / 2`` at the wealth ``u(w) / u'(w)``, which may overflow to infinity.

    Requires u twice differentiable at w with positive slope.  Error decays
    quadratically in the scale of X; see the risk-aversion tests for the
    measured constants.
    """
    r = arrow_pratt(s.u, s.w)
    return _linear_premium(s, [float(v + r * v * v / 2.0) for v in s.x.values], s.u.value(s.w) / s.u.prime(s.w))


@dataclass(frozen=True)
class PremiumBatch:
    """``premium_batch``'s rows, every one priced.

    ``reasons[i]`` is the check row i fails, as ``class_membership`` names
    it, or None inside the premium class, and ``levels[i]`` is C(u(w - X))
    of an in-class row.
    """

    u: UtilityFunction
    ws: tuple[float, ...]
    reasons: tuple[str | None, ...]
    levels: tuple[float, ...]

    def premium(self, i: int) -> float:
        """``premium`` of row i; calls ``u.inverse`` once, as the scalar path does."""
        if self.reasons[i] is not None:
            raise OutOfClass(self.reasons[i])
        return self.ws[i] - self.u.inverse(self.levels[i])


def premium_batch(ws, xs, mu: Capacity, nu: Capacity, u: UtilityFunction) -> PremiumBatch:
    """``class_membership`` and ``premium`` of every (w, X) row, bit for bit, or an error.

    ws holds K wealths, which the caller has checked as Scenario does, and
    xs the (K, n) array of their outcomes.  One ``_halves`` call on the
    stack (mu, nu) integrates w - X and u(w - X).  The utility's domain test
    of a row reads the least and the greatest value of its w - X, as
    ``premium``'s does, and one ``values`` call evaluates every row inside
    u's domain.  ``in_domain`` and ``in_range`` run at each row's two
    integrals, and ``inverse`` only when a row's premium is read.  The batch
    raises where a w - X or a u(w - X) is not finite or the ``values`` call
    raises; that call takes every in-domain row at once, so it may raise at
    a row that ``premium`` finds out of class at its outcome integral.
    """
    ground = _check_same_ground(mu, nu)
    xs = _outcome_rows(ground, xs)
    ws = np.asarray(ws, dtype=float)
    if ws.shape != (len(xs),):
        raise ValueError(f"expected {len(xs)} wealths, got an array of shape {ws.shape}")
    with np.errstate(over="ignore"):  # an infinite w - X is refused as not finite
        ys = _outcome_rows(ground, ws[:, None] - xs)
    lows, highs = ys.min(axis=1).tolist(), ys.max(axis=1).tolist()
    inside = [u.in_domain(lo) and u.in_domain(hi) for lo, hi in zip(lows, highs)]
    valued = np.flatnonzero(inside)
    uy = np.zeros_like(ys)
    uy[valued] = np.reshape(u.values(ys[valued].ravel().tolist()), (-1, ground.n))
    gains, losses = _halves((_values(mu), _values(nu)), np.concatenate([ys, _outcome_rows(ground, uy)]))
    integrals, k = (gains[0] - losses[1]).tolist(), len(ys)
    reasons = [
        "values" if not ok
        else "outcome_integral" if not u.in_domain(integrals[i])
        else None if u.in_range(integrals[k + i]) else "utility_integral"
        for i, ok in enumerate(inside)
    ]
    return PremiumBatch(u, tuple(ws.tolist()), tuple(reasons), tuple(integrals[k:]))


def _batch_prices(ws, xs, mu: Capacity, nu: Capacity, u: UtilityFunction, v: UtilityFunction | None) -> Iterator:
    """_priced_rows's ``(pi, benchmark)`` pairs off one premium_batch per utility; inverses run as pairs are drawn."""
    by_u = premium_batch(ws, xs, mu, nu, u)
    ins = [i for i, reason in enumerate(by_u.reasons) if reason is None]
    if v is None:
        bench = iter(_risk_neutral_rows(ws[ins], xs[ins], mu, nu).tolist())
    else:
        by_v = premium_batch(ws[ins], xs[ins], mu, nu, v)
        bench = (by_v.premium(k) if reason is None else None for k, reason in enumerate(by_v.reasons))
    return ((by_u.premium(i), next(bench)) if reason is None else (None, None) for i, reason in enumerate(by_u.reasons))


def _row_prices(row, mu: Capacity, nu: Capacity, u: UtilityFunction, v: UtilityFunction | None) -> tuple:
    """_priced_rows's ``(pi, benchmark)`` of one row on the scalar path, which raises where ``premium`` does."""
    s = Scenario(*row, mu, nu, u)
    pi = _price(s)[1]
    if pi is None:
        return None, None
    return pi, risk_neutral_premium(s) if v is None else _price(Scenario(*row, mu, nu, v))[1]


def _priced_rows(
    outcomes: Iterable[tuple[float, RandomVariable]], mu: Capacity, nu: Capacity, u: UtilityFunction,
    v: UtilityFunction | None = None,
) -> Iterator:
    """The (w, X) rows of ``outcomes`` as ``((w, X), (pi, benchmark))``, priced _SCAN_CHUNK rows at a time.

    pi is u's premium, or None outside u's class; the benchmark is
    ``risk_neutral_premium``, or v's premium (None outside v's class), and
    None wherever pi is.  A chunk is priced by premium_batch; where that
    raises, it is priced again row by row with ``_price``, which raises at
    the row where a row-by-row loop would, at several times the batch's cost.
    A witness at row j reads 256 (floor(j / 256) + 1) <= j + 256 rows (fewer
    where the input ends sooner).  A row that raises while it is read (a
    generator's own check, or Scenario's checks) ends the input; its error
    is raised after the rows before it are yielded.
    """
    it = iter(outcomes)
    while True:
        rows, error = [], None
        try:
            for w, x in islice(it, _SCAN_CHUNK):
                _check_scenario(w, x, mu, nu)
                rows.append((w, x))
        except Exception as exc:  # raised after the chunk's rows are yielded
            error = exc
        if not rows and error is None:  # the input ended with the last chunk
            return
        ws = np.array([w for w, _ in rows], dtype=float)
        xs = np.array([x.values for _, x in rows], dtype=float).reshape(len(rows), mu.ground.n)
        try:
            priced = _batch_prices(ws, xs, mu, nu, u, v)
        except Exception:  # a row raised: price the chunk again, so that it raises at its row
            priced = (_row_prices(row, mu, nu, u, v) for row in rows)
        yield from zip(rows, priced)
        if error is not None:
            raise error
        if len(rows) < _SCAN_CHUNK:
            return


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
    """Test the agent against the risk-neutral benchmark over sampled (w, X).

    The outcomes are read in chunks (``_priced_rows``): with the witness at
    row j, 256 (floor(j / 256) + 1) <= j + 256 rows are drawn from them.
    """
    checked = skipped = 0
    for row, (pi, pi0) in _priced_rows(outcomes, mu, nu, u):
        if pi is None:
            skipped += 1
            continue
        checked += 1
        shortfall = pi0 - pi
        if shortfall > PREMIUM_TOL:
            return RiskAversionReport(False, checked, skipped, Scenario(*row, mu, nu, u), shortfall)
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
    are left out of the Arrow-Pratt and curvature verdicts.  The outcomes
    are read in chunks as ``is_risk_averse`` reads them, so
    256 (floor(j / 256) + 1) <= j + 256 rows are drawn for a witness at row j.
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

    checked = 0
    for row, (pi_u, pi_v) in _priced_rows(outcomes, mu, nu, u, v):
        if pi_v is None:
            continue
        checked += 1
        if pi_u < pi_v - PREMIUM_TOL:
            return AgentComparison(hypotheses, False, r_order, comp_concave, checked, Scenario(*row, mu, nu, u))
    return AgentComparison(hypotheses, True, r_order, comp_concave, checked, None)


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
    """Check risk aversion over scenarios with ``X <= w`` pointwise.

    The scan is ``is_risk_averse``'s and reads the outcomes in its chunks:
    256 (floor(j / 256) + 1) <= j + 256 rows for a witness at row j.
    """
    if mu.is_zero_one_valued():
        raise ZeroOneCapacity("hypothesis requires a capacity that is not {0,1}-valued")

    def capped():
        # lazy, so the scan raises for a bad row only when no witness comes before it
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
