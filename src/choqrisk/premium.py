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
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .capacity import Capacity, _check_same_ground, _values, coexistence_set, dominates_dual
from .errors import NonDifferentiable, OutOfClass, TooLarge, ZeroDerivative, ZeroOneCapacity
from .integral import (
    RandomVariable,
    _cell_sums,
    _finite,
    _groups,
    _halves,
    _lower,
    _outcome_rows,
    _step_cells,
    _walk_groups,
)
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


def _integral(s: Scenario, values: tuple[float, ...]) -> float:
    """``gen_choquet(s.mu, s.nu, Z)`` of the Z with these values, whose ground set Scenario has checked."""
    total, lower_part = _walk_groups(s.mu._view, s.nu._view, _groups(values), s.x.ground.full)
    return total - lower_part


def _price(s: Scenario) -> tuple[str | None, float | None]:
    """Membership test and pricing in one pass over the scenario.

    Returns ``(failed-check name, None)`` outside the premium class and
    ``(None, premium)`` inside it.  Checks, in order: every value of
    ``w - X`` lies in the utility domain; the integral of ``w - X`` does
    too; and the integral of ``u(w - X)`` lies in the utility's range so
    the inverse applies.  Both tests are the utility's own ``in_domain``
    and ``in_range``, so endpoints are admitted exactly where u has them;
    a domain is an interval, so the first test reads the least and the
    greatest value of w - X.  u(w - X) is one ``values`` call.  w - X and
    u(w - X) are tuples of floats, refused as RandomVariable refuses them
    when a value is not finite; no RandomVariable is built.
    """
    u, y = s.u, _finite(tuple([s.w - v for v in s.x.values]))
    if not (u.in_domain(min(y)) and u.in_domain(max(y))):
        return "values", None
    if not u.in_domain(_integral(s, y)):
        return "outcome_integral", None
    mu_val = _integral(s, _finite(tuple(map(float, u.values(y)))))
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


def _tail_gap_integral(mu: Capacity, nu: Capacity, groups, full: int, upper: float) -> float:
    """Exact ``int_0^upper (dual(nu)(Z < t) - mu(Z < t)) dt`` from the ``_groups`` of Z.

    ``step_integral`` with the values of Z as breakpoints, bit for bit: its
    cells run over 0, the distinct values strictly between 0 and upper, and
    upper, in ascending order; each is read at its midpoint and added left
    to right, and a negative upper flips the sign.
    """
    if upper == 0.0:
        return 0.0
    lo, hi, sign = (upper, 0.0, -1.0) if 0.0 > upper else (0.0, upper, 1.0)
    pts = [lo, *(d for d in groups[0] if lo < d < hi), hi]
    mu_t, nu_t = mu._view, nu._view
    acc = 0.0
    for left, right in zip(pts, pts[1:]):
        below = _lower(groups, (left + right) / 2.0, True)
        # dual(nu)(Z < t) = 1 - nu(Z >= t), and Z >= t is the complement of Z < t
        acc += (right - left) * ((1.0 - nu_t[full ^ below]) - mu_t[below])
    return sign * acc


def _swapped_with_gap(s: Scenario, values, upper: float) -> float:
    """C_swapped(Z) plus the tail gap of Z up to ``upper``, off one ``_groups`` of Z's values."""
    groups, full = _groups(values), s.x.ground.full
    total, lower_part = _walk_groups(s.nu._view, s.mu._view, groups, full)
    return (total - lower_part) + _tail_gap_integral(s.mu, s.nu, groups, full, upper)


def risk_neutral_premium(s: Scenario) -> float:
    """Linear-utility benchmark premium; ignores ``s.u``."""
    return _swapped_with_gap(s, s.x.values, s.w)


def _risk_neutral_rows(ws: np.ndarray, xs: np.ndarray, mu: Capacity, nu: Capacity) -> np.ndarray:
    """``risk_neutral_premium`` of every (w, X) row, bit for bit.

    One ``_halves`` call gives the swapped C(X), and the tail gap is summed
    per cell in ``step_integral``'s order, from the cells that the lemma's
    translation trial also reads.
    """
    mu_t, nu_t = _values(mu), _values(nu)
    gains, losses = _halves((mu_t, nu_t), xs)
    width, _, below, sign = _step_cells(xs, np.zeros(len(xs)), ws)
    # dual(nu)(X < t) - mu(X < t) in each cell, as _tail_gap_integral reads it
    gap = _cell_sums(width, sign, (1.0 - nu_t[mu.ground.full ^ below]) - mu_t[below])
    return (gains[1] - losses[0]) + gap


def approx_premium(s: Scenario) -> float:
    """Quadratic (local-curvature) approximation of the premium.

    Requires u twice differentiable at w with positive slope.  Error decays
    quadratically in the scale of X; see the risk-aversion tests for the
    measured constants.  The tail gap runs from 0 to u(w) / u'(w); where
    that overflows to infinity, it stops at the largest value of Y, above
    which it is 0.
    """
    r = arrow_pratt(s.u, s.w)
    d1 = s.u.prime(s.w)
    if d1 <= 0.0:
        raise ZeroDerivative(f"u'({s.w}) = {d1}")
    y = _finite(tuple([float(v + r * v * v / 2.0) for v in s.x.values]))
    upper = s.u.value(s.w) / d1
    if upper == np.inf:  # the tail gap is 0 above every value of Y, and an infinite cell would give inf * 0
        upper = max(0.0, *y)
    return _swapped_with_gap(s, y, upper)


@dataclass(frozen=True)
class PremiumBatch:
    """``premium_batch``'s rows, priced in row order up to the first that raised.

    ``reasons[i]`` is the check row i fails, as ``class_membership`` names
    it, or None inside the premium class, and ``levels[i]`` is C(u(w - X))
    of an in-class row.  When ``error`` is None every row is priced;
    otherwise it is what the row after the last priced one raised.
    """

    u: UtilityFunction
    ws: tuple[float, ...]
    reasons: tuple[str | None, ...]
    levels: tuple[float, ...]
    error: Exception | None

    def premium(self, i: int) -> float:
        """``premium`` of row i; calls ``u.inverse`` once, as the scalar path does."""
        if self.reasons[i] is not None:
            raise OutOfClass(self.reasons[i])
        return self.ws[i] - self.u.inverse(self.levels[i])


def premium_batch(ws, xs, mu: Capacity, nu: Capacity, u: UtilityFunction) -> PremiumBatch:
    """``class_membership`` and ``premium`` of every (w, X) row, bit for bit.

    ws holds K wealths, which the caller has checked as Scenario does, and
    xs the (K, n) array of their outcomes.  One ``_halves`` call on the
    stack (mu, nu) integrates w - X and u(w - X).  The utility's domain test
    of a row reads the least and the greatest value of its w - X, as
    ``premium``'s does, and one ``values`` call evaluates every row inside
    u's domain; if that call raises, the rows are evaluated again one at a
    time, so that the row which raises is the one where ``premium`` raises.
    ``in_domain`` and ``in_range`` run at each row's two integrals, and
    ``inverse`` only when a row's premium is read.  The batch stops at the
    first row where the scalar path raises (``error``): a w - X that is not
    finite, or a utility call that raises.
    """
    ground = _check_same_ground(mu, nu)
    xs = _outcome_rows(ground, xs)
    ws = np.asarray(ws, dtype=float)
    if ws.shape != (len(xs),):
        raise ValueError(f"expected {len(xs)} wealths, got an array of shape {ws.shape}")
    with np.errstate(over="ignore"):  # an infinite w - X stops the batch at its row
        ys = ws[:, None] - xs
    wide = ~np.isfinite(ys).all(axis=1)
    stop = int(np.argmax(wide)) if wide.any() else len(ys)
    lows, highs = ys[:stop].min(axis=1).tolist(), ys[:stop].max(axis=1).tolist()
    inside = [u.in_domain(lo) and u.in_domain(hi) for lo, hi in zip(lows, highs)]
    valued = np.flatnonzero(inside)
    uy, raised = np.zeros((stop, ground.n)), {}
    try:
        uy[valued] = np.reshape(u.values(ys[valued].ravel().tolist()), (-1, ground.n))
    except Exception:  # find the rows that raise, as premium meets them
        for i in valued.tolist():
            try:
                uy[i] = u.values(ys[i].tolist())
            except Exception as exc:  # raised at the row, unless its outcome integral is out of domain
                raised[i] = exc
    for i in np.flatnonzero(~np.isfinite(uy).all(axis=1)).tolist():  # a NaN, which RandomVariable refuses
        raised[i] = ValueError("values must be finite")
        uy[i] = 0.0
    gains, losses = _halves((_values(mu), _values(nu)), np.concatenate([ys[:stop], uy]))
    integrals = (gains[0] - losses[1]).tolist()
    reasons, error = [], None
    for i, ok in enumerate(inside):
        if not ok:
            reasons.append("values")
        elif not u.in_domain(integrals[i]):
            reasons.append("outcome_integral")
        elif i in raised:
            error = raised[i]
            break
        else:
            reasons.append(None if u.in_range(integrals[stop + i]) else "utility_integral")
    if error is None and stop < len(ys):
        error = ValueError("values must be finite")
    rows = len(reasons)
    return PremiumBatch(u, tuple(ws[:rows].tolist()), tuple(reasons), tuple(integrals[stop : stop + rows]), error)


def _scan_chunks(outcomes: Iterable[tuple[float, RandomVariable]], mu: Capacity, nu: Capacity) -> Iterator:
    """The (w, X) rows of ``outcomes`` as ``(rows, ws, xs, error)``, in chunks of _SCAN_CHUNK rows.

    A scan whose witness is row j has read and priced the chunks up to
    j's, 256 (floor(j / 256) + 1) <= j + 256 rows (fewer where the input
    ends sooner), and a streaming input is held a chunk at a time.  A
    chunk ends early at the first row that raises while it is read (a
    generator's own check) or at Scenario's wealth and ground-set checks.
    ``error`` is what that row raised; a scan raises it only when no
    witness comes before it, as a row-by-row loop would.
    """
    it = iter(outcomes)
    while True:
        rows, error = [], None
        try:
            for w, x in islice(it, _SCAN_CHUNK):
                _check_scenario(w, x, mu, nu)
                rows.append((w, x))
        except Exception as exc:  # raised after the chunk's rows are scanned
            error = exc
        ws = np.array([w for w, _ in rows], dtype=float)
        xs = np.array([x.values for _, x in rows], dtype=float).reshape(len(rows), mu.ground.n)
        if rows or error is not None:
            yield rows, ws, xs, error
        if error is not None or len(rows) < _SCAN_CHUNK:
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

    The outcomes are read in chunks (``_scan_chunks``): with the witness at
    row j, 256 (floor(j / 256) + 1) <= j + 256 rows are drawn from them.
    """
    checked = skipped = 0
    for rows, ws, xs, error in _scan_chunks(outcomes, mu, nu):
        batch = premium_batch(ws, xs, mu, nu, u)
        priced = [i for i, reason in enumerate(batch.reasons) if reason is None]
        pi0 = iter(_risk_neutral_rows(ws[priced], xs[priced], mu, nu).tolist())
        for i, reason in enumerate(batch.reasons):
            if reason is not None:
                skipped += 1
                continue
            checked += 1
            shortfall = next(pi0) - batch.premium(i)
            if shortfall > PREMIUM_TOL:
                return RiskAversionReport(False, checked, skipped, Scenario(*rows[i], mu, nu, u), shortfall)
        if batch.error or error:
            raise batch.error or error
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
    for rows, ws, xs, error in _scan_chunks(outcomes, mu, nu):
        by_u = premium_batch(ws, xs, mu, nu, u)
        in_u = [i for i, r in enumerate(by_u.reasons) if r is None]
        by_v = premium_batch(ws[in_u], xs[in_u], mu, nu, v)
        for k, i in enumerate(in_u):
            pi_u = by_u.premium(i)
            if k == len(by_v.reasons):  # v's utility raised at this row
                raise by_v.error
            if by_v.reasons[k] is not None:
                continue
            checked += 1
            if pi_u < by_v.premium(k) - PREMIUM_TOL:
                witness = Scenario(*rows[i], mu, nu, u)
                return AgentComparison(hypotheses, False, r_order, comp_concave, checked, witness)
        if by_u.error or error:
            raise by_u.error or error
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
