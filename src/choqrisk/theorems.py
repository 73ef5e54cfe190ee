"""Property-based and exhaustive verification of the Jensen-type results.

The checks here quantify over capacity pairs and over functions:

* a Jensen inequality ``C(f(X)) <= f(C(X))`` for increasing concave f with
  ``f(0) >= 0`` holds for every X exactly when ``mu <= dual(nu)``; when
  dominance fails, an explicit witness (a two-valued X and an affine map
  with positive intercept) realizes a violation whose size equals the
  dominance gap;
* for {0,1}-valued pairs the integral collapses to ``f(a_X) + f(b_X)`` and
  the Jensen inequality is equivalent to weak superadditivity of f whenever
  a coexistence set exists;
* with dominance plus a coexistence set, Jensen on two-valued X forces
  concavity of f; restricted to nonnegative X it forces concavity on the
  nonnegative axis only.

"for all X" is truncated to exhaustive two-valued grids (the proofs of the
results above only ever need two-valued witnesses) plus randomized dense
draws.  Every reported witness re-evaluates from scratch through the
integral module; reports are deterministic functions of the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import Callable, Iterator, Sequence

import numpy as np

from .capacity import Capacity, GroundSet, _check_same_ground, coexistence_set, dominates_dual
from .errors import HypothesisFailure, NotZeroOneValued, TooLarge
from .integral import (
    RandomVariable,
    _collapse_points,
    _outcome_rows,
    gen_choquet,
    gen_choquet_batch,
    translation_gap,
)
from .utility import (
    Exponential,
    NegSqrtKink,
    PiecewiseLinearKink,
    Power,
    is_concave_on,
    is_weakly_superadditive_on,
)

VIOLATION_TOL = 1e-9
GAP_MATCH_TOL = 1e-12
DEFAULT_LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)
DEFAULT_VALUE_GRID = tuple(-5.0 + 0.25 * k for k in range(41))
NONNEG_VALUE_GRID = tuple(0.25 * k for k in range(21))
#: ids of the sweep's check families, in the order each pair runs them
THEOREM_IDS = ("lemma", "1", "2", "3", "4")
#: cap on rows x n of one two-point grid: a scan holds about a dozen arrays of
#: that size (jensen_holds over 1.7e6 cells, n = 8, peaked at 220 MB)
GRID_MAX_CELLS = 2 * 10**6
#: cap on the pairs of one sweep: n = 3 at three levels has 16,641 pairs, at
#: five levels 3,549,456 (about 19 h at 19.5 ms per pair)
SWEEP_MAX_PAIRS = 10**5
#: capacities a refused sweep builds: the exact count of n = 2 at 18 levels
#: (324) and n = 3 at five (1884) fits, and no level grid takes over 0.1 s
_SWEEP_MAX_BUILT = 2000


# ---------------------------------------------------------------------------
# function gallery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineMap:
    """``x -> slope * x + intercept`` with nonnegative slope.

    With a positive intercept this is the member of the concave-increasing
    class that detects dominance failures; it is not a utility (it does not
    vanish at 0).
    """

    slope: float
    intercept: float

    def __post_init__(self):
        if self.slope < 0.0:
            raise ValueError("slope must be nonnegative")

    def value(self, x: float) -> float:
        return self.slope * x + self.intercept

    def in_domain(self, x: float) -> bool:
        return True

    def spec(self) -> str:
        return f"affine:{self.slope:g},{self.intercept:g}"


@dataclass(frozen=True)
class PlainMap:
    """Callable wrapper giving plain functions the gallery interface."""

    name: str
    fn: Callable[[float], float]
    lo: float = -math.inf
    hi: float = math.inf

    def value(self, x: float) -> float:
        return self.fn(x)

    def in_domain(self, x: float) -> bool:
        return self.lo < x < self.hi

    def spec(self) -> str:
        return self.name


def concave_increasing_gallery() -> list:
    """Concave increasing maps with f(0) >= 0, including an affine intercept."""
    return [Exponential(1.0), PiecewiseLinearKink(), AffineMap(1.0, 2.0), Power(6.0, 0.5)]


def convex_increasing_gallery() -> list:
    """Strictly convex increasing maps with f(0) = 0 (contrapositive probes)."""
    return [PlainMap("expm1", math.expm1), Power(0.5, 2.0)]


def zero_at_zero_gallery() -> list:
    """Strictly increasing continuous maps with f(0) = 0, mixed shapes."""
    return [
        Exponential(1.0),
        PiecewiseLinearKink(),
        NegSqrtKink(),
        PlainMap("expm1", math.expm1),
    ]


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """Outcome of one quantified check.

    ``witness`` re-evaluates to a violation (gap above VIOLATION_TOL)
    whenever ``holds`` is False.
    """

    check: str
    holds: bool
    checked: int
    witness: dict | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.holds


# ---------------------------------------------------------------------------
# capacity enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CapacityEnumerator:
    """Exhaustive stream of monotone tables over a finite level grid."""

    n: int
    levels: tuple[float, ...] = DEFAULT_LEVELS

    def __post_init__(self):
        if self.n not in (2, 3):
            raise TooLarge(f"exhaustive enumeration supports n in {{2, 3}}, got {self.n}")
        levels = tuple(sorted(float(v) for v in set(self.levels)))
        object.__setattr__(self, "levels", levels)
        if levels[0] != 0.0 or levels[-1] != 1.0 or any(not 0.0 <= v <= 1.0 for v in levels):
            raise ValueError("levels must lie in [0, 1] and include 0 and 1")

    def __iter__(self) -> Iterator[Capacity]:
        """Yield every monotone normalized table over the level grid exactly once.

        Masks are filled in ascending integer order, which refines subset
        inclusion, so each entry only needs to dominate its already-assigned
        covers from below.
        """
        ground = GroundSet(self.n)
        size = ground.size
        table = [0.0] * size
        table[size - 1] = 1.0

        def fill(mask: int) -> Iterator[Capacity]:
            if mask == size - 1:
                yield Capacity(ground, tuple(table))
                return
            lb = 0.0
            for i in range(self.n):
                if mask >> i & 1:
                    lb = max(lb, table[mask ^ (1 << i)])
            for level in self.levels:
                if level >= lb:
                    table[mask] = level
                    yield from fill(mask + 1)
            table[mask] = 0.0

        return fill(1)


def enumerate_capacities(n: int, levels: Sequence[float] = DEFAULT_LEVELS) -> Iterator[Capacity]:
    """Iterator over ``CapacityEnumerator(n, levels)``."""
    return iter(CapacityEnumerator(n, levels))


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


def _canonical_splits(ground: GroundSet) -> list[int]:
    """Proper nonempty subsets containing element 0 (value grids cover both orders)."""
    return [b for b in range(1, ground.full) if b & 1]


def _check_grid_size(ground: GroundSet, rows: int) -> None:
    if rows * ground.n > GRID_MAX_CELLS:
        raise TooLarge(
            f"a grid of {rows} rows of {ground.n} values is over the cap of {GRID_MAX_CELLS:.0e} cells"
        )


def two_point_grid(ground: GroundSet, values: Sequence[float] = DEFAULT_VALUE_GRID) -> np.ndarray:
    """(K, n) array of all variables taking value s on B and t off B.

    Rows run over the canonical splits B, then s, then t, each over the value
    grid in its order.  Raises TooLarge above GRID_MAX_CELLS cells.
    """
    values = np.asarray(values, dtype=float)
    splits = _canonical_splits(ground)
    _check_grid_size(ground, len(splits) * len(values) ** 2)
    on_b = np.array(
        [[b_set >> i & 1 for i in range(ground.n)] for b_set in splits], dtype=bool
    ).reshape(-1, 1, 1, ground.n)
    grid = np.where(on_b, values[:, None, None], values[None, :, None])
    return grid.reshape(-1, ground.n)


def _per_distinct(fn, xs: np.ndarray, dtype=float) -> np.ndarray:
    """``fn`` at every entry of xs, called once per distinct float (by bit pattern)."""
    xs = np.ascontiguousarray(xs, dtype=float)
    keys, inverse = np.unique(xs.view(np.int64).ravel(), return_inverse=True)
    out = np.array([fn(v) for v in keys.view(np.float64).tolist()], dtype=dtype)
    return out[inverse].reshape(xs.shape)


def _in_domain(f, xs: np.ndarray) -> np.ndarray:
    """The rows of xs whose every value lies in f's domain."""
    return xs[_per_distinct(f.in_domain, xs, dtype=bool).all(axis=1)]


def _first_violation(
    mu: Capacity, nu: Capacity, f, xs: np.ndarray, integrals: np.ndarray
) -> tuple[int, dict | None]:
    """First row of xs (all inside f's domain) whose Jensen gap exceeds VIOLATION_TOL.

    ``integrals`` holds C of each row.  Returns the number of rows scanned
    up to and including that row with its witness ``{"f", "x", "gap"}``, or
    ``(len(xs), None)`` when no row violates.
    """
    gaps = gen_choquet_batch(mu, nu, _per_distinct(f.value, xs)) - _per_distinct(f.value, integrals)
    bad = np.flatnonzero(gaps > VIOLATION_TOL)
    if not bad.size:
        return len(xs), None
    i = int(bad[0])
    return i + 1, {"f": f.spec(), "x": xs[i].tolist(), "gap": float(gaps[i])}


def jensen_gap(mu: Capacity, nu: Capacity, f, x: RandomVariable) -> float:
    """``C(f(X)) - f(C(X))``; positive means the Jensen inequality fails."""
    lhs = gen_choquet(mu, nu, x.map(f.value))
    return lhs - f.value(gen_choquet(mu, nu, x))


def jensen_holds(mu: Capacity, nu: Capacity, f, xs: np.ndarray) -> Verdict:
    """Check ``C(f(X)) <= f(C(X))`` over a (K, n) array of outcomes.

    Rows with a value outside f's domain are skipped; the witness is the
    first violating row, and ``checked`` counts the in-domain rows up to it.
    """
    ground = _check_same_ground(mu, nu)
    xs = _in_domain(f, _outcome_rows(ground, xs))
    checked, witness = _first_violation(mu, nu, f, xs, gen_choquet_batch(mu, nu, xs))
    return Verdict("jensen", witness is None, checked, witness)


def _against_certificate(
    check: str, f, shape: str, values: Sequence[float], checked: int, violation: dict | None, detail: str
) -> Verdict:
    """Verdict that a Jensen scan found a violation exactly when f fails a grid certificate.

    ``shape`` names the certificate: ``"concave"`` (is_concave_on) or ``"ws"``
    (is_weakly_superadditive_on), run on the in-domain values at
    VIOLATION_TOL, the scan's own tolerance, so the comparison is grid-exact.
    ``detail`` may name ``{holds}`` (the certificate) and ``{found}``
    (``none`` or ``found``).
    """
    certify = is_concave_on if shape == "concave" else is_weakly_superadditive_on
    cert = certify(f, [v for v in values if f.in_domain(v)], tol=VIOLATION_TOL)
    consistent = cert.holds == (violation is None)
    return Verdict(
        check,
        consistent,
        checked,
        None if consistent else {"f": f.spec(), shape: cert.holds, "violation": violation},
        detail=detail.format(holds=cert.holds, found="none" if violation is None else "found"),
    )


@dataclass(frozen=True)
class JensenCounterexample:
    """Constructed violation for a pair failing conjugate dominance.

    ``x`` is -1 on the complement of the worst set, ``f`` adds 2; the
    realized violation of ``C(f(X)) <= f(C(X))`` reproduces the dominance
    gap exactly.
    """

    x: RandomVariable
    f: AffineMap
    gap: float
    dominance_gap: float
    worst_set: int


def jensen_counterexample(mu: Capacity, nu: Capacity) -> JensenCounterexample | None:
    """Build and verify the violation witness, or None when dominance holds."""
    dom = dominates_dual(mu, nu)
    if dom.holds:
        return None
    ground = mu.ground
    a_set = dom.worst_set
    x = RandomVariable(
        ground, tuple(0.0 if a_set >> i & 1 else -1.0 for i in range(ground.n))
    )
    f = AffineMap(1.0, 2.0)
    realized = jensen_gap(mu, nu, f, x)
    return JensenCounterexample(x, f, realized, dom.gap, a_set)


def integral_property_checks(
    mu: Capacity,
    nu: Capacity,
    samples: int = 50,
    seed: int = 0,
    tol: float = VIOLATION_TOL,
) -> dict[str, Verdict]:
    """Randomized checks of the four structural integral properties.

    Tail-convention equality is asserted exactly; pointwise monotonicity,
    positive homogeneity (with the capacity swap at negative scale) and the
    translation identity at ``tol``.
    """
    rng = np.random.default_rng(seed)
    ground = mu.ground

    def tails(x: RandomVariable) -> dict | None:
        a = gen_choquet(mu, nu, x, strict_tails=True)
        b = gen_choquet(mu, nu, x, strict_tails=False)
        return None if a == b else {"x": list(x.values), "gap": abs(a - b)}

    def monotonicity(x: RandomVariable) -> dict | None:
        y = RandomVariable(ground, tuple(v + d for v, d in zip(x.values, rng.uniform(0, 5, ground.n))))
        gap = gen_choquet(mu, nu, x) - gen_choquet(mu, nu, y)
        return {"x": list(x.values), "y": list(y.values), "gap": gap} if gap > tol else None

    def homogeneity(x: RandomVariable) -> dict | None:
        b = float(rng.uniform(-3, 3))
        lhs = gen_choquet(mu, nu, x * b)
        rhs = b * (gen_choquet(mu, nu, x) if b > 0 else gen_choquet(nu, mu, x))
        gap = abs(lhs - rhs)
        return {"x": list(x.values), "b": b, "gap": gap} if gap > tol else None

    def translation(x: RandomVariable) -> dict | None:
        a = float(rng.uniform(-10, 10))
        tg = translation_gap(mu, nu, x, a)
        gap = abs(tg.lhs - tg.correction)
        return {"x": list(x.values), "a": a, "gap": gap} if gap > tol else None

    trials = (
        ("tail-conventions", "tail conventions agree", tails),
        ("monotonicity", "pointwise monotonicity", monotonicity),
        ("homogeneity", "positive homogeneity with swap", homogeneity),
        ("translation", "translation identity", translation),
    )
    out: dict[str, Verdict] = {}
    for key, check, trial in trials:
        bad = None
        for _ in range(samples):
            bad = trial(RandomVariable(ground, tuple(rng.uniform(-10, 10, ground.n))))
            if bad is not None:
                break
        out[key] = Verdict(check, bad is None, samples, bad)
    return out


def zero_one_collapse_check(
    mu: Capacity,
    nu: Capacity,
    f,
    values: Sequence[float] = DEFAULT_VALUE_GRID,
    seed: int = 0,
) -> Verdict:
    """Collapse identity and weak-superadditivity equivalence for {0,1} pairs.

    Asserts ``C(f(X)) == f(a_X) + f(b_X)`` bit-for-bit over the two-valued
    grid plus random dense draws, then checks: with a coexistence set
    (both capacities at 1), Jensen over the grid holds iff f is weakly
    superadditive on it; without one, Jensen holds unconditionally.
    """
    if not mu.is_zero_one_valued() or not nu.is_zero_one_valued():
        raise NotZeroOneValued("collapse identity needs {0,1}-valued capacities")
    rng = np.random.default_rng(seed)
    dense = rng.uniform(min(values), max(values), (25, mu.ground.n))
    grid = two_point_grid(mu.ground, values)
    xs = _in_domain(f, np.concatenate([grid[:: max(1, len(values) // 8)], dense]))
    a_x, b_x = _collapse_points(mu, nu, xs)
    lhs = gen_choquet_batch(mu, nu, _per_distinct(f.value, xs))
    rhs = _per_distinct(f.value, a_x) + _per_distinct(f.value, b_x)
    bad = np.flatnonzero(lhs != rhs)
    if bad.size:
        i = int(bad[0])
        witness = {"f": f.spec(), "x": xs[i].tolist(), "lhs": float(lhs[i]), "rhs": float(rhs[i])}
        return Verdict("collapse identity", False, i + 1, witness)
    checked = len(xs)

    scan = jensen_holds(mu, nu, f, grid)
    checked += scan.checked
    if coexistence_set(mu, nu, both_one=True) is not None:
        return _against_certificate(
            "collapse equivalence", f, "ws", values, checked, scan.witness, "coexistence set present"
        )
    return Verdict("collapse unconditional", scan.holds, checked, scan.witness, detail="no coexistence set")


def two_valued_concavity_probe(
    mu: Capacity,
    nu: Capacity,
    f,
    values: Sequence[float] = DEFAULT_VALUE_GRID,
) -> Verdict:
    """Two-valued Jensen scan against grid concavity, under the hypotheses.

    Requires dominance and a coexistence set (both capacities positive);
    the scan also cross-checks the integral against the closed two-valued
    mixture forms it must reduce to.
    """
    if not dominates_dual(mu, nu).holds:
        raise HypothesisFailure("conjugate dominance fails")
    if coexistence_set(mu, nu) is None:
        raise HypothesisFailure("no set with mu(B) > 0 and nu(B^c) > 0")

    ground = mu.ground
    full = ground.full
    dom = np.asarray([v for v in values if f.in_domain(v)], dtype=float)
    alpha, beta = (a.ravel() for a in np.meshgrid(dom, dom, indexing="ij"))
    alpha, beta = alpha[alpha < beta], beta[alpha < beta]
    variants = [v for b_set in _canonical_splits(ground) for v in (b_set, full ^ b_set)]
    _check_grid_size(ground, len(variants) * len(alpha))
    on_beta = np.array([[v >> i & 1 for i in range(ground.n)] for v in variants], dtype=bool)
    xs = np.where(on_beta[:, None, :], beta[:, None], alpha[:, None]).reshape(-1, ground.n)
    p = np.repeat([mu.table[v] for v in variants], len(alpha))
    q = np.repeat([nu.table[full ^ v] for v in variants], len(alpha))
    alpha, beta = np.tile(alpha, len(variants)), np.tile(beta, len(variants))
    m = gen_choquet_batch(mu, nu, xs)
    # closed two-valued mixture forms
    expect = np.where(
        alpha >= 0.0,
        alpha * (1 - p) + beta * p,
        np.where(beta <= 0.0, alpha * q + beta * (1 - q), alpha * q + beta * p),
    )
    off = np.flatnonzero(np.abs(m - expect) > 1e-9)
    if off.size:
        i = int(off[0])
        return Verdict(
            "two-valued mixture form",
            False,
            i,
            {"x": xs[i].tolist(), "integral": float(m[i]), "expected": float(expect[i])},
        )
    _, violation = _first_violation(mu, nu, f, xs, m)
    return _against_certificate(
        "two-valued concavity probe", f, "concave", values, len(xs), violation, "concave={holds}, violation={found}"
    )


def nonnegative_axis_check(
    mu: Capacity,
    nu: Capacity,
    f,
    values: Sequence[float] = NONNEG_VALUE_GRID,
) -> Verdict:
    """Nonnegative-variable Jensen scan against concavity on the right axis.

    For {0,1}-valued mu the inequality must hold for every increasing f;
    otherwise it must hold iff f is concave on the nonnegative grid.
    """
    if any(v < 0.0 for v in values):
        raise ValueError("value grid must be nonnegative")
    scan = jensen_holds(mu, nu, f, two_point_grid(mu.ground, values))
    if mu.is_zero_one_valued():
        return Verdict(
            "nonnegative-axis zero-one",
            scan.holds,
            scan.checked,
            scan.witness,
            detail="{0,1}-valued gains capacity: unconditional",
        )
    return _against_certificate(
        "nonnegative-axis probe", f, "concave", values, scan.checked, scan.witness, "concave on x>=0: {holds}"
    )


# ---------------------------------------------------------------------------
# full sweep
# ---------------------------------------------------------------------------


@dataclass
class SweepReport:
    """Classification and verdicts for every enumerated capacity pair."""

    n: int
    levels: tuple[float, ...]
    seed: int
    capacity_count: int = 0
    pair_count: int = 0
    class_counts: dict = field(default_factory=dict)
    verdict_counts: dict = field(default_factory=dict)
    unexpected: list = field(default_factory=list)
    counterexamples: int = 0

    @property
    def clean(self) -> bool:
        return not self.unexpected

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "levels": list(self.levels),
            "seed": self.seed,
            "capacity_count": self.capacity_count,
            "pair_count": self.pair_count,
            "class_counts": {k: self.class_counts[k] for k in sorted(self.class_counts)},
            "verdict_counts": {k: self.verdict_counts[k] for k in sorted(self.verdict_counts)},
            "unexpected": self.unexpected,
            "clean": self.clean,
        }

    def to_text(self) -> str:
        lines = [
            f"sweep n={self.n} levels={list(self.levels)} seed={self.seed}",
            f"capacities: {self.capacity_count}  pairs: {self.pair_count}",
            "classification:",
        ]
        for k in sorted(self.class_counts):
            lines.append(f"  {k}: {self.class_counts[k]}")
        lines.append("verdicts:")
        for k in sorted(self.verdict_counts):
            ok, total = self.verdict_counts[k]
            lines.append(f"  {k}: {ok}/{total} as expected")
        lines.append(f"constructed counterexamples verified: {self.counterexamples}")
        lines.append("unexpected verdicts: " + (str(len(self.unexpected)) if self.unexpected else "none"))
        for item in self.unexpected:
            lines.append(f"  !! {item}")
        return "\n".join(lines)


def run_full_report(
    n: int = 2,
    levels: Sequence[float] = DEFAULT_LEVELS,
    seed: int = 42,
    values: Sequence[float] = DEFAULT_VALUE_GRID,
    property_samples: int = 12,
    theorems: Sequence[str] = THEOREM_IDS,
) -> SweepReport:
    """Sweep all enumerated pairs, run the applicable checks, collect verdicts.

    ``theorems`` selects check families by id (see THEOREM_IDS); an unknown
    id raises ValueError.  Anything contradicting a theorem lands in
    ``report.unexpected``; a clean report has none.  Raises TooLarge above
    SWEEP_MAX_PAIRS pairs, before any check runs and after building at most
    _SWEEP_MAX_BUILT + 1 capacities.  Deterministic for fixed
    arguments.
    """
    theorems = tuple(theorems)
    unknown = [t for t in theorems if t not in THEOREM_IDS]
    if unknown:
        raise ValueError(
            f"unknown theorem id {', '.join(map(repr, unknown))}; valid ids: {', '.join(THEOREM_IDS)}"
        )
    caps = list(islice(enumerate_capacities(n, levels), _SWEEP_MAX_BUILT + 1))
    if len(caps) ** 2 > SWEEP_MAX_PAIRS:
        pairs = f"{'at least ' if len(caps) > _SWEEP_MAX_BUILT else ''}{len(caps) ** 2}"
        raise TooLarge(f"the sweep has {pairs} capacity pairs, above SWEEP_MAX_PAIRS = {SWEEP_MAX_PAIRS}")
    report = SweepReport(n=n, levels=tuple(sorted(set(float(v) for v in levels))), seed=seed)
    report.capacity_count = len(caps)

    concavity_probe_gallery = [Exponential(1.0), PiecewiseLinearKink(), PlainMap("expm1", math.expm1), Power(0.5, 2.0)]
    axis_gallery = [Exponential(1.0), Power(0.0, 2.0), Power(0.0, 0.5)]
    probe_values = tuple(-3.0 + 0.5 * k for k in range(13))

    def lemma(mu, nu):
        verdicts = integral_property_checks(mu, nu, samples=property_samples, seed=seed)
        for name, verdict in verdicts.items():
            yield f"property {name}", verdict.holds, verdict.witness

    def converse(mu, nu):
        wit = jensen_counterexample(mu, nu)
        ok = (
            wit is not None
            and wit.gap > VIOLATION_TOL
            and abs(wit.gap - wit.dominance_gap) <= GAP_MATCH_TOL
        )
        yield "jensen converse", ok, None if wit is None else {"gap": wit.gap, "dominance_gap": wit.dominance_gap}

    def forward(mu, nu, f):
        return jensen_holds(mu, nu, f, two_point_grid(mu.ground, values))

    def over(name, gallery, check):
        def run(mu, nu):
            for f in gallery:
                verdict = check(mu, nu, f)
                yield name, verdict.holds, verdict.witness

        return run

    # (theorem id, applies to the pair class (dominant, zero_one, coexistence), check);
    # each check yields (check name, ok, witness)
    table = (
        ("lemma", lambda d, z, c: True, lemma),
        ("1", lambda d, z, c: d, over("jensen forward", concave_increasing_gallery(), forward)),
        ("1", lambda d, z, c: not d, converse),
        ("2", lambda d, z, c: z, over(
            "collapse", zero_at_zero_gallery(),
            partial(zero_one_collapse_check, values=probe_values, seed=seed),
        )),
        ("3", lambda d, z, c: d and c, over(
            "two-valued concavity", concavity_probe_gallery,
            partial(two_valued_concavity_probe, values=probe_values),
        )),
        ("4", lambda d, z, c: True, over("nonnegative axis", axis_gallery, nonnegative_axis_check)),
    )
    rows = [(applies, check) for tid, applies, check in table if tid in theorems]

    for mu in caps:
        for nu in caps:
            report.pair_count += 1
            dom = dominates_dual(mu, nu).holds
            zero_one = mu.is_zero_one_valued() and nu.is_zero_one_valued()
            coex = coexistence_set(mu, nu) is not None
            ck = f"dominant={dom}, zero_one={zero_one}, coexistence={coex}"
            report.class_counts[ck] = report.class_counts.get(ck, 0) + 1
            for applies, check in rows:
                if not applies(dom, zero_one, coex):
                    continue
                for name, ok, witness in check(mu, nu):
                    good, total = report.verdict_counts.get(name, (0, 0))
                    report.verdict_counts[name] = (good + (1 if ok else 0), total + 1)
                    if not ok:
                        report.unexpected.append(
                            {"check": name, "mu": list(mu.table), "nu": list(nu.table), "witness": witness}
                        )

    # a converse verdict is as expected exactly when its counterexample verified
    report.counterexamples = report.verdict_counts.get("jensen converse", (0, 0))[0]
    return report
