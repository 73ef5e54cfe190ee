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
from functools import cache, partial
from itertools import islice, product
from typing import Callable, Iterator, Sequence

import numpy as np

from .capacity import (Capacity, GroundSet, _check_same_ground, _coexisting, _dominance_checks, _values,
                       coexistence_set, dominates_dual)
from .errors import HypothesisFailure, NotZeroOneValued, TooLarge
from .integral import (
    RandomVariable,
    _cell_sums,
    _collapse_points,
    _groups,
    _halves,
    _outcome_rows,
    _step_cells,
    _walk_groups,
    gen_choquet,
    gen_choquet_batch,
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
#: cap on the pairs of one sweep: n = 3 at three levels has 16,641 pairs (1.1 s on a
#: 2-vCPU machine, about 0.07 ms per pair), at five levels 3,549,456 (about 5.5 min,
#: extrapolated from 20,000 of them at 0.09 ms per pair; memory grows with the pairs too)
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


def _first_violation(f, xs: np.ndarray, lhs: np.ndarray, f_integrals: np.ndarray) -> list[tuple[int, dict | None]]:
    """First row of xs (all inside f's domain) whose Jensen gap exceeds VIOLATION_TOL, per pair.

    ``lhs`` holds C(f(X)) and ``f_integrals`` f(C(X)) of each row, as one
    pair's (K,) array or P pairs' (P, K) array.  Returns, per pair, the
    number of rows scanned up to and including that row with its witness
    ``{"f", "x", "gap"}``, or ``(len(xs), None)`` when no row violates.
    """
    out = []
    for gaps in np.atleast_2d(lhs - f_integrals):
        bad = np.flatnonzero(gaps > VIOLATION_TOL)
        if not bad.size:
            out.append((len(xs), None))
            continue
        i = int(bad[0])
        out.append((i + 1, {"f": f.spec(), "x": xs[i].tolist(), "gap": float(gaps[i])}))
    return out


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
    lhs = gen_choquet_batch(mu, nu, _per_distinct(f.value, xs))
    [(checked, witness)] = _first_violation(f, xs, lhs, _per_distinct(f.value, gen_choquet_batch(mu, nu, xs)))
    return Verdict("jensen", witness is None, checked, witness)


def _value_pairs(ground: GroundSet, f, values: Sequence[float], probe: bool) -> np.ndarray:
    """(K, 2) values on B and off B of the two-point variables that each canonical split B contributes.

    The Jensen rows are ``two_point_grid``'s rows of one split inside f's
    domain, in its order.  The probe's (``probe``) are the pairs alpha < beta
    of in-domain values, beta on B, then the same pairs with beta off B.
    Raises ValueError for a non-finite value, and TooLarge before building
    the rows where ``two_point_grid`` and the probe would hold over
    GRID_MAX_CELLS cells.
    """
    if not all(math.isfinite(v) for v in values):
        raise ValueError("value grid must be finite")
    dom = np.asarray([v for v in values if f.in_domain(v)], dtype=float)
    # rows per split, counted before any is built: the probe has each in-domain alpha < beta twice
    above = len(dom) - np.searchsorted(np.sort(dom), dom, side="right")
    _check_grid_size(ground, len(_canonical_splits(ground)) * (2 * int(above.sum()) if probe else len(values) ** 2))
    s, t = (a.ravel() for a in np.meshgrid(dom, dom, indexing="ij"))
    if probe:
        alpha, beta = s[s < t], t[s < t]
        s, t = np.concatenate([beta, alpha]), np.concatenate([alpha, beta])
    return np.stack([s, t], axis=1)


def _two_point_scans(caps: Sequence[Capacity], pairs: Sequence, gallery: list, values, probe: bool) -> list:
    """The two-point engine: per map of ``gallery``, per canonical split B in order, ``(side, found)``.

    A variable taking one value on B and one off it reads only t(B) and
    t(Bᶜ) of a capacity table t: its other events are the empty and the
    whole set.  ``side[c]`` indexes the distinct (t(B), t(Bᶜ)) of
    ``caps[c]``, and ``found`` holds the ``_split_scan`` result of each
    (mu side, nu side) index pair that some (mu index, nu index) of
    ``pairs`` has.
    """
    ground, tables, splits = caps[0].ground, np.stack([_values(cap) for cap in caps]), []
    for b in _canonical_splits(ground):
        index: dict = {}
        side = [index.setdefault(tuple(t), len(index)) for t in tables[:, (b, ground.full ^ b)].tolist()]
        splits.append((b, side, list(index), list(dict.fromkeys((side[i], side[j]) for i, j in pairs))))
    out = []
    for f in gallery:
        rows = _value_pairs(ground, f, values, probe)
        out.append([(side, _split_scan(ground, f, b, rows, sides, wanted, probe)) for b, side, sides, wanted in splits])
    return out


def _split_scan(ground: GroundSet, f, b: int, rows: np.ndarray, sides: list, wanted: list, probe: bool) -> dict:
    """``(seen, witness, mismatch)`` of the rows of split B for each (mu side, nu side) index pair of ``wanted``.

    ``rows`` gives each variable's value on B and off it, and the variable
    is that two-element row under the table (0, t(B), t(Bᶜ), 1).  So one
    ``_halves`` call on the rows and f(rows) stacked together (each row's
    halves do not depend on the others) gives every pair's C(X) and
    C(f(X)) by one subtraction each, bit-for-bit ``gen_choquet_batch`` of
    the whole rows.  On a row with no negative value every loss half is
    0.0, so C(X) is ``gains[i]``, and on one with no positive value it is
    ``0.0 - losses[j]``: f(C(X)) is made once per side there, and per pair
    only on the mixed-sign rows.  A Jensen scan reports
    ``_first_violation``.  The probe first sets C(X) against the closed
    two-valued mixture forms and reports the first row off them as ``(rows
    before it, witness, True)``, else every row and the first violation.
    Pairs are scanned one mu side at a time, so that no array holds more
    than (C, K) values.
    """
    xs = np.where([b >> i & 1 for i in range(ground.n)], rows[:, :1], rows[:, 1:])
    tables = np.zeros((len(sides), 4))
    tables[:, 3] = 1.0
    tables[:, 1:3] = sides
    k = len(rows)
    gains, losses = _halves(tables, np.concatenate([rows, _per_distinct(f.value, rows)]))
    gains, f_gains, losses, f_losses = gains[:, :k], gains[:, k:], losses[:, :k], losses[:, k:]
    alpha, beta, beta_on_b = rows.min(axis=1), rows.max(axis=1), rows[:, 0] > rows[:, 1]
    on_gains, on_losses = alpha >= 0.0, (beta <= 0.0) & (alpha < 0.0)
    mixed = ~(on_gains | on_losses)
    f_on_gains = _per_distinct(f.value, gains[:, on_gains])
    f_on_losses = _per_distinct(f.value, 0.0 - losses[:, on_losses])
    found = {}
    for i, js in _by_mu(wanted).items():
        m = gains[i] - losses[js]
        f_m = np.empty_like(m)
        f_m[:, on_gains] = f_on_gains[i]
        f_m[:, on_losses] = f_on_losses[js]
        f_m[:, mixed] = _per_distinct(f.value, m[:, mixed])
        scans = _first_violation(f, xs, f_gains[i] - f_losses[js], f_m)
        if probe:
            # closed two-valued mixture forms: p = mu(X = beta), q = nu(X = alpha)
            p = np.where(beta_on_b, tables[i, 1], tables[i, 2])
            q = np.where(beta_on_b, tables[js, 2:3], tables[js, 1:2])
            expect = np.where(
                alpha >= 0.0,
                alpha * (1 - p) + beta * p,
                np.where(beta <= 0.0, alpha * q + beta * (1 - q), alpha * q + beta * p),
            )
            off = np.abs(m - expect) > 1e-9
        for r, (j, (seen, witness)) in enumerate(zip(js, scans)):
            bad = np.flatnonzero(off[r]) if probe else ()
            if len(bad):
                k = int(bad[0])
                witness = {"x": xs[k].tolist(), "integral": float(m[r, k]), "expected": float(expect[r, k])}
                found[i, j] = k, witness, True
            else:
                found[i, j] = (len(xs) if probe else seen), witness, False
    return found


def _by_mu(pairs) -> dict:
    """The second entries of the (mu index, nu index) ``pairs``, per mu index, in order."""
    out: dict = {}
    for i, j in pairs:
        out.setdefault(i, []).append(j)
    return out


def _scan_verdict(splits: list, i: int, j: int, probe: bool = False) -> Verdict:
    """The two-point verdict of the pair (mu index i, nu index j) of a map's ``_two_point_scans``.

    ``checked`` sums the splits' rows in order, up to the first mixture-form
    mismatch, which is its own verdict, or for a Jensen scan the first
    violation.  The probe scans past a violation and reports the first one.
    """
    checked, violation = 0, None
    for side, found in splits:
        seen, witness, mismatch = found[side[i], side[j]]
        checked += seen
        if mismatch:
            return Verdict("two-valued mixture form", False, checked, witness)
        violation = witness if violation is None else violation
        if violation is not None and not probe:
            break
    return Verdict("jensen", violation is None, checked, violation)


def _pair_scan(mu: Capacity, nu: Capacity, f, values: tuple, probe: bool = False) -> Verdict:
    """``_scan_verdict`` of one pair: the engine over the tables (mu, nu)."""
    _check_same_ground(mu, nu)
    [splits] = _two_point_scans((mu, nu), [(0, 1)], [f], values, probe)
    return _scan_verdict(splits, 0, 1, probe)


def _certifier(f, shape: str, values: Sequence[float]) -> Callable[[], tuple]:
    """``(shape, certificate)`` of f, made at the first call and kept for the next.

    ``shape`` names the certificate: ``"concave"`` (is_concave_on) or ``"ws"``
    (is_weakly_superadditive_on), run on the in-domain values at
    VIOLATION_TOL, the scans' own tolerance, so comparisons are grid-exact.
    """
    certify = is_concave_on if shape == "concave" else is_weakly_superadditive_on
    return cache(lambda: (shape, certify(f, [v for v in values if f.in_domain(v)], tol=VIOLATION_TOL)))


def _certified(check: str, f, cert, checked: int, violation: dict | None, detail: str) -> Verdict:
    """Verdict that a Jensen scan found a violation exactly when f fails the certificate ``cert()``.

    ``detail`` may name ``{holds}`` (the certificate) and ``{found}``
    (``none`` or ``found``).
    """
    shape, certificate = cert()
    holds = certificate.holds
    witness = None if holds == (violation is None) else {"f": f.spec(), shape: holds, "violation": violation}
    found = "none" if violation is None else "found"
    return Verdict(check, witness is None, checked, witness, detail=detail.format(holds=holds, found=found))


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
    x = RandomVariable(mu.ground, _counterexample_rows(mu.ground, [dom.worst_set])[0])
    f = AffineMap(1.0, 2.0)
    return JensenCounterexample(x, f, jensen_gap(mu, nu, f, x), dom.gap, dom.worst_set)


def _counterexample_rows(ground: GroundSet, worst_sets: Sequence[int]) -> np.ndarray:
    """The converse's X of each worst set A, one row each: 0.0 on A and -1.0 off it."""
    return np.array([[0.0 if a >> i & 1 else -1.0 for i in range(ground.n)] for a in worst_sets])


def integral_property_checks(
    mu: Capacity,
    nu: Capacity,
    samples: int = 50,
    seed: int = 0,
    tol: float = VIOLATION_TOL,
) -> dict[str, Verdict]:
    """Randomized checks of the four structural integral properties.

    Tail-convention equality is asserted exactly, as the scalar walk
    (strict tails, read off ``_groups``; ``_walk_groups`` and
    ``_tail_walk``) against the halves (weak tails, read off ``_plan``);
    pointwise monotonicity,
    positive homogeneity (with the capacity swap at negative scale) and the
    translation identity at ``tol``.  A trial stops at its first failing
    sample, and the next trial draws on from there.  This is the lemma
    engine's call on the one pair (``_property_trials``).
    """
    _check_same_ground(mu, nu)
    [verdicts] = _property_trials((mu, nu), [(0, 1)], samples, seed, tol)
    return verdicts


def _property_trials(
    caps: Sequence[Capacity], pairs: Sequence, samples: int, seed: int, tol: float = VIOLATION_TOL
) -> list[dict[str, Verdict]]:
    """The lemma engine: ``integral_property_checks`` of each (mu index, nu index) of ``pairs`` into ``caps``.

    Every pair draws the seed's stream, each trial from where the pair's
    trial before it stopped.  So per trial, the pairs at one stream position
    share its draws and set-up, and one ``_halves`` call per row set gives
    the gains and loss halves of every capacity.  C(X) under pair (i, j) is
    then ``gains[i] - losses[j]``, bit-for-bit ``gen_choquet``.  The
    translation identity's step integral reads mu and nu inside each cell,
    so it gathers both per pair and sums the cells in ``step_integral``'s
    order.  The tail trial walks each capacity the pairs use once per
    sample (``_walk_groups``): the walk's gains part reads mu only and its
    loss part nu only, so ``_tail_walk`` of the parts gives each pair's
    scalar integral.
    """
    ground = caps[0].ground
    n, size = ground.n, max(samples, 0)
    tables = np.stack([_values(cap) for cap in caps])

    def tails(c, i, j, rows):
        parts = np.zeros((len(caps), size, 2))  # (gains part, loss part) per capacity and row
        for k in set(i.tolist()) | set(j.tolist()):
            walks = [_walk_groups(caps[k], caps[k], groups, ground.full) for groups in rows["groups"]]
            parts[k] = np.reshape(walks, (size, 2))
        walk, halves = _tail_walk(parts[i, :, 0], parts[j, :, 1], rows["x"]), c("x", i, j)
        return walk != halves, lambda r, k: {"gap": float(abs(walk[r, k] - halves[r, k]))}

    def monotonicity(c, i, j, rows):
        gaps = c("x", i, j) - c("y", i, j)
        return gaps > tol, lambda r, k: {"y": rows["y"][k].tolist(), "gap": float(gaps[r, k])}

    def homogeneity(c, i, j, rows):
        b = rows["b"]
        rhs = b * np.where(b > 0, c("x", i, j), c("x", j, i))
        gaps = np.abs(c("bx", i, j) - rhs)
        return gaps > tol, lambda r, k: {"b": float(b[k]), "gap": float(gaps[r, k])}

    def translation(c, i, j, rows):
        width, above, below, sign = rows["cells"]
        lhs = c("xa", i, j) - rows["a"] - c("x", i, j)
        values = tables[i][:, above] - (1.0 - tables[j][:, below])
        gaps = np.abs(lhs - _cell_sums(width, sign, values))
        return gaps > tol, lambda r, k: {"a": float(rows["a"][k]), "gap": float(gaps[r, k])}

    # (key, check name, the ranges each sample draws from after X, set-up, trial) in draw order; a
    # set-up reads the draws and no capacity: the rows integrated ("x", "y", "bx", "xa") and the scalars.
    # A trial reads C of rows name under the pairs (i, j) as the (P, K) array c(name, i, j).
    trials = (
        ("tail-conventions", "tail conventions agree", (),
         lambda x, more: {"x": x, "groups": [_groups(v) for v in x.tolist()]}, tails),
        ("monotonicity", "pointwise monotonicity", ((0.0, 5.0),) * n,
         lambda x, more: {"x": x, "y": x + more}, monotonicity),
        ("homogeneity", "positive homogeneity with swap", ((-3.0, 3.0),),
         lambda x, more: {"x": x, "bx": x * more, "b": more[:, 0]}, homogeneity),
        ("translation", "translation identity", ((-10.0, 10.0),),
         lambda x, more: {"x": x, "xa": x + more, "a": more[:, 0],
                          "cells": _step_cells(x, -more[:, 0], np.zeros(size))}, translation),
    )
    out: list[dict[str, Verdict]] = [{} for _ in pairs]
    starts = [0] * len(pairs)
    for key, check, ranges, setup, trial in trials:
        at: dict = {}
        for p, start in enumerate(starts):
            at.setdefault(start, []).append(p)
        for start, members in at.items():
            # the trial's stream is default_rng(seed) past the doubles earlier trials drew; one
            # uniform call over the block draws them in the order of one call per X and per value
            rng = np.random.default_rng(seed)
            rng.bit_generator.advance(start)
            low, high = zip(*[(-10.0, 10.0)] * n, *ranges)
            drawn = rng.uniform(low, high, (size, len(low)))
            x, rows = drawn[:, :n], setup(drawn[:, :n], drawn[:, n:])
            halves = {name: _halves(tables, rows[name]) for name in ("x", "y", "bx", "xa") if name in rows}
            i, j = np.array([pairs[p] for p in members]).T
            fails, fields = trial(lambda name, m, v: halves[name][0][m] - halves[name][1][v], i, j, rows)
            for r, p in enumerate(members):
                bad = np.flatnonzero(fails[r])
                witness = {"x": x[bad[0]].tolist(), **fields(r, bad[0])} if bad.size else None
                out[p][key] = Verdict(check, witness is None, samples, witness)
                starts[p] = start + (int(bad[0]) + 1 if bad.size else size) * (n + len(ranges))
    return out


def _tail_walk(total: np.ndarray, lower: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """The scalar walk's C(X) of the (K, n) rows xs under pairs, from its parts: ``total``, the
    gains part under each pair's mu, less ``lower``, the loss part under its nu; bit-for-bit
    ``gen_choquet``."""
    return total - lower


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
    values = tuple(values)
    if not values:
        raise ValueError("the collapse check needs a nonempty value grid")
    scan = _pair_scan(mu, nu, f, values)
    return _collapse_reader((mu, nu), [(0, 1)], f, values, seed)(mu, nu, (0, 1), scan)


def _collapse_reader(caps: Sequence[Capacity], pairs: Sequence, f, values: tuple, seed: int) -> Callable:
    """``zero_one_collapse_check`` of the {0,1}-valued pairs (mu index, nu index) of ``pairs`` into ``caps``.

    Prepared once per map: the rows are every few rows of ``two_point_grid``
    plus 25 dense draws, inside f's domain, and one ``_halves`` call on
    f(rows) over the stack of the capacities the pairs use gives every
    pair's C(f(X)).  b_X reads mu alone and a_X nu alone, so f(b_X) and
    f(a_X) are made once per capacity.  The coexistence sets come from one
    ``_coexisting`` call per mu.  Returns ``read(mu, nu, (i, j), scan)``,
    the verdict of a pair whose two-point Jensen scan is ``scan``.
    """
    ground = caps[0].ground
    dense = np.random.default_rng(seed).uniform(min(values), max(values), (25, ground.n))
    grid = two_point_grid(ground, values)
    xs = _in_domain(f, np.concatenate([grid[:: max(1, len(values) // 8)], dense]))
    row = {k: r for r, k in enumerate(dict.fromkeys(k for ij in pairs for k in ij))}
    tables = np.stack([_values(caps[k]) for k in row])
    gains, losses = _halves(tables, _outcome_rows(ground, _per_distinct(f.value, xs)))
    # (f(a_X), f(b_X)) of each capacity, as nu and as mu
    ends = {k: _per_distinct(f.value, np.stack(_collapse_points(caps[k], caps[k], xs))) for k in row}
    coexist = {
        (i, j): hit
        for i, js in _by_mu(pairs).items()
        for j, hit in zip(js, _coexisting(tables[row[i]], tables[[row[j] for j in js]], both_one=True).any(axis=1))
    }
    cert = _certifier(f, "ws", values)

    def read(mu: Capacity, nu: Capacity, ij: tuple, scan: Verdict) -> Verdict:
        i, j = ij
        lhs, rhs = gains[row[i]] - losses[row[j]], ends[j][0] + ends[i][1]
        bad = np.flatnonzero(lhs != rhs)
        if bad.size:
            k = int(bad[0])
            witness = {"f": f.spec(), "x": xs[k].tolist(), "lhs": float(lhs[k]), "rhs": float(rhs[k])}
            return Verdict("collapse identity", False, k + 1, witness)
        checked = len(xs) + scan.checked
        if coexist[ij]:
            return _certified("collapse equivalence", f, cert, checked, scan.witness, "coexistence set present")
        return Verdict("collapse unconditional", scan.holds, checked, scan.witness, detail="no coexistence set")

    return read


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
    values = tuple(values)
    scan = _pair_scan(mu, nu, f, values, probe=True)
    return _probe_reader((mu, nu), [(0, 1)], f, values)(mu, nu, (0, 1), scan)


def _probe_reader(caps: Sequence[Capacity], pairs: Sequence, f, values: tuple) -> Callable:
    """``two_valued_concavity_probe`` of pairs meeting its hypotheses: ``read(mu, nu, (i, j), scan)``
    from a probe scan, which sets each row's integral against its closed mixture form (``_split_scan``)."""
    cert = _certifier(f, "concave", values)

    def read(mu: Capacity, nu: Capacity, ij: tuple, scan: Verdict) -> Verdict:
        if scan.check == "two-valued mixture form":
            return scan
        detail = "concave={holds}, violation={found}"
        return _certified("two-valued concavity probe", f, cert, scan.checked, scan.witness, detail)

    return read


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
    _check_same_ground(mu, nu)
    values = tuple(values)
    if any(v < 0.0 for v in values):
        raise ValueError("value grid must be nonnegative")
    return _axis_reader((mu, nu), [(0, 1)], f, values)(mu, nu, (0, 1), _pair_scan(mu, nu, f, values))


def _axis_reader(caps: Sequence[Capacity], pairs: Sequence, f, values: tuple) -> Callable:
    """``nonnegative_axis_check`` on a nonnegative grid: ``read(mu, nu, (i, j), scan)`` from a Jensen scan."""
    cert, zero_one = _certifier(f, "concave", values), [cap.is_zero_one_valued() for cap in caps]

    def read(mu: Capacity, nu: Capacity, ij: tuple, scan: Verdict) -> Verdict:
        if zero_one[ij[0]]:
            detail = "{0,1}-valued gains capacity: unconditional"
            return Verdict("nonnegative-axis zero-one", scan.holds, scan.checked, scan.witness, detail=detail)
        return _certified("nonnegative-axis probe", f, cert, scan.checked, scan.witness, "concave on x>=0: {holds}")

    return read


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
    pairs = product(caps, caps)
    for mu, nu, ck, verdicts in _sweep_verdicts(pairs, theorems, seed, tuple(values), property_samples):
        report.pair_count += 1
        report.class_counts[ck] = report.class_counts.get(ck, 0) + 1
        for name, ok, witness in verdicts:
            good, total = report.verdict_counts.get(name, (0, 0))
            report.verdict_counts[name] = (good + (1 if ok else 0), total + 1)
            if not ok:
                report.unexpected.append(
                    {"check": name, "mu": _values(mu).tolist(), "nu": _values(nu).tolist(), "witness": witness}
                )

    # a converse verdict is as expected exactly when its counterexample verified
    report.counterexamples = report.verdict_counts.get("jensen converse", (0, 0))[0]
    return report


def _pair_classes(caps: Sequence[Capacity], pairs: Sequence) -> list[tuple]:
    """``(dominates_dual, zero_one, has a coexistence set)`` of each (mu index, nu index) of ``pairs``, in order.

    One ``_dominance_checks`` and one ``_coexisting`` call per mu index
    set its table against the tables of the nu indices it meets, which
    gives each pair's worst set, gap and coexistence flag bit-for-bit as
    ``dominates_dual`` and ``coexistence_set`` give them.
    """
    tables = np.stack([_values(cap) for cap in caps])
    zero_one = [cap.is_zero_one_valued() for cap in caps]
    out: list = [None] * len(pairs)
    for i, members in _by_mu((mu, (p, nu)) for p, (mu, nu) in enumerate(pairs)).items():
        positions, js = zip(*members)
        nus = tables[list(js)]
        coexist = _coexisting(tables[i], nus).any(axis=1).tolist()
        for p, j, dom, c in zip(positions, js, _dominance_checks(tables[i], nus), coexist):
            out[p] = dom, zero_one[i] and zero_one[j], c
    return out


def _converse_gaps(caps: Sequence[Capacity], pairs: Sequence, worst_sets: Sequence[int]) -> list[float]:
    """``jensen_counterexample``'s realized gap of each (mu index, nu index) of ``pairs``, whose
    worst set is the matching entry of ``worst_sets``, bit-for-bit.

    Its X is 0 on the worst set and -1 off it, and f(x) = x + 2, so one
    ``_halves`` call on the rows X and f(X) of the distinct worst sets gives
    every pair's C(X) and C(f(X)) by one subtraction each.
    """
    f, sets = AffineMap(1.0, 2.0), list(dict.fromkeys(worst_sets))
    x = _counterexample_rows(caps[0].ground, sets)
    gains, losses = _halves(np.stack([_values(cap) for cap in caps]), np.concatenate([x, f.value(x)]))
    row = {a: r for r, a in enumerate(sets)}
    i, j = np.array(pairs).T
    r = np.array([row[a] for a in worst_sets])
    fr = r + len(sets)
    return ((gains[i, fr] - losses[j, fr]) - f.value(gains[i, r] - losses[j, r])).tolist()


def _sweep_verdicts(pairs, theorems: tuple, seed: int, values: tuple, property_samples: int) -> Iterator:
    """``(mu, nu, class key, [(check name, ok, witness), ...])`` for each pair, in order.

    Each capacity object is keyed once by its values and gets the index of
    its table in the stack of distinct ones, and the pairs are classified
    up front, once per mu index (``_pair_classes``).  Before any pair's
    checks, every check runs its engine once over the stack for the (mu
    index, nu index) pairs it applies to, and a pair reads its verdicts by
    index: the lemma trials once per stream position
    (``_property_trials``), the converse once over the worst sets of its
    pairs (``_converse_gaps``), the two-point scans of theorems 1 (dominant
    pairs), 2 (zero-one pairs), 3 (dominant pairs with a coexistence set)
    and 4 (every pair) once per map and split (``_two_point_scans``, read
    by side index in ``_scan_verdict``), and theorem 2's collapse identity
    once per map (``_collapse_reader``).  A grid certificate is made at
    most once per check and map (``_certifier``).  Nothing outlives the
    call.
    """
    forward_gallery, collapse_gallery = concave_increasing_gallery(), zero_at_zero_gallery()
    concavity_probe_gallery = [Exponential(1.0), PiecewiseLinearKink(), PlainMap("expm1", math.expm1), Power(0.5, 2.0)]
    axis_gallery = [Exponential(1.0), Power(0.0, 2.0), Power(0.0, 0.5)]
    probe_values = tuple(-3.0 + 0.5 * k for k in range(13))

    pairs = list(pairs)
    # each capacity object is keyed once, by its bytes with -0.0 made 0.0: keys match as tables compare
    objects = {id(cap): cap for pair in pairs for cap in pair}
    key = {i: (_values(cap) + 0.0).tobytes() for i, cap in objects.items()}
    caps = list({key[id(cap)]: cap for pair in pairs for cap in pair}.values())
    index = {key[id(cap)]: k for k, cap in enumerate(caps)}
    ids = [(index[key[id(mu)]], index[key[id(nu)]]) for mu, nu in pairs]
    classes = _pair_classes(caps, ids)

    def lemma(mine):
        trials = dict(zip(mine, _property_trials(caps, mine, property_samples, seed)))
        return lambda mu, nu, ij, dom: ((f"property {name}", v.holds, v.witness) for name, v in trials[ij].items())

    def converse(mine):
        worst = {ij: dom.worst_set for ij, (dom, _, _) in zip(ids, classes)}
        gaps = dict(zip(mine, _converse_gaps(caps, mine, [worst[ij] for ij in mine])))

        def run(mu, nu, ij, dom):
            gap = gaps[ij]
            ok = gap > VIOLATION_TOL and abs(gap - dom.gap) <= GAP_MATCH_TOL
            yield "jensen converse", ok, {"gap": gap, "dominance_gap": dom.gap}

        return run

    def scanned(name, gallery, grid, probe, reader, mine):
        """The check over its pairs ``mine``: the engines run here, per map, and each pair reads them."""
        scans = _two_point_scans(caps, mine, gallery, grid, probe)
        readers = [reader(caps, mine, f, grid) for f in gallery]

        def run(mu, nu, ij, dom):
            for splits, read in zip(scans, readers):
                v = read(mu, nu, ij, _scan_verdict(splits, *ij, probe))
                yield name, v.holds, v.witness

        return run

    # (theorem id, applies to the pair class (dominance, zero_one, coexistence), check); a check
    # prepared over the distinct index pairs it applies to yields (check name, ok, witness) of the
    # pair, its capacity indices and its dominates_dual.  A scanned check's reader, prepared per
    # map, gives the pair's verdict from its two-point scan.
    table = (
        ("lemma", lambda d, z, c: True, lemma),
        ("1", lambda d, z, c: d,
         partial(scanned, "jensen forward", forward_gallery, values, False, lambda *_: lambda mu, nu, ij, scan: scan)),
        ("1", lambda d, z, c: not d, converse),
        ("2", lambda d, z, c: z,
         partial(scanned, "collapse", collapse_gallery, probe_values, False, partial(_collapse_reader, seed=seed))),
        ("3", lambda d, z, c: d and c,
         partial(scanned, "two-valued concavity", concavity_probe_gallery, probe_values, True, _probe_reader)),
        ("4", lambda d, z, c: True,
         partial(scanned, "nonnegative axis", axis_gallery, NONNEG_VALUE_GRID, False, _axis_reader)),
    )
    rows = []
    for tid, applies, check in table:
        mine = list(dict.fromkeys(ij for ij, cls in zip(ids, classes) if tid in theorems and applies(*cls)))
        if mine:
            rows.append((applies, check(mine)))
    for (mu, nu), ij, (dom, zero_one, coex) in zip(pairs, ids, classes):
        ck = f"dominant={dom.holds}, zero_one={zero_one}, coexistence={coex}"
        yield mu, nu, ck, [
            verdict for applies, check in rows if applies(dom, zero_one, coex) for verdict in check(mu, nu, ij, dom)
        ]
