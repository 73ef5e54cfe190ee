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
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .capacity import (STRUCT_TOL, Capacity, GroundSet, _check_same_ground, _coexisting, _dominance_checks, _values,
                       _zero_one, coexistence_set, dominates_dual)
from .errors import HypothesisFailure, NotZeroOneValued, TooLarge
from .integral import (
    RandomVariable,
    _cell_sums,
    _collapse_ends,
    _halves,
    _order,
    _outcome_rows,
    _step_cells,
    _walk,
    gen_choquet,
    gen_choquet_batch,
)
from .utility import (
    Exponential,
    NegSqrtKink,
    PiecewiseLinearKink,
    Power,
    _each,
    _number,
    _per_distinct,
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
#: cap on the pairs of one sweep: n = 3 at three levels has 16,641 pairs (0.09-0.13 s and 48 MB
#: peak RSS for the whole run in one process on a 2-vCPU machine), at five levels 3,549,456
#: (about 18-28 s, extrapolated from the 213 times fewer pairs; memory grows with the pairs too)
SWEEP_MAX_PAIRS = 10**5
#: capacities a refused sweep builds: the exact count of n = 2 at 18 levels
#: (324) and n = 3 at five (1884) fits, and no level grid takes over 0.1 s
_SWEEP_MAX_BUILT = 2000
#: values in one array of a block of pairs: the two-point scans, the collapse identity and the
#: translation trial build their (pairs, rows) arrays a block of pairs at a time
_BLOCK_CELLS = 2**13


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

    def values(self, xs: Sequence[float]) -> list[float]:
        slope, intercept = self.slope, self.intercept
        return [slope * x + intercept for x in xs]

    def in_domain(self, x: float) -> bool:
        return True

    def spec(self) -> str:
        return f"affine:{_number(self.slope)},{_number(self.intercept)}"


@dataclass(frozen=True)
class PlainMap:
    """Callable wrapper giving plain functions the gallery interface."""

    name: str
    fn: Callable[[float], float]

    def value(self, x: float) -> float:
        return self.fn(x)

    def values(self, xs: Sequence[float]) -> list[float]:
        return list(map(self.fn, xs))

    def in_domain(self, x: float) -> bool:
        return math.isfinite(x)

    def spec(self) -> str:
        return self.name


def concave_increasing_gallery() -> list:
    """Concave increasing maps with f(0) >= 0, including an affine intercept."""
    return [Exponential(1.0), PiecewiseLinearKink(), AffineMap(1.0, 2.0), Power(6.0, 0.5)]


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
        if self.n not in (2, 3, 4):
            raise TooLarge(f"exhaustive enumeration supports n in {{2, 3, 4}}, got {self.n}")
        levels = tuple(sorted({float(v) + 0.0 for v in self.levels}))  # + 0.0 makes -0.0 0.0
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


class _Checked(NamedTuple):
    """One check over a list of (mu index, nu index) pairs: ``ok[k]`` of pair k, and its Verdict,
    built only when asked, by ``verdict(k)``.  A probe scan flags its mixture-form ``mismatch``es."""

    ok: np.ndarray
    verdict: Callable[[int], Verdict]
    mismatch: np.ndarray | None = None


def _blocks(count: int, width: int) -> Iterator[slice]:
    """Slices over ``count`` pairs such that a (pairs, width) array holds at most _BLOCK_CELLS values
    (or one pair)."""
    step = max(1, _BLOCK_CELLS // max(width, 1))
    return (slice(s, s + step) for s in range(0, count, step))


def _first(mask: np.ndarray) -> np.ndarray:
    """The column of each row's first True in a (P, K) bool array, K where the row has none."""
    return np.hstack([mask, np.ones((len(mask), 1), dtype=bool)]).argmax(axis=1)


def _at(values: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``values[p, cols[p]]`` of each row p of a (P, K) array, 0.0 where the column is K."""
    return np.hstack([values, np.zeros((len(values), 1))])[np.arange(len(values)), cols]


def _ground(tables: np.ndarray) -> GroundSet:
    """The ground set of a (C, 2ⁿ) stack of tables."""
    return GroundSet(tables.shape[1].bit_length() - 1)


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


def _in_domain(f, xs: np.ndarray) -> np.ndarray:
    """The rows of xs whose every value lies in f's domain."""
    return xs[_per_distinct(_each(f.in_domain), xs, dtype=bool).all(axis=1)]


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
    gaps = gen_choquet_batch(mu, nu, _per_distinct(f.values, xs)) - _per_distinct(f.values, gen_choquet_batch(mu, nu, xs))
    [k] = _first(gaps[None] > VIOLATION_TOL).tolist()
    witness = {"f": f.spec(), "x": xs[k].tolist(), "gap": float(gaps[k])} if k < len(xs) else None
    return Verdict("jensen", witness is None, min(k + 1, len(xs)), witness)


def _value_pairs(ground: GroundSet, gallery: list, values: Sequence[float], probe: bool) -> tuple:
    """``(rows, masks)``: the (K, 2) values on B and off B of the two-point variables of a canonical
    split B, and per map of ``gallery`` the mask of its rows, a subsequence of them.

    A map's rows are ``two_point_grid``'s rows of one split inside its
    domain, in its order; with ``probe``, the pairs alpha < beta of
    in-domain values, beta on B, then the same pairs with beta off B.
    Raises ValueError for an empty grid or a non-finite value, and TooLarge
    before building any row where a map's grid or probe would hold over
    GRID_MAX_CELLS cells.
    """
    if not values:
        raise ValueError("the two-point scans need a nonempty value grid")
    if not all(math.isfinite(v) for v in values):
        raise ValueError("value grid must be finite")
    inside = np.array([[f.in_domain(v) for v in values] for f in gallery], dtype=bool)
    values = np.asarray(values, dtype=float)
    for dom in (values[mask] for mask in inside):
        # rows per split, counted before any is built: the probe has each in-domain alpha < beta twice
        above = len(dom) - np.searchsorted(np.sort(dom), dom, side="right")
        _check_grid_size(ground, len(_canonical_splits(ground)) * (2 * int(above.sum()) if probe else len(values) ** 2))
    used = np.flatnonzero(inside.any(axis=0))
    s, t = (a.ravel() for a in np.meshgrid(used, used, indexing="ij"))
    if probe:
        alpha, beta = s[values[s] < values[t]], t[values[s] < values[t]]
        s, t = np.concatenate([beta, alpha]), np.concatenate([alpha, beta])
    return np.stack([values[s], values[t]], axis=1), list(inside[:, s] & inside[:, t])


def _two_point_scans(tables: np.ndarray, pairs: np.ndarray, gallery: list, values, probe: bool) -> list:
    """The two-point engine: the ``_Checked`` Jensen scan (with ``probe``, concavity probe) of
    each map of ``gallery`` over the (mu index, nu index) ``pairs`` into the stack ``tables``.

    A variable taking one value on B and one off it reads only t(B) and
    t(Bᶜ) of a table t, so it is the row (value on B, value off B) under the
    table (0, t(B), t(Bᶜ), 1), a side: its integral under a pair depends on
    the split only through the pair's (mu side, nu side).  The sides of all
    splits are stacked and their halves of the rows made once; each map
    integrates only f of its rows (``_split_scan``), once per distinct side
    pair, and each pair reads its splits' results in order (``_scan_checked``).
    """
    ground = _ground(tables)
    splits = _canonical_splits(ground)
    rows, masks = _value_pairs(ground, gallery, values, probe)
    sides, side = np.unique(tables[:, [(b, ground.full ^ b) for b in splits]].reshape(-1, 2), axis=0, return_inverse=True)
    side = side.reshape(len(tables), len(splits))
    codes = side[pairs[:, 0]] * len(sides) + side[pairs[:, 1]]
    wanted, at = np.unique(codes, return_inverse=True)
    quads = np.zeros((len(sides), 4))
    quads[:, 1:3], quads[:, 3] = sides, 1.0
    gains, losses = _halves(quads, rows)
    si, sj = np.divmod(wanted, len(sides))
    return [
        _scan_checked(ground, splits, f, rows[mask], at.reshape(codes.shape), probe,
                      *_split_scan(quads, f, probe, rows[mask], gains[:, mask], losses[:, mask], si, sj))
        for f, mask in zip(gallery, masks)
    ]


def _split_scan(quads: np.ndarray, f, probe: bool, rows: np.ndarray, gains, losses, si, sj) -> tuple:
    """Per side pair w = (mu side ``si[w]``, nu side ``sj[w]``) of ``quads``: the first row (or
    len(rows)) whose Jensen gap exceeds VIOLATION_TOL and the gap; with ``probe`` also the first
    row (or len(rows)) off the closed two-valued mixture forms, with the integral and the form.

    ``gains`` and ``losses`` are the halves of ``rows`` under ``quads``, so
    C(X) is one subtraction, bit-for-bit ``gen_choquet_batch``, and so is
    C(f(X)) after one ``_halves`` call on f(rows).  f(C(X)) is made once per
    side on rows of one sign, and on the mixed-sign rows once per distinct
    value of a block of side pairs (``_blocks``), whose rows are scored at
    once: ``argmax`` finds each first violation or mismatch.
    """
    k = len(rows)
    alpha, beta, beta_on_b = rows.min(axis=1), rows.max(axis=1), rows[:, 0] > rows[:, 1]
    on_gains, on_losses = alpha >= 0.0, (beta <= 0.0) & (alpha < 0.0)
    mixed = ~(on_gains | on_losses)
    f_gains, f_losses = _halves(quads, _per_distinct(f.values, rows))
    f_on_gains, f_on_losses = _per_distinct(f.values, gains[:, on_gains]), _per_distinct(f.values, 0.0 - losses[:, on_losses])
    first, off = np.full((2, len(si)), k)
    gap, integral, expected = np.empty((3, len(si)))
    for block in _blocks(len(si), k):
        i, j = si[block], sj[block]
        m = gains[i] - losses[j]
        f_m = np.empty_like(m)
        f_m[:, on_gains], f_m[:, on_losses] = f_on_gains[i], f_on_losses[j]
        f_m[:, mixed] = _per_distinct(f.values, m[:, mixed])
        gaps = f_gains[i] - f_losses[j]
        gaps -= f_m
        first[block] = _first(gaps > VIOLATION_TOL)
        gap[block] = _at(gaps, first[block])
        if probe:
            # closed two-valued mixture forms: p = mu(X = beta), q = nu(X = alpha)
            p = np.where(beta_on_b, quads[i, 1:2], quads[i, 2:3])
            q = np.where(beta_on_b, quads[j, 2:3], quads[j, 1:2])
            expect = np.where(
                alpha >= 0.0,
                alpha * (1 - p) + beta * p,
                np.where(beta <= 0.0, alpha * q + beta * (1 - q), alpha * q + beta * p),
            )
            off[block] = _first(np.abs(m - expect) > 1e-9)
            integral[block], expected[block] = _at(m, off[block]), _at(expect, off[block])
    return first, gap, off, integral, expected


def _scan_checked(ground: GroundSet, splits: list, f, rows, at, probe: bool, first, gap, off, integral, expected):
    """The two-point verdicts of the pairs whose side pair at split ``splits[s]`` is ``at[:, s]``.

    A pair's verdict walks its splits in order: ``checked`` sums their rows
    up to the first mixture-form mismatch, which is its own verdict, or for
    a Jensen scan the first violation.  The probe scans past a violation and
    reports the first one.
    """
    k = len(rows)

    def x(s: int, r: int) -> list:
        return np.where([splits[s] >> e & 1 for e in range(ground.n)], rows[r, 0], rows[r, 1]).tolist()

    def verdict(p: int) -> Verdict:
        checked, violation = 0, None
        for s, w in enumerate(at[p].tolist()):
            if off[w] < k:
                witness = {"x": x(s, off[w]), "integral": float(integral[w]), "expected": float(expected[w])}
                return Verdict("two-valued mixture form", False, checked + int(off[w]), witness)
            checked += k if probe or first[w] == k else int(first[w]) + 1
            if violation is None and first[w] < k:
                violation = {"f": f.spec(), "x": x(s, first[w]), "gap": float(gap[w])}
                if not probe:
                    break
        return Verdict("jensen", violation is None, checked, violation)

    mismatch = (off[at] < k).any(axis=1)
    return _Checked(~mismatch & ~(first[at] < k).any(axis=1), verdict, mismatch)


def _pair_scan(mu: Capacity, nu: Capacity, f, values: tuple, probe: bool = False, reader=None) -> Verdict:
    """The verdict of one pair: the engine over the tables (mu, nu), read by ``reader`` if given."""
    _check_same_ground(mu, nu)
    tables, pairs = np.stack([_values(mu), _values(nu)]), np.array([[0, 1]])
    [scan] = _two_point_scans(tables, pairs, [f], values, probe)
    return (reader(tables, pairs, f, values, scan) if reader else scan).verdict(0)


def _certified(check: str, f, shape: str, values, scan: _Checked, exempt, exempt_verdict, detail, offset=0):
    """The verdicts that f's Jensen ``scan`` found a violation exactly when f fails the certificate
    ``shape`` (is_concave_on or is_weakly_superadditive_on, ``"ws"``), run once on the in-domain
    values at VIOLATION_TOL, the scans' own tolerance, so comparisons are grid-exact; ``exempt``
    pairs get ``exempt_verdict`` of the scan's.  ``detail`` may name ``{holds}`` and ``{found}``."""
    certify = is_concave_on if shape == "concave" else is_weakly_superadditive_on
    holds = exempt.all() or certify(f, [v for v in values if f.in_domain(v)], tol=VIOLATION_TOL).holds

    def verdict(p: int) -> Verdict:
        v = scan.verdict(p)
        if exempt[p]:
            return exempt_verdict(v)
        witness = None if holds == v.holds else {"f": f.spec(), shape: holds, "violation": v.witness}
        found = "none" if v.witness is None else "found"
        return Verdict(check, witness is None, v.checked + offset, witness, detail.format(holds=holds, found=found))

    return _Checked(np.where(exempt, scan.ok, scan.ok == holds), verdict)


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


def _converse_checked(tables: np.ndarray, pairs: np.ndarray) -> _Checked:
    """Whether ``jensen_counterexample``'s realized gap, bit-for-bit, exceeds STRUCT_TOL and
    matches the dominance gap within GAP_MATCH_TOL, for each non-dominant pair of ``pairs``.  Its
    X is 0 on the worst set and -1 off it, and f(x) = x + 2, so one ``_halves`` call on X and f(X)
    of the distinct worst sets gives every pair's C(X) and C(f(X)) by one subtraction each.
    STRUCT_TOL is the threshold above which a dominance gap classes the pair non-dominant, so a
    gap between it and VIOLATION_TOL that the witness realizes verifies too."""
    f, (i, j) = AffineMap(1.0, 2.0), pairs.T
    _, worst, dominance_gap = _dominance_checks(tables[i], tables[j])
    sets, r = np.unique(worst, return_inverse=True)
    x = _counterexample_rows(_ground(tables), sets.tolist())
    gains, losses = _halves(tables, np.concatenate([x, f.value(x)]))
    gap = (gains[i, r + len(sets)] - losses[j, r + len(sets)]) - f.value(gains[i, r] - losses[j, r])
    ok = (gap > STRUCT_TOL) & (np.abs(gap - dominance_gap) <= GAP_MATCH_TOL)

    def verdict(p: int) -> Verdict:
        return Verdict("jensen converse", bool(ok[p]), 1, {"gap": float(gap[p]), "dominance_gap": float(dominance_gap[p])})

    return _Checked(ok, verdict)


def integral_property_checks(
    mu: Capacity,
    nu: Capacity,
    samples: int = 50,
    seed: int = 0,
    tol: float = VIOLATION_TOL,
) -> dict[str, Verdict]:
    """Randomized checks of the four structural integral properties.

    Tail-convention equality is asserted exactly, as the scalar walk
    (strict tails, read off the sorted values; ``_walk`` and
    ``_tail_walk``) against the halves (weak tails, read off ``_plan``);
    pointwise monotonicity,
    positive homogeneity (with the capacity swap at negative scale) and the
    translation identity at ``tol``.  A trial stops at its first failing
    sample, and the next trial draws on from there.  This is the lemma
    engine's call on the one pair (``_property_trials``).
    """
    _check_same_ground(mu, nu)
    tables = np.stack([_values(mu), _values(nu)])
    return {key: trial.verdict(0) for key, trial in _property_trials(tables, [(0, 1)], samples, seed, tol)}


def _property_trials(
    tables: np.ndarray, pairs, samples: int, seed: int, tol: float = VIOLATION_TOL
) -> list[tuple[str, _Checked]]:
    """The lemma engine: ``(key, verdicts)`` per trial of ``integral_property_checks``, over the
    (mu index, nu index) ``pairs`` into the stack ``tables``.

    Every pair draws the seed's stream, each trial from where the pair's
    trial before it stopped.  So per trial, the pairs at one stream position
    share its draws and set-up, and one ``_halves`` call per row set gives
    the halves of every capacity: C(X) under pair (i, j) is ``gains[i] -
    losses[j]``, bit-for-bit ``gen_choquet``.  The translation trial gathers
    each capacity's values in the step cells once and combines them by pair
    a block at a time (``_cell_sums``).  The tail trial walks each capacity
    once per sample: the walk's gains part reads mu only and its loss part
    nu only (``_walk``, ``_tail_walk``), in the sample's one sort order.
    """
    ground = _ground(tables)
    n, size = ground.n, max(samples, 0)
    pairs = np.asarray(pairs)

    def tails(c, i, j, rows):
        parts = np.zeros((len(tables), size, 2))  # (gains part, loss part) per capacity and row
        for k in set(i.tolist()) | set(j.tolist()):
            table = memoryview(tables[k])
            walks = [_walk(table, table, x, order, ground.full) for x, order in rows["orders"]]
            parts[k] = np.reshape(walks, (size, 2))
        walk, halves = _tail_walk(parts[i, :, 0], parts[j, :, 1], rows["x"]), c("x", i, j)
        return walk != halves, np.abs(walk - halves)

    def monotonicity(c, i, j, rows):
        gaps = c("x", i, j) - c("y", i, j)
        return gaps > tol, gaps

    def homogeneity(c, i, j, rows):
        b = rows["b"]
        gaps = np.abs(c("bx", i, j) - b * np.where(b > 0, c("x", i, j), c("x", j, i)))
        return gaps > tol, gaps

    def translation(c, i, j, rows):
        width, above, below, sign = rows["cells"]
        # per capacity t and cell: t(X > s), as mu, and dual(t)(X >= s) = 1 - t(X < s), as nu
        ups, downs = tables[:, above], 1.0 - tables[:, below]
        gaps = c("xa", i, j) - rows["a"] - c("x", i, j)
        for block in _blocks(len(i), above.size):
            values = ups[i[block]]
            values -= downs[j[block]]
            gaps[block] -= _cell_sums(width, sign, values)
        gaps = np.abs(gaps)
        return gaps > tol, gaps

    # (key, check name, the ranges each sample draws from after X, set-up, trial, the set-up's rows
    # in a witness) in draw order; a set-up reads the draws and no capacity: the rows integrated
    # ("x", "y", "bx", "xa") and the scalars.  A trial reads C of rows name under the pairs (i, j)
    # as the (P, K) array c(name, i, j), and returns each row's failure and gap.
    trials = (
        ("tail-conventions", "tail conventions agree", (),
         lambda x, more: {"x": x, "orders": [(v, _order(v)) for v in x.tolist()]}, tails, ("x",)),
        ("monotonicity", "pointwise monotonicity", ((0.0, 5.0),) * n,
         lambda x, more: {"x": x, "y": x + more}, monotonicity, ("x", "y")),
        ("homogeneity", "positive homogeneity with swap", ((-3.0, 3.0),),
         lambda x, more: {"x": x, "bx": x * more, "b": more[:, 0]}, homogeneity, ("x", "b")),
        ("translation", "translation identity", ((-10.0, 10.0),),
         lambda x, more: {"x": x, "xa": x + more, "a": more[:, 0],
                          "cells": _step_cells(x, -more[:, 0], np.zeros(size))}, translation, ("x", "a")),
    )
    out = []
    starts = np.zeros(len(pairs), dtype=np.int64)
    for key, check, ranges, setup, trial, fields in trials:
        failed_at, gap, drawn = np.empty(len(pairs), dtype=np.intp), np.empty(len(pairs)), []
        positions, group = np.unique(starts, return_inverse=True)
        for g, start in enumerate(positions.tolist()):
            # the trial's stream is default_rng(seed) past the doubles earlier trials drew; one
            # uniform call over the block draws them in the order of one call per X and per value
            rng = np.random.default_rng(seed)
            rng.bit_generator.advance(start)
            low, high = zip(*[(-10.0, 10.0)] * n, *ranges)
            draws = rng.uniform(low, high, (size, len(low)))
            rows = setup(draws[:, :n], draws[:, n:])
            halves = {name: _halves(tables, rows[name]) for name in ("x", "y", "bx", "xa") if name in rows}
            members = np.flatnonzero(group == g)
            fails, gaps = trial(lambda name, m, v: halves[name][0][m] - halves[name][1][v], *pairs[members].T, rows)
            failed_at[members] = first = _first(fails)
            gap[members] = _at(gaps, first)
            starts[members] = start + np.minimum(first + 1, size) * (n + len(ranges))
            drawn.append(rows)
        verdict = partial(_trial_verdict, check, samples, fields, failed_at, gap, group, drawn)
        out.append((key, _Checked(failed_at == size, verdict)))
    return out


def _trial_verdict(check: str, samples: int, fields: tuple, failed_at, gap, group, drawn: list, k: int) -> Verdict:
    """A lemma trial's verdict of pair k: it failed at row ``failed_at[k]`` (none when that is
    ``samples``), with gap ``gap[k]``, of the rows drawn at its stream position, ``drawn[group[k]]``,
    whose ``fields`` it names."""
    if failed_at[k] == max(samples, 0):
        return Verdict(check, True, samples)
    rows, r = drawn[group[k]], failed_at[k]
    return Verdict(check, False, samples, {**{name: rows[name][r].tolist() for name in fields}, "gap": float(gap[k])})


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
    return _pair_scan(mu, nu, f, tuple(values), reader=partial(_collapse_checked, seed=seed))


def _collapse_checked(tables: np.ndarray, pairs: np.ndarray, f, values: tuple, scan: _Checked, seed: int):
    """``zero_one_collapse_check`` of the {0,1}-valued (mu index, nu index) ``pairs`` into the stack
    ``tables``, from their Jensen ``scan`` of f.

    The rows are every few rows of ``two_point_grid`` plus 25 dense draws,
    inside f's domain.  One ``_halves`` call on f(rows) over the capacities
    the pairs use gives every pair's C(f(X)); b_X reads mu alone and a_X nu
    alone, so one plan of the rows gives every capacity's (a_X, b_X)
    (``_collapse_ends``), and f of them is made once per distinct value.
    """
    ground = _ground(tables)
    dense = np.random.default_rng(seed).uniform(min(values), max(values), (25, ground.n))
    grid = two_point_grid(ground, values)
    xs = _in_domain(f, np.concatenate([grid[:: max(1, len(values) // 8)], dense]))
    used, index = np.unique(pairs, return_inverse=True)
    i, j = index.reshape(pairs.shape).T
    tables = tables[used]
    gains, losses = _halves(tables, _outcome_rows(ground, _per_distinct(f.values, xs)))
    f_a, f_b = _per_distinct(f.values, np.stack(_collapse_ends(tables, xs)))
    k = len(xs)
    bad, (lhs, rhs) = np.empty(len(pairs), dtype=np.intp), np.empty((2, len(pairs)))
    for block in _blocks(len(pairs), k):
        left, right = gains[i[block]] - losses[j[block]], f_a[j[block]] + f_b[i[block]]
        bad[block] = _first(left != right)
        lhs[block], rhs[block] = _at(left, bad[block]), _at(right, bad[block])
    unconditional = ~_coexisting(tables[i], tables[j], both_one=True).any(axis=1)
    jensen = _certified("collapse equivalence", f, "ws", values, scan, unconditional | (bad < k),
                        lambda v: Verdict("collapse unconditional", v.holds, k + v.checked, v.witness,
                                          detail="no coexistence set"), "coexistence set present", k)

    def verdict(p: int) -> Verdict:
        if bad[p] == k:
            return jensen.verdict(p)
        witness = {"f": f.spec(), "x": xs[bad[p]].tolist(), "lhs": float(lhs[p]), "rhs": float(rhs[p])}
        return Verdict("collapse identity", False, int(bad[p]) + 1, witness)

    return _Checked((bad == k) & jensen.ok, verdict)


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
    return _pair_scan(mu, nu, f, tuple(values), probe=True, reader=_probe_checked)


def _probe_checked(tables: np.ndarray, pairs: np.ndarray, f, values: tuple, scan: _Checked) -> _Checked:
    """``two_valued_concavity_probe`` of pairs meeting its hypotheses, from their probe ``scan``: a
    row off its closed mixture form is the verdict, else the scan against concavity."""
    detail = "concave={holds}, violation={found}"
    return _certified("two-valued concavity probe", f, "concave", values, scan, scan.mismatch, lambda v: v, detail)


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
    return _pair_scan(mu, nu, f, values, reader=_axis_checked)


def _axis_checked(tables: np.ndarray, pairs: np.ndarray, f, values: tuple, scan: _Checked) -> _Checked:
    """``nonnegative_axis_check`` on a nonnegative grid, from a Jensen ``scan``."""
    zero_one = _zero_one(tables)[pairs[:, 0]]
    detail = "{0,1}-valued gains capacity: unconditional"
    return _certified("nonnegative-axis probe", f, "concave", values, scan, zero_one,
                      lambda v: Verdict("nonnegative-axis zero-one", v.holds, v.checked, v.witness, detail=detail),
                      "concave on x>=0: {holds}")


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
    ``report.unexpected``; a clean report has none.  Raises ValueError for a
    negative seed, and TooLarge above SWEEP_MAX_PAIRS pairs, before any check
    runs and after building at most _SWEEP_MAX_BUILT + 1 capacities.
    Deterministic for fixed arguments.
    """
    theorems = tuple(theorems)
    unknown = [t for t in theorems if t not in THEOREM_IDS]
    if unknown:
        raise ValueError(
            f"unknown theorem id {', '.join(map(repr, unknown))}; valid ids: {', '.join(THEOREM_IDS)}"
        )
    if seed < 0:
        raise ValueError(f"the seed must be nonnegative, got {seed}")
    levels = CapacityEnumerator(n, levels).levels
    tables = np.stack([_values(cap) for cap in islice(enumerate_capacities(n, levels), _SWEEP_MAX_BUILT + 1)])
    count = len(tables)
    if count**2 > SWEEP_MAX_PAIRS:
        at_least = "at least " if count > _SWEEP_MAX_BUILT else ""
        raise TooLarge(f"the sweep has {at_least}{count**2} capacity pairs, above SWEEP_MAX_PAIRS = {SWEEP_MAX_PAIRS}")
    report = SweepReport(n=n, levels=levels, seed=seed, capacity_count=count)
    pairs = np.stack(np.divmod(np.arange(count**2), count), axis=1)
    _tally(report, _sweep_verdicts(tables, pairs, theorems, seed, tuple(values), property_samples))
    # a converse verdict is as expected exactly when its counterexample verified
    report.counterexamples = report.verdict_counts.get("jensen converse", (0, 0))[0]
    return report


def _pair_classes(tables: np.ndarray, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(dominates_dual holds, zero_one, has a coexistence set)`` of each (mu index, nu index) of
    ``pairs`` into the stack ``tables``, as bool arrays, from one ``_dominance_checks`` and one
    ``_coexisting`` call on the stacks of the pairs' mu and nu tables."""
    mus, nus = tables[pairs[:, 0]], tables[pairs[:, 1]]
    return _dominance_checks(mus, nus)[0], _zero_one(mus) & _zero_one(nus), _coexisting(mus, nus).any(axis=1)


def _class_key(dominant: bool, zero_one: bool, coexistence: bool) -> str:
    return f"dominant={dominant}, zero_one={zero_one}, coexistence={coexistence}"


class _Sweep(NamedTuple):
    """A (C, 2ⁿ) stack of ``tables``, (P, 2) (mu index, nu index) ``pairs`` into it, their (dominance,
    zero_one, coexistence) ``classes``, and per check name and gallery map or lemma trial, in report
    order, ``(check name, positions of the pairs it applies to, _Checked of those pairs)``."""

    tables: np.ndarray
    pairs: np.ndarray
    classes: tuple
    columns: list


def _sweep_verdicts(tables, pairs: np.ndarray, theorems: tuple, seed: int, values: tuple, property_samples: int):
    """The checks of each (mu index, nu index) of ``pairs`` into the stack ``tables``, as a _Sweep.

    Every check runs its engine once for the pairs it applies to: the lemma
    trials, the converse, and the two-point scans of theorems 1 (dominant
    pairs), 2 (zero-one), 3 (dominant with a coexistence set) and 4 (all),
    which theorem 2's collapse identity and the grid certificates read.
    Nothing outlives the call.
    """
    # the probe and axis galleries share the collapse gallery's maps (each build checks its shape)
    collapse_gallery = zero_at_zero_gallery()
    exp, kink, _, expm1 = collapse_gallery
    probe_values = tuple(-3.0 + 0.5 * k for k in range(13))

    dominant, zero_one, coexistence = classes = _pair_classes(tables, pairs)

    def scanned(name, gallery, grid, probe, reader, mine):
        scans = _two_point_scans(tables, mine, gallery, grid, probe)
        return [(name, reader(tables, mine, f, grid, scan) if reader else scan) for f, scan in zip(gallery, scans)]

    # (theorem id, the pairs it applies to, check): a check run on the index pairs it applies to
    # gives (check name, _Checked) per gallery map or lemma trial
    table = (
        ("lemma", True, lambda mine: [(f"property {key}", checked) for key, checked in
                                      _property_trials(tables, mine, property_samples, seed)]),
        ("1", dominant, partial(scanned, "jensen forward", concave_increasing_gallery(), values, False, None)),
        ("1", ~dominant, lambda mine: [("jensen converse", _converse_checked(tables, mine))]),
        ("2", zero_one,
         partial(scanned, "collapse", collapse_gallery, probe_values, False, partial(_collapse_checked, seed=seed))),
        ("3", dominant & coexistence, partial(scanned, "two-valued concavity", [exp, kink, expm1, Power(0.5, 2.0)],
                                              probe_values, True, _probe_checked)),
        ("4", True, partial(scanned, "nonnegative axis", [exp, Power(0.0, 2.0), Power(0.0, 0.5)],
                            NONNEG_VALUE_GRID, False, _axis_checked)),
    )
    columns = []
    for tid, applies, check in table:
        where = np.flatnonzero(np.broadcast_to(applies, len(pairs))) if tid in theorems else []
        if len(where):
            columns += [(name, where, checked) for name, checked in check(pairs[where])]
    return _Sweep(tables, pairs, classes, columns)


def _entries(sweep: _Sweep, everything: bool = False) -> Iterator[tuple[int, str, Verdict]]:
    """``(pair position, check name, verdict)`` of each failing verdict of ``sweep`` (with
    ``everything``, of each verdict) in report order: by pair, then check row, then gallery map,
    then lemma trial."""
    by_pair: dict = {}
    for name, where, checked in sweep.columns:
        picked = np.flatnonzero(~checked.ok | everything)
        for p, k in zip(where[picked].tolist(), picked.tolist()):
            by_pair.setdefault(p, []).append((name, checked.verdict, k))
    for p in sorted(by_pair):
        yield from ((p, name, verdict(k)) for name, verdict, k in by_pair[p])


def _tally(report: SweepReport, sweep: _Sweep) -> None:
    """Add the pairs of ``sweep``, their class and verdict counts and their failing verdicts, in
    order, to ``report``.  Counts add and failures concatenate, so sweeps over consecutive blocks
    of pairs add up to the sweep over all of them."""
    report.pair_count += len(sweep.pairs)
    for cls, count in zip(*np.unique(np.stack(sweep.classes, axis=1), axis=0, return_counts=True)):
        key = _class_key(*cls.tolist())
        report.class_counts[key] = report.class_counts.get(key, 0) + int(count)
    for name, where, checked in sweep.columns:
        good, total = report.verdict_counts.get(name, (0, 0))
        report.verdict_counts[name] = (good + int(np.count_nonzero(checked.ok)), total + len(where))
    for p, name, verdict in _entries(sweep):
        mu, nu = sweep.tables[sweep.pairs[p]].tolist()
        report.unexpected.append({"check": name, "mu": mu, "nu": nu, "witness": verdict.witness})
