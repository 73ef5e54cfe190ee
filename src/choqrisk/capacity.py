"""Capacities (normalized monotone set functions) on finite ground sets.

A ground set holds n elements (1 <= n <= 20).  Subsets are encoded as
bitmasks in ``[0, 2**n)``: bit ``i`` set means element ``i`` belongs to the
subset.  A capacity assigns a value in [0, 1] to every subset, with
``table[0] == 0.0`` and ``table[full] == 1.0`` exactly, and values
nondecreasing along subset inclusion.  Additivity is never assumed.  Over
ascending A the complements ``full ^ A`` descend, so the table of
complements is the table reversed.

Two tolerance tiers are used throughout the package:

* ``STRUCT_TOL = 1e-12`` for construction-level equalities (normalization,
  duality, additivity, entrywise capacity equality);
* ``DERIVED_TOL = 1e-9`` for comparisons of derived quantities that have
  accumulated arithmetic error.

This module also provides the classical constructions: distorted
probabilities, envelope (Hurwicz-style) capacities, possibility/necessity,
unanimity games, belief/plausibility from a mass function, and the self-dual
credibility measure, together with the structural checks used by the
theorem-verification layer (conjugate dominance, coexistence sets,
superadditivity, uncertainty-measure axioms).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    BadPsi,
    BadWeights,
    EmptyCoalition,
    EmptyFamily,
    GroundSetMismatch,
    NotAdditive,
    NotMonotone,
    NotNormalized,
    TooLarge,
)

STRUCT_TOL = 1e-12
DERIVED_TOL = 1e-9
#: the largest dip ``table[A] - table[A | {i}]`` a capacity may have: STRUCT_TOL
#: plus room for rounding 1 - (1 - x) on both entries, so that every table with
#: ``table[A] <= table[A | {i}] + STRUCT_TOL`` (in floats) passes
MONOTONE_TOL = STRUCT_TOL + 2.0**-51
MAX_ELEMENTS = 20
#: largest n whose 3^n disjoint pairs are walked (3^16 is about 4.3e7)
PAIR_WALK_MAX_N = 16
#: the pair walk scores 3^PAIR_BLOCK_N (about 5.3e5) pairs per numpy block
PAIR_BLOCK_N = 12


@dataclass(frozen=True)
class GroundSet:
    """Finite ground set; subsets of it are bitmasks in ``[0, 2**n)``."""

    n: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int) or not 1 <= self.n <= MAX_ELEMENTS:
            raise ValueError(f"ground set size must be an int in [1, {MAX_ELEMENTS}], got {self.n!r}")
        if self.labels is not None:
            labels = tuple(self.labels)
            object.__setattr__(self, "labels", labels)
            if len(labels) != self.n:
                raise ValueError(f"expected {self.n} labels, got {len(labels)}")
            if len(set(labels)) != self.n:
                raise ValueError("labels must be unique")

    @property
    def size(self) -> int:
        return 1 << self.n

    @property
    def full(self) -> int:
        """Bitmask of the whole set."""
        return (1 << self.n) - 1

    def subsets(self) -> range:
        return range(1 << self.n)

    def label_of(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else str(i + 1)

    def describe(self, mask: int) -> str:
        """Human-readable subset, e.g. ``{1,3}``."""
        members = [self.label_of(i) for i in range(self.n) if mask >> i & 1]
        return "{" + ",".join(members) + "}"


def _check_same_ground(*objs) -> GroundSet:
    ground = objs[0].ground
    for o in objs[1:]:
        if o.ground.n != ground.n:
            raise GroundSetMismatch(
                f"ground sets differ: {ground.n} vs {o.ground.n} elements"
            )
    return ground


@dataclass(frozen=True, eq=False)
class Capacity:
    """Normalized monotone set function, stored as one read-only float64 array of 2^n values.

    ``_view`` is a read-only memoryview of the array, whose reads give Python floats;
    ``table`` builds a tuple of them on each access, in O(2^n).  Instances are immutable and
    validated on construction; every operation on them is a pure function, so they are safe
    to share across threads.
    """

    ground: GroundSet
    _view: memoryview

    def __init__(self, ground: GroundSet, table: Sequence[float]):
        self.__post_init__(ground, table)

    def __post_init__(self, ground: GroundSet, table: Sequence[float]):
        """Convert and check ``table``, then store it; ``__init__`` runs this, as the generated one did."""
        arr = _float_array(table)
        size = ground.size
        if arr.size != size:
            raise ValueError(f"table must have {size} entries, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("table entries must be finite")
        # monotonicity first: the witness pair is the more useful diagnostic
        # when both it and normalization fail.  The first witness has the
        # lowest element i, then the smallest A.  Dips are measured between
        # the values r(x) = 1 - (1 - x): dual() stores 1 - x, which r leaves
        # unchanged, and the conjugate's dip 1 - x - (1 - y) equals r(y) - r(x)
        # exactly, so the dual of every accepted table is accepted.
        r = np.subtract(1.0, arr)
        np.subtract(1.0, r, out=r)
        for i, pair in _pairs(r):
            bad = (pair[:, 0] - pair[:, 1] > MONOTONE_TOL).ravel()
            if bad.any():
                high, low = divmod(int(bad.argmax()), 1 << i)
                a = high << (i + 1) | low
                raise NotMonotone(a, a | 1 << i, arr.item(a), arr.item(a | 1 << i))
        if arr[0] != 0.0 or arr[-1] != 1.0:
            raise NotNormalized(
                f"table[empty]={arr.item(0)!r}, table[full]={arr.item(-1)!r}; expected exactly 0.0 and 1.0"
            )
        _store(self, ground, arr)

    def __reduce__(self):
        return Capacity, (self.ground, _values(self))

    @property
    def table(self) -> tuple[float, ...]:
        """The values as a tuple of Python floats, built from the array on each access."""
        return tuple(_values(self).tolist())

    def __getitem__(self, mask: int) -> float:
        return self._view[mask]

    def dual(self) -> "Capacity":
        """Conjugate capacity: ``dual(A) = 1 - self(complement of A)``.

        Built without the checks of ``__post_init__``: the table is finite, its
        ends are exactly ``1.0 - 1.0`` and ``1.0 - 0.0``, and its dips, as the
        constructor measures them, are this table's, so the constructor
        accepts it too.
        """
        return _store(object.__new__(Capacity), self.ground, 1.0 - _values(self)[::-1])

    def isclose(self, other: "Capacity", atol: float = STRUCT_TOL) -> bool:
        """Entrywise equality within ``atol``."""
        if self.ground.n != other.ground.n:
            return False
        return bool((np.abs(_values(self) - _values(other)) <= atol).all())

    def is_zero_one_valued(self) -> bool:
        return bool(_zero_one(_values(self)))

    def is_additive(self) -> bool:
        """True iff every value is the sum of its singleton values."""
        table = _values(self)
        sums = _zeta(_on_singletons(self.ground, table[1 << np.arange(self.ground.n)]))
        return not (np.abs(table - sums) > STRUCT_TOL).any()

    def __repr__(self) -> str:
        entries = ", ".join(
            f"{self.ground.describe(a)}: {v:g}" for a, v in enumerate(_values(self).tolist())
        )
        return f"Capacity(n={self.ground.n}, {{{entries}}})"


def _float_array(table: Sequence[float]) -> np.ndarray:
    """``table`` as a new float64 array, each entry converted as ``float()`` converts it.

    A 1-D numeric array is converted in one copy.  A list or tuple that numpy reads as a
    1-D float64 or int64 array is too: both round as ``float()`` does (an int subclass
    whose ``__float__`` disagrees with its value is read by its value).  Anything else,
    including a list numpy refuses or reads with another dtype, is converted by ``float()``
    per entry, which raises what it raises.
    """
    if isinstance(table, (list, tuple)):
        try:
            arr = np.array(table)
        except Exception:  # ragged, or an entry numpy cannot take; float() names it below
            pass
        else:
            if arr.ndim == 1 and arr.dtype in (np.float64, np.int64):
                return arr.astype(float, copy=False)
    elif isinstance(table, np.ndarray) and table.ndim == 1 and table.dtype.kind in "biuf":
        return np.array(table, dtype=float)
    return np.fromiter(map(float, table), float)


def _store(c: Capacity, ground: GroundSet, arr: np.ndarray) -> Capacity:
    """Freeze ``arr`` and make it, on ``ground``, the table of ``c``."""
    arr.flags.writeable = False
    object.__setattr__(c, "ground", ground)
    object.__setattr__(c, "_view", memoryview(arr))
    return c


def _values(c: Capacity) -> np.ndarray:
    """The capacity's read-only float64 array itself, not a copy."""
    return c._view.obj


def _zero_one(tables: np.ndarray) -> np.ndarray:
    """``is_zero_one_valued`` of a table, or of each row of a (P, 2^n) stack."""
    return ((tables <= STRUCT_TOL) | (tables >= 1.0 - STRUCT_TOL)).all(axis=-1)


def new_capacity(ground: GroundSet, table: Sequence[float]) -> Capacity:
    """Validate a raw table and wrap it as a capacity."""
    return Capacity(ground, table)


def _pairs(table: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Per element i, low to high: a view pairing each set without i ([:, 0]) with it plus i ([:, 1])."""
    for i in range(table.size.bit_length() - 1):
        yield i, table.reshape(-1, 2, 1 << i)


def _zeta(values: Sequence[float], op: np.ufunc = np.add) -> np.ndarray:
    """Subset (zeta) transform in O(n 2^n): entry A becomes ``op`` over the entries of A's subsets.

    ``np.add`` sums them from the lowest element up; ``np.maximum`` takes their max.
    """
    out = np.array(values, dtype=float)
    for _, pair in _pairs(out):
        op(pair[:, 1], pair[:, 0], out=pair[:, 1])
    return out


def _on_singletons(ground: GroundSet, values) -> np.ndarray:
    """Table holding ``values[i]`` on the singleton ``{i}`` and 0 elsewhere."""
    out = np.zeros(ground.size)
    out[1 << np.arange(ground.n)] = values
    return out


def _snap_endpoints(ground: GroundSet, table: Sequence[float], what: str) -> Capacity:
    """Require computed endpoints to sit within STRUCT_TOL of (0, 1), pin them and wrap the table.

    Constructors go through here so arithmetic dust cannot leak into the
    exact-endpoint invariant.  A NaN endpoint fails the test.
    """
    table = np.array(table, dtype=float)
    if not (abs(table[0]) <= STRUCT_TOL and abs(table[-1] - 1.0) <= STRUCT_TOL):
        raise NotNormalized(
            f"{what}: computed endpoints ({float(table[0])!r}, {float(table[-1])!r}) are not (0, 1)"
        )
    table[0], table[-1] = 0.0, 1.0
    return Capacity(ground, table)


def from_probability(ground: GroundSet, weights: Sequence[float]) -> Capacity:
    """Additive capacity ``P(A) = sum of weights over A``."""
    w = [float(x) for x in weights]
    if len(w) != ground.n:
        raise BadWeights(f"expected {ground.n} weights, got {len(w)}")
    if any(x < 0.0 for x in w):
        raise BadWeights(f"weights must be nonnegative, got {w}")
    total = sum(w)
    if not abs(total - 1.0) <= STRUCT_TOL:  # written so that a NaN sum fails
        raise BadWeights(f"weights sum to {total!r}, expected 1")
    return _snap_endpoints(ground, _zeta(_on_singletons(ground, w)), "from_probability")


def distort(p: Capacity, g: Callable[[float], float]) -> Capacity:
    """Distorted probability ``A -> g(P(A))`` for an additive P.

    ``g`` is any callable on [0, 1]; weighting-function objects from
    :mod:`choqrisk.weighting` work directly.
    """
    if not p.is_additive():
        raise NotAdditive("distortion requires an additive base capacity")
    fn = getattr(g, "value", g)
    return _snap_endpoints(p.ground, [float(fn(v)) for v in p.table], "distort")


def hurwicz(family: Sequence[Capacity], theta: float) -> Capacity:
    """Envelope mix ``theta * min_P P(A) + (1 - theta) * max_P P(A)``.

    ``theta = 1`` gives the lower envelope (pure pessimism), ``theta = 0``
    the upper envelope.
    """
    if not family:
        raise EmptyFamily("need at least one probability in the family")
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must be in [0, 1], got {theta!r}")
    ground = _check_same_ground(*family)
    for k, p in enumerate(family):
        if not p.is_additive():
            raise NotAdditive(f"family member {k} is not additive")
    tables = np.stack([_values(p) for p in family])
    table = theta * tables.min(axis=0) + (1.0 - theta) * tables.max(axis=0)
    return _snap_endpoints(ground, table, "hurwicz")


def possibility(ground: GroundSet, psi: Sequence[float]) -> Capacity:
    """Maxitive capacity ``A -> max of psi over A`` (0 on the empty set)."""
    vals = [float(x) for x in psi]
    if len(vals) != ground.n:
        raise BadPsi(f"expected {ground.n} values, got {len(vals)}")
    if any(not 0.0 <= x <= 1.0 for x in vals):
        raise BadPsi(f"psi values must lie in [0, 1], got {vals}")
    if abs(max(vals) - 1.0) > STRUCT_TOL:
        raise BadPsi(f"max(psi) must be 1, got {max(vals)!r}")
    return _snap_endpoints(ground, _zeta(_on_singletons(ground, vals), np.maximum), "possibility")


def necessity(ground: GroundSet, psi: Sequence[float]) -> Capacity:
    """Conjugate of the possibility measure for the same profile."""
    return possibility(ground, psi).dual()


def unanimity(ground: GroundSet, coalition: int) -> Capacity:
    """{0,1}-valued capacity equal to 1 exactly on supersets of the coalition."""
    if coalition == 0:
        raise EmptyCoalition("coalition must be a nonempty subset")
    if not 0 < coalition <= ground.full:
        raise ValueError(f"coalition {coalition:#b} outside the ground set")
    table = tuple(1.0 if a & coalition == coalition else 0.0 for a in ground.subsets())
    return Capacity(ground, table)


@dataclass(frozen=True)
class MassFunction:
    """Nonnegative masses over subsets: ``mass[empty] = 0`` and total mass 1."""

    ground: GroundSet
    mass: tuple[float, ...]

    def __post_init__(self):
        mass = tuple(float(v) for v in self.mass)
        object.__setattr__(self, "mass", mass)
        if len(mass) != self.ground.size:
            raise ValueError(f"mass table must have {self.ground.size} entries, got {len(mass)}")
        if mass[0] != 0.0:
            raise ValueError(f"mass of the empty set must be 0, got {mass[0]!r}")
        if any(v < 0.0 for v in mass):
            raise ValueError("masses must be nonnegative")
        total = sum(mass)
        if not abs(total - 1.0) <= STRUCT_TOL:  # written so that a NaN sum fails
            raise ValueError(f"masses sum to {total!r}, expected 1")


def belief(m: MassFunction) -> Capacity:
    """Lower set function ``Bel(A) = sum of m(B) over B inside A``."""
    return _snap_endpoints(m.ground, _zeta(m.mass), "belief")


def plausibility(m: MassFunction) -> Capacity:
    """Upper set function ``Pl(A) = sum of m(B) over B meeting A``.

    Evaluated as ``total mass - mass inside the complement``; the conjugacy
    ``Pl = dual(Bel)`` holds within STRUCT_TOL and is asserted by tests
    against the direct double-sum definition.
    """
    inside = _zeta(m.mass)
    return _snap_endpoints(m.ground, inside[-1] - inside[::-1], "plausibility")


def credibility(ground: GroundSet, v: Sequence[float]) -> Capacity:
    """Self-dual capacity ``Cr(A) = (max_A v + 1 - max_{A^c} v) / 2``.

    The max over the empty set is taken as 0, which forces ``Cr(empty) = 0``
    and ``Cr(full) = 1`` exactly when ``max(v) = 1``.  Profiles with
    ``max(v) < 1`` would give ``Cr(full) < 1`` and are rejected rather than
    renormalized.
    """
    vals = [float(x) for x in v]
    if len(vals) != ground.n:
        raise BadPsi(f"expected {ground.n} values, got {len(vals)}")
    if any(not 0.0 <= x <= 1.0 for x in vals):
        raise BadPsi(f"profile values must lie in [0, 1], got {vals}")
    if abs(max(vals) - 1.0) > STRUCT_TOL:
        raise NotNormalized(
            f"credibility profile with max {max(vals)!r} < 1 gives Cr(full) < 1; rejected"
        )
    sup = _values(possibility(ground, vals))
    return _snap_endpoints(ground, (sup + 1.0 - sup[::-1]) / 2.0, "credibility")


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DominanceCheck:
    """Result of the conjugate-dominance test ``mu <= dual(nu)``.

    ``worst_set`` is the smallest A maximizing ``mu(A) - dual(nu)(A)`` and
    ``gap`` is that maximum (positive iff dominance fails beyond tolerance).
    """

    holds: bool
    worst_set: int
    gap: float

    def __bool__(self) -> bool:
        return self.holds


def dominates_dual(mu: Capacity, nu: Capacity) -> DominanceCheck:
    """Check ``mu(A) <= 1 - nu(A^c)`` for every subset A."""
    _check_same_ground(mu, nu)
    [holds], [worst], [gap] = _dominance_checks(_values(mu), _values(nu))
    return DominanceCheck(bool(holds), int(worst), float(gap))


def _dominance_checks(mu: np.ndarray, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``dominates_dual``'s ``(holds, worst_set, gap)`` of the table mu against the table nu, or of
    each row of a (P, 2^n) stack against the same row of another, as (1,) or (P,) arrays:
    ``mu - (1 - nu[::-1])``, computed in one array of the shape of nu."""
    gaps = np.subtract(1.0, nu[..., ::-1])
    np.subtract(mu, gaps, out=gaps)
    gaps = gaps.reshape(-1, gaps.shape[-1])
    worst = gaps.argmax(axis=1)
    worst_gaps = gaps[np.arange(len(gaps)), worst]
    return worst_gaps <= STRUCT_TOL, worst, worst_gaps


def coexistence_set(mu: Capacity, nu: Capacity, both_one: bool = False) -> int | None:
    """First set B (by bitmask) with ``mu(B) > 0`` and ``nu(B^c) > 0``.

    With ``both_one`` the set must carry ``mu(B) = nu(B^c) = 1`` instead.
    Both tests hold within STRUCT_TOL; None when no proper nonempty set
    qualifies.
    """
    _check_same_ground(mu, nu)
    hits = _coexisting(_values(mu), _values(nu), both_one)
    return int(hits.argmax()) + 1 if hits.any() else None


def _coexisting(mu: np.ndarray, nus: np.ndarray, both_one: bool = False) -> np.ndarray:
    """``coexistence_set``'s test of each B = 1 .. full - 1 for the table mu against one table nus
    or each row of a (J, 2^n) stack, or for each row of a (J, 2^n) stack mu against the same row
    of nus, as bools of shape (2^n - 2,) or (J, 2^n - 2)."""
    full = mu.shape[-1] - 1
    # over B = 1 .. full - 1: B^c runs down from full - 1, so nu(B^c) is nu's table reversed
    if both_one:
        hits = nus[..., full - 1 : 0 : -1] >= 1.0 - STRUCT_TOL
        hits &= mu[..., 1:full] >= 1.0 - STRUCT_TOL
    else:
        hits = nus[..., full - 1 : 0 : -1] > STRUCT_TOL
        hits &= mu[..., 1:full] > STRUCT_TOL
    return hits


def _disjoint_assignments(n_low: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every disjoint pair (A, B) of subsets of the elements n_low..n-1: each goes to A, B or neither."""
    a = b = np.zeros(1, dtype=np.int64)
    for i in range(n_low, n):
        a, b = np.concatenate((a, a | 1 << i, a)), np.concatenate((b, b, b | 1 << i))
    return a, b


def _disjoint_scan(ground: GroundSet, t: np.ndarray, score: Callable[[np.ndarray, np.ndarray], np.ndarray],
                   first_hit: bool = False):
    """Largest ``score(t[A] + t[B], t[A | B])`` over the 3^n disjoint pairs (A, B) and, when it is
    positive, the first pair reaching it in the walk order A ascending, then B descending.

    The pairs are scored in numpy blocks of 3^PAIR_BLOCK_N, one block per assignment of the
    elements above PAIR_BLOCK_N, grouped by A's part of them in ascending order: a group's pairs
    all come before the next group's in the walk.  With ``first_hit`` the scan stops after the
    first group holding a positive score, which settles a yes/no score.  Raises TooLarge above
    PAIR_WALK_MAX_N elements.
    """
    n, full = ground.n, ground.full
    if n > PAIR_WALK_MAX_N:
        raise TooLarge(f"the walk over 3^{n} disjoint pairs is capped at n = {PAIR_WALK_MAX_N}")
    split = min(n, PAIR_BLOCK_N)
    a_low, b_low = _disjoint_assignments(0, split)
    union_low = a_low | b_low
    a_highs, b_highs = _disjoint_assignments(split, n)
    best, first = -np.inf, None
    for a_high in sorted(set(a_highs.tolist())):  # np.unique would import numpy.ma
        if first_hit and first is not None:
            break
        for b_high in b_highs[a_highs == a_high].tolist():
            # high and low bits are disjoint, so an offset view reads t[high | low] at low
            scores = score(t[a_high:][a_low] + t[b_high:][b_low], t[a_high | b_high:][union_low])
            top = scores.max()
            if top > best:
                best, first = top, None
            if top == best and top > 0:  # only a positive score is reported with its pair
                hit = scores == top
                # rank in the walk order; smaller comes first
                key = int((((a_low[hit] | a_high) << n) + (full - (b_low[hit] | b_high))).min())
                first = key if first is None else min(first, key)
    if first is None:
        return best, None
    a, rest = divmod(first, 1 << n)
    return best, (a, full - rest)


@dataclass(frozen=True)
class SuperadditivityCheck:
    holds: bool
    witness: tuple[int, int] | None
    gap: float

    def __bool__(self) -> bool:
        return self.holds


def is_superadditive(mu: Capacity) -> SuperadditivityCheck:
    """Check ``mu(A) + mu(B) <= mu(A | B)`` over all disjoint pairs.

    Scans all 3^n disjoint pairs; the witness is the first pair, A
    ascending then B descending, with the largest gap.  Raises TooLarge
    above PAIR_WALK_MAX_N elements.
    """
    worst_gap, worst = _disjoint_scan(mu.ground, _values(mu), np.subtract)
    worst_gap = float(worst_gap)
    holds = worst_gap <= STRUCT_TOL
    return SuperadditivityCheck(holds, None if holds else worst, worst_gap)


@dataclass(frozen=True)
class UncertaintyCheck:
    """Outcome of the normalization / self-duality / subadditivity axioms.

    ``failing_axiom`` is one of ``None``, ``"normalization"``,
    ``"self-duality"`` or ``"subadditivity"``.
    """

    holds: bool
    failing_axiom: str | None
    witness: tuple[int, ...] | None

    def __bool__(self) -> bool:
        return self.holds


def is_uncertainty_measure(m: Capacity) -> UncertaintyCheck:
    """Check the three uncertainty-measure axioms on a finite ground set.

    Countable subadditivity reduces to pairwise subadditivity here: any
    finite union is a chain of pairwise unions, so the pairwise inequality
    gives the general one by induction.  Disjoint pairs suffice, since
    replacing B by B minus A keeps the union and cannot raise a monotone
    m(B); their walk raises TooLarge above PAIR_WALK_MAX_N elements.
    """
    ground = m.ground
    if m[ground.full] != 1.0:
        return UncertaintyCheck(False, "normalization", (ground.full,))
    table = _values(m)
    unpaired = np.flatnonzero(np.abs(table + table[::-1] - 1.0) > STRUCT_TOL)
    if unpaired.size:
        a = int(unpaired[0])
        return UncertaintyCheck(False, "self-duality", (a, ground.full ^ a))
    violated, first = _disjoint_scan(
        ground, table, lambda pair_sum, union: union > pair_sum + STRUCT_TOL, first_hit=True
    )
    if violated:
        return UncertaintyCheck(False, "subadditivity", first)
    return UncertaintyCheck(True, None, None)
