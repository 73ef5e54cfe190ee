"""Capacity construction, algebra and structural checks.

Belief/plausibility are pinned against literal double-sum oracles computed
here, independent of the package's zeta-transform route.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choqrisk import (
    Capacity,
    GroundSet,
    MassFunction,
    belief,
    credibility,
    distort,
    dominates_dual,
    from_probability,
    hurwicz,
    is_superadditive,
    is_uncertainty_measure,
    necessity,
    new_capacity,
    plausibility,
    possibility,
    unanimity,
)
from choqrisk.capacity import UncertaintyCheck, _zeta, coexistence_set
from choqrisk.errors import (
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


# --- oracles -----------------------------------------------------------

def bel_direct(m: MassFunction, a: int) -> float:
    """Literal subset sum, independent of the zeta-transform route."""
    return sum(v for b, v in enumerate(m.mass) if b & ~a == 0)


def pl_direct(m: MassFunction, a: int) -> float:
    """Literal intersecting sum."""
    return sum(v for b, v in enumerate(m.mass) if b & a != 0)


def mass_functions(n: int):
    """Hypothesis strategy for valid mass functions on n elements."""
    size = 1 << n

    def build(weights):
        total = sum(weights)
        if total == 0:
            weights = [1.0] * (size - 1)
            total = float(size - 1)
        mass = [0.0] + [w / total for w in weights]
        # renormalize the largest entry so the sum is exactly 1 up to float
        return MassFunction(GroundSet(n), tuple(mass))

    return st.lists(
        st.floats(0.0, 1.0, allow_nan=False), min_size=size - 1, max_size=size - 1
    ).map(build)


def tables():
    """Hypothesis strategy for (n, 2^n-entry table) with zeros and ties, n in 1..8."""
    values = st.sampled_from([0.0, 0.0, 0.125, 0.25, 0.25, 0.5, 0.75, 1.0])

    def build(n):
        size = 1 << n
        return st.lists(values, min_size=size, max_size=size).map(lambda t: (n, t))

    return st.integers(1, 8).flatmap(build)


def first_monotonicity_witness(table, n):
    """Reference: the first (A, A | {i}) breaking monotonicity, lowest i, then smallest A."""
    for i in range(n):
        for a in range(1 << n):
            if not a >> i & 1 and table[a] > table[a | 1 << i] + STRUCT_TOL:
                return a, a | 1 << i
    return None


# --- the subset transform -------------------------------------------------

@given(tables())
@settings(max_examples=80, deadline=None)
def test_zeta_is_the_sum_and_the_max_over_subsets(case):
    n, table = case
    sums, maxes = _zeta(table), _zeta(table, np.maximum)
    for a in range(1 << n):
        inside = [table[b] for b in range(1 << n) if b & ~a == 0]
        # the values are dyadic, so every order of summation is exact
        assert sums[a] == sum(inside)
        assert maxes[a] == max(inside)


@given(tables())
@settings(max_examples=80, deadline=None)
def test_first_not_monotone_witness_matches_reference(case):
    n, table = case
    table = [0.0] + table[1:-1] + [1.0]
    want = first_monotonicity_witness(table, n)
    if want is None:
        new_capacity(GroundSet(n), table)
        return
    with pytest.raises(NotMonotone) as info:
        new_capacity(GroundSet(n), table)
    assert (info.value.subset, info.value.superset) == want
    a, b = want
    assert str(info.value) == (
        f"monotonicity violated: table[{a:#b}]={table[a]!r} > table[{b:#b}]={table[b]!r}"
    )


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_dominates_dual_matches_reference_loop(n):
    from choqrisk.sampling import random_capacity, rng_from_seed

    rng, g = rng_from_seed(n), GroundSet(n)
    for k in range(60):
        mu = random_capacity(rng, g, ("fill", "zero-one", "belief")[k % 3])
        nu = random_capacity(rng, g, ("zero-one", "fill")[k % 2])
        worst, worst_gap = 0, -math.inf
        for a in g.subsets():
            gap = mu.table[a] - (1.0 - nu.table[g.full ^ a])
            if gap > worst_gap:
                worst, worst_gap = a, gap
        check = dominates_dual(mu, nu)
        assert (check.worst_set, check.gap, check.holds) == (worst, worst_gap, worst_gap <= STRUCT_TOL)


@given(st.integers(1, 10), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_from_probability_adds_members_from_the_lowest_up(n, seed):
    g = GroundSet(n)
    w = np.random.default_rng(seed).dirichlet(np.ones(n)).tolist()
    table = from_probability(g, w).table
    assert (table[0], table[g.full]) == (0.0, 1.0)
    for a in range(1, g.full):
        assert table[a] == sum(w[i] for i in range(n) if a >> i & 1)


def test_nan_fails_the_sum_and_endpoint_checks(g2):
    nan = float("nan")
    with pytest.raises(ValueError, match="sum"):
        MassFunction(GroundSet(1), (0.0, nan))
    with pytest.raises(ValueError, match="sum"):
        MassFunction(g2, (0.0, 0.5, nan, 0.5))
    with pytest.raises(BadWeights):
        from_probability(GroundSet(1), [nan])
    with pytest.raises(BadWeights):
        from_probability(g2, [nan, 1.0])
    with pytest.raises(NotNormalized):
        distort(from_probability(GroundSet(1), [1.0]), lambda p: nan)


# --- construction and validation ---------------------------------------

def test_single_element_capacity():
    cap = new_capacity(GroundSet(1), [0.0, 1.0])
    assert cap.table == (0.0, 1.0)


def test_monotonicity_witness_reported_before_normalization(g2):
    with pytest.raises(NotMonotone) as err:
        new_capacity(g2, [0.0, 0.6, 0.1, 0.5])
    assert (err.value.subset, err.value.superset) == (0b01, 0b11)


def test_valid_two_element_table(g2, mu_worked):
    # all four inclusion pairs checked by hand: 0<=.3, 0<=.5, .3<=1, .5<=1
    assert mu_worked.table == (0.0, 0.3, 0.5, 1.0)


def test_normalization_rejected(g2):
    with pytest.raises(NotNormalized):
        new_capacity(g2, [0.0, 0.3, 0.5, 0.9])
    with pytest.raises(NotNormalized):
        new_capacity(g2, [0.1, 0.3, 0.5, 1.0])


def test_wrong_table_length(g2):
    with pytest.raises(ValueError):
        new_capacity(g2, [0.0, 1.0])


def test_ground_set_validation():
    with pytest.raises(ValueError):
        GroundSet(0)
    with pytest.raises(ValueError):
        GroundSet(True)
    with pytest.raises(ValueError):
        GroundSet(21)
    with pytest.raises(ValueError):
        GroundSet(2, ("a",))
    with pytest.raises(ValueError):
        GroundSet(2, ("a", "a"))


# --- representation -------------------------------------------------------

WORKED = (0.0, 0.3, 0.5, 1.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: list(WORKED),
        lambda: WORKED,
        lambda: [0, 0, 1, 1],
        lambda: (-0.0, 0.25, 0.75, 1.0),
        lambda: np.array(WORKED),
        lambda: np.array(WORKED, dtype=np.float32),
        lambda: np.array([0, 0, 1, 1]),
        lambda: np.array([False, True, False, True]),
        lambda: np.array(WORKED)[::-1][::-1],
        lambda: ["0", "0.5", "0.5", "1"],
        lambda: (v for v in WORKED),
    ],
    ids=["list", "tuple", "ints", "minus-zero", "float64", "float32", "int64", "bool", "strided", "str", "generator"],
)
def test_table_is_the_tuple_of_float_of_the_input(g2, make):
    want = tuple(map(float, make()))
    cap = Capacity(g2, make())
    assert repr(cap.table) == repr(want)
    assert all(type(v) is float for v in cap.table)
    assert all(type(cap[m]) is float and repr(cap[m]) == repr(want[m]) for m in g2.subsets())
    assert cap[-1] == 1.0


def test_the_array_behind_a_capacity_is_read_only(g2):
    from dataclasses import FrozenInstanceError

    from choqrisk.capacity import _values

    source = np.array(WORKED)
    cap = Capacity(g2, source)
    source[1] = 0.9  # the capacity holds its own copy
    assert cap.table == WORKED
    for c in (cap, cap.dual()):
        with pytest.raises(ValueError, match="read-only"):
            _values(c)[1] = 0.4
        assert not _values(c).flags.writeable and _values(c).dtype == np.float64
        with pytest.raises(FrozenInstanceError):
            c.table = (0.0, 0.0, 0.0, 1.0)
        with pytest.raises(FrozenInstanceError):
            c.ground = GroundSet(2)
        with pytest.raises(FrozenInstanceError):
            del c.ground
    assert cap.table == WORKED


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_dual_table_is_one_minus_the_reversed_table(n):
    g = GroundSet(n)
    for seed in range(20):
        table = _zeta(np.random.default_rng(seed).random(g.size), np.maximum)
        table[0], table[-1] = -0.0 if seed % 2 else 0.0, 1.0
        t = table.tolist()
        dual = Capacity(g, t).dual()
        assert repr(dual.table) == repr(tuple(1.0 - x for x in reversed(t)))
        assert repr(dual.dual().table) == repr(tuple(1.0 - x for x in reversed(dual.table)))


@pytest.mark.parametrize("convert", [list, np.array], ids=["list", "array"])
def test_constructor_errors_are_unchanged(g2, convert):
    with pytest.raises(NotMonotone) as info:
        Capacity(g2, convert([0.0, 0.6, 0.1, 0.5]))
    assert (info.value.subset, info.value.superset) == (0b01, 0b11)
    assert str(info.value) == "monotonicity violated: table[0b1]=0.6 > table[0b11]=0.5"
    with pytest.raises(NotNormalized) as info:
        Capacity(g2, convert([0.1, 0.3, 0.5, 0.9]))
    assert str(info.value) == "table[empty]=0.1, table[full]=0.9; expected exactly 0.0 and 1.0"
    with pytest.raises(ValueError) as info:
        Capacity(g2, convert([0.0, 1.0]))
    assert type(info.value) is ValueError and str(info.value) == "table must have 4 entries, got 2"
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError) as info:
            Capacity(g2, convert([0.0, bad, 0.5, 1.0]))
        assert type(info.value) is ValueError and str(info.value) == "table entries must be finite"


def test_constructor_converts_entries_with_float(g2):
    for bad in ([0.0, None, 0.5, 1.0], [0.0, 1j, 0.5, 1.0], [0.0, [0.5], 0.5, 1.0], [0.0, "x", 0.5, 1.0]):
        with pytest.raises((TypeError, ValueError)) as got:
            Capacity(g2, bad)
        with pytest.raises((TypeError, ValueError)) as want:
            tuple(map(float, bad))
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


FLOAT_CONVERSION_CASES = [
    [0, 2**53 + 1, 2**60 + 3, -(2**63), 1],  # ints above 2^53, read as int64
    [0, 2**63, 1],  # above the int64 range, read as uint64
    [2**63, -1],  # read as float64
    [0, 2**64 + 1, 1],  # read as object
    [0, 0.5, 3, 2**53 + 1, 1.0],
    [True, False, 0.5],
    [True, False],
    [np.float32(0.1), 0.5],
    [np.float32(0.1), np.float32(0.7)],
    [-0.0, 0.0, 1],
    [0, 1j],
    [0.0, 1 + 0j],
    [0.0, "x"],
    [0.0, "0.5"],
    [[0.5], [0.5]],
    [0.0, [0.5]],
    [[0.0, 1.0], [0.5]],
    [0.0, None],
    [10**400],
    [0.5, 10**400],
    [10**400, 2**53],
    [],
]
FLOAT_CONVERSION_IDS = [
    "int64", "uint64", "int-float64", "int-object", "mixed", "bool-float", "bool", "float32-float",
    "float32", "signed-zeros", "complex", "complex-zero", "string", "numeric-string", "nested", "ragged",
    "ragged-nested", "none", "huge", "float-huge", "huge-int", "empty",
]


@pytest.mark.parametrize("convert", [list, tuple])
@pytest.mark.parametrize("entries", FLOAT_CONVERSION_CASES, ids=FLOAT_CONVERSION_IDS)
def test_a_list_or_tuple_converts_as_float_per_entry(entries, convert):
    from choqrisk.capacity import _float_array

    def outcome(read):
        try:
            arr = read(convert(entries))
        except Exception as exc:
            return type(exc), str(exc)
        return arr.dtype, arr.shape, arr.tobytes()

    assert outcome(_float_array) == outcome(lambda t: np.fromiter(map(float, t), float))


def test_a_capacity_pickles_and_deep_copies(mu_worked):
    import copy
    import pickle

    from choqrisk.capacity import _values

    for other in (pickle.loads(pickle.dumps(mu_worked)), copy.deepcopy(mu_worked), copy.copy(mu_worked)):
        assert other is not mu_worked and other != mu_worked and hash(other) != hash(mu_worked)
        assert other.ground == mu_worked.ground and other.table == mu_worked.table
        assert not _values(other).flags.writeable
    assert {mu_worked: 1}[mu_worked] == 1 and mu_worked == mu_worked


# reference loops over the table tuple, which the array methods must match exactly

def old_isclose(self, other, atol=STRUCT_TOL):
    if self.ground.n != other.ground.n:
        return False
    return all(abs(a - b) <= atol for a, b in zip(self.table, other.table))


def old_is_zero_one_valued(self):
    return all(v <= STRUCT_TOL or v >= 1.0 - STRUCT_TOL for v in self.table)


def old_coexistence_set(mu, nu, both_one=False):
    full = mu.ground.full
    for b in range(1, full):
        low = min(mu.table[b], nu.table[full ^ b])
        if low >= 1.0 - STRUCT_TOL if both_one else low > STRUCT_TOL:
            return b
    return None


def edge_tables(n, seed):
    """Monotone tables whose values sit on and beside the STRUCT_TOL thresholds."""
    edges = [0.0, STRUCT_TOL, 1.0 - STRUCT_TOL, 1.0, 0.5]
    edges += [np.nextafter(v, d) for v in edges[1:3] for d in (0.0, 2.0)]
    rng = np.random.default_rng(seed)
    for _ in range(40):
        table = _zeta(rng.choice(edges, 1 << n) * (rng.random(1 << n) < 0.4), np.maximum)
        table[0], table[-1] = 0.0, 1.0
        yield Capacity(GroundSet(n), table)


def test_table_checks_match_the_old_loops():
    from choqrisk.capacity import coexistence_set

    zero_one, found = set(), set()
    for n in range(1, 6):
        caps = list(edge_tables(n, n))
        for cap in caps:
            assert cap.is_zero_one_valued() is old_is_zero_one_valued(cap)
            zero_one.add(cap.is_zero_one_valued())
        for mu, nu in zip(caps, caps[1:] + caps[:1]):
            for both_one in (False, True):
                got = coexistence_set(mu, nu, both_one=both_one)
                assert got == old_coexistence_set(mu, nu, both_one=both_one)
                found.add((both_one, got is None))
            gap = float(np.max(np.abs(np.array(mu.table) - np.array(nu.table))))
            for atol in (0.0, gap, np.nextafter(gap, 0.0), np.nextafter(gap, 1.0), STRUCT_TOL, -1.0, math.nan, math.inf):
                assert mu.isclose(nu, atol) is old_isclose(mu, nu, atol)
                assert mu.isclose(mu, atol) is old_isclose(mu, mu, atol)
            other = GroundSet(n % 5 + 1)
            assert mu.isclose(Capacity(other, [0.0] * other.full + [1.0])) is False
    assert zero_one == {False, True} and len(found) == 4


# --- dual ---------------------------------------------------------------

def test_dual_worked_example(mu_worked):
    assert mu_worked.dual().table == (0.0, 0.5, 0.7, 1.0)


def test_dual_of_additive_is_itself(g2):
    p = from_probability(g2, [0.5, 0.5])
    assert p.dual().isclose(p)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_dual_involution(seed):
    from choqrisk.sampling import random_capacity, rng_from_seed

    cap = random_capacity(rng_from_seed(seed), GroundSet(3))
    back = cap.dual().dual()
    assert all(abs(a - b) <= 1e-15 for a, b in zip(cap.table, back.table))


def test_dual_skips_the_checks_and_keeps_a_tolerated_dip(monkeypatch):
    from choqrisk import capacity

    # {0} sits STRUCT_TOL above {0,1}, which the constructor tolerates; 1 - x rounds
    # both halfway values apart, so the conjugate's dip is one ulp wider than STRUCT_TOL
    x, y = 0.2860399031799084, 0.2860399031809084
    cap = Capacity(GroundSet(3), [0.0, y, 0.0, x, 0.0, y, x, 1.0])
    t = np.array(cap.table)
    monkeypatch.setattr(capacity, "_pairs", lambda table: pytest.fail("dual() ran the monotonicity scan"))
    dual = cap.dual()
    assert [v.hex() for v in dual.table] == [v.hex() for v in (1.0 - t[::-1]).tolist()]
    assert all(type(v) is float for v in dual.table) and dual.ground is cap.ground
    assert dual.table[0] == 0.0 and dual.table[-1] == 1.0


def test_the_dual_of_a_tolerated_dip_is_accepted():
    x, y = 0.2860399031799084, 0.2860399031809084
    cap = Capacity(GroundSet(3), [0.0, y, 0.0, x, 0.0, y, x, 1.0])
    dual = new_capacity(cap.ground, cap.dual().table)
    assert dual.table == cap.dual().table
    assert new_capacity(cap.ground, dual.dual().table).table == dual.dual().table


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_dual_of_every_accepted_table_is_accepted(n):
    """Tables with dips within a few ulps of STRUCT_TOL, on both sides of it.

    Every table that passes ``table[A] <= table[A | {i}] + STRUCT_TOL`` is
    accepted, and so are the dual of each accepted table and its dual.
    """
    from choqrisk.capacity import _zeta

    g, rng = GroundSet(n), np.random.default_rng(n)
    tested = near = 0
    for _ in range(1500):
        table = _zeta(rng.uniform(0.0, 1.0, g.size), np.maximum)
        table[0], table[-1] = 0.0, 1.0
        for _ in range(int(rng.integers(1, 4))):
            i = int(rng.integers(0, n))
            a = int(rng.integers(1, g.size)) & ~(1 << i) or 1 << (i + 1) % n
            # lift A to STRUCT_TOL above A | {i}, give or take a few ulps
            table[a] = table[a | 1 << i] + STRUCT_TOL + int(rng.integers(-4, 5)) * 2.0**-53
        values = table.tolist()
        old_rule = all(
            values[a] <= values[a | 1 << i] + STRUCT_TOL for a in range(g.size) for i in range(n) if not a >> i & 1
        )
        try:
            cap = new_capacity(g, values)
        except NotMonotone:
            assert not old_rule
            continue
        tested += 1
        dual = new_capacity(g, cap.dual().table)
        new_capacity(g, dual.dual().table)
        near += max(values[a] - values[a | 1 << i] for a in range(g.size) for i in range(n) if not a >> i & 1) > 0.0
    assert tested > 500 and near > 200


# --- additive construction ----------------------------------------------

def test_from_probability_point_mass(g3):
    p = from_probability(g3, [1.0, 0.0, 0.0])
    assert all(p.table[a] == (1.0 if a & 1 else 0.0) for a in g3.subsets())


def test_from_probability_additivity(g3):
    p = from_probability(g3, [0.2, 0.3, 0.5])
    assert p.table[0b101] == pytest.approx(0.7, abs=STRUCT_TOL)
    assert p.is_additive()


def test_from_probability_rejects_bad_weights(g2):
    with pytest.raises(BadWeights):
        from_probability(g2, [0.7, 0.7])
    with pytest.raises(BadWeights):
        from_probability(g2, [-0.1, 1.1])


# --- distortion ----------------------------------------------------------

def test_distort_identity_is_noop(g2):
    from choqrisk.weighting import Identity

    p = from_probability(g2, [0.4, 0.6])
    assert distort(p, Identity()).isclose(p)


def test_distort_kt_at_half(g2):
    # frozen via a 50-digit evaluation of the closed form at p = 0.5
    from choqrisk.weighting import KahnemanTversky

    p = from_probability(g2, [0.5, 0.5])
    cap = distort(p, KahnemanTversky(0.61))
    assert cap.table[0b01] == pytest.approx(0.4206393543357562, abs=1e-12)


def test_distort_square_on_grid(g2):
    p = from_probability(g2, [0.3, 0.7])
    cap = distort(p, lambda t: t * t)
    assert cap.table[0b10] == pytest.approx(0.49, abs=STRUCT_TOL)


def test_distort_requires_additive(mu_worked):
    with pytest.raises(NotAdditive):
        distort(mu_worked, lambda t: t)


# --- hurwicz --------------------------------------------------------------

def test_hurwicz_single_member_is_identity(g2):
    p = from_probability(g2, [0.2, 0.8])
    assert hurwicz([p], 0.3).isclose(p)


def test_hurwicz_lower_envelope(g2):
    p1 = from_probability(g2, [0.2, 0.8])
    p2 = from_probability(g2, [0.6, 0.4])
    low = hurwicz([p1, p2], 1.0)
    assert low.table[0b01] == pytest.approx(0.2, abs=STRUCT_TOL)


def test_hurwicz_even_mix(g2):
    p1 = from_probability(g2, [0.2, 0.8])
    p2 = from_probability(g2, [0.6, 0.4])
    mix = hurwicz([p1, p2], 0.5)
    assert mix.table[0b01] == pytest.approx(0.4, abs=STRUCT_TOL)


def test_hurwicz_errors(g2, mu_worked):
    with pytest.raises(EmptyFamily):
        hurwicz([], 0.5)
    with pytest.raises(NotAdditive):
        hurwicz([mu_worked], 0.5)


# --- possibility / necessity ----------------------------------------------

def test_possibility_all_ones(g3):
    cap = possibility(g3, [1.0, 1.0, 1.0])
    assert all(cap.table[a] == 1.0 for a in range(1, g3.size))


def test_possibility_necessity_worked(g2):
    pos = possibility(g2, [1.0, 0.3])
    nec = necessity(g2, [1.0, 0.3])
    assert pos.table[0b10] == pytest.approx(0.3, abs=STRUCT_TOL)
    assert nec.table[0b01] == pytest.approx(0.7, abs=STRUCT_TOL)


def test_possibility_is_maxitive(g3):
    cap = possibility(g3, [0.4, 1.0, 0.7])
    for a in g3.subsets():
        for b in g3.subsets():
            assert cap.table[a | b] == max(cap.table[a], cap.table[b])


def test_necessity_is_minitive(g3):
    cap = necessity(g3, [0.4, 1.0, 0.7])
    for a in g3.subsets():
        for b in g3.subsets():
            assert cap.table[a & b] == pytest.approx(
                min(cap.table[a], cap.table[b]), abs=1e-15
            )


def test_possibility_rejects_unnormalized(g2):
    with pytest.raises(BadPsi):
        possibility(g2, [0.4, 0.9])


# --- unanimity -------------------------------------------------------------

def test_unanimity_full_coalition(g2):
    cap = unanimity(g2, g2.full)
    assert cap.table == (0.0, 0.0, 0.0, 1.0)


def test_unanimity_singleton(g2):
    cap = unanimity(g2, 0b01)
    assert cap.table == (0.0, 1.0, 0.0, 1.0)


def test_unanimity_singleton_self_dual_on_two_elements(g2):
    cap = unanimity(g2, 0b01)
    assert cap.dual().table == (0.0, 1.0, 0.0, 1.0)


def test_unanimity_empty_coalition(g2):
    with pytest.raises(EmptyCoalition):
        unanimity(g2, 0)


# --- mass functions, belief, plausibility -----------------------------------

def test_mass_function_validation(g2):
    with pytest.raises(ValueError):
        MassFunction(g2, (0.1, 0.4, 0.0, 0.5))  # empty set carries mass
    with pytest.raises(ValueError):
        MassFunction(g2, (0.0, 0.4, 0.0, 0.5))  # sums to 0.9


def test_belief_plausibility_worked(mass_half):
    bel = belief(mass_half)
    pl = plausibility(mass_half)
    assert bel.table[0b01] == pytest.approx(0.5, abs=STRUCT_TOL)
    assert pl.table[0b01] == pytest.approx(1.0, abs=STRUCT_TOL)
    assert bel.table[0b10] == pytest.approx(0.0, abs=STRUCT_TOL)
    assert pl.table[0b10] == pytest.approx(0.5, abs=STRUCT_TOL)


def test_total_ignorance(g2):
    m = MassFunction(g2, (0.0, 0.0, 0.0, 1.0))
    bel, pl = belief(m), plausibility(m)
    assert bel.table == (0.0, 0.0, 0.0, 1.0)
    assert pl.table == (0.0, 1.0, 1.0, 1.0)


def test_singleton_masses_are_additive(g2):
    m = MassFunction(g2, (0.0, 0.3, 0.7, 0.0))
    bel, pl = belief(m), plausibility(m)
    assert bel.isclose(pl)
    assert bel.is_additive()


@given(mass_functions(3))
@settings(max_examples=60, deadline=None)
def test_belief_plausibility_match_direct_sums(m):
    bel, pl = belief(m), plausibility(m)
    for a in m.ground.subsets():
        assert bel.table[a] == pytest.approx(bel_direct(m, a), abs=1e-9)
        assert pl.table[a] == pytest.approx(pl_direct(m, a), abs=1e-9)


@given(mass_functions(3))
@settings(max_examples=60, deadline=None)
def test_plausibility_is_dual_of_belief(m):
    assert plausibility(m).isclose(belief(m).dual(), atol=STRUCT_TOL)


# --- credibility -------------------------------------------------------------

def test_credibility_worked(g2):
    cr = credibility(g2, [1.0, 1.0])
    assert cr.table[0b01] == pytest.approx(0.5, abs=STRUCT_TOL)


def test_credibility_requires_max_one(g2):
    with pytest.raises(NotNormalized):
        credibility(g2, [0.8, 0.6])


def test_credibility_self_dual(g3):
    cr = credibility(g3, [0.2, 1.0, 0.6])
    for a in g3.subsets():
        assert cr.table[a] + cr.table[g3.full ^ a] == pytest.approx(1.0, abs=STRUCT_TOL)


def test_credibility_is_uncertainty_measure(g3):
    cr = credibility(g3, [0.2, 1.0, 0.6])
    assert is_uncertainty_measure(cr).holds


# --- structural checks --------------------------------------------------------

def test_dominance_equality_case(mu_worked):
    nu = mu_worked.dual()
    check = dominates_dual(mu_worked, nu)
    assert check.holds and check.gap == pytest.approx(0.0, abs=1e-15)


def test_dominance_violated_by_pl_pair(pl_pair):
    pl, _ = pl_pair
    check = dominates_dual(pl, pl)
    assert not check.holds
    assert check.gap == pytest.approx(0.5, abs=STRUCT_TOL)
    # Pl({1}) = 1 > 1 - Pl({2}) = 0.5


def test_dominance_restated_form_agrees(g3):
    from choqrisk.sampling import random_capacity, rng_from_seed

    rng = rng_from_seed(7)
    for _ in range(40):
        mu = random_capacity(rng, g3)
        nu = random_capacity(rng, g3)
        check = dominates_dual(mu, nu)
        restated = all(
            mu.table[a] + nu.table[g3.full ^ a] <= 1.0 + STRUCT_TOL for a in g3.subsets()
        )
        assert check.holds == restated


def test_dominance_ground_mismatch(mu_worked, g3):
    from choqrisk import from_probability

    other = from_probability(g3, [0.2, 0.3, 0.5])
    with pytest.raises(GroundSetMismatch):
        dominates_dual(mu_worked, other)


def test_dominance_and_coexistence_hold_one_temporary_at_n18():
    """At n = 18 the traced peak of dominates_dual and of coexistence_set stays within
    1.25 tables of 8 * 2^18 bytes, and their results are the old two-temporary formulas'."""
    import tracemalloc

    g = GroundSet(18)
    table = np.bitwise_count(np.arange(g.size)) / 18.0
    mu, nu = Capacity(g, table), Capacity(g, table**2)
    mu_t, nu_rev = np.asarray(mu.table), np.asarray(nu.table)[::-1]
    gaps = mu_t - (1.0 - nu_rev)
    low = np.minimum(mu_t[1 : g.full], nu_rev[1 : g.full])
    [hits] = (low > STRUCT_TOL).nonzero()
    want = {
        "dominates_dual": (int(gaps.argmax()), float(gaps[gaps.argmax()])),
        "coexistence_set": int(hits[0]) + 1,
        "coexistence_set both_one": None,
    }
    checks = {
        "dominates_dual": lambda: dominates_dual(mu, nu),
        "coexistence_set": lambda: coexistence_set(mu, nu),
        "coexistence_set both_one": lambda: coexistence_set(mu, nu, both_one=True),
    }
    for name, run in checks.items():
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            got = run()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * g.size, (name, peak / (8 * g.size))
        if name == "dominates_dual":
            got = (got.worst_set, got.gap)
        assert got == want[name]


def test_belief_functions_are_superadditive(mass_half, g3):
    assert is_superadditive(belief(mass_half)).holds
    from choqrisk.sampling import random_mass_function, rng_from_seed

    rng = rng_from_seed(11)
    for _ in range(25):
        m = random_mass_function(rng, g3)
        assert is_superadditive(belief(m)).holds


def test_superadditivity_witness(g2, pl_pair):
    pl, _ = pl_pair
    check = is_superadditive(pl)
    assert not check.holds
    a, b = check.witness
    assert pl.table[a] + pl.table[b] > pl.table[a | b] + STRUCT_TOL


def test_zero_one_detection(g2, mu_worked):
    assert unanimity(g2, 1).is_zero_one_valued()
    assert not mu_worked.is_zero_one_valued()


def test_uncertainty_measure_axioms(g2):
    assert is_uncertainty_measure(unanimity(g2, 0b01)).holds
    bad = new_capacity(g2, [0.0, 0.3, 0.3, 1.0])
    check = is_uncertainty_measure(bad)
    assert not check.holds and check.failing_axiom == "self-duality"


def test_uncertainty_measure_subadditivity_failure(g3):
    # self-dual (0.2 + 0.8 = 1) but two singletons join to more than their sum
    table = [0.8 if bin(a).count("1") == 2 else 0.2 for a in g3.subsets()]
    table[0], table[g3.full] = 0.0, 1.0
    m = new_capacity(g3, table)
    check = is_uncertainty_measure(m)
    assert not check.holds and check.failing_axiom == "subadditivity"
    a, b = check.witness
    assert m[a | b] > m[a] + m[b] + STRUCT_TOL


def test_pair_walks_refuse_n_above_the_cap():
    g = GroundSet(17)
    p = from_probability(g, [2.0**-k for k in range(1, 17)] + [2.0**-16])
    with pytest.raises(TooLarge):
        is_superadditive(p)
    with pytest.raises(TooLarge):
        is_uncertainty_measure(p)


def disjoint_walk(n: int):
    """The 3^n disjoint pairs (A, B) one at a time: A ascending, B over the subsets of A's
    complement, descending."""
    full = (1 << n) - 1
    for a in range(1 << n):
        rest = full ^ a
        b = rest
        while True:
            yield a, b
            if b == 0:
                break
            b = (b - 1) & rest


def tied_capacities(rng, n: int):
    """Monotone tables on a coarse value grid (many exact ties), their self-dual averages, and a belief."""
    for _ in range(6):
        masses = rng.random(1 << n)
        masses[0] = 0.0
        table = _zeta(masses)
        levels = int(rng.integers(2, 7))
        table = np.round(table / table[-1] * levels) / levels
        table[0], table[-1] = 0.0, 1.0
        yield table.tolist()
        yield ((table + 1.0 - table[::-1]) / 2.0).tolist()
    masses = rng.random(1 << n)
    masses[0] = 0.0
    yield (_zeta(masses / masses.sum())).tolist()


@pytest.mark.parametrize("block_n", [12, 2], ids=["one-block", "blocks-of-9"])
@pytest.mark.parametrize("n", range(1, 8))
def test_pair_scan_matches_the_walk_bit_for_bit(n, block_n, monkeypatch):
    from choqrisk import capacity

    monkeypatch.setattr(capacity, "PAIR_BLOCK_N", block_n)
    rng = np.random.default_rng(700 + n)
    for table in tied_capacities(rng, n):
        table[0], table[-1] = 0.0, 1.0
        c = new_capacity(GroundSet(n), table)
        t = c.table
        worst, worst_gap = None, float("-inf")
        for a, b in disjoint_walk(n):
            gap = t[a] + t[b] - t[a | b]
            if gap > worst_gap:
                worst, worst_gap = (a, b), gap
        holds = worst_gap <= STRUCT_TOL
        got = is_superadditive(c)
        assert (got.holds, got.witness, got.gap.hex()) == (holds, None if holds else worst, worst_gap.hex())

        want = UncertaintyCheck(True, None, None)
        if t[-1] != 1.0:
            want = UncertaintyCheck(False, "normalization", ((1 << n) - 1,))
        elif any(abs(t[a] + t[-1 - a] - 1.0) > STRUCT_TOL for a in range(1 << n)):
            a = next(a for a in range(1 << n) if abs(t[a] + t[-1 - a] - 1.0) > STRUCT_TOL)
            want = UncertaintyCheck(False, "self-duality", (a, (1 << n) - 1 - a))
        else:
            for a, b in disjoint_walk(n):
                if t[a | b] > t[a] + t[b] + STRUCT_TOL:
                    want = UncertaintyCheck(False, "subadditivity", (a, b))
                    break
        assert is_uncertainty_measure(c) == want


def test_pair_scan_refuses_n_17_before_building_its_blocks(monkeypatch):
    from choqrisk import capacity

    def unreachable(*args):
        raise AssertionError("the pair scan allocated before checking n")

    p = from_probability(GroundSet(17), [2.0**-k for k in range(1, 17)] + [2.0**-16])
    monkeypatch.setattr(capacity, "_disjoint_assignments", unreachable)
    with pytest.raises(TooLarge):
        is_superadditive(p)


def test_pair_scan_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call, which costs time and memory in a fresh process
    code = (
        "import sys\n"
        "from choqrisk import GroundSet, is_superadditive\n"
        "from choqrisk.sampling import random_capacity, rng_from_seed\n"
        "mu = random_capacity(rng_from_seed(5), GroundSet(13))\n"
        "print('numpy.ma' in sys.modules)\n"
        "is_superadditive(mu)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False", "False"]


def test_capacity_repr_uses_labels():
    g = GroundSet(2, ("rain", "sun"))
    cap = new_capacity(g, [0.0, 0.4, 0.5, 1.0])
    assert "rain" in repr(cap)
