"""Exact integral evaluation against the quadrature oracle and hand values.

Expected numbers tagged by hand evaluation were derived by summing the two
step-function tails directly and cross-checked with riemann_oracle at
step 1e-5 before freezing.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choqrisk import (
    GroundSet,
    IntervalI,
    RandomVariable,
    ax_bx,
    choquet,
    from_probability,
    gen_choquet,
    gen_choquet_batch,
    in_l_class,
    lower_tail,
    new_capacity,
    riemann_oracle,
    scaled_integral,
    sipos,
    step_integral,
    survival,
    translation_gap,
    unanimity,
)
from choqrisk import integral
from choqrisk.capacity import _check_same_ground, _values
from choqrisk.errors import GroundSetMismatch, NotZeroOneValued, TooLarge
from choqrisk.integral import ORACLE_MAX_CELLS, _cell_sums, _collapse_ends, _halves, _step_cells
from choqrisk.premium import Scenario, risk_neutral_premium
from choqrisk.utility import Exponential
from choqrisk.sampling import random_capacity, random_variable, rng_from_seed
from choqrisk.theorems import zero_at_zero_gallery

DERIVED_TOL = 1e-9


# --- survival / lower tail ----------------------------------------------

def test_survival_below_min_is_one(mu_worked, x_worked):
    assert survival(mu_worked, x_worked, -5.0) == 1.0


def test_survival_worked(mu_worked, x_worked):
    # event {X > 0} = {1}
    assert survival(mu_worked, x_worked, 0.0) == 0.3


def test_strict_vs_nonstrict_differ_only_at_atoms(mu_worked, x_worked):
    ts = np.linspace(-3.0, 5.0, 801)
    atoms = set(x_worked.values)
    for t in ts:
        s, ns = survival(mu_worked, x_worked, t), survival(mu_worked, x_worked, t, strict=False)
        if t not in atoms:
            assert s == ns
    assert survival(mu_worked, x_worked, 4.0) != survival(mu_worked, x_worked, 4.0, strict=False)


def test_lower_tail_worked(nu_worked, x_worked):
    # event {X < 0} = {2}
    assert lower_tail(nu_worked, x_worked, 0.0) == 0.7


# --- gen_choquet exact values ---------------------------------------------

def test_constant_variable_integrates_to_itself(mu_worked, nu_worked, g2):
    for c in (-3.0, 0.0, 2.5):
        x = RandomVariable(g2, (c, c))
        assert gen_choquet(mu_worked, nu_worked, x) == pytest.approx(c, abs=1e-15)


def test_worked_example(mu_worked, nu_worked, x_worked):
    # 4 * mu({1}) - 2 * nu({2}) = 1.2 - 1.4
    value = gen_choquet(mu_worked, nu_worked, x_worked)
    assert value == pytest.approx(-0.2, abs=1e-14)
    assert value == pytest.approx(riemann_oracle(mu_worked, nu_worked, x_worked, 1e-5), abs=1e-4)


def test_additive_pair_reduces_to_expectation(g2, x_worked):
    p = from_probability(g2, [0.5, 0.5])
    assert gen_choquet(p, p, x_worked) == pytest.approx(1.0, abs=1e-15)


def test_choquet_worked(mu_worked, g2):
    x = RandomVariable(g2, (1.0, 3.0))
    value = choquet(mu_worked, x)
    assert value == pytest.approx(2.0, abs=1e-15)  # 1 + 2 * mu({2})
    assert value == pytest.approx(
        riemann_oracle(mu_worked, mu_worked.dual(), x, 1e-5), abs=1e-4
    )


def test_choquet_equals_gen_on_nonnegative(mu_worked, nu_worked, g2):
    x = RandomVariable(g2, (1.0, 3.0))
    assert choquet(mu_worked, x) == gen_choquet(mu_worked, nu_worked, x)


def test_sipos_is_odd(mu_worked, g2):
    rng = rng_from_seed(3)
    for _ in range(50):
        x = random_variable(rng, g2)
        assert sipos(mu_worked, -x) == pytest.approx(-sipos(mu_worked, x), abs=1e-12)


def test_ground_mismatch(mu_worked, g3):
    other = RandomVariable(g3, (1.0, 2.0, 3.0))
    with pytest.raises(GroundSetMismatch):
        gen_choquet(mu_worked, mu_worked, other)


# --- oracle equivalence -----------------------------------------------------

def test_oracle_on_constant(mu_worked, nu_worked, g2):
    x = RandomVariable(g2, (2.5, 2.5))
    assert riemann_oracle(mu_worked, nu_worked, x, 1e-5) == pytest.approx(2.5, abs=1e-4)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_oracle_matches_exact_on_wide_values(seed):
    rng = rng_from_seed(seed)
    n = int(rng.integers(2, 7))
    ground = GroundSet(n)
    mu = random_capacity(rng, ground)
    nu = random_capacity(rng, ground)
    x = random_variable(rng, ground, -100.0, 100.0)
    step = 1e-2
    exact = gen_choquet(mu, nu, x)
    approx = riemann_oracle(mu, nu, x, step)
    assert abs(exact - approx) <= (n + 1) * step


def reference_oracle(mu, nu, x, step=1e-4):
    """``riemann_oracle`` as it was when it held n x cells mask arrays, kept verbatim as the
    reference for the per-cell masks."""
    _check_same_ground(mu, nu, x)
    if not 0.0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step!r}")
    cells = (max(x.max, 0.0) - min(x.min, 0.0)) / step
    if x.ground.n * cells > ORACLE_MAX_CELLS:
        raise TooLarge(
            f"oracle needs {x.ground.n} x {cells:.3g} mask cells, over the cap of "
            f"{ORACLE_MAX_CELLS:.0e}; use a larger step"
        )
    vals = np.asarray(x.values, dtype=float)
    mu_arr = np.asarray(mu.table, dtype=float)
    nu_arr = np.asarray(nu.table, dtype=float)
    bits = 1 << np.arange(x.ground.n, dtype=np.int64)

    total = 0.0
    hi = max(float(vals.max()), 0.0)
    if hi > 0.0:
        k = max(1, math.ceil(hi / step))
        h = hi / k
        mids = (np.arange(k) + 0.5) * h
        masks = ((vals[:, None] > mids[None, :]).astype(np.int64) * bits[:, None]).sum(axis=0)
        total += h * float(mu_arr[masks].sum())
    lo = min(float(vals.min()), 0.0)
    if lo < 0.0:
        k = max(1, math.ceil(-lo / step))
        h = -lo / k
        mids = lo + (np.arange(k) + 0.5) * h
        masks = ((vals[:, None] < mids[None, :]).astype(np.int64) * bits[:, None]).sum(axis=0)
        total -= h * float(nu_arr[masks].sum())
    return total


@pytest.mark.parametrize("n", range(1, 9))
def test_oracle_matches_the_n_by_cells_reference(n):
    ground = GroundSet(n)
    rng = rng_from_seed(900 + n)
    shapes = {
        "mixed": lambda v: v,
        "ties": lambda v: np.round(v),
        "positive": lambda v: np.abs(v) + 0.25,
        "negative": lambda v: -np.abs(v) - 0.25,
        "constant": lambda v: np.full_like(v, v[0]),
    }
    for _ in range(6):
        mu, nu = random_capacity(rng, ground), random_capacity(rng, ground)
        raw = rng.uniform(-4.0, 4.0, n)
        for shape in shapes.values():
            x = RandomVariable(ground, tuple(shape(raw).tolist()))
            for step in (0.7, 0.05, 3e-3):
                assert repr(riemann_oracle(mu, nu, x, step)) == repr(reference_oracle(mu, nu, x, step))


def test_oracle_shares_no_code_with_the_exact_path(mu_worked, nu_worked, x_worked, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the oracle reached the exact path")

    for name in ("_order", "_event", "_walk", "_plan", "_halves", "gen_choquet"):
        monkeypatch.setattr(integral, name, fail)
    got = riemann_oracle(mu_worked, nu_worked, x_worked, 1e-3)
    assert repr(got) == repr(reference_oracle(mu_worked, nu_worked, x_worked, 1e-3))


# --- C1: tail conventions ----------------------------------------------------
# the scalar walk reads the strict tails off the tie groups, the batched halves
# the weak tails off the plan

@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_tail_conventions_agree_exactly(seed):
    rng = rng_from_seed(seed)
    ground = GroundSet(int(rng.integers(2, 5)))
    mu = random_capacity(rng, ground)
    nu = random_capacity(rng, ground)
    x = random_variable(rng, ground)
    assert bits(gen_choquet(mu, nu, x)) == bits(gen_choquet_batch(mu, nu, [x.values])[0])


def test_tail_conventions_with_ties(mu_worked, nu_worked, g2):
    x = RandomVariable(g2, (2.0, 2.0))
    assert bits(gen_choquet(mu_worked, nu_worked, x)) == bits(gen_choquet_batch(mu_worked, nu_worked, [x.values])[0])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_walk_parts_recombine_to_the_integral_bit_for_bit(n):
    """The tail trial walks each capacity alone: the gains part of a walk under (mu, mu) and
    the loss part under (nu, nu), the one less the other as the tail trial takes them, are
    gen_choquet of (mu, nu) and the halves' rows bit for bit, with ties, zeros and -0.0 in X.
    The walk gives the same bits in every ascending order (ties taken last index first) and
    refuses, with None, an order that is not ascending."""
    from choqrisk.capacity import _values

    rng, ground = rng_from_seed(100 + n), GroundSet(n)
    pool = np.array([0.0, -0.0, 1.5, -1.5, 2.0, -0.25, 3.0, -4.0])
    for k in range(40):
        mu, nu = (random_capacity(rng, ground, style) for style in (("fill", "zero-one", "belief")[k % 3], "fill"))
        xs = np.concatenate([rng.choice(pool, (6, n)), rng.uniform(-3, 3, (2, n))])
        gains, losses = _halves((_values(mu), _values(nu)), xs)
        for r, x in enumerate(xs.tolist()):
            order = integral._order(x)
            total, lower = integral._walk(mu, nu, x, order, ground.full)
            assert (total, lower) == (integral._walk(mu, mu, x, order, ground.full)[0],
                                      integral._walk(nu, nu, x, order, ground.full)[1])
            assert (bits(total), bits(lower)) == (bits(gains[0, r]), bits(losses[1, r]))
            ties_reversed = sorted(range(n), key=lambda i: (x[i], -i))
            assert repr(integral._walk(mu, nu, x, ties_reversed, ground.full)) == repr((total, lower))
            if len(set(x)) > 1:
                assert integral._walk(mu, nu, x, order[::-1], ground.full) is None
            assert bits(total - lower) == bits(gen_choquet(mu, nu, RandomVariable(ground, x)))


# --- C2: monotonicity ---------------------------------------------------------

@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_pointwise_monotonicity(seed):
    rng = rng_from_seed(seed)
    ground = GroundSet(int(rng.integers(2, 5)))
    mu = random_capacity(rng, ground)
    nu = random_capacity(rng, ground)
    x = random_variable(rng, ground)
    y = RandomVariable(ground, tuple(v + d for v, d in zip(x.values, rng.uniform(0, 5, ground.n))))
    assert gen_choquet(mu, nu, x) <= gen_choquet(mu, nu, y) + 1e-12


# --- C3: homogeneity with capacity swap ----------------------------------------

def test_scale_by_zero(mu_worked, nu_worked, x_worked):
    assert scaled_integral(mu_worked, nu_worked, x_worked, 0.0) == 0.0


def test_scale_by_two(mu_worked, nu_worked, x_worked):
    assert scaled_integral(mu_worked, nu_worked, x_worked, 2.0) == pytest.approx(-0.4, abs=1e-14)


def test_scale_minus_one_swaps_capacities(mu_worked, nu_worked, x_worked):
    assert scaled_integral(mu_worked, nu_worked, x_worked, -1.0) == pytest.approx(
        -gen_choquet(nu_worked, mu_worked, x_worked), abs=1e-14
    )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_homogeneity_contract(seed):
    rng = rng_from_seed(seed)
    ground = GroundSet(int(rng.integers(2, 5)))
    mu = random_capacity(rng, ground)
    nu = random_capacity(rng, ground)
    x = random_variable(rng, ground)
    b = float(rng.uniform(-4, 4))
    lhs = scaled_integral(mu, nu, x, b)
    rhs = b * (gen_choquet(mu, nu, x) if b > 0 else gen_choquet(nu, mu, x))
    assert lhs == pytest.approx(rhs, abs=1e-12)


# --- C4: translation identity ----------------------------------------------------

def test_translation_zero_shift(mu_worked, nu_worked, x_worked):
    tg = translation_gap(mu_worked, nu_worked, x_worked, 0.0)
    assert tg.lhs == 0.0 and tg.correction == 0.0


def test_translation_invariance_for_conjugate_pair(mu_worked, x_worked):
    # nu = dual(mu): integrand vanishes off the atoms, so both sides are 0
    tg = translation_gap(mu_worked, mu_worked.dual(), x_worked, 3.0)
    assert tg.correction == pytest.approx(0.0, abs=1e-15)
    assert tg.lhs == pytest.approx(0.0, abs=1e-12)


def test_translation_unanimity_example(g2):
    mu = unanimity(g2, 0b01)
    x = RandomVariable(g2, (4.0, -2.0))
    tg = translation_gap(mu, mu, x, 3.0)
    assert tg.correction == pytest.approx(0.0, abs=1e-15)
    assert tg.lhs == pytest.approx(0.0, abs=1e-15)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_translation_identity(seed):
    rng = rng_from_seed(seed)
    ground = GroundSet(int(rng.integers(2, 5)))
    mu = random_capacity(rng, ground)
    nu = random_capacity(rng, ground)
    x = random_variable(rng, ground)
    a = float(rng.uniform(-10, 10))
    tg = translation_gap(mu, nu, x, a)
    assert tg.lhs == pytest.approx(tg.correction, abs=1e-9)


# --- tail-collapse points -----------------------------------------------------

def test_ax_bx_dirac(g2):
    mu = unanimity(g2, 0b01)
    x = RandomVariable(g2, (4.0, -2.0))
    a, b = ax_bx(mu, mu, x)
    assert (a, b) == (0.0, 4.0)
    assert gen_choquet(mu, mu, x) == 4.0


def test_ax_bx_two_coalitions(g2):
    mu = unanimity(g2, 0b01)
    nu = unanimity(g2, 0b10)
    x = RandomVariable(g2, (3.0, -1.0))
    a, b = ax_bx(mu, nu, x)
    assert (a, b) == (-1.0, 3.0)
    assert gen_choquet(mu, nu, x) == 2.0


def test_ax_is_zero_for_nonnegative(g2):
    mu = unanimity(g2, 0b10)
    x = RandomVariable(g2, (0.5, 2.0))
    a, b = ax_bx(mu, mu, x)
    assert a == 0.0


def test_ax_bx_requires_zero_one(mu_worked, x_worked):
    with pytest.raises(NotZeroOneValued):
        ax_bx(mu_worked, mu_worked, x_worked)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_collapse_identity(seed):
    rng = rng_from_seed(seed)
    ground = GroundSet(int(rng.integers(2, 5)))
    mu = random_capacity(rng, ground, style="zero-one")
    nu = random_capacity(rng, ground, style="zero-one")
    x = random_variable(rng, ground)
    a, b = ax_bx(mu, nu, x)
    assert gen_choquet(mu, nu, x) == a + b


# --- membership ------------------------------------------------------------------

def test_in_l_unbounded(mu_worked, nu_worked, x_worked):
    assert in_l_class(mu_worked, nu_worked, x_worked)


def test_in_l_constant_inside(mu_worked, nu_worked, g2):
    x = RandomVariable(g2, (0.5, 0.5))
    assert in_l_class(mu_worked, nu_worked, x, IntervalI(-1.0, 1.0))


def test_in_l_value_outside(mu_worked, nu_worked, x_worked):
    assert not in_l_class(mu_worked, nu_worked, x_worked, IntervalI(-1.0, 5.0))


def test_interval_must_contain_zero():
    with pytest.raises(ValueError):
        IntervalI(0.5, 2.0)


# --- step_integral ------------------------------------------------------------------

def test_step_integral_of_indicator():
    f = lambda t: 1.0 if t < 2.0 else 0.0
    assert step_integral(f, 0.0, 5.0, [2.0]) == pytest.approx(2.0, abs=1e-15)


def test_step_integral_orientation():
    f = lambda t: 3.0
    assert step_integral(f, 1.0, 0.0, []) == pytest.approx(-3.0, abs=1e-15)


def test_step_integral_empty_range():
    assert step_integral(lambda t: 5.0, 2.0, 2.0, []) == 0.0


@pytest.mark.parametrize("lo, hi, name", [
    (math.nan, 1.0, "lo"), (0.0, math.inf, "hi"), (-math.inf, 0.0, "lo"), (1.0, math.nan, "hi"),
    (math.inf, math.inf, "lo"),
])
def test_step_integral_refuses_a_non_finite_bound(lo, hi, name):
    with pytest.raises(ValueError, match=f"bound {name} must be finite"):
        step_integral(lambda t: 1.0, lo, hi)


def test_step_cells_sum_to_step_integral_bitwise():
    # the batched cells of the risk-neutral premium and the translation trial against the scalar
    # integral of the same tail-gap integrand: ties, values at the ends, reversed and empty ranges
    rng = np.random.default_rng(23)
    for n in (1, 2, 3, 5):
        ground = GroundSet(n)
        mu, nu = random_capacity(rng_from_seed(n), ground), random_capacity(rng_from_seed(n + 9), ground)
        pool = np.array([-2.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0])
        xs = np.where(rng.random((300, n)) < 0.5, rng.choice(pool, (300, n)), rng.uniform(-3.0, 3.0, (300, n)))
        lo = np.where(rng.random(300) < 0.3, rng.choice(pool, 300), rng.uniform(-3.0, 3.0, 300))
        hi = np.where(rng.random(300) < 0.3, rng.choice(pool, 300), rng.uniform(-3.0, 3.0, 300))
        hi[::7] = lo[::7]
        width, above, below, sign = _step_cells(xs, lo, hi)
        mu_t, nu_t = np.asarray(mu.table), np.asarray(nu.table)
        sums = _cell_sums(width, sign, mu_t[above] - (1.0 - nu_t[below]))
        for x, a, b, got in zip(xs.tolist(), lo.tolist(), hi.tolist(), sums.tolist()):
            rv = RandomVariable(ground, x)

            def integrand(s):
                return survival(mu, rv, s) - (1.0 - lower_tail(nu, rv, s))

            assert repr(got) == repr(step_integral(integrand, a, b, x))


# --- random variable arithmetic ------------------------------------------------------

def test_rv_operators(g2):
    x = RandomVariable(g2, (1.0, -2.0))
    assert (x + 1.0).values == (2.0, -1.0)
    assert (1.0 - x).values == (0.0, 3.0)
    assert (x * -2.0).values == (-2.0, 4.0)
    assert (-x).values == (-1.0, 2.0)
    assert x.map(abs).values == (1.0, 2.0)
    assert x.min == -2.0 and x.max == 1.0


def test_rv_requires_finite(g2):
    with pytest.raises(ValueError):
        RandomVariable(g2, (1.0, math.inf))


# --- batched kernel ------------------------------------------------------------------

# a small value set with 0 in it, so rows carry ties and zeros
KERNEL_VALUES = (-2.5, -1.0, -0.25, 0.0, 0.5, 1.0, 3.0)


def kernel_rows(n):
    return st.lists(
        st.lists(st.sampled_from(KERNEL_VALUES), min_size=n, max_size=n), min_size=1, max_size=12
    )


def zero_one_capacity(ground, coalitions):
    """1 exactly on supersets of some coalition: the {0,1}-valued capacities."""
    return new_capacity(
        ground,
        [1.0 if any(a & c == c for c in coalitions) else 0.0 for a in range(ground.size)],
    )


@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=80, deadline=None)
def test_batch_matches_scalar_bitwise_under_both_conventions(n, seed, data):
    ground = GroundSet(n)
    rng = rng_from_seed(seed)
    mu, nu = random_capacity(rng, ground), random_capacity(rng, ground)
    rows = data.draw(kernel_rows(n))
    got = gen_choquet_batch(mu, nu, rows)
    want = np.array([gen_choquet(mu, nu, RandomVariable(ground, tuple(r))) for r in rows])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    step = 1e-3
    for r, c in zip(rows, got):
        assert abs(c - riemann_oracle(mu, nu, RandomVariable(ground, tuple(r)), step)) <= 2 * step


@given(st.integers(1, 6), st.data())
@settings(max_examples=80, deadline=None)
def test_batch_zero_one_collapse_is_exact(n, data):
    ground = GroundSet(n)
    masks = st.lists(st.integers(1, ground.full), min_size=1, max_size=3)
    mu = zero_one_capacity(ground, data.draw(masks))
    nu = zero_one_capacity(ground, data.draw(masks))
    rows = data.draw(kernel_rows(n))
    for f in zero_at_zero_gallery():
        got = gen_choquet_batch(mu, nu, [[f.value(v) for v in r] for r in rows])
        for r, c in zip(rows, got):
            x = RandomVariable(ground, tuple(r))
            a_x, b_x = ax_bx(mu, nu, x)
            assert c == f.value(a_x) + f.value(b_x)
            assert c == gen_choquet(mu, nu, x.map(f.value))


def test_batch_rejects_bad_rows(mu_worked, nu_worked):
    for bad in ([[1.0, 2.0, 3.0]], [1.0, 2.0], [[1.0, math.nan]], [[math.inf, 0.0]]):
        with pytest.raises(ValueError):
            gen_choquet_batch(mu_worked, nu_worked, bad)
    assert gen_choquet_batch(mu_worked, nu_worked, np.empty((0, 2))).shape == (0,)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_halves_give_the_scalar_integral_of_every_pair_bitwise(n):
    """``gains[i] - losses[j]`` of a stack of tables (weak tails) is ``gen_choquet`` of
    (table i, table j) (strict tails), bit for bit (signed zeros included), and
    ``gen_choquet_batch`` is the call of the stack it is given."""
    ground = GroundSet(n)
    rng = rng_from_seed(70 + n)
    caps = [random_capacity(rng, ground) for _ in range(4)] + [zero_one_capacity(ground, [1])]
    # ties and both zeros from the pool, then every constant row
    rows = np.concatenate([rng.choice(TIE_POOL, (40, n)), np.repeat(np.array(TIE_POOL)[:, None], n, axis=1)])
    gains, losses = _halves([c.table for c in caps], rows)
    assert gains.shape == losses.shape == (len(caps), len(rows))
    for i, mu in enumerate(caps):
        for j, nu in enumerate(caps):
            got = (gains[i] - losses[j]).view(np.int64).tolist()
            want = [gen_choquet(mu, nu, RandomVariable(ground, tuple(r))) for r in rows.tolist()]
            assert got == np.array(want).view(np.int64).tolist()
            assert gen_choquet_batch(mu, nu, rows).view(np.int64).tolist() == got
        one_gains, one_losses = _halves([mu.table], rows)
        assert (one_gains[0] - one_losses[0]).tobytes() == gen_choquet_batch(mu, mu, rows).tobytes()


# these draws give at most 3.0 ulp of max|X| (at n = 8; 2.0 at n = 2, 3 and 5)
HALVES_LINEARITY_ULPS = 4.0


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_halves_are_linear_in_the_table(n):
    """Each half of t = lam a + (1 - lam) b is the same mixture of the halves of a and b, within
    HALVES_LINEARITY_ULPS ulp of each row's max|X|: the integral is linear in the pair (step (a) of
    the vertex argument for theorem 1)."""
    ground = GroundSet(n)
    rng = rng_from_seed(90 + n)
    for _ in range(25):
        a, b = (_values(random_capacity(rng, ground)) for _ in range(2))
        lam = rng.uniform()
        rows = np.concatenate([rng.uniform(-10.0, 10.0, (20, n)), rng.choice(TIE_POOL, (20, n))])
        (gains_a, gains_b, gains_t), (losses_a, losses_b, losses_t) = _halves(
            np.stack([a, b, lam * a + (1.0 - lam) * b]), rows
        )
        unit = np.spacing(np.abs(rows).max(axis=1))
        for t_half, a_half, b_half in ((gains_t, gains_a, gains_b), (losses_t, losses_a, losses_b)):
            assert np.all(np.abs(t_half - (lam * a_half + (1.0 - lam) * b_half)) <= HALVES_LINEARITY_ULPS * unit)


# these draws give at most 2.0 ulp of max|X|
COLLAPSE_LINEARITY_ULPS = 4.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_integral_of_a_mixture_of_zero_one_pairs_is_the_mixture_of_their_collapse_points(n):
    """Under a mixture sum_i lam_i (mu_i, nu_i) of {0,1} pairs, ``_halves`` give the integral
    sum_i lam_i (a_X(nu_i) + b_X(mu_i)), with each vertex's collapse points read off
    ``_collapse_ends``, within COLLAPSE_LINEARITY_ULPS ulp of each row's max|X| (step (a) of the
    vertex argument for theorem 1, at the collapse points)."""
    ground = GroundSet(n)
    rng = rng_from_seed(110 + n)

    def vertex():
        return _values(zero_one_capacity(ground, rng.integers(1, ground.full + 1, rng.integers(1, 4)).tolist()))

    for _ in range(200):
        k = int(rng.integers(2, 6))
        mus, nus = [vertex() for _ in range(k)], [vertex() for _ in range(k)]
        lam = rng.dirichlet(np.ones(k))
        rows = np.concatenate([rng.uniform(-10.0, 10.0, (20, n)), rng.choice(TIE_POOL, (20, n))])
        gains, losses = _halves(np.stack([lam @ mus, lam @ nus]), rows)
        a, b = _collapse_ends(np.stack(mus + nus), rows)
        unit = np.spacing(np.abs(rows).max(axis=1))
        assert np.all(np.abs((gains[0] - losses[1]) - lam @ (a[k:] + b[:k])) <= COLLAPSE_LINEARITY_ULPS * unit)


# --- the tie-group walk against the threshold-mask definition ---------------------

# both zeros in a small pool, so rows carry ties and signed zeros
TIE_POOL = (-2.0, -0.5, -0.0, 0.0, 0.75, 3.0)


def event(vals, pred):
    """Bitmask of the elements whose value satisfies pred: the definition of an event."""
    return sum(1 << i for i, v in enumerate(vals) if pred(v))


def bits(v):
    return struct.pack("<d", v)


def reference_choquet(mu, nu, vals, strict):
    """Summation by parts over the sorted distinct values, one mask per threshold."""
    pos = sorted({v for v in vals if v > 0.0})
    neg = sorted({v for v in vals if v < 0.0})
    if strict:
        tails = [mu.table[event(vals, lambda v: v > d)] for d in [0.0, *pos[:-1]]]
        lowers = [nu.table[event(vals, lambda v: v < c)] for c in [*neg[1:], 0.0]]
    else:
        tails = [mu.table[event(vals, lambda v: v >= d)] for d in pos]
        lowers = [nu.table[event(vals, lambda v: v <= c)] for c in neg]
    total = 0.0
    for d, t, t_next in zip(pos, tails, [*tails[1:], 0.0]):
        total += d * (t - t_next)
    lower = 0.0
    for c, prev, low in zip(neg, [0.0, *lowers], lowers):
        lower += c * (prev - low)
    return total - lower


@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=150, deadline=None)
def test_group_walk_matches_the_threshold_definition_bitwise(n, seed, data):
    ground = GroundSet(n)
    rng = rng_from_seed(seed)
    mu, nu = random_capacity(rng, ground), random_capacity(rng, ground)
    vals = tuple(data.draw(st.lists(st.sampled_from(TIE_POOL), min_size=n, max_size=n)))
    x = RandomVariable(ground, vals)
    for strict in (True, False):
        assert bits(gen_choquet(mu, nu, x)) == bits(reference_choquet(mu, nu, vals, strict))

    ts = sorted(set(vals))
    extremes = [ts[0] - 1.0, ts[-1] + 1.0, -math.inf, math.inf, 0.0, -0.0]
    for t in [*ts, *((a + b) / 2 for a, b in zip(ts, ts[1:])), *extremes]:
        assert bits(survival(mu, x, t)) == bits(mu.table[event(vals, lambda v: v > t)])
        assert bits(survival(mu, x, t, strict=False)) == bits(mu.table[event(vals, lambda v: v >= t)])
        assert bits(lower_tail(nu, x, t)) == bits(nu.table[event(vals, lambda v: v < t)])
        assert bits(lower_tail(nu, x, t, strict=False)) == bits(nu.table[event(vals, lambda v: v <= t)])

    a = data.draw(st.sampled_from(TIE_POOL))
    correction = step_integral(
        lambda s: mu.table[event(vals, lambda v: v > s)] - (1.0 - nu.table[event(vals, lambda v: v < s)]),
        -a,
        0.0,
        vals,
    )
    assert bits(translation_gap(mu, nu, x, a).correction) == bits(correction)

    w = abs(data.draw(st.sampled_from(TIE_POOL)))
    tail_gap = step_integral(
        lambda t: (1.0 - nu.table[event(vals, lambda v: v >= t)]) - mu.table[event(vals, lambda v: v < t)],
        0.0,
        w,
        vals,
    )
    pi0 = risk_neutral_premium(Scenario(w, x, mu, nu, Exponential(1.0)))
    # the linear agent's premium w - C(w - X), read at the cap v, where it is the same
    v = min(w, max(0.0, *vals))
    assert bits(pi0) == bits(v - reference_choquet(mu, nu, tuple(v - t for t in vals), True))
    # and the closed form, the swapped integral plus the tail gap, is that number within 8 ulp
    assert abs(pi0 - (reference_choquet(nu, mu, vals, True) + tail_gap)) <= 8.0 * math.ulp(max(map(abs, vals)))


@pytest.mark.parametrize("strict", [True, False])
def test_nan_threshold_is_rejected(mu_worked, nu_worked, x_worked, strict):
    with pytest.raises(ValueError):
        survival(mu_worked, x_worked, math.nan, strict)
    with pytest.raises(ValueError):
        lower_tail(nu_worked, x_worked, math.nan, strict)


# --- collapse points off the kernel's plan -------------------------------------------

def reference_collapse(mu, nu, vals):
    """``a_X = sup{t <= 0 : nu(X < t) = 0}`` and ``b_X = inf{t >= 0 : mu(X > t) = 0}``,
    attained on 0 or a value of X."""
    cands = [0.0, *vals]
    a = max(t for t in cands if t <= 0.0 and nu.table[event(vals, lambda v: v < t)] == 0.0)
    b = min(t for t in cands if t >= 0.0 and mu.table[event(vals, lambda v: v > t)] == 0.0)
    return a, b


@given(st.integers(1, 5), st.data())
@settings(max_examples=100, deadline=None)
def test_collapse_points_match_the_sup_inf_definitions(n, data):
    ground = GroundSet(n)
    masks = st.lists(st.integers(1, ground.full), min_size=1, max_size=3)
    mu = zero_one_capacity(ground, data.draw(masks))
    nu = zero_one_capacity(ground, data.draw(masks))
    rows = data.draw(st.lists(st.lists(st.sampled_from(TIE_POOL), min_size=n, max_size=n), max_size=10))
    # no positive value, no negative value, only zeros, ties across both signs
    rows += [[-2.0] * n, [0.75] * n, [-0.0, 0.0] * n, [3.0, -0.5, -0.0] * n]
    rows = [r[:n] for r in rows]
    a, b = _collapse_ends(np.stack([_values(nu), _values(mu)]), np.array(rows, dtype=float))
    for r, a_x, b_x in zip(rows, a[0].tolist(), b[1].tolist()):
        assert (bits(a_x), bits(b_x)) == tuple(map(bits, reference_collapse(mu, nu, r)))
        assert (a_x, b_x) == ax_bx(mu, nu, RandomVariable(ground, tuple(r)))
