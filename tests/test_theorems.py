"""Theorem lab: enumeration, lemma suite, Jensen checks, full sweep.

Enumeration counts are pinned against a brute-force filter over all level
assignments, computed independently below.
"""

import json
import math
from itertools import product

import pytest

from choqrisk import (
    CapacityEnumerator,
    Exponential,
    GroundSet,
    PiecewiseLinearKink,
    Power,
    RandomVariable,
    TabulatedUtility,
    ax_bx,
    integral_property_checks,
    enumerate_capacities,
    gen_choquet,
    jensen_counterexample,
    jensen_holds,
    new_capacity,
    run_full_report,
    zero_one_collapse_check,
    two_valued_concavity_probe,
    nonnegative_axis_check,
    unanimity,
)
from choqrisk.errors import HypothesisFailure, NotZeroOneValued, TooLarge
from choqrisk.sampling import random_capacity, random_dominant_pair, random_variable, rng_from_seed
import numpy as np

from choqrisk.theorems import (
    DEFAULT_VALUE_GRID,
    SWEEP_MAX_PAIRS,
    VIOLATION_TOL,
    AffineMap,
    PlainMap,
    concave_increasing_gallery,
    convex_increasing_gallery,
    jensen_gap,
    two_point_grid,
)


# --- enumeration oracle --------------------------------------------------------

def brute_count(n, levels):
    """Filter every assignment of levels to proper nonempty subsets."""
    size = 1 << n
    count = 0
    for assign in product(levels, repeat=size - 2):
        table = [0.0, *assign, 1.0]
        ok = all(
            table[m] <= table[m | (1 << i)]
            for m in range(size)
            for i in range(n)
            if not m >> i & 1
        )
        count += ok
    return count


@pytest.mark.parametrize(
    "n,levels,expected",
    [
        (2, (0.0, 1.0), 4),
        (2, (0.0, 0.5, 1.0), 9),
        (2, (0.0, 0.25, 0.5, 0.75, 1.0), 25),
        (3, (0.0, 1.0), 18),
        (3, (0.0, 0.5, 1.0), 129),
    ],
)
def test_enumeration_count_matches_brute_force(n, levels, expected):
    caps = list(enumerate_capacities(n, levels))
    assert len(caps) == expected == brute_count(n, levels)
    # duplicate-free
    assert len({c.table for c in caps}) == len(caps)


def test_enumerator_rejects_large_ground():
    with pytest.raises(TooLarge):
        CapacityEnumerator(4)


def test_enumerator_rejects_bad_levels():
    with pytest.raises(ValueError):
        CapacityEnumerator(2, (0.25, 1.0))


# --- lemma suite ------------------------------------------------------------------

def test_lemma_verdicts_hold_for_random_pairs():
    rng = rng_from_seed(23)
    for _ in range(10):
        ground = GroundSet(int(rng.integers(2, 5)))
        mu = random_capacity(rng, ground)
        nu = random_capacity(rng, ground)
        verdicts = integral_property_checks(mu, nu, samples=40, seed=int(rng.integers(0, 2**31)))
        assert all(v.holds for v in verdicts.values()), verdicts


# --- jensen equality and counterexample ---------------------------------------------

def test_jensen_equality_for_linear_map_and_conjugate_pair(mu_worked):
    nu = mu_worked.dual()
    f = AffineMap(2.0, 0.5)
    rng = rng_from_seed(3)
    xs = [random_variable(rng, mu_worked.ground, -5, 5) for _ in range(50)]
    for x in xs:
        assert abs(jensen_gap(mu_worked, nu, f, x)) <= 1e-9


def test_jensen_equality_for_constant_x(pl_pair):
    pl, _ = pl_pair
    f = Exponential(1.0)
    for c in (-1.0, 0.0, 2.0):
        x = RandomVariable(pl.ground, (c, c))
        assert abs(jensen_gap(pl, pl, f, x)) <= 1e-12


def test_jensen_holds_under_dominance(mu_worked):
    nu = mu_worked.dual()
    rng = rng_from_seed(9)
    xs = np.array([random_variable(rng, mu_worked.ground, -5, 5).values for _ in range(200)])
    verdict = jensen_holds(mu_worked, nu, Exponential(1.0), xs)
    assert verdict.holds and verdict.checked == 200


def test_counterexample_none_when_dominant(mu_worked):
    assert jensen_counterexample(mu_worked, mu_worked.dual()) is None


def test_counterexample_for_pl_pair(pl_pair):
    pl, _ = pl_pair
    wit = jensen_counterexample(pl, pl)
    assert wit is not None
    assert wit.gap == pytest.approx(0.5, abs=1e-12)
    assert wit.gap == wit.dominance_gap  # exact: dyadic table values
    # witness shape: -1 off the worst set, 0 on it
    assert set(wit.x.values) == {0.0, -1.0}
    # re-evaluates from scratch to a genuine violation
    assert jensen_gap(pl, pl, wit.f, wit.x) > 1e-9


def test_counterexample_gap_matches_dominance_gap_exactly():
    for levels in [(0.0, 0.25, 0.5, 0.75, 1.0)]:
        caps = list(enumerate_capacities(2, levels))
        seen = 0
        for mu in caps:
            for nu in caps:
                wit = jensen_counterexample(mu, nu)
                if wit is not None:
                    seen += 1
                    assert abs(wit.gap - wit.dominance_gap) <= 1e-12
        assert seen > 0


# --- theorem 2 -------------------------------------------------------------------------

def test_collapse_identity_and_equivalence_with_coexistence(g2):
    mu = unanimity(g2, 0b01)
    nu = unanimity(g2, 0b10)  # B = {1}: mu(B) = 1, nu(B^c) = 1
    for f in (Exponential(1.0), PiecewiseLinearKink()):
        verdict = zero_one_collapse_check(mu, nu, f)
        assert verdict.holds


def test_collapse_check_detects_violating_function(g2):
    mu = unanimity(g2, 0b01)
    nu = unanimity(g2, 0b10)
    # strictly increasing, f(0) = 0, but f(-1) + f(1) > f(0): not weakly
    # superadditive, so the equivalence verdict must still hold (both sides
    # report the violation)
    f = TabulatedUtility(((-6.0, -1.0), (-1.0, -0.5), (0.0, 0.0), (1.0, 1.0), (6.0, 2.0)))
    values = tuple(-3.0 + 0.5 * k for k in range(13))
    verdict = zero_one_collapse_check(mu, nu, f, values)
    assert verdict.holds  # equivalence: WS fails and a violation is found


def test_collapse_without_coexistence_holds_for_any_shape(g2):
    # mu = 1 off the empty set, nu = 0 off the full set: no coexistence
    mu = new_capacity(g2, [0.0, 1.0, 1.0, 1.0])
    nu = new_capacity(g2, [0.0, 0.0, 0.0, 1.0])
    for f in (Exponential(1.0), PlainMap("expm1", math.expm1), Power(0.5, 2.0)):
        verdict = zero_one_collapse_check(mu, nu, f)
        assert verdict.holds and verdict.detail == "no coexistence set"


def test_collapse_check_requires_zero_one(mu_worked):
    with pytest.raises(NotZeroOneValued):
        zero_one_collapse_check(mu_worked, mu_worked, Exponential(1.0))


def test_collapse_identity_is_exact_over_gallery(g3):
    rng = rng_from_seed(31)
    values = tuple(-4.0 + 0.5 * k for k in range(17))
    gallery = [Exponential(1.0), PiecewiseLinearKink(), PlainMap("expm1", math.expm1)]
    for _ in range(30):
        mu = random_capacity(rng, g3, style="zero-one")
        nu = random_capacity(rng, g3, style="zero-one")
        for f in gallery:
            assert zero_one_collapse_check(mu, nu, f, values, seed=7).holds


# --- theorem 3 -------------------------------------------------------------------------

def worked_probe_pair(g2_):
    mu = new_capacity(g2_, [0.0, 0.3, 0.4, 1.0])
    nu = mu.dual()
    return mu, nu


def test_probe_concave_function_consistent(g2):
    mu, nu = worked_probe_pair(g2)
    verdict = two_valued_concavity_probe(mu, nu, Exponential(1.0))
    assert verdict.holds and "concave=True" in verdict.detail


def test_probe_convex_function_yields_violation(g2):
    mu, nu = worked_probe_pair(g2)
    verdict = two_valued_concavity_probe(mu, nu, PlainMap("expm1", math.expm1))
    assert verdict.holds and "violation=found" in verdict.detail


def test_probe_hypotheses_enforced(g2, pl_pair):
    pl, _ = pl_pair
    with pytest.raises(HypothesisFailure):
        two_valued_concavity_probe(pl, pl, Exponential(1.0))  # dominance fails
    mu = unanimity(g2, 0b01)
    nu = new_capacity(g2, [0.0, 0.0, 0.0, 1.0])
    with pytest.raises(HypothesisFailure):
        two_valued_concavity_probe(mu, nu, Exponential(1.0))  # no coexistence set


def test_probe_mixture_weights_respect_dominance(g2):
    mu, nu = worked_probe_pair(g2)
    full = g2.full
    for b in range(1, full):
        p, q = mu.table[b], nu.table[full ^ b]
        if p > 0 and q > 0:
            assert p <= 1.0 - q + 1e-12


# --- theorem 4 -------------------------------------------------------------------------

def test_axis_check_interior_capacity_concave_vs_convex(mu_worked, nu_worked):
    assert nonnegative_axis_check(mu_worked, nu_worked, Exponential(1.0)).holds
    verdict = nonnegative_axis_check(mu_worked, nu_worked, Power(0.0, 2.0))
    assert verdict.holds  # consistency: convex on x >= 0 and violation found


def test_axis_check_zero_one_unconditional(g2):
    mu = unanimity(g2, 0b01)
    nu = unanimity(g2, 0b10)
    for f in (Exponential(1.0), Power(0.0, 2.0), PlainMap("expm1", math.expm1)):
        verdict = nonnegative_axis_check(mu, nu, f)
        assert verdict.holds and "unconditional" in verdict.detail


def test_axis_check_rejects_negative_grid(mu_worked, nu_worked):
    with pytest.raises(ValueError):
        nonnegative_axis_check(mu_worked, nu_worked, Exponential(1.0), values=(-1.0, 0.0, 1.0))


# --- full sweep -------------------------------------------------------------------------

def test_small_sweep_is_clean_and_counts_pairs():
    report = run_full_report(n=2, levels=(0.0, 1.0), seed=1)
    assert report.pair_count == 16
    assert report.capacity_count == 4
    assert report.clean, report.unexpected


def test_sweep_determinism():
    a = run_full_report(n=2, levels=(0.0, 0.5, 1.0), seed=9, property_samples=6)
    b = run_full_report(n=2, levels=(0.0, 0.5, 1.0), seed=9, property_samples=6)
    assert a.to_text() == b.to_text()
    assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
        b.to_json_dict(), sort_keys=True
    )


def test_sweep_classification_totals():
    report = run_full_report(n=2, levels=(0.0, 0.5, 1.0), seed=4, theorems=("1",))
    assert sum(report.class_counts.values()) == report.pair_count == 81
    assert report.clean


def test_sweep_reports_every_check_under_injected_faults(monkeypatch):
    """Each check files its failures in ``unexpected``; the entries are pinned.

    The faults: flipped shape certificates (collapse, two-valued concavity,
    nonnegative axis), a convex map in the concave gallery (jensen forward),
    an unreachable gap-match tolerance (jensen converse), a negative
    tolerance for the integral properties and a perturbed weak-tail
    integral (tail conventions).  The pinned digest and counts were recorded
    before the sweep driver was rewritten as a table.
    """
    import hashlib
    from collections import Counter
    from dataclasses import replace
    from functools import partial

    from choqrisk import theorems

    def flipped(check):
        def run(*args, **kwargs):
            cert = check(*args, **kwargs)
            return replace(cert, holds=not cert.holds)

        return run

    exact = theorems.gen_choquet

    def weak_tails_off(mu, nu, x, strict_tails=True):
        return exact(mu, nu, x, strict_tails) + (0.0 if strict_tails else 2.0**-20)

    gallery = theorems.concave_increasing_gallery
    monkeypatch.setattr(theorems, "is_concave_on", flipped(theorems.is_concave_on))
    monkeypatch.setattr(
        theorems, "is_weakly_superadditive_on", flipped(theorems.is_weakly_superadditive_on)
    )
    monkeypatch.setattr(
        theorems, "concave_increasing_gallery", lambda: gallery() + [PlainMap("expm1", math.expm1)]
    )
    monkeypatch.setattr(theorems, "GAP_MATCH_TOL", -1.0)
    monkeypatch.setattr(
        theorems, "integral_property_checks", partial(theorems.integral_property_checks, tol=-1.0)
    )
    monkeypatch.setattr(theorems, "gen_choquet", weak_tails_off)

    report = run_full_report(
        n=2, levels=(0.0, 0.5, 1.0), seed=42, values=tuple(-3.0 + 0.5 * k for k in range(13))
    )
    assert Counter(e["check"] for e in report.unexpected) == {
        "property tail-conventions": 81,
        "property monotonicity": 57,
        "property homogeneity": 81,
        "property translation": 81,
        "jensen forward": 27,
        "jensen converse": 45,
        "collapse": 28,
        "two-valued concavity": 44,
        "nonnegative axis": 135,
    }
    assert report.verdict_counts == {
        "property tail-conventions": (0, 81),
        "property monotonicity": (24, 81),
        "property homogeneity": (0, 81),
        "property translation": (0, 81),
        "jensen forward": (153, 180),
        "jensen converse": (0, 45),
        "collapse": (36, 64),
        "two-valued concavity": (0, 44),
        "nonnegative axis": (108, 243),
    }
    assert report.counterexamples == 0
    digest = hashlib.sha256(json.dumps(report.unexpected, sort_keys=True).encode()).hexdigest()
    assert digest == "d13bcf2bb1df578a8b23d4d9a2561a97f7dc194e8130eb07f7f12c23269c572b"


# --- the keyed sweep against a per-pair reference loop ------------------------------------

def reference_verdicts(mu, nu, values, seed=42, property_samples=12):
    """The sweep's class key and checks of one pair, each public check called directly, no memo."""
    from choqrisk import theorems

    probe_values = tuple(-3.0 + 0.5 * k for k in range(13))
    dom = theorems.dominates_dual(mu, nu).holds
    zero_one = mu.is_zero_one_valued() and nu.is_zero_one_valued()
    coex = theorems.coexistence_set(mu, nu) is not None
    out = [
        (f"property {name}", v.holds, v.witness)
        for name, v in theorems.integral_property_checks(mu, nu, samples=property_samples, seed=seed).items()
    ]
    checks = []
    if dom:
        grid = two_point_grid(mu.ground, values)
        checks += [("jensen forward", jensen_holds(mu, nu, f, grid)) for f in theorems.concave_increasing_gallery()]
    else:
        wit = jensen_counterexample(mu, nu)
        ok = wit.gap > VIOLATION_TOL and abs(wit.gap - wit.dominance_gap) <= theorems.GAP_MATCH_TOL
        out.append(("jensen converse", ok, {"gap": wit.gap, "dominance_gap": wit.dominance_gap}))
    if zero_one:
        checks += [
            ("collapse", zero_one_collapse_check(mu, nu, f, probe_values, seed))
            for f in theorems.zero_at_zero_gallery()
        ]
    if dom and coex:
        gallery = [Exponential(1.0), PiecewiseLinearKink(), PlainMap("expm1", math.expm1), Power(0.5, 2.0)]
        checks += [("two-valued concavity", two_valued_concavity_probe(mu, nu, f, probe_values)) for f in gallery]
    checks += [
        ("nonnegative axis", nonnegative_axis_check(mu, nu, f))
        for f in (Exponential(1.0), Power(0.0, 2.0), Power(0.0, 0.5))
    ]
    out += [(name, v.holds, v.witness) for name, v in checks]
    return f"dominant={dom}, zero_one={zero_one}, coexistence={coex}", out


def reference_report(n, levels, values, seed=42):
    """``run_full_report(...).to_json_dict()`` assembled from reference_verdicts."""
    caps = list(enumerate_capacities(n, levels))
    classes, counts, unexpected = {}, {}, []
    for mu, nu in product(caps, caps):
        ck, verdicts = reference_verdicts(mu, nu, values, seed)
        classes[ck] = classes.get(ck, 0) + 1
        for name, ok, witness in verdicts:
            good, total = counts.get(name, (0, 0))
            counts[name] = (good + ok, total + 1)
            if not ok:
                unexpected.append({"check": name, "mu": list(mu.table), "nu": list(nu.table), "witness": witness})
    return {
        "n": n, "levels": sorted(levels), "seed": seed, "capacity_count": len(caps), "pair_count": len(caps) ** 2,
        "class_counts": dict(sorted(classes.items())), "verdict_counts": dict(sorted(counts.items())),
        "unexpected": unexpected, "clean": not unexpected,
    }


def inject_witness_faults(monkeypatch):
    """Flipped shape certificates and a convex map in the concave gallery: most checks then
    fail with a witness that carries the rows and capacity entries they read."""
    from dataclasses import replace

    from choqrisk import theorems

    def flipped(check):
        def run(*args, **kwargs):
            cert = check(*args, **kwargs)
            return replace(cert, holds=not cert.holds)

        return run

    gallery = theorems.concave_increasing_gallery
    monkeypatch.setattr(theorems, "is_concave_on", flipped(theorems.is_concave_on))
    monkeypatch.setattr(theorems, "is_weakly_superadditive_on", flipped(theorems.is_weakly_superadditive_on))
    monkeypatch.setattr(
        theorems, "concave_increasing_gallery", lambda: gallery() + [PlainMap("expm1", math.expm1)]
    )


@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faults"])
def test_keyed_sweep_matches_a_per_pair_reference_loop(monkeypatch, faults):
    """200 seeded n = 3 pairs, 20 of each pair class and 100 drawn from all, in a shuffled order.

    Every (check name, ok, witness) of the memoised driver equals the public
    checks run pair by pair.  Theorem 4 is keyed on mu alone and the pairs
    repeat mu with different nu, so a check that read nu would show here.
    """
    from choqrisk import theorems

    if faults:
        inject_witness_faults(monkeypatch)
    caps = list(enumerate_capacities(3, (0.0, 0.5, 1.0)))
    by_class = {}
    for mu, nu in product(caps, caps):
        key = (theorems.dominates_dual(mu, nu).holds, mu.is_zero_one_valued() and nu.is_zero_one_valued(),
               theorems.coexistence_set(mu, nu) is not None)
        by_class.setdefault(key, []).append((mu, nu))
    assert len(by_class) == 5
    rng = np.random.default_rng(2016)
    everyone = [p for members in by_class.values() for p in members]
    pairs = [members[i] for members in by_class.values() for i in rng.choice(len(members), 20, replace=False)]
    pairs += [everyone[i] for i in rng.choice(len(everyone), 100, replace=False)]
    pairs = [pairs[i] for i in rng.permutation(len(pairs))]
    assert len({mu.table for mu, _ in pairs}) < len(pairs)

    values = tuple(-4.0 + k for k in range(9))  # not the probes' grid, which the sweep fixes
    got = list(theorems._sweep_verdicts(pairs, theorems.THEOREM_IDS, 42, values, 12))
    assert len(got) == len(pairs)
    for (mu, nu), (mu_got, nu_got, ck, verdicts) in zip(pairs, got):
        assert (mu_got, nu_got) == (mu, nu)
        assert (ck, verdicts) == reference_verdicts(mu, nu, values)
    if faults:
        assert sum(not ok for _, _, _, verdicts in got for _, ok, _ in verdicts) > 400


def test_sweep_memo_lives_for_one_call(monkeypatch):
    """Value grid A, then B, then A in one process, after a clean run and under injected faults.

    A memo kept past a call would hand the faulted runs the clean run's
    certificates, or grid A's witnesses to grid B."""
    grid_a, grid_b = tuple(-4.0 + k for k in range(9)), (-2.0, -0.5, 0.0, 1.0, 3.0)
    levels = (0.0, 0.5, 1.0)
    clean = run_full_report(n=2, levels=levels, values=grid_a).to_json_dict()
    assert clean == reference_report(2, levels, grid_a)
    inject_witness_faults(monkeypatch)
    first_a, b, second_a = (
        run_full_report(n=2, levels=levels, values=v).to_json_dict() for v in (grid_a, grid_b, grid_a)
    )
    assert first_a == second_a == reference_report(2, levels, grid_a)
    assert b == reference_report(2, levels, grid_b)
    assert first_a != b and first_a != clean


# --- two point generator ------------------------------------------------------------------

def test_two_point_variables_cover_both_orders(g2):
    xs = {tuple(r) for r in two_point_grid(g2, (-1.0, 2.0)).tolist()}
    assert (2.0, -1.0) in xs and (-1.0, 2.0) in xs


def reference_two_point_rows(ground, values):
    """The grid order written out: splits containing element 0, then s, then t."""
    return [
        tuple(s if b >> i & 1 else t for i in range(ground.n))
        for b in range(1, ground.full)
        if b & 1
        for s in values
        for t in values
    ]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_two_point_grid_matches_the_variables_row_for_row(n):
    ground = GroundSet(n)
    values = (-1.5, 0.0, 0.25, 2.0)
    want = reference_two_point_rows(ground, values)
    assert [tuple(r) for r in two_point_grid(ground, values).tolist()] == want
    assert two_point_grid(ground, values).shape == (len(want), n)


def test_sweeps_refuse_more_pairs_than_the_cap():
    # 324 capacities on two elements at 18 levels give 104,976 pairs
    levels = [k / 17 for k in range(18)]
    assert len(list(enumerate_capacities(2, levels))) ** 2 > SWEEP_MAX_PAIRS
    with pytest.raises(TooLarge, match="104976"):
        run_full_report(n=2, levels=levels)


def test_sweeps_refuse_a_large_grid_after_a_bounded_enumeration(monkeypatch):
    from choqrisk import theorems

    built = 0
    enumerate_all = theorems.enumerate_capacities

    def counting(n, levels):
        nonlocal built
        for cap in enumerate_all(n, levels):
            built += 1
            yield cap

    monkeypatch.setattr(theorems, "enumerate_capacities", counting)
    # 360,000 capacities on two elements at 600 levels; the refusal builds a bounded few
    with pytest.raises(TooLarge, match="at least"):
        run_full_report(n=2, levels=[k / 599 for k in range(600)])
    assert built == theorems._SWEEP_MAX_BUILT + 1


def test_two_point_grids_refuse_more_than_the_cap():
    with pytest.raises(TooLarge):
        two_point_grid(GroundSet(9))  # 255 splits x 41^2 values x 9 > 2e6 cells
    assert two_point_grid(GroundSet(2), range(1000)).shape == (10**6, 2)
    mu = new_capacity(GroundSet(2), [0.0, 0.3, 0.4, 1.0])
    with pytest.raises(TooLarge):
        two_valued_concavity_probe(mu, mu.dual(), Exponential(1.0), range(1001))


# --- batched jensen scan ---------------------------------------------------------------

def reference_jensen(mu, nu, f, xs, tol=VIOLATION_TOL):
    """The scalar scan over rows: (checked, witness) at the first violation, else (checked, None)."""
    checked = 0
    for row in xs:
        x = RandomVariable(mu.ground, tuple(row))
        if not all(f.in_domain(v) for v in x.values):
            continue
        checked += 1
        gap = jensen_gap(mu, nu, f, x)
        if gap > tol:
            return checked, {"f": f.spec(), "x": list(x.values), "gap": gap}
    return checked, None


def test_jensen_holds_edge_cases_check_nothing(mu_worked, nu_worked):
    f = Exponential(1.0)
    verdict = jensen_holds(mu_worked, nu_worked, f, np.empty((0, 2)))
    assert (verdict.holds, verdict.checked, verdict.witness) == (True, 0, None)
    g1 = GroundSet(1)
    one = new_capacity(g1, [0.0, 1.0])
    grid = two_point_grid(g1)
    assert grid.shape == (0, 1)
    assert jensen_holds(one, one, f, grid).checked == 0
    negative = two_point_grid(mu_worked.ground, (-2.0, -1.0))
    verdict = jensen_holds(mu_worked, nu_worked, Power(0.0, 0.5), negative)
    assert (verdict.holds, verdict.checked) == (True, 0)


@pytest.mark.parametrize("shape", [(0,), (2,), (3, 3), (2, 1), (1, 2, 2)])
def test_jensen_holds_rejects_rows_of_the_wrong_shape(mu_worked, nu_worked, shape):
    with pytest.raises(ValueError, match="rows of 2 values"):
        jensen_holds(mu_worked, nu_worked, Exponential(1.0), np.zeros(shape))


def test_jensen_holds_matches_the_scalar_scan(pl_pair):
    pl, _ = pl_pair
    rng = rng_from_seed(41)
    ground = GroundSet(3)
    pairs = [(pl, pl)] + [(random_capacity(rng, ground), random_capacity(rng, ground)) for _ in range(3)]
    maps = concave_increasing_gallery() + convex_increasing_gallery() + [Power(0.0, 0.5)]
    violations = 0
    for mu, nu in pairs:
        values = DEFAULT_VALUE_GRID[::3]
        grid = two_point_grid(mu.ground, values)
        for f in maps:
            checked, witness = reference_jensen(mu, nu, f, reference_two_point_rows(mu.ground, values))
            verdict = jensen_holds(mu, nu, f, grid)
            assert (verdict.checked, verdict.witness) == (checked, witness)
            assert verdict.holds == (witness is None)
            if witness is not None:
                violations += 1
                assert all(type(v) is float for v in verdict.witness["x"] + [verdict.witness["gap"]])
    assert violations >= 3


def reference_probe_scan(mu, nu, f, values):
    """The scalar concavity-probe loop: (checked, first violation or mismatch witness)."""
    ground, full = mu.ground, mu.ground.full
    checked = 0
    violation = None
    for b_set in range(1, full):
        if not b_set & 1:
            continue
        for variant in (b_set, full ^ b_set):
            p, q = mu.table[variant], nu.table[full ^ variant]
            for alpha in values:
                for beta in values:
                    if alpha >= beta or not (f.in_domain(alpha) and f.in_domain(beta)):
                        continue
                    x = RandomVariable(
                        ground, tuple(beta if variant >> i & 1 else alpha for i in range(ground.n))
                    )
                    m = gen_choquet(mu, nu, x)
                    if alpha >= 0.0:
                        expect = alpha * (1 - p) + beta * p
                    elif beta <= 0.0:
                        expect = alpha * q + beta * (1 - q)
                    else:
                        expect = alpha * q + beta * p
                    if abs(m - expect) > 1e-9:
                        return checked, {"x": list(x.values), "integral": m, "expected": expect}
                    checked += 1
                    gap = gen_choquet(mu, nu, x.map(f.value)) - f.value(m)
                    if gap > VIOLATION_TOL and violation is None:
                        violation = {"f": f.spec(), "x": list(x.values), "gap": gap}
    return checked, violation


def test_probe_matches_the_scalar_scan(g3, monkeypatch):
    from choqrisk import theorems
    from choqrisk.utility import ShapeCheck

    mu = new_capacity(g3, [0.0, 0.2, 0.3, 0.5, 0.1, 0.4, 0.4, 1.0])
    nu = mu.dual()
    values = tuple(-3.0 + 0.5 * k for k in range(13))
    # every map passes as concave, so a violation lands in the witness
    monkeypatch.setattr(theorems, "is_concave_on", lambda f, xs, tol: ShapeCheck(True, None, 0.0))
    violations = 0
    # the second pair violates on every split, so the witness must come from the first
    for pair in ((mu, nu), random_dominant_pair(rng_from_seed(2), g3)):
        for f in (Exponential(1.0), PlainMap("expm1", math.expm1), Power(0.0, 2.0)):
            checked, violation = reference_probe_scan(*pair, f, values)
            verdict = two_valued_concavity_probe(*pair, f, values)
            assert verdict.checked == checked
            assert verdict.witness == (
                None if violation is None else {"f": f.spec(), "concave": True, "violation": violation}
            )
            violations += violation is not None
    assert violations == 4

    # a kernel off from row 40 on: the probe stops there, as the scalar loop would
    exact = theorems.gen_choquet_batch
    monkeypatch.setattr(
        theorems, "gen_choquet_batch", lambda mu, nu, xs: exact(mu, nu, xs) + (np.arange(len(xs)) >= 40)
    )
    verdict = two_valued_concavity_probe(mu, nu, Exponential(1.0), values)
    assert (verdict.check, verdict.holds, verdict.checked) == ("two-valued mixture form", False, 40)
    assert verdict.witness["integral"] == pytest.approx(verdict.witness["expected"] + 1.0, abs=1e-9)


@pytest.mark.parametrize("k", [0, 5, 70])
def test_collapse_check_stops_at_the_first_perturbed_row(g2, mu_worked, monkeypatch, k):
    from choqrisk import theorems

    mu, nu = unanimity(g2, 0b01), unanimity(g2, 0b10)
    f = Power(1.0, 0.5)  # domain x > -1 drops rows, so checked counts in-domain rows only
    values = tuple(-3.0 + 0.5 * j for j in range(13))
    # the rows the check samples, in its order: every grid row, then 25 dense draws
    rng = np.random.default_rng(4)
    dense = [rng.uniform(min(values), max(values), 2).tolist() for _ in range(25)]
    grid = [r for r in two_point_grid(g2, values).tolist() if all(f.in_domain(v) for v in r)]
    rows = grid + [r for r in dense if all(f.in_domain(v) for v in r)]
    assert 5 < len(grid) < 70 < len(rows)  # k = 70 lands among the dense draws

    exact = theorems.gen_choquet_batch
    monkeypatch.setattr(
        theorems, "gen_choquet_batch", lambda mu, nu, xs: exact(mu, nu, xs) + (np.arange(len(xs)) >= k)
    )
    verdict = zero_one_collapse_check(mu, nu, f, values, seed=4)
    assert (verdict.check, verdict.holds, verdict.checked) == ("collapse identity", False, k + 1)
    x = RandomVariable(g2, tuple(rows[k]))
    a_x, b_x = ax_bx(mu, nu, x)
    assert verdict.witness == {
        "f": f.spec(),
        "x": rows[k],
        "lhs": gen_choquet(mu, nu, x.map(f.value)) + 1.0,
        "rhs": f.value(a_x) + f.value(b_x),
    }

    # a pair with one side not {0,1}-valued is refused before any row is checked
    with pytest.raises(NotZeroOneValued):
        zero_one_collapse_check(mu, mu_worked, f, values)
