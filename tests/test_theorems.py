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
    gen_choquet_batch,
    jensen_counterexample,
    jensen_holds,
    new_capacity,
    run_full_report,
    zero_one_collapse_check,
    two_valued_concavity_probe,
    nonnegative_axis_check,
    unanimity,
)
from choqrisk.capacity import _coexisting, _dominance_checks, _values
from choqrisk.errors import HypothesisFailure, NotZeroOneValued, TooLarge
from choqrisk.sampling import random_capacity, random_dominant_pair, random_variable, rng_from_seed
import numpy as np

from choqrisk.theorems import (
    DEFAULT_VALUE_GRID,
    NONNEG_VALUE_GRID,
    SWEEP_MAX_PAIRS,
    VIOLATION_TOL,
    AffineMap,
    PlainMap,
    concave_increasing_gallery,
    jensen_gap,
    Verdict,
    two_point_grid,
)
from choqrisk.integral import translation_gap


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
        (4, (0.0, 1.0), 166),
    ],
)
def test_enumeration_count_matches_brute_force(n, levels, expected):
    caps = list(enumerate_capacities(n, levels))
    assert len(caps) == expected == brute_count(n, levels)
    # duplicate-free
    assert len({c.table for c in caps}) == len(caps)


def test_enumerator_rejects_large_ground():
    with pytest.raises(TooLarge):
        CapacityEnumerator(5)


def test_enumerator_reads_minus_zero_as_zero():
    for levels in ((-0.0, 0.5, 1.0), (0.5, -0.0, 1.0), (0.0, -0.0, 0.5, 1.0), (-0.0, 0.0, 0.5, 1.0)):
        enumerator = CapacityEnumerator(2, levels)
        assert [math.copysign(1.0, v) for v in enumerator.levels] == [1.0] * 3
        assert all(math.copysign(1.0, v) == 1.0 for cap in enumerator for v in cap.table)


def test_enumerator_rejects_bad_levels():
    with pytest.raises(ValueError):
        CapacityEnumerator(2, (0.25, 1.0))


def test_dominant_zero_one_pairs_are_the_three_level_capacities_and_never_coexist():
    """Steps (c) count and (d) of the vertex argument for theorem 1.  The dominant {0,1}-valued
    pairs (mu <= dual(nu)) number 9, 129 and 7,246 at n = 2, 3 and 4: t = (mu + dual(nu)) / 2 takes
    them one to one onto the capacities at levels {0, 0.5, 1}.  None has a coexistence set."""
    for n, expected in ((2, 9), (3, 129), (4, 7246)):
        tables = np.array([c.table for c in enumerate_capacities(n, (0.0, 1.0))])
        i, j = np.divmod(np.arange(len(tables) ** 2), len(tables))
        dominant, _, _ = _dominance_checks(tables[i], tables[j])
        mu, nu = tables[i[dominant]], tables[j[dominant]]
        assert len(mu) == expected
        halfway = {tuple(t) for t in ((mu + (1.0 - nu[:, ::-1])) / 2.0).tolist()}
        assert halfway == {c.table for c in enumerate_capacities(n, (0.0, 0.5, 1.0))}
        assert not _coexisting(mu, nu).any()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dominant_pair_polytope_has_zero_one_vertices(n):
    """Step (c) of the vertex argument for theorem 1.  The pairs (mu, nu_bar) with both monotone and
    normalized and mu <= nu_bar form a polytope whose vertices are {0,1}-valued: a simplex solve,
    which ends at a vertex, lands on one for every objective tried."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    size = 1 << n
    # variables: mu(A) for A in 0..size-1, then nu_bar(A)
    rows = []
    for offset in (0, size):
        for a in range(size):
            for i in range(n):
                if not a >> i & 1:  # t(A) - t(A + {i}) <= 0
                    row = np.zeros(2 * size)
                    row[offset + a], row[offset + (a | 1 << i)] = 1.0, -1.0
                    rows.append(row)
    for a in range(size):  # mu(A) - nu_bar(A) <= 0
        row = np.zeros(2 * size)
        row[a], row[size + a] = 1.0, -1.0
        rows.append(row)
    a_ub = np.array(rows)
    a_eq = np.zeros((4, 2 * size))
    for k, index in enumerate((0, size - 1, size, 2 * size - 1)):
        a_eq[k, index] = 1.0
    b_eq = np.array([0.0, 1.0, 0.0, 1.0])
    rng = np.random.default_rng(n)
    for _ in range(300):
        res = linprog(rng.normal(size=2 * size), A_ub=a_ub, b_ub=np.zeros(len(a_ub)), A_eq=a_eq, b_eq=b_eq,
                      bounds=(0, 1), method="highs-ds")
        assert res.status == 0, res.message
        assert np.all(np.minimum(np.abs(res.x), np.abs(res.x - 1.0)) <= 1e-9), res.x


# --- lemma suite ------------------------------------------------------------------

def test_lemma_verdicts_hold_for_random_pairs():
    rng = rng_from_seed(23)
    for _ in range(10):
        ground = GroundSet(int(rng.integers(2, 5)))
        mu = random_capacity(rng, ground)
        nu = random_capacity(rng, ground)
        verdicts = integral_property_checks(mu, nu, samples=40, seed=int(rng.integers(0, 2**31)))
        assert all(v.holds for v in verdicts.values()), verdicts


def scalar_property_checks(mu, nu, samples=50, seed=0, tol=VIOLATION_TOL):
    """Reference: the lemma trials as one scalar loop, each X and value drawn in turn.

    The tail trial sets the scalar walk the trials read (``_walk_groups``'s parts,
    recombined by ``theorems._tail_walk``) against the batched kernel; every other
    trial calls this module's ``gen_choquet``.
    """
    from choqrisk import theorems
    from choqrisk.integral import _groups, _walk_groups

    rng = np.random.default_rng(seed)
    ground = mu.ground

    def tails(x: RandomVariable) -> dict | None:
        total, lower = _walk_groups(mu, nu, _groups(x.values), ground.full)
        a = float(theorems._tail_walk(np.array([total]), np.array([lower]), np.array([x.values]))[0])
        b = float(gen_choquet_batch(mu, nu, [x.values])[0])
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


@pytest.mark.parametrize("faults", [False, True], ids=["exact", "weak-tails-off"])
def test_lemma_trials_match_the_scalar_loop(monkeypatch, faults):
    """150 random pairs at n = 2-4, each at four tolerances, with random seeds and sample counts.

    Verdicts equal the scalar loop's repr for repr, alone and as the pairs
    (mu, nu) and (nu, mu) of one lemma engine call, as a sweep runs them.  A
    tolerance of 1e-15 or -1 fails trials at rows that differ from pair to
    pair, and so does the tail trial's scalar integral perturbed on rows whose
    first value exceeds 3; the trials after a failing row must then draw on
    from the same place, so the two pairs of one call reach trials at
    different stream positions.
    """
    from choqrisk import theorems

    if faults:
        exact = theorems._tail_walk

        def walk_off(total, lower, xs):
            return exact(total, lower, xs) + np.where(xs[:, 0] > 3, 2.0**-20, 0.0)

        monkeypatch.setattr(theorems, "_tail_walk", walk_off)
    rng = rng_from_seed(14)
    failures, diverged = set(), 0
    for _ in range(150):
        ground = GroundSet(int(rng.integers(2, 5)))
        style = rng.choice(["fill", "belief", "additive", "zero-one"], 2)
        mu, nu = (random_capacity(rng, ground, str(s)) for s in style)
        samples, seed = int(rng.integers(0, 16)), int(rng.integers(0, 4))
        for tol in (VIOLATION_TOL, 1e-15, 0.5, -1.0):
            want = repr(scalar_property_checks(mu, nu, samples, seed, tol))
            got = integral_property_checks(mu, nu, samples, seed, tol)
            assert repr(got) == want
            failures |= {(key, tol) for key, v in got.items() if not v.holds}
            trials = theorems._property_trials(stack(mu, nu), [(0, 1), (1, 0)], samples, seed, tol)
            both = [{key: trial.verdict(p) for key, trial in trials} for p in (0, 1)]
            assert [bool(trial.ok[p]) for _, trial in trials for p in (0, 1)] == [
                v.holds for key in got for v in (both[0][key], both[1][key])
            ]
            assert [repr(v) for v in both] == [want, repr(scalar_property_checks(nu, mu, samples, seed, tol))]
            # a trial before the last that fails at another row, or in one pair only, moves the streams apart
            diverged += any(both[0][key].witness != both[1][key].witness for key in list(got)[:-1])
    # each property trial failed at 1e-15 or -1, and the tail conventions under the fault only
    trials = {"monotonicity", "homogeneity", "translation"} | ({"tail-conventions"} if faults else set())
    assert {key for key, _ in failures} == trials
    assert {("homogeneity", 1e-15), ("translation", 1e-15), ("monotonicity", -1.0)} <= failures
    assert diverged > 0


def test_sweep_lemma_trials_walk_each_capacity_once_per_sample(monkeypatch):
    """In a sweep the lemma trials read C(X) off per-capacity halves, and the tail-convention
    trial walks each capacity once per sample, as mu and nu at once: 12 walks for each of the
    nine capacities, 108 in all, and no scalar integral."""
    from collections import Counter

    from choqrisk import theorems

    def refuse(*args):
        raise AssertionError("the lemma trials called the scalar integral")

    walks, exact = Counter(), theorems._walk_groups

    def counting(mu, nu, groups, full):
        assert mu is nu
        walks[bytes(mu)] += 1
        return exact(mu, nu, groups, full)

    monkeypatch.setattr(theorems, "gen_choquet", refuse)
    monkeypatch.setattr(theorems, "_walk_groups", counting)
    report = run_full_report(n=2, levels=(0, 0.5, 1), property_samples=12, theorems=("lemma",))
    assert report.pair_count == 81 and report.clean
    assert len(walks) == report.capacity_count == 9
    assert set(walks.values()) == {12} and sum(walks.values()) == 108


def test_sweep_lemma_trials_integrate_each_row_set_once_per_stream_position(monkeypatch):
    """The lemma engine makes one ``_halves`` call per row set and stream position, over the
    stack of all nine capacities: 7 on a clean sweep (the tail trial integrates X, the other
    three X and one more row set).  At a tolerance of -1 every homogeneity sample fails, so
    homogeneity and translation each run at the positions the monotonicity failures left."""
    from functools import partial

    from choqrisk import theorems

    calls, exact = [], theorems._halves

    def counting(tables, xs):
        calls.append(len(tables))
        return exact(tables, xs)

    monkeypatch.setattr(theorems, "_halves", counting)
    report = run_full_report(n=2, levels=(0, 0.5, 1), theorems=("lemma",))
    assert report.clean and calls == [9] * 7

    calls.clear()
    monkeypatch.setattr(theorems, "_property_trials", partial(theorems._property_trials, tol=-1.0))
    report = run_full_report(n=2, levels=(0, 0.5, 1), theorems=("lemma",))
    failed = {tuple(e["witness"]["x"]) for e in report.unexpected if e["check"] == "property monotonicity"}
    held = report.verdict_counts["property monotonicity"][0]
    positions = len(failed) + (held > 0)
    assert held > 0 and 1 < positions < report.capacity_count
    assert calls == [9] * (1 + 2 + 2 * positions + 2 * positions)


def test_collapse_reader_integrates_only_the_capacities_its_pairs_use(monkeypatch):
    """Theorem 2's reader integrates f(rows) over the four {0,1}-valued capacities its pairs
    use, not all nine, plans the rows once for all of them (one plan inside the halves, one for
    every capacity's a_X and b_X), and each pair reads the verdict of the one-pair check."""
    from choqrisk import integral, theorems

    caps = list(enumerate_capacities(2, (0.0, 0.5, 1.0)))
    tables = stack(*caps)
    zero_one = [k for k, cap in enumerate(caps) if cap.is_zero_one_valued()]
    pairs = np.array(list(product(zero_one, zero_one)))
    stacks, plans, exact, plan = [], [], theorems._halves, integral._plan

    def counting(tables, xs):
        stacks.append(len(tables))
        return exact(tables, xs)

    values = tuple(-3.0 + 0.5 * k for k in range(13))
    for f in theorems.zero_at_zero_gallery():
        [scan] = theorems._two_point_scans(tables, pairs, [f], values, False)
        monkeypatch.setattr(theorems, "_halves", counting)
        monkeypatch.setattr(integral, "_plan", lambda xs: plans.append(len(xs)) or plan(xs))
        checked = theorems._collapse_checked(tables, pairs, f, values, scan, seed=42)
        monkeypatch.setattr(theorems, "_halves", exact)
        monkeypatch.setattr(integral, "_plan", plan)
        assert stacks == [len(zero_one)] == [4] and len(plans) == 2
        stacks.clear()
        plans.clear()
        for k, (i, j) in enumerate(pairs.tolist()):
            want = zero_one_collapse_check(caps[i], caps[j], f, values, 42)
            assert checked.verdict(k) == want and checked.ok[k] == want.holds


def test_sweep_gives_one_table_at_two_stack_indices_the_same_verdicts(g3):
    """A table stacked twice, at indices 0 and 2, gets the same verdict list as mu and as nu,
    under every check family, against a table that fails dominance with it and one that holds."""
    from choqrisk import theorems

    mu = new_capacity(g3, [0.0, 0.2, 0.3, 0.5, 0.1, 0.4, 0.4, 1.0])
    tables = stack(mu, mu.dual(), mu, unanimity(g3, 0b001))
    pairs = np.array([[0, 1], [2, 1], [1, 0], [1, 2], [0, 3], [2, 3], [3, 0], [3, 2], [0, 2], [2, 0]])
    out = sweep_by_pair(tables, pairs, theorems.THEOREM_IDS, 42, tuple(-4.0 + k for k in range(9)), 12)
    for first, second in zip(out[::2], out[1::2]):
        assert first[2:] == second[2:] and first[3]
    assert {name for _, _, _, verdicts in out for name, _, _ in verdicts} >= {"jensen forward", "jensen converse"}


def test_sweep_classifies_per_capacity_and_reads_the_converse_off_halves(monkeypatch):
    """No per-pair dominance or coexistence check, and no scalar integral for the converse: the
    classes come from one matrix call per mu, and the converse from the pairs' halves."""
    from choqrisk import theorems

    def refuse(*args, **kwargs):
        raise AssertionError("a per-pair call")

    for name in ("dominates_dual", "coexistence_set", "gen_choquet", "jensen_gap", "jensen_counterexample"):
        monkeypatch.setattr(theorems, name, refuse)
    report = run_full_report(n=2, levels=(0, 0.5, 1))
    assert report.pair_count == 81 and report.clean
    assert report.verdict_counts["jensen converse"] == (45, 45) and report.counterexamples == 45


def test_sweep_verifies_a_converse_whose_gap_lies_between_the_tolerances():
    """Dominance gaps above STRUCT_TOL class a pair non-dominant; those below VIOLATION_TOL too
    are realized exactly by the constructed witness, and the sweep's converse verifies them."""
    from choqrisk import theorems

    caps = list(enumerate_capacities(2, (0.0, 0.5, 0.50000000005, 1.0)))
    band = [(i, j) for (i, mu), (j, nu) in product(enumerate(caps), enumerate(caps))
            if theorems.STRUCT_TOL < theorems.dominates_dual(mu, nu).gap <= VIOLATION_TOL]
    assert len(band) == 57
    got = sweep_by_pair(stack(*caps), band, ("1",), 42, tuple(-4.0 + k for k in range(9)), 12)
    for (i, j), (_, _, _, verdicts) in zip(band, got):
        wit = jensen_counterexample(caps[i], caps[j])
        assert wit.gap == wit.dominance_gap < VIOLATION_TOL
        assert verdicts == [("jensen converse", True, {"gap": wit.gap, "dominance_gap": wit.dominance_gap})]


def test_matrix_classes_match_the_per_pair_checks_on_every_n3_pair():
    """The sweep's classes and the converse's worst sets and gaps, one call over the stacks of the
    pairs' tables, against dominates_dual (holds, worst set, gap bits) and coexistence_set, both
    tests, over all 16,641 pairs of n = 3 at three levels."""
    from choqrisk import theorems
    from choqrisk.capacity import _coexisting, _dominance_checks, _values

    caps = list(enumerate_capacities(3, (0.0, 0.5, 1.0)))
    pairs = np.array(list(product(range(len(caps)), range(len(caps)))))
    tables = np.stack([_values(cap) for cap in caps])
    _, worst, gap = _dominance_checks(tables[pairs[:, 0]], tables[pairs[:, 1]])
    classes = zip(*(a.tolist() for a in (*theorems._pair_classes(tables, pairs), worst, gap)))
    both_one = {i: _coexisting(tables[i], tables, both_one=True).any(axis=1) for i in range(len(caps))}
    assert len(worst) == len(pairs) == 16641
    seen = set()
    for (i, j), (dom, zero_one, coex, worst_set, dom_gap) in zip(pairs.tolist(), classes):
        mu, nu = caps[i], caps[j]
        want = theorems.dominates_dual(mu, nu)
        assert (dom, worst_set, dom_gap.hex()) == (want.holds, want.worst_set, want.gap.hex())
        assert zero_one == (mu.is_zero_one_valued() and nu.is_zero_one_valued())
        assert coex == (theorems.coexistence_set(mu, nu) is not None)
        assert both_one[i][j] == (theorems.coexistence_set(mu, nu, both_one=True) is not None)
        seen.add((dom, zero_one, coex, bool(both_one[i][j])))
    assert len(seen) == 6


def test_sweep_theorem_4_calls_neither_jensen_holds_nor_the_batched_integral(monkeypatch):
    """Theorem 4 reads its scans off the sweep's shared two-point fill."""
    from choqrisk import theorems

    def refuse(*args, **kwargs):
        raise AssertionError("theorem 4 left the shared two-point fill")

    monkeypatch.setattr(theorems, "jensen_holds", refuse)
    monkeypatch.setattr(theorems, "gen_choquet_batch", refuse)
    report = run_full_report(n=2, levels=(0, 0.5, 1), theorems=("4",))
    assert report.clean and report.verdict_counts == {"nonnegative axis": (243, 243)}


# --- jensen equality and counterexample ---------------------------------------------

def test_jensen_equality_for_linear_map_and_conjugate_pair(mu_worked):
    nu = mu_worked.dual()
    f = AffineMap(2.0, 0.5)
    rng = rng_from_seed(3)
    xs = [random_variable(rng, mu_worked.ground, -5, 5) for _ in range(50)]
    for x in xs:
        assert abs(jensen_gap(mu_worked, nu, f, x)) <= 1e-9


def test_affine_map_spec_reads_back():
    assert AffineMap(1.0, 2.0).spec() == "affine:1,2"
    assert AffineMap(1 / 3, 2.0000001).spec() == "affine:0.3333333333333333,2.0000001"


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


def test_two_point_scan_matches_jensen_holds_on_the_whole_grid():
    """The split-by-split scan that theorem 4 and the sweep read gives ``jensen_holds`` on
    ``two_point_grid``: the same verdict, in-domain rows checked and first witness."""
    from choqrisk import theorems

    rng = rng_from_seed(41)
    maps = (Exponential(1.0), Power(0.0, 2.0), Power(0.0, 0.5), PlainMap("expm1", math.expm1), Power(6.0, 0.5))
    for _ in range(30):
        ground = GroundSet(int(rng.integers(2, 5)))
        style = rng.choice(["fill", "belief", "additive", "zero-one"], 2)
        mu, nu = (random_capacity(rng, ground, str(s)) for s in style)
        for values, f in product((NONNEG_VALUE_GRID, (-2.0, -0.5, 0.0, 1.0, 3.0)), maps):
            want = jensen_holds(mu, nu, f, two_point_grid(ground, values))
            assert theorems._pair_scan(mu, nu, f, values) == want


@pytest.mark.parametrize(
    "values", [(-1.0, 0.0, 1.0), (0.0, math.nan, 1.0), (0.0, math.inf)], ids=["negative", "nan", "inf"]
)
def test_axis_check_rejects_negative_grid(mu_worked, nu_worked, values):
    with pytest.raises(ValueError):
        nonnegative_axis_check(mu_worked, nu_worked, Exponential(1.0), values=values)


def test_two_point_checks_reject_non_finite_and_empty_grids(g2):
    """A non-finite grid value is refused, as ``jensen_holds`` refuses it on ``two_point_grid``,
    not dropped from the scan; an empty grid, which would check nothing, is refused by every
    two-point entry point."""
    mu = new_capacity(g2, [0.0, 0.3, 0.4, 1.0])
    zero_one = (unanimity(g2, 0b01), unanimity(g2, 0b10))
    with pytest.raises(ValueError, match="finite"):
        jensen_holds(mu, mu.dual(), Exponential(1.0), two_point_grid(g2, (0.0, math.nan, 1.0)))
    with pytest.raises(ValueError, match="finite"):
        two_valued_concavity_probe(mu, mu.dual(), Exponential(1.0), (-1.0, math.nan, 1.0))
    with pytest.raises(ValueError, match="finite"):
        zero_one_collapse_check(*zero_one, Exponential(1.0), (-1.0, -math.inf, 1.0))
    with pytest.raises(ValueError, match="finite"):
        run_full_report(n=2, levels=(0, 1), values=(0.0, math.nan))
    empty = "the two-point scans need a nonempty value grid"
    with pytest.raises(ValueError, match=empty):
        nonnegative_axis_check(mu, mu.dual(), Exponential(1.0), values=())
    with pytest.raises(ValueError, match=empty):
        two_valued_concavity_probe(mu, mu.dual(), Exponential(1.0), values=())
    with pytest.raises(ValueError, match=empty):
        zero_one_collapse_check(*zero_one, Exponential(1.0), values=())
    with pytest.raises(ValueError, match=empty):
        run_full_report(n=2, levels=(0, 1), values=())


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


@pytest.mark.parametrize("theorem, maps", [("1", 4), ("2", 4), ("3", 4), ("4", 3)], ids=["1", "2", "3", "4"])
def test_sweep_jensen_scans_run_without_a_per_pair_kernel_call(monkeypatch, theorem, maps):
    """Theorems 1-4 read every pair off per-capacity halves, not gen_choquet_batch, in one
    engine scan per map and split (n = 2 has one canonical split); theorem 2's collapse
    identity reads C(f(X)) off them too."""
    from choqrisk import theorems

    def refuse(*args, **kwargs):
        raise AssertionError("per-pair kernel call")

    scans = []
    split_scan = theorems._split_scan
    monkeypatch.setattr(theorems, "gen_choquet_batch", refuse)
    monkeypatch.setattr(theorems, "_split_scan", lambda *args: scans.append(args[1:3]) or split_scan(*args))
    report = run_full_report(n=2, levels=(0.0, 0.5, 1.0), theorems=(theorem,))
    assert report.pair_count == 81 and report.clean
    assert sum(total for _, total in report.verdict_counts.values()) > 0
    assert len(scans) == len(set(scans)) == maps


def test_sweep_reports_every_check_under_injected_faults(monkeypatch):
    """Each check files its failures in ``unexpected``; the entries are pinned.

    The faults: flipped shape certificates (collapse, two-valued concavity,
    nonnegative axis), a convex map in the concave gallery (jensen forward),
    an unreachable gap-match tolerance (jensen converse), a negative
    tolerance for the integral properties and a perturbed scalar integral
    (tail conventions).  The pinned digest and counts were recorded
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

    exact = theorems._tail_walk

    def walk_off(total, lower, xs):
        return exact(total, lower, xs) + 2.0**-20

    gallery = theorems.concave_increasing_gallery
    monkeypatch.setattr(theorems, "is_concave_on", flipped(theorems.is_concave_on))
    monkeypatch.setattr(
        theorems, "is_weakly_superadditive_on", flipped(theorems.is_weakly_superadditive_on)
    )
    monkeypatch.setattr(
        theorems, "concave_increasing_gallery", lambda: gallery() + [PlainMap("expm1", math.expm1)]
    )
    monkeypatch.setattr(theorems, "GAP_MATCH_TOL", -1.0)
    monkeypatch.setattr(theorems, "_property_trials", partial(theorems._property_trials, tol=-1.0))
    monkeypatch.setattr(theorems, "_tail_walk", walk_off)

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

def stack(*caps):
    """The (C, 2ⁿ) stack of the capacities' tables, as the sweep reads them."""
    return np.stack([_values(cap) for cap in caps])


def sweep_by_pair(tables, pairs, theorem_ids, seed, values, property_samples):
    """``_sweep_verdicts`` of the (mu index, nu index) ``pairs`` into the stack ``tables``, read
    pair by pair through the report's own reading of its arrays: ``(mu index, nu index, class
    key, [(check name, ok, witness), ...])`` of each pair, in order."""
    from choqrisk import theorems

    sweep = theorems._sweep_verdicts(tables, np.asarray(pairs), theorem_ids, seed, values, property_samples)
    verdicts = [[] for _ in sweep.pairs]
    for p, name, verdict in theorems._entries(sweep, everything=True):
        verdicts[p].append((name, verdict.holds, verdict.witness))
    classes = zip(*(a.tolist() for a in sweep.classes))
    return [(i, j, theorems._class_key(*cls), out) for (i, j), cls, out in zip(sweep.pairs.tolist(), classes, verdicts)]


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
        ok = wit.gap > theorems.STRUCT_TOL and abs(wit.gap - wit.dominance_gap) <= theorems.GAP_MATCH_TOL
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
    index = {id(cap): k for k, cap in enumerate(caps)}
    got = sweep_by_pair(stack(*caps), [(index[id(mu)], index[id(nu)]) for mu, nu in pairs], theorems.THEOREM_IDS,
                        42, values, 12)
    assert len(got) == len(pairs)
    for (mu, nu), (i, j, ck, verdicts) in zip(pairs, got):
        mu_got, nu_got = caps[i], caps[j]
        assert (mu_got, nu_got) == (mu, nu)
        assert (ck, verdicts) == reference_verdicts(mu, nu, values)
    if faults:
        assert sum(not ok for _, _, _, verdicts in got for _, ok, _ in verdicts) > 400


def test_sweep_keeps_no_state_between_calls(monkeypatch):
    """Value grid A, then B, then A in one process, after a clean run and under injected faults.

    State kept past a call would hand the faulted runs the clean run's
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


def test_sweep_over_consecutive_blocks_of_pairs_adds_up_to_the_whole(monkeypatch):
    """Class and verdict counts add, and failing verdicts concatenate in pair order, when the
    pairs of a sweep go through the verdict arrays in consecutive blocks (here under injected
    faults, so that most checks file entries)."""
    from choqrisk import theorems

    inject_witness_faults(monkeypatch)
    levels, values = (0.0, 0.5, 1.0), tuple(-4.0 + k for k in range(9))
    whole = run_full_report(n=2, levels=levels, values=values)
    caps = list(enumerate_capacities(2, levels))
    tables, pairs = stack(*caps), np.array(list(product(range(len(caps)), repeat=2)))
    blocks = theorems.SweepReport(n=2, levels=levels, seed=42, capacity_count=len(caps))
    for start, stop in ((0, 10), (10, 11), (11, 50), (50, 81)):
        theorems._tally(blocks, theorems._sweep_verdicts(tables, pairs[start:stop], theorems.THEOREM_IDS, 42, values, 12))
    blocks.counterexamples = blocks.verdict_counts["jensen converse"][0]
    assert len(whole.unexpected) > 100
    assert blocks.to_json_dict() == whole.to_json_dict() and blocks.to_text() == whole.to_text()


def test_lemma_sweep_traced_peak_is_bounded():
    """The lemma trials over the 16,641 three-level n = 3 pairs gather each capacity's step-cell
    values once and combine them by pair a block at a time: a traced peak of 38 MB, set by
    per-pair (pairs, rows, cells) gathers, fell to about 13 MB."""
    import tracemalloc

    tracemalloc.start()
    try:
        report = run_full_report(n=3, levels=(0.0, 0.5, 1.0), theorems=("lemma",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.pair_count == 16641 and report.clean
    assert peak <= 19 * 10**6


def test_sweep_leaves_numpy_ma_unimported():
    # np.unique without an inverse, index or counts imports numpy.ma, which costs a fresh process
    # memory; no sweep step needs it
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = (
        "import sys\n"
        "from choqrisk import run_full_report\n"
        "run_full_report(n=2, levels=(0, 0.5, 1))\n"
        "run_full_report(n=3, levels=(0, 1))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False"]


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
    maps = concave_increasing_gallery() + [PlainMap("expm1", math.expm1), Power(0.5, 2.0), Power(0.0, 0.5)]
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
    perturb_halves_from_row(monkeypatch, 40)
    verdict = two_valued_concavity_probe(mu, nu, Exponential(1.0), values)
    assert (verdict.check, verdict.holds, verdict.checked) == ("two-valued mixture form", False, 40)
    assert verdict.witness["integral"] == pytest.approx(verdict.witness["expected"] + 1.0, abs=1e-9)


def perturb_halves_from_row(monkeypatch, k):
    """The engine's kernel with every gains half off by +1 from row k on."""
    from choqrisk import theorems

    exact = theorems._halves

    def off(tables, xs):
        gains, losses = exact(tables, xs)
        return gains + (np.arange(len(xs)) >= k), losses

    monkeypatch.setattr(theorems, "_halves", off)


def test_sweep_files_the_probe_mixture_form_failure(g3, monkeypatch):
    """Under the same kernel fault, theorem 3 in the sweep files a "two-valued concavity"
    entry for every map whose witness is the probe's mixture-form failure."""
    from choqrisk import theorems

    mu = new_capacity(g3, [0.0, 0.2, 0.3, 0.5, 0.1, 0.4, 0.4, 1.0])
    nu = mu.dual()
    values = tuple(-3.0 + 0.5 * k for k in range(13))
    perturb_halves_from_row(monkeypatch, 40)
    [(_, _, _, verdicts)] = sweep_by_pair(stack(mu, nu), [[0, 1]], ("3",), 42, values, 12)
    assert [(name, ok) for name, ok, _ in verdicts] == [("two-valued concavity", False)] * 4
    probe = two_valued_concavity_probe(mu, nu, Exponential(1.0), values)
    assert probe.check == "two-valued mixture form" and verdicts[0][2] == probe.witness
    for _, _, witness in verdicts:
        assert set(witness) == {"x", "integral", "expected"}
        assert witness["integral"] == pytest.approx(witness["expected"] + 1.0, abs=1e-9)


@pytest.mark.parametrize("k", [0, 5, 70])
def test_collapse_check_stops_at_the_first_perturbed_row(g2, mu_worked, monkeypatch, k):
    mu, nu = unanimity(g2, 0b01), unanimity(g2, 0b10)
    f = Power(1.0, 0.5)  # domain x > -1 drops rows, so checked counts in-domain rows only
    values = tuple(-3.0 + 0.5 * j for j in range(13))
    # the rows the check samples, in its order: every grid row, then 25 dense draws
    rng = np.random.default_rng(4)
    dense = [rng.uniform(min(values), max(values), 2).tolist() for _ in range(25)]
    grid = [r for r in two_point_grid(g2, values).tolist() if all(f.in_domain(v) for v in r)]
    rows = grid + [r for r in dense if all(f.in_domain(v) for v in r)]
    assert 5 < len(grid) < 70 < len(rows)  # k = 70 lands among the dense draws

    perturb_halves_from_row(monkeypatch, k)
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
