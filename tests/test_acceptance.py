"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here, not calibrated elsewhere.  Criterion 1 is
asserted exactly as stated for all three published weighting-parameter
sets; the inverse-S pair 0.61/0.69 and the compound-invariance pair with
equal parameters genuinely violate grid dominance near the corners (see
README, "known discrepancies"), so those two sub-checks fail and are left
failing deliberately rather than loosened.
"""

import math

import numpy as np
import pytest

from choqrisk import (
    Exponential,
    GoldsteinEinhorn,
    GroundSet,
    KahnemanTversky,
    Logarithmic,
    NegSqrtKink,
    PiecewiseLinearKink,
    Power,
    PowerExpo,
    Prelec,
    RandomVariable,
    Scenario,
    approx_premium,
    compare_agents,
    dominance_check,
    enumerate_capacities,
    figure_data,
    from_probability,
    gen_choquet,
    is_risk_averse,
    is_weakly_superadditive_on,
    premium,
    riemann_oracle,
    risk_neutral_premium,
    run_full_report,
    zero_one_collapse_check,
    two_valued_concavity_probe,
    nonnegative_axis_check,
    translation_gap,
    unanimity,
)
from choqrisk.capacity import coexistence_set
from choqrisk.premium import sample_outcomes, two_point_outcomes
from choqrisk.sampling import (
    random_capacity,
    random_dominant_pair,
    random_variable,
    rng_from_seed,
)
from choqrisk.theorems import PlainMap
from choqrisk.utility import compose_via_inverse

SWEEP_LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)


def record(cid: str, desc: str, passed: bool, detail: str = ""):
    tag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {cid}: {tag} - {desc}" + (f" [{detail}]" if detail else ""))
    assert passed, f"{cid}: {desc} {detail}"


@pytest.fixture(scope="module")
def pl_capacity():
    from choqrisk import MassFunction, plausibility

    return plausibility(MassFunction(GroundSet(2), (0.0, 0.5, 0.0, 0.5)))


# -------------------------------------------------------------------------
# 1. figure reproduction
# -------------------------------------------------------------------------

PUBLISHED = {
    "kt": (KahnemanTversky(0.61), KahnemanTversky(0.69)),
    "ge": (GoldsteinEinhorn(0.65, 0.60), GoldsteinEinhorn(0.84, 0.65)),
    "prelec": (Prelec(1.0, 0.74), Prelec(1.0, 0.74)),
}


@pytest.mark.parametrize("family", ["kt", "ge", "prelec"])
def test_criterion_01_figure_dominance(family):
    g, h = PUBLISHED[family]
    rows = figure_data(g, h, 1001)
    assert len(rows) == 1001
    assert rows[0] == (0.0, 0.0, 0.0) and rows[-1] == (1.0, 1.0, 1.0)
    # both curves monotone through (0,0) and (1,1)
    gs = [r[1] for r in rows]
    hs = [r[2] for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(gs, gs[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(hs, hs[1:]))
    scan = dominance_check(g, h, 1001)
    bad = [(r[0], r[1] - r[2]) for r in rows if r[1] - r[2] > 1e-12]
    record(
        "C1",
        f"{family}: g <= h_bar at all 1001 grid points (max gap {scan.max_gap:.3e})",
        scan.holds and not bad,
        f"{len(bad)} violating points" if bad else "",
    )


# -------------------------------------------------------------------------
# 2. oracle equivalence
# -------------------------------------------------------------------------

def test_criterion_02_oracle_equivalence():
    rng = rng_from_seed(20_240_001)
    step = 1e-4
    worst = 0.0
    count = 10_000
    for _ in range(count):
        n = int(rng.integers(2, 7))
        ground = GroundSet(n)
        mu = random_capacity(rng, ground)
        nu = random_capacity(rng, ground)
        x = random_variable(rng, ground, -2.0, 2.0)
        err = abs(gen_choquet(mu, nu, x) - riemann_oracle(mu, nu, x, step))
        worst = max(worst, err / ((n + 1) * step))
        if err > (n + 1) * step:
            record("C2", "quadrature oracle within (n+1)*step", False,
                   f"error {err:.3e} at n={n}")
    record("C2a", f"|exact - oracle| <= (n+1)*1e-4 over {count} draws", True,
           f"worst ratio {worst:.3f}")

    worst_add = 0.0
    for _ in range(1_000):
        n = int(rng.integers(2, 7))
        ground = GroundSet(n)
        w = rng.dirichlet(np.ones(n))
        p = from_probability(ground, [float(v) for v in w])
        x = random_variable(rng, ground, -100.0, 100.0)
        expect = sum(wi * xi for wi, xi in zip(w, x.values))
        worst_add = max(worst_add, abs(gen_choquet(p, p, x) - expect))
    record("C2b", "additive pair reduces to the weighted sum over 1000 draws",
           worst_add <= 1e-12, f"worst {worst_add:.2e}")


# -------------------------------------------------------------------------
# 3. lemma suite
# -------------------------------------------------------------------------

def test_criterion_03_lemma_suite():
    rng = rng_from_seed(20_240_002)
    per_property = 10_000
    worst = {"C2": 0.0, "C3": 0.0, "C4": 0.0}
    pair_pool = []
    for _ in range(500):
        ground = GroundSet(int(rng.integers(2, 6)))
        pair_pool.append((random_capacity(rng, ground), random_capacity(rng, ground)))

    for k in range(per_property):
        mu, nu = pair_pool[k % len(pair_pool)]
        ground = mu.ground
        x = random_variable(rng, ground)
        y = RandomVariable(ground, tuple(v + d for v, d in zip(x.values, rng.uniform(0, 5, ground.n))))
        worst["C2"] = max(worst["C2"], gen_choquet(mu, nu, x) - gen_choquet(mu, nu, y))

        b = float(rng.uniform(-3, 3))
        lhs = gen_choquet(mu, nu, x * b)
        rhs = b * (gen_choquet(mu, nu, x) if b > 0 else gen_choquet(nu, mu, x))
        worst["C3"] = max(worst["C3"], abs(lhs - rhs))

        a = float(rng.uniform(-10, 10))
        tg = translation_gap(mu, nu, x, a)
        worst["C4"] = max(worst["C4"], abs(tg.lhs - tg.correction))

    record("C3a", f"monotonicity over {per_property} draws", worst["C2"] <= 1e-9,
           f"worst {worst['C2']:.2e}")
    record("C3b", f"homogeneity with capacity swap over {per_property} draws",
           worst["C3"] <= 1e-9, f"worst {worst['C3']:.2e}")
    record("C3c", f"translation identity over {per_property} draws",
           worst["C4"] <= 1e-9, f"worst {worst['C4']:.2e}")


# -------------------------------------------------------------------------
# 4. biconditional sweep
# -------------------------------------------------------------------------

@pytest.fixture(scope="module")
def jensen_sweep():
    return run_full_report(n=2, levels=SWEEP_LEVELS, seed=42, theorems=("1",))


def test_criterion_04_biconditional_sweep(jensen_sweep):
    report = jensen_sweep
    assert report.pair_count == 625
    ok_fwd, total_fwd = report.verdict_counts.get("jensen forward", (0, 0))
    ok_bwd, total_bwd = report.verdict_counts.get("jensen converse", (0, 0))
    record(
        "C4a",
        f"dominant pairs: no two-valued Jensen violation for concave maps "
        f"({ok_fwd}/{total_fwd} pair-function checks)",
        report.clean and ok_fwd == total_fwd and total_fwd > 0,
    )
    record(
        "C4b",
        f"non-dominant pairs: constructed violation matches the dominance gap "
        f"within 1e-12 ({ok_bwd}/{total_bwd} pairs)",
        ok_bwd == total_bwd == 400,
    )


# -------------------------------------------------------------------------
# 5. collapse identity for {0,1}-valued pairs
# -------------------------------------------------------------------------

def test_criterion_05_zero_one_identity():
    gallery = [Exponential(1.0), PiecewiseLinearKink(), NegSqrtKink(),
               PlainMap("expm1", math.expm1)]
    values = tuple(-3.0 + 0.5 * k for k in range(13))
    caps3 = list(enumerate_capacities(3, (0.0, 1.0)))
    pairs = [(mu, nu) for mu in caps3 for nu in caps3]
    g4 = GroundSet(4)
    singles = [unanimity(g4, 1 << i) for i in range(4)]
    pairs4 = [(a, b) for a in singles for b in singles]
    checked_pairs = 0
    for mu, nu in pairs + pairs4:
        for f in gallery:
            verdict = zero_one_collapse_check(mu, nu, f, values, seed=11)
            if not verdict.holds:
                record("C5", "collapse identity / equivalence", False,
                       f"witness {verdict.witness}")
        checked_pairs += 1
    record("C5", f"identity exact and equivalence consistent over {checked_pairs} "
           "zero-one pairs x 4 functions", checked_pairs >= 100)


# -------------------------------------------------------------------------
# 6. contrapositive probes
# -------------------------------------------------------------------------

def test_criterion_06_contrapositive_probes():
    convex = [PlainMap("expm1", math.expm1), Power(0.5, 2.0)]
    concave = [Exponential(1.0), PiecewiseLinearKink()]
    caps = list(enumerate_capacities(2, SWEEP_LEVELS))
    values = tuple(-3.0 + 0.5 * k for k in range(13))
    nonneg = tuple(0.25 * k for k in range(17))

    probed = found = 0
    clean = 0
    for mu in caps:
        for nu in caps:
            from choqrisk import dominates_dual

            if not dominates_dual(mu, nu).holds or coexistence_set(mu, nu) is None:
                continue
            probed += 1
            for f in convex:
                v = two_valued_concavity_probe(mu, nu, f, values)
                assert v.holds, v.witness
                assert "violation=found" in v.detail, (f.spec(), mu.table, nu.table)
                found += 1
            for f in concave:
                v = two_valued_concavity_probe(mu, nu, f, values)
                assert v.holds, v.witness
                assert "violation=none" in v.detail
                clean += 1
    record("C6a", f"two-valued violations found for every convex probe "
           f"({found} probes over {probed} qualifying pairs)", probed > 0 and found == 2 * probed)
    record("C6b", f"no false positives for concave probes ({clean} probes)",
           clean == 2 * probed)

    interior = [mu for mu in caps if not mu.is_zero_one_valued()]
    found4 = clean4 = 0
    for mu in interior:
        nu = mu.dual()
        v = nonnegative_axis_check(mu, nu, Power(0.0, 2.0), nonneg)
        assert v.holds, v.witness
        found4 += 1
        v = nonnegative_axis_check(mu, nu, Exponential(1.0), nonneg)
        assert v.holds, v.witness
        clean4 += 1
    record("C6c", f"nonnegative-axis probes consistent on {len(interior)} interior "
           "capacities (convex found / concave clean)", found4 == clean4 == len(interior))


# -------------------------------------------------------------------------
# 7. risk aversion
# -------------------------------------------------------------------------

def test_criterion_07_risk_aversion(pl_capacity):
    rng = rng_from_seed(20_240_007)
    total = 0
    target = 5_000
    families = [
        lambda: Exponential(float(rng.uniform(0.2, 3.0))),
        lambda: Power(float(rng.uniform(1.0, 5.0)), float(rng.uniform(0.2, 1.0))),
        lambda: Logarithmic(float(rng.uniform(1.0, 4.0))),
        lambda: PowerExpo(float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.3, 1.0))),
    ]
    k = 0
    while total < target:
        ground = GroundSet(int(rng.integers(2, 5)))
        mu, nu = random_dominant_pair(rng, ground)
        u = families[k % 4]()
        k += 1
        need_nonneg = isinstance(u, PowerExpo)
        outcomes = sample_outcomes(
            rng, ground, 25,
            w_range=(0.5, 2.5),
            x_range=(-0.8, 0.8),
            x_below_w=need_nonneg,
        )
        report = is_risk_averse(u, mu, nu, outcomes)
        if not report.averse:
            record("C7a", "concave agents under dominance never undercut the benchmark",
                   False, f"witness w={report.witness.w} x={report.witness.x.values} "
                   f"u={u.spec()} gap={report.gap:.3e}")
        total += report.checked
    record("C7a", f"premium >= risk-neutral benchmark over {total} scenarios "
           "(four concave families, dominance enforced)", True)

    grid_neg = [-6.0 + 0.5 * k for k in range(12)]
    grid_pos = [0.25 * k for k in range(9)]
    outcomes = two_point_outcomes(pl_capacity.ground, 1.0, grid_neg, grid_pos)
    report = is_risk_averse(NegSqrtKink(), pl_capacity, pl_capacity, outcomes)
    record("C7b", "dominance-violating pair: violation witness found via the "
           "kinked increasing utility", not report.averse,
           f"gap {report.gap:.3e}" if report.witness else "no witness")


# -------------------------------------------------------------------------
# 8. agent comparison
# -------------------------------------------------------------------------

def test_criterion_08_agent_comparison():
    rng = rng_from_seed(20_240_008)
    scenarios_total = 0
    for _ in range(5):
        a2 = float(rng.uniform(0.3, 1.2))
        a1 = a2 + float(rng.uniform(0.3, 1.5))
        ground = GroundSet(int(rng.integers(2, 5)))
        mu, nu = random_dominant_pair(rng, ground)
        if coexistence_set(mu, nu) is None:
            continue
        outcomes = sample_outcomes(rng, ground, 220, w_range=(0.5, 2.0), x_range=(-1.0, 1.0))
        comp = compare_agents(Exponential(a1), Exponential(a2), mu, nu, outcomes)
        assert comp.hypotheses_met
        if not (comp.premium_order_holds and comp.r_order_holds and comp.composition_concave):
            record("C8", "three-way agreement for exponential pairs", False,
                   f"a1={a1:.3f} a2={a2:.3f} verdicts="
                   f"{(comp.premium_order_holds, comp.r_order_holds, comp.composition_concave)}")
        scenarios_total += comp.checked
    record("C8a", f"premium order, curvature order and composition concavity agree "
           f"({scenarios_total} scenarios, exponential pairs a1 > a2)",
           scenarios_total >= 1_000)

    comp = compose_via_inverse(Exponential(2.0), Exponential(1.0))
    h = 1e-4
    worst = 0.0
    for x in comp.grid(41, (-2.0, 2.0)):
        fd = (comp.value(x + h) - 2 * comp.value(x) + comp.value(x - h)) / (h * h)
        worst = max(worst, abs(fd - comp.second(x)))
    record("C8b", "closed-form composed curvature matches finite differences",
           worst <= 1e-5, f"worst {worst:.2e}")


# -------------------------------------------------------------------------
# 9. approximation quality
# -------------------------------------------------------------------------

def test_criterion_09_approximation():
    rng = rng_from_seed(20_240_009)
    worst_rel = 0.0
    count = 1_000
    for _ in range(count):
        n = int(rng.integers(2, 6))
        ground = GroundSet(n)
        mu = random_capacity(rng, ground)
        nu = random_capacity(rng, ground)
        # curvature kept small enough that the quadratic remainder
        # r_u * pi0^2 / 2 stays below the 1e-4 * max|X| budget
        a = float(rng.uniform(0.001, 0.01))
        w = float(rng.uniform(0.5, 2.0))
        x = random_variable(rng, ground, -0.01, 0.01)
        s = Scenario(w, x, mu, nu, Exponential(a))
        err = abs(premium(s) - approx_premium(s))
        scale = max(abs(v) for v in x.values)
        worst_rel = max(worst_rel, err / scale)
    record("C9a", f"|premium - approximation| <= 1e-4 * max|X| over {count} "
           "small-outcome exponential scenarios", worst_rel <= 1e-4,
           f"worst ratio {worst_rel:.3e}")

    bad = 0
    for _ in range(1_000):
        ground = GroundSet(int(rng.integers(2, 5)))
        mu = random_capacity(rng, ground)
        nu = mu.dual()
        x = random_variable(rng, ground, -0.5, 0.5)
        s = Scenario(1.0, x, mu, nu, Exponential(float(rng.uniform(0.2, 2.0))))
        if approx_premium(s) < risk_neutral_premium(s) - 1e-12:
            bad += 1
    record("C9b", "conjugate pairs: approximation never below the benchmark "
           "(1000 draws)", bad == 0)


# -------------------------------------------------------------------------
# 10. documented discrepancy
# -------------------------------------------------------------------------

def test_criterion_10_documented_discrepancy():
    u = Logarithmic(1.0)
    grid = [-0.95 + k * (6.0 + 0.95) / 140 for k in range(141)]
    check = is_weakly_superadditive_on(u, [x for x in grid if u.in_domain(x)])
    record("C10a", "checker certifies ln(1+x) as weakly superadditive on the grid",
           check.holds)

    from pathlib import Path

    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text().lower()
    record("C10b", "README records the weak-superadditivity discrepancy",
           "ln(1+x)" in text and "superadditiv" in text)
