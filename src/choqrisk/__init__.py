"""Generalized Choquet integrals, capacities, and risk premiums on finite ground sets."""

__version__ = "0.1.0"

from .capacity import (
    Capacity,
    DominanceCheck,
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
from .integral import (
    IntervalI,
    RandomVariable,
    ax_bx,
    choquet,
    gen_choquet,
    gen_choquet_batch,
    in_l_class,
    lower_tail,
    riemann_oracle,
    scaled_integral,
    sipos,
    step_integral,
    survival,
    translation_gap,
)
from .premium import (
    Scenario,
    approx_premium,
    compare_agents,
    is_risk_averse,
    nonneg_loss_check,
    premium,
    risk_neutral_premium,
)
from .theorems import (
    CapacityEnumerator,
    Verdict,
    integral_property_checks,
    enumerate_capacities,
    jensen_counterexample,
    jensen_holds,
    run_full_report,
    zero_one_collapse_check,
    two_valued_concavity_probe,
    nonnegative_axis_check,
)
from .utility import (
    Exponential,
    Linear,
    Logarithmic,
    NegSqrtKink,
    PiecewiseLinearKink,
    Power,
    PowerExpo,
    TabulatedUtility,
    UtilityFunction,
    arrow_pratt,
    compose_via_inverse,
    is_concave_on,
    is_weakly_superadditive_on,
    parse_utility,
)
from .weighting import (
    GoldsteinEinhorn,
    Identity,
    KahnemanTversky,
    Prelec,
    TabulatedWeighting,
    WeightingFunction,
    dominance_check,
    figure_data,
    parse_weighting,
)

__all__ = [name for name in dir() if not name.startswith("_")]
