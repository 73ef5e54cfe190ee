"""Generalized Choquet integrals, capacities, and risk premiums on finite ground sets.

Every public name but ``premium`` is read from its layer module when accessed (PEP 562), so
``import choqrisk`` loads only ``premium`` and the layers it imports; the rest load on first use.
"""

from importlib import import_module

__version__ = "0.1.0"

#: the layer module that defines each re-exported name
_EXPORTS = {
    "capacity": (
        "Capacity", "DominanceCheck", "GroundSet", "MassFunction", "belief", "credibility", "distort",
        "dominates_dual", "from_probability", "hurwicz", "is_superadditive", "is_uncertainty_measure",
        "necessity", "new_capacity", "plausibility", "possibility", "unanimity",
    ),
    "integral": (
        "IntervalI", "RandomVariable", "ax_bx", "choquet", "gen_choquet", "gen_choquet_batch", "in_l_class",
        "lower_tail", "riemann_oracle", "scaled_integral", "sipos", "step_integral", "survival",
        "translation_gap",
    ),
    "premium": (
        "Scenario", "approx_premium", "compare_agents", "is_risk_averse", "nonneg_loss_check", "premium",
        "risk_neutral_premium",
    ),
    "theorems": (
        "CapacityEnumerator", "Verdict", "integral_property_checks", "enumerate_capacities",
        "jensen_counterexample", "jensen_holds", "run_full_report", "zero_one_collapse_check",
        "two_valued_concavity_probe", "nonnegative_axis_check",
    ),
    "utility": (
        "Exponential", "Linear", "Logarithmic", "NegSqrtKink", "PiecewiseLinearKink", "Power", "PowerExpo",
        "TabulatedUtility", "UtilityFunction", "arrow_pratt", "compose_via_inverse", "is_concave_on",
        "is_weakly_superadditive_on", "parse_utility",
    ),
    "weighting": (
        "GoldsteinEinhorn", "Identity", "KahnemanTversky", "Prelec", "TabulatedWeighting", "WeightingFunction",
        "dominance_check", "figure_data", "parse_weighting",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
#: the layer modules reached as attributes of the package
_SUBMODULES = ("capacity", "errors", "integral", "theorems", "utility", "weighting")

__all__ = sorted([*_SOURCE, *_SUBMODULES])

# Loading a submodule binds it onto the package under its own name, which here would hide the
# function premium(); bound after that load, the function stays ``choqrisk.premium`` in every
# import order.
from .premium import premium  # noqa: E402


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name in _SOURCE:
        # read afresh on each access rather than cached here, so that a name rebound in its layer
        # module reads the same through the package
        return getattr(import_module(f"{__name__}.{_SOURCE[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
