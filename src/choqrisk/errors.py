"""Semantic exception hierarchy.

Public functions raise these instead of bare ValueError so callers can
distinguish "your table is broken" from "this pair of inputs does not
satisfy a theorem hypothesis".
"""

from __future__ import annotations


class ChoqriskError(Exception):
    """Base error for this package."""


class NotNormalized(ChoqriskError, ValueError):
    """Set-function endpoints are wrong: table[empty] != 0 or table[full] != 1."""


class NotMonotone(ChoqriskError, ValueError):
    """A subset received a larger value than one of its supersets."""

    def __init__(self, subset: int, superset: int, lo: float, hi: float):
        self.subset = subset
        self.superset = superset
        super().__init__(
            f"monotonicity violated: table[{subset:#b}]={lo!r} > table[{superset:#b}]={hi!r}"
        )


class BadWeights(ChoqriskError, ValueError):
    """Probability weights are negative or do not sum to one."""


class NotAdditive(ChoqriskError, ValueError):
    """Capacity expected to be additive is not."""


class EmptyFamily(ChoqriskError, ValueError):
    """An envelope construction needs at least one member."""


class BadPsi(ChoqriskError, ValueError):
    """Possibility profile invalid: values outside [0,1] or max(psi) != 1."""


class EmptyCoalition(ChoqriskError, ValueError):
    """Unanimity game requires a nonempty coalition."""


class GroundSetMismatch(ChoqriskError, ValueError):
    """Operands live on different ground sets."""


class NotZeroOneValued(ChoqriskError, ValueError):
    """Operation requires a {0,1}-valued capacity."""


class TooLarge(ChoqriskError, ValueError):
    """Work requested beyond a documented size bound (sweeps, oracle cells, pair walks, samples, grids)."""


class DomainError(ChoqriskError, ValueError):
    """Argument outside the domain of a weighting or utility function."""


class NotInRange(ChoqriskError, ValueError):
    """Inverse requested at a point outside the function's range."""


class NonDifferentiable(ChoqriskError, ValueError):
    """Derivative requested at a kink."""


class ZeroDerivative(ChoqriskError, ValueError):
    """Arrow-Pratt coefficient undefined where u' vanishes."""


class OutOfClass(ChoqriskError, ValueError):
    """Scenario fails the premium-existence membership test.

    `reason` names the failed check: "values", "outcome_integral" or
    "utility_integral".
    """

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(f"scenario outside premium class ({reason})")


class HypothesisFailure(ChoqriskError, ValueError):
    """Capacity pair does not satisfy the hypotheses of the requested check."""


class ZeroOneCapacity(ChoqriskError, ValueError):
    """Check requires a capacity that is not {0,1}-valued."""


class SchemaError(ChoqriskError, ValueError):
    """A JSON document does not match the documented schema."""
