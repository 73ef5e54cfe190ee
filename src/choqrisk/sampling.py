"""Seeded random generators for capacities, variables and mass functions.

All generators take a ``numpy.random.Generator`` so every randomized suite
is replayable from a single 64-bit seed.
"""

from __future__ import annotations

import numpy as np

from .capacity import Capacity, GroundSet, MassFunction, _values, _zeta, belief, dominates_dual, from_probability
from .integral import RandomVariable


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_capacity(rng: np.random.Generator, ground: GroundSet, style: str | None = None) -> Capacity:
    """Random valid capacity.

    Styles: ``fill`` (iid draws made monotone by upward max-propagation),
    ``belief`` (random mass function), ``additive`` (random probability),
    ``zero-one`` (random monotone {0,1} table).  ``None`` picks a style at
    random, weighted toward ``fill``.
    """
    if style is None:
        style = rng.choice(["fill", "fill", "belief", "additive"])
    n, size = ground.n, ground.size
    if style == "additive":
        w = rng.dirichlet(np.ones(n))
        return from_probability(ground, [float(v) for v in w])
    if style == "belief":
        return belief(random_mass_function(rng, ground))
    if style == "zero-one":
        raw = rng.integers(0, 2, size=size).astype(float)
    elif style == "fill":
        raw = rng.uniform(0.0, 1.0, size=size)
    else:
        raise ValueError(f"unknown style {style!r}")
    raw[0] = 0.0
    raw[size - 1] = 1.0
    return Capacity(ground, _zeta(raw, np.maximum))


def random_dominant_pair(rng: np.random.Generator, ground: GroundSet) -> tuple[Capacity, Capacity]:
    """Random pair with ``mu <= dual(nu)``.

    Built as ``mu = min(m0, dual(nu))`` entrywise, which preserves
    monotonicity and endpoints.
    """
    nu = random_capacity(rng, ground)
    m0, bar = _values(random_capacity(rng, ground)), _values(nu.dual())
    mu = Capacity(ground, np.where(bar < m0, bar, m0))  # min(m0, bar) per entry, m0 on ties
    assert dominates_dual(mu, nu).holds
    return mu, nu


def random_mass_function(rng: np.random.Generator, ground: GroundSet, focal: int | None = None) -> MassFunction:
    """Random mass function concentrated on a few focal sets."""
    size = ground.size
    if focal is None:
        focal = int(rng.integers(1, min(size - 1, 6) + 1))
    subsets = rng.choice(np.arange(1, size), size=min(focal, size - 1), replace=False)
    weights = rng.dirichlet(np.ones(len(subsets)))
    mass = [0.0] * size
    for s, w in zip(subsets, weights):
        mass[int(s)] += float(w)
    return MassFunction(ground, tuple(mass))


def random_variable(
    rng: np.random.Generator, ground: GroundSet, lo: float = -10.0, hi: float = 10.0
) -> RandomVariable:
    vals = rng.uniform(lo, hi, size=ground.n)
    return RandomVariable(ground, tuple(float(v) for v in vals))
