"""Moment-based concentration bounds, clamped to valid probabilities.

Upper bounds: Markov (``P(Z >= eps) <= E[Z]/eps`` for ``Z >= 0``) and
Chebyshev (``P(|Z - E[Z]| >= eps) <= Var(Z)/eps^2``).  Lower bound:
Paley-Zygmund (``P(Z >= eps) >= (E[Z] - eps)^2 / (Var(Z) + E[Z]^2)`` for
``Z >= 0`` and ``eps <= E[Z]``).

Markov and Chebyshev are clamped to 1: the raw ratios can exceed 1, where
the bound is vacuous anyway, and clamping keeps probability semantics.
"""

from __future__ import annotations

import math

__all__ = [
    "markov_bound",
    "chebyshev_bound",
    "paley_zygmund_lower",
]


def markov_bound(mean: float, eps: float) -> float:
    """Upper bound on ``P(Z >= eps)`` for a non-negative variable Z."""
    if not mean >= 0:
        raise ValueError(f"mean must be >= 0 (Z is non-negative), got {mean}")
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    return min(1.0, mean / eps)


def chebyshev_bound(variance: float, eps: float) -> float:
    """Upper bound on ``P(|Z - E[Z]| >= eps)``.

    Equals ``markov_bound(variance, eps**2)``: the deviation event is the
    event that the non-negative variable ``(Z - E[Z])^2`` reaches ``eps^2``.
    Where ``eps**2`` leaves the float range the bound is still given: 1 (0
    for a zero variance) when the square underflows to 0, and
    ``variance / inf`` when it overflows.
    """
    if not variance >= 0:
        raise ValueError(f"variance must be >= 0, got {variance}")
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    try:
        eps_sq = eps**2
    except OverflowError:
        eps_sq = math.inf
    if eps_sq == 0.0:
        return 0.0 if variance == 0 else 1.0
    return min(1.0, variance / eps_sq)


def paley_zygmund_lower(mean: float, variance: float, eps: float) -> float:
    """Lower bound on ``P(Z >= eps)`` for a non-negative variable Z.

    Valid only on ``0 <= eps <= mean``; larger eps is rejected because the
    derivation requires it.  The all-zero degenerate case (mean, variance,
    eps all 0) returns 0, a correct if useless lower bound.
    """
    if not (mean >= 0 and variance >= 0):
        raise ValueError(
            f"mean and variance must be >= 0, got mean={mean}, variance={variance}"
        )
    if not 0 <= eps <= mean:
        raise ValueError(f"eps must be in [0, mean={mean}], got {eps}")
    denom = variance + mean**2
    if denom == 0.0:
        return 0.0
    return (mean - eps) ** 2 / denom

