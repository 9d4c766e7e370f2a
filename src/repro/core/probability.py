"""Acceptance-probability models (Formulae 4 and 5, plus §V alternatives).

The paper converts a placement's transmission cost ``c`` into an acceptance
probability by comparing it with the *expected* cost ``c_ave`` of placing
the same task on a uniformly random available node::

    P = 1 - exp(-c_ave / c)        (Formulae 4-5)

with the convention ``P = 1`` when ``c = 0`` (local placement costs
nothing — always accept).  A placement cheaper than average gets a ratio
above 1 and therefore a high probability; an expensive one decays toward 0.

The conclusion (§V) flags the exponential form as one candidate among many
and plans to "explore various probabilistic computation models"; ablation A4
does exactly that with two alternatives sharing the same boundary behaviour
(``P(0) = 1``; decreasing in ``c``; depends only on the ratio ``c_ave/c``):

* :class:`HyperbolicModel` — ``P = r / (1 + r)``, heavier-tailed;
* :class:`LinearModel` — ``P = min(1, beta * r)``, a hard cap.

All models evaluate element-wise over numpy arrays.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = [
    "ProbabilityModel",
    "ExponentialModel",
    "HyperbolicModel",
    "LinearModel",
]

ArrayLike = Union[float, np.ndarray]


def _ratio(c_ave: ArrayLike, cost: ArrayLike) -> np.ndarray:
    """``c_ave / cost`` with the paper's zero-cost convention baked in.

    Where ``cost == 0`` the ratio is +inf, which every model maps to 1.
    Where both are 0 (no data anywhere — placement is free everywhere) the
    ratio is also treated as +inf, i.e. accept.  Where ``cost`` is +inf
    (the node cannot reach the task's data across a partitioned fabric)
    the ratio is 0 — placing there is never accepted — even when ``c_ave``
    is +inf too, which would otherwise yield NaN.  A finite ratio that
    overflows (a subnormal ``cost``) saturates to +inf, i.e. accept.
    """
    c_ave = np.asarray(c_ave, dtype=np.float64)
    cost = np.asarray(cost, dtype=np.float64)
    if np.any(cost < 0) or np.any(c_ave < 0):
        raise ValueError("transmission costs must be non-negative")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = np.where(cost > 0, c_ave / np.where(cost > 0, cost, 1.0), np.inf)
    if np.any(np.isinf(cost)):
        r = np.where(np.isinf(cost), 0.0, r)
    return r


class ProbabilityModel:
    """Maps (expected cost, placement cost) to an acceptance probability."""

    name: str = "base"

    def probability(self, c_ave: ArrayLike, cost: ArrayLike) -> np.ndarray:
        """Element-wise acceptance probability in [0, 1]."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class ExponentialModel(ProbabilityModel):
    """The paper's model: ``P = 1 - exp(-c_ave / c)``."""

    name = "exponential"

    def probability(self, c_ave: ArrayLike, cost: ArrayLike) -> np.ndarray:
        r = _ratio(c_ave, cost)
        with np.errstate(over="ignore"):
            p = 1.0 - np.exp(-r)
        return np.where(np.isinf(r), 1.0, p)


class HyperbolicModel(ProbabilityModel):
    """``P = r / (1 + r)`` — same limits, slower decay for costly slots."""

    name = "hyperbolic"

    def probability(self, c_ave: ArrayLike, cost: ArrayLike) -> np.ndarray:
        r = _ratio(c_ave, cost)
        with np.errstate(invalid="ignore"):
            p = r / (1.0 + r)
        return np.where(np.isinf(r), 1.0, p)


class LinearModel(ProbabilityModel):
    """``P = min(1, beta * r)`` — a capped linear ramp in the cost ratio."""

    name = "linear"

    def __init__(self, beta: float = 0.5) -> None:
        if beta <= 0:
            raise ValueError(f"beta must be positive, got {beta}")
        self.beta = beta

    def probability(self, c_ave: ArrayLike, cost: ArrayLike) -> np.ndarray:
        r = _ratio(c_ave, cost)
        p = np.minimum(1.0, self.beta * r)
        return np.where(np.isinf(r), 1.0, p)

    def __repr__(self) -> str:
        return f"LinearModel(beta={self.beta})"
