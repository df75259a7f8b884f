"""Tail functionals of the information density ratio W_x(y) / W_p(y).

``tail_pair`` evaluates, exactly, the pair

    delta       = E_p W_x{ W_x/W_p >  C }      (strict inequality)
    delta_prime = E_p W_x^2/W_p { W_x/W_p <= C }  (inclusive)

and ``product_tail_pair`` does the same on the n-fold product channel
without materializing product rows: per-coordinate log-density atoms
are combined by broadcast outer sums, which caps the work at the joint
atom count rather than the product alphabet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    DEFAULT_BUDGET,
    Channel,
    Distribution,
    EnumerationBudget,
    output_distribution,
)

_EDGE_TOL = 1e-9


@dataclass(frozen=True)
class TailPair:
    """Tail mass delta and truncated second moment delta_prime at threshold C."""

    delta: float
    delta_prime: float
    threshold_C: float

    def __post_init__(self):
        if not 0 < self.threshold_C < math.inf:
            raise ValueError("threshold_C must be positive and finite")
        if not -_EDGE_TOL <= self.delta <= 1.0 + _EDGE_TOL:
            raise ValueError(f"delta {self.delta!r} outside [0, 1]")
        if not -_EDGE_TOL <= self.delta_prime <= self.threshold_C + _EDGE_TOL:
            raise ValueError(
                f"delta_prime {self.delta_prime!r} outside [0, C={self.threshold_C!r}]"
            )
        object.__setattr__(self, "delta", min(max(self.delta, 0.0), 1.0))
        object.__setattr__(
            self, "delta_prime", min(max(self.delta_prime, 0.0), self.threshold_C)
        )


def tail_pair(p: Distribution, W: Channel, C: float) -> TailPair:
    """Exact (delta, delta_prime) for a single-letter channel."""
    if not 0 < C < math.inf:
        raise ValueError("C must be positive and finite")
    wp = output_distribution(W, p).probs
    live = wp > 0
    rows = W.rows[:, live]
    ratio = rows / wp[live]
    joint = p.probs[:, None] * rows
    over = ratio > C
    delta = float(np.sum(joint[over]))
    under = ~over
    delta_prime = float(np.sum((joint * ratio)[under]))
    return TailPair(delta, delta_prime, float(C))


def _density_atoms(p: Distribution, W: Channel, n: int,
                   budget: EnumerationBudget) -> tuple[np.ndarray, np.ndarray]:
    """Log-density and joint log-probability atoms of the n-fold pair.

    Atom k of the output arrays corresponds to one product pair (x, y)
    with p^n(x) W^n_x(y) > 0; entries are log(W_x(y)/W_p(y)) and
    log(p(x) W_x(y)) summed over coordinates.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    wp = output_distribution(W, p).probs
    joint = p.probs[:, None] * W.rows
    xs, ys = np.nonzero(joint > 0)
    budget.check(len(xs) ** n, f"{n}-fold density atom enumeration")
    dens1 = np.log(W.rows[xs, ys]) - np.log(wp[ys])
    jlp1 = np.log(joint[xs, ys])
    dens = dens1
    jlp = jlp1
    for _ in range(n - 1):
        dens = (dens[:, None] + dens1[None, :]).ravel()
        jlp = (jlp[:, None] + jlp1[None, :]).ravel()
    return dens, jlp


def spectrum_cdf(p: Distribution, W: Channel, a: float, n: int = 1,
                 budget: EnumerationBudget = DEFAULT_BUDGET) -> float:
    """P{ (1/n) log(W^n_x(y)/W^n_p(y)) <= a } under p^n x W^n, inclusive."""
    dens, jlp = _density_atoms(p, W, n, budget)
    mass = float(np.sum(np.exp(jlp[dens <= n * a])))
    return min(max(mass, 0.0), 1.0)


def product_tail_pair(p: Distribution, W: Channel, C: float, n: int,
                      budget: EnumerationBudget = DEFAULT_BUDGET) -> TailPair:
    """Exact (delta, delta_prime) on the n-fold product at threshold C."""
    if not 0 < C < math.inf:
        raise ValueError("C must be positive and finite")
    dens, jlp = _density_atoms(p, W, n, budget)
    thr = math.log(C)
    over = dens > thr
    delta = float(np.sum(np.exp(jlp[over])))
    under = ~over
    delta_prime = float(np.sum(np.exp(jlp[under] + dens[under])))
    return TailPair(delta, delta_prime, float(C))


def eta(x: float) -> float:
    """The concave corner term -x log x, with eta(0) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("eta is used on [0, 1] only")
    if x == 0.0:
        return 0.0
    return -x * math.log(x)
