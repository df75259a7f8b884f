"""Tail functionals of the information density ratio W_x(y) / W_p(y).

``tail_pair`` evaluates, exactly, the pair

    delta       = E_p W_x{ W_x/W_p >  C }      (strict inequality)
    delta_prime = E_p W_x^2/W_p { W_x/W_p <= C }  (inclusive)

Every threshold test of the package (these tail pairs, the level sets
of identification, the threshold decoder of wiretap codes) follows one
rule, read from the density log(W_x(y)/W_p(y)) that ``channel._density``
forms for every pair: a pair is over C when its density exceeds
log(C).  A computed tie W_x(y)/W_p(y) == C is never over, and a pair
with W_p(y) = 0 < W_x(y) always is.

``product_tail_pair`` does the same on the n-fold memoryless product,
and ``spectrum_cdf`` gives the law of the normalized density there,
both by the method of types.  The density of a product pair depends
only on how often each single-letter density value occurs in it, so
the pairs fall into type classes, one per count vector k over the
distinct single-letter densities v_i with masses m_i: a class has
density sum_i k_i v_i and probability multinomial(n; k) prod_i m_i^k_i.
That leaves C(n+b-1, b-1) classes for b distinct densities, where the
product has one atom per tuple of positive-mass (x, y) letters; a BSC
with uniform input has n+1 classes.  The enumeration budget caps the
class count.
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
    _check_positive,
    _density,
    _integer,
)

_EDGE_TOL = 1e-9


@dataclass(frozen=True)
class TailPair:
    """Tail mass delta and truncated second moment delta_prime at threshold C."""

    delta: float
    delta_prime: float
    threshold_C: float

    def __post_init__(self):
        _check_positive(self.threshold_C, "threshold_C")
        if not -_EDGE_TOL <= self.delta <= 1.0 + _EDGE_TOL:
            raise ValueError(f"delta {self.delta!r} outside [0, 1]")
        # delta_prime rounds relative to C: e^(n log b) at C = b^n is off
        # by a few ulps of C, well past 1e-9 once C is above about 1e7
        top = self.threshold_C + _EDGE_TOL * max(self.threshold_C, 1.0)
        if not -_EDGE_TOL <= self.delta_prime <= top:
            raise ValueError(
                f"delta_prime {self.delta_prime!r} outside [0, C={self.threshold_C!r}]"
            )
        object.__setattr__(self, "delta", min(max(self.delta, 0.0), 1.0))
        object.__setattr__(
            self, "delta_prime", min(max(self.delta_prime, 0.0), self.threshold_C)
        )


def tail_pair(p: Distribution, W: Channel, C: float) -> TailPair:
    """Exact (delta, delta_prime) for a single-letter channel."""
    _check_positive(C, "C")
    ratio, dens, joint = _density(W, p)
    over = dens > math.log(C)
    delta = float(np.sum(joint[over]))
    delta_prime = float(np.sum(joint[~over] * ratio[~over]))
    return TailPair(delta, delta_prime, float(C))


def _type_classes(p: Distribution, W: Channel, n: int,
                  budget: EnumerationBudget) -> tuple[np.ndarray, np.ndarray]:
    """Log-density and log-probability of each type class of the n-fold pair.

    Single-letter (x, y) pairs of positive mass that share a density
    value are merged into one letter.  Ties: a class density is
    sum_i k_i * v_i, each term rounded once and the sum taken left to
    right over the letters in increasing order of v_i, so a class whose
    every pair has the same letter has density exactly n * v; callers
    compare it with the threshold as it is.
    """
    n = _integer(n, "n")
    _, density, joint = _density(W, p)
    xs, ys = np.nonzero(joint > 0)
    values, letter = np.unique(density[xs, ys], return_inverse=True)
    budget.check(math.comb(n + values.size - 1, values.size - 1),
                 f"{n}-fold type class enumeration")
    log_mass = np.log(np.bincount(letter, weights=joint[xs, ys]))
    log_fact = np.array([math.lgamma(j + 1.0) for j in range(n + 1)])
    # the classes are built letter by letter, in lexicographic order of
    # their count vectors; `left` is what the later letters still share
    dens, log_prob, left = np.zeros(1), log_fact[[n]], np.array([n])
    for i, v in enumerate(values):
        if i < values.size - 1:
            reps = left + 1
            k = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
            dens, log_prob, left = (np.repeat(a, reps)
                                    for a in (dens, log_prob, left))
        else:
            k = left
        dens = dens + k * v
        log_prob = log_prob - log_fact[k] + k * log_mass[i]
        left = left - k
    return dens, log_prob


def spectrum_cdf(p: Distribution, W: Channel, a: float, n: int = 1,
                 budget: EnumerationBudget = DEFAULT_BUDGET) -> float:
    """P{ (1/n) log(W^n_x(y)/W^n_p(y)) <= a } under p^n x W^n, inclusive.

    A class counts when its density (see the tie rule of
    ``_type_classes``) is at most n * a.
    """
    dens, log_prob = _type_classes(p, W, n, budget)
    mass = float(np.sum(np.exp(log_prob[dens <= n * a])))
    return min(max(mass, 0.0), 1.0)


def product_tail_pair(p: Distribution, W: Channel, C: float, n: int,
                      budget: EnumerationBudget = DEFAULT_BUDGET) -> TailPair:
    """Exact (delta, delta_prime) on the n-fold product at threshold C.

    A class is over the threshold when its density (see the tie rule
    of ``_type_classes``) exceeds log(C).
    """
    _check_positive(C, "C")
    dens, log_prob = _type_classes(p, W, n, budget)
    over = dens > math.log(C)
    delta = float(np.sum(np.exp(log_prob[over])))
    under = ~over
    delta_prime = float(np.sum(np.exp(log_prob[under] + dens[under])))
    return TailPair(delta, delta_prime, float(C))


def eta(x: float) -> float:
    """The concave corner term -x log x, with eta(0) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("eta is used on [0, 1] only")
    if x == 0.0:
        return 0.0
    return -x * math.log(x)
