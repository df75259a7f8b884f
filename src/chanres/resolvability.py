"""Random-coding simulation of output-distribution approximation.

A code is a list of input symbols; its output mixture is compared with
the target mixture W_p in variational distance and divergence.  The
Monte Carlo driver draws codes i.i.d. from p, evaluates both gaps
exactly on the n-fold product channel, and places the sample means
next to the analytic expectation bounds computed from the tail pair
(delta, delta_prime) and the phi generating function.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    DEFAULT_BUDGET,
    BudgetError,
    Channel,
    Distribution,
    EnumerationBudget,
    _kl,
    _kron_chain,
    _word_rows,
    output_distribution,
)
from .exponents import phi
from .rng import sample_indices, stream
from .spectrum import eta, product_tail_pair

PHI_T_GRID = np.linspace(-0.5, -0.05, 11)

# floats of W^n rows built at once by mc_expectation; capped for memory
# (blocks of 2**20 floats raised the peak RSS of the benchmark's
# montecarlo jobs from 37 to 57 MB, at no gain in speed)
_BLOCK_FLOATS = 2 ** 14


@dataclass(frozen=True)
class ResolvabilityCode:
    """Multiset of input symbols, one per codeword slot."""

    codewords: tuple[int, ...]
    M: int

    def __post_init__(self):
        object.__setattr__(self, "codewords",
                           tuple(int(c) for c in self.codewords))
        if self.M != len(self.codewords) or self.M < 1:
            raise ValueError("M must equal the number of codewords")
        if any(c < 0 for c in self.codewords):
            raise ValueError("codeword indices must be nonnegative")


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error next to an analytic bound."""

    mean: float
    std_error: float
    trials: int
    bound: float
    seed: int

    def __post_init__(self):
        if self.trials < 2:
            raise ValueError("standard error needs at least 2 trials")


def sample_code(p: Distribution, M: int, seed: int) -> ResolvabilityCode:
    """Draw M codewords i.i.d. from p; draw j uses the (seed, j) stream."""
    if M < 1:
        raise ValueError("M must be positive")
    u = np.array([stream(seed, j).random() for j in range(M)])
    idx = sample_indices(p.probs, u)
    return ResolvabilityCode(tuple(int(i) for i in idx), M)


def _gaps(mix: np.ndarray, wp: np.ndarray) -> tuple[float, float]:
    return float(np.abs(mix - wp).sum()), _kl(mix, wp)


def eval_code(code: ResolvabilityCode, W: Channel, p: Distribution
              ) -> tuple[float, float]:
    """Exact (variational distance, divergence) of the code's output mixture."""
    if max(code.codewords) >= W.input_size:
        raise ValueError("codeword index outside the input alphabet")
    wp = output_distribution(W, p).probs
    mix = W.rows[list(code.codewords)].mean(axis=0)
    return _gaps(mix, wp)


def expectation_bounds(p: Distribution, W: Channel, M: int, C: float,
                       n: int = 1,
                       budget: EnumerationBudget = DEFAULT_BUDGET):
    """Tail pair and the three expectation bounds at codebook size M.

    Returns (tail, vd_bound, kl_eta_bound, kl_phi_bound) where the
    variational-distance bound is 2*delta + sqrt(delta_prime/M), the
    corner-term divergence bound is eta(delta) + delta*log|Y^n| +
    delta_prime/M, and the phi bound is minimized over a fixed t grid.
    """
    if M < 1:
        raise ValueError("M must be positive")
    tp = product_tail_pair(p, W, C, n, budget)
    bound_vd = 2.0 * tp.delta + math.sqrt(tp.delta_prime / M)
    bound_eta = (eta(tp.delta) + tp.delta * n * math.log(W.output_size)
                 + tp.delta_prime / M)
    log_m = math.log(M)
    bound_phi = float(min(
        math.log1p(math.exp(t * log_m + n * phi(t, W, p))) / (-t)
        for t in PHI_T_GRID
    ))
    return tp, bound_vd, bound_eta, bound_phi


def mc_expectation(p: Distribution, W: Channel, M: int, C: float,
                   trials: int, seed: int, n: int = 1,
                   budget: EnumerationBudget = DEFAULT_BUDGET
                   ) -> tuple[McEstimate, McEstimate, McEstimate]:
    """Monte Carlo means of both gaps on the n-fold product channel.

    Codewords are sampled coordinate-wise from p, trial i using the
    (seed, i) stream, and only the W^n rows of the sampled words are
    built.  Trials run in index order in blocks; the result is a pure
    function of the arguments.  Returns three estimates: variational
    distance against 2*delta + sqrt(delta_prime/M), divergence against
    the corner-term bound eta(delta) + delta*log|Y^n| + delta_prime/M,
    and the same divergence samples against the phi-based bound
    minimized over a t grid.
    """
    if trials < 100:
        raise ValueError("at least 100 trials are required")
    if M < 1:
        raise ValueError("M must be positive")
    L = W.output_size
    budget.check(L ** n, f"{n}-fold output distribution")

    _, bound_vd, bound_eta, bound_phi = expectation_bounds(
        p, W, M, C, n, budget)

    wpn = _kron_chain([output_distribution(W, p).probs] * n)

    chunk = max(1, _BLOCK_FLOATS // L ** n)     # words per block
    per_block = max(1, chunk // M)              # trials per block
    eps_s = np.empty(trials)
    div_s = np.empty(trials)
    for lo in range(0, trials, per_block):
        hi = min(lo + per_block, trials)
        words = sample_indices(p.probs, np.stack(
            [stream(seed, i).random((M, n)) for i in range(lo, hi)]))
        # sum each trial's rows in word order, as .mean(axis=0) does,
        # carrying the partial sum when a trial spans several blocks
        mix = None
        for a in range(0, M, chunk):
            rows = _word_rows(W, words[:, a:a + chunk])
            if mix is not None:
                rows = np.concatenate([mix[:, None], rows], axis=1)
            mix = rows.sum(axis=1)
        mix /= M
        eps_s[lo:hi] = np.abs(mix - wpn).sum(axis=1)
        div_s[lo:hi] = [_kl(row, wpn) for row in mix]

    def estimate(samples: np.ndarray, bound: float) -> McEstimate:
        return McEstimate(
            mean=float(np.mean(samples)),
            std_error=float(np.std(samples, ddof=1) / math.sqrt(trials)),
            trials=trials, bound=float(bound), seed=seed,
        )

    return (estimate(eps_s, bound_vd),
            estimate(div_s, bound_eta),
            estimate(div_s, bound_phi))


@dataclass(frozen=True)
class BruteForceResult:
    """Exact minima of both gaps over all size-M multisets."""

    eps_min: float
    best_code: ResolvabilityCode
    div_min: float
    best_code_div: ResolvabilityCode


def brute_force_min(M: int, W: Channel, p: Distribution,
                    limit: int = 10 ** 6) -> BruteForceResult:
    """Exhaustive minimization over codeword multisets of size M."""
    if M < 1:
        raise ValueError("M must be positive")
    K = W.input_size
    count = math.comb(K + M - 1, M)
    if count > limit:
        raise BudgetError(
            f"brute force would scan {count} multisets, over the cap of {limit}"
        )
    wp = output_distribution(W, p).probs
    best_eps = math.inf
    best_div = math.inf
    arg_eps = arg_div = None
    for combo in itertools.combinations_with_replacement(range(K), M):
        mix = W.rows[list(combo)].mean(axis=0)
        eps, div = _gaps(mix, wp)
        if eps < best_eps:
            best_eps, arg_eps = eps, combo
        if div < best_div:
            best_div, arg_div = div, combo
    return BruteForceResult(
        eps_min=best_eps, best_code=ResolvabilityCode(arg_eps, M),
        div_min=best_div, best_code_div=ResolvabilityCode(arg_div, M),
    )
