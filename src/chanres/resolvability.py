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
    _blocks,
    _check_fits_float,
    _check_inputs,
    _indices,
    _integer,
    _kl,
    _kl_rows,
    _kron_chain,
    _prefix_table,
    _word_rows,
    output_distribution,
)
from .exponents import phi
from .rng import sample_indices, uniforms
from .spectrum import TailPair, eta, product_tail_pair

PHI_T_GRID = np.linspace(-0.5, -0.05, 11)


@dataclass(frozen=True)
class ResolvabilityCode:
    """Multiset of input symbols, one per codeword slot."""

    codewords: tuple[int, ...]

    def __post_init__(self):
        codewords = _indices(self.codewords, "codeword")
        _integer(codewords.size, "M")
        object.__setattr__(self, "codewords", tuple(codewords.tolist()))


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error next to an analytic bound."""

    mean: float
    std_error: float
    trials: int
    bound: float


def sample_code(p: Distribution, M: int, seed: int) -> ResolvabilityCode:
    """Draw M codewords i.i.d. from p; draw j uses the (seed, j) stream."""
    M = _integer(M, "M")
    idx = sample_indices(p.probs, uniforms(seed, range(M)))
    return ResolvabilityCode(idx)


def _gaps(mix: np.ndarray, wp: np.ndarray) -> tuple[float, float]:
    return float(np.abs(mix - wp).sum()), _kl(mix, wp)


def eval_code(code: ResolvabilityCode, W: Channel, p: Distribution
              ) -> tuple[float, float]:
    """Exact (variational distance, divergence) of the code's output mixture."""
    _check_inputs(W, p, code.codewords)
    wp = output_distribution(W, p).probs
    mix = W.rows[list(code.codewords)].mean(axis=0)
    return _gaps(mix, wp)


def _code_bounds(tp: TailPair, M: int, n: int, W: Channel, p: Distribution
                 ) -> tuple[float, float, float, float]:
    """(vd, eta, phi bound, its t) for a random code of M words drawn
    from p^n on W^n.

    tp is the tail pair of the n-fold channel; W and p are single-letter.
    The phi bound is min over PHI_T_GRID of log(1 + e^x) / (-t) with
    x = t*log M + n*phi(t | W, p); for x > 709, where e^x overflows,
    log(1 + e^x) is x to double precision.  Raises ValueError when M
    does not fit a float, as the bounds divide by it.
    """
    _check_fits_float(M, "M")
    vd = 2.0 * tp.delta + math.sqrt(tp.delta_prime / M)
    bound_eta = (eta(tp.delta) + tp.delta * n * math.log(W.output_size)
                 + tp.delta_prime / M)
    log_m = math.log(M)

    def log1p_exp(x):
        try:
            return math.log1p(math.exp(x))
        except OverflowError:
            return x

    bound_phi, t = min(
        (log1p_exp(t * log_m + n * v) / (-t), t)
        for t, v in zip(PHI_T_GRID.tolist(),
                        phi(PHI_T_GRID, W, p).tolist()))
    return vd, bound_eta, bound_phi, t


def expectation_bounds(p: Distribution, W: Channel, M: int, C: float,
                       n: int = 1,
                       budget: EnumerationBudget = DEFAULT_BUDGET):
    """Tail pair and the three expectation bounds at codebook size M.

    Returns (tail, vd_bound, kl_eta_bound, kl_phi_bound) where the
    variational-distance bound is 2*delta + sqrt(delta_prime/M), the
    corner-term divergence bound is eta(delta) + delta*log|Y^n| +
    delta_prime/M, and the phi bound is minimized over a fixed t grid.
    """
    M = _integer(M, "M")
    tp = product_tail_pair(p, W, C, n, budget)
    return (tp, *_code_bounds(tp, M, n, W, p)[:3])


def mc_expectation(p: Distribution, W: Channel, M: int, C: float,
                   trials: int, seed: int, n: int = 1,
                   budget: EnumerationBudget = DEFAULT_BUDGET
                   ) -> tuple[McEstimate, McEstimate, McEstimate]:
    """Monte Carlo means of both gaps on the n-fold product channel.

    Codewords are sampled coordinate-wise from p, trial i using the
    (seed, i) stream, and only the W^n rows of the sampled words are
    built: each from the row of its first k letters in a table of W^k,
    the largest k <= n whose table fits in _BLOCK_FLOATS, then n - k
    product steps.  Trials run in index order in blocks whose rows, and
    whose draws, take at most _BLOCK_FLOATS floats (one trial at least).
    On a one-output channel both gaps are exactly 0, so nothing is drawn.
    The table, like the blocks, is not charged to the budget, so a cap
    below |X|^n |Y|^n states (10000 at n = 8 on a binary channel) still
    runs.  The result is a pure function of the arguments.  Returns
    three estimates: variational distance against 2*delta +
    sqrt(delta_prime/M), divergence against the corner-term bound
    eta(delta) + delta*log|Y^n| + delta_prime/M, and the same divergence
    samples against the phi-based bound minimized over a t grid.
    """
    trials = _integer(trials, "trials", 100)
    L = W.output_size
    budget.check(L ** n, f"{n}-fold output distribution")

    _, bound_vd, bound_eta, bound_phi = expectation_bounds(
        p, W, M, C, n, budget)
    budget.check(_integer(M, "M") * n, f"one trial's {M} words of {n} letters")

    eps_s = np.zeros(trials)
    div_s = np.zeros(trials)
    if L == 1:  # every W^n row, so every mixture, is W_p^n = [1.0]
        _integer(seed, "seed", 0, 2 ** 64)      # the check of `uniforms`
        blocks = []
    else:       # L^n >= n: a trial holds M rows of L^n floats, M*n draws
        blocks = _blocks(trials, M * L ** n)
        wpn = _kron_chain([output_distribution(W, p).probs] * n)
        prefix = _prefix_table(W, n)
    for blk in blocks:
        words = sample_indices(p.probs,
                               uniforms(seed, range(trials)[blk], (M, n)))
        # sum each trial's rows in word order, as .mean(axis=0) does,
        # carrying the partial sum into the first row of the next part
        # when a trial spans several blocks
        mix = None
        for part in _blocks(M, L ** n):
            rows = _word_rows(W, words[:, part], prefix)
            if mix is not None:
                rows[:, 0] += mix
            mix = rows.sum(axis=1)
        mix /= M
        eps_s[blk] = np.abs(mix - wpn).sum(axis=1)
        div_s[blk] = _kl_rows(mix, wpn)

    def estimate(samples: np.ndarray, bound: float) -> McEstimate:
        return McEstimate(
            mean=float(np.mean(samples)),
            std_error=float(np.std(samples, ddof=1) / math.sqrt(trials)),
            trials=trials, bound=float(bound))

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


_BRUTE_FORCE_LIMIT = 10 ** 6


def brute_force_min(M: int, W: Channel, p: Distribution) -> BruteForceResult:
    """Exhaustive minimization over codeword multisets of size M; raises
    BudgetError past _BRUTE_FORCE_LIMIT multisets."""
    M = _integer(M, "M")
    K = W.input_size
    count = math.comb(K + M - 1, M)
    if count > _BRUTE_FORCE_LIMIT:
        raise BudgetError(f"brute force would scan {count} multisets, "
                          f"over the cap of {_BRUTE_FORCE_LIMIT}")
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
        eps_min=best_eps, best_code=ResolvabilityCode(arg_eps),
        div_min=best_div, best_code_div=ResolvabilityCode(arg_div),
    )
