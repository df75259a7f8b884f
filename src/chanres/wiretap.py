"""Random wiretap codes with exact reliability and leakage accounting.

A code is an M x L array of input symbols: entry (m, l) carries
message m with local randomization l.  The legitimate receiver decodes
with either a maximum-likelihood rule or a density-ratio threshold
rule (unclaimed outputs are erasures and count as errors).  Toward the
eavesdropper, message m induces the output mixture over its row; the
leakage is measured exactly as mutual information and as pairwise
variational distance, and compared against analytic random-coding
bounds built from the tail pair and generating functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    Channel,
    Distribution,
    _blocks,
    _check_fits_float,
    _check_inputs,
    _check_positive,
    _density,
    _indices,
    _integer,
    _kl,
    _kl_rows,
    _row_sums,
    output_distribution,
)
from .exponents import _gallager_max
from .resolvability import _code_bounds
from .rng import sample_indices, stream
from .spectrum import tail_pair

DECODER_KINDS = ("maximum_likelihood", "threshold")

_DECOMP_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class WiretapCode:
    """Codeword array with a deterministic decoder table."""

    codewords: np.ndarray          # (M, L) input indices
    decoder: np.ndarray            # per-output message, -1 for erasure

    def __post_init__(self):
        cw = _indices(self.codewords, "codeword")
        if cw.ndim != 2:
            raise ValueError("codewords must form an M x L index array")
        M = _integer(cw.shape[0], "M")
        _integer(cw.shape[1], "L")
        dec = _indices(self.decoder, "decoder entry", -1, M)
        if dec.ndim != 1:
            raise ValueError("decoder must map outputs to messages")
        cw.flags.writeable = dec.flags.writeable = False
        object.__setattr__(self, "codewords", cw)
        object.__setattr__(self, "decoder", dec)


def _check_decoder_kind(kind: str) -> None:
    if kind not in DECODER_KINDS:
        raise ValueError(f"unknown decoder kind {kind!r}")


def _ml_decoder(codewords: np.ndarray, W_B: Channel) -> np.ndarray:
    M, L = codewords.shape
    # likelihood per (l, m, y); first argmax in (l, m) order breaks ties
    vals = W_B.rows[codewords.T]          # (L, M, Y)
    flat = vals.reshape(L * M, W_B.output_size)
    return np.argmax(flat, axis=0) % M


def _threshold_decoder(codewords: np.ndarray, W_B: Channel,
                       p: Distribution, C_prime: float) -> np.ndarray:
    exceed = (_density(W_B, p)[1] > math.log(C_prime))[codewords]  # (M, L, Y)
    # an output decodes iff exactly one (m, l) pair clears the
    # threshold there; zero or multiple claimants erase
    counts = exceed.sum(axis=(0, 1))
    claim = np.argmax(np.any(exceed, axis=1), axis=0)
    return np.where(counts == 1, claim, -1)


def sample_wiretap_code(p: Distribution, M: int, L: int, W_B: Channel,
                        seed: int, index: int = 0,
                        decoder_kind: str = "maximum_likelihood",
                        C_prime: float | None = None) -> WiretapCode:
    """Draw the M x L codeword array i.i.d. from p on the (seed, index)
    stream, once the arguments pass their checks.  C_prime is the
    threshold decoder's; the maximum-likelihood decoder ignores it."""
    M, L = _integer(M, "M"), _integer(L, "L")
    _check_decoder_kind(decoder_kind)
    _check_inputs(W_B, p)
    if decoder_kind == "threshold":
        _check_positive(C_prime, "C_prime")
    cw = sample_indices(p.probs, stream(seed, index).random((M, L)))
    if decoder_kind == "threshold":
        return WiretapCode(cw, _threshold_decoder(cw, W_B, p, C_prime))
    return WiretapCode(cw, _ml_decoder(cw, W_B))


def _sequential_sum(terms: np.ndarray, start: float = 0.0) -> float:
    """start + terms[0] + terms[1] + ..., added left to right.

    np.cumsum adds in sequence, as a Python loop does; np.sum would
    regroup the additions and move printed digits.
    """
    return float(np.cumsum(np.concatenate([[start], terms]))[-1])


@dataclass(frozen=True)
class LeakageReport:
    """Exact reliability and leakage of one code."""

    eps_B: float
    I_E: float
    d_E: float
    decomposition_residual: float


def eval_wiretap(code: WiretapCode, W_B: Channel, W_E: Channel,
                 p: Distribution) -> LeakageReport:
    """Exact (eps_B, I_E, d_E) plus an internal consistency check.

    The divergence decomposition
        mean_m D(Q_m || Phi) + D(Phi || W_p) == mean_m D(Q_m || W_p)
    is an algebraic identity (Phi is the mean of the Q_m), so its
    residual beyond 1e-9 signals numerical error and raises.
    """
    _check_inputs(W_B, p, code.codewords)
    _check_inputs(W_E, p)
    if code.decoder.size != W_B.output_size:
        raise ValueError(f"decoder has {code.decoder.size} entries, channel "
                         f"B has {W_B.output_size} outputs")
    M = code.codewords.shape[0]
    q_b = W_B.rows[code.codewords].mean(axis=1)     # (M, Y_B)
    q_e = W_E.rows[code.codewords].mean(axis=1)     # (M, Y_E)
    phi_row = q_e.mean(axis=0)

    # each message's mass on the outputs decoded to it
    decoded = code.decoder == np.arange(M)[:, None]     # (M, Y_B)
    correct = _sequential_sum(_row_sums(q_b, decoded))
    eps_b = 1.0 - correct / M

    i_e = float(np.mean(_kl_rows(q_e, phi_row)))

    # all (i, j) distances in row order, a block of rows at a time; the
    # diagonal ones are +0.0, which leave a sum of nonnegatives unchanged
    total = 0.0
    for blk in _blocks(M, M * W_E.output_size):
        dist = np.abs(q_e[blk, None, :] - q_e).sum(axis=2)
        total = _sequential_sum(dist.ravel(), total)
    d_e = total / (M * (M - 1)) if M > 1 else 0.0

    wp_e = output_distribution(W_E, p).probs
    to_wp = _kl_rows(q_e, wp_e)
    phi_to_wp = _kl(phi_row, wp_e)
    if np.all(np.isfinite(to_wp)) and math.isfinite(phi_to_wp):
        lhs = i_e + phi_to_wp
        rhs = float(np.mean(to_wp))
        residual = abs(lhs - rhs)
        if residual > _DECOMP_TOL * max(1.0, abs(rhs)):
            raise ArithmeticError(
                f"divergence decomposition residual {residual!r} exceeds "
                f"{_DECOMP_TOL}: numerical error in leakage evaluation"
            )
    else:
        residual = math.nan

    return LeakageReport(eps_B=eps_b, I_E=i_e, d_E=d_e,
                         decomposition_residual=residual)


@dataclass(frozen=True)
class WiretapBounds:
    """The five analytic random-coding guarantees and their optimizers."""

    error_gallager: float
    error_threshold: float
    leak_kl_eta: float
    leak_kl_phi: float
    secrecy_vd: float
    gallager_s: float
    phi_t: float


def wiretap_bounds(W_B: Channel, W_E: Channel, p: Distribution,
                   M: int, L: int, C: float, C_prime: float) -> WiretapBounds:
    """Expected-value guarantees for codes drawn i.i.d. from p.

    Each message's L words form a random code on Eve's channel, so the
    leakage bounds are the resolvability bounds of W_E at codebook size
    L (`resolvability._code_bounds`), tripled (sextupled for the
    pairwise distance), and the error bound is the random-coding bound
    of W_B at rate log(M*L).  M*L, and the threshold error bound at
    C_prime, must fit a float.
    """
    M, L = _integer(M, "M"), _integer(L, "L")
    _check_fits_float(M * L, "M*L")
    _check_positive(C, "C")
    _check_positive(C_prime, "C_prime")
    _check_inputs(W_B, p)
    _check_inputs(W_E, p)
    s_star, neg = _gallager_max(W_B, p, math.log(M) + math.log(L))
    error_gallager = 3.0 * math.exp(-neg)

    miss_b = 1.0 - tail_pair(p, W_B, C_prime).delta
    error_threshold = 3.0 * (miss_b + M * L / C_prime)
    _check_fits_float(error_threshold, "the threshold error bound "
                      "3*(miss + M*L/C_prime)")

    vd, leak_eta, leak_phi, t_star = _code_bounds(
        tail_pair(p, W_E, C), L, 1, W_E, p)
    return WiretapBounds(
        error_gallager=error_gallager, error_threshold=error_threshold,
        leak_kl_eta=3.0 * leak_eta, leak_kl_phi=3.0 * leak_phi,
        secrecy_vd=6.0 * vd, gallager_s=s_star, phi_t=t_star)


@dataclass(frozen=True)
class ConstructionResult:
    """A sampled code together with the guarantees it was screened against."""

    code: WiretapCode
    report: LeakageReport
    bounds: WiretapBounds
    targets: tuple[float, float, float]     # for (eps_B, I_E, d_E)
    flags: tuple[bool, bool, bool]          # each metric within its target
    attempts: int

    @property
    def satisfied(self) -> bool:
        return all(self.flags)


def construct_until_bounds(p: Distribution, W_B: Channel, W_E: Channel,
                           M: int, L: int, C: float, C_prime: float,
                           seed: int, max_retries: int = 100,
                           decoder_kind: str = "maximum_likelihood",
                           on_attempt=None) -> ConstructionResult:
    """Redraw codes until one meets all three guarantees at once.

    Each of the three failure events has expectation-level probability
    below 1/3 at the tripled thresholds, so a joint success has
    positive probability per draw and retrying terminates quickly in
    practice.  Attempts run one at a time in index order, attempt k
    sampling on the (seed, k) stream, so the result is a pure function
    of the arguments.  Exhaustion returns, with per-metric flags instead
    of raising, the attempt that met the most guarantees, then the one
    whose largest excess over a target, relative to that target, is
    smallest, and the first of those on ties.
    """
    max_retries = _integer(max_retries, "max_retries")
    _check_decoder_kind(decoder_kind)
    bounds = wiretap_bounds(W_B, W_E, p, M, L, C, C_prime)
    targets = (bounds.error_threshold if decoder_kind == "threshold"
               else bounds.error_gallager,
               min(bounds.leak_kl_eta, bounds.leak_kl_phi), bounds.secrecy_vd)
    best = None
    for attempt in range(max_retries):
        code = sample_wiretap_code(p, M, L, W_B, seed, index=attempt,
                                   decoder_kind=decoder_kind, C_prime=C_prime)
        report = eval_wiretap(code, W_B, W_E, p)
        outcomes = (report.eps_B, report.I_E, report.d_E)
        flags = tuple(o <= t for o, t in zip(outcomes, targets))
        if on_attempt is not None:
            on_attempt(attempt, report, flags)
        key = (-sum(flags), max((o - t) / max(t, 1e-300)
                                for o, t in zip(outcomes, targets)))
        if best is None or key < best[0]:
            best = (key, code, report, flags)
        if all(flags):
            break
    _, code, report, flags = best
    return ConstructionResult(code, report, bounds, targets, flags,
                              attempts=attempt + 1)
