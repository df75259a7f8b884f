"""Identification codes from resolvability primitives.

Two random constructions are combined here.  First, a family of
subsets of {0..M-1} of common size floor(tau*M) with pairwise
intersections strictly below kappa*floor(tau*M); a counting argument
guarantees floor(e^(tau*M)/(M*e)) such subsets exist, and rejection
sampling finds them.  Second, a list of M distinct input symbols whose
density-ratio level sets {y : W_x(y)/W_p(y) > C} are nearly disjoint;
i.i.d. candidates from p are screened against explicit miss and
union thresholds.  Message i is the uniform mixture over the codewords
picked out by subset i, decoded by the union of their level sets.
The counting argument that caps the number of distinguishable message
sets (`size_ceiling_check`, `counting_check`) closes the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    DEFAULT_BUDGET,
    BudgetError,
    Channel,
    Distribution,
    EnumerationBudget,
    _check_positive,
    _check_inputs,
    _density,
    _indices,
    _integer,
    _json_list,
    _json_real,
    _load_fields,
    _write_json,
)
from .resolvability import brute_force_min
from .rng import sample_indices, stream

_LOG2P1 = math.log(2.0) + 1.0


class InfeasibleParams(ValueError):
    """The screening thresholds cannot admit any code."""


class RetriesExhausted(RuntimeError):
    """No attempt within the retry cap produced a full code."""

    def __init__(self, message, attempts):
        super().__init__(message)
        self.attempts = attempts


def _check_growth(tau: float, kappa: float) -> None:
    if not 0.0 < tau < 1.0 / 3.0:
        raise ValueError("tau must lie in (0, 1/3)")
    if not 0.0 < kappa < 1.0:
        raise ValueError("kappa must lie in (0, 1)")
    if kappa * math.log(1.0 / tau - 1.0) <= _LOG2P1:
        raise ValueError(
            "need kappa * log(1/tau - 1) > log(2) + 1 for the family count"
        )


@dataclass(frozen=True)
class AdParams:
    """Growth parameters for a nearly-disjoint subset family."""

    M: int
    tau: float
    kappa: float

    def __post_init__(self):
        object.__setattr__(self, "M", _integer(self.M, "M"))
        _check_growth(self.tau, self.kappa)

    @property
    def subset_size(self) -> int:
        return int(math.floor(self.tau * self.M))

    @property
    def family_size(self) -> int:
        # floor(e^(tau*M)/(M*e)) = floor(e^(tau*M - 1)/M)
        try:
            return int(math.floor(math.exp(self.tau * self.M - 1.0) / self.M))
        except OverflowError:
            raise BudgetError(
                "family size exceeds the representable range"
            ) from None


@dataclass(frozen=True)
class SetFamily:
    """Subsets of equal size with pairwise intersections below a cap."""

    subsets: tuple[frozenset, ...]
    subset_size: int
    overlap_cap: float

    def __post_init__(self):
        sets = [frozenset(s) for s in self.subsets]
        if not sets:
            raise ValueError("family must contain at least one subset")
        object.__setattr__(self, "subset_size",
                           _integer(self.subset_size, "subset_size"))
        _check_positive(self.overlap_cap, "overlap_cap")
        for i, s in enumerate(sets):
            if len(s) != self.subset_size:
                raise ValueError(
                    f"subset {i} has size {len(s)}, expected {self.subset_size}"
                )
        # integral floats equal their ints, so each set keeps its size
        elements = _indices([list(s) for s in sets], "subset element")
        subsets = tuple(frozenset(row) for row in elements.tolist())
        object.__setattr__(self, "subsets", subsets)
        # one 0/1 incidence row per subset over the elements in use; row
        # i against the later rows gives the counts |S_i & S_j|, exact in
        # float64 (small integers), which lets the product use BLAS
        _, cols = np.unique(elements.ravel(), return_inverse=True)
        inc = np.zeros((len(subsets), cols.max() + 1))
        inc[np.repeat(np.arange(len(subsets)), self.subset_size), cols] = 1
        for i in range(len(subsets) - 1):
            shared = inc[i + 1:] @ inc[i]
            bad = np.flatnonzero(~(shared < self.overlap_cap))
            if bad.size:
                raise ValueError(
                    f"subsets {i} and {i + 1 + bad[0]} share "
                    f"{int(shared[bad[0]])} elements, "
                    f"not below the cap {self.overlap_cap!r}"
                )

    @property
    def size(self) -> int:
        return len(self.subsets)


@dataclass(frozen=True)
class FamilyBuild:
    family: SetFamily
    complete: bool
    target_size: int
    attempts: int


def build_set_family(params: AdParams, seed: int,
                     max_attempts: int | None = None,
                     budget: EnumerationBudget = DEFAULT_BUDGET
                     ) -> FamilyBuild:
    """Rejection-sample a nearly-disjoint family of the guaranteed size.

    Candidates are uniform subsets of {0..M-1} of size floor(tau*M),
    kept when every pairwise intersection stays strictly below
    kappa*floor(tau*M).  An incomplete build is returned as such, not
    raised: the count floor(e^(tau*M)/(M*e)) is guaranteed to exist,
    but rejection sampling is only expected to find it.  For small M
    that guaranteed count can be zero even though admissible subsets
    exist, so at least one subset is always requested; the first draw
    overlaps nothing and is always kept.  The budget caps the incidence
    entries of the target family, target * M, before any sampling.
    """
    size = _integer(params.subset_size,
                    f"floor(tau*M) at M={params.M}, tau={params.tau}")
    target = max(params.family_size, 1)
    budget.check(target * params.M,
                 f"the {target} x {params.M} subset incidence matrix")
    cap = float(params.kappa) * size
    max_attempts = _integer(200 * target + 1000 if max_attempts is None
                            else max_attempts, "max_attempts")
    gen = stream(seed, 0)
    chosen: list[frozenset] = []
    # 0/1 incidence rows of the chosen subsets; a page of zeros is not
    # touched until a row on it is written
    inc = np.zeros((target, params.M), dtype=bool)
    attempts = 0
    while len(chosen) < target and attempts < max_attempts:
        attempts += 1
        draw = gen.choice(params.M, size=size, replace=False)
        k = len(chosen)
        if (inc[:k, draw].sum(axis=1) < cap).all():
            inc[k, draw] = True
            chosen.append(frozenset(int(v) for v in draw))
    family = SetFamily(tuple(chosen), size, cap)
    return FamilyBuild(family, len(chosen) >= target, target, attempts)


@dataclass(frozen=True)
class SelectionParams:
    """Screening parameters for the codeword selection step."""

    alpha: float
    alpha_prime: float
    beta: float
    beta_prime: float
    tau: float
    kappa: float
    M: int
    C: float

    def __post_init__(self):
        for name in ("alpha", "alpha_prime", "beta", "beta_prime"):
            if not 1.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must exceed 1 and be finite")
        if 1.0 / self.alpha + 1.0 / self.alpha_prime >= 1.0:
            raise ValueError("need 1/alpha + 1/alpha_prime < 1")
        if self.gamma <= 0.0:
            raise ValueError("need 1 - 1/beta - 1/beta_prime > 0")
        _check_growth(self.tau, self.kappa)
        object.__setattr__(self, "M", _integer(self.M, "M"))
        _check_positive(self.C, "C")

    @property
    def gamma(self) -> float:
        return 1.0 - 1.0 / self.beta - 1.0 / self.beta_prime

    @property
    def m_prime(self) -> int:
        return int(math.ceil(self.M / self.gamma))


@dataclass(frozen=True)
class Selection:
    """Screened codewords with their measured tail masses."""

    codewords: tuple[int, ...]
    miss_values: tuple[float, ...]
    union_values: tuple[float, ...]
    miss_bound: float
    union_bound: float
    lam_bound: float
    feasibility_lhs: float
    feasible: bool
    attempts: int


def _screen_bounds(params: SelectionParams, p: Distribution, W: Channel
                   ) -> tuple[np.ndarray, float, float, float, float]:
    """(level, miss_avg, miss_bound, union_bound, lam_bound): the pairs
    whose ratio exceeds C, E_p W_x(ratio <= C) (clamped at 0 as tail_pair
    clamps delta), the two screening thresholds, and the lam ceiling of a
    code whose words pass them; miss_bound is its mu ceiling."""
    _, dens, joint = _density(W, p)
    level = dens > math.log(params.C)
    miss_avg = max(1.0 - float(np.sum(joint[level])), 0.0)
    union_bound = (params.alpha_prime * params.beta_prime * params.m_prime
                   / params.C)
    return (level, miss_avg, params.alpha * params.beta * miss_avg,
            union_bound, params.kappa + union_bound)


def _screens(rows: np.ndarray, level: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """(miss, union) of each word: its mass off its own level set, and
    on the level sets of the other words (the rows of `level`)."""
    # C-contiguous (words x Y) products: each row sums pairwise, the
    # same bits as a 1-D sum of that row
    miss = 1.0 - np.sum(rows * level, axis=1)
    union = np.sum(rows * ((level.sum(axis=0) - level) >= 1), axis=1)
    return miss, union


def select_codewords(W: Channel, p: Distribution, params: SelectionParams,
                     seed: int, max_retries: int = 100) -> Selection:
    """Draw and screen candidates until M distinct codewords pass.

    Attempt k draws ceil(M/gamma) candidates i.i.d. from p on the
    (seed, k) stream and keeps those whose own miss mass and whose
    overlap with the other candidates' level sets clear the
    alpha*beta / alpha_prime*beta_prime thresholds.  Refused up front
    when beta times the average miss mass reaches 1, since screening
    can then never succeed.
    """
    max_retries = _integer(max_retries, "max_retries")
    level, miss_avg, miss_bound, union_bound, lam_bound = _screen_bounds(
        params, p, W)
    if params.beta * miss_avg >= 1.0:
        raise InfeasibleParams(
            f"beta * E_p W_x(ratio <= C) = {params.beta * miss_avg!r} >= 1: "
            "screening cannot succeed"
        )
    feasibility_lhs = params.beta * miss_avg + union_bound

    for attempt in range(max_retries):
        xs = sample_indices(p.probs, stream(seed, attempt).random(params.m_prime))
        miss_i, union_i = _screens(W.rows[xs], level[xs])
        good = (miss_i <= miss_bound) & (union_i <= union_bound)
        picked = list(dict.fromkeys(xs[good].tolist()))[:params.M]
        if len(picked) < params.M:
            continue
        final_miss, final_union = _screens(W.rows[picked], level[picked])
        return Selection(
            codewords=tuple(picked),
            miss_values=tuple(final_miss.tolist()),
            union_values=tuple(final_union.tolist()),
            miss_bound=miss_bound,
            union_bound=union_bound,
            lam_bound=lam_bound,
            feasibility_lhs=feasibility_lhs,
            feasible=feasibility_lhs < 1.0,
            attempts=attempt + 1,
        )
    raise RetriesExhausted(
        f"no attempt out of {max_retries} yielded {params.M} distinct "
        "codewords passing both screens", max_retries)


@dataclass(frozen=True)
class IdCode:
    """Identification code: codewords plus a subset family over them.

    Message i is the uniform mixture of the codewords at the positions
    in subsets[i]; it is accepted on the union of those codewords'
    density-ratio level sets at threshold C.
    """

    codewords: tuple[int, ...]
    subsets: tuple[tuple[int, ...], ...]
    C: float

    def __post_init__(self):
        codewords = tuple(_indices(self.codewords, "codeword").tolist())
        object.__setattr__(self, "codewords", codewords)
        if len(set(codewords)) != len(codewords):
            raise ValueError("codewords must be distinct")
        # all positions in one check; int() is then exact
        _indices([v for s in self.subsets for v in s], "subset position")
        subsets = tuple(tuple(sorted(map(int, s))) for s in self.subsets)
        object.__setattr__(self, "subsets", subsets)
        if not subsets:
            raise ValueError("at least one message subset is required")
        for i, s in enumerate(subsets):
            if not s:
                raise ValueError(f"subset {i} is empty")
            if s[-1] >= len(codewords):
                raise ValueError(
                    f"subset {i} references positions outside the codeword list"
                )
            if len(set(s)) != len(s):
                raise ValueError(f"subset {i} repeats a position")
        _check_positive(self.C, "C")

    @property
    def messages(self) -> int:
        return len(self.subsets)


def assemble_id_code(codewords, family: SetFamily, W: Channel,
                     p: Distribution, C: float) -> IdCode:
    """Bind a codeword list and a subset family into an identification code."""
    code = IdCode(tuple(codewords), family.subsets, float(C))
    _check_inputs(W, p, code.codewords)
    return code


@dataclass(frozen=True)
class IdMetrics:
    """Worst-case identification errors of both kinds."""

    mu: float
    lam: float


def eval_id_code(code: IdCode, W: Channel, p: Distribution) -> IdMetrics:
    """Exact first-kind (mu) and second-kind (lam) error of the code.

    mu is the worst acceptance failure of a true message on its own
    region; lam is the worst acceptance of a wrong message's mixture.
    With a single message there is no confusion pair and lam is 0.
    """
    _check_inputs(W, p, code.codewords)
    level = _density(W, p)[1] > math.log(code.C)
    cw = np.array(code.codewords)
    n = code.messages
    mix = np.empty((n, W.output_size))
    regions = np.empty((n, W.output_size), dtype=bool)
    for k, s in enumerate(code.subsets):
        idx = cw[list(s)]
        mix[k] = W.rows[idx].mean(axis=0)
        regions[k] = np.any(level[idx], axis=0)
    mu = 0.0
    lam = 0.0
    for i in range(n):
        # acc[j] = mass of message j's mixture on region i.  compress
        # yields a C-contiguous copy, whose rows numpy sums pairwise,
        # as it sums one row's masked entries in 1-D; a fancy index
        # mix[:, regions[i]] would sum them sequentially instead
        acc = mix.compress(regions[i], axis=1).sum(axis=1)
        mu = max(mu, float(1.0 - acc[i]))
        acc[i] = 0.0  # lam excludes j = i; every mass is >= 0
        lam = max(lam, float(acc.max()))
    return IdMetrics(mu=mu, lam=lam)


def id_error_bounds(params: SelectionParams, p: Distribution,
                    W: Channel) -> tuple[float, float]:
    """Guaranteed (mu, lam) ceilings for codes built from these parameters."""
    _, _, miss_bound, _, lam_bound = _screen_bounds(params, p, W)
    return miss_bound, lam_bound


def save_id_code(code: IdCode, path) -> None:
    _write_json({"codewords": list(code.codewords),
                 "subsets": [list(s) for s in code.subsets],
                 "C": code.C}, path)


def load_id_code(path) -> IdCode:
    doc = _load_fields(
        path, "id code", codewords=_json_list,
        subsets=lambda v: [tuple(_json_list(s)) for s in _json_list(v)],
        C=_json_real)
    return IdCode(tuple(doc["codewords"]), tuple(doc["subsets"]), doc["C"])


@dataclass(frozen=True)
class CountingVerdict:
    """Outcome of the identification counting argument."""

    eps_estimate: float
    hypothesis_holds: bool
    size_ceiling: int | None


def size_ceiling_check(mu: float, lam: float, eps_value: float,
                       input_size: int, M: int) -> CountingVerdict:
    """Pure arithmetic form of the counting argument.

    When mu + lam + eps < 1, distinguishable message sets inject into
    codeword multisets, so their number is capped by input_size ** M.
    """
    input_size, M = _integer(input_size, "input_size"), _integer(M, "M")
    for name, v in (("mu", mu), ("lambda", lam)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")
    if not eps_value >= 0:
        raise ValueError("eps must be nonnegative")
    holds = (1.0 - mu - lam) > eps_value
    ceiling = input_size ** M if holds else None
    return CountingVerdict(float(eps_value), holds, ceiling)


def counting_check(mu: float, lam: float, M: int, W: Channel,
                   p_grid) -> CountingVerdict:
    """Counting argument with eps estimated over a grid of input laws.

    The approximation floor eps(M, W) is estimated as the largest
    brute-force minimum over the supplied grid.
    """
    p_grid = list(p_grid)
    if not p_grid:
        raise ValueError("p_grid must be non-empty")
    eps = max(brute_force_min(M, W, q).eps_min for q in p_grid)
    return size_ceiling_check(mu, lam, eps, W.input_size, M)
