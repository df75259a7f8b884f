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
sets (`size_ceiling_check`) closes the module.
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
    _blocks,
    _check_fits_float,
    _check_positive,
    _check_inputs,
    _density,
    _indices,
    _integer,
    _json_list,
    _json_numbers,
    _load_fields,
    _row_sums,
    _write_json,
)
from .rng import sample_indices, stream

_LOG2P1 = math.log(2.0) + 1.0


class InfeasibleParams(ValueError):
    """The screening thresholds cannot admit any code."""


class RetriesExhausted(RuntimeError):
    """No attempt within the retry cap produced a full code."""

    def __init__(self, message, attempts):
        super().__init__(message)
        self.attempts = attempts


@dataclass(frozen=True)
class AdParams:
    """Growth parameters for a nearly-disjoint subset family."""

    M: int
    tau: float
    kappa: float

    def __post_init__(self):
        object.__setattr__(self, "M", _integer(self.M, "M"))
        if not 0.0 < self.tau < 1.0 / 3.0:
            raise ValueError("tau must lie in (0, 1/3)")
        if not 0.0 < self.kappa < 1.0:
            raise ValueError("kappa must lie in (0, 1)")
        if self.kappa * math.log(1.0 / self.tau - 1.0) <= _LOG2P1:
            raise ValueError(
                "need kappa * log(1/tau - 1) > log(2) + 1 for the family count"
            )

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
    overlap_cap: float

    def __post_init__(self):
        sets = [frozenset(s) for s in self.subsets]
        if not sets:
            raise ValueError("family must contain at least one subset")
        size = _integer(len(sets[0]), "subset_size")
        _check_positive(self.overlap_cap, "overlap_cap")
        for i, s in enumerate(sets):
            if len(s) != size:
                raise ValueError(
                    f"subset {i} has size {len(s)}, expected {size}")
        # integral floats equal their ints, so each set keeps its size
        elements = _indices([list(s) for s in sets], "subset element")
        subsets = tuple(frozenset(row) for row in elements.tolist())
        object.__setattr__(self, "subsets", subsets)
        # one 0/1 incidence row per subset over the elements in use; the
        # counts |S_i & S_j| are small integers, exact in float64, so BLAS
        # forms them, all rows against a block of rows (this order
        # touches less BLAS memory).  The first flat index is the least i,
        # then j
        _, cols = np.unique(elements.ravel(), return_inverse=True)
        F = len(subsets)
        inc = np.zeros((F, cols.max() + 1))
        inc[np.repeat(np.arange(F), size), cols] = 1
        for blk in _blocks(F, F):
            # pairs j <= i are zeroed, and 0 is below the cap
            shared = np.triu((inc @ inc[blk].T).T, blk.start + 1)
            bad = np.flatnonzero(~(shared < self.overlap_cap))
            if bad.size:
                r, j = divmod(int(bad[0]), F)
                raise ValueError(
                    f"subsets {blk.start + r} and {j} share "
                    f"{int(shared[r, j])} elements, "
                    f"not below the cap {self.overlap_cap!r}"
                )

    @property
    def size(self) -> int:
        return len(self.subsets)


@dataclass(frozen=True)
class FamilyBuild:
    family: SetFamily
    target_size: int
    attempts: int

    @property
    def complete(self) -> bool:
        return self.family.size >= self.target_size


_DRAWS_PER_SUBSET = 200
_EXTRA_DRAWS = 1000


def build_set_family(params: AdParams, seed: int,
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
    overlaps nothing and is always kept.  Sampling stops after
    _DRAWS_PER_SUBSET * target + _EXTRA_DRAWS draws.  The budget caps the
    incidence entries of the target family, target * M, before any
    sampling.
    """
    size = _integer(params.subset_size,
                    f"floor(tau*M) at M={params.M}, tau={params.tau}")
    target = max(params.family_size, 1)
    budget.check(target * params.M,
                 f"the {target} x {params.M} subset incidence matrix")
    cap = float(params.kappa) * size
    max_attempts = _DRAWS_PER_SUBSET * target + _EXTRA_DRAWS
    gen = stream(seed, 0)
    chosen: list[frozenset] = []
    # element-major 0/1 incidence, column k for chosen subset k: a draw's
    # overlaps with the k chosen add `size` contiguous rows of k entries
    inc = np.zeros((params.M, target), dtype=bool)
    attempts = 0
    while len(chosen) < target and attempts < max_attempts:
        attempts += 1
        draw = gen.choice(params.M, size=size, replace=False)
        k = len(chosen)
        if (inc[draw, :k].sum(axis=0) < cap).all():
            inc[draw, k] = True
            chosen.append(frozenset(draw.tolist()))
    family = SetFamily(tuple(chosen), cap)
    return FamilyBuild(family, target, attempts)


@dataclass(frozen=True)
class SelectionParams:
    """Screening parameters for the codeword selection step; the family
    fixes the code size M and the overlap fraction kappa."""

    alpha: float
    alpha_prime: float
    beta: float
    beta_prime: float
    family: AdParams
    C: float

    def __post_init__(self):
        for name in ("alpha", "alpha_prime", "beta", "beta_prime"):
            if not 1.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must exceed 1 and be finite")
        if 1.0 / self.alpha + 1.0 / self.alpha_prime >= 1.0:
            raise ValueError("need 1/alpha + 1/alpha_prime < 1")
        if self.gamma <= 0.0:
            raise ValueError("need 1 - 1/beta - 1/beta_prime > 0")
        _check_positive(self.C, "C")

    @property
    def gamma(self) -> float:
        return 1.0 - 1.0 / self.beta - 1.0 / self.beta_prime

    @property
    def m_prime(self) -> int:
        return int(math.ceil(self.family.M / self.gamma))


@dataclass(frozen=True)
class Selection:
    """Screened codewords with the (mu, lam) ceilings their screens
    guarantee; miss_bound is the mu ceiling."""

    codewords: tuple[int, ...]
    miss_bound: float
    lam_bound: float
    feasibility_lhs: float
    attempts: int

    @property
    def feasible(self) -> bool:
        return self.feasibility_lhs < 1.0


def _screen_bounds(params: SelectionParams, p: Distribution, W: Channel
                   ) -> tuple[np.ndarray, float, float, float, float]:
    """(level, miss_avg, miss_bound, union_bound, lam_bound): the pairs
    whose ratio exceeds C, E_p W_x(ratio <= C) (clamped at 0 as tail_pair
    clamps delta), the two screening thresholds, and the lam ceiling of a
    code whose words pass them; miss_bound is its mu ceiling.  The union
    bound must fit a float."""
    union_bound = (params.alpha_prime * params.beta_prime * params.m_prime
                   / params.C)
    _check_fits_float(union_bound, "the union bound alpha'*beta'*m'/C")
    _, dens, joint = _density(W, p)
    level = dens > math.log(params.C)
    miss_avg = max(1.0 - float(np.sum(joint[level])), 0.0)
    return (level, miss_avg, params.alpha * params.beta * miss_avg,
            union_bound, params.family.kappa + union_bound)


def _screens(W: Channel, level: np.ndarray, words
             ) -> tuple[np.ndarray, np.ndarray]:
    """(miss, union) of each word: its mass off its own level set, and
    on the level sets of the other words (rows of `level`).  The float
    products run per block of words (`channel._blocks`)."""
    words = np.asarray(words)
    others = level[words].sum(axis=0)
    miss, union = np.empty(words.size), np.empty(words.size)
    for blk in _blocks(words.size, W.output_size):
        rows, own = W.rows[words[blk]], level[words[blk]]
        # C-contiguous (words x Y) products: each row sums pairwise, the
        # same bits as a 1-D sum of that row
        miss[blk] = 1.0 - np.sum(rows * own, axis=1)
        union[blk] = np.sum(rows * ((others - own) >= 1), axis=1)
    return miss, union


def select_codewords(W: Channel, p: Distribution, params: SelectionParams,
                     seed: int, max_retries: int = 100) -> Selection:
    """Draw and screen candidates until M distinct codewords pass.

    Attempt k draws ceil(M/gamma) candidates i.i.d. from p on the
    (seed, k) stream and keeps those whose own miss mass and whose
    overlap with the other candidates' level sets clear the
    alpha*beta / alpha_prime*beta_prime thresholds.  Refused up front,
    since screening can then never succeed, when beta times the average
    miss mass reaches 1 or when p gives positive mass to fewer than M
    input words.
    """
    max_retries = _integer(max_retries, "max_retries")
    level, miss_avg, miss_bound, union_bound, lam_bound = _screen_bounds(
        params, p, W)
    if params.beta * miss_avg >= 1.0:
        raise InfeasibleParams(
            f"beta * E_p W_x(ratio <= C) = {params.beta * miss_avg!r} >= 1: "
            "screening cannot succeed"
        )
    support = int(np.count_nonzero(p.probs))
    if params.family.M > support:
        raise InfeasibleParams(
            f"M = {params.family.M} distinct codewords, but p gives positive "
            f"mass to {support} input words: screening cannot succeed")
    feasibility_lhs = params.beta * miss_avg + union_bound

    for attempt in range(max_retries):
        xs = sample_indices(p.probs, stream(seed, attempt).random(params.m_prime))
        miss_i, union_i = _screens(W, level, xs)
        good = (miss_i <= miss_bound) & (union_i <= union_bound)
        picked = list(dict.fromkeys(xs[good].tolist()))[:params.family.M]
        if len(picked) < params.family.M:
            continue
        return Selection(
            codewords=tuple(picked),
            miss_bound=miss_bound,
            lam_bound=lam_bound,
            feasibility_lhs=feasibility_lhs,
            attempts=attempt + 1,
        )
    raise RetriesExhausted(
        f"no attempt out of {max_retries} yielded {params.family.M} distinct "
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
        _indices([v for s in self.subsets for v in s], "subset position",
                 below=len(codewords))
        subsets = tuple(tuple(sorted(map(int, s))) for s in self.subsets)
        object.__setattr__(self, "subsets", subsets)
        if not subsets:
            raise ValueError("at least one message subset is required")
        for i, s in enumerate(subsets):
            if not s:
                raise ValueError(f"subset {i} is empty")
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

    The mass of mixture j on region i is the pairwise sum of
    mix[j, regions[i]], as a compressed row sums it.  A screen adds the
    same at most Y nonnegative terms first, by mix @ regions.T (products
    by 0 and 1 are exact).  Each sum is within gamma = Yu/(1 - Yu) of the
    real one, relative to it (u = 2^-53).  So with t the largest screened
    mass, lam >= t(1-gamma)/(1+gamma), and the region holding lam screens
    at least t((1-gamma)/(1+gamma))^2 >= t - 4 gamma t >= t - 8(Y+2)u
    max(1, t), the rounding of that threshold included (Yu <= 1/2).  A
    screened 0 is a sum of zeros.  The exact sums run on the regions left.
    """
    _check_inputs(W, p, code.codewords)
    level = _density(W, p)[1] > math.log(code.C)
    cw = np.array(code.codewords)
    n, Y = code.messages, W.output_size
    mix = np.empty((n, Y))
    regions = np.empty((n, Y), dtype=bool)
    sizes = np.array([len(s) for s in code.subsets])
    # sorted(set()): plain np.unique imports numpy.ma, about 1 MB of RSS
    for k in sorted(set(sizes.tolist())):
        members = np.flatnonzero(sizes == k)
        words = cw[[code.subsets[i] for i in members]]
        for blk in _blocks(members.size, Y):
            # rows added in position order, as mean(axis=0) adds them
            acc, region = W.rows[words[blk, 0]], level[words[blk, 0]]
            for x in words[blk, 1:].T:
                acc += W.rows[x]
                region |= level[x]
            mix[members[blk]], regions[members[blk]] = acc / k, region
    own = np.concatenate([_row_sums(mix[b], regions[b]) for b in _blocks(n, Y)])
    mu = max(0.0, float((1.0 - own).max()))
    best = np.empty(n)
    for blk in _blocks(n, n + Y):
        mass = mix @ regions[blk].astype(float).T
        np.fill_diagonal(mass[blk], 0.0)    # lam excludes j = i
        best[blk] = mass.max(axis=0)
    top = float(best.max())
    lam = 0.0
    margin = 8 * (Y + 2) * 2.0 ** -53 * max(1.0, top)
    for i in np.flatnonzero((best > 0) & (best >= top - margin)).tolist():
        acc = mix.compress(regions[i], axis=1).sum(axis=1)
        acc[i] = 0.0
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
        path, "id code", codewords=lambda v, walk: _json_numbers(v, 1, walk),
        subsets=lambda v, walk: [_json_numbers(s, 1, walk).tolist()
                                 for s in _json_list(v)],
        C=lambda v, walk: float(_json_numbers(v, 0, walk)))
    try:
        return IdCode(**doc)
    except ValueError as exc:
        raise ValueError(f"id code file {path}: {exc}") from None


@dataclass(frozen=True)
class CountingVerdict:
    """Outcome of the identification counting argument."""

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
    return CountingVerdict(holds, ceiling)
