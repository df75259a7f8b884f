"""Finite-alphabet probability primitives, shared input checks, JSON files.

Distributions are probability vectors and channels are row-stochastic
matrices ``W[x, y] = W_x(y)`` over finite alphabets.  Everything
downstream (tail functionals, exponent optimization, random-coding
simulation) is built on the operations in this module.

Conventions used throughout the package:

* all logarithms are natural, so divergences, rates and exponents are
  in nats;
* ``0 * log(0) == 0`` and ``0 * log(0/0) == 0``;
* every probability law, a distribution or a channel row, is checked by
  one function, `_laws` (finite, nonnegative entries, total within 1e-12
  of one), and renormalized exactly once, so totals are exact downstream.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

SUM_TOL = 1e-12

DEFAULT_MAX_JOINT_STATES = 2 ** 24

# the most floats an array path builds at once: a block of psi/phi
# parameters or worst-case solves, of Monte Carlo W^n rows, of pairwise
# leakage distances; capped for memory (2**15 raised the benchmark's
# Monte Carlo peak RSS by 0.5 MB, and 2**20 by 20 MB, at no gain in speed)
_BLOCK_FLOATS = 2 ** 14


class BudgetError(ValueError):
    """An exact enumeration would exceed the configured state cap."""


def _count(k: int) -> str:
    """k in full up to 15 digits, else as a power of ten ("about 10^1204.1")."""
    return str(k) if k < 10 ** 15 else f"about 10^{math.log10(k):.1f}"


def _check_positive(value, name: str) -> None:
    """ValueError naming `name` and `value` unless 0 < value < inf."""
    if value is None or not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_fits_float(value, name: str) -> None:
    """ValueError naming `name` if value is past the largest float."""
    if value > sys.float_info.max:
        raise ValueError(f"{name} must be at most {sys.float_info.max:.3g}, "
                         "the largest float")


def _indices(values, what: str, floor: int = 0, below=None) -> np.ndarray:
    """values as an int64 array; a ValueError names the first entry that is
    not an integer of int64 range (2.0 and True are; 1.5, nan and "1" not),
    else, in `_integer`'s words, the first outside [floor, below)."""
    arr = num = np.asarray(values)
    if arr.dtype.kind not in "biuf":    # str, None or ints past 64 bits
        arr = np.asarray(values, dtype=object)
        real = (int, float, np.integer, np.floating)
        num = np.reshape([v if isinstance(v, real) and abs(v) < 2 ** 63
                          else np.nan for v in arr.flat], arr.shape)
    with np.errstate(invalid="ignore"):     # nan, inf, overflow: junk ints
        ints = num.astype(np.int64)
    bad = np.flatnonzero(ints != num)
    if bad.size:
        raise ValueError(f"{what} {arr.item(bad[0])!r} is not an integer")
    out = ints < floor if below is None else (ints < floor) | (ints >= below)
    if out.any():
        _integer(ints.item(out.argmax()), what, floor, below)
    return ints


def _integer(value, name: str, floor: int = 1, below=None) -> int:
    """value as an int >= floor (and < below if given), else a ValueError
    naming `name` and value; integers are `_indices`'s, with no int64 cap."""
    if isinstance(value, (float, np.floating)) and value.is_integer():
        value = int(value)
    if not isinstance(value, (int, np.integer)) or value < floor \
            or below is not None and int(value) >= below:
        rule = "a nonnegative integer" if floor == 0 else f"an integer >= {floor}"
        cap = "" if below is None else f" below {'2^64' if below == 2 ** 64 else below}"
        raise ValueError(f"{name} must be {rule}{cap}, got " + repr(
            value.item() if isinstance(value, np.generic) else value))
    return int(value)


@dataclass(frozen=True)
class EnumerationBudget:
    """Cap on the number of joint states materialized by exact enumeration."""

    max_joint_states: int = DEFAULT_MAX_JOINT_STATES

    def __post_init__(self):
        object.__setattr__(self, "max_joint_states", _integer(
            self.max_joint_states, "max_joint_states"))

    def check(self, states: int, what: str) -> None:
        if states > self.max_joint_states:
            need, cap = _count(states), _count(self.max_joint_states)
            raise BudgetError(
                f"{what} needs {need} joint states, over the cap of "
                f"{cap}; rerun with max_joint_states >= {need}"
            )


DEFAULT_BUDGET = EnumerationBudget()


def _laws(values, ndim: int) -> np.ndarray:
    """values as read-only laws along the last axis (ndim 1: a distribution,
    2: a channel's rows), each divided once by its total; a ValueError unless
    non-empty, finite and nonnegative, each total within SUM_TOL of one."""
    what, shape, entry, sums = (
        ("distribution", "vector", "probability", "probabilities sum to"),
        ("channel", "matrix", "channel", "channel row {} sums to"))[ndim - 1]
    laws = np.asarray(values, dtype=float)
    if laws.ndim != ndim or laws.size == 0:
        raise ValueError(f"{what} must be a non-empty {shape}")
    if not np.all(np.isfinite(laws)):
        raise ValueError(f"non-finite {entry} entry")
    if np.any(laws < 0):
        raise ValueError(f"negative {entry} entry")
    totals = laws.sum(axis=-1, keepdims=ndim > 1)  # ndim 1: a scalar, cheaper
    off = np.abs(totals - 1.0) > SUM_TOL
    if np.count_nonzero(off):
        i = off.argmax()    # the first law whose total is off
        raise ValueError(f"{sums.format(i)} {totals.item(i)!r}, not 1")
    laws = laws / totals
    laws.flags.writeable = False
    return laws


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability vector on a finite alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _laws(self.probs, 1))

    @property
    def size(self) -> int:
        return self.probs.size

    def support(self) -> np.ndarray:
        return np.flatnonzero(self.probs > 0)


@dataclass(frozen=True, eq=False)
class Channel:
    """Row-stochastic matrix; row x is the output law W_x."""

    rows: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rows", _laws(self.rows, 2))

    @property
    def input_size(self) -> int:
        return self.rows.shape[0]

    @property
    def output_size(self) -> int:
        return self.rows.shape[1]

    @functools.cached_property
    def levels(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, index): the distinct entries, with ``values[index]``
        equal to rows bit for bit.

        A power of the matrix is a power of `values` gathered through
        `index`: the same floats, from a fraction of the pow calls when
        entries repeat, as in products W^n, identity and symmetric channels.
        Entries are told apart by their bits, so -0.0 keeps its sign.
        """
        bits = self.rows.view(np.int64)
        values = np.sort(bits, axis=None)
        values = values[np.concatenate(([True], values[1:] != values[:-1]))]
        return values.view(float), np.searchsorted(values, bits)


def uniform(size: int) -> Distribution:
    size = _integer(size, "size")
    return Distribution(np.full(size, 1.0 / size))


def point_mass(index: int, size: int) -> Distribution:
    probs = np.zeros(_integer(size, "size"))
    probs[_integer(index, "index", 0, probs.size)] = 1.0
    return Distribution(probs)


def bsc(crossover: float) -> Channel:
    """Binary symmetric channel with the given crossover probability."""
    if not 0.0 <= crossover <= 1.0:
        raise ValueError("crossover must lie in [0, 1]")
    w = float(crossover)
    return Channel(np.array([[1.0 - w, w], [w, 1.0 - w]]))


def identity_channel(size: int) -> Channel:
    return Channel(np.eye(_integer(size, "size")))


def constant_channel(row, input_size: int) -> Channel:
    """Channel whose rows are all equal, carrying no input information."""
    row = np.asarray(row, dtype=float)
    return Channel(np.tile(row, (_integer(input_size, "input_size"), 1)))


def _check_inputs(W: Channel, p: Distribution, codewords=()) -> None:
    """ValueError unless p, then each codeword, is on the input alphabet of W."""
    if p.size != W.input_size:
        raise ValueError(f"distribution size {p.size} does not match "
                         f"input size {W.input_size}")
    if len(codewords):
        _indices(codewords, "codeword", below=W.input_size)


def output_distribution(W: Channel, p: Distribution) -> Distribution:
    """Mixture output law W_p(y) = sum_x p(x) W_x(y)."""
    _check_inputs(W, p)
    return Distribution(p.probs @ W.rows)


def _kron_chain(factors) -> np.ndarray:
    """Kronecker product of per-letter factors, the first least significant."""
    return functools.reduce(lambda acc, f: np.kron(f, acc), factors)


def _blocks(n: int, floats_each: int) -> list[slice]:
    """Slices of range(n), each of at most _BLOCK_FLOATS // floats_each
    entries (and at least one)."""
    per = max(1, _BLOCK_FLOATS // floats_each)
    return [slice(lo, lo + per) for lo in range(0, n, per)]


def _prefix_table(W: Channel, n: int) -> tuple[int, np.ndarray]:
    """(k, unnormalized rows of W^k), for the largest k <= n whose
    (|X||Y|)^k floats fit in _BLOCK_FLOATS, and k = 1 if none does.

    `_word_rows` starts each word's row from the table row of its first
    k letters, in place of k product steps.
    """
    cells = W.input_size * W.output_size
    if cells == 1:      # W is [[1.0]], and so is each of its powers
        return n, W.rows
    k = 1
    while k < n and cells ** (k + 1) <= _BLOCK_FLOATS:
        k += 1
    return k, _kron_chain([W.rows] * k)


def _word_rows(W: Channel, words, prefix) -> np.ndarray:
    """Rows of W^n for input words of shape (..., n), the first letter least significant.

    Equal with ``==`` to ``product(W, n).rows[index]``: the same
    products in the same order, and each row divided by its own sum as
    `Channel` renormalizes the materialized product.  `prefix` is a
    `_prefix_table(W, m)` with m <= n.
    """
    words = np.asarray(words)
    k, table = prefix
    rows = table[words[..., :k] @ W.input_size ** np.arange(k)]
    for j in range(k, words.shape[-1]):
        f = W.rows[words[..., j]]
        rows = (f[..., :, None] * rows[..., None, :]).reshape(
            *rows.shape[:-1], -1)
    return rows / rows.sum(axis=-1, keepdims=True)


def product(W: Channel, n: int, budget: EnumerationBudget = DEFAULT_BUDGET) -> Channel:
    """n-fold memoryless product of W, materialized densely.

    Symbol order is little-endian: the first coordinate is the least
    significant digit of a product index, so it varies fastest as the
    index increases.
    """
    n = _integer(n, "n")
    states = (W.input_size ** n) * (W.output_size ** n)
    budget.check(states, f"{n}-fold product channel")
    return Channel(_kron_chain([W.rows] * n))


def product_dist(p: Distribution, n: int,
                 budget: EnumerationBudget = DEFAULT_BUDGET) -> Distribution:
    """n-fold i.i.d. product of p, in the same little-endian symbol order."""
    n = _integer(n, "n")
    budget.check(p.size ** n, f"{n}-fold product distribution")
    return Distribution(_kron_chain([p.probs] * n))


def variational_distance(p: Distribution, q: Distribution) -> float:
    """l1 distance d(p, q) = sum_y |p(y) - q(y)|, in [0, 2]."""
    if p.size != q.size:
        raise ValueError("dimension mismatch")
    return float(np.abs(p.probs - q.probs).sum())


def _row_sums(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``np.sum(values[r][mask[r]])`` for each row r, bit for bit.

    The sum of a compressed row adds pairwise; the rows with k entries
    in the mask, summed as one (rows, k) array along axis 1, add the
    same pairs in the same order.
    """
    counts = mask.sum(axis=1)
    out = np.empty(len(values))
    for k in sorted(set(counts.tolist())):
        rows = np.flatnonzero(counts == k)
        out[rows] = values[rows][mask[rows]].reshape(rows.size, k).sum(axis=1)
    return out


def _kl_rows(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """D(a||b) of each row a of A, at least 0, summed over supp(a) as
    ``np.sum`` sums a 1-D array.  Mass outside supp(b) meets log 0 =
    -inf, so its term, and the row's sum, is +inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = A * (np.log(A) - np.log(b))
    return np.maximum(_row_sums(terms, A > 0), 0.0)


def _kl(a: np.ndarray, b: np.ndarray) -> float:
    """D(a||b) of two probability vectors: `_kl_rows` of the row a."""
    return float(_kl_rows(a[None], b)[0])


def _density(W: Channel, p: Distribution) -> tuple[np.ndarray, ...]:
    """(ratio, density, joint): W_x(y)/W_p(y), its log, and the mass
    p(x) W_x(y) of every pair (x, y), once p matches the input size.

    Every threshold test reads `density`: a pair is over C when density >
    log(C), so a computed tie ratio == C is never over.  W_x(y) = 0 gives
    density -inf; W_p(y) = 0 < W_x(y) gives +inf."""
    wp = output_distribution(W, p).probs
    pos = W.rows > 0    # logs of the zeros would take numpy's slow path
    with np.errstate(divide="ignore"):
        ratio = np.divide(W.rows, wp, out=np.zeros_like(W.rows), where=pos)
    return (ratio, np.log(ratio, out=np.full_like(ratio, -np.inf), where=pos),
            p.probs[:, None] * W.rows)


def kl_divergence(p: Distribution, q: Distribution) -> float:
    """Divergence D(p||q) in nats; +inf when p has mass outside supp(q)."""
    if p.size != q.size:
        raise ValueError("dimension mismatch")
    return _kl(p.probs, q.probs)


def _density_moments(p: Distribution, W: Channel) -> tuple[float, float]:
    """First and second moments of the information density under p x W."""
    _, dens, joint = _density(W, p)
    pos = joint > 0
    mass, dens = joint[pos], dens[pos]
    return float(np.sum(mass * dens)), float(np.sum(mass * dens ** 2))


def mutual_information(p: Distribution, W: Channel) -> float:
    """I(p;W) = E_p D(W_x || W_p), the mean of the information density."""
    return max(_density_moments(p, W)[0], 0.0)


def dispersion_J(p: Distribution, W: Channel) -> float:
    """Half the variance of the information density log(W_x(y)/W_p(y))."""
    mean, second = _density_moments(p, W)
    return max(0.5 * (second - mean * mean), 0.0)


def divergence_tail_check(p: Distribution, q: Distribution,
                          alpha: float) -> tuple[float, float]:
    """Both sides of D(p||q) + 1/e >= alpha * p{log p/q >= alpha}.

    Returns (lhs, rhs).  An infinite divergence makes the inequality
    vacuous and is reported as lhs = +inf.
    """
    _check_positive(alpha, "alpha")
    lhs = kl_divergence(p, q) + 1.0 / math.e
    # q = 0 < p gives +inf, counted; p = 0 gives -inf or nan, never counted
    with np.errstate(divide="ignore", invalid="ignore"):
        over = np.log(p.probs) - np.log(q.probs) >= alpha
    return lhs, float(alpha) * float(np.sum(p.probs[over]))


def _read_json(path, what: str) -> tuple[dict, bool]:
    """The JSON object in `path`, and whether its text holds a `true` or
    `false`, even in a string; a ValueError if it holds another value."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"{what} file {path} must hold a JSON object")
    found = False   # hopping between the rare first letters of the tokens
    for token in ("true", "false"):     # is 60 times as fast as `in`
        i = text.find(token[0])
        while i >= 0 and not text.startswith(token, i):
            i = text.find(token[0], i + 1)
        found |= i >= 0
    return doc, found


def _write_json(doc, path) -> None:
    """doc as indent-2 JSON plus a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _load_fields(path, what: str, **readers) -> dict:
    """Each named field of the JSON object in `path`, passed through its
    reader with `walk`, whether the file holds a `true` or `false`; a
    ValueError names the file and a field missing or refused."""
    doc, walk = _read_json(path, what)
    out = {}
    for field, read in readers.items():
        if field not in doc:
            raise ValueError(f"{what} file {path} missing field '{field}'")
        try:
            out[field] = read(doc[field], walk)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(
                f"{what} file {path}: field '{field}': {exc}") from None
    return out


def _walk_numbers(value, ndim: int) -> None:
    """A TypeError naming the first entry of value that is not a list above
    depth ndim, or not a number at it (a bool, str or null is not)."""
    if type(value) not in ((list,) if ndim else (int, float)):
        raise TypeError(f"{value!r} is not a {'list' if ndim else 'number'}")
    for entry in value if ndim else ():
        _walk_numbers(entry, ndim - 1)


def _json_numbers(value, ndim: int, walk: bool) -> np.ndarray:
    """value, a JSON number (ndim 0) or lists of numbers nested ndim deep,
    as an array; a TypeError names the first bad entry (`_walk_numbers`).
    A well-formed field is one np.asarray, but numpy reads booleans among
    numbers as 0 and 1, so with `walk` each entry is checked as well."""
    try:
        arr = np.asarray(value)
    except ValueError:      # ragged, or a bad entry the walk names
        _walk_numbers(value, ndim)
        raise TypeError("must hold numbers, in lists of equal length")
    if walk or arr.dtype.kind not in "iuf" or arr.ndim != ndim:
        _walk_numbers(value, ndim)  # passes empty lists, ints past int64
    return arr


def _json_list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"{value!r} is not a list")
    return value


def _json_size(name: str):
    """The reader of a size field: a number that passes the count rule."""
    return lambda v, walk: _integer(_json_numbers(v, 0, walk).item(), name)


def load_channel(path) -> Channel:
    doc = _load_fields(path, "channel", input_size=_json_size("input_size"),
                       output_size=_json_size("output_size"),
                       rows=lambda v, walk: Channel(_json_numbers(v, 2, walk)))
    W, shape = doc["rows"], (doc["input_size"], doc["output_size"])
    if W.rows.shape != shape:
        raise ValueError(f"channel file {path}: field 'rows' has shape "
                         f"{W.rows.shape}, expected {shape}")
    return W


def save_channel(W: Channel, path) -> None:
    _write_json({"input_size": W.input_size, "output_size": W.output_size,
                 "rows": W.rows.tolist()}, path)


def load_distribution(path) -> Distribution:
    return _load_fields(path, "distribution", probs=lambda v, walk: Distribution(
        _json_numbers(v, 1, walk)))["probs"]


def save_distribution(p: Distribution, path) -> None:
    _write_json({"probs": p.probs.tolist()}, path)
