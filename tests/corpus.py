"""Named channels and laws, seeded channel generators and the shared
Hypothesis pieces of the tests; a channel that two test modules use
lives here.  Rows are kept as the literals they were written as
(`*_ROWS`), not as a `Channel`'s renormalized rows, so a file a test
writes from them keeps its bytes.  Generators that draw differently
keep separate names.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from chanres import Channel, Distribution

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

# zero, or a weight bounded away from zero before normalization
_WEIGHT = st.one_of(st.just(0.0), st.floats(0.05, 1.0))


def _normalized(draw, size):
    w = draw(st.lists(_WEIGHT, min_size=size, max_size=size)
             .filter(lambda v: sum(v) > 0))
    return np.array(w) / sum(w)


@st.composite
def channel_and_law(draw):
    K = draw(st.integers(1, 3))
    L = draw(st.integers(2, 3))
    W = Channel(np.array([_normalized(draw, L) for _ in range(K)]))
    return W, Distribution(_normalized(draw, K))


@st.composite
def small_channel(draw):
    K = draw(st.integers(1, 4))
    L = draw(st.integers(2, 3))
    return Channel(np.array([_normalized(draw, L) for _ in range(K)]))


# the 3-ary asymmetric channel and input law of the benchmark
ASYM_ROWS = [[0.7, 0.2, 0.1], [0.1, 0.7, 0.2], [0.2, 0.1, 0.7]]
ASYM = Channel(np.array(ASYM_ROWS))
ASYM_P = Distribution(np.array([0.5, 0.3, 0.2]))

# the Z channel of the golden files: input 1 crosses to output 0 with
# probability 0.3
Z_ROWS = [[1.0, 0.0], [0.3, 0.7]]


def z_channel():
    """The Z channel with crossover 0.5, unlike `Z_ROWS`."""
    return Channel(np.array([[1.0, 0.0], [0.5, 0.5]]))


# a full Newton step here at s = 0.05 empties output 1; a solve that
# took it and read that output's gain as 0 would certify F = 1.025861,
# below the step-0.02 grid's best, 1.026166
DEAD_COLUMN = Channel(np.array([[1.0, 0.0, 0.0],
                                [0.6782, 0.1515, 0.1703],
                                [0.1301, 0.0, 0.8699]]))

# the column of 1e-170 entries: W^(1+s) underflows to 0 there for s
# above about 0.9, and W^(1/(1+t)) for t below about -0.47
TINY_COLUMN = Channel(np.array([[0.7, 0.3, 1e-170], [0.3, 0.7, 1e-170]]))
# the uniform law is not optimal here, and g^(c-2) overflows at the tiny
# column once a step leaves it: the solve does not certify at every
# parameter
TINY_COLUMN_3X3 = Channel(np.array([[0.7, 0.3, 1e-170], [0.2, 0.8, 1e-170],
                                    [0.5, 0.5, 1e-170]]))

# capacity's Newton ascent stalls here at residual 5.78e-4, with letter
# 2's mass near 4e-18; its best value comes at step 154
STALL_4X4_ROWS = [[0.252, 0.746, 0.002, 0.0], [1.0, 0.0, 0.0, 0.0],
                  [0.758, 0.021, 0.215, 0.006], [0.17, 0.0, 0.83, 0.0]]

# an ordinary channel (smallest positive entry 2.5e-5) on which the
# worst-case solves certify at s = 0.1, 0.5 and t = -0.3, -0.5 but not
# near the origin: at s = 0.001 the Newton stack stops at residual 7.9e-7
CHANNEL_3X5_ROWS = [[0.1109686, 2.515e-05, 0.1124063, 0.77491495, 0.001685],
                    [0.3947417, 0, 0.000704, 0.6044871, 6.72e-05],
                    [0, 0, 0.9115533, 0, 0.0884467]]


def random_channel(gen, k, l):
    rows = gen.random((k, l)) + 0.01
    return Channel(rows / rows.sum(axis=1, keepdims=True))


def random_dist(gen, k):
    v = gen.random(k) + 0.01
    return Distribution(v / v.sum())


def dirichlet_law(rng, sizes):
    """(W, p): K inputs and L outputs, drawn in that order from the range
    `sizes`, then Dirichlet(1) rows and a Dirichlet(1) law."""
    K, L = (int(rng.integers(*sizes)) for _ in range(2))
    return (Channel(rng.dirichlet(np.ones(L), size=K)),
            Distribution(rng.dirichlet(np.ones(K))))


def dirichlet_channel(rng, K, Y, concentration):
    return Channel(rng.dirichlet(np.full(Y, concentration), size=K))


def _random_rows(rng, X, Y):
    rows = rng.random((X, Y))
    return rows / rows.sum(axis=1, keepdims=True)


def _seeded_law(seed, K, Y):
    rng = np.random.default_rng(seed)
    return (Channel(rng.dirichlet(np.ones(Y), size=K)),
            Distribution(rng.dirichlet(np.ones(K))))


def _rounded_channels(seed, count, sizes):
    """Channels of Dirichlet(0.1) rows rounded to 3 decimals, each size
    drawn from the range `sizes`."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        K, Y = (int(rng.integers(*sizes)) for _ in range(2))
        rows = rng.dirichlet(np.full(Y, 0.1), size=K).round(3)
        yield Channel(rows / rows.sum(axis=1, keepdims=True))
