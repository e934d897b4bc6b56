"""GF(2) polarization transform and successive-cancellation machinery.

The transform T is multiplication by the m-fold Kronecker power of
``[[1,0],[1,1]]`` **without** bit reversal; in this convention T is its own
inverse, and a block of bits split into halves b = (b_L, b_R) has
T(b) = (T(b_L ^ b_R), T(b_R)).

Given independent per-leaf distributions (the "evidence": a prior or a
per-symbol posterior), successive cancellation (SC) computes the
conditional law P(b_j = 1 | b^{j-1}, evidence) exactly with one pair of
pairwise updates on a sub-block whose leaf probabilities have halves a, b:

    f(a, b)       = a(1-b) + (1-a)b     leaves of the first half of the bits
    g(a, b, x_a)  = P(leaf = 1 | x_a)   leaves of the second half, once the
                                        first half is known with partial
                                        sums x_a = T(first half)

Every update is clipped to [1e-20, 1].  Contradiction rule: the
denominator of g is zero where both hypotheses for a second-half leaf have
zero mass, that is, where a decided or frozen bit contradicts certain
evidence (after a decoding error upstream); g is then 1/2.  Such a block is
already wrong, and the codec counts it through its block error flags.

Two drivers share f and g (the array layout of Tal & Vardy, "List decoding
of polar codes"):

* :func:`sc_pass` is sequential: depth-first in natural bit order over a
  batch of blocks run in lockstep, deciding one bit at a time.  A sub-block
  whose bits are all known (frozen, common randomness, chained) is not
  evaluated; its partial sums are the transform of its known bits (the
  rate-0 node of simplified SC decoders).
* :func:`true_path_conditionals` runs along known paths: all bits are known
  up front, so each level of the recursion is one set of array operations
  over all of its sub-blocks, on rows taken in cache-sized chunks.  It
  serves the Monte-Carlo entropy profile and :class:`SuccessiveCancellation`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "polar_transform",
    "SuccessiveCancellation",
    "sc_pass",
    "true_path_conditionals",
    "sc_probability_x",
    "sc_probability_w",
]

_CLIP = 1e-20
_CHUNK_ROWS = 32  # rows per known-path chunk: its level arrays stay in cache
# 0-d array operands: on the small arrays of a sequential pass numpy
# broadcasts them faster than Python floats
_FLOOR = np.array(_CLIP)
_ONE = np.array(1.0)


def _require_power_of_two(n: int):
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"length must be a power of 2, got {n}")


def polar_transform(bits) -> np.ndarray:
    """Multiply the trailing axis by the Kronecker-power kernel over GF(2).

    Accepts any integer array whose last axis is a power of 2; the
    transform is an involution and GF(2)-linear.
    """
    x = np.array(bits, dtype=np.uint8, copy=True)
    n = x.shape[-1]
    _require_power_of_two(n)
    shape = x.shape
    x = x.reshape(-1, n)
    span = n
    while span > 1:
        v = x.reshape(x.shape[0], n // span, span)
        v[..., : span // 2] ^= v[..., span // 2 :]
        span //= 2
    return x.reshape(shape)


def _clip(p: np.ndarray) -> np.ndarray:
    # The upper bound 1 - _CLIP is 1.0 in float64, which f and g never
    # exceed for inputs in [0, 1]: in g the numerator is at most the
    # denominator, and the two rounded products of f sum to at most
    # 1 + 2**-53, which rounds to 1.0.  So only the lower bound can act.
    return np.maximum(p, _FLOOR, out=p)


def _f(a, b, not_a, not_b):
    """P(leaf = 1) for the first half of a sub-block: the XOR of
    independent bits with P(=1) = a and b.  ``not_a``, ``not_b`` are 1 - a
    and 1 - b, computed once per sub-block for both updates."""
    p = a * not_b
    p += not_a * b
    return _clip(p)


def _g(a, b, not_a, not_b, x_a):
    """P(leaf = 1) for the second half of a sub-block, given the partial
    sums ``x_a`` of its decided first half; 1/2 where both hypotheses have
    zero mass (the contradiction rule)."""
    a_match = np.where(x_a, not_a, a)  # P(first leaf = x_a ^ 1)
    num = a_match * b
    den = (_ONE - a_match) * not_b
    den += num
    if np.count_nonzero(den) < den.size:
        zero = den == 0.0
        num[zero] = 0.5
        den[zero] = 1.0
    return _clip(np.divide(num, den, out=num))


def _leaf_probabilities(leaf_p1) -> np.ndarray:
    p1 = np.clip(np.asarray(leaf_p1, dtype=np.float64), _CLIP, 1.0 - _CLIP)
    _require_power_of_two(p1.shape[-1])
    return p1


def sc_pass(leaf_p1, bits: np.ndarray, known, decide) -> np.ndarray:
    """One successive-cancellation pass over a batch of blocks in lockstep.

    ``leaf_p1`` has shape (trials, n).  ``bits`` is a (trials, n) uint8
    array holding the known bits at the positions where ``known`` (shape
    (n,), shared by all trials) is true; the other positions are filled in
    place with the results of ``decide(j, p)``, called in increasing ``j``
    with ``p`` = P(bit_j = 1 | bits before j, evidence) of shape (trials,).
    Sub-blocks whose bits are all known are not evaluated.  Returns the
    partial sums ``polar_transform(bits)``.
    """
    p1 = _leaf_probabilities(leaf_p1)
    known = np.asarray(known, dtype=bool)
    known_before = np.concatenate(([0], np.cumsum(known))).tolist()
    is_known = known.tolist()
    sums = np.empty(bits.shape, dtype=bool)  # partial sums of each sub-block once it is done

    def visit(lo, hi, probabilities):
        # probabilities() gives the leaf probabilities of sub-block [lo, hi);
        # it is called only when a bit of the sub-block is unknown
        if known_before[hi] - known_before[lo] == hi - lo:
            sums[:, lo:hi] = polar_transform(bits[:, lo:hi])
            return
        p = probabilities()
        if hi - lo == 1:
            sums[:, lo] = decide(lo, p[:, 0])
        elif hi - lo == 2:  # decide both bits here rather than in two visits
            halves = p[:, 0], p[:, 1], _ONE - p[:, 0], _ONE - p[:, 1]
            first = bits[:, lo] if is_known[lo] else decide(lo, _f(*halves))
            second = bits[:, hi - 1] if is_known[hi - 1] else decide(hi - 1, _g(*halves, first))
            sums[:, lo] = first ^ second
            sums[:, hi - 1] = second
        else:
            half = (hi - lo) // 2
            not_p = _ONE - p
            halves = p[:, :half], p[:, half:], not_p[:, :half], not_p[:, half:]
            visit(lo, lo + half, lambda: _f(*halves))
            x_a = sums[:, lo : lo + half]
            visit(lo + half, hi, lambda: _g(*halves, x_a))
            x_a ^= sums[:, lo + half : hi]

    visit(0, p1.shape[-1], lambda: p1)
    bits[...] = polar_transform(sums)  # T is its own inverse
    return sums.view(np.uint8)


class SuccessiveCancellation:
    """Sequential successive-cancellation queries over one block.

    ``leaf_p1[i]`` is P(leaf_i = 1) under the per-symbol evidence.  Call
    :meth:`next_probability` for P(next bit = 1 | bits pushed so far), then
    :meth:`push` with the chosen bit; frozen positions may be pushed without
    querying.  Each query runs :func:`true_path_conditionals` along the
    pushed prefix.
    """

    def __init__(self, leaf_p1):
        self._leaf = _leaf_probabilities(leaf_p1)[None, :]
        self.n = self._leaf.shape[1]
        self._bits = np.zeros_like(self._leaf, dtype=np.uint8)
        self._consumed = 0

    def next_probability(self) -> float:
        if self._consumed >= self.n:
            raise IndexError("all bits already pushed")
        return float(true_path_conditionals(self._leaf, self._bits)[0, self._consumed])

    def push(self, bit: int):
        if self._consumed >= self.n:
            raise IndexError("all bits already pushed")
        self._bits[0, self._consumed] = int(bit) & 1
        self._consumed += 1


def true_path_conditionals(leaf_p1: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Vectorized P(bit_j = 1 | true prefix, evidence) for whole blocks:
    the known-path driver.

    leaf_p1, bits: arrays of shape (batch, n); returns the same shape.  The
    rows are evaluated in chunks of ``_CHUNK_ROWS``.
    """
    p1 = _leaf_probabilities(leaf_p1)
    bits = np.asarray(bits, dtype=np.uint8)
    if p1.shape != bits.shape:
        raise ValueError(f"shape mismatch: {p1.shape} vs {bits.shape}")
    out = np.empty_like(p1)
    for lo in range(0, p1.shape[0], _CHUNK_ROWS):
        out[lo : lo + _CHUNK_ROWS] = _known_path(p1[lo : lo + _CHUNK_ROWS], bits[lo : lo + _CHUNK_ROWS])
    return out


def _known_path(p1, bits):
    """Level-ordered evaluation along known bits.  Level d holds the 2**d
    sub-blocks of length n >> d as an array of shape (rows, n >> d, 2**d):
    the position inside a sub-block runs slowest, so the halves that f and
    g combine are contiguous."""
    rows, n = p1.shape
    # partial sums of the first half of every sub-block, from the bits up
    first_sums = []
    x = bits.astype(bool).reshape(rows, 1, n)
    while x.shape[2] > 1:
        first, second = x[:, :, 0::2], x[:, :, 1::2]
        first_sums.append(np.ascontiguousarray(first))
        x = np.concatenate((first ^ second, second), axis=1)
    p = p1.reshape(rows, n, 1)
    for x_a in reversed(first_sums):
        half = p.shape[1] // 2
        not_p = 1.0 - p
        halves = p[:, :half], p[:, half:], not_p[:, :half], not_p[:, half:]
        p = np.stack((_f(*halves), _g(*halves, x_a)), axis=-1).reshape(rows, half, -1)
    return p.reshape(rows, n)


# ---------------------------------------------------------------------------
# single-index conditional queries on a source model


def _prefix_probability(leaf_p1, prefix) -> float:
    sc = SuccessiveCancellation(leaf_p1)
    for b in prefix:
        sc.push(b)
    return sc.next_probability()


def sc_probability_x(j: int, s_prefix, model, n: int | None = None, y_obs=None) -> float:
    """P(S_j = 1 | S^{j-1} = s_prefix [, Y^n = y_obs]) for the polarized
    signal chain of ``model`` (a :class:`coordsim.construction.SourceModel`).

    Without an observation the per-leaf evidence is the signal prior (and
    the block length ``n`` must be given); with one it is the per-symbol
    posterior through the channel.  ``j`` is the 1-based bit index and must
    equal ``len(s_prefix) + 1``.
    """
    if j != len(s_prefix) + 1:
        raise ValueError("j must point just past the supplied prefix")
    if y_obs is None:
        if n is None:
            raise ValueError("block length n is required when no observation is given")
        leaf = np.full(n, model.x_prior.table[1])
    else:
        leaf = model.x_posterior_given_y()[np.asarray(y_obs, dtype=np.intp)]
    return _prefix_probability(leaf, s_prefix)


def sc_probability_w(j: int, z_prefix, model, x, u=None, y=None, v=None) -> float:
    """P(Z_j = 1 | Z^{j-1} = z_prefix, side information) for the polarized
    auxiliary chain of ``model``.

    Side information forms: ``x`` alone (evidence P(w|x)); ``x`` and ``u``
    (evidence P(w|x,u)); ``x, u, y, v`` all present (full posterior).
    """
    x = np.asarray(x, dtype=np.intp)
    n = len(x)
    _require_power_of_two(n)
    if j != len(z_prefix) + 1:
        raise ValueError("j must point just past the supplied prefix")
    if u is None:
        leaf = model.w_given_x()[x]
    elif y is None and v is None:
        leaf = model.w_given_xu()[x, np.asarray(u, dtype=np.intp)]
    elif y is not None and v is not None:
        leaf = model.w_posterior_full()[
            np.asarray(u, dtype=np.intp), x, np.asarray(y, dtype=np.intp), np.asarray(v, dtype=np.intp)
        ]
    else:
        raise ValueError("side information must be x | (x,u) | (x,u,y,v)")
    return _prefix_probability(leaf, z_prefix)
