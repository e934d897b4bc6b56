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

In g, P(first leaf = x_a ^ 1) is 1 - a where x_a = 1 and a where x_a = 0;
it is computed without a select as |x_a - a|, which gives the same float64
bits as the select: |0 - a| = a, and 1 - a is rounded as the 1 - a that f
uses, with no sign to drop since a <= 1.

Every update is clipped to [1e-20, 1].  Contradiction rule: the
denominator of g is zero where both hypotheses for a second-half leaf have
zero mass, that is, where a decided or frozen bit contradicts certain
evidence (after a decoding error upstream); g is then 1/2.  Such a block is
already wrong, and the codec counts it through its block error flags.

Two drivers share f and g (the array layout of Tal & Vardy, "List decoding
of polar codes"):

* :func:`sc_pass` is sequential: depth-first in natural bit order over a
  batch of blocks run in lockstep, with one decision rule.  Two kinds of
  sub-block end the descent, the rate-0 and rate-1 nodes of simplified SC
  (Alamdar-Yazdi & Kschischang, "A simplified successive-cancellation
  decoder for polar codes", IEEE Commun. Lett. 2011).  A sub-block whose
  bits are all known (frozen, common randomness, chained) is not
  evaluated; its partial sums are the transform of its known bits.  A
  sub-block with no known bit, a single bit included, is one call of the
  rule, which maps its leaf probabilities to its partial sums.  Given the
  bits before the node, its leaves are independent with those
  probabilities, so a hard decision per leaf is the node's
  maximum-likelihood decision, and a Bernoulli draw per leaf draws its
  bits from their SC conditionals in law.

  Tie rule: the hard rule P > 1/2 decides a leaf at exactly 1/2 as 0.  A
  node and a descent bit by bit give the same bits unless a bit-by-bit
  decision is at or within rounding of 1/2.  Two such ties arise: f on a
  long XOR is 1/2 - 2**(k-1) prod(p_i - 1/2), which rounds to exactly 1/2
  once the product is tiny, and a leaf at g = 1/2 (the contradiction
  rule) makes every XOR through it 1/2.  Bit by bit, SC decides such a bit
  0, while the node decides each leaf by its own probability.  The tests
  check that the two agree bit for bit when every bit-by-bit decision is
  at least 1e-9 from 1/2.
* :func:`true_path_conditionals` runs along known paths: all bits are known
  up front, so each level of the recursion is one set of array operations
  over all of its sub-blocks, on rows taken in cache-sized chunks.  It
  serves :class:`SuccessiveCancellation`.  Its two steps,
  :func:`known_path_tree` (the partial sums of the bits) and
  :func:`known_path_conditionals` (the f/g levels on one tree), are public
  so that the Monte-Carlo entropy profile can share one tree between the
  families of evidence on the same bits.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "polar_transform",
    "SuccessiveCancellation",
    "sc_pass",
    "true_path_conditionals",
    "known_path_tree",
    "known_path_conditionals",
    "CHUNK_ROWS",
]

_CLIP = 1e-20
CHUNK_ROWS = 32  # rows per known-path chunk: its level arrays stay in cache
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
    sums ``x_a`` (bool or 0/1 uint8) of its decided first half; 1/2 where
    both hypotheses have zero mass (the contradiction rule).

    P(first leaf = x_a ^ 1) is ``not_a`` where x_a = 1 and ``a`` where
    x_a = 0, and it is computed without a select as |x_a - a|.  That is
    exact: with x_a = 0 it is |-a| = a, and with x_a = 1 it is fl(1 - a),
    the same rounding as ``not_a``; a lies in [1e-20, 1], so 1 - a >= 0 and
    the absolute value does not change it.  g takes the same halves as f
    but does not read ``not_a``.
    """
    a_match = np.subtract(x_a, a)  # P(first leaf = x_a ^ 1) = |x_a - a|
    np.abs(a_match, out=a_match)
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
    place with the decided bits.  Sub-blocks whose bits are all known are
    not evaluated.  Each sub-block [lo, hi) with no known bit, of any
    length, is one call ``decide(p)`` in bit order: ``p`` holds its leaf
    probabilities given the bits before lo, shape (trials, hi - lo), and
    the rule returns its partial sums as a bool or 0/1 integer array of
    the same shape.  Returns the partial sums ``polar_transform(bits)``.
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
        if known_before[hi] == known_before[lo]:
            sums[:, lo:hi] = decide(p)  # a rate-1 node
            return
        not_p = _ONE - p
        if hi - lo == 2:  # one bit known: decide the other here rather than in two visits
            halves = p[:, :1], p[:, 1:], not_p[:, :1], not_p[:, 1:]
            first = bits[:, lo : lo + 1] if is_known[lo] else decide(_f(*halves))
            second = bits[:, lo + 1 : hi] if is_known[lo + 1] else decide(_g(*halves, first))
            sums[:, lo : lo + 1] = first ^ second
            sums[:, lo + 1 : hi] = second
        else:
            half = (hi - lo) // 2
            halves = p[:, :half], p[:, half:], not_p[:, :half], not_p[:, half:]
            visit(lo, lo + half, lambda: _f(*halves))
            x_a = sums[:, lo : lo + half]
            visit(lo + half, hi, lambda: _g(*halves, x_a))
            x_a ^= sums[:, lo + half : hi]

    visit(0, p1.shape[-1], lambda: p1)
    del visit  # the closure refers to itself; free it, and what it holds, now
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
    rows are evaluated in chunks of ``CHUNK_ROWS``, each by
    :func:`known_path_conditionals` on its own :func:`known_path_tree`.
    """
    p1 = np.asarray(leaf_p1, dtype=np.float64)
    _require_power_of_two(p1.shape[-1])
    bits = np.asarray(bits, dtype=np.uint8)
    if p1.shape != bits.shape:
        raise ValueError(f"shape mismatch: {p1.shape} vs {bits.shape}")
    out = np.empty_like(p1)
    for lo in range(0, p1.shape[0], CHUNK_ROWS):
        rows = slice(lo, lo + CHUNK_ROWS)
        out[rows] = known_path_conditionals(p1[rows], known_path_tree(bits[rows]))
    return out


def known_path_tree(bits: np.ndarray) -> list[np.ndarray]:
    """The partial sums that :func:`known_path_conditionals` reads, for a
    (rows, n) bit array.  Entry k holds the partial sums of the first half
    of every sub-block of length 2**(k + 1), with shape (rows, 2**k,
    n >> (k + 1)): the position inside the half runs slowest.  Families of
    evidence on the same bits share one tree."""
    rows, n = bits.shape
    tree = []
    x = bits.astype(bool).reshape(rows, 1, n)
    while x.shape[2] > 1:
        first, second = x[:, :, 0::2], x[:, :, 1::2]
        tree.append(np.ascontiguousarray(first))
        x = np.concatenate((first ^ second, second), axis=1)
    return tree


def known_path_conditionals(leaf_p1: np.ndarray, tree: list[np.ndarray]) -> np.ndarray:
    """P(bit_j = 1 | true prefix, evidence) for (rows, n) leaf
    probabilities along the bits whose :func:`known_path_tree` is ``tree``.

    Level-ordered: level d holds the 2**d sub-blocks of length n >> d as an
    array of shape (rows, n >> d, 2**d), so the halves that f and g combine
    are contiguous.
    """
    p1 = _leaf_probabilities(leaf_p1)
    rows, n = p1.shape
    p = p1.reshape(rows, n, 1)
    for x_a in reversed(tree):
        half = p.shape[1] // 2
        not_p = 1.0 - p
        halves = p[:, :half], p[:, half:], not_p[:, :half], not_p[:, half:]
        p = np.stack((_f(*halves), _g(*halves, x_a)), axis=-1).reshape(rows, half, -1)
    return p.reshape(rows, n)
