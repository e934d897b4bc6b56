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

Two drivers share f and g:

* :func:`sc_pass` is sequential: depth-first in natural bit order over a
  batch of blocks run in lockstep, with one decision rule.  Two kinds of
  sub-block end the descent, the rate-0 and rate-1 nodes of simplified SC
  (Alamdar-Yazdi & Kschischang, "A simplified successive-cancellation
  decoder for polar codes", IEEE Commun. Lett. 2011).  A sub-block whose
  bits are all known (frozen, common randomness, chained) is never
  entered: before the descent, a staged transform in place combines, at
  each span, only the aligned blocks with no unknown bit, so each of them
  holds the transform of its known bits.  A sub-block with no known bit,
  a single bit included, is one call of the rule, which maps its leaf
  probabilities to its partial sums.  Given the bits before the node, its
  leaves are independent with those probabilities, so a hard decision per
  leaf is the node's maximum-likelihood decision, and a Bernoulli draw
  per leaf draws its bits from their SC conditionals in law.

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
  :func:`known_path_tree` (the partial sums, built top-down from the
  codeword x = T(bits)) and :func:`known_path_conditionals` (the f/g
  levels on one tree), are public so that the Monte-Carlo entropy profile
  can build its trees straight from the sampled codewords, with no
  transform, and share one tree between the families of evidence on the
  same bits.  Both hold a chunk with its rows innermost: leaves and
  conditionals are (n, rows), and level d of the tree and of the kernel is
  (n >> d, 2**d, rows), so every half that f and g read or fill is one
  contiguous slice.  The levels are computed in a
  :class:`KnownPathWorkspace`, whose arrays f and g fill through ``out=``;
  a caller that loops over chunks makes one and passes it to every call,
  and each result is a view into it, valid until the workspace's next
  call.  Without one, a call makes a fresh workspace.
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
    "KnownPathWorkspace",
    "CHUNK_ROWS",
    "WAVE_ROWS",
]

_CLIP = 1e-20
CHUNK_ROWS = 32  # rows per known-path chunk: its level arrays stay in cache
# rows per sequential pass of the decoder's signal-chain waves (codec.decode):
# a pass costs mostly a fixed time per node, so stacked (trial, block) rows
# come almost free up to here (at n = 1024 on a 2-vCPU x86-64 host, 8 rows
# take 3.7 ms a pass, 64 rows 9.2 ms and 128 rows 15.1 ms); 64 holds 8
# trials of 8 blocks, and a batch of over 32 trials decodes a block a pass
WAVE_ROWS = 64
# 0-d array operands: on the small arrays of a sequential pass numpy
# broadcasts them faster than Python floats
_FLOOR = np.array(_CLIP)
_ONE = np.array(1.0)
_COUNT_NONZERO_MAX = 1024  # cells up to which count_nonzero beats a min-reduce


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


def _f(a, b, not_a, not_b, out=None, tmp=None):
    """P(leaf = 1) for the first half of a sub-block: the XOR of
    independent bits with P(=1) = a and b.  ``not_a``, ``not_b`` are 1 - a
    and 1 - b, computed once per sub-block for both updates.  The result is
    written to ``out`` and ``tmp`` is scratch, both of the halves' shape;
    where they are None, fresh arrays are used."""
    p = np.multiply(a, not_b, out=out)
    p += np.multiply(not_a, b, out=tmp)
    return _clip(p)


def _g(a, b, not_a, not_b, x_a, out=None, tmp=None):
    """P(leaf = 1) for the second half of a sub-block, given the partial
    sums ``x_a`` (bool or 0/1 uint8) of its decided first half; 1/2 where
    both hypotheses have zero mass (the contradiction rule).  ``out`` and
    ``tmp`` are as in :func:`_f`.

    P(first leaf = x_a ^ 1) is ``not_a`` where x_a = 1 and ``a`` where
    x_a = 0, and it is computed without a select as |x_a - a|.  That is
    exact: with x_a = 0 it is |-a| = a, and with x_a = 1 it is fl(1 - a),
    the same rounding as ``not_a``; a lies in [1e-20, 1], so 1 - a >= 0 and
    the absolute value does not change it.  g takes the same halves as f
    but does not read ``not_a``.
    """
    a_match = np.subtract(x_a, a, out=out)  # P(first leaf = x_a ^ 1) = |x_a - a|
    np.abs(a_match, out=a_match)
    den = np.subtract(_ONE, a_match, out=tmp)
    den *= not_b
    num = np.multiply(a_match, b, out=a_match)
    den += num
    # count_nonzero is the fastest zero test on the few cells of a
    # sequential pass, a min-reduce on the wide levels of the kernel
    if den.size > _COUNT_NONZERO_MAX:
        contradiction = den.min() == 0.0
    else:
        contradiction = np.count_nonzero(den) < den.size
    if contradiction:
        zero = den == 0.0
        num[zero] = 0.5
        den[zero] = 1.0
    return _clip(np.divide(num, den, out=num))


def _leaf_probabilities(leaf_p1, out=None, axis=-1) -> np.ndarray:
    """The leaves clipped to [1e-20, 1], along a power-of-2 ``axis``."""
    p1 = np.clip(np.asarray(leaf_p1, dtype=np.float64), _CLIP, 1.0 - _CLIP, out=out)
    _require_power_of_two(p1.shape[axis])
    return p1


def sc_pass(leaf_p1, bits: np.ndarray, known, decide) -> np.ndarray:
    """One successive-cancellation pass over a batch of blocks in lockstep.

    ``leaf_p1`` has shape (trials, n).  ``bits`` is a (trials, n) uint8
    array holding the known bits at the positions where ``known`` (shape
    (n,), shared by all trials) is true; the other positions are filled in
    place with the decided bits.  The partial sums of all-known sub-blocks
    are taken up front, in one staged transform, and the descent enters
    only sub-blocks with an unknown bit.  Each sub-block [lo, hi) with no
    known bit, of any length, is one call ``decide(p)`` in bit order: ``p``
    holds its leaf probabilities given the bits before lo, shape (trials,
    hi - lo), and the rule returns its partial sums as a bool or 0/1
    integer array of the same shape.  Returns the partial sums
    ``polar_transform(bits)``.
    """
    p1 = _leaf_probabilities(leaf_p1)
    known = np.asarray(known, dtype=bool)
    if bits.shape != p1.shape or known.shape != p1.shape[1:]:
        raise ValueError(f"shape mismatch: leaves {p1.shape}, bits {bits.shape}, known {known.shape}")
    trials, n = p1.shape
    sums = bits.astype(bool)  # the bits, then each sub-block's partial sums once it is done
    half = 1
    while half < n:  # T of each all-known block of length 2 * half, from T of its halves
        v = sums.reshape(trials, -1, 2 * half)
        all_known = known.reshape(-1, 2 * half).all(axis=1)[:, None]
        np.bitwise_xor(v[..., :half], v[..., half:], out=v[..., :half], where=all_known)
        half *= 2
    known_before = np.concatenate(([0], np.cumsum(known))).tolist()
    if known_before[n] < n:
        _descend(0, n, p1, known_before, sums, decide)
    bits[...] = polar_transform(sums)  # T is its own inverse
    return sums.view(np.uint8)


def _descend(lo, hi, p, known_before, sums, decide):
    """Fill ``sums[:, lo:hi]``, a sub-block with an unknown bit and leaf probabilities ``p``."""
    if known_before[hi] == known_before[lo]:
        sums[:, lo:hi] = decide(p)  # a rate-1 node
        return
    mid = (lo + hi) // 2
    not_p = _ONE - p
    halves = p[:, : mid - lo], p[:, mid - lo :], not_p[:, : mid - lo], not_p[:, mid - lo :]
    x_a = sums[:, lo:mid]
    if known_before[mid] - known_before[lo] < mid - lo:
        _descend(lo, mid, _f(*halves), known_before, sums, decide)
    if known_before[hi] - known_before[mid] < hi - mid:
        _descend(mid, hi, _g(*halves, x_a), known_before, sums, decide)
    x_a ^= sums[:, mid:hi]


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
    :func:`known_path_conditionals` on the :func:`known_path_tree` of its
    codeword T(bits), in one :class:`KnownPathWorkspace` for the call.
    """
    p1 = np.asarray(leaf_p1, dtype=np.float64)
    _require_power_of_two(p1.shape[-1])
    bits = np.asarray(bits, dtype=np.uint8)
    if p1.shape != bits.shape:
        raise ValueError(f"shape mismatch: {p1.shape} vs {bits.shape}")
    codeword = polar_transform(bits)  # T is its own inverse
    out = np.empty_like(p1)
    workspace = KnownPathWorkspace(min(CHUNK_ROWS, p1.shape[0]), p1.shape[1])
    for lo in range(0, p1.shape[0], CHUNK_ROWS):
        rows = slice(lo, lo + CHUNK_ROWS)
        tree = known_path_tree(codeword[rows].T)
        out[rows] = known_path_conditionals(p1[rows].T, tree, workspace).T
    return out


def known_path_tree(codeword: np.ndarray) -> list[np.ndarray]:
    """The partial sums that :func:`known_path_conditionals` reads, built
    top-down from an (n, rows) codeword x = T(bits), a row per column.

    Level d holds the codewords of the 2**d sub-blocks of length n >> d as
    an (n >> d, 2**d, rows) array; entry d of the tree is x_a, the first
    half XOR the second half of every sub-block, which is the codeword of
    its first half of bits, as a C-contiguous (n >> (d + 1), 2**d, rows)
    bool array.  The next level stacks x_a and the second halves, the
    codewords of the two halves of bits.  Families of evidence on the same
    bits share one tree."""
    n, rows = codeword.shape
    _require_power_of_two(n)
    x = np.ascontiguousarray(codeword, dtype=bool).reshape(n, 1, rows)
    tree = []
    while x.shape[0] > 1:
        half = x.shape[0] // 2
        x_a = x[:half] ^ x[half:]
        tree.append(x_a)
        x = np.stack((x_a, x[half:]), axis=2).reshape(half, 2 * x.shape[1], rows)
    return tree


class KnownPathWorkspace:
    """The arrays :func:`known_path_conditionals` computes in, for up to
    ``rows`` rows of length ``n``: the level, its complements 1 - p, and
    the f, g and scratch halves.  Each is flat and shaped per call to the
    call's rows, so every level of a chunk of fewer rows is contiguous too.
    A level is read whole into f and g before the next one overwrites it.
    A caller that scores many chunks makes one workspace and passes it to
    every call."""

    def __init__(self, rows: int, n: int):
        _require_power_of_two(n)
        self.rows, self.n = rows, n
        self.level = np.empty(n * rows)
        self.not_p = np.empty(n * rows)
        self.halves = np.empty((3, n * rows // 2))


def known_path_conditionals(
    leaf_p1: np.ndarray, tree: list[np.ndarray], workspace: KnownPathWorkspace | None = None
) -> np.ndarray:
    """P(bit_j = 1 | true prefix, evidence) for (n, rows) leaf
    probabilities, a row per column, along the bits whose codeword's
    :func:`known_path_tree` is ``tree``; the result is (n, rows) in natural
    bit order.

    Level-ordered with rows innermost: level d holds the 2**d sub-blocks of
    length n >> d as an (n >> d, 2**d, rows) array, so each half that f and
    g read, and each half they fill, is one contiguous slice.  Every level
    is computed in ``workspace`` (a fresh one when None), and the result is
    a view into it: it stays valid until the workspace's next call.  A tree
    whose shapes do not fit the leaves raises ValueError.
    """
    leaf = np.asarray(leaf_p1, dtype=np.float64)
    n, rows = leaf.shape
    _require_power_of_two(n)
    need = [(n >> (d + 1), 2**d, rows) for d in range(n.bit_length() - 1)]
    got = [x_a.shape for x_a in tree]
    if got != need:
        raise ValueError(f"tree of shapes {got} does not fit leaves {leaf.shape}, which need {need}")
    ws = KnownPathWorkspace(rows, n) if workspace is None else workspace
    if rows > ws.rows or n != ws.n:
        raise ValueError(f"leaves {leaf.shape} do not fit a workspace of {ws.rows} rows of length {ws.n}")
    size = n * rows
    level = _leaf_probabilities(leaf, out=ws.level[:size].reshape(n, rows), axis=0)
    p = level.reshape(n, 1, rows)
    for x_a in tree:
        half, width = x_a.shape[:2]
        not_p = np.subtract(1.0, p, out=ws.not_p[:size].reshape(p.shape))
        halves = p[:half], p[half:], not_p[:half], not_p[half:]
        f, g, tmp = (buf[: size // 2].reshape(x_a.shape) for buf in ws.halves)
        f = _f(*halves, out=f, tmp=tmp)
        g = _g(*halves, x_a, out=g, tmp=tmp)  # stack what they return: a substitute may ignore out
        p = np.stack((f, g), axis=2, out=level.reshape(half, width, 2, rows)).reshape(half, 2 * width, rows)
    return level
