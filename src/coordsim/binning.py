"""Exact small-blocklength verification of the two binning primitives.

Two facts drive the achievability scheme: a uniform random binning of rate
above H(A|B) lets a maximum-posterior decoder recover A^n from its bin
index and side information B^n (source coding with side information), and
a binning of rate below H(B|A) produces an index nearly uniform and nearly
independent of A^n (channel randomness extraction).  This module checks
both exactly at tiny blocklengths: the decoder scores every sequence, and
the extraction KL is computed exactly.  Both use the i.i.d. product
structure of the joint instead of enumerating sequence pairs: one Kronecker
routine builds the decoder's scores (a Kronecker sum of per-symbol
log-likelihoods) and the extraction reference P_A^n (a Kronecker power of
P_A), and P(a^n, k) is contracted from the bin indicator one symbol at a
time.

Blocklengths are capped hard; the module exists to be an oracle, not a
codec.  The decoder holds samples x |A|^n scores.  The extraction KL takes
O(n |A| |B|^n bins) time but streams the occupied bin columns in chunks of
at most ``CHUNK_CELLS`` cells (or one column), so its memory is bounded by
the chunk, not by the bin count.  One guard holds every array either
allocates against ``ENUMERATION_CELL_CAP`` and names one over it as
"factor x base^n" without forming the count; every n of 25 or more fails
it, one-symbol alphabets included (there the message names the
blocklength).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .probability import JointPMF, iid_blocks

__all__ = [
    "ENUMERATION_CELL_CAP",
    "RandomBinning",
    "BinningTrialStats",
    "dsbs",
    "sw_error_rate",
    "extraction_kl",
    "check_sweep",
    "verify_lemma_regimes",
]

ENUMERATION_CELL_CAP = 1 << 24  # max cells of one array an exact oracle allocates
CHUNK_CELLS = 1 << 18  # cells of one streamed extraction chunk (2 MiB of float64)
SW_SAMPLES = 200  # source draws per SW binning, by default
LEMMAS = ("sw", "extraction")  # the primitives a sweep can check


def _check_cells(what: str, base: int, n: int, factor: int = 1) -> int:
    """The one enumeration guard, applied before an array of
    ``factor * base**n`` cells is allocated; returns that size.  An n at or
    past the cap's bit length is refused before the power is formed, so the
    count is never a huge integer, and on every base, 1 included, since the
    oracles also loop over the n symbols; on a base of 1 the refusal names
    the blocklength, as the array itself is small."""
    limit = ENUMERATION_CELL_CAP.bit_length()
    if base <= 1 and n >= limit:
        raise ValueError(f"{what}: blocklength {n} is at or past {limit}, the bit length of the enumeration cap "
                         f"{ENUMERATION_CELL_CAP}; use a smaller n")
    if n >= limit or factor * base**n > ENUMERATION_CELL_CAP:
        shape = f"{base}^{n}" if factor == 1 else f"{factor} x {base}^{n}"
        raise ValueError(f"{what}: {shape} cells exceed the enumeration cap {ENUMERATION_CELL_CAP}; use a smaller n")
    return factor * base**n


def _kronecker(op: np.ufunc, columns: np.ndarray) -> np.ndarray:
    """``op`` folded over the per-symbol columns ``columns[..., t, :]``,
    left to right, into one value per sequence in lexicographic order:
    ``np.multiply`` gives a Kronecker product, ``np.add`` a Kronecker sum.
    Each sequence's value is op(...op(c_0[a_0], c_1[a_1])..., c_{n-1}[a_{n-1}]).

    The values are built in place in the one result array, of shape
    ``columns.shape[:-2] + (k**n,)``: after step t, the value of each
    prefix a_0..a_t sits in the slot of that prefix followed by zeros, and
    step t + 1 writes its k extensions from it, the extension by symbol 0
    last, in its own slot.  No step allocates."""
    *lead, n, k = columns.shape
    out = np.empty((*lead, k**n))
    out.reshape(*lead, k, k ** (n - 1))[..., 0] = columns[..., 0, :]
    for t in range(1, n):
        # the prefixes of length t at [..., :, 0] and their extensions
        spread = out.reshape(*lead, k**t, k, k ** (n - t - 1))[..., 0]
        op(spread[..., :1], columns[..., t, None, 1:], out=spread[..., 1:])
        op(spread[..., 0], columns[..., t, :1], out=spread[..., 0])
    return out


@dataclass(frozen=True)
class RandomBinning:
    """A total map from length-n sequences to bins 1..2^ceil(n*rate)."""

    n: int
    rate: float
    alphabet_size: int
    assignment: np.ndarray  # shape (alphabet_size**n,), values 1..num_bins

    def __post_init__(self):
        if self.assignment.shape != (self.alphabet_size**self.n,):
            raise ValueError("assignment must cover every sequence")
        if self.assignment.min() < 1 or self.assignment.max() > self.num_bins:
            raise ValueError("bin labels must lie in 1..num_bins")

    @property
    def num_bins(self) -> int:
        return 1 << math.ceil(self.n * self.rate)

    @classmethod
    def draw(cls, n: int, rate: float, alphabet_size: int, rng: np.random.Generator) -> "RandomBinning":
        states = _check_cells("binning", alphabet_size, n)
        num_bins = 1 << math.ceil(n * rate)
        return cls(n, rate, alphabet_size, rng.integers(1, num_bins + 1, states))


def _log_table(table: np.ndarray) -> np.ndarray:
    out = np.full(table.shape, -np.inf)
    np.log(table, out=out, where=table > 0)
    return out


def _ab_table(joint: JointPMF) -> np.ndarray:
    """The single-letter table with axes ordered (A, B); a joint without
    both axes raises."""
    return joint.table.transpose(joint.axis_index("A"), joint.axis_index("B"))


def sw_error_rate(
    binning: RandomBinning,
    joint: JointPMF,
    rng: np.random.Generator,
    samples: int = SW_SAMPLES,
) -> float:
    """Empirical P{decoded != true} over i.i.d. draws."""
    size_a, n = binning.alphabet_size, binning.n
    # the score and out-of-bin arrays are samples x |A|^n
    _check_cells("SW decoding", size_a, n, samples)
    blocks = iid_blocks(joint, rng, samples, n)
    a, b = blocks[joint.axis_index("A")], blocks[joint.axis_index("B")]
    codes = np.ravel_multi_index(tuple(a.T), (size_a,) * n)
    # log P(a^n, b^n) for every a-sequence; P(b^n) is constant in a, so
    # these rank the posterior.  Column t of draw r is ll[:, b_rt].
    scores = _kronecker(np.add, np.moveaxis(_log_table(_ab_table(joint))[:, b], 0, -1))
    # each draw's own bin holds its true sequence, so no queried bin is
    # empty; the out-of-bin mask is built for a few draws at a time
    own = binning.assignment[codes]
    step = max(1, CHUNK_CELLS // size_a**n)
    for lo in range(0, samples, step):
        rows = scores[lo : lo + step]
        rows[binning.assignment != own[lo : lo + step, None]] = -np.inf
    decoded = np.argmax(scores, axis=1)
    return int(np.count_nonzero(decoded != codes)) / samples


def extraction_kl(binning: RandomBinning, joint: JointPMF, n: int) -> float:
    """Exact divergence (bits) of (A^n, K) from P_{A^n} x uniform, where K
    is the bin index of B^n under ``binning``.

    P(a^n, k) is contracted from the one-hot bin indicator over b^n, one
    symbol at a time: step t replaces the t-th B axis by an A axis through
    the single-letter table.  The bin columns are independent, and an
    empty bin adds nothing, so the m <= min(bins, |B|^n) occupied bins are
    contracted in chunks of at most ``CHUNK_CELLS // max(|A|, |B|)^n``
    columns (at least one), and each chunk's share of the KL sum is added
    to a running total in chunk order.  That costs O(n |A| |B|^n m) time
    (O(n |B| |A|^n m) when |A| > |B|) and never builds the |A|^n x |B|^n
    pair table.  Besides a few arrays of one chunk's size, whatever the bin
    count, it holds the |B|^n sort order of the states by bin and the |A|^n
    reference P_{A^n} / bins.
    """
    if n != binning.n:
        raise ValueError("n must match the binning")
    table = _ab_table(joint)
    size_a, size_b = table.shape
    if size_b != binning.alphabet_size:
        raise ValueError("binning alphabet does not match the joint's B axis")
    # no array of the contraction exceeds max(|A|, |B|)^n x chunk cells,
    # which is at most CHUNK_CELLS or one column
    widest = _check_cells("extraction", max(size_a, size_b), n)
    chunk = max(1, CHUNK_CELLS // widest)
    states_a, states_b = size_a**n, size_b**n
    bins = binning.num_bins
    ref = _kronecker(np.multiply, np.broadcast_to(table.sum(axis=1), (n, size_a)))[:, None] / bins
    # the states sorted by bin: an empty bin adds nothing to the sum, and the
    # states of occupied bin j are order[edges[j]:edges[j + 1]]
    order = np.argsort(binning.assignment, kind="stable")
    labels = binning.assignment[order]
    edges = np.concatenate(([0], np.flatnonzero(labels[1:] != labels[:-1]) + 1, [states_b]))
    del labels  # only the sort order is held while the chunks are contracted
    occupied = len(edges) - 1
    total = 0.0
    for lo in range(0, occupied, chunk):
        width = min(chunk, occupied - lo)
        cur = np.zeros((states_b, width))
        bounds = edges[lo : lo + width + 1]
        cur[order[bounds[0] : bounds[-1]], np.repeat(np.arange(width), np.diff(bounds))] = 1.0
        for t in range(n):
            cur = np.matmul(table, cur.reshape(size_a**t, size_b, -1))
        cur = cur.reshape(states_a, width)
        mask = cur > 0
        p = cur[mask]
        del cur  # the chunk's table is freed before the ratio is built
        ratio = np.broadcast_to(ref, mask.shape)[mask]
        np.divide(p, ratio, out=ratio)
        np.log2(ratio, out=ratio)
        total += float(np.multiply(p, ratio, out=ratio).sum())
        del p, ratio  # freed before the next chunk is contracted
    return total


def dsbs(p: float) -> JointPMF:
    """Doubly symmetric binary source: uniform A observed through a
    crossover-p flip."""
    from .probability import Alphabet

    t = np.array([[(1 - p) / 2, p / 2], [p / 2, (1 - p) / 2]])
    return JointPMF((Alphabet("A", 2), Alphabet("B", 2)), t)


@dataclass(frozen=True)
class BinningTrialStats:
    """One (n, rate, lemma) sweep cell averaged over replicate binnings."""

    n: int
    rate: float
    lemma: str  # "sw" or "extraction"
    error_rate: float | None
    kl_to_uniform: float | None
    replicates: int

    def csv_rows(self) -> list[tuple]:
        rows = []
        if self.error_rate is not None:
            rows.append((self.n, self.rate, self.lemma, "error_rate", self.error_rate))
        if self.kl_to_uniform is not None:
            rows.append((self.n, self.rate, self.lemma, "kl_to_uniform", self.kl_to_uniform))
        return rows


def check_sweep(joint: JointPMF, n: int, samples: int, lemmas) -> None:
    """The enumeration guard, applied before a sweep at blocklength n
    starts: it makes the oracles' own guard calls, so it raises exactly
    when the sweep would, on the SW scores (samples x |A|^n cells, no
    fewer than the binning of A) or on one extraction column
    (max(|A|, |B|)^n cells, no fewer than the binning of B)."""
    size_a, size_b = _ab_table(joint).shape
    if "sw" in lemmas:
        _check_cells("SW decoding", size_a, n, samples)
    if "extraction" in lemmas:
        _check_cells("extraction", max(size_a, size_b), n)


def verify_lemma_regimes(
    joint: JointPMF,
    n_list,
    rates,
    replicates: int,
    rng: np.random.Generator,
    samples: int = SW_SAMPLES,
    lemmas: tuple[str, ...] = LEMMAS,
) -> list[BinningTrialStats]:
    """Sweep the requested primitives over blocklengths and rates.

    For each (n, rate): the reconstruction error of ``replicates``
    independent binnings of A (sampled, ``samples`` draws each, the same
    source draws shared across rates at fixed n and replicate), and the
    exact extraction KL of ``replicates`` binnings of B, averaged.
    """
    results = []
    size_a, size_b = _ab_table(joint).shape
    anchor = int(rng.integers(0, 2**62))
    rates = list(rates)

    def stream(*key):  # keyed by its own indices, so the loop order moves no draw
        return np.random.default_rng(np.random.SeedSequence([anchor, *key]))

    for n in n_list:
        for ri, rate in enumerate(rates):
            if "sw" in lemmas:
                # the source draws depend only on (n, rep): paired across rates
                errs = [sw_error_rate(RandomBinning.draw(n, rate, size_a, stream(n, rep, ri, 0)), joint,
                                      stream(n, rep, 1), samples) for rep in range(replicates)]
                results.append(BinningTrialStats(n, rate, "sw", float(np.mean(errs)), None, replicates))
            if "extraction" in lemmas:
                kls = [extraction_kl(RandomBinning.draw(n, rate, size_b, stream(n, rep, ri, 2)), joint, n)
                       for rep in range(replicates)]
                kl = float(np.mean(kls))
                results.append(BinningTrialStats(n, rate, "extraction", None, kl, replicates))
    return results
