"""Exact small-blocklength verification of the two binning primitives.

Two facts drive the achievability scheme: a uniform random binning of rate
above H(A|B) lets a maximum-posterior decoder recover A^n from its bin
index and side information B^n (source coding with side information), and
a binning of rate below H(B|A) produces an index nearly uniform and nearly
independent of A^n (channel randomness extraction).  This module checks
both exactly at tiny blocklengths: the decoder scores every sequence, and
the extraction KL is computed exactly.  Both use the i.i.d. product
structure of the joint instead of enumerating sequence pairs: the decoder's
scores are a Kronecker sum of per-symbol log-likelihoods, and P(a^n, k) is
contracted from the bin indicator one symbol at a time.

Blocklengths are capped hard; the module exists to be an oracle, not a
codec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .probability import JointPMF, inverse_cdf

__all__ = [
    "ENUMERATION_CELL_CAP",
    "RandomBinning",
    "BinningTrialStats",
    "dsbs",
    "sw_error_rate",
    "extraction_kl",
    "verify_lemma_regimes",
]

ENUMERATION_CELL_CAP = 1 << 24  # max cells of one array an exact oracle allocates


def _check_cells(what: str, shape: str, cells: int) -> int:
    """The one enumeration guard, applied before an array of ``cells``
    cells is allocated; returns ``cells``."""
    if cells > ENUMERATION_CELL_CAP:
        raise ValueError(
            f"{what}: {shape} = {cells} cells exceeds the enumeration cap "
            f"{ENUMERATION_CELL_CAP}; use a smaller n or rate"
        )
    return cells


def _sequence_product(pmf: np.ndarray, n: int) -> np.ndarray:
    """The i.i.d. n-fold product of a per-symbol pmf vector, indexed by
    sequence in lexicographic order (a Kronecker power)."""
    out = pmf
    for _ in range(n - 1):
        out = np.kron(out, pmf)
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
        states = _check_cells("binning", f"{alphabet_size}^{n}", alphabet_size**n)
        num_bins = 1 << math.ceil(n * rate)
        return cls(n, rate, alphabet_size, rng.integers(1, num_bins + 1, states))

    @classmethod
    def identity(cls, n: int, alphabet_size: int) -> "RandomBinning":
        """One bin per sequence: rate log2(alphabet_size)."""
        states = _check_cells("binning", f"{alphabet_size}^{n}", alphabet_size**n)
        return cls(n, math.log2(alphabet_size), alphabet_size, np.arange(1, states + 1))


def _log_table(table: np.ndarray) -> np.ndarray:
    out = np.full(table.shape, -np.inf)
    np.log(table, out=out, where=table > 0)
    return out


def _ab_table(joint: JointPMF) -> np.ndarray:
    """The single-letter table with axes ordered (A, B)."""
    return joint.table if joint.axis_names == ("A", "B") else joint.table.T


def _posterior_scores(joint: JointPMF, side_b: np.ndarray) -> np.ndarray:
    """log P(a^n, b^n) for every a-sequence (columns, lexicographic) and
    each row of side_b; P(b^n) is constant in a, so this ranks the
    posterior.

    The scores are the Kronecker sum of the per-symbol log-likelihood
    columns ll[:, b_t], added left to right: the same additions in the
    same order as summing ll[a_t, b_t] over t for each sequence.
    """
    ll = _log_table(_ab_table(joint))
    rows = side_b.shape[0]
    scores = ll[:, side_b[:, 0]].T
    for t in range(1, side_b.shape[1]):
        scores = (scores[:, :, None] + ll[:, side_b[:, t]].T[:, None, :]).reshape(rows, -1)
    return scores


def _sample_pairs(joint: JointPMF, rng: np.random.Generator, count: int, n: int):
    draws = inverse_cdf(joint.table.reshape(-1), rng.random((count, n)))
    cells = np.unravel_index(draws, joint.table.shape)
    return cells[joint.axis_index("A")], cells[joint.axis_index("B")]


def sw_error_rate(
    binning: RandomBinning,
    joint: JointPMF,
    rng: np.random.Generator,
    samples: int = 200,
) -> float:
    """Empirical P{decoded != true} over i.i.d. draws."""
    size_a, n = binning.alphabet_size, binning.n
    # the score and in-bin arrays are samples x |A|^n
    _check_cells("SW decoding", f"{samples} x {size_a}^{n}", samples * size_a**n)
    a, b = _sample_pairs(joint, rng, samples, n)
    codes = np.ravel_multi_index(tuple(a.T), (size_a,) * n)
    scores = _posterior_scores(joint, b)
    # each draw's own bin holds its true sequence, so no queried bin is empty
    in_bin = binning.assignment[None, :] == binning.assignment[codes][:, None]
    decoded = np.argmax(np.where(in_bin, scores, -np.inf), axis=1)
    return int(np.count_nonzero(decoded != codes)) / samples


def extraction_kl(binning: RandomBinning, joint: JointPMF, n: int) -> float:
    """Exact divergence (bits) of (A^n, K) from P_{A^n} x uniform, where K
    is the bin index of B^n under ``binning``.

    P(a^n, k) is contracted from the one-hot bin indicator over b^n, one
    symbol at a time: step t replaces the t-th B axis by an A axis through
    the single-letter table.  That costs O(n |A| |B|^n bins) and never
    builds the |A|^n x |B|^n pair table.
    """
    if n != binning.n:
        raise ValueError("n must match the binning")
    size_a = joint.axes[joint.axis_index("A")].size
    size_b = joint.axes[joint.axis_index("B")].size
    if size_b != binning.alphabet_size:
        raise ValueError("binning alphabet does not match the joint's B axis")
    states_a, states_b = size_a**n, size_b**n
    bins = binning.num_bins
    # no array of the contraction exceeds max(|A|, |B|)^n x bins cells
    widest = max(size_a, size_b)
    _check_cells("extraction", f"{widest}^{n} x {bins}", widest**n * bins)
    table = _ab_table(joint)
    cur = np.zeros((states_b, bins))
    cur[np.arange(states_b), binning.assignment - 1] = 1.0
    for t in range(n):
        cur = np.matmul(table, cur.reshape(size_a**t, size_b, -1))
    joint_ak = cur.reshape(states_a, bins)
    del cur
    pa_seq = _sequence_product(table.sum(axis=1), n)

    mask = joint_ak > 0
    p = joint_ak[mask]
    del joint_ak  # the contraction's table is freed before the ratio is built
    ratio = np.broadcast_to(pa_seq[:, None] / bins, mask.shape)[mask]
    np.divide(p, ratio, out=ratio)
    np.log2(ratio, out=ratio)
    return float(np.multiply(p, ratio, out=ratio).sum())


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


def verify_lemma_regimes(
    joint: JointPMF,
    n_list,
    rates,
    replicates: int,
    rng: np.random.Generator,
    samples: int = 200,
    lemmas: tuple[str, ...] = ("sw", "extraction"),
) -> list[BinningTrialStats]:
    """Sweep the requested primitives over blocklengths and rates.

    For each (n, rate): the reconstruction error of ``replicates``
    independent binnings of A (sampled, ``samples`` draws each, the same
    source draws shared across rates at fixed n and replicate), and the
    exact extraction KL of ``replicates`` binnings of B, averaged.
    """
    results = []
    size_a = joint.axes[joint.axis_index("A")].size
    size_b = joint.axes[joint.axis_index("B")].size
    anchor = int(rng.integers(0, 2**62))
    rates = list(rates)
    for n in n_list:
        errs = np.empty((len(rates), replicates))
        kls = np.empty((len(rates), replicates))
        for rep in range(replicates):
            for ri, rate in enumerate(rates):
                if "sw" in lemmas:
                    bin_a = RandomBinning.draw(
                        n, rate, size_a,
                        np.random.default_rng(np.random.SeedSequence([anchor, n, rep, ri, 0])),
                    )
                    # the source draws depend only on (n, rep): paired across rates
                    sample_rng = np.random.default_rng(np.random.SeedSequence([anchor, n, rep, 1]))
                    errs[ri, rep] = sw_error_rate(bin_a, joint, sample_rng, samples)
                if "extraction" in lemmas:
                    bin_b = RandomBinning.draw(
                        n, rate, size_b,
                        np.random.default_rng(np.random.SeedSequence([anchor, n, rep, ri, 2])),
                    )
                    kls[ri, rep] = extraction_kl(bin_b, joint, n)
        for ri, rate in enumerate(rates):
            if "sw" in lemmas:
                results.append(BinningTrialStats(n, rate, "sw", float(errs[ri].mean()), None,
                                                 replicates))
            if "extraction" in lemmas:
                results.append(BinningTrialStats(n, rate, "extraction", None, float(kls[ri].mean()),
                                                 replicates))
    return results
