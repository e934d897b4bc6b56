import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from coordsim import binning as binning_module
from coordsim.binning import (
    ENUMERATION_CELL_CAP,
    RandomBinning,
    _ab_table,
    _kronecker,
    _log_table,
    check_sweep,
    dsbs,
    extraction_kl,
    sw_error_rate,
    verify_lemma_regimes,
)
from coordsim.probability import Alphabet, JointPMF, entropy, iid_blocks, mutual_information


def _wide_a_joint():
    # |A| = 3 > |B| = 2: one streamed extraction column is 3^n cells
    table = np.array([[0.2, 0.1], [0.05, 0.3], [0.15, 0.2]])
    return JointPMF((Alphabet("A", 3), Alphabet("B", 2)), table)


def test_cap_enforced():
    # one cell guard: a binning past ENUMERATION_CELL_CAP, SW score arrays of
    # samples x |A|^n past it and an extraction chunk of one 3^16-cell column
    # all raise before anything is allocated
    rng = np.random.default_rng(0)
    assert 2**25 > ENUMERATION_CELL_CAP and 257 * 2**16 > ENUMERATION_CELL_CAP
    assert 3**16 > ENUMERATION_CELL_CAP
    binning = RandomBinning.draw(16, 0.5, 2, rng)
    wide = _wide_a_joint()
    state = rng.bit_generator.state
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="cap"):
            RandomBinning.draw(25, 0.5, 2, rng)
        with pytest.raises(ValueError, match="cap"):
            sw_error_rate(binning, dsbs(0.1), rng, samples=257)
        with pytest.raises(ValueError, match="cap"):
            extraction_kl(binning, wide, 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert rng.bit_generator.state == state


def test_cap_refuses_huge_n_without_forming_the_count():
    # 2^20000 has 6021 digits, past Python's integer-to-string limit: the
    # guard names the array as base^n and never forms or prints its count
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=r"^binning: 2\^20000 cells exceed the enumeration cap 16777216;"):
        RandomBinning.draw(20000, 0.0, 2, rng)
    with pytest.raises(ValueError, match=r"^SW decoding: 200 x 3\^20000 cells exceed the enumeration cap"):
        check_sweep(_wide_a_joint(), 20000, 200, ("sw", "extraction"))
    with pytest.raises(ValueError, match=r"^extraction: 3\^20000 cells exceed the enumeration cap"):
        check_sweep(_wide_a_joint(), 20000, 200, ("extraction",))


def test_cap_refuses_long_blocks_on_one_symbol_alphabets():
    # 1^n is one cell, but SW decoding draws samples x n uniforms and the
    # extraction contraction loops over the n symbols: an n at or past the
    # cap's bit length fails on every joint
    one_a = JointPMF((Alphabet("A", 1), Alphabet("B", 2)), np.array([[0.4, 0.6]]))
    one_ab = JointPMF((Alphabet("A", 1), Alphabet("B", 1)), np.ones((1, 1)))
    last = ENUMERATION_CELL_CAP.bit_length() - 1
    check_sweep(one_a, last, 200, ("sw", "extraction"))
    check_sweep(one_ab, last, 200, ("sw", "extraction"))
    with pytest.raises(ValueError, match=r"^SW decoding: blocklength 3000000 is at or past 25, the bit length"):
        check_sweep(one_a, 3000000, 200, ("sw",))
    with pytest.raises(ValueError, match=r"^extraction: blocklength 1000000000 is at or past 25, the bit length"):
        check_sweep(one_ab, 10**9, 200, ("extraction",))
    with pytest.raises(ValueError, match=r"^binning: blocklength 25 is at or past 25, the bit length"):
        RandomBinning.draw(last + 1, 0.3, 1, np.random.default_rng(0))


def test_bin_labels_and_count():
    rng = np.random.default_rng(1)
    b = RandomBinning.draw(10, 0.8, 2, rng)
    assert b.num_bins == 2 ** math.ceil(8.0)
    assert b.assignment.min() >= 1 and b.assignment.max() <= b.num_bins


# -- decoding ----------------------------------------------------------------------


def test_sw_decode_high_rate_mostly_injective():
    # rate above log|A|: most bins hold one sequence, decoding is exact
    rng = np.random.default_rng(2)
    joint = dsbs(0.4)  # poor side information on purpose
    n = 8
    binning = RandomBinning.draw(n, 1.5, 2, rng)
    err = sw_error_rate(binning, joint, rng, samples=300)
    assert err <= 0.02


def test_sw_decode_perfect_side_info_any_rate():
    # B = A: the true sequence has posterior 1, so any bin decodes correctly
    rng = np.random.default_rng(3)
    t = np.array([[0.5, 0.0], [0.0, 0.5]])
    joint = JointPMF((Alphabet("A", 2), Alphabet("B", 2)), t)
    binning = RandomBinning.draw(10, 0.2, 2, rng)
    err = sw_error_rate(binning, joint, rng, samples=200)
    assert err == 0.0


def test_sw_feasible_rate_beats_infeasible_rate():
    # DSBS(0.1): H(A|B) = h(0.1) ~ 0.47; R = 0.8 feasible, R = 0.3 not
    rng = np.random.default_rng(5)
    joint = dsbs(0.1)
    n = 10
    lo = hi = 0.0
    for rep in range(30):
        seeds = np.random.SeedSequence([7, rep]).spawn(3)
        hi_b = RandomBinning.draw(n, 0.8, 2, np.random.default_rng(seeds[0]))
        lo_b = RandomBinning.draw(n, 0.3, 2, np.random.default_rng(seeds[1]))
        err_hi = sw_error_rate(hi_b, joint, np.random.default_rng(seeds[2]), 100)
        err_lo = sw_error_rate(lo_b, joint, np.random.default_rng(seeds[2]), 100)
        hi += err_hi
        lo += err_lo
    assert hi / 30 < lo / 30


# -- extraction --------------------------------------------------------------------


def test_extraction_single_bin_zero_kl():
    joint = dsbs(0.1)
    binning = RandomBinning.draw(8, 0.0, 2, np.random.default_rng(6))
    assert binning.num_bins == 1
    assert extraction_kl(binning, joint, 8) == pytest.approx(0.0, abs=1e-12)


def test_extraction_kl_nonnegative():
    joint = dsbs(0.2)
    rng = np.random.default_rng(7)
    for _ in range(5):
        b = RandomBinning.draw(6, 0.4, 2, rng)
        assert extraction_kl(b, joint, 6) >= -1e-12


def test_extraction_independent_source_decreasing_in_n():
    # B independent of A: KL measures only the non-uniformity of K, which
    # the binning average drives down with n at fixed low rate
    axA, axB = Alphabet("A", 2), Alphabet("B", 2)
    joint = JointPMF((axA, axB), np.outer([0.5, 0.5], [0.7, 0.3]))
    means = []
    for n in (4, 8, 12):
        vals = [
            extraction_kl(RandomBinning.draw(n, 0.2, 2, np.random.default_rng(np.random.SeedSequence([n, r]))), joint, n)
            for r in range(15)
        ]
        means.append(np.mean(vals))
    assert means[0] > means[1] > means[2]


@pytest.mark.parametrize("rate,expected", [(0.3, 0.6294073806117334), (0.8, 4.514653181493051)])
def test_extraction_kl_pinned_n12(rate, expected):
    # the benchmark's source and block length; the value is pinned to the bit
    binning = RandomBinning.draw(12, rate, 2, np.random.default_rng(12))
    assert extraction_kl(binning, dsbs(0.1), 12) == expected


def _ab_joint(table, order):
    """A joint over A (rows of ``table``) and B, stored in the given axis order."""
    ax_a, ax_b = Alphabet("A", table.shape[0]), Alphabet("B", table.shape[1])
    return JointPMF((ax_a, ax_b), table) if order == "AB" else JointPMF((ax_b, ax_a), table.T)


def _random_table(rng, size_a, size_b):
    # some zero cells, so the masked KL and the -inf scores are exercised
    t = rng.random((size_a, size_b)) * (rng.random((size_a, size_b)) > 0.25)
    t[rng.integers(size_a), rng.integers(size_b)] += 0.5
    return t / t.sum()


def _naive_extraction_kl(binning, joint, n):
    """Independent oracle: accumulate P(a^n, k) with explicit python loops."""
    table = np.moveaxis(joint.table, (joint.axis_index("A"), joint.axis_index("B")), (0, 1))
    size_a, size_b = table.shape
    p_ak = {}
    p_a = {}
    for a in itertools.product(range(size_a), repeat=n):
        for b in itertools.product(range(size_b), repeat=n):
            p = math.prod(table[a[t], b[t]] for t in range(n))
            code_b = 0
            for sym in b:
                code_b = code_b * size_b + sym
            k = int(binning.assignment[code_b])
            p_ak[(a, k)] = p_ak.get((a, k), 0.0) + p
            p_a[a] = p_a.get(a, 0.0) + p
    return sum(
        p * math.log2(p / (p_a[a] / binning.num_bins)) for (a, k), p in p_ak.items() if p > 0
    )


def test_extraction_matches_naive_enumeration():
    n = 3
    joint = dsbs(0.15)
    binning = RandomBinning.draw(n, 0.4, 2, np.random.default_rng(11))
    assert extraction_kl(binning, joint, n) == pytest.approx(_naive_extraction_kl(binning, joint, n), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 3]),
    st.sampled_from([2, 3]),
    st.sampled_from(["AB", "BA"]),
    st.integers(1, 5),
    st.floats(0.0, 1.0),
)
def test_extraction_contraction_matches_enumeration(seed, size_a, size_b, order, n, rate_frac):
    # rates from 0 up to past log2|B|, so one-bin and injective-ish binnings occur
    rng = np.random.default_rng(seed)
    joint = _ab_joint(_random_table(rng, size_a, size_b), order)
    rate = rate_frac * (math.log2(size_b) + 0.5)
    binning = RandomBinning.draw(n, rate, size_b, rng)
    assert extraction_kl(binning, joint, n) == pytest.approx(_naive_extraction_kl(binning, joint, n), abs=1e-12)


@pytest.mark.parametrize("order", ["AB", "BA"])
@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2)])
def test_posterior_scores_equal_per_sequence_sums(order, shape):
    # the SW decoder's scores through the Kronecker routine: sum_t log P(a_t, b_t),
    # added left to right per sequence; zero cells give -inf
    rng = np.random.default_rng(sum(shape) + len(order))
    table = _random_table(rng, *shape)
    table[0, 0] = 0.0
    table /= table.sum()
    joint = _ab_joint(table, order)
    ll = np.full(shape, -np.inf)
    np.log(table, out=ll, where=table > 0)
    for n in (1, 2, 5):
        side_b = rng.integers(0, shape[1], (4, n))
        side_b[0] = 0  # hits the zero cell wherever a_t = 0
        expect = np.empty((4, shape[0] ** n))
        for r, b in enumerate(side_b):
            for col, a in enumerate(itertools.product(range(shape[0]), repeat=n)):
                total = 0.0
                for t in range(n):
                    total += ll[a[t], b[t]]
                expect[r, col] = total
        got = _kronecker(np.add, np.moveaxis(_log_table(_ab_table(joint))[:, side_b], 0, -1))
        assert np.isneginf(got).any()
        assert np.array_equal(got, expect)


@pytest.mark.parametrize("size", [2, 3, 5])
def test_kronecker_product_equals_kron_chain(size):
    # the extraction reference P_A^n, bit for bit as the np.kron chain builds it
    pmf = np.random.default_rng(size).dirichlet(np.ones(size))
    chain = pmf
    for n in range(1, 7):
        got = _kronecker(np.multiply, np.broadcast_to(pmf, (n, size)))
        assert got.shape == (size**n,)
        assert np.array_equal(got.view(np.uint64), chain.view(np.uint64))
        chain = np.kron(chain, pmf)


def test_sw_error_rate_reads_axes_by_name():
    # the same law stored (A, B) and (B, A) decodes the same draws
    table = np.array([[0.3, 0.15, 0.05], [0.0, 0.2, 0.3]])
    binning = RandomBinning.draw(5, 0.6, 2, np.random.default_rng(12))
    errs = [
        sw_error_rate(binning, _ab_joint(table, order), np.random.default_rng(13), 80)
        for order in ("AB", "BA")
    ]
    assert errs[0] == errs[1]


def _full_table_sw_error_rate(binning, joint, rng, samples):
    """The SW error rate from the whole samples x |A|^n table: each
    sequence's log-likelihood summed left to right, -inf outside the
    draw's bin by one full mask, and the first maximum decoded."""
    size_a, n = binning.alphabet_size, binning.n
    blocks = iid_blocks(joint, rng, samples, n)
    a, b = blocks[joint.axis_index("A")], blocks[joint.axis_index("B")]
    codes = np.ravel_multi_index(tuple(a.T), (size_a,) * n)
    ll = _log_table(_ab_table(joint))
    seqs = np.array(list(itertools.product(range(size_a), repeat=n)))
    scores = ll[seqs[None, :, 0], b[:, None, 0]]
    for t in range(1, n):
        scores = scores + ll[seqs[None, :, t], b[:, None, t]]
    scores[binning.assignment[None, :] != binning.assignment[codes][:, None]] = -np.inf
    return int(np.count_nonzero(np.argmax(scores, axis=1) != codes)) / samples


@pytest.mark.parametrize("chunk_cells", [binning_module.CHUNK_CELLS, 3 * 2**7])
@pytest.mark.parametrize("case", ["dsbs n=12 rate 0.3", "dsbs n=12 rate 0.6", "ternary A n=7", "zero cell n=9"])
def test_sw_error_rate_matches_the_full_table(monkeypatch, case, chunk_cells):
    # the in-place scores and the mask applied a few draws at a time decode
    # every draw as the full table does; the small chunk leaves a partial
    # last one
    monkeypatch.setattr(binning_module, "CHUNK_CELLS", chunk_cells)
    zero_cell = np.array([[0.3, 0.0], [0.25, 0.45]])
    joint, n, rate, size = {
        "dsbs n=12 rate 0.3": (dsbs(0.1), 12, 0.3, 2),
        "dsbs n=12 rate 0.6": (dsbs(0.1), 12, 0.6, 2),
        "ternary A n=7": (_wide_a_joint(), 7, 0.5, 3),
        "zero cell n=9": (_ab_joint(zero_cell, "BA"), 9, 0.4, 2),
    }[case]
    binning = RandomBinning.draw(n, rate, size, np.random.default_rng(1))
    got = sw_error_rate(binning, joint, np.random.default_rng(2), 200)
    assert got == _full_table_sw_error_rate(binning, joint, np.random.default_rng(2), 200)


def test_sw_error_rate_holds_one_score_array():
    # at n = 12 with 200 draws the peak is the samples x 2^12 float64 scores
    # and no more than 512 KiB besides: no second score array, no full mask
    binning = RandomBinning.draw(12, 0.3, 2, np.random.default_rng(1))
    tracemalloc.start()
    try:
        sw_error_rate(binning, dsbs(0.1), np.random.default_rng(2), 200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200 * 2**12 * 8 + (1 << 19)


def test_extraction_identity_binning_closed_form():
    # K = B^n exactly: D(P_{A^n K} || P_{A^n} Q_K) = I(A^n;K) + D(P_K || Q_K)
    n = 8
    joint = dsbs(0.1)
    binning = RandomBinning(n, 1.0, 2, np.arange(1, 2**n + 1))
    got = extraction_kl(binning, joint, n)
    # closed form via single-letter quantities: I(A^n;B^n) = n I(A;B),
    # D(P_{B^n} || uniform) = n (log2|B| - H(B))
    i_ab = mutual_information(joint, ["A"], ["B"])
    h_b = entropy(joint, ["B"])
    expect = n * i_ab + n * (1.0 - h_b)
    assert got == pytest.approx(expect, abs=1e-9)


def test_extraction_guards_oversized_table():
    # streamed, the bin count no longer sizes any array; a single column of
    # 3^16 cells still exceeds the cap
    binning = RandomBinning.draw(16, 0.2, 2, np.random.default_rng(14))
    with pytest.raises(ValueError, match="cells"):
        extraction_kl(binning, _wide_a_joint(), 16)


def test_extraction_identity_binning_closed_form_multi_chunk():
    # 2^10 x 2^10 cells: the bin columns are contracted in several chunks
    n = 10
    joint = dsbs(0.1)
    assert 2**n * 2**n > binning_module.CHUNK_CELLS
    got = extraction_kl(RandomBinning(n, 1.0, 2, np.arange(1, 2**n + 1)), joint, n)
    expect = n * mutual_information(joint, ["A"], ["B"]) + n * (1.0 - entropy(joint, ["B"]))
    assert got == pytest.approx(expect, abs=1e-9)


def test_extraction_multi_chunk_matches_enumeration():
    # |A| = 2, |B| = 3 at n = 6 and rate 1.5: the 729 states fill more of the
    # 512 bins than one chunk of 2^18 // 729 columns holds
    n = 6
    rng = np.random.default_rng(23)
    joint = _ab_joint(_random_table(rng, 2, 3), "AB")
    binning = RandomBinning.draw(n, 1.5, 3, rng)
    assert np.unique(binning.assignment).size > binning_module.CHUNK_CELLS // 3**n
    assert extraction_kl(binning, joint, n) == pytest.approx(_naive_extraction_kl(binning, joint, n), abs=1e-12)


def test_extraction_rate_far_past_log_alphabet():
    # 2^48 bins for 2^8 states: the cost is that of the occupied bins, and K
    # is one-to-one on B^n, so the KL is n I(A;B) + 48 - n H(B)
    n = 8
    joint = dsbs(0.1)
    binning = RandomBinning.draw(n, 6.0, 2, np.random.default_rng(48))
    assert np.unique(binning.assignment).size == 2**n
    expect = n * mutual_information(joint, ["A"], ["B"]) + 48 - n * entropy(joint, ["B"])
    assert extraction_kl(binning, joint, n) == pytest.approx(expect, abs=1e-9)


@pytest.mark.parametrize("chunk_cells", [1, 5, 64])
def test_extraction_chunk_boundaries_match_enumeration(chunk_cells, monkeypatch):
    # budgets down to one column per chunk, so a chunk edge falls between any two bins
    monkeypatch.setattr(binning_module, "CHUNK_CELLS", chunk_cells)
    for seed in range(6):
        rng = np.random.default_rng([chunk_cells, seed])
        size_a, size_b = (int(v) for v in rng.integers(2, 4, 2))
        n = int(rng.integers(1, 5))
        joint = _ab_joint(_random_table(rng, size_a, size_b), "BA" if seed % 2 else "AB")
        binning = RandomBinning.draw(n, rng.random() * (math.log2(size_b) + 0.5), size_b, rng)
        expect = _naive_extraction_kl(binning, joint, n)
        assert extraction_kl(binning, joint, n) == pytest.approx(expect, abs=1e-12)


def test_extraction_memory_bounded_by_chunk():
    # the benchmark's n = 12, rate 0.8: 1024 bins, 4096 x 1024 cells unstreamed
    binning = RandomBinning.draw(12, 0.8, 2, np.random.default_rng(12))
    joint = dsbs(0.1)
    tracemalloc.start()
    try:
        extraction_kl(binning, joint, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_extraction_memory_holds_no_per_state_bin_numbers():
    # n = 18, rate 0.2: 16 bins, one column per chunk; besides the chunk the KL
    # holds only the sort order and the reference, 2 MiB each
    binning = RandomBinning.draw(18, 0.2, 2, np.random.default_rng(18))
    joint = dsbs(0.1)
    tracemalloc.start()
    try:
        extraction_kl(binning, joint, 18)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 9 << 20


# -- sweep -------------------------------------------------------------------------


def test_verify_lemma_regimes_table():
    joint = dsbs(0.1)
    rng = np.random.default_rng(8)
    stats = verify_lemma_regimes(joint, [4, 8], [0.3, 0.8], replicates=10, rng=rng, samples=60)
    assert len(stats) == 8  # 2 n x 2 rates x 2 lemmas
    by = {(s.n, s.rate, s.lemma): s for s in stats}
    # above-threshold rate decodes strictly better at the larger n
    assert by[(8, 0.8, "sw")].error_rate < by[(8, 0.3, "sw")].error_rate
    rows = [r for s in stats for r in s.csv_rows()]
    assert all(len(r) == 5 for r in rows)


def test_degenerate_side_info_threshold_collapses_to_source_entropy():
    # B constant: side information useless, so only rate > H(A) decodes
    axA, axB = Alphabet("A", 2), Alphabet("B", 2)
    joint = JointPMF((axA, axB), np.array([[0.5, 0.0], [0.5, 0.0]]))
    rng = np.random.default_rng(9)
    n = 10
    good = RandomBinning.draw(n, 1.3, 2, rng)
    bad = RandomBinning.draw(n, 0.7, 2, rng)  # below H(A) = 1
    err_good = sw_error_rate(good, joint, rng, 150)
    err_bad = sw_error_rate(bad, joint, rng, 150)
    assert err_good < 0.05
    assert err_bad > 0.5


def test_error_trend_nonincreasing_in_n():
    joint = dsbs(0.1)
    rng = np.random.default_rng(10)
    stats = verify_lemma_regimes(joint, [4, 8, 12], [0.8], replicates=25, rng=rng,
                                 samples=100, lemmas=("sw",))
    errs = [s.error_rate for s in stats if s.lemma == "sw"]
    rho = spearmanr([4, 8, 12], errs).statistic
    assert rho <= 0
