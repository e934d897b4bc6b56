import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from coordsim.binning import (
    BRUTE_FORCE_CAP,
    RandomBinning,
    _posterior_scores,
    dsbs,
    extraction_kl,
    sw_decode,
    sw_error_rate,
    verify_lemma_regimes,
)
from coordsim.probability import Alphabet, JointPMF, mutual_information


def test_cap_enforced():
    rng = np.random.default_rng(0)
    assert 2**15 > BRUTE_FORCE_CAP
    with pytest.raises(ValueError, match="cap"):
        RandomBinning.draw(15, 0.5, 2, rng)


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


def test_sw_decode_deterministic_and_lexicographic_ties():
    joint = dsbs(0.1)
    rng = np.random.default_rng(4)
    binning = RandomBinning.draw(6, 0.5, 2, rng)
    b = rng.integers(0, 2, 6)
    first = sw_decode(3, b, binning, joint)
    again = sw_decode(3, b, binning, joint)
    assert np.array_equal(first[0], again[0]) and first[1] == again[1]


def test_sw_decode_empty_bin_flagged():
    # a one-sequence alphabet makes crafted empty bins easy: assign all to bin 1
    joint = dsbs(0.1)
    assignment = np.ones(2**6, dtype=np.int64)
    binning = RandomBinning(6, 0.5, 2, assignment)
    a_hat, empty = sw_decode(2, np.zeros(6, dtype=np.int64), binning, joint)
    assert empty
    assert np.array_equal(a_hat, np.zeros(6))


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
    # sum_t log P(a_t, b_t), added left to right per sequence; zero cells give -inf
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
        got = _posterior_scores(joint, side_b)
        assert np.isneginf(got).any()
        assert np.array_equal(got, expect)


def test_sw_error_rate_reads_axes_by_name():
    # the same law stored (A, B) and (B, A) decodes the same draws
    table = np.array([[0.3, 0.15, 0.05], [0.0, 0.2, 0.3]])
    binning = RandomBinning.draw(5, 0.6, 2, np.random.default_rng(12))
    errs = [
        sw_error_rate(binning, _ab_joint(table, order), np.random.default_rng(13), 80)
        for order in ("AB", "BA")
    ]
    assert errs[0] == errs[1]


def test_extraction_identity_binning_closed_form():
    # K = B^n exactly: D(P_{A^n K} || P_{A^n} Q_K) = I(A^n;K) + D(P_K || Q_K)
    n = 8
    joint = dsbs(0.1)
    binning = RandomBinning.identity(n, 2)
    got = extraction_kl(binning, joint, n)
    # closed form via single-letter quantities: I(A^n;B^n) = n I(A;B),
    # D(P_{B^n} || uniform) = n (log2|B| - H(B))
    i_ab = mutual_information(joint, ["A"], ["B"])
    from coordsim.probability import entropy

    h_b = entropy(joint, ["B"])
    expect = n * i_ab + n * (1.0 - h_b)
    assert got == pytest.approx(expect, abs=1e-9)


def test_extraction_guards_oversized_table():
    joint = dsbs(0.1)
    with pytest.raises(ValueError, match="cells"):
        extraction_kl(RandomBinning.identity(14, 2), joint, 14)


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
