import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordsim.bundled import binary_symmetric_channel, bsc_model
from coordsim.construction import SourceModel
from coordsim.polar import (
    SuccessiveCancellation,
    polar_transform,
    sc_pass,
    true_path_conditionals,
)
from coordsim.probability import Alphabet, ConditionalPMF, JointPMF

U, X, Y, V, W = (Alphabet(n, 2) for n in "UXYVW")


def kernel_matrix(m):
    F = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    G = F
    for _ in range(m - 1):
        G = np.kron(G, F) % 2
    return G


# -- transform -------------------------------------------------------------------


def test_transform_n2():
    assert np.array_equal(polar_transform([0, 1]), [1, 1])


def test_transform_n4_matrix_oracle():
    v = np.array([1, 0, 0, 1], dtype=np.uint8)
    expect = v @ kernel_matrix(2) % 2
    assert np.array_equal(polar_transform(v), expect)
    assert np.array_equal(polar_transform(v), [0, 1, 1, 1])


def test_transform_matches_matrix_for_random_vectors():
    rng = np.random.default_rng(0)
    for m in (1, 2, 3, 4, 5):
        n = 1 << m
        G = kernel_matrix(m)
        for _ in range(5):
            v = rng.integers(0, 2, n, dtype=np.uint8)
            assert np.array_equal(polar_transform(v), v @ G % 2)


def test_transform_rejects_non_power_of_two():
    with pytest.raises(ValueError, match="power of 2"):
        polar_transform([0, 1, 1])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 8, 16, 64]))
def test_transform_involution_and_linearity(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, n, dtype=np.uint8)
    b = rng.integers(0, 2, n, dtype=np.uint8)
    assert np.array_equal(polar_transform(polar_transform(a)), a)
    assert np.array_equal(polar_transform(a ^ b), polar_transform(a) ^ polar_transform(b))


def test_transform_batched_rows():
    rng = np.random.default_rng(1)
    block = rng.integers(0, 2, (6, 8), dtype=np.uint8)
    rows = np.stack([polar_transform(r) for r in block])
    assert np.array_equal(polar_transform(block), rows)


# -- exhaustive conditional oracle --------------------------------------------------


def enumerate_conditional(leaf_p1, prefix, j):
    """P(bit_j = 1 | prefix) by enumerating every leaf configuration."""
    n = len(leaf_p1)
    xs = np.array(list(itertools.product([0, 1], repeat=n)), dtype=np.uint8)
    weights = np.prod(np.where(xs == 1, leaf_p1, 1 - np.asarray(leaf_p1)), axis=1)
    bits = polar_transform(xs)
    match = np.all(bits[:, : j - 1] == np.asarray(prefix, dtype=np.uint8), axis=1)
    denom = weights[match].sum()
    return weights[match & (bits[:, j - 1] == 1)].sum() / denom


def test_sequential_matches_enumeration():
    rng = np.random.default_rng(2)
    for n in (2, 4, 8):
        leaf = rng.uniform(0.05, 0.95, n)
        sc = SuccessiveCancellation(leaf)
        prefix = []
        for j in range(1, n + 1):
            p = sc.next_probability()
            assert p == pytest.approx(enumerate_conditional(leaf, prefix, j), abs=1e-12)
            bit = int(rng.random() < p)
            sc.push(bit)
            prefix.append(bit)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 8]))
def test_conditionals_match_enumeration_property(seed, n):
    rng = np.random.default_rng(seed)
    leaf = rng.uniform(0.02, 0.98, n)
    bits = rng.integers(0, 2, n, dtype=np.uint8)
    probs = true_path_conditionals(leaf[None, :], bits[None, :])[0]
    for j in range(1, n + 1):
        expect = enumerate_conditional(leaf, bits[: j - 1].tolist(), j)
        assert probs[j - 1] == pytest.approx(expect, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 4, 8]))
def test_sc_pass_matches_enumeration_with_known_bits(seed, n):
    rng = np.random.default_rng(seed)
    trials = 3
    leaf = rng.uniform(0.02, 0.98, (trials, n))
    known = rng.random(n) < 0.5
    bits = np.where(known, rng.integers(0, 2, (trials, n)), 0).astype(np.uint8)
    decided = []

    def decide(j, p):
        decided.append((j, p.copy()))
        return rng.random(trials) < p

    sums = sc_pass(leaf, bits, known, decide)
    assert [j for j, _ in decided] == [j for j in range(n) if not known[j]]
    assert np.array_equal(sums, polar_transform(bits))
    for j, p in decided:
        for t in range(trials):
            expect = enumerate_conditional(leaf[t], bits[t, :j].tolist(), j + 1)
            assert p[t] == pytest.approx(expect, abs=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_contradiction_rule():
    # both leaves are surely 1, so bit 1 (their XOR) is surely 0; a path that
    # sets it to 1 leaves no mass for either value of bit 2
    probs = true_path_conditionals(np.ones((1, 2)), np.array([[1, 0]], dtype=np.uint8))
    assert probs[0, 1] == 0.5
    decided = []
    sums = sc_pass(np.ones((1, 2)), np.array([[1, 0]], dtype=np.uint8), np.array([True, False]),
                   lambda j, p: decided.append(p) or p > 0.5)
    assert decided[0][0] == 0.5
    assert np.array_equal(sums, [[1, 0]])


def test_batched_matches_sequential():
    rng = np.random.default_rng(3)
    n = 16
    leaf = rng.uniform(0.02, 0.98, (5, n))
    bits = rng.integers(0, 2, (5, n), dtype=np.uint8)
    batched = true_path_conditionals(leaf, bits)
    for row in range(5):
        sc = SuccessiveCancellation(leaf[row])
        for j in range(n):
            assert batched[row, j] == pytest.approx(sc.next_probability(), abs=1e-12)
            sc.push(int(bits[row, j]))


def test_push_without_query_keeps_state_consistent():
    # frozen positions push bits directly; later queries must still be exact
    rng = np.random.default_rng(4)
    n = 8
    leaf = rng.uniform(0.1, 0.9, n)
    bits = rng.integers(0, 2, n, dtype=np.uint8)
    sc = SuccessiveCancellation(leaf)
    queried = {2, 5, 7}
    for j in range(n):
        if j in queried:
            p = sc.next_probability()
            assert p == pytest.approx(enumerate_conditional(leaf, bits[:j].tolist(), j + 1), abs=1e-12)
        sc.push(int(bits[j]))


# -- the model's evidence tables through the known-path driver --------------------


def prefix_conditional(leaf_p1, prefix) -> float:
    """P(bit_j = 1 | bits before j = prefix, evidence) with j = len(prefix)
    (0-based); the bits after the prefix do not enter."""
    bits = np.zeros(len(leaf_p1), dtype=np.uint8)
    bits[: len(prefix)] = prefix
    return float(true_path_conditionals(np.asarray(leaf_p1)[None], bits[None])[0, len(prefix)])


def test_sc_probability_x_uniform_source():
    leaf = np.full(8, bsc_model().x_prior.table[1])
    assert prefix_conditional(leaf, []) == pytest.approx(0.5, abs=1e-12)
    assert prefix_conditional(leaf, [0, 1]) == pytest.approx(0.5, abs=1e-12)


def test_sc_probability_x_base_case():
    model = SourceModel(
        u_prior=JointPMF.uniform((U,)),
        x_prior=JointPMF((X,), np.array([0.7, 0.3])),
        channel=binary_symmetric_channel(0.1),
        w_rule=bsc_model().w_rule,
        v_rule=bsc_model().v_rule,
    )
    leaf = np.full(1, model.x_prior.table[1])
    assert prefix_conditional(leaf, []) == pytest.approx(0.3, abs=1e-12)


def test_sc_probability_x_posterior_oracle():
    # n=2, uniform X through BSC(0.1), y=(0,0): brute force over 4 sequences
    model = bsc_model(crossover=0.1)
    leaf = model.x_posterior_given_y()[[0, 0]]
    assert prefix_conditional(leaf, []) == pytest.approx(0.18, abs=1e-12)


def test_sc_probability_w_independent_uniform():
    # W uniform, independent of everything
    w_rule = ConditionalPMF((X, U), (W,), np.full((2, 2, 2), 0.5))
    base = bsc_model()
    model = SourceModel(base.u_prior, base.x_prior, base.channel, w_rule, base.v_rule)
    x = [0, 1]
    assert prefix_conditional(model.w_given_x()[x], []) == pytest.approx(0.5, abs=1e-12)
    assert prefix_conditional(model.w_given_xu()[x, [1, 0]], [1]) == pytest.approx(0.5, abs=1e-12)


def test_sc_probability_w_deterministic_copy():
    copy = np.zeros((2, 2, 2))
    copy[0, :, 0] = 1.0
    copy[1, :, 1] = 1.0  # W = X
    base = bsc_model()
    model = SourceModel(base.u_prior, base.x_prior, base.channel,
                        ConditionalPMF((X, U), (W,), copy), base.v_rule)
    x = [0, 1, 1, 0]
    z_true = polar_transform(np.array(x, dtype=np.uint8))
    leaf = model.w_given_xu()[x, [0, 0, 0, 0]]
    for j in range(4):
        p = prefix_conditional(leaf, z_true[:j])
        assert p in (pytest.approx(0.0, abs=1e-12), pytest.approx(1.0, abs=1e-12))
        assert int(round(p)) == z_true[j]


def test_sc_probability_w_enumeration_oracle():
    rng = np.random.default_rng(5)
    rows = rng.dirichlet(np.ones(2), size=4).reshape(2, 2, 2)
    base = bsc_model()
    model = SourceModel(base.u_prior, base.x_prior, base.channel,
                        ConditionalPMF((X, U), (W,), rows), base.v_rule)
    leaf = model.w_given_xu()[[1, 0], [0, 1]]
    for prefix in ([], [0], [1]):
        got = prefix_conditional(leaf, prefix)
        assert got == pytest.approx(enumerate_conditional(leaf, prefix, len(prefix) + 1), abs=1e-12)
