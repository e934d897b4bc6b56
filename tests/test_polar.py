import gc
import itertools
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coordsim import polar
from coordsim.bundled import binary_symmetric_channel, bsc_model
from coordsim.codec import _hard, _known
from coordsim.construction import SourceModel, load_index_cache
from coordsim.polar import (
    CHUNK_ROWS,
    KnownPathWorkspace,
    SuccessiveCancellation,
    known_path_conditionals,
    known_path_tree,
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


# -- sc_pass: one rule call per rate-1 node ------------------------------------------


def rate1_nodes(known, lo, hi):
    """The maximal sub-blocks [lo, hi) with no known bit, single bits
    included, in bit order: sc_pass calls its rule once on each."""
    if not known[lo:hi].any():
        return [(lo, hi)]
    if known[lo:hi].all():
        return []
    mid = (lo + hi) // 2
    return rate1_nodes(known, lo, mid) + rate1_nodes(known, mid, hi)


def node_leaf_law(leaf, prefix, hi):
    """The law of the leaves T(bits[lo:hi]) of the node [lo, hi), lo =
    len(prefix), given the bits before lo, by enumerating every leaf
    configuration: an array of shape (2,) * (hi - lo)."""
    xs = np.array(list(itertools.product([0, 1], repeat=len(leaf))), dtype=np.uint8)
    weights = np.prod(np.where(xs == 1, leaf, 1.0 - leaf), axis=1)
    block = polar_transform(xs)
    lo = len(prefix)
    match = np.all(block[:, :lo] == prefix, axis=1)
    law = np.zeros((2,) * (hi - lo))
    np.add.at(law, tuple(polar_transform(block[match, lo:hi]).T), weights[match])
    return law / law.sum()


def assert_rule_saw_each_node(leaf, bits, known, calls):
    """``calls`` are the probabilities sc_pass gave its rule: one call per
    rate-1 node, each the node's leaf marginals given the bits before it."""
    nodes = rate1_nodes(known, 0, bits.shape[1])
    assert [p.shape for p in calls] == [(bits.shape[0], hi - lo) for lo, hi in nodes]
    for (lo, hi), p in zip(nodes, calls):
        for t in range(bits.shape[0]):
            law = node_leaf_law(leaf[t], bits[t, :lo], hi)
            marginals = [np.moveaxis(law, leaf_t, 0)[1].sum() for leaf_t in range(law.ndim)]
            assert p[t] == pytest.approx(marginals, abs=1e-12)


def assert_known_bits_kept(given, bits, known, sums):
    """The pass left the known bits of ``given`` in ``bits`` and returned
    their partial sums: ``bits`` is recomputed from the sums, so a wrong
    staged sum would rewrite a known bit."""
    assert np.array_equal(bits[:, known], given[:, known])
    assert np.array_equal(sums, polar_transform(bits))


def bitwise_sc(leaf, bits, known, decide):
    """SC one bit at a time, the reference for sc_pass: P(bit_j = 1 | bits
    before j) from the known-path driver along the bits so far, the same
    f/g arithmetic (so ties stay exact), decided by ``decide`` on (trials,
    1) slices.  Fills ``bits`` in place; returns the probabilities."""
    seen = []
    for j in np.flatnonzero(~known):
        p = known_path_conditionals(leaf.T, known_path_tree(polar_transform(bits).T)).T[:, j : j + 1]
        seen.append(p)
        bits[:, j : j + 1] = decide(p)
    return seen


def random_sc_case(seed, n, trials, sharpness):
    """Leaves pushed towards 0 or 1 by ``sharpness``, a random known mask
    and random known bits."""
    rng = np.random.default_rng(seed)
    q = rng.uniform(0.0, 0.5, (trials, n)) ** sharpness
    leaf = np.where(rng.random((trials, n)) < 0.5, q, 1.0 - q)
    known = rng.random(n) < rng.uniform(0.0, 1.0)
    bits = np.where(known, rng.integers(0, 2, (trials, n)), 0).astype(np.uint8)
    return leaf, known, bits


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 4, 8]))
def test_sc_pass_matches_enumeration_with_known_bits(seed, n):
    # a sampling rule: each call draws its node's leaves, so later calls see
    # prefixes that the draws chose
    rng = np.random.default_rng(seed)
    trials = 3
    leaf = rng.uniform(0.02, 0.98, (trials, n))
    known = rng.random(n) < 0.5
    bits = np.where(known, rng.integers(0, 2, (trials, n)), 0).astype(np.uint8)
    given, calls = bits.copy(), []
    sums = sc_pass(leaf, bits, known, lambda p: calls.append(p.copy()) or rng.random(p.shape) < p)
    assert_rule_saw_each_node(leaf, bits, known, calls)
    assert_known_bits_kept(given, bits, known, sums)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 8]))
def test_rate1_node_leaves_follow_the_product_law(seed, n):
    # given the bits before it, a node's leaves are independent: their
    # joint law is the product of the marginals the rule sees, so drawing
    # each leaf alone draws the node's bits from their SC law
    leaf, known, bits = random_sc_case(seed, n, 1, 1.0)
    nodes, calls = rate1_nodes(known, 0, n), []
    sc_pass(leaf, bits, known, lambda p: calls.append(p[0].copy()) or _hard(p))
    for (lo, hi), p in zip(nodes, calls, strict=True):
        product = np.ones(())
        for p_t in p:
            product = np.multiply.outer(product, [1.0 - p_t, p_t])
        assert node_leaf_law(leaf[0], bits[0, :lo], hi) == pytest.approx(product, abs=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_contradiction_rule():
    # both leaves are surely 1, so bit 1 (their XOR) is surely 0; a path that
    # sets it to 1 leaves no mass for either value of bit 2
    probs = true_path_conditionals(np.ones((1, 2)), np.array([[1, 0]], dtype=np.uint8))
    assert probs[0, 1] == 0.5
    decided = []
    sums = sc_pass(np.ones((1, 2)), np.array([[1, 0]], dtype=np.uint8), np.array([True, False]),
                   lambda p: decided.append(p) or p > 0.5)
    assert decided[0].shape == (1, 1) and decided[0][0, 0] == 0.5
    assert np.array_equal(sums, [[1, 0]])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 8, 16, 32, 64]), st.sampled_from([1.0, 3.0, 8.0]))
def test_hard_node_rule_matches_bitwise_sc_away_from_ties(seed, n, sharpness):
    leaf, known, bits = random_sc_case(seed, n, 2, sharpness)
    bitwise = bits.copy()
    seen = bitwise_sc(leaf, bitwise, known, _hard)
    assume(all(np.abs(p - 0.5).min() >= 1e-9 for p in seen))
    given = bits.copy()
    sums = sc_pass(leaf, bits, known, _hard)
    assert_known_bits_kept(given, bits, known, sums)
    assert bits.tobytes() == bitwise.tobytes()
    assert sums.tobytes() == polar_transform(bitwise).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 8]))
def test_node_rule_sees_each_rate1_node_once_with_its_probabilities(seed, n):
    # the hard rule on sharp leaves: a shortcut that never fired would call
    # the rule once per unknown bit instead of once per node
    leaf, known, bits = random_sc_case(seed, n, 1, 1.0)
    given, calls = bits.copy(), []
    sums = sc_pass(leaf, bits, known, lambda p: calls.append(p.copy()) or _hard(p))
    assert_rule_saw_each_node(leaf, bits, known, calls)
    assert_known_bits_kept(given, bits, known, sums)


def test_node_rule_tie_decides_zero():
    # a leaf at exactly 1/2 decides 0; the other leaf decides by its own
    # probability, so the sums are (0, 1) and the bits T(0, 1) = (1, 1)
    bits = np.zeros((1, 2), dtype=np.uint8)
    sums = sc_pass(np.array([[0.5, 0.9]]), bits, np.zeros(2, dtype=bool), _hard)
    assert np.array_equal(sums, [[0, 1]])
    assert np.array_equal(bits, [[1, 1]])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_node_rule_after_a_contradiction():
    # leaves 0 and 2 are surely 1, so partial sum 0 of the first half is
    # surely 0; the known bits set it to 1, so g = 1/2 on the first leaf of
    # the rate-1 node [2, 4), which decides 0 there
    leaf = np.array([[1.0, 0.3, 1.0, 0.9]])
    bits = np.array([[0, 1, 0, 0]], dtype=np.uint8)  # partial sums (1, 1)
    known = np.array([True, True, False, False])
    seen = []
    sums = sc_pass(leaf, bits, known, lambda p: seen.append(p.copy()) or _hard(p))
    assert len(seen) == 1 and seen[0][0, 0] == 0.5 and seen[0][0, 1] > 0.5
    assert np.array_equal(sums, [[1, 0, 0, 1]])
    assert np.array_equal(bits, [[0, 1, 1, 1]])
    # bit by bit, f is 1/2 on bit 2, a tie that decides 0: the other
    # maximum-likelihood path
    bitwise = np.array([[0, 1, 0, 0]], dtype=np.uint8)
    assert bitwise_sc(leaf, bitwise, known, _hard)[0][0, 0] == 0.5
    assert np.array_equal(bitwise, [[0, 1, 0, 1]])


def test_sc_pass_leaves_no_reference_cycle():
    # everything a pass builds is freed when it returns, without waiting
    # for the cyclic collector
    leaf, known, bits = random_sc_case(0, 64, 2, 1.0)
    gc.collect()
    gc.disable()
    try:
        sc_pass(leaf, bits, known, _hard)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("n", [1, 2, 1024])
def test_sc_pass_all_known_mask_calls_no_rule(n):
    bits = np.random.default_rng(n).integers(0, 2, (3, n), dtype=np.uint8)
    given, calls = bits.copy(), []
    sums = sc_pass(np.full((3, n), 0.3), bits, np.ones(n, dtype=bool), lambda p: calls.append(p) or _hard(p))
    assert calls == []
    assert np.array_equal(bits, given)
    assert np.array_equal(sums, polar_transform(given))


@pytest.mark.parametrize("n", [1, 2, 1024])
def test_sc_pass_none_known_mask_is_one_call_on_the_clipped_leaves(n):
    leaf = np.random.default_rng(n).choice([0.0, 0.3, 1.0], (3, n))
    bits, calls = np.zeros((3, n), dtype=np.uint8), []
    sums = sc_pass(leaf, bits, np.zeros(n, dtype=bool), lambda p: calls.append(p.copy()) or _hard(p))
    assert len(calls) == 1
    assert np.array_equal(calls[0], np.clip(leaf, 1e-20, 1.0 - 1e-20))
    assert np.array_equal(sums, leaf > 0.5)
    assert np.array_equal(bits, polar_transform(leaf > 0.5))


def codec_masks():
    """The four known masks the codec builds from the benchmark's committed
    index sets: encoder s and z, decoder s and z."""
    sets = load_index_cache(Path(__file__).resolve().parents[1] / "perfbench" / "data" / "chained_n1024.idx")
    return {
        "encoder-s": _known(sets.n, sets.a1, sets.a2),
        "encoder-z": _known(sets.n, sets.b1),
        "decoder-s": _known(sets.n, sets.a1, sets.a3),
        "decoder-z": _known(sets.n, sets.b1, sets.b3),
    }


@pytest.mark.parametrize("mask", ["encoder-s", "encoder-z", "decoder-s", "decoder-z"])
def test_sc_pass_on_the_codec_masks(mask):
    known = codec_masks()[mask]
    n = known.size
    leaf, _, _ = random_sc_case(n, n, 2, 3.0)
    bits = np.where(known, np.random.default_rng(1).integers(0, 2, (2, n)), 0).astype(np.uint8)
    given, calls = bits.copy(), []
    sums = sc_pass(leaf, bits, known, lambda p: calls.append(p.shape) or _hard(p))
    assert calls == [(2, hi - lo) for lo, hi in rate1_nodes(known, 0, n)]
    assert_known_bits_kept(given, bits, known, sums)


@pytest.mark.parametrize("bit_rows, mask_size", [(1, 6), (1, 10), (3, 8)],
                         ids=["short-mask", "long-mask", "more-bit-rows"])
def test_sc_pass_rejects_shape_mismatch(bit_rows, mask_size):
    message = f"shape mismatch: leaves (1, 8), bits ({bit_rows}, 8), known ({mask_size},)"
    with pytest.raises(ValueError, match=re.escape(message)):
        sc_pass(np.full((1, 8), 0.3), np.zeros((bit_rows, 8), dtype=np.uint8), np.zeros(mask_size, dtype=bool), _hard)


def g_select(a, b, not_a, not_b, x_a, out=None, tmp=None):
    """The g update in its select form, P(first leaf = x_a ^ 1) taken by
    np.where: the reference for the select-free kernel.  It returns a fresh
    array and leaves the kernel's buffers ``out`` and ``tmp`` alone."""
    a_match = np.where(x_a, not_a, a)
    num = a_match * b
    den = (1.0 - a_match) * not_b
    den += num
    zero = den == 0.0
    num[zero] = 0.5
    den[zero] = 1.0
    return np.maximum(num / den, 1e-20)


# probabilities as the drivers clip them: [1e-20, 1], with the ends and 1/2
clipped_p = st.one_of(st.sampled_from([1e-20, 0.5, 1.0]), st.floats(1e-20, 1.0))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(clipped_p, clipped_p, st.booleans()), min_size=1, max_size=16),
       st.sampled_from([bool, np.uint8]))
def test_g_matches_select_form_bit_for_bit(cells, x_dtype):
    a, b, x_a = (np.array(col) for col in zip(*cells))
    x_a = x_a.astype(x_dtype)
    got = polar._g(a, b, 1.0 - a, 1.0 - b, x_a)
    assert got.tobytes() == g_select(a, b, 1.0 - a, 1.0 - b, x_a).tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x_dtype", [bool, np.uint8])
def test_g_contradiction_cell(x_dtype):
    one = np.ones(3)
    x_a = np.array([1, 1, 0], dtype=x_dtype)
    assert np.array_equal(polar._g(one, one, 0.0 * one, 0.0 * one, x_a), [0.5, 0.5, 1.0])


@pytest.mark.parametrize("n", [2, 8, 64])
def test_known_path_conditionals_match_select_form(monkeypatch, n):
    rng = np.random.default_rng(n)
    leaf = rng.choice([0.0, 1e-20, 0.5, 1.0, 0.3, 0.9], (n, CHUNK_ROWS))
    leaf[:, ::2] = rng.random((n, CHUNK_ROWS // 2))
    tree = known_path_tree(rng.integers(0, 2, (n, CHUNK_ROWS), dtype=np.uint8))
    got = known_path_conditionals(leaf, tree)
    monkeypatch.setattr(polar, "_g", g_select)
    assert got.tobytes() == known_path_conditionals(leaf, tree).tobytes()


def recursive_conditionals(leaf, bits):
    """P(bit_j = 1 | bits before j, evidence) for (rows, n) leaves by the
    textbook SC recursion on each sub-block, with the kernel's f and g: the
    layout-free reference for the known-path kernel."""
    n = leaf.shape[1]
    if n == 1:
        return np.maximum(leaf, 1e-20)
    a, b = leaf[:, : n // 2], leaf[:, n // 2 :]
    x_a = polar_transform(bits[:, : n // 2])
    first = recursive_conditionals(polar._f(a, b, 1.0 - a, 1.0 - b), bits[:, : n // 2])
    second = recursive_conditionals(polar._g(a, b, 1.0 - a, 1.0 - b, x_a), bits[:, n // 2 :])
    return np.concatenate((first, second), axis=1)


@pytest.mark.parametrize("n", [2**m for m in range(11)])
def test_kernel_on_the_codeword_tree_matches_bitwise_sc(n):
    # the (n, rows) kernel on the tree of the codeword T(bits) gives, bit
    # for bit, the transposed conditionals that bitwise SC sees when it
    # replays the same bits one at a time, and those of the recursion
    rng = np.random.default_rng(n)
    rows = 3
    leaf = rng.choice([0.0, 1e-20, 0.5, 1.0, 0.3, 0.9], (rows, n))
    leaf[::2] = rng.random((2, n))
    bits = rng.integers(0, 2, (rows, n), dtype=np.uint8)
    got = known_path_conditionals(leaf.T, known_path_tree(polar_transform(bits).T))
    assert got.shape == (n, rows) and got.flags.c_contiguous
    columns = iter(bits.T)
    replayed = np.zeros_like(bits)
    seen = bitwise_sc(leaf, replayed, np.zeros(n, dtype=bool), lambda p: next(columns)[:, None])
    assert np.array_equal(replayed, bits)
    assert got.tobytes() == np.concatenate(seen, axis=1).T.tobytes()
    assert got.tobytes() == np.ascontiguousarray(recursive_conditionals(np.clip(leaf, 1e-20, 1.0), bits).T).tobytes()


def test_known_path_tree_is_contiguous_bool_from_any_codeword_layout():
    # a column-major codeword (the transpose of sampled rows) still gives a
    # C-contiguous bool tree
    x = np.random.default_rng(7).integers(0, 2, (CHUNK_ROWS, 64), dtype=np.uint8)
    tree = known_path_tree(x.T)
    assert all(x_a.dtype == bool and x_a.flags.c_contiguous for x_a in tree)
    assert [x_a.tobytes() for x_a in tree] == [x_a.tobytes() for x_a in known_path_tree(np.ascontiguousarray(x.T))]


def test_known_path_conditionals_rejects_a_mismatched_tree():
    rng = np.random.default_rng(5)
    one_row = known_path_tree(polar_transform(rng.integers(0, 2, (1, 8), dtype=np.uint8)).T)
    with pytest.raises(ValueError, match=re.escape("(4, 1, 1)") + ".*" + re.escape("(8, 3)")):
        known_path_conditionals(np.full((8, 3), 0.3), one_row)  # would broadcast one row's bits
    longer = known_path_tree(polar_transform(rng.integers(0, 2, (3, 16), dtype=np.uint8)).T)
    with pytest.raises(ValueError, match=re.escape("(8, 1, 3)") + ".*" + re.escape("(8, 3)")):
        known_path_conditionals(np.full((8, 3), 0.3), longer)


def test_workspace_reuse_matches_fresh_calls():
    # one workspace through a full chunk, a partial one and a full one: each
    # result equals a call with a fresh workspace on the same leaves and tree
    rng = np.random.default_rng(6)
    n = 64
    workspace = KnownPathWorkspace(CHUNK_ROWS, n)
    for rows in (CHUNK_ROWS, 5, CHUNK_ROWS):
        leaf = rng.random((n, rows))
        tree = known_path_tree(polar_transform(rng.integers(0, 2, (rows, n), dtype=np.uint8)).T)
        got = known_path_conditionals(leaf, tree, workspace)
        assert got.tobytes() == known_path_conditionals(leaf, tree).tobytes()
    with pytest.raises(ValueError, match="workspace"):
        known_path_conditionals(rng.random((n, CHUNK_ROWS + 1)),
                                known_path_tree(polar_transform(np.zeros((CHUNK_ROWS + 1, n), np.uint8)).T),
                                workspace)

    # the batched driver reuses one workspace across chunks; no chunk's
    # result is overwritten by the next
    rows = 2 * CHUNK_ROWS + 5
    leaf = rng.random((rows, n))
    bits = rng.integers(0, 2, (rows, n), dtype=np.uint8)
    chunks = [known_path_conditionals(leaf[lo : lo + CHUNK_ROWS].T,
                                      known_path_tree(polar_transform(bits[lo : lo + CHUNK_ROWS]).T)).T
              for lo in range(0, rows, CHUNK_ROWS)]
    assert true_path_conditionals(leaf, bits).tobytes() == np.concatenate(chunks).tobytes()


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
    assert prefix_conditional(model.posterior("W", ("X",))[x], []) == pytest.approx(0.5, abs=1e-12)
    assert prefix_conditional(model.posterior("W", ("X", "U"))[x, [1, 0]], [1]) == pytest.approx(0.5, abs=1e-12)


def test_sc_probability_w_deterministic_copy():
    copy = np.zeros((2, 2, 2))
    copy[0, :, 0] = 1.0
    copy[1, :, 1] = 1.0  # W = X
    base = bsc_model()
    model = SourceModel(base.u_prior, base.x_prior, base.channel,
                        ConditionalPMF((X, U), (W,), copy), base.v_rule)
    x = [0, 1, 1, 0]
    z_true = polar_transform(np.array(x, dtype=np.uint8))
    leaf = model.posterior("W", ("X", "U"))[x, [0, 0, 0, 0]]
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
    leaf = model.posterior("W", ("X", "U"))[[1, 0], [0, 1]]
    for prefix in ([], [0], [1]):
        got = prefix_conditional(leaf, prefix)
        assert got == pytest.approx(enumerate_conditional(leaf, prefix, len(prefix) + 1), abs=1e-12)
