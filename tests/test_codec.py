import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

from coordsim import codec
from coordsim.binning import dsbs
from coordsim.bundled import binary_symmetric_channel, bsc_model, chained_model
from coordsim.codec import (
    CommonRandomness,
    _source_blocks,
    chi_square_conditional,
    decode,
    empirical_mutual_information,
    encode,
    one_time_pad,
    run_end_to_end,
    run_trials,
    transmit,
)
from coordsim.construction import (
    PolarIndexSets,
    PolarParams,
    SourceModel,
    build_index_sets,
    estimate_profile,
    load_index_cache,
    rate_report,
)
from coordsim.polar import polar_transform, sc_pass
from coordsim.probability import Alphabet, ConditionalPMF, JointPMF, iid_blocks, inverse_cdf

U, X, Y, V, W = (Alphabet(n, 2) for n in "UXYVW")


def synthetic_sets(n=8):
    """A hand-made partition exercising every fill path (a3, b3 nonempty)."""
    arr = lambda *v: np.array(v, dtype=np.int64)
    return PolarIndexSets(
        n=n, delta_n=0.1,
        a1=arr(0), a2=arr(1, 2, 3), a3=arr(4), a4=arr(5, 6, 7),
        b1=arr(0, 1), b2=arr(), b3=arr(2), b4=arr(3, 4, 5, 6, 7),
        bp1=arr(0), ap3=arr(1), bp3=arr(2), ap2=arr(3),
    )


def constructed_sets(model, n=64, mc=3000, seed=0):
    params = PolarParams(n=n, beta=0.25, mc_samples=mc)
    prof = estimate_profile(model, params, np.random.default_rng(seed))
    return build_index_sets(prof, params)


# -- one-time pad -----------------------------------------------------------------


def test_pad_xor_example():
    assert np.array_equal(one_time_pad([1, 0, 1, 0], [0, 1, 1, 0]), [1, 1, 0, 0])


def test_pad_involution():
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, 32, dtype=np.uint8)
    key = rng.integers(0, 2, 32, dtype=np.uint8)
    assert np.array_equal(one_time_pad(one_time_pad(bits, key), key), bits)


def test_pad_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        one_time_pad([1, 0], [1])


def test_pad_output_uniform_and_independent_of_message():
    rng = np.random.default_rng(1)
    trials = 50_000
    messages = (rng.random((trials, 4)) < 0.8).astype(np.uint8)  # skewed plaintext
    keys = rng.integers(0, 2, (trials, 4), dtype=np.uint8)
    out = messages ^ keys
    codes_m = messages @ (1 << np.arange(4))
    codes_o = out @ (1 << np.arange(4))
    counts = np.bincount(codes_o, minlength=16)
    stat = ((counts - trials / 16) ** 2 / (trials / 16)).sum()
    assert stat < chi2.ppf(0.99, 15)
    assert empirical_mutual_information(codes_m, codes_o, 16, 16) <= 0.01


# -- transmit ---------------------------------------------------------------------


def test_transmit_identity():
    rng = np.random.default_rng(2)
    x = rng.integers(0, 2, 100, dtype=np.uint8)
    y = transmit(x, binary_symmetric_channel(0.0), rng)
    assert np.array_equal(y, x)


def test_transmit_bsc_flip_fraction():
    rng = np.random.default_rng(3)
    x = rng.integers(0, 2, 100_000, dtype=np.uint8)
    y = transmit(x, binary_symmetric_channel(0.1), rng)
    flips = float((x != y).mean())
    assert abs(flips - 0.1) < 0.01  # ~ 10 sigma


def test_transmit_blocks_at_once_equals_block_by_block():
    # a (k, n) array takes the uniforms k one-row calls take, row by row,
    # and leaves the generator where one rng.random((k, n)) call leaves it
    channel = binary_symmetric_channel(0.3)
    x = np.random.default_rng(5).integers(0, 2, (4, 33), dtype=np.uint8)
    at_once, row_by_row, reference = (np.random.default_rng(6) for _ in range(3))
    y = transmit(x, channel, at_once)
    assert y.shape == x.shape
    assert np.array_equal(y, np.stack([transmit(row, channel, row_by_row) for row in x]))
    reference.random((4, 33))
    assert at_once.bit_generator.state == row_by_row.bit_generator.state == reference.bit_generator.state


def test_transmit_constant_output_channel():
    rng = np.random.default_rng(4)
    const = ConditionalPMF((X,), (Y,), np.array([[1.0, 0.0], [1.0, 0.0]]))
    x = rng.integers(0, 2, 1000, dtype=np.uint8)
    assert not transmit(x, const, rng).any()


# -- sampling sites ------------------------------------------------------------------


class ZeroUniforms:
    """A generator stand-in whose uniforms are all exactly 0.0."""

    def random(self, size=None):
        return 0.0 if size is None else np.zeros(size)

    def integers(self, low, high=None, size=None, dtype=np.int64):
        return np.full(size, low, dtype=dtype)


def zero_payload(sets):
    """An all-zero side-channel payload for one trial."""
    return np.zeros((1, len(sets.a3)), np.uint8), np.zeros((1, len(sets.b3)), np.uint8)


# a uniform of exactly 0.0 used to pick the first cell of each of these
# draws whether or not it had mass


def test_transmit_zero_uniform_skips_zero_mass_output():
    assert transmit([1, 1], binary_symmetric_channel(0.0), ZeroUniforms()).tolist() == [1, 1]


def test_source_blocks_zero_uniform_skips_zero_mass_symbol():
    base = bsc_model()
    sure_u = SourceModel(JointPMF((U,), np.array([0.0, 1.0])), base.x_prior, base.channel,
                         base.w_rule, base.v_rule)
    assert np.all(_source_blocks(sure_u, 8, 3, ZeroUniforms())[1:] == 1)


def test_action_draw_zero_uniform_skips_zero_mass_action():
    base = bsc_model()
    always_one = ConditionalPMF((W, Y), (V,), np.tile([0.0, 1.0], (2, 2, 1)))
    model = SourceModel(base.u_prior, base.x_prior, base.channel, base.w_rule, always_one)
    sets = synthetic_sets()
    cr = CommonRandomness.draw(sets, 2, np.random.default_rng(0))
    *_, v = decode(np.zeros((1, 2, 8), np.uint8), *zero_payload(sets), sets, [cr], model, [ZeroUniforms()])
    assert np.all(v == 1)


def test_sampling_sites_take_one_random_call_each():
    # each site draws the uniforms of one rng.random call of the draw shape
    # (sample_blocks in row chunks of that stream), so the generator ends
    # where that call alone leaves it
    def state_after(draw):
        rng = np.random.default_rng(21)
        draw(rng)
        return rng.bit_generator.state

    model = chained_model()
    sets = synthetic_sets()
    cr = CommonRandomness.draw(sets, 3, np.random.default_rng(0))
    y = np.random.default_rng(1).integers(0, 2, (3, 8), dtype=np.uint8)
    u = np.random.default_rng(2).integers(0, 2, (4, 8), dtype=np.uint8)
    sites = [
        (lambda r: transmit(np.ones(33, np.uint8), model.channel, r), lambda r: r.random(33)),
        (lambda r: transmit(np.ones((3, 33), np.uint8), model.channel, r), lambda r: r.random((3, 33))),
        (lambda r: _source_blocks(model, 16, 3, r), lambda r: (r.integers(0, 2, 16), r.random((3, 16)))),
        (lambda r: model.sample_blocks(r, 5, 16), lambda r: r.random((5, 16))),
        (lambda r: iid_blocks(dsbs(0.1), r, 7, 4), lambda r: r.random((7, 4))),
        # per block: the local bits, then one uniform per unknown bit of
        # each pass (4 of s, 6 of z), however sc_pass groups its decisions
        (lambda r: encode(u, sets, cr, model, r),
         lambda r: [(r.integers(0, 2, size, dtype=np.uint8), r.random(4), r.random(6)) for size in (3, 1, 1)]),
        # hard SC decisions draw nothing; the action takes one rng.random(n) per block
        (lambda r: decode(y[None], *zero_payload(sets), sets, [cr], model, [r]),
         lambda r: [r.random(8) for _ in range(3)]),
    ]
    for i, (site, reference) in enumerate(sites):
        assert state_after(site) == state_after(reference), i


def test_sampling_streams_pinned():
    # digest of every sampling site's output at fixed seeds: a moved stream
    # changes it
    digest = hashlib.sha256()
    model = chained_model()
    sets = synthetic_sets()
    for seed in range(5):
        rng = np.random.default_rng(seed)
        blocks = model.sample_blocks(rng, 7, 16)
        digest.update(b"".join(blocks[k].tobytes() for k in "uxwyv"))
        a, b = iid_blocks(dsbs(0.2), rng, 9, 5)
        digest.update(a.astype(np.int64).tobytes() + b.astype(np.int64).tobytes())
        digest.update(transmit(rng.integers(0, 2, 33), binary_symmetric_channel(0.3), rng).tobytes())
        digest.update(_source_blocks(model, 16, 3, rng).tobytes())
        cr = CommonRandomness.draw(sets, 3, rng)
        y = rng.integers(0, 2, (3, 8), dtype=np.uint8)
        *_, v = decode(y[None], *zero_payload(sets), sets, [cr], model, [rng])
        digest.update(v[0].tobytes())
    assert digest.hexdigest() == "98b1d3fe4bd5fc09a482285db43d5a7de2a24e728d2c6394c5f7ac97018866ae"


def test_decoder_pinned_at_n1024():
    # the decoder alone on fixed channel outputs and the benchmark's n=1024
    # sets: the digest pins every hard decision of both chains and the
    # action draws, whatever the encoder's stream
    data = Path(__file__).resolve().parent.parent / "perfbench" / "data"
    sets = load_index_cache(data / "chained_n1024.idx")
    model = chained_model()
    trials, k, n = 4, 3, sets.n
    rng = np.random.default_rng(1024)
    y = model.sample_blocks(rng, trials * k, n)["y"].reshape(trials, k, n)
    s_last_a3 = rng.integers(0, 2, (trials, len(sets.a3)), dtype=np.uint8)
    z_last_b3 = rng.integers(0, 2, (trials, len(sets.b3)), dtype=np.uint8)
    crs = [CommonRandomness.draw(sets, k, rng) for _ in range(trials)]
    rngs = [np.random.default_rng(seed) for seed in range(trials)]
    decoded = decode(y, s_last_a3, z_last_b3, sets, crs, model, rngs)
    digest = hashlib.sha256(b"".join(a.tobytes() for a in decoded)).hexdigest()
    assert digest == "738280383061cf937a23b2c3e58807f48bbe5112aff1065c768e38cea5d68832"


# -- the wave decoder -----------------------------------------------------------------


def reference_decode(y_blocks, s_last_a3, z_last_b3, sets, crs, model, rngs):
    """The decoder block by block, in reverse order: one s pass, one z pass
    and one action draw per block, the s pass after the block above."""
    trials, k, n = y_blocks.shape
    s_known, z_known = codec._known(n, sets.a1, sets.a3), codec._known(n, sets.b1, sets.b3)
    xpost, wx = model.posterior("X", ("Y",)), model.posterior("W", ("X",))
    v_rule = model.v_rule.aligned_table(("W", "Y"))
    s_hat, z_hat, keys_s, keys_z = codec._frozen_frame(sets, crs)
    x_hat, w_hat, v = (np.zeros_like(s_hat) for _ in range(3))
    s_hat[:, -1, sets.a3] = s_last_a3
    z_hat[:, -1, sets.b3] = z_last_b3
    for i in range(k - 1, -1, -1):
        s_i, z_i = s_hat[:, i], z_hat[:, i]
        if i < k - 1:
            s_i[:, sets.a3] = one_time_pad(s_hat[:, i + 1][:, sets.ap3], keys_s[:, i])
            z_i[:, sets.b3] = one_time_pad(s_hat[:, i + 1][:, sets.bp3], keys_z[:, i])
        x_hat[:, i] = sc_pass(xpost[y_blocks[:, i]], s_i, s_known, codec._hard)
        w_hat[:, i] = sc_pass(wx[x_hat[:, i]], z_i, z_known, codec._hard)
        uniforms = np.stack([rng.random(n) for rng in rngs])
        v[:, i] = inverse_cdf(v_rule[w_hat[:, i], y_blocks[:, i]], uniforms)
    return s_hat, z_hat, x_hat, w_hat, v


def chained_n1024_sets():
    return load_index_cache(Path(__file__).resolve().parent.parent / "perfbench" / "data" / "chained_n1024.idx")


def decoder_case(sets, trials, k, seed=0):
    """Channel outputs of the chained model, payloads and common randomness
    for a decode, and a maker of the trials' fresh generators."""
    model = chained_model()
    rng = np.random.default_rng(seed)
    y = model.sample_blocks(rng, trials * k, sets.n)["y"].reshape(trials, k, sets.n)
    s_last_a3 = rng.integers(0, 2, (trials, len(sets.a3)), dtype=np.uint8)
    z_last_b3 = rng.integers(0, 2, (trials, len(sets.b3)), dtype=np.uint8)
    crs = [CommonRandomness.draw(sets, k, rng) for _ in range(trials)]
    args = (y, s_last_a3, z_last_b3, sets, crs, model)
    return args, lambda: [np.random.default_rng(seed + 100 + t) for t in range(trials)]


def assert_same_arrays(got, want):
    for a, b in zip(got, want, strict=True):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


WAVE_CASES = [("chained_n1024", 4, 3), ("chained_n1024", 3, 2), ("synthetic", 5, 4), ("synthetic", 5, 2)]


@pytest.mark.parametrize("name,trials,k", WAVE_CASES)
def test_wave_decode_equals_block_by_block(name, trials, k):
    # the committed n=1024 sets have a3 empty, so their s chain is one wave;
    # the synthetic sets chain s through a3, one block per wave
    sets = chained_n1024_sets() if name == "chained_n1024" else synthetic_sets()
    assert (len(sets.a3) == 0) == (name == "chained_n1024")
    args, rngs = decoder_case(sets, trials, k)
    assert_same_arrays(decode(*args, rngs()), reference_decode(*args, rngs()))


@pytest.mark.parametrize("cap", [1, 4, 6, 9])
def test_wave_decode_bytes_do_not_depend_on_the_row_cap(cap, monkeypatch):
    # 2 trials of 7 blocks: waves of 1, 2, 3 and 4 blocks, the last one short
    args, rngs = decoder_case(chained_n1024_sets(), 2, 7, seed=1)
    want = reference_decode(*args, rngs())
    monkeypatch.setattr(codec, "WAVE_ROWS", cap)
    assert_same_arrays(decode(*args, rngs()), want)


@pytest.mark.parametrize("name,cap,rows", [
    ("chained_n1024", codec.WAVE_ROWS, [12] + [4] * 3),  # 1 + k passes
    ("chained_n1024", 4, [4] * 6),  # 2k passes
    ("synthetic", codec.WAVE_ROWS, [4] * 6),
])
def test_wave_decode_sc_pass_count(name, cap, rows, monkeypatch):
    # 4 trials of 3 blocks: one s pass of 12 rows when a3 is empty and the
    # wave fits the cap, else one s pass per block; then one z pass per block
    sets = chained_n1024_sets() if name == "chained_n1024" else synthetic_sets()
    seen = []
    real_pass = codec.sc_pass
    monkeypatch.setattr(codec, "sc_pass", lambda p, *rest: seen.append(len(p)) or real_pass(p, *rest))
    monkeypatch.setattr(codec, "WAVE_ROWS", cap)
    args, rngs = decoder_case(sets, 4, 3)
    decode(*args, rngs())
    assert seen == rows


# -- mechanics on synthetic sets ------------------------------------------------------


def encode_with_seed(model, sets, u_blocks, seed):
    k = u_blocks.shape[0] - 1
    cr = CommonRandomness.draw(sets, k, np.random.default_rng(99))
    return encode(u_blocks, sets, cr, model, np.random.default_rng(seed)), cr


def test_encode_deterministic_given_seed():
    model = chained_model()
    sets = synthetic_sets()
    rng = np.random.default_rng(5)
    u_blocks = rng.integers(0, 2, (5, 8), dtype=np.uint8)
    (blocks_a, pay_a), _ = encode_with_seed(model, sets, u_blocks, 7)
    (blocks_b, pay_b), _ = encode_with_seed(model, sets, u_blocks, 7)
    for a, b in zip(blocks_a, blocks_b):
        assert np.array_equal(a.s, b.s) and np.array_equal(a.z, b.z)
    assert np.array_equal(pay_a[0], pay_b[0])


def test_strict_causality_differential():
    # flipping source block i never changes the signal of blocks <= i
    model = chained_model()
    sets = synthetic_sets()
    rng = np.random.default_rng(6)
    k = 4
    for trial in range(20):
        u_blocks = rng.integers(0, 2, (k + 1, 8), dtype=np.uint8)
        i = int(rng.integers(1, k + 1))
        flipped = u_blocks.copy()
        flipped[i] ^= 1
        (base, _), _ = encode_with_seed(model, sets, u_blocks, 1000 + trial)
        (diff, _), _ = encode_with_seed(model, sets, flipped, 1000 + trial)
        for j in range(1, i + 1):
            assert np.array_equal(base[j - 1].x, diff[j - 1].x), (trial, i, j)


def test_point_mass_signal_blocks_are_transforms_of_s_and_z():
    w_rule = np.zeros((2, 2, 2))
    w_rule[..., 0] = 1.0
    model = SourceModel(
        u_prior=JointPMF.uniform((U,)),
        x_prior=JointPMF((X,), np.array([1.0, 0.0])),
        channel=binary_symmetric_channel(0.0),
        w_rule=ConditionalPMF((X, U), (W,), w_rule),
        v_rule=bsc_model().v_rule,
    )
    sets = synthetic_sets()
    rng = np.random.default_rng(7)
    u_blocks = rng.integers(0, 2, (4, 8), dtype=np.uint8)
    cr = CommonRandomness.draw(sets, 3, np.random.default_rng(8))
    # the signal prior is a point mass at 0 and the a1 fills and s pad keys
    # are zero, but the local bits on a2 are random, so the blocks need not
    # be zero; x and w are still the transforms of s and z, as the
    # transcripts, which store s and z only, assume
    zero_cr = CommonRandomness(
        c=np.zeros_like(cr.c), c_prime=cr.c_prime, c_bar=cr.c_bar,
        keys_s=np.zeros_like(cr.keys_s), keys_z=cr.keys_z,
    )
    blocks, _ = encode(u_blocks, sets, zero_cr, model, rng)
    for blk in blocks:
        assert np.array_equal(blk.x, polar_transform(blk.s))
        assert np.array_equal(blk.w, polar_transform(blk.z))


def test_payload_corruption_propagates_to_final_block():
    model = chained_model()
    sets = synthetic_sets()
    rng = np.random.default_rng(9)
    k = 4
    u_blocks = rng.integers(0, 2, (k + 1, 8), dtype=np.uint8)
    cr = CommonRandomness.draw(sets, k, np.random.default_rng(10))
    blocks, payload = encode(u_blocks, sets, cr, model, np.random.default_rng(11))
    y = np.stack([transmit(b.x, model.channel, np.random.default_rng(12 + i)) for i, b in enumerate(blocks)])

    def encoder_output():  # deep copies of every array
        return [dataclasses.astuple(block) for block in blocks] + [tuple(a.copy() for a in payload)]

    encoded = encoder_output()
    s_last_a3, z_last_b3 = (a[None] for a in payload)
    clean, *_ = decode(y[None], s_last_a3, z_last_b3, sets, [cr], model, [np.random.default_rng(13)])
    dirty, *_ = decode(y[None], s_last_a3 ^ 1, z_last_b3, sets, [cr], model, [np.random.default_rng(13)])
    # the corrupted chain bit lands verbatim in the final block's a3 position
    assert dirty[0, -1, sets.a3[0]] == clean[0, -1, sets.a3[0]] ^ 1
    # the encoder's blocks and payload are untouched by both decodes
    for got, want in zip(encoder_output(), encoded, strict=True):
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


def test_pad_uniformization_across_chain():
    # the chained carrier bits of block i+1 are uniform and independent of
    # the plaintext bits of block i
    model = chained_model()
    sets = synthetic_sets()
    plain, carrier = [], []
    for trial in range(4000):
        rng = np.random.default_rng(20_000 + trial)
        u_blocks = rng.integers(0, 2, (3, 8), dtype=np.uint8)
        cr = CommonRandomness.draw(sets, 2, np.random.default_rng(50_000 + trial))
        blocks, _ = encode(u_blocks, sets, cr, model, rng)
        plain.append(int(blocks[0].s[sets.a3[0]]))
        carrier.append(int(blocks[1].s[sets.ap3[0]]))
    mi = empirical_mutual_information(np.array(plain), np.array(carrier), 2, 2)
    assert mi <= 0.01
    freq = np.mean(carrier)
    assert abs(freq - 0.5) < 0.03


# -- transcript invariants --------------------------------------------------------------


def test_transcripts_derive_the_encoded_x_and_w(monkeypatch):
    # transcripts store s and z; the x and w they derive are the encoder's
    # own, block by block
    encoded = []
    encode_trials = codec._encode_trials
    monkeypatch.setattr(codec, "_encode_trials", lambda *args: encoded.append(encode_trials(*args)) or encoded[0])
    results = run_trials(chained_model(), synthetic_sets(), 4, [0, 1, 2])
    _, _, x, w = encoded[0]
    assert x.shape == w.shape == (3, 4, 8)
    for t, result in enumerate(results):
        assert len(result.transcripts) == 4
        for i, transcript in enumerate(result.transcripts):
            assert np.array_equal(transcript.x, x[t, i]), (t, i)
            assert np.array_equal(transcript.w, w[t, i]), (t, i)


# -- noiseless-channel correctness -------------------------------------------------------


def test_noiseless_exact_recovery_and_action_law():
    model = bsc_model(crossover=0.0, action_noise=0.1)
    sets = constructed_sets(model, n=64)
    w_codes, y_codes, v_codes = [], [], []
    for seed in range(20):
        res = run_end_to_end(model, sets, k=4, seed=seed)
        assert res.s_error_rate == 0.0
        assert res.w_error_rate == 0.0
        for t in res.transcripts:
            w_codes.append(t.w)  # equals decoded w by the assertions above
            y_codes.append(t.y)
            v_codes.append(t.v)
    w_codes = np.concatenate(w_codes)
    y_codes = np.concatenate(y_codes)
    v_codes = np.concatenate(v_codes)
    rule = model.v_rule.aligned_table(("W", "Y")).reshape(4, 2)
    stat, dof = chi_square_conditional(w_codes * 2 + y_codes, v_codes, rule)
    assert stat < chi2.ppf(0.99, dof)


def test_noiseless_chained_model_recovers_signal_exactly():
    model = chained_model(crossover=0.0)
    sets = constructed_sets(model, n=64, seed=1)
    for seed in range(5):
        res = run_end_to_end(model, sets, k=4, seed=seed)
        assert res.s_error_rate == 0.0


# -- end-to-end statistics ----------------------------------------------------------------


def test_end_to_end_ternary_side_alphabets():
    # only the signal and auxiliary are binary; U, Y, V can be larger
    rng = np.random.default_rng(50)
    U3, Y3, V3 = Alphabet("U", 3), Alphabet("Y", 3), Alphabet("V", 3)
    # informative channel and weak source-dependence keep the carriers small
    channel = ConditionalPMF((X,), (Y3,), np.array([[0.9, 0.05, 0.05], [0.05, 0.05, 0.9]]))
    w_p1 = 0.2 + 0.15 * np.arange(3) / 2.0  # P(W=1|x,u) in [0.2, 0.35]
    w_rows = np.stack([1.0 - np.tile(w_p1, (2, 1)), np.tile(w_p1, (2, 1))], axis=-1)
    w_rule = ConditionalPMF((X, U3), (W,), w_rows)
    v_rule = ConditionalPMF((W, Y3), (V3,), rng.dirichlet(np.ones(3), size=(2, 3)))
    model = SourceModel(
        u_prior=JointPMF((U3,), rng.dirichlet(np.ones(3))),
        x_prior=JointPMF((X,), np.array([0.6, 0.4])),
        channel=channel,
        w_rule=w_rule,
        v_rule=v_rule,
    )
    sets = constructed_sets(model, n=64, mc=2000, seed=51)
    res = run_end_to_end(model, sets, k=3, seed=52)
    assert 0.0 <= res.tv_estimate <= 2.0
    assert all(t.v.max() <= 2 and t.y.max() <= 2 for t in res.transcripts)


def test_end_to_end_deterministic():
    model = bsc_model()
    sets = constructed_sets(model, n=64, seed=2)
    a = run_end_to_end(model, sets, k=4, seed=11)
    b = run_end_to_end(model, sets, k=4, seed=11)
    assert a.csv_row() == b.csv_row()
    for ta, tb in zip(a.transcripts, b.transcripts):
        assert np.array_equal(ta.v, tb.v)


def test_end_to_end_degenerate_model_zero_tv():
    w_rule = np.zeros((2, 2, 2))
    w_rule[..., 0] = 1.0
    copy_y = np.zeros((2, 2, 2))
    copy_y[:, 0, 0] = 1.0
    copy_y[:, 1, 1] = 1.0
    model = SourceModel(
        u_prior=JointPMF((U,), np.array([1.0, 0.0])),
        x_prior=JointPMF((X,), np.array([1.0, 0.0])),
        channel=binary_symmetric_channel(0.0),
        w_rule=ConditionalPMF((X, U), (W,), w_rule),
        v_rule=ConditionalPMF((W, Y), (V,), copy_y),
    )
    sets = constructed_sets(model, n=32, seed=3)
    res = run_end_to_end(model, sets, k=4, seed=1)
    assert res.tv_estimate == pytest.approx(0.0, abs=1e-12)


def test_end_to_end_noisy_regression():
    # pilot-derived regression values for the bundled noisy model
    model = bsc_model(crossover=0.05)
    sets = constructed_sets(model, n=1024, mc=8000, seed=0)
    errs = [run_end_to_end(model, sets, k=4, seed=s).s_error_rate for s in range(10)]
    assert np.mean(errs) <= 0.35  # pilot mean 0.20 over 20 seeds


def test_end_to_end_bundled_tv_bound():
    # pilot-derived bound for the bundled noisy model: tv ~= 0.04 at n=1024
    model = bsc_model()
    sets = constructed_sets(model, n=1024, mc=6000, seed=7)
    for seed in range(3):
        res = run_end_to_end(model, sets, k=8, seed=seed)
        assert res.tv_estimate <= 0.1


def test_chained_model_coordination_converges():
    # the full chain (carriers, pads, side channel) in play: the
    # coordination gap shrinks as the block length grows
    model = chained_model()
    small = constructed_sets(model, n=128, mc=6000, seed=0)
    large = constructed_sets(model, n=512, mc=6000, seed=0)
    wins = 0
    tv_small, tv_large = [], []
    for seed in range(6):
        a = run_end_to_end(model, small, k=6, seed=seed)
        b = run_end_to_end(model, large, k=6, seed=seed)
        tv_small.append(a.tv_estimate)
        tv_large.append(b.tv_estimate)
        wins += int(b.tv_estimate <= a.tv_estimate)
    assert wins >= 5  # pilot: 6/6, means 0.101 -> 0.047
    assert np.mean(tv_large) < np.mean(tv_small)


def test_run_trials_equals_one_trial_runs():
    model = chained_model()
    sets = constructed_sets(model, n=64, seed=4)
    seeds = [7, 0, 3]
    batch = run_trials(model, sets, 4, seeds)
    for got, seed in zip(batch, seeds):
        want = run_end_to_end(model, sets, 4, seed)
        assert got.csv_row() == want.csv_row()
        for tg, tw in zip(got.transcripts, want.transcripts, strict=True):
            assert tg.flags == tw.flags
            for name in ("u", "s", "z", "x", "w", "y", "v"):
                assert np.array_equal(getattr(tg, name), getattr(tw, name)), (seed, name)


def contradiction_model():
    """W = 0 when X = 0, else a BSC(0.3) copy of U: the auxiliary evidence
    is certain on every X = 0 symbol."""
    w_rule = np.zeros((2, 2, 2))  # [x, u, w]
    w_rule[0, :, 0] = 1.0
    w_rule[1, 0] = [0.7, 0.3]
    w_rule[1, 1] = [0.3, 0.7]
    return SourceModel(
        u_prior=JointPMF.uniform((U,)),
        x_prior=JointPMF((X,), np.array([0.6, 0.4])),
        channel=binary_symmetric_channel(0.08),
        w_rule=ConditionalPMF((X, U), (W,), w_rule),
        v_rule=ConditionalPMF((W, Y), (V,), np.full((2, 2, 2), 0.5)),
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_decoder_contradiction_counts_as_block_error(monkeypatch):
    # W = 0 on every X = 0 symbol, so w = 1 where x = 0 is a zero-mass pair.
    # The encoder can emit one (a uniform frozen fill against certain
    # evidence goes through the contradiction rule too); a decoded block
    # with such a pair that its encoded block lacks went through a
    # contradiction of its own (after a decoding error, known auxiliary
    # bits against certain evidence), and must be counted as an error
    decoded = []
    real_decode = codec.decode
    monkeypatch.setattr(codec, "decode", lambda *args: decoded.append(real_decode(*args)) or decoded[0])
    model = contradiction_model()
    sets = constructed_sets(model, n=64, mc=4000, seed=0)
    results = run_trials(model, sets, 4, range(40))
    assert [r.seed for r in results] == list(range(40))
    assert all(np.isfinite(v) for r in results for v in r.csv_row())
    _, _, x_hat, w_hat, _ = decoded[0]
    encoded = np.array([[((b.w == 1) & (b.x == 0)).any() for b in r.transcripts] for r in results])
    contradicted = np.argwhere(((w_hat == 1) & (x_hat == 0)).any(axis=2) & ~encoded)
    assert len(contradicted) > 0
    for t, i in contradicted:
        assert not all(results[t].transcripts[i].flags.values()), (t, i)


def test_decode_rejects_wrong_payload_sizes():
    model = chained_model()
    sets = synthetic_sets()
    rng = np.random.default_rng(40)
    u_blocks = rng.integers(0, 2, (3, 8), dtype=np.uint8)
    cr = CommonRandomness.draw(sets, 2, np.random.default_rng(41))
    blocks, payload = encode(u_blocks, sets, cr, model, rng)
    y = np.stack([transmit(b.x, model.channel, rng) for b in blocks])
    bad = np.zeros((1, len(sets.a3) + 1), dtype=np.uint8)
    with pytest.raises(ValueError, match="payload"):
        decode(y[None], bad, payload[1][None], sets, [cr], model, [rng])
    # one payload row per trial: a payload without its trial axis is refused too
    with pytest.raises(ValueError, match="payload"):
        decode(y[None], *payload, sets, [cr], model, [rng])


@pytest.mark.parametrize("k,bits", [(2, 2091), (3, 2888), (8, 6873)])
def test_rate_report_counts_the_drawn_common_randomness(k, bits):
    # the benchmark's n=1024 sets: the reported rate restates the layout drawn
    data = Path(__file__).resolve().parent.parent / "perfbench" / "data"
    sets = load_index_cache(data / "chained_n1024.idx")
    cr = CommonRandomness.draw(sets, k, np.random.default_rng(0))
    cr.validate(sets, k)
    drawn = sum(getattr(cr, f.name).size for f in dataclasses.fields(cr))
    assert drawn == bits == round(rate_report(sets, k).common_randomness_rate * k * sets.n)
