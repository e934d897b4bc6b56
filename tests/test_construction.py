import hashlib
import itertools
import json

import numpy as np
import pytest

from coordsim.bundled import bsc_model, chained_model, planted_target
from coordsim.cli import ConfigError, _source_model, _target_and_witness_of
from coordsim.construction import (
    CapacityError,
    PolarIndexSets,
    PolarParams,
    PolarizedEntropyProfile,
    SourceModel,
    build_index_sets,
    divergence_certificate,
    estimate_profile,
    load_index_cache,
    rate_report,
    save_index_cache,
)
from coordsim.polar import CHUNK_ROWS, polar_transform, true_path_conditionals
from coordsim.probability import (
    Alphabet,
    ConditionalPMF,
    JointPMF,
    binary_entropy,
    conditional_entropy,
    entropy,
    inverse_cdf,
)
from coordsim.region import AuxiliaryDecomposition, evaluate, induced_joint


def small_params(n=64, mc=4000):
    return PolarParams(n=n, beta=0.25, mc_samples=mc)


# -- the source model ---------------------------------------------------------------


def _rename(axis, name):
    axis.update(name=name)


def _ternary_x(d):
    d["x_prior"] = {"axes": [{"name": "X", "size": 3}], "table": [0.5, 0.25, 0.25]}


def _ternary_w(d):
    d["w_rule"]["out_axes"][0]["size"] = 3
    d["w_rule"]["table"] = [0.5, 0.25, 0.25] * 4


def _ternary_y_in_v_rule(d):
    d["v_rule"]["given_axes"][1]["size"] = 3
    d["v_rule"]["table"] = [0.5, 0.5] * 6


MALFORMED = {
    "u_prior over A": lambda d: _rename(d["u_prior"]["axes"][0], "A"),
    "ternary X": _ternary_x,
    "ternary W": _ternary_w,
    "v_rule V|WX": lambda d: _rename(d["v_rule"]["given_axes"][1], "X"),
    "w_rule V|XU": lambda d: _rename(d["w_rule"]["out_axes"][0], "V"),
    "channel Y|U": lambda d: _rename(d["channel"]["given_axes"][0], "U"),
    "v_rule over a ternary Y": _ternary_y_in_v_rule,
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_source_model_rejects_malformed(case):
    doc = chained_model().to_json_dict()
    MALFORMED[case](doc)
    with pytest.raises(ValueError):
        SourceModel.from_json_dict(doc)
    with pytest.raises(ConfigError) as err:
        _source_model({"model": doc, "base_dir": "."})
    assert err.value.pointer == "/model"


def random_binary_w_model(rng):
    u, y, v = (Alphabet(name, int(rng.integers(2, 4))) for name in "UYV")
    x, w = Alphabet("X", 2), Alphabet("W", 2)

    def rows(given, out):
        shape = tuple(a.size for a in given)
        return ConditionalPMF(given, (out,), rng.dirichlet(np.ones(out.size), size=shape))

    return SourceModel(
        JointPMF((u,), rng.dirichlet(np.ones(u.size))),
        JointPMF((x,), rng.dirichlet(np.ones(2))),
        rows((x,), y), rows((x, u), w), rows((w, y), v),
    )


def test_single_letter_joint_is_the_induced_joint():
    rng = np.random.default_rng(12)
    models = [bsc_model(), chained_model()] + [random_binary_w_model(rng) for _ in range(8)]
    for m in models:
        ind = induced_joint(m.target, AuxiliaryDecomposition(2, m.w_rule, m.v_rule))
        joint = m.single_letter_joint()
        assert ind.axis_names == joint.axis_names == ("U", "X", "W", "Y", "V")
        assert np.array_equal(ind.table, joint.table)


def test_witness_view_induces_target_view():
    rng = np.random.default_rng(13)
    for m in [bsc_model(), chained_model()] + [random_binary_w_model(rng) for _ in range(4)]:
        assert evaluate(m.target, m.witness).residual <= 1e-12


def test_target_and_witness_views_pinned():
    # digests of the (target, witness) JSON that the CLI derived for the
    # bundled models before they were views of the model
    pinned = {
        bsc_model: "a1a9ef0fd7f9a23e7feab957ddcca34e43edfeec4f2448ae69d24b38d5e03311",
        chained_model: "1f2c9ec32e9b3f7e1de9cf91de2594dd6be1ab42fb4837ed868c798164690723",
    }
    for make, digest in pinned.items():
        model = make()
        views = [v.to_json_dict() for v in _target_and_witness_of(model)]
        assert views == [model.target.to_json_dict(), model.witness.to_json_dict()]
        assert hashlib.sha256(json.dumps(views).encode()).hexdigest() == digest


def test_planted_target_pinned():
    digest = hashlib.sha256(json.dumps(planted_target().to_json_dict()).encode()).hexdigest()
    assert digest == "e92559d0ebfad1adf28d211615d85ebb74d6eaf0f1f9fbc24c72f13d53472d59"


# -- params ------------------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        PolarParams(n=1000)
    with pytest.raises(ValueError):
        PolarParams(n=64, beta=0.5)
    with pytest.raises(ValueError):
        PolarParams(n=64, beta=0.0)
    with pytest.raises(ValueError):
        PolarParams(n=64, mc_samples=0)


def test_delta_n_value():
    p = PolarParams(n=1024, beta=0.25)
    assert p.delta_n == pytest.approx(2.0 ** (-(1024**0.25)), rel=1e-15)


# -- profile estimation --------------------------------------------------------------


def test_profile_noiseless_channel_kills_observed_entropy():
    model = bsc_model(crossover=0.0)
    prof = estimate_profile(model, small_params(), np.random.default_rng(0))
    assert np.all(prof.h_s_y <= 1e-12)
    assert np.allclose(prof.h_s, 1.0, atol=1e-12)  # uniform signal polarizes to uniform


def test_profile_useless_channel_equals_prior_chain():
    model = bsc_model(crossover=0.5)
    prof = estimate_profile(model, small_params(), np.random.default_rng(1))
    assert np.array_equal(prof.h_s_y, prof.h_s)  # posterior evidence == prior, exactly


def test_profile_entropy_conservation():
    model = chained_model()
    params = small_params(n=64, mc=6000)
    prof = estimate_profile(model, params, np.random.default_rng(2))
    joint = model.single_letter_joint()
    assert prof.h_s.mean() == pytest.approx(entropy(joint, ["X"]), abs=0.02)
    assert prof.h_s_y.mean() == pytest.approx(conditional_entropy(joint, ["X"], ["Y"]), abs=0.02)
    assert prof.h_z_xu.mean() == pytest.approx(
        conditional_entropy(joint, ["W"], ["X", "U"]), abs=0.02
    )
    assert prof.h_z_x.mean() == pytest.approx(conditional_entropy(joint, ["W"], ["X"]), abs=0.02)
    assert prof.h_z_all.mean() == pytest.approx(
        conditional_entropy(joint, ["W"], ["U", "X", "Y", "V"]), abs=0.02
    )


def test_profile_conditioning_reduces_entropy_within_noise():
    model = chained_model()
    prof = estimate_profile(model, small_params(n=64, mc=6000), np.random.default_rng(3))
    slack = 2.0 * (prof.se_s + prof.se_s_y)
    assert np.all(prof.h_s_y <= prof.h_s + slack)
    slack_z = 2.0 * (prof.se_z_xu + prof.se_z_x)
    assert np.all(prof.h_z_xu <= prof.h_z_x + slack_z)


def _ternary_side_model():
    # U, Y and V ternary: the 5-tuple table has shape (3, 2, 2, 3, 3)
    rng = np.random.default_rng(8)
    U3, Y3, V3 = Alphabet("U", 3), Alphabet("Y", 3), Alphabet("V", 3)
    X, W = Alphabet("X", 2), Alphabet("W", 2)
    return SourceModel(
        u_prior=JointPMF((U3,), rng.dirichlet(np.ones(3))),
        x_prior=JointPMF((X,), np.array([0.6, 0.4])),
        channel=ConditionalPMF((X,), (Y3,), rng.dirichlet(np.ones(3), size=2)),
        w_rule=ConditionalPMF((X, U3), (W,), rng.dirichlet(np.ones(2), size=(2, 3))),
        v_rule=ConditionalPMF((W, Y3), (V3,), rng.dirichlet(np.ones(3), size=(2, 3))),
    )


def test_sample_blocks_chunked_draw_is_one_draw():
    # the profile draws its rows CHUNK_ROWS at a time, one sample_blocks
    # call per chunk; the blocks and the generator's end state are those of
    # one (count, n) draw, by one call or by chunks, and the per-axis lookup
    # gives the symbols of the np.unravel_index form
    for model, count in itertools.product((chained_model(), _ternary_side_model()),
                                          (0, 1, CHUNK_ROWS, 2 * CHUNK_ROWS + 5)):
        joint = model.single_letter_joint()
        rng, chunked, ref = (np.random.default_rng(3) for _ in range(3))
        blocks = model.sample_blocks(rng, count, 16)
        parts = [model.sample_blocks(chunked, min(CHUNK_ROWS, count - lo), 16)
                 for lo in range(0, count, CHUNK_ROWS)]
        cells = inverse_cdf(joint.table.reshape(-1), ref.random((count, 16)))
        for name, axis in zip("uxwyv", np.unravel_index(cells, joint.table.shape)):
            assert blocks[name].dtype == np.uint8 and blocks[name].shape == (count, 16)
            assert np.array_equal(blocks[name], axis)
            assert np.array_equal(np.concatenate([blocks[name][:0]] + [p[name] for p in parts]), axis)
        assert rng.bit_generator.state == chunked.bit_generator.state == ref.bit_generator.state


def test_profile_deterministic_given_seed():
    model = bsc_model()
    a = estimate_profile(model, small_params(n=32, mc=500), np.random.default_rng(7))
    b = estimate_profile(model, small_params(n=32, mc=500), np.random.default_rng(7))
    assert np.array_equal(a.h_s_y, b.h_s_y)


def test_profile_pinned_digest():
    # the digest pins the random stream and the order in which every h and
    # h*h is summed
    prof = estimate_profile(chained_model(), small_params(n=64, mc=3000), np.random.default_rng(0))
    got = hashlib.sha256(json.dumps(prof.to_json_dict(), sort_keys=True).encode()).hexdigest()
    assert got == "40e492cb23c91d9cf3ce98d15bd9a80e47b38a734ed3525a1b9b98a7664ae804"


def test_profile_is_one_draw_summed_in_order():
    # 69 rows at n=16, two full chunks and a partial one: the profile is
    # that of one (69, 16) draw, every family scored on all rows at once
    # and its rows summed in order; the generator ends where that draw does
    model = chained_model()
    rows = 2 * CHUNK_ROWS + 5
    rng, ref = np.random.default_rng(21), np.random.default_rng(21)
    prof = estimate_profile(model, small_params(n=16, mc=rows), rng)
    blk = model.sample_blocks(ref, rows, 16)
    u, x, y, v = blk["u"], blk["x"], blk["y"], blk["v"]
    s, z = polar_transform(x), polar_transform(blk["w"])
    families = {
        "h_s": (np.full(s.shape, float(model.x_prior.table[1])), s),
        "h_s_y": (model.x_posterior_given_y()[y], s),
        "h_z_xu": (model.w_given_xu()[x, u], z),
        "h_z_x": (model.w_given_x()[x], z),
        "h_z_all": (model.w_posterior_full()[u, x, y, v], z),
    }
    for fam, (evidence, bits) in families.items():
        h = binary_entropy(true_path_conditionals(evidence, bits))
        mean = np.add.reduce(h) / rows
        var = np.maximum(np.add.reduce(h * h) / rows - mean * mean, 0.0)
        assert np.array_equal(getattr(prof, fam), np.clip(mean, 0.0, 1.0)), fam
        assert np.array_equal(getattr(prof, "se_" + fam[2:]), np.sqrt(var / rows)), fam
    assert rng.bit_generator.state == ref.bit_generator.state


def test_profile_json_roundtrip():
    model = bsc_model()
    prof = estimate_profile(model, small_params(n=32, mc=500), np.random.default_rng(8))
    back = PolarizedEntropyProfile.from_json_dict(prof.to_json_dict())
    assert np.array_equal(back.h_z_all, prof.h_z_all)
    assert back.samples == prof.samples


def test_profile_rejects_non_finite_entries():
    doc = estimate_profile(bsc_model(), small_params(n=8, mc=50), np.random.default_rng(9)).to_json_dict()
    doc["h_s_y"][3] = float("nan")  # NaN fails every threshold comparison
    with pytest.raises(ValueError, match="h_s_y estimates must be finite"):
        PolarizedEntropyProfile.from_json_dict(doc)


# -- index sets -----------------------------------------------------------------------


def test_sets_noiseless_channel():
    model = bsc_model(crossover=0.0)
    params = small_params()
    prof = estimate_profile(model, params, np.random.default_rng(4))
    sets = build_index_sets(prof, params)
    assert len(sets.a1) == 0 and len(sets.a3) == 0
    assert len(sets.a2) == params.n  # uniform signal: every index very high entropy
    assert len(sets.b2) == 0
    assert not sets.warnings


def test_sets_useless_channel_raises_capacity_error():
    model = chained_model(crossover=0.5)
    params = small_params()
    prof = estimate_profile(model, params, np.random.default_rng(5))
    with pytest.raises(CapacityError):
        build_index_sets(prof, params)


def test_sets_partition_and_chaining_layout():
    model = chained_model()
    params = PolarParams(n=256, beta=0.25, mc_samples=4000)
    prof = estimate_profile(model, params, np.random.default_rng(6))
    sets = build_index_sets(prof, params)
    # validators ran in the constructor; spot-check the embedded carriers
    assert len(sets.ap3) == len(sets.a3)
    assert len(sets.bp3) == len(sets.b3)
    assert len(sets.ap2) == len(sets.a2) - len(sets.a3) - len(sets.b3)
    a2 = sets.a2.tolist()
    assert sets.ap3.tolist() == a2[: len(sets.a3)]  # lowest-index-first embedding
    assert len(sets.b2) == 0
    assert set(sets.bp1).issubset(set(sets.b1))
    assert len(sets.b3) > 0  # the auxiliary genuinely depends on the source


def test_sets_constant_w_degenerate_b_chain():
    model = bsc_model()
    params = small_params()
    prof = estimate_profile(model, params, np.random.default_rng(9))
    sets = build_index_sets(prof, params)
    assert len(sets.b1) == 0 and len(sets.b3) == 0
    assert len(sets.b4) == params.n
    assert len(sets.bp1) == 0


# -- rates and certificate ---------------------------------------------------------------


def bundled_sets(n=64, seed=10, model=None):
    model = model or bsc_model()
    params = small_params(n=n)
    prof = estimate_profile(model, params, np.random.default_rng(seed))
    return prof, params, build_index_sets(prof, params)


def test_rate_report_telescopes_to_limit():
    _, _, sets = bundled_sets()
    r16 = rate_report(sets, 16)
    r_big = rate_report(sets, 10**6)
    assert r_big.common_randomness_rate == pytest.approx(r16.common_randomness_rate_limit, abs=1e-5)
    limit = (len(sets.a1) + len(sets.a3) + len(sets.b1) + len(sets.b3) - len(sets.bp1)) / sets.n
    assert r16.common_randomness_rate_limit == pytest.approx(limit, abs=1e-12)


def test_side_channel_rate_vanishes_in_k():
    prof, params, sets = bundled_sets(model=chained_model(), seed=11)
    rates = [rate_report(sets, k).side_channel_rate for k in (2, 4, 8, 16)]
    assert all(a > b for a, b in zip(rates, rates[1:]))
    assert rates[-1] <= (len(sets.a3) + len(sets.b3)) / (16 * sets.n) + 1e-12


def test_divergence_certificate_uniform_signal_constant_w():
    prof, params, sets = bundled_sets()
    cert = divergence_certificate(prof, sets)
    assert cert.d1 == pytest.approx(0.0, abs=1e-9)  # uniform X: H(S_j|S^{j-1}) == 1 exactly
    assert cert.d2 == 0.0  # empty b1
    assert cert.bound == pytest.approx(2 * sets.n * sets.delta_n, rel=1e-12)
    assert cert.total <= cert.bound + 3 * cert.stderr


def test_divergence_certificate_chained_model():
    prof, params, sets = bundled_sets(model=chained_model(), seed=12)
    cert = divergence_certificate(prof, sets)
    assert cert.total <= cert.bound + 3 * cert.stderr


# -- persistence ----------------------------------------------------------------------


def test_cache_roundtrip(tmp_path):
    _, _, sets = bundled_sets(model=chained_model(), seed=13)
    path = tmp_path / "sets.bin"
    save_index_cache(path, sets)
    back = load_index_cache(path)
    for name in ("a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4", "bp1", "ap3", "bp3", "ap2"):
        assert np.array_equal(getattr(back, name), getattr(sets, name)), name
    assert back.n == sets.n
    assert back.delta_n == sets.delta_n
    assert back.warnings == sets.warnings


def test_cache_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="not an index cache"):
        load_index_cache(path)


def test_sets_json_roundtrip():
    _, _, sets = bundled_sets(seed=14)
    back = PolarIndexSets.from_json_dict(sets.to_json_dict())
    assert np.array_equal(back.a2, sets.a2)
    assert back.delta_n == sets.delta_n
