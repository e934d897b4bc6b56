import numpy as np
import pytest

from coordsim.bundled import bsc_model, chained_model
from coordsim.construction import (
    CapacityError,
    PolarIndexSets,
    PolarParams,
    PolarizedEntropyProfile,
    build_index_sets,
    divergence_certificate,
    estimate_profile,
    load_index_cache,
    rate_report,
    save_index_cache,
)
from coordsim.probability import conditional_entropy, entropy


def small_params(n=64, mc=4000):
    return PolarParams(n=n, beta=0.25, mc_samples=mc)


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


def test_profile_deterministic_given_seed():
    model = bsc_model()
    a = estimate_profile(model, small_params(n=32, mc=500), np.random.default_rng(7))
    b = estimate_profile(model, small_params(n=32, mc=500), np.random.default_rng(7))
    assert np.array_equal(a.h_s_y, b.h_s_y)


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
