import dataclasses
import hashlib
import itertools
import json

import numpy as np
import pytest
from scipy.stats import chi2

from coordsim import construction
from coordsim.bundled import bsc_model, bsc_target, chained_model, planted_model, planted_target
from coordsim.cli import ConfigError, _source_model
from coordsim.codec import CommonRandomness, _encode_trials, transmit
from coordsim.construction import (
    CapacityError,
    PolarIndexSets,
    PolarizedEntropyProfile,
    PolarParams,
    SourceModel,
    build_index_sets,
    common_randomness_shapes,
    divergence_certificate,
    estimate_profile,
    load_index_cache,
    rate_report,
    save_index_cache,
)
from coordsim.polar import (
    CHUNK_ROWS,
    known_path_conditionals,
    known_path_tree,
    polar_transform,
    true_path_conditionals,
)
from coordsim.probability import (
    Alphabet,
    ConditionalPMF,
    JointPMF,
    MissingKeyError,
    UnknownKeyError,
    binary_entropy,
    cell_symbols,
    condition,
    conditional_entropy,
    iid_blocks,
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


def _wide_y(d, size):
    """A channel that sends x=0 to y=0 and x=1 to y=size-1."""
    d["channel"]["out_axes"][0]["size"] = size
    d["channel"]["table"] = [1.0] + [0.0] * (2 * size - 2) + [1.0]
    d["v_rule"]["given_axes"][1]["size"] = size
    d["v_rule"]["table"] = [0.5, 0.5] * (2 * size)


MALFORMED = {
    "u_prior over A": lambda d: _rename(d["u_prior"]["axes"][0], "A"),
    "ternary X": _ternary_x,
    "ternary W": _ternary_w,
    "v_rule V|WX": lambda d: _rename(d["v_rule"]["given_axes"][1], "X"),
    "w_rule V|XU": lambda d: _rename(d["w_rule"]["out_axes"][0], "V"),
    "channel Y|U": lambda d: _rename(d["channel"]["given_axes"][0], "U"),
    "v_rule over a ternary Y": _ternary_y_in_v_rule,
    "Y over 300 symbols": lambda d: _wide_y(d, 300),
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


@pytest.mark.parametrize("make,path", [
    (chained_model, ("x_prior_typo",)),
    (chained_model, ("u_prior", "tabel")),
    (chained_model, ("w_rule", "out_axes", "0", "label")),
    (bsc_target, ("action_rule_typo",)),
    (bsc_target, ("channel", "tabel")),
])
def test_law_documents_reject_unknown_keys(make, path):
    # a key that no field reads is refused with its path, not dropped
    law = make()
    doc = law.to_json_dict()
    node = doc
    for key in path[:-1]:
        node = node[int(key)] if isinstance(node, list) else node[key]
    node[path[-1]] = 1
    with pytest.raises(UnknownKeyError) as err:
        type(law).from_json_dict(doc)
    assert err.value.path == path
    assert str(err.value) == "/" + "/".join(path) + ": unknown key"


@pytest.mark.parametrize("make,path", [
    (chained_model, ("x_prior",)),
    (chained_model, ("u_prior", "table")),
    (chained_model, ("w_rule", "out_axes", "0", "size")),
    (bsc_target, ("action_rule", "given_axes")),
])
def test_law_documents_name_missing_keys(make, path):
    # a key that the law or one of its pmfs needs is named by its path, not by a bare KeyError
    law = make()
    doc = law.to_json_dict()
    node = doc
    for key in path[:-1]:
        node = node[int(key)] if isinstance(node, list) else node[key]
    del node[path[-1]]
    with pytest.raises(MissingKeyError) as err:
        type(law).from_json_dict(doc)
    assert err.value.path == path
    assert str(err.value) == "/" + "/".join(path) + ": required key missing"


def test_source_model_samples_256_symbols_whole():
    # 256 symbols per axis is the most uint8 blocks hold; y = 255 is not wrapped
    doc = chained_model().to_json_dict()
    _wide_y(doc, 256)
    model = SourceModel.from_json_dict(doc)
    blk = model.sample_blocks(np.random.default_rng(0), 4, 16)
    assert blk["x"].any() and np.array_equal(blk["y"], 255 * blk["x"])
    assert np.array_equal(transmit(blk["x"][0], model.channel, np.random.default_rng(1)), blk["y"][0])


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


def test_posterior_reads_the_model_factors():
    # P(X) and P(W | X, U) are the model's own factors, the latter in the
    # order of the evidence axes; every other conditional is the joint's
    rng = np.random.default_rng(14)
    for m in [bsc_model(), chained_model(), planted_model()] + [random_binary_w_model(rng) for _ in range(4)]:
        joint = m.single_letter_joint()
        assert m.posterior("X").shape == () and m.posterior("X") == m.x_prior.table[1]
        w_xu = m.w_rule.aligned_table(("X", "U"))[..., 1]
        assert np.array_equal(m.posterior("W", ("X", "U")), w_xu)
        assert np.array_equal(m.posterior("W", ("U", "X")), w_xu.T)
        for bit, given in [("X", ("Y",)), ("W", ("X",)), ("W", ("U", "X", "Y", "V"))]:
            expected = condition(joint, [bit], list(given)).table[..., 1]
            assert np.array_equal(m.posterior(bit, given), expected)
        assert np.array_equal(m.x_posterior_given_y(), m.posterior("X", ("Y",)))


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
        views = [v.to_json_dict() for v in (model.target, model.witness)]
        assert views == [model.target.to_json_dict(), model.witness.to_json_dict()]
        assert hashlib.sha256(json.dumps(views).encode()).hexdigest() == digest


def test_model_and_target_json_pinned():
    # the key order and bytes of the two law types' JSON
    pinned = {
        chained_model: "12b04c37ca03896a9e161a5a5a1d8ff0cbbe4a51d580f8451af7b87527b7cc84",
        bsc_target: "54a5c0e6ee8a396f362bbcd99434ac05588d17ef78a2fceea1667c9e8844d2da",
    }
    for make, digest in pinned.items():
        assert hashlib.sha256(json.dumps(make().to_json_dict()).encode()).hexdigest() == digest


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
    assert np.all(prof.family("h_s_y")[0] <= 1e-12)
    assert np.allclose(prof.family("h_s")[0], 1.0, atol=1e-12)  # uniform signal polarizes to uniform


def test_profile_useless_channel_equals_prior_chain():
    model = bsc_model(crossover=0.5)
    prof = estimate_profile(model, small_params(), np.random.default_rng(1))
    assert np.array_equal(prof.family("h_s_y")[0], prof.family("h_s")[0])  # posterior evidence == prior, exactly


def test_profile_entropy_conservation():
    model = chained_model()
    params = small_params(n=64, mc=6000)
    prof = estimate_profile(model, params, np.random.default_rng(2))
    joint = model.single_letter_joint()
    for name, (bit, given) in PolarizedEntropyProfile.FAMILIES.items():
        limit = conditional_entropy(joint, [bit], list(given))
        assert prof.family(name)[0].mean() == pytest.approx(limit, abs=0.02), name


def test_profile_conditioning_reduces_entropy_within_noise():
    model = chained_model()
    prof = estimate_profile(model, small_params(n=64, mc=6000), np.random.default_rng(3))
    for more, less in (("h_s", "h_s_y"), ("h_z_x", "h_z_xu")):
        (h_more, se_more), (h_less, se_less) = prof.family(more), prof.family(less)
        assert np.all(h_less <= h_more + 2.0 * (se_more + se_less))


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
        assert np.array_equal(blocks["cells"], cells)
        assert np.array_equal(np.concatenate([blocks["cells"][:0]] + [p["cells"] for p in parts]), cells)
        for name, axis in zip("uxwyv", np.unravel_index(cells, joint.table.shape)):
            assert blocks[name].dtype == np.uint8 and blocks[name].shape == (count, 16)
            assert np.array_equal(blocks[name], axis)
            assert np.array_equal(np.concatenate([blocks[name][:0]] + [p[name] for p in parts]), axis)
        assert rng.bit_generator.state == chunked.bit_generator.state == ref.bit_generator.state


def test_profile_deterministic_given_seed():
    model = bsc_model()
    a = estimate_profile(model, small_params(n=32, mc=500), np.random.default_rng(7))
    b = estimate_profile(model, small_params(n=32, mc=500), np.random.default_rng(7))
    assert np.array_equal(a.h, b.h) and np.array_equal(a.se, b.se)


def test_profile_json_keys_in_table_order():
    # the report's keys: each family's estimates, then its standard errors
    prof = estimate_profile(bsc_model(), small_params(n=8, mc=50), np.random.default_rng(9))
    assert list(prof.to_json_dict()) == [
        "n", "samples", "h_s", "se_s", "h_s_y", "se_s_y", "h_z_xu", "se_z_xu", "h_z_x", "se_z_x", "h_z_all", "se_z_all",
    ]


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
        "h_s_y": (model.posterior("X", ("Y",))[y], s),
        "h_z_xu": (model.posterior("W", ("X", "U"))[x, u], z),
        "h_z_x": (model.posterior("W", ("X",))[x], z),
        "h_z_all": (model.posterior("W", ("U", "X", "Y", "V"))[u, x, y, v], z),
    }
    for fam, (evidence, bits) in families.items():
        h = binary_entropy(true_path_conditionals(evidence, bits))
        mean = np.add.reduce(h) / rows
        var = np.maximum(np.add.reduce(h * h) / rows - mean * mean, 0.0)
        assert np.array_equal(prof.family(fam)[0], np.clip(mean, 0.0, 1.0)), fam
        assert np.array_equal(prof.family(fam)[1], np.sqrt(var / rows)), fam
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("model_name, half_family", [("chained", "h_z_x"), ("bsc", "h_s"), ("ternary", None)])
def test_profile_scores_a_half_family_in_closed_form(monkeypatch, model_name, half_family):
    # a family whose evidence is 1/2 everywhere runs no kernel call; its
    # profile is exactly 1.0 with standard error exactly 0.0
    model = {"chained": chained_model, "bsc": bsc_model, "ternary": _ternary_side_model}[model_name]()
    calls = []

    def spy(*args):
        calls.append(args)
        return known_path_conditionals(*args)

    monkeypatch.setattr(construction, "known_path_conditionals", spy)
    prof = estimate_profile(model, small_params(n=16, mc=2 * CHUNK_ROWS + 5), np.random.default_rng(4))
    assert len(calls) == (4 if half_family else 5) * 3  # three chunks
    if half_family:
        h, se = prof.family(half_family)
        assert np.all(h == 1.0) and np.all(se == 0.0)


def test_half_evidence_has_entropy_exactly_one():
    # the identity the closed form rests on: f(1/2, 1/2) = g(1/2, 1/2, x) = 1/2
    # and h(1/2) = 1 in float64, along any path
    tree = known_path_tree(np.random.default_rng(5).integers(0, 2, (1024, CHUNK_ROWS), dtype=np.uint8))
    h = binary_entropy(known_path_conditionals(np.full((1024, CHUNK_ROWS), 0.5), tree))
    assert np.all(h == 1.0)


def test_profile_entropy_matches_binary_entropy_bit_for_bit():
    # the profile's entropy into its sum block, against binary_entropy on
    # conditionals as the kernel clips them, the ends included
    p = np.random.default_rng(6).random(4096)
    p[:6] = [1e-20, 0.5, 1.0, 1.0 - 2.0**-53, 2.0**-53, 0.25]
    h, scratch = np.empty_like(p), np.empty_like(p)
    construction._binary_entropy_into(np.maximum(p, 1e-20), h, scratch)
    assert h.tobytes() == binary_entropy(np.maximum(p, 1e-20)).tobytes()


def test_profile_rejects_non_finite_entries():
    prof = estimate_profile(bsc_model(), small_params(n=8, mc=50), np.random.default_rng(9))
    h = prof.h.copy()
    h[1, 3] = float("nan")  # row 1 is h_s_y; NaN fails every threshold comparison
    with pytest.raises(ValueError, match="h_s_y estimates must be finite"):
        dataclasses.replace(prof, h=h)


# -- the exact profile ----------------------------------------------------------------


def family_atoms(model, name):
    """The atoms of a profile family's i.i.d. (bit, evidence) pairs: each
    distinct (bit, P(bit = 1 | evidence)) with its probability, equal atoms
    merged and atoms of no mass dropped.  The evidence is the model's rule,
    read at every cell of the joint as the profile reads it."""
    bit, given = PolarizedEntropyProfile.FAMILIES[name]
    joint = model.single_letter_joint()
    symbols = dict(zip(joint.axis_names, cell_symbols(joint, np.arange(joint.table.size))))
    p1 = np.broadcast_to(model.posterior(bit, given)[tuple(symbols[a] for a in given)], joint.table.size)
    atoms, which = np.unique(np.stack([symbols[bit], p1]), axis=1, return_inverse=True)
    weights = np.bincount(which.ravel(), weights=joint.table.ravel())
    kept = weights > 0
    return atoms[0, kept].astype(np.uint8), atoms[1, kept], weights[kept]


def exact_family(model, name, n):
    """The family ``name`` at every index of a length-n block, exactly: the
    expected h(P(T(bit)_j = 1 | T(bit)^{j-1}, evidence^n)) over all atoms^n
    blocks of :func:`family_atoms`, each with the product of its atoms'
    probabilities."""
    bits, p1, weights = family_atoms(model, name)
    blocks = np.indices((len(weights),) * n).reshape(n, -1).T
    h = binary_entropy(true_path_conditionals(p1[blocks], polar_transform(bits[blocks])))
    return weights[blocks].prod(axis=1) @ h


def exact_profile(model, n, names=tuple(PolarizedEntropyProfile.FAMILIES)):
    """The exact profile at block length n, standard errors 0; a family not
    in ``names`` is left at 1."""
    h = np.ones((len(PolarizedEntropyProfile.FAMILIES), n))
    for row, name in enumerate(PolarizedEntropyProfile.FAMILIES):
        if name in names:
            h[row] = exact_family(model, name, n)
    return PolarizedEntropyProfile(n=n, samples=1, h=h, se=np.zeros_like(h))


def test_family_atoms_merge_equal_evidence():
    # chained: P(X) alone, X given Y, W given (X, U), W given X (the same for
    # both x) and W given all four: its 16 evidence cells hold 8 posteriors,
    # but 13 distinct floats, and merging is by equal value, so 26 atoms
    counts = [len(family_atoms(chained_model(), name)[2]) for name in PolarizedEntropyProfile.FAMILIES]
    assert counts == [2, 4, 4, 2, 26]


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("make", [chained_model, bsc_model], ids=["chained", "bsc"])
def test_profile_is_within_its_standard_errors_of_the_exact_profile(make, n):
    model = make()
    exact = exact_profile(model, n)
    joint = model.single_letter_joint()
    for name, h in zip(PolarizedEntropyProfile.FAMILIES, exact.h):
        # the chain rule: the n entropies sum to n H(bit | evidence)
        bit, given = PolarizedEntropyProfile.FAMILIES[name]
        assert h.mean() == pytest.approx(conditional_entropy(joint, [bit], list(given)), abs=1e-12), name
    prof = estimate_profile(model, small_params(n=n, mc=20000), np.random.default_rng(0))
    # 1e-4 for the near-polarized indices, where Monte Carlo misses rare
    # posteriors and its standard error is too small
    assert np.all(np.abs(prof.h - exact.h) <= 3.0 * (prof.se + 1e-4))


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


def test_bsc_common_randomness_rate_within_slack_of_inner_rate():
    # cross-module consistency, one-sided: the codec's CR rate on the sets of a
    # small bsc run (n = 32, 400 samples, seed 0, k = 3) is within 0.1 of the
    # witness's inner rate, or above it
    model = bsc_model()
    verdict = evaluate(model.target, model.witness)
    assert verdict.feasible
    params = PolarParams(n=32, beta=0.25, mc_samples=400)
    prof = estimate_profile(model, params, np.random.default_rng(np.random.SeedSequence([0, 0])))
    cr = rate_report(build_index_sets(prof, params), 3).common_randomness_rate
    assert cr >= verdict.inner_rate - 0.1


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


def encoder_block_law(model, f_s, f_z):
    """At n = 4, every cell (u, s, z) of one block with its probability
    under P^n and under the encoder's block law Q_enc.

    The encoder fills s on F_s and z on F_z uniformly and draws every other
    bit from its SC conditional, P(s_j = 1 | s^{j-1}) or
    P(z_j = 1 | z^{j-1}, x^n, u^n); that is Q_enc(u, s, z).  The cells are
    the |U|^4 2^8 tuples in row-major order of (u, s, z).
    """
    n = 4
    nu = model.u_prior.axes[0].size
    cells = np.array(list(itertools.product(*[range(nu)] * n, *[range(2)] * (2 * n))), dtype=np.uint8)
    u, s, z = cells[:, :n], cells[:, n : 2 * n], cells[:, 2 * n :]
    x, w = polar_transform(s), polar_transform(z)
    p_u, p_x = model.u_prior.table, model.x_prior.table
    p_w = model.w_rule.aligned_table(("X", "U"))
    # P^n straight from the single-letter law, P(u) P(x) P(w|x,u) per symbol
    p = (p_u[u] * p_x[x] * p_w[x, u, w]).prod(axis=1)

    # the SC conditional of each bit's true value, on the encoder's evidence
    def bit_probability(evidence, bits):
        p1 = true_path_conditionals(evidence, bits)
        return np.where(bits == 1, p1, 1.0 - p1)

    q_s = bit_probability(np.full(s.shape, float(p_x[1])), s)
    q_z = bit_probability(model.posterior("W", ("X", "U"))[x, u], z)
    q_s[:, f_s] = 0.5
    q_z[:, f_z] = 0.5
    q = p_u[u].prod(axis=1) * q_s.prod(axis=1) * q_z.prod(axis=1)
    return cells, p, q


def exact_encoder_divergence(model, f_s, f_z):
    """At n = 4, the enumerated D(P^n || Q_enc) and the certificate of the
    exact profile, with F_s = a1 u a2 and F_z = b1 as given.

    By the chain rule for KL, with Q_enc as in :func:`encoder_block_law`,
      D(P^n || Q_enc) = sum_{F_s} (1 - H(S_j|S^{j-1})) + sum_{F_z} (1 - H(Z_j|Z^{j-1} X^n U^n)),
    which is what the certificate sums.  The divergence is exact over the
    |U|^4 2^8 cells (u, s, z), and h_s and h_z_xu are those of
    :func:`exact_profile`.
    """
    n = 4
    _, p, q = encoder_block_law(model, f_s, f_z)
    mass = p > 0
    divergence = float((p[mass] * np.log2(p[mass] / q[mass])).sum())

    idx = lambda v: np.array(v, dtype=np.int64)  # noqa: E731
    rest = lambda v: np.setdiff1d(np.arange(n), v)  # noqa: E731
    sets = PolarIndexSets(
        n=n, delta_n=0.1,
        a1=idx(f_s[:1]), a2=idx(f_s[1:]), a3=idx([]), a4=rest(f_s),
        b1=idx(f_z), b2=rest(f_z), b3=idx([]), b4=idx([]),
        bp1=idx([]), ap3=idx([]), bp3=idx([]), ap2=idx(f_s[1:]),
    )
    return divergence_certificate(exact_profile(model, n, ("h_s", "h_z_xu")), sets).total, divergence


ENCODER_FILLS = [([0, 1], [0]), ([0, 2, 3], [1, 3]), ([0, 1, 2, 3], [0, 1, 2, 3])]


@pytest.mark.parametrize("f_s,f_z", ENCODER_FILLS)
def test_divergence_certificate_is_the_exact_encoder_divergence(f_s, f_z):
    certificate, divergence = exact_encoder_divergence(chained_model(), f_s, f_z)
    assert divergence > 0.01
    assert certificate == pytest.approx(divergence, abs=1e-12)


@pytest.mark.parametrize("f_s,f_z", ENCODER_FILLS)
@pytest.mark.parametrize("make", [bsc_model, _ternary_side_model], ids=["bsc", "ternary"])
def test_divergence_certificate_is_exact_on_bsc_and_ternary_alphabets(make, f_s, f_z):
    # bsc: uniform X and a constant W, so the divergence is |F_z| bits;
    # ternary: U, Y and V of three symbols, 3^4 2^8 cells (measured: the
    # least divergence is 0.0076 bits, at F_s = {0, 1}, F_z = {0})
    certificate, divergence = exact_encoder_divergence(make(), f_s, f_z)
    assert divergence > 0.005
    assert certificate == pytest.approx(divergence, abs=1e-12)


def test_encoder_draws_block_1_from_the_exact_block_law():
    # the lockstep encoder at n = 4 on sets that use every fill: c on a1,
    # the pads on ap3 and bp3, c_bar on bp1 and c_prime on the rest of b1;
    # s draws one bit and z a rate-1 node of two.  Block 0 pairs with the
    # dummy source block, so the test reads block 1: a chi-square of its
    # (u, s, z) cells against Q_enc, the cells expected fewer than 5 times
    # pooled into one
    model = chained_model()
    idx = lambda *v: np.array(v, dtype=np.int64)  # noqa: E731
    sets = PolarIndexSets(
        n=4, delta_n=0.1,
        a1=idx(0), a2=idx(1, 2), a3=idx(3), a4=idx(),
        b1=idx(0, 1), b2=idx(), b3=idx(2), b4=idx(3),
        bp1=idx(0), ap3=idx(1), bp3=idx(2), ap2=idx(),
    )
    cells, _, q = encoder_block_law(model, [0, 1, 2], [0, 1])
    assert q.sum() == pytest.approx(1.0, abs=1e-12)
    trials, k = 40_000, 2
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(30).spawn(trials)]
    shared = np.random.default_rng(31)  # common randomness and source, drawn for all trials at once
    fills = {name: shared.integers(0, 2, (trials,) + shape, dtype=np.uint8)
             for name, shape in common_randomness_shapes(sets, k).items()}
    crs = [CommonRandomness(**{name: a[t] for name, a in fills.items()}) for t in range(trials)]
    u_blocks = iid_blocks(model.u_prior, shared, trials * (k + 1), 4)[0].reshape(trials, k + 1, 4)
    s, z, _, _ = _encode_trials(u_blocks, sets, crs, model, rngs)
    digits = np.concatenate([u_blocks[:, 1], s[:, 1], z[:, 1]], axis=1)
    codes = np.ravel_multi_index(tuple(digits.T), cells.max(axis=0) + 1)
    counts, expected = np.bincount(codes, minlength=len(q)), trials * q
    pooled = expected < 5
    counts = np.append(counts[~pooled], counts[pooled].sum())
    expected = np.append(expected[~pooled], expected[pooled].sum())
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert chi2.sf(stat, len(counts) - 1) > 1e-3


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


def test_cache_rejects_truncated_or_garbled_file(tmp_path):
    _, _, sets = bundled_sets(seed=13)
    whole = tmp_path / "sets.bin"
    save_index_cache(whole, sets)
    data = whole.read_bytes()
    # cut in the header, in a set count, in an index array and at the end; then
    # a set count past the end of the file
    garbled = data[:20] + b"\xff\xff\xff\x7f" + data[24:]
    cases = [data[:10], data[:22], data[:40], data[:-2], garbled]
    for i, case in enumerate(cases):
        path = tmp_path / f"bad{i}.bin"
        path.write_bytes(case)
        with pytest.raises(ValueError, match="bad" + str(i)):
            load_index_cache(path)
