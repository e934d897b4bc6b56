import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordsim import probability
from coordsim.bundled import chained_model
from coordsim.probability import (
    CELL_CAP,
    Alphabet,
    ConditionalPMF,
    JointPMF,
    binary_entropy,
    compose,
    condition,
    conditional_entropy,
    entropy,
    iid_blocks,
    inverse_cdf,
    kl_divergence,
    marginalize,
    mutual_information,
    total_variation,
)

A = Alphabet("A", 2)
B = Alphabet("B", 2)


def pmf1(name, probs):
    return JointPMF((Alphabet(name, len(probs)),), np.array(probs))


def random_pmf(rng, axes):
    shape = tuple(a.size for a in axes)
    t = rng.dirichlet(np.ones(math.prod(shape))).reshape(shape)
    return JointPMF(axes, t)


def random_conditional(rng, given, out):
    gshape = tuple(a.size for a in given)
    oshape = tuple(a.size for a in out)
    rows = rng.dirichlet(np.ones(math.prod(oshape)), size=math.prod(gshape))
    return ConditionalPMF(given, out, rows.reshape(gshape + oshape))


def bsc(p, in_name="X", out_name="Y"):
    t = np.array([[1 - p, p], [p, 1 - p]])
    return ConditionalPMF((Alphabet(in_name, 2),), (Alphabet(out_name, 2),), t)


# -- construction & validation ------------------------------------------------


def test_pmf_validation():
    with pytest.raises(ValueError):
        JointPMF((A,), np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        JointPMF((A,), np.array([1.2, -0.2]))
    with pytest.raises(ValueError):
        JointPMF((A, Alphabet("A", 3)), np.full((2, 3), 1 / 6))  # duplicate label


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_pmf_types_reject_non_finite_entry_with_one_message(bad):
    with pytest.raises(ValueError, match="sum to 1") as joint_err:
        JointPMF((A,), np.array([bad, 0.5]))
    with pytest.raises(ValueError, match="sum to 1") as cond_err:
        ConditionalPMF((A,), (Alphabet("B", 2),), np.array([[0.5, 0.5], [bad, 0.5]]))
    assert str(joint_err.value) == str(cond_err.value)


def test_cell_cap():
    axes = tuple(Alphabet(f"Z{i}", 101) for i in range(3))
    assert 101**3 > CELL_CAP
    with pytest.raises(ValueError, match="cap"):
        JointPMF.uniform(axes)


# -- marginalize ---------------------------------------------------------------


def test_marginalize_uniform_symmetry():
    p = JointPMF.uniform((A, B))
    m = marginalize(p, ["A"])
    assert np.allclose(m.table, [0.5, 0.5])


def test_marginalize_product():
    p = JointPMF.product(pmf1("U", [0.25, 0.75]), pmf1("X", [0.5, 0.5]))
    m = marginalize(p, ["U"])
    assert np.allclose(m.table, [0.25, 0.75], atol=1e-15)


def test_marginalize_column_sum_oracle():
    rng = np.random.default_rng(0)
    p = random_pmf(rng, (Alphabet("R", 3), Alphabet("C", 4)))
    m = marginalize(p, ["C"])
    # direct-summation oracle
    expect = np.array([p.table[:, j].sum() for j in range(4)])
    assert np.allclose(m.table, expect, atol=1e-15)


def test_marginalize_unknown_axis():
    p = JointPMF.uniform((A, B))
    with pytest.raises(KeyError):
        marginalize(p, ["Q"])


# -- compose -------------------------------------------------------------------


def test_compose_bsc():
    p = pmf1("X", [0.5, 0.5])
    j = compose(p, bsc(0.11))
    assert j.axis_names == ("X", "Y")
    assert j.table[0, 1] == pytest.approx(0.055, abs=1e-15)


def test_compose_identity_channel_diagonal():
    rng = np.random.default_rng(1)
    p = random_pmf(rng, (Alphabet("X", 3),))
    ident = ConditionalPMF((Alphabet("X", 3),), (Alphabet("Y", 3),), np.eye(3))
    j = compose(p, ident)
    assert np.allclose(np.diag(j.table), p.table)
    assert np.allclose(j.table - np.diag(np.diag(j.table)), 0.0)


def test_compose_chain_matches_elementwise_oracle():
    rng = np.random.default_rng(2)
    U, X, Y, V = (Alphabet(n, 2) for n in "UXYV")
    p_u = random_pmf(rng, (U,))
    p_x = random_pmf(rng, (X,))
    ch = random_conditional(rng, (X,), (Y,))
    act = random_conditional(rng, (U, X, Y), (V,))
    j = compose(compose(JointPMF.product(p_u, p_x), ch), act)
    expect = np.zeros((2, 2, 2, 2))
    for u in range(2):
        for x in range(2):
            for y in range(2):
                for v in range(2):
                    expect[u, x, y, v] = (
                        p_u.table[u] * p_x.table[x] * ch.table[x, y] * act.table[u, x, y, v]
                    )
    assert np.allclose(j.table, expect, atol=1e-15)


def test_compose_axis_collision():
    p = JointPMF.uniform((A, B))
    c = ConditionalPMF((A,), (B,), np.full((2, 2), 0.5))
    with pytest.raises(ValueError, match="collision"):
        compose(p, c)


def test_compose_shape_mismatch():
    p = JointPMF.uniform((Alphabet("X", 3),))
    with pytest.raises(ValueError, match="mismatch"):
        compose(p, bsc(0.1))


# -- condition -----------------------------------------------------------------


def test_condition_independent_axes():
    rng = np.random.default_rng(3)
    pa = random_pmf(rng, (A,))
    pb = random_pmf(rng, (B,))
    p = JointPMF.product(pa, pb)
    c = condition(p, ["B"], ["A"])
    assert np.allclose(c.table[0], pb.table) and np.allclose(c.table[1], pb.table)


def test_condition_diagonal_identity():
    p = JointPMF((A, B), np.array([[0.5, 0.0], [0.0, 0.5]]))
    c = condition(p, ["B"], ["A"])
    assert np.allclose(c.table, np.eye(2))


def test_condition_division_oracle():
    rng = np.random.default_rng(4)
    axes = (Alphabet("A", 2), Alphabet("B", 3), Alphabet("C", 2))
    p = random_pmf(rng, axes)
    c = condition(p, ["B"], ["A", "C"])
    for a in range(2):
        for cc in range(2):
            mass = p.table[a, :, cc].sum()
            assert np.allclose(c.table[a, cc], p.table[a, :, cc] / mass)


def test_condition_zero_row_flagged():
    t = np.array([[0.5, 0.5], [0.0, 0.0]])
    p = JointPMF((A, B), t / t.sum())
    c = condition(p, ["B"], ["A"])
    assert np.allclose(c.table[1], [0.5, 0.5])


# -- information measures --------------------------------------------------------


def test_entropy_examples():
    assert entropy(pmf1("A", [0.5, 0.5])) == pytest.approx(1.0, abs=1e-15)
    assert entropy(pmf1("A", [1.0, 0.0])) == 0.0
    # closed-form binary entropy oracle, frozen: h(0.11) = 0.499915958164528
    h011 = -(0.11 * math.log2(0.11) + 0.89 * math.log2(0.89))
    assert h011 == pytest.approx(0.499915958164528, abs=1e-12)
    assert entropy(pmf1("A", [0.11, 0.89])) == pytest.approx(h011, abs=1e-4)


def test_conditional_entropy_examples():
    rng = np.random.default_rng(5)
    pa = random_pmf(rng, (A,))
    pb = random_pmf(rng, (B,))
    p = JointPMF.product(pa, pb)
    assert conditional_entropy(p, ["A"], ["B"]) == pytest.approx(entropy(pa), abs=1e-12)
    # deterministic function out = f(given) -> 0
    diag = JointPMF((A, B), np.array([[0.3, 0.0], [0.0, 0.7]]))
    assert conditional_entropy(diag, ["B"], ["A"]) == pytest.approx(0.0, abs=1e-12)
    # uniform X through BSC(0.11): H(X|Y) = h(0.11)
    j = compose(pmf1("X", [0.5, 0.5]), bsc(0.11))
    h011 = float(binary_entropy(0.11))
    assert conditional_entropy(j, ["X"], ["Y"]) == pytest.approx(h011, abs=1e-12)


def binary_entropy_select(p):
    """h(p) with 0 log 0 = 0 taken by two np.where selects: the reference
    for the masked-log kernel."""
    p = np.asarray(p, dtype=np.float64)
    a = np.where(p > 0, p, 1.0)
    b = np.where(p < 1, 1.0 - p, 1.0)
    out = -(p * np.log2(a) + (1.0 - p) * np.log2(b))
    return out if out.shape else float(out)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_binary_entropy_matches_select_form_bit_for_bit():
    edges = [0.0, -0.0, 1.0, np.nan, -0.1, 1.2, 1e-20, 0.5, 0.11, np.inf, -np.inf]
    for p in edges:
        got, want = binary_entropy(p), binary_entropy_select(p)
        assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes(), p
    rng = np.random.default_rng(7)
    # as the known-path driver returns them: clipped to [1e-20, 1], with ends
    clipped = np.maximum(rng.random((32, 64)) ** 8, 1e-20)
    clipped[rng.random((32, 64)) < 0.2] = 1.0
    for p in (np.array(edges), clipped, clipped.T, clipped[:, :1]):
        assert binary_entropy(p).tobytes() == binary_entropy_select(p).tobytes()


def test_mutual_information_examples():
    rng = np.random.default_rng(6)
    p = JointPMF.product(random_pmf(rng, (A,)), random_pmf(rng, (B,)))
    assert mutual_information(p, ["A"], ["B"]) == pytest.approx(0.0, abs=1e-12)
    same = JointPMF((A, B), np.array([[0.5, 0.0], [0.0, 0.5]]))
    assert mutual_information(same, ["A"], ["B"]) == pytest.approx(1.0, abs=1e-12)
    j = compose(pmf1("X", [0.5, 0.5]), bsc(0.11))
    assert mutual_information(j, ["X"], ["Y"]) == pytest.approx(
        1.0 - binary_entropy(0.11), abs=1e-12
    )


def test_total_variation_examples():
    p = pmf1("A", [0.75, 0.25])
    q = pmf1("A", [0.5, 0.5])
    assert total_variation(p, p) == 0.0
    assert total_variation(pmf1("A", [1, 0]), pmf1("A", [0, 1])) == 2.0
    assert total_variation(p, q) == pytest.approx(0.5, abs=1e-15)


def test_total_variation_axis_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        total_variation(pmf1("A", [0.5, 0.5]), pmf1("B", [0.5, 0.5]))


def test_kl_examples():
    p = pmf1("A", [0.5, 0.5])
    q = pmf1("A", [0.25, 0.75])
    assert kl_divergence(p, p) == 0.0
    expect = 0.5 * math.log2(2.0) + 0.5 * math.log2(2.0 / 3.0)
    assert kl_divergence(p, q) == pytest.approx(expect, abs=1e-12)
    assert kl_divergence(pmf1("A", [1, 0]), q) == pytest.approx(2.0, abs=1e-12)
    assert kl_divergence(pmf1("A", [1, 0]), pmf1("A", [0.5, 0.5])) == pytest.approx(1.0)
    assert kl_divergence(pmf1("A", [0.5, 0.5]), pmf1("A", [1, 0])) == math.inf


# -- sampling -------------------------------------------------------------------


def cdf_of(pmf):
    """The CDF, 1 from the last cell with mass on."""
    cdf = np.cumsum(pmf)
    cdf[np.flatnonzero(pmf)[-1]:] = 1.0
    return cdf


def uniforms_with_boundaries(rng, cdfs, count):
    """Random uniforms mixed with 0.0 and the CDF values below 1 themselves."""
    edges = np.concatenate([[0.0]] + [c[c < 1.0] for c in cdfs])
    u = rng.random(count)
    pick = rng.random(count) < 0.5
    u[pick] = rng.choice(edges, int(pick.sum()))
    return u


@settings(max_examples=80, deadline=None)
@given(cells=st.integers(1, 6), rows=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_inverse_cdf_matches_searchsorted_right(cells, rows, seed):
    rng = np.random.default_rng(seed)
    weights = rng.integers(0, 3, (rows, cells)).astype(np.float64)  # zero cells on purpose
    weights[np.arange(rows), rng.integers(0, cells, rows)] += 1.0
    pmfs = weights / weights.sum(axis=1, keepdims=True)
    cdfs = [cdf_of(row) for row in pmfs]

    # one shared pmf, uniforms of any shape
    u = uniforms_with_boundaries(rng, cdfs[:1], 24).reshape(2, 3, 4)
    got = inverse_cdf(pmfs[0], u)
    assert np.array_equal(got, np.searchsorted(cdfs[0], u, side="right"))
    assert np.all(pmfs[0][got] > 0)
    assert int(inverse_cdf(pmfs[0], float(u[0, 0, 0]))) == got[0, 0, 0]

    # one pmf per uniform
    which = rng.integers(0, rows, (3, 5))
    u = uniforms_with_boundaries(rng, cdfs, 15).reshape(3, 5)
    got = inverse_cdf(pmfs[which], u)
    expect = np.vectorize(lambda r, x: np.searchsorted(cdfs[r], x, side="right"))(which, u)
    assert np.array_equal(got, expect)
    assert np.all(pmfs[which, got] > 0)


def test_inverse_cdf_never_draws_a_zero_mass_cell_at_the_ends():
    # a 0.0 uniform skips leading zero cells
    assert inverse_cdf(np.array([0.0, 0.0, 1.0]), np.zeros(3)).tolist() == [2, 2, 2]
    assert inverse_cdf(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2)).tolist() == [1, 0]
    # a sum that rounds below 1 leaves no slack to a trailing zero cell
    pmf = np.array([0.1] * 10 + [0.0])
    assert np.cumsum(pmf)[-1] < 1.0
    top = np.nextafter(1.0, 0.0)
    assert inverse_cdf(pmf, top) == 9
    assert inverse_cdf(np.stack([pmf, pmf]), np.array([top, 0.0])).tolist() == [9, 0]


def guide_pmfs():
    """Shared pmfs for the guide-table path, by name: a zero run ends on a
    bucket edge (0.5) or inside a bucket (0.50001); 70000 cells put CDF
    values in every bucket, 4096 equal cells put one on every edge."""
    gap = np.zeros(1000)
    return {
        "chained": chained_model().single_letter_joint().table.reshape(-1),
        "one cell": np.array([1.0]),
        "leading zeros": np.array([0.0, 0.0, 1.0]),
        "zero run to an edge": np.concatenate([[0.5], gap, [0.5]]),
        "zero run off an edge": np.concatenate([[0.50001], gap, [0.49999]]),
        "70000 cells": np.random.default_rng(30).dirichlet(np.ones(70000)),
        "4096 equal cells": np.full(4096, 1 / 4096),
    }


@pytest.mark.parametrize("name", list(guide_pmfs()))
def test_inverse_cdf_guide_table_matches_searchsorted_right(name):
    pmf = guide_pmfs()[name]
    cdf = cdf_of(pmf)
    inner = cdf[cdf < 1.0]
    u = np.concatenate([
        np.random.default_rng(31).random(5000),
        inner, np.nextafter(inner, 0.0),  # on and just below each CDF value
        np.arange(4096) / 4096,  # every bucket edge
        [0.0, 1.0 - 2.0**-53],
    ])
    assert np.array_equal(inverse_cdf(pmf, u), np.searchsorted(cdf, u, side="right"))
    assert np.array_equal(inverse_cdf(pmf, u.reshape(-1, 1)), np.searchsorted(cdf, u, side="right")[:, None])
    for x in (0.0, 0.5, 0.50001, 1.0 - 2.0**-53):
        got = inverse_cdf(pmf, x)
        assert np.ndim(got) == 0 and got == np.searchsorted(cdf, x, side="right")
    assert inverse_cdf(pmf, np.array([])).shape == (0,)


def test_iid_blocks_are_the_unraveled_cells_of_one_draw():
    # an axis over 256 symbols: the symbols are uint16, and each axis holds
    # its coordinate of the flat cell the one rng.random call drew
    rng = np.random.default_rng(17)
    table = rng.dirichlet(np.ones(600)) * (rng.random(600) < 0.7)
    joint = JointPMF((Alphabet("A", 300), Alphabet("B", 2)), (table / table.sum()).reshape(300, 2))
    a, b = iid_blocks(joint, np.random.default_rng(18), 40, 3)
    draws = inverse_cdf(joint.table.reshape(-1), np.random.default_rng(18).random((40, 3)))
    want_a, want_b = np.unravel_index(draws, (300, 2))
    assert a.dtype == b.dtype == np.uint16 and a.shape == b.shape == (40, 3)
    assert np.array_equal(a, want_a) and np.array_equal(b, want_b)


# -- serialization ---------------------------------------------------------------


def test_joint_json_roundtrip_bit_exact():
    rng = np.random.default_rng(9)
    p = random_pmf(rng, (Alphabet("A", 3), Alphabet("B", 2)))
    q = JointPMF.from_json_dict(json.loads(json.dumps(p.to_json_dict())))
    assert q.axis_names == p.axis_names
    assert np.array_equal(q.table, p.table)  # bit-exact


def test_conditional_json_roundtrip_bit_exact():
    rng = np.random.default_rng(10)
    c = random_conditional(rng, (Alphabet("A", 2), Alphabet("B", 3)), (Alphabet("C", 2),))
    c2 = ConditionalPMF.from_json_dict(json.loads(json.dumps(c.to_json_dict())))
    assert np.array_equal(c2.table, c.table)
    assert c2.given_names == c.given_names and c2.out_names == c.out_names


@pytest.mark.parametrize("size", [2.9, True, "2", 0])
def test_json_rejects_alphabet_size_that_is_not_an_int_of_at_least_1(size):
    with pytest.raises(ValueError, match="alphabet"):
        JointPMF.from_json_dict({"axes": [{"name": "A", "size": size}], "table": [1.0]})
    with pytest.raises(ValueError, match="alphabet"):
        ConditionalPMF.from_json_dict({"given_axes": [{"name": "A", "size": size}],
                                       "out_axes": [{"name": "B", "size": 1}], "table": [1.0]})


@pytest.mark.parametrize("table", [
    ["0.5", "0.5"],
    [True, False],
    [0.5, "0.5"],
    [[0.5], 0.5],
], ids=["strings", "bools", "one-string", "ragged"])
def test_json_rejects_table_entry_that_is_not_a_json_number(table):
    with pytest.raises(ValueError, match="JSON numbers"):
        JointPMF.from_json_dict({"axes": [{"name": "A", "size": 2}], "table": table})
    with pytest.raises(ValueError, match="JSON numbers"):
        ConditionalPMF.from_json_dict({"given_axes": [{"name": "A", "size": 1}],
                                       "out_axes": [{"name": "B", "size": 2}], "table": table})


def test_json_reads_int_entries_and_nested_rows():
    c = ConditionalPMF.from_json_dict({"given_axes": [{"name": "A", "size": 2}],
                                       "out_axes": [{"name": "B", "size": 2}], "table": [[1, 0], [0.5, 0.5]]})
    assert c.table.dtype == np.float64 and c.table.tolist() == [[1.0, 0.0], [0.5, 0.5]]


def test_json_schema_shape():
    p = JointPMF.uniform((A,))
    d = json.loads(json.dumps(p.to_json_dict()))
    assert d == {"axes": [{"name": "A", "size": 2}], "table": [0.5, 0.5]}


# -- properties -------------------------------------------------------------------


def test_measures_build_no_pmf(monkeypatch):
    # a pmf is checked where it is built; the measures read the table and build none
    rng = np.random.default_rng(19)
    p = random_pmf(rng, tuple(Alphabet(name, size) for name, size in zip("ABCD", (2, 3, 2, 4))))
    checks = []
    checked = probability._checked_table
    monkeypatch.setattr(probability, "_checked_table", lambda *a: checks.append(a) or checked(*a))
    entropy(p)
    entropy(p, ["D", "B"])
    conditional_entropy(p, ["A", "C"], ["D"])
    mutual_information(p, ["A"], ["B", "D"], ["C"])
    assert checks == []
    marginalize(p, ["A"])
    assert len(checks) == 1


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 3), min_size=1, max_size=4), seed=st.integers(0, 2**32 - 1))
def test_entropy_of_a_marginal_equals_entropy_of_marginalize(sizes, seed):
    # random joints with zero cells: the measure sums the table exactly as
    # marginalize does, for every nonempty axis set in either order
    rng = np.random.default_rng(seed)
    axes = tuple(Alphabet(name, size) for name, size in zip("ABCD", sizes))
    table = rng.dirichlet(np.ones(math.prod(sizes))) * (rng.random(math.prod(sizes)) < 0.6)
    table[rng.integers(table.size)] += 0.5
    p = JointPMF(axes, (table / table.sum()).reshape(sizes))
    names = [a.name for a in axes]
    assert entropy(p) == entropy(p, names)
    for k in range(1, len(names) + 1):
        for keep in itertools.combinations(names, k):
            assert entropy(p, keep) == entropy(marginalize(p, keep))
            assert entropy(p, keep[::-1]) == entropy(marginalize(p, keep))
    with pytest.raises(ValueError, match="nonempty"):
        entropy(p, [])
    with pytest.raises(KeyError):
        entropy(p, ["A", "Z"])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_compose_marginalize_roundtrip(seed):
    rng = np.random.default_rng(seed)
    p = random_pmf(rng, (Alphabet("A", 3), Alphabet("B", 2)))
    c = random_conditional(rng, (Alphabet("A", 3),), (Alphabet("C", 4),))
    back = marginalize(compose(p, c), ["A", "B"])
    assert np.allclose(back.table, p.table, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_entropy_bounds(seed):
    rng = np.random.default_rng(seed)
    p = random_pmf(rng, (Alphabet("A", 5),))
    h = entropy(p)
    assert -1e-12 <= h <= math.log2(5) + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_mutual_information_nonnegative(seed):
    rng = np.random.default_rng(seed)
    p = random_pmf(rng, (Alphabet("A", 3), Alphabet("B", 2), Alphabet("C", 2)))
    assert mutual_information(p, ["A"], ["B"], ["C"]) >= 0.0
