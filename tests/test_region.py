import hashlib
import json
import math

import numpy as np
import pytest

from coordsim.bundled import (
    binary_symmetric_channel,
    bsc_target,
    planted_target,
    planted_witness,
)
from coordsim.probability import (
    Alphabet,
    ConditionalPMF,
    JointPMF,
    compose,
    condition,
    conditional_entropy,
    entropy,
    marginalize,
    mutual_information,
    total_variation,
)
from coordsim import region
from coordsim.region import (
    AuxiliaryDecomposition,
    CoordinationTarget,
    EmptyWindow,
    FactorizationError,
    binning_rate_ledger,
    cardinality_bound,
    check_target_factorization,
    empirical_region_check,
    evaluate,
    induced_joint,
    search_auxiliary,
)

U, X, Y, V, W = (Alphabet(n, 2) for n in "UXYVW")


def rand_rows(rng, gshape, osize):
    rows = rng.dirichlet(np.ones(osize), size=int(np.prod(gshape)))
    return rows.reshape(tuple(gshape) + (osize,))


def rand_aux(rng, w_size=2):
    return AuxiliaryDecomposition(
        w_size,
        ConditionalPMF((U, X), (Alphabet("W", w_size),), rand_rows(rng, (2, 2), w_size)),
        ConditionalPMF((Alphabet("W", w_size), Y), (V,), rand_rows(rng, (w_size, 2), 2)),
    )


def rand_target(rng, crossover=0.1):
    return CoordinationTarget(
        p_u=JointPMF((U,), rng.dirichlet([2.0, 2.0])),
        p_x=JointPMF((X,), rng.dirichlet([2.0, 2.0])),
        channel=binary_symmetric_channel(crossover),
        action_rule=ConditionalPMF((U, X, Y), (V,), rand_rows(rng, (2, 2, 2), 2)),
    )


def constant_w_aux(v_given_y):
    w1 = Alphabet("W", 1)
    w_rule = ConditionalPMF((U, X), (w1,), np.ones((2, 2, 1)))
    v_rule = ConditionalPMF((w1, Y), (V,), v_given_y.reshape(1, 2, 2))
    return AuxiliaryDecomposition(1, w_rule, v_rule)


def test_target_composes_its_joint_once_at_construction():
    t = rand_target(np.random.default_rng(3))
    assert t.joint() is t.joint()
    j = compose(compose(JointPMF.product(t.p_u, t.p_x), t.channel), t.action_rule)
    assert t.joint().axis_names == ("U", "X", "Y", "V") and np.array_equal(t.joint().table, j.table)
    u3 = Alphabet("U", 3)
    with pytest.raises(ValueError, match="shape mismatch on axis 'U'"):
        CoordinationTarget(t.p_u, t.p_x, t.channel, ConditionalPMF((u3, X, Y), (V,), np.full((3, 2, 2, 2), 0.5)))


# -- factorization check --------------------------------------------------------


def test_factorization_roundtrip():
    t = bsc_target()
    t2 = check_target_factorization(t.joint(), t.channel)
    assert t2.joint().axis_names == t.joint().axis_names
    assert np.allclose(t2.joint().table, t.joint().table, rtol=0.0, atol=1e-12)
    assert np.allclose(t2.p_u.table, t.p_u.table)


def test_factorization_rejects_correlated_ux():
    # I(U;X) = 0.1 by mixing a diagonal with a product
    p_uxyv = np.zeros((2, 2, 2, 2))
    diag = np.array([[0.5, 0.0], [0.0, 0.5]])
    prod = np.full((2, 2), 0.25)
    lam = 0.55
    p_ux = lam * diag + (1 - lam) * prod
    ch = np.array([[0.9, 0.1], [0.1, 0.9]])
    for u in range(2):
        for x in range(2):
            for y in range(2):
                p_uxyv[u, x, y, :] = p_ux[u, x] * ch[x, y] * 0.5
    joint = JointPMF((U, X, Y, V), p_uxyv)
    with pytest.raises(FactorizationError) as err:
        check_target_factorization(joint, binary_symmetric_channel(0.1))
    assert "independence" in str(err.value)
    assert err.value.magnitude > 0.05


def test_factorization_rejects_wrong_channel():
    t = bsc_target(crossover=0.1)
    with pytest.raises(FactorizationError) as err:
        check_target_factorization(t.joint(), binary_symmetric_channel(0.2))
    assert "channel" in str(err.value)
    assert err.value.magnitude == pytest.approx(0.2, abs=1e-12)  # per-row TV 2*|0.1-0.2|


# -- induced joint ---------------------------------------------------------------


def test_induced_constant_w_gives_v_given_y():
    rng = np.random.default_rng(0)
    t = rand_target(rng)
    v_rows = rand_rows(rng, (2,), 2)
    aux = constant_w_aux(v_rows)
    ind = induced_joint(t, aux)
    got = condition(marginalize(ind, ["U", "X", "Y", "V"]), ["V"], ["Y"])
    assert np.allclose(got.table, v_rows, atol=1e-12)


def test_induced_deterministic_w_copy_of_x():
    rng = np.random.default_rng(1)
    t = rand_target(rng)
    copy = np.zeros((2, 2, 2))
    copy[:, 0, 0] = 1.0
    copy[:, 1, 1] = 1.0
    aux = AuxiliaryDecomposition(
        2,
        ConditionalPMF((U, X), (W,), copy),
        ConditionalPMF((W, Y), (V,), rand_rows(rng, (2, 2), 2)),
    )
    ind = induced_joint(t, aux)
    assert mutual_information(ind, ["W"], ["Y"], ["X"]) == pytest.approx(0.0, abs=1e-10)


def test_induced_elementwise_product_oracle():
    rng = np.random.default_rng(2)
    t = rand_target(rng)
    aux = rand_aux(rng)
    ind = induced_joint(t, aux)
    assert ind.axis_names == ("U", "X", "W", "Y", "V")
    q = aux.p_w_given_ux.table
    r = aux.p_v_given_wy.table
    ch = t.channel.table
    expect = np.zeros((2, 2, 2, 2, 2))
    for u in range(2):
        for x in range(2):
            for w in range(2):
                for y in range(2):
                    for v in range(2):
                        expect[u, x, w, y, v] = (
                            t.p_u.table[u] * t.p_x.table[x] * q[u, x, w] * ch[x, y] * r[w, y, v]
                        )
    assert np.allclose(ind.table, expect, atol=1e-15)


def test_induced_markov_structure():
    rng = np.random.default_rng(3)
    for _ in range(20):
        ind = induced_joint(rand_target(rng), rand_aux(rng))
        assert mutual_information(ind, ["W"], ["Y"], ["X"]) <= 1e-10
        assert mutual_information(ind, ["U"], ["X"]) <= 1e-10


# -- evaluate --------------------------------------------------------------------


def test_evaluate_constant_w_self_target():
    rng = np.random.default_rng(4)
    aux = constant_w_aux(rand_rows(rng, (2,), 2))
    base = rand_target(rng)
    ind = induced_joint(base, aux)
    target = check_target_factorization(marginalize(ind, ["U", "X", "Y", "V"]), base.channel)
    verdict = evaluate(target, aux)
    assert verdict.feasible
    assert verdict.residual <= 1e-12
    assert verdict.outer_rate == pytest.approx(0.0, abs=1e-10)
    # derived on the induced joint: inner rate reduces to H(X|Y)
    assert verdict.inner_rate == pytest.approx(conditional_entropy(ind, ["X"], ["Y"]), abs=1e-10)


def test_evaluate_infeasible_info_constraint():
    # W a copy of U over a nearly useless channel: I(W;U|X) >> I(X;Y)
    rng = np.random.default_rng(5)
    copy_u = np.zeros((2, 2, 2))
    copy_u[0, :, 0] = 1.0
    copy_u[1, :, 1] = 1.0
    aux = AuxiliaryDecomposition(
        2,
        ConditionalPMF((U, X), (W,), copy_u),
        ConditionalPMF((W, Y), (V,), rand_rows(rng, (2, 2), 2)),
    )
    base = CoordinationTarget(
        p_u=JointPMF.uniform((U,)),
        p_x=JointPMF.uniform((X,)),
        channel=binary_symmetric_channel(0.45),
        action_rule=ConditionalPMF((U, X, Y), (V,), rand_rows(rng, (2, 2, 2), 2)),
    )
    ind = induced_joint(base, aux)
    target = check_target_factorization(marginalize(ind, ["U", "X", "Y", "V"]), base.channel)
    verdict = evaluate(target, aux)
    assert verdict.info_slack < -0.5
    assert not verdict.feasible
    assert not empirical_region_check(target, aux)


def test_evaluate_self_witness_residual():
    t = planted_target()
    verdict = evaluate(t, planted_witness())
    assert verdict.residual <= 1e-12
    assert verdict.feasible


# -- equivalent constraint --------------------------------------------------------


def equivalent_constraint(ind):
    """(I(W;U|X), I(X;Y)) on an induced joint, after checking that
    I(WX;Y) - I(WX;U) equals I(X;Y) - I(W;U|X)."""
    lhs = mutual_information(ind, ["W"], ["U"], ["X"])
    rhs = mutual_information(ind, ["X"], ["Y"])
    direct = mutual_information(ind, ["W", "X"], ["Y"]) - mutual_information(ind, ["W", "X"], ["U"])
    assert abs(direct - (rhs - lhs)) <= 1e-9
    return lhs, rhs


def test_equivalent_constraint_examples():
    rng = np.random.default_rng(6)
    t = rand_target(rng)
    aux = constant_w_aux(rand_rows(rng, (2,), 2))
    lhs, _ = equivalent_constraint(induced_joint(t, aux))
    assert lhs == pytest.approx(0.0, abs=1e-10)

    noiseless = CoordinationTarget(
        p_u=JointPMF.uniform((U,)),
        p_x=JointPMF.uniform((X,)),
        channel=binary_symmetric_channel(0.0),
        action_rule=ConditionalPMF((U, X, Y), (V,), rand_rows(rng, (2, 2, 2), 2)),
    )
    _, rhs = equivalent_constraint(induced_joint(noiseless, rand_aux(rng)))
    assert rhs == pytest.approx(1.0, abs=1e-10)


def test_equivalent_constraint_chain_rule_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        ind = induced_joint(rand_target(rng), rand_aux(rng))
        lhs, rhs = equivalent_constraint(ind)
        lhs_oracle = conditional_entropy(ind, ["W"], ["X"]) - conditional_entropy(
            ind, ["W"], ["U", "X"]
        )
        rhs_oracle = entropy(ind, ["X"]) - conditional_entropy(ind, ["X"], ["Y"])
        assert lhs == pytest.approx(lhs_oracle, abs=1e-10)
        assert rhs == pytest.approx(rhs_oracle, abs=1e-10)


# -- region invariants -------------------------------------------------------------


def test_inner_minus_outer_is_residual_entropy():
    rng = np.random.default_rng(8)
    for _ in range(25):
        t = rand_target(rng)
        aux = rand_aux(rng)
        verdict = evaluate(t, aux)
        ind = induced_joint(t, aux)
        gap = conditional_entropy(ind, ["X"], ["W", "Y"])
        assert verdict.inner_rate - verdict.outer_rate == pytest.approx(gap, abs=1e-10)
        assert gap >= -1e-12


def test_feasible_witness_accepted_by_empirical_region():
    t = planted_target()
    aux = planted_witness()
    assert evaluate(t, aux).feasible
    assert empirical_region_check(t, aux)


def test_empirical_region_boundary_closure():
    # W = U copy over a noiseless channel with uniform X: I(W;U|X) == I(X;Y) == 1
    rng = np.random.default_rng(9)
    copy_u = np.zeros((2, 2, 2))
    copy_u[0, :, 0] = 1.0
    copy_u[1, :, 1] = 1.0
    aux = AuxiliaryDecomposition(
        2,
        ConditionalPMF((U, X), (W,), copy_u),
        ConditionalPMF((W, Y), (V,), rand_rows(rng, (2, 2), 2)),
    )
    base = CoordinationTarget(
        p_u=JointPMF.uniform((U,)),
        p_x=JointPMF.uniform((X,)),
        channel=binary_symmetric_channel(0.0),
        action_rule=ConditionalPMF((U, X, Y), (V,), rand_rows(rng, (2, 2, 2), 2)),
    )
    ind = induced_joint(base, aux)
    target = check_target_factorization(marginalize(ind, ["U", "X", "Y", "V"]), base.channel)
    verdict = evaluate(target, aux)
    assert abs(verdict.info_slack) <= 1e-10
    assert empirical_region_check(target, aux)


# -- search ------------------------------------------------------------------------


def test_search_recovers_constant_w_witness():
    rng = np.random.default_rng(10)
    aux = constant_w_aux(rand_rows(rng, (2,), 2))
    base = rand_target(rng)
    ind = induced_joint(base, aux)
    target = check_target_factorization(marginalize(ind, ["U", "X", "Y", "V"]), base.channel)
    verdict = search_auxiliary(target, w_size=1, restarts=5, seed=11)
    assert verdict.feasible
    assert verdict.residual <= 1e-6


def test_search_recovers_planted_binary_witness():
    target = planted_target()
    planted = evaluate(target, planted_witness())
    verdict = search_auxiliary(target, w_size=2, restarts=8, seed=12)
    assert verdict.feasible
    assert verdict.residual <= 1e-4
    assert abs(verdict.inner_rate - planted.inner_rate) <= 0.05


def test_search_deterministic_action_plant():
    # a deterministic V = f(W, Y) plant: still recovered to machine precision,
    # and the returned witness never costs more than the plant (it may cost
    # less: planted witnesses are not rate-minimal in general; measured
    # ~0.21 bits cheaper for this one)
    rng = np.random.default_rng(18)
    w_rule = np.empty((2, 2, 2))
    w_rule[0, 0] = [0.9, 0.1]
    w_rule[0, 1] = [0.75, 0.25]
    w_rule[1, 0] = [0.25, 0.75]
    w_rule[1, 1] = [0.1, 0.9]
    v_det = np.zeros((2, 2, 2))
    for w in range(2):
        for y in range(2):
            v_det[w, y, w ^ y] = 1.0
    aux = AuxiliaryDecomposition(
        2, ConditionalPMF((U, X), (W,), w_rule), ConditionalPMF((W, Y), (V,), v_det)
    )
    base = CoordinationTarget(
        p_u=JointPMF.uniform((U,)),
        p_x=JointPMF.uniform((X,)),
        channel=binary_symmetric_channel(0.05),
        action_rule=ConditionalPMF((U, X, Y), (V,), rand_rows(rng, (2, 2, 2), 2)),
    )
    ind = induced_joint(base, aux)
    target = check_target_factorization(marginalize(ind, ["U", "X", "Y", "V"]), base.channel)
    planted = evaluate(target, aux)
    verdict = search_auxiliary(target, w_size=2, restarts=12, seed=19)
    assert verdict.feasible
    assert verdict.residual <= 1e-6
    assert verdict.inner_rate <= planted.inner_rate + 0.05


def test_search_w1_bounded_away_from_zero_on_planted_target():
    target = planted_target()
    # with |W| = 1 the model family is exactly {P(V|Y)}: grid it as the oracle
    tgt = target.joint()
    grid = np.linspace(0.0, 1.0, 41)
    best = math.inf
    for a in grid:
        for b in grid:
            rows = np.array([[1 - a, a], [1 - b, b]])
            aux = constant_w_aux(rows)
            ind = marginalize(induced_joint(target, aux), ["U", "X", "Y", "V"])
            best = min(best, total_variation(ind, tgt))
    assert best > 0.01
    verdict = search_auxiliary(target, w_size=1, restarts=6, seed=13)
    assert not verdict.feasible
    assert verdict.residual >= best - 5e-3


def test_search_infeasible_target_at_every_w():
    # V = U over a nearly useless channel: any witness that reproduces the
    # action must carry the source through W, violating the information
    # constraint; factorization-perfect witnesses exist but none is feasible
    copy_u = np.zeros((2, 2, 2, 2))
    copy_u[0, :, :, 0] = 1.0
    copy_u[1, :, :, 1] = 1.0
    target = CoordinationTarget(
        p_u=JointPMF.uniform((U,)),
        p_x=JointPMF.uniform((X,)),
        channel=binary_symmetric_channel(0.45),
        action_rule=ConditionalPMF((U, X, Y), (V,), copy_u),
    )
    for w_size in (1, 2, 3):
        verdict = search_auxiliary(target, w_size, restarts=4, seed=20)
        assert not verdict.feasible
        if verdict.residual <= 1e-6:
            assert verdict.info_slack < -0.5  # reproduced the action, broke the constraint


def test_search_deterministic_given_seed():
    target = planted_target()
    a = search_auxiliary(target, 2, restarts=3, seed=77)
    b = search_auxiliary(target, 2, restarts=3, seed=77)
    assert a.residual == b.residual
    assert a.inner_rate == b.inner_rate
    assert np.array_equal(a.witness.p_w_given_ux.table, b.witness.p_w_given_ux.table)


def test_search_rejects_oversized_w():
    target = planted_target()
    # |U||X||Y||V| + 4
    assert [cardinality_bound(PINNED_TARGETS[name]()) for name in ("planted", "small31")] == [20, 40]
    with pytest.raises(ValueError, match="cardinality"):
        search_auxiliary(target, w_size=cardinality_bound(target) + 1, restarts=1)
    with pytest.raises(ValueError, match="restarts"):
        search_auxiliary(target, w_size=1, restarts=0)


def small_target(seed, sizes):
    """A random target over alphabets of the given (|U|, |X|, |Y|, |V|)."""
    rng = np.random.default_rng(seed)
    su, sx, sy, sv = sizes
    u, x, y, v = (Alphabet(name, k) for name, k in zip("UXYV", sizes))
    return CoordinationTarget(
        p_u=JointPMF((u,), rng.dirichlet(np.ones(su))),
        p_x=JointPMF((x,), rng.dirichlet(np.ones(sx))),
        channel=ConditionalPMF((x,), (y,), rng.dirichlet(np.ones(sy), size=sx)),
        action_rule=ConditionalPMF((u, x, y), (v,), rng.dirichlet(np.ones(sv), size=(su, sx, sy))),
    )


def verdict_digest(verdict):
    # JSON floats are written with repr, so the digest pins every bit
    return hashlib.sha256(json.dumps(verdict.to_json_dict(), sort_keys=True).encode()).hexdigest()


# Digests of the verdicts of the lockstep search; each restart's fit in the
# batch is its fit alone (the lockstep test below), so they are those of
# running the restarts one after another.
PINNED_VERDICTS = [
    ("planted", 1, 32, 0, "d738dba37415d77239582d2c88b01f3e25568d97711e3ed7a2d6394a9cf2e9df"),
    ("planted", 2, 32, 0, "f854140dd8f6e19d65cd22fe183b9fc3ab9d04c9f33b5d35a843bdbaa81c2bdc"),
    # the one pin feasible at |W| = 1: all eight restarts reach the target
    ("bsc", 1, 8, 0, "755c4dd868dc3de378e6b119780304cb283fc261179868536f9f53feac467c8a"),
    ("small31", 1, 6, 5, "cf57e813bb6361f223f54c42cfce8900b48a2c8759160386a1bfa9fed632e256"),
    ("small31", 2, 6, 5, "8ef92466633e1554134ad7c90be28bf61e2965b489689c75c911a95d1d7ae17a"),
    ("small31", 3, 6, 5, "a8957aeba71dc41f0dbf5e9cea855b35275c46ce7a4596011b84220bcf9ff51b"),
    ("small32", 1, 6, 5, "5ac356a7c9ddd27820ec9a3d46288225c320b6c4e32e473c541d62039d22d931"),
    ("small32", 2, 6, 5, "db72f272ca3335043fc30ea479704af8abcdaa6fa4d26957e3b92014f2e21021"),
    ("small32", 3, 6, 5, "ba30b030b0cdec40144b1b285d625b1d71aff8540e2f22e54258a0e095cb6444"),
]

PINNED_TARGETS = {
    "planted": planted_target,
    "bsc": bsc_target,
    "small31": lambda: small_target(31, (3, 2, 3, 2)),
    "small32": lambda: small_target(32, (2, 3, 2, 3)),
}


@pytest.mark.parametrize(
    "name,w_size,restarts,seed,digest", PINNED_VERDICTS, ids=[f"{n}-{w}-{r}-{s}" for n, w, r, s, _ in PINNED_VERDICTS]
)
def test_search_pinned_verdicts(name, w_size, restarts, seed, digest):
    verdict = search_auxiliary(PINNED_TARGETS[name](), w_size, restarts=restarts, seed=seed)
    assert verdict_digest(verdict) == digest


@pytest.mark.parametrize("name", sorted(PINNED_TARGETS))
@pytest.mark.parametrize("w_size", [1, 2, 3])
def test_softmax_fit_jacobian_matches_central_differences(name, w_size):
    # |W| = 1 leaves the q block without free logits: its Jacobian block is empty
    target = PINNED_TARGETS[name]()
    tgt = target.joint().table
    nu, nx, ny, nv = tgt.shape
    pu, px, ch = target.p_u.table, target.p_x.table, target.channel.table
    c = pu[:, None, None] * px[None, :, None] * ch[None]
    rng = np.random.default_rng(41 + w_size)
    zq = rng.normal(size=(3, nu, nx, w_size - 1))
    zr = rng.normal(size=(3, w_size, ny, nv - 1))
    masks = region._fit_masks(*tgt.shape)
    resid, jac = region._softmax_fit(c, tgt, zq, zr, masks)
    q, r = region._softmax_rows(zq), region._softmax_rows(zr)
    induced = np.einsum("u,x,xy,...uxw,...wyv->...uxyv", pu, px, ch, q, r)
    assert np.allclose(resid, (induced - tgt).reshape(3, -1), rtol=0.0, atol=1e-15)
    theta = np.concatenate([zq.reshape(3, -1), zr.reshape(3, -1)], axis=1)
    nq = zq[0].size
    assert jac.shape == (3, tgt.size, theta.shape[1])

    def resid_at(th):
        return region._softmax_fit(c, tgt, th[:, :nq].reshape(zq.shape), th[:, nq:].reshape(zr.shape), masks)[0]

    h = 1e-6
    for k in range(theta.shape[1]):
        e = np.zeros(theta.shape[1])
        e[k] = h
        central = (resid_at(theta + e) - resid_at(theta - e)) / (2 * h)
        # measured: at most 3.2e-11 over these cases
        assert np.abs(jac[:, :, k] - central).max() <= 1e-9


def test_polish_lockstep_matches_one_restart_at_a_time(monkeypatch):
    live = []  # restarts still iterating, per residual evaluation
    fit = region._softmax_fit
    monkeypatch.setattr(region, "_softmax_fit", lambda c, tgt, zq, *rest: live.append(len(zq)) or fit(c, tgt, zq, *rest))
    for name, w_size in [("planted", 1), ("planted", 2), ("small31", 3)]:
        target = PINNED_TARGETS[name]()
        nu, nx, ny, nv = target.joint().table.shape
        rng = np.random.default_rng(42)
        q = rng.dirichlet(np.ones(w_size), size=(8, nu, nx))
        r = rng.dirichlet(np.ones(nv), size=(8, w_size, ny))
        live.clear()
        batch_q, batch_r = region.least_squares(target, q, r)
        # restarts stop at different iterations, so stopped and live ones share the batch
        assert 0 < min(live) < len(q)
        for i in range(len(q)):
            one_q, one_r = region.least_squares(target, q[i : i + 1], r[i : i + 1])
            assert np.array_equal(batch_q[i], one_q[0]) and np.array_equal(batch_r[i], one_r[0])
        assert np.allclose(batch_q.sum(axis=-1), 1.0) and np.allclose(batch_r.sum(axis=-1), 1.0)


def fitted_starts(target, w_size, restarts, seed):
    """The rows the search fits: restart i's Dirichlet start drawn from the
    i-th child of SeedSequence(seed), all fitted in one batch."""
    nu, nx, ny, nv = target.joint().table.shape
    q, r = [], []
    for ss in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(ss)
        q.append(rng.dirichlet(np.ones(w_size), size=(nu, nx)))
        r.append(rng.dirichlet(np.ones(nv), size=(w_size, ny)))
    return region.least_squares(target, np.array(q), np.array(r))


def witness_of(target, q, r):
    w = Alphabet("W", q.shape[-1])
    return AuxiliaryDecomposition(
        q.shape[-1],
        ConditionalPMF(target.p_u.axes + target.p_x.axes, (w,), q / q.sum(axis=-1, keepdims=True)),
        ConditionalPMF((w,) + target.channel.out_axes, target.action_rule.out_axes, r / r.sum(axis=-1, keepdims=True)),
    )


def test_search_reports_spread_over_feasible_restarts():
    # the oracle: each of the search's 32 fitted witnesses scored alone by evaluate
    target = planted_target()
    scored = [evaluate(target, witness_of(target, q, r)) for q, r in zip(*fitted_starts(target, 2, 32, 0))]
    feasible = [v for v in scored if v.feasible]
    rates = [v.inner_rate for v in feasible]
    # measured: 14 of the 32 restarts are feasible, at inner rates 0.8804 to 1.0467
    assert 1 < len(rates) < 32
    verdict = search_auxiliary(target, 2, restarts=32, seed=0)
    assert verdict.feasible_restarts == len(rates)
    assert verdict.inner_rate_range == (min(rates), max(rates))
    assert verdict.inner_rate == min(rates) < max(rates)
    best = min(feasible, key=lambda v: (v.inner_rate, v.residual)).to_json_dict()
    best.update(feasible_restarts=len(rates), inner_rate_range=[min(rates), max(rates)])
    report = verdict.to_json_dict()
    assert json.dumps(report) == json.dumps(best)  # every float bit
    # a verdict on one witness keeps its JSON form
    assert "feasible_restarts" not in evaluate(target, verdict.witness).to_json_dict()
    infeasible = search_auxiliary(target, 1, restarts=4, seed=0).to_json_dict()
    assert infeasible["feasible_restarts"] == 0 and infeasible["inner_rate_range"] is None


def test_search_builds_only_the_returned_witness(monkeypatch):
    built = []

    class Counted(AuxiliaryDecomposition):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(region, "AuxiliaryDecomposition", Counted)
    verdict = search_auxiliary(planted_target(), 2, restarts=32, seed=0)
    assert built == [verdict.witness]


def sparse_rows(rng, shape, size):
    """Dirichlet rows over ``size`` outcomes with about a third of the cells
    set to zero; a row left empty puts its mass on outcome 0."""
    rows = rng.dirichlet(np.ones(size), size=shape)
    rows[rng.random(rows.shape) < 1 / 3] = 0.0
    rows[..., 0] += rows.sum(axis=-1) == 0
    return rows / rows.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("w_size", [1, 2, 3])
def test_batched_scores_equal_evaluate_per_restart(w_size):
    # evaluate is the one-restart case of the batch; each restart's scores
    # must not depend on the rest of it, and must be those of the induced
    # joint's measures, to the bit, on targets and witnesses with zero cells
    rng = np.random.default_rng(2900 + w_size)
    for _ in range(20):
        sizes = rng.integers(1, 4, size=4)
        u, x, y, v = (Alphabet(name, int(k)) for name, k in zip("UXYV", sizes))
        target = CoordinationTarget(
            p_u=JointPMF((u,), sparse_rows(rng, (), u.size)),
            p_x=JointPMF((x,), sparse_rows(rng, (), x.size)),
            channel=ConditionalPMF((x,), (y,), sparse_rows(rng, (x.size,), y.size)),
            action_rule=ConditionalPMF((u, x, y), (v,), sparse_rows(rng, (u.size, x.size, y.size), v.size)),
        )
        auxes = [
            witness_of(target, sparse_rows(rng, (u.size, x.size), w_size), sparse_rows(rng, (w_size, y.size), v.size))
            for _ in range(5)
        ]
        q = np.stack([aux.p_w_given_ux.table for aux in auxes])
        r = np.stack([aux.p_v_given_wy.table for aux in auxes])
        batch = [a.tolist() for a in region._score(target, q, r, region.DEFAULT_TOL)]
        for i, aux in enumerate(auxes):
            verdict = evaluate(target, aux)
            ind = induced_joint(target, aux)
            residual = total_variation(marginalize(ind, ["U", "X", "Y", "V"]), target.joint())
            slack = mutual_information(ind, ["W", "X"], ["Y"]) - mutual_information(ind, ["W", "X"], ["U"])
            outer = mutual_information(ind, ["W"], ["U", "X", "V"], ["Y"])
            inner = outer + conditional_entropy(ind, ["X"], ["W", "Y"])
            oracle = (residual <= region.DEFAULT_TOL and slack >= -region.INFO_SLACK_TOL, residual, slack, inner, outer)
            scores = (verdict.feasible, verdict.residual, verdict.info_slack, verdict.inner_rate, verdict.outer_rate)
            assert repr(scores) == repr(oracle) == repr(tuple(a[i] for a in batch))


def test_evaluate_rejects_a_witness_of_other_alphabets():
    aux = witness_of(bsc_target(), np.full((2, 2, 3), 1 / 3), np.full((3, 2, 2), 0.5))
    with pytest.raises(ValueError, match="do not fit"):
        evaluate(small_target(31, (3, 2, 3, 2)), aux)


# -- rate ledger --------------------------------------------------------------------


def test_ledger_constant_w():
    rng = np.random.default_rng(14)
    aux = constant_w_aux(rand_rows(rng, (2,), 2))
    base = rand_target(rng)
    ind = induced_joint(base, aux)
    target = check_target_factorization(marginalize(ind, ["U", "X", "Y", "V"]), base.channel)
    ledger = binning_rate_ledger(target, aux)
    h_x_y = conditional_entropy(ind, ["X"], ["Y"])
    assert ledger.r0_bound == pytest.approx(h_x_y, abs=1e-10)
    for rate in ("R3", "R4", "Rf"):
        assert ledger.assignment[rate] == pytest.approx(0.0, abs=1e-8)


def test_ledger_matches_evaluate_inner_rate():
    rng = np.random.default_rng(15)
    for _ in range(15):
        t = rand_target(rng)
        aux = rand_aux(rng)
        if evaluate(t, aux).info_slack < 0.02:
            continue  # ledger windows need headroom; constraint-violating points raise
        ledger = binning_rate_ledger(t, aux)
        verdict = evaluate(t, aux)
        assert ledger.r0_bound == pytest.approx(verdict.inner_rate, abs=1e-9)


def test_ledger_empty_window_when_constraint_violated():
    rng = np.random.default_rng(16)
    copy_u = np.zeros((2, 2, 2))
    copy_u[0, :, 0] = 1.0
    copy_u[1, :, 1] = 1.0
    aux = AuxiliaryDecomposition(
        2,
        ConditionalPMF((U, X), (W,), copy_u),
        ConditionalPMF((W, Y), (V,), rand_rows(rng, (2, 2), 2)),
    )
    target = CoordinationTarget(
        p_u=JointPMF.uniform((U,)),
        p_x=JointPMF.uniform((X,)),
        channel=binary_symmetric_channel(0.45),
        action_rule=ConditionalPMF((U, X, Y), (V,), rand_rows(rng, (2, 2, 2), 2)),
    )
    with pytest.raises(EmptyWindow):
        binning_rate_ledger(target, aux)


def test_non_binary_alphabets_supported():
    # |Y| = 3, |W| = 3: evaluation, search, and the ledger are size-generic
    rng = np.random.default_rng(21)
    Y3 = Alphabet("Y", 3)
    W3 = Alphabet("W", 3)
    channel = ConditionalPMF((X,), (Y3,), rand_rows(rng, (2,), 3))
    aux = AuxiliaryDecomposition(
        3,
        ConditionalPMF((U, X), (W3,), rand_rows(rng, (2, 2), 3)),
        ConditionalPMF((W3, Y3), (V,), rand_rows(rng, (3, 3), 2)),
    )
    base = CoordinationTarget(
        p_u=JointPMF((U,), rng.dirichlet([2.0, 2.0])),
        p_x=JointPMF((X,), rng.dirichlet([2.0, 2.0])),
        channel=channel,
        action_rule=ConditionalPMF((U, X, Y3), (V,), rand_rows(rng, (2, 2, 3), 2)),
    )
    ind = induced_joint(base, aux)
    target = check_target_factorization(marginalize(ind, ["U", "X", "Y", "V"]), channel)
    self_verdict = evaluate(target, aux)
    assert self_verdict.residual <= 1e-12
    found = search_auxiliary(target, w_size=3, restarts=6, seed=22)
    assert found.residual <= 1e-4
    if self_verdict.feasible:
        ledger = binning_rate_ledger(target, aux)
        assert ledger.r0_bound == pytest.approx(self_verdict.inner_rate, abs=1e-9)


def test_ledger_window_sweep_noiseless_channel():
    # W = U copy over a noiseless channel: admissible iff H(U) < 1 strictly
    rng = np.random.default_rng(17)
    copy_u = np.zeros((2, 2, 2))
    copy_u[0, :, 0] = 1.0
    copy_u[1, :, 1] = 1.0
    aux = AuxiliaryDecomposition(
        2,
        ConditionalPMF((U, X), (W,), copy_u),
        ConditionalPMF((W, Y), (V,), rand_rows(rng, (2, 2), 2)),
    )
    for pu in (0.1, 0.25, 0.4):
        target = CoordinationTarget(
            p_u=JointPMF((U,), np.array([1 - pu, pu])),
            p_x=JointPMF.uniform((X,)),
            channel=binary_symmetric_channel(0.0),
            action_rule=ConditionalPMF((U, X, Y), (V,), rand_rows(rng, (2, 2, 2), 2)),
        )
        binning_rate_ledger(target, aux)  # nonempty windows
    boundary = CoordinationTarget(
        p_u=JointPMF.uniform((U,)),
        p_x=JointPMF.uniform((X,)),
        channel=binary_symmetric_channel(0.0),
        action_rule=ConditionalPMF((U, X, Y), (V,), rand_rows(rng, (2, 2, 2), 2)),
    )
    with pytest.raises(EmptyWindow):
        binning_rate_ledger(boundary, aux)
