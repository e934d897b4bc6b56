"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Three clauses are expected to fail, for verified reasons that are
properties of the quantities themselves, not of this implementation:

* Criterion 4 (first clause) and criterion 10 encode asymptotic index-set
  cardinality limits.  At every laptop-feasible blocklength the thresholded
  sets retain a partially polarized fraction (measured ~0.11-0.15 above the
  limit from n=1024 through n=32768, shrinking only a few thousandths per
  octave), so both checks fail by construction of the finite-length scheme.
* Criterion 11 (extraction clause): with bins fixed at 2^ceil(n*0.2), all of
  n = 4, 8, 12 extract at effective rate 1/4, and the binning-averaged KL is
  genuinely non-monotone there (0.3703 +- 0.0017, 0.3984 +- 0.0005,
  0.3651 +- 0.0002 over 2000/800/150 replicates): the decay margin
  H_2(B|A) - 1/4 ~ 0.036 bits/symbol is too small for monotonicity by
  n = 12.  The per-symbol KL rate does decrease strictly (0.093, 0.050,
  0.030), as does the total KL for sources with a larger margin (see the
  unit suite).

Every other clause and criterion passes.  The README carries the summary
analysis.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import chi2

from coordsim.binning import RandomBinning, dsbs, extraction_kl, verify_lemma_regimes
from coordsim.bundled import bsc_model, planted_target, planted_witness
from coordsim.codec import chi_square_conditional, run_end_to_end
from coordsim.construction import (
    PolarParams,
    build_index_sets,
    divergence_certificate,
    estimate_profile,
)
from coordsim.probability import (
    Alphabet,
    ConditionalPMF,
    JointPMF,
    compose,
    condition,
    conditional_entropy,
    entropy,
    kl_divergence,
    marginalize,
    total_variation,
)
from coordsim.region import (
    AuxiliaryDecomposition,
    CoordinationTarget,
    binning_rate_ledger,
    check_target_factorization,
    empirical_region_check,
    evaluate,
    induced_joint,
    search_auxiliary,
)

H_01 = 0.46899559358928117  # binary entropy of 0.1, frozen closed form

U, X, Y, V, W = (Alphabet(n, 2) for n in "UXYVW")


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} -- {detail}")
    return ok


def rand_pmf(rng, axes):
    shape = tuple(a.size for a in axes)
    return JointPMF(axes, rng.dirichlet(np.ones(math.prod(shape))).reshape(shape))


def rand_channel(rng, given, out):
    g = math.prod(a.size for a in given)
    o = math.prod(a.size for a in out)
    rows = rng.dirichlet(np.ones(o), size=g)
    return ConditionalPMF(given, out, rows.reshape(tuple(a.size for a in given) + tuple(a.size for a in out)))


def rand_target(rng):
    return CoordinationTarget(
        p_u=rand_pmf(rng, (U,)),
        p_x=rand_pmf(rng, (X,)),
        channel=rand_channel(rng, (X,), (Y,)),
        action_rule=rand_channel(rng, (U, X, Y), (V,)),
    )


def rand_aux(rng):
    return AuxiliaryDecomposition(
        2, rand_channel(rng, (U, X), (W,)), rand_channel(rng, (W, Y), (V,))
    )


# -- shared constructions (computed once) -----------------------------------------------


@pytest.fixture(scope="module")
def bundled_1024():
    params = PolarParams(n=1024, beta=0.25, mc_samples=20000)
    t0 = time.perf_counter()
    profile = estimate_profile(bsc_model(), params, np.random.default_rng(20240501))
    sets = build_index_sets(profile, params)
    return profile, sets, params, time.perf_counter() - t0


@pytest.fixture(scope="module")
def bundled_256():
    params = PolarParams(n=256, beta=0.25, mc_samples=20000)
    profile = estimate_profile(bsc_model(), params, np.random.default_rng(20240502))
    return profile, build_index_sets(profile, params), params


# -- criteria ---------------------------------------------------------------------------


def test_criterion_1_lemma_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    A4, B3 = Alphabet("A", 4), Alphabet("B", 3)
    ok = True
    for _ in range(200):
        p, q = rand_pmf(rng, (A4,)), rand_pmf(rng, (A4,))
        ch = rand_channel(rng, (A4,), (B3,))
        ok &= abs(total_variation(compose(p, ch), compose(q, ch)) - total_variation(p, q)) <= 1e-10
        ok &= abs(kl_divergence(compose(p, ch), compose(q, ch)) - kl_divergence(p, q)) <= 1e-10
    for _ in range(200):
        p, q = rand_pmf(rng, (A4,)), rand_pmf(rng, (A4,))
        d = total_variation(p, q)
        if d > 0.5:
            lam = 1.0 - 0.4 / d
            q = JointPMF(p.axes, (1 - lam) * q.table + lam * p.table)
        eps = total_variation(p, q)
        if eps > 0:
            ok &= abs(entropy(p) - entropy(q)) <= eps * math.log2(4 / eps) + 1e-12
    for _ in range(200):
        pj, qj = rand_pmf(rng, (A4, B3)), rand_pmf(rng, (A4, B3))
        eps = total_variation(pj, qj)
        pa = marginalize(pj, ["A"]).table
        cp, cq = condition(pj, ["B"], ["A"]), condition(qj, ["B"], ["A"])
        best = min(
            float(np.abs(cp.table[a] - cq.table[a]).sum()) for a in range(4) if pa[a] > 0
        )
        ok &= best <= 2 * eps + 1e-10
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    assert _report(1, ok, f"200 instances per identity/bound, {elapsed:.1f}s")


def test_criterion_2_pinsker_and_nesting():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    ok = True
    feasible_count = 0
    for _ in range(100):
        base = rand_target(rng)
        aux = rand_aux(rng)
        ind = induced_joint(base, aux)
        # Pinsker against an unrelated full-support joint on the same axes
        other = rand_target(rng).joint()
        p = marginalize(ind, ["U", "X", "Y", "V"])
        ok &= total_variation(p, other) <= math.sqrt(2 * math.log(2) * kl_divergence(p, other)) + 1e-12
        # rate-gap identity on the induced joint
        verdict_self = evaluate(
            check_target_factorization(p, base.channel), aux
        )
        gap = conditional_entropy(ind, ["X"], ["W", "Y"])
        ok &= abs((verdict_self.inner_rate - verdict_self.outer_rate) - gap) <= 1e-9
        ok &= gap >= -1e-12
        if verdict_self.feasible:
            feasible_count += 1
            ok &= empirical_region_check(check_target_factorization(p, base.channel), aux)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    ok &= feasible_count > 0
    assert _report(2, ok, f"100 decompositions, {feasible_count} feasible all nested, {elapsed:.1f}s")


def test_criterion_3_planted_recovery():
    t0 = time.perf_counter()
    target = planted_target()
    planted = evaluate(target, planted_witness())
    verdict = search_auxiliary(target, w_size=2, restarts=32, seed=103)
    elapsed = time.perf_counter() - t0
    ok = (
        verdict.feasible
        and verdict.residual <= 1e-4
        and abs(verdict.inner_rate - planted.inner_rate) <= 0.05
        and elapsed < 120.0
    )
    assert _report(
        3, ok,
        f"residual={verdict.residual:.2e} inner={verdict.inner_rate:.4f} "
        f"(planted {planted.inner_rate:.4f}), {elapsed:.1f}s",
    )


def test_criterion_4_polarization_limits(bundled_1024):
    profile, sets, params, build_time = bundled_1024
    n = params.n
    frac_a13 = (len(sets.a1) + len(sets.a3)) / n
    frac_a12 = (len(sets.a1) + len(sets.a2)) / n
    fits = len(sets.a2) >= len(sets.a3) + len(sets.b3)
    clause1 = abs(frac_a13 - H_01) <= 0.05
    clause2 = abs(frac_a12 - 1.0) <= 0.05
    clause3 = fits
    in_time = build_time < 300.0
    ok = clause1 and clause2 and clause3 and in_time
    _report(
        4, ok,
        f"|a1+a3|/n={frac_a13:.4f} vs {H_01:.4f}±0.05 ({'ok' if clause1 else 'FAIL'}); "
        f"|a1+a2|/n={frac_a12:.4f} vs 1.0±0.05 ({'ok' if clause2 else 'FAIL'}); "
        f"carriers fit: {fits}; build {build_time:.0f}s",
    )
    assert clause2 and clause3 and in_time
    assert clause1, (
        f"|a1 U a3|/n = {frac_a13:.4f} at n=1024: the asymptotic cardinality "
        f"{H_01:.4f} is unreachable at this blocklength (finite-length "
        f"polarization leaves ~0.14 of indices partially polarized; measured "
        f"0.61-0.58 for n=1024..32768)"
    )


def test_criterion_5_entropy_conservation(bundled_1024):
    profile, sets, params, _ = bundled_1024
    mean_s, mean_sy = (float(profile.family(name)[0].mean()) for name in ("h_s", "h_s_y"))
    ok = abs(mean_s - 1.0) <= 0.02 and abs(mean_sy - H_01) <= 0.02
    assert _report(
        5, ok, f"(1/n)sum H(S_j|prefix)={mean_s:.4f} (target 1.0±0.02); "
        f"with observation {mean_sy:.4f} (target {H_01:.4f}±0.02)"
    )


def test_criterion_6_noiseless_codec():
    t0 = time.perf_counter()
    model = bsc_model(crossover=0.0, action_noise=0.1)
    params = PolarParams(n=256, beta=0.25, mc_samples=8000)
    profile = estimate_profile(model, params, np.random.default_rng(106))
    sets = build_index_sets(profile, params)
    exact = 0
    w_codes, y_codes, v_codes = [], [], []
    trials = 100  # first 50 carry the recovery criterion; all pool the law test
    for seed in range(trials):
        res = run_end_to_end(model, sets, k=4, seed=seed)
        if res.s_error_rate == 0.0 and res.w_error_rate == 0.0:
            exact += 1
        for tr in res.transcripts:
            w_codes.append(tr.w)
            y_codes.append(tr.y)
            v_codes.append(tr.v)
    w_codes, y_codes, v_codes = map(np.concatenate, (w_codes, y_codes, v_codes))
    symbols = len(v_codes)
    rule = model.v_rule.aligned_table(("W", "Y")).reshape(4, 2)
    stat, dof = chi_square_conditional(w_codes * 2 + y_codes, v_codes, rule)
    crit = chi2.ppf(0.99, dof)
    elapsed = time.perf_counter() - t0
    ok = exact == trials and symbols >= 100_000 and stat < crit
    assert _report(
        6, ok,
        f"exact recovery {min(exact, 50)}/50 (and {exact}/{trials} overall); "
        f"chi2={stat:.1f} < {crit:.1f} at 1% over {symbols} symbols; {elapsed:.0f}s",
    )


def test_criterion_7_noisy_trend(bundled_1024, bundled_256):
    t0 = time.perf_counter()
    model = bsc_model()
    _, sets_1024, _, _ = bundled_1024
    _, sets_256, _ = bundled_256
    wins = 0
    mis = []
    for seed in range(10):
        small = run_end_to_end(model, sets_256, k=8, seed=seed)
        large = run_end_to_end(model, sets_1024, k=8, seed=seed)
        wins += int(large.tv_estimate <= small.tv_estimate)
        mis.append(large.mi_consecutive)
    mi_mean = float(np.mean(mis))
    elapsed = time.perf_counter() - t0
    ok = wins >= 8 and mi_mean <= 0.05 and elapsed < 600.0
    assert _report(
        7, ok,
        f"tv(n=1024) <= tv(n=256) in {wins}/10 paired seeds; "
        f"consecutive-block MI mean={mi_mean:.4f} (<= 0.05); {elapsed:.0f}s",
    )


def test_criterion_8_strict_causality():
    from coordsim.bundled import chained_model
    from coordsim.codec import CommonRandomness, encode

    model = chained_model()
    params = PolarParams(n=64, beta=0.25, mc_samples=3000)
    profile = estimate_profile(model, params, np.random.default_rng(108))
    sets = build_index_sets(profile, params)
    rng = np.random.default_rng(1080)
    k = 4
    ok = True
    for trial in range(20):
        u_blocks = rng.integers(0, 2, (k + 1, sets.n), dtype=np.uint8)
        i = int(rng.integers(1, k + 1))
        flipped = u_blocks.copy()
        flipped[i] ^= 1
        cr = CommonRandomness.draw(sets, k, np.random.default_rng(2000 + trial))
        base, _ = encode(u_blocks, sets, cr, model, np.random.default_rng(3000 + trial))
        diff, _ = encode(flipped, sets, cr, model, np.random.default_rng(3000 + trial))
        ok &= np.array_equal(base[i - 1].x, diff[i - 1].x)
    assert _report(8, ok, "x of block i invariant to flipping source block i, 20/20 exact")


def test_criterion_9_divergence_certificate(bundled_1024):
    profile, sets, params, _ = bundled_1024
    cert = divergence_certificate(profile, sets)
    ok = cert.total <= cert.bound + 3 * cert.stderr
    assert _report(
        9, ok,
        f"d1+d2={cert.total:.3e} <= 2n*delta={cert.bound:.3f} + 3*se={3 * cert.stderr:.2e}",
    )


def test_criterion_10_rate_consistency(bundled_1024):
    from coordsim.construction import rate_report

    _, sets, _, _ = bundled_1024
    cr16 = rate_report(sets, 16).common_randomness_rate
    model = bsc_model()
    target, aux = model.target, model.witness
    r0 = binning_rate_ledger(target, aux).r0_bound
    gap = abs(cr16 - r0)
    ok = gap <= 0.08
    _report(10, ok, f"codec CR rate(k=16)={cr16:.4f} vs ledger R0={r0:.4f}, gap={gap:.4f} (<= 0.08)")
    assert ok, (
        f"CR rate {cr16:.4f} vs single-letter bound {r0:.4f}: the per-symbol "
        f"fill count tracks the thresholded set sizes, which at any feasible "
        f"blocklength stay ~0.11-0.15 above the entropy limit (same finite-"
        f"length gap as the |a1 U a3| clause)"
    )


def test_criterion_11_binning_oracle():
    t0 = time.perf_counter()
    joint = dsbs(0.1)
    stats = verify_lemma_regimes(
        joint, [12], [0.3, 0.8], replicates=100, rng=np.random.default_rng(111),
        samples=100, lemmas=("sw",),
    )
    by = {(s.rate): s.error_rate for s in stats}
    sw_ok = by[0.8] < by[0.3]
    kls = []
    for n in (4, 8, 12):
        vals = [
            extraction_kl(
                RandomBinning.draw(n, 0.2, 2, np.random.default_rng(np.random.SeedSequence([111, n, r]))),
                joint, n,
            )
            for r in range(60)
        ]
        kls.append(float(np.mean(vals)))
    mono = kls[0] > kls[1] > kls[2]
    elapsed = time.perf_counter() - t0
    ok = sw_ok and mono and elapsed < 300.0
    _report(
        11, ok,
        f"SW error feasible={by[0.8]:.3f} < infeasible={by[0.3]:.3f} (100 paired, "
        f"{'ok' if sw_ok else 'FAIL'}); extraction KL over n=4,8,12: "
        f"{kls[0]:.3f}, {kls[1]:.3f}, {kls[2]:.3f} "
        f"({'monotone' if mono else 'NOT monotone'}); {elapsed:.0f}s",
    )
    assert sw_ok and elapsed < 300.0
    assert mono, (
        f"binning-averaged extraction KL is {kls[0]:.4f}, {kls[1]:.4f}, {kls[2]:.4f} "
        f"over n=4,8,12: with 2^ceil(0.2 n) bins every n extracts at effective "
        f"rate 1/4, and the decay margin H_2(B|A) - 1/4 ~ 0.036 bits/symbol is "
        f"too small for monotone decay at these blocklengths (the per-symbol "
        f"rate does decrease strictly)"
    )
