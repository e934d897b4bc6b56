"""Block-Markov coordination codec.

The encoder processes k blocks of length n.  The frozen common-randomness
fills (a1 of the signal vector S, b1 of the auxiliary vector Z) do not
depend on any other block, so they are written for all k blocks before the
block loop, which carries only what chains from block to block.  In each
block it draws local randomness on the free part of a2, writes the chained
pad-encrypted bits of the previous block on ap3/bp3, draws the rest of S
by successive cancellation to get x = transform(S), then draws Z with
evidence (x of this block, source block of the previous index).  The
strictly causal contract holds by data flow: x of block i depends only on
randomness and source blocks 0..i-1.  The channel is memoryless, so each
trial's k blocks are transmitted in one call.

The decoder works in reverse block order.  The frozen fills, and the final
block's chained bits from the lossless side channel, are written before
the loop; the chained positions of every other block i are recovered from
the already-decoded block i+1, the rest by hard successive-cancellation
decisions, and the action V is sampled symbol by symbol from the action
rule applied to the reconstructed auxiliary and the channel output.

:func:`decode` and :func:`run_trials` run the trials of several seeds in
lockstep: each successive-cancellation pass covers the same block of every
trial at once, while each trial keeps its own generators, consumed in the
order of a one-trial run, so a trial's result does not depend on its batch.
:func:`run_end_to_end` and :func:`encode` are one-trial views of the same
code.  A :class:`BlockTranscript` stores s and z and derives x and w as
their transforms.

Coordination statistics pair the source block of index i-1 with the signal
block i: that tuple follows the single-letter model when the scheme works,
and only the first signal block (driven by the dummy uniform source block)
plus the final source block fall outside the guarantee, a vanishing
fraction as k grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .construction import PolarIndexSets, SourceModel, common_randomness_shapes, rate_report
from .polar import polar_transform, sc_pass
from .probability import Alphabet, JointPMF, iid_blocks, inverse_cdf, marginalize, mutual_information

__all__ = [
    "CommonRandomness",
    "BlockTranscript",
    "EncodedBlock",
    "TrialResult",
    "one_time_pad",
    "encode",
    "transmit",
    "decode",
    "run_end_to_end",
    "run_trials",
    "empirical_mutual_information",
    "chi_square_conditional",
]


def one_time_pad(bits, key) -> np.ndarray:
    """Bitwise XOR; involutive, uniform output for a uniform key."""
    bits = np.asarray(bits, dtype=np.uint8)
    key = np.asarray(key, dtype=np.uint8)
    if bits.shape != key.shape:
        raise ValueError(f"pad length mismatch: {bits.shape} vs {key.shape}")
    return bits ^ key


@dataclass(frozen=True)
class CommonRandomness:
    """Shared uniform randomness, one field per entry of
    :func:`~coordsim.construction.common_randomness_shapes`."""

    c: np.ndarray
    c_prime: np.ndarray
    c_bar: np.ndarray
    keys_s: np.ndarray
    keys_z: np.ndarray

    @classmethod
    def draw(cls, sets: PolarIndexSets, k: int, rng: np.random.Generator) -> "CommonRandomness":
        if k < 2:
            raise ValueError("the chaining construction needs k >= 2 blocks")
        shapes = common_randomness_shapes(sets, k)
        return cls(**{name: rng.integers(0, 2, shape, dtype=np.uint8) for name, shape in shapes.items()})

    def validate(self, sets: PolarIndexSets, k: int):
        for name, shape in common_randomness_shapes(sets, k).items():
            got = getattr(self, name).shape
            if got != shape:
                raise ValueError(f"common randomness field {name} has shape {got}, expected {shape}")


@dataclass(frozen=True)
class EncodedBlock:
    s: np.ndarray
    z: np.ndarray
    x: np.ndarray
    w: np.ndarray


@dataclass(frozen=True)
class BlockTranscript:
    """Everything about one signal block; ``u`` is the source block paired
    with it for coordination (the block of the previous index).  The
    channel input ``x`` and the auxiliary ``w`` are derived on access as
    the transforms of ``s`` and ``z``."""

    u: np.ndarray
    s: np.ndarray
    z: np.ndarray
    y: np.ndarray
    v: np.ndarray
    flags: dict

    @property
    def x(self) -> np.ndarray:
        return polar_transform(self.s)

    @property
    def w(self) -> np.ndarray:
        return polar_transform(self.z)


def _frozen_frame(sets: PolarIndexSets, crs: list[CommonRandomness]):
    """The frozen fills that encoder and decoder share, for one trial per
    row: s and z of shape (trials, k, n), zero except for c on a1, c_bar
    on bp1 and c_prime on b1 minus bp1 in every block, and the pad keys
    keys_s and keys_z."""
    c, c_prime, c_bar, keys_s, keys_z = (np.stack([getattr(cr, f.name) for cr in crs]) for f in fields(crs[0]))
    s, z = (np.zeros((len(crs), c.shape[1], sets.n), dtype=np.uint8) for _ in range(2))
    s[:, :, sets.a1] = c
    z[:, :, sets.bp1] = c_bar[:, None]
    z[:, :, np.setdiff1d(sets.b1, sets.bp1)] = c_prime
    return s, z, keys_s, keys_z


def _known(n: int, *index_sets: np.ndarray) -> np.ndarray:
    known = np.zeros(n, dtype=bool)
    for idx in index_sets:
        known[idx] = True
    return known


def _sampler(rngs: list[np.random.Generator], count: int):
    """SC decisions drawn as Bernoulli(p): one uniform per decided leaf, all
    pre-drawn from each trial's generator and taken in decision order."""
    uniforms = np.stack([rng.random(count) for rng in rngs])
    used = 0

    def draw(p):
        nonlocal used
        used += p.shape[1]
        return uniforms[:, used - p.shape[1] : used] < p

    return draw


def _hard(p):
    # likelihood ratio >= 1 decides 0, a tie included
    return p > 0.5


def _encode_trials(u_blocks, sets: PolarIndexSets, crs, model: SourceModel, rngs):
    """The chaining encoder for a batch of trials in lockstep.

    ``u_blocks`` has shape (trials, k+1, n); ``crs`` and ``rngs`` hold one
    :class:`CommonRandomness` and one generator per trial, and each
    generator is consumed in the order of a one-trial run.  Returns s, z,
    x, w, each of shape (trials, k, n).
    """
    trials, k, n = u_blocks.shape[0], u_blocks.shape[1] - 1, sets.n
    s_known, z_known = _known(n, sets.a1, sets.a2), _known(n, sets.b1)
    s_draws, z_draws = n - int(s_known.sum()), n - int(z_known.sum())
    leaf_prior = np.full((trials, n), float(model.x_prior.table[1]))
    wxu = model.w_given_xu()

    s, z, keys_s, keys_z = _frozen_frame(sets, crs)
    x, w = np.zeros_like(s), np.zeros_like(z)
    for i in range(k):
        s_i, z_i = s[:, i], z[:, i]
        local = sets.a2 if i == 0 else sets.ap2
        s_i[:, local] = [rng.integers(0, 2, len(local), dtype=np.uint8) for rng in rngs]
        if i > 0:
            s_i[:, sets.ap3] = one_time_pad(s[:, i - 1][:, sets.a3], keys_s[:, i - 1])
            s_i[:, sets.bp3] = one_time_pad(z[:, i - 1][:, sets.b3], keys_z[:, i - 1])
        x[:, i] = sc_pass(leaf_prior, s_i, s_known, _sampler(rngs, s_draws))
        w[:, i] = sc_pass(wxu[x[:, i], u_blocks[:, i]], z_i, z_known, _sampler(rngs, z_draws))
    return s, z, x, w


def decode(y_blocks, s_last_a3, z_last_b3, sets: PolarIndexSets, crs, model: SourceModel, rngs):
    """The reverse-order decoder for a batch of trials in lockstep.

    ``y_blocks`` has shape (trials, k, n); ``s_last_a3`` and ``z_last_b3``
    are the side-channel payloads, of shapes (trials, |a3|) and
    (trials, |b3|); ``crs`` and ``rngs`` hold one :class:`CommonRandomness`
    and one generator per trial.  Returns s_hat, z_hat, x_hat, w_hat and v,
    each of shape (trials, k, n); whether a block decoded correctly is not
    checked here.
    """
    trials, k, n = y_blocks.shape
    for cr in crs:
        cr.validate(sets, k)
    if s_last_a3.shape != (trials, len(sets.a3)) or z_last_b3.shape != (trials, len(sets.b3)):
        raise ValueError(
            f"payload shapes {s_last_a3.shape}/{z_last_b3.shape} do not match "
            f"(trials, |a3|) = {(trials, len(sets.a3))}, (trials, |b3|) = {(trials, len(sets.b3))}"
        )
    s_known, z_known = _known(n, sets.a1, sets.a3), _known(n, sets.b1, sets.b3)
    xpost = model.x_posterior_given_y()
    wx = model.w_given_x()
    v_rule = model.v_rule.aligned_table(("W", "Y"))

    s_hat, z_hat, keys_s, keys_z = _frozen_frame(sets, crs)
    x_hat, w_hat, v = (np.zeros_like(s_hat) for _ in range(3))
    s_hat[:, -1, sets.a3] = s_last_a3
    z_hat[:, -1, sets.b3] = z_last_b3
    for i in range(k - 1, -1, -1):
        s_i, z_i = s_hat[:, i], z_hat[:, i]
        if i < k - 1:
            s_i[:, sets.a3] = one_time_pad(s_hat[:, i + 1][:, sets.ap3], keys_s[:, i])
            z_i[:, sets.b3] = one_time_pad(s_hat[:, i + 1][:, sets.bp3], keys_z[:, i])
        x_hat[:, i] = sc_pass(xpost[y_blocks[:, i]], s_i, s_known, _hard)
        w_hat[:, i] = sc_pass(wx[x_hat[:, i]], z_i, z_known, _hard)

        uniforms = np.stack([rng.random(n) for rng in rngs])
        v[:, i] = inverse_cdf(v_rule[w_hat[:, i], y_blocks[:, i]], uniforms)
    return s_hat, z_hat, x_hat, w_hat, v


def encode(
    u_blocks: np.ndarray,
    sets: PolarIndexSets,
    cr: CommonRandomness,
    model: SourceModel,
    rng: np.random.Generator,
) -> tuple[list[EncodedBlock], tuple[np.ndarray, np.ndarray]]:
    """Run the chaining encoder over k blocks.

    ``u_blocks`` has shape (k+1, n): row 0 is the uniform dummy source
    block, rows 1..k the source.  Returns the per-block polarized vectors
    and the side-channel payload: the final block's chained bits s[a3] and
    z[b3].
    """
    u_blocks = np.asarray(u_blocks, dtype=np.uint8)
    k = u_blocks.shape[0] - 1
    if k < 2:
        raise ValueError("the chaining construction needs k >= 2 blocks (plus the dummy)")
    if u_blocks.shape[1] != sets.n:
        raise ValueError(f"u blocks must have length {sets.n}")
    cr.validate(sets, k)
    s, z, x, w = (a[0] for a in _encode_trials(u_blocks[None], sets, [cr], model, [rng]))
    blocks = [EncodedBlock(s=s[i], z=z[i], x=x[i], w=w[i]) for i in range(k)]
    return blocks, (s[-1, sets.a3], z[-1, sets.b3])


def transmit(x: np.ndarray, channel, rng: np.random.Generator) -> np.ndarray:
    """Memoryless per-symbol transmission of ``x``, of any shape: one
    ``rng.random(x.shape)`` call gives each symbol its uniform in row-major
    order, so a (k, n) array of blocks gets the outputs of k one-block
    calls in turn."""
    x = np.asarray(x, dtype=np.intp)
    return inverse_cdf(channel.table[x], rng.random(x.shape)).astype(np.uint8)


# ---------------------------------------------------------------------------
# statistics helpers


def empirical_mutual_information(
    codes_a: np.ndarray, codes_b: np.ndarray, size_a: int, size_b: int
) -> float:
    """Plug-in mutual information (bits) of two paired integer code arrays,
    with the first-order (Miller-Madow) bias correction subtracted and the
    result clamped at zero."""
    counts = np.zeros((size_a, size_b))
    np.add.at(counts, (np.asarray(codes_a, dtype=np.intp), np.asarray(codes_b, dtype=np.intp)), 1.0)
    total = counts.sum()
    if total == 0:
        return 0.0
    joint = JointPMF((Alphabet("A", size_a), Alphabet("B", size_b)), counts / total)
    value = mutual_information(joint, ["A"], ["B"])
    occ_a = int((counts.sum(axis=1) > 0).sum())
    occ_b = int((counts.sum(axis=0) > 0).sum())
    occ_ab = int((counts > 0).sum())
    value -= max(occ_ab - occ_a - occ_b + 1, 0) / (2.0 * float(total) * math.log(2.0))
    return max(float(value), 0.0)


def chi_square_conditional(
    given_codes: np.ndarray, out_codes: np.ndarray, rule: np.ndarray
) -> tuple[float, int]:
    """Goodness-of-fit statistic of empirical out|given samples against the
    conditional ``rule`` (shape: given-cells x out-size).

    Returns (statistic, degrees of freedom); zero-probability cells must be
    empty (they contribute +inf otherwise), deterministic rows contribute
    no degrees of freedom.
    """
    cells, out_size = rule.shape
    counts = np.zeros((cells, out_size))
    np.add.at(counts, (np.asarray(given_codes, dtype=np.intp), np.asarray(out_codes, dtype=np.intp)), 1.0)
    stat = 0.0
    dof = 0
    for c in range(cells):
        m = counts[c].sum()
        if m == 0:
            continue
        for v in range(out_size):
            p = rule[c, v]
            if p == 0.0:
                if counts[c, v] > 0:
                    return float("inf"), dof
                continue
            stat += (counts[c, v] - m * p) ** 2 / (m * p)
        free = int((rule[c] > 0).sum()) - 1
        dof += max(free, 0)
    return float(stat), dof


# ---------------------------------------------------------------------------
# end-to-end runs


@dataclass(frozen=True)
class TrialResult:
    """One seeded end-to-end run; spec'd CSV columns plus the transcripts."""

    n: int
    k: int
    seed: int
    s_error_rate: float
    w_error_rate: float
    tv_estimate: float
    mi_consecutive: float
    cr_rate: float
    side_rate: float
    transcripts: list[BlockTranscript] = field(repr=False)

    CSV_FIELDS = (
        "n", "k", "seed", "s_error_rate", "w_error_rate",
        "tv_estimate", "mi_consecutive", "cr_rate", "side_rate",
    )

    def csv_row(self) -> list:
        return [getattr(self, f) for f in self.CSV_FIELDS]


def _source_blocks(model: SourceModel, n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """The uniform dummy block and k source blocks, shape (k+1, n)."""
    u_blocks = np.empty((k + 1, n), dtype=np.uint8)
    u_blocks[0] = rng.integers(0, model.u_prior.axes[0].size, n)
    u_blocks[1:] = iid_blocks(model.u_prior, rng, k, n)[0]
    return u_blocks


def run_trials(
    model: SourceModel,
    sets: PolarIndexSets,
    k: int,
    seeds,
) -> list[TrialResult]:
    """Full pipeline for each seed, the trials run in lockstep: draw
    randomness, encode, transmit, decode, and collect coordination
    statistics over the k-1 guaranteed block pairings.  A trial's result
    depends on its seed alone, not on the other trials of the batch."""
    n = sets.n
    generators = [
        [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)] for seed in seeds
    ]
    rng_cr, rng_enc, rng_ch, rng_dec = (list(g) for g in zip(*generators))

    crs = [CommonRandomness.draw(sets, k, rng) for rng in rng_cr]
    u_blocks = np.stack([_source_blocks(model, n, k, rng) for rng in rng_enc])
    s, z, x, _ = _encode_trials(u_blocks, sets, crs, model, rng_enc)
    y = np.stack([transmit(x_t, model.channel, rng) for x_t, rng in zip(x, rng_ch)])
    s_hat, z_hat, _, _, v = decode(y, s[:, -1][:, sets.a3], z[:, -1][:, sets.b3], sets, crs, model, rng_dec)
    s_ok = (s_hat == s).all(axis=2)
    z_ok = (z_hat == z).all(axis=2)

    target = marginalize(model.single_letter_joint(), ["U", "X", "Y", "V"]).table
    tuple_size = target.size
    rates = rate_report(sets, k)
    results = []
    for t, seed in enumerate(seeds):
        transcripts = [
            BlockTranscript(
                u=u_blocks[t, i], s=s[t, i], z=z[t, i], y=y[t, i], v=v[t, i],
                flags={"s_ok": bool(s_ok[t, i]), "z_ok": bool(z_ok[t, i])},
            )
            for i in range(k)
        ]
        # coordinated single letters: source block i-1 with signal block i, i = 2..k
        codes = np.ravel_multi_index((u_blocks[t, 1:k], x[t, 1:k], y[t, 1:k], v[t, 1:k]), target.shape)
        hist = np.bincount(codes.ravel(), minlength=tuple_size) / codes.size
        tv = float(np.abs(hist - target.reshape(-1)).sum())

        if len(codes) >= 2:
            mi = empirical_mutual_information(codes[:-1].ravel(), codes[1:].ravel(), tuple_size, tuple_size)
        else:
            mi = 0.0

        results.append(TrialResult(
            n=n, k=k, seed=seed,
            s_error_rate=float(np.mean(~s_ok[t])), w_error_rate=float(np.mean(~z_ok[t])),
            tv_estimate=tv, mi_consecutive=mi,
            cr_rate=rates.common_randomness_rate, side_rate=rates.side_channel_rate,
            transcripts=transcripts,
        ))
    return results


def run_end_to_end(
    model: SourceModel,
    sets: PolarIndexSets,
    k: int,
    seed: int,
) -> TrialResult:
    """Full pipeline for one seed: the one-trial view of :func:`run_trials`."""
    return run_trials(model, sets, k, [seed])[0]
