"""Block-Markov coordination codec.

The encoder processes k blocks of length n.  In each block it builds the
polarized signal vector S (frozen common-randomness fill on a1, local
randomness on the free part of a2, chained pad-encrypted bits from the
previous block on ap3/bp3, successive-cancellation draws elsewhere), sends
x = transform(S) through the channel, then builds the polarized auxiliary
vector Z with evidence (x of this block, source block of the previous
index).  The strictly causal contract holds by data flow: x of block i
depends only on randomness and source blocks 0..i-1.

The decoder works in reverse block order: chained positions of block i are
recovered from the already-decoded block i+1 (the final block's arrive over
a lossless side channel), the rest by hard successive-cancellation
decisions, and the action V is sampled symbol by symbol from the action
rule applied to the reconstructed auxiliary and the channel output.

:func:`run_trials` runs the trials of several seeds in lockstep: each
successive-cancellation pass covers the same block of every trial at once,
while each trial keeps its own generators, consumed in the order of a
one-trial run, so a trial's result does not depend on its batch.
:func:`run_end_to_end`, :func:`encode` and :func:`decode` are one-trial
views of the same code.

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

from .construction import PolarIndexSets, SourceModel, rate_report
from .polar import polar_transform, sc_pass
from .probability import Alphabet, JointPMF, iid_blocks, inverse_cdf, marginalize, mutual_information

__all__ = [
    "CommonRandomness",
    "BlockTranscript",
    "SideChannelPayload",
    "EncodedBlock",
    "DecodedBlock",
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


def _randomness_shapes(sets: PolarIndexSets, k: int) -> dict[str, tuple[int, ...]]:
    """The shape of each :class:`CommonRandomness` field, in draw order."""
    return {
        "c": (k, len(sets.a1)),
        "c_prime": (k, len(sets.b1) - len(sets.bp1)),
        "c_bar": (len(sets.bp1),),
        "keys_s": (k - 1, len(sets.a3)),
        "keys_z": (k - 1, len(sets.b3)),
    }


@dataclass(frozen=True)
class CommonRandomness:
    """Shared uniform randomness: per-block frozen fills c (a1-sized) and
    c_prime (b1 minus bp1), the block-reused fill c_bar (bp1-sized), and the
    k-1 pad keys keys_s (a3-sized) / keys_z (b3-sized) linking consecutive
    blocks."""

    c: np.ndarray
    c_prime: np.ndarray
    c_bar: np.ndarray
    keys_s: np.ndarray
    keys_z: np.ndarray

    @classmethod
    def draw(cls, sets: PolarIndexSets, k: int, rng: np.random.Generator) -> "CommonRandomness":
        if k < 2:
            raise ValueError("the chaining construction needs k >= 2 blocks")
        shapes = _randomness_shapes(sets, k)
        return cls(**{name: rng.integers(0, 2, shape, dtype=np.uint8) for name, shape in shapes.items()})

    def validate(self, sets: PolarIndexSets, k: int):
        for name, shape in _randomness_shapes(sets, k).items():
            got = getattr(self, name).shape
            if got != shape:
                raise ValueError(f"common randomness field {name} has shape {got}, expected {shape}")


@dataclass(frozen=True)
class SideChannelPayload:
    """Final-block chained bits delivered over the lossless side channel."""

    s_last_a3: np.ndarray
    z_last_b3: np.ndarray


@dataclass(frozen=True)
class EncodedBlock:
    s: np.ndarray
    z: np.ndarray
    x: np.ndarray
    w: np.ndarray


@dataclass(frozen=True)
class DecodedBlock:
    s_hat: np.ndarray
    z_hat: np.ndarray
    x_hat: np.ndarray
    w_hat: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class BlockTranscript:
    """Everything about one signal block; ``u`` is the source block paired
    with it for coordination (the block of the previous index)."""

    u: np.ndarray
    s: np.ndarray
    z: np.ndarray
    x: np.ndarray
    w: np.ndarray
    y: np.ndarray
    v: np.ndarray
    flags: dict

    def __post_init__(self):
        if not np.array_equal(self.x, polar_transform(self.s)):
            raise ValueError("x must be the transform of s")
        if not np.array_equal(self.w, polar_transform(self.z)):
            raise ValueError("w must be the transform of z")


def _stacked(crs: list[CommonRandomness]) -> tuple[np.ndarray, ...]:
    """c, c_prime, c_bar, keys_s, keys_z of one trial per row."""
    return tuple(np.stack([getattr(cr, f.name) for cr in crs]) for f in fields(CommonRandomness))


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
    c, c_prime, c_bar, keys_s, keys_z = _stacked(crs)
    b1_rest = np.setdiff1d(sets.b1, sets.bp1)
    s_known, z_known = _known(n, sets.a1, sets.a2), _known(n, sets.b1)
    s_draws, z_draws = n - int(s_known.sum()), n - int(z_known.sum())
    leaf_prior = np.full((trials, n), float(model.x_prior.table[1]))
    wxu = model.w_given_xu()

    s, z, x, w = (np.zeros((trials, k, n), dtype=np.uint8) for _ in range(4))
    for i in range(k):
        s_i, z_i = s[:, i], z[:, i]
        s_i[:, sets.a1] = c[:, i]
        local = sets.a2 if i == 0 else sets.ap2
        s_i[:, local] = [rng.integers(0, 2, len(local), dtype=np.uint8) for rng in rngs]
        if i > 0:
            s_i[:, sets.ap3] = one_time_pad(s[:, i - 1][:, sets.a3], keys_s[:, i - 1])
            s_i[:, sets.bp3] = one_time_pad(z[:, i - 1][:, sets.b3], keys_z[:, i - 1])
        x[:, i] = sc_pass(leaf_prior, s_i, s_known, _sampler(rngs, s_draws))

        z_i[:, sets.bp1] = c_bar
        z_i[:, b1_rest] = c_prime[:, i]
        w[:, i] = sc_pass(wxu[x[:, i], u_blocks[:, i]], z_i, z_known, _sampler(rngs, z_draws))
    return s, z, x, w


def _decode_trials(y_blocks, s_last_a3, z_last_b3, sets: PolarIndexSets, crs, model: SourceModel, rngs):
    """The reverse-order decoder for a batch of trials in lockstep.

    ``y_blocks`` has shape (trials, k, n); ``s_last_a3``/``z_last_b3`` are
    the side-channel payloads, one row per trial.  Returns s_hat, z_hat,
    x_hat, w_hat and v, each of shape (trials, k, n).
    """
    trials, k, n = y_blocks.shape
    c, c_prime, c_bar, keys_s, keys_z = _stacked(crs)
    b1_rest = np.setdiff1d(sets.b1, sets.bp1)
    s_known, z_known = _known(n, sets.a1, sets.a3), _known(n, sets.b1, sets.b3)
    xpost = model.x_posterior_given_y()
    wx = model.w_given_x()
    v_rule = model.v_rule.aligned_table(("W", "Y"))

    s_hat, z_hat, x_hat, w_hat, v = (np.zeros((trials, k, n), dtype=np.uint8) for _ in range(5))
    for i in range(k - 1, -1, -1):
        if i == k - 1:
            s_chain, z_chain = s_last_a3, z_last_b3
        else:
            s_chain = one_time_pad(s_hat[:, i + 1][:, sets.ap3], keys_s[:, i])
            z_chain = one_time_pad(s_hat[:, i + 1][:, sets.bp3], keys_z[:, i])
        s_i, z_i = s_hat[:, i], z_hat[:, i]
        s_i[:, sets.a1] = c[:, i]
        s_i[:, sets.a3] = s_chain
        x_hat[:, i] = sc_pass(xpost[y_blocks[:, i]], s_i, s_known, _hard)

        z_i[:, sets.bp1] = c_bar
        z_i[:, b1_rest] = c_prime[:, i]
        z_i[:, sets.b3] = z_chain
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
) -> tuple[list[EncodedBlock], SideChannelPayload]:
    """Run the chaining encoder over k blocks.

    ``u_blocks`` has shape (k+1, n): row 0 is the uniform dummy source
    block, rows 1..k the source.  Returns the per-block polarized vectors
    and the final-block side-channel payload.
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
    return blocks, SideChannelPayload(s_last_a3=s[-1, sets.a3], z_last_b3=z[-1, sets.b3])


def transmit(x: np.ndarray, channel, rng: np.random.Generator) -> np.ndarray:
    """Memoryless per-symbol transmission of one block."""
    x = np.asarray(x, dtype=np.intp)
    return inverse_cdf(channel.table[x], rng.random(len(x))).astype(np.uint8)


def decode(
    y_blocks: np.ndarray,
    payload: SideChannelPayload,
    sets: PolarIndexSets,
    cr: CommonRandomness,
    model: SourceModel,
    rng: np.random.Generator,
) -> list[DecodedBlock]:
    """Run the reverse-order decoder over the k channel-output blocks
    ``y_blocks`` (shape (k, n)), with the final block's chained bits from
    ``payload``.  Returns each block's decoded polarized vectors and
    actions; whether a block decoded correctly is not checked here."""
    y_blocks = np.asarray(y_blocks, dtype=np.uint8)
    k = y_blocks.shape[0]
    cr.validate(sets, k)
    if payload.s_last_a3.shape != (len(sets.a3),) or payload.z_last_b3.shape != (len(sets.b3),):
        raise ValueError(
            f"payload sizes {payload.s_last_a3.shape}/{payload.z_last_b3.shape} do not "
            f"match |a3|={len(sets.a3)}, |b3|={len(sets.b3)}"
        )
    s_hat, z_hat, x_hat, w_hat, v = (
        a[0] for a in _decode_trials(
            y_blocks[None], payload.s_last_a3[None], payload.z_last_b3[None], sets, [cr], model, [rng]
        )
    )
    return [
        DecodedBlock(s_hat=s_hat[i], z_hat=z_hat[i], x_hat=x_hat[i], w_hat=w_hat[i], v=v[i]) for i in range(k)
    ]


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
    s, z, x, w = _encode_trials(u_blocks, sets, crs, model, rng_enc)
    y = np.stack([[transmit(x_i, model.channel, rng) for x_i in x_t] for x_t, rng in zip(x, rng_ch)])
    s_hat, z_hat, _, _, v = _decode_trials(
        y, s[:, -1][:, sets.a3], z[:, -1][:, sets.b3], sets, crs, model, rng_dec
    )
    s_ok = (s_hat == s).all(axis=2)
    z_ok = (z_hat == z).all(axis=2)

    target = marginalize(model.single_letter_joint(), ["U", "X", "Y", "V"]).table
    tuple_size = target.size
    rates = rate_report(sets, k)
    results = []
    for t, seed in enumerate(seeds):
        transcripts = [
            BlockTranscript(
                u=u_blocks[t, i], s=s[t, i], z=z[t, i], x=x[t, i], w=w[t, i], y=y[t, i], v=v[t, i],
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
