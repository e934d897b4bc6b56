"""Polarized-entropy profile estimation and index-set construction.

The encoder/decoder operate on two polarized chains: the signal chain
(bits of S = transform(X)) and the auxiliary chain (bits of Z =
transform(W)).  For each bit index this module estimates five conditional
entropies by Monte Carlo along true paths:

    H(S_j | S^{j-1})                the signal prior chain
    H(S_j | S^{j-1} Y^n)            the signal chain with channel output
    H(Z_j | Z^{j-1} X^n U^n)        the auxiliary chain with full encoder side info
    H(Z_j | Z^{j-1} X^n)            the auxiliary chain with decoder side info
    H(Z_j | Z^{j-1} U^n X^n Y^n V^n) everything observed (shared-bits set)

and thresholds them at delta_n = 2^(-n^beta) to build the frozen /
information / chained index partitions.  Estimates are plug-in averages of
the binary entropy of exact successive-cancellation conditionals, hence
unbiased; standard errors are reported and thresholds applied to the point
estimates.  All index sets are 0-based.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .polar import CHUNK_ROWS, known_path_conditionals, known_path_tree, polar_transform
from .probability import ConditionalPMF, JointPMF, binary_entropy, condition, inverse_cdf, marginalize
from .region import AXES_UXYV, AuxiliaryDecomposition, CoordinationTarget, check_source_axes, witness_joint

__all__ = [
    "PolarParams",
    "SourceModel",
    "PolarizedEntropyProfile",
    "PolarIndexSets",
    "CapacityError",
    "estimate_profile",
    "build_index_sets",
    "rate_report",
    "RateReport",
    "divergence_certificate",
    "DivergenceCertificate",
    "save_index_cache",
    "load_index_cache",
]


class CapacityError(RuntimeError):
    """The chained positions do not fit inside the local-randomness set at
    this block length."""


@dataclass(frozen=True)
class PolarParams:
    """Block-length and estimation parameters for the polar construction."""

    n: int
    beta: float = 0.25
    mc_samples: int = 20000

    def __post_init__(self):
        if self.n < 2 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of 2 and >= 2, got {self.n}")
        if not (0.0 < self.beta < 0.5):
            raise ValueError(f"beta must lie in (0, 1/2), got {self.beta}")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")

    @property
    def delta_n(self) -> float:
        return 2.0 ** (-(self.n**self.beta))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "beta": self.beta, "mc_samples": self.mc_samples}

    @classmethod
    def from_json_dict(cls, d: dict) -> "PolarParams":
        return cls(int(d["n"]), float(d.get("beta", 0.25)), int(d.get("mc_samples", 20000)))


class SourceModel:
    """A coordination target plus the witness that induces it: the
    single-letter law P_U P_X P_{Y|X} P_{W|UX} P_{V|WY}, with binary X and
    W for the polar codec.

    Its (U, X, Y, V) marginal is the :attr:`target` and (P_{W|UX},
    P_{V|WY}) the :attr:`witness`; the polar scheme runs on the whole law.
    """

    def __init__(
        self,
        u_prior: JointPMF,
        x_prior: JointPMF,
        channel: ConditionalPMF,
        w_rule: ConditionalPMF,
        v_rule: ConditionalPMF,
    ):
        check_source_axes(u_prior, x_prior, channel)
        AuxiliaryDecomposition(2, w_rule, v_rule)  # W|UX with binary W, V|WY
        if x_prior.axes[0].size != 2:
            raise ValueError("X must be binary")
        self.u_prior = u_prior
        self.x_prior = x_prior
        self.channel = channel
        self.w_rule = w_rule
        self.v_rule = v_rule
        # composing checks that the factors agree on every shared axis size
        self._joint = witness_joint(u_prior, x_prior, channel, w_rule, v_rule)

    @property
    def sizes(self) -> dict[str, int]:
        return {
            "U": self.u_prior.axes[0].size,
            "X": 2,
            "W": 2,
            "Y": self.channel.out_axes[0].size,
            "V": self.v_rule.out_axes[0].size,
        }

    def single_letter_joint(self) -> JointPMF:
        """The i.i.d. per-symbol joint over (U, X, W, Y, V)."""
        return self._joint

    @property
    def target(self) -> CoordinationTarget:
        """The coordination target: the action rule is V|UXY of the joint,
        with the auxiliary summed out."""
        joint = marginalize(self.single_letter_joint(), AXES_UXYV)
        return CoordinationTarget(
            self.u_prior, self.x_prior, self.channel, condition(joint, ["V"], ["U", "X", "Y"])
        )

    @property
    def witness(self) -> AuxiliaryDecomposition:
        """The witness (P_{W|UX}, P_{V|WY}), W|UX read off the joint."""
        w_given_ux = condition(self.single_letter_joint(), ["W"], ["U", "X"])
        return AuxiliaryDecomposition(2, w_given_ux, self.v_rule)

    # evidence tables for the successive-cancellation passes

    def x_posterior_given_y(self) -> np.ndarray:
        """P(X=1 | y), indexed by y."""
        c = condition(self.single_letter_joint(), ["X"], ["Y"])
        return c.table[:, 1].copy()

    def w_given_xu(self) -> np.ndarray:
        """P(W=1 | x, u), indexed [x, u]."""
        return self.w_rule.aligned_table(("X", "U"))[..., 1].copy()

    def w_given_x(self) -> np.ndarray:
        """P(W=1 | x) with U marginalized out, indexed by x."""
        c = condition(self.single_letter_joint(), ["W"], ["X"])
        return c.table[:, 1].copy()

    def w_posterior_full(self) -> np.ndarray:
        """P(W=1 | u, x, y, v), indexed [u, x, y, v]; zero-mass cells are
        filled uniformly (flagged upstream by the conditioning op)."""
        c = condition(self.single_letter_joint(), ["W"], ["U", "X", "Y", "V"])
        return c.table[..., 1].copy()

    def sample_blocks(self, rng: np.random.Generator, count: int, n: int) -> dict[str, np.ndarray]:
        """``count`` i.i.d. blocks of length ``n`` of the 5-tuple, as a dict
        of (count, n) uint8 arrays keyed 'u','x','w','y','v'."""
        joint = self.single_letter_joint()
        draws = inverse_cdf(joint.table.reshape(-1), rng.random((count, n)))
        # row i of ``cells`` is the axis-i symbol of each flat cell
        cells = np.indices(joint.table.shape, dtype=np.uint8).reshape(5, -1)
        return {name: axis.take(draws) for name, axis in zip(("u", "x", "w", "y", "v"), cells)}

    def to_json_dict(self) -> dict:
        return {
            "u_prior": self.u_prior.to_json_dict(),
            "x_prior": self.x_prior.to_json_dict(),
            "channel": self.channel.to_json_dict(),
            "w_rule": self.w_rule.to_json_dict(),
            "v_rule": self.v_rule.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SourceModel":
        return cls(
            JointPMF.from_json_dict(d["u_prior"]),
            JointPMF.from_json_dict(d["x_prior"]),
            ConditionalPMF.from_json_dict(d["channel"]),
            ConditionalPMF.from_json_dict(d["w_rule"]),
            ConditionalPMF.from_json_dict(d["v_rule"]),
        )


@dataclass(frozen=True)
class PolarizedEntropyProfile:
    """Per-index conditional-entropy estimates with standard errors."""

    n: int
    samples: int
    h_s: np.ndarray
    h_s_y: np.ndarray
    h_z_xu: np.ndarray
    h_z_x: np.ndarray
    h_z_all: np.ndarray
    se_s: np.ndarray
    se_s_y: np.ndarray
    se_z_xu: np.ndarray
    se_z_x: np.ndarray
    se_z_all: np.ndarray

    FAMILIES = ("h_s", "h_s_y", "h_z_xu", "h_z_x", "h_z_all")

    def __post_init__(self):
        for name in self.FAMILIES:
            arr = getattr(self, name)
            if arr.shape != (self.n,):
                raise ValueError(f"{name} must have shape ({self.n},)")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} estimates must be finite")
            if np.any(arr < -1e-9) or np.any(arr > 1.0 + 1e-9):
                raise ValueError(f"{name} estimates must lie in [0, 1]")

    def to_json_dict(self) -> dict:
        d = {"n": self.n, "samples": self.samples}
        for name in self.FAMILIES:
            d[name] = getattr(self, name).tolist()
            d["se_" + name[2:]] = getattr(self, "se_" + name[2:]).tolist()
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "PolarizedEntropyProfile":
        kw = {"n": int(d["n"]), "samples": int(d["samples"])}
        for name in cls.FAMILIES:
            kw[name] = np.array(d[name], dtype=np.float64)
            kw["se_" + name[2:]] = np.array(d["se_" + name[2:]], dtype=np.float64)
        return cls(**kw)


def estimate_profile(model: SourceModel, params: PolarParams, rng: np.random.Generator) -> PolarizedEntropyProfile:
    """Monte-Carlo estimates of the five per-index conditional entropies.

    Each sample draws a full i.i.d. block of (u, x, w, y, v), polarizes x
    and w, and evaluates the exact successive-cancellation conditional of
    every bit along the true path; h(p) averaged over samples estimates the
    conditional entropy.  The rows are drawn and scored ``CHUNK_ROWS`` at a
    time, one stream for the whole run; within a chunk the two families on
    the bits of s share one partial-sum tree and the three families on the
    bits of z share another.  Every h and h*h is summed in draw order.
    """
    n, total = params.n, params.mc_samples
    xpost = model.x_posterior_given_y()
    wxu = model.w_given_xu()
    wx = model.w_given_x()
    wfull = model.w_posterior_full()
    p_x1 = float(model.x_prior.table[1])

    sums = {k: np.zeros(n) for k in PolarizedEntropyProfile.FAMILIES}
    sqs = {k: np.zeros(n) for k in PolarizedEntropyProfile.FAMILIES}
    for lo in range(0, total, CHUNK_ROWS):
        blk = model.sample_blocks(rng, min(CHUNK_ROWS, total - lo), n)
        u, x, y, v = blk["u"], blk["x"], blk["y"], blk["v"]
        s_tree = known_path_tree(polar_transform(x))
        z_tree = known_path_tree(polar_transform(blk["w"]))
        families = {
            "h_s": (np.full(x.shape, p_x1), s_tree),
            "h_s_y": (xpost[y], s_tree),
            "h_z_xu": (wxu[x, u], z_tree),
            "h_z_x": (wx[x], z_tree),
            "h_z_all": (wfull[u, x, y, v], z_tree),
        }
        # numpy's axis-0 sum adds rows in order, so the running sum carried
        # as the first row adds every row in draw order
        for fam, (evidence, tree) in families.items():
            h = binary_entropy(known_path_conditionals(evidence, tree))
            sums[fam] = np.add.reduce(np.concatenate((sums[fam][None], h)))
            sqs[fam] = np.add.reduce(np.concatenate((sqs[fam][None], h * h)))

    kw = {"n": n, "samples": total}
    for fam in PolarizedEntropyProfile.FAMILIES:
        mean = sums[fam] / total
        var = np.maximum(sqs[fam] / total - mean * mean, 0.0)
        kw[fam] = np.clip(mean, 0.0, 1.0)
        kw["se_" + fam[2:]] = np.sqrt(var / total)
    return PolarizedEntropyProfile(**kw)


@dataclass(frozen=True)
class PolarIndexSets:
    """The frozen/information/chained partitions driving the codec.

    a1..a4 partition the signal-chain indices; b1..b4 the auxiliary-chain
    indices.  bp1 is the shared-randomness subset of b1 reused across
    blocks; ap3, bp3 are the chaining carriers embedded in a2 and ap2 is
    what remains for local randomness.  All arrays are sorted 0-based
    indices.
    """

    n: int
    delta_n: float
    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    a4: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    b3: np.ndarray
    b4: np.ndarray
    bp1: np.ndarray
    ap3: np.ndarray
    bp3: np.ndarray
    ap2: np.ndarray
    warnings: tuple[str, ...] = field(default=())

    # the sets in the order of reports and cache files
    NAMES = ("a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4", "bp1", "ap3", "bp3", "ap2")

    def __post_init__(self):
        full = np.arange(self.n)
        for name, parts in (("a", (self.a1, self.a2, self.a3, self.a4)),
                            ("b", (self.b1, self.b2, self.b3, self.b4))):
            merged = np.concatenate(parts)
            if len(merged) != self.n or not np.array_equal(np.sort(merged), full):
                raise ValueError(f"{name}-sets must partition 0..n-1 disjointly")
        if not set(self.bp1).issubset(set(self.b1)):
            raise ValueError("bp1 must be a subset of b1")
        a2set = set(self.a2)
        if not (set(self.ap3) | set(self.bp3) | set(self.ap2)) <= a2set:
            raise ValueError("ap3, bp3, ap2 must be subsets of a2")
        if set(self.ap3) & set(self.bp3):
            raise ValueError("ap3 and bp3 must be disjoint")
        if len(self.ap3) != len(self.a3) or len(self.bp3) != len(self.b3):
            raise ValueError("ap3/bp3 sizes must match a3/b3")
        if len(self.ap3) + len(self.bp3) + len(self.ap2) != len(self.a2):
            raise ValueError("ap3, bp3, ap2 must partition a2")

    def to_json_dict(self) -> dict:
        d = {"n": self.n, "delta_n": self.delta_n, "warnings": list(self.warnings)}
        for name in self.NAMES:
            d[name] = getattr(self, name).tolist()
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "PolarIndexSets":
        kw = {"n": int(d["n"]), "delta_n": float(d["delta_n"]),
              "warnings": tuple(d.get("warnings", ()))}
        for name in cls.NAMES:
            kw[name] = np.array(d[name], dtype=np.int64)
        return cls(**kw)


def build_index_sets(profile: PolarizedEntropyProfile, params: PolarParams) -> PolarIndexSets:
    """Threshold the profile at delta_n and form the partitions.

    Raises :class:`CapacityError` when |a2| < |a3| + |b3| (the chaining
    carriers cannot be embedded); anomalies that theory rules out
    asymptotically but estimation noise can produce (nonempty b2, shared
    set outside b1) are recorded as warnings.
    """
    if profile.n != params.n:
        raise ValueError("profile and params disagree on n")
    n, delta = params.n, params.delta_n
    very_high_s = profile.h_s > 1.0 - delta
    high_s_y = profile.h_s_y > delta
    very_high_z = profile.h_z_xu > 1.0 - delta
    high_z_x = profile.h_z_x > delta
    very_high_z_all = profile.h_z_all > 1.0 - delta

    idx = np.arange(n)
    a1 = idx[very_high_s & high_s_y]
    a2 = idx[very_high_s & ~high_s_y]
    a3 = idx[~very_high_s & high_s_y]
    a4 = idx[~very_high_s & ~high_s_y]
    b1 = idx[very_high_z & high_z_x]
    b2 = idx[very_high_z & ~high_z_x]
    b3 = idx[~very_high_z & high_z_x]
    b4 = idx[~very_high_z & ~high_z_x]

    warnings = []
    if len(b2) > 0:
        warnings.append(
            f"b2 nonempty ({len(b2)} indices): estimated very-high-entropy set "
            "is not inside the high-entropy set"
        )
    shared = idx[very_high_z_all]
    outside = np.setdiff1d(shared, b1)
    if len(outside) > 0:
        warnings.append(
            f"{len(outside)} shared-set indices fell outside b1 and were dropped"
        )
    bp1 = np.intersect1d(shared, b1)

    if len(a2) < len(a3) + len(b3):
        raise CapacityError(
            f"|a2|={len(a2)} < |a3|+|b3|={len(a3)}+{len(b3)}: chaining does not "
            f"fit at n={n}; the information constraint fails at this block length"
        )
    ap3 = a2[: len(a3)]
    bp3 = a2[len(a3) : len(a3) + len(b3)]
    ap2 = a2[len(a3) + len(b3) :]
    return PolarIndexSets(
        n=n, delta_n=delta,
        a1=a1, a2=a2, a3=a3, a4=a4,
        b1=b1, b2=b2, b3=b3, b4=b4,
        bp1=bp1, ap3=ap3, bp3=bp3, ap2=ap2,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class RateReport:
    """Per-symbol rate accounting over k blocks of length n."""

    k: int
    n: int
    common_randomness_rate: float
    side_channel_rate: float
    local_randomness_rate: float
    common_randomness_rate_limit: float

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "common_randomness_rate": self.common_randomness_rate,
            "side_channel_rate": self.side_channel_rate,
            "local_randomness_rate": self.local_randomness_rate,
            "common_randomness_rate_limit": self.common_randomness_rate_limit,
        }


def rate_report(sets: PolarIndexSets, k: int) -> RateReport:
    """Rates in bits per transmitted symbol over k blocks.

    Common randomness counts the per-block frozen fills (|a1| and
    |b1 \\ bp1| each block, the shared bp1 fill once) plus the k-1 pad keys
    (|a3| and |b3| each); the error-free side channel carries the final
    block's chained bits; local randomness fills a2 in block 1 and ap2
    afterwards.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = sets.n
    na1, na3, nb1, nb3, nbp1 = (len(sets.a1), len(sets.a3), len(sets.b1), len(sets.b3), len(sets.bp1))
    cr_bits = k * na1 + (k - 1) * na3 + k * nb1 + (k - 1) * nb3 - (k - 1) * nbp1
    side_bits = na3 + nb3
    local_bits = len(sets.a2) + (k - 1) * len(sets.ap2)
    return RateReport(
        k=k,
        n=n,
        common_randomness_rate=cr_bits / (k * n),
        side_channel_rate=side_bits / (k * n),
        local_randomness_rate=local_bits / (k * n),
        common_randomness_rate_limit=(na1 + na3 + nb1 + nb3 - nbp1) / n,
    )


@dataclass(frozen=True)
class DivergenceCertificate:
    """Estimated one-block divergence of the frozen fills from the model.

    d1 sums (1 - H(S_j|S^{j-1})) over the uniformly filled signal indices,
    d2 sums (1 - H(Z_j|Z^{j-1}X^nU^n)) over the uniformly filled auxiliary
    indices; the construction guarantees d1 + d2 < 2 n delta_n up to
    Monte-Carlo error (stderr is the standard error of the estimated sum).
    """

    d1: float
    d2: float
    bound: float
    stderr: float

    @property
    def total(self) -> float:
        return self.d1 + self.d2

    def to_json_dict(self) -> dict:
        return {"d1": self.d1, "d2": self.d2, "bound": self.bound, "stderr": self.stderr}


def divergence_certificate(
    profile: PolarizedEntropyProfile, sets: PolarIndexSets
) -> DivergenceCertificate:
    s_fill = np.concatenate([sets.a1, sets.a2]).astype(np.intp)
    z_fill = sets.b1.astype(np.intp)
    d1 = float((1.0 - profile.h_s[s_fill]).sum())
    d2 = float((1.0 - profile.h_z_xu[z_fill]).sum())
    stderr = float(
        np.sqrt((profile.se_s[s_fill] ** 2).sum() + (profile.se_z_xu[z_fill] ** 2).sum())
    )
    return DivergenceCertificate(d1=d1, d2=d2, bound=2.0 * sets.n * sets.delta_n, stderr=stderr)


# ---------------------------------------------------------------------------
# binary cache

_CACHE_MAGIC = b"CSIX"
_CACHE_VERSION = 1


def save_index_cache(path, sets: PolarIndexSets):
    """Persist index sets: magic, u32 version, u32 n, f64 delta_n, then for
    each set a u32 count and little-endian u32 indices, then length-prefixed
    utf-8 warning strings."""
    with open(path, "wb") as fh:
        fh.write(_CACHE_MAGIC)
        fh.write(struct.pack("<II", _CACHE_VERSION, sets.n))
        fh.write(struct.pack("<d", sets.delta_n))
        for name in PolarIndexSets.NAMES:
            arr = np.asarray(getattr(sets, name), dtype="<u4")
            fh.write(struct.pack("<I", len(arr)))
            fh.write(arr.tobytes())
        fh.write(struct.pack("<I", len(sets.warnings)))
        for w in sets.warnings:
            enc = w.encode("utf-8")
            fh.write(struct.pack("<I", len(enc)))
            fh.write(enc)


def load_index_cache(path) -> PolarIndexSets:
    with open(path, "rb") as fh:
        if fh.read(4) != _CACHE_MAGIC:
            raise ValueError(f"{path}: not an index cache file")
        version, n = struct.unpack("<II", fh.read(8))
        if version != _CACHE_VERSION:
            raise ValueError(f"{path}: unsupported cache version {version}")
        (delta,) = struct.unpack("<d", fh.read(8))
        kw: dict = {"n": n, "delta_n": delta}
        for name in PolarIndexSets.NAMES:
            (count,) = struct.unpack("<I", fh.read(4))
            kw[name] = np.frombuffer(fh.read(4 * count), dtype="<u4").astype(np.int64)
        (nwarn,) = struct.unpack("<I", fh.read(4))
        warnings = []
        for _ in range(nwarn):
            (ln,) = struct.unpack("<I", fh.read(4))
            warnings.append(fh.read(ln).decode("utf-8"))
        kw["warnings"] = tuple(warnings)
    return PolarIndexSets(**kw)
