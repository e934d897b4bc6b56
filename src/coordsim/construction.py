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

import math
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .polar import CHUNK_ROWS, KnownPathWorkspace, known_path_conditionals, known_path_tree
from .probability import ConditionalPMF, JointPMF, cell_symbols, condition, iid_cells, marginalize
from .region import AXES_UXYV, AuxiliaryDecomposition, CoordinationTarget, LawJSON, check_source_axes, witness_joint

__all__ = [
    "PolarParams",
    "SourceModel",
    "PolarizedEntropyProfile",
    "PolarIndexSets",
    "CapacityError",
    "estimate_profile",
    "build_index_sets",
    "common_randomness_shapes",
    "rate_report",
    "RateReport",
    "divergence_certificate",
    "DivergenceCertificate",
    "save_index_cache",
    "load_index_cache",
]


_TINY = np.finfo(np.float64).tiny


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


@dataclass(frozen=True)
class SourceModel(LawJSON):
    """A coordination target plus the witness that induces it: the
    single-letter law P_U P_X P_{Y|X} P_{W|UX} P_{V|WY}, with binary X and
    W for the polar codec and at most 256 symbols on every axis.

    Its (U, X, Y, V) marginal is the :attr:`target` and (P_{W|UX},
    P_{V|WY}) the :attr:`witness`; the polar scheme runs on the whole law.
    """

    # the JSON keys in order, each a field of its pmf type
    JSON_FIELDS = {
        "u_prior": JointPMF,
        "x_prior": JointPMF,
        "channel": ConditionalPMF,
        "w_rule": ConditionalPMF,
        "v_rule": ConditionalPMF,
    }

    u_prior: JointPMF
    x_prior: JointPMF
    channel: ConditionalPMF
    w_rule: ConditionalPMF
    v_rule: ConditionalPMF

    def __post_init__(self):
        check_source_axes(self.u_prior, self.x_prior, self.channel)
        AuxiliaryDecomposition(2, self.w_rule, self.v_rule)  # W|UX with binary W, V|WY
        if self.x_prior.axes[0].size != 2:
            raise ValueError("X must be binary")
        # composing checks that the factors agree on every shared axis size
        joint = witness_joint(self.u_prior, self.x_prior, self.channel, self.w_rule, self.v_rule)
        # the codec holds blocks as uint8, so a wider axis would wrap modulo 256
        for axis in joint.axes:
            if axis.size > 256:
                raise ValueError(f"axis {axis.name!r} has {axis.size} symbols; a source model allows at most 256")
        object.__setattr__(self, "_joint", joint)

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
        filled uniformly by the conditioning op."""
        c = condition(self.single_letter_joint(), ["W"], ["U", "X", "Y", "V"])
        return c.table[..., 1].copy()

    def sample_blocks(self, rng: np.random.Generator, count: int, n: int) -> dict[str, np.ndarray]:
        """``count`` i.i.d. blocks of length ``n`` of the 5-tuple, as a dict
        of (count, n) uint8 arrays keyed 'u','x','w','y','v', and under
        'cells' the (count, n) cells of the flat single-letter joint table
        they were read from: one draw, by :func:`~coordsim.probability.iid_cells`."""
        joint = self.single_letter_joint()
        cells = iid_cells(joint, rng, count, n)
        return dict(zip("uxwyv", cell_symbols(joint, cells)), cells=cells)


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


def estimate_profile(model: SourceModel, params: PolarParams, rng: np.random.Generator) -> PolarizedEntropyProfile:
    """Monte-Carlo estimates of the five per-index conditional entropies.

    Each sample draws a full i.i.d. block of (u, x, w, y, v), and evaluates
    the exact successive-cancellation conditional of every bit of s = T(x)
    and z = T(w) along the true path; h(p) averaged over samples estimates
    the conditional entropy.  The rows are drawn and scored ``CHUNK_ROWS``
    at a time, one stream for the whole run, all chunks in one
    :class:`~coordsim.polar.KnownPathWorkspace`.  Within a chunk the two
    families on the bits of s share one partial-sum tree, built from the
    sampled x, and the three families on the bits of z share another, from
    w.  Each family's leaf evidence is a function of the joint cell of the
    symbol, so it is one table over the joint's cells, read at the chunk's
    sampled cells.  Every h and h*h is summed in draw order.

    A family whose evidence table is 1/2 at every entry is scored in closed
    form: every conditional is then 1/2 exactly (f(1/2, 1/2) = 1/2 and
    g(1/2, 1/2, x) = 1/2 in float64), so every h is 1.0, and the family's
    sums are the row count without a kernel call.
    """
    n, total = params.n, params.mc_samples
    joint = model.single_letter_joint()
    u, x, _, y, v = cell_symbols(joint, np.arange(joint.table.size))
    # each family's chain and its leaf evidence at every cell of the joint
    families = {
        "h_s": ("x", np.full(u.shape, float(model.x_prior.table[1]))),
        "h_s_y": ("x", model.x_posterior_given_y()[y]),
        "h_z_xu": ("w", model.w_given_xu()[x, u]),
        "h_z_x": ("w", model.w_given_x()[x]),
        "h_z_all": ("w", model.w_posterior_full()[u, x, y, v]),
    }
    scored = {fam: (bits, table) for fam, (bits, table) in families.items() if np.any(table != 0.5)}
    chains = dict.fromkeys(bits for bits, _ in scored.values())

    sums = {fam: np.zeros(n) if fam in scored else np.full(n, float(total)) for fam in families}
    sqs = {fam: sums[fam].copy() for fam in families}
    workspace = KnownPathWorkspace(CHUNK_ROWS, n)
    # row 0 carries a running sum and rows 1.. a chunk's h: numpy's axis-0
    # sum adds rows in order, so every row is added in draw order
    block = np.empty((CHUNK_ROWS + 1, n))
    leaf, entropies, scratch = np.empty((3, CHUNK_ROWS * n))  # (n, rows) per chunk, the kernel's layout
    for lo in range(0, total, CHUNK_ROWS):
        rows = min(CHUNK_ROWS, total - lo)
        blk = model.sample_blocks(rng, rows, n)
        cells = blk["cells"].T
        trees = {bits: known_path_tree(blk[bits].T) for bits in chains}
        ev, ent, tmp = (buf[: n * rows].reshape(n, rows) for buf in (leaf, entropies, scratch))
        h = block[1 : rows + 1]
        for fam, (bits, table) in scored.items():
            np.take(table, cells, out=ev, mode="clip")  # every cell is in range; "clip" skips a buffered copy
            _binary_entropy_into(known_path_conditionals(ev, trees[bits], workspace), ent, tmp)
            h[...] = ent.T
            block[0] = sums[fam]
            np.add.reduce(block[: rows + 1], out=sums[fam])
            np.multiply(h, h, out=h)
            block[0] = sqs[fam]
            np.add.reduce(block[: rows + 1], out=sqs[fam])

    kw = {"n": n, "samples": total}
    for fam in PolarizedEntropyProfile.FAMILIES:
        mean = sums[fam] / total
        var = np.maximum(sqs[fam] / total - mean * mean, 0.0)
        kw[fam] = np.clip(mean, 0.0, 1.0)
        kw["se_" + fam[2:]] = np.sqrt(var / total)
    return PolarizedEntropyProfile(**kw)


def _binary_entropy_into(p, h, scratch):
    """``binary_entropy(p)`` bit for bit, written to ``h``, for
    conditionals p in [1e-20, 1]; ``scratch`` has p's shape.

    With p > 0, log2 p is taken everywhere; q = 1 - p is 0 only where
    p = 1, and there q log2 max(q, tiny) is -0.0 where binary_entropy adds
    0.0, which leaves the sum p log2 p = 0.0 as it is.
    """
    q = np.subtract(1.0, p, out=h)
    q_log_q = np.maximum(q, _TINY, out=scratch)
    np.log2(q_log_q, out=q_log_q)
    q_log_q *= q
    np.log2(p, out=h)
    h *= p
    h += q_log_q
    np.negative(h, out=h)


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
    in_b1 = very_high_z & high_z_x
    b1 = idx[in_b1]
    b2 = idx[very_high_z & ~high_z_x]
    b3 = idx[~very_high_z & high_z_x]
    b4 = idx[~very_high_z & ~high_z_x]

    warnings = []
    if len(b2) > 0:
        warnings.append(
            f"b2 nonempty ({len(b2)} indices): estimated very-high-entropy set "
            "is not inside the high-entropy set"
        )
    outside = np.count_nonzero(very_high_z_all & ~in_b1)
    if outside > 0:
        warnings.append(
            f"{outside} shared-set indices fell outside b1 and were dropped"
        )
    bp1 = idx[very_high_z_all & in_b1]

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
        return asdict(self)


def common_randomness_shapes(sets: PolarIndexSets, k: int) -> dict[str, tuple[int, ...]]:
    """The shape of each common-randomness field over k blocks, in draw
    order: the per-block frozen fills c (a1-sized) and c_prime (b1 minus
    bp1), the block-reused fill c_bar (bp1-sized), and the k-1 pad keys
    keys_s (a3-sized) / keys_z (b3-sized) linking consecutive blocks."""
    return {
        "c": (k, len(sets.a1)),
        "c_prime": (k, len(sets.b1) - len(sets.bp1)),
        "c_bar": (len(sets.bp1),),
        "keys_s": (k - 1, len(sets.a3)),
        "keys_z": (k - 1, len(sets.b3)),
    }


def rate_report(sets: PolarIndexSets, k: int) -> RateReport:
    """Rates in bits per transmitted symbol over k blocks.

    Common randomness counts the fields of
    :func:`common_randomness_shapes`; the error-free side channel carries
    the final block's chained bits; local randomness fills a2 in block 1
    and ap2 afterwards.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = sets.n
    na1, na3, nb1, nb3, nbp1 = (len(sets.a1), len(sets.a3), len(sets.b1), len(sets.b3), len(sets.bp1))
    cr_bits = sum(math.prod(shape) for shape in common_randomness_shapes(sets, k).values())
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
        return asdict(self)


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
    """Index sets written by :func:`save_index_cache`.  A file that is not
    one, is cut short or holds a count past its end raises ValueError
    naming ``path``; the file is read whole, so no count sizes a read."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        if data[:4] != _CACHE_MAGIC:
            raise ValueError("not an index cache file")
        version, n, delta = struct.unpack_from("<IId", data, 4)
        if version != _CACHE_VERSION:
            raise ValueError(f"unsupported cache version {version}")
        kw: dict = {"n": n, "delta_n": delta}
        pos = 20
        for name in PolarIndexSets.NAMES:
            (count,) = struct.unpack_from("<I", data, pos)
            kw[name] = np.frombuffer(data, dtype="<u4", count=count, offset=pos + 4).astype(np.int64)
            pos += 4 + 4 * count
        (nwarn,) = struct.unpack_from("<I", data, pos)
        pos += 4
        warnings = []
        for _ in range(nwarn):
            (ln,) = struct.unpack_from("<I", data, pos)
            (text,) = struct.unpack_from(f"{ln}s", data, pos + 4)
            warnings.append(text.decode("utf-8"))
            pos += 4 + ln
        kw["warnings"] = tuple(warnings)
        return PolarIndexSets(**kw)
    except (struct.error, ValueError) as err:
        raise ValueError(f"{path}: {err}") from None
