"""Coordination rate-region membership: evaluation, search, and rate ledger.

A coordination problem is the tuple (P_U, P_X, P_{Y|X}, P_{V|UXY}); a
candidate auxiliary decomposition is a pair (P_{W|UX}, P_{V|WY}).  The
decomposition witnesses membership in the inner/outer regions when the
induced joint P_U P_X P_{W|UX} P_{Y|X} P_{V|WY} reproduces the target over
(U, X, Y, V) and the information constraint I(WX;U) <= I(WX;Y) holds.  The
two regions share those constraints and differ only in the common-randomness
bound:

    inner:  R0 >= I(W; UXV | Y) + H(X | WY)
    outer:  R0 >= I(W; UXV | Y)

"infeasible" from the search means "no witness found within budget"; global
optimality of the bilinear search is not claimed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .probability import (
    Alphabet,
    ConditionalPMF,
    JointPMF,
    UnknownKeyError,
    compose,
    condition,
    conditional_entropy,
    entropy,
    marginalize,
    mutual_information,
    reject_unknown_keys,
    total_variation,
)

__all__ = [
    "AXES_UXYV",
    "CoordinationTarget",
    "AuxiliaryDecomposition",
    "RegionVerdict",
    "RateLedger",
    "FactorizationError",
    "EmptyWindow",
    "check_source_axes",
    "check_target_factorization",
    "witness_joint",
    "induced_joint",
    "evaluate",
    "empirical_region_check",
    "search_auxiliary",
    "binning_rate_ledger",
    "cardinality_bound",
]

AXES_UXYV = ("U", "X", "Y", "V")

DEFAULT_TOL = 1e-6
DEFAULT_RESTARTS = 32
INFO_SLACK_TOL = 1e-9  # closure of the region


class FactorizationError(ValueError):
    """A joint distribution fails the required factorization; carries the
    violated condition and its magnitude."""

    def __init__(self, condition_name: str, magnitude: float):
        self.condition_name = condition_name
        self.magnitude = magnitude
        super().__init__(f"factorization violated: {condition_name} (magnitude {magnitude:.3g})")


class EmptyWindow(ValueError):
    """A strict rate window required by the binning scheme is empty."""


def check_source_axes(p_u: JointPMF, p_x: JointPMF, channel: ConditionalPMF):
    """The axis checks on (P_U, P_X, P_{Y|X}) that every model shares."""
    if p_u.axis_names != ("U",) or p_x.axis_names != ("X",):
        raise ValueError("p_u / p_x must be single-axis pmfs over axes 'U' / 'X'")
    if channel.given_names != ("X",) or channel.out_names != ("Y",):
        raise ValueError("channel must be Y|X")


class LawJSON:
    """The JSON round trip of a law type: ``JSON_FIELDS`` maps each JSON
    key, in order, to the field of that name and the pmf type it holds.  A
    key outside them, in the law or in one of its pmfs, raises
    :class:`~coordsim.probability.UnknownKeyError`."""

    def to_json_dict(self) -> dict:
        return {key: getattr(self, key).to_json_dict() for key in self.JSON_FIELDS}

    @classmethod
    def from_json_dict(cls, d: dict):
        fields = {}
        for key, kind in cls.JSON_FIELDS.items():
            try:
                fields[key] = kind.from_json_dict(d[key])
            except UnknownKeyError as err:
                raise UnknownKeyError(key, *err.path) from None
        reject_unknown_keys(d, cls.JSON_FIELDS)
        return cls(**fields)


@dataclass(frozen=True)
class CoordinationTarget(LawJSON):
    """The coordination problem (P_U, P_X, P_{Y|X}, P_{V|UXY})."""

    # the JSON keys in order, each a field of its pmf type
    JSON_FIELDS = {"p_u": JointPMF, "p_x": JointPMF, "channel": ConditionalPMF, "action_rule": ConditionalPMF}

    p_u: JointPMF
    p_x: JointPMF
    channel: ConditionalPMF
    action_rule: ConditionalPMF

    def __post_init__(self):
        check_source_axes(self.p_u, self.p_x, self.channel)
        if set(self.action_rule.given_names) != {"U", "X", "Y"} or self.action_rule.out_names != ("V",):
            raise ValueError("action_rule must be V|UXY")
        # composing checks that the factors agree on every shared axis size
        joint = compose(compose(JointPMF.product(self.p_u, self.p_x), self.channel), self.action_rule)
        object.__setattr__(self, "_joint", joint)

    def joint(self) -> JointPMF:
        """The target joint over (U, X, Y, V), composed once at construction."""
        return self._joint


def cardinality_bound(target: CoordinationTarget) -> int:
    """|U||X||Y||V| + 4, the largest |W| a witness needs."""
    return target.joint().table.size + 4


@dataclass(frozen=True)
class AuxiliaryDecomposition:
    """A candidate witness (P_{W|UX}, P_{V|WY}) with |W| = w_size."""

    w_size: int
    p_w_given_ux: ConditionalPMF
    p_v_given_wy: ConditionalPMF

    def __post_init__(self):
        if set(self.p_w_given_ux.given_names) != {"U", "X"} or self.p_w_given_ux.out_names != ("W",):
            raise ValueError("p_w_given_ux must be W|UX")
        if set(self.p_v_given_wy.given_names) != {"W", "Y"} or self.p_v_given_wy.out_names != ("V",):
            raise ValueError("p_v_given_wy must be V|WY")
        if self.p_w_given_ux.out_axes[0].size != self.w_size:
            raise ValueError("w_size does not match the W axis of p_w_given_ux")

    def to_json_dict(self) -> dict:
        return {
            "w_size": self.w_size,
            "p_w_given_ux": self.p_w_given_ux.to_json_dict(),
            "p_v_given_wy": self.p_v_given_wy.to_json_dict(),
        }


@dataclass(frozen=True)
class RegionVerdict:
    """The score of one witness.  A verdict returned by
    :func:`search_auxiliary` also says how far its rate depends on the
    witness: how many restarts ended feasible, and the least and largest
    inner rate among them (None when none did)."""

    feasible: bool
    residual: float
    info_slack: float
    inner_rate: float
    outer_rate: float
    witness: AuxiliaryDecomposition
    feasible_restarts: int | None = None
    inner_rate_range: tuple[float, float] | None = None

    def to_json_dict(self) -> dict:
        d = {
            "feasible": self.feasible,
            "residual": self.residual,
            "info_slack": self.info_slack,
            "inner_rate": self.inner_rate,
            "outer_rate": self.outer_rate,
            "witness": self.witness.to_json_dict(),
        }
        if self.feasible_restarts is not None:
            d["feasible_restarts"] = self.feasible_restarts
            d["inner_rate_range"] = None if self.inner_rate_range is None else list(self.inner_rate_range)
        return d


def check_target_factorization(
    joint: JointPMF, channel: ConditionalPMF, tol: float = 1e-9
) -> CoordinationTarget:
    """Verify that a joint over (U,X,Y,V) factors as required and extract
    the four factors.

    Checks (i) I(U;X) = 0 within tol and (ii) the conditional Y|X of the
    joint matches ``channel`` within tol in per-row total variation on
    positive-mass rows.
    """
    if set(joint.axis_names) != set(AXES_UXYV):
        raise ValueError(f"joint must have axes {AXES_UXYV}, got {joint.axis_names}")
    i_ux = mutual_information(joint, ["U"], ["X"])
    if i_ux > tol:
        raise FactorizationError("independence I(U;X)=0", i_ux)
    got = condition(joint, ["Y"], ["X"])
    p_x = marginalize(joint, ["X"])
    worst = 0.0
    for x in range(p_x.axes[0].size):
        if p_x.table[x] <= 0:
            continue
        worst = max(worst, float(np.abs(got.table[x] - channel.table[x]).sum()))
    if worst > tol:
        raise FactorizationError("channel Y|X mismatch", worst)
    return CoordinationTarget(
        p_u=marginalize(joint, ["U"]),
        p_x=p_x,
        channel=channel,
        action_rule=condition(joint, ["V"], ["U", "X", "Y"]),
    )


def witness_joint(
    p_u: JointPMF, p_x: JointPMF, channel: ConditionalPMF, w_rule: ConditionalPMF, v_rule: ConditionalPMF
) -> JointPMF:
    """P_U P_X P_{W|UX} P_{Y|X} P_{V|WY} over axes (U, X, W, Y, V): the one
    composition behind :func:`induced_joint` and the source model's joint."""
    j = JointPMF.product(p_u, p_x)
    j = compose(j, w_rule)
    j = compose(j, channel)
    j = compose(j, v_rule)
    return j


def induced_joint(target: CoordinationTarget, aux: AuxiliaryDecomposition) -> JointPMF:
    """P_U P_X P_{W|UX} P_{Y|X} P_{V|WY} over axes (U, X, W, Y, V)."""
    return witness_joint(target.p_u, target.p_x, target.channel, aux.p_w_given_ux, aux.p_v_given_wy)


def _rates(ind: JointPMF) -> tuple[float, float]:
    outer = mutual_information(ind, ["W"], ["U", "X", "V"], ["Y"])
    inner = outer + conditional_entropy(ind, ["X"], ["W", "Y"])
    return inner, outer


def evaluate(
    target: CoordinationTarget, aux: AuxiliaryDecomposition, tol: float = DEFAULT_TOL
) -> RegionVerdict:
    """Score a candidate witness against the target.

    residual  -- total variation between the induced (U,X,Y,V) marginal and
                 the target joint
    info_slack-- I(WX;Y) - I(WX;U) on the induced joint
    """
    ind = induced_joint(target, aux)
    residual = total_variation(marginalize(ind, AXES_UXYV), target.joint())
    info_slack = mutual_information(ind, ["W", "X"], ["Y"]) - mutual_information(
        ind, ["W", "X"], ["U"]
    )
    inner, outer = _rates(ind)
    feasible = residual <= tol and info_slack >= -INFO_SLACK_TOL
    return RegionVerdict(feasible, residual, info_slack, inner, outer, aux)


def empirical_region_check(
    target: CoordinationTarget, aux: AuxiliaryDecomposition, tol: float = DEFAULT_TOL
) -> bool:
    """Membership test for the empirical-coordination region: identical to
    :func:`evaluate` feasibility but with no common-randomness bound."""
    return evaluate(target, aux, tol).feasible


# ---------------------------------------------------------------------------
# search


def _as_aux(target: CoordinationTarget, w_size: int, q: np.ndarray, r: np.ndarray) -> AuxiliaryDecomposition:
    W = Alphabet("W", w_size)
    # renormalize rows exactly (the softmax rows sum to 1 only up to fp error)
    q = q / q.sum(axis=-1, keepdims=True)
    r = r / r.sum(axis=-1, keepdims=True)
    return AuxiliaryDecomposition(
        w_size,
        ConditionalPMF(target.p_u.axes + target.p_x.axes, (W,), q),
        ConditionalPMF((W,) + target.channel.out_axes, target.action_rule.out_axes, r),
    )


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    # z holds k-1 free logits per row; the first logit is pinned to 0
    full = np.concatenate([np.zeros(z.shape[:-1] + (1,)), z], axis=-1)
    e = np.exp(full - full.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _logits(rows: np.ndarray) -> np.ndarray:
    p = np.clip(rows, 1e-12, 1.0)
    return np.log(p[..., 1:]) - np.log(p[..., :1])


FIT_EVALS = 400  # residual evaluations per restart in the fit


def _softmax_fit(c, tgt, zq, zr):
    """Residual and Jacobian of the row-softmax fit for a batch of restarts.

    ``zq`` (restarts, u, x, w-1) and ``zr`` (restarts, w, y, v-1) hold the
    free logits of P_{W|UX} and P_{V|WY}.  The residual M - target, with
    M[u,x,y,v] = c[u,x,y] sum_k q[u,x,k] r[k,y,v] and c = P_U P_X P_{Y|X},
    is flattened to (restarts, cells); the Jacobian (restarts, cells,
    params) takes the parameters in the order of the flattened ``zq`` and
    then ``zr``.  Every entry is computed per restart.
    """
    q, r = _softmax_rows(zq), _softmax_rows(zr)
    restarts, nu, nx, _ = q.shape
    ny, nv = r.shape[2:]
    cv = c[:, :, :, None, None]
    mix = (q[..., None, None] * r[:, None, None]).sum(axis=3)  # (restarts, u, x, y, v)
    resid = (cv[..., 0] * mix - tgt).reshape(restarts, -1)
    cells = resid.shape[1]
    # dM[u,x,y,v]/dzq[u,x,j] = c q_j (r[j,y,v] - mix[u,x,y,v]); zero off row (u, x)
    r_j = np.moveaxis(r[:, 1:], 1, -1)[:, None, None]  # (restarts, 1, 1, y, v, w-1)
    dq = cv * q[:, :, :, None, None, 1:] * (r_j - mix[..., None])
    eye_ux = np.eye(nu * nx).reshape(nu, nx, 1, 1, nu, nx, 1)
    jq = dq[:, :, :, :, :, None, None, :] * eye_ux
    # dM[u,x,y,v]/dzr[w,y,j] = c q_w r[w,y,v] (delta_vj - r[w,y,j]); zero off column y
    soft = r[..., None] * (np.eye(nv)[:, 1:] - r[:, :, :, None, 1:])  # (restarts, w, y, v, v-1)
    dr = cv[..., None] * q[:, :, :, None, None, :, None] * np.moveaxis(soft, 1, 3)[:, None, None]
    jr = dr[..., None, :] * np.eye(ny).reshape(ny, 1, 1, ny, 1)
    jac = np.concatenate([jq.reshape(restarts, cells, -1), jr.reshape(restarts, cells, -1)], axis=2)
    return resid, jac


def least_squares(target: CoordinationTarget, q, r):
    """Levenberg-Marquardt fit of a batch of witnesses to ``target``, in
    logit space.

    ``q`` (restarts, u, x, w) and ``r`` (restarts, w, y, v) are the start
    rows, in the interior of the simplex; the row-softmax parameterization
    removes the simplex constraints, and the closed-form Jacobian of
    :func:`_softmax_fit` gives the damped Gauss-Newton step
    (J^T J + lam I) d = -J^T f, one ``np.linalg.solve`` on the stacked
    normal equations per iteration.
    Each restart keeps its own damping lam (the gain-ratio update of Madsen,
    Nielsen and Tingleff, "Methods for non-linear least squares problems",
    2004), accepts a step only if it lowers ||f||, and stops at a zero
    gradient, a step below ``1e-10`` relative to its parameters, a relative
    cost decrease below ``1e-10``, or after ``FIT_EVALS`` residual
    evaluations.  Each restart's arithmetic is that of a batch of one, so
    its result does not depend on the rest of the batch.  Returns the
    fitted (q, r) rows.
    """
    restarts = len(q)
    zq, zr = _logits(q), _logits(r)
    qshape, rshape = zq.shape[1:], zr.shape[1:]
    nq = int(np.prod(qshape))
    tgt = target.joint().table  # [u, x, y, v]
    c = target.p_u.table[:, None, None] * target.p_x.table[None, :, None] * target.channel.table[None]

    def fit(theta):
        # the residual f with the normal-equation terms J^T J and J^T f
        zq = theta[:, :nq].reshape((len(theta),) + qshape)
        zr = theta[:, nq:].reshape((len(theta),) + rshape)
        f, jac = _softmax_fit(c, tgt, zq, zr)
        jt = np.swapaxes(jac, 1, 2)
        return f, jt @ jac, (jt @ f[..., None])[..., 0]

    theta = np.concatenate([zq.reshape(restarts, -1), zr.reshape(restarts, -1)], axis=1)
    f, a, g = fit(theta)
    cost = (f * f).sum(axis=1)
    eye = np.eye(theta.shape[1])
    lam = 1e-3 * np.diagonal(a, axis1=1, axis2=2).max(axis=1, initial=0.0)
    growth = np.full(restarts, 2.0)  # lam's factor after a rejected step
    live = np.arange(restarts)
    for _ in range(FIT_EVALS - 1):
        live = live[np.any(g[live] != 0.0, axis=1)]  # a zero gradient is stationary
        if not live.size:
            break
        th, al, gl = theta[live], a[live], g[live]
        # the floor keeps the damped matrix definite where lam has shrunk below rounding
        lam_l = np.maximum(lam[live], 1e-12 * np.diagonal(al, axis1=1, axis2=2).max(axis=1))
        step = -np.linalg.solve(al + lam_l[:, None, None] * eye, gl[..., None])[..., 0]
        trial = th + step
        f_new, a_new, g_new = fit(trial)
        cost_new = (f_new * f_new).sum(axis=1)
        gain = cost[live] - cost_new
        # the decrease of ||f||^2 that the damped linear model predicts
        predicted = (step * (lam_l[:, None] * step - gl)).sum(axis=1)
        accept = gain > 0.0
        rho = np.ones_like(gain)
        np.divide(gain, predicted, out=rho, where=accept & (predicted > 0.0))
        growth_l = growth[live]
        shrink = np.maximum(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
        lam[live] = np.where(accept, lam_l * shrink, lam_l * growth_l)
        growth[live] = np.where(accept, 2.0, 2.0 * growth_l)
        step_norm, theta_norm = np.sqrt((step * step).sum(axis=1)), np.sqrt((th * th).sum(axis=1))
        done = (step_norm <= 1e-10 * (theta_norm + 1e-10)) | (accept & (gain <= 1e-10 * cost[live]))
        took = live[accept]
        theta[took], cost[took] = trial[accept], cost_new[accept]
        a[took], g[took] = a_new[accept], g_new[accept]
        live = live[~done]
    zq = theta[:, :nq].reshape((restarts,) + qshape)
    zr = theta[:, nq:].reshape((restarts,) + rshape)
    return _softmax_rows(zq), _softmax_rows(zr)


def search_auxiliary(
    target: CoordinationTarget,
    w_size: int,
    restarts: int = DEFAULT_RESTARTS,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> RegionVerdict:
    """Search for a witness at fixed |W| with random restarts, each a
    Levenberg-Marquardt fit (:func:`least_squares`) of (P_{W|UX}, P_{V|WY})
    to the target from a uniform Dirichlet start.

    Restart i draws its start from the i-th child of ``SeedSequence(seed)``.
    The restarts are fitted in lockstep, as one batch with a leading restart
    axis, each with its own damping factor and stop rule, so the result
    equals that of fitting the restarts one after another.  Each fitted
    witness is then scored with :func:`evaluate`.

    Returns the best verdict found: among feasible witnesses the one with
    the smallest inner rate, otherwise the one with the smallest residual,
    with the number of feasible restarts and the range of their inner
    rates.  An infeasible verdict means "not found within budget".
    """
    if w_size < 1:
        raise ValueError("w_size must be >= 1")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if w_size > cardinality_bound(target):
        raise ValueError(f"w_size {w_size} exceeds the cardinality bound {cardinality_bound(target)}")
    nu, nx, ny, nv = target.joint().table.shape
    q, r = [], []
    for ss in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(ss)
        q.append(rng.dirichlet(np.ones(w_size), size=(nu, nx)))
        r.append(rng.dirichlet(np.ones(nv), size=(w_size, ny)))
    q, r = least_squares(target, np.array(q), np.array(r))
    verdicts = [evaluate(target, _as_aux(target, w_size, qi, ri), tol) for qi, ri in zip(q, r)]
    feasible = [v for v in verdicts if v.feasible]
    if feasible:
        best = min(feasible, key=lambda v: (v.inner_rate, v.residual))
        rates = [v.inner_rate for v in feasible]
        return replace(best, feasible_restarts=len(feasible), inner_rate_range=(min(rates), max(rates)))
    return replace(min(verdicts, key=lambda v: (v.residual, v.inner_rate)), feasible_restarts=0)


# ---------------------------------------------------------------------------
# rate ledger


@dataclass(frozen=True)
class RateLedger:
    """Single-letter entropy accounting for the random-binning scheme.

    ``windows`` maps each rate name to an admissible (lo, hi) interval
    computed with the other rates fixed at the canonical assignment
    ``assignment``.  Strict inequality endpoints carry a 1e-9 margin; an
    extraction-side bound of exactly zero collapses the window to {0}.
    """

    entropies: dict[str, float]
    windows: dict[str, tuple[float, float]]
    assignment: dict[str, float]
    r0_bound: float

    def to_json_dict(self) -> dict:
        return {
            "entropies": dict(self.entropies),
            "windows": {k: list(v) for k, v in self.windows.items()},
            "assignment": dict(self.assignment),
            "r0_bound": self.r0_bound,
        }

    def table(self) -> str:
        lines = [f"{'quantity':<14}{'value':>12}"]
        for k, v in self.entropies.items():
            lines.append(f"{k:<14}{v:>12.6f}")
        lines.append("")
        lines.append(f"{'rate':<8}{'window low':>14}{'window high':>14}{'chosen':>12}")
        for k, (lo, hi) in self.windows.items():
            lines.append(f"{k:<8}{lo:>14.6f}{hi:>14.6f}{self.assignment[k]:>12.6f}")
        lines.append("")
        lines.append(f"R0 lower bound: {self.r0_bound:.6f}")
        return "\n".join(lines)


_STRICT = 1e-9


def binning_rate_ledger(target: CoordinationTarget, aux: AuxiliaryDecomposition) -> RateLedger:
    """Entropy ledger and admissible rate windows for the binning scheme.

    The constraints are

        R1 > H(X|Y)              (reconstruct X from Y and its bin)
        R1 + R2 <= H(X)          (bin indices of X near-uniform)
        R3 + Rf <= H(W|XU)       (bins of W near-independent of X, U)
        R3 + R4 + Rf > H(W|X)    (reconstruct W from X and its bins)
        Rf <= H(W|UXYV)          (shared-instance reduction)
        R4 <= R2                 (pad embedding)

    with R0 = R1 + R3 + R4 bounded below by
    H(X|Y) + H(W|X) - H(W|UXYV) = I(W;UXV|Y) + H(X|WY); the identity
    H(WX|Y) = H(X|Y) + H(W|X) is verified on the induced joint.
    """
    ind = induced_joint(target, aux)
    h_x = entropy(ind, ["X"])
    h_x_y = conditional_entropy(ind, ["X"], ["Y"])
    h_w_xu = conditional_entropy(ind, ["W"], ["X", "U"])
    h_w_x = conditional_entropy(ind, ["W"], ["X"])
    h_w_all = conditional_entropy(ind, ["W"], ["U", "X", "Y", "V"])
    h_wx_y = conditional_entropy(ind, ["W", "X"], ["Y"])
    if abs(h_wx_y - (h_x_y + h_w_x)) > 1e-9:
        raise AssertionError(
            f"H(WX|Y) != H(X|Y) + H(W|X): {h_wx_y!r} vs {h_x_y + h_w_x!r}; "
            "the induced joint lost its Markov structure"
        )
    entropies = {
        "H(X)": h_x,
        "H(X|Y)": h_x_y,
        "H(W|XU)": h_w_xu,
        "H(W|X)": h_w_x,
        "H(W|UXYV)": h_w_all,
    }
    r0_bound = h_x_y + h_w_x - h_w_all
    inner, _ = _rates(ind)

    # canonical assignment: fill the W-extraction budget (R3 + Rf = H(W|XU),
    # Rf at its own cap) so the pad R4 is minimal, R4 = I(W;U|X) + margin
    rf = h_w_all
    r3 = h_w_xu - rf
    r4_lo = h_w_x - h_w_xu  # = I(W;U|X)
    r4 = r4_lo + _STRICT
    r1 = h_x_y + _STRICT
    r2_hi = h_x - r1
    if r4 > r2_hi:
        raise EmptyWindow(
            f"no admissible R2: need R4 <= R2 <= H(X) - R1 but "
            f"I(W;U|X)={r4_lo!r} >= I(X;Y)={h_x - h_x_y!r}"
        )
    r2 = 0.5 * (r4 + r2_hi)
    assignment = {"R1": r1, "R2": r2, "R3": r3, "R4": r4, "Rf": rf}
    windows = {
        "R1": (h_x_y + _STRICT, h_x - r2),
        "R2": (r4, r2_hi),
        "R3": (max(h_w_x - r4 - rf, 0.0), h_w_xu - rf),
        "R4": (r4_lo + _STRICT, r2),
        "Rf": (max(h_w_x - r3 - r4, 0.0), min(h_w_xu - r3, h_w_all)),
    }
    for name, (lo, hi) in windows.items():
        if hi < lo - 1e-12:
            raise EmptyWindow(f"rate window for {name} is empty: ({lo!r}, {hi!r})")
    ledger = RateLedger(entropies, windows, assignment, r0_bound)
    if abs(r0_bound - inner) > 1e-9:
        raise AssertionError(
            f"ledger R0 bound {r0_bound!r} disagrees with I(W;UXV|Y)+H(X|WY) = {inner!r}"
        )
    return ledger
