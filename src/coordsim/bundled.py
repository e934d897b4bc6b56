"""Bundled example models used by tests, the CLI, and documentation.

Each model is a :class:`~coordsim.construction.SourceModel`; a target is
its ``.target`` view.

* :func:`bsc_model` -- uniform binary signal over a BSC(0.1) with a
  constant auxiliary variable and an action that is a noisy copy of the
  channel output.
* :func:`chained_model` -- an auxiliary that is a noisy copy of U, so the
  chained positions and the one-time pads are exercised.
* :func:`planted_model` -- holds a known binary-auxiliary witness,
  :func:`planted_witness`, used to exercise witness recovery.
"""

from __future__ import annotations

import numpy as np

from .construction import SourceModel
from .probability import Alphabet, ConditionalPMF, JointPMF
from .region import AuxiliaryDecomposition, CoordinationTarget

__all__ = [
    "binary_symmetric_channel",
    "bsc_target",
    "bsc_model",
    "chained_model",
    "planted_witness",
    "planted_model",
    "planted_target",
]

U = Alphabet("U", 2)
X = Alphabet("X", 2)
Y = Alphabet("Y", 2)
V = Alphabet("V", 2)
W = Alphabet("W", 2)


def binary_symmetric_channel(p: float) -> ConditionalPMF:
    t = np.array([[1.0 - p, p], [p, 1.0 - p]])
    return ConditionalPMF((X,), (Y,), t)


def bsc_model(crossover: float = 0.1, action_noise: float = 0.1) -> SourceModel:
    """Uniform X over BSC(crossover); constant auxiliary W = 0, and V a
    BSC(action_noise) copy of Y, ignoring U and X."""
    w_rule = np.zeros((2, 2, 2))
    w_rule[..., 0] = 1.0
    flip = np.array([[1.0 - action_noise, action_noise], [action_noise, 1.0 - action_noise]])
    v_rule = np.broadcast_to(flip[None, :, :], (2, 2, 2))
    return SourceModel(
        u_prior=JointPMF.uniform((U,)),
        x_prior=JointPMF.uniform((X,)),
        channel=binary_symmetric_channel(crossover),
        w_rule=ConditionalPMF((X, U), (W,), w_rule),
        v_rule=ConditionalPMF((W, Y), (V,), np.array(v_rule)),
    )


def bsc_target(crossover: float = 0.1, action_noise: float = 0.1) -> CoordinationTarget:
    """The target of :func:`bsc_model`; its natural witness is a constant W."""
    return bsc_model(crossover, action_noise).target


def chained_model(crossover: float = 0.05) -> SourceModel:
    """A model whose auxiliary genuinely depends on the source: W is U
    through a BSC(0.35), so the chained positions (a3 empty only for uniform
    X, b3 nonempty) and the one-time pads are exercised end to end."""
    w_rule = np.empty((2, 2, 2))  # [x, u, w]
    w_rule[:, 0] = [0.65, 0.35]
    w_rule[:, 1] = [0.35, 0.65]
    v_rule = np.empty((2, 2, 2))  # [w, y, v]
    v_rule[0, 0] = [0.9, 0.1]
    v_rule[0, 1] = [0.6, 0.4]
    v_rule[1, 0] = [0.4, 0.6]
    v_rule[1, 1] = [0.1, 0.9]
    return SourceModel(
        u_prior=JointPMF.uniform((U,)),
        x_prior=JointPMF((X,), np.array([0.7, 0.3])),
        channel=binary_symmetric_channel(crossover),
        w_rule=ConditionalPMF((X, U), (W,), w_rule),
        v_rule=ConditionalPMF((W, Y), (V,), v_rule),
    )


def planted_witness() -> AuxiliaryDecomposition:
    """The binary-auxiliary witness of :func:`planted_model`."""
    w_given_ux = np.empty((2, 2, 2))
    w_given_ux[0, 0] = [0.9, 0.1]
    w_given_ux[0, 1] = [0.8, 0.2]
    w_given_ux[1, 0] = [0.2, 0.8]
    w_given_ux[1, 1] = [0.1, 0.9]
    v_given_wy = np.empty((2, 2, 2))
    v_given_wy[0, 0] = [0.95, 0.05]
    v_given_wy[0, 1] = [0.70, 0.30]
    v_given_wy[1, 0] = [0.30, 0.70]
    v_given_wy[1, 1] = [0.05, 0.95]
    return AuxiliaryDecomposition(
        2,
        ConditionalPMF((U, X), (W,), w_given_ux),
        ConditionalPMF((W, Y), (V,), v_given_wy),
    )


def planted_model(crossover: float = 0.05) -> SourceModel:
    """The source model that holds :func:`planted_witness`, through a
    BSC(crossover)."""
    witness = planted_witness()
    return SourceModel(
        u_prior=JointPMF.uniform((U,)),
        x_prior=JointPMF.uniform((X,)),
        channel=binary_symmetric_channel(crossover),
        w_rule=witness.p_w_given_ux,
        v_rule=witness.p_v_given_wy,
    )


def planted_target(crossover: float = 0.05) -> CoordinationTarget:
    """The target of :func:`planted_model`; the planted witness is
    feasible by construction."""
    return planted_model(crossover).target
