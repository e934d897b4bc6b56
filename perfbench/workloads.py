"""The four benchmark workloads: one ``coordsim`` subcommand each.

A workload turns an op seed into a CLI config document, says how much work
one op does (in the workload's own unit), and checks an op's report.  The
checks lean on properties that hold for every random stream (the chain
rule, partitions, rate accounting, the sign of an error gap), so a change
to a random stream does not make them fail.

Every config is run in-process through ``coordsim.cli.parse_config`` and
``coordsim.cli.run``; the outputs go under ``out_dir``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
SETS_CACHE = HERE / "data" / "chained_n1024.idx"  # made by data/chained_n1024.construct.json

# A construct op draws one default batch of Monte-Carlo rows (2048 at
# n=1024, about 2.5 s) rather than the CLI default of 20000 (about 20 s): the
# time per row is the same, and a run then holds several ops, each timed
# next to the reference job of run.py, instead of one.
CONSTRUCT_ROWS = 2048
SIMULATE_TRIALS, SIMULATE_K = 8, 8
DSBS_TABLE = [0.45, 0.05, 0.05, 0.45]
BINNING_RATES = [0.3, 0.8]

ENTROPY_TOL = 0.02  # bits; acceptance criterion 5
MI_LIMIT = 0.05  # bits; acceptance criterion 7


class CheckFailed(AssertionError):
    """An op's report does not satisfy the workload's output check."""


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Workload:
    name: str  # also the CLI subcommand
    unit: str
    config: Callable[[int, Path], dict]  # (op seed, out dir) -> config document
    work: Callable[[dict], float]  # report -> units of work done
    check: Callable[[dict], None]  # raises CheckFailed


# ---------------------------------------------------------------------------
# construct


def _construct_config(seed: int, out: Path) -> dict:
    return {
        "model": "bundled:chained",
        "params": {"n": 1024, "mc_samples": CONSTRUCT_ROWS},
        "seed": seed,
        "out": str(out),
        "cache": str(out / "sets.idx"),
    }


def _single_letter_entropies() -> dict[str, float]:
    """The per-index means of the five profiles, by the chain rule."""
    from coordsim.bundled import chained_model
    from coordsim.probability import conditional_entropy, entropy

    joint = chained_model().single_letter_joint()
    return {
        "h_s": entropy(joint, ["X"]),
        "h_s_y": conditional_entropy(joint, ["X"], ["Y"]),
        "h_z_xu": conditional_entropy(joint, ["W"], ["X", "U"]),
        "h_z_x": conditional_entropy(joint, ["W"], ["X"]),
        "h_z_all": conditional_entropy(joint, ["W"], ["U", "X", "Y", "V"]),
    }


def _check_construct(report: dict):
    profile = report["profile"]
    n = profile["n"]
    for family, limit in _single_letter_entropies().items():
        mean = math.fsum(profile[family]) / n
        _require(abs(mean - limit) <= ENTROPY_TOL,
                 f"{family} mean {mean:.4f} is not within {ENTROPY_TOL} of {limit:.4f}")
    sets = report["index_sets"]
    for chain in ("a", "b"):
        merged = sorted(i for part in range(1, 5) for i in sets[f"{chain}{part}"])
        _require(merged == list(range(n)), f"{chain}1..{chain}4 do not partition [0, {n})")


# ---------------------------------------------------------------------------
# simulate


def _simulate_config(seed: int, out: Path) -> dict:
    return {
        "model": "bundled:chained",
        "params": {"n": 1024},
        "k": SIMULATE_K,
        "trials": SIMULATE_TRIALS,
        "seed": seed,
        "sets_cache": str(SETS_CACHE),
        "out": str(out),
    }


def _check_simulate(report: dict):
    rows = report["rows"]
    _require(len(rows) == SIMULATE_TRIALS, f"{len(rows)} trial rows, expected {SIMULATE_TRIALS}")
    rates = report["rate_report"]
    for row in rows:
        _require(all(math.isfinite(v) for v in row.values()), f"non-finite trial row {row}")
        _require(row["cr_rate"] == rates["common_randomness_rate"]
                 and row["side_rate"] == rates["side_channel_rate"],
                 f"trial {row['seed']} rates disagree with the rate report")
    mi = report["aggregates"]["mi_consecutive"]["mean"]
    _require(mi <= MI_LIMIT, f"consecutive-block MI {mi:.4f} exceeds {MI_LIMIT}")


# ---------------------------------------------------------------------------
# verify-binning


def _binning_config(seed: int, out: Path) -> dict:
    return {
        "model": {"axes": [{"name": "A", "size": 2}, {"name": "B", "size": 2}],
                  "table": DSBS_TABLE},
        "n_list": [12],
        "rates": BINNING_RATES,
        "replicates": 1,
        "samples": 200,
        "lemmas": ["sw", "extraction"],
        "seed": seed,
        "out": str(out),
    }


def _check_binning(report: dict):
    values = {(r["rate"], r["statistic"]): r["value"] for r in report["rows"]}
    low, high = BINNING_RATES
    err_low, err_high = values[(low, "error_rate")], values[(high, "error_rate")]
    _require(err_high < err_low,
             f"SW error at rate {high} ({err_high}) is not below the error at {low} ({err_low})")
    for rate in BINNING_RATES:
        kl = values[(rate, "kl_to_uniform")]
        _require(math.isfinite(kl) and kl >= 0.0, f"extraction KL {kl} at rate {rate}")


def _binnings_evaluated(report: dict) -> float:
    cfg = report["config"]
    return float(len(cfg["n_list"]) * len(cfg["rates"]) * cfg["replicates"] * len(cfg["lemmas"]))


# ---------------------------------------------------------------------------
# region


def _region_config(seed: int, out: Path) -> dict:
    return {"model": "bundled:planted-target", "seed": seed, "out": str(out)}


def _region_restarts(report: dict) -> float:
    # the CLI tries |W| = 1, 2, ... until one is feasible
    return float(report["config"]["restarts"] * report["region_verdict"]["witness"]["w_size"])


def _check_region(report: dict):
    verdict = report["region_verdict"]
    tol = report["config"]["tol"]
    _require(verdict["feasible"], "no feasible witness found")
    _require(verdict["residual"] <= tol, f"residual {verdict['residual']} exceeds {tol}")
    _require(verdict["inner_rate"] >= verdict["outer_rate"], "inner rate below outer rate")
    _require("rate_ledger" in report, "rate ledger missing")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("construct", "Monte-Carlo rows", _construct_config,
                 lambda report: float(report["profile"]["samples"]), _check_construct),
        Workload("simulate", "blocks", _simulate_config,
                 lambda report: float(len(report["rows"]) * report["config"]["k"]),
                 _check_simulate),
        Workload("verify-binning", "binnings", _binning_config,
                 _binnings_evaluated, _check_binning),
        Workload("region", "restarts", _region_config, _region_restarts, _check_region),
    )
}
