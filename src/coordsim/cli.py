"""Command-line front end: ``coordsim SUBCOMMAND --config FILE [...]``.

Subcommands: ``region`` (witness search on a coordination target),
``construct`` (entropy profile + index sets for a source model),
``simulate`` (end-to-end block-Markov runs), ``verify-binning`` (the
small-blocklength binning sweeps) and ``plotdata`` (merge report JSONs
into one long-format CSV).

Every run writes a schema-versioned ``report.json`` plus the subcommand's
CSV into the output directory.  Configs are strict JSON: unknown keys are
rejected with a JSON-pointer path.  Models are given inline, as a path to
a model JSON, or as one of the bundled names (``bundled:bsc``,
``bundled:bsc-noiseless``, ``bundled:chained``, ``bundled:planted-target``).
The worker pool for simulation trials is capped by COORDSIM_THREADS; each
worker runs one contiguous chunk of the seeds in lockstep.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import bundled
from .binning import verify_lemma_regimes
from .codec import TrialResult, run_trials
from .construction import (
    PolarParams,
    SourceModel,
    build_index_sets,
    divergence_certificate,
    estimate_profile,
    load_index_cache,
    rate_report,
    save_index_cache,
)
from .probability import JointPMF
from .region import (
    AuxiliaryDecomposition,
    CoordinationTarget,
    EmptyWindow,
    binning_rate_ledger,
    cardinality_bound,
    evaluate,
    search_auxiliary,
)

SCHEMA_VERSION = 1

__all__ = ["main", "parse_config", "run", "emit_plotdata", "ConfigError"]


class ConfigError(ValueError):
    """Invalid configuration; the message carries a JSON-pointer path."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


# ---------------------------------------------------------------------------
# config schemas

_COMMON = {
    "schema_version": (int, SCHEMA_VERSION),
    "model": ((str, dict), None),
    "seed": (int, 0),
    "out": (str, "."),
}

_SCHEMAS: dict[str, dict] = {
    "region": {
        **_COMMON,
        "w_size": ((int, type(None)), None),
        "restarts": (int, 32),
        "iterations": (int, 30),
        "tol": (float, 1e-6),
    },
    "construct": {
        **_COMMON,
        "params": (dict, None),
        "cache": ((str, type(None)), None),
    },
    "simulate": {
        **_COMMON,
        "params": (dict, None),
        "k": (int, None),
        "trials": (int, 1),
        "seeds": ((list, type(None)), None),
        "sets_cache": ((str, type(None)), None),
        "attach_region_verdict": (bool, False),
    },
    "verify-binning": {
        **_COMMON,
        "n_list": (list, [4, 8, 12]),
        "rates": (list, [0.3, 0.8]),
        "replicates": (int, 100),
        "samples": (int, 200),
        "lemmas": (list, ["sw", "extraction"]),
    },
    "plotdata": {
        "schema_version": (int, SCHEMA_VERSION),
        "reports": (list, None),
        "seed": (int, 0),
        "out": (str, "."),
    },
}

_PARAMS_SCHEMA = {
    "n": (int, None),
    "beta": (float, 0.25),
    "mc_samples": (int, 20000),
}


def _check_type(pointer, value, types):
    if not isinstance(types, tuple):
        types = (types,)
    if isinstance(value, bool) and bool not in types and int in types:
        raise ConfigError(pointer, f"expected {types}, got bool")
    if float in types and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if not isinstance(value, types):
        names = "/".join(t.__name__ for t in types)
        raise ConfigError(pointer, f"expected {names}, got {type(value).__name__}")
    return value


def _apply_schema(doc: dict, schema: dict, pointer: str = "") -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(pointer or "/", "expected a JSON object")
    out = {}
    for key, value in doc.items():
        if key not in schema:
            raise ConfigError(f"{pointer}/{key}", "unknown key")
        types, _default = schema[key]
        out[key] = _check_type(f"{pointer}/{key}", value, types)
    for key, (types, default) in schema.items():
        if key not in out:
            if default is None and type(None) not in (types if isinstance(types, tuple) else (types,)):
                raise ConfigError(f"{pointer}/{key}", "required key missing")
            out.setdefault(key, default)
    return out


def parse_config(subcommand: str, doc: dict, base_dir: Path | None = None) -> dict:
    """Validate a config document: defaults filled, unknown keys rejected
    (errors carry JSON pointers), params and the binning sweep checked for
    values that cannot run, and referenced files checked for existence."""
    if subcommand not in _SCHEMAS:
        raise ConfigError("/", f"unknown subcommand {subcommand!r}")
    cfg = _apply_schema(doc, _SCHEMAS[subcommand])
    cfg["subcommand"] = subcommand
    cfg["base_dir"] = str(base_dir or Path.cwd())
    if "params" in cfg:
        params = _apply_schema(cfg["params"], _PARAMS_SCHEMA, "/params")
        n = params["n"]
        if n < 2 or n & (n - 1):
            raise ConfigError("/params/n", f"block length must be a power of 2, got {n}")
        if not (0.0 < params["beta"] < 0.5):
            raise ConfigError("/params/beta", "beta must lie in (0, 1/2)")
        if params["mc_samples"] < 1:
            raise ConfigError("/params/mc_samples", "mc_samples must be >= 1")
        cfg["params"] = params
    if cfg.get("trials") is not None and cfg["trials"] < 1:
        raise ConfigError("/trials", "trials must be >= 1")
    if cfg.get("seeds") is not None:
        if len(cfg["seeds"]) == 0:
            raise ConfigError("/seeds", "seed list must be nonempty")
        for i, s in enumerate(cfg["seeds"]):
            if not isinstance(s, int) or isinstance(s, bool):
                raise ConfigError(f"/seeds/{i}", "seeds must be integers")
    if subcommand == "verify-binning":
        _check_binning_sweep(cfg)
    if subcommand == "plotdata":
        for i, p in enumerate(cfg["reports"]):
            path = Path(cfg["base_dir"]) / p
            if not path.exists():
                raise ConfigError(f"/reports/{i}", f"no such report file: {path}")
    if isinstance(cfg.get("model"), str) and not cfg["model"].startswith("bundled:"):
        path = Path(cfg["base_dir"]) / cfg["model"]
        if not path.exists():
            raise ConfigError("/model", f"no such model file: {path}")
    if cfg.get("sets_cache") is not None:
        path = Path(cfg["base_dir"]) / cfg["sets_cache"]
        if not path.exists():
            raise ConfigError("/sets_cache", f"no such cache file: {path}")
    return cfg


def _check_binning_sweep(cfg):
    for key in ("replicates", "samples"):
        if cfg[key] < 1:
            raise ConfigError(f"/{key}", f"{key} must be >= 1")
    for i, n in enumerate(cfg["n_list"]):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ConfigError(f"/n_list/{i}", f"blocklengths must be integers >= 1, got {n!r}")
    n_max = max(cfg["n_list"], default=0)
    for i, rate in enumerate(cfg["rates"]):
        if not isinstance(rate, (int, float)) or isinstance(rate, bool) or not 0 <= rate < math.inf:
            raise ConfigError(f"/rates/{i}", f"rates must be finite numbers >= 0, got {rate!r}")
        # a binning has 2^ceil(n*rate) bins, drawn as int64 labels
        if math.ceil(n_max * rate) >= 63:
            raise ConfigError(f"/rates/{i}", f"2^ceil(n*rate) bins overflow int64 at n={n_max}, rate={rate!r}")
    if not cfg["lemmas"]:
        raise ConfigError("/lemmas", "lemma list must be nonempty")
    for i, lemma in enumerate(cfg["lemmas"]):
        if lemma not in ("sw", "extraction"):
            raise ConfigError(f"/lemmas/{i}", f"lemmas are 'sw' and 'extraction', got {lemma!r}")


# ---------------------------------------------------------------------------
# model loading

_BUNDLED_SOURCE_MODELS = {
    "bundled:bsc": bundled.bsc_model,
    "bundled:bsc-noiseless": lambda: bundled.bsc_model(crossover=0.0),
    "bundled:chained": bundled.chained_model,
}
_BUNDLED_TARGETS = {
    "bundled:bsc": bundled.bsc_target,
    "bundled:planted-target": bundled.planted_target,
}


def _load_model_doc(cfg) -> dict | str:
    model = cfg["model"]
    if isinstance(model, str):
        if model.startswith("bundled:"):
            return model
        return json.loads((Path(cfg["base_dir"]) / model).read_text())
    return model


def _source_model(cfg) -> SourceModel:
    doc = _load_model_doc(cfg)
    if isinstance(doc, str):
        try:
            return _BUNDLED_SOURCE_MODELS[doc]()
        except KeyError:
            raise ConfigError("/model", f"unknown bundled source model {doc!r}") from None
    try:
        return SourceModel.from_json_dict(doc)
    except (KeyError, ValueError) as err:
        raise ConfigError("/model", f"invalid source model: {err}") from None


def _target(cfg) -> CoordinationTarget:
    doc = _load_model_doc(cfg)
    if isinstance(doc, str):
        try:
            return _BUNDLED_TARGETS[doc]()
        except KeyError:
            raise ConfigError("/model", f"unknown bundled target {doc!r}") from None
    try:
        return CoordinationTarget.from_json_dict(doc)
    except (KeyError, ValueError) as err:
        raise ConfigError("/model", f"invalid coordination target: {err}") from None


def _target_and_witness_of(model: SourceModel) -> tuple[CoordinationTarget, AuxiliaryDecomposition]:
    """The model's target and witness views, as one pair."""
    return model.target, model.witness


# ---------------------------------------------------------------------------
# runners


def _write_report(out_dir: Path, report: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "report.json"
    path.write_text(json.dumps(report, indent=2))
    return path


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def _run_region(cfg) -> dict:
    target = _target(cfg)
    if cfg["w_size"] is None:
        sizes = range(1, cardinality_bound(target) + 1)
    else:
        sizes = [cfg["w_size"]]
    verdict = None
    for w in sizes:
        verdict = search_auxiliary(
            target, w, restarts=cfg["restarts"], iterations=cfg["iterations"],
            tol=cfg["tol"], seed=cfg["seed"],
        )
        if verdict.feasible:
            break
    report = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": "region",
        "config": _echo(cfg),
        "region_verdict": verdict.to_json_dict(),
    }
    if verdict.feasible:
        try:
            ledger = binning_rate_ledger(target, verdict.witness)
            report["rate_ledger"] = ledger.to_json_dict()
            print(ledger.table())
        except EmptyWindow as err:
            report["rate_ledger_error"] = str(err)
            print(f"rate ledger unavailable: {err}")
    print(
        f"feasible={verdict.feasible} residual={verdict.residual:.3e} "
        f"inner_rate={verdict.inner_rate:.6f} outer_rate={verdict.outer_rate:.6f}"
    )
    return report


def _run_construct(cfg) -> dict:
    model = _source_model(cfg)
    params = PolarParams(**cfg["params"])
    rng = np.random.default_rng(np.random.SeedSequence([cfg["seed"], 0]))
    profile = estimate_profile(model, params, rng)
    sets = build_index_sets(profile, params)
    cert = divergence_certificate(profile, sets)
    report = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": "construct",
        "config": _echo(cfg),
        "index_sets": sets.to_json_dict(),
        "profile": profile.to_json_dict(),
        "divergence_certificate": cert.to_json_dict(),
        "set_sizes": {k: int(len(getattr(sets, k))) for k in sets.NAMES},
    }
    if cfg["cache"] is not None:
        cache_path = Path(cfg["base_dir"]) / cfg["cache"]
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        save_index_cache(cache_path, sets)
    sizes = report["set_sizes"]
    print(" ".join(f"|{k}|={v}" for k, v in sizes.items()))
    return report


def _simulate_chunk(model_doc, sets, k, seeds) -> list[TrialResult]:
    return run_trials(SourceModel.from_json_dict(model_doc), sets, k, seeds)


def _run_simulate(cfg) -> dict:
    model = _source_model(cfg)
    params = PolarParams(**cfg["params"])
    if cfg["sets_cache"] is not None:
        sets = load_index_cache(Path(cfg["base_dir"]) / cfg["sets_cache"])
        if sets.n != params.n:
            raise ConfigError("/sets_cache", f"cache is for n={sets.n}, config says n={params.n}")
        profile = None
    else:
        rng = np.random.default_rng(np.random.SeedSequence([cfg["seed"], 0]))
        profile = estimate_profile(model, params, rng)
        sets = build_index_sets(profile, params)
    seeds = cfg["seeds"] if cfg["seeds"] is not None else [cfg["seed"] + t for t in range(cfg["trials"])]
    results = _parallel_map(functools.partial(_simulate_chunk, model.to_json_dict(), sets, cfg["k"]), seeds)
    results.sort(key=lambda r: r.seed)

    rows = [r.csv_row() for r in results]
    metrics = TrialResult.CSV_FIELDS[3:]
    aggregates = {}
    for i, name in enumerate(metrics, start=3):
        vals = np.array([row[i] for row in rows], dtype=np.float64)
        aggregates[name] = {
            "mean": float(vals.mean()),
            "stderr": float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0,
        }
    report = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": "simulate",
        "config": _echo(cfg),
        "rows": [dict(zip(TrialResult.CSV_FIELDS, row)) for row in rows],
        "aggregates": aggregates,
        "rate_report": rate_report(sets, cfg["k"]).to_json_dict(),
        "set_warnings": list(sets.warnings),
    }
    if profile is not None:
        report["divergence_certificate"] = divergence_certificate(profile, sets).to_json_dict()
    if cfg["attach_region_verdict"]:
        report["region_verdict"] = evaluate(model.target, model.witness).to_json_dict()
    out_dir = Path(cfg["base_dir"]) / cfg["out"]
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "trials.csv", TrialResult.CSV_FIELDS, rows)
    agg = aggregates["tv_estimate"]
    print(f"trials={len(rows)} tv_estimate={agg['mean']:.4f}±{agg['stderr']:.4f}")
    return report


def _run_verify_binning(cfg) -> dict:
    doc = _load_model_doc(cfg)
    if isinstance(doc, str):
        raise ConfigError("/model", "verify-binning needs an inline or file joint pmf over (A, B)")
    joint = JointPMF.from_json_dict(doc)
    rng = np.random.default_rng(cfg["seed"])
    stats = verify_lemma_regimes(
        joint, cfg["n_list"], cfg["rates"], cfg["replicates"], rng,
        samples=cfg["samples"], lemmas=tuple(cfg["lemmas"]),
    )
    rows = [r for s in stats for r in s.csv_rows()]
    out_dir = Path(cfg["base_dir"]) / cfg["out"]
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "binning.csv", ("n", "rate", "lemma", "statistic", "value"), rows)
    report = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": "verify-binning",
        "config": _echo(cfg),
        "rows": [dict(zip(("n", "rate", "lemma", "statistic", "value"), r)) for r in rows],
    }
    print(f"wrote {len(rows)} sweep rows")
    return report


def emit_plotdata(report_docs: list[dict]) -> list[tuple]:
    """Merge simulate reports into long-format rows (n, k, seed, metric,
    value); raises on schema-version mismatch."""
    rows = []
    for i, doc in enumerate(report_docs):
        version = doc.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"report {i}: schema_version {version!r} does not match {SCHEMA_VERSION}"
            )
        for row in doc.get("rows", []):
            for metric in TrialResult.CSV_FIELDS[3:]:
                if metric in row:
                    rows.append((row["n"], row["k"], row["seed"], metric, row[metric]))
    return rows


def _run_plotdata(cfg) -> dict:
    docs = [json.loads((Path(cfg["base_dir"]) / p).read_text()) for p in cfg["reports"]]
    rows = emit_plotdata(docs)
    out_dir = Path(cfg["base_dir"]) / cfg["out"]
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "plotdata.csv", ("n", "k", "seed", "metric", "value"), rows)
    print(f"wrote {len(rows)} plot rows")
    return {
        "schema_version": SCHEMA_VERSION,
        "subcommand": "plotdata",
        "config": _echo(cfg),
        "rows_written": len(rows),
    }


def _echo(cfg) -> dict:
    return {k: v for k, v in cfg.items() if k not in ("base_dir",)}


def _parallel_map(fn, items):
    """``fn(chunk)`` maps a list of items to a list of results; each worker
    gets one contiguous chunk, and the results come back in item order."""
    limit = os.environ.get("COORDSIM_THREADS")
    workers = int(limit) if limit else (os.cpu_count() or 1)
    workers = max(1, min(workers, len(items)))
    if workers == 1:
        return fn(items)
    bounds = [len(items) * w // workers for w in range(workers + 1)]
    chunks = [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [result for part in pool.map(fn, chunks) for result in part]


_RUNNERS = {
    "region": _run_region,
    "construct": _run_construct,
    "simulate": _run_simulate,
    "verify-binning": _run_verify_binning,
    "plotdata": _run_plotdata,
}


def run(subcommand: str, cfg: dict) -> dict:
    """Dispatch a validated config; returns the report dict (also written
    to <out>/report.json)."""
    report = _RUNNERS[subcommand](cfg)
    _write_report(Path(cfg["base_dir"]) / cfg["out"], report)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="coordsim", description=__doc__.splitlines()[0])
    parser.add_argument("subcommand", choices=sorted(_RUNNERS))
    parser.add_argument("--config", required=True, help="JSON config file, or '-' for stdin")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--n", type=int, default=None, help="override /params/n")
    parser.add_argument("--k", type=int, default=None)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--w-size", type=int, default=None)
    parser.add_argument("--restarts", type=int, default=None)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--replicates", type=int, default=None)
    parser.add_argument("--n-list", default=None, help="comma-separated blocklengths")
    parser.add_argument("--rates", default=None, help="comma-separated rates")
    args = parser.parse_args(argv)

    try:
        if args.config == "-":
            doc = json.load(sys.stdin)
            base = Path.cwd()
        else:
            doc = json.loads(Path(args.config).read_text())
            base = Path(args.config).resolve().parent
        for key in ("seed", "out", "k", "trials", "restarts", "tol", "replicates"):
            value = getattr(args, key)
            if value is not None:
                doc[key] = value
        if args.w_size is not None:
            doc["w_size"] = args.w_size
        if args.n is not None:
            doc.setdefault("params", {})["n"] = args.n
        if args.n_list is not None:
            doc["n_list"] = [int(v) for v in args.n_list.split(",")]
        if args.rates is not None:
            doc["rates"] = [float(v) for v in args.rates.split(",")]
        cfg = parse_config(args.subcommand, doc, base)
        run(args.subcommand, cfg)
        return 0
    except (ConfigError, ValueError, ArithmeticError, RuntimeError, OSError, json.JSONDecodeError) as err:
        sys.stderr.write(json.dumps({"error": str(err), "type": type(err).__name__}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
