"""Command-line front end: ``coordsim SUBCOMMAND --config FILE [...]``.

Subcommands: ``region`` (witness search on a coordination target),
``construct`` (entropy profile + index sets for a source model),
``simulate`` (end-to-end block-Markov runs), ``verify-binning`` (the
small-blocklength binning sweeps) and ``plotdata`` (merge report JSONs
into one long-format CSV).

Every run writes a ``report.json`` that starts with ``schema_version``,
``subcommand`` and ``config``, plus the subcommand's CSV, into the output
directory.  Configs and inline models are strict JSON: unknown keys are
rejected with a JSON-pointer path.  Models are given inline, as a path to a
model JSON, or as one of the bundled source models (``bundled:bsc``,
``bundled:bsc-noiseless``, ``bundled:chained``, ``bundled:planted-target``);
``region`` reads a source model, bundled or a document, through its target
view.
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
from pathlib import Path

import numpy as np

from . import bundled
from .binning import ENUMERATION_CELL_CAP, LEMMAS, SW_SAMPLES, check_sweep, verify_lemma_regimes
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
from .probability import DocumentKeyError, JointPMF, json_pointer
from .region import (
    DEFAULT_RESTARTS,
    DEFAULT_TOL,
    CoordinationTarget,
    EmptyWindow,
    binning_rate_ledger,
    cardinality_bound,
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

# key: (types, default) or (types, default, least value); a default of None marks a
# required key unless None is one of the types; a default the library has is read from it
_COMMON = {
    "schema_version": (int, SCHEMA_VERSION),
    "model": ((str, dict), None),
    "seed": (int, 0, 0),
    "out": (str, "."),
}

_SCHEMAS: dict[str, dict] = {
    "region": {
        **_COMMON,
        "w_size": ((int, type(None)), None, 1),
        "restarts": (int, DEFAULT_RESTARTS, 1),
        "tol": (float, DEFAULT_TOL),
    },
    "construct": {
        **_COMMON,
        "params": (dict, None),
        "cache": ((str, type(None)), None),
    },
    "simulate": {
        **_COMMON,
        "params": (dict, None),
        "k": (int, None, 2),  # the chaining construction needs two blocks
        "trials": (int, 1, 1),
        "sets_cache": ((str, type(None)), None),
    },
    "verify-binning": {
        **_COMMON,
        "n_list": (list, [4, 8, 12]),
        "rates": (list, [0.3, 0.8]),
        "replicates": (int, 100, 1),
        "samples": (int, SW_SAMPLES, 1),
        "lemmas": (list, list(LEMMAS)),
    },
    "plotdata": {
        "schema_version": (int, SCHEMA_VERSION),
        "reports": (list, None),
        "seed": (int, 0, 0),
        "out": (str, "."),
    },
}

_PARAMS_SCHEMA = {
    "n": (int, None),
    "beta": (float, PolarParams.beta),
    "mc_samples": (int, PolarParams.mc_samples, 1),
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


def _object(doc, pointer: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(pointer or "/", "expected a JSON object")
    return doc


def _apply_schema(doc: dict, schema: dict, pointer: str = "") -> dict:
    _object(doc, pointer)
    out = {}
    for key, value in doc.items():
        at = pointer + json_pointer(key)
        if key not in schema:
            raise ConfigError(at, "unknown key")
        types, _default, *least = schema[key]
        out[key] = _check_type(at, value, types)
        if least and out[key] is not None and out[key] < least[0]:
            raise ConfigError(at, f"{key} must be >= {least[0]}, got {out[key]}")
    for key, (types, default, *_least) in schema.items():
        if key not in out:
            if default is None and type(None) not in (types if isinstance(types, tuple) else (types,)):
                raise ConfigError(pointer + json_pointer(key), "required key missing")
            out.setdefault(key, default)
    return out


def parse_config(subcommand: str, doc: dict, base_dir: Path | None = None) -> dict:
    """Validate a config document: defaults filled, unknown keys rejected,
    integers checked against their schema bounds (errors carry JSON
    pointers), and params, the region search and the binning sweep checked
    for values that cannot run.  Referenced files are checked where the
    runner reads them, before it does any other work."""
    if subcommand not in _SCHEMAS:
        raise ConfigError("/", f"unknown subcommand {subcommand!r}")
    cfg = _apply_schema(doc, _SCHEMAS[subcommand])
    if cfg["schema_version"] != SCHEMA_VERSION:
        raise ConfigError("/schema_version", f"schema_version {cfg['schema_version']} is not {SCHEMA_VERSION}")
    cfg["subcommand"] = subcommand
    cfg["base_dir"] = str(base_dir or Path.cwd())
    if "params" in cfg:
        params = _apply_schema(cfg["params"], _PARAMS_SCHEMA, "/params")
        n = params["n"]
        if n < 2 or n & (n - 1):
            raise ConfigError("/params/n", f"block length must be a power of 2, got {n}")
        if not (0.0 < params["beta"] < 0.5):
            raise ConfigError("/params/beta", "beta must lie in (0, 1/2)")
        cfg["params"] = params
    # a NaN or negative tol makes every witness infeasible; an infinite one waives the fit
    if subcommand == "region" and not 0 <= cfg["tol"] < math.inf:
        raise ConfigError("/tol", f"tol must be a finite number >= 0, got {cfg['tol']!r}")
    if subcommand == "verify-binning":
        _check_binning_sweep(cfg)
    return cfg


def _check_binning_sweep(cfg):
    for i, n in enumerate(cfg["n_list"]):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ConfigError(f"/n_list/{i}", f"blocklengths must be integers >= 1, got {n!r}")
    # check_sweep refuses a longer n at /n_list/<i>; it could overflow the float product
    n_max = max((n for n in cfg["n_list"] if n < ENUMERATION_CELL_CAP.bit_length()), default=0)
    for i, rate in enumerate(cfg["rates"]):
        if not isinstance(rate, (int, float)) or isinstance(rate, bool) or not 0 <= rate < math.inf:
            raise ConfigError(f"/rates/{i}", f"rates must be finite numbers >= 0, got {rate!r}")
        # a binning has 2^ceil(n*rate) bins, drawn as int64 labels; the product
        # itself is compared, since its ceil fails once it overflows to inf
        if n_max * rate > 62:
            raise ConfigError(f"/rates/{i}", f"2^ceil(n*rate) bins overflow int64 at n={n_max}, rate={rate!r}")
    if not cfg["lemmas"]:
        raise ConfigError("/lemmas", "lemma list must be nonempty")
    for i, lemma in enumerate(cfg["lemmas"]):
        if lemma not in LEMMAS:
            raise ConfigError(f"/lemmas/{i}", f"lemmas are {' and '.join(map(repr, LEMMAS))}, got {lemma!r}")


# ---------------------------------------------------------------------------
# model loading

_BUNDLED = {
    "bundled:bsc": bundled.bsc_model,
    "bundled:bsc-noiseless": functools.partial(bundled.bsc_model, crossover=0.0),
    "bundled:chained": bundled.chained_model,
    "bundled:planted-target": bundled.planted_model,
}


def _load(cfg, parse, what: str):
    """The config's model: a bundled :class:`SourceModel`, or the inline or
    file JSON document read by ``parse``.  An unknown bundled name or a
    document that ``parse`` rejects, or a model file that cannot be read as
    JSON, raises ConfigError at /model; an inline document's unknown or
    missing key is named by its own pointer under /model."""
    model = cfg["model"]
    if isinstance(model, str) and model.startswith("bundled:"):
        if model not in _BUNDLED:
            raise ConfigError("/model", f"unknown bundled model {model!r}")
        return _BUNDLED[model]()
    path = None if isinstance(model, dict) else Path(cfg["base_dir"]) / model
    try:
        return parse(model if path is None else json.loads(path.read_text()))
    except (KeyError, TypeError, ValueError, OSError) as err:
        if isinstance(err, DocumentKeyError) and path is None:
            raise ConfigError("/model" + err.pointer, err.reason) from None
        source = what if path is None else f"{what} file {path}"
        raise ConfigError("/model", f"invalid {source}: {err}") from None


def _source_model(cfg) -> SourceModel:
    return _load(cfg, SourceModel.from_json_dict, "source model")


def _target(cfg) -> CoordinationTarget:
    """An inline or file target, or the target view of a bundled, inline or
    file source model; a document with a key that only a source model has
    (``u_prior``, ``x_prior``, ``w_rule`` or ``v_rule``) is a source model."""
    own_keys = SourceModel.JSON_FIELDS.keys() - CoordinationTarget.JSON_FIELDS.keys()

    def parse(doc):
        return (SourceModel if any(key in doc for key in own_keys) else CoordinationTarget).from_json_dict(doc)

    model = _load(cfg, parse, "coordination target or source model")
    return model.target if isinstance(model, SourceModel) else model


def _joint(cfg) -> JointPMF:
    """The joint pmf over axes A and B that verify-binning sweeps."""
    joint = _load(cfg, JointPMF.from_json_dict, "joint pmf")
    if not isinstance(joint, JointPMF) or sorted(joint.axis_names) != ["A", "B"]:
        raise ConfigError("/model", "verify-binning needs an inline or file joint pmf over axes A and B")
    return joint


# ---------------------------------------------------------------------------
# runners


def _out_dir(cfg) -> Path:
    """The run's output directory, made on first use."""
    out_dir = Path(cfg["base_dir"]) / cfg["out"]
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _write_csv(cfg, name: str, header, rows):
    with open(_out_dir(cfg) / name, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def _run_region(cfg) -> dict:
    target = _target(cfg)
    bound = cardinality_bound(target)
    if cfg["w_size"] is None:
        sizes = range(1, bound + 1)
    elif cfg["w_size"] > bound:
        raise ConfigError("/w_size", f"w_size {cfg['w_size']} exceeds the cardinality bound {bound}")
    else:
        sizes = [cfg["w_size"]]
    verdict = None
    for w in sizes:
        verdict = search_auxiliary(target, w, restarts=cfg["restarts"], tol=cfg["tol"], seed=cfg["seed"])
        if verdict.feasible:
            break
    report = {"region_verdict": verdict.to_json_dict()}
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


def _profile_and_sets(cfg, model: SourceModel):
    """The Monte-Carlo entropy profile of ``model`` and its index sets."""
    params = PolarParams(**cfg["params"])
    rng = np.random.default_rng(np.random.SeedSequence([cfg["seed"], 0]))
    profile = estimate_profile(model, params, rng)
    return profile, build_index_sets(profile, params)


def _run_construct(cfg) -> dict:
    cache_path = None if cfg["cache"] is None else Path(cfg["base_dir"]) / cfg["cache"]
    if cache_path is not None and cache_path.is_dir():  # refused before the profile is spent
        raise ConfigError("/cache", f"{cache_path} is a directory")
    profile, sets = _profile_and_sets(cfg, _source_model(cfg))
    report = {
        "index_sets": sets.to_json_dict(),
        "profile": profile.to_json_dict(),
        "divergence_certificate": divergence_certificate(profile, sets).to_json_dict(),
        "set_sizes": {k: int(len(getattr(sets, k))) for k in sets.NAMES},
    }
    if cache_path is not None:
        try:
            cache_path.parent.mkdir(parents=True, exist_ok=True)
            save_index_cache(cache_path, sets)
        except OSError as err:
            raise ConfigError("/cache", str(err)) from None
    sizes = report["set_sizes"]
    print(" ".join(f"|{k}|={v}" for k, v in sizes.items()))
    return report


def _run_simulate(cfg) -> dict:
    workers = _worker_limit()
    model = _source_model(cfg)
    if cfg["sets_cache"] is not None:
        try:
            sets = load_index_cache(Path(cfg["base_dir"]) / cfg["sets_cache"])
        except (OSError, ValueError) as err:
            raise ConfigError("/sets_cache", str(err)) from None
        params = PolarParams(**cfg["params"])
        if (sets.n, sets.delta_n) != (params.n, params.delta_n):
            raise ConfigError("/sets_cache", f"cache is for n={sets.n}, delta_n={sets.delta_n!r}; config's n "
                              f"and beta give n={params.n}, delta_n={params.delta_n!r}")
        profile = None
    else:
        profile, sets = _profile_and_sets(cfg, model)
    seeds = [cfg["seed"] + t for t in range(cfg["trials"])]
    results = _parallel_map(functools.partial(run_trials, model, sets, cfg["k"]), seeds, workers)

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
        "rows": [dict(zip(TrialResult.CSV_FIELDS, row)) for row in rows],
        "aggregates": aggregates,
        "rate_report": rate_report(sets, cfg["k"]).to_json_dict(),
        "set_warnings": list(sets.warnings),
    }
    if profile is not None:
        report["divergence_certificate"] = divergence_certificate(profile, sets).to_json_dict()
    _write_csv(cfg, "trials.csv", TrialResult.CSV_FIELDS, rows)
    agg = aggregates["tv_estimate"]
    print(f"trials={len(rows)} tv_estimate={agg['mean']:.4f}±{agg['stderr']:.4f}")
    return report


def _run_verify_binning(cfg) -> dict:
    joint = _joint(cfg)
    for i, n in enumerate(cfg["n_list"]):
        try:
            check_sweep(joint, n, cfg["samples"], cfg["lemmas"])
        except ValueError as err:
            raise ConfigError(f"/n_list/{i}", str(err)) from None
    rng = np.random.default_rng(cfg["seed"])
    stats = verify_lemma_regimes(
        joint, cfg["n_list"], cfg["rates"], cfg["replicates"], rng,
        samples=cfg["samples"], lemmas=tuple(cfg["lemmas"]),
    )
    rows = [r for s in stats for r in s.csv_rows()]
    header = ("n", "rate", "lemma", "statistic", "value")
    _write_csv(cfg, "binning.csv", header, rows)
    print(f"wrote {len(rows)} sweep rows")
    return {"rows": [dict(zip(header, r)) for r in rows]}


def emit_plotdata(report_docs: list[dict]) -> list[tuple]:
    """Merge simulate reports into long-format rows (n, k, seed, metric,
    value).  Report i raises ConfigError at /reports/i if it is not a JSON
    object, has another schema version, is not a simulate report, or has a
    row that is not an object or lacks n, k or seed next to its metrics."""
    rows = []
    for i, doc in enumerate(report_docs):
        pointer = f"/reports/{i}"
        version = _object(doc, pointer).get("schema_version")
        if version != SCHEMA_VERSION:
            raise ConfigError(pointer, f"schema_version {version!r} does not match {SCHEMA_VERSION}")
        subcommand = doc.get("subcommand")
        if subcommand != "simulate":
            raise ConfigError(pointer, f"plotdata merges simulate reports, got subcommand {subcommand!r}")
        doc_rows = doc.get("rows", [])
        if not isinstance(doc_rows, list) or not all(isinstance(row, dict) for row in doc_rows):
            raise ConfigError(pointer, "rows must be a list of JSON objects")
        for row in doc_rows:
            metrics = [m for m in TrialResult.CSV_FIELDS[3:] if m in row]
            if metrics and not {"n", "k", "seed"} <= row.keys():
                raise ConfigError(pointer, "a row with trial metrics needs keys n, k and seed")
            rows += [(row["n"], row["k"], row["seed"], m, row[m]) for m in metrics]
    return rows


def _run_plotdata(cfg) -> dict:
    docs = []
    for i, name in enumerate(cfg["reports"]):
        path = Path(cfg["base_dir"]) / name
        try:
            docs.append(json.loads(path.read_text()))
        except (OSError, ValueError) as err:
            raise ConfigError(f"/reports/{i}", f"unreadable report {path}: {err}") from None
    rows = emit_plotdata(docs)
    _write_csv(cfg, "plotdata.csv", ("n", "k", "seed", "metric", "value"), rows)
    print(f"wrote {len(rows)} plot rows")
    return {"rows_written": len(rows)}


def _worker_limit() -> int:
    """The worker cap from COORDSIM_THREADS, or the CPU count when it is
    unset or empty; a value of 0 or less means one worker."""
    limit = os.environ.get("COORDSIM_THREADS")
    if not limit:
        return os.cpu_count() or 1
    try:
        return max(1, int(limit))
    except ValueError:
        raise ValueError(f"COORDSIM_THREADS must be an integer, got {limit!r}") from None


def _parallel_map(fn, items, workers: int):
    """``fn(chunk)`` maps a list of items to a list of results on at most
    ``workers`` workers; each gets one contiguous chunk, and the results
    come back in item order."""
    workers = min(workers, len(items))
    if workers == 1:
        return fn(items)
    bounds = [len(items) * w // workers for w in range(workers + 1)]
    chunks = [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    # imported here, so that a run that needs no pool does not pay for it
    from concurrent.futures import ProcessPoolExecutor

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
    to <out>/report.json): the header keys ``schema_version``,
    ``subcommand`` and ``config``, then the runner's body."""
    body = _RUNNERS[subcommand](cfg)
    report = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": subcommand,
        "config": {k: v for k, v in cfg.items() if k != "base_dir"},
        **body,
    }
    (_out_dir(cfg) / "report.json").write_text(json.dumps(report, indent=2))
    return report


def _split(text: str, parse) -> list:
    """A comma-separated override list; an entry that ``parse`` rejects is
    kept as its string, so the list check reports it with its pointer."""
    values = []
    for entry in text.split(","):
        try:
            values.append(parse(entry))
        except ValueError:
            values.append(entry)
    return values


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
        _object(doc, "/")
        for key in ("seed", "out", "k", "trials", "restarts", "tol", "replicates", "w_size"):
            value = getattr(args, key)
            if value is not None:
                doc[key] = value
        if args.n is not None:
            _object(doc.setdefault("params", {}), "/params")["n"] = args.n
        if args.n_list is not None:
            doc["n_list"] = _split(args.n_list, int)
        if args.rates is not None:
            doc["rates"] = _split(args.rates, float)
        cfg = parse_config(args.subcommand, doc, base)
        run(args.subcommand, cfg)
        return 0
    except (ConfigError, ValueError, ArithmeticError, RuntimeError, OSError, MemoryError, json.JSONDecodeError) as err:
        sys.stderr.write(json.dumps({"error": str(err), "type": type(err).__name__}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
