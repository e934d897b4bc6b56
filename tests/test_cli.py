import csv
import dataclasses
import hashlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coordsim import cli
from coordsim.bundled import bsc_model, chained_model
from coordsim.cli import ConfigError, emit_plotdata, parse_config


def write_config(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


# -- config validation ---------------------------------------------------------


def test_parse_config_fills_defaults():
    cfg = parse_config("simulate", {"model": "bundled:bsc", "params": {"n": 64}, "k": 4})
    assert cfg["params"]["beta"] == 0.25
    assert cfg["params"]["mc_samples"] == 20000
    assert cfg["trials"] == 1
    assert cfg["seed"] == 0


def test_parse_config_defaults_are_the_library_defaults():
    # the run defaults have one owner each, in the library; a default changed
    # on one side alone fails here
    from coordsim.binning import sw_error_rate, verify_lemma_regimes
    from coordsim.construction import PolarParams
    from coordsim.region import search_auxiliary

    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    fields = {f.name: f.default for f in dataclasses.fields(PolarParams)}
    params = parse_config("construct", {"model": "bundled:bsc", "params": {"n": 64}})["params"]
    assert (params["beta"], params["mc_samples"]) == (fields["beta"], fields["mc_samples"])
    cfg = parse_config("region", {"model": "bundled:bsc"})
    assert (cfg["restarts"], cfg["tol"]) == (default(search_auxiliary, "restarts"), default(search_auxiliary, "tol"))
    cfg = parse_config("verify-binning", {"model": "bundled:bsc"})
    assert cfg["samples"] == default(sw_error_rate, "samples") == default(verify_lemma_regimes, "samples")
    lemmas = default(verify_lemma_regimes, "lemmas")
    assert cfg["lemmas"] == list(lemmas)  # echoed as a JSON list
    with pytest.raises(ConfigError, match="^/lemmas/1: "):
        parse_config("verify-binning", {"model": "bundled:bsc", "lemmas": [lemmas[0], "slepian-wolf"]})


def test_parse_config_rejects_non_power_of_two():
    with pytest.raises(ConfigError, match="/params/n"):
        parse_config("simulate", {"model": "bundled:bsc", "params": {"n": 1000}, "k": 4})


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="/frobnicate"):
        parse_config("construct", {"model": "bundled:bsc", "params": {"n": 64}, "frobnicate": 1})
    with pytest.raises(ConfigError, match="/params/foo"):
        parse_config("construct", {"model": "bundled:bsc", "params": {"n": 64, "foo": 2}})


@pytest.mark.parametrize("subcommand,doc", [
    ("region", {"model": "bundled:planted-target"}),
    ("plotdata", {"reports": []}),
])
def test_parse_config_rejects_other_schema_version(subcommand, doc):
    assert parse_config(subcommand, {**doc, "schema_version": cli.SCHEMA_VERSION})
    for version in (0, 7):
        with pytest.raises(ConfigError) as err:
            parse_config(subcommand, {**doc, "schema_version": version})
        assert err.value.pointer == "/schema_version"


@pytest.mark.parametrize("over,pointer", [
    ({"tol": -1.0}, "/tol"),
    ({"tol": float("nan")}, "/tol"),
    ({"tol": float("inf")}, "/tol"),
    ({"restarts": 0}, "/restarts"),
    ({"w_size": 0}, "/w_size"),
], ids=["tol-negative", "tol-nan", "tol-inf", "restarts-0", "w_size-0"])
def test_parse_config_rejects_region_search_that_cannot_run(over, pointer):
    with pytest.raises(ConfigError) as err:
        parse_config("region", {"model": "bundled:planted-target", **over})
    assert err.value.pointer == pointer


def test_region_config_rejects_removed_iterations_key(tmp_path, capsys):
    doc = {"model": "bundled:planted-target", "iterations": 30, "out": "bad"}
    with pytest.raises(ConfigError, match="unknown key") as err:
        parse_config("region", doc)
    assert err.value.pointer == "/iterations"
    code = cli.main(["region", "--config", str(write_config(tmp_path, "bad.json", doc))])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "/iterations: unknown key", "type": "ConfigError"}
    assert not (tmp_path / "bad").exists()


def test_simulate_config_rejects_removed_seeds_key(tmp_path, capsys):
    with pytest.raises(ConfigError, match="unknown key") as err:
        parse_config("simulate", {"model": "bundled:bsc", "params": {"n": 32}, "k": 2, "seeds": [1, 1]})
    assert err.value.pointer == "/seeds"
    cfg = simulate_config(tmp_path, seeds=[1, 1], out="bad")
    assert cli.main(["simulate", "--config", str(cfg)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "/seeds: unknown key", "type": "ConfigError"}
    assert not (tmp_path / "bad").exists()


def test_simulate_config_rejects_removed_attach_region_verdict_key(tmp_path, capsys):
    cfg = simulate_config(tmp_path, attach_region_verdict=True, out="bad")
    assert cli.main(["simulate", "--config", str(cfg)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "/attach_region_verdict: unknown key", "type": "ConfigError"}
    assert not (tmp_path / "bad").exists()


def test_main_rejects_target_whose_factors_disagree_on_an_axis_size(tmp_path, capsys):
    from coordsim.bundled import bsc_target

    doc = bsc_target().to_json_dict()
    rule = doc["action_rule"]
    assert rule["given_axes"][0] == {"name": "U", "size": 2}
    rule["given_axes"][0]["size"] = 3  # |U| = 3 against a p_u of size 2
    rule["table"] = [0.5] * 24
    code = cli.main(["region", "--config", str(write_config(tmp_path, "bad.json", {"model": doc, "out": "bad"}))])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["type"] == "ConfigError"
    assert err["error"].startswith("/model: ") and "shape mismatch on axis 'U'" in err["error"]
    assert not (tmp_path / "bad").exists()


def test_parse_config_requires_model():
    with pytest.raises(ConfigError, match="/model"):
        parse_config("construct", {"params": {"n": 64}})


def test_malformed_pmf_row_cites_normalization(tmp_path):
    doc = bsc_model().to_json_dict()
    doc["x_prior"]["table"] = [0.5, 0.4]  # sums to 0.9
    cfg = parse_config("construct", {"model": doc, "params": {"n": 32, "mc_samples": 100}}, tmp_path)
    with pytest.raises(ConfigError, match="sum"):
        cli._source_model(cfg)


@pytest.mark.parametrize("name", sorted(cli._BUNDLED))
def test_every_bundled_name_loads_as_source_model_and_target(name):
    from coordsim.construction import SourceModel
    from coordsim.region import CoordinationTarget

    model = cli._source_model(parse_config("construct", {"model": name, "params": {"n": 8}}))
    target = cli._target(parse_config("region", {"model": name}))
    assert isinstance(model, SourceModel) and isinstance(target, CoordinationTarget)
    assert target.to_json_dict() == model.target.to_json_dict()


def test_bundled_targets_are_model_views():
    from coordsim import bundled

    assert bundled.bsc_target(0.2, 0.3).to_json_dict() == bundled.bsc_model(0.2, 0.3).target.to_json_dict()
    assert bundled.planted_target(0.1).to_json_dict() == bundled.planted_model(0.1).target.to_json_dict()


@pytest.mark.parametrize("subcommand,doc", [
    ("region", {}),
    ("simulate", {"params": {"n": 32}, "k": 2}),
])
def test_main_rejects_unknown_bundled_name(tmp_path, capsys, subcommand, doc):
    doc = {**doc, "model": "bundled:nope", "out": "bad"}
    code = cli.main([subcommand, "--config", str(write_config(tmp_path, "bad.json", doc))])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "/model: unknown bundled model 'bundled:nope'", "type": "ConfigError"}
    assert not (tmp_path / "bad").exists()


# -- report header -----------------------------------------------------------------


@pytest.mark.parametrize("subcommand,doc", [
    ("region", {"model": "bundled:bsc", "w_size": 1, "restarts": 2}),
    ("construct", {"model": "bundled:bsc", "params": {"n": 8, "mc_samples": 50}}),
    ("simulate", {"model": "bundled:bsc", "params": {"n": 32, "mc_samples": 400}, "k": 2}),
    ("verify-binning", {"model": {"axes": [{"name": "A", "size": 2}, {"name": "B", "size": 2}],
                                  "table": [0.45, 0.05, 0.05, 0.45]},
                        "n_list": [4], "rates": [0.3], "replicates": 1, "samples": 10}),
    ("plotdata", {"reports": []}),
])
def test_every_report_starts_with_the_header(tmp_path, monkeypatch, subcommand, doc):
    monkeypatch.setenv("COORDSIM_THREADS", "1")
    cfg = parse_config(subcommand, {**doc, "out": "hdr"}, tmp_path)
    report = cli.run(subcommand, cfg)
    written = json.loads((tmp_path / "hdr" / "report.json").read_text())
    assert written == report
    assert list(written)[:3] == ["schema_version", "subcommand", "config"]
    assert written["schema_version"] == cli.SCHEMA_VERSION
    assert written["subcommand"] == subcommand
    assert written["config"] == {k: v for k, v in cfg.items() if k != "base_dir"}
    assert len(written) > 3  # the runner's body follows the header


# -- construct ------------------------------------------------------------------


def test_construct_writes_report_and_cache(tmp_path):
    cfg_path = write_config(
        tmp_path, "c.json",
        {"model": "bundled:bsc", "params": {"n": 32, "mc_samples": 400}, "cache": "sets.bin", "out": "run"},
    )
    assert cli.main(["construct", "--config", str(cfg_path)]) == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["schema_version"] == 1
    assert report["subcommand"] == "construct"
    assert set(report["set_sizes"]) >= {"a1", "a2", "b1", "b4"}
    assert (tmp_path / "sets.bin").exists()
    from coordsim.construction import load_index_cache

    sets = load_index_cache(tmp_path / "sets.bin")
    assert sets.n == 32


def test_construct_benchmark_op_pinned(tmp_path):
    # one construct op of the benchmark: the digest pins the random stream,
    # the order of every Monte-Carlo sum and the report's sets and sizes
    doc = {"model": "bundled:chained", "params": {"n": 1024, "mc_samples": 2048}, "seed": 0}
    report = cli.run("construct", parse_config("construct", doc, tmp_path))
    keys = ("profile", "index_sets", "divergence_certificate", "set_sizes")
    got = hashlib.sha256(json.dumps({k: report[k] for k in keys}, sort_keys=True).encode()).hexdigest()
    assert got == "c2a90740e032e0e93904531440e95959ce6be0c4bc086da36b16b50ad35c47a8"


# -- simulate ---------------------------------------------------------------------


def simulate_config(tmp_path, **over):
    doc = {
        "model": "bundled:bsc",
        "params": {"n": 32, "mc_samples": 400},
        "k": 3,
        "trials": 3,
        "out": "sim",
    }
    doc.update(over)
    return write_config(tmp_path, "s.json", doc)


def test_simulate_report_schema_and_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("COORDSIM_THREADS", "1")
    cfg = simulate_config(tmp_path)
    assert cli.main(["simulate", "--config", str(cfg)]) == 0
    first = (tmp_path / "sim" / "trials.csv").read_bytes()
    report = json.loads((tmp_path / "sim" / "report.json").read_text())
    assert len(report["rows"]) == 3
    for row in report["rows"]:
        assert set(row) == set(
            ("n", "k", "seed", "s_error_rate", "w_error_rate", "tv_estimate",
             "mi_consecutive", "cr_rate", "side_rate")
        )
    # aggregates recompute from rows exactly
    for name, agg in report["aggregates"].items():
        vals = np.array([r[name] for r in report["rows"]])
        assert agg["mean"] == pytest.approx(vals.mean(), abs=1e-12)
    assert cli.main(["simulate", "--config", str(cfg)]) == 0
    assert (tmp_path / "sim" / "trials.csv").read_bytes() == first


def test_simulate_parallel_matches_serial(tmp_path, monkeypatch):
    cfg = simulate_config(tmp_path, out="par")
    monkeypatch.setenv("COORDSIM_THREADS", "1")
    assert cli.main(["simulate", "--config", str(cfg)]) == 0
    serial = (tmp_path / "par" / "trials.csv").read_bytes()
    for workers in ("3", "2"):  # one trial per worker; chunks of one and two trials
        monkeypatch.setenv("COORDSIM_THREADS", workers)
        assert cli.main(["simulate", "--config", str(cfg)]) == 0
        assert (tmp_path / "par" / "trials.csv").read_bytes() == serial


def test_simulate_pinned_trials_csv(tmp_path, monkeypatch):
    # the digest pins every random stream of a simulate run, so running the
    # trials in lockstep must leave it unchanged
    import hashlib

    monkeypatch.setenv("COORDSIM_THREADS", "1")
    cfg = simulate_config(tmp_path, model="bundled:chained", params={"n": 64, "mc_samples": 4000},
                          k=4, trials=3, out="pinned")
    assert cli.main(["simulate", "--config", str(cfg)]) == 0
    digest = hashlib.sha256((tmp_path / "pinned" / "trials.csv").read_bytes()).hexdigest()
    assert digest == "5ec85e2a2eb9e7e5301d197660e566114fe3839db7868025b94ba7c15af7260e"


def test_simulate_benchmark_op_pinned(tmp_path, monkeypatch):
    # one simulate op of the benchmark on its committed index sets: the
    # digest pins every decision of both chains at n = 1024
    monkeypatch.setenv("COORDSIM_THREADS", "1")
    sets = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "chained_n1024.idx"
    doc = {"model": "bundled:chained", "params": {"n": 1024}, "k": 8, "trials": 8, "seed": 0,
           "sets_cache": str(sets), "out": "bench"}
    report = cli.run("simulate", parse_config("simulate", doc, tmp_path))
    keys = ("rows", "aggregates", "rate_report")
    body = json.dumps({k: report[k] for k in keys}, sort_keys=True).encode()
    got = hashlib.sha256(body + (tmp_path / "bench" / "trials.csv").read_bytes()).hexdigest()
    assert got == "8831af757988e85dcca41cf7137c567154b16c2fc4b0db360ae797f38b2ea83b"


def test_simulate_with_cache_and_overrides(tmp_path, monkeypatch):
    monkeypatch.setenv("COORDSIM_THREADS", "1")
    ccfg = write_config(
        tmp_path, "c.json",
        {"model": "bundled:bsc", "params": {"n": 32, "mc_samples": 400}, "cache": "sets.bin"},
    )
    assert cli.main(["construct", "--config", str(ccfg)]) == 0
    scfg = simulate_config(tmp_path, sets_cache="sets.bin", out="cached")
    assert cli.main(["simulate", "--config", str(scfg), "--trials", "2", "--seed", "5"]) == 0
    report = json.loads((tmp_path / "cached" / "report.json").read_text())
    assert [r["seed"] for r in report["rows"]] == [5, 6]


# -- region ------------------------------------------------------------------------


def test_region_cli_planted_target(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "r.json",
        {"model": "bundled:planted-target", "w_size": 2, "restarts": 6, "out": "reg"},
    )
    assert cli.main(["region", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "reg" / "report.json").read_text())
    assert report["region_verdict"]["feasible"] is True
    assert report["region_verdict"]["residual"] <= 1e-6
    assert 1 <= report["region_verdict"]["feasible_restarts"] <= 6
    low, high = report["region_verdict"]["inner_rate_range"]
    assert low == report["region_verdict"]["inner_rate"] <= high
    assert "rate_ledger" in report
    out = capsys.readouterr().out
    assert "R0 lower bound" in out


def test_region_benchmark_op_pinned(tmp_path):
    # one region op of the benchmark: the digest pins the verdict, the rate
    # ledger and the echoed config with its defaults (the output path aside)
    doc = {"model": "bundled:planted-target", "seed": 0}
    report = cli.run("region", parse_config("region", doc, tmp_path))
    pinned = {
        "region_verdict": report["region_verdict"],
        "rate_ledger": report["rate_ledger"],
        "config": {k: v for k, v in report["config"].items() if k != "out"},
    }
    got = hashlib.sha256(json.dumps(pinned, sort_keys=True).encode()).hexdigest()
    assert got == "75de969a9dd6ae0f3073ce6231f0633dea1977b7787b76155cf03b9bb826d660"


def test_region_reads_a_source_model_document_as_its_target(tmp_path):
    # a source model is read through its target view, bundled or a document
    from coordsim.bundled import chained_model

    write_config(tmp_path, "chained.json", chained_model().to_json_dict())
    verdicts = [
        cli.run("region", parse_config("region", {"model": model, "seed": 0}, tmp_path))["region_verdict"]
        for model in ("bundled:chained", chained_model().to_json_dict(), "chained.json")
    ]
    assert verdicts[0]["feasible"]
    assert verdicts[1] == verdicts[0] == verdicts[2]


def test_region_cli_w_sweep_stops_at_first_feasible(tmp_path):
    cfg = write_config(
        tmp_path, "r2.json",
        {"model": "bundled:bsc", "restarts": 4, "out": "reg2"},
    )
    assert cli.main(["region", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "reg2" / "report.json").read_text())
    assert report["region_verdict"]["feasible"] is True
    assert report["region_verdict"]["witness"]["w_size"] == 1


def test_region_planted_target_feasible_with_ledger_over_seeds():
    # the region benchmark op's check: at the CLI's default restarts the
    # planted target has a feasible witness at |W| = 2 with nonempty windows
    from coordsim.bundled import planted_target
    from coordsim.region import binning_rate_ledger, search_auxiliary

    cfg = parse_config("region", {"model": "bundled:planted-target"})
    target = planted_target()
    for seed in range(50):
        verdict = search_auxiliary(target, 2, restarts=cfg["restarts"], tol=cfg["tol"], seed=seed)
        assert verdict.feasible, seed
        assert verdict.inner_rate >= verdict.outer_rate
        binning_rate_ledger(target, verdict.witness)  # raises EmptyWindow if a window is empty


def test_cli_import_loads_no_scipy():
    # importing scipy.optimize alone adds about 0.6 s and 48 MB to a run
    code = "import sys, coordsim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cli_import_loads_no_process_pool():
    # only a simulate run on more than one worker starts a pool; importing
    # concurrent.futures.process costs every run's setup about 14 ms
    code = "import sys, coordsim.cli; print('concurrent.futures.process' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_construct_and_simulate_runs_load_no_numpy_ma(tmp_path):
    # np.setdiff1d and np.intersect1d import numpy.ma through np.unique,
    # about 1 MB of peak memory and 10 ms of setup per run
    construct = write_config(tmp_path, "construct.json", {
        "model": "bundled:chained", "params": {"n": 64, "mc_samples": 256}, "seed": 1,
        "out": str(tmp_path / "construct"), "cache": str(tmp_path / "sets.idx"),
    })
    simulate = write_config(tmp_path, "simulate.json", {
        "model": "bundled:chained", "params": {"n": 64}, "k": 3, "trials": 2, "seed": 1,
        "sets_cache": str(tmp_path / "sets.idx"), "out": str(tmp_path / "simulate"),
    })
    code = (
        "import sys, coordsim.cli as cli\n"
        f"assert cli.main(['construct', '--config', {str(construct)!r}]) == 0\n"
        f"assert cli.main(['simulate', '--config', {str(simulate)!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), COORDSIM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "False"


# -- verify-binning -----------------------------------------------------------------


def test_verify_binning_cli(tmp_path):
    from coordsim.binning import dsbs

    cfg = write_config(
        tmp_path, "b.json",
        {
            "model": dsbs(0.1).to_json_dict(),
            "n_list": [4, 6],
            "rates": [0.3, 0.9],
            "replicates": 5,
            "samples": 40,
            "out": "bin",
        },
    )
    assert cli.main(["verify-binning", "--config", str(cfg)]) == 0
    lines = (tmp_path / "bin" / "binning.csv").read_text().strip().splitlines()
    assert lines[0] == "n,rate,lemma,statistic,value"
    assert len(lines) == 1 + 2 * 2 * 2  # 2 n x 2 rates x (error, kl)


def test_verify_binning_pinned_csv(tmp_path):
    # a 2x3 joint with a zero cell, sweep seed 20240613: the sampled SW error
    # rates are exact, the exact extraction KL is pinned to rounding
    from coordsim.probability import Alphabet, JointPMF

    joint = JointPMF((Alphabet("A", 2), Alphabet("B", 3)),
                     np.array([[0.3, 0.15, 0.05], [0.0, 0.2, 0.3]]))
    cfg = write_config(
        tmp_path, "b.json",
        {"model": joint.to_json_dict(), "n_list": [3, 7], "rates": [0.4, 1.2],
         "replicates": 3, "samples": 30, "seed": 20240613, "out": "bin"},
    )
    assert cli.main(["verify-binning", "--config", str(cfg)]) == 0
    with open(tmp_path / "bin" / "binning.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "rate", "lemma", "statistic", "value"]
    got = {(int(n), float(rate), stat): float(value) for n, rate, _, stat, value in rows[1:]}
    expect_err = {
        (3, 0.4): 0.14444444444444446, (3, 1.2): 0.07777777777777778,
        (7, 0.4): 0.39999999999999997, (7, 1.2): 0.022222222222222223,
    }
    expect_kl = {
        (3, 0.4): 0.2297088622472756, (3, 1.2): 1.2018181895042916,
        (7, 0.4): 0.03312189156504342, (7, 1.2): 1.5959366952158767,
    }
    assert len(got) == len(rows) - 1 == len(expect_err) + len(expect_kl)
    for (n, rate), err in expect_err.items():
        assert got[(n, rate, "error_rate")] == err
    for (n, rate), kl in expect_kl.items():
        assert got[(n, rate, "kl_to_uniform")] == pytest.approx(kl, abs=1e-12)
    # the file's bytes: row order and every digit of each sum
    digest = hashlib.sha256((tmp_path / "bin" / "binning.csv").read_bytes()).hexdigest()
    assert digest == "9f59199f0e4dab0c0398fd54c8f9daab6b034ddd3f2067ffd92f4eb94d7968aa"


def test_verify_binning_extraction_n16(tmp_path):
    # 2^16 states and 16 bins at rate 0.2, contracted in chunks of 4 bin columns
    from coordsim.binning import dsbs

    cfg = write_config(
        tmp_path, "b16.json",
        {"model": dsbs(0.1).to_json_dict(), "n_list": [16], "rates": [0.2],
         "replicates": 2, "lemmas": ["extraction"], "out": "bin16"},
    )
    assert cli.main(["verify-binning", "--config", str(cfg)]) == 0
    with open(tmp_path / "bin16" / "binning.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [row[:4] for row in rows[1:]] == [["16", "0.2", "extraction", "kl_to_uniform"]]
    kl = float(rows[1][4])
    assert math.isfinite(kl) and kl >= 0.0


@pytest.mark.parametrize("model,pointer", [
    ({"axes": [{"name": "X", "size": 2}, {"name": "Y", "size": 2}], "table": [0.25] * 4}, "/model"),
    ({"axes": [{"name": "A", "size": 2}, {"name": "B", "size": 2}, {"name": "C", "size": 2}],
      "table": [0.125] * 8}, "/model"),
    ({"axes": [{"name": "A", "size": 2}, {"name": "B", "size": 2}], "table": [0.5, 0.5]}, "/model"),
    # a missing key is named at its own pointer
    ({"axes": [{"name": "A", "size": 2}, {"name": "B", "size": 2}]}, "/model/table"),
    ({"axes": "AB", "table": [0.25] * 4}, "/model"),
    ("bundled:bsc", "/model"),
    ({"axes": [{"name": "A", "size": 2}, {"name": "B", "size": 2}], "table": [math.nan, 0.5, 0.25, 0.25]}, "/model"),
    ({"axes": [{"name": "A", "size": 2.9}, {"name": "B", "size": 2}], "table": [0.25] * 4}, "/model"),
    ({"axes": [{"name": "A", "size": 2}, {"name": "B", "size": 2}], "table": ["0.45", "0.05", "0.05", "0.45"]},
     "/model"),
    ({"axes": [{"name": "A", "size": 2}, {"name": "B", "size": 2}], "table": [True, False, False, False]}, "/model"),
], ids=["axes-XY", "axes-ABC", "table-length", "no-table", "axes-not-a-list", "bundled", "table-nan",
        "size-not-int", "table-strings", "table-bools"])
def test_verify_binning_rejects_joint_not_over_a_b(tmp_path, capsys, model, pointer):
    doc = {"model": model, "n_list": [4], "rates": [0.3], "replicates": 1, "samples": 10, "out": "bad"}
    code = cli.main(["verify-binning", "--config", str(write_config(tmp_path, "bad.json", doc))])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["type"] == "ConfigError"
    assert err["error"].startswith(pointer + ": ")
    assert not (tmp_path / "bad").exists()


def sparse_rows(rng, shape, size):
    """Pmf rows over ``size`` outcomes: each row dense, with zero cells, or a
    point mass."""
    rows = rng.dirichlet(np.ones(size), size=shape)
    kind = rng.integers(3, size=shape)[..., None]
    rows[(kind == 1) & (rng.random(rows.shape) < 0.5)] = 0.0
    point = np.eye(size)[rng.integers(size, size=shape)]
    rows = np.where(kind == 2, point, rows)
    rows[..., 0] += rows.sum(axis=-1) == 0
    return rows / rows.sum(axis=-1, keepdims=True)


def sparse_model_doc(rng):
    """A random valid source model: U, Y and V of 1 to 3 symbols, binary X
    and W, with zero cells and point-mass rows."""
    from coordsim.construction import SourceModel
    from coordsim.probability import Alphabet, ConditionalPMF, JointPMF

    u, y, v = (Alphabet(name, int(k)) for name, k in zip("UYV", rng.integers(1, 4, size=3)))
    x, w = Alphabet("X", 2), Alphabet("W", 2)
    return SourceModel(
        u_prior=JointPMF((u,), sparse_rows(rng, (), u.size)),
        x_prior=JointPMF((x,), sparse_rows(rng, (), 2)),
        channel=ConditionalPMF((x,), (y,), sparse_rows(rng, (2,), y.size)),
        w_rule=ConditionalPMF((x, u), (w,), sparse_rows(rng, (2, u.size), 2)),
        v_rule=ConditionalPMF((w, y), (v,), sparse_rows(rng, (2, y.size), v.size)),
    ).to_json_dict()


def finite_numbers(node):
    if isinstance(node, dict):
        return all(finite_numbers(value) for value in node.values())
    if isinstance(node, list):
        return all(finite_numbers(value) for value in node)
    return not isinstance(node, float) or math.isfinite(node)


def test_sparse_valid_models_run_or_fail_typed(tmp_path, capsys, monkeypatch):
    # every model that passes validation either runs to a finite report or
    # exits nonzero with exactly one JSON error line, never a traceback
    monkeypatch.setenv("COORDSIM_THREADS", "1")
    rng = np.random.default_rng(2908)
    outcomes = {"report": 0, "error": 0}
    for i in range(40):
        doc = sparse_model_doc(rng)
        for subcommand, n in [("construct", 16), ("simulate", 16), ("construct", 64), ("simulate", 64)]:
            cfg = {"model": doc, "params": {"n": n, "mc_samples": 64}, "seed": i, "out": f"m{i}-{subcommand}-{n}"}
            if subcommand == "simulate":
                cfg.update(k=2, trials=2)
            code = cli.main([subcommand, "--config", str(write_config(tmp_path, "sparse.json", cfg))])
            err = capsys.readouterr().err.strip().splitlines()
            if code == 0:
                assert err == []
                report = json.loads((tmp_path / cfg["out"] / "report.json").read_text())
                assert finite_numbers(report), (i, subcommand, n)
                outcomes["report"] += 1
            else:
                assert code == 1 and len(err) == 1, (i, subcommand, n, err)
                assert set(json.loads(err[0])) == {"error", "type"}
                outcomes["error"] += 1
    # both branches are taken: some models run and some are refused
    assert outcomes["report"] and outcomes["error"], outcomes


# -- plotdata -----------------------------------------------------------------------


def test_plotdata_merges_reports(tmp_path, monkeypatch):
    monkeypatch.setenv("COORDSIM_THREADS", "1")
    cfg = simulate_config(tmp_path)
    assert cli.main(["simulate", "--config", str(cfg)]) == 0
    pcfg = write_config(tmp_path, "p.json", {"reports": ["sim/report.json"], "out": "plot"})
    assert cli.main(["plotdata", "--config", str(pcfg)]) == 0
    lines = (tmp_path / "plot" / "plotdata.csv").read_text().strip().splitlines()
    assert lines[0] == "n,k,seed,metric,value"
    assert len(lines) == 1 + 3 * 6  # trials x metrics


def test_plotdata_empty_input(tmp_path):
    pcfg = write_config(tmp_path, "p0.json", {"reports": [], "out": "plot0"})
    assert cli.main(["plotdata", "--config", str(pcfg)]) == 0
    lines = (tmp_path / "plot0" / "plotdata.csv").read_text().splitlines()
    assert lines == ["n,k,seed,metric,value"]


@pytest.mark.parametrize("report", [
    "[1, 2]",
    json.dumps({"schema_version": 1, "subcommand": "simulate", "rows": [1]}),
    json.dumps({"schema_version": 1, "subcommand": "simulate", "rows": [{"tv_estimate": 0.1}]}),
    "{not json",
    json.dumps({"schema_version": 1, "subcommand": "verify-binning",
                "rows": [{"n": 4, "rate": 0.3, "lemma": "sw", "statistic": "error_rate", "value": 0.5}]}),
], ids=["list", "row-not-object", "row-without-seed", "not-json", "verify-binning-report"])
def test_plotdata_rejects_malformed_report(tmp_path, monkeypatch, capsys, report):
    monkeypatch.setenv("COORDSIM_THREADS", "1")
    assert cli.main(["simulate", "--config", str(simulate_config(tmp_path, trials=1))]) == 0
    (tmp_path / "bad.json").write_text(report)
    pcfg = write_config(tmp_path, "p.json", {"reports": ["sim/report.json", "bad.json"], "out": "plot"})
    assert cli.main(["plotdata", "--config", str(pcfg)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["type"] == "ConfigError"
    assert err["error"].startswith("/reports/1: ")
    assert not (tmp_path / "plot").exists()


def test_plotdata_schema_mismatch():
    with pytest.raises(ValueError, match="schema_version"):
        emit_plotdata([{"schema_version": 99, "rows": []}])


# -- process exit behavior -------------------------------------------------------------


ONE_SYMBOL_A = {"axes": [{"name": "A", "size": 1}, {"name": "B", "size": 2}], "table": [0.4, 0.6]}
ONE_SYMBOL_AB = {"axes": [{"name": "A", "size": 1}, {"name": "B", "size": 1}], "table": [1.0]}


def runnable_doc(subcommand):
    """A small config that runs, writing to ``bad``."""
    from coordsim.binning import dsbs

    if subcommand == "verify-binning":
        return {"model": dsbs(0.1).to_json_dict(), "n_list": [4], "rates": [0.3], "replicates": 2,
                "samples": 10, "out": "bad"}
    doc = {"model": "bundled:bsc", "out": "bad"}
    if subcommand != "region":
        doc["params"] = {"n": 32, "mc_samples": 100}
    if subcommand == "simulate":
        doc["k"] = 2
    return doc


@pytest.mark.parametrize("subcommand,over,pointer", [
    ("verify-binning", {"replicates": 0}, "/replicates"),
    ("verify-binning", {"samples": 0}, "/samples"),
    ("verify-binning", {"n_list": [4, 0]}, "/n_list/1"),
    ("verify-binning", {"n_list": [2.5]}, "/n_list/0"),
    ("verify-binning", {"n_list": [True]}, "/n_list/0"),
    ("verify-binning", {"rates": [-0.5]}, "/rates/0"),
    ("verify-binning", {"rates": [0.3, float("nan")]}, "/rates/1"),
    ("verify-binning", {"rates": [float("inf")]}, "/rates/0"),
    ("verify-binning", {"rates": ["0.3"]}, "/rates/0"),
    ("verify-binning", {"lemmas": []}, "/lemmas"),
    ("verify-binning", {"lemmas": ["sw", "foo"]}, "/lemmas/1"),
    ("construct", {"params": {"n": 32, "mc_samples": 0}}, "/params/mc_samples"),
    ("verify-binning", {"n_list": [12], "rates": [10.0]}, "/rates/0"),
    ("simulate", {"params": {"n": 32}, "k": 1}, "/k"),
    ("region", {"w_size": 25}, "/w_size"),  # the cardinality bound of bundled:bsc is 20
    ("simulate", {"trials": 0}, "/trials"),
    ("region", {"seed": -1}, "/seed"),
    ("construct", {"seed": -1}, "/seed"),
    ("simulate", {"seed": -1}, "/seed"),
    ("verify-binning", {"seed": -1}, "/seed"),
    # checked against the enumeration cap before the n = 4 sweep runs
    ("verify-binning", {"n_list": [4, 40]}, "/n_list/1"),
    ("verify-binning", {"n_list": [4, 40], "lemmas": ["extraction"]}, "/n_list/1"),
    ("verify-binning", {"n_list": [4, 17], "samples": 200}, "/n_list/1"),  # 200 x 2^17 SW scores
    ("verify-binning", {"rates": [1e308]}, "/rates/0"),  # n*rate overflows to inf
    # a blocklength past float range is refused on the cap, not in the bin-count product
    ("verify-binning", {"n_list": [4, 10**400]}, "/n_list/1"),
    # one-symbol alphabets: 1^25 is one cell, but n = 25 is the cap's bit length
    ("verify-binning", {"model": ONE_SYMBOL_A, "lemmas": ["sw"], "n_list": [4, 25]}, "/n_list/1"),
    ("verify-binning", {"model": ONE_SYMBOL_AB, "lemmas": ["extraction"], "n_list": [4, 25]}, "/n_list/1"),
])
def test_main_rejects_sweep_that_cannot_run(tmp_path, capsys, subcommand, over, pointer):
    doc = {**runnable_doc(subcommand), **over}
    code = cli.main([subcommand, "--config", str(write_config(tmp_path, "bad.json", doc))])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["type"] == "ConfigError"
    assert err["error"].startswith(pointer + ": ")
    assert not (tmp_path / "bad").exists()


def test_main_refuses_huge_blocklength_on_the_cap(tmp_path, capsys):
    # 2^20000 is past Python's integer-to-string limit; the cap still names the array
    doc = {**runnable_doc("verify-binning"), "n_list": [4, 20000], "rates": [0.0]}
    code = cli.main(["verify-binning", "--config", str(write_config(tmp_path, "bad.json", doc))])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "/n_list/1: SW decoding: 10 x 2^20000 cells exceed the enumeration cap 16777216; "
                            "use a smaller n", "type": "ConfigError"}
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("subcommand,flags,pointer", [
    ("region", ["--seed", "-2"], "/seed"),
    ("construct", ["--seed", "-2"], "/seed"),
    ("simulate", ["--seed", "-2"], "/seed"),
    ("verify-binning", ["--seed", "-2"], "/seed"),
    ("verify-binning", ["--n-list", "4,x"], "/n_list/1"),
    ("verify-binning", ["--n-list", "4.5"], "/n_list/0"),
    ("verify-binning", ["--rates", "y,0.3"], "/rates/0"),
    ("verify-binning", ["--rates", "1e308"], "/rates/0"),
])
def test_main_rejects_override_that_cannot_run(tmp_path, capsys, subcommand, flags, pointer):
    cfg = write_config(tmp_path, "bad.json", runnable_doc(subcommand))
    assert cli.main([subcommand, "--config", str(cfg)] + flags) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["type"] == "ConfigError"
    assert err["error"].startswith(pointer + ": ")
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("doc,flags,pointer", [
    ([1, 2], ["--seed", "1"], "/"),
    ({"model": "bundled:bsc", "params": 5}, ["--n", "16"], "/params"),
], ids=["list-seed", "params-int-n"])
def test_main_rejects_config_that_is_not_an_object(tmp_path, capsys, doc, flags, pointer):
    code = cli.main(["construct", "--config", str(write_config(tmp_path, "bad.json", doc))] + flags)
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": pointer + ": expected a JSON object", "type": "ConfigError"}


@pytest.mark.parametrize("subcommand,over,pointer", [
    ("region", {"model": "nope.json"}, "/model"),
    ("construct", {"model": "nope.json"}, "/model"),
    ("simulate", {"model": "nope.json"}, "/model"),
    ("simulate", {"sets_cache": "nope.json"}, "/sets_cache"),
    ("plotdata", {"reports": ["empty.json", "nope.json"]}, "/reports/1"),
], ids=["region-model", "construct-model", "simulate-model", "simulate-sets_cache", "plotdata-report"])
def test_main_rejects_missing_file_where_it_is_read(tmp_path, capsys, subcommand, over, pointer):
    # the runner reads its files before any other work and before it makes the output directory
    (tmp_path / "empty.json").write_text("{}")
    doc = {"out": "bad"} if subcommand == "plotdata" else runnable_doc(subcommand)
    code = cli.main([subcommand, "--config", str(write_config(tmp_path, "bad.json", {**doc, **over}))])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["type"] == "ConfigError"
    assert err["error"].startswith(pointer + ": ")
    assert str(tmp_path / "nope.json") in err["error"]
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("make", [
    lambda path: path.write_text("{not json"),
    lambda path: path.mkdir(),
    lambda path: path.write_text(json.dumps({**bsc_model().to_json_dict(), "x_prior_typo": 1})),
], ids=["not-json", "directory", "unknown-key"])
def test_main_rejects_unreadable_model_file(tmp_path, capsys, make):
    make(tmp_path / "m.json")
    doc = {"model": "m.json", "params": {"n": 32, "mc_samples": 100}, "out": "bad"}
    code = cli.main(["construct", "--config", str(write_config(tmp_path, "bad.json", doc))])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["type"] == "ConfigError"
    assert err["error"].startswith("/model: ")
    assert str(tmp_path / "m.json") in err["error"]
    assert not (tmp_path / "bad").exists()


BSC_DOC = bsc_model().to_json_dict()
AB_DOC = {"axes": [{"name": "A", "size": 2}, {"name": "B", "size": 2}], "table": [0.45, 0.05, 0.05, 0.45]}


@pytest.mark.parametrize("subcommand,doc,pointer", [
    ("construct", {"model": {**BSC_DOC, "x_prior_typo": 1}, "params": {"n": 32}}, "/model/x_prior_typo"),
    ("simulate", {"model": {**BSC_DOC, "u_prior": {**BSC_DOC["u_prior"], "tabel": []}}, "params": {"n": 32}, "k": 2},
     "/model/u_prior/tabel"),
    ("region", {"model": {**bsc_model().target.to_json_dict(), "p_v": 1}}, "/model/p_v"),
    ("region", {"model": {**BSC_DOC, "x_prior_typo": 1}}, "/model/x_prior_typo"),
    ("verify-binning", {"model": {**AB_DOC, "tabel": []}, "n_list": [4], "rates": [0.3]}, "/model/tabel"),
], ids=["construct", "simulate-pmf", "region-target", "region-source-model", "verify-binning"])
def test_main_names_unknown_model_key(tmp_path, capsys, subcommand, doc, pointer):
    # an inline model document is as strict as the config around it
    code = cli.main([subcommand, "--config", str(write_config(tmp_path, "bad.json", {**doc, "out": "bad"}))])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": f"{pointer}: unknown key", "type": "ConfigError"}
    assert not (tmp_path / "bad").exists()


def test_config_pointers_escape_keys_per_rfc_6901():
    # "~" is written "~0" and "/" is written "~1", so each key stays one token
    with pytest.raises(ConfigError) as err:
        parse_config("construct", {"model": "bundled:bsc", "params": {"n": 64}, "x~y/z": 1})
    assert str(err.value) == "/x~0y~1z: unknown key"
    with pytest.raises(ConfigError) as err:
        parse_config("construct", {"model": "bundled:bsc", "params": {"n": 64, "a/b": 1}})
    assert str(err.value) == "/params/a~1b: unknown key"
    model = {**BSC_DOC, "u_prior": {**BSC_DOC["u_prior"], "~/": 1}}
    cfg = parse_config("construct", {"model": model, "params": {"n": 32}})
    with pytest.raises(ConfigError) as err:
        cli._source_model(cfg)
    assert str(err.value) == "/model/u_prior/~0~1: unknown key"


def without(doc, *path):
    """A deep copy of ``doc`` with the key at ``path`` deleted."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[int(key)] if isinstance(node, list) else node[key]
    del node[path[-1]]
    return doc


CHAINED_DOC = chained_model().to_json_dict()


@pytest.mark.parametrize("subcommand,doc,pointer", [
    ("construct", {"model": without(CHAINED_DOC, "x_prior"), "params": {"n": 32}}, "/model/x_prior"),
    ("simulate", {"model": without(CHAINED_DOC, "u_prior", "table"), "params": {"n": 32}, "k": 2},
     "/model/u_prior/table"),
    ("construct", {"model": without(CHAINED_DOC, "w_rule", "out_axes", "0", "size"), "params": {"n": 32}},
     "/model/w_rule/out_axes/0/size"),
    ("region", {"model": without(bsc_model().target.to_json_dict(), "channel")}, "/model/channel"),
    ("region", {"model": without(CHAINED_DOC, "u_prior")}, "/model/u_prior"),
    ("verify-binning", {"model": without(AB_DOC, "axes", "1", "name"), "n_list": [4], "rates": [0.3]},
     "/model/axes/1/name"),
], ids=["construct", "simulate-pmf", "construct-alphabet", "region-target", "region-source-model", "verify-binning"])
def test_main_names_missing_model_key(tmp_path, capsys, subcommand, doc, pointer):
    # a key that a law or pmf document needs is named by its pointer, as the config's own keys are
    code = cli.main([subcommand, "--config", str(write_config(tmp_path, "bad.json", {**doc, "out": "bad"}))])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": f"{pointer}: required key missing", "type": "ConfigError"}
    assert not (tmp_path / "bad").exists()


def test_main_rejects_truncated_sets_cache(tmp_path, capsys):
    # the first 10 bytes of an n=1024 cache: magic, version and half of n
    (tmp_path / "cut.idx").write_bytes(b"CSIX\x01\x00\x00\x00\x00\x04")
    cfg = simulate_config(tmp_path, sets_cache="cut.idx", out="bad")
    assert cli.main(["simulate", "--config", str(cfg)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["type"] == "ConfigError"
    assert err["error"].startswith("/sets_cache: ")
    assert str(tmp_path / "cut.idx") in err["error"]
    assert not (tmp_path / "bad").exists()


def test_readme_examples_parse(tmp_path):
    # each heredoc config of the README's Examples block, in a directory none of its files exist in
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme[readme.index("Examples:"):]
    block = block[: block.index("\n```\n")]
    examples = re.findall(r"coordsim (\S+) --config - <<'EOF'\n(.*?)\nEOF$", block, re.S | re.M)
    assert [sub for sub, _ in examples] == ["region", "construct", "simulate", "verify-binning", "plotdata"]
    for subcommand, text in examples:
        parse_config(subcommand, json.loads(text), tmp_path)


def test_main_error_is_machine_readable(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", {"model": "bundled:bsc", "params": {"n": 7}})
    code = cli.main(["construct", "--config", str(cfg)])
    assert code == 1
    err = capsys.readouterr().err
    doc = json.loads(err.strip().splitlines()[-1])
    assert "/params/n" in doc["error"]


def test_main_capacity_error_is_machine_readable(tmp_path, capsys):
    from coordsim.bundled import chained_model

    # useless channel: the chaining carriers cannot fit
    doc = chained_model(crossover=0.5).to_json_dict()
    cfg = write_config(
        tmp_path, "cap.json", {"model": doc, "params": {"n": 64, "mc_samples": 1500}}
    )
    code = cli.main(["construct", "--config", str(cfg)])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "chaining" in err["error"]
    assert err["type"] == "CapacityError"


@pytest.mark.parametrize("value", ["abc", "1.5"])
def test_simulate_rejects_malformed_worker_count_before_any_work(tmp_path, monkeypatch, capsys, value):
    def no_profile(*_args):
        raise AssertionError("the profile ran before the worker count was read")

    monkeypatch.setattr(cli, "estimate_profile", no_profile)
    monkeypatch.setenv("COORDSIM_THREADS", value)
    assert cli.main(["simulate", "--config", str(simulate_config(tmp_path, out="bad"))]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": f"COORDSIM_THREADS must be an integer, got {value!r}", "type": "ValueError"}
    assert not (tmp_path / "bad").exists()
    for limit in ("0", "-3"):  # still one worker
        monkeypatch.setenv("COORDSIM_THREADS", limit)
        assert cli._worker_limit() == 1


def test_main_arithmetic_error_is_machine_readable(tmp_path, monkeypatch, capsys):
    def failing_trials(*_args):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setenv("COORDSIM_THREADS", "1")
    monkeypatch.setattr(cli, "run_trials", failing_trials)
    code = cli.main(["simulate", "--config", str(simulate_config(tmp_path))])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "float division by zero", "type": "ZeroDivisionError"}


@pytest.mark.parametrize("error", [
    ConfigError("/params/n", "bad n"),
    ValueError("bad value"),
    OSError("disk gone"),
    RuntimeError("bad state"),
    MemoryError("Unable to allocate 8.00 TiB for an array with shape (1099511627776,)"),
], ids=lambda error: type(error).__name__)
def test_main_reports_runner_error_as_one_json_line(tmp_path, monkeypatch, capsys, error):
    def failing_runner(_cfg):
        raise error

    monkeypatch.setitem(cli._RUNNERS, "construct", failing_runner)
    code = cli.main(["construct", "--config", str(write_config(tmp_path, "c.json", runnable_doc("construct")))])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert [json.loads(line) for line in err] == [{"error": str(error), "type": type(error).__name__}]
    assert not (tmp_path / "bad").exists()


def test_main_reads_stdin(tmp_path, monkeypatch, capsys):
    import io

    doc = {"model": "bundled:bsc", "params": {"n": 32, "mc_samples": 200}, "out": str(tmp_path / "o")}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert cli.main(["construct", "--config", "-"]) == 0
    assert (tmp_path / "o" / "report.json").exists()
