import csv
import hashlib
import json

import numpy as np
import pytest

from coordsim import cli
from coordsim.bundled import bsc_model
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


def test_parse_config_rejects_non_power_of_two():
    with pytest.raises(ConfigError, match="/params/n"):
        parse_config("simulate", {"model": "bundled:bsc", "params": {"n": 1000}, "k": 4})


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="/frobnicate"):
        parse_config("construct", {"model": "bundled:bsc", "params": {"n": 64}, "frobnicate": 1})
    with pytest.raises(ConfigError, match="/params/foo"):
        parse_config("construct", {"model": "bundled:bsc", "params": {"n": 64, "foo": 2}})


def test_parse_config_requires_model():
    with pytest.raises(ConfigError, match="/model"):
        parse_config("construct", {"params": {"n": 64}})


def test_parse_config_missing_model_file(tmp_path):
    with pytest.raises(ConfigError, match="no such model file"):
        parse_config("construct", {"model": "nope.json", "params": {"n": 64}}, tmp_path)


def test_malformed_pmf_row_cites_normalization(tmp_path):
    doc = bsc_model().to_json_dict()
    doc["x_prior"]["table"] = [0.5, 0.4]  # sums to 0.9
    cfg = parse_config("construct", {"model": doc, "params": {"n": 32, "mc_samples": 100}}, tmp_path)
    with pytest.raises(ConfigError, match="sum"):
        cli._source_model(cfg)


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
    assert digest == "8838dd7357894319b95281da475d290cd92b798ab2deffe76997e47f6ea386cb"


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


def test_simulate_attach_region_verdict(tmp_path, monkeypatch):
    monkeypatch.setenv("COORDSIM_THREADS", "1")
    cfg = simulate_config(tmp_path, attach_region_verdict=True, out="rv")
    assert cli.main(["simulate", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "rv" / "report.json").read_text())
    verdict = report["region_verdict"]
    assert verdict["feasible"] is True
    # cross-module consistency: simulated CR rate within slack of the bound
    cr = report["rate_report"]["common_randomness_rate"]
    assert cr >= verdict["inner_rate"] - 0.1


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
    assert "rate_ledger" in report
    out = capsys.readouterr().out
    assert "R0 lower bound" in out


def test_region_cli_w_sweep_stops_at_first_feasible(tmp_path):
    cfg = write_config(
        tmp_path, "r2.json",
        {"model": "bundled:bsc", "restarts": 4, "out": "reg2"},
    )
    assert cli.main(["region", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "reg2" / "report.json").read_text())
    assert report["region_verdict"]["feasible"] is True
    assert report["region_verdict"]["witness"]["w_size"] == 1


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


def test_plotdata_schema_mismatch():
    with pytest.raises(ValueError, match="schema_version"):
        emit_plotdata([{"schema_version": 99, "rows": []}])


# -- process exit behavior -------------------------------------------------------------


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
])
def test_main_rejects_sweep_that_cannot_run(tmp_path, capsys, subcommand, over, pointer):
    from coordsim.binning import dsbs

    doc = {"model": dsbs(0.1).to_json_dict(), "n_list": [4], "rates": [0.3], "replicates": 2,
           "samples": 10, "out": "bad"} if subcommand == "verify-binning" else {"model": "bundled:bsc"}
    doc.update(over)
    code = cli.main([subcommand, "--config", str(write_config(tmp_path, "bad.json", doc))])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["type"] == "ConfigError"
    assert err["error"].startswith(pointer + ": ")
    assert not (tmp_path / "bad").exists()


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


def test_main_arithmetic_error_is_machine_readable(tmp_path, monkeypatch, capsys):
    def failing_trials(*_args):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setenv("COORDSIM_THREADS", "1")
    monkeypatch.setattr(cli, "run_trials", failing_trials)
    code = cli.main(["simulate", "--config", str(simulate_config(tmp_path))])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "float division by zero", "type": "ZeroDivisionError"}


def test_main_reads_stdin(tmp_path, monkeypatch, capsys):
    import io

    doc = {"model": "bundled:bsc", "params": {"n": 32, "mc_samples": 200}, "out": str(tmp_path / "o")}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert cli.main(["construct", "--config", "-"]) == 0
    assert (tmp_path / "o" / "report.json").exists()
