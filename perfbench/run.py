#!/usr/bin/env python3
"""coordsim benchmark: one workload, one closed-loop client, one op in flight.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 18 --trace 0

An op is one ``coordsim`` CLI run (``coordsim.cli.parse_config`` +
``coordsim.cli.run``) on a config made from the workload seed; see
``workloads.py``.  Every op's report is checked, and an op whose check fails
or that raises counts as failed without stopping the run.  The workload
runs single-threaded (COORDSIM_THREADS=1 and one BLAS thread).

``--trace 0`` reports the end-to-end metrics:

* setup_s -- the median of three set-ups, this process's and two fresh
  interpreters', each timed from the start of this file to the end of the
  workload's first op: imports, model and index-set loading, and one warm-up
  op (the same op in all three);
* op_time_rel -- the run's op wall time over the wall time of a fixed
  reference job (``reference.py``, in a process of its own: Python, in-cache
  and out-of-cache numpy work, no coordsim) run just before each op: the op
  time in units of the reference;
* peak_rss_mb -- peak resident memory of this process.

The op time is gated relative to the reference because a small shared
host's speed drifts, for seconds to minutes at a time, by up to 2x: the
seconds a run reports move with the drift, while an op and the reference
timed just before it slow down together.  Nothing the program does changes
the reference, so a slower op still shows in full.  The op times in seconds
(median, fastest and the tail), the reference's median and the work rate
(units of work over the timed op wall time) are reported beside the result,
ungated.

``--trace 1`` alternates untraced and traced ops, reports the per-layer
numbers of ``tracing.py`` per traced op, the tracing overhead (untraced over
traced work_per_s), and the ``true_path_conditionals`` batch-size sweep.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The environment, every op's
time and failure, the op tail, and (with ``--trace 1``) the spans are
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

STARTED = time.perf_counter()  # set-up is timed from here, here and in each probe
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SINGLE_THREAD_ENV = {
    "COORDSIM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_PROBES = 2
PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import time, run; from workloads import WORKLOADS; "
    "run.Runner(WORKLOADS[sys.argv[3]], int(sys.argv[4])).op('warmup'); "
    "print(time.perf_counter() - run.STARTED)"
)
SWEEP_ROWS, SWEEP_N, SWEEP_BATCHES = 2048, 1024, (32, 512, 2048)


def _parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter that runs the warm-up op of a run
    with this seed.  The probe prints it itself: timing the wait for its
    exit would round up to the 50 ms poll of a wait with a timeout."""
    done = subprocess.run([sys.executable, "-c", PROBE, str(SRC), str(HERE), workload, str(seed)],
                          check=True, cwd=ROOT, timeout=120, capture_output=True, text=True)
    return float(done.stdout.split()[-1])


class Runner:
    """Runs ops of one workload and keeps a record of each."""

    def __init__(self, workload, seed: int):
        from coordsim import cli

        self.cli = cli
        self.workload = workload
        self.seeds = random.Random(seed)
        self.out = OUT / "work" / workload.name
        self.ops: list[dict] = []

    def op(self, phase: str) -> dict:
        seed = self.seeds.randrange(2**31)
        record = {"phase": phase, "seed": seed, "work": 0.0, "error": None}
        doc = self.workload.config(seed, self.out)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):  # the CLI's summary lines
                cfg = self.cli.parse_config(self.workload.name, doc, ROOT)
                report = self.cli.run(self.workload.name, cfg)
        except Exception:
            report = None
            record["error"] = traceback.format_exc(limit=3)
        record["seconds"] = time.perf_counter() - start
        if report is not None:
            try:
                self.workload.check(report)
                record["work"] = self.workload.work(report)
            except Exception as err:  # a malformed report fails its check too
                record["error"] = f"{type(err).__name__}: {err}"
            record["report_bytes"] = (self.out / "report.json").stat().st_size
        self.ops.append(record)
        return record

    def loop(self, seconds: float, step) -> None:
        """Closed loop: call ``step`` (which runs one or more ops) at least
        once, then again only while it is expected, at the median step time
        so far, to end within ``seconds``."""
        took = []
        start = time.perf_counter()
        while not took or time.perf_counter() - start + statistics.median(took) <= seconds:
            began = time.perf_counter()
            step()
            took.append(time.perf_counter() - began)


def _work_per_s(ops: list[dict]) -> float:
    return sum(o["work"] for o in ops) / sum(o["seconds"] for o in ops)


def _tail(ops: list[dict]) -> dict:
    """The highest percentile with at least ten op times above it."""
    times = sorted(o["seconds"] for o in ops)
    n = len(times)
    if n <= 10:
        return {"samples": n, "percentile": None, "seconds": None}
    return {"samples": n, "percentile": 100.0 * (n - 10) / n, "seconds": times[n - 11]}


def _batch_sweep(seed: int) -> dict[str, tuple[float, str]]:
    """Microseconds per row of ``true_path_conditionals`` on one fixed set
    of rows (signal chain given the channel output), by batch size."""
    import numpy as np
    from coordsim.bundled import chained_model
    from coordsim.polar import polar_transform, true_path_conditionals

    model = chained_model()
    blocks = model.sample_blocks(np.random.default_rng(seed), SWEEP_ROWS, SWEEP_N)
    evidence = model.x_posterior_given_y()[blocks["y"]]
    bits = polar_transform(blocks["x"])
    out = {}
    for batch in SWEEP_BATCHES:
        start = time.perf_counter()
        for lo in range(0, SWEEP_ROWS, batch):
            true_path_conditionals(evidence[lo:lo + batch], bits[lo:lo + batch])
        out[f"polar.true_path_conditionals.us_per_row.b{batch}"] = (
            1e6 * (time.perf_counter() - start) / SWEEP_ROWS, "us")
    return out


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_hash() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def _environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in SINGLE_THREAD_ENV},
        "git": _git_hash(),
        "source_sha256": _source_digest(),
    }


def _traced_run(runner: Runner, args) -> dict[str, tuple[float, str]]:
    """Alternate untraced and traced ops, so that both see the same machine
    load, and reduce the traced ones to per-layer numbers."""
    from tracing import Tracer, layer_metrics, traced

    tracer = Tracer()
    untraced, with_spans = [], []

    def pair():
        untraced.append(runner.op("untraced"))
        tracer.op = len(runner.ops)
        with traced(tracer):
            with_spans.append(runner.op("traced"))

    runner.loop(args.seconds, pair)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    metrics = layer_metrics(tracer, len(with_spans))
    metrics["cli.report_bytes"] = (
        statistics.fmean(o.get("report_bytes", 0) for o in with_spans), "bytes")
    metrics.update(_batch_sweep(args.seed))
    plain, traced_rate = _work_per_s(untraced), _work_per_s(with_spans)
    metrics["trace.ops"] = (float(len(with_spans)), "count")
    metrics["trace.untraced_work_per_s"] = (plain, "work/s")
    metrics["trace.traced_work_per_s"] = (traced_rate, "work/s")
    metrics["trace.overhead_ratio"] = (plain / traced_rate if traced_rate else 0.0, "ratio")
    return metrics


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = _parse_args(argv)
    if not (SRC / "coordsim" / "__init__.py").is_file():
        sys.stderr.write(f"coordsim sources not found under {SRC}; run from a full checkout\n")
        return 2
    os.environ.update(SINGLE_THREAD_ENV)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)

    runner = Runner(workload, args.seed)
    runner.op("warmup")
    setups = [time.perf_counter() - STARTED]
    if not args.trace:
        setups += [_probe_setup(workload.name, args.seed) for _ in range(SETUP_PROBES)]
    ungated = {}
    if args.trace:
        metrics = _traced_run(runner, args)
    else:
        timed = []
        # stdin and stdout are closed and the process waited for on every way out
        with subprocess.Popen([sys.executable, str(HERE / "reference.py")], cwd=ROOT,
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as ref:

            def reference() -> float:
                ref.stdin.write("\n")
                ref.stdin.flush()
                return float(ref.stdout.readline())

            reference()  # warm-up

            def step():
                ref_seconds = reference()
                timed.append(runner.op("timed"))
                timed[-1]["ref_seconds"] = ref_seconds

            runner.loop(args.seconds, step)
        scored = [o for o in timed if o["error"] is None] or timed
        op_times = [o["seconds"] for o in scored]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "op_time_rel": (sum(op_times) / sum(o["ref_seconds"] for o in scored), "ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        ungated = {"op_p50_s": statistics.median(op_times), "op_min_s": min(op_times),
                   "ref_p50_s": statistics.median(o["ref_seconds"] for o in timed),
                   "work_per_s": _work_per_s(timed)}

    failed = sum(o["error"] is not None for o in runner.ops)
    ungated["op_tail"] = _tail([o for o in runner.ops if o["phase"] in ("timed", "untraced")])
    result = {
        "correct": failed == 0,
        "attempted": len(runner.ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    env = _environment(args)
    detail = {"environment": env, "unit_of_work": workload.unit, "setups_s": setups,
              "ungated": ungated, "ops": runner.ops, "result": result}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, indent=1))
    for record in runner.ops:
        if record["error"] is not None:
            print(f"failed op (seed {record['seed']}): {record['error']}", file=sys.stderr)
    print(json.dumps({"environment": env, "ungated": ungated}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
