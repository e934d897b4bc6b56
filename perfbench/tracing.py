"""Spans around the calls into each coordsim layer, recorded from outside.

:func:`traced` replaces the public functions of the layers (and the
references other coordsim modules hold to them) with wrappers that record
a span (name, start, end, parent, op id) per call, and restores the
originals on exit.  Nothing in ``src/`` is edited.  The spans stay in
memory; :func:`layer_metrics` reduces them to the per-layer numbers and
:meth:`Tracer.write` dumps them as JSON lines.

A successive-cancellation pass is one span from the construction of a
``SuccessiveCancellation`` to its n-th push; its per-bit calls are only
counted, since a span per bit would cost more than the bit.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# the eight probability operations; they are wrapped where other layers
# import them, not at their internal calls to each other
PROBABILITY_OPS = (
    "compose", "condition", "marginalize", "entropy", "conditional_entropy",
    "mutual_information", "total_variation", "kl_divergence",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None


class Tracer:
    """In-memory span recorder with per-name counters; single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []

    def open(self, name: str, start: float | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        start = time.perf_counter() if start is None else start
        self.spans.append(Span(name, start, math.nan, parent, self.op))
        return len(self.spans) - 1

    def close(self, index: int):
        self.spans[index].end = time.perf_counter()

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` inside a span; ``on_result(counts, bound_args, result)``
        records work counts after a successful call."""
        signature = inspect.signature(fn) if on_result else None

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            index = self.open(name)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".exceptions"] += 1
                raise
            finally:
                self._stack.pop()
                self.close(index)
            if on_result is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                on_result(self.counts, bound.arguments, result)
            return result

        return traced_call

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.__dict__) + "\n")


# ---------------------------------------------------------------------------
# work counts taken from arguments and results


def _count_rows(counts, args, _result):
    rows, n = args["leaf_p1"].shape
    counts["polar.true_path_conditionals.rows"] += rows
    counts["polar.true_path_conditionals.leaf_ops"] += rows * n * math.log2(n)


def _count_sampled(counts, args, _result):
    counts["construction.sample_blocks.rows"] += args["count"]
    counts["construction.batch_rows"] = max(counts["construction.batch_rows"], args["count"])


def _count_trial(counts, args, result):
    k = args["k"]
    counts["codec.blocks"] += k
    counts["codec.s_block_errors"] += round(result.s_error_rate * k)
    counts["codec.z_block_errors"] += round(result.w_error_rate * k)
    counts["codec.ok_blocks"] += sum(t.flags["s_ok"] and t.flags["z_ok"] for t in result.transcripts)


def _count_pairs(counts, args, _result):
    counts["binning.extraction_kl.pair_cells"] += args["joint"].table.size ** args["n"]


def _count_decodes(counts, args, _result):
    counts["binning.sw_error_rate.decodes"] += args["samples"]


def _count_restarts(counts, args, _result):
    counts["region.restarts"] += args["restarts"]


def _count_feasible(counts, _args, result):
    counts["region.feasible"] += bool(result.feasible)


# ---------------------------------------------------------------------------
# patching


def _counting_sc(base, tracer: Tracer):
    """A ``SuccessiveCancellation`` that counts its calls and records each
    complete pass as one span."""
    counts = tracer.counts

    class CountingSC(base):
        def __init__(self, leaf_p1):
            start = time.perf_counter()
            super().__init__(leaf_p1)
            counts["polar.SuccessiveCancellation.passes"] += 1
            self._span = tracer.open("polar.SuccessiveCancellation", start)

        def next_probability(self):
            counts["polar.SuccessiveCancellation.queries"] += 1
            return super().next_probability()

        def push(self, bit):
            super().push(bit)
            counts["polar.SuccessiveCancellation.pushes"] += 1
            if self._consumed == self.n:
                tracer.close(self._span)

    return CountingSC


def _replace_everywhere(original, replacement, undo, skip=()):
    """Point every coordsim module-level reference to ``original`` at
    ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("coordsim") or mod_name in skip:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                undo.append((module, attr, value))
                setattr(module, attr, replacement)


def _replace_method(cls, attr, tracer, name, on_result=None, *, undo):
    raw = cls.__dict__[attr]
    undo.append((cls, attr, raw))
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__, on_result)))
    else:
        setattr(cls, attr, tracer.wrap(name, raw, on_result))


@contextmanager
def traced(tracer: Tracer):
    """Install the span wrappers for the duration of the block."""
    from coordsim import binning, cli, codec, construction, polar, probability, region

    functions = [
        (polar.true_path_conditionals, "polar.true_path_conditionals", _count_rows),
        (polar.polar_transform, "polar.polar_transform", None),
        (construction.estimate_profile, "construction.estimate_profile", None),
        (construction.build_index_sets, "construction.build_index_sets", None),
        (construction.divergence_certificate, "construction.divergence_certificate", None),
        (construction.load_index_cache, "construction.index_cache", None),
        (construction.save_index_cache, "construction.index_cache", None),
        (codec.run_end_to_end, "codec.run_end_to_end", _count_trial),
        (codec.encode, "codec.encode", None),
        (codec.decode, "codec.decode", None),
        (codec.transmit, "codec.transmit", None),
        (binning.extraction_kl, "binning.extraction_kl", _count_pairs),
        (binning.sw_error_rate, "binning.sw_error_rate", _count_decodes),
        (binning.verify_lemma_regimes, "binning.verify_lemma_regimes", None),
        (region.search_auxiliary, "region.search_auxiliary", _count_restarts),
        (region.least_squares, "region.least_squares", None),
        (region.evaluate, "region.evaluate", _count_feasible),
        (region.binning_rate_ledger, "region.binning_rate_ledger", None),
        (cli.parse_config, "cli.parse_config", None),
        (cli.run, "cli.run", None),
    ]
    undo: list = []
    try:
        for fn, name, on_result in functions:
            _replace_everywhere(fn, tracer.wrap(name, fn, on_result), undo)
        for op in PROBABILITY_OPS:
            fn = getattr(probability, op)
            _replace_everywhere(fn, tracer.wrap("probability." + op, fn), undo,
                                skip=("coordsim.probability",))
        _replace_everywhere(polar.SuccessiveCancellation,
                            _counting_sc(polar.SuccessiveCancellation, tracer), undo)
        _replace_method(construction.SourceModel, "sample_blocks", tracer,
                        "construction.sample_blocks", _count_sampled, undo=undo)
        _replace_method(codec.CommonRandomness, "draw", tracer, "codec.CommonRandomness.draw",
                        undo=undo)
        _replace_method(binning.RandomBinning, "draw", tracer, "binning.RandomBinning.draw",
                        undo=undo)
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# reduction to per-layer metrics


def _times(spans: list[Span]):
    """Total and self seconds per span name.  Self time is a span's
    duration minus the durations of its child spans."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None and not math.isnan(span.end):
            child[span.parent] += span.end - span.start
    total, self_s = defaultdict(float), defaultdict(float)
    for i, span in enumerate(spans):
        if math.isnan(span.end):  # an SC pass that never reached its last bit
            continue
        total[span.name] += span.end - span.start
        self_s[span.name] += span.end - span.start - child[i]
    return total, self_s


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer numbers, averaged over ``ops`` traced ops: name -> (value, unit)."""
    total, self_s = _times(tracer.spans)
    c = tracer.counts
    per_op = lambda v: v / ops  # noqa: E731
    m: dict[str, tuple[float, str]] = {}

    def count(name, key=None):
        m[name] = (per_op(c[key or name]), "count/op")

    def secs(name, table, key):
        m[name] = (per_op(table[key]), "s/op")

    tpc = "polar.true_path_conditionals"
    count(tpc + ".calls")
    count(tpc + ".rows")
    secs(tpc + ".self_s", self_s, tpc)
    m[tpc + ".ns_per_leaf_op"] = (_ratio(self_s[tpc], c[tpc + ".leaf_ops"], 1e9), "ns")
    sc = "polar.SuccessiveCancellation"
    for what in ("passes", "queries", "pushes"):
        count(f"{sc}.{what}")
    secs(sc + ".self_s", self_s, sc)
    m[sc + ".ms_per_pass"] = (_ratio(total[sc], c[sc + ".passes"], 1e3), "ms")
    count("polar.polar_transform.calls")
    secs("polar.polar_transform.self_s", self_s, "polar.polar_transform")

    secs("construction.estimate_profile.total_s", total, "construction.estimate_profile")
    secs("construction.estimate_profile.self_s", self_s, "construction.estimate_profile")
    count("construction.sample_blocks.rows")
    secs("construction.sample_blocks.self_s", self_s, "construction.sample_blocks")
    m["construction.batch_rows"] = (float(c["construction.batch_rows"]), "rows")  # largest batch
    for fn in ("build_index_sets", "divergence_certificate", "index_cache"):
        secs(f"construction.{fn}.total_s", total, f"construction.{fn}")

    secs("codec.run_end_to_end.total_s", total, "codec.run_end_to_end")
    secs("codec.run_end_to_end.self_s", self_s, "codec.run_end_to_end")
    secs("codec.encode.self_s", self_s, "codec.encode")
    secs("codec.decode.self_s", self_s, "codec.decode")
    secs("codec.transmit.total_s", total, "codec.transmit")
    secs("codec.CommonRandomness.draw.total_s", total, "codec.CommonRandomness.draw")
    for name in ("codec.blocks", "codec.s_block_errors", "codec.z_block_errors"):
        count(name)
    count("codec.trial_exceptions", "codec.run_end_to_end.exceptions")
    m["codec.block_success_ratio"] = (_ratio(c["codec.ok_blocks"], c["codec.blocks"]), "ratio")

    kl = "binning.extraction_kl"
    count(kl + ".calls")
    secs(kl + ".total_s", total, kl)
    m[kl + ".ms_per_call"] = (_ratio(total[kl], c[kl + ".calls"], 1e3), "ms")
    count(kl + ".pair_cells")
    sw = "binning.sw_error_rate"
    count(sw + ".calls")
    secs(sw + ".total_s", total, sw)
    count(sw + ".decodes")
    secs("binning.RandomBinning.draw.self_s", self_s, "binning.RandomBinning.draw")
    secs("binning.verify_lemma_regimes.self_s", self_s, "binning.verify_lemma_regimes")

    sa = "region.search_auxiliary"
    count(sa + ".calls")
    secs(sa + ".total_s", total, sa)
    secs(sa + ".self_s", self_s, sa)
    count("region.restarts")
    m["region.restart_ms"] = (_ratio(total[sa], c["region.restarts"], 1e3), "ms")
    secs("region.least_squares.total_s", total, "region.least_squares")
    count("region.evaluate.calls")
    secs("region.evaluate.total_s", total, "region.evaluate")
    m["region.feasible_ratio"] = (_ratio(c["region.feasible"], c["region.evaluate.calls"]), "ratio")
    secs("region.binning_rate_ledger.total_s", total, "region.binning_rate_ledger")

    m["probability.calls"] = (
        per_op(sum(c[f"probability.{op}.calls"] for op in PROBABILITY_OPS)), "count/op")
    m["probability.total_s"] = (
        per_op(sum(total[f"probability.{op}"] for op in PROBABILITY_OPS)), "s/op")

    secs("cli.run.total_s", total, "cli.run")
    m["cli.self_s"] = (per_op(self_s["cli.parse_config"] + self_s["cli.run"]), "s/op")
    return m
