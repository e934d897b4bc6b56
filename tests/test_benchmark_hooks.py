"""The benchmark's hooks into the package.

``perfbench/`` patches and imports names from ``src/`` by string, outside
the package.  These smoke tests load its modules read-only, so that a
rename or deletion in ``src/`` fails here instead of breaking
``perfbench/run.py --trace 1``.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from coordsim import cli, codec, construction
from coordsim.binning import RandomBinning
from coordsim.bundled import chained_model
from coordsim.codec import CommonRandomness
from coordsim.construction import PolarParams, PolarizedEntropyProfile, SourceModel, load_index_cache
from coordsim.polar import CHUNK_ROWS, polar_transform, true_path_conditionals

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def coordsim_references():
    """Every module-level name of the coordsim modules, and the attributes
    of the classes whose methods the tracer replaces."""
    refs = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("coordsim"):
            refs.update({(mod_name, attr): value for attr, value in vars(module).items()})
    for cls in (SourceModel, CommonRandomness, RandomBinning):
        refs.update({(cls.__qualname__, attr): value for attr, value in vars(cls).items()})
    return refs


def test_tracer_patches_existing_names_and_restores_them():
    tracing = load("tracing")
    before = coordsim_references()
    tracer = tracing.Tracer()
    with tracing.traced(tracer):  # a name it patches that is gone raises here
        during = coordsim_references()
        codec.transmit(np.zeros(4, np.uint8), chained_model().channel, np.random.default_rng(0))
    after = coordsim_references()

    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    patched = {key for key in before if during[key] is not before[key]}
    for key in [
        ("coordsim.polar", "SuccessiveCancellation"),
        ("coordsim.polar", "true_path_conditionals"),
        ("coordsim.codec", "run_end_to_end"),
        ("coordsim.codec", "encode"),
        ("coordsim.codec", "decode"),
        ("coordsim.codec", "transmit"),
        ("coordsim.construction", "estimate_profile"),
        ("coordsim.binning", "extraction_kl"),
        ("coordsim.region", "search_auxiliary"),
        ("coordsim.region", "least_squares"),
        ("coordsim.cli", "run"),
        ("SourceModel", "sample_blocks"),
        ("CommonRandomness", "draw"),
        ("RandomBinning", "draw"),
    ]:
        assert key in patched, key
    assert tracer.counts["codec.transmit.calls"] == 1


def test_benchmark_names_resolve():
    workloads = load("workloads")
    load("run")
    entropies = workloads._single_letter_entropies()  # single_letter_joint and the entropies
    assert set(entropies) == set(PolarizedEntropyProfile.FAMILIES)

    # the batch sweep of run.py, at a small size
    model = chained_model()
    blocks = model.sample_blocks(np.random.default_rng(0), 4, 16)
    evidence = model.x_posterior_given_y()[blocks["y"]]
    assert true_path_conditionals(evidence, polar_transform(blocks["x"])).shape == (4, 16)

    # the index sets the simulate workload reads
    assert load_index_cache(workloads.SETS_CACHE).n == 1024

    # every workload's config parses and names a model the CLI loads
    for name, workload in workloads.WORKLOADS.items():
        cfg = cli.parse_config(name, workload.config(0, Path("out")), PERFBENCH.parent)
        if name == "region":
            cli._target(cfg)
        elif name != "verify-binning":
            cli._source_model(cfg)


def test_construct_op_passes_its_benchmark_check(tmp_path):
    # one construct op from the workload's own config, checked as the
    # benchmark checks it
    workloads = load("workloads")
    workload = workloads.WORKLOADS["construct"]
    report = cli.run("construct", cli.parse_config("construct", workload.config(0, tmp_path), PERFBENCH.parent))
    workloads._check_construct(report)
    assert workload.work(report) == workloads.CONSTRUCT_ROWS == 2048


def test_profile_counts_read_the_code_that_runs():
    # the tracer's construct counters on one profile run on chained: the
    # trees are built from the sampled codewords, so no polar_transform
    # call, and one sample_blocks call per chunk draws every row
    tracing = load("tracing")
    tracer = tracing.Tracer()
    rows = 2 * CHUNK_ROWS + 5
    with tracing.traced(tracer):
        construction.estimate_profile(chained_model(), PolarParams(n=64, mc_samples=rows), np.random.default_rng(0))
    assert tracer.counts["construction.estimate_profile.calls"] == 1
    assert tracer.counts["polar.polar_transform.calls"] == 0
    assert tracer.counts["construction.sample_blocks.calls"] == 3
    assert tracer.counts["construction.sample_blocks.rows"] == rows
