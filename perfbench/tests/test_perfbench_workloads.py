import contextlib
import io
import json
from pathlib import Path

import pytest

import instrument
import workloads
from fluctlab import cli
from helper import prepare_inputs
from spans import Tracer

SIZE_FLAGS = {"--scan-x", "--scan-p", "--count", "--steps", "--n-max", "--grid", "--eigenstate"}
BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _sizes(plan):
    sizes = []
    for command in plan.commands:
        argv = command.argv
        sizes.append((command.id, [(a, argv[i + 1]) for i, a in enumerate(argv) if a in SIZE_FLAGS]))
        if "--temperatures" in argv:
            sizes.append(("temperatures", len(argv[argv.index("--temperatures") + 1].split(","))))
    return sizes


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_changes_parameters_not_sizes(workload):
    first, second = workloads.plan(workload, 1, "w"), workloads.plan(workload, 2, "w")
    assert first.params != second.params
    assert [c.argv for c in first.commands] != [c.argv for c in second.commands]
    assert _sizes(first) == _sizes(second)
    assert (first.work_items, first.largest_array) == (second.work_items, second.largest_array)
    assert workloads.plan(workload, 1, "w") == first


def _traced_counts(workload, seed, tmp_path):
    tmp_path.mkdir(exist_ok=True)
    plan = workloads.plan(workload, seed, str(tmp_path))
    prepare_inputs(plan.inputs)
    tracer = Tracer()
    with instrument.instrumented(tracer), contextlib.redirect_stdout(io.StringIO()):
        for command in plan.commands:
            assert cli.run(list(command.argv)) == 0
    metrics = instrument.pass_metrics(tracer)
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}, metrics


@pytest.mark.parametrize("workload", ["state_files", "sweep_compute"])
def test_seed_keeps_per_layer_counts(workload, tmp_path):
    first, metrics = _traced_counts(workload, 1, tmp_path / "a")
    second, _ = _traced_counts(workload, 2, tmp_path / "b")
    differing = {k for k in first if first[k] != second[k]}
    # file sizes follow the printed digits of seeded values; everything else is a work count
    assert differing <= {"io.bytes_written", "io.bytes_read"}
    declared = {m["name"] for m in BENCHMARK["per_layer"]} - {"import.self_s", "trace.overhead_s"}
    assert declared <= set(metrics)


def test_state_files_parses_each_file_twice(tmp_path):
    counts, _ = _traced_counts("state_files", 5, tmp_path)
    assert counts["io.json_parses_per_load"] == 2.0
    assert counts["states.pure_states_built"] == counts["states.distinct_states"]
