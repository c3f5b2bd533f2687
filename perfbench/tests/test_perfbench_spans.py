import itertools

import pytest

import spans
from spans import Tracer, self_times, totals


def test_self_time_subtracts_direct_children_only():
    recorded = [
        ("cli.run", 0.0, 10.0, -1, "c0"),
        ("io.load", 1.0, 4.0, 0, "c0"),
        ("json", 2.0, 3.0, 1, "c0"),     # grandchild: charged to io.load, not cli.run
        ("states.build", 5.0, 9.0, 0, "c0"),
    ]
    assert self_times(recorded) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_overlapping_children_are_covered_once():
    recorded = [
        ("parent", 0.0, 10.0, -1, "c0"),
        ("a", 1.0, 4.0, 0, "c0"),
        ("b", 3.0, 6.0, 0, "c0"),
        ("c", 6.5, 7.0, 0, "c0"),
    ]
    assert self_times(recorded)[0] == pytest.approx(10.0 - 5.0 - 0.5)


def test_totals_sum_calls_and_self_time_per_name():
    recorded = [
        ("outer", 0.0, 6.0, -1, "c0"),
        ("inner", 1.0, 2.0, 0, "c0"),
        ("inner", 3.0, 5.0, 0, "c0"),
    ]
    assert totals(recorded) == {"outer": (1, pytest.approx(3.0)), "inner": (2, pytest.approx(3.0))}


def test_tracer_records_parents_command_ids_and_counts(monkeypatch):
    clock = itertools.count()
    monkeypatch.setattr(spans.time, "perf_counter", lambda: float(next(clock)))
    tracer = Tracer()
    leaf = tracer.wrap("layer.leaf", lambda x: x + 1,
                       after=lambda args, kwargs, result: tracer.counts.update(leaf_cells=result))
    root = tracer.wrap("layer.root", lambda x: leaf(leaf(x)))
    tracer.command_id = "0:cmd"
    assert root(1) == 3
    names = [s[0] for s in tracer.spans]
    assert names == ["layer.root", "layer.leaf", "layer.leaf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert {s[4] for s in tracer.spans} == {"0:cmd"}
    # clock ticks: root 0..5, leaves 1..2 and 3..4
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]
    assert tracer.counts["leaf_cells"] == 5
    assert tracer.names == {"layer.root", "layer.leaf"}


def test_span_closes_when_the_wrapped_function_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("layer.boom", boom)()
    name, start, end, parent, _ = tracer.spans[0]
    assert name == "layer.boom" and end >= start and parent == -1
    assert not tracer.in_span("layer.boom")
