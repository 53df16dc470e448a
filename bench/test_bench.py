"""Tests of the benchmark's own code: span arithmetic and wrapper lifetime.

    python3 -m pytest bench/test_bench.py
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from byzfc.probability import philox  # noqa: E402
from byzfc.structures import AdversaryStructure  # noqa: E402
from byzfc.viability import check_viability  # noqa: E402


def test_self_time_of_synthetic_tree():
    # root [0,10] -> a [1,3], b [4,9] -> c [5,6], d [6,8]
    tree = [["root", 0.0, 10.0, -1, {}],
            ["a", 1.0, 3.0, 0, {}],
            ["b", 4.0, 9.0, 0, {}],
            ["c", 5.0, 6.0, 2, {}],
            ["d", 6.0, 8.0, 2, {}]]
    assert spans.self_times(tree) == [3.0, 2.0, 2.0, 1.0, 2.0]
    assert spans.nearest_ancestor(tree, {"b"}) == [-1, -1, -1, 2, 2]


def test_layer_metrics_on_synthetic_trace():
    tree = [["bench.measure", 0.0, 10.0, -1, {}],
            ["bench.op", 0.0, 8.0, 0, {}],
            ["viability.check", 0.0, 8.0, 1, {"viable": True}],
            ["structures.collections", 0.0, 1.0, 2, {"n": 4}],
            ["simplex.positive_coordinates", 1.0, 5.0, 2, {"coords": 10, "hits": 6}],
            ["simplex.phase1", 1.0, 4.0, 4, {"cells": 12}]]
    m = spans.layer_metrics(tree)
    assert m["viability.check_self_s"] == (3.0, "s")
    assert m["viability.regions_solved"] == (1, "count")
    assert m["viability.pruned_frac"] == (0.75, "frac")
    assert m["simplex.seed_hit_frac"] == (0.6, "frac")
    assert m["simplex.phase1_share"] == (3.0 / 8.0, "frac")
    assert m["simplex.tableau_cells"] == (12, "count")


def test_reference_units_interpolate_at_midpoints():
    refs = [(0.0, 2.0), (1.0, 4.0), (2.0, 2.0)]
    got = run.in_reference_units([0.4, 1.0, 3.0], [0.2, 1.0, 0.5], refs)
    assert got == pytest.approx([200 / 3, 1000 / 3, 250])


def test_recursive_calls_record_one_span():
    tracer = spans.Tracer()

    def fact(n):
        return 1 if n <= 1 else n * wrapped(n - 1)

    wrapped = tracer.wrap(fact, "fact")
    assert wrapped(5) == 120
    assert [s[spans.NAME] for s in tracer.spans] == ["fact"]


def _bindings():
    return {(owner, attr): owner.__dict__[attr] for owner, attr, _, _ in spans.targets()}


class _Probe(workloads.Workload):
    """Two trivial operations that look at the byzfc bindings while running."""

    name = "probe"

    def setup(self):
        self.seen = []

    def pass_ops(self, i):
        def look():
            self.seen.append({key: spans.is_wrapped(obj) for key, obj in _bindings().items()})
        return [workloads.Op("look", look, lambda _: None)] * 2


def test_untraced_run_installs_no_wrapper():
    before = _bindings()
    probe = _Probe(1, {})
    probe.setup()
    stats = run.measure(probe, 0.0, run._no_span)
    assert stats["attempted"] == 2 and stats["failed"] == 0
    assert probe.seen and not any(any(s.values()) for s in probe.seen)
    assert _bindings() == before


def test_traced_run_removes_every_wrapper():
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install(spans.targets())
    try:
        probe = _Probe(1, {})
        probe.setup()
        run.measure(probe, 0.0, tracer.span)
    finally:
        tracer.uninstall()
    assert probe.seen and all(all(s.values()) for s in probe.seen)
    assert _bindings() == before
    names = [s[spans.NAME] for s in tracer.spans]
    assert names.count("bench.op") == 2 and names[0] == "bench.measure"


def test_install_failure_restores_what_it_patched():
    before = _bindings()
    tracer = spans.Tracer()
    bad = spans.targets() + [(spans, "no_such_function", "x", None)]
    with pytest.raises(KeyError):
        tracer.install(bad)
    assert _bindings() == before


def test_relabel_keeps_the_verdict():
    p, f = workloads.t1_instance(0)
    t21 = AdversaryStructure.threshold(2, 1)
    want = check_viability(p, f, t21).viable
    for s in range(3):
        q, g = workloads.relabel(p, f, philox(s))
        assert q.mass.shape == g.table.shape
        assert check_viability(q, g, t21).viable == want
