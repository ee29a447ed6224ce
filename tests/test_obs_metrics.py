"""Unit tests for the repro.obs metrics registry."""

import pytest

from repro.obs.metrics import Instrument, MetricsRegistry


@pytest.fixture
def reg():
    return MetricsRegistry()


class TestInstruments:
    def test_counter_get_or_create(self, reg):
        c = reg.counter("rpc.served", node="cn0")
        c.inc()
        c.inc(4)
        assert reg.counter("rpc.served", node="cn0") is c
        assert c.value == 5

    def test_label_order_is_canonical(self, reg):
        a = reg.counter("x", b="2", a="1")
        b = reg.counter("x", a="1", b="2")
        assert a is b
        assert a.label_str == "a=1,b=2"

    def test_distinct_labels_distinct_instruments(self, reg):
        a = reg.counter("urd.tasks", node="cn0")
        b = reg.counter("urd.tasks", node="cn1")
        assert a is not b
        assert len(reg) == 2

    def test_kind_mismatch_raises(self, reg):
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_gauge_set(self, reg):
        g = reg.gauge("replay.makespan_seconds")
        g.set(123.5)
        assert g.value == 123.5

    def test_histogram_observe_and_snapshot(self, reg):
        h = reg.histogram("latency")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["kind"] == "histogram"
        assert snap["count"] == 4
        assert snap["summary"]["mean"] == pytest.approx(2.5)

    def test_empty_histogram_snapshot_has_no_summary(self, reg):
        snap = reg.histogram("latency").snapshot()
        assert snap["count"] == 0
        assert "summary" not in snap

    def test_info_records_string(self, reg):
        reg.info("kernel.impl", "fast")
        snap = reg.snapshot()
        assert snap == [{"name": "kernel.impl", "kind": "info",
                         "labels": {}, "value": "fast"}]


class TestRegistryExport:
    def test_snapshot_sorted_by_name_then_labels(self, reg):
        reg.counter("b.metric")
        reg.counter("a.metric", node="cn1")
        reg.counter("a.metric", node="cn0")
        names = [(r["name"], r["labels"]) for r in reg.snapshot()]
        assert names == [("a.metric", {"node": "cn0"}),
                         ("a.metric", {"node": "cn1"}),
                         ("b.metric", {})]

    def test_rows_prefix_filter(self, reg):
        reg.gauge("kernel.events").set(100)
        reg.counter("sched.passes").inc(7)
        rows = reg.rows(prefix="kernel.")
        assert rows == [("kernel.events", 100)]

    def test_total_sums_label_sets(self, reg):
        reg.counter("urd.tasks", node="cn0").inc(3)
        reg.counter("urd.tasks", node="cn1").inc(4)
        reg.counter("urd.tasks_lost", node="cn0").inc(9)
        assert reg.total("urd.tasks") == 7

    def test_total_of_absent_name_is_zero(self, reg):
        assert reg.total("urd.tasks") == 0
        assert len(reg) == 0       # reading creates nothing

    def test_rows_render_labels_and_histograms(self, reg):
        reg.counter("urd.tasks", node="cn0").inc(3)
        h = reg.histogram("lat")
        h.observe(1.0)
        h.observe(3.0)
        rows = dict(reg.rows())
        assert rows["urd.tasks{node=cn0}"] == 3
        assert rows["lat.count"] == 2
        assert rows["lat.mean"] == pytest.approx(2.0)
        assert "lat.p95" in rows


class TestCollectors:
    def test_collect_kernel_stats_dict(self, reg):
        from repro.obs.collect import collect_kernel_stats
        collect_kernel_stats(reg, {"kernel": "fast", "events": 42,
                                   "pending": 3})
        rows = dict(reg.rows(prefix="kernel."))
        assert rows["kernel.impl"] == "fast"
        assert rows["kernel.events"] == 42
        assert rows["kernel.pending"] == 3

    def test_collect_cluster_covers_subsystems(self):
        from repro.cluster import build, small_test
        from repro.obs import MetricsRegistry, collect_cluster

        handle = build(small_test(n_nodes=2), seed=1)
        reg = collect_cluster(MetricsRegistry(), handle)
        names = {inst.name for inst in reg}
        assert "kernel.impl" in names
        assert "sched.passes" in names
        assert "urd.tasks_completed" in names
        assert "flow.completed" in names

    def test_kernel_stats_round_trip(self, reg):
        from repro.obs.collect import collect_kernel_stats, kernel_stats
        stats = {"kernel": "fast", "events": 42, "pending": 3}
        collect_kernel_stats(reg, stats)
        assert kernel_stats(reg) == stats

    def test_breaker_totals_match_breakers_on_chaos_replay(self):
        from repro.cluster import build, small_test
        from repro.faults import fault_profile
        from repro.traces import (
            ReplayConfig, SynthesisConfig, TraceReplayer, synthesize,
        )
        trace = synthesize(SynthesisConfig(n_jobs=40, mean_interarrival=5.0),
                           seed=0)
        handle = build(small_test(), seed=0)
        plan = fault_profile("chaos", horizon=max(300.0, trace.duration),
                             nodes=handle.node_names, seed=0)
        report = TraceReplayer(handle, trace, ReplayConfig(
            time_compression=4.0, fault_plan=plan)).run()
        breakers = [br for name in handle.node_names
                    for br in handle.nodes[name].urd.resilience
                    .breakers().values()]
        reg = report.registry
        for field in ("opens", "half_opens", "closes"):
            assert reg.total(f"resilience.breaker_{field}") == \
                sum(getattr(br, field) for br in breakers)
        assert reg.total("resilience.breaker_opens") > 0

    def test_slurmd_busy_retries_sum_over_nodes(self):
        from repro.obs import MetricsRegistry, collect_cluster
        from tests.conftest import stage_in_through_urd_restart
        handle, _job = stage_in_through_urd_restart()
        reg = collect_cluster(MetricsRegistry(), handle)
        per_node = [handle.nodes[name].slurmd.busy_retries
                    for name in handle.node_names]
        assert reg.total("slurmd.busy_retries") == sum(per_node) > 0
