"""Tests for the Mercury-style RPC engine and NA plugins."""

import pytest

from repro.errors import AddressLookupError, NetworkError, RpcTimeout
from repro.net import Fabric, MercuryNetwork, available_plugins, get_plugin
from repro.net.na import NAPlugin
from repro.sim import Simulator
from repro.util import GiB, MiB


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def net(sim):
    fabric = Fabric(sim, core_bandwidth=100 * GiB, base_latency=1e-6)
    for name in ("alpha", "beta", "gamma"):
        fabric.add_node(name, nic_bandwidth=12 * GiB)
    return MercuryNetwork(sim, fabric, plugin="ofi+tcp")


class TestPlugins:
    def test_builtin_plugins_present(self):
        names = available_plugins()
        for expected in ("ofi+tcp", "ofi+verbs", "ofi+psm2", "na+sm"):
            assert expected in names

    def test_unknown_plugin_raises(self):
        with pytest.raises(NetworkError):
            get_plugin("na+carrier-pigeon")

    def test_directional_caps_default_to_stream_cap(self):
        p = NAPlugin("x", stream_rate_cap=100.0, rpc_service_time=0,
                     message_latency=0)
        assert p.pull_cap == 100.0 and p.push_cap == 100.0

    def test_invalid_plugin_params(self):
        with pytest.raises(NetworkError):
            NAPlugin("bad", stream_rate_cap=-1, rpc_service_time=0,
                     message_latency=0)
        with pytest.raises(NetworkError):
            NAPlugin("bad", stream_rate_cap=None, rpc_service_time=-1,
                     message_latency=0)


class TestRpc:
    def test_rpc_roundtrip(self, sim, net):
        server = net.endpoint("alpha")
        client = net.endpoint("beta")
        server.register("echo", lambda payload, origin: b"re:" + payload)

        def run():
            resp = yield client.call("alpha", "echo", b"hello")
            return resp

        assert sim.run(sim.process(run())) == b"re:hello"

    def test_generator_handler(self, sim, net):
        server = net.endpoint("alpha")
        client = net.endpoint("beta")

        def slow_handler(payload, origin):
            yield sim.timeout(0.5)
            return payload.upper()

        server.register("work", slow_handler)

        def run():
            return (yield client.call("alpha", "work", b"abc"))

        assert sim.run(sim.process(run())) == b"ABC"
        assert sim.now > 0.5

    def test_handler_exception_propagates(self, sim, net):
        server = net.endpoint("alpha")
        client = net.endpoint("beta")

        def bad(payload, origin):
            raise ValueError("handler exploded")

        server.register("bad", bad)

        def run():
            try:
                yield client.call("alpha", "bad")
            except ValueError as e:
                return str(e)

        assert sim.run(sim.process(run())) == "handler exploded"

    def test_unknown_rpc_fails(self, sim, net):
        net.endpoint("alpha")
        client = net.endpoint("beta")

        def run():
            try:
                yield client.call("alpha", "missing")
            except NetworkError:
                return "no-handler"

        assert sim.run(sim.process(run())) == "no-handler"

    def test_unknown_target_fails_immediately(self, sim, net):
        client = net.endpoint("beta")

        def run():
            try:
                yield client.call("ghost", "echo")
            except AddressLookupError:
                return "lookup-failed"

        assert sim.run(sim.process(run())) == "lookup-failed"

    def test_rpc_timeout(self, sim, net):
        server = net.endpoint("alpha")
        client = net.endpoint("beta")

        def stuck(payload, origin):
            yield sim.timeout(100)
            return b""

        server.register("stuck", stuck)

        def run():
            try:
                yield client.call("alpha", "stuck", timeout=1.0)
            except RpcTimeout:
                return sim.now

        assert sim.run(sim.process(run())) == pytest.approx(1.0)

    def test_duplicate_handler_rejected(self, net):
        ep = net.endpoint("alpha")
        ep.register("x", lambda p, o: p)
        with pytest.raises(NetworkError):
            ep.register("x", lambda p, o: p)

    def test_progress_loop_serializes_service_time(self, sim, net):
        # 10 concurrent RPCs through one progress thread: total time is
        # >= 10 * rpc_service_time. This is the Fig. 5 bottleneck.
        server = net.endpoint("alpha")
        client = net.endpoint("beta")
        server.register("noop", lambda p, o: b"")
        done_times = []

        def one():
            yield client.call("alpha", "noop")
            done_times.append(sim.now)

        procs = [sim.process(one()) for _ in range(10)]
        for p in procs:
            sim.run(p)
        service = net.plugin.rpc_service_time
        assert max(done_times) >= 10 * service

    def test_rpcs_served_counter(self, sim, net):
        server = net.endpoint("alpha")
        client = net.endpoint("beta")
        server.register("noop", lambda p, o: b"")

        def run():
            for _ in range(5):
                yield client.call("alpha", "noop")

        sim.run(sim.process(run()))
        assert server.rpcs_served == 5


class TestBulk:
    def test_bulk_pull_obeys_stream_cap(self, sim, net):
        net.endpoint("alpha")
        target = net.endpoint("beta")

        def run():
            yield target.bulk_pull("alpha", 1.70 * GiB)
            return sim.now

        elapsed = sim.run(sim.process(run()))
        assert elapsed == pytest.approx(1.0, rel=1e-3)

    def test_concurrent_pulls_same_pair_share_connection(self, sim, net):
        # 16 in-flight pulls between one pair still move at ~1.7 GiB/s
        # total — the Fig. 6 "per-client bandwidth is stable" behaviour.
        net.endpoint("alpha")
        target = net.endpoint("beta")

        def run():
            evs = [target.bulk_pull("alpha", 0.17 * GiB) for _ in range(16)]
            for ev in evs:
                yield ev
            return sim.now

        elapsed = sim.run(sim.process(run()))
        # 16 * 0.17 GiB / 1.70 GiB/s = 1.6 s.
        assert elapsed == pytest.approx(1.6, rel=1e-2)

    def test_pulls_from_distinct_clients_aggregate(self, sim, net):
        # Different (src,dst) pairs get their own connections: aggregate
        # scales linearly while NIC capacity lasts.
        net.endpoint("alpha")
        net.endpoint("gamma")
        beta = net.endpoint("beta")

        def run():
            e1 = beta.bulk_pull("alpha", 1.70 * GiB)
            e2 = beta.bulk_pull("gamma", 1.70 * GiB)
            yield e1
            yield e2
            return sim.now

        elapsed = sim.run(sim.process(run()))
        assert elapsed == pytest.approx(1.0, rel=1e-2)

    def test_push_uses_push_cap(self, sim, net):
        src = net.endpoint("alpha")
        net.endpoint("beta")

        def run():
            yield src.bulk_push("beta", 1.82 * GiB)
            return sim.now

        elapsed = sim.run(sim.process(run()))
        assert elapsed == pytest.approx(1.0, rel=1e-3)

    def test_connection_cap_is_per_caller_not_first_caller(self, sim, net):
        # A pull into beta and a push out of alpha travel the same
        # ordered pair alpha->beta with different protocol caps, and an
        # explicit rate_cap= overrides both: none may inherit the cap
        # of whoever used the pair first.
        alpha = net.endpoint("alpha")
        beta = net.endpoint("beta")

        def run():
            laps = []
            for start in (
                    lambda: beta.bulk_pull("alpha", 1.70 * GiB),
                    lambda: alpha.bulk_push("beta", 1.82 * GiB),
                    lambda: beta.bulk_pull("alpha", 0.5 * GiB,
                                           rate_cap=0.5 * GiB),
                    lambda: beta.bulk_pull("alpha", 1.70 * GiB)):
                t0 = sim.now
                yield start()
                laps.append(sim.now - t0)
            return laps

        laps = sim.run(sim.process(run()))
        assert laps == pytest.approx([1.0] * 4, rel=1e-3)
        assert net.connection("alpha", "beta", 0.5 * GiB).capacity \
            == 0.5 * GiB

    def test_endpoint_requires_fabric_node(self, net):
        with pytest.raises(AddressLookupError):
            net.endpoint("not-on-fabric")
