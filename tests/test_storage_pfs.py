"""Tests for the Lustre-like PFS, burst buffer, and IOR driver."""

import pytest

from repro.errors import NoSuchFile, SimError
from repro.net import Fabric
from repro.sim import FlowScheduler, Simulator
from repro.storage import (
    BurstBuffer, BurstBufferConfig, IorConfig, Mount, ParallelFileSystem,
    PfsConfig, PROFILES, BlockDevice, run_ior,
)
from repro.util import GB, GiB, MB, MiB
from tests.conftest import stripe_osts


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def fabric(sim):
    f = Fabric(sim, core_bandwidth=200 * GB, base_latency=1e-6)
    for i in range(4):
        f.add_node(f"cn{i}", nic_bandwidth=12 * GB)
    return f


@pytest.fixture
def pfs(sim, fabric):
    cfg = PfsConfig(n_oss=1, osts_per_oss=6, ost_read_bandwidth=1.4 * GB,
                    ost_write_bandwidth=1.3 * GB, oss_link_bandwidth=7 * GB,
                    front_link_bandwidth=7 * GB, mds_service_time=100e-6)
    return ParallelFileSystem(sim, cfg, fabric=fabric)


class TestPfsConfig:
    def test_peaks(self):
        cfg = PfsConfig(n_oss=2, osts_per_oss=3, ost_read_bandwidth=1 * GB,
                        ost_write_bandwidth=1 * GB, oss_link_bandwidth=10 * GB,
                        front_link_bandwidth=100 * GB)
        assert cfg.n_osts == 6
        assert cfg.peak_write_bandwidth == pytest.approx(6 * GB)

    def test_validation(self):
        with pytest.raises(SimError):
            PfsConfig(n_oss=0)
        with pytest.raises(SimError):
            PfsConfig(default_stripe_count=0)

    def test_needs_fabric_or_flows(self, sim):
        with pytest.raises(SimError):
            ParallelFileSystem(sim, PfsConfig())


class TestPfsIo:
    def test_write_read_roundtrip(self, sim, pfs):
        wc = sim.run(pfs.write("cn0", "/proj/in.dat", 1 * GB, token="s1"))
        rc = sim.run(pfs.read("cn1", "/proj/in.dat", expect=wc))
        assert rc == wc

    def test_read_missing_raises(self, sim, pfs):
        with pytest.raises(NoSuchFile):
            sim.run(pfs.read("cn0", "/none"))

    def test_stripe_width_bounds_single_file_bandwidth(self, sim, fabric):
        cfg = PfsConfig(n_oss=1, osts_per_oss=8, ost_read_bandwidth=1 * GB,
                        ost_write_bandwidth=1 * GB, oss_link_bandwidth=100 * GB,
                        front_link_bandwidth=100 * GB, mds_service_time=0)
        pfs = ParallelFileSystem(sim, cfg, fabric=fabric)
        t0 = sim.now
        sim.run(pfs.write("cn0", "/one", 2 * GB, stripe_count=1))
        narrow = sim.now - t0
        t0 = sim.now
        sim.run(pfs.write("cn0", "/eight", 2 * GB, stripe_count=8))
        wide = sim.now - t0
        # 8-way striping is ~8x faster until another limit kicks in.
        assert narrow / wide == pytest.approx(8.0, rel=0.05)

    def test_stripe_count_clamped_to_n_osts(self, sim, pfs):
        sim.run(pfs.write("cn0", "/f", 100 * MB, stripe_count=999))
        assert len(stripe_osts(pfs, "/f")) == pfs.config.n_osts

    def test_mds_serializes_creates(self, sim, fabric):
        cfg = PfsConfig(mds_service_time=1e-3, osts_per_oss=6)
        pfs = ParallelFileSystem(sim, cfg, fabric=fabric)
        events = [pfs.write("cn0", f"/d/f{i}", 0) for i in range(10)]
        for ev in events:
            sim.run(ev)
        # 10 serialized MDS ops at 1 ms each.
        assert sim.now >= 10e-3
        assert pfs.metadata_ops == 10

    def test_front_link_caps_aggregate(self, sim, fabric):
        cfg = PfsConfig(n_oss=4, osts_per_oss=8, ost_read_bandwidth=2 * GB,
                        ost_write_bandwidth=2 * GB, oss_link_bandwidth=50 * GB,
                        front_link_bandwidth=5 * GB, mds_service_time=0)
        pfs = ParallelFileSystem(sim, cfg, fabric=fabric)
        events = [pfs.write(f"cn{i}", f"/f{i}", 5 * GB, stripe_count=8)
                  for i in range(4)]
        for ev in events:
            sim.run(ev)
        # 20 GB through a 5 GB/s front link: >= 4 seconds.
        assert sim.now >= 4.0 - 1e-6

    def test_background_load_slows_foreground(self, sim, fabric, pfs):
        t0 = sim.now
        sim.run(pfs.write("cn0", "/quiet", 2 * GB, stripe_count=6))
        quiet = sim.now - t0
        pfs.inject_load(50 * GB, write=True)  # competing burst on all OSTs
        t0 = sim.now
        sim.run(pfs.write("cn0", "/busy", 2 * GB, stripe_count=6))
        busy = sim.now - t0
        assert busy > quiet * 1.5

    def test_collective_write_creates_total_file(self, sim, pfs):
        writers = ["cn0", "cn1", "cn2"]
        content = sim.run(pfs.collective_write(writers, "/shared.dat",
                                               100 * MB, stripe_count=4))
        assert content.size == 300 * MB
        assert pfs.ns.lookup("/shared.dat").size == 300 * MB

    def test_delete_removes_file_and_layout(self, sim, pfs):
        sim.run(pfs.write("cn0", "/f", 10 * MB))
        sim.run(pfs.delete("/f"))
        assert not pfs.ns.exists("/f")
        with pytest.raises(NoSuchFile):
            stripe_osts(pfs, "/f")


class TestBurstBuffer:
    def test_write_read_roundtrip(self, sim, fabric):
        bb = BurstBuffer(sim, BurstBufferConfig(n_io_nodes=2,
                                                node_bandwidth=5 * GB),
                         fabric=fabric)
        wc = sim.run(bb.write("cn0", "/stage/x", 1 * GB))
        rc = sim.run(bb.read("cn1", "/stage/x", expect=wc))
        assert rc == wc
        bb.delete("/stage/x")
        assert bb.used == 0

    def test_capacity_enforced(self, sim, fabric):
        from repro.errors import NoSpace
        bb = BurstBuffer(sim, BurstBufferConfig(capacity=100), fabric=fabric)
        with pytest.raises(NoSpace):
            sim.run(bb.write("cn0", "/too-big", 200))

    def test_many_to_few_funnel_saturates(self, sim, fabric):
        # 4 clients into a 2-node appliance: aggregate capped by the
        # appliance, unlike node-local storage that scales per node.
        bb = BurstBuffer(sim, BurstBufferConfig(n_io_nodes=1,
                                                node_bandwidth=2 * GB),
                         fabric=fabric, server_node="bb1")
        events = [bb.write(f"cn{i}", f"/s/f{i}", 2 * GB) for i in range(4)]
        for ev in events:
            sim.run(ev)
        assert sim.now >= 4.0 - 1e-6  # 8 GB through 2 GB/s


class TestIor:
    def test_file_per_process_write_on_local_mounts(self, sim, fabric):
        flows = fabric.flows
        mounts = {}
        for i in range(2):
            dev = BlockDevice(sim, flows, PROFILES["dcpmm"], 3_000 * GB,
                              name=f"dcpmm-cn{i}")
            mounts[f"cn{i}"] = Mount(sim, dev)
        cfg = IorConfig(nodes=("cn0", "cn1"), procs_per_node=4,
                        block_size=650 * MB, transfer_size=512 * 1024)
        res = run_ior(sim, cfg, mounts=mounts)
        # Per node: 4 procs * 0.65 GB through 2.6 GB/s DCPMM write ~= 1s.
        assert res.elapsed == pytest.approx(1.0, rel=0.05)
        # Aggregate scales with node count: 5.2 GB total in ~1s.
        assert res.bandwidth == pytest.approx(5.2 * GB, rel=0.06)

    def test_read_mode_prepares_files(self, sim, fabric, pfs):
        cfg = IorConfig(nodes=("cn0",), procs_per_node=2,
                        block_size=100 * MB, mode="read")
        res = run_ior(sim, cfg, pfs=pfs)
        assert res.bandwidth > 0
        assert len(res.per_proc_seconds) == 2

    def test_shared_file_uses_collective_write(self, sim, pfs):
        cfg = IorConfig(nodes=("cn0", "cn1"), procs_per_node=2,
                        block_size=100 * MB, file_per_process=False,
                        stripe_count=4)
        res = run_ior(sim, cfg, pfs=pfs)
        assert pfs.ns.lookup("/ior/shared.dat").size == 400 * MB
        assert res.bandwidth > 0

    def test_smaller_transfer_size_adds_overhead(self, sim, fabric):
        flows = fabric.flows
        mounts = {"cn0": Mount(sim, BlockDevice(sim, flows, PROFILES["dcpmm"],
                                                3_000 * GB))}
        big = run_ior(sim, IorConfig(nodes=("cn0",), block_size=256 * MiB,
                                     transfer_size=16 * MiB), mounts=mounts)
        small = run_ior(sim, IorConfig(nodes=("cn0",), block_size=256 * MiB,
                                       transfer_size=256 * 1024,
                                       workdir="/ior2"), mounts=mounts)
        assert small.elapsed > big.elapsed

    def test_config_validation(self):
        with pytest.raises(SimError):
            IorConfig(nodes=())
        with pytest.raises(SimError):
            IorConfig(nodes=("a",), mode="fly")
        with pytest.raises(SimError):
            IorConfig(nodes=("a",), file_per_process=False, mode="read")

    def test_exactly_one_target_required(self, sim, pfs):
        cfg = IorConfig(nodes=("cn0",))
        with pytest.raises(SimError):
            run_ior(sim, cfg)
