"""Tests for block devices and mounted filesystems (incl. page cache)."""

import pytest

from repro.errors import DataCorruption, NoSpace, NoSuchFile, SimError
from repro.sim import FlowScheduler, Simulator, CapacityConstraint
from repro.storage import BlockDevice, Mount, PROFILES
from repro.storage.device import DeviceProfile
from repro.util import GB, GiB, MB
from tests.conftest import remove_tree


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def flows(sim):
    return FlowScheduler(sim)


def make_device(sim, flows, profile="nvme", capacity=100 * GB):
    return BlockDevice(sim, flows, PROFILES[profile], capacity, name="dev0")


class TestDeviceProfiles:
    def test_builtin_profiles(self):
        for name in ("hdd", "sata-ssd", "nvme", "dcpmm", "tmpfs"):
            assert PROFILES[name].read_bandwidth > 0

    def test_dcpmm_faster_than_nvme_reads(self):
        assert PROFILES["dcpmm"].read_bandwidth > PROFILES["nvme"].read_bandwidth

    def test_profile_validation(self):
        with pytest.raises(SimError):
            DeviceProfile("bad", -1, 1, 0, 0)
        with pytest.raises(SimError):
            DeviceProfile("bad", 1, 1, -1, 0)


class TestBlockDevice:
    def test_write_time_is_latency_plus_transfer(self, sim, flows):
        dev = make_device(sim, flows)  # nvme: 2.4 GB/s write, 16us latency
        done = dev.write(2.4 * GB)
        sim.run(done)
        assert sim.now == pytest.approx(1.0 + 16e-6, rel=1e-6)

    def test_concurrent_writes_share_bandwidth(self, sim, flows):
        dev = make_device(sim, flows)
        d1 = dev.write(1.2 * GB)
        d2 = dev.write(1.2 * GB)
        sim.run(d1)
        sim.run(d2)
        assert sim.now == pytest.approx(1.0 + 16e-6, rel=1e-4)

    def test_reads_and_writes_use_separate_paths(self, sim, flows):
        dev = make_device(sim, flows)
        r = dev.read(3.2 * GB)
        w = dev.write(2.4 * GB)
        sim.run(r)
        sim.run(w)
        # Both take ~1s because they do not contend with each other.
        assert sim.now == pytest.approx(1.0 + 16e-6, rel=1e-3)

    def test_allocate_and_nospace(self, sim, flows):
        dev = make_device(sim, flows, capacity=1000)
        dev.allocate(800)
        assert dev.free == 200
        with pytest.raises(NoSpace):
            dev.allocate(300)
        dev.release(500)
        dev.allocate(300)

    def test_negative_io_rejected(self, sim, flows):
        dev = make_device(sim, flows)
        with pytest.raises(SimError):
            dev.read(-1)


class TestMount:
    def test_write_then_read_roundtrip(self, sim, flows):
        m = Mount(sim, make_device(sim, flows))
        wc = sim.run(m.write_file("/data/f.dat", 1 * GB, token="seed"))
        rc = sim.run(m.read_file("/data/f.dat", expect=wc))
        assert rc == wc
        assert m.used_bytes() == 1 * GB

    def test_read_missing_fails(self, sim, flows):
        m = Mount(sim, make_device(sim, flows))
        with pytest.raises(NoSuchFile):
            sim.run(m.read_file("/ghost"))

    def test_corruption_detected(self, sim, flows):
        from repro.storage import FileContent
        m = Mount(sim, make_device(sim, flows))
        sim.run(m.write_file("/f", 100, token="real"))
        with pytest.raises(DataCorruption):
            sim.run(m.read_file("/f", expect=FileContent.synthesize("other", 100)))

    def test_write_nospace_fails_fast(self, sim, flows):
        m = Mount(sim, make_device(sim, flows, capacity=10))
        with pytest.raises(NoSpace):
            sim.run(m.write_file("/big", 100))
        assert not m.exists("/big")

    def test_overwrite_releases_old_space(self, sim, flows):
        m = Mount(sim, make_device(sim, flows, capacity=1000))
        sim.run(m.write_file("/f", 800))
        sim.run(m.write_file("/f", 600))
        assert m.used_bytes() == 600

    def test_delete_frees_space(self, sim, flows):
        m = Mount(sim, make_device(sim, flows))
        sim.run(m.write_file("/f", 500))
        m.delete("/f")
        assert m.used_bytes() == 0 and not m.exists("/f")

    def test_remove_tree(self, sim, flows):
        m = Mount(sim, make_device(sim, flows))
        sim.run(m.write_file("/d/a", 100))
        sim.run(m.write_file("/d/b", 200))
        assert remove_tree(m, "/d") == 300
        assert m.used_bytes() == 0

    def test_file_invisible_until_write_completes(self, sim, flows):
        m = Mount(sim, make_device(sim, flows))
        done = m.write_file("/slow", 2.4 * GB)  # ~1s
        sim.run(until=0.5)
        assert not m.exists("/slow")
        sim.run(done)
        assert m.exists("/slow")


class TestPageCache:
    def make_cached_mount(self, sim, flows, cache_bytes):
        membus = CapacityConstraint("membus", 100 * GB)
        dev = make_device(sim, flows, profile="hdd")  # slow: 160 MB/s read
        return Mount(sim, dev, page_cache_bytes=cache_bytes, membus=membus)

    def test_cached_reread_is_fast(self, sim, flows):
        m = self.make_cached_mount(sim, flows, cache_bytes=10 * GB)
        sim.run(m.write_file("/small", 160 * MB))
        t0 = sim.now
        sim.run(m.read_file("/small"))
        # Served from cache at membus speed, far faster than 1s on HDD.
        assert sim.now - t0 < 0.1

    def test_file_larger_than_memory_bypasses_cache(self, sim, flows):
        # The paper's methodology: file sizes > RAM avoid cache effects.
        m = self.make_cached_mount(sim, flows, cache_bytes=100 * MB)
        sim.run(m.write_file("/huge", 160 * MB))
        t0 = sim.now
        sim.run(m.read_file("/huge"))
        assert sim.now - t0 >= 1.0  # real device read

    def test_lru_eviction(self, sim, flows):
        m = self.make_cached_mount(sim, flows, cache_bytes=300 * MB)
        sim.run(m.write_file("/a", 160 * MB))
        sim.run(m.write_file("/b", 160 * MB))  # evicts /a
        t0 = sim.now
        sim.run(m.read_file("/a"))
        assert sim.now - t0 >= 1.0  # /a no longer cached
