"""Tests for cluster specs, builder and presets."""

import pytest

from repro.cluster import (
    ClusterSpec, DeviceSpec, NodeGroupSpec, archer_like, build,
    marenostrum4_like, nextgenio, small_test,
)
from repro.errors import SimError
from repro.util import GB, TB
from tests.conftest import dataspace_ids


class TestSpecs:
    def test_device_spec_defaults(self):
        d = DeviceSpec("nvme0", "dcpmm", 3 * TB)
        assert d.dataspace_id == "nvme0://"
        assert d.mount_path == "/mnt/nvme0"

    def test_device_spec_validation(self):
        with pytest.raises(SimError):
            DeviceSpec("x", "quantum-foam", 1)
        with pytest.raises(SimError):
            DeviceSpec("x", "nvme", 0)

    def test_node_group_names(self):
        g = NodeGroupSpec(count=3, name_prefix="cn")
        assert g.node_names() == ["cn0", "cn1", "cn2"]

    def test_node_group_validation(self):
        with pytest.raises(SimError):
            NodeGroupSpec(count=0)

    def test_dataspace_ids(self):
        spec = nextgenio(n_nodes=2)
        assert set(dataspace_ids(spec)) == {"nvme0://", "tmp0://",
                                            "lustre://"}

    def test_archer_has_no_node_local_storage(self):
        spec = archer_like(4)
        assert spec.nodes.devices == ()
        assert spec.pfs.n_osts == 48

    def test_marenostrum_wide_striping(self):
        spec = marenostrum4_like(4)
        assert spec.pfs.default_stripe_count == 32


class TestBuilder:
    def test_builds_all_components(self):
        handle = build(small_test(n_nodes=3))
        assert handle.node_names == ["cn0", "cn1", "cn2"]
        assert handle.pfs is not None
        assert handle.ctld is not None
        for name in handle.node_names:
            node = handle.node(name)
            assert node.urd.node == name
            assert set(node.mounts) == {"nvme0", "tmp0"}

    def test_dataspaces_registered_via_control_api(self):
        handle = build(small_test(n_nodes=2))
        for name in handle.node_names:
            ctrl = handle.node(name).urd.controller
            nsids = {ds.nsid for ds in ctrl.dataspaces()}
            assert nsids == {"nvme0://", "tmp0://", "lustre://"}

    def test_urds_registered_in_directory(self):
        handle = build(small_test(n_nodes=2))
        assert handle.directory.nodes() == ["cn0", "cn1"]

    def test_track_flag_propagates(self):
        handle = build(nextgenio(n_nodes=1, track_nvme=True))
        ctrl = handle.node("cn0").urd.controller
        assert ctrl.resolve("nvme0://").track is True
        assert ctrl.resolve("tmp0://").track is False

    def test_slurm_job_runs_on_built_cluster(self):
        from repro.slurm import JobSpec, JobState
        handle = build(small_test(n_nodes=2))

        def program(ctx):
            yield ctx.compute(5)

        job = handle.ctld.submit(JobSpec(name="smoke", nodes=2,
                                         program=program))
        handle.sim.run(job.done)
        assert job.state is JobState.COMPLETED

    def test_seed_controls_rng(self):
        h1 = build(small_test(n_nodes=1), seed=7)
        h2 = build(small_test(n_nodes=1), seed=7)
        assert (h1.rng.stream("x").integers(0, 1000, 5).tolist()
                == h2.rng.stream("x").integers(0, 1000, 5).tolist())
