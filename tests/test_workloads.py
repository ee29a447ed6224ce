"""Tests for the workload models (app / synthetic / hpcg / openfoam /
background)."""

import pytest

from repro.cluster import build, nextgenio, small_test
from repro.errors import SlurmError
from repro.slurm import JobState
from repro.util import GB, MB
from repro.workloads import (
    BackgroundLoad, BackgroundLoadConfig, HpcgConfig, OpenFoamConfig,
    SyntheticWorkflowConfig, compute_only, consumer_spec, consume_files,
    hpcg_program, hpcg_spec, produce_files, producer_spec,
)
from tests.conftest import remove_tree


@pytest.fixture(scope="module")
def handle():
    return build(small_test(n_nodes=2))


class TestAppPrograms:
    def test_produce_then_consume_roundtrip(self, handle):
        from repro.slurm import JobSpec
        prod = handle.ctld.submit(JobSpec(
            name="p", nodes=1,
            program=produce_files("nvme0://", "/d", 3, 10 * MB,
                                  token_prefix="t")))
        handle.sim.run(prod.done)
        cons = handle.ctld.submit(JobSpec(
            name="c", nodes=1, nodelist=prod.allocated_nodes,
            program=consume_files("nvme0://", "/d", 3, producer_rank=0)))
        handle.sim.run(cons.done)
        assert cons.state is JobState.COMPLETED
        # cleanup
        node = handle.nodes[prod.allocated_nodes[0]]
        remove_tree(node.mounts["nvme0"], "/d")

    def test_interleaved_compute_spreads_time(self, handle):
        from repro.slurm import JobSpec
        job = handle.ctld.submit(JobSpec(
            name="interleave", nodes=1,
            program=produce_files("tmp0://", "/i", 4, 1 * MB,
                                  compute_seconds=8.0, interleave=True)))
        handle.sim.run(job.done)
        rec = handle.ctld.accounting.get(job.job_id)
        assert rec.run_seconds >= 8.0


class TestSyntheticConfig:
    def test_mode_validation(self):
        with pytest.raises(SlurmError):
            SyntheticWorkflowConfig(mode="teleport")

    def test_lustre_mode_targets_pfs(self):
        cfg = SyntheticWorkflowConfig(mode="lustre")
        assert cfg.io_nsid == "lustre://"
        spec = producer_spec(cfg)
        assert spec.stage_out == () and spec.persist == ()

    def test_nvm_mode_persists(self):
        cfg = SyntheticWorkflowConfig(mode="nvm")
        spec = producer_spec(cfg)
        assert spec.persist[0].operation == "store"
        cons = consumer_spec(cfg, producer_job_id=1)
        assert cons.workflow_prior_dependency == 1
        assert cons.persist[0].operation == "delete"

    def test_staged_mode_has_stage_directives(self):
        cfg = SyntheticWorkflowConfig(mode="nvm-staged")
        assert producer_spec(cfg).stage_out[0].direction == "stage_out"
        assert consumer_spec(cfg, 1).stage_in[0].direction == "stage_in"

    def test_file_size(self):
        cfg = SyntheticWorkflowConfig(total_bytes=100, n_files=10)
        assert cfg.file_size == 10


class TestHpcg:
    def test_alone_runtime_matches_config(self):
        handle = build(nextgenio(n_nodes=1))
        job = handle.ctld.submit(hpcg_spec(HpcgConfig(runtime_alone=50.0)))
        handle.sim.run(job.done)
        rec = handle.ctld.accounting.get(job.job_id)
        assert rec.run_seconds == pytest.approx(50.0, rel=0.02)

    def test_config_validation(self):
        with pytest.raises(SlurmError):
            HpcgConfig(runtime_alone=-1)


class TestOpenFoamConfig:
    def test_volumes(self):
        cfg = OpenFoamConfig()
        # the paper's 160 GB of solver output
        assert cfg.solver_nodes * cfg.timesteps \
            * cfg.output_per_node_per_timestep == 160 * GB
        assert cfg.partition_bytes * cfg.solver_nodes == cfg.mesh_bytes

    def test_validation(self):
        with pytest.raises(SlurmError):
            OpenFoamConfig(solver_nodes=0)


class TestBackgroundLoad:
    def test_generates_bursts_and_stops(self):
        from repro.sim import RngRegistry, Simulator
        from repro.net import Fabric
        from repro.storage import ParallelFileSystem, PfsConfig
        sim = Simulator()
        fabric = Fabric(sim, core_bandwidth=100 * GB)
        fabric.add_node("n0", nic_bandwidth=10 * GB)
        pfs = ParallelFileSystem(sim, PfsConfig(), fabric=fabric)
        rng = RngRegistry(3)
        bg = BackgroundLoad(sim, pfs, rng.stream("bg"),
                            BackgroundLoadConfig(tenants=4,
                                                 mean_think_seconds=0.5))
        bg.start()
        sim.run(until=20.0)
        assert bg.bursts_issued > 5
        bg.stop()
        issued = bg.bursts_issued
        sim.run(until=60.0)
        assert bg.bursts_issued == issued  # no new bursts after stop

    def test_background_slows_foreground(self):
        from repro.sim import RngRegistry, Simulator
        from repro.net import Fabric
        from repro.storage import ParallelFileSystem, PfsConfig

        def measure(with_bg: bool) -> float:
            sim = Simulator()
            fabric = Fabric(sim, core_bandwidth=100 * GB)
            fabric.add_node("n0", nic_bandwidth=10 * GB)
            pfs = ParallelFileSystem(sim, PfsConfig(), fabric=fabric)
            if with_bg:
                bg = BackgroundLoad(
                    sim, pfs, RngRegistry(1).stream("bg"),
                    BackgroundLoadConfig(tenants=4,
                                         mean_think_seconds=2.0,
                                         max_burst_width=4))
                bg.start()
                sim.run(until=1.0)
            t0 = sim.now
            sim.run(pfs.write("n0", "/probe", 4 * GB, stripe_count=6))
            return sim.now - t0

        assert measure(True) > measure(False)

    def test_config_validation(self):
        with pytest.raises(Exception):
            BackgroundLoadConfig(read_fraction=2.0)
        with pytest.raises(Exception):
            BackgroundLoadConfig(max_burst_width=0)
