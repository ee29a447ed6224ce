"""Machine presets calibrated to the paper's testbeds.

Every constant tied to a paper-reported number cites the measurement it
was fitted against; see ``repro/experiments/calibration.py`` for the
derivations, and run ``python -m repro.experiments.runall`` for the
resulting paper-vs-measured comparison.
"""

from __future__ import annotations

from repro.cluster.spec import ClusterSpec, DeviceSpec, NodeGroupSpec
from repro.storage.pfs import PfsConfig
from repro.util.units import GB, GiB, MB, TB

__all__ = ["nextgenio", "archer_like", "marenostrum4_like", "small_test",
           "replay_scale", "PRESETS"]


def nextgenio(n_nodes: int = 34, track_nvme: bool = False,
              workers: int = 8) -> ClusterSpec:
    """The NEXTGenIO prototype (Section V-A).

    34 nodes, dual Xeon 8260M (48 cores), 192 GiB RAM, 3 TB DCPMM per
    node, Omni-Path fabric, Lustre (6 OSTs) over a 56 Gbps IB link.

    Calibration anchors:

    * DCPMM write ≈2.6 GB/s, read ≈6 GB/s per node at the filesystem
      level — fits Table III (producer 64 s / consumer 30 s for 100 GB
      net of compute) and Table V's solver on NVM (66 s).
    * Lustre single-client ≈1.42 GB/s write / ≈1.65 GB/s read — fits
      Table III's Lustre runs (96 s / 74 s); aggregate write ≈2.7 GB/s
      (6 OSTs × 0.45) — fits Table V's solver on Lustre (123 s).
    * Memory-controller headroom 8 GB/s — stage-out at 1.42 GB/s steals
      ~18 % of HPCG's bus share during the overlap window, reproducing
      Table IV's ≈15 % aggregate HPCG hit.
    """
    return ClusterSpec(
        name="nextgenio",
        nodes=NodeGroupSpec(
            count=n_nodes,
            name_prefix="cn",
            cores=48,
            ram=192 * GiB,
            nic_bandwidth=64 * GiB,    # fits Figs. 6-7 aggregate scaling
            membus_bandwidth=8 * GB,
            devices=(DeviceSpec("nvme0", "dcpmm", 3 * TB,
                                track=track_nvme),
                     DeviceSpec("tmp0", "tmpfs", 100 * GB)),
        ),
        fabric_core_bandwidth=2_000 * GB,
        fabric_base_latency=1.0e-6,
        na_plugin="ofi+tcp",
        pfs=PfsConfig(
            name="lustre",
            n_oss=1,
            osts_per_oss=6,
            ost_read_bandwidth=0.90 * GB,
            ost_write_bandwidth=0.45 * GB,
            oss_link_bandwidth=7.0 * GB,
            front_link_bandwidth=7.0 * GB,   # 56 Gbps InfiniBand
            mds_service_time=150e-6,
            # Small filesystem, wide default striping: a single file can
            # use every OST, so one client is bounded by its stream cap
            # while many clients share the OST aggregate.
            default_stripe_count=6,
            client_read_cap=1.65 * GB,
            client_write_cap=1.42 * GB,
        ),
        urd_workers=workers,
    )


def archer_like(n_nodes: int = 64) -> ClusterSpec:
    """ARCHER-flavoured system for Fig. 1a.

    Cray XC30: 24 cores/node, Aries network, Lustre with 12 OSSs × 4
    OSTs (48 OSTs of 40 RAID6 disks each).  Peak filesystem write
    ≈20 GB/s — reached only with full striping and a quiet system.
    """
    return ClusterSpec(
        name="archer-like",
        nodes=NodeGroupSpec(
            count=n_nodes,
            name_prefix="ar",
            cores=24,
            ram=64 * GiB,
            nic_bandwidth=8 * GB,
            membus_bandwidth=50 * GB,
            devices=(),                     # no node-local storage
        ),
        fabric_core_bandwidth=1_000 * GB,
        na_plugin="ofi+tcp",
        pfs=PfsConfig(
            name="lustre",
            n_oss=12,
            osts_per_oss=4,
            ost_read_bandwidth=0.45 * GB,
            ost_write_bandwidth=0.42 * GB,  # 48 OSTs -> ~20 GB/s peak
            oss_link_bandwidth=2.5 * GB,
            front_link_bandwidth=24 * GB,
            mds_service_time=200e-6,
            default_stripe_count=4,         # ARCHER's default stripe
            client_read_cap=2.0 * GB,
            client_write_cap=2.0 * GB,
        ),
    )


def marenostrum4_like(n_nodes: int = 64) -> ClusterSpec:
    """MareNostrum 4-flavoured system for Fig. 1b.

    3,456 Lenovo SD530 nodes (48 cores), 100 Gb Omni-Path full fat
    tree, 14 PB GPFS.  GPFS is modelled as a PFS with wide striping
    (block distribution over many NSDs) and no user-visible stripe
    control.
    """
    return ClusterSpec(
        name="marenostrum4-like",
        nodes=NodeGroupSpec(
            count=n_nodes,
            name_prefix="mn",
            cores=48,
            ram=96 * GiB,
            nic_bandwidth=12.5 * GB,        # 100 Gbps Omni-Path
            membus_bandwidth=50 * GB,
            devices=(),
        ),
        fabric_core_bandwidth=2_000 * GB,
        na_plugin="ofi+psm2",
        pfs=PfsConfig(
            name="gpfs",
            n_oss=8,
            osts_per_oss=4,
            ost_read_bandwidth=1.0 * GB,
            ost_write_bandwidth=0.9 * GB,
            oss_link_bandwidth=5 * GB,
            front_link_bandwidth=26 * GB,
            mds_service_time=120e-6,
            default_stripe_count=32,        # GPFS-style wide striping
            client_read_cap=3.0 * GB,
            client_write_cap=3.0 * GB,
        ),
    )


def replay_scale(n_nodes: int = 64, workers: int = 4) -> ClusterSpec:
    """A NEXTGenIO-flavoured machine sized for trace-replay runs.

    Scales the Section V-A node recipe out to ``n_nodes`` and widens the
    PFS back end (4 OSSs × 6 OSTs) so thousands of staged workflows can
    drain without the single-OSS front link becoming the only story.
    Per-client caps stay at the calibrated NEXTGenIO values, so
    single-job staging behaviour matches the paper while the aggregate
    scales with the bigger rack.
    """
    base = nextgenio(n_nodes=n_nodes, workers=workers)
    return ClusterSpec(
        name="replay-scale",
        nodes=NodeGroupSpec(
            count=n_nodes,
            name_prefix="cn",
            cores=48,
            ram=192 * GiB,
            nic_bandwidth=base.nodes.nic_bandwidth,
            membus_bandwidth=base.nodes.membus_bandwidth,
            devices=base.nodes.devices,
        ),
        fabric_core_bandwidth=4_000 * GB,
        fabric_base_latency=base.fabric_base_latency,
        na_plugin="ofi+tcp",
        pfs=PfsConfig(
            name="lustre",
            n_oss=4,
            osts_per_oss=6,
            ost_read_bandwidth=0.90 * GB,
            ost_write_bandwidth=0.45 * GB,
            oss_link_bandwidth=7.0 * GB,
            front_link_bandwidth=28.0 * GB,
            mds_service_time=150e-6,
            default_stripe_count=6,
            client_read_cap=1.65 * GB,
            client_write_cap=1.42 * GB,
        ),
        urd_workers=workers,
    )


def small_test(n_nodes: int = 4) -> ClusterSpec:
    """A small, fast cluster for unit tests and examples."""
    spec = nextgenio(n_nodes=n_nodes)
    return ClusterSpec(
        name="small-test",
        nodes=NodeGroupSpec(
            count=n_nodes,
            name_prefix="cn",
            cores=8,
            ram=8 * GiB,
            nic_bandwidth=64 * GiB,
            membus_bandwidth=12 * GB,
            devices=spec.nodes.devices,
        ),
        fabric_core_bandwidth=spec.fabric_core_bandwidth,
        na_plugin="ofi+tcp",
        pfs=spec.pfs,
        urd_workers=4,
    )


#: the presets a command line or a sweep's RunSpec may name, by name,
#: in the order ``repro-slurm --preset`` lists them.
PRESETS = {"replay_scale": replay_scale, "nextgenio": nextgenio,
           "small_test": small_test}
