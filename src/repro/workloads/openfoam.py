"""The OpenFOAM decompose-then-solve workflow (Table V).

"For this benchmark we ran a low-Reynolds number laminar-turbulent
transition modeling simulation of the flow over the surface of an
aircraft, using a mesh with ≈43 million mesh points.  We decomposed the
mesh over 16 nodes enabling 768 MPI processes to be used for the solver
step (picoFOAM).  The decomposition step is serial ... We ran the
solver for 20 timesteps ... The solver produces 160 GB of output data
when run in this configuration, with a directory per process."

Model structure:

* **decompose** — a serial job on one node: a long compute phase, then
  the decomposed case written out as one partition file per solver
  node (the per-rank directories of one node are written together).
* **solver** — 16 nodes × 20 timesteps; each timestep is a compute
  phase followed by that node's share of the output (dir-per-process
  I/O aggregated per node).

Calibrated against Table V on the NEXTGenIO preset: decompose 1105 s
(NVM) / 1191 s (Lustre), redistribution ≈32 s, solver 66 s (NVM) /
123 s (Lustre).  See calibration.py for the fit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SlurmError
from repro.slurm.job import JobSpec, StageDirective
from repro.util.units import GB

__all__ = ["OpenFoamConfig", "decompose_program", "solver_program",
           "decompose_spec", "solver_spec"]


@dataclass(frozen=True)
class OpenFoamConfig:
    """The aircraft-surface case of Table V."""

    solver_nodes: int = 16
    ranks_per_node: int = 48           # 768 MPI processes total
    timesteps: int = 20
    #: Serial decomposition compute (fitted: 1105 s NVM total minus the
    #: NVM write time of the decomposed case).
    decompose_compute: float = 1032.0
    #: Decomposed case size (fitted so the ~32 s redistribution and the
    #: 1191-1105 s Lustre/NVM decompose gap both come out).
    mesh_bytes: int = 190 * GB
    #: Solver compute per timestep (fitted from the 66 s NVM solver).
    solver_compute_per_timestep: float = 3.1
    #: Output volume per node per timestep: 16 nodes x 20 steps x
    #: 0.5 GB = 160 GB, the paper's total.
    output_per_node_per_timestep: int = GB // 2
    case_dir: str = "/case"
    results_dir: str = "/results"

    def __post_init__(self) -> None:
        if self.solver_nodes < 1 or self.timesteps < 1:
            raise SlurmError("solver needs nodes and timesteps")

    @property
    def partition_bytes(self) -> int:
        return self.mesh_bytes // self.solver_nodes


def decompose_program(cfg: OpenFoamConfig, nsid: str):
    """Serial mesh decomposition writing one partition per solver node."""

    def program(ctx):
        yield ctx.compute(cfg.decompose_compute)
        for part in range(cfg.solver_nodes):
            yield ctx.write(nsid, f"{cfg.case_dir}/processor{part}.dat",
                            cfg.partition_bytes, token=f"mesh:{part}")

    return program


def solver_program(cfg: OpenFoamConfig, nsid: str):
    """picoFoam: per node, alternate compute and dir-per-process output."""

    def program(ctx):
        # Each node verifies its partition is present before starting —
        # catches placement/staging errors instead of silently skipping.
        part = f"{cfg.case_dir}/processor{ctx.rank}.dat"
        if not ctx.exists(nsid, part):
            raise SlurmError(f"{ctx.node}: partition {part} missing "
                             f"from {nsid}")
        for step in range(cfg.timesteps):
            yield ctx.compute(cfg.solver_compute_per_timestep)
            yield ctx.write(
                nsid,
                f"{cfg.results_dir}/node{ctx.rank}/t{step:04d}.dat",
                cfg.output_per_node_per_timestep,
                token=f"out:{ctx.rank}:{step}")

    return program


def decompose_spec(cfg: OpenFoamConfig, target: str = "nvme0://") -> JobSpec:
    """The serial decomposition job ('lustre://' or 'nvme0://' target)."""
    return JobSpec(name="decompose", nodes=1, workflow_start=True,
                   program=decompose_program(cfg, target),
                   time_limit=4 * cfg.decompose_compute)


def solver_spec(cfg: OpenFoamConfig, producer_job_id: int,
                target: str = "nvme0://",
                stage_results_out: bool = False) -> JobSpec:
    """The 16-node solver job, depending on the decomposition."""
    stage_out = ()
    if stage_results_out and target != "lustre://":
        stage_out = (StageDirective(
            "stage_out", f"nvme0://{cfg.results_dir.lstrip('/')}",
            f"lustre://{cfg.results_dir.lstrip('/')}", "gather"),)
    return JobSpec(name="solver", nodes=cfg.solver_nodes,
                   workflow_prior_dependency=producer_job_id,
                   workflow_end=True,
                   program=solver_program(cfg, target),
                   stage_out=stage_out,
                   time_limit=100 * cfg.timesteps)
