"""Job descriptors, states, ``#NORNS`` directives and step contexts."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, Optional, Sequence

from repro.errors import ScriptParseError, SlurmError
from repro.norns.api.user import NornsClient
from repro.sim.core import Event, Simulator
from repro.storage.filesystem import FileContent, normalize

__all__ = ["JobState", "StageDirective", "PersistDirective", "JobSpec",
           "Job", "StepContext", "split_locator", "MIN_TIME_LIMIT"]

#: Floor (seconds) on the time limit the trace replayer and the
#: pipeline engine derive for the jobs they generate.
MIN_TIME_LIMIT = 600.0


class JobState(enum.Enum):
    """Job lifecycle, extended with the staging phases."""

    PENDING = "pending"
    CONFIGURING = "configuring"      # nodes allocated, stage-in running
    RUNNING = "running"
    STAGING_OUT = "staging-out"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"
    TIMEOUT = "timeout"

    @property
    def is_terminal(self) -> bool:
        return self in (JobState.COMPLETED, JobState.FAILED,
                        JobState.CANCELLED, JobState.TIMEOUT)

    @property
    def is_active(self) -> bool:
        return self in (JobState.CONFIGURING, JobState.RUNNING,
                        JobState.STAGING_OUT)


def split_locator(locator: str) -> tuple[str, str]:
    """Split ``"nvme0://path/to/x"`` into ``("nvme0://", "/path/to/x")``.

    A bare ``nsid://`` maps to the dataspace root.
    """
    idx = locator.find("://")
    if idx <= 0:
        raise ScriptParseError(f"bad data locator {locator!r} "
                               "(expected nsid://path)")
    nsid = locator[:idx + 3]
    rest = locator[idx + 3:]
    return nsid, normalize(rest or "/")


@dataclass(frozen=True)
class StageDirective:
    """``#NORNS stage_in|stage_out origin destination mapping``."""

    direction: str                 # "stage_in" | "stage_out"
    origin: str                    # locator, e.g. "lustre://proj/input/"
    destination: str               # locator, e.g. "nvme0://input/"
    #: How data maps onto node-local resources: "replicate" (every node
    #: gets a full copy), "scatter" (files distributed round-robin over
    #:  the allocation), "single" (first node only), or "gather" (the
    #: stage-out inverse of scatter: every node's files are collected).
    mapping: str = "scatter"

    _VALID_MAPPINGS = ("replicate", "scatter", "single", "gather")

    def __post_init__(self) -> None:
        if self.direction not in ("stage_in", "stage_out"):
            raise ScriptParseError(f"bad stage direction {self.direction!r}")
        if self.mapping not in self._VALID_MAPPINGS:
            raise ScriptParseError(
                f"bad mapping {self.mapping!r}; one of {self._VALID_MAPPINGS}")
        split_locator(self.origin)
        split_locator(self.destination)


@dataclass(frozen=True)
class PersistDirective:
    """``#NORNS persist operation location user``."""

    operation: str                 # store | delete | share | unshare
    location: str                  # node-local locator, e.g. "nvme0://shared/"
    user: str = ""

    _VALID_OPS = ("store", "delete", "share", "unshare")

    def __post_init__(self) -> None:
        if self.operation not in self._VALID_OPS:
            raise ScriptParseError(
                f"bad persist operation {self.operation!r}")
        if self.operation in ("share", "unshare") and not self.user:
            raise ScriptParseError(f"persist {self.operation} needs a user")
        split_locator(self.location)


#: A job step program: called once per allocated node with a
#: :class:`StepContext`; returns a simulation generator.
StepProgram = Callable[["StepContext"], Generator]


@dataclass
class JobSpec:
    """Everything a submission provides (script options + program)."""

    name: str = "job"
    nodes: int = 1
    user: str = "user0"
    time_limit: float = 3600.0
    base_priority: float = 0.0
    program: Optional[StepProgram] = None
    # workflow options (Section III)
    workflow_start: bool = False
    workflow_end: bool = False
    workflow_prior_dependency: Optional[int] = None
    #: fan-in prerequisites (job ids): the job waits for *all* of them;
    #: combined with ``workflow_prior_dependency`` when both are set.
    workflow_dependencies: tuple[int, ...] = ()
    #: attach to the workflow containing this job id *without* depending
    #: on it — an extra DAG root (checkpoint recovery resubmits surviving
    #: roots of a partially-completed workflow this way).
    workflow_join: Optional[int] = None
    #: checkpoint identity: the stage key the job reports its epoch
    #: progress under in the controller's attached
    #: :class:`~repro.workflows.checkpoint.CheckpointStore` ("" = the
    #: job does not checkpoint).
    checkpoint_key: str = ""
    # data directives
    stage_in: tuple[StageDirective, ...] = ()
    stage_out: tuple[StageDirective, ...] = ()
    persist: tuple[PersistDirective, ...] = ()
    #: dataspaces the job may use (set for NORNS job limits + $ env vars)
    dataspaces: tuple[str, ...] = ("lustre://", "nvme0://", "tmp0://")
    #: pin the job to exactly these nodes, in rank order (sbatch -w).
    nodelist: tuple[str, ...] = ()
    #: timeout for stage-in before the job is terminated (Section III).
    staging_timeout: float = 7200.0
    #: per-job cap on requeues after node failures (None = the
    #: controller's :attr:`SlurmConfig.max_requeues`).
    max_requeues: Optional[int] = None

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise SlurmError("a job needs at least one node")
        if self.time_limit <= 0:
            raise SlurmError("time limit must be positive")
        if self.nodelist and len(self.nodelist) != self.nodes:
            raise SlurmError(
                f"nodelist has {len(self.nodelist)} entries for "
                f"{self.nodes} nodes")

    @property
    def in_workflow(self) -> bool:
        return (self.workflow_start or self.workflow_end
                or self.workflow_prior_dependency is not None
                or bool(self.workflow_dependencies)
                or self.workflow_join is not None)


class Job:
    """One submitted job instance tracked by slurmctld."""

    #: fallback allocator for directly-constructed jobs (unit tests);
    #: slurmctld passes an explicit id from its own per-instance
    #: counter so replayed clusters never see process-history ids.
    _ids = itertools.count(1000)

    def __init__(self, spec: JobSpec, submit_time: float,
                 job_id: Optional[int] = None) -> None:
        self.job_id = next(Job._ids) if job_id is None else job_id
        self.spec = spec
        self.state = JobState.PENDING
        self.submit_time = submit_time
        self.allocated_nodes: tuple[str, ...] = ()
        self.workflow_id: Optional[int] = None
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        self.reason: str = ""
        #: env exposed to steps ($LUSTRE, $NVME0, ... Section IV-A).
        self.environment: Dict[str, str] = {}
        #: fires on any terminal state.
        self.done: Optional[Event] = None
        #: node hints for data-aware placement (producer's nodes).
        self.data_hints: tuple[str, ...] = ()
        #: times this job was requeued (node failure / fault recovery).
        self.requeues: int = 0
        self._step_procs: list = []
        #: the jobctl lifecycle process (set at allocation); the node
        #: failure path interrupts it to trigger requeue semantics.
        self._ctl_proc = None
        #: the staging phase process currently awaited (if any).
        self._phase_proc = None
        #: a knockout is in flight (suppresses double interrupts when
        #: several of the job's nodes fail at the same instant).
        self._knocked = False

    @property
    def expected_end(self) -> Optional[float]:
        if self.start_time is None:
            return None
        return self.start_time + self.spec.time_limit

    def set_state(self, state: JobState, reason: str = "") -> None:
        self.state = state
        if reason:
            self.reason = reason
        if state.is_terminal and self.done is not None \
                and not self.done.triggered:
            self.done.succeed(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Job {self.job_id} {self.spec.name!r} "
                f"{self.state.value} nodes={self.allocated_nodes}>")


class StepContext:
    """What a job-step program sees on its node.

    Application I/O goes straight through the dataspace backends (the
    normal filesystem path); asynchronous I/O tasks go through the
    ``norns`` user API — matching how real applications mix POSIX I/O
    with NORNS offloading.
    """

    def __init__(self, sim: Simulator, job: Job, node: str, rank: int,
                 resolve_backend, norns_client: Optional[NornsClient],
                 membus=None) -> None:
        self.sim = sim
        self.job = job
        self.node = node
        self.rank = rank
        self._resolve = resolve_backend    # nsid -> backend
        self.norns = norns_client
        self.membus = membus

    # -- application-level I/O (timed) --------------------------------------
    def write(self, nsid: str, path: str, size: int,
              token: Optional[str] = None) -> Event:
        return self._resolve(nsid).write_file(path, size, token=token)

    def read(self, nsid: str, path: str,
             expect: Optional[FileContent] = None) -> Event:
        return self._resolve(nsid).read_file(path, expect=expect)

    def exists(self, nsid: str, path: str) -> bool:
        return self._resolve(nsid).exists(path)

    def stat(self, nsid: str, path: str) -> FileContent:
        return self._resolve(nsid).stat(path)

    def delete(self, nsid: str, path: str) -> None:
        self._resolve(nsid).delete(path)

    # -- compute ---------------------------------------------------------------
    def compute(self, seconds: float) -> Event:
        """Pure CPU-bound phase (no memory-bus pressure)."""
        return self.sim.timeout(seconds)

    def compute_membound(self, traffic_bytes: float) -> Event:
        """Memory-bandwidth-bound phase (HPCG-style).

        Modelled as moving ``traffic_bytes`` through the node's memory
        bus — co-located staging flows on the same bus slow it down,
        which is exactly the Table IV interference mechanism.
        """
        if self.membus is None:
            raise SlurmError(f"node {self.node} has no memory-bus model")
        # Access the flow scheduler through whichever backend is local.
        from repro.sim.flows import FlowScheduler
        flows = self._flows()
        return flows.transfer(traffic_bytes, (self.membus,),
                              label=f"hpcg:{self.node}")

    def _flows(self):
        for nsid in self.job.spec.dataspaces:
            backend = self._resolve(nsid)
            mount = getattr(backend, "mount", None)
            if mount is not None:
                return mount.device.flows
        raise SlurmError("no local dataspace to reach the flow engine")

    def env(self, name: str) -> str:
        """Read a Slurm-provided environment variable ($NVME0 etc.)."""
        return self.job.environment.get(name, "")
