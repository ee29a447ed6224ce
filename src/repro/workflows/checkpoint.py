"""Checkpoint artifacts persisted through the NORNS dataspace layer.

A checkpointing stage leaves two kinds of artifact on the shared
filesystem (the same PFS namespace the staging coordinator moves data
through):

* **epoch markers** — one zero-byte metadata entry per finished
  checkpoint epoch of a running stage.  A requeued job consults them to
  resume after its last completed epoch instead of recomputing from
  zero.
* **completion marker + manifest** — written when a stage's job
  completes and its outputs are staged out: the manifest lists the
  datasets the stage produced, the marker declares the stage done.  A
  pipeline recovering from a terminal failure resubmits only stages
  without a valid completion marker — the *lost frontier*.

Marker and manifest operations are untimed namespace metadata (exactly
like the staging coordinator's cleanup path), so arming a store on a
zero-fault run perturbs no timings; the *payload* an epoch writes (when
``checkpoint_bytes > 0``) goes through the job's own timed I/O path and
models the classic checkpoint overhead.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.errors import ReproError
from repro.storage.filesystem import FileContent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.builder import ClusterHandle

__all__ = ["CheckpointStore", "checkpointed_compute", "epoch_plan"]


class CheckpointStore:
    """Per-cluster registry of checkpoint artifacts on the PFS.

    Attach one to a built cluster (:meth:`attach`) and the controller's
    failure path cleans partial artifacts of terminally failed /
    cancelled stages, while ``transfer_corrupt`` faults invalidate the
    most recent artifact (forcing its stage back into the frontier).
    """

    ROOT = "/ckpt"

    def __init__(self, ns, root: str = ROOT) -> None:
        self.ns = ns
        self.root = root.rstrip("/") or self.ROOT
        #: manifests kept alongside the namespace artifact for queries.
        self._manifests: Dict[str, Tuple[str, ...]] = {}
        #: every marker created, in creation order (deterministic
        #: invalidation target selection).
        self._mark_log: List[Tuple[str, str]] = []
        #: (key, epoch) -> times the epoch's work actually executed.
        self.epoch_executions: Dict[Tuple[str, int], int] = {}
        # counters for the conditional report table
        self.epochs_marked = 0
        self.epochs_resumed = 0
        self.stages_completed = 0
        self.invalidated = 0
        self.stages_cleaned = 0

    @classmethod
    def attach(cls, handle: "ClusterHandle",
               root: str = ROOT) -> "CheckpointStore":
        """Create a store over the cluster's PFS and attach it to the
        controller (``ctld.checkpoints``)."""
        if handle.pfs is None:
            raise ReproError(
                "checkpointing needs a cluster with a parallel filesystem")
        store = cls(handle.pfs.ns, root=root)
        handle.ctld.checkpoints = store
        return store

    # -- paths ------------------------------------------------------------
    def _dir(self, key: str) -> str:
        return f"{self.root}/{key.strip('/')}"

    def epoch_marker(self, key: str, epoch: int) -> str:
        return f"{self._dir(key)}/epoch{epoch:04d}.ok"

    def payload_path(self, key: str, epoch: int) -> str:
        return f"{self._dir(key)}/epoch{epoch:04d}.ckpt"

    def complete_marker(self, key: str) -> str:
        return f"{self._dir(key)}/COMPLETE"

    def manifest_path(self, key: str) -> str:
        return f"{self._dir(key)}/manifest"

    # -- epoch progress ---------------------------------------------------
    def resume_epoch(self, key: str) -> int:
        """First epoch still to run: consecutive markers from zero."""
        epoch = 0
        while self.ns.exists(self.epoch_marker(key, epoch)):
            epoch += 1
        return epoch

    def mark_epoch(self, key: str, epoch: int) -> None:
        path = self.epoch_marker(key, epoch)
        self.ns.create(path, FileContent.synthesize(
            f"ckpt:{key}:{epoch}", 0))
        self._mark_log.append((key, path))
        self.epochs_marked += 1

    def record_execution(self, key: str, epoch: int) -> None:
        """Count one actual execution of an epoch's work (the
        effectively-once property audits these)."""
        k = (key, epoch)
        self.epoch_executions[k] = self.epoch_executions.get(k, 0) + 1

    def record_resume(self, key: str, epochs_skipped: int) -> None:
        self.epochs_resumed += epochs_skipped

    # -- stage completion -------------------------------------------------
    def mark_complete(self, key: str,
                      datasets: Sequence[str] = ()) -> None:
        """Declare a stage done: manifest of produced datasets + marker.

        Superseded epoch artifacts (markers and payloads) are compacted
        away — the completion marker subsumes them.
        """
        datasets = tuple(datasets)
        self._manifests[key] = datasets
        token = f"manifest:{key}:" + ",".join(datasets)
        self.ns.create(self.manifest_path(key),
                       FileContent.synthesize(token, 0))
        self.ns.create(self.complete_marker(key),
                       FileContent.synthesize(f"complete:{key}", 0))
        self._mark_log.append((key, self.complete_marker(key)))
        self.stages_completed += 1
        epoch = 0
        while self.ns.exists(self.epoch_marker(key, epoch)):
            self.ns.unlink(self.epoch_marker(key, epoch))
            if self.ns.exists(self.payload_path(key, epoch)):
                self.ns.unlink(self.payload_path(key, epoch))
            epoch += 1

    def is_complete(self, key: str) -> bool:
        """Valid completion: marker *and* manifest still present."""
        return self.ns.exists(self.complete_marker(key)) \
            and self.ns.exists(self.manifest_path(key))

    def manifest(self, key: str) -> Tuple[str, ...]:
        return self._manifests.get(key, ())

    # -- invalidation / cleanup -------------------------------------------
    def invalidate_latest(self) -> Optional[str]:
        """Corruption hook: destroy the most recently created artifact
        still present (an epoch marker or a completion marker), pushing
        its stage back into the lost frontier.  Returns the key hit."""
        while self._mark_log:
            key, path = self._mark_log.pop()
            if self.ns.exists(path):
                self.ns.unlink(path)
                self.invalidated += 1
                return key
        return None

    def clear_partial(self, key: str) -> bool:
        """Remove a stage's in-progress artifacts (epoch markers and
        payloads).  Completed stages are left alone — their outputs
        are durable.  Returns True when anything was removed."""
        if self.is_complete(key):
            return False
        removed = False
        epoch = 0
        while True:
            marker = self.epoch_marker(key, epoch)
            payload = self.payload_path(key, epoch)
            found = False
            if self.ns.exists(marker):
                self.ns.unlink(marker)
                found = removed = True
            if self.ns.exists(payload):
                self.ns.unlink(payload)
                found = removed = True
            if not found:
                break
            epoch += 1
        if removed:
            self.stages_cleaned += 1
        return removed

    # -- reporting --------------------------------------------------------
    def rows(self) -> List[tuple]:
        """(metric, value) rows for the report's checkpoint table."""
        reexecuted = sum(n - 1 for n in self.epoch_executions.values()
                         if n > 1)
        return [
            ("epochs marked", self.epochs_marked),
            ("epochs resumed", self.epochs_resumed),
            ("epochs re-executed", reexecuted),
            ("stages completed", self.stages_completed),
            ("artifacts invalidated", self.invalidated),
            ("partial stages cleaned", self.stages_cleaned),
        ]


def epoch_plan(seconds: float, interval: float) -> List[float]:
    """Split a compute duration into checkpoint-epoch chunks.

    Full ``interval`` chunks plus one remainder chunk; ``interval <= 0``
    or an interval covering the whole duration yields a single chunk,
    so a checkpointed zero-fault run's virtual timings telescope to the
    unchunked ones.
    """
    if seconds <= 0:
        return []
    if interval <= 0 or interval >= seconds:
        return [seconds]
    n_full = int(math.ceil(seconds / interval)) - 1
    chunks = [interval] * n_full
    chunks.append(seconds - n_full * interval)
    return chunks


def checkpointed_compute(store: CheckpointStore, key: str, seconds: float,
                         interval: float, payload_bytes: int = 0,
                         pfs_nsid: str = "lustre://"):
    """Build a step program: compute in resumable checkpoint epochs.

    Rank 0 drives the checkpoint protocol: after each epoch's compute
    it writes the epoch payload (timed PFS I/O, only when
    ``payload_bytes > 0``) and then the untimed epoch marker.  On a
    requeue the program consults the store and skips every epoch whose
    marker survived — the job resumes after its last checkpoint instead
    of recomputing the whole stage.
    """
    chunks = epoch_plan(seconds, interval)

    def program(ctx):
        start = store.resume_epoch(key)
        if start and ctx.rank == 0:
            store.record_resume(key, min(start, len(chunks)))
        for epoch, chunk in enumerate(chunks):
            if epoch < start:
                continue
            if ctx.rank == 0:
                store.record_execution(key, epoch)
            yield ctx.compute(chunk)
            if ctx.rank == 0:
                if payload_bytes > 0:
                    yield ctx.write(pfs_nsid,
                                    store.payload_path(key, epoch),
                                    payload_bytes,
                                    token=f"ckpt:{key}:{epoch}")
                store.mark_epoch(key, epoch)
                t = ctx.sim.tracer
                if t is not None:
                    t.instant("workflow", "epoch", track=key,
                              args={"epoch": epoch})

    return program
