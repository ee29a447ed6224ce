"""Exception hierarchy shared by every repro subsystem.

The NORNS paper defines a small set of error conditions surfaced through
its C APIs (``NORNS_E*`` codes); we mirror those as exceptions rooted at
:class:`ReproError` so callers can catch per-subsystem families
(:class:`SimError`, :class:`StorageError`, :class:`NornsError`,
:class:`SlurmError`, ...) or individual conditions.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


# ---------------------------------------------------------------------------
# Simulation kernel
# ---------------------------------------------------------------------------


class SimError(ReproError):
    """Base class for discrete-event simulation kernel errors."""


class SimulationEnded(SimError):
    """Raised when stepping a simulator whose event queue is exhausted."""


class InvalidEventState(SimError):
    """An event was succeeded/failed twice, or yielded after processing."""


class Interrupted(SimError):
    """Raised inside a process that was interrupted by another process.

    Mirrors ``simpy.Interrupt``: ``cause`` carries the interrupter's
    payload.
    """

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Interrupted(cause={self.cause!r})"


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------


class WireError(ReproError):
    """Base class for serialization/deserialization failures."""


class WireDecodeError(WireError):
    """Malformed bytes encountered while decoding a message."""


class WireEncodeError(WireError):
    """A message or field could not be encoded (bad type/range)."""


class UnknownMessageError(WireError):
    """A frame referenced a message type absent from the registry."""


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------


class NetworkError(ReproError):
    """Base class for fabric/RPC errors."""


class AddressLookupError(NetworkError):
    """Mercury NA lookup failed (unknown endpoint)."""


class ConnectionRefused(NetworkError):
    """No listener on the target socket/endpoint."""


class PermissionDenied(NetworkError):
    """Caller lacks permission for the socket or operation.

    Used both by the AF_UNIX socket model (file-system permission bits)
    and by the NORNS request validation layer.
    """


class RpcTimeout(NetworkError):
    """An RPC did not complete within its deadline."""


class DeadlineExceeded(NetworkError):
    """A propagated operation deadline expired (retries included)."""


class PeerUnavailable(NetworkError):
    """Peer marked suspect (open circuit breaker / missed heartbeats).

    Raised *before* any message is sent: the resilience layer fails
    fast instead of letting a caller hang on a partitioned or
    restarting daemon.
    """


# ---------------------------------------------------------------------------
# Storage
# ---------------------------------------------------------------------------


class StorageError(ReproError):
    """Base class for storage-stack errors."""


class NoSuchFile(StorageError):
    """Path does not exist in the namespace (ENOENT)."""


class FileExists(StorageError):
    """Path already exists (EEXIST) where exclusivity was requested."""


class NotADirectory(StorageError):
    """A path component used as a directory is a regular file (ENOTDIR)."""


class IsADirectory(StorageError):
    """File operation attempted on a directory (EISDIR)."""


class NoSpace(StorageError):
    """Device or dataspace capacity exhausted (ENOSPC)."""


class DataCorruption(StorageError):
    """Fingerprint mismatch detected on read-back of synthetic content."""


# ---------------------------------------------------------------------------
# NORNS service
# ---------------------------------------------------------------------------


class NornsError(ReproError):
    """Base class for NORNS service errors (``NORNS_E*`` family)."""


class NornsNotRegistered(NornsError):
    """Calling process/job is not registered with the urd daemon."""


class NornsDataspaceNotFound(NornsError):
    """Referenced dataspace ID is not registered (``NORNS_ENOSUCHNSID``)."""


class NornsDataspaceExists(NornsError):
    """Dataspace ID already registered (``NORNS_ENSIDEXISTS``)."""

class NornsJobNotFound(NornsError):
    """Referenced job is not registered with the daemon."""


class NornsAccessDenied(NornsError):
    """Process may not touch the requested dataspace/resource."""


class NornsTaskError(NornsError):
    """An I/O task failed during execution (``NORNS_ETASKERROR``)."""


class NornsNoPlugin(NornsError):
    """No transfer plugin registered for the (src, dst) resource pair."""


class NornsBusyDataspace(NornsError):
    """Dataspace cannot be unregistered: tasks in flight or data tracked."""


class NornsTimeout(NornsError):
    """``norns_wait`` timed out before task completion."""


class NornsBusy(NornsError):
    """Daemon shed the request (admission queue full or restarting).

    An explicit backpressure signal (``NORNS_EAGAIN``): the request was
    *not* admitted, so resubmitting after a backoff is always safe.
    """


# ---------------------------------------------------------------------------
# Slurm
# ---------------------------------------------------------------------------


class FaultError(ReproError):
    """Malformed fault plan or invalid fault-injection target."""


class SlurmError(ReproError):
    """Base class for scheduler-side errors."""


class ScriptParseError(SlurmError):
    """Malformed ``#SBATCH`` or ``#NORNS`` directive in a batch script."""


class UnknownJob(SlurmError):
    """Job ID not known to slurmctld."""


class UnknownWorkflow(SlurmError):
    """Workflow ID not known to slurmctld."""


class InvalidDependency(SlurmError):
    """Workflow dependency references a missing job or forms a cycle."""


class StagingFailure(SlurmError):
    """A stage-in/stage-out operation failed or timed out.

    ``permanent`` marks a failure found before any copy started (a
    missing source, nothing to stage, a persist ACL denial): retrying
    cannot help, so the job fails at once instead of being requeued.
    """

    def __init__(self, message: str, permanent: bool = False) -> None:
        super().__init__(message)
        self.permanent = permanent
