"""Per-job accounting records (sacct analogue).

Records the phase structure the paper's evaluation reports: stage-in
time, compute time, stage-out time, and bytes staged — the raw material
for Tables III–V.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["JobRecord", "AccountingLog"]


@dataclass
class JobRecord:
    """The accounting row of one job."""

    job_id: int
    name: str
    user: str
    nodes: tuple[str, ...] = ()
    state: str = ""
    workflow_id: Optional[int] = None
    submit_time: float = 0.0
    alloc_time: Optional[float] = None
    start_time: Optional[float] = None     # compute start (post stage-in)
    end_time: Optional[float] = None
    stage_in_seconds: float = 0.0
    stage_out_seconds: float = 0.0
    #: the urd's E.T.A. for each staging phase at submission time —
    #: comparing against the actual elapsed time scores the paper's
    #: transfer-rate-monitoring feedback channel.
    stage_in_eta_seconds: float = 0.0
    stage_out_eta_seconds: float = 0.0
    bytes_staged_in: int = 0
    bytes_staged_out: int = 0
    #: times the job was knocked back to PENDING (node failure or a
    #: fault-induced staging/step failure) and rescheduled.
    requeues: int = 0
    #: the job failed because a knockout found its requeue budget spent
    #: (true even when the budget was zero and it never requeued).
    fault_failed: bool = False
    warnings: List[str] = field(default_factory=list)

    @property
    def run_seconds(self) -> Optional[float]:
        if self.start_time is None or self.end_time is None:
            return None
        return (self.end_time - self.start_time
                - self.stage_out_seconds)

    @property
    def wait_seconds(self) -> Optional[float]:
        if self.alloc_time is None:
            return None
        return self.alloc_time - self.submit_time

    @property
    def total_seconds(self) -> Optional[float]:
        if self.alloc_time is None or self.end_time is None:
            return None
        return self.end_time - self.alloc_time


class AccountingLog:
    """Append-only record store with simple queries."""

    def __init__(self) -> None:
        self._records: Dict[int, JobRecord] = {}

    def record_for(self, job_id: int, name: str = "", user: str = "") -> JobRecord:
        rec = self._records.get(job_id)
        if rec is None:
            rec = JobRecord(job_id=job_id, name=name, user=user)
            self._records[job_id] = rec
        return rec

    def get(self, job_id: int) -> Optional[JobRecord]:
        return self._records.get(job_id)

    def records(self) -> List[JobRecord]:
        return [self._records[k] for k in sorted(self._records)]

    def by_name(self, name: str) -> List[JobRecord]:
        return [r for r in self.records() if r.name == name]
