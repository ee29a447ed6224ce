"""An ordered set of node names for scheduler bookkeeping.

Schedule passes repeatedly (a) test membership, (b) remove allocated
nodes, and (c) iterate candidates in deterministic name order.  A plain
``list`` makes (b) O(n) per removal — O(n²) per pass once many nodes
are allocated — while a plain ``set`` loses the deterministic order
that keeps replay output reproducible.

:class:`OrderedNodeSet` keeps both: a hash set for O(1) membership and
removal, plus a lazily maintained sorted list for ordered views.
Additions insert in place (bisect); removals only mark the cached list
stale, and the next ordered view compacts it with a single O(n) filter
— no re-sort ever happens after construction.

The free-node bookkeeping of :class:`~repro.slurm.policies
.SchedulerState` and of every policy's working copy of it.
"""

from __future__ import annotations

from bisect import insort
from typing import Iterable, Iterator

__all__ = ["OrderedNodeSet"]


class OrderedNodeSet:
    """Sorted set of strings with O(1) membership and removal."""

    __slots__ = ("_members", "_ordered", "_stale")

    def __init__(self, items: Iterable[str] = ()) -> None:
        self._members = set(items)
        self._ordered = sorted(self._members)
        self._stale = 0          # removals not yet compacted out

    # -- set protocol ------------------------------------------------------
    def __contains__(self, item: str) -> bool:
        return item in self._members

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[str]:
        return iter(self.sorted())

    def __bool__(self) -> bool:
        return bool(self._members)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OrderedNodeSet({self.sorted()!r})"

    # -- mutation ----------------------------------------------------------
    def add(self, item: str) -> None:
        if item in self._members:
            return
        if self._stale:
            # Compact first: a stale copy of ``item`` may still sit in
            # the cached list and would otherwise end up duplicated.
            self._compact()
        self._members.add(item)
        insort(self._ordered, item)

    def discard(self, item: str) -> None:
        if item in self._members:
            self._members.remove(item)
            self._stale += 1

    def remove(self, item: str) -> None:
        self._members.remove(item)
        self._stale += 1

    def discard_many(self, items: Iterable[str]) -> None:
        for item in items:
            self.discard(item)

    def update(self, items: Iterable[str]) -> None:
        for item in items:
            self.add(item)

    # -- views -------------------------------------------------------------
    def sorted(self) -> list[str]:
        """The members in name order (a fresh list, safe to mutate)."""
        if self._stale:
            self._compact()
        return list(self._ordered)

    def _compact(self) -> None:
        self._ordered = [n for n in self._ordered if n in self._members]
        self._stale = 0

    def issuperset(self, items: Iterable[str]) -> bool:
        return all(item in self._members for item in items)

    def copy(self) -> "OrderedNodeSet":
        dup = OrderedNodeSet.__new__(OrderedNodeSet)
        dup._members = set(self._members)
        dup._ordered = list(self._ordered)
        dup._stale = self._stale
        return dup

    def as_set(self) -> set[str]:
        return set(self._members)
