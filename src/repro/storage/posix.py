"""A mounted local filesystem: namespace + device + page-cache model.

This is what a NORNS dataspace like ``nvme0://`` or ``tmp0://`` sits on
top of.  Reads and writes are timed through the backing device's flow
constraints; an optional write-through page cache serves re-reads of
recently written data at memory speed, reproducing the cache effects the
paper's methodology explicitly sizes its IOR files to defeat ("file
sizes were chosen to be large enough to fill the node's memory").
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.errors import DataCorruption, NoSpace, NoSuchFile
from repro.sim.core import Event, Simulator
from repro.sim.flows import CapacityConstraint
from repro.storage.device import BlockDevice
from repro.storage.filesystem import FileContent, Namespace, normalize

__all__ = ["Mount"]


class _PageCache:
    """Byte-budget LRU of fully cached files (whole-file granularity)."""

    def __init__(self, capacity: float) -> None:
        self.capacity = float(capacity)
        self._entries: OrderedDict[str, int] = OrderedDict()
        self._used = 0.0

    def insert(self, path: str, size: int) -> None:
        if size > self.capacity:
            return  # cannot cache something bigger than memory
        self.evict(path)
        while self._used + size > self.capacity and self._entries:
            _old, old_size = self._entries.popitem(last=False)
            self._used -= old_size
        self._entries[path] = size
        self._used += size

    def hit(self, path: str, size: int) -> bool:
        cached = self._entries.get(path)
        if cached is None or cached != size:
            return False
        self._entries.move_to_end(path)
        return True

    def evict(self, path: str) -> None:
        size = self._entries.pop(path, None)
        if size is not None:
            self._used -= size

    @property
    def used(self) -> float:
        return self._used


class Mount:
    """One mounted filesystem instance on a node."""

    def __init__(self, sim: Simulator, device: BlockDevice, name: str = "",
                 page_cache_bytes: float = 0.0,
                 membus: Optional[CapacityConstraint] = None) -> None:
        self.sim = sim
        self.device = device
        self.name = name or device.name
        self.ns = Namespace()
        self.membus = membus
        self._cache = _PageCache(page_cache_bytes) if page_cache_bytes > 0 else None

    # -- write ------------------------------------------------------------
    def write_file(self, path: str, size: int, token: Optional[str] = None,
                   extra_constraints=(), rate_cap=None,
                   content: Optional[FileContent] = None) -> Event:
        """Write a synthetic file; event yields its :class:`FileContent`.

        Space is reserved up front (failing fast with :class:`NoSpace`);
        the namespace entry appears only once the last byte lands, so
        concurrent readers cannot observe half-written files.  Passing
        ``content`` preserves an existing fingerprint — that is how a
        *copy* stays verifiable end-to-end.
        """
        path = normalize(path)
        if content is not None:
            size = content.size
        done = self.sim.event(name=f"{self.name}:write:{path}")
        old_size = self.ns.lookup(path).size if self.ns.exists(path) else 0
        try:
            if size > old_size:
                self.device.allocate(size - old_size)
        except NoSpace as e:
            done.fail(e)
            return done
        if content is None:
            content = FileContent.synthesize(token or f"{self.name}:{path}", size)
        io = self.device.write(size, extra_constraints=extra_constraints,
                               rate_cap=rate_cap, label=f"write:{path}")

        def finish(ev: Event) -> None:
            if not ev.ok:
                if size > old_size:
                    self.device.release(size - old_size)
                done.fail(ev.value)
                return
            if size < old_size:
                self.device.release(old_size - size)
            self.ns.create(path, content)
            if self._cache is not None:
                self._cache.insert(path, size)
            done.succeed(content)

        io.add_callback(finish)
        return done

    # -- read ---------------------------------------------------------------
    def read_file(self, path: str, expect: Optional[FileContent] = None,
                  extra_constraints=(), rate_cap=None) -> Event:
        """Read a whole file; event yields its :class:`FileContent`.

        A page-cache hit is served through the node's memory bus instead
        of the device.  ``expect`` enables end-to-end verification: a
        mismatch fails the event with :class:`DataCorruption`.
        """
        path = normalize(path)
        done = self.sim.event(name=f"{self.name}:read:{path}")
        try:
            content = self.ns.lookup(path)
        except NoSuchFile as e:
            done.fail(e)
            return done
        if expect is not None and not content.verify_against(expect):
            done.fail(DataCorruption(
                f"{path}: expected {expect}, found {content}"))
            return done

        cached = self._cache is not None and self._cache.hit(path, content.size)
        if cached:
            constraints = ((self.membus, *extra_constraints)
                           if self.membus is not None
                           else tuple(extra_constraints))
            io = self.device.flows.transfer(content.size, constraints,
                                            rate_cap, label=f"cached:{path}")
        else:
            io = self.device.read(content.size,
                                  extra_constraints=extra_constraints,
                                  rate_cap=rate_cap, label=f"read:{path}")

        def finish(ev: Event) -> None:
            if not ev.ok:
                done.fail(ev.value)
                return
            if not cached and self._cache is not None:
                self._cache.insert(path, content.size)
            done.succeed(content)

        io.add_callback(finish)
        return done

    # -- metadata ---------------------------------------------------------------
    def delete(self, path: str) -> FileContent:
        """Unlink; returns the removed content (space freed immediately)."""
        content = self.ns.unlink(normalize(path))
        self.device.release(content.size)
        if self._cache is not None:
            self._cache.evict(normalize(path))
        return content

    def exists(self, path: str) -> bool:
        return self.ns.exists(path)

    def stat(self, path: str) -> FileContent:
        return self.ns.lookup(path)

    def used_bytes(self) -> float:
        return self.device.used

    def is_empty(self, path: str = "/") -> bool:
        return self.ns.is_empty(path)
