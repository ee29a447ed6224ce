"""Pure-metadata filesystem namespace with synthetic file contents.

Files carry a :class:`FileContent` — ``(size, fingerprint)`` — instead
of bytes, so the 100 GB producer/consumer datasets of Table III cost a
few machine words.  The fingerprint is deterministic in the producing
seed, travels with every copy, and is checked on read-back, which keeps
end-to-end corruption/truncation detectable exactly where a real system
would checksum.

The namespace itself is an ordinary tree with POSIX-flavoured semantics
(mkdir -p, unlink, rename, listing); all *timing* lives in the mounts
and PFS layered above.
"""

from __future__ import annotations

import posixpath
import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Union

from repro.errors import (
    FileExists, IsADirectory, NoSuchFile, NotADirectory, StorageError,
)

__all__ = ["FileContent", "Namespace", "fingerprint_of", "normalize"]


def fingerprint_of(token: str, size: int) -> int:
    """Deterministic content fingerprint for a synthetic file."""
    return zlib.crc32(f"{token}:{size}".encode("utf-8"))


def normalize(path: str) -> str:
    """Canonical absolute form: leading slash, no '.', '..' or dup '/'."""
    if not path or path == "/":
        return "/"
    norm = posixpath.normpath("/" + path.strip().lstrip("/"))
    return norm


@dataclass(frozen=True)
class FileContent:
    """What a file 'contains': a size and a checksum-like fingerprint."""

    size: int
    fingerprint: int

    @staticmethod
    def synthesize(token: str, size: int) -> "FileContent":
        if size < 0:
            raise StorageError(f"negative file size {size}")
        return FileContent(size=int(size), fingerprint=fingerprint_of(token, int(size)))

    def verify_against(self, other: "FileContent") -> bool:
        return self.size == other.size and self.fingerprint == other.fingerprint


class _Dir:
    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: Dict[str, Union["_Dir", FileContent]] = {}


class Namespace:
    """An in-memory directory tree mapping paths to :class:`FileContent`."""

    def __init__(self) -> None:
        self._root = _Dir()

    # -- traversal helpers ---------------------------------------------------
    def _walk(self, path: str, create_dirs: bool = False) -> tuple[_Dir, str]:
        """Return ``(parent_dir, leaf_name)`` for ``path``."""
        norm = normalize(path)
        if norm == "/":
            raise IsADirectory("/")
        parts = norm.strip("/").split("/")
        node = self._root
        for comp in parts[:-1]:
            child = node.entries.get(comp)
            if child is None:
                if not create_dirs:
                    raise NoSuchFile(f"missing directory component {comp!r} in {path!r}")
                child = _Dir()
                node.entries[comp] = child
            if isinstance(child, FileContent):
                raise NotADirectory(f"{comp!r} in {path!r} is a file")
            node = child
        return node, parts[-1]

    def _resolve_dir(self, path: str) -> _Dir:
        norm = normalize(path)
        if norm == "/":
            return self._root
        node = self._root
        for comp in norm.strip("/").split("/"):
            child = node.entries.get(comp)
            if child is None:
                raise NoSuchFile(path)
            if isinstance(child, FileContent):
                raise NotADirectory(path)
            node = child
        return node

    # -- operations -----------------------------------------------------------
    def mkdir(self, path: str, parents: bool = True) -> None:
        norm = normalize(path)
        if norm == "/":
            return
        parent, leaf = self._walk(norm, create_dirs=parents)
        existing = parent.entries.get(leaf)
        if existing is None:
            parent.entries[leaf] = _Dir()
        elif isinstance(existing, FileContent):
            raise FileExists(f"{path!r} exists as a file")
        # existing directory: mkdir -p semantics, fine.

    def create(self, path: str, content: FileContent,
               overwrite: bool = True) -> None:
        parent, leaf = self._walk(path, create_dirs=True)
        existing = parent.entries.get(leaf)
        if isinstance(existing, _Dir):
            raise IsADirectory(path)
        if existing is not None and not overwrite:
            raise FileExists(path)
        parent.entries[leaf] = content

    def lookup(self, path: str) -> FileContent:
        parent, leaf = self._walk(path)
        entry = parent.entries.get(leaf)
        if entry is None:
            raise NoSuchFile(path)
        if isinstance(entry, _Dir):
            raise IsADirectory(path)
        return entry

    def exists(self, path: str) -> bool:
        try:
            self.lookup(path)
            return True
        except (NoSuchFile, NotADirectory):
            return False
        except IsADirectory:
            return True

    def is_dir(self, path: str) -> bool:
        try:
            self._resolve_dir(path)
            return True
        except (NoSuchFile, NotADirectory):
            return False

    def unlink(self, path: str) -> FileContent:
        parent, leaf = self._walk(path)
        entry = parent.entries.get(leaf)
        if entry is None:
            raise NoSuchFile(path)
        if isinstance(entry, _Dir):
            raise IsADirectory(path)
        del parent.entries[leaf]
        return entry

    def rmdir(self, path: str, recursive: bool = False) -> int:
        """Remove a directory; returns bytes released."""
        norm = normalize(path)
        if norm == "/":
            raise StorageError("refusing to remove /")
        parent, leaf = self._walk(norm)
        entry = parent.entries.get(leaf)
        if entry is None:
            raise NoSuchFile(path)
        if isinstance(entry, FileContent):
            raise NotADirectory(path)
        if entry.entries and not recursive:
            raise StorageError(f"directory {path!r} not empty")
        released = sum(c.size for _p, c in self._iter_files(entry, norm))
        del parent.entries[leaf]
        return released

    def rename(self, src: str, dst: str) -> None:
        nsrc, ndst = normalize(src), normalize(dst)
        if ndst == nsrc or ndst.startswith(nsrc.rstrip("/") + "/"):
            if ndst == nsrc:
                return  # rename onto itself: no-op
            # POSIX rename(dir, subdir-of-itself) fails with EINVAL.
            raise StorageError(f"cannot move {src!r} into itself ({dst!r})")
        parent, leaf = self._walk(src)
        entry = parent.entries.get(leaf)
        if entry is None:
            raise NoSuchFile(src)
        dparent, dleaf = self._walk(dst, create_dirs=True)
        dexisting = dparent.entries.get(dleaf)
        if isinstance(dexisting, _Dir):
            raise IsADirectory(dst)
        if isinstance(entry, _Dir) and isinstance(dexisting, FileContent):
            # POSIX rename(dir, file) fails with ENOTDIR.
            raise NotADirectory(dst)
        del parent.entries[leaf]
        dparent.entries[dleaf] = entry

    # -- aggregate views ----------------------------------------------------
    def _iter_files(self, node: _Dir, prefix: str) -> Iterator[tuple[str, FileContent]]:
        for name, entry in sorted(node.entries.items()):
            full = f"{prefix.rstrip('/')}/{name}"
            if isinstance(entry, FileContent):
                yield full, entry
            else:
                yield from self._iter_files(entry, full)

    def walk_files(self, path: str = "/") -> Iterator[tuple[str, FileContent]]:
        """Yield ``(path, content)`` for every file under ``path``."""
        yield from self._iter_files(self._resolve_dir(path), normalize(path))

    def total_bytes(self, path: str = "/") -> int:
        return sum(c.size for _p, c in self.walk_files(path))

    def file_count(self, path: str = "/") -> int:
        return sum(1 for _ in self.walk_files(path))

    def is_empty(self, path: str = "/") -> bool:
        """True when no files exist under ``path`` (dirs ignored).

        This implements the paper's *tracked dataspace* check: Slurm asks
        NORNS whether a dataspace still holds data before releasing a
        node.
        """
        return self.file_count(path) == 0
