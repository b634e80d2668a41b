"""Per-node VFS: mount table and file handles.

Gives workloads one uniform, path-based API over whichever
filesystems a node mounts (its local ext4-like FS, an NFS mount of
the I/O node, ...).  Longest-prefix mount resolution, like a real
mount table.
"""

from __future__ import annotations

from typing import Optional, Union

from ..simengine import Environment, Event, FlatOp
from .base import IORequest
from .localfs import Inode, LocalFS
from .nfs import NFSMount

__all__ = ["VFS", "FileHandle"]

Filesystem = Union[LocalFS, NFSMount]


class FileHandle:
    """An open file; thin convenience over ``fs.submit``.

    Tracks a cursor so workloads can mix positional and streaming
    access, and counts the operations it carried (used by the tracer).
    """

    def __init__(self, vfs: "VFS", fs: Filesystem, inode: Inode, path: str):
        self.vfs = vfs
        self.fs = fs
        self.inode = inode
        self.path = path
        self.pos = 0
        self.closed = False

    # -- positional ----------------------------------------------------
    def pread(self, offset: int, nbytes: int, count: int = 1, stride: Optional[int] = None) -> Event:
        return self._submit(IORequest("read", offset, nbytes, count, stride))

    def pwrite(self, offset: int, nbytes: int, count: int = 1, stride: Optional[int] = None) -> Event:
        return self._submit(IORequest("write", offset, nbytes, count, stride))

    # -- streaming -----------------------------------------------------
    def read(self, nbytes: int, count: int = 1) -> Event:
        ev = self.pread(self.pos, nbytes, count)
        self.pos += nbytes * count
        return ev

    def write(self, nbytes: int, count: int = 1) -> Event:
        ev = self.pwrite(self.pos, nbytes, count)
        self.pos += nbytes * count
        return ev

    def seek(self, offset: int) -> None:
        if offset < 0:
            raise ValueError("negative seek")
        self.pos = offset

    def _submit(self, req: IORequest) -> Event:
        if self.closed:
            raise ValueError(f"I/O on closed file {self.path!r}")
        return self.fs.submit(self.inode, req)

    def fsync(self) -> Event:
        return self.fs.fsync(self.inode)

    def close(self) -> Event:
        self.closed = True
        return self.fs.close(self.inode)

    @property
    def size(self) -> int:
        return self.inode.size


class VFS:
    """A node's mount table."""

    def __init__(self, env: Environment, name: str = "vfs"):
        self.env = env
        self.name = name
        self._mounts: dict[str, Filesystem] = {}

    def mount(self, prefix: str, fs: Filesystem) -> None:
        if not prefix.startswith("/"):
            raise ValueError("mount prefix must be absolute")
        prefix = prefix.rstrip("/") or "/"
        if prefix in self._mounts:
            raise ValueError(f"{prefix!r} already mounted")
        self._mounts[prefix] = fs

    def resolve(self, path: str) -> Filesystem:
        """Longest-prefix match of ``path`` against the mount table."""
        if not path.startswith("/"):
            raise ValueError("paths must be absolute")
        best = None
        best_len = -1
        for prefix, fs in self._mounts.items():
            if path == prefix or path.startswith(prefix if prefix == "/" else prefix + "/"):
                if len(prefix) > best_len:
                    best, best_len = fs, len(prefix)
        if best is None:
            raise FileNotFoundError(f"no filesystem mounted for {path!r}")
        return best

    def mounts(self) -> dict[str, Filesystem]:
        return dict(self._mounts)

    # -- convenience ----------------------------------------------------
    def open(self, path: str, create: bool = False) -> Event:
        """Open (optionally creating); event value is a :class:`FileHandle`."""
        return _VFSOpen(self, self.resolve(path), path, create=create).result

    def create(self, path: str) -> Event:
        return _VFSOpen(self, self.resolve(path), path, create=None).result

    def unlink(self, path: str) -> Event:
        return self.resolve(path).unlink(path)

    def exists(self, path: str) -> bool:
        try:
            return self.resolve(path).exists(path)
        except FileNotFoundError:
            return False

    def stat(self, path: str) -> Inode:
        return self.resolve(path).stat(path)


class _VFSOpen(FlatOp):
    """:meth:`VFS.open` / :meth:`VFS.create`: resolve the inode on the
    mounted filesystem and wrap it in a :class:`FileHandle`
    (``create=None`` means the create path)."""

    __slots__ = ("vfs", "fs", "path", "create")

    def __init__(self, vfs, fs, path, create):
        self.vfs = vfs
        self.fs = fs
        self.path = path
        self.create = create
        super().__init__(vfs.env)

    def _start(self, _v):
        if self.create is None:
            self._await(self.fs.create(self.path), self._opened)
        else:
            self._await(self.fs.open(self.path, create=self.create), self._opened)

    def _opened(self, inode):
        self._finish(FileHandle(self.vfs, self.fs, inode, self.path))
