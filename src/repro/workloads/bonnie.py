"""bonnie++-like filesystem benchmark.

The paper lists bonnie++ alongside IOzone as an option for
characterizing the global and local filesystem levels.  The model
covers bonnie++'s three classic test families:

* **sequential output** — per-char (small buffered puts), per-block,
  and rewrite (read + dirty + write back);
* **sequential input** — per-char and per-block;
* **random seeks** — the classic ``SeekProcCount`` random 8 KiB
  read(+occasional write) probe, reported in seeks/second.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..storage.base import IORequest, KiB, MiB
from ..clusters.builder import System

__all__ = ["BonnieResult", "run_bonnie"]

_CHAR_CHUNK = 8 * KiB  # stdio buffering makes per-char I/O 8K-ish syscalls
_BLOCK = 1 * MiB
_SEEK_BLOCK = 8 * KiB


@dataclass
class BonnieResult:
    node: str
    path: str
    file_bytes: int
    #: MB/s per test
    putc_Bps: float = 0.0
    write_Bps: float = 0.0
    rewrite_Bps: float = 0.0
    getc_Bps: float = 0.0
    read_Bps: float = 0.0
    seeks_per_s: float = 0.0

    def as_dict(self) -> dict:
        return {
            "putc": self.putc_Bps,
            "write": self.write_Bps,
            "rewrite": self.rewrite_Bps,
            "getc": self.getc_Bps,
            "read": self.read_Bps,
            "seeks": self.seeks_per_s,
        }


def run_bonnie(
    system: System,
    node_name: str,
    path: str,
    file_bytes: int | None = None,
    seek_count: int = 4000,
) -> BonnieResult:
    """Run the benchmark; rates are bytes/second (seeks: ops/second)."""
    env = system.env
    node = system.node(node_name)
    if file_bytes is None:
        file_bytes = 2 * node.spec.ram_bytes
    vfs = node.vfs
    result = BonnieResult(node=node_name, path=path, file_bytes=file_bytes)

    def bench():
        fh = yield vfs.create(path)
        fs, inode = fh.fs, fh.inode
        # -- sequential output, per chr (stdio-buffered 8K chunks) ----
        t0 = env.now
        yield fs.submit(inode, IORequest("write", 0, _CHAR_CHUNK, count=file_bytes // _CHAR_CHUNK))
        yield fh.fsync()
        result.putc_Bps = file_bytes / (env.now - t0)
        # -- sequential output, per block ------------------------------
        t0 = env.now
        yield fs.submit(inode, IORequest("write", 0, _BLOCK, count=file_bytes // _BLOCK))
        yield fh.fsync()
        result.write_Bps = file_bytes / (env.now - t0)
        # -- rewrite: read a block, dirty it, write it back -------------
        t0 = env.now
        nblocks = file_bytes // _BLOCK
        yield fs.submit(inode, IORequest("read", 0, _BLOCK, count=nblocks))
        yield fs.submit(inode, IORequest("write", 0, _BLOCK, count=nblocks))
        yield fh.fsync()
        result.rewrite_Bps = 2 * file_bytes / (env.now - t0)
        # -- sequential input ------------------------------------------------
        t0 = env.now
        yield fs.submit(inode, IORequest("read", 0, _CHAR_CHUNK, count=file_bytes // _CHAR_CHUNK))
        result.getc_Bps = file_bytes / (env.now - t0)
        t0 = env.now
        yield fs.submit(inode, IORequest("read", 0, _BLOCK, count=file_bytes // _BLOCK))
        result.read_Bps = file_bytes / (env.now - t0)
        # -- random seeks -----------------------------------------------------
        t0 = env.now
        yield fs.submit(inode, IORequest("read", 0, _SEEK_BLOCK, count=seek_count, stride=-1))
        # bonnie++ rewrites 10% of the blocks it seeks to
        yield fs.submit(inode, IORequest("write", 0, _SEEK_BLOCK, count=max(seek_count // 10, 1), stride=-1))
        yield fh.fsync()
        result.seeks_per_s = seek_count / (env.now - t0)
        yield fh.close()
        yield vfs.unlink(path)
        return result

    env.run(env.process(bench(), name=f"bonnie@{node_name}"))
    return result
