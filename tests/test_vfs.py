"""VFS mount-table and file-handle tests."""

import pytest

from repro.storage.base import MiB
from repro.storage.vfs import FileHandle


def test_mounts_resolve_by_longest_prefix(system):
    node = system.node("n0")
    vfs = node.vfs
    assert vfs.resolve("/local/x") is system.local_fs["n0"]
    assert vfs.resolve("/nfs/x") is system.nfs_mounts["n0"]


def test_resolve_requires_absolute(system):
    with pytest.raises(ValueError):
        system.node("n0").vfs.resolve("relative")


def test_resolve_unmounted_raises(system):
    with pytest.raises(FileNotFoundError):
        system.node("n0").vfs.resolve("/mnt/none")


def test_duplicate_mount_rejected(system):
    vfs = system.node("n0").vfs
    with pytest.raises(ValueError):
        vfs.mount("/local", system.local_fs["n0"])


def test_open_create_returns_handle(system):
    env = system.env
    vfs = system.node("n0").vfs
    fh = env.run(vfs.create("/local/f"))
    assert isinstance(fh, FileHandle)
    assert fh.path == "/local/f"
    assert fh.size == 0


def test_handle_streaming_cursor(system):
    env = system.env
    vfs = system.node("n0").vfs
    fh = env.run(vfs.create("/local/f"))
    env.run(fh.write(1 * MiB))
    env.run(fh.write(1 * MiB))
    assert fh.pos == 2 * MiB
    assert fh.size == 2 * MiB
    fh.seek(0)
    env.run(fh.read(1 * MiB))
    assert fh.pos == 1 * MiB


def test_handle_positional_io(system):
    env = system.env
    vfs = system.node("n0").vfs
    fh = env.run(vfs.create("/local/f"))
    env.run(fh.pwrite(5 * MiB, 1 * MiB))
    assert fh.size == 6 * MiB
    assert fh.pos == 0  # positional ops leave the cursor alone


def test_seek_negative_rejected(system):
    env = system.env
    fh = env.run(system.node("n0").vfs.create("/local/f"))
    with pytest.raises(ValueError):
        fh.seek(-1)


def test_closed_handle_rejects_io(system):
    env = system.env
    fh = env.run(system.node("n0").vfs.create("/local/f"))
    env.run(fh.close())
    with pytest.raises(ValueError):
        fh.write(1024)


def test_vfs_exists_and_unlink(system):
    env = system.env
    vfs = system.node("n0").vfs
    env.run(vfs.create("/local/f"))
    assert vfs.exists("/local/f")
    env.run(vfs.unlink("/local/f"))
    assert not vfs.exists("/local/f")
    assert not vfs.exists("/mnt/none/x")  # unmounted path is just False


def test_nfs_paths_shared_between_nodes(system):
    env = system.env
    v0 = system.node("n0").vfs
    v1 = system.node("n1").vfs
    env.run(v0.create("/nfs/shared"))
    assert v1.exists("/nfs/shared")


def test_local_paths_are_per_node(system):
    env = system.env
    v0 = system.node("n0").vfs
    v1 = system.node("n1").vfs
    env.run(v0.create("/local/mine"))
    assert not v1.exists("/local/mine")


def test_handle_fsync(system):
    env = system.env
    fh = env.run(system.node("n0").vfs.create("/local/f"))
    env.run(fh.write(1 * MiB))
    env.run(fh.fsync())
    assert system.local_fs["n0"].cache.dirty_segments(fileid=fh.inode.fileid) == []
