"""Kernel determinism suite: golden calendar digests.

The simulator has one kernel mode.  Its reference is data, not a second
implementation: ``tests/golden/kernel_digests.json`` records, for each
cell below, the simulated values (table digests, iozone/IOR rows, BT-IO
times, completion clocks) and a sha256 over every calendar push
``(when.hex(), priority)`` of every environment the cell builds.  A
change that moves any calendar entry — its time, its priority or its
order — fails here, even when the tables happen to agree.

Cells: the Aohyper quick characterization tables (iolib/localfs/nfs)
for jbod, raid1 and raid5; all eight iozone workloads and IOR on each
device; BT-IO class S; a RAID 5 and a RAID 10 rebuild beside
foreground reads and writes; and eight synthetic rotation scenarios —
holders time-slicing one resource (plain rotation, a mid-window
arrival, a pivot behind an uncontended prefix, idle suffix resources)
and holders on two uplinks feeding one shared pivot, with and without a
foreign arrival on either level.

The kernel once had four alternative modes (``no_fasthold``,
``no_coalesce``, ``no_fsfast`` and ``analytic``), each a second
implementation promising bit-identical results.  The golden file keeps,
under ``former_modes``, a digest of the values each of them produced
for the characterization, iozone, IOR and BT-IO cells, recorded at the
last tree that had them; the one kernel must still reproduce every one.

The vectorized disk scatter is checked against the scalar per-op loop
it replaces, which stays as its reference.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import random
from pathlib import Path

import pytest

from repro import aohyper_config, characterize_system
from repro.clusters.builder import build_system
from repro.hardware.disk import Disk, DiskSpec, READ, WRITE
from repro.hardware.raid import RAIDArray, RAIDConfig, RAIDLevel
from repro.simengine import Environment
from repro.simengine.bench import _BenchHold
from repro.simengine.core import Timeout
from repro.simengine.resources import Resource
from repro.storage.base import KiB, MiB
from repro.workloads import run_ior, run_iozone
from repro.workloads.btio import BTIOConfig, run_btio
from conftest import SMALL_DISK, small_config

DEVICES = ("jbod", "raid1", "raid5")
ALT_MODES = ("no_fasthold", "no_coalesce", "no_fsfast", "analytic")


# ----------------------------------------------------------------------
# synthetic rotation scenarios on one resource
# ----------------------------------------------------------------------
def _build_plain_rotation(env, times):
    """Four holders time-slicing one resource."""
    res = Resource(env, capacity=1)
    for i in range(4):
        h = _BenchHold(env, [res], 6 * 0.020 + 0.007, 0.020)
        h.result.callbacks.append(lambda ev, i=i: times.append((i, env.now)))


def _build_late_arrival(env, times):
    """A fifth holder arrives in the middle of a rotation."""
    res = Resource(env, capacity=1)
    for i in range(3):
        h = _BenchHold(env, [res], 0.127, 0.020)
        h.result.callbacks.append(lambda ev, i=i: times.append((i, env.now)))

    def late(ev):
        h = _BenchHold(env, [res], 0.053, 0.020)
        h.result.callbacks.append(lambda ev: times.append(("late", env.now)))

    Timeout(env, 0.171).callbacks.append(late)


def _build_prefix_pivot(env, times):
    """Contended resource at member index 1: a held, uncontended prefix
    (capacity 8, never queues) precedes the pivot.  Totals are staggered
    so holders leave the rotation one by one."""
    pre = Resource(env, capacity=8)
    piv = Resource(env, capacity=1)
    for i in range(4):
        h = _BenchHold(env, [pre, piv], 0.107 + 0.060 * i, 0.020)
        h.result.callbacks.append(lambda ev, i=i: times.append((i, env.now)))


def _build_idle_suffix(env, times):
    """Pivot at index 0 with a private suffix resource per member —
    queued members sit with the suffix released."""
    piv = Resource(env, capacity=1)
    for i in range(4):
        suf = Resource(env, capacity=1)
        h = _BenchHold(env, [piv, suf], 0.087, 0.020)
        h.result.callbacks.append(lambda ev, i=i: times.append((i, env.now)))


_RING_SCENARIOS = {
    "plain_rotation": _build_plain_rotation,
    "late_arrival": _build_late_arrival,
    "prefix_pivot": _build_prefix_pivot,
    "idle_suffix": _build_idle_suffix,
}


# ----------------------------------------------------------------------
# synthetic two-level rotation scenarios: two uplinks feeding one pivot
# ----------------------------------------------------------------------
def _build_coupled(env, times, foreign_at=None, foreign_level=None):
    """Four holders on two capacity-1 uplinks all holding one shared
    pivot: the two-level rotation of client uplinks feeding one server
    downlink.  Starts are staggered so the rotation forms mid-way; an
    optional foreign holder arrives mid-rotation on either level."""
    pivot = Resource(env, capacity=1)
    up_a = Resource(env, capacity=1)
    up_c = Resource(env, capacity=1)

    def start(name, res_list, total, at):
        def go(ev):
            h = _BenchHold(env, res_list, total, 0.020)
            h.result.callbacks.append(lambda e, n=name: times.append((n, env.now)))

        if at == 0.0:
            go(None)
        else:
            Timeout(env, at).callbacks.append(go)

    start("A", [up_a, pivot], 0.500, 0.0)
    start("C", [up_c, pivot], 0.450, 0.001)
    start("B", [up_a, pivot], 0.300, 0.002)
    start("D", [up_c, pivot], 0.350, 0.003)
    if foreign_at is not None:
        level = {"pivot": pivot, "uplink_a": up_a, "uplink_c": up_c}[foreign_level]

        def foreign(ev):
            h = _BenchHold(env, [level], 0.040, 0.020)
            h.result.callbacks.append(lambda e: times.append(("foreign", env.now)))

        Timeout(env, foreign_at).callbacks.append(foreign)


_COUPLED_SCENARIOS = {
    "coupled_plain": {},
    "coupled_foreign_pivot": dict(foreign_at=0.137, foreign_level="pivot"),
    "coupled_foreign_uplink_a": dict(foreign_at=0.211, foreign_level="uplink_a"),
    "coupled_foreign_uplink_c": dict(foreign_at=0.093, foreign_level="uplink_c"),
}


# ----------------------------------------------------------------------
# vectorized disk scatter: scalar loop vs numpy, bit-identical
# ----------------------------------------------------------------------
def _assert_disk_twins(d1, d2, t1, t2, case):
    assert t1 == t2, case
    assert d1._head_pos == d2._head_pos, case
    assert (d1._ra_start, d1._ra_end) == (d2._ra_start, d2._ra_end), case
    assert d1.stats.seeks == d2.stats.seeks, case
    assert d1.stats.readahead_hits == d2.stats.readahead_hits, case


def test_scatter_vectorization_bit_identical():
    rng = random.Random(7)
    spec = DiskSpec()
    vec_cases = 0
    overlap_cases = 0
    for trial in range(600):
        env = Environment()
        d1 = Disk(env, DiskSpec())
        d2 = Disk(env, DiskSpec())
        # random prior state: cold, sequential head, a read that leaves
        # a readahead window behind, or a write after such a read
        pre = rng.choice(["none", "seq", "read", "write"])
        near = rng.randrange(0, 10**9)
        if pre == "seq":
            d1._head_pos = near
            d2._head_pos = near
        elif pre in ("read", "write"):
            nb0 = rng.choice([4096, 65536, 1 << 20])
            d1.service_time(READ, near, nb0)
            d2.service_time(READ, near, nb0)
            if pre == "write":
                # lands inside, across or past the readahead window
                woff = near + rng.randrange(0, nb0 + 3 * (1 << 20))
                d1.service_time(WRITE, woff, nb0)
                d2.service_time(WRITE, woff, nb0)
        op = rng.choice([READ, WRITE])
        nbytes = rng.choice([0, 512, 4096, 32768, 65536, 262144, 1 << 20])
        count = rng.randrange(9, 200)
        if nbytes >= 2 and rng.random() < 0.5:
            # overlapping strides (0 < stride < nbytes): page-rounded
            # records closer together than a page, as BT-IO simple's
            # 2,560 B records read through 4 KiB pages
            overlaps = [nbytes - 1, nbytes // 2] + ([2560] if nbytes == 4096 else [])
            stride = rng.choice(overlaps)
        else:
            stride = nbytes + rng.choice(
                [1, 512, 4096, 100_000, 2 * (1 << 20), 127 * max(nbytes, 65536)]
            )
        # start in the prior state's readahead window half of the time
        if rng.random() < 0.5:
            offset = near + rng.randrange(0, 2 * (1 << 20))
        else:
            offset = rng.randrange(0, 10**9)
        if offset + stride * (count - 1) + nbytes > spec.capacity_bytes:
            continue
        vec_cases += 1
        overlap_cases += stride < nbytes
        t_scalar = d1._scatter_time(op, offset, nbytes, count, stride)
        t_vector = d2._scatter_time_vec(op, offset, nbytes, count, stride)
        _assert_disk_twins(d1, d2, t_scalar, t_vector, (trial, op, offset, nbytes, count, stride))
    assert vec_cases > 500, "random parameters barely hit the vector path"
    assert overlap_cases > 200, "random parameters barely drew overlapping strides"


def test_overlapping_stride_takes_vector_path(monkeypatch):
    """BT-IO simple's page-rounded records: 4 KiB reads every 2,560 B
    are served by the vector path, bit-identical to the per-op loop."""
    env = Environment()
    scalar = Disk(env, DiskSpec())
    vector = Disk(env, DiskSpec())
    offset = 123 * 4096
    t_scalar = scalar._scatter_time(READ, offset, 4096, 1024, 2560)

    def refuse(*args):
        raise AssertionError("overlapping stride fell back to the scalar loop")

    monkeypatch.setattr(vector, "_scatter_time", refuse)
    t_vector = vector.service_time(READ, offset, 4096, 1024, 2560)
    _assert_disk_twins(scalar, vector, t_scalar, t_vector, "4096 B every 2560 B")
    assert vector.stats.readahead_hits > 0 and vector.stats.seeks > 0


# ----------------------------------------------------------------------
# golden cells: recorded values plus a digest of every calendar push
# ----------------------------------------------------------------------
GOLDEN_PATH = Path(__file__).with_name("golden") / "kernel_digests.json"


@contextlib.contextmanager
def calendar_digest():
    """Digest every calendar push of every environment built inside.

    Yields a dict that, on exit, holds ``pushes`` (the entry count) and
    ``sha256`` over each push's ``(when.hex(), priority)`` in push order.
    Two runs with equal digests inserted the same calendar keys in the
    same order, so they popped and dispatched identically.
    """
    h = hashlib.sha256()
    pushes = 0

    def attach(env):
        down = env._push

        def push(when, priority, event):
            nonlocal pushes
            pushes += 1
            h.update(f"{float(when).hex()} {priority}\n".encode())
            down(when, priority, event)

        env._push = push

    out: dict = {}
    Environment._init_hooks.append(attach)
    try:
        yield out
    finally:
        Environment._init_hooks.remove(attach)
    out.update(pushes=pushes, sha256=h.hexdigest())


@functools.lru_cache(maxsize=None)
def _golden_characterization(device: str) -> dict:
    with calendar_digest() as cal:
        tables = characterize_system(
            aohyper_config(device),
            block_sizes=(256 * KiB, 1 * MiB),
            file_bytes=8 * MiB,
            ior_nprocs=4,
            ior_file_bytes=64 * MiB,
        )
    return {
        "tables": {
            level: hashlib.sha256(tables[level].to_csv().encode()).hexdigest()
            for level in sorted(tables)
        },
        "calendar": cal,
    }


@functools.lru_cache(maxsize=None)
def _golden_iozone(device: str) -> dict:
    with calendar_digest() as cal:
        system = build_system(Environment(), small_config(device))
        res = run_iozone(
            system, "n0", "/local/z", file_bytes=16 * MiB,
            block_sizes=(256 * KiB,), include_strided=True, include_random=True,
        )
    return {"rows": [[r.test, r.rate_Bps] for r in res.rows], "calendar": cal}


@functools.lru_cache(maxsize=None)
def _golden_ior(device: str) -> dict:
    with calendar_digest() as cal:
        system = build_system(Environment(), small_config(device, n_compute=2))
        res = run_ior(system, 4, block_sizes=(1 * MiB,), file_bytes=8 * MiB)
    return {
        "rows": [[r.op, r.aggregate_rate_Bps, r.elapsed_s] for r in res.rows],
        "calendar": cal,
    }


@functools.lru_cache(maxsize=None)
def _golden_btio(device: str) -> dict:
    with calendar_digest() as cal:
        system = build_system(Environment(), small_config(device, n_compute=2))
        res = run_btio(
            system, BTIOConfig(clazz="S", nprocs=4, subtype="full", path="/nfs/bt")
        )
    return {
        "times": [res.execution_time, res.io_time, res.write_time, res.read_time],
        "calendar": cal,
    }


def _golden_scenario(build) -> dict:
    times: list = []
    with calendar_digest() as cal:
        env = Environment()
        build(env, times)
        env.run()
    return {"completions": [list(t) for t in times], "calendar": cal}


#: name -> (level, members, failed member)
_DEGRADED_CELLS = {
    "raid5_rebuild": (RAIDLevel.RAID5, 5, 1),
    "raid10_rebuild": (RAIDLevel.RAID10, 4, 0),
}

#: foreground traffic of a degraded cell: (tag, start, op, offset,
#: nbytes, count, stride, cached)
_DEGRADED_FOREGROUND = (
    ("seq_read", 0.0, READ, 0, 1 * MiB, 8, None, True),
    ("cached_write", 0.0, WRITE, 64 * MiB, 1 * MiB, 12, None, True),
    ("strided_read", 0.013, READ, 8 * MiB, 4 * KiB, 64, 96 * KiB, True),
    ("direct_write", 0.021, WRITE, 200 * MiB, 512 * KiB, 6, None, False),
    ("strided_write", 0.040, WRITE, 32 * MiB, 8 * KiB, 40, 1 * MiB, False),
    ("late_read", 0.150, READ, 300 * MiB, 2 * MiB, 3, None, True),
)


@functools.lru_cache(maxsize=None)
def _golden_degraded(name: str) -> dict:
    """A rate-capped rebuild of one failed member while foreground reads
    and writes (cached ones through the controller write-back cache)
    queue on the same member heads."""
    level, ndisks, failed = _DEGRADED_CELLS[name]
    times: list = []
    with calendar_digest() as cal:
        env = Environment()
        arr = RAIDArray(
            env, RAIDConfig(level=level, ndisks=ndisks, disk=SMALL_DISK, cache_bytes=8 * MiB)
        )
        arr.fail_disk(failed)
        rebuild = arr.start_rebuild(failed, rebuild_bytes=24 * MiB, rate_Bps=96 * MiB)
        rebuild.callbacks.append(lambda ev: times.append(["rebuild", ev.value, env.now]))

        def foreground(tag, at, op, offset, nbytes, count, stride, cached):
            if at:
                yield env.timeout(at)
            yield arr.submit(op, offset, nbytes, count, stride, cached=cached)
            times.append([tag, env.now])

        for args in _DEGRADED_FOREGROUND:
            env.process(foreground(*args))
        env.run()
    return {
        "completions": times,
        "rebuild_stats": dataclasses.asdict(arr.rebuild_stats),
        "calendar": cal,
    }


_GOLDEN_SCENARIOS = {
    **_RING_SCENARIOS,
    **{
        name: functools.partial(_build_coupled, **kwargs)
        for name, kwargs in _COUPLED_SCENARIOS.items()
    },
}


def _golden_cells() -> dict:
    """Every golden cell, computed now in the shipped kernel mode."""
    return {
        "characterization": {d: _golden_characterization(d) for d in DEVICES},
        "iozone": {d: _golden_iozone(d) for d in DEVICES},
        "ior": {d: _golden_ior(d) for d in DEVICES},
        "btio": {"jbod": _golden_btio("jbod")},
        "scenarios": {n: _golden_scenario(b) for n, b in sorted(_GOLDEN_SCENARIOS.items())},
        "degraded": {n: _golden_degraded(n) for n in _DEGRADED_CELLS},
    }


@functools.lru_cache(maxsize=None)
def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("device", DEVICES)
def test_characterization_matches_golden(device):
    assert _golden_characterization(device) == _golden()["characterization"][device]


@pytest.mark.parametrize("device", DEVICES)
def test_iozone_eight_workloads_match_golden(device):
    got = _golden_iozone(device)
    assert len({test for test, _ in got["rows"]}) == 8
    assert got == _golden()["iozone"][device]


@pytest.mark.parametrize("device", DEVICES)
def test_ior_matches_golden(device):
    assert _golden_ior(device) == _golden()["ior"][device]


def test_btio_matches_golden():
    assert _golden_btio("jbod") == _golden()["btio"]["jbod"]


@pytest.mark.parametrize("name", sorted(_GOLDEN_SCENARIOS))
def test_scenario_matches_golden(name):
    got = _golden_scenario(_GOLDEN_SCENARIOS[name])
    assert got["completions"], "scenario completed no holders"
    assert got == _golden()["scenarios"][name]


@pytest.mark.parametrize("name", list(_DEGRADED_CELLS))
def test_degraded_rebuild_matches_golden(name):
    got = _golden_degraded(name)
    assert ["rebuild", "rebuilt"] in [c[:2] for c in got["completions"]]
    assert len(got["completions"]) == len(_DEGRADED_FOREGROUND) + 1
    assert got["rebuild_stats"]["completed"] == 1
    assert got == _golden()["degraded"][name]


# ----------------------------------------------------------------------
# former kernel modes: the one kernel reproduces what each produced
# ----------------------------------------------------------------------
def _values_sha256(cell: dict) -> str:
    """Digest of a cell's simulated values: everything but the calendar."""
    values = {k: v for k, v in cell.items() if k != "calendar"}
    return hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()


def _former_mode(mode: str, cell: str) -> str:
    return _golden()["former_modes"][mode][cell]


@pytest.mark.parametrize("mode", ALT_MODES)
@pytest.mark.parametrize("device", DEVICES)
def test_characterization_tables_bit_identical(device, mode):
    got = _golden_characterization(device)
    assert _values_sha256(got) == _former_mode(mode, f"characterization/{device}")


@pytest.mark.parametrize("mode", ALT_MODES)
@pytest.mark.parametrize("device", DEVICES)
def test_iozone_eight_workloads_bit_identical(device, mode):
    got = _golden_iozone(device)
    assert len({test for test, _ in got["rows"]}) == 8
    assert _values_sha256(got) == _former_mode(mode, f"iozone/{device}")


@pytest.mark.parametrize("mode", ALT_MODES)
@pytest.mark.parametrize("device", DEVICES)
def test_ior_bit_identical(device, mode):
    assert _values_sha256(_golden_ior(device)) == _former_mode(mode, f"ior/{device}")


@pytest.mark.parametrize("mode", ALT_MODES)
def test_btio_bit_identical(mode):
    assert _values_sha256(_golden_btio("jbod")) == _former_mode(mode, "btio/jbod")


def _dump_golden(cells: dict) -> str:
    """The golden file's layout: one line per cell, so a changed cell
    shows up as a one-line diff."""
    kinds = []
    for kind, group in cells.items():
        rows = ",\n".join(f"  {json.dumps(n)}: {json.dumps(c)}" for n, c in group.items())
        kinds.append(f" {json.dumps(kind)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(kinds) + "\n}\n"


if __name__ == "__main__":
    # regenerate the golden file: PYTHONPATH=src python tests/test_kernel_determinism.py
    # former_modes records implementations that no longer exist, so it is
    # carried over as written rather than recomputed
    cells = _golden_cells()
    cells["former_modes"] = _golden()["former_modes"]
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(_dump_golden(cells))
