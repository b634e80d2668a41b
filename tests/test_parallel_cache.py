"""Process-pool fan-out determinism and the persistent characterization cache.

The acceptance bar for the parallel engine is *bit-identical* output:
the CSV serialization of every performance table must match between a
serial run, a multi-process run, and a warm cache load.  Block sweeps
here are tiny so the whole file stays fast.
"""

import os
from pathlib import Path

import pytest

from repro.clusters import aohyper_config
from repro.core import Methodology, TableCache
from repro.core.pool import map_ordered
from repro.fingerprint import fingerprint
from repro.storage.base import KiB, MiB
from repro.workloads.apps import MadBenchApplication
from repro.workloads.madbench import MadBenchConfig

SMALL_SWEEP = dict(
    block_sizes=(256 * KiB, 1 * MiB),
    char_file_bytes=8 * MiB,
    ior_file_bytes=64 * MiB,
)


def small_methodology(names=("jbod",)):
    return Methodology({n: aohyper_config(n) for n in names}, **SMALL_SWEEP)


def table_csvs(m: Methodology) -> dict:
    return {
        name: {level: t.to_csv() for level, t in tables.items()}
        for name, tables in m.tables.items()
    }


# ----------------------------------------------------------------------
# the ordered map on the process pool
# ----------------------------------------------------------------------
_PARENT_PID = os.getpid()


def _square(x):
    return x * x


def _pid(_x):
    return os.getpid()


def test_map_ordered_preserves_input_order():
    items = list(range(8))
    assert map_ordered(_square, items, n_jobs=1) == [x * x for x in items]
    assert map_ordered(_square, items, n_jobs=2) == [x * x for x in items]


def test_map_ordered_zero_jobs_means_one_per_cpu(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert set(map_ordered(_pid, range(4), n_jobs=0)) == {_PARENT_PID}
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert _PARENT_PID not in map_ordered(_pid, range(4), n_jobs=0)


def test_map_ordered_rejects_negative_jobs():
    with pytest.raises(ValueError, match="n_jobs"):
        map_ordered(_square, [1], n_jobs=-1)


def test_map_ordered_propagates_in_process_exception():
    def boom(_x):
        raise RuntimeError("worker failed")

    with pytest.raises(RuntimeError, match="worker failed") as excinfo:
        map_ordered(boom, [1], n_jobs=1)
    assert excinfo.value.__cause__ is None


_POOL_MODULES = ("multiprocessing", "concurrent.futures")


def test_only_the_pool_module_imports_process_pools():
    import ast

    import repro

    src = Path(repro.__file__).parent
    importers = set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
                names += [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(n == m or n.startswith(m + ".") for n in names for m in _POOL_MODULES):
                importers.add(path.relative_to(src).as_posix())
    assert importers == {"core/pool.py"}


def test_import_repro_does_not_load_multiprocessing():
    import subprocess
    import sys

    probe = "import repro, sys; print(sorted(m for m in sys.modules if m.startswith(%r)))"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    for mod in _POOL_MODULES:
        out = subprocess.run(
            [sys.executable, "-c", probe % mod],
            capture_output=True, text=True, check=True, env=env,
        )
        assert out.stdout.strip() == "[]", out.stdout


# ----------------------------------------------------------------------
# parallel characterization/evaluation determinism
# ----------------------------------------------------------------------
def test_parallel_characterize_bit_identical_to_serial():
    serial = small_methodology()
    serial.characterize(n_jobs=1)
    parallel = small_methodology()
    parallel.characterize(n_jobs=2)
    assert table_csvs(serial) == table_csvs(parallel)


def test_parallel_evaluate_matches_serial():
    m = small_methodology(("jbod", "raid1"))
    m.characterize()
    app = MadBenchApplication(MadBenchConfig(kpix=2, nprocs=4))
    serial = m.evaluate(app, n_jobs=1)
    parallel = m.evaluate(app, n_jobs=2)
    assert list(serial) == list(parallel)
    for name in serial:
        a, b = serial[name], parallel[name]
        assert a.execution_time_s == b.execution_time_s
        assert a.io_time_s == b.io_time_s
        assert a.bytes_written == b.bytes_written
        assert a.bytes_read == b.bytes_read
        assert [
            (r.level, r.op, r.block_bytes, r.app_rate_Bps, r.characterized_Bps)
            for r in a.used.rows
        ] == [
            (r.level, r.op, r.block_bytes, r.app_rate_Bps, r.characterized_Bps)
            for r in b.used.rows
        ]


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
def test_fingerprint_stable_across_calls():
    cfg = aohyper_config("jbod")
    assert cfg.fingerprint() == aohyper_config("jbod").fingerprint()


def test_fingerprint_distinguishes_configs_and_sweeps():
    jbod, raid5 = aohyper_config("jbod"), aohyper_config("raid5")
    assert jbod.fingerprint() != raid5.fingerprint()
    assert fingerprint(jbod, {"blocks": (1, 2)}) != fingerprint(jbod, {"blocks": (1, 4)})


def test_fingerprint_of_plain_values():
    assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})
    assert fingerprint([1, 2]) != fingerprint([2, 1])


# ----------------------------------------------------------------------
# cache round trips
# ----------------------------------------------------------------------
def test_cache_round_trip_identical_tables_and_reports(tmp_path):
    cache = TableCache(tmp_path)
    cold = small_methodology()
    cold.characterize(cache=cache)
    assert len(cache.entries()) == 1

    warm = small_methodology()
    warm.characterize(cache=cache)
    assert table_csvs(cold) == table_csvs(warm)

    app = MadBenchApplication(MadBenchConfig(kpix=2, nprocs=4))
    rc, rw = cold.evaluate(app)["jbod"], warm.evaluate(app)["jbod"]
    assert rc.execution_time_s == rw.execution_time_s
    assert rc.io_time_s == rw.io_time_s
    assert [
        (r.level, r.op, r.block_bytes, r.app_rate_Bps, r.characterized_Bps)
        for r in rc.used.rows
    ] == [
        (r.level, r.op, r.block_bytes, r.app_rate_Bps, r.characterized_Bps)
        for r in rw.used.rows
    ]


def test_cache_warm_load_is_fast(tmp_path):
    import time

    cache = TableCache(tmp_path)
    small_methodology().characterize(cache=cache)
    warm = small_methodology()
    t0 = time.perf_counter()
    warm.characterize(cache=cache)
    assert time.perf_counter() - t0 < 1.0
    assert set(warm.tables["jbod"]) == set(warm.levels)


def test_cache_accepts_directory_path(tmp_path):
    m = small_methodology()
    m.characterize(cache=str(tmp_path))
    assert any(tmp_path.iterdir())


def test_cache_miss_on_different_sweep(tmp_path):
    cache = TableCache(tmp_path)
    small_methodology().characterize(cache=cache)
    other = Methodology(
        {"jbod": aohyper_config("jbod")},
        block_sizes=(512 * KiB,),
        char_file_bytes=8 * MiB,
        ior_file_bytes=64 * MiB,
    )
    other.characterize(cache=cache)
    assert len(cache.entries()) == 2


def test_cache_partial_entry_is_a_miss(tmp_path):
    cache = TableCache(tmp_path)
    m = small_methodology()
    m.characterize(cache=cache)
    key = m.cache_key("jbod", cache)
    # Drop one level's file: the whole entry must be treated as a miss.
    (cache.entry_dir(key) / "jbod_nfs.csv").unlink()
    assert cache.load(key, "jbod", m.levels) is None
    again = small_methodology()
    again.characterize(cache=cache)
    assert table_csvs(again) == table_csvs(m)


def test_cache_refresh_recomputes(tmp_path):
    cache = TableCache(tmp_path)
    m = small_methodology()
    m.characterize(cache=cache)
    key = m.cache_key("jbod", cache)
    poisoned = cache.entry_dir(key) / "jbod_localfs.csv"
    poisoned.write_text("op,block_bytes,access,mode,rate_Bps\n")
    fresh = small_methodology()
    fresh.characterize(cache=cache, refresh=True)
    assert table_csvs(fresh) == table_csvs(m)
    assert poisoned.read_text() != "op,block_bytes,access,mode,rate_Bps\n"


def test_cache_invalidate(tmp_path):
    cache = TableCache(tmp_path)
    m = small_methodology(("jbod", "raid1"))
    m.characterize(cache=cache)
    keys = cache.entries()
    assert len(keys) == 2
    assert cache.invalidate(keys[0]) == 1
    assert cache.invalidate("no-such-key") == 0
    assert cache.invalidate() == 1
    assert cache.entries() == []


def test_save_load_tables_round_trip(tmp_path):
    """The legacy save/load path produces identical evaluation reports."""
    m = small_methodology()
    m.characterize()
    m.save_tables(tmp_path)
    loaded = small_methodology()
    loaded.load_tables(tmp_path)
    app = MadBenchApplication(MadBenchConfig(kpix=2, nprocs=4))
    a = m.evaluate(app)["jbod"]
    b = loaded.evaluate(app)["jbod"]
    assert a.io_time_s == b.io_time_s
    assert [
        (r.level, r.op, r.used_pct) for r in a.used.rows
    ] == [
        (r.level, r.op, r.used_pct) for r in b.used.rows
    ]


# ----------------------------------------------------------------------
# worker-crash recovery
# ----------------------------------------------------------------------
def _fail_in_worker(x):
    """Raises in every pool worker, succeeds in the parent process."""
    if os.getpid() != _PARENT_PID:
        raise RuntimeError("injected worker crash")
    return x * x


def _always_boom(_x):
    raise RuntimeError("genuine failure")


def _crashy_characterize(task):
    if os.getpid() != _PARENT_PID:
        raise RuntimeError("injected worker crash")
    return _ORIG_CHARACTERIZE(task)


def _dies_once_per_level(flag_dir):
    """A characterization unit whose worker process dies on its first
    attempt at each level (one flag file per level)."""

    def unit(task):
        flag = Path(flag_dir) / task[1]
        if os.getpid() != _PARENT_PID and not flag.exists():
            flag.write_text("died")
            os._exit(13)
        return _ORIG_CHARACTERIZE(task)

    return unit


from repro.core.methodology import _characterize_unit as _ORIG_CHARACTERIZE  # noqa: E402


@pytest.fixture
def fast_backoff(monkeypatch):
    import repro.core.pool as pool

    monkeypatch.setattr(pool, "MAP_BACKOFF_S", 0.01)


def test_map_ordered_retry_then_parent_recompute(caplog, fast_backoff):
    import logging

    with caplog.at_level(logging.WARNING, logger="repro.core.pool"):
        out = map_ordered(_fail_in_worker, list(range(6)), n_jobs=2)
    assert out == [x * x for x in range(6)]
    assert "retrying" in caplog.text
    assert "recomputing 6 unit(s) in the parent" in caplog.text


def test_map_ordered_genuine_error_raises_from_parent_recompute(fast_backoff):
    with pytest.raises(RuntimeError, match="genuine failure"):
        map_ordered(_always_boom, [1, 2], n_jobs=2)


def test_characterize_bit_identical_after_worker_crashes(monkeypatch, fast_backoff):
    """Crashed characterization shards must recompute to the exact same
    tables via the retry/parent-recompute path."""
    import repro.core.methodology as meth_mod

    baseline = small_methodology()
    baseline.characterize(n_jobs=1)
    crashy = small_methodology()
    monkeypatch.setattr(meth_mod, "_characterize_unit", _crashy_characterize)
    crashy.characterize(n_jobs=2)
    assert table_csvs(crashy) == table_csvs(baseline)


def test_characterize_bit_identical_after_worker_process_death(
    monkeypatch, tmp_path, fast_backoff
):
    """A worker that dies mid-unit is replaced and the unit retried in
    the pool: tables match a serial run bit for bit."""
    import repro.core.methodology as meth_mod

    baseline = small_methodology()
    baseline.characterize(n_jobs=1)
    dying = small_methodology()
    monkeypatch.setattr(meth_mod, "_characterize_unit", _dies_once_per_level(tmp_path))
    dying.characterize(n_jobs=2)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(dying.levels)
    assert table_csvs(dying) == table_csvs(baseline)


# ----------------------------------------------------------------------
# corrupt cache entries
# ----------------------------------------------------------------------
def test_cache_quarantines_corrupt_entry_and_recomputes(tmp_path, caplog):
    import logging

    cache = TableCache(tmp_path)
    m = small_methodology()
    m.characterize(cache=cache)
    key = m.cache_key("jbod", cache)
    victim = cache.entry_dir(key) / "jbod_localfs.csv"
    victim.write_text(
        "op,block_bytes,access,mode,rate_Bps\nread,notanumber,global,buffered,1\n"
    )
    with caplog.at_level(logging.WARNING, logger="repro.core.tablecache"):
        assert cache.load(key, "jbod", m.levels) is None
    assert "quarantined" in caplog.text
    # the corrupt entry moved aside and no longer counts as cached
    assert any(".corrupt" in p.name for p in tmp_path.iterdir())
    assert key not in cache.entries()
    # recharacterization recomputes bit-identical tables into a fresh entry
    fresh = small_methodology()
    fresh.characterize(cache=cache)
    assert table_csvs(fresh) == table_csvs(m)
    assert key in cache.entries()


def test_cache_quarantine_numbers_duplicate_destinations(tmp_path):
    cache = TableCache(tmp_path)
    for _ in range(2):
        m = small_methodology()
        m.characterize(cache=cache)
        key = m.cache_key("jbod", cache)
        bad = cache.entry_dir(key) / "jbod_localfs.csv"
        bad.write_text("op,block_bytes,access,mode,rate_Bps\nread,x,global,buffered,1\n")
        assert cache.load(key, "jbod", m.levels) is None
    corrupt = [p.name for p in tmp_path.iterdir() if ".corrupt" in p.name]
    assert len(corrupt) == 2


def test_cache_quarantine_race_entry_already_moved(tmp_path, caplog):
    """A peer process that quarantined the same corrupt entry first must
    not make the loser raise — the rename finds nothing and the caller
    just recomputes."""
    import logging

    cache = TableCache(tmp_path)
    m = small_methodology()
    m.characterize(cache=cache)
    key = m.cache_key("jbod", cache)
    entry = cache.entry_dir(key)
    bad = entry / "jbod_localfs.csv"
    bad.write_text("op,block_bytes,access,mode,rate_Bps\nread,x,global,buffered,1\n")
    corrupt_text = bad.read_text()

    import os

    orig_replace = os.replace

    def racing_replace(src, dst):
        # The peer wins the race between our corruption check and rename.
        if str(src) == str(entry):
            orig_replace(entry, entry.with_name(entry.name + ".corrupt"))
        return orig_replace(src, dst)

    with caplog.at_level(logging.WARNING, logger="repro.core.tablecache"):
        import repro.core.tablecache as tc

        saved = tc.os.replace
        tc.os.replace = racing_replace
        try:
            assert cache.load(key, "jbod", m.levels) is None
        finally:
            tc.os.replace = saved
    assert "already quarantined" in caplog.text
    # exactly one quarantined copy exists — the peer's
    moved = [p for p in tmp_path.iterdir() if ".corrupt" in p.name]
    assert len(moved) == 1
    assert (moved[0] / "jbod_localfs.csv").read_text() == corrupt_text


def test_cache_quarantine_race_destination_taken(tmp_path, monkeypatch):
    """If a peer claims the chosen ``.corrupt`` name between the exists
    probe and the rename, quarantine retries the next numbered name."""
    cache = TableCache(tmp_path)
    m = small_methodology()
    m.characterize(cache=cache)
    key = m.cache_key("jbod", cache)
    entry = cache.entry_dir(key)
    (entry / "jbod_localfs.csv").write_text(
        "op,block_bytes,access,mode,rate_Bps\nread,x,global,buffered,1\n"
    )

    import os

    orig_replace = os.replace
    collided = []

    def colliding_replace(src, dst):
        if str(src) == str(entry) and not collided:
            collided.append(dst)
            raise OSError(39, "Directory not empty", str(dst))
        return orig_replace(src, dst)

    import repro.core.tablecache as tc

    monkeypatch.setattr(tc.os, "replace", colliding_replace)
    assert cache.load(key, "jbod", m.levels) is None
    assert collided, "injected collision never hit"
    # the entry still got quarantined, under the next numbered name
    moved = [p.name for p in tmp_path.iterdir() if ".corrupt" in p.name]
    assert moved == [f"{key}.corrupt.1"]


def test_serial_fallback_chains_original_shard_traceback(fast_backoff):
    """When the parent's recompute fails too, the workers' failure
    history must ride along as ``__cause__``."""
    with pytest.raises(RuntimeError, match="genuine failure") as excinfo:
        map_ordered(_always_boom, [1, 2], n_jobs=2)
    cause = excinfo.value.__cause__
    assert isinstance(cause, RuntimeError)
    # both pool attempts' worker tracebacks, not the parent's exception
    assert cause is not excinfo.value
    assert str(cause).count("RuntimeError: genuine failure") == 2
    assert "[error]" in str(cause)
