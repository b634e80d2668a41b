"""Parallel fan-out determinism and the persistent characterization cache.

The acceptance bar for the parallel engine is *bit-identical* output:
the CSV serialization of every performance table must match between a
serial run, a multi-process run, and a warm cache load.  Block sweeps
here are tiny so the whole file stays fast.
"""

import pytest

from repro.clusters import aohyper_config
from repro.core import Methodology, TableCache, resolve_jobs, run_tasks
from repro.core.parallel import resolve_jobs as resolve_jobs_direct
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
# job-count resolution
# ----------------------------------------------------------------------
def test_resolve_jobs_defaults_to_serial(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs() == 1


def test_resolve_jobs_env_var(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert resolve_jobs() == 3


def test_resolve_jobs_explicit_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert resolve_jobs(2) == 2


def test_resolve_jobs_zero_means_all_cpus(monkeypatch):
    import os

    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(0) == (os.cpu_count() or 1)


def test_resolve_jobs_rejects_negative_and_garbage(monkeypatch):
    with pytest.raises(ValueError):
        resolve_jobs(-1)
    monkeypatch.setenv("REPRO_JOBS", "many")
    with pytest.raises(ValueError):
        resolve_jobs_direct()


def _square(x):  # module-level so it pickles into workers
    return x * x


def test_run_tasks_preserves_input_order():
    items = list(range(8))
    assert run_tasks(_square, items, n_jobs=1) == [x * x for x in items]
    assert run_tasks(_square, items, n_jobs=2) == [x * x for x in items]


def test_run_tasks_propagates_worker_exception():
    def boom(_x):
        raise RuntimeError("worker failed")

    with pytest.raises(RuntimeError):
        run_tasks(boom, [1], n_jobs=1)


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
_PARENT_PID = __import__("os").getpid()


def _fail_in_worker(x):
    """Raises in every pool worker, succeeds in the parent process."""
    import os

    if os.getpid() != _PARENT_PID:
        raise RuntimeError("injected worker crash")
    return x * x


def _always_boom(_x):
    raise RuntimeError("genuine failure")


def _crashy_characterize(task):
    import os

    if os.getpid() != _PARENT_PID:
        raise RuntimeError("injected worker crash")
    return _ORIG_CHARACTERIZE(task)


from repro.core.methodology import _characterize_unit as _ORIG_CHARACTERIZE  # noqa: E402


def test_run_tasks_crash_retries_then_serial_fallback(caplog, monkeypatch):
    import logging

    import repro.core.parallel as par

    monkeypatch.setattr(par, "RETRY_BACKOFF_S", 0.01)
    with caplog.at_level(logging.WARNING, logger="repro.core.parallel"):
        out = run_tasks(_fail_in_worker, list(range(6)), n_jobs=2)
    assert out == [x * x for x in range(6)]
    assert "retrying" in caplog.text
    assert "serial fallback" in caplog.text


def test_run_tasks_genuine_error_raises_from_serial_fallback(monkeypatch):
    import repro.core.parallel as par

    monkeypatch.setattr(par, "RETRY_BACKOFF_S", 0.01)
    with pytest.raises(RuntimeError, match="genuine failure"):
        run_tasks(_always_boom, [1, 2], n_jobs=2)


def test_characterize_bit_identical_after_worker_crashes(monkeypatch):
    """Crashed characterization shards must recompute to the exact same
    tables via the retry/serial-fallback path."""
    import repro.core.methodology as meth_mod
    import repro.core.parallel as par

    monkeypatch.setattr(par, "RETRY_BACKOFF_S", 0.01)
    baseline = small_methodology()
    baseline.characterize(n_jobs=1)
    crashy = small_methodology()
    monkeypatch.setattr(meth_mod, "_characterize_unit", _crashy_characterize)
    crashy.characterize(n_jobs=2)
    assert table_csvs(crashy) == table_csvs(baseline)


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


def test_serial_fallback_chains_original_shard_traceback(monkeypatch):
    """When the serial fallback fails too, the original parallel-shard
    exception must ride along as ``__cause__``."""
    import repro.core.parallel as par

    monkeypatch.setattr(par, "RETRY_BACKOFF_S", 0.01)
    with pytest.raises(RuntimeError, match="genuine failure") as excinfo:
        run_tasks(_always_boom, [1, 2], n_jobs=2)
    cause = excinfo.value.__cause__
    assert isinstance(cause, RuntimeError)
    assert "genuine failure" in str(cause)
    # and the chained copy is the *pool's* instance, not the serial one
    assert cause is not excinfo.value
