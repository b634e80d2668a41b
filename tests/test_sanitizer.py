"""Runtime sim-sanitizer: injected violations are caught, clean runs stay
clean and byte-identical to unsanitized ones."""

import heapq

import pytest

from repro.analysis.sanitizer import SanitizerError, SimSanitizer, sanitize_enabled
from repro.simengine.core import Environment, Event, SimulationError
from repro.simengine.resources import FastHold

from conftest import run_proc


@pytest.fixture
def sanitized(system):
    san = SimSanitizer(system).attach()
    yield system, san
    san.detach()


def checks_of(san):
    return [v.check for v in san.violations]


class _Holder:
    def granted(self, _v):
        pass


def claim(res):
    """A raw slot request whose waiter does nothing."""
    return res.request(_Holder().granted)


# ---------------------------------------------------------------------------
# attach / detach


def test_attach_intercepts_and_detach_restores(system):
    env = system.env
    san = SimSanitizer(system).attach()
    assert env.sanitizer is san
    assert env.step.__func__ is not Environment.step
    with pytest.raises(SanitizerError):
        SimSanitizer(system).attach()
    san.detach()
    assert env.sanitizer is None
    assert env.step.__func__ is Environment.step


def test_clean_system_run_reports_clean(sanitized):
    system, san = sanitized
    env = system.env

    def ping():
        yield env.timeout(0.5)
        yield env.timeout(0.5)

    run_proc(env, ping())
    report = san.finish()
    assert san.clean
    assert report["violations"] == []
    assert report["events_checked"] > 0
    assert "clean" in san.render()


# ---------------------------------------------------------------------------
# calendar invariants


def _advance(env, dt=1.0):
    def wait():
        yield env.timeout(dt)

    run_proc(env, wait())


def test_monotonicity_violation_detected(sanitized):
    system, san = sanitized
    env = system.env
    _advance(env, 1.0)
    assert env.now == 1.0
    # smuggle an event scheduled in the past straight onto the heap
    heapq.heappush(env._queue, (0.25, 1, 0, Event(env)))
    with pytest.raises(SimulationError):
        env.step()
    assert checks_of(san) == ["monotonicity"]


def test_nan_time_flagged_at_insert_and_pop(sanitized):
    system, san = sanitized
    env = system.env
    env.run()  # drain the builder's initialization events
    now = env.now
    env._push(float("nan"), 1, Event(env))
    assert checks_of(san) == ["monotonicity"]
    with pytest.raises(SimulationError):
        env.step()
    assert checks_of(san) == ["monotonicity", "monotonicity"]
    assert env.now == now


def test_tie_break_violation_detected_on_corrupt_heap(sanitized):
    system, san = sanitized
    env = system.env
    env.run()  # drain the builder's initialization events
    heapq.heappush(env._queue, (1.0, 1, 7, Event(env)))
    env.step()
    # re-insert the already-popped key behind the scheduling API: no
    # _seq bump, so the gate stays armed and the repeat key must flag
    env._queue.append((1.0, 1, 7, Event(env)))
    env.step()
    assert checks_of(san) == ["tie-break"]


def test_same_time_insert_during_callback_is_legitimate(sanitized):
    """A callback scheduling an earlier-sorting same-timestamp event is
    normal DES behaviour, not a tie-break violation."""
    system, san = sanitized
    env = system.env

    def child():
        yield env.timeout(0.25)

    def proc():
        yield env.timeout(1.0)
        # starting a process inserts its Initialize at key (1.0, 0, seq)
        # — sorting before the (1.0, 1, ...) timeout that is resuming us
        # right now
        env.process(child())
        yield env.timeout(0.5)

    run_proc(env, proc())
    san.finish()
    assert san.clean


# ---------------------------------------------------------------------------
# resource misuse (raises at the offending call)


def test_double_release_raises_and_records(sanitized):
    system, san = sanitized
    head = system.server_node.array.disks[0].head
    req = claim(head)
    head.release(req)
    with pytest.raises(SanitizerError, match="double release"):
        head.release(req)
    assert checks_of(san) == ["resource"]


def test_release_of_queued_never_granted_raises(sanitized):
    system, san = sanitized
    head = system.server_node.array.disks[0].head
    held = [claim(head) for _ in range(head.capacity)]
    queued = claim(head)
    assert queued in head.queue
    with pytest.raises(SanitizerError, match="never granted"):
        head.release(queued)
    assert checks_of(san) == ["resource"]
    for req in held:
        head.release(req)


def test_misuse_without_sanitizer_still_raises_plain_error(system):
    head = system.server_node.array.disks[0].head
    req = claim(head)
    head.release(req)
    with pytest.raises(SimulationError):
        head.release(req)


# ---------------------------------------------------------------------------
# leaks


class _LeakyHold(FastHold):
    """A flat holder that finishes its hold without releasing."""

    def _start(self, _v):
        self._acquire()

    def _granted(self):
        self._begin_hold(0.01, 0.01)

    def _release_and_done(self):
        self._done()  # the planted leak: no release

    def _done(self):
        self.result.succeed(None)


def test_leaked_slot_detected_at_finish(sanitized):
    system, san = sanitized
    head = system.server_node.array.disks[0].head
    hold = _LeakyHold(system.env, [head])
    system.env.run()  # drain the hold: the calendar is empty
    assert hold.result.processed
    report = san.finish()
    assert "leak" in checks_of(san)
    assert any("still held" in v["message"] for v in report["violations"])
    head.release(hold.reqs[0])


def test_leak_check_skipped_while_calendar_busy(sanitized):
    """An in-flight process legitimately holds slots mid-run."""
    system, san = sanitized
    env = system.env
    head = system.server_node.array.disks[0].head
    req = claim(head)
    env.timeout(1.0)  # pending event: the calendar is not drained
    san.check_leaks()
    assert san.clean
    head.release(req)


# ---------------------------------------------------------------------------
# utilization and byte conservation


def test_overcounted_busy_time_detected(sanitized):
    system, san = sanitized
    disk = system.server_node.array.disks[0]
    disk.stats.busy_s += 5.0  # busier than any elapsed interval
    san.check_utilization()
    assert checks_of(san) == ["utilization"]


def test_conservation_imbalance_detected(sanitized):
    system, san = sanitized
    san.account_iolib("write", 4096)  # no filesystem ever sees the bytes
    san.check_conservation()
    assert checks_of(san) == ["conservation"]
    assert "4096" in san.violations[0].message


def test_corrupted_page_cache_detected(sanitized):
    system, san = sanitized
    mount = next(iter(system.nfs_mounts.values()))
    mount.cache.insert_run(1, 0, 4, 4096, None)
    san.check_caches()
    assert checks_of(san) == []
    mount.cache._dirty_total += 1  # a counter that no run accounts for
    run = mount.cache._head.next
    run.n += 1  # the index still counts the run's old length
    san.check_caches()
    assert checks_of(san) == ["cache"] * 3
    assert all(v.message.startswith(mount.cache.name) for v in san.violations)


def test_conservation_balances_with_corrections(sanitized):
    system, san = sanitized
    mount = next(iter(system.nfs_mounts.values()))
    san.account_iolib("write", 1000)
    san.note_gap("write", 100)       # collective domains skip a 100 B hole
    san.account_fs(mount, "write", 900)
    san.account_iolib("read", 512)
    san.note_overfetch("read", 512)  # sieving fetches a full block
    san.account_fs(mount, "read", 1024)
    san.check_conservation()
    assert san.clean


def test_non_boundary_filesystem_traffic_not_counted(sanitized):
    """Server-export absorption is behind the compute-side mounts; its
    bytes must not double-count."""
    system, san = sanitized
    san.account_fs(system.export, "write", 777)
    assert san.fs_bytes["write"] == 0


def test_conservation_corrections_on_real_mpi_io():
    """Overlapping collectives (domain union < requested bytes) and
    data-sieving reads (fetched span > requested bytes) both reshape
    the byte flow; the gap/overfetch corrections must balance them."""
    from conftest import small_config
    from repro.clusters.builder import build_system
    from repro.storage.base import KiB

    system = build_system(Environment(), small_config())
    san = SimSanitizer(system).attach()
    world = system.world(4, io_hints={"ds_read": True})

    def prog(mpi):
        f = yield mpi.file_open("/nfs/c.dat", "w")
        # every rank writes the SAME 256 KiB region: the domain union
        # covers 256 KiB of the 1 MiB requested -> 768 KiB write gap
        yield f.write_at_all(0, 256 * KiB)
        yield mpi.barrier()
        # sparse strided read: 8 x 4 KiB pieces every 16 KiB is dense
        # enough to sieve -> each rank fetches the 116 KiB span
        yield f.read_at(0, 4 * KiB, count=8, stride=16 * KiB)
        yield f.close()

    system.env.run(world.run_program(prog))
    san.finish()
    san.detach()
    assert san.clean, [v.render() for v in san.violations]
    assert san.gap_bytes["write"] == 3 * 256 * KiB
    span = 7 * 16 * KiB + 4 * KiB
    assert san.overfetch_bytes["read"] == 4 * (span - 8 * 4 * KiB)
    assert san.fs_bytes["write"] == 256 * KiB
    assert san.fs_bytes["read"] == 4 * span


# ---------------------------------------------------------------------------
# end-to-end: sanitized evaluation is clean and byte-identical


def test_sanitize_enabled_env_var(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert not sanitize_enabled()
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert sanitize_enabled()
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert not sanitize_enabled()


def test_btio_evaluation_sanitized_clean_and_identical():
    """Acceptance: a full BT-IO evaluation under ``--sanitize`` reports
    zero violations and produces byte-identical used tables, verdicts
    and execution time versus the unsanitized run."""
    from repro.clusters import aohyper_config
    from repro.core.evaluation import used_tables_equal
    from repro.core.methodology import Methodology
    from repro.storage.base import KiB, MiB
    from repro.workloads.apps import BTIOApplication
    from repro.workloads.btio import BTIOConfig

    m = Methodology(
        {"jbod": aohyper_config("jbod")},
        block_sizes=(256 * KiB, 1 * MiB),
        char_file_bytes=8 * MiB,
        ior_file_bytes=64 * MiB,
    )
    m.characterize(n_jobs=1)
    app = BTIOApplication(BTIOConfig(clazz="S", nprocs=4, subtype="full"))
    plain = m.evaluate(app, n_jobs=1, sanitize=False)
    sanitized = m.evaluate(app, n_jobs=1, sanitize=True)

    assert plain["jbod"].sanitizer is None
    report = sanitized["jbod"].sanitizer
    assert report["enabled"]
    assert report["violations"] == []
    assert report["events_checked"] > 0
    # the MPI-IO / filesystem byte ledgers balanced exactly
    counters = report["counters"]
    for op in ("write", "read"):
        assert counters["fs_bytes"][op] == (
            counters["iolib_bytes"][op]
            - counters["gap_bytes"][op]
            + counters["overfetch_bytes"][op]
        )
        assert counters["iolib_bytes"][op] > 0

    # observing the run must not change it
    assert used_tables_equal(plain["jbod"].used, sanitized["jbod"].used, rel_tol=0)
    assert sanitized["jbod"].execution_time_s == plain["jbod"].execution_time_s
    assert sanitized["jbod"].write_bottleneck() == plain["jbod"].write_bottleneck()
    assert sanitized["jbod"].read_bottleneck() == plain["jbod"].read_bottleneck()
