"""Tie-order gate: every golden cell under perturbed calendar tie-breaks.

The calendar breaks ``(when, priority)`` ties by insertion order, an
implementation accident: events pushed for one instant by different
executions have no causal order, so a correct model gives the same
result whichever fires first.  This gate runs each golden cell of
``tests/test_kernel_determinism.py`` once under a
:class:`~repro.simengine.schedule.TieGroupRecorder`, then again with
every tie group's blocks reversed and under two seeded shuffles, and
compares each perturbed result with the first run:

* the *conserved* surface (every non-float leaf and the structure) must
  be identical;
* the *timing* sensitivity (the largest relative change of a float
  leaf) must not exceed the value recorded in
  ``tests/golden/tie_order.json``.  Contention interleavings move
  timings legitimately, by different amounts per cell, so each
  ``(cell, perturbation)`` pair has its own bound; the numbers are
  deterministic, and the file is a ratchet: a change may lower them
  and must not raise them.

Two views differ from the golden values.  A characterization cell's
tables are compared row by row rather than by CSV digest, so a rate
change is timing and not conserved.  Completion logs are appended in
completion order, which a tie may change, so they are compared as
multisets, each record paired with the one of the same labels.  The
MPI cells' ranks run one program on disjoint ranges of the same size,
so which rank a tie lets through first is a labelling: their logs drop
the rank and compare each step's completion times as a multiset.

The idle-disk-head race below is known and pinned as an expected
failure; fixing it moves the calendar.
"""

from __future__ import annotations

import functools
import json

import pytest

import test_kernel_determinism as kd
from repro.analysis.simrace import diff_conserved, split_surfaces, timing_sensitivity
from repro.hardware.disk import READ, Disk, DiskSpec
from repro.simengine import Environment
from repro.simengine.schedule import (
    Perturber,
    TieGroupRecorder,
    capture,
    reverse_plans,
    shuffle_plans,
)
from repro.storage.base import KiB, MiB

GOLDEN_PATH = kd.GOLDEN_PATH.with_name("tie_order.json")
SEEDS = (0, 1)


def _characterization(device: str) -> dict:
    tables, cal = kd._characterization_run(device)
    rows = {
        level: sorted(
            [r.op, r.block_bytes, r.access.value, r.mode.value, r.rate_Bps]
            for r in tables[level].rows
        )
        for level in sorted(tables)
    }
    return {"rows": rows, "calendar": cal}


def _cell_runs() -> dict:
    """``kind/name`` -> an uncached run of each golden cell."""
    p = functools.partial
    runs = {}
    for d in kd.DEVICES:
        runs[f"characterization/{d}"] = p(_characterization, d)
        runs[f"iozone/{d}"] = p(kd._golden_iozone.__wrapped__, d)
        runs[f"ior/{d}"] = p(kd._golden_ior.__wrapped__, d)
    runs["btio/jbod"] = p(kd._golden_btio.__wrapped__, "jbod")
    for n, build in sorted(kd._GOLDEN_SCENARIOS.items()):
        runs[f"scenarios/{n}"] = p(kd._golden_scenario, build)
    for n in kd._DEGRADED_CELLS:
        runs[f"degraded/{n}"] = p(kd._golden_degraded.__wrapped__, n)
    for n in kd._MPI_CELLS:
        runs[f"mpi/{n}"] = p(kd._golden_mpi.__wrapped__, n)
    for n in kd._CACHE_CELLS:
        runs[f"cache/{n}"] = p(kd._golden_cache.__wrapped__, n)
    return runs


CELLS = _cell_runs()


def _labels(record: list) -> list:
    return [str(x) for x in record if not isinstance(x, float)]


def _surfaces(cell: str, result: dict) -> tuple:
    """The conserved and timing surfaces of a cell's result, its calendar
    digest left out (a perturbed run pushes in another order)."""
    compared = {k: v for k, v in result.items() if k != "calendar"}
    log = compared.get("completions")
    if log is not None:
        if cell.startswith("mpi/"):
            log = [[tag, now] for tag, _rank, now in log]
        # stable: records with one label stay in completion order
        compared["completions"] = sorted(log, key=_labels)
    return split_surfaces(compared)


def _perturb(cell: str) -> dict:
    """Tie groups and, per perturbation, the conserved-surface diff and
    the timing sensitivity of one cell against its recorded run.

    ``capture`` is entered around the cell, so the probe is attached to
    every environment before the cell's ``calendar_digest`` hook, which
    then digests the perturbed pushes."""
    run = CELLS[cell]
    recorder = TieGroupRecorder()
    with capture(recorder):
        base = run()
    base_cons, base_tim = _surfaces(cell, base)
    groups = recorder.groups()
    plans = {"reverse": reverse_plans(groups)}
    for seed in SEEDS:
        plans[f"shuffle:{seed}"] = shuffle_plans(groups, seed)
    perturbed = {}
    for name, plan in plans.items():
        with capture(Perturber(plan)):
            cons, tim = _surfaces(cell, run())
        perturbed[name] = (diff_conserved(base_cons, cons), timing_sensitivity(base_tim, tim))
    return {"calendar": base["calendar"], "tie_groups": len(groups), "perturbed": perturbed}


@functools.lru_cache(maxsize=None)
def _recorded() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("cell", list(CELLS))
def test_golden_cell_is_tie_order_invariant(cell):
    got = _perturb(cell)
    recorded = _recorded()[cell]
    for perturbation, bound in recorded["sensitivity"].items():
        diff, sensitivity = got["perturbed"][perturbation]
        assert not diff, f"{perturbation} moved the conserved surface: {diff}"
        assert sensitivity <= bound, (
            f"{perturbation} timing sensitivity {sensitivity!r} > recorded {bound!r}"
        )
    # the bounds hold for the golden calendar: a change that moves it
    # re-records them (see the end of this file)
    kind, name = cell.split("/")
    assert got["calendar"] == kd._golden()[kind][name]["calendar"]
    assert got["tie_groups"] == recorded["tie_groups"]


def test_gate_covers_every_golden_cell():
    golden = kd._golden()
    cells = {f"{k}/{n}" for k, group in golden.items() if k != "former_modes" for n in group}
    assert set(CELLS) == cells == set(_recorded())
    assert all(
        set(r["sensitivity"]) == {"reverse", *(f"shuffle:{s}" for s in SEEDS)}
        for r in _recorded().values()
    )


# ----------------------------------------------------------------------
# known race: an idle disk head grants same-instant submissions in push
# order (``order_key`` only sorts waiters queued behind a busy head)
# ----------------------------------------------------------------------
def _idle_disk_completions(order):
    env = Environment()
    disk = Disk(env, DiskSpec())
    log = []

    def submit(offset):
        def go(_ev):
            ev = disk.submit(READ, offset, 256 * KiB)
            ev.callbacks.append(lambda e: log.append((env.now, offset)))

        return go

    for offset in order:
        env.wake_at(0.01).callbacks.append(submit(offset))
    env.run()
    return log


@pytest.mark.xfail(
    strict=True,
    reason="an idle disk head grants same-instant submissions in push order",
)
def test_idle_disk_head_is_issue_order_invariant():
    near_first = _idle_disk_completions([64 * MiB, 512 * MiB])
    far_first = _idle_disk_completions([512 * MiB, 64 * MiB])
    assert near_first == far_first


def _dump(cells: dict) -> str:
    rows = ",\n".join(f" {json.dumps(c)}: {json.dumps(r)}" for c, r in cells.items())
    return "{\n" + rows + "\n}\n"


if __name__ == "__main__":
    # re-record the bounds: PYTHONPATH=src python tests/test_tie_order.py
    recorded = {}
    for cell in CELLS:
        got = _perturb(cell)
        assert not any(diff for diff, _ in got["perturbed"].values()), cell
        recorded[cell] = {
            "tie_groups": got["tie_groups"],
            "sensitivity": {p: sens for p, (_, sens) in got["perturbed"].items()},
        }
    GOLDEN_PATH.write_text(_dump(recorded))
