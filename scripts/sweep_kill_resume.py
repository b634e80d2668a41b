#!/usr/bin/env python
"""Kill-resume acceptance check for the sweep orchestrator.

Runs the same small sweep plan twice:

1. **reference** — uninterrupted, in one process;
2. **victim** — in a subprocess that is SIGKILLed as soon as at least
   one result record is durable, then resumed with ``run_sweep`` until
   every planned fingerprint has a record.

The check passes when the victim's merged ``results.jsonl`` is
**byte-identical** to the reference's, order-normalised by sorting the
record lines (a parallel pool completes tasks in nondeterministic
order; the *bytes of each record* are what determinism promises).
A victim that happens to finish before the kill lands still exercises
the resume-is-noop path, so the comparison always runs.

Usage::

    python scripts/sweep_kill_resume.py [--workdir DIR] [--jobs N]
                                        [--kills K]

Exit status: 0 on byte-identity, 1 on any divergence.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.storage.base import KiB, MiB  # noqa: E402
from repro.sweep import build_plan, char_params, collect_faults  # noqa: E402
from repro.sweep import collect_workloads, run_sweep  # noqa: E402

CONFIGS = ["jbod", "raid1", "raid5"]
WORKLOADS = ["madbench:2:4", "btio:S:4"]
FUZZ_SEEDS = [0, 1, 2]


def small_plan():
    return build_plan(
        CONFIGS,
        collect_workloads(named=WORKLOADS, fuzz_seeds=FUZZ_SEEDS),
        collect_faults(["none"]),
        char_params((256 * KiB, 1 * MiB), char_file_bytes=8 * MiB,
                    ior_file_bytes=64 * MiB),
    )


#: subprocess body: run the same plan into the given run directory
_VICTIM_CODE = """
import sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {scripts!r})
from sweep_kill_resume import small_plan
from repro.sweep import run_sweep
run_sweep({rundir!r}, small_plan(), params={{"n_jobs": {jobs}}})
"""


def run_victim_until_killed(rundir: Path, jobs: int, min_records: int) -> bool:
    """Start the sweep in a subprocess and SIGKILL it once the WAL holds
    ``min_records`` records; returns True if the kill landed mid-run."""
    code = _VICTIM_CODE.format(
        src=str(Path(__file__).resolve().parent.parent / "src"),
        scripts=str(Path(__file__).resolve().parent),
        rundir=str(rundir),
        jobs=jobs,
    )
    proc = subprocess.Popen([sys.executable, "-c", code])
    results = rundir / "results.jsonl"
    deadline = time.time() + 300
    while time.time() < deadline:
        if proc.poll() is not None:
            return False  # finished (or died) before the kill
        if results.exists() and results.read_bytes().count(b"\n") >= min_records:
            break
        time.sleep(0.002)
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait()
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workdir", default=None,
                    help="directory for the run dirs (default: a tempdir)")
    ap.add_argument("--jobs", type=int, default=2, help="victim pool size")
    ap.add_argument("--kills", type=int, default=2,
                    help="how many times to kill + resume the victim")
    args = ap.parse_args(argv)

    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="sweep-kr-"))
    workdir.mkdir(parents=True, exist_ok=True)
    plan = small_plan()
    print(f"plan: {len(plan)} task(s); workdir: {workdir}")

    ref_dir = workdir / "reference"
    out = run_sweep(ref_dir, plan, params={"n_jobs": args.jobs})
    if out.exit_code != 0:
        print(f"FAIL: reference run exited {out.exit_code} ({out.error})")
        return 1
    reference = sorted((ref_dir / "results.jsonl").read_bytes().splitlines())
    print(f"reference: {len(reference)} record(s)")

    victim_dir = workdir / "victim"
    killed = run_victim_until_killed(victim_dir, args.jobs, min_records=1)
    print(f"victim: first run {'killed mid-sweep' if killed else 'completed'}")
    for k in range(1, args.kills):
        done = len(sorted((victim_dir / "results.jsonl").read_bytes()
                          .splitlines())) if (victim_dir / "results.jsonl"
                                              ).exists() else 0
        if done >= len(reference):
            break
        # resume in a fresh subprocess and kill that too
        code = _VICTIM_CODE.format(
            src=str(Path(__file__).resolve().parent.parent / "src"),
            scripts=str(Path(__file__).resolve().parent),
            rundir=str(victim_dir),
            jobs=args.jobs,
        ).replace("small_plan(), ", "None, resume=True, ")
        proc = subprocess.Popen([sys.executable, "-c", code])
        time.sleep(0.3)
        if proc.poll() is None:
            os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"victim: resume #{k} killed")

    out = run_sweep(victim_dir, resume=True, params={"n_jobs": args.jobs})
    if out.exit_code != 0:
        print(f"FAIL: final resume exited {out.exit_code} ({out.error})")
        return 1
    merged = sorted((victim_dir / "results.jsonl").read_bytes().splitlines())

    if merged != reference:
        only_ref = set(reference) - set(merged)
        only_vic = set(merged) - set(reference)
        print(f"FAIL: {len(only_ref)} record(s) only in reference, "
              f"{len(only_vic)} only in victim")
        return 1
    print(f"OK: {len(merged)} record(s) byte-identical after kill-resume")
    return 0


if __name__ == "__main__":
    sys.exit(main())
