"""Paper-scale benchmark of the simulator: end to end and layer by layer.

    python3 bench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                         [--trace [0|1]] [--out FILE]

Each workload runs in a fresh worker process (``worker.py``): passes in
a closed loop with one client for ``--seconds``, serial, every unit's
outputs checked against the goldens.  Set-up time is measured in
``SETUP_SAMPLES`` more fresh interpreters (``setup_probe.py``).  Host
times are reported at the reference host's speed (``calibrate.py``);
the raw wall times are printed beside them and kept in ``--out``.  Without
``--trace`` it prints the end-to-end metrics; with it, the per-layer
metrics of one extra profiled pass.  Each metric is printed by name with
its unit; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out`` also
writes the full result, with pass samples, unit digests and, when
traced, the spans.

Only the default kernel mode is measured: any ``REPRO_*`` environment
variable is refused.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import spec

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src" / "repro"

DEFAULT_SECONDS = 20
SETUP_SAMPLES = 9
#: host seconds a worker may take beyond ``--seconds``: its last pass
#: and a traced pass of the slowest workload, with room to spare
WORKER_SLACK_S = 100
PROBE_TIMEOUT_S = 10


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _python(script: str, *args: str, timeout: float) -> str:
    """Run a bench script in a fresh interpreter; returns its last stdout line."""
    cmd = [sys.executable, str(BENCH_DIR / script), *args]
    # numpy's OpenBLAS would start a thread per core at import; the
    # simulator does no BLAS work, and on a busy 2-core host those
    # threads' spinning slowed set-up by a fifth
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=env)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{script} {' '.join(args)} timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{script} {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return lines[-1]


def _summary(samples: list[float]) -> dict:
    return {"median": statistics.median(samples), "n": len(samples),
            "min": min(samples), "max": max(samples), "samples": samples}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload: set-up probes, then its worker."""
    probes = [json.loads(_python("setup_probe.py", timeout=PROBE_TIMEOUT_S))
              for _ in range(SETUP_SAMPLES)]
    setup = [p["norm_s"] for p in probes]
    worker = json.loads(_python(
        "worker.py", "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), timeout=seconds + WORKER_SLACK_S,
    ))
    measured = {**worker["metrics"], "setup_s": statistics.median(setup)}
    wanted = spec.PER_LAYER if trace else spec.END_TO_END
    missing = sorted(set(wanted) - set(measured))
    if missing:
        raise BenchError(f"{name}: worker reported no {missing}")
    return {
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "error_rate": worker["failed"] / worker["attempted"],
        "norm_wall_s": _summary(worker["norm_wall_s_samples"]),
        "wall_s": _summary(worker["wall_s_samples"]),
        "setup_s": _summary(setup),
        "setup_wall_s": _summary([p["wall_s"] for p in probes]),
        "metrics": {m: {"value": measured[m], "unit": unit} for m, (unit, _) in wanted.items()},
        "units": worker["units"],
        "errors": worker["errors"],
        "spans": worker["spans"],
    }


def host() -> dict:
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", "--workloads", dest="workloads", action="extend",
                        nargs="+", choices=list(spec.WORKLOADS),
                        help="workloads to run (default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="shuffles the order of units within each pass")
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS,
                        help="host seconds of passes per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report the per-layer metrics of one profiled pass")
    parser.add_argument("--out", type=Path, help="also write the full result here")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    names = list(dict.fromkeys(args.workloads or spec.WORKLOADS))

    refused = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if refused:
        print(f"refusing to run with {refused} set: the benchmark measures the "
              "default kernel mode only", file=sys.stderr)
        return 2
    if not SRC_DIR.is_dir():
        print(f"no simulator sources at {SRC_DIR}", file=sys.stderr)
        return 1

    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1

    for name, r in results.items():
        for metric, m in r["metrics"].items():
            print(f"{name:16} {metric:30} {m['value']:.6g} {m['unit']}")
        for key in ("norm_wall_s", "wall_s"):
            w = r[key]
            print(f"{name:16} {key + ' passes':30} n={w['n']} median={w['median']:.4f} "
                  f"min={w['min']:.4f} max={w['max']:.4f}")
        print(f"{name:16} {'error_rate':30} {r['error_rate']:.6g} "
              f"({r['failed']} of {r['attempted']} units)")
        for err in r["errors"]:
            print(err, file=sys.stderr)

    if args.out:
        args.out.write_text(json.dumps({
            "schema": "repro.bench/1",
            "host": host(),
            "args": {"seed": args.seed, "seconds": args.seconds, "trace": bool(args.trace)},
            "workloads": results,
        }, indent=1) + "\n")

    single = len(results) == 1
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            metric if single else f"{name}.{metric}": m
            for name, r in results.items() for metric, m in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
