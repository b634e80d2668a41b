"""The benchmark's workloads, run through the simulator's public API.

A workload is a fixed list of units; one pass runs each unit once.
Characterization units call :func:`repro.core.characterize.characterize_level`
for one (configuration, level) of the paper's Aohyper cluster, with the
sweep whose tables the project keeps byte-identical (blocks 32 KiB,
256 KiB, 2 MiB and 16 MiB; IOR with 8 processes over 2 GiB).
Evaluation units call :meth:`repro.core.methodology.Methodology.evaluate`
for one configuration, serially, against the tables that
:meth:`~repro.core.methodology.Methodology.load_tables` read from
``golden/``, so phase 3 is timed without phase 1.

Every input is one of the paper's fixed configurations; the seed only
picks the order of the units within a pass, so every simulated output
has one golden value whatever the seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path

from spec import COUNTERS

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = BENCH_DIR / "golden"
GOLDEN_FILE = GOLDEN_DIR / "golden.json"

# the benchmark measures the sources of the checkout it sits in
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import repro  # noqa: E402
from repro.clusters import aohyper_config, build_system  # noqa: E402
from repro.core import characterize as _characterize  # noqa: E402
from repro.core import methodology as _methodology  # noqa: E402
from repro.core.characterize import characterize_level  # noqa: E402
from repro.core.methodology import Methodology  # noqa: E402
from repro.core.perftable import PerformanceTable  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.storage.base import GiB, KiB  # noqa: E402
from repro.workloads.apps import BTIOApplication, MadBenchApplication  # noqa: E402
from repro.workloads.btio import BTIOConfig  # noqa: E402
from repro.workloads.madbench import MadBenchConfig  # noqa: E402

#: the ``repro`` package directory, for charging profiled time to layers
REPRO_DIR = os.path.dirname(repro.__file__) + os.sep

CONFIGS = ("jbod", "raid1", "raid5")
LEVELS = ("iolib", "nfs", "localfs")
CHAR_BLOCKS = tuple((32 * KiB) << k for k in range(0, 10, 3))
IOR_NPROCS = 8
IOR_FILE_BYTES = 2 * GiB

CHAR = "char_aohyper"
#: evaluation workload -> the application it evaluates on every config
APPS = {
    "btio_full_c16": BTIOApplication(BTIOConfig(clazz="C", nprocs=16, subtype="full")),
    "btio_simple_a4": BTIOApplication(BTIOConfig(clazz="A", nprocs=4, subtype="simple")),
    "madbench_6k16": MadBenchApplication(MadBenchConfig(kpix=6, nprocs=16)),
}
WORKLOADS = (CHAR, *APPS)


@dataclass(frozen=True)
class Unit:
    """One call into the public API: a config, and a level for phase 1."""

    config: str
    level: str | None = None

    @property
    def key(self) -> str:
        return f"{self.config}/{self.level}" if self.level else self.config


def methodology() -> Methodology:
    """A methodology over the three Aohyper configurations."""
    return Methodology({name: aohyper_config(name) for name in CONFIGS})


def unit_order(units: list[Unit], seed: int, pass_index: int) -> list[Unit]:
    """The units of one pass in the order ``seed`` picks for it."""
    order = list(units)
    random.Random(f"{seed}:{pass_index}").shuffle(order)
    return order


class Workload:
    """One workload, set up and ready to run its units."""

    def __init__(self, name: str):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r} (want one of {WORKLOADS})")
        self.name = name
        self.methodology = methodology()
        self.app = APPS.get(name)
        if self.app is None:
            self.units = [Unit(c, level) for c in CONFIGS for level in LEVELS]
        else:
            self.units = [Unit(c) for c in CONFIGS]
            tables = self.methodology.load_tables(GOLDEN_DIR)
            missing = [
                f"{c}/{level}" for c in CONFIGS for level in LEVELS
                if level not in tables.get(c, {})
            ]
            if missing:
                raise FileNotFoundError(f"no golden tables for {missing} in {GOLDEN_DIR}")

    def run(self, unit: Unit):
        """Run one unit; returns its performance table or evaluation report."""
        if self.app is None:
            return characterize_level(
                self.methodology.configs[unit.config], unit.level, CHAR_BLOCKS,
                ior_nprocs=IOR_NPROCS, ior_file_bytes=IOR_FILE_BYTES,
            )
        return self.methodology.evaluate(self.app, names=[unit.config], n_jobs=1)[unit.config]


def sha16(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digest(output) -> dict:
    """The simulated outputs of one unit that the goldens pin."""
    if isinstance(output, PerformanceTable):
        return {"table_sha256_16": sha16(output.to_csv())}
    used = [
        [r.level, r.op, r.block_bytes, r.mode.value, r.access.value,
         r.app_rate_Bps, r.characterized_Bps]
        for r in output.used.rows
    ]
    return {
        "execution_time_s": output.execution_time_s,
        "io_time_s": output.io_time_s,
        "bytes_written": output.bytes_written,
        "bytes_read": output.bytes_read,
        "write_bottleneck": output.write_bottleneck(),
        "read_bottleneck": output.read_bottleneck(),
        "used_sha256_16": sha16(json.dumps(used)),
    }


def load_golden() -> dict:
    """``{workload: {unit key: digest}}`` as ``make_golden.py`` wrote it."""
    return json.loads(GOLDEN_FILE.read_text())["units"]


class SystemCounters:
    """Context manager: counter deltas of every system built inside it.

    Wraps ``build_system`` where ``characterize_level`` and
    ``Methodology.evaluate`` look it up, attaches a
    :class:`~repro.obs.metrics.MetricsRegistry` (no sampler) to each
    system as it is built, and sums the per-run deltas on exit.
    """

    def __init__(self):
        self.registries: list[MetricsRegistry] = []
        self.totals: dict[str, float] = {}

    def __enter__(self) -> "SystemCounters":
        def counted_build_system(env, config):
            system = build_system(env, config)
            registry = MetricsRegistry(system)
            registry.begin_run(sample=False)
            self.registries.append(registry)
            return system

        _characterize.build_system = _methodology.build_system = counted_build_system
        return self

    def __exit__(self, *exc) -> None:
        _characterize.build_system = _methodology.build_system = build_system
        for registry in self.registries:
            registry.end_run()
            deltas = registry.deltas()
            for level, names in COUNTERS.items():
                for name in names:
                    key = f"{level}.{name}"
                    self.totals[key] = self.totals.get(key, 0) + deltas[level].get(name, 0)
