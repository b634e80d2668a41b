"""Shared state for the experiment benchmarks.

Each ``test_*`` file regenerates one of the paper's tables or figures
(see DESIGN.md §5).  Expensive artefacts — system characterizations
and application runs — are session-scoped fixtures so the many tables
derived from one run do not recompute it.

Scale notes (documented deviations, also in EXPERIMENTS.md):

* Aohyper experiments run at full paper scale (class C, 16 processes,
  IOzone file = 2 x RAM = 4 GB).
* Cluster A characterization uses 4 IOzone block sizes instead of 10
  (its 24 GB stress file makes each pass expensive); the application
  runs use the paper's full 16/64-process setups.

Opt-in acceleration (see README "Performance & caching"):

* ``REPRO_BENCH_CACHE=<dir>`` reuses characterization tables across
  benchmark sessions via the fingerprint-keyed on-disk cache — the
  first run pays full price, later runs load the tables in
  milliseconds.  Keys cover every config field and sweep parameter,
  so a changed setup recomputes automatically; delete the directory
  (or use ``TableCache.invalidate``) after simulator changes.

Characterization runs in-process; ``repro characterize --jobs N`` is
the way to fan its (config, level) units out over worker processes.
"""

from __future__ import annotations

import os

import pytest

from repro.simengine import Environment
from repro.core import Methodology
from repro.clusters import AOHYPER_CONFIGS, aohyper_config, cluster_a_config
from repro.storage.base import GiB, KiB, MiB
from repro.workloads.apps import BTIOApplication, MadBenchApplication
from repro.workloads.btio import BTIOConfig
from repro.workloads.madbench import MadBenchConfig

#: the paper's IOzone sweep: 32 KiB .. 16 MiB
PAPER_BLOCKS = tuple((32 * KiB) << k for k in range(10))
#: reduced sweep for the expensive cluster-A stress file
CLUSTER_A_BLOCKS = (32 * KiB, 256 * KiB, 1 * MiB, 16 * MiB)

#: opt-in on-disk characterization cache for benchmark sessions
BENCH_CACHE = os.environ.get("REPRO_BENCH_CACHE", "").strip() or None


def show(title: str, body: str) -> None:
    """Print a regenerated artefact under a banner (visible with -s;
    captured output is shown for failing shapes)."""
    print(f"\n===== {title} =====\n{body}\n")


@pytest.fixture(scope="session")
def aohyper_methodology() -> Methodology:
    """Phase-1 characterization of all three Aohyper configurations."""
    m = Methodology(
        {name: aohyper_config(name) for name in AOHYPER_CONFIGS},
        block_sizes=PAPER_BLOCKS,
        ior_nprocs=8,
        ior_file_bytes=4 * GiB,
    )
    m.characterize(cache=BENCH_CACHE)
    return m


@pytest.fixture(scope="session")
def cluster_a_methodology() -> Methodology:
    m = Methodology(
        {"cluster-a": cluster_a_config()},
        block_sizes=CLUSTER_A_BLOCKS,
        ior_nprocs=8,
        ior_file_bytes=4 * GiB,
    )
    m.characterize(cache=BENCH_CACHE)
    return m


@pytest.fixture(scope="session")
def btio_aohyper_reports(aohyper_methodology):
    """BT-IO class C, 16 processes, both subtypes, all three configs."""
    out = {}
    for subtype in ("full", "simple"):
        app = BTIOApplication(BTIOConfig(clazz="C", nprocs=16, subtype=subtype))
        out[subtype] = aohyper_methodology.evaluate(app)
    return out


@pytest.fixture(scope="session")
def btio_cluster_a_reports(cluster_a_methodology):
    """BT-IO class C on cluster A for 16 and 64 processes."""
    out = {}
    for nprocs in (16, 64):
        for subtype in ("full", "simple"):
            app = BTIOApplication(BTIOConfig(clazz="C", nprocs=nprocs, subtype=subtype))
            out[(nprocs, subtype)] = cluster_a_methodology.evaluate(app)["cluster-a"]
    return out


@pytest.fixture(scope="session")
def madbench_aohyper_reports(aohyper_methodology):
    """MADbench2 16 processes, both filetypes, all three configs."""
    out = {}
    for filetype in ("unique", "shared"):
        app = MadBenchApplication(MadBenchConfig(nprocs=16, filetype=filetype))
        out[filetype] = aohyper_methodology.evaluate(app)
    return out


@pytest.fixture(scope="session")
def madbench_cluster_a_reports(cluster_a_methodology):
    out = {}
    for nprocs in (16, 64):
        for filetype in ("unique", "shared"):
            app = MadBenchApplication(MadBenchConfig(nprocs=nprocs, filetype=filetype))
            out[(nprocs, filetype)] = cluster_a_methodology.evaluate(app)["cluster-a"]
    return out
