"""Every workload and metric the benchmark reports: name, unit, direction.

``BENCHMARK.json`` at the repository root lists the same names with the
regression bounds; ``test_bench.py`` checks that the two agree.  This
module imports nothing from ``repro``.
"""

from layers import LAYERS, OTHER

#: workload -> why it is in the benchmark
WORKLOADS = {
    "char_aohyper": "phase 1 at paper scale: bulk sequential I/O through page cache and NFS;"
                    " storage-heavy, phase replay unused",
    "btio_full_c16": "BT-IO class C, 16 procs, collective: heaviest kernel and network load;"
                     " phase replay extrapolates the write steps",
    "btio_simple_a4": "BT-IO class A, 4 procs, many tiny independent strided ops:"
                      " the disk model (hardware) takes ~37% of self time, ~6% on char_aohyper",
    "madbench_6k16": "MADbench2 6 kpix, 16 procs, out-of-core writes beside reads:"
                     " phase replay falls back on every phase, so replay work must not move it",
}

#: end-to-end metric -> (unit, better); all host measurements, the two
#: times at the reference host's speed (calibrate.py)
END_TO_END = {
    "norm_wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

#: modelled component counters (simulated units) by MetricsRegistry level
COUNTERS = {
    "disk": ("reads", "writes", "seeks", "busy_s", "readahead_hits"),
    "network": ("messages", "bytes_carried", "busy_s"),
    "nfs": ("rpcs", "commits"),
    "cache": ("hits", "misses", "evictions"),
    "localfs": ("reads", "writes", "flush_runs"),
    "iolib": ("collective_ops", "independent_ops"),
}

#: per-layer metrics that repeat exactly on every run and every seed:
#: calendar entries, the modelled components' counters (sim_s is
#: simulated seconds), and what phase replay did
EXACT = {
    "simengine.events": ("count", "lower"),
    "simengine.envs": ("count", "lower"),
    "disk.reads": ("count", "lower"),
    "disk.writes": ("count", "lower"),
    "disk.seeks": ("count", "lower"),
    "disk.busy_s": ("sim_s", "lower"),
    "disk.readahead_hits": ("count", "higher"),
    "network.messages": ("count", "lower"),
    "network.bytes_carried": ("B", "lower"),
    "network.busy_s": ("sim_s", "lower"),
    "nfs.rpcs": ("count", "lower"),
    "nfs.commits": ("count", "lower"),
    "cache.hits": ("count", "higher"),
    "cache.misses": ("count", "lower"),
    "cache.evictions": ("count", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "localfs.reads": ("count", "lower"),
    "localfs.writes": ("count", "lower"),
    "localfs.flush_runs": ("count", "lower"),
    "iolib.collective_ops": ("count", "lower"),
    "iolib.independent_ops": ("count", "lower"),
    "replay.simulated": ("count", "lower"),
    "replay.extrapolated": ("count", "higher"),
    "replay.fallback_phases": ("count", "lower"),
    "replay.extrapolated_fraction": ("ratio", "higher"),
}

#: per-layer metric -> (unit, better); host time where the unit is s
PER_LAYER = {
    **EXACT,
    "simengine.events_per_s": ("1/s", "higher"),
    **{f"{layer}.self_s": ("s", "lower") for layer in (*LAYERS, OTHER)},
    **{f"{layer}.calls": ("count", "lower") for layer in (*LAYERS, OTHER)},
    "trace.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead": ("x", "lower"),
}
