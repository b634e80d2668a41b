"""Split cProfile self time over the simulator's own packages.

Each profiled function's self time (``tottime``) and call count are
charged to the ``repro`` package that defines it.  Functions defined
outside ``repro`` (builtins, the standard library, numpy, this harness)
are charged to whoever called them, in proportion to the self time each
caller accounted for (pstats keeps it per caller), recursively through
callers that are themselves outside ``repro``.  What has no ``repro``
caller at all, and ``repro`` code outside the eight layer packages,
lands in ``other``.  Every second and every call is charged exactly
once, so the layers sum to the profile's total.

This module imports nothing from ``repro``, so it can be tested on a
hand-built pstats dict.
"""

from __future__ import annotations

import os

#: the simulator's layers, bottom-up: the DES kernel, devices and
#: network, filesystems, MPI and MPI-IO, the I/O library helpers, the
#: methodology, the benchmark programs, and the tracer
LAYERS = ("simengine", "hardware", "storage", "mpi", "iolib", "core", "workloads", "tracing")
OTHER = "other"


def layer_of(filename: str, repro_dir: str) -> str | None:
    """The layer a source file belongs to, or ``None`` outside ``repro``.

    ``repro_dir`` is the ``repro`` package directory with a trailing
    separator.
    """
    if not filename.startswith(repro_dir):
        return None
    head, sep, _ = filename[len(repro_dir):].partition(os.sep)
    return head if sep and head in LAYERS else OTHER


def attribute(stats: dict, repro_dir: str) -> dict[str, dict[str, float]]:
    """``{layer: {"self_s": s, "calls": n}}`` for one pstats ``stats`` dict.

    ``stats`` maps ``(filename, line, name)`` to ``(cc, nc, tt, ct,
    callers)`` and each ``callers`` entry maps a caller to ``(nc, cc,
    tt, ct)``, as ``cProfile.Profile.create_stats`` leaves them.
    """
    shares_memo: dict = {}

    def shares(func, active: frozenset) -> dict[str, float]:
        """The fraction of ``func``'s self time each layer is charged."""
        if func not in stats:
            return {OTHER: 1.0}
        own = layer_of(func[0], repro_dir)
        if own is not None:
            return {own: 1.0}
        if func in shares_memo:
            return shares_memo[func]
        callers = {c: v for c, v in stats[func][4].items() if c not in active}
        weights = {c: v[2] for c, v in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {c: v[0] for c, v in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            out = {OTHER: 1.0}
        else:
            out = {}
            inner = active | {func}
            for caller, w in weights.items():
                for layer, f in shares(caller, inner).items():
                    out[layer] = out.get(layer, 0.0) + f * w / total
        shares_memo[func] = out
        return out

    result = {layer: {"self_s": 0.0, "calls": 0.0} for layer in (*LAYERS, OTHER)}
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        for layer, f in shares(func, frozenset()).items():
            result[layer]["self_s"] += tt * f
            result[layer]["calls"] += nc * f
    return result
