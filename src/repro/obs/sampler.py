"""Windowed utilization sampling inside the running simulation.

A cumulative busy fraction answers *whether* a resource limited the
run; a time-series answers *when* — an application alternating
compute and I/O phases (BT-IO full) shows near-idle windows between
disk-saturated ones, which one end-of-run number averages away.

:class:`UtilizationSampler` is an ordinary DES process: every
``window_s`` of simulated time it diffs the busy counters against the
previous sample and stores a
:class:`~repro.core.utilization.UtilizationWindow`.  It only *reads*
simulation state, so an instrumented run's timings are identical to
an uninstrumented one.  When the window count hits ``max_windows``
adjacent windows merge and the width doubles, bounding memory and
sampling cost for arbitrarily long runs.
"""

from __future__ import annotations

from typing import Optional

from ..core.utilization import UtilizationWindow

__all__ = ["UtilizationSampler"]

#: default sampling window in simulated seconds
DEFAULT_WINDOW_S = 0.05


class UtilizationSampler:
    """Samples per-window busy deltas of every disk and link."""

    def __init__(
        self,
        system,
        window_s: Optional[float] = None,
        max_windows: int = 256,
    ):
        if window_s is not None and not window_s > 0:  # also NaN
            raise ValueError("window_s must be positive")
        if max_windows < 2:
            raise ValueError("max_windows must be at least 2")
        self.system = system
        self.window_s = window_s or DEFAULT_WINDOW_S
        self.max_windows = max_windows
        self.windows: list[UtilizationWindow] = []
        self._holders = ()
        self._last_t = 0.0
        self._last_vals: list[float] = []
        self._active = False

    def start(self) -> None:
        """Begin sampling from the current simulated time.

        The disk/link set is resolved once here — the topology is fixed
        after the system is built, so each window only re-reads the busy
        counters instead of re-enumerating (and re-naming) every
        resource.
        """
        self._holders = tuple(self.system.hardware())
        self._last_t = self.system.env.now
        self._last_vals = [c.busy_s for _, _, c, _ in self._holders]
        self._active = True
        self.system.env.process(self._run(), name="obs.sampler")

    def stop(self) -> None:
        """Stop sampling and flush the partial tail window."""
        if not self._active:
            return
        self._active = False
        self._flush()

    def _run(self):
        env = self.system.env
        while self._active:
            yield env.timeout(self.window_s)
            if not self._active:
                # woken after stop() (e.g. the program event fired
                # first and the caller flushed the tail): nothing to do
                return
            self._flush()
            if len(self.windows) >= self.max_windows:
                self._merge_pairs()

    def _flush(self) -> None:
        now = self.system.env.now
        if now <= self._last_t:
            # zero-width window: no simulated time passed, so the busy
            # counters cannot have moved either
            return
        busy = {}
        kinds = {}
        vals = []
        last_vals = self._last_vals
        for i, (name, kind, counters, _res) in enumerate(self._holders):
            total = counters.busy_s
            vals.append(total)
            delta = total - last_vals[i]
            if delta > 0.0:
                busy[name] = delta
                kinds[name] = kind
        self.windows.append(UtilizationWindow(self._last_t, now, busy, kinds))
        self._last_t = now
        self._last_vals = vals

    def _merge_pairs(self) -> None:
        """Halve the series by merging adjacent windows; double the
        width for windows still to come."""
        merged = []
        for i in range(0, len(self.windows), 2):
            pair = self.windows[i : i + 2]
            if len(pair) == 1:
                merged.append(pair[0])
                continue
            a, b = pair
            busy = dict(a.busy)
            for name, d in b.busy.items():
                busy[name] = busy.get(name, 0.0) + d
            kinds = {**a.kinds, **b.kinds}
            merged.append(UtilizationWindow(a.t0_s, b.t1_s, busy, kinds))
        self.windows = merged
        self.window_s *= 2.0
