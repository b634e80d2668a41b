"""The three-phase methodology facade (paper Fig. 1).

Ties the pieces together:

1. **Characterization** — system performance tables per I/O path
   level (:func:`~repro.core.characterize.characterize_system`) and
   application profile from a traced run
   (:func:`~repro.core.characterize.characterize_app`).
2. **I/O configuration analysis** — configurable factors and the set
   of candidate configurations (:mod:`repro.core.factors`).
3. **Evaluation** — run the application on each configuration,
   generate used-percentage tables, locate inefficiency, and select
   the most suitable configuration.

Typical use::

    m = Methodology({name: aohyper_config(name) for name in AOHYPER_CONFIGS})
    m.characterize()                       # phase 1 (system side)
    reports = m.evaluate(app)              # phase 3 (runs the app per config)
    best = m.recommend(app_profile)        # configuration selection
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol, Sequence

from ..simengine import Environment
from ..storage.base import AccessType
from ..clusters.builder import System, SystemConfig, build_system
from ..tracing import IOTracer
from .characterize import (
    AppProfile,
    characterize_app,
    DEFAULT_BLOCKS,
    LEVELS,
)
from .evaluation import EvaluationReport, generate_used_percentage
from .factors import ConfigurableFactors, extract_factors, rank_configurations
from .parallel import run_tasks
from .perftable import PerformanceTable
from .tablecache import TableCache

__all__ = ["Application", "AppRun", "Methodology"]


def _characterize_unit(task) -> PerformanceTable:
    """Worker: one (config, level) characterization.

    Module-level (not a closure) so it pickles into worker processes.
    Each unit builds its own fresh :class:`Environment`, so units are
    independent and their parallel results are bit-identical to a
    serial run.
    """
    config, level, block_sizes, file_bytes, ior_nprocs, ior_file_bytes = task
    from .characterize import characterize_level

    return characterize_level(
        config, level, block_sizes, file_bytes, ior_nprocs, ior_file_bytes
    )


def _evaluate_unit(task) -> EvaluationReport:
    """Worker: run the application on one configuration."""
    import time as _time

    (name, config, app, access, tables, phase_fastpath,
     instrument, keep_events, window_s, sanitize, faults) = task
    from .replay import ReplaySettings

    if faults is not None:
        from ..faults import FaultSchedule

        if not isinstance(faults, FaultSchedule):
            faults = FaultSchedule.from_dict(faults)
        # the degraded-mode report re-attributes utilization per fault
        # window, which needs the sampled observability windows
        instrument = True
    reference = None
    if faults is not None:
        # fault-free twin of the run: the degraded report compares
        # each fault window against the same simulated-time span of
        # this baseline, cancelling the workload's own phase mix
        ref_system = build_system(Environment(), config)
        ref_system.replay_settings = ReplaySettings(enabled=False)
        ref_run = app.run(ref_system)
        reference = (list(ref_run.tracer.events), ref_system.env.now)
    system = build_system(Environment(), config)
    # with faults, the accelerator would extrapolate repeated phases
    # from healthy occurrences and paper over mid-run degradation
    system.replay_settings = ReplaySettings(
        enabled=phase_fastpath and faults is None
    )
    registry = None
    if instrument:
        from ..obs.metrics import MetricsRegistry

        registry = MetricsRegistry(system)
        registry.begin_run(window_s=window_s)
    sanitizer = None
    if sanitize is None:
        from ..analysis.sanitizer import sanitize_enabled

        sanitize = sanitize_enabled()
    if sanitize:
        from ..analysis.sanitizer import SimSanitizer

        sanitizer = SimSanitizer(system).attach()
    injector = None
    if faults is not None:
        from ..faults import FaultInjector

        injector = FaultInjector(system, faults).arm()
    # wall-clock here measures the *worker's* real runtime for the
    # perf report; it never feeds simulated time
    wall0 = _time.perf_counter()  # simlint: ignore[wall-clock]
    data_loss = None
    run = None
    try:
        run = app.run(system)
    except Exception as exc:
        from ..hardware.raid import DataLossError

        if injector is None or not isinstance(exc, DataLossError):
            raise
        # terminal degraded state: salvage what the run traced so far
        data_loss = str(exc)
    wall_s = _time.perf_counter() - wall0  # simlint: ignore[wall-clock]
    if registry is not None:
        registry.end_run()
    sanitizer_report = None
    if sanitizer is not None:
        sanitizer_report = sanitizer.finish()
        sanitizer.detach()
    if run is not None:
        tracer = run.tracer
        execution_time_s = run.execution_time_s
        io_time_s = run.io_time_s
        bytes_written = run.bytes_written
        bytes_read = run.bytes_read
    else:
        tracer = getattr(system, "last_tracer", None)
        if tracer is None:
            tracer = IOTracer()
        execution_time_s = system.env.now
        io_time_s = sum(e.duration for e in tracer.events)
        bytes_written = sum(e.total_bytes for e in tracer.events if e.op == "write")
        bytes_read = sum(e.total_bytes for e in tracer.events if e.op == "read")
    profile = characterize_app(tracer, access=access)
    used = generate_used_percentage(name, profile, tables)
    replay = system.last_replay.stats if system.last_replay is not None else None
    util_report = registry.utilization_report() if registry is not None else None
    faults_report = None
    if injector is not None:
        from ..faults import build_degraded_report

        faults_report = build_degraded_report(
            name,
            system,
            faults,
            injector.windows,
            tracer,
            profile,
            tables,
            utilization=util_report,
            data_loss=data_loss,
            healthy_events=reference[0],
            healthy_end=reference[1],
        )
    return EvaluationReport(
        config_name=name,
        execution_time_s=execution_time_s,
        io_time_s=io_time_s,
        bytes_written=bytes_written,
        bytes_read=bytes_read,
        used=used,
        profile=profile,
        replay=replay,
        wall_s=wall_s,
        metrics=(
            {"counters": registry.deltas(), "histograms": registry.histograms()}
            if registry is not None
            else None
        ),
        utilization=util_report,
        replay_phases=(
            system.last_replay.observability()
            if instrument and system.last_replay is not None
            else None
        ),
        events=list(tracer.events) if keep_events else None,
        sanitizer=sanitizer_report,
        faults=faults_report,
    )


@dataclass
class AppRun:
    """What an application run must report back to the methodology."""

    tracer: IOTracer
    execution_time_s: float
    io_time_s: float
    bytes_written: int
    bytes_read: int


class Application(Protocol):
    """Anything the evaluation phase can execute on a system."""

    name: str

    def run(self, system: System) -> AppRun:  # pragma: no cover - protocol
        ...


class Methodology:
    """Performance evaluation of the I/O system over named configurations."""

    def __init__(
        self,
        configs: dict[str, SystemConfig],
        levels: Sequence[str] = LEVELS,
        block_sizes: Sequence[int] = DEFAULT_BLOCKS,
        char_file_bytes: Optional[int] = None,
        ior_nprocs: int = 8,
        ior_file_bytes: Optional[int] = None,
    ):
        if not configs:
            raise ValueError("need at least one configuration")
        self.configs = dict(configs)
        self.levels = tuple(levels)
        self.block_sizes = tuple(block_sizes)
        self.char_file_bytes = char_file_bytes
        self.ior_nprocs = ior_nprocs
        self.ior_file_bytes = ior_file_bytes
        self.tables: dict[str, dict[str, PerformanceTable]] = {}

    # ------------------------------------------------------------------
    # phase 1: characterization (system side)
    # ------------------------------------------------------------------
    def _sweep_params(self) -> dict:
        """The sweep parameters that, with a config, determine a table."""
        return {
            "levels": self.levels,
            "block_sizes": self.block_sizes,
            "char_file_bytes": self.char_file_bytes,
            "ior_nprocs": self.ior_nprocs,
            "ior_file_bytes": self.ior_file_bytes,
        }

    def cache_key(self, name: str, cache: TableCache) -> str:
        """The cache key of one configuration under this sweep."""
        return cache.key(self.configs[name], **self._sweep_params())

    def characterize(
        self,
        names: Optional[Sequence[str]] = None,
        n_jobs: Optional[int] = None,
        cache: "TableCache | str | None" = None,
        refresh: bool = False,
    ) -> dict[str, dict[str, PerformanceTable]]:
        """Build performance tables for each configuration and level.

        ``n_jobs`` fans the independent (config, level) units out over
        worker processes (default: the ``REPRO_JOBS`` environment
        variable, else serial; ``0`` = one per CPU).  Results are
        merged in a fixed (name, level) order, so the output is
        identical for any job count.

        ``cache`` (a :class:`TableCache` or a directory path) loads
        previously characterized tables keyed by the configuration's
        fingerprint plus the sweep parameters, and stores fresh
        results for next time.  ``refresh=True`` recomputes and
        overwrites cached entries.
        """
        names = list(names or self.configs)
        if cache is not None and not isinstance(cache, TableCache):
            cache = TableCache(cache)

        pending = list(names)
        if cache is not None and not refresh:
            pending = []
            for name in names:
                hit = cache.load(self.cache_key(name, cache), name, self.levels)
                if hit is not None:
                    self.tables[name] = hit
                else:
                    pending.append(name)

        if pending:
            tasks = [
                (
                    self.configs[name],
                    level,
                    self.block_sizes,
                    self.char_file_bytes,
                    self.ior_nprocs,
                    self.ior_file_bytes,
                )
                for name in pending
                for level in self.levels
            ]
            results = run_tasks(_characterize_unit, tasks, n_jobs)
            it = iter(results)
            for name in pending:
                self.tables[name] = {level: next(it) for level in self.levels}
            if cache is not None:
                for name in pending:
                    cache.store(
                        self.cache_key(name, cache),
                        name,
                        self.tables[name],
                        meta={"sweep": {k: str(v) for k, v in self._sweep_params().items()}},
                    )
        return self.tables

    def characterize_trace(
        self, trace, access: AccessType = AccessType.GLOBAL
    ) -> AppProfile:
        """Phase 1, application side, from an imported trace.

        ``trace`` is an :class:`~repro.tracing.IOTracer` or anything
        :func:`repro.tracing.ingest.load_trace` accepts (a portable
        trace file path or its text).  The resulting profile feeds
        :meth:`recommend` / prediction directly — a captured
        production trace ranks candidate configurations without a
        single simulated application run.
        """
        from ..tracing.ingest import load_trace

        if not isinstance(trace, IOTracer):
            trace = load_trace(trace)
        return characterize_app(trace, access=access)

    # ------------------------------------------------------------------
    # phase 2: configuration analysis
    # ------------------------------------------------------------------
    def factors(self) -> dict[str, ConfigurableFactors]:
        return {name: extract_factors(cfg) for name, cfg in self.configs.items()}

    # ------------------------------------------------------------------
    # phase 3: evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        app: Application,
        names: Optional[Sequence[str]] = None,
        access: AccessType = AccessType.GLOBAL,
        n_jobs: Optional[int] = None,
        phase_fastpath: bool = True,
        instrument: bool = False,
        keep_events: bool = False,
        window_s: Optional[float] = None,
        sanitize: Optional[bool] = None,
        faults=None,
    ) -> dict[str, EvaluationReport]:
        """Run the application on each configuration and compare against
        the characterized tables (phase 1 must have run).

        Each configuration runs on its own fresh system, so ``n_jobs``
        fans the runs out over worker processes exactly like
        :meth:`characterize`; reports come back keyed in input order.

        ``phase_fastpath=False`` turns the phase-replay accelerator
        off for every run (full replay).

        ``instrument=True`` attaches a
        :class:`~repro.obs.metrics.MetricsRegistry` to each run:
        reports come back with per-level counter deltas, a windowed
        utilization report (sampled every ``window_s`` simulated
        seconds) and phase-replay observability.  ``keep_events=True``
        additionally carries the raw IOEvent stream back for trace
        export.

        ``sanitize`` attaches the runtime sim-sanitizer
        (:class:`~repro.analysis.sanitizer.SimSanitizer`) to each run;
        reports come back with an invariant-check summary in
        ``report.sanitizer``.  ``None`` (the default) follows the
        ``REPRO_SANITIZE`` environment variable.

        ``faults`` injects a deterministic
        :class:`~repro.faults.FaultSchedule` (or its dict form) into
        every run: disks fail mid-run with background RAID rebuilds,
        the NFS server stalls, links flap.  Reports come back with a
        degraded-mode report in ``report.faults`` (see
        :func:`repro.faults.build_degraded_report`); instrumentation
        is forced on and the phase-replay accelerator off, since both
        would misrepresent a run whose performance changes mid-flight.
        """
        names = list(names or self.configs)
        for name in names:
            if name not in self.tables:
                raise RuntimeError(f"configuration {name!r} not characterized yet")
        if faults is not None:
            from ..faults import FaultSchedule

            if not isinstance(faults, FaultSchedule):
                faults = FaultSchedule.from_dict(faults)
        tasks = [
            (name, self.configs[name], app, access, self.tables[name],
             phase_fastpath, instrument, keep_events, window_s,
             sanitize, faults)
            for name in names
        ]
        results = run_tasks(_evaluate_unit, tasks, n_jobs)
        return {name: report for name, report in zip(names, results)}

    def evaluate_single(self, name: str, app: Application, **kw) -> EvaluationReport:
        """:meth:`evaluate` for exactly one configuration.

        The sweep worker's entry point: one combo in, one report out,
        with the same keyword surface as :meth:`evaluate`.
        """
        return self.evaluate(app, names=[name], **kw)[name]

    def recommend(
        self,
        profile: AppProfile,
        level: str = "nfs",
        require_redundancy: bool = False,
    ):
        """Rank configurations for an application profile (phase 2+3)."""
        return rank_configurations(
            profile,
            self.tables,
            level=level,
            require_redundancy=require_redundancy,
            factors_by_config=self.factors(),
        )

    # ------------------------------------------------------------------
    # persistence: characterization is expensive, keep it
    # ------------------------------------------------------------------
    def save_tables(self, directory) -> list[str]:
        """Write every performance table as ``<config>_<level>.csv``.

        Returns the written file names.  Re-load with
        :meth:`load_tables`, so phase 1 runs once per system and its
        results serve later evaluation sessions.
        """
        from pathlib import Path

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written = []
        for name, tables in self.tables.items():
            for level, table in tables.items():
                path = directory / f"{name}_{level}.csv"
                path.write_text(table.to_csv())
                written.append(path.name)
        return sorted(written)

    def load_tables(self, directory) -> dict[str, dict[str, PerformanceTable]]:
        """Load tables previously written by :meth:`save_tables`.

        Only files matching this methodology's configuration names are
        loaded; missing files are simply absent from the result.
        """
        from pathlib import Path

        directory = Path(directory)
        for name in self.configs:
            tables: dict[str, PerformanceTable] = {}
            for level in self.levels:
                path = directory / f"{name}_{level}.csv"
                if path.exists():
                    tables[level] = PerformanceTable.from_csv(level, path.read_text())
            if tables:
                self.tables[name] = tables
        return self.tables
