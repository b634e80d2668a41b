"""Plain-text renderers for the paper's tables and figures.

Everything the benchmark harness prints goes through here so the
regenerated artefacts look like the paper's: performance tables
(Table I instances), used-percentage tables (Tables III/IV/VI/VII/
IX/X/XI), characterization summaries (Tables II/V/VIII) and the
time/throughput bar data of Figs. 12/15/17/18.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..storage.base import MiB
from .evaluation import EvaluationReport
from .perftable import PerformanceTable

__all__ = [
    "format_perf_table",
    "format_used_matrix",
    "format_characterization",
    "format_run_metrics",
]


def _fmt_block(b: int) -> str:
    if b >= MiB:
        return f"{b / MiB:g}M"
    if b >= 1024:
        return f"{b / 1024:g}K"
    return f"{b}B"


def format_perf_table(table: PerformanceTable, unit: float = MiB) -> str:
    """Render a performance table (paper Table I layout)."""
    lines = [
        f"Performance table — level: {table.level}",
        f"{'Operation':<10}{'Blocksize':>10}{'Access':>8}{'Mode':>12}{'MB/s':>10}",
    ]
    for r in sorted(table.rows, key=lambda r: (r.op, r.access.value, r.mode.value, r.block_bytes)):
        lines.append(
            f"{r.op:<10}{_fmt_block(r.block_bytes):>10}{r.access.value:>8}"
            f"{r.mode.value:>12}{r.rate_Bps / unit:>10.1f}"
        )
    return "\n".join(lines)


def format_used_matrix(
    reports: Mapping[str, EvaluationReport],
    op: str,
    levels: Sequence[str] = ("iolib", "nfs", "localfs"),
    label: str = "I/O configuration",
) -> str:
    """Render the paper's Tables III/IV/VI/VII shape: one row per
    configuration, one column per I/O path level."""
    header = ["PERCENTAGE (%) OF I/O SYSTEM USE — " + op.upper() + " OPERATIONS"]
    header.append(f"{label:<22}" + "".join(f"{lv:>10}" for lv in levels))
    lines = header
    for name, rep in reports.items():
        cells = []
        for lv in levels:
            pct = rep.used.cell(lv, op)
            cells.append(f"{pct:>9.1f}%" if pct is not None else f"{'-':>10}")
        lines.append(f"{name:<22}" + "".join(cells))
    return "\n".join(lines)


def format_characterization(char: Mapping, title: str) -> str:
    """Render an application characterization dict (Tables II/V/VIII)."""
    lines = [title]
    for key, val in char.items():
        if isinstance(val, dict):
            val = {(_fmt_block(k) if isinstance(k, int) and k > 64 else k): v for k, v in val.items()}
        if isinstance(val, (list, tuple)):
            val = [_fmt_block(v) if isinstance(v, int) and v > 4096 else v for v in val]
        lines.append(f"  {key:<22} {val}")
    return "\n".join(lines)


def format_run_metrics(reports: Mapping[str, EvaluationReport]) -> str:
    """Render Fig. 12/15-style run metrics per configuration."""
    lines = [
        f"{'configuration':<22}{'exec (s)':>10}{'I/O (s)':>10}{'I/O %':>8}{'MB/s':>10}",
    ]
    for name, rep in reports.items():
        lines.append(
            f"{name:<22}{rep.execution_time_s:>10.1f}{rep.io_time_s:>10.1f}"
            f"{rep.io_fraction * 100:>7.1f}%{rep.throughput_Bps / MiB:>10.1f}"
        )
    return "\n".join(lines)
