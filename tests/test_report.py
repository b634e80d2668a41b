"""Report-renderer tests."""

from repro.core.characterize import AppMeasure, AppProfile
from repro.core.evaluation import EvaluationReport, generate_used_percentage
from repro.core.perftable import PerfRow, PerformanceTable
from repro.core.report import (
    format_characterization,
    format_perf_table,
    format_run_metrics,
    format_used_matrix,
)
from repro.storage.base import AccessMode, AccessType, MiB


def make_table():
    t = PerformanceTable("nfs")
    t.add(PerfRow("write", 1 * MiB, AccessType.GLOBAL, AccessMode.SEQUENTIAL, 100 * MiB))
    t.add(PerfRow("read", 64 * 1024, AccessType.GLOBAL, AccessMode.STRIDED, 25 * MiB))
    return t


def make_report(name="cfg"):
    prof = AppProfile(nprocs=2)
    prof.measures.append(
        AppMeasure("write", 1 * MiB, AccessMode.SEQUENTIAL, AccessType.GLOBAL, 10, 10 * MiB, 0.2)
    )
    used = generate_used_percentage(name, prof, {"nfs": make_table()})
    return EvaluationReport(name, 100.0, 20.0, 10 * MiB, 0, used, prof)


def test_perf_table_renders_rows_and_units():
    text = format_perf_table(make_table())
    assert "level: nfs" in text
    assert "write" in text and "read" in text
    assert "1M" in text and "64K" in text
    assert "100.0" in text  # MB/s column


def test_used_table_shows_percentages():
    rep = make_report()
    text = format_used_matrix({"cfg": rep}, "write", levels=("nfs",))
    assert "cfg" in text
    assert f"{rep.used.cell('nfs', 'write'):.1f}%" in text


def test_used_matrix_one_row_per_config():
    reports = {"jbod": make_report("jbod"), "raid5": make_report("raid5")}
    text = format_used_matrix(reports, "write", levels=("nfs",))
    assert "jbod" in text and "raid5" in text
    assert "WRITE OPERATIONS" in text


def test_used_matrix_missing_level_dash():
    reports = {"jbod": make_report("jbod")}
    text = format_used_matrix(reports, "write", levels=("iolib",))
    assert "-" in text


def test_characterization_formatting_humanizes_blocks():
    text = format_characterization(
        {"numio_write": 640, "block_bytes_write": [10 * MiB]}, "TABLE II"
    )
    assert "TABLE II" in text
    assert "640" in text
    assert "10M" in text


def test_run_metrics_columns():
    text = format_run_metrics({"cfg": make_report()})
    assert "exec (s)" in text
    assert "100.0" in text
    assert "20.0" in text
