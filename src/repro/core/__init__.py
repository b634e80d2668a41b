"""The paper's contribution: the three-phase I/O evaluation methodology."""

from .characterize import (
    AppMeasure,
    AppProfile,
    characterize_app,
    characterize_level,
    characterize_system,
    LEVELS,
)
from .evaluation import (
    bottleneck_level,
    EvaluationReport,
    generate_used_percentage,
    UsedPercentageTable,
    UsedRow,
)
from .factors import (
    ConfigurableFactors,
    diff_factors,
    extract_factors,
    rank_configurations,
)
from .latency import characterize_latency, LatencyProfile, measure_latency_iops
from .methodology import Application, AppRun, Methodology
from .tablecache import default_cache_root, TableCache
from .prediction import (
    IOPrediction,
    MeasurePrediction,
    meets_requirement,
    predict_io_time,
    rank_predicted,
)
from .perftable import PerformanceTable, PerfRow
from .utilization import (
    ResourceUsage,
    UtilizationReport,
    UtilizationSnapshot,
    UtilizationWindow,
    capture_utilization,
    snapshot_utilization,
)
from .report import (
    format_characterization,
    format_perf_table,
    format_run_metrics,
    format_used_matrix,
    format_used_table,
)

__all__ = [
    "AppMeasure",
    "AppProfile",
    "characterize_app",
    "characterize_level",
    "characterize_system",
    "LEVELS",
    "bottleneck_level",
    "EvaluationReport",
    "generate_used_percentage",
    "UsedPercentageTable",
    "UsedRow",
    "ConfigurableFactors",
    "diff_factors",
    "extract_factors",
    "rank_configurations",
    "Application",
    "AppRun",
    "Methodology",
    "default_cache_root",
    "TableCache",
    "characterize_latency",
    "LatencyProfile",
    "measure_latency_iops",
    "IOPrediction",
    "MeasurePrediction",
    "meets_requirement",
    "predict_io_time",
    "rank_predicted",
    "PerformanceTable",
    "PerfRow",
    "format_characterization",
    "format_perf_table",
    "format_run_metrics",
    "format_used_matrix",
    "format_used_table",
    "ResourceUsage",
    "snapshot_utilization",
    "capture_utilization",
    "UtilizationReport",
    "UtilizationSnapshot",
    "UtilizationWindow",
]
