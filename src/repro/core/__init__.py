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
    extract_factors,
    rank_configurations,
)
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
    "extract_factors",
    "rank_configurations",
    "Application",
    "AppRun",
    "Methodology",
    "default_cache_root",
    "TableCache",
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
    "ResourceUsage",
    "snapshot_utilization",
    "capture_utilization",
    "UtilizationReport",
    "UtilizationSnapshot",
    "UtilizationWindow",
]
