"""Predictive application I/O model (the paper's stated future work).

§V: *"As future work, we aim to define an I/O model of the
application to support the evaluation, design and selection of the
configurations.  This model is based on the application
characteristics and I/O system, and it is being developed to
determine which I/O configuration meets the performance requirements
of the user on a given system."*

This module implements that model: given an application profile
(phase 1's trace-derived characterization — which is *system
independent*, as the paper demonstrates by reusing BT-IO's
characterization across clusters) and a configuration's performance
tables, it predicts the application's I/O time on that configuration
**without running it**:

    predicted_io_time = Σ_measures  bytes(measure) / table_rate(measure)

evaluated at the deepest I/O-path level that actually constrains each
measure (the first level, walking library → network FS → local FS,
whose characterized rate is the minimum — a static version of the
evaluation phase's bottleneck walk).  Requirements checking
("does configuration X meet the user's I/O-time budget?") follows
directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .characterize import AppMeasure, AppProfile
from .perftable import PerformanceTable

__all__ = [
    "MeasurePrediction",
    "IOPrediction",
    "predict_io_time",
    "meets_requirement",
    "rank_predicted",
]

_LEVEL_ORDER = ("iolib", "nfs", "localfs")


@dataclass(frozen=True)
class MeasurePrediction:
    """Prediction for one (op, block, mode) measure."""

    measure: AppMeasure
    limiting_level: Optional[str]
    limiting_rate_Bps: Optional[float]

    @property
    def predicted_time_s(self) -> float:
        if not self.limiting_rate_Bps:
            return 0.0
        return self.measure.total_bytes / self.limiting_rate_Bps


@dataclass
class IOPrediction:
    """Predicted I/O behaviour of an application on a configuration."""

    config_name: str
    per_measure: list[MeasurePrediction] = field(default_factory=list)

    @property
    def io_time_s(self) -> float:
        return sum(p.predicted_time_s for p in self.per_measure)

    def limiting_levels(self) -> dict[str, int]:
        """How many measures each level constrains."""
        out: dict[str, int] = {}
        for p in self.per_measure:
            if p.limiting_level:
                out[p.limiting_level] = out.get(p.limiting_level, 0) + 1
        return out


def predict_io_time(
    config_name: str,
    profile: AppProfile,
    tables: dict[str, PerformanceTable],
    levels: Sequence[str] = _LEVEL_ORDER,
) -> IOPrediction:
    """Predict per-measure and total I/O time from the tables alone.

    For each measure the *limiting* level is the one offering the
    lowest characterized rate for the measure's geometry — the static
    analogue of walking the I/O path until the used percentage stays
    under 100%.
    """
    pred = IOPrediction(config_name)
    for m in profile.measures:
        best_level: Optional[str] = None
        best_rate: Optional[float] = None
        for level in levels:
            table = tables.get(level)
            if table is None:
                continue
            rate = table.lookup(m.op, m.block_bytes, m.access, m.mode)
            if rate is None or rate <= 0:
                continue
            if best_rate is None or rate < best_rate:
                best_level, best_rate = level, rate
        pred.per_measure.append(MeasurePrediction(m, best_level, best_rate))
    return pred


def meets_requirement(
    prediction: IOPrediction,
    max_io_time_s: Optional[float] = None,
    min_bandwidth_Bps: Optional[float] = None,
    total_bytes: Optional[int] = None,
) -> bool:
    """Does the predicted behaviour satisfy the user's requirement?

    ``min_bandwidth_Bps`` is checked against the effective aggregate
    rate ``total_bytes / predicted_io_time``; ``total_bytes`` defaults
    to the profile's byte volume.
    """
    t = prediction.io_time_s
    if max_io_time_s is not None and t > max_io_time_s:
        return False
    if min_bandwidth_Bps is not None:
        if total_bytes is None:
            total_bytes = sum(p.measure.total_bytes for p in prediction.per_measure)
        if t <= 0:
            return True
        if total_bytes / t < min_bandwidth_Bps:
            return False
    return True


def rank_predicted(
    profile: AppProfile,
    tables_by_config: dict[str, dict[str, PerformanceTable]],
) -> list[IOPrediction]:
    """Predict on every configuration, best (lowest I/O time) first."""
    preds = [
        predict_io_time(name, profile, tables)
        for name, tables in tables_by_config.items()
    ]
    preds.sort(key=lambda p: p.io_time_s)
    return preds
