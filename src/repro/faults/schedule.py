"""Seeded, serialisable fault schedules.

A :class:`FaultSchedule` is the unit of reproducibility for degraded
-mode evaluation: a root seed plus an ordered list of
:class:`FaultSpec` entries (*at simulated time T, inject fault F*).
Schedules round-trip through JSON so a faulted experiment is a small
artifact that can live next to its results (``repro evaluate
--faults schedule.json``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from numbers import Integral
from typing import Optional

__all__ = ["FAULT_KINDS", "FaultScheduleError", "FaultSpec", "FaultSchedule"]

#: supported fault kinds, in documentation order
FAULT_KINDS = ("disk_fail", "nfs_stall", "link_flap", "latency_spike")

#: kinds that require a positive duration
_DURATION_KINDS = ("nfs_stall", "link_flap", "latency_spike")


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


class FaultScheduleError(ValueError):
    """A schedule document failed validation; ``errors`` carries one
    ``"<where>: <what>"`` entry per problem (same shape as
    :class:`~repro.workloads.grammar.WorkloadSpecError`)."""

    def __init__(self, errors: "list[str] | str"):
        self.errors = [errors] if isinstance(errors, str) else list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Only the fields relevant to ``kind`` are consulted:

    ``disk_fail``
        ``target`` names the node owning the array (``"ionode"`` for
        the NFS server's array, a compute-node name for local
        storage); ``disk`` is the member index.  A background rebuild
        onto a hot spare starts immediately unless
        ``hot_spare_delay_s`` postpones it; ``rebuild_rate_Bps``
        caps the rebuild rate and ``rebuild_bytes`` bounds the extent
        (default: the member's full capacity).  Rebuild I/O queues on
        the member heads in FIFO order with foreground traffic; the
        rate cap is its only throttle.
    ``nfs_stall``
        The NFS server stops servicing RPCs for ``duration_s``;
        clients retransmit with exponential backoff (``target``
        is ignored — there is one server).
    ``link_flap``
        ``target`` endpoint's link(s) on ``network`` (``"data"`` or
        ``"comm"``) go down for ``duration_s`` in ``direction``
        (``"both"``/``"up"``/``"down"``).
    ``latency_spike``
        ``target`` endpoint's per-message latency on ``network`` is
        multiplied by ``factor`` for ``duration_s``.
    """

    t_s: float
    kind: str
    target: str = "ionode"
    disk: int = 0
    duration_s: float = 0.0
    rebuild_rate_Bps: Optional[float] = None
    rebuild_bytes: Optional[int] = None
    hot_spare_delay_s: float = 0.0
    factor: float = 1.0
    direction: str = "both"
    network: str = "data"

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (one of {FAULT_KINDS})")
        # the negated comparisons also reject NaN
        if not self.t_s >= 0:
            raise ValueError(f"fault time must be >= 0, got {self.t_s!r}")
        if self.kind in _DURATION_KINDS and not self.duration_s > 0:
            raise ValueError(f"{self.kind} needs a positive duration_s, got {self.duration_s!r}")
        if not _is_int(self.disk) or self.disk < 0:
            raise ValueError(f"disk index must be an integer >= 0, got {self.disk!r}")
        if not self.factor > 0:
            raise ValueError(f"latency factor must be positive, got {self.factor!r}")
        if self.direction not in ("both", "up", "down"):
            raise ValueError(f"bad direction {self.direction!r}")
        if self.network not in ("data", "comm"):
            raise ValueError(f"bad network {self.network!r}")
        if self.rebuild_rate_Bps is not None and not self.rebuild_rate_Bps > 0:
            raise ValueError(f"rebuild_rate_Bps must be positive, got {self.rebuild_rate_Bps!r}")
        if self.rebuild_bytes is not None and (
            not _is_int(self.rebuild_bytes) or self.rebuild_bytes <= 0
        ):
            raise ValueError(
                f"rebuild_bytes must be a positive integer, got {self.rebuild_bytes!r}"
            )
        if not self.hot_spare_delay_s >= 0:
            raise ValueError(f"hot_spare_delay_s must be >= 0, got {self.hot_spare_delay_s!r}")

    def as_dict(self) -> dict:
        """Compact JSON-safe form: defaults are omitted."""
        out: dict = {"t_s": self.t_s, "kind": self.kind}
        for f in fields(self):
            if f.name in ("t_s", "kind"):
                continue
            value = getattr(self, f.name)
            if value != f.default:
                out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fault fields {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered set of faults plus the root seed of their jitter.

    Entries are kept sorted by injection time (stable for ties), so
    two schedules listing the same faults in different order are the
    same schedule.
    """

    entries: tuple = field(default_factory=tuple)
    seed: int = 0

    def __post_init__(self):
        ordered = tuple(sorted(self.entries, key=lambda e: e.t_s))
        object.__setattr__(self, "entries", ordered)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    # -- serialisation ---------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "entries": [e.as_dict() for e in self.entries],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSchedule":
        """Strict parse: every problem in the document is collected and
        reported at once via :class:`FaultScheduleError` — unknown keys
        (top-level or per-entry), bad types, invalid field values —
        rather than stopping at the first.  Out-of-order entries are
        not an error; construction sort-normalises them by ``t_s``.
        """
        if not isinstance(data, dict) or "entries" not in data:
            raise FaultScheduleError(
                "schedule: a fault schedule is {'seed': ..., 'entries': [...]}"
            )
        errors: list[str] = []
        unknown = set(data) - {"seed", "entries"}
        if unknown:
            errors.append(f"schedule: unknown keys {sorted(unknown)}")
        seed = 0
        raw_seed = data.get("seed", 0)
        if isinstance(raw_seed, bool) or not isinstance(raw_seed, int):
            errors.append(f"seed: must be an integer, got {raw_seed!r}")
        else:
            seed = raw_seed
        raw_entries = data["entries"]
        entries: list[FaultSpec] = []
        if not isinstance(raw_entries, list):
            errors.append("entries: must be a list of fault objects")
        else:
            for i, e in enumerate(raw_entries):
                if not isinstance(e, dict):
                    errors.append(f"entries[{i}]: must be an object, got {e!r}")
                    continue
                try:
                    entries.append(FaultSpec.from_dict(e))
                except (TypeError, ValueError) as exc:
                    errors.append(f"entries[{i}]: {exc}")
        if errors:
            raise FaultScheduleError(errors)
        return cls(entries=tuple(entries), seed=seed)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        return cls.from_dict(json.loads(text))

    def save(self, path) -> None:
        from pathlib import Path

        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "FaultSchedule":
        from pathlib import Path

        return cls.from_json(Path(path).read_text())
