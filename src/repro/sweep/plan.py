"""Sweep plan enumeration: config × workload × fault combos.

A plan is the cross product of three axes, flattened into self-
contained task payloads and deduplicated by content fingerprint:

* **configs** — named cluster configurations (``jbod``/``raid5``/...);
* **workloads** — benchmark adapters (``btio:S:4:full``), declarative
  spec files, and ``repro workload fuzz`` seeds.  Spec documents are
  *inlined* into the payload, so a run directory is resumable after
  the original spec files move or disappear;
* **faults** — ``none`` and/or fault-schedule JSON files (inlined the
  same way).

The task fingerprint covers the *content* of each axis — the
:class:`~repro.clusters.builder.SystemConfig` object, the compiled
workload fingerprint, the normalised fault schedule and the
characterization sweep parameters — so two descriptor spellings of
the same combination (a fuzz seed and its checked-in spec file, a
schedule listed twice) collapse into one task, exactly like the
table-cache keys they share.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from ..clusters import (
    AOHYPER_CONFIGS,
    AOHYPER_EXTRA_CONFIGS,
    aohyper_config,
    cluster_a_config,
)
from ..fingerprint import fingerprint, workload_fingerprint

__all__ = [
    "TASK_SCHEMA",
    "PlanError",
    "SweepTask",
    "resolve_config",
    "parse_workload_arg",
    "descriptor_app",
    "build_plan",
]

TASK_SCHEMA = "repro.sweep-task/1"


class PlanError(ValueError):
    """A sweep axis value does not enumerate."""


@dataclass(frozen=True)
class SweepTask:
    """One planned combination: content fingerprint + payload.

    The payload is pure JSON (it lives in the manifest and in every
    result record) and contains everything a worker needs — no paths,
    no host state — so records are byte-comparable across run
    directories and machines.
    """

    fp: str
    payload: dict


def resolve_config(name: str):
    """A :class:`SystemConfig` for a sweep-axis configuration name."""
    if name in AOHYPER_CONFIGS or name in AOHYPER_EXTRA_CONFIGS:
        return aohyper_config(name)
    if name in ("cluster-a", "cluster_a"):
        return cluster_a_config()
    raise PlanError(f"unknown configuration {name!r}; see `repro list`")


# ----------------------------------------------------------------------
# workload descriptors
# ----------------------------------------------------------------------
def parse_workload_arg(text: str) -> dict:
    """Parse a ``--workloads`` item into a descriptor dict.

    ``btio[:CLASS[:NPROCS[:SUBTYPE]]]`` or
    ``madbench[:KPIX[:NPROCS[:FILETYPE]]]``.
    """
    parts = text.split(":")
    kind = parts[0]
    if kind not in ("btio", "madbench"):
        raise PlanError(
            f"unknown workload kind {kind!r} (want btio:... or madbench:...; "
            "spec files go through --workload-spec, fuzz seeds through "
            "--fuzz-seeds)"
        )

    def part(i: int, default):
        return parts[i] if len(parts) > i else default

    try:
        if len(parts) > 4:
            raise ValueError(f"{len(parts) - 1} fields after {kind!r}, at most 3")
        if kind == "btio":
            desc = {"kind": "btio", "clazz": part(1, "A"),
                    "nprocs": int(part(2, 16)), "subtype": part(3, "full")}
        else:
            desc = {"kind": "madbench", "kpix": int(part(1, 6)),
                    "nprocs": int(part(2, 16)), "filetype": part(3, "shared")}
        # the workload's own config validates class, geometry and type
        descriptor_app(desc)
    except ValueError as exc:
        raise PlanError(f"bad workload descriptor {text!r}: {exc}")
    return desc


def spec_descriptor(doc: dict, label: str) -> dict:
    """Descriptor embedding a full (already validated) spec document."""
    return {"kind": "spec", "label": label, "doc": doc}


def descriptor_app(desc: dict):
    """Build the runnable application an executor descriptor names."""
    kind = desc.get("kind")
    if kind == "btio":
        from ..workloads.apps import BTIOApplication
        from ..workloads.btio import BTIOConfig

        return BTIOApplication(BTIOConfig(
            clazz=desc["clazz"], nprocs=desc["nprocs"], subtype=desc["subtype"]
        ))
    if kind == "madbench":
        from ..workloads.apps import MadBenchApplication
        from ..workloads.madbench import MadBenchConfig

        return MadBenchApplication(MadBenchConfig(
            kpix=desc["kpix"], nprocs=desc["nprocs"], filetype=desc["filetype"]
        ))
    if kind == "spec":
        from ..workloads.apps import SyntheticApplication
        from ..workloads.grammar import compile_spec, spec_name

        spec = compile_spec(desc["doc"])
        return SyntheticApplication(
            spec=spec, label=spec_name(desc["doc"], desc.get("label", "workload"))
        )
    raise PlanError(f"unknown workload descriptor kind {kind!r}")


def descriptor_label(desc: dict) -> str:
    kind = desc.get("kind")
    if kind == "btio":
        return f"btio-{desc['clazz']}-{desc['nprocs']}-{desc['subtype']}"
    if kind == "madbench":
        return f"madbench-{desc['kpix']}-{desc['nprocs']}-{desc['filetype']}"
    return str(desc.get("label", "workload"))


# ----------------------------------------------------------------------
# axis collection + enumeration
# ----------------------------------------------------------------------
def collect_workloads(
    named: Sequence[str] = (),
    spec_files: Sequence[str] = (),
    fuzz_seeds: Sequence[int] = (),
    fuzz_max_phases: int = 6,
) -> list[dict]:
    """Normalise the three workload sources into descriptors."""
    out: list[dict] = []
    for text in named:
        out.append(parse_workload_arg(text))
    for path in spec_files:
        from ..workloads.grammar import (
            WorkloadSpecError,
            load_document,
            spec_name,
            validate_spec,
        )

        try:
            doc = validate_spec(load_document(path))
        except (OSError, WorkloadSpecError) as exc:
            raise PlanError(f"cannot load workload spec {path!r}: {exc}")
        out.append(spec_descriptor(doc, spec_name(doc, Path(str(path)).stem)))
    for seed in fuzz_seeds:
        from ..workloads.fuzz import fuzz_spec

        doc = fuzz_spec(int(seed), max_phases=fuzz_max_phases)
        out.append(spec_descriptor(doc, doc["name"]))
    if not out:
        raise PlanError(
            "no workloads: give --workloads, --workload-spec and/or --fuzz-seeds"
        )
    return out


def collect_faults(faults: Sequence[str] = ()) -> list[tuple[str, Optional[dict]]]:
    """Normalise the fault axis into ``(label, schedule-dict | None)``."""
    out: list[tuple[str, Optional[dict]]] = []
    for item in faults or ("none",):
        if item == "none":
            out.append(("none", None))
            continue
        from ..faults import FaultSchedule

        try:
            schedule = FaultSchedule.load(item)
        except (OSError, ValueError) as exc:
            raise PlanError(f"cannot load fault schedule {item!r}: {exc}")
        out.append((Path(str(item)).stem, schedule.as_dict()))
    return out


def build_plan(
    configs: Sequence[str],
    workloads: Sequence[dict],
    faults: Sequence[tuple[str, Optional[dict]]],
    char: dict,
    phase_fastpath: bool = True,
    sanitize: bool = False,
) -> list[SweepTask]:
    """Enumerate and fingerprint-dedupe the full combination space.

    ``char`` carries the characterization sweep parameters
    (``block_sizes``, ``char_file_bytes``, ``ior_nprocs``,
    ``ior_file_bytes``) — part of every task's identity, since they
    select the performance tables the evaluation is scored against.

    The config axis varies *fastest* so a fanned-out pool's first wave
    hits distinct configurations — each worker warms a different
    table-cache entry instead of all racing on the same one.
    """
    if not configs:
        raise PlanError("no configurations")
    config_objs = {name: resolve_config(name) for name in configs}
    wl_fps = [workload_fingerprint(descriptor_app(d)) for d in workloads]

    tasks: dict[str, SweepTask] = {}
    dropped = 0
    for (fault_label, fault_dict) in faults:
        for desc, wl_fp in zip(workloads, wl_fps):
            for name in configs:
                fp = fingerprint(
                    TASK_SCHEMA,
                    config_objs[name],
                    wl_fp,
                    fault_dict,
                    phase_fastpath,
                    sanitize,
                    char,
                )
                if fp in tasks:
                    dropped += 1
                    continue
                payload = {
                    "schema": TASK_SCHEMA,
                    "config": name,
                    "workload": desc,
                    "workload_label": descriptor_label(desc),
                    "faults": fault_dict,
                    "fault_label": fault_label,
                    "phase_fastpath": phase_fastpath,
                    "sanitize": sanitize,
                    "char": char,
                }
                tasks[fp] = SweepTask(fp=fp, payload=payload)
    if dropped:
        import logging

        logging.getLogger(__name__).info(
            "plan deduplicated %d task(s) by fingerprint", dropped
        )
    return list(tasks.values())


def char_params(
    block_sizes: Sequence[int],
    char_file_bytes: Optional[int] = None,
    ior_nprocs: int = 8,
    ior_file_bytes: Optional[int] = None,
) -> dict:
    """The characterization-sweep identity carried by every task."""
    return {
        "block_sizes": [int(b) for b in block_sizes],
        "char_file_bytes": char_file_bytes,
        "ior_nprocs": int(ior_nprocs),
        "ior_file_bytes": ior_file_bytes,
    }
