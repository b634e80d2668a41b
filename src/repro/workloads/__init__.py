"""Workload generators: benchmarks and application models.

IOzone and IOR characterize the file-system and I/O-library levels
(paper Figs. 5/6 and 13/14); BT-IO and MADbench2 are the evaluated
applications; the synthetic generator runs grammar-described patterns.
"""

from .apps import BTIOApplication, MadBenchApplication, SyntheticApplication
from .btio import (
    BTIO_CLASSES,
    BTIOClass,
    BTIOConfig,
    BTIOResult,
    btio_geometry,
    characterize_btio,
    run_btio,
)
from .iozone import DEFAULT_BLOCKS, IOzoneResult, IOzoneRow, run_iozone
from .ior import IORResult, IORRow, run_ior
from .madbench import (
    characterize_madbench,
    MadBenchConfig,
    MadBenchResult,
    run_madbench,
)
from .grammar import (
    compile_spec,
    load_spec,
    spec_fingerprint,
    validate_spec,
    WorkloadSpecError,
)
from .synthetic import run_synthetic, SyntheticPhase, SyntheticResult, SyntheticSpec

__all__ = [
    "BTIOApplication",
    "MadBenchApplication",
    "SyntheticApplication",
    "compile_spec",
    "load_spec",
    "spec_fingerprint",
    "validate_spec",
    "WorkloadSpecError",
    "BTIO_CLASSES",
    "BTIOClass",
    "BTIOConfig",
    "BTIOResult",
    "btio_geometry",
    "characterize_btio",
    "run_btio",
    "DEFAULT_BLOCKS",
    "IOzoneResult",
    "IOzoneRow",
    "run_iozone",
    "IORResult",
    "IORRow",
    "run_ior",
    "characterize_madbench",
    "MadBenchConfig",
    "MadBenchResult",
    "run_madbench",
    "run_synthetic",
    "SyntheticPhase",
    "SyntheticResult",
    "SyntheticSpec",
]
