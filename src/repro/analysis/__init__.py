"""Correctness tooling: static checks, runtime sanitizer, race detector.

The methodology's verdicts are trustworthy only if the simulation is
deterministic, dimensionally consistent and leak-free.  This package
holds the three guards:

* :mod:`repro.analysis.simlint` — AST-based static rules
  (``repro lint``);
* :mod:`repro.analysis.sanitizer` — runtime invariant checks
  (``REPRO_SANITIZE=1`` / ``repro evaluate --sanitize``);
* :mod:`repro.analysis.simrace` — schedule-race detector: re-runs a
  workload under perturbed calendar tie-breaks and compares the
  results (``repro race``, and the tier-1 tie-order gate over the
  golden cells).
"""

from .sanitizer import SanitizerError, SimSanitizer, Violation, sanitize_enabled
from .simlint import RULES, Finding, lint_paths, lint_source
from .simrace import run_race_matrix

__all__ = [
    "RULES",
    "Finding",
    "lint_paths",
    "lint_source",
    "run_race_matrix",
    "SanitizerError",
    "SimSanitizer",
    "Violation",
    "sanitize_enabled",
]
