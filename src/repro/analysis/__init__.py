"""Correctness tooling: static checks (simlint) + runtime sanitizer.

The methodology's verdicts are trustworthy only if the simulation is
deterministic, dimensionally consistent and leak-free.  This package
holds the two guards:

* :mod:`repro.analysis.simlint` — AST-based static rules
  (``repro lint``);
* :mod:`repro.analysis.sanitizer` — runtime invariant checks
  (``REPRO_SANITIZE=1`` / ``repro evaluate --sanitize``);
* :mod:`repro.analysis.simrace` — schedule-race detector: static
  order-sensitivity rules over event callbacks, a seeded tie-break
  perturbation probe, and the differential mode matrix
  (``repro race``).
"""

from .sanitizer import SanitizerError, SimSanitizer, Violation, sanitize_enabled
from .simlint import RULES, Finding, lint_paths, lint_source
from .simrace import RACE_RULES, lint_race_paths, lint_race_source, run_race_matrix

__all__ = [
    "RULES",
    "Finding",
    "lint_paths",
    "lint_source",
    "RACE_RULES",
    "lint_race_paths",
    "lint_race_source",
    "run_race_matrix",
    "SanitizerError",
    "SimSanitizer",
    "Violation",
    "sanitize_enabled",
]
