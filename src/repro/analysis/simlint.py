"""simlint: AST-based static checks for simulation correctness.

The methodology's verdicts are only sound if every simulated run is
deterministic and dimensionally consistent — and PRs 1-3 reuse results
aggressively (fingerprint-keyed table cache, phase extrapolation),
so a single hidden nondeterminism or unit slip
silently corrupts cached tables and extrapolated phases.  simlint
checks the failure classes this codebase has actually met:

``wall-clock``
    ``time.time()`` / ``datetime.now()`` and friends inside the
    simulation packages.  Simulated time is ``env.now``; wall-clock
    readings differ run-to-run and poison determinism.

``unseeded-random``
    module-level ``random.*`` calls, ``random.Random()`` with no seed,
    or legacy ``numpy.random.*`` / ``default_rng()`` with no seed.
    All stochastic inputs must flow through the seeded
    :mod:`repro.simengine.rng` streams.

``set-iteration``
    iterating a ``set``/``frozenset`` (literal, constructor or a name
    assigned one).  Set order depends on insertion history and — for
    strings — on ``PYTHONHASHSEED``, so any iteration feeding event
    scheduling or table merges breaks the bit-identical parallel-merge
    guarantee.  Wrap in ``sorted(...)`` or use an insertion-ordered
    ``dict`` as an ordered set.

``unit-mix``
    adding/subtracting/comparing two unit-suffixed names of the same
    dimension but different units (``*_bytes`` vs ``*_mib``, ``*_s``
    vs ``*_ms``).

``fault-rng``
    any stdlib ``random`` usage — import or call, seeded or not —
    inside :mod:`repro.faults`.  Fault schedules promise byte-
    identical degraded-mode reports for a fixed seed, so all fault
    randomness must flow through the schedule-seeded
    ``env.rng`` registry streams; even a locally seeded
    ``random.Random(42)`` would decouple the jitter from the
    schedule's seed.

``generator-serve``
    a generator-based serve loop (a function yielding simulation
    events, or delegating with ``yield from``) inside
    :mod:`repro.storage` / :mod:`repro.hardware`.  Every service path
    there is a flat callback state machine (``FlatOp`` /
    ``FastHold``), and each behaviour has exactly one implementation;
    per-event generator resumes cost roughly half the wall time the
    flat paths save, so serve code must be written flat.  The only
    generators allowed are long-lived daemons with no flat
    counterpart (the RAID rebuild, cached-write and flusher
    processes), each marked ``# simlint: ignore[generator-serve]``.
    Pure data generators (yielding tuples or names, e.g.
    ``PageCache.coalesce``) are not flagged.

The first three rules apply only inside the simulation packages
(:data:`SIM_PACKAGES`, which includes the workload-grammar and
trace-ingestion layers — their outputs feed the DES and its caches);
``generator-serve`` only inside the storage and hardware layers;
``unit-mix`` applies everywhere.  Intentional
exceptions are allowlisted with ``# simlint: ignore[rule]`` (or a bare
``# simlint: ignore``) on the offending line, and whole files with
``# simlint: skip-file``.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

__all__ = [
    "RULES",
    "SIM_PACKAGES",
    "Finding",
    "lint_source",
    "lint_paths",
    "main",
]

RULES: tuple[str, ...] = (
    "wall-clock",
    "unseeded-random",
    "set-iteration",
    "unit-mix",
    "fault-rng",
    "generator-serve",
)

#: packages whose serve paths must stay flat callback state machines —
#: the scope of the ``generator-serve`` rule
SERVE_PACKAGES: frozenset[str] = frozenset({"storage", "hardware"})

#: packages whose code runs inside (or feeds) the DES — the scope of
#: the determinism rules.  ``workloads`` and ``tracing`` are in scope
#: since the grammar/ingest layers: compiled specs and replayed traces
#: feed the simulation, so nondeterminism there corrupts fingerprint-
#: keyed caches just as surely as in the kernel itself
SIM_PACKAGES: frozenset[str] = frozenset(
    {"simengine", "mpi", "storage", "hardware", "core", "faults",
     "workloads", "tracing"}
)

_TIME_FUNCS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "clock",
    }
)
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})
#: legacy numpy global-stream functions (np.random.<fn>)
_NUMPY_LEGACY = frozenset(
    {
        "random",
        "rand",
        "randn",
        "randint",
        "random_sample",
        "uniform",
        "normal",
        "shuffle",
        "permutation",
        "choice",
        "seed",
    }
)

#: name suffix -> (dimension, unit)
_UNIT_SUFFIXES: dict[str, tuple[str, str]] = {
    "_ns": ("time", "ns"),
    "_us": ("time", "us"),
    "_ms": ("time", "ms"),
    "_s": ("time", "s"),
    "_bytes": ("size", "bytes"),
    "_kib": ("size", "kib"),
    "_mib": ("size", "mib"),
    "_gib": ("size", "gib"),
    "_kb": ("size", "kb"),
    "_mb": ("size", "mb"),
    "_gb": ("size", "gb"),
}
_SUFFIXES_BY_LENGTH = sorted(_UNIT_SUFFIXES, key=len, reverse=True)

_PRAGMA_RE = re.compile(r"#\s*simlint:\s*(ignore|skip-file)(?:\[([^\]]*)\])?")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"

    def as_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


class _Pragmas:
    """Per-line ``# simlint: ignore[...]`` suppressions of one file."""

    def __init__(self, source: str):
        self.skip_file = False
        #: line number -> None (ignore all rules) or the named rules
        self.ignores: dict[int, Optional[frozenset[str]]] = {}
        for lineno, line in enumerate(source.splitlines(), 1):
            m = _PRAGMA_RE.search(line)
            if m is None:
                continue
            if m.group(1) == "skip-file":
                self.skip_file = True
                continue
            rules = m.group(2)
            if rules is None:
                self.ignores[lineno] = None
            else:
                names = frozenset(r.strip() for r in rules.split(",") if r.strip())
                self.ignores[lineno] = names or None

    def suppressed(self, rule: str, *lines: int) -> bool:
        for line in lines:
            if line not in self.ignores:
                continue
            rules = self.ignores[line]
            if rules is None or rule in rules:
                return True
        return False


def _is_sim_path(path: str) -> bool:
    """Does ``path`` live in one of the simulation packages?"""
    parts = Path(path).parts
    for i, part in enumerate(parts):
        if part == "repro" and i + 1 < len(parts):
            return parts[i + 1] in SIM_PACKAGES
    return False


def _is_faults_path(path: str) -> bool:
    """Does ``path`` live in :mod:`repro.faults`?"""
    parts = Path(path).parts
    for i, part in enumerate(parts):
        if part == "repro" and i + 1 < len(parts):
            return parts[i + 1] == "faults"
    return False


def _is_serve_path(path: str) -> bool:
    """Does ``path`` live in a flat-serve-path package (storage/hardware)?"""
    parts = Path(path).parts
    for i, part in enumerate(parts):
        if part == "repro" and i + 1 < len(parts):
            return parts[i + 1] in SERVE_PACKAGES
    return False


def _target_names(target: ast.expr) -> Iterable[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, ast.Attribute):
        yield target.attr
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _target_names(elt)


def _is_set_expr(node: Optional[ast.expr]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _is_set_annotation(node: Optional[ast.expr]) -> bool:
    if isinstance(node, ast.Name):
        return node.id in ("set", "frozenset", "Set", "FrozenSet")
    if isinstance(node, ast.Subscript):
        return _is_set_annotation(node.value)
    return False


def _collect_set_names(tree: ast.AST) -> frozenset[str]:
    """Names (and attribute names) assigned set-valued expressions."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _is_set_expr(node.value):
            for target in node.targets:
                names.update(_target_names(target))
        elif isinstance(node, ast.AnnAssign):
            if _is_set_annotation(node.annotation) or _is_set_expr(node.value):
                names.update(_target_names(node.target))
        elif isinstance(node, ast.AugAssign) and _is_set_expr(node.value):
            names.update(_target_names(node.target))
        elif isinstance(node, ast.arg) and _is_set_annotation(node.annotation):
            names.add(node.arg)
    return frozenset(names)


_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _walk_same_scope(fn: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> Iterable[ast.AST]:
    """Walk a function body without descending into nested scopes."""
    stack: list[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _SCOPE_NODES):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _unit_of(node: ast.expr) -> Optional[tuple[str, str]]:
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        return None
    lowered = name.lower()
    for suffix in _SUFFIXES_BY_LENGTH:
        if lowered.endswith(suffix):
            return _UNIT_SUFFIXES[suffix]
    return None


class _Linter(ast.NodeVisitor):
    def __init__(
        self,
        path: str,
        sim_scope: bool,
        set_names: frozenset[str],
        faults_scope: bool = False,
        serve_scope: bool = False,
    ):
        self.path = path
        self.sim_scope = sim_scope
        self.faults_scope = faults_scope
        self.serve_scope = serve_scope
        self.set_names = set_names
        self.findings: list[Finding] = []
        # import aliases of interest
        self.time_mods: set[str] = set()
        self.datetime_mods: set[str] = set()
        self.datetime_classes: set[str] = set()
        self.random_mods: set[str] = set()
        self.numpy_mods: set[str] = set()
        self.time_names: set[str] = set()
        self.random_names: set[str] = set()
        self.numpy_rng_names: set[str] = set()

    def flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            Finding(
                self.path,
                getattr(node, "lineno", 0),
                getattr(node, "col_offset", 0),
                rule,
                message,
            )
        )

    def _flag_fault_rng(self, node: ast.AST, what: str) -> None:
        self.flag(
            node,
            "fault-rng",
            f"{what} inside repro.faults: fault jitter must come from the "
            "schedule-seeded env.rng registry streams, never the stdlib "
            "random module (seeded or not)",
        )

    # -- imports -----------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "time" or alias.name.startswith("time."):
                self.time_mods.add(bound)
            elif alias.name == "datetime":
                self.datetime_mods.add(bound)
            elif alias.name == "random":
                self.random_mods.add(bound)
                if self.faults_scope:
                    self._flag_fault_rng(node, "import random")
            elif alias.name == "numpy" or alias.name.startswith("numpy."):
                self.numpy_mods.add(bound)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if module == "random" and self.faults_scope:
            self._flag_fault_rng(node, "from random import ...")
        for alias in node.names:
            bound = alias.asname or alias.name
            if module == "time" and alias.name in _TIME_FUNCS:
                self.time_names.add(bound)
            elif module == "datetime" and alias.name == "datetime":
                self.datetime_classes.add(bound)
            elif module == "random":
                self.random_names.add(bound)
            elif module == "numpy.random":
                self.numpy_rng_names.add(bound)

    # -- wall-clock / unseeded-random --------------------------------------
    def _no_args(self, node: ast.Call) -> bool:
        return not node.args and not node.keywords

    def visit_Call(self, node: ast.Call) -> None:
        if self.sim_scope:
            self._check_call(node)
        self.generic_visit(node)

    def _check_call(self, node: ast.Call) -> None:
        func = node.func
        if self.faults_scope:
            if isinstance(func, ast.Name) and func.id in self.random_names:
                self._flag_fault_rng(node, f"{func.id}() call")
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in self.random_mods
            ):
                self._flag_fault_rng(node, f"{func.value.id}.{func.attr}() call")
        if isinstance(func, ast.Name):
            if func.id in self.time_names:
                self.flag(
                    node,
                    "wall-clock",
                    f"{func.id}() reads the wall clock; simulated code must "
                    "use env.now / simulated timings only",
                )
            elif func.id in self.random_names:
                self.flag(
                    node,
                    "unseeded-random",
                    f"{func.id}() draws from the shared unseeded random "
                    "stream; use the seeded repro.simengine.rng streams",
                )
            elif func.id in self.numpy_rng_names and func.id == "default_rng" and self._no_args(node):
                self.flag(
                    node,
                    "unseeded-random",
                    "default_rng() with no seed is entropy-seeded and "
                    "nondeterministic; pass an explicit seed",
                )
            return
        if not isinstance(func, ast.Attribute):
            return
        base = func.value
        if isinstance(base, ast.Name):
            if base.id in self.time_mods and func.attr in _TIME_FUNCS:
                self.flag(
                    node,
                    "wall-clock",
                    f"{base.id}.{func.attr}() reads the wall clock; simulated "
                    "code must use env.now / simulated timings only",
                )
            elif (
                base.id in self.datetime_mods or base.id in self.datetime_classes
            ) and func.attr in _DATETIME_FUNCS:
                self.flag(
                    node,
                    "wall-clock",
                    f"{base.id}.{func.attr}() reads the wall clock; simulated "
                    "code must use env.now / simulated timings only",
                )
            elif base.id in self.random_mods:
                if func.attr == "Random":
                    if self._no_args(node):
                        self.flag(
                            node,
                            "unseeded-random",
                            "random.Random() with no seed is entropy-seeded; "
                            "pass an explicit seed",
                        )
                elif func.attr not in ("SystemRandom", "getstate", "setstate"):
                    self.flag(
                        node,
                        "unseeded-random",
                        f"{base.id}.{func.attr}() uses the shared module-level "
                        "random stream; use the seeded repro.simengine.rng "
                        "streams",
                    )
            elif func.attr == "default_rng" and self._no_args(node):
                self.flag(
                    node,
                    "unseeded-random",
                    "default_rng() with no seed is entropy-seeded and "
                    "nondeterministic; pass an explicit seed",
                )
        elif isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
            # np.random.<fn>() / datetime.datetime.now()
            if (
                base.value.id in self.numpy_mods
                and base.attr == "random"
                and func.attr in _NUMPY_LEGACY
            ):
                self.flag(
                    node,
                    "unseeded-random",
                    f"numpy.random.{func.attr}() uses the legacy global "
                    "stream; use a seeded Generator from "
                    "repro.simengine.rng",
                )
            elif (
                base.value.id in self.datetime_mods
                and base.attr == "datetime"
                and func.attr in _DATETIME_FUNCS
            ):
                self.flag(
                    node,
                    "wall-clock",
                    f"datetime.datetime.{func.attr}() reads the wall clock; "
                    "simulated code must use env.now only",
                )
            elif func.attr == "default_rng" and self._no_args(node):
                self.flag(
                    node,
                    "unseeded-random",
                    "default_rng() with no seed is entropy-seeded and "
                    "nondeterministic; pass an explicit seed",
                )

    # -- set-iteration -----------------------------------------------------
    def _check_iterable(self, node: ast.expr) -> None:
        if not self.sim_scope:
            return
        what: Optional[str] = None
        if isinstance(node, (ast.Set, ast.SetComp)):
            what = "a set literal"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset"):
                what = f"{node.func.id}(...)"
        elif isinstance(node, ast.Name) and node.id in self.set_names:
            what = f"set-valued name {node.id!r}"
        elif isinstance(node, ast.Attribute) and node.attr in self.set_names:
            what = f"set-valued attribute {node.attr!r}"
        if what is not None:
            self.flag(
                node,
                "set-iteration",
                f"iteration over {what}: set order is insertion- and "
                "hash-dependent; wrap in sorted(...) or use an "
                "insertion-ordered dict",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def _visit_comp(self, node: ast.AST, generators: list[ast.comprehension]) -> None:
        for gen in generators:
            self._check_iterable(gen.iter)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comp(node, node.generators)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comp(node, node.generators)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comp(node, node.generators)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comp(node, node.generators)

    # -- generator-serve ---------------------------------------------------
    def _check_generator_serve(
        self, fn: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> None:
        if not self.serve_scope:
            return
        for node in _walk_same_scope(fn):
            # a serve loop yields simulation events (calls) or delegates
            # to another serve generator; data generators yield plain
            # tuples/names/constants and stay unflagged
            if isinstance(node, ast.YieldFrom) or (
                isinstance(node, ast.Yield)
                and isinstance(node.value, (ast.Call, ast.Await))
            ):
                self.flag(
                    fn,
                    "generator-serve",
                    f"{fn.name}() is a generator-based serve loop: "
                    "service paths must be flat callback state machines "
                    "(FlatOp/FastHold); only a long-lived daemon with no "
                    "flat counterpart may stay a generator, marked "
                    "# simlint: ignore[generator-serve]",
                )
                return

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_generator_serve(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_generator_serve(node)
        self.generic_visit(node)

    # -- unit-mix ----------------------------------------------------------
    def _check_unit_pair(self, node: ast.AST, left: ast.expr, right: ast.expr) -> None:
        lu = _unit_of(left)
        ru = _unit_of(right)
        if lu is None or ru is None:
            return
        if lu[0] == ru[0] and lu[1] != ru[1]:
            self.flag(
                node,
                "unit-mix",
                f"arithmetic mixes units: *_{lu[1]} vs *_{ru[1]} — convert "
                "to a common unit before combining",
            )

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, (ast.Add, ast.Sub)):
            self._check_unit_pair(node, node.left, node.right)
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        left = node.left
        for op, right in zip(node.ops, node.comparators):
            if isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)):
                self._check_unit_pair(node, left, right)
            left = right
        self.generic_visit(node)


def lint_source(
    source: str,
    path: str = "<string>",
    sim_scope: Optional[bool] = None,
    rules: Optional[Sequence[str]] = None,
) -> list[Finding]:
    """Lint one module's source; returns the unsuppressed findings.

    ``sim_scope`` forces the determinism rules on or off (``None``
    derives it from ``path``, see :data:`SIM_PACKAGES`).  ``rules``
    restricts the reported rules.
    """
    pragmas = _Pragmas(source)
    if pragmas.skip_file:
        return []
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(path, exc.lineno or 0, exc.offset or 0, "syntax", str(exc.msg))
        ]
    if sim_scope is None:
        sim_scope = _is_sim_path(path)
    linter = _Linter(
        path,
        sim_scope,
        _collect_set_names(tree),
        faults_scope=_is_faults_path(path),
        serve_scope=_is_serve_path(path),
    )
    linter.visit(tree)
    wanted = frozenset(rules) if rules is not None else frozenset(RULES)
    out = []
    for f in sorted(linter.findings, key=lambda f: (f.line, f.col, f.rule)):
        if f.rule != "syntax" and f.rule not in wanted:
            continue
        if pragmas.suppressed(f.rule, f.line):
            continue
        out.append(f)
    return out


def _iter_files(paths: Sequence[Union[str, Path]]) -> list[Path]:
    files: list[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files.extend(
                f for f in sorted(p.rglob("*.py")) if not f.name.startswith(".")
            )
        else:
            files.append(p)
    return files


def lint_paths(
    paths: Sequence[Union[str, Path]],
    rules: Optional[Sequence[str]] = None,
) -> list[Finding]:
    """Lint every ``*.py`` under ``paths`` (files or directories)."""
    findings: list[Finding] = []
    for f in _iter_files(paths):
        findings.extend(
            lint_source(f.read_text(encoding="utf-8"), str(f), rules=rules)
        )
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point of ``repro lint``.

    The schedule-race rules (:data:`repro.analysis.simrace.RACE_RULES`)
    run alongside the simlint ones: one invocation, one merged finding
    list, one shared pragma syntax.
    """
    # simrace imports the framework pieces from this module, so pull
    # its rules in lazily here rather than at import time
    from .simrace import RACE_RULES, lint_race_paths

    parser = argparse.ArgumentParser(
        prog="simlint",
        description="simulation-correctness static checks (see repro.analysis.simlint)",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories (default: src)"
    )
    parser.add_argument(
        "--rules",
        nargs="+",
        choices=RULES + RACE_RULES,
        default=None,
        help="restrict to these rules (default: all, including the "
             "schedule-race rules)",
    )
    parser.add_argument(
        "--format", choices=["text", "json"], default="text", dest="fmt"
    )
    args = parser.parse_args(argv)
    lint_rules = race_rules = None
    if args.rules is not None:
        lint_rules = [r for r in args.rules if r in RULES]
        race_rules = [r for r in args.rules if r in RACE_RULES]
    found: set[Finding] = set()
    if args.rules is None or lint_rules:
        found.update(lint_paths(args.paths, rules=lint_rules))
    if args.rules is None or race_rules:
        # a syntax error is found by both passes: the set keeps one
        found.update(lint_race_paths(args.paths, rules=race_rules))
    findings = sorted(found, key=lambda f: (f.path, f.line, f.col, f.rule))
    if args.fmt == "json":
        print(json.dumps([f.as_dict() for f in findings], indent=2))
    else:
        for f in findings:
            print(f.render())
        nfiles = len(_iter_files(args.paths))
        status = "clean" if not findings else f"{len(findings)} finding(s)"
        print(f"simlint: {nfiles} file(s), {status}", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
