"""simrace: schedule-race detection — static rules + differential runs.

The DES calendar breaks ``(when, priority)`` ties by insertion order.
That order is an implementation accident: two events scheduled for the
same instant by *different* prior executions have no causal order, so a
correct model must produce identical results whichever fires first.  A
**schedule race** is any result that depends on the accident — the
simulation analogue of a data race, and exactly the failure mode that
silently corrupts fingerprint-keyed caches and replayed phases.

Three layers, cheapest first:

**Static rules** (:data:`RACE_RULES`) extend the simlint framework to
code reachable from what the calendar calls: ``Event.callbacks``
registrations, direct entries pushed through ``_push`` and the
continuations of the flat state machines' waits:

``tie-order-rmw``
    a callback-reachable function read-modify-writes shared mutable
    state (a subscript target, a non-``self`` attribute, or an
    attribute chain) with a non-additive update — e.g.
    ``state["v"] = state["v"] * 2``.  Two such callbacks in one tie
    group yield order-dependent results.  Pure ``+=``/``-=`` updates
    and ``max``/``min`` self-updates commute and are not flagged
    unless the same path also gates a branch in the function (observed
    intermediate values).

``unordered-callback-iter``
    a callback-reachable function iterates a ``set``/``frozenset``
    with an effectful body: the iteration order is insertion- and
    hash-dependent, so the effects fire in unordered sequence.

``seq-dependent-branch``
    a callback-reachable function branches on a scheduler insertion
    counter (``_seq`` / ``seq`` / ``_order``): such a comparison makes
    behaviour a function of push order by construction.

Suppressions use the shared pragma syntax (``# simlint:
ignore[rule]`` / ``# simlint: skip-file``); ``repro lint`` picks these
rules up alongside the simlint ones.

**Runtime perturbation** (:mod:`repro.simengine.schedule`) records tie
groups during a run, then re-executes under reversed and seeded-random
block orders, comparing results on three surfaces:

* *conserved* — every non-float leaf plus the container structure
  (byte counts, op counts, table shapes).  Must be byte-identical
  under any tie-break order; a difference is a race.
* *timing* — float leaves.  Contention interleavings legitimately
  shift timings a little; the maximum relative deviation must stay
  under a tolerance (default 2%, the replay steadiness bound).
* *diagnostics* — wall clock and replay/sanitizer telemetry, excluded
  from comparison entirely.

**Differential matrix** (:func:`run_race_matrix`, ``repro race``)
sweeps sanitizer x perturbations over one workload and configuration.
Characterization runs unperturbed once per cell and its per-level
table hashes must agree across every cell (the sanitizer only
observes); the perturbation axis applies only to the
evaluation run, executed with ``phase_fastpath=False`` — the replay
accelerator's steadiness heuristic is deliberately timing-sensitive,
so perturbing under it measures the heuristic, not the model.  On a
conserved divergence the flip set is delta-debugged to a minimal
reproducing subset and the first divergent event pop is reported.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import sys
from typing import Any, Callable, Iterator, Optional, Sequence, Union

from .simlint import (
    Finding,
    _is_set_expr,
    _iter_files,
    _Pragmas,
)

__all__ = [
    "RACE_RULES",
    "lint_race_source",
    "lint_race_paths",
    "split_surfaces",
    "timing_sensitivity",
    "diff_conserved",
    "run_race_matrix",
    "main",
]

RACE_RULES: tuple[str, ...] = (
    "tie-order-rmw",
    "unordered-callback-iter",
    "seq-dependent-branch",
)

#: attribute names that expose the scheduler's insertion counters
_SEQ_NAMES = frozenset({"_seq", "seq", "_order"})

#: calls whose argument at the given index (or keyword) is called from
#: the calendar: ``env._push(when, priority, fn)``, the continuation
#: ``k`` of the flat state machines' ``_await(ev, k)`` /
#: ``_sleep(delay, k)`` / ``_wake(at, k)``, and the ``waiter`` of
#: ``res.request(waiter, order_key)``, which the grant calls
_CONTINUATION_ARGS: dict[str, tuple[int, Optional[str]]] = {
    "_push": (2, None),
    "_await": (1, None),
    "_sleep": (1, None),
    "_wake": (1, None),
    "request": (0, "waiter"),
}

_FnNode = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


# ----------------------------------------------------------------------
# layer 1: static order-sensitivity rules
# ----------------------------------------------------------------------
def _callback_roots(tree: ast.AST) -> tuple[set[str], list[ast.Lambda]]:
    """Functions the calendar calls.

    Roots are the arguments of ``<expr>.callbacks.append(...)`` calls,
    the callable of ``<expr>._push(when, priority, fn)``, the
    continuation of ``<expr>._await``/``_sleep``/``_wake`` and the
    ``waiter`` of ``<expr>.request(...)`` (first positional argument or
    keyword): plain names, bound methods (matched by attribute name),
    lambdas, and — for factory calls like ``append(make_cb(x))`` — the
    factory name (its nested defs become reachable through the closure
    walk).
    """
    names: set[str] = set()
    lambdas: list[ast.Lambda] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        keyword: Optional[str] = None
        if (
            func.attr == "append"
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "callbacks"
        ):
            index = 0
        else:
            index, keyword = _CONTINUATION_ARGS.get(func.attr, (-1, None))
        if 0 <= index < len(node.args):
            arg = node.args[index]
        elif keyword is not None:
            arg = next((kw.value for kw in node.keywords if kw.arg == keyword), None)
            if arg is None:
                continue
        else:
            continue
        if isinstance(arg, ast.Name):
            names.add(arg.id)
        elif isinstance(arg, ast.Attribute):
            names.add(arg.attr)
        elif isinstance(arg, ast.Lambda):
            lambdas.append(arg)
        elif isinstance(arg, ast.Call):
            factory = arg.func
            if isinstance(factory, ast.Name):
                names.add(factory.id)
            elif isinstance(factory, ast.Attribute):
                names.add(factory.attr)
    return names, lambdas


def _function_table(tree: ast.AST) -> dict[str, list[_FnNode]]:
    fns: dict[str, list[_FnNode]] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fns.setdefault(node.name, []).append(node)
    return fns


def _reachable_callbacks(tree: ast.AST) -> list[_FnNode]:
    """Same-file closure of functions reachable from callback roots.

    From each root, calls to names defined in the file pull those
    definitions in, and nested defs/lambdas (closures the root builds,
    e.g. a factory's returned callback) are reachable too.
    """
    names, lambdas = _callback_roots(tree)
    fns = _function_table(tree)
    work: list[_FnNode] = [n for name in names for n in fns.get(name, [])]
    work.extend(lambdas)
    seen_ids: set[int] = set()
    reachable: list[_FnNode] = []
    while work:
        fn = work.pop()
        if id(fn) in seen_ids:
            continue
        seen_ids.add(id(fn))
        reachable.append(fn)
        for node in ast.walk(fn):
            if node is fn:
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                work.append(node)
            elif isinstance(node, ast.Call):
                callee = node.func
                callee_name: Optional[str] = None
                if isinstance(callee, ast.Name):
                    callee_name = callee.id
                elif isinstance(callee, ast.Attribute):
                    callee_name = callee.attr
                if callee_name is not None and callee_name in fns:
                    work.extend(fns[callee_name])
    return reachable


def _scope_nodes(fn: _FnNode) -> Iterator[ast.AST]:
    """Walk a callback function's own scope (not nested defs).

    Nested scopes are visited separately — the reachability closure
    already queues them — so each finding is attributed to the scope
    that contains it.
    """
    body: list[ast.AST]
    if isinstance(fn, ast.Lambda):
        body = [fn.body]
    else:
        body = list(fn.body)
    stack = body
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _SCOPE_NODES):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _attr_chain(node: ast.expr) -> Optional[tuple[str, ...]]:
    """``a.b.c`` -> ``("a", "b", "c")``; None for non-name bases."""
    parts: list[str] = []
    cur: ast.expr = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.append(cur.id)
    return tuple(reversed(parts))


def _state_path(node: ast.expr) -> Optional[tuple[str, ...]]:
    """A hashable path for *shared* mutable state, else ``None``.

    Shared: subscripts of a name/attribute (``state["v"]``,
    ``self.tbl[k]``), attributes of non-``self`` objects (``obj.x``),
    and chains of depth >= 2 (``self.stats.count``).  Not shared: bare
    local names and single-level ``self.x`` (single-owner state by
    convention — flagging it would drown the tree in false positives).
    """
    if isinstance(node, ast.Subscript):
        base = _state_path(node.value)
        if base is None:
            chain = _attr_chain(node.value)
            if chain is None:
                if isinstance(node.value, ast.Name):
                    chain = (node.value.id,)
                else:
                    return None
            base = chain
        index = node.slice
        if isinstance(index, ast.Constant):
            return base + ("[]", repr(index.value))
        return base + ("[]", "*")
    chain = _attr_chain(node)
    if chain is None:
        return None
    if chain[0] == "self" and len(chain) == 2:
        return None
    if len(chain) < 2:
        return None
    return chain


def _read_paths(node: ast.AST) -> set[tuple[str, ...]]:
    """Every shared-state path read anywhere inside ``node``."""
    out: set[tuple[str, ...]] = set()
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Subscript, ast.Attribute)):
            path = _state_path(sub)  # type: ignore[arg-type]
            if path is not None:
                out.add(path)
    return out


def _is_additive(value: ast.expr, path: tuple[str, ...]) -> bool:
    """Is ``value`` a pure additive update of ``path``?

    True for ``<path> + e`` / ``e + <path>`` / ``<path> - e`` and for
    ``max(<path>, e)`` / ``min(<path>, e)`` (either argument order)
    where the other operand does not read the path; anything else that
    reads the path (multiplication, other calls, conditionals) is
    order-sensitive.
    """
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id in ("max", "min")
        and len(value.args) == 2
        and not value.keywords
    ):
        first, second = value.args
        if _state_path(first) == path:
            other = second
        elif _state_path(second) == path:
            other = first
        else:
            return False
        return path not in _read_paths(other)
    if not isinstance(value, ast.BinOp) or not isinstance(value.op, (ast.Add, ast.Sub)):
        return False
    left_reads = path in _read_paths(value.left)
    right_reads = path in _read_paths(value.right)
    if left_reads and right_reads:
        return False
    side = value.left if left_reads else value.right
    if isinstance(value.op, ast.Sub) and right_reads:
        return False  # e - <path> does not commute with another subtract
    return _state_path(side) == path


class _RaceChecker:
    """Applies the race rules to one callback-reachable function."""

    def __init__(self, path: str, set_names: frozenset[str]):
        self.path = path
        self.set_names = set_names
        self.findings: list[Finding] = []

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

    def _observed_paths(self, fn: _FnNode) -> set[tuple[str, ...]]:
        """Shared paths read inside branch conditions of ``fn``."""
        out: set[tuple[str, ...]] = set()
        for node in _scope_nodes(fn):
            if isinstance(node, (ast.If, ast.While)):
                out |= _read_paths(node.test)
            elif isinstance(node, ast.IfExp):
                out |= _read_paths(node.test)
            elif isinstance(node, ast.Assert):
                out |= _read_paths(node.test)
        return out

    def _check_rmw(self, fn: _FnNode) -> None:
        observed = self._observed_paths(fn)
        for node in _scope_nodes(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                path = _state_path(node.targets[0])
                if path is None or path not in _read_paths(node.value):
                    continue
                if _is_additive(node.value, path) and path not in observed:
                    continue
                self.flag(
                    node,
                    "tie-order-rmw",
                    f"read-modify-write of shared state {'.'.join(path)}: "
                    "two same-time callbacks doing this produce results "
                    "that depend on the calendar's insertion-order "
                    "tie-break; make the update commutative or impose a "
                    "semantic order_key",
                )
            elif isinstance(node, ast.AugAssign):
                path = _state_path(node.target)
                if path is None:
                    continue
                additive = isinstance(node.op, (ast.Add, ast.Sub))
                if additive and path not in observed:
                    continue
                why = (
                    "its intermediate value also gates a branch here"
                    if additive
                    else "the update is not commutative"
                )
                self.flag(
                    node,
                    "tie-order-rmw",
                    f"read-modify-write of shared state {'.'.join(path)} "
                    f"in a callback and {why}: the result depends on the "
                    "calendar's insertion-order tie-break",
                )

    def _check_set_iter(self, fn: _FnNode) -> None:
        for node in _scope_nodes(fn):
            if not isinstance(node, ast.For):
                continue
            it = node.iter
            setish: Optional[str] = None
            if _is_set_expr(it):
                setish = "a set expression"
            elif isinstance(it, ast.Name) and it.id in self.set_names:
                setish = f"set-valued name {it.id!r}"
            elif isinstance(it, ast.Attribute) and it.attr in self.set_names:
                setish = f"set-valued attribute {it.attr!r}"
            if setish is None:
                continue
            effectful = any(
                isinstance(sub, (ast.Call, ast.Assign, ast.AugAssign))
                for stmt in node.body
                for sub in ast.walk(stmt)
            )
            if effectful:
                self.flag(
                    node,
                    "unordered-callback-iter",
                    f"callback iterates {setish} with an effectful body: "
                    "set order is insertion- and hash-dependent, so the "
                    "effects fire in unordered sequence; iterate "
                    "sorted(...) or an insertion-ordered dict",
                )

    def _check_seq_branch(self, fn: _FnNode) -> None:
        for node in _scope_nodes(fn):
            if not isinstance(node, ast.Compare):
                continue
            for side in [node.left, *node.comparators]:
                name: Optional[str] = None
                if isinstance(side, ast.Attribute):
                    name = side.attr
                elif isinstance(side, ast.Name):
                    name = side.id
                if name in _SEQ_NAMES:
                    self.flag(
                        node,
                        "seq-dependent-branch",
                        f"callback compares the scheduler insertion counter "
                        f"{name!r}: behaviour becomes a function of push "
                        "order, which is an implementation accident, not a "
                        "modelled quantity",
                    )
                    break

    def check(self, fn: _FnNode) -> None:
        self._check_rmw(fn)
        self._check_set_iter(fn)
        self._check_seq_branch(fn)


def lint_race_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[str]] = None,
) -> list[Finding]:
    """Run the race rules over one module's source.

    Scope is *callback reachability*, not package membership: only
    functions reachable from a calendar root (see
    :func:`_callback_roots`) in the same file are checked, wherever the
    file lives.  Pragma suppressions (``# simlint: ignore[rule]``)
    apply as in simlint.
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
    # set-valued names, reused for unordered-callback-iter
    from .simlint import _collect_set_names

    checker = _RaceChecker(path, _collect_set_names(tree))
    for fn in _reachable_callbacks(tree):
        checker.check(fn)
    wanted = frozenset(rules) if rules is not None else frozenset(RACE_RULES)
    out = []
    for f in sorted(checker.findings, key=lambda f: (f.line, f.col, f.rule)):
        if f.rule != "syntax" and f.rule not in wanted:
            continue
        if pragmas.suppressed(f.rule, f.line):
            continue
        out.append(f)
    return out


def lint_race_paths(
    paths: Sequence[Any],
    rules: Optional[Sequence[str]] = None,
) -> list[Finding]:
    """Run the race rules over every ``*.py`` under ``paths``."""
    findings: list[Finding] = []
    for f in _iter_files(paths):
        findings.extend(
            lint_race_source(f.read_text(encoding="utf-8"), str(f), rules=rules)
        )
    return findings


# ----------------------------------------------------------------------
# layer 2/3 support: comparison surfaces
# ----------------------------------------------------------------------
#: result keys that are telemetry about *how* a run executed, not what
#: it computed — excluded from every comparison
DIAG_KEYS: frozenset[str] = frozenset(
    {"wall_s", "replay", "replay_phases", "sanitizer", "utilization", "events"}
)


def split_surfaces(
    obj: Any, _path: str = "$"
) -> tuple[Any, dict[str, float]]:
    """Split a canonical result into (conserved, timing) surfaces.

    *Conserved* keeps every non-float leaf and the container structure,
    with floats replaced by ``None`` placeholders (so a structural
    difference — an extra op, a missing row — still shows up there).
    *Timing* maps leaf paths to their float values.  Keys in
    :data:`DIAG_KEYS` are dropped from both.
    """
    if isinstance(obj, dict):
        cons: dict[str, Any] = {}
        tim: dict[str, float] = {}
        for k, v in obj.items():
            if k in DIAG_KEYS:
                continue
            c, t = split_surfaces(v, f"{_path}.{k}")
            cons[k] = c
            tim.update(t)
        return cons, tim
    if isinstance(obj, list):
        lcons: list[Any] = []
        ltim: dict[str, float] = {}
        for i, v in enumerate(obj):
            c, t = split_surfaces(v, f"{_path}[{i}]")
            lcons.append(c)
            ltim.update(t)
        return lcons, ltim
    if isinstance(obj, float) and not isinstance(obj, bool):
        return None, {_path: obj}
    return obj, {}


def timing_sensitivity(base: dict[str, float], other: dict[str, float]) -> float:
    """Maximum relative deviation over the shared timing leaves."""
    worst = 0.0
    for k, b in base.items():
        o = other.get(k)
        if o is None:
            continue
        dev = abs(o - b) / abs(b) if b else abs(o)
        if dev > worst:
            worst = dev
    return worst


def diff_conserved(a: Any, b: Any, _path: str = "$", _out: Optional[list[str]] = None,
                   limit: int = 8) -> list[str]:
    """First ``limit`` leaf paths where two conserved surfaces differ."""
    out = [] if _out is None else _out
    if len(out) >= limit:
        return out
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b), key=str):
            diff_conserved(a.get(k), b.get(k), f"{_path}.{k}", out, limit)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            diff_conserved(x, y, f"{_path}[{i}]", out, limit)
    elif a != b:
        out.append(f"{_path}: {a!r} != {b!r}")
    return out


# ----------------------------------------------------------------------
# layer 3: the differential matrix
# ----------------------------------------------------------------------
def _table_hashes(methodology: Any, config_name: str) -> dict[str, str]:
    """Per-level ``sha256(csv)[:16]`` of one configuration's tables."""
    tables = methodology.tables[config_name]
    return {
        level: hashlib.sha256(tables[level].to_csv().encode()).hexdigest()[:16]
        for level in sorted(tables)
    }


def run_race_matrix(
    app: Any,
    config: Any = None,
    config_name: str = "jbod",
    sanitize: Sequence[bool] = (False, True),
    seeds: Sequence[int] = (0,),
    reverse: bool = True,
    block_sizes: Optional[Sequence[int]] = None,
    char_file_bytes: Optional[int] = None,
    ior_nprocs: int = 8,
    ior_file_bytes: Optional[int] = None,
    tol: float = 0.02,
    minimize: bool = True,
    max_minimize_runs: int = 48,
    progress: Optional[Callable[[str], None]] = None,
) -> dict[str, Any]:
    """Sweep sanitizer x tie-break perturbations.

    Per cell: characterize unperturbed (``n_jobs=1``, no cache), hash
    the tables, run the evaluation baseline under a
    :class:`~repro.simengine.schedule.TieGroupRecorder`, then re-run it
    under each perturbation plan (block reversal plus one seeded
    shuffle per entry of ``seeds``) with ``phase_fastpath=False``.  A
    conserved-surface divergence is a race finding: its flip set is
    minimized and the first divergent pop located.  Table hashes must
    agree across *all* cells.  Returns a ``repro.race-report/1`` dict.
    """
    from ..core.methodology import Methodology
    from ..fingerprint import canonicalize, workload_fingerprint
    from ..simengine.schedule import (
        Perturber,
        PopRecorder,
        TieGroupRecorder,
        capture,
        minimize_flips,
        reverse_plans,
        shuffle_plans,
    )
    from ..storage.base import GiB, KiB

    if config is None:
        from ..clusters import aohyper_config

        config = aohyper_config(config_name)
    if block_sizes is None:
        block_sizes = tuple((32 * KiB) << k for k in range(0, 10, 3))
    if ior_file_bytes is None:
        ior_file_bytes = 2 * GiB

    def say(msg: str) -> None:
        if progress is not None:
            progress(msg)

    sweep: dict[str, Any] = dict(
        block_sizes=tuple(block_sizes),
        ior_nprocs=ior_nprocs,
        ior_file_bytes=ior_file_bytes,
    )
    if char_file_bytes is not None:
        sweep["char_file_bytes"] = char_file_bytes

    cells: list[dict[str, Any]] = []
    findings: list[dict[str, Any]] = []
    all_hashes: list[dict[str, str]] = []

    for san in sanitize:
        say(f"cell sanitize={san}: characterizing")
        m = Methodology({config_name: config}, **sweep)
        m.characterize(n_jobs=1)
        hashes = _table_hashes(m, config_name)
        all_hashes.append(hashes)

        def run_eval(hook: Any = None) -> tuple[Any, dict[str, float]]:
            import contextlib

            cm = capture(hook) if hook is not None else contextlib.nullcontext()
            with cm:
                reports = m.evaluate(app, n_jobs=1, phase_fastpath=False, sanitize=san)
            return split_surfaces(canonicalize(reports))

        recorder = TieGroupRecorder()
        base_cons, base_tim = run_eval(recorder)
        groups = recorder.groups()
        say(f"cell sanitize={san}: {len(groups)} tie group(s), perturbing")

        plans_by_name: dict[str, dict[Any, tuple[int, ...]]] = {}
        if reverse:
            plans_by_name["reverse"] = reverse_plans(groups)
        for seed in seeds:
            plans_by_name[f"shuffle:{seed}"] = shuffle_plans(groups, seed)

        perturbations: list[dict[str, Any]] = []
        for name, plans in plans_by_name.items():
            cons, tim = run_eval(Perturber(plans))
            identical = cons == base_cons
            sens = timing_sensitivity(base_tim, tim)
            entry: dict[str, Any] = {
                "perturbation": name,
                "conserved_identical": identical,
                "timing_sensitivity": sens,
                "within_tolerance": identical and sens <= tol,
            }
            if not identical:
                detail = diff_conserved(base_cons, cons)
                finding: dict[str, Any] = {
                    "kind": "schedule-race",
                    "sanitize": san,
                    "perturbation": name,
                    "detail": detail,
                }
                if minimize:
                    keys = sorted(plans)

                    def diverges(subset: list[Any]) -> bool:
                        sub = {k: plans[k] for k in subset}
                        c, _t = run_eval(Perturber(sub))
                        return c != base_cons

                    minimal, runs, reduced = minimize_flips(
                        keys, diverges, max_runs=max_minimize_runs
                    )
                    finding["flip_groups"] = [list(k) for k in minimal]
                    finding["minimize_runs"] = runs
                    finding["minimal"] = reduced
                    # localize: diff the pop streams of baseline
                    # vs the minimal flip set
                    base_pops = PopRecorder({})
                    run_eval(base_pops)
                    flip_pops = PopRecorder({k: plans[k] for k in minimal})
                    run_eval(flip_pops)
                    first = next(
                        (
                            {"index": i, "baseline": list(b), "flipped": list(g)}
                            for i, (b, g) in enumerate(
                                zip(base_pops.pops, flip_pops.pops)
                            )
                            if b != g
                        ),
                        None,
                    )
                    finding["first_divergence"] = first
                findings.append(finding)
                entry["finding"] = len(findings) - 1
            elif sens > tol:
                findings.append(
                    {
                        "kind": "timing-sensitivity",
                        "sanitize": san,
                        "perturbation": name,
                        "timing_sensitivity": sens,
                        "tolerance": tol,
                    }
                )
                entry["finding"] = len(findings) - 1
            perturbations.append(entry)

        cells.append(
            {
                "sanitize": san,
                "tables": hashes,
                "tie_groups": len(groups),
                "perturbations": perturbations,
            }
        )

    tables_identical = all(h == all_hashes[0] for h in all_hashes[1:])
    if not tables_identical:
        findings.append(
            {
                "kind": "table-divergence",
                "detail": [
                    "characterization table hashes differ across cells; "
                    "the sanitizer changed what it observes"
                ],
            }
        )

    return {
        "schema": "repro.race-report/1",
        "workload": {
            "name": getattr(app, "name", type(app).__name__),
            "fingerprint": workload_fingerprint(app),
        },
        "config": config_name,
        "params": {
            "sanitize": [bool(s) for s in sanitize],
            "seeds": list(seeds),
            "reverse": bool(reverse),
            "tolerance": tol,
            "block_sizes": list(sweep["block_sizes"]),
            "ior_nprocs": ior_nprocs,
            "ior_file_bytes": ior_file_bytes,
        },
        "must_preserve": {
            "identical": tables_identical,
            "tables": all_hashes[0] if all_hashes else {},
        },
        "cells": cells,
        "findings": findings,
        "ok": not findings,
    }


# ----------------------------------------------------------------------
# CLI: ``repro race`` delegates here
# ----------------------------------------------------------------------
def render_report(report: dict[str, Any]) -> str:
    """A compact human-readable rendering of a race report."""
    lines: list[str] = []
    w = report["workload"]
    lines.append(
        f"simrace: {w['name']} [workload {w['fingerprint']}] on "
        f"{report['config']}"
    )
    mp = report["must_preserve"]
    state = "identical across all cells" if mp["identical"] else "DIVERGED"
    lines.append(f"  tables: {state}")
    for level, digest in sorted(mp.get("tables", {}).items()):
        lines.append(f"    {level:<10} {digest}")
    for cell in report["cells"]:
        tag = f"sanitize={cell['sanitize']}"
        lines.append(f"  cell {tag}: {cell['tie_groups']} tie group(s)")
        for p in cell["perturbations"]:
            verdict = "ok" if p["within_tolerance"] else "DIVERGED"
            lines.append(
                f"    {p['perturbation']:<12} {verdict}  "
                f"(timing sensitivity {p['timing_sensitivity']:.2e})"
            )
    for f in report["findings"]:
        lines.append(f"  FINDING [{f['kind']}]: {json.dumps(f, default=str)[:400]}")
    lines.append("simrace: " + ("clean" if report["ok"] else
                                f"{len(report['findings'])} finding(s)"))
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone static pass: ``python -m repro.analysis.simrace``."""
    parser = argparse.ArgumentParser(
        prog="simrace",
        description="static order-sensitivity rules (see repro.analysis.simrace)",
    )
    parser.add_argument("paths", nargs="*", default=["src"])
    parser.add_argument("--rules", nargs="+", choices=RACE_RULES, default=None)
    parser.add_argument("--format", choices=["text", "json"], default="text", dest="fmt")
    args = parser.parse_args(argv)
    findings = lint_race_paths(args.paths, rules=args.rules)
    if args.fmt == "json":
        print(json.dumps([f.as_dict() for f in findings], indent=2))
    else:
        for f in findings:
            print(f.render())
        status = "clean" if not findings else f"{len(findings)} finding(s)"
        print(f"simrace: {status}", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
