"""Declarative workload grammar: JSON/YAML specs compiled to phases.

The paper's methodology starts from characterizing the application's
I/O behavior; until now that behavior could only enter the system as
one of the hand-coded workload classes.  Following FBench's CFG-style
approach (PAPERS.md), this module defines a small declarative grammar
— phases, loops, access patterns, compute gaps, collective flags —
that validates against a versioned schema and compiles to the existing
:class:`~repro.workloads.synthetic.SyntheticSpec` phase program, so
arbitrary access patterns (strided, bursty, shared-file vs
file-per-process, mixed read/write) are expressible in a spec file
without new code.

Grammar (version 1)::

    version: 1                  # required, schema version
    name: checkpoint-cycle      # workload label (default: "workload")
    nprocs: 8                   # MPI world size
    path: /nfs/ckpt.dat         # file (file-per-process appends .<rank>)
    layout: shared              # shared | file-per-process
    rank_disjoint: true         # ranks access disjoint regions
    phases:                     # ordered phase / loop nodes
      - op: write               # read | write
        nbytes: 64KiB           # transfer size (int bytes or "64KiB")
        count: 16               # ops per repetition (bulk geometry)
        pattern: strided        # sequential | strided | bursty
        stride: 256KiB          # strided only: distance between ops
        repetitions: 4
        collective: true
        compute_s: 0.01         # busy time before each repetition
      - loop: 3                 # repeat the nested phases in order
        phases: [ ... ]

``pattern: bursty`` models clustered I/O: ``burst_ops`` back-to-back
operations per repetition separated by ``gap_s`` of compute — sugar
for ``count: count*burst_ops, compute_s: gap_s``.

Sizes accept plain ints (bytes) or unit-suffixed strings parsed by
:func:`repro.units.parse_bytes`.  Specs load from JSON or from a YAML
subset (nested mappings, ``-`` lists, scalars, comments) so no
third-party YAML dependency is required.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Union

from ..units import parse_bytes
from .synthetic import SyntheticPhase, SyntheticSpec

__all__ = [
    "SCHEMA_VERSION",
    "WorkloadSpecError",
    "load_document",
    "validate_spec",
    "compile_spec",
    "load_spec",
    "spec_fingerprint",
]

#: grammar version this module validates and compiles
SCHEMA_VERSION = 1

PATTERNS = ("sequential", "strided", "bursty")
LAYOUTS = ("shared", "file-per-process")

#: maximum loop-expansion product, a runaway-spec guard
MAX_COMPILED_PHASES = 100_000


class WorkloadSpecError(ValueError):
    """A spec failed to parse, validate or compile; ``errors`` carries
    one ``"<where>: <what>"`` entry per problem."""

    def __init__(self, errors: "list[str] | str"):
        self.errors = [errors] if isinstance(errors, str) else list(errors)
        super().__init__("; ".join(self.errors))


# ----------------------------------------------------------------------
# document loading: JSON, or a YAML subset (stdlib only)
# ----------------------------------------------------------------------
_YAML_SCALARS = {"true": True, "false": False, "null": None, "~": None, "": None}
_INT_RE = re.compile(r"^-?\d+$")
_FLOAT_RE = re.compile(r"^-?\d+\.\d*(?:[eE][+-]?\d+)?$|^-?\d+[eE][+-]?\d+$")


def _yaml_scalar(token: str) -> Any:
    token = token.strip()
    if token.startswith('"') and token.endswith('"') and len(token) >= 2:
        return json.loads(token)
    if token.startswith("'") and token.endswith("'") and len(token) >= 2:
        return token[1:-1].replace("''", "'")
    lowered = token.lower()
    if lowered in _YAML_SCALARS:
        return _YAML_SCALARS[lowered]
    if _INT_RE.match(token):
        return int(token)
    if _FLOAT_RE.match(token):
        return float(token)
    if token.startswith("[") or token.startswith("{"):
        try:
            return json.loads(token)
        except json.JSONDecodeError:
            raise WorkloadSpecError(f"malformed inline collection: {token!r}")
    return token


def _strip_comment(line: str) -> str:
    """Drop a trailing ``# ...`` comment outside quotes."""
    quote = None
    for i, ch in enumerate(line):
        if quote is not None:
            if ch == quote:
                quote = None
        elif ch in ("'", '"'):
            quote = ch
        elif ch == "#" and (i == 0 or line[i - 1] in " \t"):
            return line[:i]
    return line


@dataclass
class _Line:
    indent: int
    text: str
    lineno: int


def _yaml_lines(text: str) -> list[_Line]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = _strip_comment(raw).rstrip()
        if not stripped.strip():
            continue
        if "\t" in raw[: len(raw) - len(raw.lstrip())]:
            raise WorkloadSpecError(f"line {lineno}: tabs are not allowed in indentation")
        indent = len(stripped) - len(stripped.lstrip(" "))
        out.append(_Line(indent, stripped.strip(), lineno))
    return out


def _parse_block(lines: list[_Line], pos: int, indent: int) -> tuple[Any, int]:
    """Parse the block starting at ``pos`` whose items sit at ``indent``."""
    if pos >= len(lines):
        return None, pos
    if lines[pos].text.startswith("- "):
        return _parse_list(lines, pos, indent)
    return _parse_mapping(lines, pos, indent)


def _parse_list(lines: list[_Line], pos: int, indent: int) -> tuple[list, int]:
    items: list[Any] = []
    while pos < len(lines) and lines[pos].indent == indent and lines[pos].text.startswith("- "):
        ln = lines[pos]
        rest = ln.text[2:].strip()
        if not rest:
            # "-" alone: the item is the nested block
            value, pos = _parse_block(lines, pos + 1, _next_indent(lines, pos + 1, indent))
            items.append(value)
            continue
        if ":" in rest and not rest.startswith(("[", "{", '"', "'")):
            # "- key: value": a mapping item, continued by deeper lines
            synthetic = _Line(indent + 2, rest, ln.lineno)
            sub = [synthetic]
            pos += 1
            while pos < len(lines) and lines[pos].indent > indent:
                sub.append(lines[pos])
                pos += 1
            value, _ = _parse_mapping(sub, 0, indent + 2)
            items.append(value)
            continue
        items.append(_yaml_scalar(rest))
        pos += 1
    return items, pos


def _next_indent(lines: list[_Line], pos: int, parent: int) -> int:
    if pos < len(lines) and lines[pos].indent > parent:
        return lines[pos].indent
    return parent + 2


def _parse_mapping(lines: list[_Line], pos: int, indent: int) -> tuple[dict, int]:
    out: dict[str, Any] = {}
    while pos < len(lines) and lines[pos].indent == indent and not lines[pos].text.startswith("- "):
        ln = lines[pos]
        key, sep, rest = ln.text.partition(":")
        if not sep:
            raise WorkloadSpecError(f"line {ln.lineno}: expected 'key: value', got {ln.text!r}")
        key = _yaml_scalar(key)
        rest = rest.strip()
        if rest:
            out[str(key)] = _yaml_scalar(rest)
            pos += 1
            continue
        # value is the nested block (mapping or list) on deeper lines
        pos += 1
        if pos < len(lines) and lines[pos].indent > indent:
            value, pos = _parse_block(lines, pos, lines[pos].indent)
        else:
            value = None
        out[str(key)] = value
    return out, pos


def _loads_yaml(text: str) -> Any:
    lines = _yaml_lines(text)
    if not lines:
        raise WorkloadSpecError("empty document")
    value, pos = _parse_block(lines, 0, lines[0].indent)
    if pos != len(lines):
        ln = lines[pos]
        raise WorkloadSpecError(f"line {ln.lineno}: unexpected indentation near {ln.text!r}")
    return value


def _spec_path(source: Union[str, Path]) -> Optional[Path]:
    """The file ``source`` names, or ``None`` when it is literal text.

    A one-line string naming an existing file is a path.  So is one
    ending in ``.json``/``.yaml``/``.yml`` whose file does not exist:
    it raises instead of being parsed as a one-line YAML document.
    """
    if isinstance(source, Path):
        return source
    if "\n" not in source:
        if Path(source).is_file():
            return Path(source)
        if source.endswith((".json", ".yaml", ".yml")):
            raise WorkloadSpecError(f"no such spec file: {source}")
    return None


def load_document(source: Union[str, Path]) -> Any:
    """Parse a spec document from a path or literal text.

    A :class:`~pathlib.Path` (or a string naming a file, see
    :func:`_spec_path`) is read first; ``.json`` parses as JSON,
    anything else through the YAML-subset reader (which also accepts
    JSON, its syntax being a YAML subset in spirit — a leading ``{``
    or ``[`` routes to the JSON parser).
    """
    path = _spec_path(source)
    if path is not None:
        text, name = path.read_text(encoding="utf-8"), path.name
    else:
        text, name = source, ""
    stripped = text.lstrip()
    if name.endswith(".json") or stripped.startswith(("{", "[")):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise WorkloadSpecError(f"malformed JSON: {exc}")
    return _loads_yaml(text)


# ----------------------------------------------------------------------
# schema validation
# ----------------------------------------------------------------------
def _is_size(value: Any) -> bool:
    try:
        return parse_bytes(value) >= 0
    except ValueError:
        return False


#: field name -> (checker, description); shared by phase validation
_PHASE_FIELDS: dict[str, tuple] = {
    "name": (lambda v: isinstance(v, str) and v != "", "non-empty string"),
    "op": (lambda v: v in ("read", "write"), "'read' or 'write'"),
    "nbytes": (lambda v: _is_size(v) and parse_bytes(v) > 0, "positive size"),
    "count": (lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 1, "int >= 1"),
    "pattern": (lambda v: v in PATTERNS, f"one of {PATTERNS}"),
    "stride": (lambda v: _is_size(v) and parse_bytes(v) > 0, "positive size"),
    "repetitions": (lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 1, "int >= 1"),
    "collective": (lambda v: isinstance(v, bool), "bool"),
    "compute_s": (
        lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and v >= 0,
        "number >= 0",
    ),
    "offset_step": (lambda v: _is_size(v), "size >= 0"),
    "burst_ops": (lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 1, "int >= 1"),
    "gap_s": (
        lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and v > 0,
        "number > 0",
    ),
}

_TOP_FIELDS: dict[str, tuple] = {
    "version": (lambda v: v == SCHEMA_VERSION, f"the int {SCHEMA_VERSION}"),
    "name": (lambda v: isinstance(v, str) and v != "", "non-empty string"),
    "nprocs": (lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 1, "int >= 1"),
    "path": (lambda v: isinstance(v, str) and v.startswith("/"), "absolute path string"),
    "layout": (lambda v: v in LAYOUTS, f"one of {LAYOUTS}"),
    "rank_disjoint": (lambda v: isinstance(v, bool), "bool"),
    "phases": (lambda v: isinstance(v, list) and len(v) >= 1, "non-empty list"),
}


def _validate_fields(node: dict, fields: dict, where: str, errors: list[str]) -> None:
    for key, value in node.items():
        if key not in fields:
            errors.append(f"{where}: unknown key {key!r}")
            continue
        check, want = fields[key]
        if not check(value):
            errors.append(f"{where}.{key}: expected {want}, got {value!r}")


def _validate_phase_node(node: Any, where: str, errors: list[str]) -> None:
    if not isinstance(node, dict):
        errors.append(f"{where}: expected a mapping, got {type(node).__name__}")
        return
    if "loop" in node:
        loop = node.get("loop")
        if not (isinstance(loop, int) and not isinstance(loop, bool) and loop >= 1):
            errors.append(f"{where}.loop: expected int >= 1, got {loop!r}")
        body = node.get("phases")
        for key in node:
            if key not in ("loop", "phases"):
                errors.append(f"{where}: unknown key {key!r} in loop node")
        if not isinstance(body, list) or not body:
            errors.append(f"{where}.phases: loop needs a non-empty phase list")
            return
        for i, sub in enumerate(body):
            _validate_phase_node(sub, f"{where}.phases[{i}]", errors)
        return
    _validate_fields(node, _PHASE_FIELDS, where, errors)
    if "op" not in node:
        errors.append(f"{where}: missing required key 'op'")
    if "nbytes" not in node:
        errors.append(f"{where}: missing required key 'nbytes'")
    pattern = node.get("pattern", "sequential")
    if pattern == "strided":
        if "stride" not in node:
            errors.append(f"{where}: pattern 'strided' requires 'stride'")
    elif "stride" in node:
        errors.append(f"{where}: 'stride' is only valid with pattern 'strided'")
    if pattern == "bursty":
        if "gap_s" not in node:
            errors.append(f"{where}: pattern 'bursty' requires 'gap_s'")
        if "compute_s" in node:
            errors.append(f"{where}: bursty phases take 'gap_s', not 'compute_s'")
    else:
        for key in ("burst_ops", "gap_s"):
            if key in node:
                errors.append(f"{where}: {key!r} is only valid with pattern 'bursty'")


def validate_spec(doc: Any) -> dict:
    """Validate a parsed document against the version-1 schema.

    Returns the document unchanged on success; raises
    :class:`WorkloadSpecError` carrying *every* problem found (not
    just the first) otherwise.
    """
    errors: list[str] = []
    if not isinstance(doc, dict):
        raise WorkloadSpecError(f"spec: expected a mapping, got {type(doc).__name__}")
    if "version" not in doc:
        errors.append("spec: missing required key 'version'")
    if "phases" not in doc:
        errors.append("spec: missing required key 'phases'")
    _validate_fields(doc, _TOP_FIELDS, "spec", errors)
    for i, node in enumerate(doc.get("phases") or []):
        _validate_phase_node(node, f"phases[{i}]", errors)
    if errors:
        raise WorkloadSpecError(errors)
    return doc


def is_workload_spec(doc: Any) -> bool:
    """Heuristic: does this parsed document claim to be a workload
    spec (as opposed to, say, a fault schedule)?"""
    return isinstance(doc, dict) and "version" in doc and "phases" in doc


# ----------------------------------------------------------------------
# compilation: validated document -> SyntheticSpec
# ----------------------------------------------------------------------
def _compile_phase(node: dict) -> SyntheticPhase:
    pattern = node.get("pattern", "sequential")
    count = node.get("count", 1)
    compute_s = float(node.get("compute_s", 0.0))
    stride = None
    if pattern == "strided":
        stride = parse_bytes(node["stride"])
    elif pattern == "bursty":
        # a burst: burst_ops back-to-back transfers per repetition,
        # separated by gap_s of compute — bulk-count geometry
        count = count * node.get("burst_ops", 1)
        compute_s = float(node["gap_s"])
    offset_step = node.get("offset_step")
    return SyntheticPhase(
        op=node["op"],
        nbytes=parse_bytes(node["nbytes"]),
        count=count,
        stride=stride,
        repetitions=node.get("repetitions", 1),
        collective=node.get("collective", False),
        compute_s=compute_s,
        offset_step=None if offset_step is None else parse_bytes(offset_step),
    )


def _expand(nodes: list, out: list[SyntheticPhase]) -> None:
    for node in nodes:
        if "loop" in node:
            for _ in range(node["loop"]):
                _expand(node["phases"], out)
        else:
            out.append(_compile_phase(node))
        if len(out) > MAX_COMPILED_PHASES:
            raise WorkloadSpecError(
                f"spec expands to more than {MAX_COMPILED_PHASES} phases; "
                "reduce loop nesting"
            )


def compile_spec(doc: Any) -> SyntheticSpec:
    """Compile a (validated) document into a :class:`SyntheticSpec`.

    Loops expand in place, patterns lower to the synthetic phase
    geometry, sizes normalise to integer bytes.  Compilation is pure:
    the same document always yields an identical spec, so the spec's
    fingerprint is a stable identity for caching and dedupe.
    """
    doc = validate_spec(doc)
    phases: list[SyntheticPhase] = []
    _expand(doc["phases"], phases)
    return SyntheticSpec(
        phases=tuple(phases),
        nprocs=doc.get("nprocs", 4),
        path=doc.get("path", "/nfs/synthetic.dat"),
        per_process_files=doc.get("layout", "shared") == "file-per-process",
        rank_disjoint=doc.get("rank_disjoint", True),
    )


def spec_name(doc: Any, default: str = "workload") -> str:
    """The workload label of a parsed spec document."""
    if isinstance(doc, dict) and isinstance(doc.get("name"), str) and doc["name"]:
        return doc["name"]
    return default


def spec_fingerprint(spec: SyntheticSpec) -> str:
    """Stable content hash of a compiled spec.

    Two spec files (or a spec file and an ingested trace) that compile
    to the same phase program share this fingerprint — the identity
    the TableCache/dedupe layers key evaluation artifacts on.
    """
    from ..fingerprint import fingerprint

    return fingerprint(spec)


def load_spec(source: Union[str, Path]):
    """Parse + validate + compile ``source``; returns a ready-to-run
    :class:`~repro.workloads.apps.SyntheticApplication`."""
    from .apps import SyntheticApplication

    path = _spec_path(source)
    doc = load_document(path or source)
    spec = compile_spec(doc)
    default = path.stem if path is not None else "workload"
    return SyntheticApplication(spec=spec, label=spec_name(doc, default))
