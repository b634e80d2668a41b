"""Workload grammar: YAML-subset parsing, validation, golden compiles."""

import json

import pytest

from repro.units import fmt_bytes, parse_bytes
from repro.workloads import (
    SyntheticApplication,
    WorkloadSpecError,
    compile_spec,
    load_spec,
    spec_fingerprint,
    validate_spec,
)
from repro.workloads.grammar import is_workload_spec, load_document, spec_name

KiB = 1024
MiB = 1024 * KiB


# ----------------------------------------------------------------------
# units helper
# ----------------------------------------------------------------------
class TestUnits:
    @pytest.mark.parametrize("value,expected", [
        (4096, 4096),
        ("4096", 4096),
        ("64KiB", 64 * KiB),
        ("64K", 64 * KiB),
        ("64 kb", 64 * KiB),
        ("1.5MiB", 1536 * KiB),
        ("2GiB", 2 << 30),
        ("17B", 17),
        ("0", 0),
    ])
    def test_parse_bytes(self, value, expected):
        assert parse_bytes(value) == expected

    @pytest.mark.parametrize("bad", ["", "abc", "12Q", "-5", -5, "1.3B", 1.5, True])
    def test_parse_bytes_rejects(self, bad):
        with pytest.raises((ValueError, TypeError)):
            parse_bytes(bad)

    @pytest.mark.parametrize("n,text", [
        (0, "0B"),
        (512, "512B"),
        (4096, "4.0KiB"),
        (1536 * KiB, "1.5MiB"),
        (8 << 20, "8.0MiB"),
    ])
    def test_fmt_bytes(self, n, text):
        assert fmt_bytes(n) == text

    def test_round_trip_exact_sizes(self):
        for n in (1, 512, 64 * KiB, 3 * MiB, 1 << 30):
            assert parse_bytes(fmt_bytes(n)) == n


# ----------------------------------------------------------------------
# document loading (YAML subset + JSON)
# ----------------------------------------------------------------------
YAML_DOC = """\
# checkpoint cycle
version: 1
name: "ckpt # not-a-comment"
nprocs: 8
path: /nfs/ckpt.dat
layout: file-per-process
rank_disjoint: false
phases:
  - op: write            # data dump
    nbytes: 64KiB
    count: 16
    collective: true
  - loop: 3
    phases:
      - op: read
        nbytes: 1MiB
        compute_s: 0.5
"""


class TestYamlSubset:
    def test_nested_document(self):
        doc = load_document(YAML_DOC)
        assert doc["version"] == 1
        assert doc["name"] == "ckpt # not-a-comment"
        assert doc["rank_disjoint"] is False
        assert doc["phases"][0]["collective"] is True
        assert doc["phases"][1]["loop"] == 3
        assert doc["phases"][1]["phases"][0]["compute_s"] == 0.5

    def test_scalars(self):
        doc = load_document("a: true\nb: 3\nc: 2.5\nd: ~\ne: 'it''s'\nf: [1, 2]\n")
        assert doc == {"a": True, "b": 3, "c": 2.5, "d": None,
                       "e": "it's", "f": [1, 2]}

    def test_tabs_rejected(self):
        with pytest.raises(WorkloadSpecError, match="tabs"):
            load_document("a:\n\tb: 1\n")

    def test_json_routing(self):
        doc = load_document('{"version": 1, "phases": []}')
        assert doc == {"version": 1, "phases": []}

    def test_file_loading(self, tmp_path):
        y = tmp_path / "w.yaml"
        y.write_text(YAML_DOC)
        j = tmp_path / "w.json"
        j.write_text(json.dumps(load_document(YAML_DOC)))
        assert load_document(y) == load_document(j)
        assert load_document(str(y)) == load_document(y)

    def test_empty_document(self):
        with pytest.raises(WorkloadSpecError, match="empty"):
            load_document("# only a comment\n")

    @pytest.mark.parametrize("name", ["missing.json", "missing.yaml", "missing.yml"])
    def test_missing_spec_file_is_not_inline_yaml(self, tmp_path, name):
        path = str(tmp_path / name)
        with pytest.raises(WorkloadSpecError, match="no such spec file"):
            load_document(path)
        with pytest.raises(WorkloadSpecError, match="no such spec file"):
            load_spec(path)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def minimal(**over):
    doc = {"version": 1, "phases": [{"op": "write", "nbytes": 4096}]}
    doc.update(over)
    return doc


class TestValidation:
    def test_minimal_ok(self):
        assert validate_spec(minimal()) == minimal()

    def test_collects_every_error(self):
        doc = {
            "version": 99,
            "nprocs": 0,
            "bogus": 1,
            "phases": [
                {"op": "append", "nbytes": "many"},
                {"op": "read", "nbytes": 4096, "stride": 4096},
                {"loop": 0, "phases": []},
            ],
        }
        with pytest.raises(WorkloadSpecError) as exc:
            validate_spec(doc)
        text = "\n".join(exc.value.errors)
        assert len(exc.value.errors) >= 6
        assert "spec.version" in text
        assert "spec.nprocs" in text
        assert "unknown key 'bogus'" in text
        assert "phases[0].op" in text and "phases[0].nbytes" in text
        assert "'stride' is only valid with pattern 'strided'" in text
        assert "phases[2].loop" in text and "non-empty phase list" in text

    def test_pattern_constraints(self):
        with pytest.raises(WorkloadSpecError, match="requires 'stride'"):
            validate_spec(minimal(phases=[
                {"op": "write", "nbytes": 1, "pattern": "strided"}]))
        with pytest.raises(WorkloadSpecError, match="requires 'gap_s'"):
            validate_spec(minimal(phases=[
                {"op": "write", "nbytes": 1, "pattern": "bursty"}]))
        with pytest.raises(WorkloadSpecError, match="'gap_s', not 'compute_s'"):
            validate_spec(minimal(phases=[
                {"op": "write", "nbytes": 1, "pattern": "bursty",
                 "gap_s": 0.1, "compute_s": 0.2}]))
        with pytest.raises(WorkloadSpecError, match="only valid with pattern 'bursty'"):
            validate_spec(minimal(phases=[
                {"op": "write", "nbytes": 1, "burst_ops": 4}]))

    def test_missing_version_and_phases(self):
        with pytest.raises(WorkloadSpecError) as exc:
            validate_spec({})
        assert any("version" in e for e in exc.value.errors)
        assert any("phases" in e for e in exc.value.errors)

    def test_bool_is_not_an_int(self):
        with pytest.raises(WorkloadSpecError, match="nprocs"):
            validate_spec(minimal(nprocs=True))

    def test_is_workload_spec(self):
        assert is_workload_spec(minimal())
        assert not is_workload_spec({"faults": []})
        assert not is_workload_spec([1, 2])


# ----------------------------------------------------------------------
# compilation (golden)
# ----------------------------------------------------------------------
class TestCompile:
    def test_golden_strided_and_loop(self):
        spec = compile_spec(load_document(YAML_DOC))
        assert spec.nprocs == 8
        assert spec.path == "/nfs/ckpt.dat"
        assert spec.per_process_files is True
        assert spec.rank_disjoint is False
        # write phase + 3 loop iterations of the read phase
        assert [p.op for p in spec.phases] == ["write"] + ["read"] * 3
        w = spec.phases[0]
        assert (w.nbytes, w.count, w.collective) == (64 * KiB, 16, True)
        r = spec.phases[1]
        assert (r.nbytes, r.compute_s, r.repetitions) == (1 * MiB, 0.5, 1)
        assert spec.phases[1] == spec.phases[2] == spec.phases[3]

    def test_strided_lowering(self):
        spec = compile_spec(minimal(phases=[{
            "op": "read", "nbytes": "4KiB", "count": 8,
            "pattern": "strided", "stride": "16KiB", "repetitions": 2,
        }]))
        p = spec.phases[0]
        assert (p.nbytes, p.count, p.stride, p.repetitions) == (4 * KiB, 8, 16 * KiB, 2)

    def test_bursty_sugar(self):
        spec = compile_spec(minimal(phases=[{
            "op": "write", "nbytes": 4096, "count": 2,
            "pattern": "bursty", "burst_ops": 8, "gap_s": 0.25,
        }]))
        p = spec.phases[0]
        # burst lowers to bulk-count geometry with the gap as compute
        assert p.count == 16
        assert p.compute_s == 0.25
        assert p.stride is None

    def test_defaults(self):
        spec = compile_spec(minimal())
        assert spec.nprocs == 4
        assert spec.path == "/nfs/synthetic.dat"
        assert not spec.per_process_files
        assert spec.rank_disjoint
        p = spec.phases[0]
        assert (p.count, p.repetitions, p.collective, p.compute_s) == (1, 1, False, 0.0)

    def test_expansion_guard(self):
        node = {"op": "write", "nbytes": 1}
        doc = minimal(phases=[{"loop": 1000, "phases": [
            {"loop": 1000, "phases": [node]}]}])
        with pytest.raises(WorkloadSpecError, match="expands to more than"):
            compile_spec(doc)

    def test_compile_validates(self):
        with pytest.raises(WorkloadSpecError):
            compile_spec({"version": 1, "phases": [{"op": "write"}]})


# ----------------------------------------------------------------------
# fingerprints and applications
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_stable_across_formats(self):
        doc = load_document(YAML_DOC)
        as_json = json.dumps(doc)
        fp1 = spec_fingerprint(compile_spec(doc))
        fp2 = spec_fingerprint(compile_spec(load_document(as_json)))
        assert fp1 == fp2

    def test_sensitive_to_geometry(self):
        a = compile_spec(minimal())
        b = compile_spec(minimal(phases=[{"op": "write", "nbytes": 8192}]))
        assert spec_fingerprint(a) != spec_fingerprint(b)

    def test_label_excluded(self):
        spec = compile_spec(minimal())
        a = SyntheticApplication(spec=spec, label="one")
        b = SyntheticApplication(spec=spec, label="two")
        assert a.fingerprint() == b.fingerprint() == spec_fingerprint(spec)

    def test_load_spec_names(self, tmp_path):
        f = tmp_path / "mixture.yaml"
        f.write_text("version: 1\nphases:\n  - op: write\n    nbytes: 4096\n")
        app = load_spec(f)
        assert isinstance(app, SyntheticApplication)
        assert app.name == "mixture"  # falls back to the file stem
        named = load_spec(YAML_DOC)
        assert named.name == "ckpt # not-a-comment"
        assert spec_name(load_document(YAML_DOC)) == "ckpt # not-a-comment"
