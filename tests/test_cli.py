"""CLI tests (fast paths only; heavy runs are exercised in benchmarks/)."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "jbod" in out and "raid5" in out and "cluster-a" in out
    assert "btio" in out and "madbench" in out


def test_parser_defaults():
    args = build_parser().parse_args(["evaluate", "btio"])
    assert args.workload == "btio"
    assert args.nprocs == 16
    assert args.subtype == "full"
    assert set(args.configs) == {"jbod", "raid1", "raid5"}


def test_unknown_config_rejected():
    with pytest.raises(SystemExit):
        main(["characterize", "--configs", "bluegene"])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_characterize_writes_csv(tmp_path, capsys):
    rc = main([
        "characterize", "--configs", "jbod", "--block-step", "9",
        "--ior-gib", "1", "--out", str(tmp_path),
    ])
    assert rc == 0
    saved = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert saved == ["jbod_iolib.csv", "jbod_localfs.csv", "jbod_nfs.csv"]
    out = capsys.readouterr().out
    assert "Performance table" in out


_QUICK = ["--configs", "jbod", "--block-step", "9", "--ior-gib", "1"]


@pytest.mark.parametrize("argv", [
    ["characterize", *_QUICK, "--out", "{bad}"],
    ["characterize", *_QUICK, "--cache", "{bad}"],
    ["report", "btio", "--class", "S", "--nprocs", "4", *_QUICK, "--trace-out", "{bad}/t.json"],
], ids=["out", "cache", "trace-out"])
def test_unwritable_output_path_fails_without_traceback(argv, tmp_path, capsys):
    # a path under a regular file cannot be created: the command fails
    # with a ``repro:`` line naming the path, not a traceback
    blocker = tmp_path / "file"
    blocker.write_text("")
    bad = str(blocker / "x")
    rc = main([a.format(bad=bad) for a in argv])
    assert rc != 0
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.strip().splitlines()[-1]
    assert last.startswith("repro: ") and bad in last


def test_predict_command(capsys):
    rc = main([
        "predict", "btio", "--class", "S", "--nprocs", "4",
        "--configs", "jbod", "--block-step", "9", "--ior-gib", "1",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "predicted I/O time" in out
    assert "jbod" in out


SPEC_YAML = """\
version: 1
name: cli-demo
nprocs: 2
phases:
  - op: write
    nbytes: 64KiB
    count: 4
"""


def test_workload_source_is_exclusive():
    # a named workload and a spec file at once is ambiguous
    with pytest.raises(SystemExit):
        main(["evaluate", "btio", "--workload", "spec.yaml",
              "--configs", "jbod", "--block-step", "9"])
    # and no workload at all is an error too
    with pytest.raises(SystemExit):
        main(["evaluate", "--configs", "jbod", "--block-step", "9"])


def test_workload_validate(tmp_path, capsys):
    good = tmp_path / "good.yaml"
    good.write_text(SPEC_YAML)
    foreign = tmp_path / "faults.json"
    foreign.write_text('{"faults": []}')
    bad = tmp_path / "bad.yaml"
    bad.write_text("version: 1\nphases:\n  - op: append\n    nbytes: 4096\n")

    assert main(["workload", "validate", str(good)]) == 0
    out = capsys.readouterr().out
    assert "ok (1 phase(s)" in out and "fingerprint=" in out

    assert main(["workload", "validate", "--skip-foreign",
                 str(good), str(foreign)]) == 0
    out = capsys.readouterr().out
    assert "skipped (not a workload spec)" in out

    assert main(["workload", "validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out and "phases[0].op" in out


def test_workload_compile(tmp_path, capsys):
    f = tmp_path / "demo.yaml"
    f.write_text(SPEC_YAML)
    assert main(["workload", "compile", str(f)]) == 0
    out = capsys.readouterr().out
    assert "workload 'cli-demo'" in out
    assert "fingerprint:" in out
    assert "write" in out

    assert main(["workload", "compile", "--json", str(f)]) == 0
    out = capsys.readouterr().out
    assert '"SyntheticSpec"' in out


def test_evaluate_spec_workload(tmp_path, capsys):
    f = tmp_path / "demo.yaml"
    f.write_text(SPEC_YAML)
    rc = main(["evaluate", "--workload", str(f), "--configs", "jbod",
               "--block-step", "9", "--ior-gib", "1"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "jbod" in captured.out
    assert "evaluating cli-demo [workload " in captured.err


def test_evaluate_missing_spec_fails_cleanly():
    with pytest.raises(SystemExit, match="cannot load workload spec"):
        main(["evaluate", "--workload", "/does/not/exist.yaml",
              "--configs", "jbod", "--block-step", "9", "--ior-gib", "1"])


@pytest.mark.parametrize(
    "entry",
    [
        '{"t_s": NaN, "kind": "nfs_stall", "duration_s": 1.0}',
        '{"t_s": 0.1, "kind": "disk_fail", "disk": 1.5}',
    ],
)
def test_evaluate_bad_fault_schedule_fails_before_simulating(entry, tmp_path, capsys):
    f = tmp_path / "faults.json"
    f.write_text('{"seed": 1, "entries": [%s]}' % entry)
    with pytest.raises(SystemExit, match="cannot load fault schedule"):
        main(["evaluate", "btio", "--class", "S", "--nprocs", "4", "--configs", "raid5",
              "--block-step", "9", "--ior-gib", "1", "--faults", str(f)])
    captured = capsys.readouterr()
    assert "characterizing" not in captured.err + captured.out


@pytest.mark.parametrize(
    "argv",
    [
        ["characterize", "--configs", "jbod", "--jobs", "-1"],
        ["sweep", "run", "--workloads", "btio:S:4", "--jobs", "0"],
        ["sweep", "run", "--workloads", "btio:S:4", "--timeout", "-1"],
        ["sweep", "run", "--workloads", "btio:S:4", "--timeout", "0"],
        ["sweep", "run", "--workloads", "btio:S:4", "--timeout", "nan"],
        ["sweep", "run", "--workloads", "btio:S:4", "--retries", "0"],
        ["sweep", "run", "--workloads", "btio:S:4", "--backoff", "nan"],
        ["sweep", "run", "--workloads", "btio:S:4", "--backoff", "-0.5"],
        ["race", "btio", "--tol", "-1"],
        ["race", "btio", "--tol", "nan"],
        ["report", "btio", "--window", "nan"],
        ["report", "btio", "--window", "0"],
        ["report", "btio", "--window", "-1"],
        ["workload", "fuzz", "--n", "0"],
        ["workload", "fuzz", "--n", "-1"],
        ["workload", "fuzz", "--max-phases", "0"],
    ],
)
def test_bad_jobs_exit_2_with_one_error_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("repro: error: ")
    assert argv[-2] in err[0]


def test_lint_missing_path_exits_2_with_one_error_line(capsys):
    assert main(["lint", "nosuchdir"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["repro: error: nosuchdir: no such file or directory"]


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "btio", "--class", "Z"],
        ["report", "btio", "--class", "Q"],
        ["evaluate", "btio", "--nprocs", "0"],
        ["evaluate", "btio", "--nprocs", "3"],
        ["predict", "btio", "--nprocs", "3"],
        ["evaluate", "madbench", "--nprocs", "-4"],
        ["evaluate", "madbench", "--kpix", "0"],
        ["evaluate", "btio", "--block-step", "0"],
        ["evaluate", "btio", "--ior-gib", "-1"],
        ["characterize", "--no-phase-fastpath"],
        ["perf", "--no-phase-fastpath"],
    ],
)
def test_bad_workload_args_exit_2_before_characterizing(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--configs", "jbod"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("repro: error: ")
    assert "characterizing" not in captured.err + captured.out


def test_perf_outputs_default_beside_out(tmp_path):
    from repro.cli import perf_outputs

    out = tmp_path / "run" / "bench.json"
    args = build_parser().parse_args(["perf", "--out", str(out)])
    paths = perf_outputs(args)
    assert paths == {
        "out": out,
        "eval": out.parent / "BENCH_evaluate.json",
        "kernel": out.parent / "BENCH_kernel.json",
        "profile": out.parent / "PROFILE_perf.json",
    }
    # an explicit path still wins
    args = build_parser().parse_args(
        ["perf", "--out", str(out), "--eval-out", str(tmp_path / "e.json")]
    )
    assert perf_outputs(args)["eval"] == tmp_path / "e.json"
    # the default --out keeps every file together in the working directory
    args = build_parser().parse_args(["perf"])
    assert {p.parent for p in perf_outputs(args).values()} == {Path(".")}


def test_stdout_closed_early_exits_without_traceback():
    # ``repro ... | head``: the reader closes the pipe before the
    # command writes; no BrokenPipeError traceback reaches stderr
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "workload", "fuzz", "--n", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""
