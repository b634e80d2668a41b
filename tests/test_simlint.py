"""simlint: every rule fires on its fixture and stays quiet on clean code.

Fixtures are linted through ``lint_source`` with a path inside
``src/repro/simengine/`` so the determinism rules (which only apply to
the simulation packages) are in scope; scope behaviour itself is
covered explicitly below.
"""

import json
import textwrap

from repro.analysis.simlint import RULES, Finding, lint_paths, lint_source, main

SIM_PATH = "src/repro/simengine/fixture.py"
# sweep (the campaign runner) is outside both the determinism scope and
# the serve-package scope — workloads/tracing joined SIM_PACKAGES when the
# grammar/ingest layers started feeding the DES, iolib/obs/analysis for
# the functions of theirs that the calendar calls
APP_PATH = "src/repro/sweep/fixture.py"


def findings(src, path=SIM_PATH, **kw):
    return lint_source(textwrap.dedent(src), path, **kw)


def rules_of(fs):
    return [f.rule for f in fs]


# ---------------------------------------------------------------------------
# wall-clock


def test_wall_clock_fires_on_time_and_datetime():
    fs = findings(
        """
        import time
        import datetime
        from datetime import datetime as dt

        def stamp():
            a = time.time()
            b = time.monotonic()
            c = datetime.datetime.now()
            d = dt.utcnow()
            return a, b, c, d
        """
    )
    assert rules_of(fs) == ["wall-clock"] * 4
    assert fs[0].line == 7


def test_wall_clock_quiet_on_env_now():
    assert findings(
        """
        def stamp(env):
            return env.now + 0.5
        """
    ) == []


def test_wall_clock_fires_on_perf_counter_aliases():
    fs = findings(
        """
        from time import perf_counter

        def t():
            return perf_counter()
        """
    )
    assert rules_of(fs) == ["wall-clock"]


# ---------------------------------------------------------------------------
# unseeded-random


def test_unseeded_random_fires_on_module_stream_and_bare_rng():
    fs = findings(
        """
        import random
        import numpy as np
        from numpy.random import default_rng

        def draw():
            a = random.random()
            b = random.Random()
            c = np.random.rand(3)
            d = default_rng()
            return a, b, c, d
        """
    )
    assert rules_of(fs) == ["unseeded-random"] * 4


def test_seeded_random_is_clean():
    assert findings(
        """
        import random
        from numpy.random import default_rng

        def draw(seed):
            a = random.Random(seed).random()
            b = default_rng(seed).normal()
            return a, b
        """
    ) == []


# ---------------------------------------------------------------------------
# set-iteration


def test_set_iteration_fires_on_literals_names_and_comprehensions():
    fs = findings(
        """
        def schedule(pending: set, extra):
            for p in pending:
                emit(p)
            for q in {1, 2, 3}:
                emit(q)
            both = set(extra)
            return [emit(r) for r in both]
        """
    )
    assert rules_of(fs) == ["set-iteration"] * 3


def test_sorted_set_iteration_is_clean():
    assert findings(
        """
        def schedule(pending: set):
            for p in sorted(pending):
                emit(p)
        """
    ) == []


# ---------------------------------------------------------------------------
# unit-mix


def test_unit_mix_fires_on_add_sub_and_compare():
    fs = findings(
        """
        def mix(size_bytes, size_mib, wait_s, wait_ms):
            a = size_bytes + size_mib
            b = wait_s - wait_ms
            c = wait_s < wait_ms
            return a, b, c
        """
    )
    assert rules_of(fs) == ["unit-mix"] * 3


def test_same_unit_arithmetic_is_clean():
    assert findings(
        """
        def total(head_bytes, tail_bytes, setup_s, run_s):
            return head_bytes + tail_bytes, setup_s + run_s
        """
    ) == []


def test_unit_mix_applies_outside_sim_packages():
    fs = findings(
        """
        def mix(a_bytes, b_mib):
            return a_bytes + b_mib
        """,
        path=APP_PATH,
    )
    assert rules_of(fs) == ["unit-mix"]


# ---------------------------------------------------------------------------
# scope


def test_determinism_rules_skip_non_sim_packages():
    src = """
        import time

        def stamp():
            return time.time()
        """
    assert findings(src, path=APP_PATH) == []
    # ... unless sim scope is forced
    assert rules_of(findings(src, path=APP_PATH, sim_scope=True)) == ["wall-clock"]


def test_workloads_and_tracing_are_in_scope():
    # the grammar/ingest layers compile specs and replay traces that
    # feed the DES, so the determinism rules cover them
    src = """
        import time

        def stamp():
            return time.time()
        """
    for pkg in ("workloads", "tracing"):
        path = f"src/repro/{pkg}/fixture.py"
        assert rules_of(findings(src, path=path)) == ["wall-clock"]


def test_set_iteration_covers_calendar_called_packages():
    # the MPI-IO library, the run observers and the sanitizer run inside
    # calendar steps: an effectful walk over a set there fires in hash order
    src = """
        def notify(self, pending):
            for waiter in set(pending):
                waiter.succeed()
        """
    for pkg in ("iolib", "obs", "analysis"):
        path = f"src/repro/{pkg}/fixture.py"
        assert rules_of(findings(src, path=path)) == ["set-iteration"], pkg


def test_rules_filter():
    src = """
        import time

        def stamp(a_bytes, b_mib):
            return time.time(), a_bytes + b_mib
        """
    assert rules_of(findings(src, rules=("unit-mix",))) == ["unit-mix"]
    assert rules_of(findings(src, rules=("wall-clock",))) == ["wall-clock"]


# ---------------------------------------------------------------------------
# pragmas


def test_ignore_pragma_suppresses_named_rule():
    fs = findings(
        """
        import time

        def stamp():
            return time.time()  # simlint: ignore[wall-clock]
        """
    )
    assert fs == []


def test_ignore_pragma_is_rule_specific():
    fs = findings(
        """
        import time

        def stamp():
            return time.time()  # simlint: ignore[unit-mix]
        """
    )
    assert rules_of(fs) == ["wall-clock"]


def test_bare_ignore_and_skip_file():
    assert findings(
        """
        import time

        def stamp():
            return time.time()  # simlint: ignore
        """
    ) == []
    assert findings(
        """
        # simlint: skip-file
        import time

        def stamp():
            return time.time()
        """
    ) == []


# ---------------------------------------------------------------------------
# syntax errors, repo cleanliness, CLI


def test_syntax_error_is_reported_not_raised(tmp_path, capsys):
    fs = findings("def broken(:\n")
    assert [f.rule for f in fs] == ["syntax"]
    # through the CLI it is one finding, whichever rules run
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    for rules in ([], ["wall-clock"]):
        argv = [str(bad)] + (["--rules", *rules] if rules else [])
        assert main(argv) == 1
        assert capsys.readouterr().out.count("[syntax]") == 1, rules


def test_finding_render_and_dict_roundtrip():
    f = Finding("x.py", 3, 7, "unit-mix", "boom")
    assert f.render() == "x.py:3:7: [unit-mix] boom"
    assert f.as_dict() == {
        "path": "x.py", "line": 3, "col": 7, "rule": "unit-mix", "message": "boom",
    }


def test_repository_is_lint_clean():
    assert lint_paths(["src", "scripts"]) == []


def test_cli_exit_codes_and_json(tmp_path, capsys):
    pkg = tmp_path / "src" / "repro" / "simengine"
    pkg.mkdir(parents=True)
    bad = pkg / "bad.py"
    bad.write_text("import time\n\ndef t():\n    return time.time()\n")
    assert main([str(tmp_path / "src")]) == 1
    captured = capsys.readouterr()
    assert "[wall-clock]" in captured.out

    assert main([str(tmp_path / "src"), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc[0]["rule"] == "wall-clock"

    bad.write_text("def t(env):\n    return env.now\n")
    assert main([str(tmp_path / "src")]) == 0


def test_all_rules_documented():
    assert set(RULES) == {
        "wall-clock", "unseeded-random", "set-iteration",
        "unit-mix", "fault-rng", "generator-serve",
    }


# ---------------------------------------------------------------------------
# fault-rng

FAULTS_PATH = "src/repro/faults/fixture.py"


def test_fault_rng_flags_random_import_in_faults():
    fs = findings("import random\n", path=FAULTS_PATH)
    assert "fault-rng" in rules_of(fs)


def test_fault_rng_flags_from_import_in_faults():
    fs = findings("from random import choice\n", path=FAULTS_PATH)
    assert "fault-rng" in rules_of(fs)


def test_fault_rng_flags_seeded_random_in_faults():
    # Even a *seeded* stdlib Random is banned inside repro.faults:
    # fault jitter must come from the schedule-seeded env.rng streams.
    fs = findings(
        """
        import random

        def jitter():
            rng = random.Random(42)
            return rng.random()
        """,
        path=FAULTS_PATH,
    )
    assert "fault-rng" in rules_of(fs)


def test_fault_rng_quiet_outside_faults_package():
    # The same seeded code in another sim package is fine (only the
    # unseeded-random rule polices those, and a seeded Random passes).
    fs = findings(
        """
        import random

        def jitter():
            rng = random.Random(42)
            return rng.random()
        """,
        path=SIM_PATH,
    )
    assert "fault-rng" not in rules_of(fs)


def test_fault_rng_quiet_on_env_rng_streams():
    fs = findings(
        """
        def jitter(env, name):
            return env.rng.stream(name).random()
        """,
        path=FAULTS_PATH,
    )
    assert fs == []


# ---------------------------------------------------------------------------
# generator-serve

STORAGE_PATH = "src/repro/storage/fixture.py"


def test_generator_serve_flags_event_yield_in_storage():
    fs = findings(
        """
        def _serve(self, req):
            yield self.env.timeout(0.01)
            return req.total_bytes
        """,
        path=STORAGE_PATH,
    )
    assert "generator-serve" in rules_of(fs)


def test_generator_serve_covers_mpi():
    fs = findings(
        """
        def _collective(self, kind):
            result = yield self.env.process(self._algorithm(kind))
            return result
        """,
        path="src/repro/mpi/fixture.py",
    )
    assert "generator-serve" in rules_of(fs)


def test_generator_serve_flags_yield_from_delegation():
    fs = findings(
        """
        def _write(self, inode, req):
            yield from self._flush_entries([(1, 2, 3)])
        """,
        path=STORAGE_PATH,
    )
    assert "generator-serve" in rules_of(fs)


def test_generator_serve_quiet_on_data_generators():
    # PageCache.coalesce-style pure data generators yield tuples, not
    # simulation events — they are not serve loops
    fs = findings(
        """
        def coalesce(entries):
            for fileid, seg, dirty in sorted(entries):
                yield (fileid, seg, dirty)
        """,
        path=STORAGE_PATH,
    )
    assert "generator-serve" not in rules_of(fs)


def test_generator_serve_quiet_outside_serve_packages():
    # the same serve loop in simengine (the kernel's own machinery) or
    # the sweep layer is out of scope
    src = """
    def _serve(self, req):
        yield self.env.timeout(0.01)
    """
    assert "generator-serve" not in rules_of(findings(src, path=SIM_PATH))
    assert "generator-serve" not in rules_of(findings(src, path=APP_PATH))


def test_generator_serve_pragma_suppresses():
    fs = findings(
        """
        def _serve(self, req):  # simlint: ignore[generator-serve]
            yield self.env.timeout(0.01)
        """,
        path=STORAGE_PATH,
    )
    assert "generator-serve" not in rules_of(fs)


def test_generator_serve_pragmas_are_only_the_raid_daemons():
    # every serve path has one flat implementation; the only generators
    # left in the serve packages are the two RAID daemons, which have no
    # flat counterpart, and the replay region, which delegates to a rank
    # program's own generator body — so a generator twin cannot quietly
    # return behind a pragma
    import io
    import re
    import tokenize
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    marked = set()
    for path in sorted(root.rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT and "ignore[generator-serve]" in tok.string:
                name = re.match(r"\s*def (\w+)", lines[tok.start[0] - 1])
                marked.add((path.relative_to(root).as_posix(), name and name.group(1)))
    assert marked == {
        ("hardware/raid.py", "_rebuild"),
        ("hardware/raid.py", "_flusher"),
        ("mpi/sim.py", "replay_region"),
    }
