"""Write the goldens the benchmark checks every unit against.

    python3 bench/make_golden.py

Run once by hand, and again only when a change is meant to alter the
simulated results.  It characterizes the three Aohyper configurations
with the benchmark's sweep, writes the nine tables to ``golden/`` as
``Methodology.save_tables`` names them, evaluates each evaluation
workload against those tables, and writes every unit's digest to
``golden/golden.json``.  It refuses to write anything when a jbod table
no longer has the hash the project preserves.
"""

from __future__ import annotations

import json
import sys

import suite

#: jbod table hashes of this sweep that every kernel mode must reproduce
PRESERVED = {
    "jbod/iolib": "049baf6f0f53e7bc",
    "jbod/localfs": "dcd815e3e03ef553",
    "jbod/nfs": "9b7aae10593ea086",
}


def main() -> int:
    char = suite.Workload(suite.CHAR)
    units: dict[str, dict] = {suite.CHAR: {}}
    for unit in char.units:
        table = char.run(unit)
        char.methodology.tables.setdefault(unit.config, {})[unit.level] = table
        units[suite.CHAR][unit.key] = suite.digest(table)
        print(unit.key, units[suite.CHAR][unit.key], flush=True)
    drifted = {
        key: units[suite.CHAR][key]["table_sha256_16"]
        for key, want in PRESERVED.items()
        if units[suite.CHAR][key]["table_sha256_16"] != want
    }
    if drifted:
        print(f"jbod tables drifted from the preserved hashes: {drifted}", file=sys.stderr)
        return 1
    char.methodology.save_tables(suite.GOLDEN_DIR)
    for name in suite.APPS:
        workload = suite.Workload(name)
        units[name] = {u.key: suite.digest(workload.run(u)) for u in workload.units}
        print(name, units[name], flush=True)
    suite.GOLDEN_FILE.write_text(json.dumps({"units": units}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
