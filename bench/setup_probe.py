"""Time the benchmark's set-up once, in the fresh interpreter running it.

    python3 bench/setup_probe.py

Set-up is: import ``repro``, build the three Aohyper configurations,
build each one's system once, and load the nine golden tables.  A
``calibrate.Gauge`` samples the host's speed meanwhile.  The last line
of standard output is a JSON object with the elapsed host seconds
(``wall_s``) and the same at the reference host's speed (``norm_s``).
"""

import json
import sys

import calibrate

#: host seconds between speed samples: set-up takes about 0.2 s
INTERVAL_S = 0.02


def main() -> int:
    gauge = calibrate.Gauge(INTERVAL_S)
    with gauge.timing() as timing:
        import suite
        from repro.simengine import Environment

        m = suite.methodology()
        for config in m.configs.values():
            suite.build_system(Environment(), config)
        tables = m.load_tables(suite.GOLDEN_DIR)
    loaded = sum(len(levels) for levels in tables.values())
    if loaded != len(suite.CONFIGS) * len(suite.LEVELS):
        print(f"loaded {loaded} golden tables, want 9", file=sys.stderr)
        return 1
    print(json.dumps({"wall_s": timing.wall_s,
                      "norm_s": calibrate.scaled(timing.wall_s, timing.samples)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
