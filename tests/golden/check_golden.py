#!/usr/bin/env python3
"""Golden-trace check: compare a freshly produced BENCH_*.json against
the checked-in golden under tests/golden/.

The quick-mode figure benches are fully deterministic at their default
seed (the sim clock is virtual; the few wall-clock fields are listed in
VOLATILE), so the pinned values catch any behavioural drift in the
monitoring schemes: scheme latencies (fig3), load-accuracy deviation
(fig5), the bounded fetch's timeout/retry/backoff timing
(fault_resilience) and the view age at dispatch of each refresh
strategy (freshness).
Floats are compared with a tiny relative tolerance so a compiler that
reorders an fp sum does not page someone, while real regressions --
which move these numbers by percents -- always fail.

To regenerate after an INTENDED behaviour change (one command, run from
the repo root; commit the diff together with the change that caused it):

    tests/golden/regen.sh [build-dir]    # default build dir: build

Usage: check_golden.py GOLDEN_JSON FRESH_JSON
"""

import json
import math
import sys

# Keys that may legitimately differ run-to-run (wall-clock measurements
# and the report-level provenance stamps added at write() time; the
# freshness bench's recorder-overhead timings).
VOLATILE = {"wall_ms", "generated_unix_ms", "wall_ms_no_registry",
            "wall_ms_recorder_off", "wall_ms_recorder_on",
            "recorder_delta_pct", "telemetry_plane_delta_pct"}

REL_TOL = 1e-9
ABS_TOL = 1e-12


def diff(golden, fresh, path, errors):
    if isinstance(golden, dict) and isinstance(fresh, dict):
        for key in sorted(set(golden) | set(fresh)):
            if key in VOLATILE:
                continue
            sub = f"{path}.{key}" if path else key
            if key not in golden:
                errors.append(f"{sub}: unexpected key in fresh output")
            elif key not in fresh:
                errors.append(f"{sub}: missing from fresh output")
            else:
                diff(golden[key], fresh[key], sub, errors)
    elif isinstance(golden, list) and isinstance(fresh, list):
        if len(golden) != len(fresh):
            errors.append(
                f"{path}: length {len(fresh)} != golden {len(golden)}")
            return
        for i, (g, f) in enumerate(zip(golden, fresh)):
            diff(g, f, f"{path}[{i}]", errors)
    elif isinstance(golden, bool) or isinstance(fresh, bool):
        # bool is an int subclass; compare exactly and before numbers.
        if golden is not fresh:
            errors.append(f"{path}: {fresh!r} != golden {golden!r}")
    elif isinstance(golden, (int, float)) and isinstance(fresh, (int, float)):
        if not math.isclose(golden, fresh, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            errors.append(f"{path}: {fresh!r} != golden {golden!r}")
    elif golden != fresh:
        errors.append(f"{path}: {fresh!r} != golden {golden!r}")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    golden_path, fresh_path = sys.argv[1], sys.argv[2]
    with open(golden_path) as f:
        golden = json.load(f)
    with open(fresh_path) as f:
        fresh = json.load(f)
    errors = []
    diff(golden, fresh, "", errors)
    if errors:
        print(f"golden-trace mismatch vs {golden_path}:")
        for e in errors[:40]:
            print(f"  {e}")
        if len(errors) > 40:
            print(f"  ... and {len(errors) - 40} more")
        print("intended change? regenerate with: tests/golden/regen.sh")
        sys.exit(1)
    print(f"golden-trace OK: {fresh_path} matches {golden_path}")


if __name__ == "__main__":
    main()
