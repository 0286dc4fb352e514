#!/usr/bin/env python3
"""ctest check: tools/flightdump.py decodes real post-mortems.

Runs the flight_scenario binary to write flight-recorder dumps into a
fresh directory, then runs the tool on every dump. Fails when the
scenario writes nothing, when the tool exits non-zero, when any event
prints through the tool's raw `kind a= b= x=` fallback (a kind with no
decoder), when an event kind the scenario is built to produce is
missing from the dumps, or when the tool, writing into a pipe its reader
closes unread (as `| head` does), exits non-zero or prints a traceback.
Usage:

    flightdump_test.py <flight_scenario> <flightdump.py> <out-dir>
"""

import glob
import json
import os
import re
import shutil
import subprocess
import sys

# Kinds the scenario is built to produce, at least one per ring: so a
# scenario change that stops exercising a ring fails here, not silently.
REQUIRED = {"fetch.ok", "fetch.timeout", "attempt.ok", "attempt.timeout",
            "round", "health", "health.reset", "qos.admit", "qos.drop",
            "alarm", "read.ok", "write.ok", "read.retry_exceeded",
            "write.retry_exceeded", "crash", "freeze",
            "link-degrade", "storm-start", "evict", "rejoin", "scan.fresh"}
RAW = re.compile(r" a=-?\d+ b=-?\d+ x=")


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    scenario, tool, out_dir = argv
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    subprocess.run([scenario, out_dir], check=True, stdout=subprocess.DEVNULL)
    dumps = sorted(glob.glob(os.path.join(out_dir, "flight_*.json")))
    if not dumps:
        print(f"no flight_*.json written to {out_dir}", file=sys.stderr)
        return 1
    ok = True
    kinds = set()
    for path in dumps:
        with open(path) as f:
            kinds.update(e["kind"] for e in json.load(f)["events"])
        run = subprocess.run([sys.executable, tool, path],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True)
        if run.returncode != 0:
            print(f"{tool} {path} exited {run.returncode}:\n{run.stderr}",
                  file=sys.stderr)
            ok = False
        raw = [line for line in run.stdout.splitlines() if RAW.search(line)]
        if raw:
            print(f"{path}: {len(raw)} events without a decoder, e.g.\n"
                  + "\n".join(raw[:5]), file=sys.stderr)
            ok = False
    # The scenario's own dump renders past the 64 KB pipe buffer, so a
    # write into the closed pipe fails whatever the timing.
    own = glob.glob(os.path.join(out_dir, "flight_scenario_*.json"))
    if not own:
        print(f"no flight_scenario_*.json written to {out_dir}",
              file=sys.stderr)
        ok = False
    for path in own:
        proc = subprocess.Popen([sys.executable, tool, path],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        if proc.wait() != 0 or "Traceback" in err:
            print(f"{tool} {path} into a closed pipe exited "
                  f"{proc.returncode}:\n{err}", file=sys.stderr)
            ok = False
    missing = REQUIRED - kinds
    if missing:
        print(f"scenario produced no {sorted(missing)} events", file=sys.stderr)
        ok = False
    print(f"{len(dumps)} dumps, {len(kinds)} event kinds, all decoded"
          if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
