#!/usr/bin/env python3
"""Pretty-printer for flight-recorder post-mortems (flight_*.json).

The recorder dumps generic scalars (a, b, x) per event; this tool knows
what each common event kind uses them for and renders a readable
timeline. Usage:

    tools/flightdump.py build/flight-dumps/flight_slo_lb.view_age_0.json
    tools/flightdump.py --ring fault --last 20 dump.json
    tools/flightdump.py dump.json dump2.json     # several, in order

Unknown kinds still print (raw a/b/x), so new instrumentation never
breaks the tool — it just reads less nicely until a decoder is added.
"""

import argparse
import json
import os
import sys

# AlarmState / BackendHealth enum orders mirror the C++ definitions.
ALARM_STATES = {0: "ok", 1: "breach-warn", 2: "breach"}
HEALTH_STATES = {0: "healthy", 1: "suspect", 2: "dead"}
# net::WcStatus, as the NIC ring's kinds spell it (<verb>.<status>).
WC_STATUSES = ["ok", "protection_error", "invalid_key", "retry_exceeded"]


def us(ns):
    return f"{ns / 1000.0:9.1f}us"


def ms(ns):
    return f"{ns / 1e6:.3f}ms"


def rdma_op(verb, status):
    outcome = "ok" if status == "ok" else status.replace("_", " ").upper()
    return lambda a, b, x: (f"RDMA {verb} -> node{a} wr={b} {outcome} "
                            f"after {us(x)}")


def health(a, b, x, note=""):
    return (f"backend{a} {HEALTH_STATES.get(int(x), x)} -> "
            f"{HEALTH_STATES.get(b, b)}{note}")


# kind -> callable(a, b, x) -> human string. a/b are ints, x is a float;
# all default to 0 (the dump omits zero fields to stay small).
DECODERS = {
    # net ring (per-NIC one-sided verbs): one <verb>.<status> record per
    # op at its completion, added below the table
    # qos ring (per-NIC tenant arbiter decisions; b = submission seq)
    "qos.admit": lambda a, b, x: f"tenant{a} op#{b} admitted ({int(x)}B)",
    "qos.drop": lambda a, b, x: f"tenant{a} op#{b} DROPPED at queue cap ({int(x)}B)",
    # inbox ring (push-inbox seqlock scans)
    "scan.fresh": lambda a, b, x: f"slot{a} fresh image seq={b} age={us(x)}",
    "scan.heartbeat": lambda a, b, x: f"slot{a} heartbeat seq={b} age={us(x)}",
    "scan.torn": lambda a, b, x: f"slot{a} torn image seq={b} (skipped)",
    "scan.regressed": lambda a, b, x: f"slot{a} regressed seq={b} (dropped)",
    # monitor ring (fetches, their attempts, scatter rounds; a fetch and
    # its attempts share the key b, numbered per monitor)
    "fetch.ok": lambda a, b, x: f"fetch#{b} node{a} ok in {us(x)}",
    "fetch.timeout": lambda a, b, x: f"fetch#{b} node{a} TIMED OUT after {us(x)}",
    "fetch.transport": lambda a, b, x: f"fetch#{b} node{a} transport error after {us(x)}",
    "attempt.ok": lambda a, b, x: f"  attempt of fetch#{b} node{a} ok in {us(x)}",
    "attempt.timeout": lambda a, b, x: f"  attempt of fetch#{b} node{a} timed out after {us(x)}",
    "attempt.transport": lambda a, b, x: f"  attempt of fetch#{b} node{a} transport error after {us(x)}",
    "round": lambda a, b, x: f"scatter round: {a} slots, {b} failed, took {us(x)}",
    # lb ring (health ladder + takeover resets + adaptive mode switches;
    # a = backend index, b = new state, x = the state it left)
    "health": health,
    "health.reset": lambda a, b, x: health(a, b, x, " (shard takeover reset)"),
    "mode": lambda a, b, x: f"backend{a} -> {'push' if b else 'pull'}",
    # slo ring (alarm edges; a = SLO registration index)
    "alarm": lambda a, b, x: f"slo#{a} -> {ALARM_STATES.get(b, b)} consumed={x:.2f}",
    # fault ring (a = node, b = FaultKind; kind strings from fault.cpp)
    "crash": lambda a, b, x: f"node{a} CRASHED",
    "recover": lambda a, b, x: f"node{a} recovered",
    "freeze": lambda a, b, x: f"node{a} frozen (alive, not scheduling)",
    "unfreeze": lambda a, b, x: f"node{a} unfrozen",
    "link-degrade": lambda a, b, x: f"node{a} link degraded",
    "link-restore": lambda a, b, x: f"node{a} link restored",
    "storm-start": lambda a, b, x: f"storm{a} started",
    "storm-stop": lambda a, b, x: f"storm{a} stopped",
    # gossip ring (scale-out membership, per front end)
    "rejoin": lambda a, b, x: f"frontend{a} rejoined membership",
    "evict": lambda a, b, x: f"peer{a} evicted ({'stale view' if b else 'unreachable'})",
    "stale-mark": lambda a, b, x: f"backend{a} staleness strike (unmonitored past bound)",
}
# net ring: a = target node, b = wr_id, x = post-to-completion ns.
DECODERS.update({f"{verb.lower()}.{status}": rdma_op(verb, status)
                 for verb in ("READ", "WRITE") for status in WC_STATUSES})


def render(doc, only_ring=None, last=None, out=sys.stdout):
    print(f"post-mortem: {doc.get('reason', '?')}  "
          f"at t={ms(doc.get('at_ns', 0))}", file=out)
    for ring in doc.get("rings", []):
        lost = ring.get("dropped", 0)
        note = f"  (lost {lost} oldest)" if lost else ""
        print(f"  ring {ring['name']:<10} recorded={ring.get('recorded', 0)}"
              f" cap={ring.get('capacity', 0)}{note}", file=out)
    events = doc.get("events", [])
    if only_ring is not None:
        events = [e for e in events if e.get("ring") == only_ring]
    shown = events[-last:] if last else events
    if len(shown) < len(events):
        print(f"  ... {len(events) - len(shown)} earlier events elided "
              "(--last)", file=out)
    for e in shown:
        kind = e.get("kind", "?")
        a, b, x = e.get("a", 0), e.get("b", 0), e.get("x", 0.0)
        dec = DECODERS.get(kind)
        text = (dec(a, b, x) if dec
                else f"{kind} a={a} b={b} x={x}")
        print(f"  {ms(e.get('t_ns', 0)):>12}  [{e.get('ring', '?'):<8}] "
              f"{text}", file=out)
    print(f"  {len(shown)} events shown", file=out)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("files", nargs="+", help="flight_*.json dumps")
    p.add_argument("--ring", help="show only this ring's events")
    p.add_argument("--last", type=int,
                   help="show only the last N events (after --ring filter)")
    args = p.parse_args(argv)
    try:
        for i, path in enumerate(args.files):
            if i:
                print()
            try:
                with open(path) as f:
                    doc = json.load(f)
            except (OSError, json.JSONDecodeError) as err:
                print(f"{path}: {err}", file=sys.stderr)
                return 1
            render(doc, only_ring=args.ring, last=args.last)
    except BrokenPipeError:
        # The reader stopped reading (`| head`): that is not an error. The
        # interpreter flushes stdout once more on exit, so point it at
        # /dev/null first.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
