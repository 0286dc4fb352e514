#!/usr/bin/env python3
"""Headline acceptance checks on quick-mode bench reports (BENCH_*.json).

Both CI runners (ci.sh and .github/workflows/ci.yml) call this one file,
so each assertion and threshold exists exactly once. Usage:

    tools/check_bench.py bench-results scale_frontends scale_poll verbs qos
    tools/check_bench.py bench-results freshness

Each named check reads the BENCH_<name>.json reports it needs from the
directory; a missing or unparsable report fails the check (it is never
skipped). Exit status is non-zero when any check fails.
"""

import json
import os
import sys


class CheckFailed(Exception):
    pass


def expect(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def fig3_latency(load):
    # The telemetry plane must not perturb the simulated run.
    doc = load("fig3_latency")
    delta = abs(doc["telemetry_worst_delta_pct"])
    print(f"telemetry mean-latency delta: {delta:.3f}% (acceptance < 2%)")
    expect(delta < 2.0, "telemetry plane perturbed the simulated run")


def scale_frontends(load):
    # Scale-out: per-backend probe load flat (+-10%) as the front-end
    # count grows 1 -> 8, and (+-15%) at N=2048 on the verbs fast path;
    # gossip READs sized to the shard they read.
    doc = load("scale_frontends")
    ratio = doc["headline"]["flatness_ratio"]
    print(f"scale-frontends flatness M=1->8: {ratio:.3f}x "
          "(acceptance 0.9..1.1)")
    expect(0.9 <= ratio <= 1.1, "per-backend probe load not flat in M")
    b = doc["verbs_2048_headline"]
    print(f"verbs fast path at N={b['n']}: polls/backend/s M=1 "
          f"{b['polls_per_backend_sec_m1']:.1f} -> M=4 "
          f"{b['polls_per_backend_sec_m4']:.1f} "
          f"({b['flatness_ratio']:.3f}x, acceptance 0.85..1.15)")
    expect(0.85 <= b["flatness_ratio"] <= 1.15,
           "per-backend probe load not flat at N=2048 on the fast path")
    # A view READ moves the peer's shard: 64 B plus 104 B per owned back
    # end, 896 / 480 / 272 B at N=16, M=2/4/8.
    rows = [r for r in doc["results"]
            if r["backends"] == 16 and r["frontends"] >= 2]
    expect(rows, "no N=16 row with two or more front ends")
    for r in rows:
        print(f"gossip bytes per view READ at N=16, M={r['frontends']}: "
              f"{r['gossip_bytes_per_read']:.0f} (acceptance < 1024)")
        expect(r["gossip_bytes_per_read"] < 1024,
               f"view READ at M={r['frontends']} not sized to the shard")


def scale_poll(load):
    # Monitoring strategy: at the largest quick-mode N, push beats pull on
    # freshness-per-fabric-byte at the low change rate, and adaptive stays
    # within 10% of the better scheme everywhere. Scale: the RDMA scatter
    # round on the fast path stays flat (<= 1.25x the N=256 round) out to
    # N=2048 over a bounded NIC cache.
    doc = load("scale_poll")
    h = doc["push_headline"]
    print(f"push vs pull at N={h['n']} low rate: "
          f"{h['push_cost_low_rate']:.1f} vs {h['pull_cost_low_rate']:.1f}")
    expect(h["push_beats_pull"], "push did not beat pull at low change rate")
    print(f"adaptive worst ratio vs better scheme: "
          f"{h['adaptive_worst_ratio']:.3f}x (acceptance <= 1.1)")
    expect(h["adaptive_worst_ratio"] <= 1.1,
           "adaptive strayed from the better scheme")
    s = doc["scale_headline"]
    print(f"scatter round N={s['n_small']} -> N={s['n_large']}: "
          f"{s['round_small_us']:.1f}us -> {s['round_large_us']:.1f}us "
          f"({s['flatness_ratio']:.3f}x, acceptance <= 1.25; dedicated "
          f"contrast {s['round_dedicated_large_us']:.1f}us)")
    expect(s["flatness_ratio"] <= 1.25, "scatter round cost grew with N")


def verbs(load):
    # Verbs layer: per-slot overhead drops monotonically as the signaling
    # period k grows 1 -> 16 at fixed queue depth, and the shared-context
    # pool erases the bounded-cache thrash penalty.
    doc = load("verbs")
    h = doc["headline"]
    print(f"cq_mod per-slot overhead at depth {h['depth']}: "
          f"k=1 {h['per_slot_overhead_k1_ns']:.0f}ns -> "
          f"k=16 {h['per_slot_overhead_k16_ns']:.0f}ns "
          f"({h['overhead_drop_factor']:.3f}x)")
    expect(h["overhead_monotone"], "per-slot overhead not monotone in k")
    expect(h["per_slot_overhead_k16_ns"] < h["per_slot_overhead_k1_ns"],
           "k=16 did not beat k=1")
    q = doc["qpc_headline"]
    print(f"qpc cache at n={q['n']}: unbounded {q['round_unbounded_us']:.1f}us,"
          f" thrash {q['thrash_ratio']:.2f}x, shared {q['shared_ratio']:.3f}x")
    expect(q["thrash_ratio"] > 1.5, "dedicated contexts did not thrash the cache")
    expect(q["shared_ratio"] <= 1.15,
           "shared contexts did not stay near unbounded")


def qos(load):
    # Multi-tenant, BOTH directions: the unthrottled hog must breach the
    # view-age SLO (the storm bites), and with QoS on the victim must meet
    # it while the hog is pinned to its rate cap and its flood is dropped
    # at the queue cap.
    doc = load("qos")
    rows = {r["arm"]: r for r in doc["results"]}
    off, on = rows["qos-off"], rows["qos-on"]
    slo = doc["slo_target_ms"]
    cap = doc["hog_rate_cap_mbps"]
    print(f"view-age p99: qos-off {off['view_age_p99_ms']:.1f}ms "
          f"(SLO {slo:.0f}ms, breaches {off['breach_edges']}) -> "
          f"qos-on {on['view_age_p99_ms']:.1f}ms")
    expect(off["view_age_p99_ms"] > slo, "unthrottled storm did not breach SLO")
    expect(off["breach_edges"] >= 1, "SLO engine never alarmed under the storm")
    expect(on["view_age_p99_ms"] <= slo, "QoS failed to protect the view age")
    expect(on["breach_edges"] == 0, "QoS arm still alarmed")
    print(f"hog goodput: {off['hog_goodput_mbps']:.0f} -> "
          f"{on['hog_goodput_mbps']:.0f} MB/s (cap {cap:.0f}, "
          f"throttle {doc['hog_throttle_ratio']:.1f}x)")
    expect(on["hog_goodput_mbps"] <= cap * 1.2, "hog exceeded its rate cap")
    expect(doc["hog_throttle_ratio"] >= 5.0, "hog barely throttled")
    dropped = sum(t["dropped"] for t in on["tenants"] if t["tenant"] == 9)
    expect(dropped > 0, "queue cap never dropped the flood")


def freshness(load):
    # Freshness plane: toggling the recorder leaves the simulated ages
    # untouched, and every row's age percentiles are ordered and positive.
    doc = load("freshness")
    oh = doc["recorder_overhead"]
    print(f"recorder overhead: {oh['recorder_delta_pct']:.2f}% "
          "(budget <= 1% of wall)")
    expect(oh["ages_match"], "recorder toggle changed the simulated ages")
    for row in doc["results"]:
        expect(row["age_p99_us"] >= row["age_p50_us"] > 0, str(row))


def engine(load):
    # DES kernel (Release build): no steady-state heap allocation, and the
    # scatter-shaped workload (N=4096 standing completion+deadline pairs,
    # pop/cancel/re-arm) holds ~10^7 events/s on the wheel kernel.
    doc = load("engine")
    expect(doc["zero_steady_state_alloc"], "steady-state allocation detected")
    for row in doc["results"]:
        expect(row["events_per_sec"] > 0, str(row))
    fabric = [r for r in doc["results"]
              if r["workload"] == "fabric_round" and r["kernel"] == "timer-wheel"]
    expect(fabric and fabric[0]["events_per_sec"] >= 1e7, str(fabric))
    print("BENCH_engine.json: zero steady-state allocations, "
          f"fabric_round {fabric[0]['events_per_sec'] / 1e6:.1f} Mops/s")


CHECKS = {f.__name__: f for f in
          (fig3_latency, scale_frontends, scale_poll, verbs, qos, freshness,
           engine)}


def main(argv):
    if len(argv) < 2 or any(n not in CHECKS for n in argv[1:]):
        print(__doc__.strip(), file=sys.stderr)
        print(f"\nchecks: {', '.join(CHECKS)}", file=sys.stderr)
        return 2
    directory = argv[0]

    def load(name):
        path = os.path.join(directory, f"BENCH_{name}.json")
        try:
            with open(path) as f:
                return json.load(f)
        except (OSError, json.JSONDecodeError) as err:
            raise CheckFailed(f"cannot read {path}: {err}")

    failed = []
    for name in argv[1:]:
        try:
            CHECKS[name](load)
            print(f"[check_bench] {name}: ok")
        except (CheckFailed, KeyError, TypeError) as err:
            print(f"[check_bench] {name}: FAILED: {err!r}", file=sys.stderr)
            failed.append(name)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
