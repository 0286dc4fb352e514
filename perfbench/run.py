#!/usr/bin/env python3
"""The repo benchmark: builds the simulator from source, runs a workload
in fresh single-threaded processes, checks its outputs and prints its
metrics. NOTES.md defines every metric and workload.

    python3 perfbench/run.py                       # all three, in turn
    python3 perfbench/run.py --workload pull_fanout --seed 7 --seconds 20
    python3 perfbench/run.py --workload rubis_zipf --trace 1
    python3 perfbench/run.py --telemetry off       # -DRDMAMON_TELEMETRY=OFF

The last line of standard output is one JSON object: correct, attempted,
failed and metrics (the end-to-end metrics, or with --trace 1 the
per-layer ones). Exit status is non-zero when a check fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["rubis_zipf", "pull_fanout", "push_scaleout"]
# Workloads that install a telemetry registry (and so get a registry-off
# replica in the traced run).
WITH_REGISTRY = {"pull_fanout", "push_scaleout"}
LAYERS = ["sim", "os", "net", "monitor", "lb", "web", "workload",
          "telemetry", "cluster", "other"]
MIN_REPS = 3
# Stop starting repetitions once a run has used this much wall time, so
# one invocation stays well inside three minutes.
HARD_STOP_S = 120.0

# The end-to-end metrics of BENCHMARK.json: on every workload, never 0.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "allocs_per_sim_s": "1/sim_s",
    "sim_view_age_p50_us": "us",
    "sim_view_age_p99_us": "us",
    "sim_monitor_kb_per_s": "KB/sim_s",
}
# Printed and checked, but not in BENCHMARK.json: host CPU per simulated
# second drifts with the host beyond the largest bound BENCHMARK.json may
# set (NOTES.md, "Noise study"); the client metrics do not exist on
# pull_fanout, and sim_failed_frac is 0 on fault-free runs.
REPORT_UNITS = {
    "host_ms_per_sim_s": "ms/sim_s",
    "sim_goodput_rps": "1/sim_s",
    "sim_response_p50_ms": "ms",
    "sim_response_p99_ms": "ms",
    "sim_failed_frac": "fraction",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log("perfbench: " + msg)
    sys.exit(code)


def build(telemetry_on):
    """Configures and builds perfbench/ (and src/ through it)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt next to perfbench/: nothing to build", 2)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    name = "perfbench" if telemetry_on else "perfbench-telemetry-off"
    bdir = os.path.join(ROOT, target, name)
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
               "-DRDMAMON_TELEMETRY=" + ("ON" if telemetry_on else "OFF")]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    selftest = subprocess.run([os.path.join(bdir, "perfbench_selftest")],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
    if selftest.returncode != 0:
        log(selftest.stdout)
        fail("helper self-test failed")
    return os.path.join(bdir, "perfbench_run")


def run_process(exe, workload, seed, mode):
    proc = subprocess.run(
        [exe, "--workload", workload, "--seed", str(seed), "--mode", mode],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)
    if proc.returncode != 0:
        log(proc.stderr)
        fail(f"{workload} {mode} run exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat(exe, workload, seed, mode, budget_s, start):
    """Runs `mode` until `budget_s` of wall time has passed since `start`
    (at least MIN_REPS times)."""
    out = []
    while (len(out) < MIN_REPS or time.monotonic() - start < budget_s) and \
            time.monotonic() - start < HARD_STOP_S:
        out.append(run_process(exe, workload, seed, mode))
    return out


def exact_fields(rec, with_counts=True):
    """The outputs that must repeat bit for bit for one seed."""
    keys = ["sim", "percentile_lines"] + (
        ["counts", "allocs", "events"] if with_counts else [])
    return json.dumps({k: rec[k] for k in keys}, sort_keys=True)


def host_ms(rec):
    return rec["measure_cpu_s"] * 1e3 / rec["sim_s"]


def spread(values):
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def verify(workload, reps, telemetry_on, problems):
    """Output checks shared by every mode."""
    for r in reps:
        for msg in r["checks"]:
            problems.append(f"{workload} seed {r['seed']} {r['mode']}: {msg}")
        if bool(r["telemetry_compiled"]) != telemetry_on:
            problems.append("binary built with the wrong telemetry option")


def same(workload, label, a, b, with_counts, problems):
    if exact_fields(a, with_counts) != exact_fields(b, with_counts):
        problems.append(f"{workload}: {label} differ for one seed")


def end_to_end(reps):
    first = reps[0]
    sim = first["sim"]
    m = {
        "setup_s": statistics.median(r["process_setup_cpu_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "allocs_per_sim_s": first["allocs"] / first["sim_s"],
        "sim_view_age_p50_us": sim["view_age_p50_us"],
        "sim_view_age_p99_us": sim["view_age_p99_us"],
        "sim_monitor_kb_per_s": sim["monitor_kb_per_s"],
    }
    extra = {"host_ms_per_sim_s": statistics.median(host_ms(r) for r in reps),
             "sim_failed_frac": sim["failed_frac"]}
    if "goodput_rps" in sim:
        extra.update(sim_goodput_rps=sim["goodput_rps"],
                     sim_response_p50_ms=sim["response_p50_ms"],
                     sim_response_p99_ms=sim["response_p99_ms"])
    return m, extra


def report_end_to_end(workload, reps, m, extra):
    sim = reps[0]["sim"]
    host = {"setup_s": [r["process_setup_cpu_s"] for r in reps],
            "host_ms_per_sim_s": [host_ms(r) for r in reps],
            "peak_rss_mb": [r["peak_rss_mb"] for r in reps]}
    print(f"== {workload}: seed {reps[0]['seed']}, {len(reps)} runs of "
          f"{reps[0]['sim_s']:g} simulated s")
    percentiles = {line.split(" = ")[0]: line
                   for line in reps[0]["percentile_lines"]}
    shown = {**m, **extra}
    for name, unit in {**END_TO_END_UNITS, **REPORT_UNITS}.items():
        if name in percentiles:
            print("  " + percentiles[name])
            continue
        if name not in shown:
            continue
        line = f"  {name} = {shown[name]:.6g} {unit}"
        if name in host:
            vals = host[name]
            line += (f" (median of {len(vals)}; min {min(vals):.6g}, "
                     f"max {max(vals):.6g}, IQR/median {spread(vals):.3f})")
        elif name == "sim_failed_frac":
            line += f" ({sim['failed']:.0f} of {sim['attempted']:.0f})"
        print(line)


def per_layer(workload, plain, cpu, allocs, noreg):
    """Per-layer metrics from the traced processes (NOTES.md, "Reading
    the traced run")."""
    first = plain[0]
    sim_s = first["sim_s"]
    setup = [sum(r["cpu_setup"][l] for r in cpu) for l in LAYERS]
    measure = [sum(r["cpu_measure"][l] for r in cpu) for l in LAYERS]
    alloc_tally = [allocs["alloc_samples"][l] for l in LAYERS]
    traced_ms = statistics.median(host_ms(r) for r in cpu)
    traced_setup_ms = statistics.median(r["setup_cpu_s"] for r in cpu) * 1e3
    plain_ms = statistics.median(host_ms(r) for r in plain)
    m = {}
    for i, layer in enumerate(LAYERS):
        m[f"{layer}.self_ms_per_sim_s"] = measure[i] / max(1, sum(measure)) * traced_ms
        m[f"{layer}.setup_ms"] = setup[i] / max(1, sum(setup)) * traced_setup_ms
        m[f"{layer}.allocs_per_sim_s"] = (alloc_tally[i] / max(1, sum(alloc_tally))
                                          * first["allocs"] / sim_s)
    # Exact counts, read from the untraced run.
    m.update({k: v for k, v in first["counts"].items() if k != "monitor.fetch_n"})

    def span_mean(name):
        calls = sum(r["spans"][name + "_calls"] for r in cpu)
        total = sum(r["spans"][name + "_total_ns"] for r in cpu)
        return total / calls if calls else 0.0

    m.update({
        "sim.host_ns_per_event": plain_ms * 1e6 / m["sim.events_per_sim_s"],
        "lb.pick_ns": span_mean("pick"),
        "workload.gen_ns_per_call": span_mean("gen"),
        "telemetry.snapshot_ms": statistics.median(
            r["spans"]["snapshot_ms"] for r in cpu),
        "telemetry.overhead_ms_per_sim_s": (
            plain_ms - statistics.median(host_ms(r) for r in noreg))
        if noreg else 0.0,
        "telemetry.overhead_allocs_per_sim_s": (
            (first["allocs"] - noreg[0]["allocs"]) / sim_s) if noreg else 0.0,
        "other.share": measure[LAYERS.index("other")] / max(1, sum(measure)),
        "trace.samples": float(sum(measure)),
        "trace.overhead_ms_per_sim_s": traced_ms - plain_ms,
    })
    spans = cpu[0]["spans"]
    print(f"== {workload} traced: {len(cpu)} sampled runs, "
          f"{sum(measure)} CPU samples in the measured interval "
          f"({sum(setup)} in set-up, {sum(r['cpu_lost'] for r in cpu)} lost); "
          f"every {allocs['alloc_sample_every']:.0f}th allocation's stack "
          f"({sum(alloc_tally)} stacks); run_until wall time was "
          f"{spans['run_ms'] / (host_ms(cpu[0]) * sim_s) * 100:.1f}% of the "
          f"interval's CPU time")
    for layer in LAYERS:
        keys = [k for k in m if k.split(".")[0] == layer]
        print(f"  {layer:9s} " + ", ".join(f"{k.split('.', 1)[1]}={m[k]:.4g}"
                                           for k in keys))
    print(f"  trace     overhead_ms_per_sim_s={m['trace.overhead_ms_per_sim_s']:.4g}"
          f" (traced {traced_ms:.4g} vs untraced {plain_ms:.4g}), "
          f"samples={m['trace.samples']:.0f}")
    return m


def run_workload(exe, workload, seed, seconds, trace, telemetry_on):
    start = time.monotonic()
    problems = []
    if not trace:
        reps = repeat(exe, workload, seed, "plain", seconds, start)
        verify(workload, reps, telemetry_on, problems)
        for r in reps[1:]:
            same(workload, "two same-seed runs", reps[0], r, True, problems)
        m, extra = end_to_end(reps)
        report_end_to_end(workload, reps, m, extra)
        sim = reps[0]["sim"]
        return m, problems, sim["attempted"], sim["lost"]

    # Traced run: untraced reference processes, CPU-sampled processes for
    # most of the budget, one allocation-stack process, and for workloads
    # with a registry the registry-off replica.
    plain = [run_process(exe, workload, seed, "plain") for _ in range(2)]
    noreg = ([run_process(exe, workload, seed, "noreg") for _ in range(2)]
             if workload in WITH_REGISTRY else [])
    allocs = run_process(exe, workload, seed, "allocs")
    cpu = repeat(exe, workload, seed, "cpu", seconds, start)
    verify(workload, plain + noreg + [allocs] + cpu, telemetry_on, problems)
    same(workload, "two same-seed runs", plain[0], plain[1], True, problems)
    for r in cpu + [allocs]:
        same(workload, "traced and untraced outputs", plain[0], r, True,
             problems)
    for r in noreg:
        same(workload, "registry-off replica's simulated outputs", plain[0],
             r, False, problems)
    m = per_layer(workload, plain, cpu, allocs, noreg)
    sim = plain[0]["sim"]
    return m, problems, sim["attempted"], sim["lost"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--telemetry", choices=["on", "off"], default="on")
    args = ap.parse_args()

    telemetry_on = args.telemetry == "on"
    exe = build(telemetry_on)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    metrics, problems, attempted, failed = {}, [], 0, 0
    for name in names:
        m, p, a, f = run_workload(exe, name, args.seed, args.seconds,
                                  args.trace, telemetry_on)
        problems += p
        attempted += int(a)
        failed += int(f)
        prefix = "" if len(names) == 1 else name + "/"
        units = END_TO_END_UNITS if not args.trace else {}
        for k, v in m.items():
            metrics[prefix + k] = {"value": v,
                                   "unit": units.get(k) or layer_unit(k)}
    for msg in problems:
        log("CHECK FAILED: " + msg)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(1 if problems else 0)


def layer_unit(name):
    metric = name.split(".", 1)[1]
    if metric.endswith("_ms_per_sim_s"):
        return "ms/sim_s"
    if metric.endswith("_per_sim_s"):
        return "1/sim_s"
    if metric.endswith("_frac") or metric == "share":
        return "fraction"
    if metric.endswith("_us"):
        return "sim_us"
    if metric.endswith("_ns") or metric.endswith("_ns_per_call") or \
            metric.endswith("_ns_per_event"):
        return "host_ns"
    if metric.endswith("_ms"):
        return "host_ms"
    return "count"


if __name__ == "__main__":
    main()
