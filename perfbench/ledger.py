#!/usr/bin/env python3
"""Run the served-path benchmark over several seeds and summarise it.

    python3 perfbench/ledger.py [--workloads live,dashboard]
                                [--seeds 10] [--first-seed 1] [--seconds N]
                                [--traced 3] [--record]

Builds the benchmark (honouring CARGO_TARGET_DIR, default .bench_build),
runs every workload (default: those of BENCHMARK.json) once per seed untraced (for --seconds, default
BENCHMARK.json's run_seconds) and on the first --traced seeds traced, and
prints for each metric the median, the quartiles and the spread
(Q3 - Q1) / median next to the bound in BENCHMARK.json, and for each
end-to-end metric the tracing overhead (traced minus untraced median over
the traced seeds, as a share of the untraced one). It exits non-zero when
a spread other than setup_s's exceeds a third of its bound. setup_s is
left out as the benchmark contract leaves it out: its spread across seeds
is not gated, only the shift of its median between two sets of runs.

--record appends the summary to perfbench/results/trajectory.json and
writes perfbench/results/breakdown.json from the traced runs. Run it from
the repository root.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
RESULTS = os.path.join(BENCH, "results")


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--offline",
         "--manifest-path", os.path.join(BENCH, "Cargo.toml")],
        check=True,
        env=dict(os.environ, CARGO_TARGET_DIR=target),
    )
    return os.path.join(target, "release", "perfbench")


def run(binary, workload, seed, seconds, trace):
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=180,
    )
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
    result = json.loads(last)
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: run failed")
    with open(os.path.join(BENCH, "out", f"{workload}-s{seed}-t{trace}.json")) as f:
        details = json.load(f)
    return result, details


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def collect(runs, section):
    names = runs[0][1][section].keys()
    return {
        n: dict(unit=runs[0][1][section][n]["unit"],
                **summary([d[section][n]["value"] for _, d in runs]))
        for n in names
    }


def git_rev():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--traced", type=int, default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads or ",".join(w["name"] for w in spec["workloads"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    binary = build()
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))

    entry = {
        "rev": git_rev(),
        "date": datetime.date.today().isoformat(),
        "host": f"{platform.machine()} {platform.system()}",
        "nproc": os.cpu_count(),
        "seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    breakdown = {}
    ok = True
    for w in workloads.split(","):
        # A traced run follows the untraced run of its seed at once, so
        # the overhead compares runs made under the same host conditions.
        runs, traced = [], []
        for i, s in enumerate(seeds):
            runs.append(run(binary, w, s, seconds, 0))
            if i < args.traced:
                traced.append(run(binary, w, s, seconds, 1))
        e2e = collect(runs, "end_to_end")
        served = collect(runs, "served")
        tails = runs[0][1]["tails"]
        print(f"\n{w}: {len(runs)} runs, seeds {seeds[0]}..{seeds[-1]}")
        for name, m in e2e.items():
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s":
                good = m["spread"] <= bound / 3
                ok &= good
                verdict = "ok" if good else f"SPREAD > bound/3 ({bound / 3:.4f})"
            print(f"  {name:<26} median {m['median']:>14.4f} {m['unit']:<6} "
                  f"q1 {m['q1']:>12.4f} q3 {m['q3']:>12.4f} spread {m['spread']:.4f} {verdict}")
            print("      " + " ".join(f"{v:.4g}" for v in m["values"]))
        wentry = {
            "end_to_end": e2e,
            "served": served,
            "tails": tails,
            "attempted": [d["attempted"] for _, d in runs],
            "failed": [d["failed"] for _, d in runs],
        }
        if args.traced:
            layers = collect(traced, "per_layer") if len(traced) > 1 else {
                n: {"unit": v["unit"], "median": v["value"], "values": [v["value"]]}
                for n, v in traced[0][1]["per_layer"].items()
            }
            wentry["per_layer"] = layers
            # Tracing overhead, metric by metric: the traced runs' own
            # end-to-end figures against the untraced runs of the same seeds.
            # The traced run also makes the shadow probes after its timed
            # loop, so its peak memory includes theirs.
            wentry["trace_overhead"] = {}
            for name in e2e:
                t = statistics.median(
                    [d["per_layer"][f"trace.{name}"]["value"] for _, d in traced])
                u = statistics.median(
                    [d["end_to_end"][name]["value"] for _, d in runs[: len(traced)]])
                share = (t - u) / u if u else 0.0
                wentry["trace_overhead"][name] = {
                    "traced": t, "untraced": u, "share": share}
                print(f"  tracing overhead on {name:<20} {share:+.2%}")
            for name, m in layers.items():
                print(f"  {name:<34} {m['median']:>14.4f} {m['unit']}")
            breakdown[w] = {
                "seed": seeds[0],
                "split": traced[0][1]["breakdown"],
                "per_layer": traced[0][1]["per_layer"],
            }
        entry["workloads"][w] = wentry

    if args.record:
        os.makedirs(RESULTS, exist_ok=True)
        path = os.path.join(RESULTS, "trajectory.json")
        trajectory = []
        if os.path.exists(path):
            with open(path) as f:
                trajectory = json.load(f)
        trajectory.append(entry)
        with open(path, "w") as f:
            json.dump(trajectory, f, indent=1)
            f.write("\n")
        if breakdown:
            with open(os.path.join(RESULTS, "breakdown.json"), "w") as f:
                json.dump(dict(rev=entry["rev"], nproc=entry["nproc"], **breakdown), f, indent=1)
                f.write("\n")
    if not ok:
        raise SystemExit("some spread exceeds a third of its bound")


if __name__ == "__main__":
    main()
