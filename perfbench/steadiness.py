#!/usr/bin/env python3
"""Repeats the benchmark over several seeds and records, for every
end-to-end metric of each workload, the median, the quartiles and the
spread (Q3 - Q1 over the median) next to the metric's bound.

    python3 perfbench/steadiness.py [--workloads fig3-paper,...] [--seeds 1-10]

Run it from the repository root. Each run uses BENCHMARK.json's
run_seconds and adds one set of runs per listed workload to
perfbench/steadiness.json; sets recorded from other source (another
source_sha256) are dropped. When a workload has two sets, the last two
are compared: each metric's later median may be worse than the earlier by
at most the metric's bound.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "steadiness.json")


def run_set(name, seeds, spec):
    values, runs, env = {}, [], None
    started = datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    for seed in seeds:
        t0 = time.monotonic()
        p = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload", name,
                            "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                           cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            sys.exit("%s seed %d failed (exit %d):\n%s" % (name, seed, p.returncode, p.stderr[-2000:]))
        env = json.loads(lines[0][len("# env "):])
        res = json.loads(lines[-1])
        if not res["correct"]:
            sys.exit("%s seed %d: outputs failed the digest check" % (name, seed))
        for m, v in res["metrics"].items():
            values.setdefault(m, []).append(v["value"])
        runs.append(round(time.monotonic() - t0, 1))
        print("%s seed %d: %s (%.0f s)" % (name, seed, {m: round(v["value"], 4) for m, v in res["metrics"].items()},
                                            runs[-1]), flush=True)
    table = {}
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        table[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
                            "bound": m["bound"], "unit": m["unit"], "values": vals}
        flag = "" if table[m["name"]]["spread"] <= m["bound"] / 3 else "  (above a third of the bound)"
        print("%s %-20s median %.4g  Q1 %.4g  Q3 %.4g  spread %.2f%%  bound %.0f%%%s" % (
            name, m["name"], med, q1, q3, 100 * table[m["name"]]["spread"], 100 * m["bound"], flag), flush=True)
    return {"started": started, "seeds": seeds, "seconds": spec["run_seconds"], "run_wall_s": runs, "metrics": table,
            "env": {k: env[k] for k in ("commit", "source_sha256", "go", "nproc", "GOMAXPROCS", "workers")}}


def compare(name, earlier, later, spec):
    """Records how far the later set's medians moved from the earlier's,
    in the worse direction, as a share of the earlier median."""
    drift = {}
    for m in spec["end_to_end"]:
        a, b = earlier["metrics"][m["name"]]["median"], later["metrics"][m["name"]]["median"]
        worse = (b - a) if m["better"] == "lower" else (a - b)
        drift[m["name"]] = {"earlier": a, "later": b, "worse_by": worse / a if a else 0.0, "bound": m["bound"]}
        d = drift[m["name"]]
        print("%s %-20s median %.4g then %.4g: worse by %+.2f%%  bound %.0f%%%s" % (
            name, m["name"], a, b, 100 * d["worse_by"], 100 * m["bound"],
            "" if d["worse_by"] <= m["bound"] else "  (OUTSIDE the bound)"), flush=True)
    return drift


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="N-M")
    args = ap.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    try:
        with open(OUT) as f:
            record = json.load(f)
    except OSError:
        record = {}
    for name in args.workloads.split(","):
        new = run_set(name, seeds, spec)
        sets = [s for s in record.get(name, {}).get("sets", [])
                if s["env"]["source_sha256"] == new["env"]["source_sha256"]] + [new]
        entry = {"sets": sets}
        if len(sets) >= 2:
            entry["agreement"] = compare(name, sets[-2], sets[-1], spec)
        record[name] = entry
        with open(OUT, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
