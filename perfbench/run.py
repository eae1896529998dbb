#!/usr/bin/env python3
"""Benchmark of the dynsched simulators: paper-scale Figure 3, and a replay
sweep plus the attribution probes from the result store.

    python3 perfbench/run.py --workload fig3-paper|store-paper \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --record-digests [--scale paper] [--tracecpus 1-6]

Run it from the repository root. It builds cmd/hidelat (and, for --trace 1,
perfbench/tracedrun) into .bench_build, with the Go build cache there too.

--trace 0 runs the workload with the hidelat binary, one worker and
GOMAXPROCS=1, in timed passes that end within --seconds seconds (at least
one pass), and prints the end-to-end metrics.
--trace 1 runs the in-process traced run and prints the per-layer
metrics. Every cell either run produces is checked against
perfbench/digests.json. The last line of standard output is the
JSON result; a report with the environment header is also written under
.bench_build/reports. NOTES.md explains the workloads and metrics.
"""

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build")
DIGESTS = os.path.join(BENCH, "digests.json")

WORKLOADS = ("fig3-paper", "store-paper")
# The hidelat steps each workload's timed part runs, in order.
STEPS = {
    "fig3-paper": ("fig3",),
    "store-paper": ("fig4", "scpf", "analyze", "timeline"),
}
COLUMN_STEPS = ("fig3", "fig4", "scpf")
# The paper's five-app average read latency hidden under RC at W16/32/64 (§7).
PAPER_READ_HIDDEN = {16: 33, 32: 63, 64: 81}
# Set-ups per --trace 0 run. A store fill lasts about as long as a timed
# pass, so store-paper fills twice to keep a run near a minute.
SETUP_REPEATS = {"fig3-paper": 3, "store-paper": 2}
# Processors whose traces are within 2 % of processor 1's in length and
# whose runs peak at the same memory; the seed picks one.
TRACE_CPUS = (1, 2, 3, 4, 5, 6)
GOMAXPROCS = "1"
WORKERS = "1"
CHILD_TIMEOUT = 170


class BenchError(Exception):
    pass


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def trace_cpu(seed):
    """The workload seed picks the traced processor from TRACE_CPUS; seed 1
    is processor 1, the paper's. NOTES.md says why the others are left out."""
    return TRACE_CPUS[(seed - 1) % len(TRACE_CPUS)]


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    return env


def run_env():
    env = dict(os.environ)
    env["GOMAXPROCS"] = GOMAXPROCS
    env.pop("HIDELAT_CACHE", None)
    return env


def go_build(cwd, out, pkg, env):
    p = subprocess.run(["go", "build", "-o", out, pkg], cwd=cwd, env=env,
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if p.returncode != 0:
        raise BenchError("go build %s failed:\n%s" % (pkg, p.stdout))


def build(traced):
    """Builds hidelat (and perfbench/tracedrun) from the checkout's source."""
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(os.path.join(ROOT, "cmd", "hidelat")):
        raise BenchError("no dynsched source tree at %s" % ROOT)
    os.makedirs(os.path.join(BUILD, "bin"), exist_ok=True)
    go_build(ROOT, os.path.join(BUILD, "bin", "hidelat"), "./cmd/hidelat", go_env())
    if traced:
        go_build(BENCH, os.path.join(BUILD, "bin", "tracedrun"), "./tracedrun", go_env())
    return os.path.join(BUILD, "bin", "hidelat"), os.path.join(BUILD, "bin", "tracedrun")


def run_child(argv, cwd, stdout_path):
    """Runs one child to completion; returns (seconds, peak RSS in MB). A
    child still running after CHILD_TIMEOUT seconds is killed."""
    with open(stdout_path, "w") as out, open(stdout_path + ".err", "w") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err, env=run_env())
        killer = threading.Timer(CHILD_TIMEOUT, p.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
            secs = time.perf_counter() - t0
        except BaseException:
            p.kill()
            p.wait()
            raise
        finally:
            killer.cancel()
        p.returncode = os.waitstatus_to_exitcode(status)
    if p.returncode != 0:
        with open(stdout_path + ".err") as f:
            tail = f.read()[-2000:]
        raise BenchError("%s exited %d:\n%s" % (" ".join(argv), p.returncode, tail))
    return secs, ru.ru_maxrss / 1024.0


# ---------------------------------------------------------------- outputs

def digest(record):
    js = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(js.encode()).hexdigest()[:16]


def cells_from_csv(step, text):
    cells = {}
    for row in csv.DictReader(io.StringIO(text)):
        rec = {k: row[k] for k in ("model", "arch", "window", "busy", "sync", "read",
                                    "write", "branch", "other", "total")}
        cells["%s/%s/%s" % (step, row["app"], row["config"])] = rec
    return cells


def cells_from_report(step, js):
    cells = {}
    keep = ("breakdown", "instructions", "attribution") if step == "analyze" else \
        ("interval_cycles", "total_cycles", "instructions", "samples", "phases")
    for app in js["apps"]:
        for c in app["cells"]:
            if c.get("failed"):
                continue
            cells["%s/%s/%s" % (step, app["app"], c["label"])] = {k: c.get(k) for k in keep}
    return cells


def stdout_file(step, d):
    """Where a step's standard output goes: the CSV it prints, or the text
    report of analyze and timeline."""
    return os.path.join(d, step + (".csv" if step in COLUMN_STEPS else ".txt"))


def read_cells(step, d):
    """Parses one step's output in directory d (hidelat's or the traced
    tracedrun's, which use the same file names) into {cell id: record}."""
    if step in COLUMN_STEPS:
        with open(stdout_file(step, d)) as f:
            return cells_from_csv(step, f.read())
    with open(os.path.join(d, step + ".json")) as f:
        return cells_from_report(step, json.load(f))


def check_cells(cells, want):
    """Compares produced cells with the recorded digests. Returns
    (attempted, failed, names of failed cells); a cell missing from the
    output counts as attempted and failed."""
    failed = []
    for cid, d in want.items():
        if cid not in cells or digest(cells[cid]) != d:
            failed.append(cid)
    extra = [cid for cid in cells if cid not in want]
    return len(want) + len(extra), len(failed) + len(extra), failed + extra


def read_hidden_err(cells):
    """Mean absolute error, in percentage points, of the five-app average RC
    read latency hidden at W16/32/64, in whole percent as the paper and
    hidelat summary report it, against the paper's 33/63/81. fig3 and
    analyze both carry the BASE and RC-DS cells it needs."""
    base, ds = {}, {}
    for cid, rec in cells.items():
        step, app, label = cid.split("/")
        if step not in ("fig3", "analyze"):
            continue
        read = int(rec["read"]) if step == "fig3" else int(rec["breakdown"]["Read"])
        if label == "BASE":
            base[app] = read
        elif label.startswith("RC-DS"):
            ds[(app, int(label[5:]))] = read
    if not base:
        raise BenchError("no BASE and RC-DS cells to compute read latency hidden from")
    avg = {w: round(100 * sum(1 - ds[(a, w)] / base[a] for a in base) / len(base))
           for w in PAPER_READ_HIDDEN}
    return sum(abs(avg[w] - PAPER_READ_HIDDEN[w]) for w in PAPER_READ_HIDDEN) / len(PAPER_READ_HIDDEN)


def replayed_instructions(cells, instr):
    """Instructions the steps replayed: each cell replays its app's whole
    trace once, except a fig4/scpf cell another step already stored (the
    shared BASE cell)."""
    total, seen = 0, set()
    for cid in cells:
        step, app, label = cid.split("/")
        key = (app, label) if step in ("fig4", "scpf") else (step, app, label)
        if key not in seen:
            seen.add(key)
            total += instr[app]
    return total


def load_reference(scale, tcpu, steps):
    try:
        with open(DIGESTS) as f:
            ref = json.load(f)[scale][str(tcpu)]
    except (OSError, KeyError, ValueError) as e:
        raise BenchError("no recorded digests for scale %s, processor %d: %r" % (scale, tcpu, e))
    want = {cid: d for cid, d in ref["cells"].items() if cid.split("/")[0] in steps}
    return want, ref["instr"]


class Workload:
    def __init__(self, name, scale, tcpu, hidelat, reference=True):
        self.name, self.scale, self.tcpu, self.hidelat = name, scale, tcpu, hidelat
        self.steps = STEPS[name]
        self.uses_store = name != "fig3-paper"
        self.dir = os.path.join(BUILD, "work", name)
        self.want, self.instr = load_reference(scale, tcpu, self.steps) if reference else ({}, {})
        self.attempted = self.failed = 0
        self.failed_cells = []

    def argv(self, step, outdir, store):
        argv = [self.hidelat, "-scale", self.scale, "-j", WORKERS, "-tracecpu", str(self.tcpu)]
        if store:
            argv += ["-cache", store]
        if step in COLUMN_STEPS:
            argv.append("-csv")
        elif step in ("analyze", "timeline"):
            argv += ["-%s-json" % step, os.path.join(outdir, step + ".json")]
        return argv + [step]

    def fresh(self, sub):
        d = os.path.join(self.dir, sub)
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        return d

    def setup(self, i):
        """One set-up: a fresh directory, and either a result store holding
        every trace and no cells or, for fig3-paper, which needs no store, a
        binary: hidelat linked into the directory from the warm build cache
        (one process, GOMAXPROCS=1) and started once."""
        t0 = time.perf_counter()
        d = self.fresh("setup%d" % i)
        if self.uses_store:
            run_child(self.argv("table1", d, os.path.join(d, "store")), d, os.path.join(d, "table1.txt"))
        else:
            binary = os.path.join(d, "hidelat")
            go_build(ROOT, binary, "./cmd/hidelat", dict(go_env(), GOMAXPROCS=GOMAXPROCS))
            run_child([binary, "-version"], d, os.path.join(d, "version.txt"))
        return time.perf_counter() - t0, os.path.join(d, "store")

    def check(self, cells):
        attempted, failed, names = check_cells(cells, self.want)
        self.attempted += attempted
        self.failed += failed
        self.failed_cells += names

    def iteration(self, store_template):
        """One timed pass of the workload's hidelat steps, each against a
        fresh copy of the set-up store. Returns (seconds, peak MB, cells)."""
        d = self.fresh("iter")
        store = None
        if self.uses_store:
            store = os.path.join(d, "store")
            shutil.copytree(store_template, store)
        secs, rss, cells = 0.0, 0.0, {}
        for step in self.steps:
            s, r = run_child(self.argv(step, d, store), d, stdout_file(step, d))
            secs += s
            rss = max(rss, r)
            cells.update(read_cells(step, d))
        self.check(cells)
        return secs, rss, cells


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(w, seconds):
    """--trace 0: set up several times, then run timed passes; every metric
    is the median over its samples. Another pass starts only if it would
    end within the run's seconds, were it as long as the longest so far, so
    a run's length stays bounded on a slow host; at least one pass runs."""
    setups = [w.setup(i) for i in range(SETUP_REPEATS[w.name])]
    template = setups[-1][1]
    walls, rsss, rates, errs = [], [], [], []
    t0 = time.monotonic()
    while not walls or time.monotonic() - t0 + max(walls) <= seconds:
        secs, rss, cells = w.iteration(template)
        walls.append(secs)
        rsss.append(rss)
        rates.append(replayed_instructions(cells, w.instr) / secs / 1e6)
        errs.append(read_hidden_err(cells))
        log("pass %d: %.3f s, %.0f MB" % (len(walls), secs, rss))
    return {
        "wall_s": metric(statistics.median(walls), "s"),
        "setup_s": metric(statistics.median(s for s, _ in setups), "s"),
        "peak_rss_mb": metric(statistics.median(rsss), "MB"),
        "replay_minstr_per_s": metric(statistics.median(rates), "Minstr/s"),
        "read_hidden_err_pp": metric(statistics.median(errs), "pp"),
    }, {"setups_s": [s for s, _ in setups], "walls_s": walls, "peak_rss_mb": rsss}


def traced(w, tracedrun):
    """--trace 1: the in-process traced run, tracedrun, which does its own
    set-up and prices its own span recording."""
    out = w.fresh("traced")
    run_child([tracedrun, "-workload", w.name, "-scale", w.scale, "-tracecpu", str(w.tcpu), "-out", out],
              out, os.path.join(out, "tracedrun.txt"))
    cells = {}
    for step in w.steps:
        cells.update(read_cells(step, out))
    w.check(cells)
    with open(os.path.join(out, "layers.json")) as f:
        layers = json.load(f)
    return dict(sorted(layers["metrics"].items())), {"traced_workload_s": layers["workload_s"],
                                                     "spans": os.path.join(out, "spans.json")}


# ---------------------------------------------------------------- environment

def source_digest():
    """Digest of the source the benchmark builds and runs: every Go file and
    module file, and the benchmark's Python and recorded digests. Generated
    files (steadiness.json, __pycache__) stay out."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if d not in (".git", ".bench_build", "__pycache__"))
        in_bench = os.path.commonpath([dirpath, BENCH]) == BENCH
        for fn in sorted(filenames):
            if fn.endswith(".go") or fn in ("go.mod", "go.sum") or \
                    (in_bench and (fn.endswith(".py") or fn == "digests.json")):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def environment(args, tcpu):
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if p.returncode == 0:
            commit = p.stdout.strip()
    gov = subprocess.run(["go", "version"], env=go_env(), capture_output=True, text=True).stdout.strip()
    return {
        "commit": commit, "source_sha256": source_digest(), "go": gov,
        "nproc": os.cpu_count(), "GOMAXPROCS": GOMAXPROCS, "workers": int(WORKERS),
        "seed": args.seed, "tracecpu": tcpu, "workload": args.workload, "scale": args.scale,
        "trace": args.trace, "seconds": args.seconds, "python": platform.python_version(),
    }


def bench(args):
    tcpu = trace_cpu(args.seed)
    hidelat, tracedrun = build(args.trace == 1)
    env = environment(args, tcpu)
    print("# env " + json.dumps(env, sort_keys=True), flush=True)
    w = Workload(args.workload, args.scale, tcpu, hidelat)
    if args.trace:
        metrics, detail = traced(w, tracedrun)
    else:
        metrics, detail = measure(w, args.seconds)
    result = {"correct": w.failed == 0, "attempted": w.attempted, "failed": w.failed, "metrics": metrics}
    os.makedirs(os.path.join(BUILD, "reports"), exist_ok=True)
    report = os.path.join(BUILD, "reports", "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(report, "w") as f:
        json.dump({"env": env, "result": result, "detail": detail, "failed_cells": w.failed_cells}, f, indent=1)
    if w.failed:
        log("%d of %d cells failed the digest check, e.g. %s" % (w.failed, w.attempted, w.failed_cells[:5]))
    print(json.dumps(result), flush=True)
    return 0 if w.failed == 0 else 1


# ---------------------------------------------------------------- reference

def record_digests(args):
    """Runs every step with hidelat for each listed traced processor and
    records each cell's digest and each trace's instruction count. Run it
    only when a change is meant to alter simulated results."""
    hidelat, _ = build(False)
    lo, _, hi = args.tracecpus.partition("-")
    try:
        with open(DIGESTS) as f:
            ref = json.load(f)
    except OSError:
        ref = {}
    for tcpu in range(int(lo), int(hi or lo) + 1):
        w = Workload("store-paper", args.scale, tcpu, hidelat, reference=False)
        w.dir = os.path.join(BUILD, "record")
        d = w.fresh("%s-%d" % (args.scale, tcpu))
        store = os.path.join(d, "store")
        run_child(w.argv("table1", d, store), d, os.path.join(d, "table1.txt"))
        cells = {}
        for name in WORKLOADS:
            for step in STEPS[name]:
                run_child(w.argv(step, d, store), d, stdout_file(step, d))
                cells.update(read_cells(step, d))
        with open(os.path.join(d, "analyze.json")) as f:
            instr = {a["app"]: a["cells"][0]["instructions"] for a in json.load(f)["apps"]}
        ref.setdefault(args.scale, {})[str(tcpu)] = {
            "cells": {cid: digest(rec) for cid, rec in sorted(cells.items())}, "instr": instr}
        log("recorded %d cells for scale %s, processor %d" % (len(cells), args.scale, tcpu))
        with open(DIGESTS, "w") as f:
            json.dump(ref, f, indent=0, sort_keys=True)
            f.write("\n")
    return 0


# ---------------------------------------------------------------- self-test

def selftest(args):
    """Short small-scale checks of the benchmark itself: the span arithmetic
    (Go tests), that a perturbed cell fails the digest check, and that every
    run prints every named metric with its unit."""
    p = subprocess.run(["go", "test", "./..."], cwd=BENCH, env=go_env(),
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if p.returncode != 0:
        raise BenchError("go test in perfbench failed:\n" + p.stdout)
    log(p.stdout.strip())

    hidelat, _ = build(False)
    w = Workload("store-paper", "small", 1, hidelat)
    template = w.setup(0)[1]
    _, _, cells = w.iteration(template)
    if w.failed:
        raise BenchError("unperturbed small-scale cells failed: %s" % w.failed_cells)
    for cid, mutate in (("analyze/lu/RC-DS64", lambda r: r["breakdown"].update(Read=r["breakdown"]["Read"] + 1)),
                        ("timeline/mp3d/BASE", lambda r: r["phases"].pop())):
        bad = json.loads(json.dumps(cells))
        mutate(bad[cid])
        _, failed, names = check_cells(bad, w.want)
        if names != [cid]:
            raise BenchError("perturbing %s: digest check flagged %s" % (cid, names))
    _, failed, names = check_cells({k: v for k, v in cells.items() if k != "analyze/pthor/BASE"}, w.want)
    if names != ["analyze/pthor/BASE"]:
        raise BenchError("dropping a cell: digest check flagged %s" % names)
    log("perturbed and missing cells are caught")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for name in WORKLOADS:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            p = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", "1", "--seconds", "1",
                                "--trace", str(trace), "--scale", "small"], cwd=ROOT,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
            if p.returncode != 0:
                raise BenchError("%s --trace %d exited %d:\n%s" % (name, trace, p.returncode, p.stderr[-3000:]))
            lines = p.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            if not lines[0].startswith("# env "):
                raise BenchError("%s --trace %d: no environment header" % (name, trace))
            if set(res) != {"correct", "attempted", "failed", "metrics"} or not res["correct"] or res["failed"]:
                raise BenchError("%s --trace %d: bad result %s" % (name, trace, lines[-1][:300]))
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                raise BenchError("%s --trace %d: metrics %s, want %s" % (name, trace, got, want))
            log("%s --trace %d: %d metrics, %d cells checked" % (name, trace, len(got), res["attempted"]))
    print("selftest ok")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("small", "paper"), default="paper",
                    help="problem scale (small is for the self-test)")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    ap.add_argument("--tracecpus", default="%d-%d" % (min(TRACE_CPUS), max(TRACE_CPUS)),
                    help="processors to record, as N or N-M")
    args = ap.parse_args()
    # A terminated run unwinds like an exception, so run_child kills and
    # reaps the hidelat child it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if args.selftest:
            return selftest(args)
        if args.record_digests:
            return record_digests(args)
        if not args.workload:
            ap.error("--workload is required")
        return bench(args)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        log("perfbench:", e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
