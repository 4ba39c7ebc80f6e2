#!/usr/bin/env python3
"""The churnet benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

It builds perfbench/churnet_bench.exe from source (release profile, build
directory .bench_build), then launches it once per measured iteration:

- --trace 0 repeats untraced iterations until the next one would overrun
  --seconds, after a few set-up-only launches, and reports the median of
  every end-to-end metric named in BENCHMARK.json;
- --trace 1 runs one untraced and one traced iteration, writes the spans to
  .bench_build/perfbench/spans-<workload>-<seed>.jsonl and reports every
  per-layer metric named in BENCHMARK.json.

Every result is verified (see README.md) and the last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit code is
1 when a verification failed and 2 when the benchmark could not run.
"""

import argparse
import glob
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
OUT_DIR = os.path.join(BUILD_DIR, "perfbench")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "churnet_bench.exe")
PINS_FILE = os.path.join(HERE, "digests.json")
SETUP_PROBES = 5
HOST_NOTE = (
    "timings drift on shared hosts: the same pdg-large binary has read 3.2 s "
    "warm-up / 4.8 s flood and, later, 6-7 s / 10-12 s with identical "
    "allocation; compare runs made back to back"
)


class BenchError(Exception):
    """The benchmark itself could not run (missing sources, build failure)."""


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_tree():
    for path in ("dune-project", "lib", "bin", "perfbench/dune", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, path)):
            raise BenchError(f"{path} is missing: run from the root of a churnet source checkout")


def build():
    check_tree()
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", BUILD_DIR, "./perfbench/churnet_bench.exe"]
    # With the shared build cache off, the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError as e:
        raise BenchError(f"cannot run dune: {e}")
    if proc.returncode != 0:
        raise BenchError(f"build failed ({' '.join(cmd)} exited {proc.returncode})")


def launch(mode, workload, seed, size="full", domains=None):
    """One fresh process: set-up, then (unless mode is setup) one iteration."""
    cmd = [EXE, mode, "--workload", workload, "--seed", str(seed), "--size", size]
    if domains is not None:
        cmd += ["--domains", str(domains)]
    env = dict(os.environ)
    env["CHURNET_BENCH_T0"] = repr(time.time())
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    return result


def load_pins():
    with open(PINS_FILE) as f:
        return json.load(f)


class Verdicts:
    """Verification operations of one benchmark run: attempted and failed."""

    def __init__(self):
        self.ops = []

    def add(self, label, ok):
        self.ops.append((label, bool(ok)))

    @property
    def failed(self):
        return [label for label, ok in self.ops if not ok]


def verify_iteration(v, r, reference, pinned, counts_checks):
    """Record the verifications of one iteration's result.

    reference is the digest every iteration of this run must reproduce.
    Paper checks are operations on pinned seeds, whose verdicts are known;
    on other seeds a failing paper check is a measured outcome (reported as
    checks_failed) of a statistical claim, not a wrong output.
    """
    tag = f"{r['workload']} seed {r['seed']} ({r['mode']})"
    for inv in r["invariants"]:
        v.add(f"{tag}: {inv['claim']}", inv["holds"])
    v.add(f"{tag}: digest {r['digest']} equals this run's first digest {reference}",
          r["digest"] == reference)
    if pinned is not None:
        v.add(f"{tag}: digest {r['digest']} equals the pinned digest {pinned}",
              r["digest"] == pinned)
    if counts_checks:
        for c in r["checks"]:
            v.add(f"{tag}: paper check: {c['claim']}", c["holds"])


def cache_sizes():
    """Per-core L2 and last-level cache sizes in KiB, from sysfs."""
    sizes = {}
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(index, "level")) as f:
                level = int(f.read())
            with open(os.path.join(index, "type")) as f:
                kind = f.read().strip()
            with open(os.path.join(index, "size")) as f:
                text = f.read().strip()
        except (OSError, ValueError):
            continue
        if kind == "Instruction":
            continue
        unit = {"K": 1, "M": 1024, "G": 1024 * 1024}.get(text[-1:], None)
        kib = int(text[:-1]) * unit if unit else int(text) // 1024
        sizes[level] = kib
    return {"l2_kib": sizes.get(2), "llc_kib": sizes[max(sizes)] if sizes else None}


def git_rev():
    if shutil.which("git") and os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    return "unknown (not a git checkout)"


def context(workload, results):
    ctx = {"workload": workload, "nproc": os.cpu_count(), "git_rev": git_rev(),
           "host_note": HOST_NOTE, **cache_sizes()}
    if results:
        ctx["domains"] = results[0]["domains"]
        ctx["ocaml"] = results[0]["ocaml"]
        rss = [r["peak_rss_kb"] for r in results if r.get("peak_rss_kb")]
        if rss and ctx["l2_kib"]:
            ctx["peak_rss_over_l2"] = statistics.median(rss) / ctx["l2_kib"]
    return ctx


def measure(workload, seed, seconds, trace, size="full", pins=None):
    """One benchmark run.  Returns (result line, report for humans)."""
    pins = load_pins() if pins is None else pins
    pinned = pins.get(workload, {}).get(str(seed))
    counts_checks = pinned is not None
    v = Verdicts()
    results, setups, report = [], [], {}
    started = time.monotonic()

    def attempt(mode):
        try:
            return launch(mode, workload, seed, size)
        except RuntimeError as e:
            v.add(f"{workload} seed {seed} ({mode}) ran: {e}", False)
            return None

    if trace:
        runs = [attempt("run"), attempt("trace")]
        results = [r for r in runs if r is not None]
    else:
        for _ in range(SETUP_PROBES):
            r = attempt("setup")
            if r is not None:
                setups.append(r["setup_s"])
        while True:
            r = attempt("run")
            if r is None:
                break
            results.append(r)
            longest = max(x["elapsed_s"] for x in results)
            if time.monotonic() - started + longest > seconds:
                break
    for r in results:
        verify_iteration(v, r, results[0]["digest"], pinned, counts_checks)

    s = spec()
    metrics = {}
    if trace:
        untraced, traced = (runs[0], runs[1]) if len(results) == 2 else (None, None)
        values = {}
        if traced is not None:
            values = dict(traced["layers"])
            values.update({k: x for k, x in untraced["extra"].items()})
            values["trace.overhead_pct"] = 100.0 * (traced["wall_s"] - untraced["wall_s"]) / untraced["wall_s"]
            report["spans_file"] = traced.get("spans_file")
        for m in s["per_layer"]:
            metrics[m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
    elif results:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in results),
            "setup_s": statistics.median(setups + [r["setup_s"] for r in results]),
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] or 0 for r in results) / 1024.0,
            "alloc_mwords": statistics.median(r["alloc_mwords"] for r in results),
        }
        for m in s["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        extra_names = sorted({k for r in results for k in r["extra"]})
        report["extra"] = {k: statistics.median(r["extra"][k] for r in results if k in r["extra"])
                           for k in extra_names}
        report["iterations"] = len(results)
        report["setup_samples"] = len(setups) + len(results)
    checks = results[0]["checks"] if results else []
    report["checks_total"] = len(checks)
    report["checks_failed"] = [c["claim"] for c in checks if not c["holds"]]
    report["checks_counted"] = counts_checks
    report["context"] = context(workload, results)
    report["iterations_detail"] = results
    correct = bool(results) and not v.failed and len(metrics) > 0
    line = {"correct": correct, "attempted": max(1, len(v.ops)), "failed": len(v.failed),
            "metrics": metrics}
    report["verification_failures"] = v.failed
    return line, report


def print_human(workload, seed, line, report):
    ctx = report["context"]
    print(f"churnet benchmark: workload {workload}, seed {seed}")
    print("context: " + json.dumps(ctx, sort_keys=True))
    flat = [name for name, m in line["metrics"].items() if m["value"] == 0]
    for name, m in line["metrics"].items():
        if m["value"] != 0:
            print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    if flat:
        print(f"  ({len(flat)} metrics of layers this workload does not exercise read 0)")
    for name, value in report.get("extra", {}).items():
        print(f"  {name:44s} {value:.6g} (workload detail)")
    counted = "counted as verifications" if report["checks_counted"] else \
        "reported only: this seed has no pinned verdicts"
    print(f"  {'checks_failed':44s} {len(report['checks_failed'])} count "
          f"(of {report['checks_total']} paper checks; {counted})")
    for claim in report["checks_failed"]:
        print(f"    failing paper check: {claim}")
    for label in report["verification_failures"]:
        print(f"    FAILED: {label}")
    if report.get("spans_file"):
        print(f"  spans: {report['spans_file']}")


def run_benchmark(args):
    build()
    line, report = measure(args.workload, args.seed, args.seconds, args.trace)
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    out = os.path.join(ROOT, OUT_DIR, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(out, "w") as f:
        json.dump({"result": line, **report}, f, indent=1, sort_keys=True)
    print_human(args.workload, args.seed, line, report)
    print(f"  result file: {os.path.relpath(out, ROOT)}")
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] and line["failed"] == 0 else 1


# --- harness self-tests -----------------------------------------------------

def self_test():
    """Tiny-parameter checks of the harness itself."""
    build()
    s = spec()
    names = [w["name"] for w in s["workloads"]]
    failures = []

    def expect(label, ok):
        print(f"[{'PASS' if ok else 'FAIL'}] {label}", flush=True)
        if not ok:
            failures.append(label)

    produced = set()
    for w in names:
        for trace in (0, 1):
            kind = "per_layer" if trace else "end_to_end"
            line, _ = measure(w, 42, 1, trace, size="tiny", pins={})
            want = {m["name"]: m["unit"] for m in s[kind]}
            got = line["metrics"]
            expect(f"{w} --trace {trace}: result is correct with no failed operation",
                   line["correct"] and line["failed"] == 0 and line["attempted"] >= 1)
            expect(f"{w} --trace {trace}: prints exactly the {kind} metrics",
                   set(got) == set(want))
            expect(f"{w} --trace {trace}: every metric carries its unit and a finite value",
                   all(got[k]["unit"] == want[k] and isinstance(got[k]["value"], (int, float))
                       and math.isfinite(got[k]["value"]) for k in got if k in want))
            if trace:
                produced |= {k for k, m in got.items() if m["value"] != 0}
            else:
                expect(f"{w}: end-to-end metrics are never 0",
                       all(m["value"] != 0 for m in got.values()))
    # The tiny reproduce-smoke run executes registry cells E1 and T1 only.
    missing = [m["name"] for m in s["per_layer"] if m["name"] not in produced
               and (not m["name"].startswith("Registry.") or m["name"].split(".")[1] in ("E1", "T1"))]
    expect("every per-layer metric is produced by some workload" +
           (f" (missing: {', '.join(missing)})" if missing else ""), not missing)

    for w in names:
        line, report = measure(w, 42, 1, 0, size="tiny", pins={w: {"42": "0" * 32}})
        expect(f"{w}: a tampered pinned digest is reported as a failed operation",
               not line["correct"] and line["failed"] >= 1 and
               any("pinned digest" in f for f in report["verification_failures"]))

    for w in names:
        a = launch("run", w, 42, "tiny", domains=1)
        b = launch("run", w, 42, "tiny", domains=1)
        expect(f"{w}: alloc_mwords repeats exactly at 1 domain ({a['alloc_mwords']} vs {b['alloc_mwords']})",
               a["alloc_mwords"] == b["alloc_mwords"])
    a = launch("trace", "pdg-large", 42, "tiny")
    b = launch("trace", "pdg-large", 42, "tiny")
    for k in ("Models.warm_up_batch.jumps", "Flood.poisson_round.rounds"):
        expect(f"pdg-large: {k} repeats exactly ({a['layers'][k]} vs {b['layers'][k]})",
               a["layers"][k] == b["layers"][k] and a["layers"][k] > 0)

    print(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description="churnet benchmark (see perfbench/README.md)")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    os.chdir(ROOT)
    try:
        if args.self_test:
            return self_test()
        names = [w["name"] for w in spec()["workloads"]] if os.path.exists("BENCHMARK.json") else []
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r} (valid: {', '.join(names)})")
        return run_benchmark(args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
