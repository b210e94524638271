#!/usr/bin/env python3
"""End-to-end replay benchmark for the SieveStore simulator.

Builds the bench_e2e target in the repository's CMake tree (--build,
default .bench_build; attach.cmake adds bench/e2e to that tree) and runs
its workloads. Four modes:

  run.py [--workload W ...] [--seed N] [--seconds S] [--json-out FILE]
      Full run: every workload (or the named ones) in two fresh
      processes, untraced for the end-to-end metrics and traced for the
      per-layer ones. Prints a table; --json-out appends the merged
      document as one JSON line. Chrome traces land in
      <build>/bench-e2e/traces/<workload>.json (open them in
      ui.perfetto.dev).

  run.py --workload W --seed N --seconds S --trace 0|1
      Single run in one process. The last stdout line is one JSON object
      with the keys correct, attempted, failed and metrics: the
      end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
      metrics with --trace 1.

  run.py --smoke
      Every workload at 1/65536 scale, one rep, traced and untraced:
      digests agree, spans cover the traced run, and the metric names
      match BENCHMARK.json.

  run.py --compare PARENT.jsonl CHANGE.jsonl
      Pair rule for claiming a gain (see README.md): line i of each file
      is one full-run document, the pairs run alternately.

Exit status is non-zero on any correctness failure.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
# Configuring the root with this variable adds bench/e2e to its tree.
ATTACH_VAR = "CMAKE_PROJECT_sievestore_INCLUDE"
ATTACH = HERE / "attach.cmake"

# --seed picks an input variant of the synthetic week (its start day);
# --trace-seed picks the week itself.
DEFAULT_SEED = 1
DEFAULT_TRACE_SEED = 0x51E5E5704E
# Never used while writing or tuning a change: a claimed gain must also
# hold on this week.
HELD_OUT_TRACE_SEED = 0x5EEDC0FFEE
WORKLOADS = ["msr-sievec", "mem-sharded", "sieved-epoch", "aod-evict",
             "adaptive"]
# Environment toggles that would change what is measured.
SCRUBBED_ENV = ("SIEVE_CHECK_INVARIANTS", "SIEVE_BATCH_KERNEL",
                "SIEVE_BATCH_SIMD")
CHILD_TIMEOUT_S = 170
SMOKE_SCALE = 65536


def die(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    try:
        return json.loads(BENCHMARK_JSON.read_text())
    except (OSError, ValueError) as e:
        die(f"cannot read {BENCHMARK_JSON}: {e}")


def attached(build_root):
    """True when build_root is a generated tree whose CMake cache already
    includes attach.cmake."""
    if not any((build_root / f).is_file() for f in ("Makefile", "build.ninja")):
        return False
    try:
        lines = (build_root / "CMakeCache.txt").read_text().splitlines()
    except OSError:
        return False
    return any(line.startswith(ATTACH_VAR + ":") and
               line.split("=", 1)[1] == str(ATTACH) for line in lines)


def build(build_root):
    """Build bench_e2e in the repository's CMake tree at build_root
    (configuring it, or attaching bench/e2e to an existing tree, first).
    Returns the package's binary directory."""
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"simulator sources not found under {ROOT}")
    if shutil.which("cmake") is None:
        die("cmake not found")
    build_root.mkdir(parents=True, exist_ok=True)
    pkg = build_root / "bench-e2e"
    log_path = build_root / "bench-e2e-build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not attached(build_root):
        steps.append(["cmake", "-S", str(ROOT), "-B", str(build_root),
                      f"-D{ATTACH_VAR}={ATTACH}"])
    steps.append(["cmake", "--build", str(build_root), "--target",
                  "bench_e2e", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                die(f"build failed (log: {log_path})")
    if not (pkg / "bench_e2e").is_file():
        die(f"build produced no {pkg / 'bench_e2e'}")
    return pkg


def child_env():
    env = dict(os.environ)
    for name in SCRUBBED_ENV:
        env.pop(name, None)
    return env


def run_child(pkg, workload, seeds, traced, seconds, scale=None,
              trace_out=None):
    """Run one bench_e2e process; returns its JSON result."""
    tmp = pkg / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [str(pkg / "bench_e2e"), "--workload", workload,
           "--seed", str(seeds[0]), "--trace-seed", str(seeds[1]),
           "--seconds", str(seconds), "--tmp-dir", str(tmp)]
    if scale:
        cmd += ["--scale-denominator", str(scale)]
    if traced:
        cmd.append("--traced")
    if trace_out:
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(),
                              cwd=ROOT, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"correct": False, "problems": [f"{workload}: timed out"]}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False,
                "problems": [f"{workload}: exit {proc.returncode}, "
                             "no result"]}
    if proc.returncode != 0:
        result["correct"] = False
    return result


def merge(untraced, traced):
    """One workload's record: both processes' metrics."""
    problems = list(untraced.get("problems", [])) + \
        list(traced.get("problems", []))
    if untraced.get("digest") != traced.get("digest"):
        problems.append("traced digest differs from untraced digest")
    metrics = dict(traced.get("metrics", {}))
    metrics.update(untraced.get("metrics", {}))
    return {
        "correct": bool(untraced.get("correct")) and
        bool(traced.get("correct")) and not problems,
        "problems": problems,
        "attempted": untraced.get("attempted", 0),
        "failed": untraced.get("failed", 0) + traced.get("failed", 0),
        "digest": untraced.get("digest"),
        "metrics": metrics,
        "detail": {"untraced": untraced.get("detail"),
                   "traced": traced.get("detail")},
        "host": untraced.get("host", {}),
    }


def run_workload(pkg, workload, seeds, seconds, trace_out=None, scale=None):
    untraced = run_child(pkg, workload, seeds, False, seconds, scale=scale)
    traced = run_child(pkg, workload, seeds, True, seconds, scale=scale,
                       trace_out=trace_out)
    return merge(untraced, traced)


def host_block(binary_host):
    sha = "unknown"
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or sha
    except (OSError, subprocess.SubprocessError):
        pass
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    block = {"nproc": os.cpu_count(), "cpu": cpu,
             "kernel": platform.release(), "git_sha": sha}
    block.update(binary_host)
    return block


def result_line(record, names):
    metrics = record["metrics"]
    out = {}
    for name in names:
        if name not in metrics:
            record["correct"] = False
            record["problems"].append(f"metric {name} missing")
            continue
        out[name] = {"value": metrics[name]["value"],
                     "unit": metrics[name]["unit"]}
    return {"correct": record["correct"],
            "attempted": max(1, int(record.get("attempted", 0))),
            "failed": int(record.get("failed", 0)), "metrics": out}


def seeds(args):
    return (args.seed, args.trace_seed)


def single_run(args, bench, pkg):
    if not args.workload or len(args.workload) != 1:
        die("--trace needs exactly one --workload")
    workload = args.workload[0]
    # The traced process runs the untraced driver too: its digest is the
    # reference, and its replay rate the one the hand-off loss uses.
    record = run_child(pkg, workload, seeds(args), args.trace == 1,
                       args.seconds)
    record["correct"] = bool(record.get("correct"))
    record.setdefault("metrics", {})
    record.setdefault("problems", [])
    names = [m["name"] for m in
             bench["per_layer" if args.trace else "end_to_end"]]
    line = result_line(record, names)
    for p in record["problems"]:
        print(f"run.py: {workload}: {p}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def fmt(v):
    return f"{v:.5g}" if isinstance(v, float) else str(v)


def print_table(doc, bench):
    order = [m["name"] for m in bench["end_to_end"]] + ["error_ratio"] + \
        [m["name"] for m in bench["per_layer"]]
    for workload, rec in doc["workloads"].items():
        status = "ok" if rec["correct"] else "FAILED"
        print(f"\n== {workload} ({status}, digest {rec['digest']})")
        for p in rec["problems"]:
            print(f"   problem: {p}")
        seen = set()
        for name in order:
            if name in seen or name not in rec["metrics"]:
                continue
            seen.add(name)
            m = rec["metrics"][name]
            spread = ""
            if m.get("n", 1) > 1:
                spread = f"  [{fmt(m['min'])} .. {fmt(m['max'])}]"
            print(f"   {name:<34} {fmt(m['value']):>14} {m['unit']:<12}"
                  f" n={m.get('n', 1)}{spread}")
        untraced = rec["detail"].get("untraced") or {}
        traced = rec["detail"].get("traced") or {}
        setup = [f"{part} {untraced[f'setup_{part}_s']:.4g}s"
                 for part in ("generate", "csv", "build")
                 if f"setup_{part}_s" in untraced]
        if setup:
            print(f"   setup_s median split: {', '.join(setup)}")
        kinds = untraced.get("per_kind") or {}
        replay_s = traced.get("replay_s") or {}
        if len(kinds) > 1:
            print("   per kind: hit_ratio / alloc_writes_per_access / "
                  "traced appliance pass")
            for kind, d in kinds.items():
                print(f"     {kind:<8} {d['hit_ratio']:.6f} / "
                      f"{d['alloc_writes_per_access']:.6f} / "
                      f"{replay_s.get(kind, 0.0):.3f}s")


def full_run(args, bench, pkg):
    workloads = args.workload or WORKLOADS
    doc = {"seed": args.seed, "trace_seed": args.trace_seed,
           "seconds": args.seconds, "workloads": {}}
    for w in workloads:
        print(f"running {w} ...", file=sys.stderr, flush=True)
        doc["workloads"][w] = run_workload(
            pkg, w, seeds(args), args.seconds,
            trace_out=pkg / "traces" / f"{w}.json")
    first = next(iter(doc["workloads"].values()))
    doc["host"] = host_block(first.get("host", {}))
    doc["correct"] = all(r["correct"] for r in doc["workloads"].values())
    print(f"host: {json.dumps(doc['host'])}")
    print_table(doc, bench)
    if args.json_out:
        with open(args.json_out, "a") as f:
            f.write(json.dumps(doc) + "\n")
    return 0 if doc["correct"] else 1


def smoke(bench, pkg):
    e2e = {m["name"] for m in bench["end_to_end"]}
    layer = {m["name"] for m in bench["per_layer"]}
    ok = True
    for w in WORKLOADS:
        rec = run_workload(pkg, w, (DEFAULT_SEED, DEFAULT_TRACE_SEED), 0,
                           scale=SMOKE_SCALE)
        printed = set(rec["metrics"])
        problems = rec["problems"] + \
            [f"missing metric {n}" for n in sorted((e2e | layer) - printed)] + \
            [f"metric {n} not in BENCHMARK.json"
             for n in sorted(printed - (e2e | layer))]
        coverage = rec["metrics"].get("bench.span_coverage", {}).get(
            "value", 0.0)
        good = rec["correct"] and not problems and coverage >= 0.95
        ok &= good
        print(f"{'PASS' if good else 'FAIL'} {w}: digest {rec['digest']}, "
              f"span coverage {coverage:.4f}"
              + "".join(f"\n     {p}" for p in problems))
    return 0 if ok else 1


def better(direction, a, b):
    """+1 when a beats b in `direction`, -1 when worse, 0 on a tie."""
    if a == b:
        return 0
    return 1 if (a > b) == (direction == "higher") else -1


def compare(parent_path, change_path, bench):
    def load(path):
        with open(path) as f:
            return [json.loads(line) for line in f if line.strip()]
    parent, change = load(parent_path), load(change_path)
    pairs = min(len(parent), len(change))
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    names = list(spec)
    print(f"{pairs} pairs ({len(parent)} parent, {len(change)} change runs)")
    if pairs < 10:
        print("fewer than 10 pairs: every row is unresolved")
    header = (f"{'workload':<13} {'metric':<34} {'parent q1/med/q3':>34} "
              f"{'change q1/med/q3':>34} {'wins':>6}  verdict")
    print(header)
    worse = False
    workloads = sorted(set().union(*(d["workloads"] for d in parent[:pairs]))
                       if pairs else [])
    for w in workloads:
        for name in names:
            try:
                p = [d["workloads"][w]["metrics"][name]["value"]
                     for d in parent[:pairs]]
                c = [d["workloads"][w]["metrics"][name]["value"]
                     for d in change[:pairs]]
            except KeyError:
                continue
            if len(p) < 2:
                continue
            direction = spec[name]["better"]
            bound = spec[name].get("bound")
            pq, cq = statistics.quantiles(p, n=4), statistics.quantiles(c, n=4)
            wins = sum(better(direction, ci, pi) > 0 for pi, ci in zip(p, c))
            gap = better(direction, cq[1], pq[1]) * abs(cq[1] - pq[1])
            iqr = pq[2] - pq[0]
            if pairs < 10:
                verdict = "unresolved"
            elif wins >= 0.9 * pairs and gap > iqr:
                verdict = "better"
            elif bound is None:
                verdict = "no bound"
            elif -gap > bound * abs(pq[1]):
                verdict = "WORSE"
                worse = True
            elif iqr > bound * abs(pq[1]) and \
                    min(better(direction, ci, pi) for pi in p for ci in c) < 1:
                verdict = "unresolved"
            else:
                verdict = "within bound"
            print(f"{w:<13} {name:<34} "
                  f"{'/'.join(fmt(v) for v in pq):>34} "
                  f"{'/'.join(fmt(v) for v in cq):>34} "
                  f"{wins:>3}/{pairs:<2}  {verdict}")
    return 1 if worse else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="workload to run (repeatable; default all)")
    ap.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED,
                    help="input variant: seeds how many whole days later "
                    f"the week starts (default {DEFAULT_SEED})")
    ap.add_argument("--trace-seed", type=lambda s: int(s, 0),
                    default=DEFAULT_TRACE_SEED,
                    help="synthetic week's generator seed (default "
                    f"{DEFAULT_TRACE_SEED:#x}; held-out "
                    f"{HELD_OUT_TRACE_SEED:#x})")
    ap.add_argument("--seconds", type=float, default=None,
                    help="replay budget per workload (default: "
                    "run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="single run: 0 end-to-end, 1 per-layer metrics")
    ap.add_argument("--build", type=Path, default=ROOT / ".bench_build",
                    help="the repository's CMake build tree, new or "
                    "existing; bench_e2e builds in <build>/bench-e2e "
                    "(default .bench_build)")
    ap.add_argument("--json-out", help="append the full-run document here")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = ap.parse_args()

    bench = load_benchmark()
    if args.compare:
        return compare(args.compare[0], args.compare[1], bench)
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    pkg = build(args.build.resolve())
    if args.smoke:
        return smoke(bench, pkg)
    if args.trace is not None:
        return single_run(args, bench, pkg)
    return full_run(args, bench, pkg)


if __name__ == "__main__":
    sys.exit(main())
