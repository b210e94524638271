#!/usr/bin/env python3
"""Compare a fresh benchmark run against a checked-in baseline.

Two formats are understood, auto-detected from the file contents:

  gbench  Google Benchmark ``--benchmark_out_format=json`` output
          (``bench/baselines/BENCH_micro.json``). Entries are keyed
          by benchmark name; ``cpu_time`` is compared (less sensitive
          to host load than wall time).

  replay  ``bench_parallel_replay --json`` output
          (``bench/baselines/BENCH_batch.json``): one or more
          concatenated JSON arrays of row objects. Rows are keyed by
          their ``Shards``/``Batch`` column; every ``... req/s``
          column is compared, and the ``Identical`` column must stay
          ``yes`` — a determinism break is a hard failure regardless
          of tolerance.

A regression is a slowdown beyond ``--tolerance`` (default 0.50: CI
and developer machines are noisy — back-to-back idle runs of the
replay bench vary by up to ~35% on shared hosts — so the baselines
exist to catch step-change regressions, not single-digit drift).
Speedups never fail. A baseline row the fresh run lacks fails in both
formats, and so does a baseline ``req/s`` column a fresh replay row
lacks: a renamed or dropped benchmark or column, or a run filter that
no longer produces the row, would otherwise leave it ungated without
anyone noticing. Benchmarks present only in the fresh run are
warn-and-skip, never failures, and ``--allow-missing-baseline``
extends that to a baseline file that does not exist yet — both so a
new bench can land before its quiet-host baseline does. Exit status:
0 clean, 1 regression, missing row or determinism break, 2
usage/parse error.

``--scaling FILE`` checks one gbench run instead of diffing two: it
reads the ``BM_BlockCacheScaling`` rows and, per eviction kind, the
per-op cost ratio between the largest and the smallest capacity
(2^22 and 2^14 blocks). Every kind pays the memory hierarchy's growth,
so each ratio is divided by LRU's from the same file; a kind whose
ratio exceeds ``SCALING_LIMIT`` (4x) times LRU's fails, which catches
per-op work that grows with the cache (an O(capacity) victim scan
grows about 256x over that range). Exit status as above.

``--self-test`` runs every mode over the small fixture files in
``scripts/bench_compare_fixtures/`` and checks each exit status.

Typical use:

  build/bench/bench_micro_structures --benchmark_filter=BlockCache \\
      --benchmark_out=fresh.json --benchmark_out_format=json
  scripts/bench_compare.py --baseline bench/baselines/BENCH_micro.json \\
      --fresh fresh.json

  build/bench/bench_parallel_replay --json --scale-denominator 65536 \\
      > fresh_batch.json
  scripts/bench_compare.py --baseline bench/baselines/BENCH_batch.json \\
      --fresh fresh_batch.json

  build/bench/bench_micro_structures --benchmark_filter=BlockCacheScaling \\
      --benchmark_out=scaling.json --benchmark_out_format=json
  scripts/bench_compare.py --scaling scaling.json

Refreshing a baseline is deliberate: rerun on a quiet host and commit
the new file with a note on what changed. The committed replay
baseline is the per-row minimum of three back-to-back quiet-host
runs (a conservative floor, so honest fresh runs do not trip the
gate on host noise alone); regenerate it the same way.
"""

import argparse
import contextlib
import io
import json
import os
import re
import sys

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "bench_compare_fixtures")


def loadJsonStream(path):
    """Parse one or more concatenated JSON documents from a file."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    docs = []
    decoder = json.JSONDecoder()
    i, n = 0, len(text)
    while i < n:
        while i < n and text[i].isspace():
            i += 1
        if i >= n:
            break
        doc, end = decoder.raw_decode(text, i)
        docs.append(doc)
        i = end
    return docs


def detectFormat(docs):
    if len(docs) == 1 and isinstance(docs[0], dict) \
            and "benchmarks" in docs[0]:
        return "gbench"
    if all(isinstance(d, list) for d in docs):
        return "replay"
    return None


# --------------------------------------------------------------------
# gbench
# --------------------------------------------------------------------

_TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def gbenchEntries(doc):
    out = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        scale = _TIME_UNIT_NS.get(b.get("time_unit", "ns"), 1.0)
        out[b["name"]] = float(b["cpu_time"]) * scale
    return out


def compareGbench(base_doc, fresh_doc, tolerance):
    base = gbenchEntries(base_doc)
    fresh = gbenchEntries(fresh_doc)
    failures = []
    for name in sorted(base):
        if name not in fresh:
            print(f"  {name}: in baseline, not in fresh run  << MISSING")
            failures.append(f"{name} missing")
            continue
        b, f = base[name], fresh[name]
        ratio = f / b if b > 0 else float("inf")
        flag = ""
        if ratio > 1.0 + tolerance:
            flag = "  << REGRESSION"
            failures.append(name)
        print(f"  {name}: {b:.1f} -> {f:.1f} ns "
              f"({(ratio - 1.0) * 100.0:+.1f}%){flag}")
    for name in sorted(set(fresh) - set(base)):
        # Warn-and-skip, never fail: new benches land before their
        # quiet-host baseline does.
        print(f"  NEW {name} (no baseline entry; skipped)")
    return failures


# --------------------------------------------------------------------
# capacity scaling
# --------------------------------------------------------------------

SCALING_LIMIT = 4.0
_SCALING_RE = re.compile(
    r"^BM_BlockCacheScaling/kind:(\d+)/capacity:(\d+)(?:/iterations:\d+)?$")


def scalingRows(doc):
    """kind label -> {capacity: fastest cpu ns/op over repetitions}."""
    rows = {}
    for b in doc.get("benchmarks", []):
        m = _SCALING_RE.match(b.get("name", ""))
        if not m or b.get("run_type") == "aggregate":
            continue
        label = b.get("label") or f"kind:{m.group(1)}"
        scale = _TIME_UNIT_NS.get(b.get("time_unit", "ns"), 1.0)
        ns = float(b["cpu_time"]) * scale
        per_cap = rows.setdefault(label, {})
        cap = int(m.group(2))
        per_cap[cap] = min(ns, per_cap.get(cap, ns))
    return rows


def checkScaling(doc):
    """Failure labels, or None when the rows cannot be checked."""
    rows = scalingRows(doc)
    lru = rows.get("flat/LRU")
    if not lru or len(lru) < 2:
        print("bench-compare: no BM_BlockCacheScaling rows for LRU at "
              "two capacities", file=sys.stderr)
        return None
    small, large = min(lru), max(lru)
    lru_ratio = lru[large] / lru[small]
    print(f"bench-compare: capacity scaling {small} -> {large} blocks "
          f"[limit {SCALING_LIMIT:g}x LRU's {lru_ratio:.1f}x]")
    failures = []
    for label in sorted(rows):
        per_cap = rows[label]
        if small not in per_cap or large not in per_cap:
            print(f"  MISSING {label} (needs capacities {small} and "
                  f"{large})")
            failures.append(label)
            continue
        ratio = per_cap[large] / per_cap[small]
        flag = ""
        if ratio > SCALING_LIMIT * lru_ratio:
            flag = "  << SUPERLINEAR"
            failures.append(label)
        print(f"  {label}: {per_cap[small]:.1f} -> {per_cap[large]:.1f} "
              f"ns ({ratio:.1f}x, {ratio / lru_ratio:.2f}x LRU's){flag}")
    return failures


# --------------------------------------------------------------------
# replay
# --------------------------------------------------------------------

_KEY_COLUMNS = ("Shards", "Batch")
_RATE_RE = re.compile(r"req/s$")


def replayRows(docs):
    """(table index, key column, key value) -> row dict."""
    rows = {}
    for t, doc in enumerate(docs):
        for row in doc:
            for key_col in _KEY_COLUMNS:
                if key_col in row:
                    rows[(t, key_col, row[key_col])] = row
                    break
    return rows


def compareReplay(base_docs, fresh_docs, tolerance):
    base = replayRows(base_docs)
    fresh = replayRows(fresh_docs)
    failures = []
    for key in sorted(set(fresh) - set(base), key=str):
        print(f"  NEW row {key[1]}={key[2]} "
              f"(no baseline entry; skipped)")
    for key in sorted(base, key=str):
        if key not in fresh:
            print(f"  {key[1]}={key[2]}: in baseline, not in fresh "
                  f"run  << MISSING")
            failures.append(f"{key[1]}={key[2]} missing")
            continue
        brow, frow = base[key], fresh[key]
        label = f"{key[1]}={key[2]}"
        if frow.get("Identical", "yes") != "yes":
            print(f"  {label}: Identical={frow['Identical']} "
                  f"<< DETERMINISM BREAK")
            failures.append(f"{label} determinism")
        for col in brow:
            if not _RATE_RE.search(col):
                continue
            if col not in frow:
                print(f"  {label} {col}: in baseline, not in fresh "
                      f"row  << MISSING")
                failures.append(f"{label} {col} missing")
                continue
            b = float(str(brow[col]).replace(",", ""))
            f = float(str(frow[col]).replace(",", ""))
            if b <= 0:
                continue
            ratio = f / b
            flag = ""
            if ratio < 1.0 - tolerance:
                flag = "  << REGRESSION"
                failures.append(f"{label} {col}")
            print(f"  {label} {col}: {b:.0f} -> {f:.0f} "
                  f"({(ratio - 1.0) * 100.0:+.1f}%){flag}")
    return failures


def mainScaling(path):
    try:
        docs = loadJsonStream(path)
    except (OSError, ValueError) as e:
        print(f"bench-compare: {e}", file=sys.stderr)
        return 2
    if detectFormat(docs) != "gbench":
        print(f"bench-compare: {path} is not a gbench JSON run",
              file=sys.stderr)
        return 2
    failures = checkScaling(docs[0])
    if failures is None:
        return 2
    if failures:
        print(f"bench-compare: FAILED ({len(failures)} kind(s) scale "
              f"superlinearly)")
        return 1
    print("bench-compare: OK")
    return 0


def compareFiles(baseline, fresh, tolerance=0.50, fmt="auto",
                 allow_missing_baseline=False):
    """Diff one fresh run against one baseline; returns the exit
    status."""
    try:
        base_docs = loadJsonStream(baseline)
    except OSError as e:
        if allow_missing_baseline:
            print(f"bench-compare: WARNING: baseline "
                  f"{baseline} unreadable ({e}); skipping "
                  f"comparison — commit a quiet-host baseline to "
                  f"arm the gate")
            return 0
        print(f"bench-compare: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"bench-compare: {e}", file=sys.stderr)
        return 2

    try:
        fresh_docs = loadJsonStream(fresh)
    except (OSError, ValueError) as e:
        print(f"bench-compare: {e}", file=sys.stderr)
        return 2

    if fmt == "auto":
        fmt = detectFormat(base_docs)
        if fmt is None or fmt != detectFormat(fresh_docs):
            print("bench-compare: cannot detect a common format; "
                  "pass --format", file=sys.stderr)
            return 2

    print(f"bench-compare: {baseline} vs {fresh} "
          f"[{fmt}, tolerance {tolerance:.0%}]")
    if fmt == "gbench":
        failures = compareGbench(base_docs[0], fresh_docs[0], tolerance)
    else:
        failures = compareReplay(base_docs, fresh_docs, tolerance)
    if failures:
        print(f"bench-compare: FAILED ({len(failures)} regression(s) "
              f"or missing row(s)/column(s))")
        return 1
    print("bench-compare: OK")
    return 0


# (mode, file arguments, expected exit status). Each fixture differs
# from its baseline in one way, named by the file.
SELF_TEST_CASES = (
    ("compare", ("gbench_base.json", "gbench_fresh_ok.json"), 0),
    ("compare", ("gbench_base.json", "gbench_fresh_missing.json"), 1),
    ("compare", ("gbench_base.json", "gbench_fresh_slow.json"), 1),
    ("compare", ("replay_base.json", "replay_fresh_ok.json"), 0),
    ("compare", ("replay_base.json", "replay_fresh_missing.json"), 1),
    ("compare", ("replay_base.json",
                 "replay_fresh_missing_column.json"), 1),
    ("compare", ("replay_base.json", "replay_fresh_diverged.json"), 1),
    ("compare", ("gbench_base.json", "replay_fresh_ok.json"), 2),
    ("scaling", ("scaling_ok.json",), 0),
    ("scaling", ("scaling_superlinear.json",), 1),
    ("scaling", ("scaling_missing.json",), 1),
)


def selfTest():
    failed = 0
    for mode, files, want in SELF_TEST_CASES:
        paths = [os.path.join(FIXTURES, f) for f in files]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(out):
            got = (compareFiles(*paths) if mode == "compare"
                   else mainScaling(paths[0]))
        if got != want:
            failed += 1
            print(f"bench-compare self-test: {mode} {' '.join(files)} "
                  f"exited {got}, expected {want}", file=sys.stderr)
            print(out.getvalue(), file=sys.stderr)
    if failed:
        print(f"bench-compare self-test FAILED ({failed} of "
              f"{len(SELF_TEST_CASES)} cases)", file=sys.stderr)
        return 1
    print(f"bench-compare self-test OK ({len(SELF_TEST_CASES)} cases)")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="diff a fresh benchmark run against a baseline")
    parser.add_argument("--baseline")
    parser.add_argument("--fresh")
    parser.add_argument("--scaling", metavar="FILE",
                        help="check one gbench run's BM_BlockCacheScaling "
                             "rows instead of diffing two runs")
    parser.add_argument("--self-test", action="store_true",
                        help="run every mode over the fixture files in "
                             "scripts/bench_compare_fixtures/")
    parser.add_argument("--tolerance", type=float, default=0.50,
                        help="allowed fractional slowdown "
                             "(default 0.50)")
    parser.add_argument("--format", choices=("auto", "gbench",
                                             "replay"),
                        default="auto")
    parser.add_argument("--allow-missing-baseline",
                        action="store_true",
                        help="warn and exit 0 when the baseline file "
                             "does not exist yet (new benches land "
                             "before their quiet-host baseline does)")
    opts = parser.parse_args()

    if opts.self_test:
        if opts.baseline or opts.fresh or opts.scaling:
            parser.error("--self-test takes no other mode")
        return selfTest()
    if opts.scaling:
        if opts.baseline or opts.fresh:
            parser.error("--scaling takes no --baseline/--fresh")
        return mainScaling(opts.scaling)
    if not (opts.baseline and opts.fresh):
        parser.error("--baseline and --fresh are required")
    return compareFiles(opts.baseline, opts.fresh, opts.tolerance,
                        opts.format, opts.allow_missing_baseline)


if __name__ == "__main__":
    sys.exit(main())
