#!/usr/bin/env python3
"""Exit statuses of the command-line programs on help and bad input.

The contract every example and figure bench keeps:

  --help             usage on stdout, exit 0
  a bad argument     one line on stderr, exit 2
  an unreadable file a message on stderr, exit 1

None of them may abort (exit 134 is what an escaped exception gives).

Usage: cli_exit_codes.py CAPACITY_PLANNER DATACENTER_ENSEMBLE MAKE_TRACE
                         TRACE_STATS FIGURE_BENCH
"""

import subprocess
import sys
import tempfile
from pathlib import Path


def cases(planner, ensemble, make_trace, trace_stats, bench, scratch):
    missing = str(Path(scratch) / "missing" / "week.sstr")
    return [
        (planner, ["--help"], 0),
        (planner, ["abc"], 2),
        (planner, ["0.5"], 2),
        (planner, ["8192", "extra"], 2),
        (ensemble, ["--help"], 0),
        (ensemble, ["abc"], 2),
        (ensemble, ["65536", "four"], 2),
        (make_trace, ["--help"], 0),
        (make_trace, ["--scale-denominator", "abc"], 2),
        (make_trace, ["--scale-denominator", "64x"], 2),
        (make_trace, ["--seed", "-1", "--out", missing], 2),
        (make_trace, ["--out"], 2),
        (make_trace, ["--bogus"], 2),
        (make_trace, [], 2),
        (make_trace, ["--out", missing, "--scale-denominator", "1e9"], 1),
        (trace_stats, ["--help"], 0),
        (trace_stats, [], 2),
        (trace_stats, ["--msr"], 2),
        (trace_stats, [missing], 1),
        (trace_stats, ["--msr", missing], 1),
        (bench, ["--help"], 0),
        (bench, ["--scale-denominator", "abc"], 2),
        (bench, ["--scale-denominator", "inf"], 2),
        (bench, ["--scale-denominator"], 2),
        (bench, ["--seed", "12x"], 2),
        (bench, ["--batch", "0"], 2),
        (bench, ["--sieve", "lru"], 2),
        (bench, ["--bogus"], 2),
    ]


def main():
    if len(sys.argv) != 6:
        print(__doc__, file=sys.stderr)
        return 2
    failures = 0
    with tempfile.TemporaryDirectory() as scratch:
        table = cases(*sys.argv[1:], scratch)
        for program, args, want in table:
            run = subprocess.run([program] + args, capture_output=True,
                                 text=True, timeout=60, cwd=scratch)
            name = " ".join([Path(program).name] + args)
            stderr_lines = run.stderr.splitlines()
            problem = None
            if run.returncode != want:
                problem = f"exit {run.returncode}, want {want}"
            elif want == 0 and not run.stdout.strip():
                problem = "--help printed no usage on stdout"
            elif want == 2 and len(stderr_lines) != 1:
                problem = (f"{len(stderr_lines)} stderr lines, want "
                           f"one: {run.stderr!r}")
            elif want == 1 and not stderr_lines:
                problem = "no message on stderr"
            if problem:
                failures += 1
                print(f"FAIL {name}: {problem}", file=sys.stderr)
    if failures:
        print(f"cli_exit_codes: {failures} of {len(table)} cases "
              f"failed", file=sys.stderr)
        return 1
    print(f"cli_exit_codes: OK ({len(table)} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
