#!/usr/bin/env python3
"""Repo-specific style checks that clang-tidy does not cover.

Run from anywhere; operates on the repository containing this script.

Checks:
  1. Header guards: every .hpp under src/, bench/, examples/ uses
     #ifndef SIEVESTORE_<PATH>_HPP / matching #define, and the final
     #endif carries a `// SIEVESTORE_<PATH>_HPP` comment.
  2. Include hygiene: project headers are included with quotes
     ("util/check.hpp"), system/library headers with angle brackets.
     A project header is one under a project include root, or, as in
     C++'s own lookup for quoted names, a file in the including
     file's directory ("span_trace.hpp" beside bench/e2e/bench_e2e.cpp).
  3. Banned constructs: raw assert() is forbidden in src/, bench/,
     examples/ — use SIEVE_CHECK / SIEVE_DCHECK (util/check.hpp) so
     contracts stay on in Release and print formatted context.

Usage: check_style.py [--self-test]

--self-test checks the include rule against a scratch tree instead of
the repository.

Exit status: 0 if clean, 1 if any violation was found.
"""

import os
import re
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_DIRS = ("src", "bench", "examples")
TEST_DIRS = ("tests",)

# Project include roots: anything includable with quotes.
PROJECT_PREFIXES = None  # computed from src/ top-level dirs + bench/


def projectPrefixes():
    prefixes = set()
    src = os.path.join(REPO, "src")
    for name in os.listdir(src):
        if os.path.isdir(os.path.join(src, name)):
            prefixes.add(name)
    prefixes.add("bench_common.hpp")
    # Test-only header trees (tests/modelcheck/...) are included as
    # "modelcheck/sched.hpp" from test sources.
    tests = os.path.join(REPO, "tests")
    if os.path.isdir(tests):
        for name in os.listdir(tests):
            if os.path.isdir(os.path.join(tests, name)):
                prefixes.add(name)
    return prefixes


def expectedGuard(relpath):
    """src/core/imct.hpp -> SIEVESTORE_CORE_IMCT_HPP; bench and
    examples headers drop the top-level directory the same way src
    does (bench/bench_common.hpp -> SIEVESTORE_BENCH_BENCH_COMMON_HPP
    keeps it, matching the existing convention)."""
    parts = relpath.split(os.sep)
    if parts[0] == "src":
        parts = parts[1:]
    stem = "_".join(parts)
    stem = re.sub(r"[^A-Za-z0-9]", "_", stem)
    return ("SIEVESTORE_" + stem).upper()


def checkHeaderGuard(relpath, lines, errors):
    guard = expectedGuard(relpath)
    ifndef_re = re.compile(r"^#ifndef\s+(\S+)")
    define_re = re.compile(r"^#define\s+(\S+)\s*$")
    ifndef = None
    for i, line in enumerate(lines):
        m = ifndef_re.match(line)
        if m:
            ifndef = (i, m.group(1))
            break
    if ifndef is None:
        errors.append(f"{relpath}: missing #ifndef header guard")
        return
    if ifndef[1] != guard:
        errors.append(
            f"{relpath}:{ifndef[0] + 1}: header guard is "
            f"{ifndef[1]}, expected {guard}")
        return
    if ifndef[0] + 1 >= len(lines):
        errors.append(f"{relpath}: #ifndef not followed by #define")
        return
    m = define_re.match(lines[ifndef[0] + 1])
    if not m or m.group(1) != guard:
        errors.append(
            f"{relpath}:{ifndef[0] + 2}: #ifndef {guard} must be "
            f"immediately followed by #define {guard}")
    # Final non-blank line must be the commented #endif.
    last = None
    for i in range(len(lines) - 1, -1, -1):
        if lines[i].strip():
            last = i
            break
    want = f"#endif // {guard}"
    if last is None or lines[last].strip() != want:
        errors.append(
            f"{relpath}:{(last or 0) + 1}: file must end with "
            f"'{want}'")


INCLUDE_RE = re.compile(r'^\s*#\s*include\s+(["<])([^">]+)[">]')


def checkIncludes(relpath, lines, prefixes, errors, root=REPO):
    here = os.path.dirname(os.path.join(root, relpath))
    for i, line in enumerate(lines):
        m = INCLUDE_RE.match(line)
        if not m:
            continue
        style, path = m.groups()
        top = path.split("/")[0]
        # A quoted name is looked up first beside the including file,
        # so a file there is a project header whatever its name.
        is_project = (top in prefixes or
                      os.path.isfile(os.path.join(here, path)))
        if is_project and style == "<":
            errors.append(
                f"{relpath}:{i + 1}: project header <{path}> must "
                f"use quotes")
        elif not is_project and style == '"':
            errors.append(
                f"{relpath}:{i + 1}: non-project header \"{path}\" "
                f"must use angle brackets")


ASSERT_RE = re.compile(r"(?<![A-Za-z0-9_])assert\s*\(")


def checkBanned(relpath, lines, errors):
    in_block_comment = False
    for i, line in enumerate(lines):
        code = line
        if in_block_comment:
            end = code.find("*/")
            if end < 0:
                continue
            code = code[end + 2:]
            in_block_comment = False
        code = re.sub(r"/\*.*?\*/", "", code)
        start = code.find("/*")
        if start >= 0:
            code = code[:start]
            in_block_comment = True
        code = code.split("//")[0]
        if "#include" in code and "assert" in code:
            errors.append(
                f"{relpath}:{i + 1}: <cassert>/<assert.h> is banned; "
                f"use util/check.hpp")
            continue
        if ASSERT_RE.search(code):
            errors.append(
                f"{relpath}:{i + 1}: raw assert() is banned; use "
                f"SIEVE_CHECK or SIEVE_DCHECK (util/check.hpp)")


def collectFiles(dirs, exts):
    out = []
    for d in dirs:
        root = os.path.join(REPO, d)
        if not os.path.isdir(root):
            continue
        for dirpath, _, names in os.walk(root):
            for name in sorted(names):
                if os.path.splitext(name)[1] in exts:
                    full = os.path.join(dirpath, name)
                    out.append(os.path.relpath(full, REPO))
    return sorted(out)


def selfTest():
    """The include rule on a scratch tree: a quoted sibling passes, a
    quoted name with no file beside the includer (such as "vector")
    fails, and a sibling in angle brackets fails."""
    cases = (
        ('#include "sibling.hpp"', True),
        ('#include "util/check.hpp"', True),
        ("#include <vector>", True),
        ('#include "vector"', False),
        ('#include "missing.hpp"', False),
        ("#include <sibling.hpp>", False),
        ("#include <util/check.hpp>", False),
    )
    failed = 0
    with tempfile.TemporaryDirectory() as root:
        os.makedirs(os.path.join(root, "pkg"))
        open(os.path.join(root, "pkg", "sibling.hpp"), "w").close()
        for line, clean in cases:
            errors = []
            checkIncludes(os.path.join("pkg", "user.cpp"), [line],
                          {"util"}, errors, root=root)
            if (not errors) != clean:
                failed += 1
                print(f"check_style self-test: {line!r} should "
                      f"{'pass' if clean else 'fail'}; got {errors}",
                      file=sys.stderr)
    if failed:
        return 1
    print(f"check_style self-test OK ({len(cases)} include cases)")
    return 0


def main():
    if sys.argv[1:] == ["--self-test"]:
        return selfTest()
    if sys.argv[1:]:
        print(__doc__, file=sys.stderr)
        return 2
    prefixes = projectPrefixes()
    errors = []
    # Test headers carry guards too (tests/modelcheck/sched.hpp ->
    # SIEVESTORE_TESTS_MODELCHECK_SCHED_HPP).
    headers = collectFiles(SOURCE_DIRS + TEST_DIRS, {".hpp"})
    sources = collectFiles(SOURCE_DIRS, {".hpp", ".cpp"})
    # Tests keep gtest idiom but still obey include hygiene + assert ban.
    test_sources = collectFiles(TEST_DIRS, {".hpp", ".cpp"})

    for rel in headers:
        lines = open(os.path.join(REPO, rel)).read().splitlines()
        checkHeaderGuard(rel, lines, errors)
    for rel in sources + test_sources:
        lines = open(os.path.join(REPO, rel)).read().splitlines()
        checkIncludes(rel, lines, prefixes, errors)
        checkBanned(rel, lines, errors)

    n_files = len(set(sources + test_sources))
    if errors:
        for e in errors:
            print(e)
        print(f"check_style: {len(errors)} violation(s) in "
              f"{n_files} files", file=sys.stderr)
        return 1
    print(f"check_style: OK ({n_files} files, "
          f"{len(headers)} header guards)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
