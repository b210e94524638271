#!/usr/bin/env python3
"""sieve-lint: project-specific invariant linter for SieveStore.

The repo's cost-performance claims lean on conventions no general
linter knows about; this tool makes them machine-checked:

  mem-charge        A class that defines memoryBytes() must charge
                    every container member in its implementation (the
                    member's name must appear in the body), or carry a
                    `// sieve-lint: charged(<why>)` directive on the
                    member. Uncharged containers silently understate
                    the footprint numbers the paper tables report.
  ghost-charge      A class embedding ghost state (cache::GhostCache
                    or util::CountMinSketch) must charge it by name in
                    a footprint audit (memoryBytes() or the policy
                    convention's metastateBytes()) — even when the
                    class audits nothing else. Ghost directories are
                    whole data structures reserved to their budget at
                    construction; an unaudited one silently understates
                    the policy fabric's metastate cost, exactly the
                    number the paper's DRAM-budget argument leans on.
  invariants        Audit-listed classes (the ones the contract layer
                    depends on) must declare checkInvariants().
  unordered-report  Iterating a std::unordered_* container must not
                    feed report output: iteration order is
                    implementation-defined, so emitted rows would not
                    be reproducible. Sort first (see sortedByCount).
  wall-clock        No wall-clock reads or nondeterministic seeding
                    (system_clock, random_device, rand) outside
                    util/random: every experiment must replay from a
                    seed. steady_clock is allowed in bench/ and
                    examples/ where wall-time is the measurement.
  batch-guard       Batched hot-path entry points (processBatch,
                    nextBatch definitions under src/) must arm
                    SIEVE_ASSERT_NO_ALLOC (or the _WHEN form) over
                    their body — the batch refactor's whole point is
                    amortizing per-request costs, so an allocating
                    batch loop silently regresses the replay numbers.
                    Readers that legitimately allocate (line-parsing
                    decoders) annotate with
                    // sieve-lint: allow(batch-guard).
  raw-prefetch      __builtin_prefetch outside src/util/ is banned:
                    util::prefetchRead (util/prefetch.hpp) is the one
                    sanctioned prefetch site, so every software
                    prefetch stays greppable, carries the agreed
                    locality hint, and compiles away uniformly on
                    targets without the builtin.
  raw-io            Raw device I/O (open/creat/pread/pwrite/readv/
                    writev/fsync/io_uring_* calls, and unistd-style
                    3+-argument read()/write()) outside src/storage/
                    is banned: the storage layer is the one audited
                    syscall surface, so every device access flows
                    through storage::Backend where it is counted,
                    fault-injectable, and alignment-checked.
  env-knob          Every getenv() under src/ must carry
                    `// sieve-lint: allow(env-knob) <reason>`: an
                    environment toggle silently forks what a run
                    measures, so each one is a reviewed waiver that
                    says why a user needs it. A waiver with no reason
                    is itself a finding, and unused-allow catches a
                    waiver whose getenv is gone.

Suppressions:
  // sieve-lint: charged(<reason>)   on or above a member declaration
  // sieve-lint: allow(<rule>)       on any flagged line

Backends: the default 'text' backend has no dependencies and parses
C++ structurally (comment stripping + brace matching). The 'clang'
backend resolves members through libclang (python3-clang) for the
mem-charge rule; 'auto' tries clang and falls back to text. Rules
other than mem-charge are textual in every backend.

Exit status: 0 if clean, 1 if any finding (or a failed --self-test).
"""

import argparse
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCAN_DIRS = ("src", "bench", "examples", "tests")
FIXTURE_DIR = os.path.join("scripts", "lint_fixtures")

RULES = ("mem-charge", "ghost-charge", "invariants",
         "unordered-report", "wall-clock", "batch-guard",
         "raw-prefetch", "raw-io", "env-knob")

# Classes the runtime contract layer audits; each must expose a
# checkInvariants() hook (any signature).
AUDIT_CLASSES = (
    "AccessCounter",
    "Appliance",
    "BlockCache",
    "CountMinSketch",
    "FileBackend",
    "FlatIndex",
    "FlatSieve",
    "GhostCache",
    "Imct",
    "IndexList",
    "Mct",
    "ShardedResult",
    "SieveStoreCPolicy",
    "WindowedCounter",
)

CONTAINER_RE = re.compile(
    r"\b(?:std::(?:vector|list|deque|map|set|multimap|multiset|"
    r"unordered_map|unordered_set|unordered_multimap|"
    r"unordered_multiset|string|basic_string)|FlatIndex|IndexList)\b")

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<")

CHARGED_RE = re.compile(r"//\s*sieve-lint:\s*charged\(")
ALLOW_RE = re.compile(r"//\s*sieve-lint:\s*allow\(([\w-]+)\)")
EXPECT_RE = re.compile(r"//\s*lint-expect:\s*([\w-]+)")

WALL_CLOCK_RE = re.compile(
    r"std::chrono::(?:system_clock|high_resolution_clock)"
    r"|std::random_device"
    r"|\bsrand\s*\("
    r"|\brand\s*\(\s*\)"
    r"|\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)")
STEADY_CLOCK_RE = re.compile(r"std::chrono::steady_clock")

OUTPUT_RE = re.compile(
    r"<<|\bprintf\s*\(|\bfprintf\s*\(|\bfputs\s*\(|\baddRow\b"
    r"|\bwriteCsv\b")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def writeSarif(out_path, tool_name, rules, findings):
    """Minimal SARIF 2.1.0 log (shared with sieve_analyze.py), the
    format github/codeql-action/upload-sarif ingests so findings
    annotate PRs inline. `findings` is (path, line, rule, message)
    tuples; paths are repo-relative and line numbers 1-based."""
    import json
    results = []
    for (path, line, rule, message) in findings:
        results.append({
            "ruleId": rule,
            "level": "error",
            "message": {"text": message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": path.replace(os.sep, "/"),
                        "uriBaseId": "%SRCROOT%",
                    },
                    "region": {"startLine": max(1, int(line))},
                },
            }],
        })
    log = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": tool_name,
                    "informationUri":
                        "https://github.com/sievestore/sievestore",
                    "rules": [{"id": r} for r in rules],
                },
            },
            "results": results,
        }],
    }
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(log, f, indent=2, sort_keys=True)
        f.write("\n")


class SourceFile:
    """One parsed C++ file: raw lines, directives, stripped text."""

    def __init__(self, relpath, text):
        self.relpath = relpath
        self.lines = text.splitlines()
        # line number (1-based) -> set of allowed rules / charged flag
        self.allow = {}
        self.used_allows = set()  # (directive line, rule) that fired
        self._line_offsets = None
        self.charged = set()
        self.expect = []
        for i, line in enumerate(self.lines, start=1):
            for m in ALLOW_RE.finditer(line):
                self.allow.setdefault(i, set()).add(m.group(1))
            if CHARGED_RE.search(line):
                self.charged.add(i)
            for m in EXPECT_RE.finditer(line):
                self.expect.append(m.group(1))
        self.text = stripCommentsAndStrings(text)

    def lineOf(self, offset):
        """1-based line number of a character offset in the text."""
        return self.text.count("\n", 0, offset) + 1

    def allowed(self, line, rule, last_line=None):
        """Directive anywhere on the flagged statement's span
        [line, last_line] or on the line above it. Matches are
        recorded so stale directives can be reported afterwards."""
        last = last_line if last_line is not None else line
        found = False
        for l in range(line - 1, last + 1):
            if rule in self.allow.get(l, set()):
                self.used_allows.add((l, rule))
                found = True
        return found

    def statementEnd(self, line):
        """1-based line of the `;` terminating the statement that
        starts on `line` (the same line when none follows)."""
        if self._line_offsets is None:
            offs = [0]
            for ln in self.text.splitlines(keepends=True):
                offs.append(offs[-1] + len(ln))
            self._line_offsets = offs
        idx = min(line - 1, len(self._line_offsets) - 1)
        semi = self.text.find(";", self._line_offsets[idx])
        return self.lineOf(semi) if semi != -1 else line

    def chargedNear(self, first_line, last_line):
        """charged() directive within the member's lines or above."""
        return any(line in self.charged
                   for line in range(first_line - 1, last_line + 1))


def stripCommentsAndStrings(text):
    """Blank out comments and literal contents, preserving newlines
    and string/char delimiters so offsets and brace structure hold."""
    out = []
    i, n = 0, len(text)
    mode = None  # None | 'line' | 'block' | '"' | "'"
    while i < n:
        c = text[i]
        if mode is None:
            if c == "/" and i + 1 < n and text[i + 1] == "/":
                mode = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and i + 1 < n and text[i + 1] == "*":
                mode = "block"
                out.append("  ")
                i += 2
                continue
            if c in "\"'":
                mode = c
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif mode == "line":
            if c == "\n":
                mode = None
                out.append(c)
            else:
                out.append(" ")
        elif mode == "block":
            if c == "*" and i + 1 < n and text[i + 1] == "/":
                mode = None
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        else:  # inside a string or char literal
            if c == "\\" and i + 1 < n:
                out.append("  ")
                i += 2
                continue
            if c == mode:
                mode = None
                out.append(c)
            elif c == "\n":  # unterminated; bail to code mode
                mode = None
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def matchBrace(text, open_pos):
    """Offset just past the brace matching text[open_pos] == '{'."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


CLASS_HEAD_RE = re.compile(
    r"\b(?:class|struct)\s+([A-Za-z_]\w*)\s*(?:final\s*)?"
    r"(?::[^{;]*)?\{")


class ClassInfo:
    def __init__(self, name, body_start, body_end):
        self.name = name
        self.body_start = body_start  # offset just past '{'
        self.body_end = body_end      # offset of matching '}'
        self.members = []             # (name, stmt_first, stmt_last)
        self.inline_memory_bytes = None
        self.declares_memory_bytes = False
        self.has_check_invariants = False


def topLevelStatements(text, start, end):
    """Yield (stmt_text, stmt_start, stmt_end) for depth-0 statements
    of a class body, skipping nested braces (methods, nested types).
    Brace-terminated constructs yield their pre-brace head once."""
    stmt_start = start
    depth = 0
    i = start
    while i < end:
        c = text[i]
        if c == "{":
            if depth == 0:
                yield (text[stmt_start:i], stmt_start, i)
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                stmt_start = i + 1
        elif c == ";" and depth == 0:
            yield (text[stmt_start:i], stmt_start, i)
            stmt_start = i + 1
        i += 1


MEMBER_SKIP_RE = re.compile(
    r"^\s*(?:public|private|protected)\s*:|^\s*(?:using|typedef|"
    r"friend|template|static)\b")


def parseClasses(src):
    """All class/struct definitions in a SourceFile, with container
    members and memoryBytes/checkInvariants info."""
    classes = []
    for m in CLASS_HEAD_RE.finditer(src.text):
        open_pos = m.end() - 1
        body_end = matchBrace(src.text, open_pos) - 1
        info = ClassInfo(m.group(1), open_pos + 1, body_end)
        body = src.text[info.body_start:info.body_end]
        info.has_check_invariants = "checkInvariants" in body
        for stmt, s_start, s_end in topLevelStatements(
                src.text, info.body_start, info.body_end):
            if "memoryBytes" in stmt and "(" in stmt:
                info.declares_memory_bytes = True
                if s_end < len(src.text) and src.text[s_end] == "{":
                    close = matchBrace(src.text, s_end)
                    info.inline_memory_bytes = (
                        (info.inline_memory_bytes or "") +
                        src.text[s_end:close])
                continue
            if MEMBER_SKIP_RE.search(stmt):
                continue
            if "(" in stmt:
                continue
            # Type-test only the declarator, not the initializer
            # (uint32_t hand = IndexList::kNull is not a container).
            decl = re.sub(r"(=|\{).*$", "", stmt, flags=re.S)
            if not CONTAINER_RE.search(decl):
                continue
            names = re.findall(r"[A-Za-z_]\w*", decl)
            if not names:
                continue
            info.members.append((names[-1], src.lineOf(s_start),
                                 src.lineOf(s_end)))
        classes.append(info)
    return classes


OUT_OF_LINE_MB_RE = re.compile(
    r"([A-Za-z_]\w*)\s*(?:<[^;{}]*>)?\s*::\s*memoryBytes\s*"
    r"\([^)]*\)\s*const\s*(?:override\s*)?\{")


def collectMemoryBytesBodies(sources):
    """class name -> concatenated memoryBytes() bodies (inline and
    out-of-line definitions across all scanned files)."""
    bodies = {}
    for src in sources:
        for m in OUT_OF_LINE_MB_RE.finditer(src.text):
            open_pos = m.end() - 1
            close = matchBrace(src.text, open_pos)
            body = src.text[open_pos:close]
            bodies[m.group(1)] = bodies.get(m.group(1), "") + body
    return bodies


def checkMemCharge(sources, findings, backend_note):
    all_classes = []
    for src in sources:
        for info in parseClasses(src):
            all_classes.append((src, info))
    out_of_line = collectMemoryBytesBodies(sources)
    for src, info in all_classes:
        if not info.members:
            continue
        body = info.inline_memory_bytes or ""
        if info.name in out_of_line:
            body += out_of_line[info.name]
        if not body:
            # No implementation found: either the class has no
            # memoryBytes at all (out of scope) or only a pure/
            # unimplemented declaration (nothing to audit yet).
            continue
        for name, first, last in info.members:
            if re.search(r"\b%s\b" % re.escape(name), body):
                continue
            if src.chargedNear(first, last):
                continue
            findings.append(Finding(
                src.relpath, first, "mem-charge",
                f"{info.name}::{name} is a container member but "
                f"{info.name}::memoryBytes() never charges it; add "
                f"it to the footprint or annotate with "
                f"// sieve-lint: charged(<why>){backend_note}"))


# Ghost-state types whose footprint must always be audited. Unlike
# the generic containers of mem-charge, embedding one of these is an
# unconditional obligation: the holding class must charge it even when
# it audits nothing else (or say why not via charged()).
GHOST_TYPE_RE = re.compile(
    r"\b(?:cache\s*::\s*)?GhostCache\b"
    r"|\b(?:util\s*::\s*)?CountMinSketch\b")

# Out-of-line footprint audits: memoryBytes() everywhere, plus the
# AllocationPolicy convention's metastateBytes() (the adaptive sieve
# charges its shadow ghosts there).
OUT_OF_LINE_AUDIT_RE = re.compile(
    r"([A-Za-z_]\w*)\s*(?:<[^;{}]*>)?\s*::\s*"
    r"(?:memoryBytes|metastateBytes)\s*"
    r"\([^)]*\)\s*const\s*(?:override\s*)?\{")

AUDIT_METHOD_RE = re.compile(r"\b(?:memoryBytes|metastateBytes)\b")


def checkGhostCharge(sources, findings):
    """Every GhostCache/CountMinSketch member must appear by name in
    its class's memoryBytes()/metastateBytes() body (gathered inline
    and out-of-line across the scanned files), or carry a charged()
    directive naming the audit that sums it from outside."""
    audit_bodies = {}
    ghost_members = []  # (src, class, member, first_line, last_line)
    for src in sources:
        for m in CLASS_HEAD_RE.finditer(src.text):
            open_pos = m.end() - 1
            body_end = matchBrace(src.text, open_pos) - 1
            cls = m.group(1)
            for stmt, s_start, s_end in topLevelStatements(
                    src.text, open_pos + 1, body_end):
                if AUDIT_METHOD_RE.search(stmt) and "(" in stmt:
                    if s_end < len(src.text) and \
                            src.text[s_end] == "{":
                        close = matchBrace(src.text, s_end)
                        audit_bodies[cls] = (
                            audit_bodies.get(cls, "") +
                            src.text[s_end:close])
                    continue
                if MEMBER_SKIP_RE.search(stmt) or "(" in stmt:
                    continue
                decl = re.sub(r"(=|\{).*$", "", stmt, flags=re.S)
                if not GHOST_TYPE_RE.search(decl):
                    continue
                names = re.findall(r"[A-Za-z_]\w*", decl)
                if not names:
                    continue
                ghost_members.append((src, cls, names[-1],
                                      src.lineOf(s_start),
                                      src.lineOf(s_end)))
        for m in OUT_OF_LINE_AUDIT_RE.finditer(src.text):
            open_pos = m.end() - 1
            close = matchBrace(src.text, open_pos)
            audit_bodies[m.group(1)] = (
                audit_bodies.get(m.group(1), "") +
                src.text[open_pos:close])
    for src, cls, name, first, last in ghost_members:
        body = audit_bodies.get(cls)
        if body and re.search(r"\b%s\b" % re.escape(name), body):
            continue
        if src.chargedNear(first, last):
            continue
        if body:
            detail = (f"{cls}'s footprint audit never charges it by "
                      f"name")
        else:
            detail = (f"{cls} defines no memoryBytes()/"
                      f"metastateBytes() to charge it in")
        findings.append(Finding(
            src.relpath, first, "ghost-charge",
            f"{cls}::{name} embeds ghost/sketch state but {detail}; "
            f"add it to the footprint or annotate with "
            f"// sieve-lint: charged(<which audit sums it>)"))


def checkInvariantsRule(sources, findings, check_missing):
    found = {}
    for src in sources:
        for info in parseClasses(src):
            if info.name in AUDIT_CLASSES:
                line = src.lineOf(info.body_start)
                prev = found.get(info.name)
                ok = info.has_check_invariants
                if prev is None or (ok and not prev[2]):
                    found[info.name] = (src.relpath, line, ok)
    for name in AUDIT_CLASSES:
        if name not in found:
            if check_missing:
                findings.append(Finding(
                    "<audit-list>", 0, "invariants",
                    f"audit-listed class {name} not found in the "
                    f"tree; update AUDIT_CLASSES in sieve_lint.py"))
            continue
        relpath, line, ok = found[name]
        if not ok:
            findings.append(Finding(
                relpath, line, "invariants",
                f"{name} is on the invariant audit list but does "
                f"not declare checkInvariants()"))


def unorderedNames(src):
    """Identifiers declared (anywhere in the file) with an unordered
    container type, plus aliases of unordered types."""
    names = set()
    aliases = set()
    for m in re.finditer(
            r"\busing\s+([A-Za-z_]\w*)\s*=\s*[^;]*unordered_",
            src.text):
        aliases.add(m.group(1))
    decl_re = re.compile(
        r"\bunordered_(?:map|set|multimap|multiset)\s*<")
    for m in decl_re.finditer(src.text):
        # Find the matching '>' then the declared identifier.
        i = m.end() - 1
        depth = 0
        while i < len(src.text):
            if src.text[i] == "<":
                depth += 1
            elif src.text[i] == ">":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        tail = src.text[i + 1:i + 120]
        dm = re.match(r"\s*&?\s*([A-Za-z_]\w*)\s*[;={,)]", tail)
        if dm:
            names.add(dm.group(1))
    for alias in aliases:
        for m in re.finditer(
                r"\b%s\b\s*&?\s*([A-Za-z_]\w*)\s*[;={,)]"
                % re.escape(alias), src.text):
            names.add(m.group(1))
    return names


FOR_RANGE_RE = re.compile(r"\bfor\s*\(")


def checkUnorderedReport(src, findings):
    names = unorderedNames(src)
    if not names:
        return
    for m in FOR_RANGE_RE.finditer(src.text):
        # Find the range-for ':' and closing ')' of the head.
        i = m.end() - 1
        depth = 0
        colon = -1
        while i < len(src.text):
            c = src.text[i]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0:
                    break
            elif c == ":" and depth == 1 and \
                    src.text[i + 1:i + 2] != ":" and \
                    src.text[i - 1:i] != ":":
                colon = i
            i += 1
        if colon < 0 or i >= len(src.text):
            continue
        target = src.text[colon + 1:i].strip()
        ids = re.findall(r"[A-Za-z_]\w*", target)
        if not ids or ids[0] not in names:
            continue
        # Body: brace block or single statement after the head.
        j = i + 1
        while j < len(src.text) and src.text[j].isspace():
            j += 1
        if j < len(src.text) and src.text[j] == "{":
            body = src.text[j:matchBrace(src.text, j)]
        else:
            body = src.text[j:src.text.find(";", j) + 1]
        if not OUTPUT_RE.search(body):
            continue
        # gtest assertion streams are failure diagnostics, not
        # report rows; order-independent assertions are fine.
        if re.search(r"\b(?:EXPECT|ASSERT)_\w+\s*\(", body):
            continue
        line = src.lineOf(m.start())
        if src.allowed(line, "unordered-report",
                       src.lineOf(j + len(body))):
            continue
        findings.append(Finding(
            src.relpath, line, "unordered-report",
            f"iteration over std::unordered_* '{ids[0]}' feeds "
            f"report output; the row order is nondeterministic — "
            f"sort first (e.g. sortedByCount) or collect-then-sort"))


def checkWallClock(src, findings):
    top = src.relpath.split(os.sep)[0]
    in_bench = top in ("bench", "examples")
    if src.relpath.startswith(os.path.join("src", "util", "random")):
        return
    for i, line in enumerate(src.text.splitlines(), start=1):
        hit = WALL_CLOCK_RE.search(line)
        kind = None
        if hit:
            kind = hit.group(0)
        elif not in_bench and STEADY_CLOCK_RE.search(line):
            kind = "std::chrono::steady_clock"
        if kind is None:
            continue
        if src.allowed(i, "wall-clock", src.statementEnd(i)):
            continue
        findings.append(Finding(
            src.relpath, i, "wall-clock",
            f"{kind.strip()} breaks seeded reproducibility; use "
            f"util::Rng / util::TimeUs (steady_clock is allowed "
            f"only under bench/ and examples/)"))


RAW_PREFETCH_RE = re.compile(r"\b__builtin_prefetch\s*\(")


def checkRawPrefetch(src, findings):
    """Ban raw __builtin_prefetch outside src/util/: the sanctioned
    wrapper is util::prefetchRead (util/prefetch.hpp)."""
    if src.relpath.startswith(os.path.join("src", "util") + os.sep):
        return
    for i, line in enumerate(src.text.splitlines(), start=1):
        if not RAW_PREFETCH_RE.search(line):
            continue
        if src.allowed(i, "raw-prefetch", src.statementEnd(i)):
            continue
        findings.append(Finding(
            src.relpath, i, "raw-prefetch",
            "raw __builtin_prefetch outside src/util/; call "
            "util::prefetchRead (util/prefetch.hpp) so prefetch "
            "sites stay greppable and carry the agreed locality "
            "hint"))


# Names that are raw device I/O whenever they appear as a call (no
# common C++ method shares them). The lookbehind drops member calls
# (.open), qualified names (Foo::open, ->open) and longer identifiers.
RAW_IO_ALWAYS_RE = re.compile(
    r"(?<![\w.:>])"
    r"(?:open|openat|creat|pread|pwrite|pread64|pwrite64|preadv|"
    r"pwritev|readv|writev|fsync|fdatasync|io_uring_\w+)\s*\(")
# Explicitly global-qualified forms are raw I/O by construction.
RAW_IO_GLOBAL_RE = re.compile(
    r"(?<![\w>])::\s*(?:read|write|pread|pwrite)\s*\(")
# Bare read()/write() are common method names (TraceReader::write and
# friends); only the unistd-style 3+-argument calls are findings.
RAW_IO_RW_RE = re.compile(r"(?<![\w.:>])(?:read|write)\s*\(")


def checkRawIo(src, findings):
    """Quarantine raw device I/O in src/storage/: everywhere else the
    syscall surface is storage::Backend, where ops are counted,
    fault-injectable, and alignment-checked."""
    if src.relpath.startswith(os.path.join("src", "storage") + os.sep):
        return

    def flag(pos, name):
        line = src.lineOf(pos)
        if src.allowed(line, "raw-io", src.statementEnd(line)):
            return
        findings.append(Finding(
            src.relpath, line, "raw-io",
            f"raw I/O call {name}() outside src/storage/; device "
            f"access goes through storage::Backend so the one "
            f"syscall surface stays audited and fault-injectable"))

    for m in RAW_IO_ALWAYS_RE.finditer(src.text):
        flag(m.start(), m.group(0).split("(")[0].strip())
    for m in RAW_IO_GLOBAL_RE.finditer(src.text):
        flag(m.start(), m.group(0).split("(")[0].strip())
    for m in RAW_IO_RW_RE.finditer(src.text):
        open_paren = src.text.index("(", m.start())
        depth, commas, i = 0, 0, open_paren
        while i < len(src.text):
            c = src.text[i]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0:
                    break
            elif c == "," and depth == 1:
                commas += 1
            elif c == ";" and depth == 0:
                break
            i += 1
        if commas >= 2:
            flag(m.start(), m.group(0).split("(")[0].strip())


ENV_KNOB_RE = re.compile(r"\b(?:secure_)?getenv\s*\(")
ENV_KNOB_REASON_RE = re.compile(r"allow\(env-knob\)\W*(\w.*)?$")


def checkEnvKnob(src, findings):
    """Every environment read under src/ is a reviewed waiver that
    names its reason (scripts/ holds the rule's fixture)."""
    if src.relpath.split(os.sep)[0] not in ("src", "scripts"):
        return
    for i, line in enumerate(src.text.splitlines(), start=1):
        if not ENV_KNOB_RE.search(line):
            continue
        last = src.statementEnd(i)
        if not src.allowed(i, "env-knob", last):
            findings.append(Finding(
                src.relpath, i, "env-knob",
                "getenv() under src/ adds an environment toggle; "
                "annotate it with // sieve-lint: allow(env-knob) "
                "<why a user needs it>"))
            continue
        reasons = [ENV_KNOB_REASON_RE.search(src.lines[l - 1])
                   for l in range(max(i - 1, 1), last + 1)]
        if not any(m and m.group(1) for m in reasons):
            findings.append(Finding(
                src.relpath, i, "env-knob",
                "allow(env-knob) waiver gives no reason; say why a "
                "user needs this toggle"))


BATCH_ENTRY_RE = re.compile(
    r"\b(?:[A-Za-z_]\w*\s*::\s*)?(processBatch|nextBatch)\s*\(")


def checkBatchGuard(src, findings):
    top = src.relpath.split(os.sep)[0]
    if top not in ("src", "scripts"):
        return
    for m in BATCH_ENTRY_RE.finditer(src.text):
        # Closing paren of the parameter list.
        i = src.text.index("(", m.start())
        depth = 0
        while i < len(src.text):
            if src.text[i] == "(":
                depth += 1
            elif src.text[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        if i >= len(src.text):
            continue
        # A definition continues with optional qualifiers then '{';
        # declarations (';') and calls are not in scope.
        tail = src.text[i + 1:i + 120]
        tm = re.match(
            r"\s*(?:const\s*)?(?:noexcept\s*)?(?:override\s*)?"
            r"(?:final\s*)?\{", tail)
        if not tm:
            continue
        open_pos = i + 1 + tm.end() - 1
        close = matchBrace(src.text, open_pos)
        if "SIEVE_ASSERT_NO_ALLOC" in src.text[open_pos:close]:
            continue
        line = src.lineOf(m.start())
        body_last = src.lineOf(close)
        if src.allowed(line, "batch-guard", body_last):
            continue
        findings.append(Finding(
            src.relpath, line, "batch-guard",
            f"batched hot-path entry point {m.group(1)}() does not "
            f"arm SIEVE_ASSERT_NO_ALLOC over its body; guard the "
            f"batch loop (the _WHEN form counts) or annotate with "
            f"// sieve-lint: allow(batch-guard)"))


def collectCppFiles(root, dirs):
    out = []
    for d in dirs:
        base = os.path.join(root, d)
        if not os.path.isdir(base):
            continue
        for dirpath, _, files in os.walk(base):
            for name in sorted(files):
                if os.path.splitext(name)[1] in (".hpp", ".cpp"):
                    full = os.path.join(dirpath, name)
                    out.append(os.path.relpath(full, root))
    return sorted(out)


def loadSources(root, relpaths):
    sources = []
    for rel in relpaths:
        with open(os.path.join(root, rel),
                  encoding="utf-8", errors="replace") as f:
            sources.append(SourceFile(rel, f.read()))
    return sources


def tryClangMemCharge(root, sources, findings):
    """libclang-backed mem-charge: resolve fields and memoryBytes()
    definitions through the AST. Returns True when it ran."""
    try:
        import clang.cindex as ci
        index = ci.Index.create()
    except Exception:
        return False
    args = ["-x", "c++", "-std=c++17",
            "-I", os.path.join(root, "src"),
            "-I", os.path.join(root, "tests")]
    by_path = {os.path.join(root, s.relpath): s for s in sources}
    field_kinds = (ci.CursorKind.CLASS_DECL, ci.CursorKind.STRUCT_DECL,
                   ci.CursorKind.CLASS_TEMPLATE)

    def classCursors(cursor, out):
        for child in cursor.get_children():
            if child.kind in field_kinds and child.is_definition():
                out.append(child)
            if child.kind in (ci.CursorKind.NAMESPACE,
                              *field_kinds):
                classCursors(child, out)

    mb_bodies = {}  # class usr -> token spellings of definitions
    class_fields = {}  # class usr -> (name, [(field, file, line)])
    for path, src in sorted(by_path.items()):
        if not path.endswith(".hpp") and not path.endswith(".cpp"):
            continue
        try:
            tu = index.parse(path, args=args)
        except Exception:
            return False
        classes = []
        classCursors(tu.cursor, classes)
        for cls in classes:
            usr = cls.get_usr()
            fields = class_fields.setdefault(
                usr, (cls.spelling, []))[1]
            for child in cls.get_children():
                if child.kind != ci.CursorKind.FIELD_DECL:
                    continue
                if not CONTAINER_RE.search(child.type.spelling):
                    continue
                loc = child.location
                if loc.file and os.path.abspath(
                        loc.file.name) == path:
                    fields.append((child.spelling, path, loc.line))

        def methodDefs(cursor):
            for child in cursor.get_children():
                if (child.kind == ci.CursorKind.CXX_METHOD and
                        child.spelling == "memoryBytes" and
                        child.is_definition()):
                    parent = child.semantic_parent
                    tokens = " ".join(
                        t.spelling for t in child.get_tokens())
                    usr2 = parent.get_usr()
                    mb_bodies[usr2] = \
                        mb_bodies.get(usr2, "") + " " + tokens
                if child.kind in (ci.CursorKind.NAMESPACE,
                                  *field_kinds):
                    methodDefs(child)

        methodDefs(tu.cursor)

    for usr, (cls_name, fields) in class_fields.items():
        body = mb_bodies.get(usr)
        if not body:
            continue
        seen = set()
        for field, path, line in fields:
            if (field, line) in seen:
                continue
            seen.add((field, line))
            if re.search(r"\b%s\b" % re.escape(field), body):
                continue
            src = by_path.get(path)
            if src and src.chargedNear(line, line):
                continue
            rel = os.path.relpath(path, root)
            findings.append(Finding(
                rel, line, "mem-charge",
                f"{cls_name}::{field} is a container member but "
                f"{cls_name}::memoryBytes() never charges it; add "
                f"it to the footprint or annotate with "
                f"// sieve-lint: charged(<why>) [clang]"))
    return True


def checkUnusedAllows(src, findings):
    """Flag `// sieve-lint: allow(rule)` directives no finding
    consumed. Runs after every other rule so used_allows is final."""
    for line in sorted(src.allow):
        for rule in sorted(src.allow[line]):
            if (line, rule) in src.used_allows:
                continue
            findings.append(Finding(
                src.relpath, line, "unused-allow",
                f"allow({rule}) suppresses nothing — remove the "
                f"stale directive"))


def runLint(root, relpaths, backend, check_missing):
    sources = loadSources(root, relpaths)
    findings = []
    used_clang = False
    if backend in ("clang", "auto"):
        used_clang = tryClangMemCharge(root, sources, findings)
        if not used_clang and backend == "clang":
            print("sieve-lint: clang backend unavailable "
                  "(python3-clang not importable)", file=sys.stderr)
            return None
    if not used_clang:
        checkMemCharge(sources, findings, "")
    checkGhostCharge(sources, findings)
    checkInvariantsRule(sources, findings, check_missing)
    for src in sources:
        checkUnorderedReport(src, findings)
        checkWallClock(src, findings)
        checkBatchGuard(src, findings)
        checkRawPrefetch(src, findings)
        checkRawIo(src, findings)
        checkEnvKnob(src, findings)
    # After every rule has run: a directive that suppressed nothing
    # is stale and must be removed, not left to mask future findings.
    for src in sources:
        checkUnusedAllows(src, findings)
    return findings


def selfTest(root, backend):
    fixtures = os.path.join(root, FIXTURE_DIR)
    # The analyze/ subtree holds sieve_analyze.py's fixtures; those
    # intentionally violate *that* tool's rules, not this one's.
    analyze_dir = os.path.join(FIXTURE_DIR, "analyze") + os.sep
    relpaths = [r for r in collectCppFiles(root, (FIXTURE_DIR,))
                if not r.startswith(analyze_dir)]
    if not relpaths:
        print(f"sieve-lint: no fixtures under {fixtures}",
              file=sys.stderr)
        return 1
    sources = loadSources(root, relpaths)
    expected = []
    for src in sources:
        for rule in src.expect:
            expected.append((src.relpath, rule))
    findings = runLint(root, relpaths, backend, check_missing=False)
    if findings is None:
        return 1
    got = [(f.path, f.rule) for f in findings]
    ok = sorted(expected) == sorted(got)
    if not ok:
        print("sieve-lint self-test FAILED", file=sys.stderr)
        print(f"  expected: {sorted(expected)}", file=sys.stderr)
        print(f"  got:      {sorted(got)}", file=sys.stderr)
        for f in findings:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"sieve-lint self-test OK ({len(relpaths)} fixtures, "
          f"{len(expected)} expected findings reproduced)")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="SieveStore project-invariant linter")
    parser.add_argument("--root", default=REPO,
                        help="repository root (default: inferred)")
    parser.add_argument("--backend",
                        choices=("text", "clang", "auto"),
                        default="text",
                        help="mem-charge resolution backend")
    parser.add_argument("--sarif", default=None, metavar="OUT",
                        help="also write findings as SARIF 2.1.0")
    parser.add_argument("--self-test", action="store_true",
                        help="run against scripts/lint_fixtures/")
    parser.add_argument("paths", nargs="*",
                        help="files to lint (default: whole tree)")
    opts = parser.parse_args()

    if opts.self_test:
        return selfTest(opts.root, opts.backend)

    if opts.paths:
        relpaths = [os.path.relpath(os.path.abspath(p), opts.root)
                    for p in opts.paths]
        check_missing = False
    else:
        relpaths = collectCppFiles(opts.root, SCAN_DIRS)
        check_missing = os.path.isdir(os.path.join(opts.root, "src"))

    findings = runLint(opts.root, relpaths, opts.backend,
                       check_missing)
    if findings is None:
        return 1
    if opts.sarif:
        writeSarif(opts.sarif, "sieve-lint", RULES,
                   [(f.path, f.line, f.rule, f.message)
                    for f in findings])
    for f in sorted(findings, key=lambda f: (f.path, f.line)):
        print(f)
    if findings:
        print(f"sieve-lint: {len(findings)} finding(s) in "
              f"{len(relpaths)} files", file=sys.stderr)
        return 1
    print(f"sieve-lint: OK ({len(relpaths)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
