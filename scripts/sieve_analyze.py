#!/usr/bin/env python3
"""sieve-analyze: call-graph static analyzer for SieveStore hot paths.

sieve-lint (scripts/sieve_lint.py) checks conventions line by line;
this tool checks *reachability* claims that need a call graph. It
parses every C++ file under src/, extracts function definitions and
their call sites, and proves three project claims statically:

  no-alloc         Every function transitively reachable from a
                   no-alloc root is allocation-free. Roots are (a) the
                   dynamic extent of every armed SIEVE_ASSERT_NO_ALLOC
                   / _WHEN region (util/alloc_guard.hpp) — from the
                   guard statement to the end of its enclosing brace
                   scope — and (b) functions annotated SIEVE_NOALLOC
                   (util/check.hpp). Allocation is `new`, an allocating
                   libc/C++ primitive (malloc, make_unique, ...), or a
                   growing container method (push_back, resize, ...).
                   Traversal stops, and the stop is *reported*, at
                   functions annotated SIEVE_MAY_ALLOC and at functions
                   that construct util::AllocGuardDisarm — the runtime
                   guard is disarmed over their dynamic extent, so the
                   static claim delegates to the reviewed escape hatch.
  determinism      The same roots must not reach a nondeterminism
                   primitive (rand/srand, std::random_device, wall
                   clocks, time(NULL)). sieve-lint already bans these
                   per line across the whole tree; the graph version
                   closes the "hot region calls a helper whose ban was
                   suppressed" hole and attributes each hit to the
                   hot-path root that reaches it.
  lock-discipline  Members annotated GUARDED_BY(cap) (via
                   util/thread_annotations.hpp) may be touched only by
                   functions that hold `cap`: a REQUIRES(cap) on the
                   function, a scoped MutexLock over cap in the body, a
                   direct cap.lock(), or a call to a TS_ASSERT(cap)
                   role-assertion function. This re-checks, with no
                   toolchain dependency, the discipline Clang enforces
                   under -Wthread-safety (GCC compiles the annotations
                   to nothing, so GCC-only hosts would otherwise have
                   no checker at all).
  stale-may-alloc  Every SIEVE_MAY_ALLOC annotation must still be
                   load-bearing: some allocation (token, primitive, or
                   allocating local container) must be reachable from
                   the annotated function. A MAY_ALLOC under which no
                   allocation survives is a stale exemption that would
                   silently swallow future regressions — the analog of
                   sieve-lint's unused-allow rule for line
                   suppressions.
  taint-flow       (--flow) sieve-flow: a forward interprocedural
                   taint analysis proving the storage layer's
                   observe-never-decide contract. Sources are measured
                   / nondeterministic data: functions and fields
                   annotated SIEVE_TAINT_SOURCE (Backend::readBlocks /
                   writeBlocks latency out-params, Backend::stats()
                   counters and histograms, the storage_* columns of
                   DailyReport) plus built-in primitives (pread/pwrite
                   and io_uring_* returns, rand/random_device, wall
                   clocks, getenv). Sinks are the decision surfaces
                   annotated SIEVE_TAINT_SINK (FlatSieve admit paths,
                   BlockCache mutation arguments, ReplacementPolicy
                   residency events, the model-side fields of
                   DailyReport). Taint propagates through assignments,
                   call arguments/returns, and member fields, with
                   per-function summaries iterated to a fixpoint;
                   SIEVE_FLOW_SANITIZE (util/flow_annotations.hpp) is
                   the audited boundary that absorbs taint, mirroring
                   SIEVE_MAY_ALLOC. Every violation reports the full
                   source -> assignment -> sink path; every deliberate
                   measured->report flow (a tainted write INTO a
                   source-annotated field) is listed by --report. The
                   engine follows explicit data flow only — control
                   dependence (a branch on measured data steering
                   clean values) is out of scope and covered
                   dynamically by test_storage_differential; see
                   DESIGN.md section 14.

Backends: the default 'text' backend is dependency-free and parses C++
structurally (comment stripping + brace matching, shared with
sieve-lint). The 'clang' backend builds the same program model from
the libclang AST using compile_commands.json (pass --compile-db or let
it default to build/compile_commands.json); 'auto' tries clang and
falls back to text. Both backends feed one reachability engine, so
findings and report format are identical.

Token-backend soundness boundary (documented, deliberate):

  * Calls are resolved by name, narrowed where the tokens allow it:
    a bare call inside a class binds to that class's own method; a
    qualified call `Foo::bar(...)` binds to Foo; a member call
    `x.bar(...)` binds to the declared type of `x` (resolved through
    file-local `using` aliases) *plus every class derived from it*,
    so virtual dispatch stays conservative. When no binding is
    possible the call reaches every function of that name defined
    under src/ — an over-approximation that can only add findings,
    never hide a defined function. Names defined nowhere in the tree
    are looked up in the allocation/nondeterminism primitive tables;
    unknown names (std:: algorithms, accessors) are treated as clean
    and counted in the --report output, so the size of the trust
    base is visible.
  * Indirect calls through function pointers, std::function, and
    stored callables (e.g. RequestBatcher's flush_) are invisible; the
    lambda *bodies* are still scanned, because a lambda defined inside
    a scanned region is part of the region's text.

Suppressions and fixtures:
  // sieve-analyze: allow(<rule>)   on the flagged statement's span
  // analyze-expect: <rule>         fixture marker for --self-test

Exit status: 0 if every claim is proven, 1 on any finding (or a
failed --self-test).
"""

import argparse
import collections
import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from sieve_lint import matchBrace, stripCommentsAndStrings  # noqa: E402

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCAN_DIRS = ("src",)
FIXTURE_DIR = os.path.join("scripts", "lint_fixtures", "analyze")

RULES = ("no-alloc", "determinism", "lock-discipline",
         "stale-may-alloc", "taint-flow")

# Flow fixtures live in their own subdirectory: the standard rules
# skip them (their deliberately-leaky helpers are not no-alloc
# claims) and the flow pass runs on them alone.
FLOW_FIXTURE_SUBDIR = os.path.join(FIXTURE_DIR, "flow")

ALLOW_RE = re.compile(r"//\s*sieve-analyze:\s*allow\(([\w-]+)\)")
EXPECT_RE = re.compile(r"//\s*analyze-expect:\s*([\w-]+)")

# Identifiers that look like calls but are not.
KEYWORDS = frozenset((
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "alignas", "decltype", "noexcept", "catch", "throw", "new",
    "delete", "static_assert", "defined", "assert", "case",
    "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
    "int", "char", "bool", "float", "double", "void", "auto",
    "uint8_t", "uint16_t", "uint32_t", "uint64_t", "int8_t",
    "int16_t", "int32_t", "int64_t", "size_t", "ssize_t", "ptrdiff_t",
    # Annotation macros (util/thread_annotations.hpp, util/check.hpp)
    # and contract macros expand to attributes or to checkFailed-only
    # paths; the checkFailed edge is added explicitly below.
    "REQUIRES", "ACQUIRE", "RELEASE", "TRY_ACQUIRE", "TS_ASSERT",
    "GUARDED_BY", "PT_GUARDED_BY", "CAPABILITY", "EXCLUDES",
    "ACQUIRED_BEFORE", "ACQUIRED_AFTER", "SIEVE_THREAD_ANNOTATION",
))

# Contract macros whose only call is the [[noreturn]] failure path;
# model them as an edge to checkFailed so the failure path's disarm
# boundary shows up in reports instead of being invisible.
CONTRACT_MACROS = frozenset((
    "SIEVE_CHECK", "SIEVE_DCHECK", "SIEVE_UNREACHABLE",
))

# Callees with no definition in the tree that are known to allocate.
# Container-growth method names double as primitives: when the name is
# *also* defined in the tree (e.g. FlatIndex::reserve) the tree
# definition wins and is traversed instead — its own SIEVE_MAY_ALLOC /
# disarm status then decides.
ALLOC_PRIMITIVES = frozenset((
    "malloc", "calloc", "realloc", "strdup", "aligned_alloc",
    "make_unique", "make_shared", "to_string", "stoi", "stoul",
    "stoull", "getline",
    "push_back", "emplace_back", "push_front", "emplace_front",
    "emplace", "insert", "insert_or_assign", "try_emplace",
    "resize", "reserve", "assign", "append", "substr",
    "shrink_to_fit", "rehash",
))

# Nondeterminism primitives for the determinism claim (call names).
NONDET_PRIMITIVES = frozenset((
    "rand", "srand", "rand_r", "drand48", "time", "gettimeofday",
    "clock_gettime",
))
# ... and token-level patterns (types, not calls).
NONDET_TOKEN_RE = re.compile(
    r"std\s*::\s*random_device"
    r"|std\s*::\s*chrono\s*::\s*(?:system_clock|steady_clock|"
    r"high_resolution_clock)")

CALL_RE = re.compile(r"(?:\b|::\s*)([A-Za-z_]\w*)\s*\(")
# `new T(...)` allocates; `new (addr) T` (placement) does not, and the
# lookahead excludes it. `new (std::nothrow) T` is excluded with it —
# acceptable: nothrow-new is not used in this tree (grep-verified) and
# the runtime AllocGuard would still catch one.
NEW_RE = re.compile(r"\bnew\b(?!\s*\()")
GUARD_RE = re.compile(r"\bSIEVE_ASSERT_NO_ALLOC(?:_WHEN)?\b")
DISARM_RE = re.compile(r"\bAllocGuardDisarm\b")
NOALLOC_ATTR = "SIEVE_NOALLOC"
MAYALLOC_ATTR = "SIEVE_MAY_ALLOC"

# ---- sieve-flow (taint) tables -------------------------------------

FLOW_RULE = "taint-flow"
FLOW_ATTR_RE = re.compile(
    r"\b(SIEVE_TAINT_SOURCE|SIEVE_TAINT_SINK|SIEVE_FLOW_SANITIZE)\b")
FLOW_ATTR_KIND = {
    "SIEVE_TAINT_SOURCE": "source",
    "SIEVE_TAINT_SINK": "sink",
    "SIEVE_FLOW_SANITIZE": "sanitize",
}
# libclang annotate-attribute spellings (util/flow_annotations.hpp).
FLOW_CLANG_ATTRS = {
    "sieve-taint-source": "source",
    "sieve-taint-sink": "sink",
    "sieve-flow-sanitize": "sanitize",
}

# Calls with no in-tree definition whose return value and writable
# arguments are measured/nondeterministic data. Raw I/O is banned
# outside src/storage/ by sieve-lint's raw-io rule, so these fire only
# where the measured data genuinely originates.
FLOW_SOURCE_CALLS = frozenset((
    "rand", "srand", "rand_r", "drand48", "random", "time",
    "gettimeofday", "clock_gettime", "getenv",
    "pread", "pwrite", "pread64", "pwrite64", "preadv", "pwritev",
))
FLOW_SOURCE_PREFIXES = ("io_uring_",)
# Token-level sources (type spellings, not calls).
FLOW_TOKEN_RE = re.compile(
    r"std\s*::\s*random_device"
    r"|std\s*::\s*chrono\s*::\s*(?:system_clock|steady_clock|"
    r"high_resolution_clock)")

# Identifiers never treated as tainted out-params of a source call
# (namespaces, casts, the spelling of the annotation itself).
FLOW_OUTPARAM_SKIP = frozenset(("std", "chrono", "span", "array",
                                "size", "data", "begin", "end"))

# Taint provenance is capped: paths longer than this keep their head
# (the source) and tail (the sink approach) readable without
# ballooning messages.
FLOW_MAX_STEPS = 12

# Local-declaration prescan. processStatement registers statement
# declarations through findAssign, but names declared at paren depth
# (for/if/while init, range-for, catch clauses, lambda parameters)
# and array declarations without an initializer never reach it; an
# unregistered name would fall through to the member-field fallback
# and leak function-local taint into the global field map. The scan
# is the classic decl heuristic — TYPE [<...>] [&*] NAME followed by
# a declarator delimiter at a statement/paren boundary — so `a * b;`
# style expression ambiguity resolves the same way a human reader's
# first guess does.
FLOW_DECL_SCAN_RE = re.compile(
    r"(?:^|[;{}(,])\s*"
    r"(?:(?:const|constexpr|static|volatile|struct|class|enum|"
    r"unsigned|signed|long|short|alignas\s*\([^)]*\))\s+)*"
    r"([A-Za-z_][\w:]*)"
    r"(?:\s*<[^<>;()]*>)?"
    r"\s*[&*\s][&*\s]*"
    r"([A-Za-z_]\w*)"
    r"\s*(?:=(?!=)|\{|\[|;|,|\)|:(?!:))")
FLOW_BINDING_RE = re.compile(r"\bauto\s*&{0,2}\s*\[([^\]]*)\]")
FLOW_DECL_SKIP = frozenset((
    "return", "case", "new", "delete", "throw", "goto", "else",
    "using", "typedef", "namespace", "template", "typename",
    "operator", "sizeof", "if", "while", "for", "switch", "do",
    "break", "continue", "public", "private", "protected",
    "default", "co_return", "co_yield", "co_await"))

# Container locals whose declaration alone allocates; the stale
# SIEVE_MAY_ALLOC check treats them as allocation evidence even when
# no growth method is called.
ALLOC_DECL_RE = re.compile(
    r"\bstd\s*::\s*(?:vector|string|deque|list|map|set|"
    r"unordered_map|unordered_set|[oi]?stringstream|function)\b")

# The enforcement layer itself: defines the replacement allocation
# functions and the guard machinery. Out of scope for violations.
EXEMPT_FILES = frozenset((
    os.path.join("src", "util", "alloc_guard.hpp"),
    os.path.join("src", "util", "alloc_guard.cpp"),
))


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class Function:
    """One function definition: spans are offsets into the stripped
    file text; `calls` are (name, offset) pairs."""

    def __init__(self, qual, relpath, line, head_start, body_start,
                 body_end):
        self.qual = qual              # display name, maybe Class::name
        self.name = qual.rsplit("::", 1)[-1]
        self.relpath = relpath
        self.line = line
        self.head_start = head_start  # offset where the decl begins
        self.body_start = body_start  # offset just past '{'
        self.body_end = body_end      # offset of matching '}'
        self.noalloc = False          # SIEVE_NOALLOC on the decl
        self.may_alloc = False        # SIEVE_MAY_ALLOC on the decl
        self.disarms = False          # body constructs AllocGuardDisarm
        self.line_based = False       # clang frontend: offsets = lines
        self.requires = ""            # raw REQUIRES(...) argument text
        self.asserts_caps = []        # TS_ASSERT(...) argument text
        self.calls = []               # (name, offset, kind, recv)
        self.regions = []             # (start, end, line) guard spans
        self.params = []              # parameter names (None if unnamed)
        self.taint_source = False     # SIEVE_TAINT_SOURCE on the decl
        self.taint_sink = False       # SIEVE_TAINT_SINK on the decl
        self.sanitize = False         # SIEVE_FLOW_SANITIZE on the decl

    def key(self):
        return (self.relpath, self.line, self.qual)


class SourceFile:
    """One parsed file: stripped text plus suppression/expect lines."""

    def __init__(self, relpath, text):
        self.relpath = relpath
        self.raw_lines = text.splitlines()
        self.allow = {}
        self.expect = []
        for i, line in enumerate(self.raw_lines, start=1):
            for m in ALLOW_RE.finditer(line):
                self.allow.setdefault(i, set()).add(m.group(1))
            for m in EXPECT_RE.finditer(line):
                self.expect.append(m.group(1))
        self.text = stripCommentsAndStrings(text)
        self.functions = []
        self.guarded_fields = []  # (class, field, cap, line)

    def lineOf(self, offset):
        return self.text.count("\n", 0, offset) + 1

    def allowed(self, line, rule):
        """Suppression on the line, the line above, or anywhere on the
        statement's span (the statement containing `line` extends to
        the previous/next ';' or brace in the raw text is approximated
        by a 3-line window — statement spans are handled by callers
        passing every line of the span)."""
        return (rule in self.allow.get(line, set()) or
                rule in self.allow.get(line - 1, set()))

    def allowedSpan(self, first_line, last_line, rule):
        return any(rule in self.allow.get(l, set())
                   for l in range(first_line - 1, last_line + 1))


class Program:
    """The IR both backends produce: functions indexed by simple name,
    plus class hierarchy and per-file guarded-field tables."""

    def __init__(self):
        self.sources = {}             # relpath -> SourceFile
        self.by_name = collections.defaultdict(list)
        self.functions = []
        self.bases = {}               # class -> set(direct bases)
        self.aliases = {}             # alias -> class name
        self.class_spans = collections.defaultdict(list)
        #                             # class -> [(relpath, start, end)]
        # sieve-flow annotation registries. Function entries also
        # cover bodiless declarations (pure-virtual Backend methods),
        # which parseFunctions never sees.
        self.flow_fns = {}            # (class|None, name) -> set(kind)
        self.flow_fns_by_name = collections.defaultdict(set)
        self.flow_decl_site = {}      # (class|None, name) -> (rel, ln)
        self.taint_fields = {}        # (class|None, field) ->
        #                             #   (kind, relpath, line)
        self.taint_fields_by_name = collections.defaultdict(list)

    def classClosure(self, cls):
        """`cls` plus every transitive base class."""
        out = []
        work = [cls]
        seen = set()
        while work:
            c = work.pop()
            if c is None or c in seen:
                continue
            seen.add(c)
            out.append(c)
            work.extend(self.bases.get(c, ()))
        return out

    def add(self, fn):
        self.functions.append(fn)
        self.by_name[fn.name].append(fn)

    def finalize(self):
        """Derived-class closure and per-class method tables."""
        self.class_methods = collections.defaultdict(set)
        for fn in self.functions:
            if "::" in fn.qual:
                cls, meth = fn.qual.rsplit("::", 1)
                self.class_methods[cls].add(meth)
        children = collections.defaultdict(set)
        for cls, bases in self.bases.items():
            for b in bases:
                children[b].add(cls)
        self.derived = {}
        for cls in set(children) | set(self.bases):
            out = set()
            work = [cls]
            while work:
                c = work.pop()
                for d in children.get(c, ()):
                    if d not in out:
                        out.add(d)
                        work.append(d)
            self.derived[cls] = out

    def resolveClass(self, name):
        name = name.rsplit("::", 1)[-1]
        name = self.aliases.get(name, name)
        name = name.rsplit("::", 1)[-1]
        if name in self.class_methods or name in self.bases or \
                name in self.derived:
            return name
        return None

    def methodsOf(self, cls, name):
        """Defs of `cls::name` plus overrides in derived classes."""
        out = []
        for c in [cls] + sorted(self.derived.get(cls, ())):
            if name in self.class_methods.get(c, ()):
                qual = f"{c}::{name}"
                out.extend(f for f in self.by_name.get(name, ())
                           if f.qual == qual)
        return out


# --------------------------------------------------------------------
# Token frontend
# --------------------------------------------------------------------

CLASS_HEAD_RE = re.compile(
    r"\b(?:class|struct)\s+(?:CAPABILITY\s*\([^)]*\)\s*|"
    r"SCOPED_CAPABILITY\s+)?([A-Za-z_]\w*)\s*(?:final\s*)?"
    r"(:[^{;]*)?\{")

BASE_NAME_RE = re.compile(
    r"(?:public|protected|private|virtual|\s|,)*"
    r"((?:[A-Za-z_]\w*\s*::\s*)*[A-Za-z_]\w*)")

ALIAS_RE = re.compile(
    r"\busing\s+([A-Za-z_]\w*)\s*=\s*"
    r"((?:[A-Za-z_]\w*\s*::\s*)*[A-Za-z_]\w*)\s*[<;]")

FUNC_NAME_RE = re.compile(
    r"\b((?:[A-Za-z_]\w*\s*::\s*)*~?[A-Za-z_]\w*)\s*\(")

GUARDED_FIELD_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s+GUARDED_BY\s*\(\s*([^)]*?)\s*\)")

REQUIRES_HEAD_RE = re.compile(r"\bREQUIRES\s*\(\s*([^)]*?)\s*\)")
TSASSERT_HEAD_RE = re.compile(r"\bTS_ASSERT\s*\(\s*([^)]*?)\s*\)")

# Tokens that may legally sit between a definition's ')' and its '{'.
TAIL_WORD_RE = re.compile(
    r"\s*(const|noexcept|override|final|mutable|volatile|&&|&|"
    r"->\s*[\w:<>,\s*&]+?)(?=\s|\{|$)")


def classSpans(text):
    """[(name, body_start, body_end, bases)] for every class/struct
    body, with direct base-class simple names."""
    spans = []
    for m in CLASS_HEAD_RE.finditer(text):
        open_pos = m.end() - 1
        end = matchBrace(text, open_pos) - 1
        bases = set()
        clause = m.group(2)
        if clause:
            for part in clause.lstrip(":").split(","):
                bm = BASE_NAME_RE.match(part.strip())
                if bm:
                    bases.add(
                        re.sub(r"\s", "",
                               bm.group(1)).rsplit("::", 1)[-1])
        spans.append((m.group(1), open_pos + 1, end, bases))
    return spans


def enclosingClass(spans, offset):
    best = None
    for name, start, end, _bases in spans:
        if start <= offset < end:
            if best is None or start > best[1]:
                best = (name, start, end)
    return best[0] if best else None


# Keywords that may legitimately precede a call expression; any other
# identifier directly before `name(` marks a variable declaration.
STMT_KEYWORDS = frozenset({
    "return", "co_return", "co_yield", "co_await", "throw", "new",
    "delete", "case", "goto", "else", "do", "not", "and", "or",
})


def callContext(text, name_start):
    """('bare'|'member'|'qualified', receiver-or-None) for the call
    whose callee name begins at name_start."""
    j = name_start - 1
    while j >= 0 and text[j].isspace():
        j -= 1
    if j >= 1 and text[j] == ":" and text[j - 1] == ":":
        k = j - 2
        while k >= 0 and text[k].isspace():
            k -= 1
        end = k + 1
        while k >= 0 and (text[k].isalnum() or text[k] == "_"):
            k -= 1
        recv = text[k + 1:end]
        return ("qualified", recv or None)
    via_arrow = j >= 1 and text[j] == ">" and text[j - 1] == "-"
    if not via_arrow and (text[j].isalnum() or text[j] in "_>"):
        # `Type name(args)` / `std::vector<int> v(n)`: a declaration
        # with constructor arguments, not a call — unless the
        # preceding token is a statement keyword (`return foo()`).
        k = j
        while k >= 0 and (text[k].isalnum() or text[k] == "_"):
            k -= 1
        prev_tok = text[k + 1:j + 1]
        if prev_tok not in STMT_KEYWORDS:
            return ("decl", None)
    if text[j] == "." or via_arrow:
        k = j - (2 if via_arrow else 1)
        while k >= 0 and text[k].isspace():
            k -= 1
        if k < 0 or not (text[k].isalnum() or text[k] == "_"):
            # Receiver is an expression (call result, index, cast):
            # untypable at token level, resolve by name.
            return ("member", None)
        end = k + 1
        while k >= 0 and (text[k].isalnum() or text[k] == "_"):
            k -= 1
        recv = text[k + 1:end]
        if recv and not recv[0].isdigit():
            return ("member", recv)
        return ("member", None)
    return ("bare", None)


def skipDefTail(text, pos):
    """From just past a parameter list's ')', skip qualifiers,
    annotation macros, trailing return types, and a constructor
    initializer list. Returns the offset of the body '{', or -1 if
    this is not a definition."""
    n = len(text)
    i = pos
    while i < n:
        while i < n and text[i].isspace():
            i += 1
        if i >= n:
            return -1
        c = text[i]
        if c == "{":
            return i
        if c in ";,)=":
            return -1
        if c == ":":
            if text[i + 1:i + 2] == ":":  # stray qualified name
                return -1
            # Constructor initializer list: skip balanced (), {}
            # until the body '{' at depth 0.
            i += 1
            depth = 0
            while i < n:
                ch = text[i]
                if ch in "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                elif ch == "{":
                    if depth == 0:
                        return i
                    depth += 1
                elif ch == "}":
                    depth -= 1
                elif ch == ";":
                    if depth == 0:
                        return -1
                i += 1
            return -1
        m = re.match(r"[A-Za-z_]\w*", text[i:])
        if m:
            word = m.group(0)
            j = i + m.end()
            while j < n and text[j].isspace():
                j += 1
            if j < n and text[j] == "(" and word not in (
                    "const", "noexcept", "override", "final",
                    "mutable", "volatile"):
                # Annotation macro with arguments: REQUIRES(...),
                # TS_ASSERT(...), __attribute__((...)), noexcept(...)
                close = j
                depth = 0
                while close < n:
                    if text[close] == "(":
                        depth += 1
                    elif text[close] == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    close += 1
                i = close + 1
                continue
            i += m.end()
            continue
        if c == "-" and text[i:i + 2] == "->":
            # Trailing return type: scan to '{' or ';' at depth 0.
            i += 2
            depth = 0
            while i < n:
                ch = text[i]
                if ch in "(<":
                    depth += 1
                elif ch in ")>":
                    depth -= 1
                elif ch == "{" and depth <= 0:
                    return i
                elif ch == ";" and depth <= 0:
                    return -1
                i += 1
            return -1
        return -1
    return -1


def matchParen(text, open_pos):
    """Offset of the ')' matching the '(' at open_pos, or -1."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


def splitTopLevel(s, angle=False):
    """Split on commas at bracket depth 0; `angle` also balances <>
    (useful for parameter lists, where angle brackets are types)."""
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(s):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif angle and ch == "<":
            depth += 1
        elif angle and ch == ">" and s[i - 1:i] != "-":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(s[start:i])
            start = i + 1
    parts.append(s[start:])
    return parts


def removeBracketGroups(s):
    """Drop balanced [...] groups (array extents, subscripts)."""
    out = []
    depth = 0
    for ch in s:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth = max(0, depth - 1)
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def paramNames(params_text):
    """Best-effort parameter names from a definition's parameter
    list: last identifier of each comma-separated declarator (None
    for unnamed/`void`). Wrong-but-harmless for unnamed parameters,
    whose 'name' (the type) is never referenced in the body."""
    out = []
    stripped = params_text.strip()
    if not stripped or stripped == "void":
        return out
    for part in splitTopLevel(params_text, angle=True):
        part = removeBracketGroups(part.split("=", 1)[0])
        ids = re.findall(r"[A-Za-z_]\w*", part)
        ids = [i for i in ids if i not in ("const", "volatile",
                                           "struct", "class",
                                           "typename", "unsigned",
                                           "signed", "long", "short")]
        out.append(ids[-1] if ids else None)
    return out


def parseFunctions(src, spans):
    """Find function definitions in a stripped file. Control-flow
    keywords are filtered; the head span (for annotations) runs from
    the previous top-level terminator to the body brace."""
    text = src.text
    taken = []  # body spans already claimed, to skip nested re-finds
    for m in FUNC_NAME_RE.finditer(text):
        name = m.group(1)
        simple = re.sub(r"\s", "", name).rsplit("::", 1)[-1]
        if simple.lstrip("~") in KEYWORDS or simple in KEYWORDS:
            continue
        open_paren = m.end() - 1
        # Match the parameter list.
        depth = 0
        i = open_paren
        while i < len(text):
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        if i >= len(text):
            continue
        body_open = skipDefTail(text, i + 1)
        if body_open < 0:
            continue
        body_end = matchBrace(text, body_open) - 1
        # Head: back to the nearest ; { or } before the name.
        head_start = max(text.rfind(";", 0, m.start()),
                         text.rfind("{", 0, m.start()),
                         text.rfind("}", 0, m.start())) + 1
        qual = re.sub(r"\s", "", name)
        if "::" not in qual:
            cls = enclosingClass(spans, m.start())
            if cls:
                qual = f"{cls}::{qual}"
        fn = Function(qual, src.relpath, src.lineOf(m.start()),
                      head_start, body_open + 1, body_end)
        head = text[head_start:body_open]
        fn.noalloc = NOALLOC_ATTR in head
        fn.may_alloc = MAYALLOC_ATTR in head
        fn.taint_source = "SIEVE_TAINT_SOURCE" in head
        fn.taint_sink = "SIEVE_TAINT_SINK" in head
        fn.sanitize = "SIEVE_FLOW_SANITIZE" in head
        fn.params = paramNames(text[open_paren + 1:i])
        rq = REQUIRES_HEAD_RE.search(head)
        if rq:
            fn.requires = re.sub(r"\s", "", rq.group(1))
        for ts in TSASSERT_HEAD_RE.finditer(head):
            fn.asserts_caps.append(re.sub(r"\s", "", ts.group(1)))
        taken.append((body_open + 1, body_end, fn))
        src.functions.append(fn)
    # Drop defs whose body lies inside another def's body *and* whose
    # head looks like a local construct — keep in-class methods (class
    # bodies are not function bodies). Nested function-like matches
    # inside bodies are usually lambdas assigned to named variables or
    # local structs; keeping them is harmless (they become extra
    # nodes), so no pruning is done.
    return


def scanBodies(src):
    """Populate calls/regions/disarm info for each function."""
    text = src.text
    for fn in src.functions:
        body = text[fn.body_start:fn.body_end]
        base = fn.body_start
        if DISARM_RE.search(body):
            fn.disarms = True
        for m in CALL_RE.finditer(body):
            name = m.group(1)
            if name in KEYWORDS:
                continue
            if name in CONTRACT_MACROS:
                fn.calls.append(("checkFailed", base + m.start(1),
                                 "bare", None))
                continue
            if name.isupper() and name.startswith("SIEVE_"):
                continue
            kind, recv = callContext(body, m.start(1))
            if kind == "decl":  # `Type name(args)` — not a call
                continue
            fn.calls.append((name, base + m.start(1), kind, recv))
        for m in GUARD_RE.finditer(body):
            # Region: guard statement to the end of its enclosing
            # brace scope within this body.
            pos = m.start()
            depth = 0
            end = len(body)
            for j in range(pos, len(body)):
                if body[j] == "{":
                    depth += 1
                elif body[j] == "}":
                    depth -= 1
                    if depth < 0:
                        end = j
                        break
            fn.regions.append((base + pos, base + end,
                               src.lineOf(base + pos)))


def parseGuardedFields(src, spans):
    for m in GUARDED_FIELD_RE.finditer(src.text):
        cls = enclosingClass(spans, m.start())
        cap = re.sub(r"\s", "", m.group(2))
        src.guarded_fields.append(
            (cls or "", m.group(1), cap, src.lineOf(m.start())))


def parseFlowAnnotations(src, spans, prog):
    """Register SIEVE_TAINT_SOURCE/SINK/SANITIZE sites. The macro's
    enclosing declaration is classified as a function when an
    identifier-followed-by-'(' appears before the statement ends
    (covers definitions AND bodiless virtual declarations), otherwise
    as a data member whose name is the declarator's last identifier."""
    text = src.text
    for m in FLOW_ATTR_RE.finditer(text):
        kind = FLOW_ATTR_KIND[m.group(1)]
        if src.relpath.endswith(
                os.path.join("util", "flow_annotations.hpp")):
            continue  # the macro definitions themselves
        stmt_start = max(text.rfind(";", 0, m.start()),
                         text.rfind("{", 0, m.start()),
                         text.rfind("}", 0, m.start())) + 1
        ends = [p for p in (text.find(";", m.end()),
                            text.find("{", m.end())) if p != -1]
        stmt_end = min(ends) if ends else len(text)
        cls = enclosingClass(spans, m.start())
        line = src.lineOf(m.start())
        fn_name = None
        for cm in CALL_RE.finditer(text, m.end(), stmt_end):
            cand = cm.group(1)
            if cand in KEYWORDS or cand in FLOW_ATTR_KIND:
                continue
            fn_name = cand
            break
        if fn_name is not None:
            prog.flow_fns.setdefault((cls, fn_name), set()).add(kind)
            prog.flow_fns_by_name[fn_name].add(kind)
            prog.flow_decl_site.setdefault((cls, fn_name),
                                           (src.relpath, line))
        else:
            decl = removeBracketGroups(
                text[stmt_start:stmt_end].split("=", 1)[0])
            ids = [i for i in re.findall(r"[A-Za-z_]\w*", decl)
                   if i not in FLOW_ATTR_KIND]
            if not ids or kind == "sanitize":
                continue  # sanitize is meaningful on functions only
            field = ids[-1]
            prog.taint_fields[(cls, field)] = (kind, src.relpath,
                                               line)
            prog.taint_fields_by_name[field].append((cls, kind))


def loadProgramText(root, relpaths):
    prog = Program()
    for rel in relpaths:
        with open(os.path.join(root, rel),
                  encoding="utf-8", errors="replace") as f:
            src = SourceFile(rel, f.read())
        spans = classSpans(src.text)
        parseFunctions(src, spans)
        scanBodies(src)
        parseGuardedFields(src, spans)
        parseFlowAnnotations(src, spans, prog)
        prog.sources[rel] = src
        for fn in src.functions:
            prog.add(fn)
        for (name, start, end, bases) in spans:
            prog.bases.setdefault(name, set()).update(bases)
            prog.class_spans[name].append((rel, start, end))
        for m in ALIAS_RE.finditer(src.text):
            target = re.sub(r"\s", "", m.group(2)).rsplit("::", 1)[-1]
            prog.aliases.setdefault(m.group(1), target)
    prog.finalize()
    return prog


# --------------------------------------------------------------------
# libclang frontend
# --------------------------------------------------------------------

def loadCompileDb(root, db_path):
    """[(abs source path, [args])] from compile_commands.json."""
    with open(db_path, encoding="utf-8") as f:
        entries = json.load(f)
    out = []
    for e in entries:
        path = os.path.normpath(
            os.path.join(e.get("directory", root), e["file"]))
        args = e.get("arguments")
        if not args:
            args = e.get("command", "").split()
        # Drop the compiler, the input file, and -o/-c plumbing.
        cleaned = []
        skip = False
        for a in args[1:]:
            if skip:
                skip = False
                continue
            if a in ("-c", path, e["file"]):
                continue
            if a == "-o":
                skip = True
                continue
            cleaned.append(a)
        out.append((path, cleaned))
    return out


def loadProgramClang(root, relpaths, db_path):
    """Build the same Program from the libclang AST. Returns None when
    libclang or the compile db is unavailable (caller falls back)."""
    try:
        import clang.cindex as ci
        index = ci.Index.create()
    except Exception:
        return None
    try:
        units = loadCompileDb(root, db_path) if db_path else []
    except Exception:
        units = []
    if not units:
        units = [(os.path.join(root, rel),
                  ["-x", "c++", "-std=c++20",
                   "-I", os.path.join(root, "src")])
                 for rel in relpaths if rel.endswith(".cpp")]

    prog = Program()
    for rel in relpaths:
        with open(os.path.join(root, rel),
                  encoding="utf-8", errors="replace") as f:
            prog.sources[rel] = SourceFile(rel, f.read())

    seen = set()

    def relOf(cursor):
        loc = cursor.location
        if not loc.file:
            return None
        path = os.path.abspath(loc.file.name)
        if not path.startswith(root + os.sep):
            return None
        return os.path.relpath(path, root)

    fn_kinds = None

    def visit(cursor):
        for child in cursor.get_children():
            rel = relOf(child)
            if rel is None:
                continue
            if child.kind in fn_kinds and child.is_definition():
                recordFunction(child, rel)
            visit(child)

    def recordFunction(cursor, rel):
        import clang.cindex as ci
        key = (rel, cursor.location.line, cursor.spelling)
        if key in seen:
            return
        seen.add(key)
        parent = cursor.semantic_parent
        qual = cursor.spelling
        if parent is not None and parent.kind in (
                ci.CursorKind.CLASS_DECL, ci.CursorKind.STRUCT_DECL,
                ci.CursorKind.CLASS_TEMPLATE):
            qual = f"{parent.spelling}::{qual}"
        fn = Function(qual, rel, cursor.location.line, 0, 0, 1)
        fn.line_based = True
        for child in cursor.walk_preorder():
            k = child.kind
            if k == ci.CursorKind.ANNOTATE_ATTR:
                if child.spelling == "sieve-noalloc":
                    fn.noalloc = True
                elif child.spelling == "sieve-may-alloc":
                    fn.may_alloc = True
                elif FLOW_CLANG_ATTRS.get(child.spelling) == "source":
                    fn.taint_source = True
                elif FLOW_CLANG_ATTRS.get(child.spelling) == "sink":
                    fn.taint_sink = True
                elif FLOW_CLANG_ATTRS.get(child.spelling) == \
                        "sanitize":
                    fn.sanitize = True
            elif k == ci.CursorKind.CALL_EXPR:
                callee = child.referenced
                name = (callee.spelling if callee is not None
                        else child.spelling)
                if name:
                    fn.calls.append(
                        (name, child.location.line, "unknown",
                         None))
            elif k == ci.CursorKind.CXX_NEW_EXPR:
                fn.calls.append(("operator new",
                                 child.location.line, "unknown",
                                 None))
            elif k == ci.CursorKind.VAR_DECL:
                t = child.type.spelling
                if "AllocGuardDisarm" in t:
                    fn.disarms = True
                elif "AllocGuard" in t:
                    fn.regions.append(
                        (0, 1, child.location.line))
        prog.add(fn)

    try:
        import clang.cindex as ci
        fn_kinds = (ci.CursorKind.FUNCTION_DECL,
                    ci.CursorKind.CXX_METHOD,
                    ci.CursorKind.CONSTRUCTOR,
                    ci.CursorKind.DESTRUCTOR,
                    ci.CursorKind.FUNCTION_TEMPLATE)
        want = {os.path.join(root, rel) for rel in relpaths}
        for path, args in units:
            if path not in want:
                continue
            tu = index.parse(path, args=args)
            visit(tu.cursor)
    except Exception:
        return None
    if not prog.functions:
        return None
    # The clang frontend records line-level call info only; region
    # spans degrade to whole-function granularity, which is sound
    # (a superset of the armed extent).
    prog.finalize()
    return prog


# --------------------------------------------------------------------
# Reachability engine
# --------------------------------------------------------------------

class Root:
    def __init__(self, fn, label, start, end, line):
        self.fn = fn
        self.label = label
        self.start = start  # text span for region roots (token only)
        self.end = end
        self.line = line


def collectRoots(prog):
    roots = []
    for fn in prog.functions:
        for (start, end, line) in fn.regions:
            roots.append(Root(
                fn, f"{fn.qual} guard region ({fn.relpath}:{line})",
                start, end, line))
        if fn.noalloc:
            roots.append(Root(
                fn, f"{fn.qual} [SIEVE_NOALLOC] "
                    f"({fn.relpath}:{fn.line})",
                fn.body_start, fn.body_end, fn.line))
    return roots


def callsInSpan(fn, start, end):
    if fn.line_based:
        return list(fn.calls)
    return [c for c in fn.calls if start <= c[1] < end]


def scanSpanViolations(src, fn, start, end, rule):
    """Direct violations inside a text span of `fn`'s file: allocation
    tokens for no-alloc, nondeterminism tokens for determinism. The
    clang frontend reports these as calls instead, so line-based
    functions have nothing to scan here."""
    if fn.line_based:
        return []
    text = src.text[start:end]
    out = []
    if rule == "no-alloc":
        for m in NEW_RE.finditer(text):
            out.append((src.lineOf(start + m.start()),
                        "`new` expression"))
    else:
        for m in NONDET_TOKEN_RE.finditer(text):
            out.append((src.lineOf(start + m.start()),
                        m.group(0).replace(" ", "")))
    return out


_recv_type_cache = {}

# Sentinel: receiver declared with a type outside the scanned tree.
EXTERNAL_RECV = "!external"

# std templates whose operator-> forwards to the first template
# argument; a receiver of wrapper type dispatches into the pointee.
_FORWARDING_WRAPPERS = frozenset({
    "unique_ptr", "shared_ptr", "optional",
})

# Tokens the receiver-declaration regex can match that are never the
# type of a declaration (`return out;`, `auto it = ...`, `delete p;`).
_NOT_A_TYPE = frozenset({
    "return", "co_return", "co_yield", "co_await", "throw", "new",
    "delete", "case", "goto", "else", "do", "auto", "const",
    "constexpr", "static", "mutable", "inline", "typename", "using",
    "sizeof", "not", "and", "or", "if", "while", "for", "switch",
})


def receiverType(prog, fn, src, recv):
    """Declared class of `recv`, searched in the enclosing function
    first, then anywhere in the file, then — for out-of-line methods
    whose data members live in a header — in the defining class's
    body span and those of its base classes. Only names that resolve
    to a class defined in the scanned tree are accepted, so stray
    matches cannot misbind a call. A receiver whose declaration IS
    found but whose type is not a scanned class (std::ofstream,
    std::vector, ...) returns the sentinel EXTERNAL_RECV: its methods
    live outside the tree, so the call must not fan out by name —
    allocating std members are still caught textually as
    primitives."""
    key = (src.relpath, fn.key(), recv)
    if key in _recv_type_cache:
        return _recv_type_cache[key]
    # Declarator punctuation admits `*` and single `&` but not `&&`,
    # which is almost always logical-and between two expressions.
    pat = re.compile(
        r"\b((?:[A-Za-z_]\w*\s*::\s*)*[A-Za-z_]\w*)\s*"
        r"(<[^;{}]*?>)?(?:\s|\*|&(?!&))+%s\b" % re.escape(recv))

    saw_external = False

    def searchSpan(text, a, b):
        nonlocal saw_external
        for m in pat.finditer(text, a, b):
            cand = re.sub(r"\s", "", m.group(1))
            if cand in _NOT_A_TYPE:
                continue
            cls = (prog.resolveClass(cand) or
                   prog.resolveClass(cand.rsplit("::", 1)[-1]))
            if cls:
                return cls
            # Pointer-like std wrappers forward `->` members to the
            # pointee: bind to the first template argument's class.
            if cand.rsplit("::", 1)[-1] in _FORWARDING_WRAPPERS \
                    and m.group(2):
                inner = m.group(2)[1:-1].split(",")[0]
                inner = re.sub(r"[\s*&]", "", inner)
                cls = (prog.resolveClass(inner) or
                       prog.resolveClass(inner.rsplit("::", 1)[-1]))
                if cls:
                    return cls
            # A plausible declaration with a type outside the tree:
            # remember it, but keep looking — a later span (e.g. the
            # member's declaration in the class body) may still bind
            # the receiver to a scanned class.
            saw_external = True
            return None
        return None

    result = (searchSpan(src.text, fn.head_start, fn.body_end) or
              searchSpan(src.text, 0, len(src.text)))
    if result is None and "::" in fn.qual:
        # Walk the owning class and its bases (inherited members).
        work = [fn.qual.rsplit("::", 1)[0]]
        visited = set()
        while work and result is None:
            cls = work.pop()
            if cls in visited:
                continue
            visited.add(cls)
            for (rel2, a, b) in prog.class_spans.get(cls, ()):
                other = prog.sources.get(rel2)
                if other is None:
                    continue
                result = searchSpan(other.text, a, b)
                if result:
                    break
            work.extend(prog.bases.get(cls, ()))
    if result is None and saw_external:
        result = EXTERNAL_RECV
    _recv_type_cache[key] = result
    return result


def resolveCall(prog, fn, src, name, kind, recv):
    """Definitions a call site may reach. Narrowing order: bare calls
    bind to the enclosing class, qualified calls to the named class,
    member calls to the receiver's declared class plus its derived
    classes (virtual dispatch). Anything unbindable falls back to
    every same-named definition."""
    if kind == "bare" and "::" in fn.qual:
        targets = prog.methodsOf(fn.qual.rsplit("::", 1)[0], name)
        if targets:
            return targets
    if kind == "qualified" and recv:
        cls = prog.resolveClass(recv)
        if cls:
            targets = prog.methodsOf(cls, name)
            if targets:
                return targets
    if kind == "member" and recv and src is not None:
        cls = receiverType(prog, fn, src, recv)
        if cls == EXTERNAL_RECV:
            return []
        if cls:
            targets = prog.methodsOf(cls, name)
            if targets:
                return targets
    return prog.by_name.get(name, [])


def primitiveFor(name, rule):
    if rule == "no-alloc":
        if name in ALLOC_PRIMITIVES or name == "operator new":
            return f"allocating primitive `{name}`"
    else:
        if name in NONDET_PRIMITIVES:
            return f"nondeterminism primitive `{name}`"
    return None


def checkReachability(prog, rule, findings, report):
    """BFS each root; a violation is a direct token in a reachable
    span or a call resolving only to a primitive of the rule."""
    roots = collectRoots(prog)
    reachable = set()
    boundaries = []
    unknown = collections.Counter()

    def visitSpan(src, fn, start, end, path, seen):
        # Direct tokens in this span.
        exempt = fn.relpath in EXEMPT_FILES
        for line, what in scanSpanViolations(src, fn, start, end,
                                             rule):
            if exempt or src.allowedSpan(line, line, rule):
                continue
            chain = " -> ".join(path)
            findings.append(Finding(
                fn.relpath, line, rule,
                f"{what} reachable from no-alloc root: {chain}"))
        # Calls in this span.
        for name, off, kind, recv in callsInSpan(fn, start, end):
            line = off if fn.line_based else src.lineOf(off)
            targets = resolveCall(prog, fn, src, name, kind, recv)
            if targets:
                for callee in targets:
                    visitFunction(callee, path, seen)
                continue
            prim = primitiveFor(name, rule)
            if prim is not None and not exempt:
                if src.allowedSpan(line, line, rule):
                    continue
                chain = " -> ".join(path)
                findings.append(Finding(
                    fn.relpath, line, rule,
                    f"{prim} reachable from no-alloc root: "
                    f"{chain}"))
            elif prim is None:
                unknown[name] += 1

    def visitFunction(fn, path, seen):
        # `seen` is shared across the whole root traversal (each
        # function is expanded once per root), so shared subgraphs
        # cost linear work instead of one visit per path.
        if fn.key() in seen:
            return
        seen.add(fn.key())
        if rule == "no-alloc":
            if fn.may_alloc:
                boundaries.append(
                    (f"{fn.qual} ({fn.relpath}:{fn.line})",
                     "SIEVE_MAY_ALLOC",
                     " -> ".join(path + [fn.qual])))
                return
            if fn.disarms:
                boundaries.append(
                    (f"{fn.qual} ({fn.relpath}:{fn.line})",
                     "AllocGuardDisarm",
                     " -> ".join(path + [fn.qual])))
                return
        reachable.add(fn.key())
        src = prog.sources.get(fn.relpath)
        if src is None or fn.body_end <= fn.body_start:
            return
        path.append(fn.qual)
        visitSpan(src, fn, fn.body_start, fn.body_end, path, seen)
        path.pop()

    for root in roots:
        src = prog.sources.get(root.fn.relpath)
        if src is None:
            continue
        seen = {root.fn.key()}
        reachable.add(root.fn.key())
        if root.end > root.start:
            visitSpan(src, root.fn, root.start, root.end,
                      [root.label], seen)

    report[rule] = {
        "roots": [r.label for r in roots],
        "reachable": len(reachable),
        "boundaries": boundaries,
        "unknown": unknown,
    }


# --------------------------------------------------------------------
# Lock discipline
# --------------------------------------------------------------------

def lockClaimers(prog):
    """cap expression -> names of TS_ASSERT(cap) assertion functions
    plus built-in holders."""
    claimers = collections.defaultdict(set)
    for fn in prog.functions:
        for cap in fn.asserts_caps:
            claimers[cap].add(fn.name)
    return claimers


def checkLockDiscipline(prog, findings):
    claimers = lockClaimers(prog)
    for rel, src in prog.sources.items():
        if not src.guarded_fields:
            continue
        for fn in src.functions:
            body = src.text[fn.body_start:fn.body_end]
            head = src.text[fn.head_start:fn.body_start]
            for (cls, field, cap, decl_line) in src.guarded_fields:
                # Only methods of the owning class (or file-local free
                # functions when the class is anonymous) can touch a
                # private field; same-file scoping keeps this sound
                # enough for the token backend.
                if cls and not fn.qual.startswith(cls + "::"):
                    continue
                pat = re.compile(r"\b%s\b" % re.escape(field))
                hits = [m for m in pat.finditer(body)]
                if not hits:
                    continue
                if fn.requires and capMatches(fn.requires, cap):
                    continue
                if cap in fn.asserts_caps or any(
                        capMatches(a, cap) for a in fn.asserts_caps):
                    continue
                if holdsCapability(body, cap, claimers):
                    continue
                line = src.lineOf(fn.body_start + hits[0].start())
                if src.allowedSpan(line, line, "lock-discipline"):
                    continue
                findings.append(Finding(
                    rel, line, "lock-discipline",
                    f"{fn.qual} touches {cls or '<file>'}::{field} "
                    f"(GUARDED_BY({cap}), declared line {decl_line}) "
                    f"without holding `{cap}`: add REQUIRES({cap}), "
                    f"take a MutexLock over it, or call its "
                    f"TS_ASSERT claimer first"))


def capMatches(held, cap):
    """Loose capability-expression match: `mu` vs `mu`, tolerant of
    member sigils (this->mu, producer_role_)."""
    norm = lambda s: s.replace("this->", "").strip("&* ")
    return norm(held) == norm(cap)


def holdsCapability(body, cap, claimers):
    base = cap.replace("this->", "").strip("&* ")
    if re.search(r"\bMutexLock\s+\w+\s*\(\s*(?:this\s*->\s*)?%s\s*\)"
                 % re.escape(base), body):
        return True
    if re.search(r"\b%s\s*\.\s*lock\s*\(" % re.escape(base), body):
        return True
    for held_cap, names in claimers.items():
        if not capMatches(held_cap, cap):
            continue
        for name in names:
            if re.search(r"\b%s\s*\(" % re.escape(name), body):
                return True
    return False


# --------------------------------------------------------------------
# Stale SIEVE_MAY_ALLOC
# --------------------------------------------------------------------

def allocationReachable(prog, fn, seen):
    """True if an allocation token, allocating primitive, or
    allocating local-container declaration is reachable from `fn`
    (transitively, ignoring boundaries — any allocation anywhere
    below justifies the MAY_ALLOC)."""
    if fn.key() in seen:
        return False
    seen.add(fn.key())
    src = prog.sources.get(fn.relpath)
    if src is not None and not fn.line_based and \
            fn.body_end > fn.body_start:
        body = src.text[fn.body_start:fn.body_end]
        if NEW_RE.search(body) or ALLOC_DECL_RE.search(body):
            return True
    for (name, _off, kind, recv) in fn.calls:
        if name == "operator new" or name in ALLOC_PRIMITIVES:
            # Primitive names double as container methods; whether
            # resolved in-tree or not, the name itself is evidence
            # enough for "the annotation is not stale".
            return True
        targets = resolveCall(prog, fn, src, name, kind, recv)
        for t in targets:
            if allocationReachable(prog, t, seen):
                return True
    return False


def checkStaleMayAlloc(prog, findings):
    for fn in prog.functions:
        if not fn.may_alloc:
            continue
        if allocationReachable(prog, fn, set()):
            continue
        src = prog.sources.get(fn.relpath)
        if src is not None and src.allowedSpan(fn.line, fn.line,
                                               "stale-may-alloc"):
            continue
        findings.append(Finding(
            fn.relpath, fn.line, "stale-may-alloc",
            f"SIEVE_MAY_ALLOC on {fn.qual} is stale: no allocation "
            f"is reachable from it on any visible path — remove the "
            f"annotation so the no-alloc proof covers this function "
            f"again"))


# --------------------------------------------------------------------
# sieve-flow: interprocedural taint engine
# --------------------------------------------------------------------
#
# Forward dataflow over the token program. Facts are
#   ("C", origin, steps)  concrete taint born at `origin`
#   ("P", idx, steps)     data derived from parameter `idx`
# kept per local variable as {(kind, id): steps} dicts (first write
# wins, so provenance stays the shortest path seen). Per-function
# FlowSummaries (returns, param->return, param->sink, param->field)
# and a global member-field taint map are iterated to a fixpoint;
# every map only grows, so termination is structural.

CHAIN_RE = re.compile(
    r"[A-Za-z_]\w*(?:\s*(?:->|\.)\s*[A-Za-z_]\w*)*")


class FlowSummary:
    def __init__(self):
        self.ret = {}            # ("C", origin) -> steps
        self.ret_params = {}     # param idx -> steps
        self.param_sinks = {}    # param idx -> {sink label: steps}
        self.param_fields = {}   # param idx -> {(cls, field): steps}

    def shape(self):
        return (frozenset(self.ret),
                frozenset(self.ret_params),
                frozenset((i, lbl) for i, d in self.param_sinks.items()
                          for lbl in d),
                frozenset((i, k) for i, d in self.param_fields.items()
                          for k in d))


class FlowContext:
    def __init__(self, prog):
        self.prog = prog
        self.summaries = {}       # fn.key() -> FlowSummary
        self.field_taints = {}    # (cls|None, field) -> facts dict
        self.findings = []
        self.boundaries = set()   # sanitizer absorption records
        self.deliberate = set()   # tainted writes into source fields
        self.unknown = collections.Counter()
        self.source_labels = set()
        self.sink_labels = set()

    def fieldTaintShape(self):
        return frozenset((k, fk) for k, d in self.field_taints.items()
                         for fk in d)

    def shape(self):
        return (frozenset((k, s.shape())
                          for k, s in self.summaries.items()),
                self.fieldTaintShape())

    def beginIteration(self):
        self.findings = []
        self.boundaries = set()
        self.deliberate = set()
        self.unknown = collections.Counter()


def mergeFact(facts, kind, ident, steps):
    key = (kind, ident)
    if key not in facts:
        facts[key] = tuple(steps)[:FLOW_MAX_STEPS]


def enclosingClassOf(fn):
    return fn.qual.rsplit("::", 1)[0] if "::" in fn.qual else None


def iterStatements(body):
    start = 0
    for i, ch in enumerate(body):
        if ch in ";{}":
            if body[start:i].strip():
                yield start, body[start:i]
            start = i + 1
    if body[start:].strip():
        yield start, body[start:]


def splitTopLevelSpans(s):
    """[(start, end)] argument spans of a paren-free split on
    top-level commas."""
    spans = []
    depth = 0
    start = 0
    for i, ch in enumerate(s):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "," and depth == 0:
            spans.append((start, i))
            start = i + 1
    spans.append((start, len(s)))
    return spans


def findAssign(stmt):
    """(lhs_end, rhs_start) of the first top-level assignment, or
    None. Handles compound ops and skips comparisons."""
    if "operator" in stmt:
        return None
    depth = 0
    i = 0
    n = len(stmt)
    while i < n:
        ch = stmt[i]
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "=" and depth == 0:
            if i + 1 < n and stmt[i + 1] == "=":
                i += 2
                continue
            prev = stmt[i - 1] if i else ""
            prev2 = stmt[i - 2] if i > 1 else ""
            if prev == "!":
                i += 1
                continue
            if prev in "<>":
                if prev2 == prev:  # <<= / >>=
                    return (i - 2, i + 1)
                i += 1
                continue
            if prev in "+-*/%&|^":
                return (i - 1, i + 1)
            return (i, i + 1)
        i += 1
    return None


def fieldInfo(prog, cls, field):
    """Annotation kind of Class::field searched through the base
    closure, with a unique-by-name fallback for receivers the token
    frontend cannot type. Returns (kind|None, owner, relpath, line)."""
    for c in (prog.classClosure(cls) if cls else []):
        entry = prog.taint_fields.get((c, field))
        if entry:
            return (entry[0], c, entry[1], entry[2])
    entry = prog.taint_fields.get((None, field))
    if entry:
        return (entry[0], None, entry[1], entry[2])
    if cls is None:
        by_name = prog.taint_fields_by_name.get(field, ())
        if len(by_name) == 1:
            owner = by_name[0][0]
            entry = prog.taint_fields[(owner, field)]
            return (entry[0], owner, entry[1], entry[2])
    return (None, None, None, None)


def fieldTaintFacts(ctx, cls, field):
    """Recorded taint of Class::field (base-closure plus by-name
    fallback for untypable receivers)."""
    out = {}
    keys = [(c, field) for c in
            (ctx.prog.classClosure(cls) if cls else [])]
    keys.append((None, field))
    if cls is None:
        owners = [k for k in ctx.field_taints
                  if k[1] == field and k[0] is not None]
        if len(owners) == 1:
            keys.append(owners[0])
    for k in keys:
        for fk, steps in ctx.field_taints.get(k, {}).items():
            mergeFact(out, fk[0], fk[1], steps)
    return out


def receiverClass(ctx, fn, src, base):
    """Class of `base` for field lookups; EXTERNAL_RECV maps to a
    distinct sentinel so std containers never hit name fallbacks."""
    if base == "this":
        return enclosingClassOf(fn)
    cls = receiverType(ctx.prog, fn, src, base)
    if cls == EXTERNAL_RECV:
        return EXTERNAL_RECV
    return cls


def inMasked(pos, masked):
    return any(a <= pos < b for a, b in masked)


def exprFacts(ctx, fn, src, stmt, lo, hi, stmt_abs, locals_,
              call_results, masked=()):
    """Taint facts of the expression in stmt[lo:hi]: built-in source
    tokens, tainted locals (a chain's base local taints the whole
    chain), annotated/tainted member fields, and the results of calls
    already evaluated for this statement. `masked` spans (the inside
    of sanitize calls) are invisible — their taint was absorbed."""
    facts = {}
    for m in FLOW_TOKEN_RE.finditer(stmt, lo, hi):
        if inMasked(m.start(), masked):
            continue
        line = src.lineOf(stmt_abs + m.start())
        origin = (f"wall-clock/entropy `"
                  f"{re.sub(chr(32), '', m.group(0))}` "
                  f"({fn.relpath}:{line})")
        mergeFact(facts, "C", origin, ())
    for pos, res in call_results.items():
        if lo <= pos < hi and not inMasked(pos, masked):
            for (k, i2), steps in res.items():
                mergeFact(facts, k, i2, steps)
    for m in CHAIN_RE.finditer(stmt, lo, hi):
        if inMasked(m.start(), masked):
            continue
        prev = stmt[m.start() - 1] if m.start() else ""
        if prev == "." or (prev == ">" and
                           stmt[m.start() - 2:m.start()] == "->"):
            continue  # mid-chain fragment of an earlier match
        after = m.end()
        while after < len(stmt) and stmt[after].isspace():
            after += 1
        parts = re.findall(r"[A-Za-z_]\w*", m.group(0))
        base = parts[0]
        if base in KEYWORDS or base in STMT_KEYWORDS or base == "std":
            continue
        if after < len(stmt) and stmt[after] == "(":
            continue  # a call; flowCalls evaluated it
        if base in locals_:
            for (k, i2), steps in locals_[base].items():
                mergeFact(facts, k, i2, steps)
        if len(parts) > 1:
            cls = receiverClass(ctx, fn, src, base)
            if cls != EXTERNAL_RECV:
                mergeFieldRead(ctx, facts, cls, parts[-1])
        elif base not in locals_:
            cls = enclosingClassOf(fn)
            mergeFieldRead(ctx, facts, cls, base)
    return facts


def mergeFieldRead(ctx, facts, cls, field):
    kind, owner, rel, line = fieldInfo(ctx.prog, cls, field)
    if kind == "source":
        disp = f"{owner}::{field}" if owner else field
        origin = (f"measured field `{disp}` [SIEVE_TAINT_SOURCE] "
                  f"({rel}:{line})")
        mergeFact(facts, "C", origin, ())
    for (k, i2), steps in fieldTaintFacts(ctx, cls, field).items():
        mergeFact(facts, k, i2, steps)


def flowFinding(ctx, fn, src, line, origin, steps, sink_label):
    if src.allowedSpan(line, line, FLOW_RULE):
        return
    chain = " -> ".join(list(steps) + [sink_label])
    ctx.findings.append(Finding(
        fn.relpath, line, FLOW_RULE,
        f"measured/nondeterministic data reaches a decision sink: "
        f"{origin} -> {chain}"))


def fieldWrite(ctx, fn, src, summary, line, cls, field, rhs_facts,
               snippet):
    """A tainted value assigned into Class::field: finding if the
    field is a sink, deliberate-flow record if it is a source (the
    lintable measured->report columns), otherwise a recorded member
    taint that future reads pick up."""
    kind, owner, drel, dline = fieldInfo(ctx.prog, cls, field)
    disp = f"{owner or cls or '?'}::{field}"
    step = f"{fn.relpath}:{line}: {snippet}"
    if kind == "sink":
        label = (f"model-side field `{disp}` [SIEVE_TAINT_SINK] "
                 f"(declared {drel}:{dline})")
        for (k, i2), steps in rhs_facts.items():
            if k == "C":
                flowFinding(ctx, fn, src, line, i2,
                            list(steps) + [step], label)
            else:
                summary.param_sinks.setdefault(i2, {}).setdefault(
                    label, tuple(steps) + (step,))
        return
    if kind == "source":
        for (k, i2), steps in rhs_facts.items():
            if k == "C":
                chain = " -> ".join(list(steps) + [step])
                ctx.deliberate.add(
                    f"{i2} -> {chain} -> measured column `{disp}`")
        return
    key = (owner or cls, field)
    dest = ctx.field_taints.setdefault(key, {})
    for (k, i2), steps in rhs_facts.items():
        if k == "C":
            mergeFact(dest, k, i2, tuple(steps) + (step,))
        else:
            summary.param_fields.setdefault(i2, {}).setdefault(
                key, tuple(steps) + (step,))
    if not dest:
        del ctx.field_taints[key]


def flowCallKinds(ctx, fn, src, name, kind, recv, targets):
    """Annotation kinds attached to a call: from resolved target
    definitions, from the declaration registry keyed by receiver /
    enclosing class (covers pure-virtual decls), with a bare-call
    name fallback."""
    kinds = set()
    for t in targets:
        if t.sanitize:
            kinds.add("sanitize")
        if t.taint_source:
            kinds.add("source")
        if t.taint_sink:
            kinds.add("sink")
    cls = None
    external = False
    if kind == "member" and recv:
        cls = receiverClass(ctx, fn, src, recv)
        external = cls == EXTERNAL_RECV
    elif kind == "qualified" and recv:
        cls = ctx.prog.resolveClass(recv)
    elif kind in ("bare", "member"):
        cls = enclosingClassOf(fn)
    if not external:
        probe = (ctx.prog.classClosure(cls) if cls and
                 cls != EXTERNAL_RECV else [])
        for c in probe + [None]:
            kinds |= ctx.prog.flow_fns.get((c, name), set())
        if not kinds and not targets and kind != "member":
            kinds |= ctx.prog.flow_fns_by_name.get(name, set())
        # Virtual dispatch: a target class's base may carry the
        # contract even when the receiver resolved to the derived.
        if not kinds:
            for t in targets:
                tcls = enclosingClassOf(t)
                for c in (ctx.prog.classClosure(tcls)
                          if tcls else []):
                    kinds |= ctx.prog.flow_fns.get((c, name), set())
    return kinds, cls


def builtinSource(name):
    return name in FLOW_SOURCE_CALLS or \
        any(name.startswith(p) for p in FLOW_SOURCE_PREFIXES)


def flowCalls(ctx, fn, src, stmt, stmt_abs, locals_, summary):
    """Evaluate every call in the statement innermost-first:
    sink-argument checks, source result/out-param tainting, sanitizer
    absorption, and summary application for in-tree callees. Returns
    ({callee-name offset: result facts}, sanitized spans) for
    expression evaluation."""
    call_results = {}
    masked = []
    matches = list(CALL_RE.finditer(stmt))
    for m in sorted(matches, key=lambda mm: -mm.start(1)):
        name = m.group(1)
        if name in KEYWORDS or name in CONTRACT_MACROS or \
                name in FLOW_ATTR_KIND or \
                (name.isupper() and name.startswith("SIEVE_")):
            continue
        kind, recv = callContext(stmt, m.start(1))
        if kind == "decl":
            continue
        open_p = m.end() - 1
        close = matchParen(stmt, open_p)
        if close < 0:
            close = len(stmt)
        arg_area = stmt[open_p + 1:close]
        arg_facts = []
        arg_texts = []
        if arg_area.strip():
            for (a, b) in splitTopLevelSpans(arg_area):
                lo = open_p + 1 + a
                hi = open_p + 1 + b
                arg_texts.append(stmt[lo:hi])
                arg_facts.append(exprFacts(
                    ctx, fn, src, stmt, lo, hi, stmt_abs, locals_,
                    call_results, masked))
        line = src.lineOf(stmt_abs + m.start(1))
        targets = resolveCall(ctx.prog, fn, src, name, kind, recv)
        kinds, rcls = flowCallKinds(ctx, fn, src, name, kind, recv,
                                    targets)
        result = {}
        if "sanitize" in kinds:
            disp = targets[0].qual if targets else \
                (f"{rcls}::{name}" if rcls and rcls != EXTERNAL_RECV
                 else name)
            for af in arg_facts:
                for (k, i2), steps in af.items():
                    if k == "C":
                        ctx.boundaries.add(
                            f"{disp} ({fn.relpath}:{line}) "
                            f"[SIEVE_FLOW_SANITIZE] absorbed: {i2}")
            # The absorbed span becomes invisible to every later
            # reader of this statement (outer calls, the assignment
            # RHS): the sanitizer's result is clean by definition.
            masked.append((m.start(1), close + 1))
        elif "source" in kinds or (not targets and
                                   builtinSource(name)):
            if "source" in kinds:
                disp = targets[0].qual if targets else \
                    (f"{rcls}::{name}" if rcls and
                     rcls != EXTERNAL_RECV else name)
                origin = (f"measured source `{disp}(...)` "
                          f"[SIEVE_TAINT_SOURCE] called at "
                          f"{fn.relpath}:{line}")
            else:
                origin = (f"primitive source `{name}(...)` "
                          f"({fn.relpath}:{line})")
            ctx.source_labels.add(origin.split(" called at")[0])
            mergeFact(result, "C", origin, ())
            # Writable arguments (latency out-param spans) become
            # tainted — known locals only. A member buffer filled by
            # a source must carry its own SIEVE_TAINT_SOURCE field
            # annotation (Appliance::stage_lat_ does): tainting every
            # argument identifier of the enclosing class would smear
            # const inputs and count members with measured taint.
            for at in arg_texts:
                for ident in re.findall(r"[A-Za-z_]\w*", at):
                    if ident in KEYWORDS or \
                            ident in FLOW_OUTPARAM_SKIP or \
                            ident in ctx.prog.class_spans or \
                            ident in ctx.prog.by_name:
                        continue
                    if ident in locals_:
                        mergeFact(locals_[ident], "C", origin, ())
        elif "sink" in kinds:
            disp = targets[0].qual if targets else \
                (f"{rcls}::{name}" if rcls and rcls != EXTERNAL_RECV
                 else name)
            label = f"sink `{disp}(...)` [SIEVE_TAINT_SINK]"
            ctx.sink_labels.add(label)
            for ai, af in enumerate(arg_facts):
                step = (f"{fn.relpath}:{line}: argument {ai + 1} of "
                        f"{disp}(...)")
                for (k, i2), steps in af.items():
                    if k == "C":
                        flowFinding(ctx, fn, src, line, i2,
                                    list(steps) + [step], label)
                    else:
                        summary.param_sinks.setdefault(
                            i2, {}).setdefault(
                                label, tuple(steps) + (step,))
        elif targets:
            for t in targets:
                ts = ctx.summaries.get(t.key())
                if ts is None:
                    continue
                call_step = f"{fn.relpath}:{line}: call to {t.qual}"
                for (_k, origin), steps in ts.ret.items():
                    mergeFact(result, "C", origin,
                              tuple(steps) + (call_step,))
                for idx, rsteps in ts.ret_params.items():
                    if idx < len(arg_facts):
                        for (k, i2), s in arg_facts[idx].items():
                            mergeFact(result, k, i2,
                                      tuple(s) + (call_step,) +
                                      tuple(rsteps))
                for idx, sinks in ts.param_sinks.items():
                    if idx >= len(arg_facts):
                        continue
                    for label, ssteps in sinks.items():
                        for (k, i2), s in arg_facts[idx].items():
                            full = tuple(s) + (call_step,) + \
                                tuple(ssteps)
                            if k == "C":
                                flowFinding(ctx, fn, src, line, i2,
                                            list(full), label)
                            else:
                                summary.param_sinks.setdefault(
                                    i2, {}).setdefault(label, full)
                for idx, fields in ts.param_fields.items():
                    if idx >= len(arg_facts):
                        continue
                    for fkey, fsteps in fields.items():
                        for (k, i2), s in arg_facts[idx].items():
                            full = tuple(s) + (call_step,) + \
                                tuple(fsteps)
                            if k == "C":
                                dest = ctx.field_taints.setdefault(
                                    fkey, {})
                                mergeFact(dest, "C", i2, full)
                            else:
                                summary.param_fields.setdefault(
                                    i2, {}).setdefault(fkey, full)
        else:
            ctx.unknown[name] += 1
        call_results[m.start(1)] = result
    return call_results, masked


def processStatement(ctx, fn, src, summary, stmt, stmt_abs, locals_):
    call_results, masked = flowCalls(ctx, fn, src, stmt, stmt_abs,
                                     locals_, summary)
    lstripped = stmt.lstrip()
    if lstripped.startswith("return"):
        facts = exprFacts(ctx, fn, src, stmt, 0, len(stmt), stmt_abs,
                          locals_, call_results, masked)
        for (k, i2), steps in facts.items():
            if k == "C":
                mergeFact(summary.ret, "C", i2, steps)
            elif i2 not in summary.ret_params:
                summary.ret_params[i2] = tuple(steps)
        return
    asn = findAssign(stmt)
    if asn is None:
        return
    lhs_end, rhs_start = asn
    rhs_facts = exprFacts(ctx, fn, src, stmt, rhs_start, len(stmt),
                          stmt_abs, locals_, call_results, masked)
    if not rhs_facts:
        return
    lhs_clean = removeBracketGroups(stmt[:lhs_end])
    lm = re.search(
        r"([A-Za-z_]\w*)((?:\s*(?:->|\.)\s*[A-Za-z_]\w*)*)\s*$",
        lhs_clean)
    if lm is None:
        return
    base = lm.group(1)
    fields = re.findall(r"[A-Za-z_]\w*", lm.group(2))
    line = src.lineOf(stmt_abs + lhs_end)
    snippet = re.sub(r"\s+", " ", stmt.strip())[:48]
    if fields:
        cls = receiverClass(ctx, fn, src, base)
        if cls == EXTERNAL_RECV:
            return
        fieldWrite(ctx, fn, src, summary, line, cls, fields[-1],
                   rhs_facts, snippet)
        return
    is_decl = len(re.findall(r"[A-Za-z_]\w*", lhs_clean)) > 1
    if base in locals_ or is_decl or "::" not in fn.qual:
        dest = locals_.setdefault(base, {})
        step = f"{fn.relpath}:{line}: {snippet}"
        for (k, i2), steps in rhs_facts.items():
            mergeFact(dest, k, i2, tuple(steps) + (step,))
    else:
        fieldWrite(ctx, fn, src, summary, line, enclosingClassOf(fn),
                   base, rhs_facts, snippet)


def analyzeFlowFunction(ctx, fn):
    if fn.line_based or fn.sanitize:
        return
    src = ctx.prog.sources.get(fn.relpath)
    if src is None or fn.body_end <= fn.body_start:
        return
    summary = ctx.summaries.setdefault(fn.key(), FlowSummary())
    locals_ = {}
    for idx, p in enumerate(fn.params):
        if p:
            locals_[p] = {("P", idx): ()}
    body = src.text[fn.body_start:fn.body_end]
    # Register paren-depth and initializer-less declarations up front
    # so loop variables, catch clauses, lambda params, and local
    # arrays resolve as (clean) locals rather than member fields.
    for dm in FLOW_DECL_SCAN_RE.finditer(body):
        if dm.group(1) in FLOW_DECL_SKIP or dm.group(1) in KEYWORDS:
            continue
        name = dm.group(2)
        if name not in FLOW_DECL_SKIP and name not in KEYWORDS:
            locals_.setdefault(name, {})
    for bm in FLOW_BINDING_RE.finditer(body):
        for name in re.findall(r"[A-Za-z_]\w*", bm.group(1)):
            locals_.setdefault(name, {})
    # Two sweeps per fixpoint round so loop-carried locals converge.
    for _sweep in range(2):
        for off, stmt in iterStatements(body):
            processStatement(ctx, fn, src, summary, stmt,
                             fn.body_start + off, locals_)


def checkTaintFlow(prog, findings, report):
    ctx = FlowContext(prog)
    for (cls, name), kinds in sorted(
            prog.flow_fns.items(),
            key=lambda kv: (str(kv[0][0]), kv[0][1])):
        disp = f"{cls}::{name}" if cls else name
        rel, line = prog.flow_decl_site.get((cls, name), ("?", 0))
        if "source" in kinds:
            ctx.source_labels.add(f"`{disp}` ({rel}:{line})")
        if "sink" in kinds:
            ctx.sink_labels.add(f"`{disp}` ({rel}:{line})")
    for (cls, field), (kind, rel, line) in prog.taint_fields.items():
        disp = f"{cls}::{field}" if cls else field
        if kind == "source":
            ctx.source_labels.add(f"field `{disp}` ({rel}:{line})")
        else:
            ctx.sink_labels.add(f"field `{disp}` ({rel}:{line})")
    iterations = 0
    prev = None
    for iterations in range(1, 21):
        ctx.beginIteration()
        for fn in prog.functions:
            analyzeFlowFunction(ctx, fn)
        shape = ctx.shape()
        if shape == prev:
            break
        prev = shape
    uniq = {}
    for f in ctx.findings:
        uniq.setdefault((f.path, f.line, f.rule), f)
    findings.extend(uniq.values())
    report[FLOW_RULE] = {
        "sources": sorted(ctx.source_labels),
        "sinks": sorted(ctx.sink_labels),
        "boundaries": sorted(ctx.boundaries),
        "deliberate": sorted(ctx.deliberate),
        "unknown": ctx.unknown,
        "iterations": iterations,
        "functions": sum(1 for fn in prog.functions
                         if not fn.line_based),
    }


# --------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------

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


def runAnalyze(root, relpaths, backend, db_path, report):
    prog = None
    used = "text"
    if backend in ("clang", "auto"):
        prog = loadProgramClang(root, relpaths, db_path)
        if prog is not None:
            used = "clang"
        elif backend == "clang":
            print("sieve-analyze: clang backend unavailable "
                  "(python3-clang not importable or parse failed)",
                  file=sys.stderr)
            return None, used
    if prog is None:
        prog = loadProgramText(root, relpaths)
    findings = []
    checkReachability(prog, "no-alloc", findings, report)
    checkReachability(prog, "determinism", findings, report)
    checkLockDiscipline(prog, findings)
    checkStaleMayAlloc(prog, findings)
    # Name-based resolution visits every same-named overload, so the
    # same defect can be reported once per path; dedupe on location.
    uniq = {}
    for f in findings:
        uniq.setdefault((f.path, f.line, f.rule), f)
    return list(uniq.values()), used


def runFlow(root, relpaths, backend, db_path, report):
    """sieve-flow driver. The dataflow engine needs statement-level
    text spans, so it always runs on the token program; the clang
    backend contributes AST-verified annotation facts (the annotate
    attributes libclang parses from util/flow_annotations.hpp),
    overlaid onto the token program by (file, qualified name). When
    --backend clang is forced and libclang is absent this hard-fails,
    matching runAnalyze."""
    prog = loadProgramText(root, relpaths)
    used = "text"
    if backend in ("clang", "auto"):
        cprog = loadProgramClang(root, relpaths, db_path)
        if cprog is not None:
            used = "clang"
            flagged = {}
            for fn in cprog.functions:
                if fn.taint_source or fn.taint_sink or fn.sanitize:
                    flagged[(fn.relpath, fn.qual)] = fn
            for fn in prog.functions:
                c = flagged.get((fn.relpath, fn.qual))
                if c is not None:
                    fn.taint_source |= c.taint_source
                    fn.taint_sink |= c.taint_sink
                    fn.sanitize |= c.sanitize
        elif backend == "clang":
            print("sieve-analyze: clang backend unavailable "
                  "(python3-clang not importable or parse failed)",
                  file=sys.stderr)
            return None, used
    findings = []
    checkTaintFlow(prog, findings, report)
    return findings, used


def printReport(report, used):
    print(f"sieve-analyze report (backend: {used})")
    for rule in ("no-alloc", "determinism"):
        info = report.get(rule)
        if not info:
            continue
        print(f"  [{rule}] {len(info['roots'])} roots, "
              f"{info['reachable']} reachable functions, "
              f"{len(info['boundaries'])} boundaries")
        for label in info["roots"]:
            print(f"    root: {label}")
        for (where, why, path) in info["boundaries"]:
            print(f"    boundary [{why}]: {path}")
        if info["unknown"]:
            top = info["unknown"].most_common(8)
            names = ", ".join(f"{n}({c})" for n, c in top)
            print(f"    unresolved (assumed clean): "
                  f"{sum(info['unknown'].values())} call sites "
                  f"across {len(info['unknown'])} names; top: "
                  f"{names}")
    info = report.get(FLOW_RULE)
    if info:
        print(f"  [{FLOW_RULE}] {len(info['sources'])} sources, "
              f"{len(info['sinks'])} sinks, "
              f"{info['functions']} functions, fixpoint in "
              f"{info['iterations']} iteration(s)")
        for label in info["sources"]:
            print(f"    source: {label}")
        for label in info["sinks"]:
            print(f"    sink: {label}")
        for b in info["boundaries"]:
            print(f"    boundary [SIEVE_FLOW_SANITIZE]: {b}")
        for d in info["deliberate"]:
            print(f"    deliberate measured->report flow: {d}")
        if info["unknown"]:
            top = info["unknown"].most_common(8)
            names = ", ".join(f"{n}({c})" for n, c in top)
            print(f"    unresolved (assumed clean): "
                  f"{sum(info['unknown'].values())} call sites "
                  f"across {len(info['unknown'])} names; top: "
                  f"{names}")


def selfTest(root, backend, db_path):
    """Fixture check for BOTH engines: the standard rules run on
    scripts/lint_fixtures/analyze/ (minus the flow/ subdirectory) and
    sieve-flow runs on analyze/flow/; every `// analyze-expect`
    marker must be reproduced exactly, nothing else."""
    relpaths = collectCppFiles(root, (FIXTURE_DIR,))
    if not relpaths:
        print(f"sieve-analyze: no fixtures under "
              f"{os.path.join(root, FIXTURE_DIR)}", file=sys.stderr)
        return 1
    flow_marker = os.sep + "flow" + os.sep
    std_rel = [r for r in relpaths if flow_marker not in r]
    flow_rel = [r for r in relpaths if flow_marker in r]
    report = {}
    findings, used = runAnalyze(root, std_rel, backend, db_path,
                                report)
    if findings is None:
        return 1
    if flow_rel:
        flow_findings, _fused = runFlow(root, flow_rel, backend,
                                        db_path, report)
        if flow_findings is None:
            return 1
        findings = findings + flow_findings
    expected = []
    for rel in relpaths:
        with open(os.path.join(root, rel),
                  encoding="utf-8", errors="replace") as f:
            for m in EXPECT_RE.finditer(f.read()):
                expected.append((rel, m.group(1)))
    got = [(f.path, f.rule) for f in findings]
    if sorted(expected) != sorted(got):
        print("sieve-analyze self-test FAILED", file=sys.stderr)
        print(f"  expected: {sorted(expected)}", file=sys.stderr)
        print(f"  got:      {sorted(got)}", file=sys.stderr)
        for f in findings:
            print(f"  {f}", file=sys.stderr)
        return 1
    # Every reported path must actually name a call chain, not just a
    # location — the acceptance bar is "fails with a reported path".
    # lock-discipline and stale-may-alloc findings are single-site
    # facts with no chain to print.
    for f in findings:
        if "->" not in f.message and f.rule not in (
                "lock-discipline", "stale-may-alloc"):
            print("sieve-analyze self-test FAILED: finding without "
                  f"a call path: {f}", file=sys.stderr)
            return 1
    print(f"sieve-analyze self-test OK ({len(relpaths)} fixtures, "
          f"{len(expected)} expected findings reproduced, "
          f"backend: {used})")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="SieveStore call-graph hot-path analyzer")
    parser.add_argument("--root", default=REPO,
                        help="repository root (default: inferred)")
    parser.add_argument("--backend",
                        choices=("text", "clang", "auto"),
                        default="text",
                        help="program-model frontend")
    parser.add_argument("--compile-db", default=None,
                        help="compile_commands.json for the clang "
                             "backend (default: build/ if present)")
    parser.add_argument("--report", action="store_true",
                        help="print roots/boundaries/trust-base "
                             "summary")
    parser.add_argument("--flow", action="store_true",
                        help="run sieve-flow (the taint-flow rule) "
                             "instead of the reachability rules")
    parser.add_argument("--sarif", default=None, metavar="OUT",
                        help="also write findings as SARIF 2.1.0")
    parser.add_argument("--self-test", action="store_true",
                        help="run against scripts/lint_fixtures/"
                             "analyze/")
    parser.add_argument("paths", nargs="*",
                        help="files to analyze (default: src/)")
    opts = parser.parse_args()

    db_path = opts.compile_db
    if db_path is None:
        candidate = os.path.join(opts.root, "build",
                                 "compile_commands.json")
        if os.path.isfile(candidate):
            db_path = candidate

    if opts.self_test:
        return selfTest(opts.root, opts.backend, db_path)

    if opts.paths:
        relpaths = [os.path.relpath(os.path.abspath(p), opts.root)
                    for p in opts.paths]
    else:
        relpaths = collectCppFiles(opts.root, SCAN_DIRS)

    report = {}
    run = runFlow if opts.flow else runAnalyze
    findings, used = run(opts.root, relpaths, opts.backend,
                         db_path, report)
    if findings is None:
        return 1
    if opts.report:
        printReport(report, used)
    if opts.sarif:
        from sieve_lint import writeSarif
        writeSarif(opts.sarif,
                   "sieve-flow" if opts.flow else "sieve-analyze",
                   RULES,
                   [(f.path, f.line, f.rule, f.message)
                    for f in findings])
    for f in sorted(findings, key=lambda f: (f.path, f.line, f.rule)):
        print(f)
    what = "sieve-flow" if opts.flow else "sieve-analyze"
    if findings:
        print(f"{what}: {len(findings)} finding(s) in "
              f"{len(relpaths)} files", file=sys.stderr)
        return 1
    print(f"{what}: all claims proven "
          f"({len(relpaths)} files, backend: {used})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
