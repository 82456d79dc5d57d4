#!/usr/bin/env python3
"""catch_analyze — the repo's static contract checker.

The simulator's headline guarantees are bitwise determinism (any job
count, any machine), an allocation-free per-cycle loop, stats-free
functional warming and paper-faithful bookkeeping. All are easy to
break with one careless line that compiles fine and passes a lucky
test run. This checker enforces them with two kinds of rule.

Call-graph rules build a qualified-name call graph across every TU
(clang or text frontend, below) and check *reachability*:

  step-alloc
      No allocation (operator new, container growth, make_unique /
      make_shared) is reachable from the per-cycle entry points
      (OooCore::step, Frontend::fetchCycle, Cache::lookup/fill,
      Dram::read/write, FastForward::warm, ...) through any call
      chain. Setup-time functions (bind*/rewind/reset*, constructors,
      destructors) are not traversed: they may size structures.
  warming-purity
      Nothing reachable from the functional-warming entry points
      (FastForward::warm, CacheHierarchy::warmAccess) mutates a stats
      object or calls into the timing model (Dram::*, BusyTimeline::*,
      IssueCalendar::*, OooCore::*).
  snapshot-hot-path
      No warmed-state serialization (any saveWarmState/loadWarmState,
      the warmFields field lists behind them, or the page-image half:
      snapshotPages/restorePages) is reachable from the per-cycle
      entry points.
  warm-digest
      Every config field read on the warming-reachable call graph
      (`cfg.x` / `cfg_.x` member reads; text frontend only) must
      appear in warmConfigDigest() (src/sim/warm_state.cc), so a knob
      that can shape warmed state is never silently excluded from the
      snapshot key. Repos without a digest skip the rule.
  unordered-iter
      Range-for iteration over std::unordered_* containers in src/,
      including containers declared through a type alias and
      range-fors over a dereferenced (smart) pointer to one.
  global-state
      Non-const namespace-scope variables in src/.

Line and file rules read the files directly, whatever the frontend:

  determinism   no std::rand/srand/random_device and no wall-clock or
                steady-clock read anywhere in src/, including through
                type aliases (`using Clk = std::chrono::steady_clock;`
                in one header, `Clk::now()` in another file), which the
                call-graph IR resolves.
  env-gateway   no direct std::getenv in src/ outside
                src/common/env.hh.
  raw-new-delete no `new`/`delete` expressions in src/ (`= delete`
                declarations are fine).
  fatal-boundary no CATCHSIM_FATAL/CATCHSIM_PANIC, fatalAt/panicAt or
                std::exit/abort in src/; recoverable failures return
                SimError/Expected (common/error.hh). CATCHSIM_ASSERT
                stays allowed.
  include-cc    no `#include "*.cc"` in src/, tests/, bench/, tools/
                or examples/.
  stats-once    JSON stat keys in src/ are registered once per object
                scope (JsonWriter open/close/field/object sequences and
                `io.u64("k", ...)` field lists, with
                `io.object("k", [..](auto &o) {...})` scoped to the
                lambda body).
  test-coverage every *.cc under src/ is referenced by tests/: some
                test includes the header it implements (same-stem .hh,
                else a same-directory .hh it includes).

Two frontends produce the same call-graph IR:

  clang  parses `clang++ -Xclang -ast-dump=json` for every src/ TU in
         compile_commands.json. Extracted per-TU IR is cached keyed on
         (clang version, command, TU content, src-header digest).
  text   a pure-python scanner over the repo house style (return type
         on its own line, qualified function names at column 0,
         members declared in headers). No toolchain needed; this is
         what ctest runs, and the fallback when clang is absent.

Known limits (documented in docs/ANALYSIS.md): virtual dispatch and
function pointers are not resolved; the text frontend drops member-call
edges whose receiver type it cannot infer and does not model operator
overloads; allocation detection covers explicit growth calls and
new/make_*, not std::string temporaries.

Waivers (all require a reason a reviewer can check):
  inline      `// catch-analyze: allow(<rule>)` on the offending line
              or on its own comment line directly above.
  file-level  `<rule> <repo-relative-path>  # reason` in
              tools/analysis/waivers.txt
  boundary    `<rule> boundary:<Qualified::Name>  # reason` in
              tools/analysis/waivers.txt: a call-graph rule's
              traversal stops at that function.

`--check-waivers` fails when any waiver no longer suppresses anything.

Exit status: 0 clean, 1 findings, 2 setup error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

EXTRACTOR_VERSION = "1"  # bump to invalidate cached clang IR

INLINE_WAIVER_RE = re.compile(
    r"catch-analyze:\s*allow\(([a-z\-]+(?:\s*,\s*[a-z\-]+)*)\)")
WAIVER_FILE = "tools/analysis/waivers.txt"

# Line and file rules scan these trees; the checker's own fixtures hold
# deliberate violations and are checked by their own --root runs.
SRC_EXTS = {".cc", ".hh", ".cpp", ".hpp", ".h"}
LINE_RULE_TOPS = ("src", "tests", "bench", "tools", "examples")
FIXTURE_DIR = "tests/analysis/fixtures"

SETUP_FUNC_RE = re.compile(r"^(bind\w*|rewind|reset\w*)$")

# Per-cycle entry points: one detailed step, one warm step, and the
# module-level operations those invoke per instruction. Names missing
# from the graph are ignored (the list survives refactors gracefully;
# --list-entries shows what resolved).
STEP_ENTRY_POINTS = (
    "OooCore::step",
    "Frontend::fetchCycle",
    "Frontend::redirect",
    "Cache::lookup",
    "Cache::fill",
    "Cache::warmFill",
    "CacheHierarchy::load",
    "CacheHierarchy::storeCommit",
    "CacheHierarchy::codeFetch",
    "CacheHierarchy::warmAccess",
    "Dram::read",
    "Dram::write",
    "FastForward::warm",
)
# warmPrefetch is also reached through TACT's std::function prefetch
# callback, which the call graph cannot follow.
WARM_ENTRY_POINTS = (
    "FastForward::warm",
    "CacheHierarchy::warmAccess",
    "CacheHierarchy::warmPrefetch",
)
# The timing model, off-limits from the warming path.
TIMING_MODEL_RE = re.compile(
    r"^(Dram|BusyTimeline|IssueCalendar|OooCore)::")

# Warmed-state serialization, off-limits from the per-cycle path: the
# section serializers, the warmFields field list each one runs, and the
# page-image half of a snapshot, which travels through snapshotPages/
# restorePages (copy-on-write handles). All are run-boundary
# operations.
SNAPSHOT_FUNC_RE = re.compile(
    r"::(saveWarmState|loadWarmState|warmFields|snapshotPages|"
    r"restorePages)$")

# A config-member read (`cfg.a.b` / `cfg_.x`); group 2 is the leaf
# field, group 3 nonempty when it is a method call (derived value, not
# a stored knob — its inputs are fields tracked at their own reads).
CFG_READ_RE = re.compile(r"\bcfg_?\s*\.\s*((?:\w+\s*\.\s*)*)(\w+)\s*(\()?")

# Where the snapshot-key digest lives; repos without it skip warm-digest.
DIGEST_FILE = "src/sim/warm_state.cc"

ALLOC_MEMBER_RE = re.compile(
    r"[.\->]\s*(push_back|emplace_back|emplace|emplace_front|"
    r"emplace_hint|insert|insert_or_assign|try_emplace|resize|reserve|"
    r"assign|push_front|append)\s*\(")
ALLOC_MAKE_RE = re.compile(r"\bmake_(unique|shared)\s*[<(]")
ALLOC_NEW_RE = re.compile(r"[^_\w]new\s+[A-Za-z_:<(]")
ALLOC_NAMES = frozenset((
    "push_back", "emplace_back", "emplace", "emplace_front",
    "emplace_hint", "insert", "insert_or_assign", "try_emplace",
    "resize", "reserve", "assign", "push_front", "append",
))

STATS_WRITE_RE = re.compile(
    r"\b(?:this->)?stats_?\b\s*(?:\[[^\]]*\])?\s*(?:\.|->)\s*"
    r"[A-Za-z_][\w.\[\]]*\s*(?:\+\+|--|[-+*/|&^]?=(?!=))"
    r"|(?:\+\+|--)\s*(?:this->)?stats_?\b")

CLOCK_TYPE_RE = re.compile(
    r"\b(system_clock|steady_clock|high_resolution_clock|file_clock|"
    r"utc_clock|tai_clock|gps_clock|random_device)\b")

# A declaration: (qualified, possibly templated) type, pointer or
# reference marks, name. Matched loosely; only declarations whose type
# resolves through the alias table to an unordered container matter.
DECL_RE = re.compile(
    r"((?:\b[A-Za-z_]\w*\s*::\s*)*\b[A-Za-z_]\w*\s*(?:<[^;{}()]*>)?)"
    r"\s*([*&]*)\s*\b([A-Za-z_]\w*)\s*(?=[;{=,)\[])")
UNORDERED_HEAD_RE = re.compile(r"unordered_(?:map|set|multimap|multiset)\b")
SMART_PTR_RE = re.compile(r"(?:shared_ptr|unique_ptr)\s*<(.*)>$")
RANGE_FOR_RE = re.compile(
    r"\bfor\s*\(\s*[^;()]*?:\s*\(?\s*"
    r"(\*?\s*[A-Za-z_][\w.\->\[\]]*)\s*\)")

# Line rules. `determinism` also takes the alias-resolved clock events
# of the call-graph IR.
DETERMINISM_BANNED = [
    (re.compile(r"\bstd::rand\b|[^_\w]s?rand\s*\("), "libc rand/srand"),
    (re.compile(r"\brandom_device\b"), "std::random_device (unseeded entropy)"),
    (re.compile(r"\b(system_clock|steady_clock|high_resolution_clock)\b"),
     "wall-clock/monotonic clock read"),
    (re.compile(r"\b(gettimeofday|clock_gettime|timespec_get)\s*\("),
     "libc time read"),
    (re.compile(r"[^_\w]time\s*\(\s*(NULL|nullptr|0)\s*\)"), "time()"),
]
FATAL_BOUNDARY_BANNED = [
    (re.compile(r"\bCATCHSIM_(FATAL|PANIC)\b"),
     "CATCHSIM_FATAL/CATCHSIM_PANIC"),
    (re.compile(r"\b(fatalAt|panicAt|fatalImpl|panicImpl)\s*\("),
     "fatal/panic helper call"),
    (re.compile(r"\b(?:std::)?(exit|abort|_Exit|quick_exit)\s*\("),
     "process-terminating call"),
]
GETENV_RE = re.compile(r"\b(?:std::)?getenv\s*\(")
DELETE_RE = re.compile(r"[^_\w]delete(\s*\[\s*\])?\s+[A-Za-z_:(*]")
INCLUDE_CC_RE = re.compile(r'#\s*include\s*["<][^">]*\.cc[">]')
INCLUDE_RE = re.compile(r'#\s*include\s*"([^"]+)"')
WRITER_CALL_RE = re.compile(
    r"""[.\->]\s*(open|close|object|field|key|u64|u32|f64|str|boolean|"""
    r"""u64Array|enumeration|derived)\s*\(\s*(?:"([^"]*)")?"""
)

USING_ALIAS_RE = re.compile(r"\busing\s+([A-Za-z_]\w*)\s*=\s*([^;]+);")
TYPEDEF_RE = re.compile(r"\btypedef\s+([^;]+?)\s+([A-Za-z_]\w*)\s*;")

KW_NOT_FUNCS = frozenset((
    "if", "for", "while", "switch", "catch", "do", "else", "try",
    "return", "sizeof", "alignof", "decltype", "noexcept",
    "static_assert", "defined", "new", "delete", "throw", "case",
    "assert",
))
CAST_NAMES = frozenset((
    "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
))
# Method names so common on std types (atomics, streams, containers)
# that linking an unknown-receiver call to a same-named repo method
# would fabricate edges (e.g. `flag.load()` -> CacheHierarchy::load).
AMBIGUOUS_METHODS = frozenset((
    "load", "store", "read", "write", "get", "reset", "size", "empty",
    "begin", "end", "push", "pop", "front", "back", "at", "clear",
    "data", "swap", "count", "find", "erase", "open", "close", "str",
    "c_str", "lock", "unlock", "wait", "join", "detach", "test",
    "value", "min", "max", "fill", "good", "fail", "eof", "tellg",
    "seekg", "exchange", "notify_one", "notify_all",
))

GLOBAL_SKIP_HEADS = (
    "using", "typedef", "template", "extern", "friend",
    "static_assert", "struct", "class", "enum", "union", "namespace",
    "public", "private", "protected", "case", "goto", "return",
)
GLOBAL_VAR_RE = re.compile(
    r"^(?:(?:static|inline|thread_local)\s+)*"
    r"[A-Za-z_][\w:<>,\s*&]*[\s*&]"
    r"([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?$")


class Func:
    """One function definition (overloads of one qualified name are
    merged: calls and events are unioned, which over-approximates
    safely for reachability)."""

    __slots__ = ("qname", "cls", "name", "file", "line", "calls",
                 "events", "is_setup", "is_ctor")

    def __init__(self, qname, cls, name, file, line):
        self.qname = qname
        self.cls = cls
        self.name = name
        self.file = file
        self.line = line
        # calls: ('free'|'qual', text, line) | ('member', base, m, line)
        #        | ('typed', TypeName, method, line)
        self.calls = []
        # events: (kind, line, detail); kind in
        #   alloc | clock | stats | uiter
        self.events = []
        self.is_setup = bool(SETUP_FUNC_RE.match(name))
        self.is_ctor = (cls is not None and (name == cls
                                             or name == "~" + cls))


class Program:
    """The whole-program IR both frontends produce."""

    def __init__(self):
        self.funcs: dict[str, Func] = {}
        # (file, line, name, detail) for namespace-scope mutable state
        self.globals: list[tuple[str, int, str, str]] = []
        self.aliases: dict[str, str] = {}
        # (name, type text, pointer/reference marks) per declaration
        # anywhere, and per class member; resolved against the alias
        # table once every file is parsed.
        self.decls: list[tuple[str, str, str]] = []
        self.member_decls: dict[str, dict[str, tuple[str, str]]] = {}
        self.member_types: dict[str, dict[str, str]] = {}

    def func(self, qname, cls, name, file, line) -> Func:
        f = self.funcs.get(qname)
        if f is None:
            f = Func(qname, cls, name, file, line)
            self.funcs[qname] = f
        return f

    def banned_aliases(self) -> set[str]:
        """Alias names that (transitively) denote a banned clock or
        entropy type."""
        banned = set()
        for _ in range(4):  # bounded transitive closure
            for name, rhs in self.aliases.items():
                if name in banned:
                    continue
                if CLOCK_TYPE_RE.search(rhs):
                    banned.add(name)
                    continue
                for tok in re.findall(r"[A-Za-z_]\w*", rhs):
                    if tok in banned:
                        banned.add(name)
                        break
        return banned


# ---------------------------------------------------------------------
# Source scanning
# ---------------------------------------------------------------------

def _raw_string_end(text: str, i: int):
    """If text[i] is the opening quote of a raw string literal (the
    caller has already verified the R prefix), return (stop,
    terminated): stop is the index one past the closing quote (or
    len(text) when unterminated). Returns None when this is not a
    raw-string opener after all."""
    om = re.match(r'"([^()\\\s]{0,16})\(', text[i:i + 20])
    if not om:
        return None
    end = text.find(")" + om.group(1) + '"', i + len(om.group(0)))
    if end < 0:
        return len(text), False
    return end + len(om.group(1)) + 2, True


@functools.cache  # the frontend and the line rules strip each file
def strip_comments_and_strings(text: str) -> str:
    """Blank out comment and string-literal contents, preserving line
    structure, column offsets and the quotes themselves, so regexes
    never match inside either. Handles C++ raw string literals
    (`R"delim(...)delim"`, with optional u8/u/U/L prefixes): their
    contents — which may hold unbalanced quotes, `//`, or banned
    tokens — are blanked without desyncing the scanner. Inline
    waivers are read from the original text."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                # Raw string literal?  The quote must be directly
                # preceded by an R prefix (R, LR, uR, UR, u8R) that is
                # itself not the tail of a longer identifier, and
                # followed by `delim(`.
                pm = re.search(r"(?:u8|[uUL])?R\Z", text[max(0, i - 3):i])
                pstart = (max(0, i - 3) + pm.start()) if pm else -1
                plain_prefix = pm and (
                    pstart == 0
                    or not re.match(r"\w", text[pstart - 1]))
                raw = _raw_string_end(text, i) if plain_prefix else None
                if raw is not None:
                    stop, terminated = raw
                    out.append('"')
                    body = text[i + 1:stop - 1] if terminated \
                        else text[i + 1:stop]
                    for ch in body:
                        out.append(ch if ch == "\n" else " ")
                    if terminated:
                        out.append('"')
                    i = stop
                    continue
                state = "str"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state == "str":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "code"
                out.append(c)
            elif c == "\n":  # unterminated; bail to code
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "chr":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == "'":
                state = "code"
                out.append(c)
            elif c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


# ---------------------------------------------------------------------
# Text frontend
# ---------------------------------------------------------------------

def _blank_preprocessor(code: str) -> str:
    out = []
    cont = False
    for line in code.split("\n"):
        if cont or line.lstrip().startswith("#"):
            cont = line.rstrip().endswith("\\")
            out.append("")
        else:
            cont = False
            out.append(line)
    return "\n".join(out)


FUNC_NAME_RE = re.compile(
    r"((?:[A-Za-z_]\w*\s*::\s*)*(?:operator\s*[^\s(]+|~?[A-Za-z_]\w*))"
    r"\s*\(")
CLASS_RE = re.compile(
    r"\b(class|struct|union)\s+([A-Za-z_]\w*)\s*(?:final\s*)?"
    r"(?::[^{]*)?$")
MEMBER_VAR_RE = re.compile(
    r"^(?:(?:static|mutable|const|constexpr|inline)\s+)*"
    r"([A-Za-z_][\w:]*(?:\s*<[^;]*>)?)\s*((?:[&*]\s*)*)"
    r"([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*(?:=[^;]*|\{[^;]*\})?$")
LOCAL_VAR_RE = re.compile(
    r"^\s*(?:const\s+)?([A-Za-z_][\w:]*(?:<[^;()=]*>)?)"
    r"\s*[&*]*\s*([A-Za-z_]\w*)\s*[=;({]")
FREE_CALL_RE = re.compile(
    r"(?<![\w.>:])([A-Za-z_]\w*(?:\s*::\s*[A-Za-z_]\w*)*)\s*\(")
MEMBER_CALL_RE = re.compile(
    r"([A-Za-z_]\w*(?:\[[^\]]*\])?)\s*(?:\.|->)\s*([A-Za-z_]\w*)\s*\(")


def _clean_type(t: str) -> str:
    """Reduce a declared type to the class name that owns the methods
    a member call on it would hit."""
    t = re.sub(r"\b(const|volatile|struct|class|typename|mutable)\b",
               " ", t)
    m = re.search(
        r"\b(?:unique_ptr|shared_ptr|vector|array|deque|optional|"
        r"reference_wrapper)\s*<\s*([A-Za-z_][\w:]*)", t)
    if m:
        t = m.group(1)
    t = re.sub(r"<.*", "", t).strip().rstrip("&* ")
    return t.split("::")[-1].strip()


PARAM_RE = re.compile(
    r"(?:const\s+)?([A-Za-z_][\w:]*(?:\s*<[^<>]*>)?)\s*[&*]*\s*"
    r"([A-Za-z_]\w*)\s*(?:=[^,]*)?$")


def _param_types(sig: str) -> dict[str, str]:
    """Receiver types for function parameters, from the signature text
    accumulated in pass 1 (`Victim fill(Addr addr, bool dirty, ...)`)."""
    o = sig.find("(")
    if o < 0:
        return {}
    depth, close = 0, -1
    for i in range(o, len(sig)):
        if sig[i] == "(":
            depth += 1
        elif sig[i] == ")":
            depth -= 1
            if depth == 0:
                close = i
                break
    if close < 0:
        return {}
    out: dict[str, str] = {}
    part, depth2 = [], 0
    for ch in sig[o + 1:close] + ",":
        if ch in "<([":
            depth2 += 1
        elif ch in ">)]":
            depth2 -= 1
        if ch == "," and depth2 == 0:
            m = PARAM_RE.match(" ".join("".join(part).split()))
            if m and m.group(1) not in ("void",):
                out[m.group(2)] = _clean_type(m.group(1))
            part = []
        else:
            part.append(ch)
    return out


TEMPLATE_HEAD_RE = re.compile(r"\btemplate\s*<([^<>]*)>")


def _template_params(sig: str) -> set[str]:
    """Names a function's template heads declare (`template <typename
    IO, CastField T>` -> {IO, T}). A receiver of one of these types can
    be any class, so its member calls resolve by method name."""
    out: set[str] = set()
    for head in TEMPLATE_HEAD_RE.findall(sig):
        for part in head.split(","):
            words = re.findall(r"[A-Za-z_]\w*", part.split("=", 1)[0])
            if words:
                out.add(words[-1])
    return out


def _classify_block(stmt: str, in_func: bool):
    """Decide what an opening `{` introduces, from the statement text
    accumulated since the previous `;`/`{`/`}`."""
    s = " ".join(stmt.split())
    if in_func or not s:
        return ("block", None)
    if s[-1] in "=,(" or s.endswith("return"):
        return ("block", None)  # brace initializer / lambda-ish
    if re.match(r"^(inline\s+)?namespace\b", s) and "(" not in s:
        m = re.match(r"^(?:inline\s+)?namespace\s*([A-Za-z_]\w*)?", s)
        return ("namespace", m.group(1) if m else None)
    if re.match(r'^extern\s*"', s):
        return ("namespace", None)
    if s.startswith("enum") or re.search(r"\benum\s+(class\s+)?\w*$", s):
        return ("enum", None)
    cm = CLASS_RE.search(s)
    if cm and not s.startswith("enum"):
        return ("class", cm.group(2))
    # The first call-shaped identifier is the function name: the house
    # style puts the return type before it and a constructor
    # initializer list after it, so taking the first match is exact
    # for both.
    for m in FUNC_NAME_RE.finditer(s):
        name = re.sub(r"\s", "", m.group(1))
        last = name.rsplit("::", 1)[-1]
        if last in KW_NOT_FUNCS or last in CAST_NAMES:
            continue
        return ("func", name)
    if "(" in s and s.rstrip().endswith(")"):
        return ("func", None)  # operator or otherwise unnamed
    return ("block", None)


def resolve_type(text: str, aliases: dict[str, str]) -> str:
    """@p text with namespace/class qualifiers dropped and `using` /
    typedef aliases expanded to a fixed point (bounded, so a cyclic
    alias table cannot loop)."""
    unqualify = re.compile(r"\b[A-Za-z_]\w*\s*::\s*")
    t = unqualify.sub("", text)
    for _ in range(8):
        expanded = re.sub(
            r"\b[A-Za-z_]\w*\b",
            lambda m: unqualify.sub("", aliases.get(m.group(0),
                                                    m.group(0))), t)
        if expanded == t:
            break
        t = expanded
    return re.sub(r"\b(?:const|volatile)\b", "", t).strip()


def unordered_kind(type_text: str, marks: str,
                   aliases: dict[str, str]) -> str | None:
    """'container' for an unordered container (or a reference to one),
    'pointer' for a raw or smart pointer to one, else None."""
    t = resolve_type(type_text, aliases)
    while t.endswith(("*", "&")):  # marks inside the alias itself
        marks += t[-1]
        t = t[:-1].strip()
    if UNORDERED_HEAD_RE.match(t):
        return "pointer" if "*" in marks else "container"
    smart = SMART_PTR_RE.match(t)
    if smart and "*" not in marks and \
            UNORDERED_HEAD_RE.match(smart.group(1).strip()):
        return "pointer"
    return None


def range_for_kind(prog: Program, f, target, by_name) -> str | None:
    """unordered_kind() of a range-for target recorded by the text
    frontend: its local or parameter declaration, else the member of
    the enclosing or receiver class, else the name's declarations
    program-wide when they all agree."""
    _, name, recv, local = target
    decl = local
    if decl is None and recv is None:
        decl = prog.member_decls.get(f.cls or "", {}).get(name)
    elif decl is None:
        rname, rtype = recv
        rtype = rtype or prog.member_types.get(f.cls or "", {}).get(rname)
        if rtype:
            cls = _clean_type(resolve_type(rtype, prog.aliases))
            decl = prog.member_decls.get(cls, {}).get(name)
    if decl is not None:
        return unordered_kind(decl[0], decl[1], prog.aliases)
    kinds = {unordered_kind(t, m, prog.aliases)
             for t, m in by_name.get(name, ())}
    return kinds.pop() if len(kinds) == 1 else None


def parse_text_file(prog: Program, rel: str, text: str) -> None:
    """Scanner for the repo house style: tracks namespace/class/function
    nesting by brace depth, records function extents, then extracts
    calls and rule events from each body."""
    code = _blank_preprocessor(strip_comments_and_strings(text))
    lines = code.split("\n")

    for m in USING_ALIAS_RE.finditer(code):
        prog.aliases[m.group(1)] = m.group(2)
    for m in TYPEDEF_RE.finditer(code):
        prog.aliases[m.group(2)] = m.group(1)
    for m in DECL_RE.finditer(code):
        prog.decls.append((m.group(3), m.group(1), m.group(2)))

    # -- pass 1: block structure ---------------------------------------
    stack = [{"kind": "top", "name": None, "func": None}]
    stmt: list[str] = []
    stmt_line = 1
    line_no = 1
    # entries: (func, start_line, [end_line], signature_text)
    func_spans: list[tuple] = []
    anon = [0]

    def innermost(kind):
        for ctx in reversed(stack):
            if ctx["kind"] == kind:
                return ctx
        return None

    def in_function():
        return any(c["kind"] == "func" for c in stack)

    def handle_statement(s_text, s_line):
        top = stack[-1]["kind"]
        s = " ".join(s_text.split())
        if not s:
            return
        if top == "class":
            mv = MEMBER_VAR_RE.match(s)
            if mv and "(" not in mv.group(1):
                cls = stack[-1]["name"]
                if cls:
                    prog.member_types.setdefault(cls, {})[
                        mv.group(3)] = _clean_type(mv.group(1))
                    prog.member_decls.setdefault(cls, {})[
                        mv.group(3)] = (mv.group(1), mv.group(2))
            return
        if top not in ("top", "namespace"):
            return
        head = s.split(None, 1)[0] if s.split() else ""
        head = head.split("<")[0]
        if head in GLOBAL_SKIP_HEADS or head.startswith("#"):
            return
        lhs = s.split("=", 1)[0].strip() if "=" in s else s
        if "(" in lhs or re.search(r"\b(const|constexpr|concept)\b", lhs):
            return
        gv = GLOBAL_VAR_RE.match(lhs)
        if gv:
            prog.globals.append((rel, s_line, gv.group(1), s[:60]))

    i, n = 0, len(code)
    has_content = False
    while i < n:
        c = code[i]
        if c == "\n":
            line_no += 1
            stmt.append(" ")
        elif c == "{":
            kind, name = _classify_block("".join(stmt), in_function())
            ctx = {"kind": kind, "name": name, "func": None}
            if kind == "func":
                if name is None:
                    anon[0] += 1
                    name = f"@anon{anon[0]}"
                cls = None
                fname = name
                if "::" in name:
                    cls, fname = name.rsplit("::", 1)
                    cls = cls.split("::")[-1]
                else:
                    encl = innermost("class")
                    if encl is not None:
                        cls = encl["name"]
                qname = f"{cls}::{fname}" if cls else fname
                f = prog.func(qname, cls, fname, rel, stmt_line)
                ctx["func"] = f
                func_spans.append(
                    (f, line_no, [line_no], "".join(stmt)))
                ctx["span"] = func_spans[-1]
            stack.append(ctx)
            stmt = []
            has_content = False
            stmt_line = line_no
        elif c == "}":
            if len(stack) > 1:
                popped = stack.pop()
                if popped["kind"] == "func" and "span" in popped:
                    popped["span"][2][0] = line_no
            stmt = []
            has_content = False
            stmt_line = line_no
        elif c == ";":
            handle_statement("".join(stmt), stmt_line)
            stmt = []
            has_content = False
            stmt_line = line_no
        else:
            if not has_content and not c.isspace():
                stmt_line = line_no
                has_content = True
            stmt.append(c)
        i += 1

    # -- pass 2: per-function body extraction --------------------------
    banned_aliases = prog.banned_aliases()
    for f, start, end_box, sig in func_spans:
        end = end_box[0]
        local_types = _param_types(sig)
        tparams = _template_params(sig)
        # Parameters and locals seen so far: name -> (type, marks).
        local_decls = {m.group(3): (m.group(1), m.group(2))
                       for m in DECL_RE.finditer(sig)}
        for ln in range(start, min(end, len(lines)) + 1):
            line = lines[ln - 1]
            for m in DECL_RE.finditer(line):
                local_decls[m.group(3)] = (m.group(1), m.group(2))
            lv = LOCAL_VAR_RE.match(line)
            if lv and lv.group(1) not in ("return", "delete", "throw",
                                          "auto", "else", "new"):
                local_types[lv.group(2)] = _clean_type(lv.group(1))
            for m in MEMBER_CALL_RE.finditer(line):
                base = re.sub(r"\[[^\]]*\]", "", m.group(1))
                method = m.group(2)
                t = local_types.get(base)
                if t in tparams:
                    t = None  # resolved by method name below
                elif t is None and base == "this":
                    t = f.cls
                if t is None:
                    t = prog.member_types.get(f.cls or "", {}).get(base)
                if t is not None:
                    f.calls.append(("typed", t, method, ln))
                else:
                    f.calls.append(("member", base, method, ln))
            for m in FREE_CALL_RE.finditer(line):
                name = re.sub(r"\s", "", m.group(1))
                last = name.rsplit("::", 1)[-1]
                if last in KW_NOT_FUNCS or last in CAST_NAMES:
                    continue
                f.calls.append(
                    ("qual" if "::" in name else "free", name, ln))
            if ALLOC_MEMBER_RE.search(line):
                f.events.append(
                    ("alloc", ln,
                     ALLOC_MEMBER_RE.search(line).group(1)))
            if ALLOC_MAKE_RE.search(line):
                f.events.append(("alloc", ln, "make_unique/make_shared"))
            if ALLOC_NEW_RE.search(f" {line}"):
                if "= delete" not in line:
                    f.events.append(("alloc", ln, "operator new"))
            if STATS_WRITE_RE.search(line):
                f.events.append(("stats", ln, "stats write"))
            for alias in banned_aliases:
                if re.search(rf"\b{alias}\s*::\s*\w+\s*\(", line) or \
                        re.search(rf"\b{alias}\s+\w+\s*[;({{=]", line):
                    f.events.append(
                        ("clock", ln,
                         f"banned clock/entropy via alias '{alias}' = "
                         f"{prog.aliases.get(alias, '?').strip()}"))
            rf = RANGE_FOR_RE.search(line)
            if rf:
                # Resolved in check_unordered_iter, where every alias
                # and class member is known: `x`, `*p`, `r.x`, `r->x`.
                parts = re.split(r"\.|->", re.sub(
                    r"\[[^\]]*\]", "", rf.group(1).lstrip("*").strip()))
                recv = None
                if len(parts) == 2:
                    recv = ("this", f.cls) if parts[0] == "this" else \
                        (parts[0], local_types.get(parts[0]))
                f.events.append(("rangefor", ln, (
                    rf.group(1).startswith("*"), parts[-1], recv,
                    local_decls.get(parts[-1]) if len(parts) == 1
                    else None)))
            for m in CFG_READ_RE.finditer(line):
                if not m.group(3):
                    f.events.append(("cfgread", ln, m.group(2)))


# ---------------------------------------------------------------------
# Clang AST frontend
# ---------------------------------------------------------------------

def find_clangxx() -> str | None:
    cand = os.environ.get("CATCH_CLANGXX")
    if cand:
        return cand
    for name in ("clang++", "clang++-19", "clang++-18", "clang++-17",
                 "clang++-16", "clang++-15", "clang++-14"):
        for d in os.environ.get("PATH", "").split(os.pathsep):
            p = Path(d) / name
            if p.is_file() and os.access(p, os.X_OK):
                return str(p)
    return None


def load_compdb(compdb: Path, root: Path) -> list[dict]:
    entries = json.loads(compdb.read_text())
    src = (root / "src").resolve()
    out, seen = [], set()
    for e in entries:
        f = Path(e["file"])
        if not f.is_absolute():
            f = Path(e.get("directory", ".")) / f
        f = f.resolve()
        if src not in f.parents:
            continue
        if f in seen:
            continue
        seen.add(f)
        out.append({"file": f, "directory": e.get("directory", "."),
                    "command": e.get("command")
                    or shlex.join(e.get("arguments", []))})
    return out


def clang_astdump_cmd(clangxx: str, entry: dict) -> list[str]:
    args = shlex.split(entry["command"])
    out = [clangxx]
    skip = False
    for a in args[1:]:
        if skip:
            skip = False
            continue
        if a in ("-o", "-c"):
            skip = a == "-o"
            continue
        if a == str(entry["file"]):
            continue
        out.append(a)
    out += ["-w", "-fsyntax-only", "-Xclang", "-ast-dump=json",
            str(entry["file"])]
    return out


def _qt(node) -> str:
    t = node.get("type") or {}
    return (t.get("desugaredQualType") or t.get("qualType") or "")


class ClangExtractor:
    """Walks one TU's JSON AST into the shared IR. Location tracking is
    stateful: clang omits repeated file/line fields."""

    def __init__(self, prog: Program, root: Path):
        self.prog = prog
        self.root = root.resolve()
        self.cur_file = ""
        self.cur_line = 0
        self.record_by_id: dict[str, str] = {}
        self.record_stack: list[str] = []
        self.func: Func | None = None
        self.out_funcs: list[dict] = []
        self.out_globals: list[tuple] = []

    def _update_loc(self, node) -> None:
        loc = node.get("loc") or {}
        for part in (loc.get("spellingLoc"), loc.get("expansionLoc"),
                     loc):
            if not part:
                continue
            if "file" in part:
                self.cur_file = part["file"]
            if "line" in part:
                self.cur_line = part["line"]

    def _rel(self) -> str | None:
        try:
            p = Path(self.cur_file).resolve()
        except OSError:
            return None
        try:
            return p.relative_to(self.root).as_posix()
        except ValueError:
            return None

    def walk_tu(self, tu: dict) -> None:
        self._collect_record_ids(tu)
        for child in tu.get("inner", []) or []:
            self.visit(child)

    def _collect_record_ids(self, node) -> None:
        """Map AST node ids of class/struct decls to their names, so
        out-of-line method definitions (whose parent record is not on
        the visit stack) resolve via parentDeclContextId."""
        if not isinstance(node, dict):
            return
        if node.get("kind") in ("CXXRecordDecl", "ClassTemplateDecl") \
                and node.get("name") and node.get("id"):
            self.record_by_id.setdefault(node["id"], node["name"])
        for ch in node.get("inner", []) or []:
            self._collect_record_ids(ch)

    def visit(self, node) -> None:
        if not isinstance(node, dict):
            return
        kind = node.get("kind", "")
        self._update_loc(node)

        if kind in ("NamespaceDecl", "LinkageSpecDecl",
                    "ExternCContextDecl"):
            for ch in node.get("inner", []) or []:
                self.visit(ch)
            return
        if kind == "CXXRecordDecl":
            name = node.get("name")
            self.record_stack.append(name or "")
            for ch in node.get("inner", []) or []:
                self.visit(ch)
            self.record_stack.pop()
            return
        if kind in ("FunctionDecl", "CXXMethodDecl",
                    "CXXConstructorDecl", "CXXDestructorDecl",
                    "CXXConversionDecl"):
            self.visit_function(node)
            return
        if kind == "VarDecl" and self.func is None \
                and not self.record_stack:
            self.visit_global(node)
            return
        if kind in ("TypeAliasDecl", "TypedefDecl"):
            name = node.get("name")
            under = ((node.get("type") or {}).get("qualType")) or ""
            if name:
                self.prog.aliases.setdefault(name, under)
        for ch in node.get("inner", []) or []:
            self.visit(ch)

    def visit_global(self, node) -> None:
        rel = self._rel()
        if rel is None or not rel.startswith("src/"):
            return
        if node.get("constexpr"):
            return
        qt = ((node.get("type") or {}).get("qualType")) or ""
        if qt.startswith("const ") or " const" in qt.split("[")[0]:
            return
        if node.get("storageClass") == "extern":
            return
        name = node.get("name") or "?"
        self.out_globals.append((rel, self.cur_line, name, qt[:60]))

    def visit_function(self, node) -> None:
        body = None
        for ch in node.get("inner", []) or []:
            if isinstance(ch, dict) and ch.get("kind") == "CompoundStmt":
                body = ch
        rel = self._rel()
        if body is None or rel is None or not rel.startswith("src/"):
            for ch in node.get("inner", []) or []:
                self.visit(ch)
            return
        name = node.get("name") or "@anon"
        cls = None
        kind = node.get("kind")
        if kind in ("CXXMethodDecl", "CXXConstructorDecl",
                    "CXXDestructorDecl", "CXXConversionDecl"):
            # In-class definitions find the record on the visit stack;
            # out-of-line ones resolve via parentDeclContextId.
            cls = (self.record_stack[-1] if self.record_stack else None)
            if cls is None:
                cls = self.record_by_id.get(
                    node.get("parentDeclContextId") or "")
        fdesc = {
            "name": name, "cls": cls, "file": rel,
            "line": self.cur_line, "calls": [], "events": [],
        }
        prev = self.func
        self.func = fdesc  # duck-typed container during walk
        self.scan_body(body)
        self.func = prev
        self.out_funcs.append(fdesc)

    # -- body scanning -------------------------------------------------

    def scan_body(self, node) -> None:
        if not isinstance(node, dict):
            return
        kind = node.get("kind", "")
        self._update_loc(node)
        line = self.cur_line
        f = self.func

        if kind == "CXXNewExpr":
            f["events"].append(("alloc", line, "operator new"))
        elif kind == "CXXForRangeStmt":
            if "unordered_" in json.dumps(
                    [_qt(ch) for ch in (node.get("inner") or [])
                     if isinstance(ch, dict)]):
                f["events"].append(("uiter", line, "range-for"))
        elif kind in ("UnaryOperator", "CompoundAssignOperator",
                      "BinaryOperator"):
            op = node.get("opcode", "")
            writes = (kind == "CompoundAssignOperator"
                      or op in ("++", "--", "="))
            if writes and self._lhs_is_stats(node):
                f["events"].append(("stats", line, f"'{op}' on stats"))
        elif kind == "CXXMemberCallExpr":
            me = None
            inner = node.get("inner") or []
            if inner and isinstance(inner[0], dict) \
                    and inner[0].get("kind") == "MemberExpr":
                me = inner[0]
            if me is not None:
                method = (me.get("name") or "").lstrip("->.")
                base_t = ""
                for ch in me.get("inner") or []:
                    if isinstance(ch, dict):
                        base_t = _qt(ch) or base_t
                t = _clean_type(base_t) if base_t else ""
                if method in ALLOC_NAMES and (
                        "std::" in base_t or "basic_string" in base_t
                        or not t or t[0].islower()):
                    f["events"].append(("alloc", line, method))
                if t:
                    f["calls"].append(("typed", t, method, line))
                else:
                    f["calls"].append(("member", "?", method, line))
        elif kind == "CallExpr":
            callee = self._callee_name(node)
            if callee:
                if callee in ("make_unique", "make_shared"):
                    f["events"].append(
                        ("alloc", line, "make_unique/make_shared"))
                elif callee in ("rand", "srand", "random",
                                "gettimeofday", "clock_gettime",
                                "timespec_get", "time"):
                    f["events"].append(
                        ("clock", line, f"libc {callee}()"))
                else:
                    f["calls"].append(("free", callee, line))
        elif kind in ("DeclRefExpr", "CXXConstructExpr",
                      "CXXTemporaryObjectExpr"):
            qt = _qt(node)
            if CLOCK_TYPE_RE.search(qt) and "time_point" not in qt:
                f["events"].append(
                    ("clock", line, f"clock/entropy type {qt[:40]}"))

        for ch in node.get("inner", []) or []:
            self.scan_body(ch)

    def _lhs_is_stats(self, node) -> bool:
        inner = node.get("inner") or []
        if not inner:
            return False
        return self._subtree_has_stats_base(inner[0], depth=0)

    def _subtree_has_stats_base(self, node, depth) -> bool:
        if not isinstance(node, dict) or depth > 8:
            return False
        if node.get("kind") in ("MemberExpr", "DeclRefExpr"):
            nm = node.get("name") or \
                ((node.get("referencedDecl") or {}).get("name")) or ""
            if nm.lstrip("->.") in ("stats_", "stats"):
                return True
        return any(self._subtree_has_stats_base(ch, depth + 1)
                   for ch in (node.get("inner") or []))

    @staticmethod
    def _callee_name(node) -> str | None:
        inner = node.get("inner") or []
        if not inner:
            return None
        cur = inner[0]
        for _ in range(4):
            if not isinstance(cur, dict):
                return None
            if cur.get("kind") == "DeclRefExpr":
                rd = cur.get("referencedDecl") or {}
                return rd.get("name")
            nxt = cur.get("inner") or []
            if not nxt:
                return None
            cur = nxt[0]
        return None


def _headers_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.hh")):
        h.update(p.relative_to(root).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def run_clang_frontend(prog: Program, root: Path, compdb: Path,
                       cache_dir: Path | None, clangxx: str,
                       verbose: bool) -> list[str]:
    """Returns a list of TU files that fell back to the text frontend
    (clang failed or produced unparseable output)."""
    entries = load_compdb(compdb, root)
    if not entries:
        raise RuntimeError(f"no src/ TUs in {compdb}")
    ver = subprocess.run([clangxx, "--version"], capture_output=True,
                         text=True).stdout.splitlines()[:1]
    hdr_digest = _headers_digest(root)
    fallbacks = []
    if cache_dir:
        cache_dir.mkdir(parents=True, exist_ok=True)
    for e in entries:
        tu = e["file"]
        rel = tu.resolve().relative_to(root.resolve()).as_posix()
        key = hashlib.sha256()
        key.update(EXTRACTOR_VERSION.encode())
        key.update((ver[0] if ver else "?").encode())
        key.update(e["command"].encode())
        key.update(tu.read_bytes())
        key.update(hdr_digest.encode())
        marker = (cache_dir / f"{tu.name}.{key.hexdigest()[:24]}.json"
                  ) if cache_dir else None
        ir = None
        if marker is not None and marker.is_file():
            try:
                ir = json.loads(marker.read_text())
            except (OSError, json.JSONDecodeError):
                ir = None
        if ir is None:
            cmd = clang_astdump_cmd(clangxx, e)
            if verbose:
                print(f"catch_analyze: clang {rel}", file=sys.stderr)
            try:
                proc = subprocess.run(
                    cmd, cwd=e["directory"], capture_output=True,
                    text=True, timeout=300)
                ast = json.loads(proc.stdout)
                ex = ClangExtractor(prog, root)
                ex.walk_tu(ast)
                ir = {"funcs": ex.out_funcs,
                      "globals": [list(g) for g in ex.out_globals],
                      "aliases": dict(prog.aliases)}
            except (subprocess.SubprocessError, OSError,
                    json.JSONDecodeError, RecursionError) as err:
                if verbose:
                    print(f"catch_analyze: clang failed on {rel}: "
                          f"{err}; using text frontend", file=sys.stderr)
                fallbacks.append(rel)
                parse_text_file(prog, rel,
                                tu.read_text(errors="replace"))
                continue
            if marker is not None:
                tmp = marker.with_suffix(".tmp")
                tmp.write_text(json.dumps(ir))
                tmp.replace(marker)
        merge_ir(prog, ir)
    # Headers still need the text scan for member types, aliases and
    # inline definitions in TUs clang skipped.
    return fallbacks


def merge_ir(prog: Program, ir: dict) -> None:
    for fd in ir.get("funcs", []):
        cls = fd.get("cls")
        name = fd["name"]
        qname = f"{cls}::{name}" if cls else name
        f = prog.func(qname, cls, name, fd["file"], fd["line"])
        f.calls.extend(tuple(c) for c in fd.get("calls", []))
        existing = set(f.events)
        for ev in fd.get("events", []):
            t = tuple(ev)
            if t not in existing:
                existing.add(t)
                f.events.append(t)
    for g in ir.get("globals", []):
        t = tuple(g)
        if t not in prog.globals:
            prog.globals.append(t)
    for k, v in (ir.get("aliases") or {}).items():
        prog.aliases.setdefault(k, v)


# ---------------------------------------------------------------------
# Rules engine
# ---------------------------------------------------------------------

def iter_sources(root: Path, *tops: str):
    """Repo-relative paths of the C++ sources under @p tops, minus the
    checker's own fixture trees."""
    fixtures = root / FIXTURE_DIR
    for top in tops:
        base = root / top
        if not base.is_dir():
            continue
        for p in sorted(base.rglob("*")):
            if p.suffix in SRC_EXTS and p.is_file() \
                    and fixtures not in p.parents:
                yield p.relative_to(root).as_posix()


class Analyzer:
    def __init__(self, root: Path, prog: Program):
        self.root = root
        self.prog = prog
        self.sources = list(iter_sources(root, *LINE_RULE_TOPS))
        self._texts: dict[str, str] = {}
        self.findings: list[tuple[str, int, str, str]] = []
        self.file_waivers: dict[tuple[str, str], int] = {}
        self.boundaries: dict[tuple[str, str], int] = {}
        self.used_file_waivers: set[tuple[str, str]] = set()
        self.used_boundaries: set[tuple[str, str]] = set()
        self.declared_inline: set[tuple[str, int, str]] = set()
        self.used_inline: set[tuple[str, int, str]] = set()
        # file -> line -> rule -> line the waiver comment is on (a
        # waiver applies to its own line and the next, so it can sit
        # NOLINTNEXTLINE-style above a guarded statement).
        self.inline: dict[str, dict[int, dict[str, int]]] = {}
        self._load_waivers()
        self._load_inline()
        self._link()

    # -- waivers -------------------------------------------------------

    def _load_waivers(self) -> None:
        wf = self.root / WAIVER_FILE
        if not wf.is_file():
            return
        for lineno, raw in enumerate(wf.read_text().splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                print(f"catch_analyze: malformed waiver: {raw!r}",
                      file=sys.stderr)
                sys.exit(2)
            rule, target = parts
            if target.startswith("boundary:"):
                self.boundaries[(rule, target[len("boundary:"):])] = \
                    lineno
            else:
                self.file_waivers[(rule, target)] = lineno

    def read(self, rel: str) -> str:
        text = self._texts.get(rel)
        if text is None:
            text = (self.root / rel).read_text(errors="replace")
            self._texts[rel] = text
        return text

    def _load_inline(self) -> None:
        for rel in self.sources:
            per: dict[int, dict[str, int]] = {}
            for lineno, line in enumerate(self.read(rel).splitlines(), 1):
                m = INLINE_WAIVER_RE.search(line)
                if m:
                    rules = {r.strip() for r in m.group(1).split(",")}
                    for r in rules:
                        # A waiver on the line itself beats one
                        # spilling down from the previous line.
                        per.setdefault(lineno, {})[r] = lineno
                        per.setdefault(lineno + 1, {}).setdefault(
                            r, lineno)
                        self.declared_inline.add((rel, lineno, r))
            self.inline[rel] = per

    def waived(self, rule: str, rel: str, lineno: int) -> bool:
        if (rule, rel) in self.file_waivers:
            self.used_file_waivers.add((rule, rel))
            return True
        decl = self.inline.get(rel, {}).get(lineno, {}).get(rule)
        if decl is not None:
            if (rel, decl, rule) in self.declared_inline:
                self.used_inline.add((rel, decl, rule))
            return True
        return False

    def boundary(self, rule: str, qname: str) -> bool:
        if (rule, qname) in self.boundaries:
            self.used_boundaries.add((rule, qname))
            return True
        return False

    # -- call graph ----------------------------------------------------

    def _link(self) -> None:
        by_name: dict[str, list[Func]] = {}
        for f in self.prog.funcs.values():
            by_name.setdefault(f.name, []).append(f)
        self.edges: dict[str, list[tuple[str, int]]] = {}
        for f in self.prog.funcs.values():
            out = []
            for call in f.calls:
                if call[0] == "typed":
                    _, t, method, ln = call
                    target = self.prog.funcs.get(f"{t}::{method}")
                    if target is not None:
                        out.append((target.qname, ln))
                    continue
                if call[0] == "member":
                    _, _base, method, ln = call
                    if method in AMBIGUOUS_METHODS:
                        # std types share this name; an edge guessed
                        # here is more likely wrong than right.
                        continue
                    cands = by_name.get(method, [])
                    if len(cands) == 1:
                        out.append((cands[0].qname, ln))
                    elif 1 < len(cands) <= 6:
                        # Unknown receiver: over-approximate.
                        out.extend((c.qname, ln) for c in cands)
                    continue
                kind, name, ln = call
                if kind == "qual":
                    cls, fname = name.rsplit("::", 1)
                    cls = cls.split("::")[-1]
                    target = self.prog.funcs.get(f"{cls}::{fname}")
                    if target is not None:
                        out.append((target.qname, ln))
                    continue
                # free call: prefer a method of the same class, then
                # free functions of that name.
                if f.cls and f"{f.cls}::{name}" in self.prog.funcs:
                    out.append((f"{f.cls}::{name}", ln))
                    continue
                if name in self.prog.funcs:
                    out.append((name, ln))
            self.edges[f.qname] = out

    def _reach(self, rule: str, entries: list[str], cut=None):
        """BFS honouring setup/ctor/boundary cuts; returns {qname:
        chain} where chain is the qname path from the entry."""
        parent: dict[str, str | None] = {}
        queue = []
        for e in entries:
            if e in self.prog.funcs and not self.boundary(rule, e):
                parent[e] = None
                queue.append(e)
        head = 0
        while head < len(queue):
            cur = queue[head]
            head += 1
            for callee, _ln in self.edges.get(cur, ()):
                if callee in parent:
                    continue
                f = self.prog.funcs[callee]
                if f.is_setup or f.is_ctor:
                    continue
                if cut is not None and cut(callee):
                    continue
                if self.boundary(rule, callee):
                    continue
                parent[callee] = cur
                queue.append(callee)
        chains = {}
        for q in parent:
            path = [q]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            chains[q] = list(reversed(path))
        return chains

    def report(self, rel, lineno, rule, msg) -> None:
        if not self.waived(rule, rel, lineno):
            self.findings.append((rel, lineno, rule, msg))

    # -- rules ---------------------------------------------------------

    def check_step_alloc(self) -> None:
        rule = "step-alloc"
        chains = self._reach(rule, list(STEP_ENTRY_POINTS))
        for qname, chain in sorted(chains.items()):
            f = self.prog.funcs[qname]
            for kind, ln, detail in f.events:
                if kind != "alloc":
                    continue
                path = " -> ".join(chain)
                self.report(
                    f.file, ln, rule,
                    f"{detail} in {qname}() is reachable from "
                    f"per-cycle entry {chain[0]}() (path: {path}) — "
                    "the hot loop must not allocate; hoist the "
                    "allocation to construction/bind time or add a "
                    "boundary waiver with a reason")

    def check_warming_purity(self) -> None:
        rule = "warming-purity"
        # The timing-model *edge* is the finding; don't traverse into
        # the timing model looking for stats (they're legitimate
        # there — that's the detailed path).
        chains = self._reach(rule, list(WARM_ENTRY_POINTS),
                             cut=lambda q: TIMING_MODEL_RE.match(q))
        for qname, chain in sorted(chains.items()):
            f = self.prog.funcs[qname]
            for kind, ln, detail in f.events:
                if kind != "stats":
                    continue
                path = " -> ".join(chain)
                self.report(
                    f.file, ln, rule,
                    f"stats mutation ({detail}) in {qname}() is "
                    f"reachable from warming entry {chain[0]}() "
                    f"(path: {path}) — functional warming must be "
                    "stats-free (the FastForward contract)")
            for callee, ln in self.edges.get(qname, ()):
                if TIMING_MODEL_RE.match(callee):
                    path = " -> ".join(chain)
                    self.report(
                        f.file, ln, rule,
                        f"call into the timing model ({callee}) from "
                        f"{qname}() on the warming path (path: {path} "
                        f"-> {callee}) — warming consumes no simulated "
                        "time")

    def check_snapshot_hot_path(self) -> None:
        rule = "snapshot-hot-path"
        chains = self._reach(rule, list(STEP_ENTRY_POINTS))
        for qname, chain in sorted(chains.items()):
            if not SNAPSHOT_FUNC_RE.search(qname):
                continue
            f = self.prog.funcs[qname]
            path = " -> ".join(chain)
            self.report(
                f.file, f.line, rule,
                f"{qname}() is reachable from per-cycle entry "
                f"{chain[0]}() (path: {path}) — warmed-state "
                "serialization is a run-boundary operation and must "
                "stay off the hot loop")

    def _digest_fields(self):
        """Identifier tokens in warmConfigDigest()'s body, or None when
        this tree carries no digest (rule skipped)."""
        path = self.root / DIGEST_FILE
        if not path.is_file():
            return None
        text = strip_comments_and_strings(
            path.read_text(encoding="utf-8", errors="replace"))
        m = re.search(r"^warmConfigDigest\s*\(", text, re.M)
        if not m:
            return None
        end = text.find("\n}", m.end())
        body = text[m.end():end if end >= 0 else len(text)]
        return frozenset(re.findall(r"\w+", body))

    def check_warm_digest(self) -> None:
        rule = "warm-digest"
        fields = self._digest_fields()
        if fields is None:
            return
        chains = self._reach(rule, list(WARM_ENTRY_POINTS),
                             cut=lambda q: TIMING_MODEL_RE.match(q))
        for qname, chain in sorted(chains.items()):
            f = self.prog.funcs[qname]
            for kind, ln, leaf in f.events:
                if kind != "cfgread" or leaf in fields:
                    continue
                path = " -> ".join(chain)
                self.report(
                    f.file, ln, rule,
                    f"config field '{leaf}' is read in {qname}() on "
                    f"the warming path (path: {path}) but does not "
                    "appear in warmConfigDigest() — a knob that can "
                    "shape warmed state must re-key the snapshot; "
                    "extend the digest, or waive a provably "
                    "timing-only read")

    def check_determinism(self) -> None:
        """The IR's clock events: alias-resolved in the text frontend,
        type-resolved in clang. The line scan covers the rest of src/,
        namespace scope included."""
        for f in self.prog.funcs.values():
            if not f.file.startswith("src/"):
                continue
            for kind, ln, detail in f.events:
                if kind == "clock":
                    self.report(
                        f.file, ln, "determinism",
                        f"{detail} in {f.qname}() — breaks bitwise "
                        "reproducibility; use the seeded catchsim::Rng "
                        "/ simulated time")

    def check_unordered_iter(self) -> None:
        by_name: dict[str, list[tuple[str, str]]] = {}
        for name, type_text, marks in self.prog.decls:
            by_name.setdefault(name, []).append((type_text, marks))
        for f in self.prog.funcs.values():
            if not f.file.startswith("src/"):
                continue
            for kind, ln, detail in f.events:
                if kind == "rangefor":
                    want = "pointer" if detail[0] else "container"
                    if range_for_kind(self.prog, f, detail,
                                      by_name) != want:
                        continue
                    kind, detail = "uiter", detail[1]
                if kind == "uiter":
                    self.report(
                        f.file, ln, "unordered-iter",
                        f"iteration over unordered container "
                        f"'{detail}' in {f.qname}() — visit order is "
                        "unspecified and varies across standard "
                        "libraries; iterate an ordered mirror or sort "
                        "the keys first")

    def check_global_state(self) -> None:
        for rel, ln, name, detail in self.prog.globals:
            if not rel.startswith("src/"):
                continue
            self.report(
                rel, ln, "global-state",
                f"non-const namespace-scope state '{name}' "
                f"({detail.strip()}) — mutable globals are a "
                "shared-state hazard at any job count; scope the "
                "state into a class or make it constexpr")

    def check_line_rules(self) -> None:
        """determinism, fatal-boundary, env-gateway and raw-new-delete
        on every src/ line; include-cc on every scanned tree."""
        for rel in self.sources:
            text = self.read(rel)
            orig_lines = text.splitlines()
            in_src = rel.startswith("src/")
            code = strip_comments_and_strings(text)
            for lineno, line in enumerate(code.splitlines(), 1):
                # Stripping blanks string contents; read the include
                # path from the original once the stripped line proves
                # the directive is real code (not inside a comment).
                if (re.match(r"\s*#\s*include", line)
                        and INCLUDE_CC_RE.search(orig_lines[lineno - 1])):
                    self.report(rel, lineno, "include-cc",
                                "never #include a .cc file")
                if not in_src:
                    continue
                for pat, what in DETERMINISM_BANNED:
                    if pat.search(line):
                        self.report(
                            rel, lineno, "determinism",
                            f"{what} breaks bitwise reproducibility; "
                            "use the seeded catchsim::Rng / simulated "
                            "time")
                for pat, what in FATAL_BOUNDARY_BANNED:
                    if pat.search(line) and "CATCHSIM_ASSERT" not in line:
                        self.report(
                            rel, lineno, "fatal-boundary",
                            f"{what} in library code; return a "
                            "SimError/Expected (common/error.hh) and "
                            "let the isolation layer or the CLI "
                            "boundary decide")
                if GETENV_RE.search(line) and rel != "src/common/env.hh":
                    self.report(rel, lineno, "env-gateway",
                                "read CATCH_* knobs via common/env.hh, "
                                "not raw std::getenv")
                if ALLOC_NEW_RE.search(f" {line}") \
                        and "= delete" not in line:
                    self.report(rel, lineno, "raw-new-delete",
                                "raw new expression; use "
                                "std::make_unique or a container")
                elif DELETE_RE.search(" " + re.sub(r"=\s*delete", "",
                                                   line)):
                    self.report(rel, lineno, "raw-new-delete",
                                "raw delete expression; owning "
                                "pointers must be smart pointers")

    def check_stats_once(self) -> None:
        """JSON stat registration: within one writer object scope a key
        may appear only once. Tracks `.open()`, `.close()`,
        `.object("k")`, `.field("k", ...)` call sequences per file, and
        field lists (`.u64("k", ...)` etc.), whose `.object("k", fn)`
        scope is the lambda body that follows. A function body (a `{`
        in column 0) starts afresh, so two readers of one key in
        different functions do not collide."""
        for rel in self.sources:
            if not rel.startswith("src/"):
                continue
            text = self.read(rel)
            code = strip_comments_and_strings(text)
            # Call sites only: require an object expression before the
            # dot so the JsonWriter class definition itself is ignored.
            # Each scope is [keys, lambda_depth, armed]: lambda_depth is
            # None for open()/close() scopes; a lambda scope is armed
            # once its body's brace opens and ends when it closes.
            stack: list[list] = []
            depth = 0
            orig_lines = text.splitlines()
            for lineno, line in enumerate(code.splitlines(), 1):
                if line.startswith("{"):
                    stack = []
                events = [(m.start(), m) for m in
                          WRITER_CALL_RE.finditer(line)]
                events += [(i, c) for i, c in enumerate(line)
                           if c in "{}"]
                for pos, ev in sorted(events, key=lambda e: e[0]):
                    if ev == "{":
                        depth += 1
                        if stack and stack[-1][1] == depth:
                            stack[-1][2] = True
                        continue
                    if ev == "}":
                        depth -= 1
                        while stack and stack[-1][2] and \
                                depth < stack[-1][1]:
                            stack.pop()
                        continue
                    call = ev.group(1)
                    # Stripping blanks string contents but preserves
                    # offsets; recover the real key from the original.
                    om = WRITER_CALL_RE.match(orig_lines[lineno - 1], pos)
                    key = om.group(2) if om else ev.group(2)
                    if call == "open":
                        stack.append([set(), None, False])
                    elif call == "close":
                        if stack:
                            stack.pop()
                    elif key is not None:
                        if not stack:
                            stack.append([set(), None, False])
                        if key in stack[-1][0]:
                            self.report(
                                rel, lineno, "stats-once",
                                f'stat "{key}" registered twice in '
                                "the same JSON object scope")
                        else:
                            stack[-1][0].add(key)
                        if call == "object":
                            # object("k", ...) with more arguments is the
                            # field-list form: its scope is the lambda.
                            rest = line[ev.end():].lstrip()
                            lam = depth + 1 if rest.startswith(",") \
                                else None
                            stack.append([set(), lam, False])

    def check_test_coverage(self) -> None:
        src = self.root / "src"
        if not (self.root / "tests").is_dir():
            return
        test_includes: set[str] = set()
        for rel in self.sources:
            if rel.startswith("tests/"):
                test_includes.update(INCLUDE_RE.findall(self.read(rel)))
        for rel in self.sources:
            if not (rel.startswith("src/") and rel.endswith(".cc")):
                continue
            cc = self.root / rel
            candidates = set()
            hh = cc.with_suffix(".hh")
            if hh.is_file():
                candidates.add(hh.relative_to(src).as_posix())
            else:
                # Implementation-only TU: any same-directory header it
                # includes counts as its public surface.
                for inc in INCLUDE_RE.findall(self.read(rel)):
                    if (src / inc).is_file() and Path(inc).parent == \
                            cc.parent.relative_to(src):
                        candidates.add(inc)
            # Report only genuinely uncovered files, so a waiver on a
            # file that gained a test reads as stale.
            if not candidates & test_includes:
                self.report(
                    rel, 1, "test-coverage",
                    "no test includes "
                    + (", ".join(sorted(candidates)) or "any header")
                    + f" — add a test or a waiver with a reason in "
                    f"{WAIVER_FILE}")

    def check_waivers(self) -> None:
        wf = WAIVER_FILE
        for (rule, target), lineno in sorted(
                self.file_waivers.items(), key=lambda kv: kv[1]):
            if (rule, target) not in self.used_file_waivers:
                self.findings.append(
                    (wf, lineno, "unused-waiver",
                     f"file waiver '{rule} {target}' no longer "
                     "suppresses any finding; remove it"))
        for (rule, qname), lineno in sorted(
                self.boundaries.items(), key=lambda kv: kv[1]):
            if (rule, qname) not in self.used_boundaries:
                self.findings.append(
                    (wf, lineno, "unused-waiver",
                     f"boundary waiver '{rule} boundary:{qname}' cuts "
                     "no reachable path; remove it"))
        for rel, lineno, rule in sorted(self.declared_inline):
            if (rel, lineno, rule) not in self.used_inline:
                self.findings.append(
                    (rel, lineno, "unused-waiver",
                     f"inline waiver allow({rule}) suppresses nothing "
                     "on this line; remove it"))

    def run(self, check_waivers: bool = False) -> int:
        self.check_step_alloc()
        self.check_warming_purity()
        self.check_snapshot_hot_path()
        self.check_warm_digest()
        self.check_determinism()
        self.check_unordered_iter()
        self.check_global_state()
        self.check_line_rules()
        self.check_stats_once()
        self.check_test_coverage()
        if check_waivers:
            self.check_waivers()
        seen = set()
        for rel, lineno, rule, msg in sorted(self.findings):
            k = (rel, lineno, rule)
            if k in seen:
                continue
            seen.add(k)
            print(f"{rel}:{lineno}: [{rule}] {msg}")
        if seen:
            print(f"catch_analyze: {len(seen)} finding(s)",
                  file=sys.stderr)
            return 1
        return 0


# ---------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------

def build_program(root: Path, frontend: str, compdb: Path,
                  cache_dir: Path | None, verbose: bool) -> Program:
    prog = Program()
    clangxx = find_clangxx() if frontend in ("auto", "clang") else None
    use_clang = (frontend == "clang"
                 or (frontend == "auto" and clangxx
                     and compdb.is_file()))
    src = root / "src"
    headers = sorted(src.rglob("*.hh")) + sorted(src.rglob("*.h"))
    if use_clang:
        if clangxx is None:
            raise RuntimeError("clang++ not found (set CATCH_CLANGXX)")
        if not compdb.is_file():
            raise RuntimeError(
                f"{compdb} not found; configure first "
                "(cmake -B build -S .)")
        # Headers first: member types and aliases feed call linking
        # for any TUs that fall back to the text parser.
        for p in headers:
            parse_text_file(prog, p.relative_to(root).as_posix(),
                            p.read_text(errors="replace"))
        run_clang_frontend(prog, root, compdb, cache_dir, clangxx,
                           verbose)
    else:
        for p in headers + sorted(src.rglob("*.cc")) \
                + sorted(src.rglob("*.cpp")):
            parse_text_file(prog, p.relative_to(root).as_posix(),
                            p.read_text(errors="replace"))
    return prog


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parents[2])
    ap.add_argument("--compdb", type=Path, default=None,
                    help="compile_commands.json (default: "
                         "ROOT/build/compile_commands.json)")
    ap.add_argument("--frontend", choices=("auto", "clang", "text"),
                    default="auto")
    ap.add_argument("--cache-dir", type=Path,
                    default=os.environ.get("CATCH_ANALYZE_CACHE"),
                    help="cache extracted per-TU IR (clang frontend)")
    ap.add_argument("--check-waivers", action="store_true",
                    help="also fail on waivers that no longer "
                         "suppress any finding")
    ap.add_argument("--list-entries", action="store_true",
                    help="print which entry points resolved and exit")
    ap.add_argument("--dump-graph", action="store_true",
                    help="print the call graph edges and exit")
    ap.add_argument("-v", "--verbose", action="store_true")
    args = ap.parse_args()
    sys.setrecursionlimit(30000)  # deep clang JSON expression trees

    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"catch_analyze: {root} has no src/ directory",
              file=sys.stderr)
        return 2
    compdb = args.compdb or (root / "build" / "compile_commands.json")
    try:
        prog = build_program(root, args.frontend, compdb,
                             args.cache_dir, args.verbose)
    except RuntimeError as err:
        print(f"catch_analyze: {err}", file=sys.stderr)
        return 2

    analyzer = Analyzer(root, prog)
    if args.list_entries:
        for e in sorted(set(STEP_ENTRY_POINTS + WARM_ENTRY_POINTS)):
            mark = "ok " if e in prog.funcs else "MISSING"
            print(f"{mark} {e}")
        return 0
    if args.dump_graph:
        for q in sorted(analyzer.edges):
            for callee, ln in analyzer.edges[q]:
                print(f"{q} -> {callee}  "
                      f"({prog.funcs[q].file}:{ln})")
        return 0
    return analyzer.run(check_waivers=args.check_waivers)


if __name__ == "__main__":
    sys.exit(main())
