#!/usr/bin/env python3
"""Determinism lint: statically enforce the bit-reproducibility contract.

Every result in this repo rests on one contract: fresh == session-reused ==
concurrent == service, bit for bit, at any thread count, under churn and
faults (docs/DETERMINISM.md). The fingerprint matrix and the differential
fuzzer catch violations after the fact; this tool rejects the source
patterns that cause them before they build.

Rules (ids are what NOLINT-DETERMINISM suppressions name):

  unordered-container   Declaring a std::unordered_{map,set,multimap,
                        multiset} anywhere in src/ requires an audited
                        suppression proving the use is lookup-only.
                        Hash-table lookups are deterministic; everything
                        observable about *order* is not portable.
  unordered-iteration   Iterating an unordered container (range-for,
                        begin()/end()) in src/sim, src/core, or
                        src/protocols. Iteration order depends on libc++
                        vs libstdc++ bucket layout and leaks into results.
  banned-randomness     std::rand, random_device, time(), system_clock,
                        drand48 & friends, getrandom, or an un-seeded
                        <random> engine. All randomness must flow through
                        the explicitly seeded common/rng.h Mix64 path.
  pointer-key           std::map/std::set (or unordered) keyed on a
                        pointer type: ASLR makes address order differ run
                        to run, and hashed addresses differ too.
  static-state          Mutable static/namespace-scope state in a
                        simulation translation unit (src/{sim,core,
                        protocols,sketch}/*.cc). Cross-query state that
                        bypasses the session reset contract breaks
                        fresh == reused; cross-thread state breaks sweeps.
  float-accumulation    Floating-point accumulation whose order is not
                        pinned: compound-assign into an FP accumulator
                        inside a loop over an unordered container, a
                        non-slot-indexed FP accumulation inside a
                        ParallelFor/ParallelForWorker body, or a
                        std::execution::par reduction. FP addition is not
                        associative; use the ParallelMap + serial-merge
                        idiom core/sweep.h pins.

Suppressions:

    code;  // NOLINT-DETERMINISM(rule): reason

or, on its own line (attaches to the next code line, skipping further
comment lines so reasons can wrap):

    // NOLINT-DETERMINISM(rule1,rule2): reason
    // (continued reason...)
    code;

A suppression without a written reason is itself a finding
(bad-suppression) and cannot be suppressed: every exemption is an audit
record, not an escape hatch.

The scanner is regex-based over source with comments and string literals
blanked out; the fixtures in lint_determinism_test.py pin its verdicts.

Exit status: 0 = no unsuppressed findings, 1 = findings, 2 = usage error.
"""

import argparse
import os
import re
import sys

RULES = (
    "unordered-container",
    "unordered-iteration",
    "banned-randomness",
    "pointer-key",
    "static-state",
    "float-accumulation",
)
# bad-suppression is reported but is not a rule you can name (or suppress).
META_RULES = ("bad-suppression",)

# Directories (path components) where unordered iteration is banned: these
# hold the code whose outputs the fingerprint matrix pins.
ITERATION_SCOPE = {"sim", "core", "protocols"}
# Translation units audited for mutable static state ("simulation code").
STATIC_SCOPE = {"sim", "core", "protocols", "sketch"}

SOURCE_SUFFIXES = (".cc", ".h", ".cpp", ".hpp")


class Finding:
    __slots__ = ("path", "line", "rule", "message", "suppressed", "reason")

    def __init__(self, path, line, rule, message, suppressed=False,
                 reason=""):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message
        self.suppressed = suppressed
        self.reason = reason

    def format(self):
        tag = " (suppressed: %s)" % self.reason if self.suppressed else ""
        return "%s:%d: [%s] %s%s" % (self.path, self.line, self.rule,
                                     self.message, tag)


# --------------------------------------------------------------------------
# Suppression parsing.

NOLINT_RE = re.compile(
    r"//\s*NOLINT-DETERMINISM\(([^)]*)\)\s*(?::\s*(.*))?")
PURE_COMMENT_RE = re.compile(r"^\s*(//|/\*|\*)")


class Suppressions:
    """Maps (line, rule) -> reason for one file, plus malformed entries."""

    def __init__(self, lines):
        self.by_line = {}  # line number -> {rule: reason}
        self.malformed = []  # [(line, message)]
        self.used = set()  # (line, rule) consumed by a finding
        for idx, raw in enumerate(lines, start=1):
            m = NOLINT_RE.search(raw)
            if not m:
                continue
            rules = [r.strip() for r in m.group(1).split(",") if r.strip()]
            reason = (m.group(2) or "").strip()
            if not rules:
                self.malformed.append(
                    (idx, "NOLINT-DETERMINISM names no rule"))
                continue
            unknown = [r for r in rules if r not in RULES]
            if unknown:
                self.malformed.append(
                    (idx, "NOLINT-DETERMINISM names unknown rule(s): %s"
                     % ", ".join(unknown)))
                continue
            if not reason:
                self.malformed.append(
                    (idx, "NOLINT-DETERMINISM(%s) has no reason; every "
                     "suppression must say why the use is deterministic"
                     % ",".join(rules)))
                continue
            target = idx
            # A pure-comment NOLINT line attaches to the next code line
            # (skipping the rest of its comment block so reasons wrap).
            if PURE_COMMENT_RE.match(raw):
                j = idx  # 0-based index of the line after the NOLINT line
                while j < len(lines) and PURE_COMMENT_RE.match(lines[j]):
                    j += 1
                if j < len(lines) and lines[j].strip():
                    target = j + 1
            entry = self.by_line.setdefault(target, {})
            for rule in rules:
                entry[rule] = reason

    def lookup(self, line, rule):
        reason = self.by_line.get(line, {}).get(rule)
        if reason is not None:
            self.used.add((line, rule))
        return reason

    def unused(self):
        out = []
        for line, entry in sorted(self.by_line.items()):
            for rule, _ in sorted(entry.items()):
                if (line, rule) not in self.used:
                    out.append((line, rule))
        return out


# --------------------------------------------------------------------------
# C++ text preparation for the scanner: blank out comments and string
# literals while preserving line structure, so patterns never match inside
# either.

def strip_comments_and_strings(text):
    out = []
    i = 0
    n = len(text)
    mode = "code"  # code | line_comment | block_comment | string | char
    raw_delim = None
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                # Raw string literal: R"delim( ... )delim"
                if i >= 1 and text[i - 1] == "R" and (
                        i < 2 or not text[i - 2].isalnum()):
                    m = re.match(r'"([^ ()\\\t\v\f\n]*)\(', text[i:])
                    if m:
                        raw_delim = ")" + m.group(1) + '"'
                        mode = "raw_string"
                        out.append(" ")
                        i += 1
                        continue
                mode = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                mode = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
            i += 1
        elif mode == "line_comment":
            if c == "\n":
                mode = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif mode == "block_comment":
            if c == "*" and nxt == "/":
                mode = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif mode == "raw_string":
            if text.startswith(raw_delim, i):
                out.append(" " * len(raw_delim))
                i += len(raw_delim)
                mode = "code"
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif mode == "string":
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == '"':
                mode = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif mode == "char":
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == "'":
                mode = "code"
                out.append(" ")
                i += 1
            else:
                out.append(" ")
                i += 1
    return "".join(out)


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def balanced_span(text, open_pos, open_ch="(", close_ch=")"):
    """Returns (start, end) of the balanced region starting at open_pos
    (which must index open_ch), end exclusive of the closer; or None."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return (open_pos + 1, i)
    return None


def split_top_level(s, sep=","):
    """Splits s at top-level sep (ignoring <>, (), [] nesting)."""
    parts = []
    depth = 0
    start = 0
    for i, c in enumerate(s):
        if c in "<([":
            depth += 1
        elif c in ">)]":
            depth -= 1
        elif c == sep and depth == 0:
            parts.append(s[start:i])
            start = i + 1
    parts.append(s[start:])
    return parts


# --------------------------------------------------------------------------
# Regex engine.

UNORDERED_DECL_RE = re.compile(
    r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<")
ORDERED_DECL_RE = re.compile(
    r"\bstd\s*::\s*(?:map|set|multimap|multiset)\s*<")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(")
# Only begin() starts an iteration; a bare end() is the sentinel of the
# find()/count() lookup idiom, which is order-independent and fine.
BEGIN_END_RE_TMPL = r"\b%s\s*(?:\.|->)\s*(?:c?r?begin)\s*\("

BANNED_TOKEN_PATTERNS = (
    (re.compile(r"\bstd\s*::\s*rand\b"), "std::rand"),
    (re.compile(r"(?<![\w.:>])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bstd\s*::\s*time\s*\("), "std::time()"),
    # libc time() always takes an argument (time_t* or null), which
    # distinguishes calls from declarations of methods named time().
    (re.compile(r"(?<![\w.:>])time\s*\(\s*(?:nullptr|NULL|0\b|&)"),
     "time()"),
    (re.compile(r"\bgettimeofday\b"), "gettimeofday"),
    (re.compile(r"\bclock_gettime\b"), "clock_gettime"),
    (re.compile(r"(?<![\w.:>_])clock\s*\(\s*\)"), "clock()"),
    (re.compile(r"\b(?:d|e|l|m|n|j)rand48\b|\bsrand48\b|\bseed48\b"),
     "*rand48"),
    (re.compile(r"\barc4random\w*\b"), "arc4random"),
    (re.compile(r"\bgetrandom\b|\bgetentropy\b"), "getrandom/getentropy"),
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock"),
    (re.compile(r"\bhigh_resolution_clock\b"),
     "std::chrono::high_resolution_clock"),
    (re.compile(r"\bsteady_clock\b"), "std::chrono::steady_clock"),
)

RANDOM_ENGINE_RE = re.compile(
    r"\bstd\s*::\s*(mt19937(?:_64)?|minstd_rand0?|default_random_engine|"
    r"ranlux(?:24|48)(?:_base)?|knuth_b)\b")

FP_DECL_RE = re.compile(r"\b(?:double|float)\s+(\w+)\s*[=;{(,)]")
COMPOUND_ASSIGN_RE = re.compile(
    r"([\w.\->\[\]]+)\s*([+\-*/]=)(?!=)")
PARALLEL_FOR_RE = re.compile(r"\bParallelFor(?:Worker)?\s*\(")
PAR_EXEC_RE = re.compile(
    r"\bstd\s*::\s*execution\s*::\s*par(?:_unseq)?\b")


def in_scope(path, scope_dirs):
    parts = os.path.normpath(path).split(os.sep)
    return any(p in scope_dirs for p in parts)


def collect_unordered_names(stripped_by_path):
    """Repo-wide pre-pass: names declared with an unordered container type.

    Members declared in a header are iterated in a .cc, so the name set is
    shared across every scanned file. Best-effort by construction: a
    same-named vector elsewhere would alias (suppress if that ever
    happens).
    """
    names = set()
    for _, stripped in stripped_by_path.items():
        for m in UNORDERED_DECL_RE.finditer(stripped):
            span = stripped.find("<", m.start())
            close = _matching_angle(stripped, span)
            if close is None:
                continue
            tail = stripped[close + 1:close + 160]
            dm = re.match(r"\s*&?\s*(\w+)\s*[;={(,)]", tail)
            if dm:
                names.add(dm.group(1))
    return names


def _matching_angle(text, open_pos):
    depth = 0
    for i in range(open_pos, len(text)):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i
    return None


class RegexEngine:
    def __init__(self, paths_and_text):
        # [(path, raw_text)] for every scanned file.
        self.raw = dict(paths_and_text)
        self.stripped = {
            p: strip_comments_and_strings(t) for p, t in paths_and_text}
        self.unordered_names = collect_unordered_names(self.stripped)

    def scan(self, path):
        text = self.stripped[path]
        findings = []
        findings += self._rule_unordered_container(path, text)
        findings += self._rule_unordered_iteration(path, text)
        findings += self._rule_banned_randomness(path, text)
        findings += self._rule_pointer_key(path, text)
        findings += self._rule_static_state(path, text)
        findings += self._rule_float_accumulation(path, text)
        return findings

    # -- rule: unordered-container ----------------------------------------
    def _rule_unordered_container(self, path, text):
        out = []
        for m in UNORDERED_DECL_RE.finditer(text):
            line = line_of(text, m.start())
            out.append(Finding(
                path, line, "unordered-container",
                "std::unordered container declared; prove the use is "
                "lookup-only and annotate, or switch to a deterministic "
                "structure"))
        return out

    # -- rule: unordered-iteration ----------------------------------------
    def _rule_unordered_iteration(self, path, text):
        if not in_scope(path, ITERATION_SCOPE):
            return []
        out = []
        # Range-for whose range expression names a known unordered var.
        for m in RANGE_FOR_RE.finditer(text):
            span = balanced_span(text, text.find("(", m.start()))
            if span is None:
                continue
            head = text[span[0]:span[1]]
            if ":" not in head:
                continue
            range_expr = head.rsplit(":", 1)[1].strip()
            base = re.match(r"[*&]*\s*([A-Za-z_]\w*)", range_expr)
            if base and base.group(1) in self.unordered_names:
                out.append(Finding(
                    path, line_of(text, m.start()), "unordered-iteration",
                    "range-for over unordered container '%s': iteration "
                    "order is implementation-defined and leaks into "
                    "results" % base.group(1)))
        # Explicit begin()/end() on a known unordered name.
        for name in self.unordered_names:
            for m in re.finditer(BEGIN_END_RE_TMPL % re.escape(name), text):
                out.append(Finding(
                    path, line_of(text, m.start()), "unordered-iteration",
                    "iterator over unordered container '%s': iteration "
                    "order is implementation-defined" % name))
        return out

    # -- rule: banned-randomness ------------------------------------------
    def _rule_banned_randomness(self, path, text):
        out = []
        claimed = set()
        for pattern, label in BANNED_TOKEN_PATTERNS:
            for m in pattern.finditer(text):
                line = line_of(text, m.start())
                if (line, m.start()) in claimed:
                    continue
                claimed.add((line, m.start()))
                out.append(Finding(
                    path, line, "banned-randomness",
                    "%s is banned: all randomness/time must flow through "
                    "the seeded common/rng.h Mix64 path" % label))
        for m in RANDOM_ENGINE_RE.finditer(text):
            tail = text[m.end():m.end() + 120]
            # `std::mt19937 gen;` / `gen{}` / `gen()` are un-seeded (the
            # default seed is fixed, but hides the seeding contract); a
            # parenthesised non-empty argument is an explicit seed.
            dm = re.match(r"\s+(\w+)\s*(;|\{\s*\}|\(\s*\))", tail)
            if dm:
                out.append(Finding(
                    path, line_of(text, m.start()), "banned-randomness",
                    "un-seeded std::%s '%s': seed explicitly from the "
                    "common/rng.h path or use validity::Rng" %
                    (m.group(1), dm.group(1))))
        return out

    # -- rule: pointer-key ------------------------------------------------
    def _rule_pointer_key(self, path, text):
        out = []
        for decl_re in (ORDERED_DECL_RE, UNORDERED_DECL_RE):
            for m in decl_re.finditer(text):
                open_pos = text.find("<", m.start())
                close = _matching_angle(text, open_pos)
                if close is None:
                    continue
                args = text[open_pos + 1:close]
                key = split_top_level(args)[0]
                if "*" in re.sub(r"\boperator\b.*", "", key):
                    out.append(Finding(
                        path, line_of(text, m.start()), "pointer-key",
                        "container keyed on a pointer type (%s): address "
                        "order/hash differs per run under ASLR" %
                        " ".join(key.split())))
        return out

    # -- rule: static-state -----------------------------------------------
    def _rule_static_state(self, path, text):
        if not path.endswith((".cc", ".cpp")):
            return []
        if not in_scope(path, STATIC_SCOPE):
            return []
        out = []
        out += self._namespace_scope_mutables(path, text)
        out += self._function_local_statics(path, text)
        return out

    def _namespace_scope_mutables(self, path, text):
        """Flags mutable variable definitions at namespace/file scope."""
        out = []
        # Tokenize braces while remembering which ones open namespaces.
        ns_stack = []  # True if the brace at this depth is a namespace
        stmt_start = 0
        i = 0
        n = len(text)
        while i < n:
            c = text[i]
            if c == "{":
                head = text[stmt_start:i]
                is_ns = re.search(r"\bnamespace\b[^;{}()]*$", head) is not None
                if ns_stack and not all(ns_stack):
                    is_ns = False  # nested inside a function/class body
                ns_stack.append(is_ns)
                i += 1
                stmt_start = i
                continue
            if c == "}":
                if ns_stack:
                    ns_stack.pop()
                i += 1
                stmt_start = i
                continue
            if c == ";":
                if all(ns_stack):  # at namespace (or file) scope
                    stmt = text[stmt_start:i]
                    f = self._classify_namespace_stmt(path, text,
                                                      stmt_start, stmt)
                    if f:
                        out.append(f)
                i += 1
                stmt_start = i
                continue
            i += 1
        return out

    _NS_SKIP_RE = re.compile(
        r"^\s*(?:\[\[[^\]]*\]\]\s*)*"
        r"(?:using\b|typedef\b|namespace\b|struct\b|class\b|enum\b|"
        r"template\b|extern\b|friend\b|static_assert\b|#|$)")

    def _classify_namespace_stmt(self, path, text, stmt_pos, stmt):
        if self._NS_SKIP_RE.match(stmt.strip()):
            return None
        body = re.sub(r"\[\[[^\]]*\]\]", " ", stmt)
        eq = None
        depth = 0
        for i, ch in enumerate(body):
            if ch in "<([":
                depth += 1
            elif ch in ">)]":
                depth -= 1
            elif ch == "=" and depth == 0 and (
                    i + 1 >= len(body) or body[i + 1] != "=") and (
                    i == 0 or body[i - 1] not in "!<>=+-*/&|^"):
                eq = i
                break
        decl = body[:eq] if eq is not None else body
        if eq is None and "(" in decl:
            return None  # function prototype / definition header
        if eq is not None and "(" in decl:
            return None  # e.g. `int f(int) = delete;` or fn-ptr decl w/ parens
        words = decl.split()
        if not words:
            return None
        if "constexpr" in words or "consteval" in words or "constinit" in \
                words:
            return None
        # `const T x` is immutable; `const T* x` is a mutable pointer to
        # const (the pointer itself can be reseated — g_kernel_name).
        if "const" in words:
            after_const = decl[decl.rindex("const") + len("const"):]
            if "*" not in after_const:
                return None
        line = line_of(text, stmt_pos + (len(stmt) - len(stmt.lstrip())))
        name_m = re.search(r"(\w+)\s*$", decl)
        name = name_m.group(1) if name_m else "?"
        return Finding(
            path, line, "static-state",
            "mutable namespace-scope state '%s' in a simulation "
            "translation unit: cross-query/cross-thread state bypasses "
            "the session reset contract" % name)

    def _function_local_statics(self, path, text):
        out = []
        for m in re.finditer(r"^\s+static\s+(?!const\b|constexpr\b)",
                             text, re.MULTILINE):
            # Indented static that is not a member declaration: headers are
            # excluded from this rule, and .cc class definitions are rare;
            # remaining hits are function-local statics.
            tail = text[m.end():m.end() + 200]
            if re.match(r"[\w:<>,\s*&]+\(", tail) and \
                    not re.match(r"[\w:<>,\s*&]+\([^)]*\)\s*(?:;|\s*=)",
                                 tail):
                continue  # local function declaration (illegal w/ static)
            out.append(Finding(
                path, line_of(text, m.start()), "static-state",
                "function-local static in a simulation translation unit: "
                "initialization order and lifetime outlive the query and "
                "bypass session reset"))
        return out

    # -- rule: float-accumulation -----------------------------------------
    def _rule_float_accumulation(self, path, text):
        out = []
        fp_names = set(FP_DECL_RE.findall(text))
        # (a) std::execution::par reductions are unordered by construction.
        for m in PAR_EXEC_RE.finditer(text):
            out.append(Finding(
                path, line_of(text, m.start()), "float-accumulation",
                "std::execution::par reduction: combination order is "
                "unspecified; use ParallelMap + serial merge "
                "(core/sweep.h)"))
        # (b) FP compound-assign inside a range-for over an unordered name.
        for m in RANGE_FOR_RE.finditer(text):
            open_pos = text.find("(", m.start())
            span = balanced_span(text, open_pos)
            if span is None:
                continue
            head = text[span[0]:span[1]]
            if ":" not in head:
                continue
            range_expr = head.rsplit(":", 1)[1].strip()
            base = re.match(r"[*&]*\s*([A-Za-z_]\w*)", range_expr)
            if not base or base.group(1) not in self.unordered_names:
                continue
            body = self._loop_body(text, span[1] + 1)
            for am in COMPOUND_ASSIGN_RE.finditer(body):
                lhs = am.group(1)
                if self._is_fp_lhs(lhs, fp_names):
                    out.append(Finding(
                        path, line_of(text, span[1] + 1 + am.start()),
                        "float-accumulation",
                        "floating-point accumulation over an unordered "
                        "range ('%s' in a loop over '%s'): FP addition is "
                        "not associative, so hash order changes the "
                        "result" % (lhs, base.group(1))))
        # (c) Non-slot-indexed FP accumulation inside a ParallelFor body.
        for m in PARALLEL_FOR_RE.finditer(text):
            open_pos = text.find("(", m.start())
            span = balanced_span(text, open_pos)
            if span is None:
                continue
            body = text[span[0]:span[1]]
            for am in COMPOUND_ASSIGN_RE.finditer(body):
                lhs = am.group(1)
                if "[" in lhs:
                    continue  # slot-indexed write: the sanctioned idiom
                if self._is_fp_lhs(lhs, fp_names):
                    out.append(Finding(
                        path, line_of(text, span[0] + am.start()),
                        "float-accumulation",
                        "shared floating-point accumulator '%s' inside a "
                        "ParallelFor body: claim order is nondeterministic;"
                        " write per-index slots and merge serially "
                        "(ParallelMap idiom, core/sweep.h)" % lhs))
        return out

    @staticmethod
    def _loop_body(text, after_paren):
        m = re.match(r"\s*\{", text[after_paren:])
        if m:
            span = balanced_span(text, after_paren + m.end() - 1, "{", "}")
            if span:
                return text[span[0]:span[1]]
        stmt_end = text.find(";", after_paren)
        return text[after_paren:stmt_end if stmt_end >= 0 else len(text)]

    @staticmethod
    def _is_fp_lhs(lhs, fp_names):
        base = re.split(r"[.\->\[]", lhs)[0]
        return base in fp_names or lhs in fp_names


# --------------------------------------------------------------------------
# Driver.

def gather_files(paths):
    files = []
    for p in paths:
        if os.path.isdir(p):
            for root, _, names in os.walk(p):
                for name in sorted(names):
                    if name.endswith(SOURCE_SUFFIXES):
                        files.append(os.path.join(root, name))
        elif os.path.isfile(p):
            files.append(p)
        else:
            raise FileNotFoundError(p)
    return sorted(set(files))


def lint(paths):
    """Lints `paths`; returns (files, unsuppressed, suppressed) findings."""
    files = gather_files(paths)
    paths_and_text = []
    for path in files:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            paths_and_text.append((path, f.read()))
    engine = RegexEngine(paths_and_text)

    unsuppressed = []
    suppressed = []
    for path, raw in paths_and_text:
        lines = raw.split("\n")
        supp = Suppressions(lines)
        for finding in engine.scan(path):
            reason = supp.lookup(finding.line, finding.rule)
            if reason is not None:
                finding.suppressed = True
                finding.reason = reason
                suppressed.append(finding)
            else:
                unsuppressed.append(finding)
        for line, msg in supp.malformed:
            unsuppressed.append(
                Finding(path, line, "bad-suppression", msg))
        for line, rule in supp.unused():
            unsuppressed.append(Finding(
                path, line, "bad-suppression",
                "NOLINT-DETERMINISM(%s) suppresses nothing (no %s finding "
                "on its target line); remove or fix the annotation"
                % (rule, rule)))
    unsuppressed.sort(key=lambda f: (f.path, f.line, f.rule))
    suppressed.sort(key=lambda f: (f.path, f.line))
    return files, unsuppressed, suppressed


def run(paths, show_suppressed=False, out=sys.stdout):
    files, unsuppressed, suppressed = lint(paths)
    for f in unsuppressed:
        print(f.format(), file=out)
    if show_suppressed:
        for f in suppressed:
            print(f.format(), file=out)
    print("determinism lint: %d file(s), %d finding(s), "
          "%d audited suppression(s)" %
          (len(files), len(unsuppressed), len(suppressed)),
          file=out)
    return 1 if unsuppressed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Determinism lint for the validity repo (see module "
                    "docstring and docs/DETERMINISM.md).")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to scan (default: src)")
    parser.add_argument("--show-suppressed", action="store_true",
                        help="also list audited suppressions")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule in RULES:
            print(rule)
        return 0
    try:
        return run(args.paths or ["src"], args.show_suppressed)
    except FileNotFoundError as exc:
        print("no such path: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main())
