#!/usr/bin/env python3
"""Project-specific secret-hygiene linter for the e-PPI codebase.

Pure-Python (stdlib only) so the gate runs anywhere the tests run — no
clang-tidy required. Registered as `ctest -L lint` and wired into
`scripts/check.sh --lint` and CI. Exit status: 0 clean, 1 violations,
2 usage error.

Rules — suppress a single line with

    // eppi-lint: allow(<rule>): <reason>

The reason is mandatory: a bare `allow(<rule>)` no longer suppresses
anything and is itself flagged (`allow-without-reason`), so every
suppression in the tree documents why it is safe:

  rng-construction   std::mt19937 / std::random_device / rand() / srand()
                     constructed outside src/common/rng.h. All randomness
                     must flow through eppi::Rng so runs are seeded and
                     reproducible, and so tests can fork deterministic
                     per-party streams.

  secret-logging     EPPI_LOG/EPPI_DEBUG/... or an iostream insertion whose
                     argument mentions a share/secret identifier. The type
                     system already rejects streaming Secret<T>; this rule
                     catches the pre-taint pattern of logging a *raw* share
                     value that was just unwrapped.

  unbounded-recv     `while (true)` / `for (;;)` loops containing a blocking
                     ctx.recv(...) in protocol code (src/secret, src/mpc):
                     a lost message would hang the party forever. Protocol
                     loops must be bounded by counts or use recv_for.

  escape-hatch       .reveal() / .unwrap_for_wire() / reveal_shares( /
                     wire_shares( outside the audited zones (src/secret,
                     src/mpc, src/attack, tests, bench, examples, tools).
                     src/core and src/net must stay taint-only.

  raw-file-write     std::ofstream / fopen() / ::open() in library or tool
                     code outside src/storage/. Durable state must go
                     through storage::Vfs (atomic_write_file/durable_append)
                     so every write follows the crash-safe commit protocol
                     and is testable under injected storage faults.

  secret-trace-attr  a reveal()/unwrap_for_wire() result passed directly to
                     an observability API (Span::attr/event, Counter::add,
                     Gauge::set, Histogram::record, Registry::counter/...).
                     The deleted Secret<T> overload on Span::attr blocks the
                     typed path at compile time; this rule catches the
                     unwrap-then-record laundering pattern. Telemetry is
                     exported (Prometheus, JSONL traces, BENCH json), so it
                     is NEVER an audited zone — the rule fires even inside
                     src/secret and src/mpc. Only tests/ may do this, to pin
                     the rule itself.

  layering           a file under src/<dir>/ includes a header from a src/
                     dir that <dir> may not depend on (LAYERS below). The
                     table is the library link graph: it keeps the static
                     libraries acyclic, so a lower layer (say secret/) can
                     never reach up into a higher one (mpc/).

  build-artifact     build directories, object files, or binaries committed
                     to the repository.

  beta-derivation    under src/core, a call of beta_raw( or lambda_for(
                     outside core/beta_plan.cpp and the files defining them
                     (core/beta_policy.*, core/mixing.*), or of sticky_bit(
                     outside core/beta_plan.cpp (the keyed mixing coin) and
                     core/sticky_publisher.* (publication). Every path
                     derives β*, λ and its mixing coins through BetaPlan, so
                     a second hand-written copy of the chain cannot drift
                     from it. src/attack, bench and tests are out of scope.

  allow-without-reason  an `// eppi-lint: allow(<rule>)` suppression with no
                     `: <reason>` tail. Reasonless suppressions rot: the next
                     reader cannot tell a reviewed exemption from a silenced
                     true positive.

Usage:
  tools/eppi_lint.py [--root DIR] [--list-rules] [--sarif FILE] [paths...]
  tools/eppi_lint.py --self-test

`--sarif FILE` additionally writes the violations as SARIF 2.1.0 (the same
shape tools/eppi_analyze.py emits); scripts/merge_sarif.py folds both tools'
output into the single file CI uploads for code scanning.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass

# --------------------------------------------------------------------------
# Shared helpers

SOURCE_EXTENSIONS = (".cpp", ".h", ".hpp", ".cc")

# A suppression must carry a reason; see allow-without-reason below.
ALLOW_RE = re.compile(r"//\s*eppi-lint:\s*allow\(([a-z-]+)\)\s*:\s*\S")
BARE_ALLOW_RE = re.compile(r"//\s*eppi-lint:\s*allow\(([a-z-]+)\)(?!\s*:\s*\S)")

# Paths (relative, '/'-separated) scanned for source rules.
SOURCE_DIRS = ("src", "tests", "bench", "examples", "tools")


@dataclass
class Violation:
    rule: str
    path: str
    line: int  # 1-based; 0 = whole file
    message: str

    def format(self) -> str:
        where = f"{self.path}:{self.line}" if self.line else self.path
        return f"{where}: [{self.rule}] {self.message}"


def strip_comments_and_strings(line: str) -> str:
    """Crude single-line scrub so rules don't fire inside comments/strings.

    Good enough for a line-oriented linter: removes // comments, "..." and
    '...' literals. Block comments are handled by the caller's state.
    """
    line = re.sub(r'"(\\.|[^"\\])*"', '""', line)
    line = re.sub(r"'(\\.|[^'\\])*'", "''", line)
    comment = line.find("//")
    if comment != -1:
        line = line[:comment]
    return line


def iter_code_lines(text: str):
    """Yields (lineno, raw_line, scrubbed_line) with block comments blanked."""
    in_block = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw
        if in_block:
            end = line.find("*/")
            if end == -1:
                yield lineno, raw, ""
                continue
            line = line[end + 2:]
            in_block = False
        # Blank any block comments that open (and maybe close) on this line.
        while True:
            start = line.find("/*")
            if start == -1:
                break
            end = line.find("*/", start + 2)
            if end == -1:
                line = line[:start]
                in_block = True
                break
            line = line[:start] + line[end + 2:]
        yield lineno, raw, strip_comments_and_strings(line)


def allowed(raw_line: str, rule: str) -> bool:
    m = ALLOW_RE.search(raw_line)
    return bool(m) and m.group(1) == rule


# --------------------------------------------------------------------------
# Rule: rng-construction

RNG_RE = re.compile(
    r"\bstd\s*::\s*(mt19937(_64)?|minstd_rand0?|random_device|"
    r"default_random_engine|ranlux\w+|knuth_b)\b"
    r"|(?<![\w:])s?rand\s*\(")

RNG_EXEMPT = ("src/common/rng.h", "src/common/rng.cpp")


def check_rng(path: str, text: str, out: list):
    if path in RNG_EXEMPT:
        return
    for lineno, raw, code in iter_code_lines(text):
        if RNG_RE.search(code) and not allowed(raw, "rng-construction"):
            out.append(Violation(
                "rng-construction", path, lineno,
                "construct randomness via eppi::Rng (src/common/rng.h), not "
                "std engines or rand()"))


# --------------------------------------------------------------------------
# Rule: secret-logging

LOG_MACRO_RE = re.compile(r"\bEPPI_(LOG|DEBUG|INFO|WARN|ERROR)\s*\(")
STREAM_RE = re.compile(r"\b(std\s*::\s*)?(cout|cerr|clog)\b[^;]*<<")
# Identifiers that smell like share material when streamed.
SECRET_IDENT_RE = re.compile(
    r"<<[^;]*\b(share|shares|secret|triple|mask|my_share|super_share)\w*\b",
    re.IGNORECASE)


def check_secret_logging(path: str, text: str, out: list):
    lines = list(iter_code_lines(text))
    for i, (lineno, raw, code) in enumerate(lines):
        if not (LOG_MACRO_RE.search(code) or STREAM_RE.search(code)):
            continue
        # A log statement may span lines; inspect a small window.
        window = " ".join(c for _, _, c in lines[i:i + 3])
        if SECRET_IDENT_RE.search(window) and not allowed(raw, "secret-logging"):
            out.append(Violation(
                "secret-logging", path, lineno,
                "log statement streams a share/secret-named value; log the "
                "public opening (reveal()) or counts instead"))


# --------------------------------------------------------------------------
# Rule: unbounded-recv (protocol code only)

UNBOUNDED_LOOP_RE = re.compile(r"\bwhile\s*\(\s*(true|1)\s*\)|\bfor\s*\(\s*;;")
BLOCKING_RECV_RE = re.compile(r"\bctx\s*[.\-]>?\s*recv\s*\(|\binbox_?\.recv\s*\(")

PROTOCOL_DIRS = ("src/secret/", "src/mpc/")


def check_unbounded_recv(path: str, text: str, out: list):
    if not path.startswith(PROTOCOL_DIRS):
        return
    lines = list(iter_code_lines(text))
    for i, (lineno, raw, code) in enumerate(lines):
        if not UNBOUNDED_LOOP_RE.search(code):
            continue
        # Scan the loop body: to the matching close brace, tracked naively by
        # depth from the loop's opening brace.
        depth = 0
        opened = False
        for lineno2, raw2, code2 in lines[i:]:
            depth += code2.count("{") - code2.count("}")
            if "{" in code2:
                opened = True
            if opened and BLOCKING_RECV_RE.search(code2) \
                    and not allowed(raw2, "unbounded-recv") \
                    and not allowed(raw, "unbounded-recv"):
                out.append(Violation(
                    "unbounded-recv", path, lineno2,
                    "blocking recv inside an unbounded loop in protocol "
                    "code: bound the loop or use recv_for with a timeout"))
                break
            if opened and depth <= 0:
                break


# --------------------------------------------------------------------------
# Rule: escape-hatch confinement

ESCAPE_RE = re.compile(
    r"\.\s*(reveal|unwrap_for_wire)\s*\(|\b(reveal_shares|wire_shares)\s*\(")

# Zones where opening/serializing shares is part of the audited design.
ESCAPE_ZONES = ("src/secret/", "src/mpc/", "src/attack/",
                "tests/", "bench/", "examples/", "tools/")


def check_escape_hatch(path: str, text: str, out: list):
    if path.startswith(ESCAPE_ZONES):
        return
    for lineno, raw, code in iter_code_lines(text):
        if ESCAPE_RE.search(code) and not allowed(raw, "escape-hatch"):
            out.append(Violation(
                "escape-hatch", path, lineno,
                "reveal()/unwrap_for_wire() outside the audited zones "
                "(src/secret, src/mpc, src/attack, tests, bench, examples, "
                "tools); keep src/core and src/net taint-only"))


# --------------------------------------------------------------------------
# Rule: raw-file-write confinement

RAW_WRITE_RE = re.compile(
    r"\bstd\s*::\s*ofstream\b|\bfopen\s*\(|(?<![\w.])::open\s*\(")

# Library and tool code must write through storage::Vfs; tests, benches and
# examples may write scratch files directly.
RAW_WRITE_SCOPES = ("src/", "tools/")
RAW_WRITE_EXEMPT = ("src/storage/",)


def check_raw_file_write(path: str, text: str, out: list):
    if not path.startswith(RAW_WRITE_SCOPES):
        return
    if path.startswith(RAW_WRITE_EXEMPT):
        return
    for lineno, raw, code in iter_code_lines(text):
        if RAW_WRITE_RE.search(code) and not allowed(raw, "raw-file-write"):
            out.append(Violation(
                "raw-file-write", path, lineno,
                "raw file write outside src/storage/; durable state must go "
                "through storage::Vfs (atomic_write_file / durable_append) "
                "so writes are crash-safe and fault-injectable"))


# --------------------------------------------------------------------------
# Rule: secret-trace-attr

# Cheap gate: the line mentions an obs-flavored call at all.
TRACE_CALL_RE = re.compile(
    r"\.\s*(attr|event|record)\s*\(|\b(counter|gauge|histogram)\s*\("
    r"|\.\s*(add|set)\s*\(")
# The violation: an unwrap hatch invoked inside the argument list of one of
# those calls, within a single statement (no ';' between them). Indirect
# flows (unwrap into a local, record the local) are out of scope here — the
# escape-hatch and secret-logging rules own that territory.
TRACE_REVEAL_RE = re.compile(
    r"\b(attr|event|record|add|set|counter|gauge|histogram)\s*\("
    r"[^;]*\b(reveal|unwrap_for_wire)\s*\(")

TRACE_ATTR_EXEMPT = ("tests/",)


def check_secret_trace_attr(path: str, text: str, out: list):
    if path.startswith(TRACE_ATTR_EXEMPT):
        return
    lines = list(iter_code_lines(text))
    for i, (lineno, raw, code) in enumerate(lines):
        if not TRACE_CALL_RE.search(code):
            continue
        # The call's argument list may span lines; inspect a small window.
        window = " ".join(c for _, _, c in lines[i:i + 3])
        if TRACE_REVEAL_RE.search(window) \
                and not allowed(raw, "secret-trace-attr"):
            out.append(Violation(
                "secret-trace-attr", path, lineno,
                "reveal()/unwrap_for_wire() result recorded into a span "
                "attribute or metric; telemetry is exported, so open the "
                "value into a named local (auditable) only if it is public, "
                "and never inline into an observability call"))


# --------------------------------------------------------------------------
# Rule: layering

# For each src/ dir, the other src/ dirs its files may include from. Widening
# an edge is a design change: check it keeps the graph acyclic first.
LAYERS = {
    "common": frozenset(),
    "obs": frozenset({"common"}),
    "storage": frozenset(),
    "dataset": frozenset({"common"}),
    "net": frozenset({"common", "obs"}),
    "secret": frozenset({"common", "net", "obs"}),
    "mpc": frozenset({"common", "net", "obs", "secret"}),
    "core": frozenset({"common", "mpc", "net", "obs", "secret", "storage"}),
    "baseline": frozenset({"common", "core", "mpc", "net"}),
    "attack": frozenset({"common", "core"}),
}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([a-z_]+)/')


def check_layering(path: str, text: str, out: list):
    parts = path.split("/")
    if len(parts) < 3 or parts[0] != "src":
        return
    layer = parts[1]
    allowed_dirs = LAYERS.get(layer, frozenset())
    for lineno, raw, code in iter_code_lines(text):
        m = INCLUDE_RE.match(raw)
        if not m or not code.lstrip().startswith("#"):
            continue
        target = m.group(1)
        if target == layer or target not in LAYERS \
                or target in allowed_dirs or allowed(raw, "layering"):
            continue
        out.append(Violation(
            "layering", path, lineno,
            f"src/{layer}/ may not include from {target}/ (allowed: "
            f"{', '.join(sorted(allowed_dirs)) or 'none'}); the library "
            f"graph must stay acyclic"))


# --------------------------------------------------------------------------
# Rule: beta-derivation

BETA_CALL_RE = re.compile(r"(?<![\w.>])(beta_raw|lambda_for|sticky_bit)\s*\(")

# For each derivation primitive, the src/core files that may call it.
BETA_CALLERS = {
    "beta_raw": ("src/core/beta_plan.cpp", "src/core/beta_policy.h",
                 "src/core/beta_policy.cpp"),
    "lambda_for": ("src/core/beta_plan.cpp", "src/core/mixing.h",
                   "src/core/mixing.cpp"),
    "sticky_bit": ("src/core/beta_plan.cpp", "src/core/sticky_publisher.h",
                   "src/core/sticky_publisher.cpp"),
}


def check_beta_derivation(path: str, text: str, out: list):
    if not path.startswith("src/core/"):
        return
    for lineno, raw, code in iter_code_lines(text):
        for m in BETA_CALL_RE.finditer(code):
            name = m.group(1)
            if path in BETA_CALLERS[name] \
                    or allowed(raw, "beta-derivation"):
                continue
            out.append(Violation(
                "beta-derivation", path, lineno,
                f"{name}() called outside BetaPlan; derive β*, λ and the "
                f"mixing coins through core/beta_plan.h so every path runs "
                f"the one derivation"))


# --------------------------------------------------------------------------
# Rule: allow-without-reason

def check_allow_reason(path: str, text: str, out: list):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        m = BARE_ALLOW_RE.search(raw)
        if m:
            out.append(Violation(
                "allow-without-reason", path, lineno,
                f"allow({m.group(1)}) without a reason; write "
                f"`// eppi-lint: allow({m.group(1)}): <why this is safe>` "
                f"(a bare allow suppresses nothing)"))


# --------------------------------------------------------------------------
# Rule: build-artifact (repo hygiene; checks the git index, not file text)

ARTIFACT_RE = re.compile(
    r"(^|/)(build[^/]*|cmake-build[^/]*)/"
    r"|\.(o|obj|a|so|dylib|exe|gch|pch)$"
    r"|(^|/)CMakeCache\.txt$|(^|/)CMakeFiles/")


def check_build_artifacts(root: str, out: list):
    try:
        proc = subprocess.run(
            ["git", "ls-files"], cwd=root, capture_output=True, text=True,
            timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return  # not a git checkout (e.g. an exported tarball): skip
    for path in proc.stdout.splitlines():
        if ARTIFACT_RE.search(path):
            out.append(Violation(
                "build-artifact", path, 0,
                "build artifact committed to the repository"))


# --------------------------------------------------------------------------
# Driver

SOURCE_CHECKS = (check_rng, check_secret_logging, check_unbounded_recv,
                 check_escape_hatch, check_raw_file_write,
                 check_secret_trace_attr, check_layering, check_allow_reason,
                 check_beta_derivation)

RULES = ("rng-construction", "secret-logging", "unbounded-recv",
         "escape-hatch", "raw-file-write", "secret-trace-attr", "layering",
         "build-artifact", "allow-without-reason", "beta-derivation")


def collect_files(root: str, explicit):
    if explicit:
        for p in explicit:
            rel = os.path.relpath(os.path.abspath(p), root).replace(os.sep, "/")
            yield rel
        return
    for base in SOURCE_DIRS:
        top = os.path.join(root, base)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTENSIONS):
                    full = os.path.join(dirpath, name)
                    yield os.path.relpath(full, root).replace(os.sep, "/")


def to_sarif(violations):
    """SARIF 2.1.0, same shape as tools/eppi_analyze.py emits so
    scripts/merge_sarif.py can fold both into one code-scanning upload."""
    def fingerprint(v):
        return hashlib.sha256(
            f"{v.rule}|{v.path}|{v.message}".encode()).hexdigest()[:16]
    return {
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                   "master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "eppi-lint",
                "rules": [{"id": r} for r in RULES],
            }},
            "results": [
                {
                    "ruleId": v.rule,
                    "level": "error",
                    "message": {"text": v.message},
                    "partialFingerprints": {"eppiLint/v1": fingerprint(v)},
                    "locations": [{
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": v.path, "uriBaseId": "SRCROOT"},
                            "region": {"startLine": max(1, v.line)},
                        }
                    }],
                }
                for v in violations
            ],
        }],
    }


def run_lint(root: str, explicit=None) -> list:
    violations: list = []
    for rel in collect_files(root, explicit):
        full = os.path.join(root, rel)
        try:
            with open(full, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError:
            continue
        for check in SOURCE_CHECKS:
            check(rel, text, violations)
    if not explicit:
        check_build_artifacts(root, violations)
    return violations


# --------------------------------------------------------------------------
# Self-test: every rule must fire on a seeded violation and stay quiet on a
# clean equivalent. Keeps the linter itself honest (`--self-test` is run by
# the lint ctest alongside the tree scan).

SELF_TEST_CASES = [
    # (rule, path, snippet, should_fire)
    ("rng-construction", "src/core/x.cpp",
     "std::mt19937 gen(42);\n", True),
    ("rng-construction", "src/core/x.cpp",
     "eppi::Rng rng(42);\n", False),
    ("rng-construction", "src/core/x.cpp",
     "std::mt19937 gen(42);  "
     "// eppi-lint: allow(rng-construction): seeding test vector\n", False),
    # A reasonless allow no longer suppresses the underlying rule...
    ("rng-construction", "src/core/x.cpp",
     "std::mt19937 gen(42);  // eppi-lint: allow(rng-construction)\n", True),
    # ...and is flagged in its own right.
    ("allow-without-reason", "src/core/x.cpp",
     "std::mt19937 gen(42);  // eppi-lint: allow(rng-construction)\n", True),
    ("allow-without-reason", "src/core/x.cpp",
     "std::mt19937 gen(42);  "
     "// eppi-lint: allow(rng-construction): seeding test vector\n", False),
    ("rng-construction", "src/common/rng.h",
     "std::mt19937_64 engine_;\n", False),
    ("secret-logging", "src/core/x.cpp",
     'EPPI_DEBUG("share = " << my_share);\n', True),
    ("secret-logging", "src/core/x.cpp",
     'EPPI_DEBUG("rounds = " << n_rounds);\n', False),
    ("secret-logging", "src/core/x.cpp",
     'std::cout << "super_share " << super_share;\n', True),
    ("unbounded-recv", "src/secret/x.cpp",
     "while (true) {\n  auto m = ctx.recv(p, tag, seq);\n}\n", True),
    ("unbounded-recv", "src/secret/x.cpp",
     "for (std::size_t i = 0; i < n; ++i) {\n"
     "  auto m = ctx.recv(p, tag, seq);\n}\n", False),
    ("unbounded-recv", "src/core/x.cpp",  # outside protocol dirs
     "while (true) {\n  auto m = ctx.recv(p, tag, seq);\n}\n", False),
    ("escape-hatch", "src/core/x.cpp",
     "auto v = share.reveal();\n", True),
    ("escape-hatch", "src/net/x.cpp",
     "auto v = wire_shares(mine);\n", True),
    ("escape-hatch", "src/mpc/x.cpp",
     "auto v = share.reveal();\n", False),
    ("escape-hatch", "tests/secret/x.cpp",
     "auto v = share.reveal();\n", False),
    ("raw-file-write", "src/core/x.cpp",
     "std::ofstream out(path, std::ios::binary);\n", True),
    ("raw-file-write", "tools/x.cpp",
     "FILE* f = fopen(path, \"wb\");\n", True),
    ("raw-file-write", "src/storage/posix_vfs.cpp",  # the sanctioned zone
     "const int fd = ::open(path.c_str(), O_WRONLY);\n", False),
    ("raw-file-write", "tests/core/x.cpp",  # tests may write scratch files
     "std::ofstream out(path);\n", False),
    ("raw-file-write", "src/core/x.cpp",
     "std::ofstream out(p);  "
     "// eppi-lint: allow(raw-file-write): scratch dump, not durable state\n",
     False),
    ("raw-file-write", "src/core/x.cpp",
     "std::ifstream in(path, std::ios::binary);\n", False),
    ("secret-trace-attr", "src/core/x.cpp",
     'span.attr("count", total.reveal());\n', True),
    ("secret-trace-attr", "src/secret/x.cpp",  # audited for reveal, NOT for telemetry
     'span.attr("sum", acc.reveal());\n', True),
    ("secret-trace-attr", "src/net/x.cpp",
     'registry.counter("x").add(s.unwrap_for_wire());\n', True),
    ("secret-trace-attr", "src/core/x.cpp",
     'span.attr("count",\n          total.reveal());\n', True),
    ("secret-trace-attr", "src/core/x.cpp",
     'span.attr("count", counted.common_count);\n', False),
    ("secret-trace-attr", "src/core/x.cpp",  # indirect flow: other rules' turf
     "auto v = share.reveal();\nspan.attr(\"v\", v);\n", False),
    ("secret-trace-attr", "tests/obs/x.cpp",  # tests pin the rule itself
     'span.attr("v", s.reveal());\n', False),
    ("secret-trace-attr", "src/core/x.cpp",
     'span.attr("n", t.reveal());  '
     "// eppi-lint: allow(secret-trace-attr): value is a public count\n",
     False),
    ("layering", "src/secret/x.cpp",  # a lower layer reaching up
     '#include "mpc/gmw.h"\n', True),
    ("layering", "src/mpc/x.cpp",
     '#include "secret/secret.h"\n', False),
    ("layering", "src/secret/x.cpp",  # commented out: not an include
     '// #include "mpc/gmw.h"\n', False),
    ("beta-derivation", "src/core/epoch_manager.cpp",
     "raw[j] = beta_raw(policy, sigma, eps, m);\n", True),
    ("beta-derivation", "src/core/construction_party.cpp",
     "const double lambda =\n    eppi::core::lambda_for(xi, common, n);\n",
     True),
    ("beta-derivation", "src/core/epoch_manager.cpp",
     "return sticky_bit(mix64(stream + j), threshold);\n", True),
    ("beta-derivation", "src/core/beta_plan.cpp",
     "return beta_raw(policy, sigma, epsilon, m);\n", False),
    ("beta-derivation", "src/core/beta_policy.cpp",  # the definition
     "double beta_raw(const BetaPolicy& policy, double sigma,\n", False),
    ("beta-derivation", "src/core/sticky_publisher.cpp",
     "return sticky_bit(draw(identity), sticky_threshold(beta));\n", False),
    ("beta-derivation", "src/core/construction_party.cpp",  # the plan's rule
     "BetaPlan::raw_beta(policy, frequency, epsilon, m);\n", False),
    ("beta-derivation", "src/core/x.cpp",  # a comment naming the formula
     "// beta_raw(policy, f/m, epsilon, m) >= 1\n", False),
    ("beta-derivation", "src/attack/beta_inversion.cpp",  # out of scope
     "if (eppi::core::beta_raw(policy, hi, epsilon, m) < beta) {\n", False),
    ("beta-derivation", "tests/core/mixing_test.cpp",
     "EXPECT_EQ(lambda_for(0.8, 0, 100), 0.0);\n", False),
]


def self_test() -> int:
    failures = 0
    for rule, path, snippet, should_fire in SELF_TEST_CASES:
        out: list = []
        for check in SOURCE_CHECKS:
            check(path, snippet, out)
        fired = any(v.rule == rule for v in out)
        if fired != should_fire:
            failures += 1
            want = "fire" if should_fire else "stay quiet"
            print(f"self-test FAIL: rule {rule} on {path!r} should {want}\n"
                  f"  snippet: {snippet!r}", file=sys.stderr)
    if failures:
        print(f"self-test: {failures} case(s) failed", file=sys.stderr)
        return 1
    print(f"self-test: all {len(SELF_TEST_CASES)} cases passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repository root (default: parent of tools/)")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--sarif", default=None,
                        help="also write SARIF 2.1.0 to this file")
    parser.add_argument("paths", nargs="*",
                        help="restrict the scan to these files")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(rule)
        return 0
    if args.self_test:
        return self_test()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    violations = run_lint(root, args.paths or None)
    if args.sarif:
        with open(args.sarif, "w", encoding="utf-8") as out:
            json.dump(to_sarif(violations), out, indent=2)
            out.write("\n")
    for v in violations:
        print(v.format())
    if violations:
        print(f"eppi-lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("eppi-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
