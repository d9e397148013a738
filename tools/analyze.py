#!/usr/bin/env python3
"""Repo analyzer: enforces CachedAttention source-tree invariants.

Dependency-free (stdlib only) so it runs anywhere a python3 exists; wired
into CTest as the `analyze` test and run in every CI job. Successor to the
single-pass tools/lint.py. Rules (see tools/README.md for rationale):

  header-guard   every .h under src/ uses an include guard derived from its
                 path: src/store/types.h -> CA_STORE_TYPES_H_
  no-cout        no std::cout in src/ outside src/common/logging.* (all
                 diagnostics go through CA_LOG so they are leveled,
                 filterable and thread-safe; CA_CHECK's std::cerr abort path
                 is deliberate and exempt)
  naked-new      no `new` expressions in src/ (RAII throughout; no owning
                 raw pointers)
  cmake-listed   every .cc under src/ is declared in its directory's
                 CMakeLists.txt (an unlisted file silently never builds)
  no-assert      no assert() in src/ — CA_CHECK stays on in release builds,
                 where silent cache corruption would otherwise go unnoticed
  check-on-status  no CA_CHECK / CA_CHECK_OK on a Status or Result anywhere
                 in src/: fallible operations must propagate their Status —
                 in the store/engine tiers so I/O faults degrade to a cache
                 miss instead of aborting the serving process (DESIGN.md
                 §10), and everywhere else because a discarded-or-aborted
                 Status hides the error path the caller was meant to handle.
                 CA_CHECK on non-Status invariants is unaffected.
  no-raw-clock   no raw std::chrono clock reads (steady_clock, system_clock,
                 high_resolution_clock) in src/store and src/core: timing
                 there must go through ca::TraceNowNs (src/obs/trace.h) so
                 engine/store timestamps land on the same timeline as the
                 trace spans (DESIGN.md §11). sleep_for with a plain duration
                 is fine; src/obs itself owns the clock.
  include-layering  `#include "src/<layer>/..."` edges must follow the layer
                 DAG in LAYER_DEPS (DESIGN.md §13): common → obs → tensor →
                 model → store → core → sched → serve → cluster; sim sits
                 on sched and workload, with no edge to core, serve or
                 cluster. A lower layer including a higher one is how cyclic
                 link dependencies and untestable seams start.
  guarded-field  in any class that owns a ca::Mutex, every mutable data
                 member must either carry CA_GUARDED_BY(...) (so Clang's
                 thread-safety analysis covers it) or an explicit
                 `// unguarded: <reason>` waiver on its own or the preceding
                 line (DESIGN.md §13). const/atomic members and the sync
                 primitives themselves are exempt.
  nolint-scope   suppressions must name the rule(s) they silence:
                 `NOLINT(rule-a, rule-b)`. A bare NOLINT is itself a
                 violation — blanket suppression hides every future rule on
                 that line.

Suppression: a line containing `NOLINT(rule, ...)` is exempt from exactly
the named rules. Rule names that this analyzer does not know (e.g. clang-tidy
check names) are permitted and simply have no effect here.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
from typing import Dict, List, NamedTuple, Optional, Set

# The layering DAG (DESIGN.md §13): src/<layer> may include src/<dep> iff
# dep is in its entry. Same-layer includes are always allowed. A directory
# missing from this map is itself a violation — extending the tree means
# deciding where the new layer sits.
LAYER_DEPS: Dict[str, Set[str]] = {
    "common": set(),
    "obs": {"common"},
    "tensor": {"common", "obs"},
    "model": {"common", "obs", "tensor"},
    "train": {"common", "obs", "tensor", "model"},
    "store": {"common", "obs"},
    "workload": {"common", "obs", "store"},
    "core": {"common", "obs", "tensor", "model", "store"},
    "sched": {"common", "obs", "store"},
    "serve": {"common", "obs", "tensor", "model", "store", "core", "sched"},
    "cluster": {"common", "obs", "tensor", "model", "store", "core", "sched", "serve"},
    "sim": {"common", "obs", "tensor", "model", "store", "sched", "workload"},
}


class Violation(NamedTuple):
    path: str  # repo-relative
    line: int  # 1-based; 0 for file-level violations
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


_NOLINT_SCOPED = re.compile(r"NOLINT\(([^)]*)\)")
_NOLINT_ANY = re.compile(r"\bNOLINT\b")


def nolint_rules(raw_line: str) -> Optional[Set[str]]:
    """Rules a line's NOLINT suppresses, or None if the line has no NOLINT.

    A bare NOLINT (no rule list) returns the empty set: it suppresses
    nothing and the nolint-scope rule reports it.
    """
    if not _NOLINT_ANY.search(raw_line):
        return None
    rules: Set[str] = set()
    for m in _NOLINT_SCOPED.finditer(raw_line):
        rules.update(r.strip() for r in m.group(1).split(",") if r.strip())
    return rules


def suppressed(raw_line: str, rule: str) -> bool:
    rules = nolint_rules(raw_line)
    return rules is not None and rule in rules


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving line structure.

    Replaced regions become spaces (newlines kept) so line numbers of the
    remaining code survive. Handles //, /* */, "..." and '...' with escapes;
    raw strings are not used in this codebase.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif c == "/" and nxt == "*":
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                else:
                    out.append("\n" if text[i] == "\n" else " ")
                    i += 1
            if i < n:
                out.append(" ")
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def expected_guard(rel: pathlib.PurePath) -> str:
    """src/store/types.h -> CA_STORE_TYPES_H_ (the `src/` prefix is dropped)."""
    parts = rel.parts[1:] if rel.parts and rel.parts[0] == "src" else rel.parts
    stem = "_".join(parts)
    return "CA_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_"


def check_header_guard(rel: pathlib.PurePath, text: str) -> List[Violation]:
    guard = expected_guard(rel)
    ifndef = re.search(r"^#ifndef\s+(\S+)", text, re.MULTILINE)
    if ifndef is None:
        return [Violation(str(rel), 0, "header-guard", f"missing include guard {guard}")]
    found = ifndef.group(1)
    if found != guard:
        line = text[: ifndef.start()].count("\n") + 1
        return [
            Violation(
                str(rel), line, "header-guard",
                f"guard {found} does not match path-derived {guard}",
            )
        ]
    if f"#define {guard}" not in text:
        return [Violation(str(rel), 0, "header-guard", f"guard {guard} never #defined")]
    return []


def check_content_rules(rel: pathlib.PurePath, text: str) -> List[Violation]:
    violations: List[Violation] = []
    raw_lines = text.splitlines()
    code = strip_comments_and_strings(text)
    code_lines = code.splitlines()
    is_logging = rel.parts[-1].startswith("logging.")
    # The file that defines CA_CHECK_OK necessarily spells it out.
    is_check_impl = rel.parts[-2:] == ("common", "check.h")
    # Layers where timing must share the trace timeline (DESIGN.md §11).
    is_io_path = rel.parts[:2] in (("src", "store"), ("src", "core"))
    layer = rel.parts[1] if len(rel.parts) > 2 and rel.parts[0] == "src" else None

    for idx, raw in enumerate(raw_lines):
        code_line = code_lines[idx] if idx < len(code_lines) else ""
        lineno = idx + 1

        # nolint-scope runs on the raw line BEFORE suppression: a bare
        # NOLINT must not be able to silence the rule that rejects it.
        rules_named = nolint_rules(raw)
        if rules_named is not None and not rules_named:
            violations.append(
                Violation(str(rel), lineno, "nolint-scope",
                          "bare NOLINT; name the suppressed rule(s): NOLINT(rule)")
            )

        def hit(rule: str, message: str) -> None:
            if not suppressed(raw, rule):
                violations.append(Violation(str(rel), lineno, rule, message))

        if not is_logging and re.search(r"\bstd\s*::\s*cout\b", code_line):
            hit("no-cout", "use CA_LOG instead of writing to std::cout")
        if re.search(r"\bnew\b", code_line):
            hit("naked-new", "no `new` expressions; use std::make_unique or values")
        if re.search(r"\bassert\s*\(", code_line):
            hit("no-assert", "use CA_CHECK (stays on in release) instead of assert")
        if is_io_path and re.search(
            r"\b(steady_clock|system_clock|high_resolution_clock)\b", code_line
        ):
            hit("no-raw-clock",
                "use ca::TraceNowNs (src/obs/trace.h) so timestamps "
                "share the trace timeline; see DESIGN.md §11")
        if not is_check_impl and re.search(r"\bCA_CHECK(_\w+)?\s*\(", code_line):
            # A CA_CHECK's argument list may wrap (clang-format breaks long
            # conditions), so scan to the end of the statement — up to 3
            # continuation lines or the first ';' — not just this line.
            # Async submission/completion code is the usual offender: the
            # Status comes back on another line than the CA_CHECK.
            window_parts = [code_line]
            if ";" not in code_line:
                for follow in code_lines[idx + 1:idx + 4]:
                    window_parts.append(follow)
                    if ";" in follow:
                        break
            window = " ".join(window_parts)
            if re.search(r"\bCA_CHECK_OK\s*\(", code_line) or re.search(
                r"(\.|->)\s*(ok|status)\s*\(", window
            ):
                hit("check-on-status",
                    "propagate the Status instead of aborting on it; in tier "
                    "I/O this must degrade to a miss (DESIGN.md §10)")
        if layer is not None:
            m = re.search(r'^\s*#\s*include\s+"src/([A-Za-z0-9_]+)/', raw)
            if m is not None:
                target = m.group(1)
                if layer not in LAYER_DEPS:
                    hit("include-layering",
                        f"layer src/{layer} is not in the layering DAG; add it "
                        "to LAYER_DEPS in tools/analyze.py (DESIGN.md §13)")
                elif target != layer and target not in LAYER_DEPS.get(layer, set()):
                    hit("include-layering",
                        f"src/{layer} may not include src/{target}; allowed: "
                        f"{sorted(LAYER_DEPS[layer]) or 'nothing below it'} "
                        "(DESIGN.md §13)")
    return violations


# ----------------------------------------------------------------------------
# guarded-field: completeness of thread-safety annotations.

_MEMBER_SKIP_KEYWORDS = (
    "using", "typedef", "static", "friend", "class", "struct", "enum",
    "union", "template", "operator", "virtual",
)

# Members that are synchronization primitives themselves, not data they guard.
_SYNC_TYPE = re.compile(
    r"\b(Mutex|CondVar|std\s*::\s*mutex|std\s*::\s*condition_variable)\b")
_ATOMIC_TYPE = re.compile(r"\batomic\b")


class _Member(NamedTuple):
    line: int  # 1-based line of the statement start
    text: str  # full statement text (annotations included)
    name: str


class _ClassBody(NamedTuple):
    name: str
    line: int  # 1-based line of the class keyword
    start: int  # offset of `{` in the stripped text
    end: int  # offset one past the matching `}`


def _find_class_bodies(code: str) -> List[_ClassBody]:
    bodies: List[_ClassBody] = []
    for m in re.finditer(r"\b(class|struct)\s+([A-Za-z_]\w*)", code):
        # Walk to the body `{`, giving up at `;` (forward declaration) or
        # another class keyword (the match was e.g. a template parameter).
        i = m.end()
        while i < len(code) and code[i] not in "{;":
            i += 1
        if i >= len(code) or code[i] == ";":
            continue
        depth = 0
        j = i
        while j < len(code):
            if code[j] == "{":
                depth += 1
            elif code[j] == "}":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        bodies.append(
            _ClassBody(m.group(2), code[: m.start()].count("\n") + 1, i, j + 1))
    return bodies


def _body_statements(code: str, body: _ClassBody) -> List[_Member]:
    """Splits a class body into depth-1 statements.

    A statement ends at a `;` at depth 1, or at the close of a depth-1 brace
    group (method definition, brace initializer) plus its trailing `;`.
    """
    statements: List[_Member] = []
    i = body.start + 1
    end = body.end - 1
    stmt_start = i
    depth = 0
    while i < end:
        c = code[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                # Consume an optional trailing `;` (brace init / nested type).
                j = i + 1
                while j < end and code[j] in " \t\n":
                    j += 1
                if j < end and code[j] == ";":
                    i = j
                statements.append(_stmt(code, stmt_start, i + 1))
                stmt_start = i + 1
        elif c == ";" and depth == 0:
            statements.append(_stmt(code, stmt_start, i + 1))
            stmt_start = i + 1
        i += 1
    return [s for s in statements if s.text.strip()]


def _stmt(code: str, start: int, stop: int) -> _Member:
    text = code[start:stop]
    # Line number of the first non-whitespace character.
    lead = len(text) - len(text.lstrip())
    line = code[: start + lead].count("\n") + 1
    return _Member(line, text, "")


def _blank_nested(text: str, open_ch: str, close_ch: str) -> str:
    """Blanks balanced open..close regions (template args, macro parens)."""
    pattern = re.compile(re.escape(open_ch) + r"[^" + re.escape(open_ch)
                         + re.escape(close_ch) + r"]*" + re.escape(close_ch))
    prev = None
    while prev != text:
        prev = text
        text = pattern.sub(lambda m: " " * len(m.group(0)), text)
    return text


def _parse_data_member(stmt: _Member) -> Optional[_Member]:
    """Returns the statement as a data member, or None if it is not one."""
    text = stmt.text
    # Peel access-specifier labels fused to the front of the statement.
    text = re.sub(r"^\s*(public|private|protected)\s*:", " ", text)
    stripped = text.strip()
    if not stripped or stripped.startswith(("#", "~")):
        return None
    first = re.match(r"[A-Za-z_]\w*", stripped)
    if first is not None and first.group(0) in _MEMBER_SKIP_KEYWORDS:
        return None
    if re.search(r"\boperator\b", stripped):
        return None
    # Blank template args and annotation-macro invocations, then cut at the
    # initializer: any paren left before it means a function declaration.
    flat = _blank_nested(text, "<", ">")
    prev = None
    while prev != flat:
        prev = flat
        flat = re.sub(r"\bCA_\w+\s*\([^()]*\)",
                      lambda m: " " * len(m.group(0)), flat)
    decl = re.split(r"[={]", flat, maxsplit=1)[0].rstrip().rstrip(";")
    if "(" in decl:
        return None
    name_match = re.search(r"\b([A-Za-z_]\w*)\s*(\[[^\]]*\]\s*)*$", decl.strip())
    if name_match is None:
        return None
    return _Member(stmt.line, stmt.text, name_match.group(1))


def _member_is_const(stmt_text: str) -> bool:
    """True for `const T x` and `T* const x`, false for `const T* x`.

    The member itself is immutable iff some `const` has no `*` between it
    and the member name (a pointer-to-const is still a mutable pointer).
    """
    flat = _blank_nested(stmt_text, "<", ">")
    decl = re.split(r"[={;]", flat, maxsplit=1)[0]
    for m in re.finditer(r"\bconst\b", decl):
        if "*" not in decl[m.end():]:
            return True
    return False


def check_guarded_fields(rel: pathlib.PurePath, text: str) -> List[Violation]:
    violations: List[Violation] = []
    raw_lines = text.splitlines()
    code = strip_comments_and_strings(text)
    for body in _find_class_bodies(code):
        members = [m for m in (_parse_data_member(s) for s in _body_statements(code, body))
                   if m is not None]
        # Owning means a ca::Mutex *value* member: a Mutex pointer/reference
        # is a handle to synchronization living elsewhere.
        owns_mutex = any(
            re.search(r"\b(ca\s*::\s*)?Mutex\b(?!\s*[*&])", m.text)
            for m in members)
        if not owns_mutex:
            continue
        for m in members:
            if _SYNC_TYPE.search(m.text) or _ATOMIC_TYPE.search(m.text):
                continue
            if _member_is_const(m.text):
                continue
            if re.search(r"\bCA(_PT)?_GUARDED_BY\s*\(", m.text):
                continue
            raw = raw_lines[m.line - 1] if m.line - 1 < len(raw_lines) else ""
            prev = raw_lines[m.line - 2] if m.line >= 2 else ""
            if "// unguarded:" in raw or "// unguarded:" in prev:
                continue
            if suppressed(raw, "guarded-field"):
                continue
            violations.append(
                Violation(
                    str(rel), m.line, "guarded-field",
                    f"{body.name}::{m.name} is mutable in a class owning a "
                    "ca::Mutex; add CA_GUARDED_BY(mu) or a `// unguarded: "
                    "<reason>` waiver (DESIGN.md §13)"))
    return violations


def check_cmake_listed(src_dir: pathlib.Path, root: pathlib.Path) -> List[Violation]:
    violations: List[Violation] = []
    for cc in sorted(src_dir.rglob("*.cc")):
        cmake = cc.parent / "CMakeLists.txt"
        rel = cc.relative_to(root)
        if not cmake.is_file():
            violations.append(
                Violation(str(rel), 0, "cmake-listed",
                          f"no CMakeLists.txt next to it ({cmake.relative_to(root)})")
            )
            continue
        listing = cmake.read_text(encoding="utf-8")
        if not re.search(rf"\b{re.escape(cc.name)}\b", listing):
            violations.append(
                Violation(str(rel), 0, "cmake-listed",
                          f"not declared in {cmake.relative_to(root)}; it never builds")
            )
    return violations


def run_analysis(root: pathlib.Path) -> List[Violation]:
    src_dir = root / "src"
    violations: List[Violation] = []
    if not src_dir.is_dir():
        return [Violation("src", 0, "layout", f"no src/ directory under {root}")]
    for path in sorted(src_dir.rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        rel = path.relative_to(root)
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".h":
            violations.extend(check_header_guard(rel, text))
        violations.extend(check_content_rules(rel, text))
        violations.extend(check_guarded_fields(rel, text))
    violations.extend(check_cmake_listed(src_dir, root))
    return violations


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".", help="repository root (default: cwd)")
    args = parser.parse_args(argv)
    root = pathlib.Path(args.root).resolve()
    violations = run_analysis(root)
    for v in violations:
        print(v)
    if violations:
        print(f"analyze: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("analyze: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
