"""``repro-lint --fix``: mechanical rewrites for CTX-01 and SUP-01.

Only rewrites with exactly one correct answer are applied:

- **CTX-01** — an uncharged ``flush``/``fence``/``persist`` call inside
  a function that already has an ``ExecutionContext`` in scope (a
  ``ctx`` parameter or local) gets that context threaded in.  The call
  must sit on a single line; multi-line calls and functions with no
  in-scope context are refused, not guessed at.
- **SUP-01** — a malformed-but-recoverable suppression comment (wrong
  separator, stray spacing) is normalized to the canonical form,
  e.g. ``# pmlint: disable=DET-01 — reason``.  A suppression with no
  reason text is refused: the fixer will not invent an argument.

A line already carrying a pmlint suppression is never rewritten — the
suppression records a human judgement the fixer must not disturb.

Fixing is idempotent: the output of a fix run produces no further
fixes, which ``tests/test_analysis_fix.py`` pins.
"""

import ast
import difflib
import re

from repro.analysis.pmlint import ModuleSource, arg_names, collect_files
from repro.analysis.rules import UnchargedPersistence

#: The marker is assembled so this file does not read as a suppression.
_MARKER = "# pmlint" ": disable"

#: Lenient re-parse of a malformed control comment: tolerate a missing
#: '=', odd separators ('-', '->', ';'), and stray parentheses, as long
#: as a rule list and a non-empty reason can both be recovered.
_LENIENT_RE = re.compile(
    r"#\s*pmlint\s*[:,]?\s*(disable(?:-file)?)\s*[=:\s]\s*"
    r"([A-Z][A-Za-z0-9_-]*(?:\s*,\s*[A-Z][A-Za-z0-9_-]*)*)"
    r"\s*(?:—|--|->|[:;(]|-\s)\s*(.*?)\)?\s*$"
)


class Fix:
    """One applied (or refused) rewrite."""

    __slots__ = ("rule", "line", "description", "applied")

    def __init__(self, rule, line, description, applied):
        self.rule = rule
        self.line = line
        self.description = description
        self.applied = applied


class FixResult:
    """All rewrites for one file."""

    def __init__(self, path, original):
        self.path = path
        self.original = original
        self.fixed = original
        self.fixes = []

    @property
    def applied(self):
        return [f for f in self.fixes if f.applied]

    @property
    def refused(self):
        return [f for f in self.fixes if not f.applied]

    @property
    def changed(self):
        return self.fixed != self.original

    def unified_diff(self):
        if not self.changed:
            return ""
        return "".join(difflib.unified_diff(
            self.original.splitlines(keepends=True),
            self.fixed.splitlines(keepends=True),
            fromfile=str(self.path), tofile=f"{self.path} (fixed)",
        ))


def _functions_with_ctx(module):
    """Line spans of functions that have an ExecutionContext in scope:
    a ``ctx`` parameter or a local ``ctx = ...`` binding."""
    spans = []
    for func, _qualname in module.functions():
        has_ctx = "ctx" in arg_names(func)
        if not has_ctx:
            for node in ast.walk(func):
                if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "ctx"
                    for t in node.targets
                ):
                    has_ctx = True
                    break
        if has_ctx:
            end = getattr(func, "end_lineno", func.lineno)
            spans.append((func.lineno, end))
    return spans


def _fix_ctx_call(line_text, call):
    """Thread ctx into one single-line call, or None if not mechanical.

    When the call's positional arguments exactly fill the slots before
    the ctx slot and it has no keywords, ctx goes in positionally
    (matching the tree's idiom); otherwise it is passed as ``ctx=ctx``,
    which every flush/fence/persist signature accepts.
    """
    slot = UnchargedPersistence._CTX_SLOT[call.func.attr]
    close = call.end_col_offset - 1
    if close >= len(line_text) or line_text[close] != ")":
        return None
    if len(call.args) == slot and not call.keywords:
        insert = "ctx" if not call.args else ", ctx"
    else:
        insert = "ctx=ctx" if not (call.args or call.keywords) else ", ctx=ctx"
    return line_text[:close] + insert + line_text[close:]


def _ctx_fixes(module, lines, result):
    spans = _functions_with_ctx(module)
    rule = UnchargedPersistence()
    touched = set()
    for finding in rule.check(module):
        index = finding.line - 1
        text = lines[index]
        if index in touched:
            # A second call on an already-rewritten line: the AST
            # column offsets are stale now; fix on the next run.
            result.fixes.append(Fix(
                "CTX-01", finding.line, "line already rewritten this "
                "run — re-run --fix for the remaining call",
                applied=False))
            continue
        if _MARKER in text:
            result.fixes.append(Fix(
                "CTX-01", finding.line, "line carries a suppression — "
                "a recorded human judgement the fixer must not disturb",
                applied=False))
            continue
        if not any(start <= finding.line <= end for start, end in spans):
            result.fixes.append(Fix(
                "CTX-01", finding.line, "no ExecutionContext in scope "
                "(no ctx parameter or local) — threading one is a "
                "signature change, not a mechanical fix", applied=False))
            continue
        # Locate the offending call on its (single) line.
        fixed_text = None
        for node in ast.walk(module.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.lineno == finding.line
                    and node.func.attr in UnchargedPersistence._CTX_SLOT
                    and getattr(node, "end_lineno", node.lineno) == node.lineno):
                fixed_text = _fix_ctx_call(text, node)
                if fixed_text is not None:
                    break
        if fixed_text is None:
            result.fixes.append(Fix(
                "CTX-01", finding.line, "call spans multiple lines — "
                "fix it by hand", applied=False))
            continue
        lines[index] = fixed_text
        touched.add(index)
        result.fixes.append(Fix(
            "CTX-01", finding.line,
            f"threaded ctx into .{_call_name(text, finding.line)}()",
            applied=True))


def _call_name(line_text, _line):
    for name in ("flush", "persist", "fence"):
        if f".{name}(" in line_text:
            return name
    return "flush"


def _sup_fixes(module, lines, result):
    for finding in module.suppression_findings:
        index = finding.line - 1
        text = lines[index]
        match = _LENIENT_RE.search(text)
        if match is None or not match.group(3).strip():
            why = ("suppression has no reason text — the fixer will not "
                   "invent the argument; write why or delete the "
                   "suppression"
                   if "no reason" in finding.message else
                   "comment too malformed to recover a rule list and "
                   "reason — rewrite it by hand")
            result.fixes.append(Fix("SUP-01", finding.line, why,
                                    applied=False))
            continue
        kind, rule_list, reason = match.groups()
        rules = ", ".join(r.strip() for r in rule_list.split(",") if r.strip())
        canonical = f"# pmlint: {kind}={rules} — {reason.strip()}"
        prefix = text[:match.start()]
        if prefix.strip():
            lines[index] = prefix.rstrip() + "  " + canonical
        else:
            lines[index] = prefix + canonical
        result.fixes.append(Fix(
            "SUP-01", finding.line,
            f"normalized suppression to canonical form", applied=True))


def fix_module(module):
    """Compute all mechanical fixes for one parsed module."""
    result = FixResult(module.path, module.source)
    lines = module.source.splitlines()
    _ctx_fixes(module, lines, result)
    _sup_fixes(module, lines, result)
    trailer = "\n" if module.source.endswith("\n") else ""
    result.fixed = "\n".join(lines) + trailer
    return result


def fix_paths(paths, root=None, write=True):
    """Fix every file under ``paths``; returns the per-file results.

    With ``write`` unset (``--fix --diff``) nothing touches disk — the
    caller prints :meth:`FixResult.unified_diff` instead.
    """
    results = []
    for path in collect_files(paths):
        module = ModuleSource.load(path, root=root)
        result = fix_module(module)
        results.append(result)
        if write and result.changed:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(result.fixed)
    return results
