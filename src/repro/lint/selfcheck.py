"""The determinism self-check: an AST lint over ``src/repro`` itself.

The repo's correctness story leans on bit-identical replay: goldens pin
exact-mode runs, the fuzz oracles compare execution paths run-for-run, and
the corpus replays byte-stable spec hashes.  All of that dies quietly the
moment simulation code reads a wall clock, draws from the process-global
RNG, or lets float rounding into the integer-femtosecond timeline.  This
module is the static guard for those contracts:

* ``DET-WALLCLOCK`` — calls into ``time.time``/``perf_counter``/... or
  ``datetime.now``-family anywhere under ``src/repro``.  Legitimate uses
  (wall-clock *reporting* in the campaign executor, fuzz harness and
  benchmark plumbing) carry an inline pragma.
* ``DET-RANDOM`` — calls through the module-global ``random.*`` API (or
  ``from random import ...`` of its functions).  Seeded
  ``random.Random(seed)`` instances are the sanctioned source of noise.
* ``DET-FLOAT-TIME`` — arithmetic mixing float literals with femtosecond
  counters (``*_fs`` operands) inside ``sim/`` hot paths, where only
  integer arithmetic keeps the timeline exact.
* ``DET-SET-ORDER`` — iterating a freshly built ``set``/``frozenset``
  (literal, comprehension or call) whose order is interpreter-dependent;
  wrap in ``sorted(...)`` instead.

Suppress a deliberate violation with an inline pragma on the same line::

    started = time.time()  # repro-lint: allow[DET-WALLCLOCK]
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable, List, Optional, Set

from repro.lint.findings import Finding, LintReport, Severity

__all__ = ["lint_source", "lint_paths", "selfcheck", "default_root"]

#: wall-clock readers of the ``time`` module
_TIME_FUNCS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
})
#: wall-clock constructors of ``datetime.datetime`` / ``datetime.date``
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})
#: ``random`` attributes that are fine: seeded generator classes
_RANDOM_ALLOWED = frozenset({"Random", "SystemRandom"})

_PRAGMA = re.compile(r"#\s*repro-lint:\s*allow\[([A-Z0-9,\s-]+)\]")


def _suppressed(lines: List[str], lineno: int, code: str) -> bool:
    if not 1 <= lineno <= len(lines):
        return False
    match = _PRAGMA.search(lines[lineno - 1])
    if not match:
        return False
    allowed = {token.strip() for token in match.group(1).split(",")}
    return code in allowed


def _is_fs_operand(node: ast.AST) -> bool:
    """A name/attribute that carries raw femtoseconds by convention."""
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        return False
    return name.endswith("_fs") or name == "femtoseconds"


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, relpath: str, lines: List[str], in_sim: bool) -> None:
        self.relpath = relpath
        self.lines = lines
        self.in_sim = in_sim
        self.findings: List[Finding] = []
        #: local names bound to the time / datetime / random modules
        self.time_aliases: Set[str] = set()
        self.datetime_module_aliases: Set[str] = set()
        self.datetime_class_aliases: Set[str] = set()
        self.random_aliases: Set[str] = set()
        #: names imported straight from `time` that read the wall clock
        self.wallclock_names: Set[str] = set()

    # -- reporting -----------------------------------------------------
    def _report(self, code: str, severity: Severity, lineno: int,
                message: str, suggestion: str = "") -> None:
        if _suppressed(self.lines, lineno, code):
            return
        self.findings.append(Finding(
            code=code,
            severity=severity,
            path=f"{self.relpath}:{lineno}",
            message=message,
            suggestion=suggestion,
        ))

    # -- imports -------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "time":
                self.time_aliases.add(bound)
            elif alias.name == "datetime":
                self.datetime_module_aliases.add(bound)
            elif alias.name == "random":
                self.random_aliases.add(bound)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name in _TIME_FUNCS:
                    self.wallclock_names.add(alias.asname or alias.name)
        elif node.module == "datetime":
            for alias in node.names:
                if alias.name in ("datetime", "date"):
                    self.datetime_class_aliases.add(alias.asname or alias.name)
        elif node.module == "random":
            for alias in node.names:
                if alias.name not in _RANDOM_ALLOWED:
                    self._report(
                        "DET-RANDOM", Severity.ERROR, node.lineno,
                        f"'from random import {alias.name}' pulls in the "
                        "process-global RNG",
                        "use a seeded random.Random instance",
                    )
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            value = func.value
            if (isinstance(value, ast.Name) and value.id in self.time_aliases
                    and func.attr in _TIME_FUNCS):
                self._report(
                    "DET-WALLCLOCK", Severity.ERROR, node.lineno,
                    f"wall-clock call time.{func.attr}()",
                    "derive time from the kernel (or pragma a reporting-only use)",
                )
            elif func.attr in _DATETIME_FUNCS and self._is_datetime_owner(value):
                self._report(
                    "DET-WALLCLOCK", Severity.ERROR, node.lineno,
                    f"wall-clock call datetime {func.attr}()",
                    "derive time from the kernel (or pragma a reporting-only use)",
                )
            elif (isinstance(value, ast.Name) and value.id in self.random_aliases
                    and func.attr not in _RANDOM_ALLOWED):
                self._report(
                    "DET-RANDOM", Severity.ERROR, node.lineno,
                    f"module-global random.{func.attr}() is unseeded",
                    "use a seeded random.Random instance",
                )
        elif isinstance(func, ast.Name) and func.id in self.wallclock_names:
            self._report(
                "DET-WALLCLOCK", Severity.ERROR, node.lineno,
                f"wall-clock call {func.id}()",
                "derive time from the kernel (or pragma a reporting-only use)",
            )
        self.generic_visit(node)

    def _is_datetime_owner(self, value: ast.AST) -> bool:
        if isinstance(value, ast.Name):
            return value.id in self.datetime_class_aliases
        return (isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id in self.datetime_module_aliases
                and value.attr in ("datetime", "date"))

    # -- float/time arithmetic in sim/ ---------------------------------
    def visit_BinOp(self, node: ast.BinOp) -> None:
        if self.in_sim and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)):
            for literal, other in ((node.left, node.right), (node.right, node.left)):
                if (isinstance(literal, ast.Constant)
                        and isinstance(literal.value, float)
                        and _is_fs_operand(other)):
                    self._report(
                        "DET-FLOAT-TIME", Severity.ERROR, node.lineno,
                        "float arithmetic against a femtosecond counter; the "
                        "timeline is integer femtoseconds",
                        "keep fs math integral (int factors, // division)",
                    )
                    break
        self.generic_visit(node)

    # -- set-order iteration -------------------------------------------
    def _check_iter(self, iter_node: ast.AST) -> None:
        unordered = isinstance(iter_node, (ast.Set, ast.SetComp)) or (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Name)
            and iter_node.func.id in ("set", "frozenset")
        )
        if unordered:
            self._report(
                "DET-SET-ORDER", Severity.WARN, iter_node.lineno,
                "iteration over a freshly built set; its order is "
                "interpreter-dependent",
                "wrap the set in sorted(...)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(
        self, node: "ast.ListComp | ast.SetComp | ast.DictComp | ast.GeneratorExp"
    ) -> None:
        for generator in node.generators:
            self._check_iter(generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension


def _in_sim(relpath: str) -> bool:
    parts = Path(relpath).parts
    return "sim" in parts


def lint_source(source: str, relpath: str) -> List[Finding]:
    """Lint one file's source text; ``relpath`` scopes the sim/-only rules."""
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as error:  # pragma: no cover - tree is CI-parsed anyway
        return [Finding(
            code="DET-WALLCLOCK",
            severity=Severity.ERROR,
            path=f"{relpath}:{error.lineno or 0}",
            message=f"file does not parse: {error.msg}",
        )]
    visitor = _DeterminismVisitor(relpath, source.splitlines(), _in_sim(relpath))
    visitor.visit(tree)
    return sorted(visitor.findings, key=lambda f: f.path)


def default_root() -> Path:
    """The installed ``repro`` package directory (what ``--self`` lints)."""
    return Path(__file__).resolve().parent.parent


def lint_paths(paths: Optional[Iterable[Path]] = None) -> List[Finding]:
    """Lint every ``*.py`` under the given files/directories (default:
    the installed ``repro`` package)."""
    roots = [Path(p) for p in paths] if paths is not None else [default_root()]
    findings: List[Finding] = []
    for root in roots:
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        base = root if root.is_dir() else root.parent
        for file in files:
            relpath = str(Path(base.name) / file.relative_to(base))
            findings.extend(
                lint_source(file.read_text(encoding="utf-8"), relpath)
            )
    return findings


def selfcheck(paths: Optional[Iterable[Path]] = None) -> LintReport:
    """The ``repro-dpm lint --self`` entry point."""
    report = LintReport(subject="repro determinism self-check")
    report.extend(lint_paths(paths))
    return report
