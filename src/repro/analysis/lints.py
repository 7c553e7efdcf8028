"""AST lints for reproducibility hazards (RPR rules).

A small, repo-specific lint pass covering hazards generic linters miss:

======  ========================================================
code    finding
======  ========================================================
RPR001  unseeded RNG or wall-clock call in deterministic code
RPR002  mutable default argument
RPR003  PredictorComponent subclass overrides fire without on_repair
RPR005  noqa comment references an unknown rule code (warn)
======  ========================================================

RPR004 (in-place mutation of an incoming ``predict_in`` vector) is retired
and its code not reused: prediction vectors and their slots are immutable,
so such a write raises at run time.

RPR001 applies only to the determinism-critical packages (``core``,
``components``, ``frontend``, ``isa``): simulation results must be a pure
function of the workload and the seed, so module-level RNG (whose state is
process-global) and wall-clock reads are banned there.  Seeded generator
*instances* (``random.Random(seed)``, ``np.random.RandomState(seed)``,
``np.random.default_rng(seed)``) are fine anywhere.

RPR003 is the event-protocol lint: a component that speculatively updates
state at ``fire`` time without an ``on_repair`` handler corrupts its state
on every squashed packet (§III-E) — the bug only shows up as accuracy
degradation under mispredict pressure, which is why it deserves a lint.

Suppression: append ``# repro: noqa`` (any rule) or ``# repro: noqa[RPR001]``
(one rule) to the flagged line.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import RULES, Diagnostic, diagnostic

#: Packages where simulation determinism is load-bearing (RPR001 scope).
DETERMINISTIC_PACKAGES = ("core", "components", "frontend", "isa")

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Z0-9, ]+)\])?")

#: Module-level callables that read process-global entropy or the clock.
#: Maps module name -> banned attribute set (None = every attribute).
_BANNED_MODULE_CALLS: Dict[str, Optional[Set[str]]] = {
    "random": None,  # module-level RNG shares process-global state
    "secrets": None,
    "time": {"time", "time_ns", "perf_counter", "perf_counter_ns",
             "monotonic", "monotonic_ns", "process_time", "process_time_ns"},
    "os": {"urandom", "getrandom"},
    "uuid": {"uuid1", "uuid4"},
}
#: ``random`` attributes that are fine: constructing a seeded instance.
_ALLOWED_RANDOM = {"Random", "SystemRandom"}
#: ``numpy.random`` attributes that construct explicit generators.
_ALLOWED_NP_RANDOM = {"RandomState", "default_rng", "Generator",
                      "SeedSequence", "PCG64", "Philox", "MT19937", "SFC64"}
_BANNED_DATETIME_METHODS = {"now", "utcnow", "today"}


class _ClassInfo:
    __slots__ = ("name", "bases", "methods", "file", "line")

    def __init__(self, name: str, bases: List[str], methods: Set[str],
                 file: str, line: int):
        self.name = name
        self.bases = bases
        self.methods = methods
        self.file = file
        self.line = line


def _base_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _dotted(node: ast.expr) -> Optional[str]:
    """Render ``a.b.c`` attribute chains as a dotted string."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class _FileLinter(ast.NodeVisitor):
    def __init__(self, path: str, source_lines: List[str],
                 deterministic_scope: bool):
        self.path = path
        self.lines = source_lines
        self.deterministic_scope = deterministic_scope
        self.diags: List[Diagnostic] = []
        #: Local alias -> canonical module name (``import numpy as np``).
        self.module_aliases: Dict[str, str] = {}
        #: Names imported from banned modules (``from time import time``).
        self.from_imports: Dict[str, Tuple[str, str]] = {}
        self.classes: List[_ClassInfo] = []

    # -- suppression ----------------------------------------------------
    def _suppressed(self, code: str, line: int) -> bool:
        if not 1 <= line <= len(self.lines):
            return False
        match = _NOQA_RE.search(self.lines[line - 1])
        if match is None:
            return False
        codes = match.group("codes")
        if codes is None:
            return True
        return code in {c.strip() for c in codes.split(",")}

    def _report(self, code: str, message: str, node: ast.AST) -> None:
        line = getattr(node, "lineno", 0)
        if self._suppressed(code, line):
            return
        self.diags.append(
            diagnostic(
                code,
                message,
                self.path,
                file=self.path,
                line=line,
                col=getattr(node, "col_offset", 0) + 1,
            )
        )

    # -- imports --------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.module_aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        for alias in node.names:
            self.from_imports[alias.asname or alias.name] = (module, alias.name)
            if module == "numpy" and alias.name == "random":
                self.module_aliases[alias.asname or alias.name] = "numpy.random"
        self.generic_visit(node)

    # -- RPR001 ---------------------------------------------------------
    def _check_entropy_call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted is not None and "." in dotted:
            root, rest = dotted.split(".", 1)
            module = self.module_aliases.get(root, root)
            full = f"{module}.{rest}"
            parts = full.split(".")
            if parts[0] == "numpy" and len(parts) >= 2 and parts[1] == "random":
                attr = parts[2] if len(parts) >= 3 else ""
                if attr and attr not in _ALLOWED_NP_RANDOM:
                    self._report(
                        "RPR001",
                        f"call to numpy.random.{attr} uses the process-global "
                        f"generator; construct a seeded RandomState/default_rng",
                        node,
                    )
                return
            if parts[0] == "datetime" and parts[-1] in _BANNED_DATETIME_METHODS:
                self._report(
                    "RPR001",
                    f"wall-clock read {full}() in deterministic code",
                    node,
                )
                return
            banned = _BANNED_MODULE_CALLS.get(parts[0])
            attr = parts[1] if len(parts) >= 2 else ""
            if banned is not None or parts[0] in _BANNED_MODULE_CALLS:
                if parts[0] == "random" and attr in _ALLOWED_RANDOM:
                    return
                if banned is None or attr in banned:
                    self._report(
                        "RPR001",
                        f"call to {full} is unseeded or reads the clock; "
                        f"simulation state must derive from the run seed",
                        node,
                    )
            return
        if isinstance(node.func, ast.Name):
            origin = self.from_imports.get(node.func.id)
            if origin is None:
                return
            module, name = origin
            banned = _BANNED_MODULE_CALLS.get(module)
            if module == "random" and name in _ALLOWED_RANDOM:
                return
            if module in _BANNED_MODULE_CALLS and (
                banned is None or name in banned
            ):
                self._report(
                    "RPR001",
                    f"call to {module}.{name} is unseeded or reads the "
                    f"clock; simulation state must derive from the run seed",
                    node,
                )
            elif module == "datetime" and name in _BANNED_DATETIME_METHODS:
                self._report(
                    "RPR001", f"wall-clock read datetime.{name}()", node
                )

    def visit_Call(self, node: ast.Call) -> None:
        if self.deterministic_scope:
            self._check_entropy_call(node)
        self.generic_visit(node)

    # -- RPR002 ---------------------------------------------------------
    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set", "bytearray")
            )
            if mutable:
                self._report(
                    "RPR002",
                    "mutable default argument is shared across calls; "
                    "default to None and allocate inside the function",
                    default,
                )

    def _visit_function(self, node) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_function

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # -- RPR003 (collection; resolution happens across files) -----------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        bases = [b for b in map(_base_name, node.bases) if b is not None]
        methods = {
            item.name
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        self.classes.append(
            _ClassInfo(node.name, bases, methods, self.path, node.lineno)
        )
        self.generic_visit(node)


def _resolve_rpr003(
    all_classes: List[_ClassInfo], suppressed
) -> List[Diagnostic]:
    """Cross-file hierarchy walk: fire without on_repair anywhere above."""
    by_name: Dict[str, _ClassInfo] = {c.name: c for c in all_classes}

    def ancestry(info: _ClassInfo) -> Iterable[_ClassInfo]:
        stack, seen = [info], set()
        while stack:
            current = stack.pop()
            if current.name in seen:
                continue
            seen.add(current.name)
            yield current
            for base in current.bases:
                if base in by_name:
                    stack.append(by_name[base])

    def derives_from_component(info: _ClassInfo) -> bool:
        return any(
            "PredictorComponent" in c.bases for c in ancestry(info)
        )

    diags: List[Diagnostic] = []
    for info in all_classes:
        if not derives_from_component(info):
            continue
        chain = list(ancestry(info))
        defines_fire = any("fire" in c.methods for c in chain)
        defines_repair = any("on_repair" in c.methods for c in chain)
        if defines_fire and not defines_repair:
            if suppressed(info.file, "RPR003", info.line):
                continue
            diags.append(
                diagnostic(
                    "RPR003",
                    f"class {info.name} speculatively updates state in "
                    f"fire() but defines no on_repair(); squashed packets "
                    f"will corrupt its state (§III-E)",
                    info.file,
                    file=info.file,
                    line=info.line,
                    col=1,
                )
            )
    return diags


def _check_noqa_codes(path: str, lines: List[str]) -> List[Diagnostic]:
    """RPR005: a noqa comment naming a nonexistent rule suppresses nothing.

    The typo'd suppression reads as if the rule were being waived while the
    real diagnostic keeps firing (or, for a since-deleted rule, as if it
    were still enforced), so unknown codes get their own warning.
    """
    diags: List[Diagnostic] = []
    for lineno, line in enumerate(lines, start=1):
        match = _NOQA_RE.search(line)
        if match is None or match.group("codes") is None:
            continue
        codes = [c.strip() for c in match.group("codes").split(",") if c.strip()]
        for code in codes:
            if code not in RULES:
                diags.append(
                    diagnostic(
                        "RPR005",
                        f"noqa[{code}] names no registered rule; this "
                        f"suppression has no effect",
                        path,
                        file=path,
                        line=lineno,
                        col=match.start() + 1,
                    )
                )
    return diags


def _is_deterministic_scope(path: Path, root: Path) -> bool:
    try:
        parts = path.resolve().relative_to(root.resolve()).parts
    except ValueError:
        return True  # explicit out-of-tree paths get the full rule set
    return any(part in DETERMINISTIC_PACKAGES for part in parts)


def default_lint_root() -> Path:
    """The shipped source tree (``src/repro``)."""
    return Path(__file__).resolve().parent.parent


def lint_paths(
    paths: Optional[Sequence[str]] = None,
    root: Optional[Path] = None,
) -> List[Diagnostic]:
    """Lint python files; directories are walked recursively."""
    root = root or default_lint_root()
    if paths:
        candidates: List[Path] = []
        for entry in paths:
            p = Path(entry)
            candidates.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    else:
        candidates = sorted(root.rglob("*.py"))

    diags: List[Diagnostic] = []
    all_classes: List[_ClassInfo] = []
    sources: Dict[str, List[str]] = {}
    for path in candidates:
        try:
            text = path.read_text()
        except OSError as exc:
            diags.append(
                diagnostic("RPR001", f"unreadable file: {exc}", str(path),
                           file=str(path))
            )
            continue
        try:
            tree = ast.parse(text, filename=str(path))
        except SyntaxError as exc:
            diags.append(
                diagnostic(
                    "RPR002",
                    f"file does not parse: {exc.msg}",
                    str(path),
                    file=str(path),
                    line=exc.lineno or 0,
                    col=(exc.offset or 0),
                )
            )
            continue
        lines = text.splitlines()
        sources[str(path)] = lines
        diags.extend(_check_noqa_codes(str(path), lines))
        linter = _FileLinter(
            str(path), lines, _is_deterministic_scope(path, root)
        )
        linter.visit(tree)
        diags.extend(linter.diags)
        all_classes.extend(linter.classes)

    def suppressed(file: str, code: str, line: int) -> bool:
        lines = sources.get(file, [])
        if not 1 <= line <= len(lines):
            return False
        match = _NOQA_RE.search(lines[line - 1])
        if match is None:
            return False
        codes = match.group("codes")
        return codes is None or code in {c.strip() for c in codes.split(",")}

    diags.extend(_resolve_rpr003(all_classes, suppressed))
    diags.sort(key=lambda d: (d.file or "", d.line or 0, d.code))
    return diags
