"""Repo lint pack: AST rules encoding this codebase's invariants.

Seven rules, each guarding a property the test suite and docs rely on but
ordinary linters cannot express:

``reproerror-raises``
    Every exception raised inside ``src/repro`` must be a
    :class:`~repro.errors.ReproError` subclass, so the CLI's single
    ``except ReproError`` handler (exit code 2) catches everything the
    library signals. Raising a bare builtin (``ValueError``, ``KeyError``,
    ...) escapes that contract. ``NotImplementedError``, ``SystemExit``,
    ``KeyboardInterrupt``, ``StopIteration`` and bare re-raises are allowed.

``precision-outside-tc``
    Half-precision dtypes (``float16`` / ``bfloat16``) may only appear
    under ``tc/`` — the emulated-TensorCore layer owns every rounding
    decision (see :mod:`repro.tc`). A stray ``np.float16`` elsewhere
    silently degrades a whole pipeline.

``raw-dtype-cast``
    The casting *operations* that dodge the attribute rule above:
    ``.astype(...)`` to a half-precision target, a ``dtype=`` keyword
    carrying a half-precision string (``"float16"`` / ``"bfloat16"`` /
    ``"half"`` / ``"e"``), and direct ``float16(...)``-style constructor
    calls — all forbidden outside ``tc/``. A raw cast bypasses the
    quantizer (:func:`repro.tc.precision.round_to`), so its rounding is
    invisible to the static precision pass
    (:mod:`repro.analysis.precision`) and the health sentinel.

``wallclock-in-step-logic``
    :mod:`repro.obs.clock` is the only sanctioned clock source: no module
    outside ``obs/`` may read the wall clock (``time.time``,
    ``datetime.now``, ...) **or** the measurement clocks
    (``time.perf_counter`` / ``time.monotonic`` and their ``_ns``
    variants) directly. Wall-clock values baked into checkpointed step
    state break bitwise-identical resume, and scattered measurement-clock
    reads are exactly the per-layer double timing the span recorder
    replaced — one timebase, one place to fake it in tests.
    ``time.sleep`` is covered too: pacing and backoff sleeps route
    through ``repro.obs.clock.sleep`` so a single monkeypatch fakes
    every retry ladder and injected stall in tests
    (docs/robustness.md).

``scheduler-bypass``
    Concurrent paths must route ops through the scheduler: calling an
    executor's ``._issue`` or touching ``SimOp.deps`` outside
    ``execution/``, ``sim/`` and ``analysis/`` bypasses the
    happens-before bookkeeping the race detector and verifier prove
    things about.

``layering-imports``
    Lower layers may not import up: ``dist/`` sits below the serving
    layer (``repro.serve`` *places jobs onto* device pools, not the
    other way around), so any ``import repro.serve`` under ``dist/``
    inverts the dependency and is a finding. Likewise ``qr/``,
    ``factor/`` and ``ooc/`` may not import the concrete executors or
    ``repro.runtime``: executor choice lives in :mod:`repro.execution.run`
    alone. The forbidden-edge map
    (:data:`_LAYERING_FORBIDDEN`) is the place to add further edges as
    layers accrete.

``op-vocabulary``
    The eight device ops (``h2d``, ``d2h``, ``d2d``, ``gemm``,
    ``panel_qr``, ``trsm``, ``panel_lu``, ``panel_cholesky``) are defined
    once, on :class:`~repro.execution.base.Executor`; executors differ only
    in their ``_issue`` funnel, liveness hook and kernel bodies. A method
    (or bound class attribute) with one of those names on any other class
    is a finding: a second copy of an op drifts from the first (it skips
    the liveness check, or prices the op differently).

A finding on a given line is waived by a same-line comment
``# lint: allow[<rule>]``. Run via ``tools/lint_repro.py`` (CI runs it
next to ruff).
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass
from pathlib import Path

#: Builtin exceptions that may be raised directly anywhere (control flow or
#: subclass-contract signals, not library errors).
_ALLOWED_BUILTIN_RAISES = {
    "NotImplementedError",
    "SystemExit",
    "KeyboardInterrupt",
    "StopIteration",
    "StopAsyncIteration",
}

#: Builtin exception names the ``reproerror-raises`` rule recognises.
_BUILTIN_EXCEPTIONS = {
    "ArithmeticError", "AssertionError", "AttributeError", "BaseException",
    "BlockingIOError", "BrokenPipeError", "BufferError", "ChildProcessError",
    "ConnectionAbortedError", "ConnectionError", "ConnectionRefusedError",
    "ConnectionResetError", "EOFError", "Exception", "FileExistsError",
    "FileNotFoundError", "FloatingPointError", "ImportError",
    "IndentationError", "IndexError", "InterruptedError",
    "IsADirectoryError", "KeyError", "LookupError", "MemoryError",
    "ModuleNotFoundError", "NameError", "NotADirectoryError", "OSError",
    "OverflowError", "PermissionError", "ProcessLookupError",
    "RecursionError", "ReferenceError", "RuntimeError", "SyntaxError",
    "SystemError", "TabError", "TimeoutError", "TypeError",
    "UnboundLocalError", "UnicodeDecodeError", "UnicodeEncodeError",
    "UnicodeError", "ValueError", "ZeroDivisionError",
}

#: Clock callables forbidden outside ``obs/``, as (object name,
#: attribute) pairs. Both wall clocks and measurement clocks: every
#: timestamp must come from :mod:`repro.obs.clock`.
_WALLCLOCK_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "sleep"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}

#: ``from time import ...`` names that would dodge the attribute-call
#: check above; importing them is itself a finding.
_WALLCLOCK_FROM_IMPORTS = {
    attr for base, attr in _WALLCLOCK_CALLS if base == "time"
}

#: The directory (relative to ``src/repro``) that owns clock access.
_OBS_DIR = "obs"

#: Directories allowed to call ``._issue`` / touch ``.deps`` directly.
_SCHEDULER_DIRS = ("execution", "sim", "analysis")

#: Dtype spellings (strings and bare names) the ``raw-dtype-cast`` rule
#: treats as half-precision targets; ``"e"`` is numpy's fp16 typecode.
_HALF_DTYPE_NAMES = {"float16", "bfloat16", "half"}
_HALF_DTYPE_STRINGS = _HALF_DTYPE_NAMES | {"e", "f2", "<f2", ">f2", "=f2"}

#: Modules that choose an executor: only :mod:`repro.execution.run`
#: constructs one for the public entry points.
_EXECUTOR_CHOICE = (
    "repro.execution.numeric",
    "repro.execution.sim",
    "repro.runtime",
)

#: Layering edges that must not exist: top-level directory under
#: ``src/repro`` -> module prefixes it may never import.
_LAYERING_FORBIDDEN: dict[str, tuple[str, ...]] = {
    "dist": ("repro.serve",),
    # the injection plane is infrastructure every execution layer may
    # guard with; it must never know about the layers it faults
    "faults": ("repro.serve", "repro.dist", "repro.runtime"),
    # engines and entry points program against Executor and hand their
    # drivers to repro.execution.run, which picks the executor
    "qr": _EXECUTOR_CHOICE,
    "factor": _EXECUTOR_CHOICE,
    "ooc": _EXECUTOR_CHOICE,
}


#: The executor op vocabulary and the one module allowed to define it.
_OP_VOCABULARY = {
    "h2d", "d2h", "d2d", "gemm", "panel_qr", "trsm", "panel_lu",
    "panel_cholesky",
}
_OP_HOME = ("execution", "base.py")


def _class_member_names(node: ast.ClassDef):
    """``(member node, name)`` for every def and attribute binding directly
    in a class body (bare annotations — dataclass fields such as
    ``StreamBundle.h2d`` — declare instance data, not behaviour)."""
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield item, item.name
        elif isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name):
                    yield item, target.id
        elif (
            isinstance(item, ast.AnnAssign)
            and item.value is not None
            and isinstance(item.target, ast.Name)
        ):
            yield item, item.target.id


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


def _waivers(source: str) -> dict[int, set[str]]:
    """Map line number -> rules waived by ``# lint: allow[rule]`` comments."""
    waived: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            text = tok.string
            marker = "lint: allow["
            start = text.find(marker)
            while start != -1:
                end = text.find("]", start)
                if end == -1:
                    break
                rule = text[start + len(marker) : end].strip()
                waived.setdefault(tok.start[0], set()).add(rule)
                start = text.find(marker, end)
    except tokenize.TokenError:
        pass
    return waived


def _rel_parts(path: Path, root: Path) -> tuple[str, ...]:
    try:
        return path.relative_to(root).parts
    except ValueError:
        return path.parts


def _is_half_dtype(node: ast.AST) -> str | None:
    """The half-precision dtype a node spells, if any (``raw-dtype-cast``)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        if node.value.lower() in _HALF_DTYPE_STRINGS:
            return node.value
    elif isinstance(node, ast.Attribute) and node.attr in _HALF_DTYPE_NAMES:
        return node.attr
    elif isinstance(node, ast.Name) and node.id in _HALF_DTYPE_NAMES:
        return node.id
    return None


def _raised_name(node: ast.Raise) -> str | None:
    exc = node.exc
    if exc is None:
        return None  # bare re-raise
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Name):
        return exc.id
    return None


def lint_source(source: str, path: str, rel_parts: tuple[str, ...]) -> list[LintFinding]:
    """Run every applicable rule over one module's source text."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [LintFinding(path, exc.lineno or 1, "parse", str(exc.msg))]
    waived = _waivers(source)
    top = rel_parts[0] if rel_parts else ""
    in_tc = top == "tc"
    in_obs = top == _OBS_DIR
    in_scheduler = top in _SCHEDULER_DIRS
    op_home = tuple(rel_parts) == _OP_HOME
    findings: list[LintFinding] = []

    def report(node: ast.AST, rule: str, message: str) -> None:
        line = getattr(node, "lineno", 1)
        if rule in waived.get(line, ()):
            return
        findings.append(LintFinding(path, line, rule, message))

    forbidden_imports = _LAYERING_FORBIDDEN.get(top, ())

    def check_layering(node: ast.AST, module: str | None) -> None:
        if module is None:
            return
        for prefix in forbidden_imports:
            if module == prefix or module.startswith(prefix + "."):
                report(
                    node,
                    "layering-imports",
                    f"{top}/ must not import {prefix} (lower layer "
                    f"importing up; see _LAYERING_FORBIDDEN)",
                )

    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and not op_home:
            for member, name in _class_member_names(node):
                if name in _OP_VOCABULARY:
                    report(
                        member,
                        "op-vocabulary",
                        f"{node.name}.{name} redefines a device op; ops are "
                        f"defined once in execution/base.py — override "
                        f"_issue or a _{name}_body hook instead",
                    )
        if isinstance(node, ast.Import):
            for alias in node.names:
                check_layering(node, alias.name)
        if isinstance(node, ast.ImportFrom):
            check_layering(node, node.module)
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if not in_obs and alias.name in _WALLCLOCK_FROM_IMPORTS:
                    report(
                        node,
                        "wallclock-in-step-logic",
                        f"from time import {alias.name} outside obs/; every "
                        f"clock read goes through repro.obs.clock "
                        f"(monotonic / wall_time)",
                    )
        if isinstance(node, ast.Raise):
            name = _raised_name(node)
            if (
                name in _BUILTIN_EXCEPTIONS
                and name not in _ALLOWED_BUILTIN_RAISES
            ):
                report(
                    node,
                    "reproerror-raises",
                    f"raise {name} escapes the ReproError hierarchy; raise a "
                    f"ReproError subclass (e.g. ValidationError) instead",
                )
        elif isinstance(node, ast.Attribute):
            if not in_tc and node.attr in ("float16", "bfloat16"):
                report(
                    node,
                    "precision-outside-tc",
                    f"half-precision dtype .{node.attr} outside tc/; all "
                    f"rounding decisions belong to the TensorCore layer",
                )
            if (
                not in_scheduler
                and node.attr == "deps"
                and isinstance(node.ctx, (ast.Store, ast.Del))
            ):
                report(
                    node,
                    "scheduler-bypass",
                    "mutating SimOp.deps outside execution/sim/analysis "
                    "bypasses the scheduler's happens-before bookkeeping",
                )
        if isinstance(node, ast.Call) and not in_tc:
            # raw-dtype-cast: the casting operations that dodge the
            # attribute rule — astype(<half>), dtype=<half string>, and
            # bare float16(...)-style constructor calls
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "astype"
            ):
                for arg in node.args:
                    spelled = _is_half_dtype(arg)
                    if spelled is not None:
                        report(
                            node,
                            "raw-dtype-cast",
                            f"astype({spelled!r}) outside tc/ bypasses the "
                            f"quantizer (repro.tc.precision.round_to); the "
                            f"precision verifier cannot see raw casts",
                        )
            for kw in node.keywords:
                if kw.arg == "dtype":
                    spelled = _is_half_dtype(kw.value)
                    if spelled is not None:
                        report(
                            node,
                            "raw-dtype-cast",
                            f"dtype={spelled!r} outside tc/ allocates "
                            f"half-precision storage behind the precision "
                            f"verifier's back; route through repro.tc",
                        )
            if isinstance(node.func, ast.Name) and node.func.id in _HALF_DTYPE_NAMES:
                report(
                    node,
                    "raw-dtype-cast",
                    f"{node.func.id}(...) outside tc/ is a raw scalar/array "
                    f"cast; all rounding goes through repro.tc",
                )
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            base = func.value
            base_name = base.id if isinstance(base, ast.Name) else None
            if (
                not in_obs
                and base_name is not None
                and (base_name, func.attr) in _WALLCLOCK_CALLS
            ):
                report(
                    node,
                    "wallclock-in-step-logic",
                    f"{base_name}.{func.attr}() outside obs/; every clock "
                    f"read goes through repro.obs.clock (monotonic / "
                    f"wall_time) — one timebase, one place to fake it",
                )
            if not in_scheduler and func.attr == "_issue":
                report(
                    node,
                    "scheduler-bypass",
                    "direct ._issue() call outside execution/sim/analysis; "
                    "route ops through the executor's public interface",
                )
    return findings


def lint_file(path: Path, root: Path) -> list[LintFinding]:
    """Lint one file under the ``src/repro`` root."""
    source = path.read_text(encoding="utf-8")
    return lint_source(source, str(path), _rel_parts(path, root))


def lint_tree(root: Path) -> list[LintFinding]:
    """Lint every ``*.py`` under *root* (normally ``src/repro``).

    Findings come back sorted by path then line so output is stable for
    CI diffing.
    """
    findings: list[LintFinding] = []
    for path in sorted(root.rglob("*.py")):
        findings.extend(lint_file(path, root))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings
