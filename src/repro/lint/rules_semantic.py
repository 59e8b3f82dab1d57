"""Semantic rule families built on the dataflow engine.

Four families, each a real program analysis rather than a per-node
pattern match:

=================  ===================================================
REPRO-F64          dtype-taint (supersedes the old syntactic pass):
                   float64 tracked from allocators/literals/RNG draws
                   through assignments, arithmetic, branches and
                   intra-module call returns into Tensor data
REPRO-DET-SEED     unseeded ``np.random.default_rng()`` construction
REPRO-DET-CLOCK    wall-clock reads outside :mod:`repro.obs`
REPRO-DET-ITER     iteration over unordered collections (``set``,
                   ``os.listdir``, ``glob``) feeding numeric
                   accumulation or RNG consumption
REPRO-STATE        module-level state mutated from function bodies
                   outside the sanctioned state modules — the pattern
                   that breaks fork-based multiprocess workers
REPRO-GRAD-CAPTURE backward closures capturing a variable rebound or
                   mutated between capture and ``backward()``
REPRO-GRAD-VERSION ``self.data`` writes that skip the version-counter
                   discipline the anomaly sanitizer relies on
REPRO-ASTYPE-COPY  gradient-path ``astype(np.float32)`` without
                   ``copy=False``
=================  ===================================================

Adding a family: subclass nothing — implement the :class:`Rule`
protocol, set the metadata attributes (``severity``, ``family``,
``semantic``, ``example``), build what you need from
:func:`module_symbols` / :class:`~repro.lint.taint.ModuleTaint`, and
``@register`` it.  See DESIGN.md § "Adding a semantic lint rule".
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from .cfg import node_value_exprs
from .findings import Finding
from .rules import ModuleInfo, SyntacticFloat64Rule, register
from .symbols import ModuleSymbols, index_module
from .taint import (
    _RNG_PARAM_NAMES,
    ModuleTaint,
    Taint,
    classify,
    classify_dtype,
)

__all__ = [
    "DtypeTaintRule",
    "UnseededRngRule",
    "WallClockRule",
    "UnorderedIterationRule",
    "SharedMutableStateRule",
    "BackwardCaptureRule",
    "DataVersionDisciplineRule",
    "AstypeCopyRule",
    "module_symbols",
]


def module_symbols(module: ModuleInfo) -> ModuleSymbols:
    """The module's symbol table, indexed on first use and memoised on
    ``module`` so every rule shares one walk."""
    syms = getattr(module, "symbols", None)
    if syms is None:
        syms = index_module(module.tree, module.path)
        module.symbols = syms
    return syms


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _finding(module: ModuleInfo, lineno: int, rule_id: str, message: str,
             severity: str = "error") -> Finding:
    return Finding(module.display, lineno, rule_id, message, severity)


# ---------------------------------------------------------------------------
# Family 1: dtype-taint
# ---------------------------------------------------------------------------


@register
class DtypeTaintRule:
    """Dataflow-backed float64 detection (the new ``REPRO-F64``).

    Keeps every syntactic check of the old rule (dtype-less allocators,
    bare converters, literal float64) inside ``nn/`` and layers the
    taint analysis on top, so a leak survives any number of assignments
    before it is caught at a Tensor sink."""

    rule_id = "REPRO-F64"
    description = (
        "The differentiable substrate is float32-only; dtype-taint "
        "analysis tracks float64 from allocators, literals, RNG draws "
        "and intra-module call returns through assignments and "
        "arithmetic into Tensor data, dtype arguments and astype calls."
    )
    severity = "error"
    family = "dtype"
    semantic = True
    example = (
        "dt = np.float64                # taint source: the type object\n"
        "scale = np.zeros(n, dtype=dt)  # flagged: dtype variable is float64\n"
        "noise = rng.standard_normal(k) # taint source: f64-default draw\n"
        "return Tensor(noise)           # flagged: float64 flows into Tensor"
    )

    #: Methods whose argument lands in Tensor storage.
    _SINK_METHODS = {"_accumulate", "assign_"}

    def __init__(self) -> None:
        self._syntactic = SyntacticFloat64Rule()

    def applies_to(self, module: ModuleInfo) -> bool:
        return module.in_nn or "core" in module.path.parts

    def check(self, module: ModuleInfo) -> List[Finding]:
        findings: List[Finding] = []
        if module.in_nn:
            findings.extend(self._syntactic.check(module))

        syms = module_symbols(module)
        taint = ModuleTaint(module.tree, syms.resolve)
        seen: Set[Tuple[int, int, str]] = set()

        def report(call: ast.Call, kind: str, value: Taint) -> None:
            key = (call.lineno, call.col_offset, kind)
            if key in seen:
                return
            seen.add(key)
            source = f" (source: line {value.lineno})" if value.lineno else ""
            findings.append(
                _finding(
                    module, call.lineno, self.rule_id,
                    f"float64 flows into {kind}: {value.reason}{source}; "
                    "pin float32 at the source or sanitise with "
                    "astype(np.float32)",
                )
            )

        def scan(result) -> None:
            for node in result.cfg.nodes:
                env = result.in_states[node.index]
                for expr in node_value_exprs(node):
                    for call in ast.walk(expr):
                        if isinstance(call, ast.Call):
                            self._check_call(module, call, env, taint, report, findings, seen)

        for _fn, result in taint.iter_function_results():
            scan(result)
        return findings

    def _check_call(self, module, call, env, taint, report, findings, seen) -> None:
        ctx = taint.ctx
        syms = module_symbols(module)
        canonical = syms.resolve(_dotted(call.func))

        # Sink: Tensor(data) / Tensor._make(data, ...)
        data_arg: Optional[ast.expr] = None
        sink_name = ""
        if canonical is not None and (canonical == "Tensor" or canonical.endswith(".Tensor")):
            if call.args:
                data_arg, sink_name = call.args[0], "Tensor(...)"
        elif isinstance(call.func, ast.Attribute) and call.func.attr == "_make":
            if call.args:
                data_arg, sink_name = call.args[0], "Tensor._make(...)"
        elif (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in self._SINK_METHODS
            and call.args
        ):
            data_arg, sink_name = call.args[0], f".{call.func.attr}(...)"
        if data_arg is not None:
            value = classify(data_arg, env, ctx)
            if value.is_f64 and not (value.syntactic and module.in_nn):
                report(call, sink_name, value)

        # Flow-only checks: dtype= / astype through a *variable* the
        # syntactic pass cannot see (nn only, matching its scope).
        if not module.in_nn:
            return
        for kw in call.keywords:
            if kw.arg == "dtype" and isinstance(kw.value, ast.Name):
                value = classify_dtype(kw.value, env, ctx)
                if value.is_f64:
                    key = (call.lineno, call.col_offset, "dtype-var")
                    if key not in seen:
                        seen.add(key)
                        findings.append(
                            _finding(
                                module, call.lineno, self.rule_id,
                                f"{value.reason}; the differentiable substrate "
                                "is float32-only by contract",
                            )
                        )
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "astype"
            and call.args
            and isinstance(call.args[0], ast.Name)
        ):
            value = classify_dtype(call.args[0], env, ctx)
            if value.is_f64:
                key = (call.lineno, call.col_offset, "astype-var")
                if key not in seen:
                    seen.add(key)
                    findings.append(
                        _finding(
                            module, call.lineno, self.rule_id,
                            f"astype target: {value.reason}; cast to float64 in "
                            "the differentiable substrate (float32-only)",
                        )
                    )


# ---------------------------------------------------------------------------
# Family 2: determinism
# ---------------------------------------------------------------------------


@register
class UnseededRngRule:
    rule_id = "REPRO-DET-SEED"
    description = (
        "np.random.default_rng() / SeedSequence() without a seed draws "
        "OS entropy: two runs of the same command diverge at the first "
        "random draw.  Thread a seeded np.random.Generator instead."
    )
    severity = "warning"
    family = "determinism"
    semantic = True
    example = "rng = np.random.default_rng()   # flagged: entropy-seeded"

    _CTORS = {"numpy.random.default_rng", "numpy.random.SeedSequence"}

    def applies_to(self, module: ModuleInfo) -> bool:
        return "lint" not in module.path.parts

    def check(self, module: ModuleInfo) -> List[Finding]:
        syms = module_symbols(module)
        findings = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            canonical = syms.resolve(_dotted(node.func))
            if canonical in self._CTORS and not node.args and not node.keywords:
                short = canonical.rpartition(".")[2]
                findings.append(
                    _finding(
                        module, node.lineno, self.rule_id,
                        f"np.random.{short}() without a seed is "
                        "nondeterministic across runs; pass an explicit seed "
                        "or inject a seeded Generator",
                        self.severity,
                    )
                )
        return findings


@register
class WallClockRule:
    rule_id = "REPRO-DET-CLOCK"
    description = (
        "Wall-clock reads (time.time, datetime.now, ...) in the "
        "numeric layers make runs and artifacts irreproducible; "
        "timestamps belong to repro.obs (telemetry's reserved ts) and "
        "timing to its Stopwatch/span."
    )
    severity = "warning"
    family = "determinism"
    semantic = True
    example = 'record.created_at = datetime.now()   # flagged outside repro.obs'

    _CLOCKS = {
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.localtime", "time.gmtime", "time.ctime",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }
    _DIRS = frozenset({"core", "nn", "data", "eval", "geo", "baselines", "faults"})

    def applies_to(self, module: ModuleInfo) -> bool:
        parts = module.path.parts
        if "obs" in parts or "lint" in parts:
            return False
        return any(part in self._DIRS for part in parts)

    def check(self, module: ModuleInfo) -> List[Finding]:
        syms = module_symbols(module)
        findings = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            canonical = syms.resolve(_dotted(node.func))
            if canonical in self._CLOCKS:
                findings.append(
                    _finding(
                        module, node.lineno, self.rule_id,
                        f"wall-clock read {canonical}() outside repro.obs "
                        "makes outputs nondeterministic; route timestamps "
                        "through the obs layer or drop them",
                        self.severity,
                    )
                )
        return findings


@register
class UnorderedIterationRule:
    rule_id = "REPRO-DET-ITER"
    description = (
        "Iterating a set / os.listdir / glob yields platform- and "
        "hash-seed-dependent order; when the loop feeds numeric "
        "accumulation or RNG draws the whole run silently forks.  "
        "Wrap the source in sorted(...)."
    )
    severity = "error"
    family = "determinism"
    semantic = True
    example = (
        "for poi in poi_set:          # flagged: set order is hash-dependent\n"
        "    total += embeddings[poi] # ...and it feeds an accumulation"
    )

    _OS_SOURCES = {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
    _PATH_ITERS = {"iterdir", "glob", "rglob", "scandir"}
    _COMP_CONSUMERS = {
        "sum", "math.fsum", "numpy.array", "numpy.asarray", "numpy.stack",
        "numpy.concatenate", "numpy.fromiter", "numpy.hstack", "numpy.vstack",
    }

    def applies_to(self, module: ModuleInfo) -> bool:
        return "lint" not in module.path.parts

    # -- set-typed name collection (flow-insensitive, FP-safe) ----------

    @staticmethod
    def _is_set_expr(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        return False

    def _set_vars(self, tree: ast.Module) -> Set[str]:
        candidates: Set[str] = set()
        disqualified: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for a in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                    disqualified.add(a.arg)
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                targets, value = [node.target], None
            for target in targets:
                if isinstance(target, ast.Name):
                    if value is not None and self._is_set_expr(value):
                        candidates.add(target.id)
                    else:
                        disqualified.add(target.id)
        return candidates - disqualified

    def _is_unordered(self, expr: ast.expr, set_vars: Set[str], syms: ModuleSymbols) -> Optional[str]:
        if isinstance(expr, ast.Name) and expr.id in set_vars:
            return f"set '{expr.id}'"
        if self._is_set_expr(expr):
            return "a set expression"
        if isinstance(expr, ast.Call):
            canonical = syms.resolve(_dotted(expr.func))
            if canonical in self._OS_SOURCES:
                return f"{canonical}() (filesystem order)"
            if (
                isinstance(expr.func, ast.Attribute)
                and expr.func.attr in self._PATH_ITERS
            ):
                return f".{expr.func.attr}() (filesystem order)"
        return None

    def _consumes_numerically(self, body: List[ast.stmt], syms: ModuleSymbols) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.AugAssign) and isinstance(
                    node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv,
                              ast.Pow, ast.MatMult)
                ):
                    return True
                if isinstance(node, ast.Call):
                    dotted = _dotted(node.func)
                    canonical = syms.resolve(dotted) or dotted
                    if canonical is not None and canonical.startswith("numpy."):
                        return True
                    if canonical in ("sum", "math.fsum"):
                        return True
                    if isinstance(node.func, ast.Attribute):
                        if node.func.attr in ("append", "extend"):
                            return True
                        base = node.func.value
                        if isinstance(base, ast.Name) and base.id in _RNG_PARAM_NAMES:
                            return True
        return False

    def check(self, module: ModuleInfo) -> List[Finding]:
        syms = module_symbols(module)
        set_vars = self._set_vars(module.tree)
        findings = []
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                source = self._is_unordered(node.iter, set_vars, syms)
                if source and self._consumes_numerically(node.body, syms):
                    findings.append(
                        _finding(
                            module, node.lineno, self.rule_id,
                            f"iteration over {source} is unordered and feeds "
                            "numeric accumulation / RNG consumption; iterate "
                            "sorted(...) for a fixed reduction order",
                            self.severity,
                        )
                    )
            elif isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                # builtins like sum() have no import edge to resolve
                canonical = syms.resolve(dotted) or dotted
                if canonical in self._COMP_CONSUMERS and node.args:
                    arg = node.args[0]
                    if isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
                        gen = arg.generators[0]
                        source = self._is_unordered(gen.iter, set_vars, syms)
                        if source:
                            findings.append(
                                _finding(
                                    module, node.lineno, self.rule_id,
                                    f"{canonical}(...) consumes a comprehension "
                                    f"over {source}; the reduction order is "
                                    "unordered — iterate sorted(...)",
                                    self.severity,
                                )
                            )
        return findings


# ---------------------------------------------------------------------------
# Family 3: shared-state readiness
# ---------------------------------------------------------------------------


@register
class SharedMutableStateRule:
    rule_id = "REPRO-STATE"
    description = (
        "Module-level state rebound (global) or mutated from function "
        "bodies will silently diverge across fork-based workers: each "
        "process edits its own copy.  Only the sanctioned state modules "
        "(obs.state, faults.state, parallel.state) may own process-global "
        "toggles; everything else passes state explicitly."
    )
    severity = "error"
    family = "shared-state"
    semantic = True
    example = (
        "_CACHE = {}\n"
        "def remember(k, v):\n"
        "    _CACHE[k] = v   # flagged: module-state mutation from a function"
    )

    _DIRS = frozenset({
        "core", "nn", "data", "eval", "geo", "baselines", "faults", "obs",
        "parallel",
    })
    _SANCTIONED = (
        ("obs", "state.py"),
        ("faults", "state.py"),
        ("parallel", "state.py"),
    )
    _MUTATORS = frozenset({
        "append", "extend", "insert", "add", "update", "setdefault",
        "pop", "popitem", "clear", "remove", "discard", "appendleft",
    })

    def applies_to(self, module: ModuleInfo) -> bool:
        parts = module.path.parts
        for pkg, name in self._SANCTIONED:
            if pkg in parts and module.path.name == name:
                return False
        return any(part in self._DIRS for part in parts)

    def check(self, module: ModuleInfo) -> List[Finding]:
        syms = module_symbols(module)
        findings = []
        mutable_globals = {n for n, b in syms.globals.items() if b.mutable}
        for fn in ast.walk(module.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            local_names = self._local_bindings(fn)
            for node in ast.walk(fn):
                if isinstance(node, ast.Global):
                    for name in node.names:
                        findings.append(
                            _finding(
                                module, node.lineno, self.rule_id,
                                f"function '{fn.name}' rebinds module-level "
                                f"'{name}' via global; fork-based workers each "
                                "mutate their own copy — move it into a "
                                "sanctioned state module (obs.state / "
                                "faults.state / parallel.state) or pass "
                                "state explicitly",
                            )
                        )
                elif isinstance(node, ast.Call):
                    func = node.func
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr in self._MUTATORS
                        and isinstance(func.value, ast.Name)
                        and func.value.id in mutable_globals
                        and func.value.id not in local_names
                    ):
                        findings.append(
                            _finding(
                                module, node.lineno, self.rule_id,
                                f"mutation of module-level '{func.value.id}."
                                f"{func.attr}(...)' from function '{fn.name}'; "
                                "module state diverges across fork-based "
                                "workers — pass state explicitly or use a "
                                "sanctioned state module",
                            )
                        )
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for target in targets:
                        base = target
                        while isinstance(base, ast.Subscript):
                            base = base.value
                        if (
                            isinstance(target, ast.Subscript)
                            and isinstance(base, ast.Name)
                            and base.id in mutable_globals
                            and base.id not in local_names
                        ):
                            findings.append(
                                _finding(
                                    module, node.lineno, self.rule_id,
                                    f"subscript store into module-level "
                                    f"'{base.id}' from function '{fn.name}'; "
                                    "module state diverges across fork-based "
                                    "workers",
                                )
                            )
        return findings

    @staticmethod
    def _local_bindings(fn: ast.AST) -> Set[str]:
        declared_global: Set[str] = set()
        bound: Set[str] = set()
        args = fn.args
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                  *([args.vararg] if args.vararg else []),
                  *([args.kwarg] if args.kwarg else [])):
            bound.add(a.arg)
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.add(node.id)
        return bound - declared_global


# ---------------------------------------------------------------------------
# Family 4: autograd contract
# ---------------------------------------------------------------------------


def _function_free_loads(fn: ast.FunctionDef) -> Set[str]:
    """Names ``fn`` reads from its enclosing scope."""
    bound: Set[str] = set()
    args = fn.args
    for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
              *([args.vararg] if args.vararg else []),
              *([args.kwarg] if args.kwarg else [])):
        bound.add(a.arg)
    loads: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Store):
                bound.add(node.id)
            else:
                loads.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not fn:
            bound.add(node.name)
    return loads - bound


@register
class BackwardCaptureRule:
    rule_id = "REPRO-GRAD-CAPTURE"
    description = (
        "Python closures late-bind: a backward closure reads the value "
        "its captured names hold when backward() *runs*, not when the "
        "closure was defined.  Rebinding or mutating a captured "
        "variable between the definition and the backward pass "
        "silently changes the gradient."
    )
    severity = "error"
    family = "autograd"
    semantic = True
    example = (
        "def backward(grad):\n"
        "    x._accumulate(grad * scale)\n"
        "scale = scale * 0.5    # flagged: rebound after capture"
    )

    def applies_to(self, module: ModuleInfo) -> bool:
        return module.in_nn or "core" in module.path.parts

    def check(self, module: ModuleInfo) -> List[Finding]:
        findings = []
        for fn in ast.walk(module.tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            closures = [
                stmt for stmt in ast.walk(fn)
                if isinstance(stmt, ast.FunctionDef)
                and stmt is not fn
                and stmt.name == "backward"
            ]
            for closure in closures:
                captured = _function_free_loads(closure)
                if not captured:
                    continue
                end = closure.end_lineno or closure.lineno
                findings.extend(self._rebinds_after(module, fn, closure, captured, end))
        return findings

    def _rebinds_after(self, module, fn, closure, captured: Set[str], end: int):
        out = []
        for node in ast.walk(fn):
            lineno = getattr(node, "lineno", 0)
            if lineno <= end:
                continue
            # Skip anything inside a *different* nested function that
            # runs later by construction (another closure's body).
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                targets = [node.target]
            for target in targets:
                names: List[Tuple[str, str]] = []
                if isinstance(target, ast.Name):
                    names.append((target.id, "rebound"))
                elif isinstance(target, (ast.Tuple, ast.List)):
                    names.extend(
                        (elt.id, "rebound") for elt in target.elts
                        if isinstance(elt, ast.Name)
                    )
                elif isinstance(target, ast.Subscript):
                    base = target.value
                    while isinstance(base, ast.Subscript):
                        base = base.value
                    if isinstance(base, ast.Name):
                        names.append((base.id, "mutated"))
                for name, how in names:
                    if name in captured:
                        out.append(
                            _finding(
                                module, lineno, self.rule_id,
                                f"'{name}' is captured by the backward closure "
                                f"(line {closure.lineno}) but {how} here; the "
                                "closure will read the new value at backward "
                                "time — bind the captured value before "
                                "defining backward",
                            )
                        )
        return out


@register
class DataVersionDisciplineRule:
    rule_id = "REPRO-GRAD-VERSION"
    description = (
        "A method that reassigns self.data must bump the tensor version "
        "counter (self._version / bump_version()); anomaly mode uses it "
        "to catch in-place mutation between forward and backward."
    )
    severity = "warning"
    family = "autograd"
    semantic = True
    example = (
        "def overwrite_(self, arr):\n"
        "    self.data = arr   # flagged: no version bump in this method"
    )

    _EXEMPT = {"__init__", "__new__", "__setstate__", "_make"}

    def applies_to(self, module: ModuleInfo) -> bool:
        return module.in_nn

    def check(self, module: ModuleInfo) -> List[Finding]:
        findings = []
        for cls in ast.walk(module.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or fn.name in self._EXEMPT:
                    continue
                data_writes = []
                bumps = False
                for node in ast.walk(fn):
                    if isinstance(node, (ast.Assign, ast.AugAssign)):
                        targets = (
                            node.targets if isinstance(node, ast.Assign) else [node.target]
                        )
                        for target in targets:
                            if (
                                isinstance(target, ast.Attribute)
                                and target.attr == "data"
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                            ):
                                data_writes.append(node.lineno)
                            if (
                                isinstance(target, ast.Attribute)
                                and target.attr == "_version"
                            ):
                                bumps = True
                    elif isinstance(node, ast.Call):
                        name = _dotted(node.func)
                        if name in ("self.bump_version", "self.assign_"):
                            bumps = True
                if data_writes and not bumps:
                    findings.append(
                        _finding(
                            module, data_writes[0], self.rule_id,
                            f"method '{cls.name}.{fn.name}' reassigns self.data "
                            "without bumping the version counter; anomaly-mode "
                            "mutation detection goes blind — use assign_() or "
                            "bump_version()",
                            self.severity,
                        )
                    )
        return findings


@register
class AstypeCopyRule:
    rule_id = "REPRO-ASTYPE-COPY"
    description = (
        "astype(np.float32) inside a backward closure copies even when "
        "the gradient is already float32; pass copy=False so the "
        "already-correct dtype is a no-op view."
    )
    severity = "warning"
    family = "dtype"
    semantic = False
    example = "g = grad.astype(np.float32)   # fix: astype(np.float32, copy=False)"

    def applies_to(self, module: ModuleInfo) -> bool:
        return module.in_nn

    def check(self, module: ModuleInfo) -> List[Finding]:
        syms = module_symbols(module)
        findings = []
        for fn in ast.walk(module.tree):
            if not isinstance(fn, ast.FunctionDef) or fn.name != "backward":
                continue
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "astype"
                    and node.args
                    and syms.resolve(_dotted(node.args[0])) == "numpy.float32"
                    and not any(kw.arg == "copy" for kw in node.keywords)
                ):
                    findings.append(
                        _finding(
                            module, node.lineno, self.rule_id,
                            "astype(np.float32) in a backward closure without "
                            "copy=False always copies; pass copy=False",
                            self.severity,
                        )
                    )
        return findings
