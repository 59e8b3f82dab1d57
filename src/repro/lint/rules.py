"""The pluggable rule engine and the general-purpose rules.

A rule is any object satisfying the :class:`Rule` protocol: it carries a
stable ``rule_id``/``description`` pair, decides which files it applies
to, and maps a parsed module to a list of findings.  Rules register
themselves in :data:`REGISTRY` via the :func:`register` decorator, so a
project-local rule can be added by importing a module that defines one.

Rules shipped here (the op-inventory rules live in
:mod:`repro.lint.opcheck`, the dataflow-backed families in
:mod:`repro.lint.rules_semantic`):

==============   ======================================================
REPRO-IMPORT     no deep-learning framework imports (torch, jax, ...)
REPRO-RNG        no global numpy RNG; inject a ``np.random.Generator``
REPRO-MUT        no external mutation of ``Tensor.data`` in op code
REPRO-HOTIMPORT  no function-body imports in hot-path modules
REPRO-OBS        no raw time.perf_counter in core//eval/; go through
                 repro.obs (Stopwatch / span) instead
REPRO-ATOMICIO   no bare write-mode open / np.savez / Path.write_* in
                 core//nn/; checkpoint bytes must go through the
                 atomic, checksummed writer in repro.nn.serialization
REPRO-FUSED      no hand-rolled ``q @ k.transpose()`` attention chains
                 in core/; route through repro.nn.fused
REPRO-DENSEPOI   no catalogue-sized ``np.zeros((num_pois, ...))`` table
                 allocations outside the dense baselines; query the
                 shared spatial index per target instead
REPRO-SUP        suppression comments must carry a justification and
                 silence a finding on their line
==============   ======================================================

``REPRO-F64`` used to live here as a purely syntactic pass; it is now
owned by :class:`repro.lint.rules_semantic.DtypeTaintRule`, which keeps
the syntactic checks (via :class:`SyntacticFloat64Rule` below) and
layers whole-function dtype-taint tracking on top.

Rules may carry optional metadata attributes — ``severity`` ("error" /
"warning"), ``family`` (a short grouping tag), ``semantic`` (True when
the rule runs a dataflow analysis rather than a per-node pattern), and
``example`` (a snippet shown by ``--explain``).  The engine reads them
with safe defaults, so third-party rules without metadata keep working.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Protocol, runtime_checkable

from .findings import Finding, SuppressionIndex

#: Canonical module paths of frameworks the reproduction must not use:
#: the whole point of the repo is that it runs on numpy alone.
FORBIDDEN_FRAMEWORKS = {
    "torch",
    "torchvision",
    "tensorflow",
    "keras",
    "jax",
    "flax",
    "mxnet",
    "theano",
    "paddle",
}

#: Members of ``numpy.random`` that are fine to call: they construct or
#: seed *injectable* generator objects rather than mutate global state.
ALLOWED_NP_RANDOM = {
    "default_rng",
    "Generator",
    "BitGenerator",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}


@dataclass
class ModuleInfo:
    """A parsed source file plus the derived context rules need."""

    path: Path
    display: str
    source: str
    tree: ast.Module
    suppressions: SuppressionIndex
    #: local name -> canonical dotted module path for numpy imports,
    #: e.g. {"np": "numpy", "npr": "numpy.random"}.
    numpy_aliases: Dict[str, str] = field(default_factory=dict)
    #: identifiers referenced by tests/test_nn_gradcheck.py (set by the
    #: engine when the suite is resolvable; None disables REPRO-GRADCHECK).
    gradcheck_names: Optional[frozenset] = None

    @property
    def in_nn(self) -> bool:
        """True when the file belongs to the differentiable substrate
        (any path component named ``nn``)."""
        return "nn" in self.path.parts

    @classmethod
    def parse(cls, path: Path, source: Optional[str] = None, display: Optional[str] = None) -> "ModuleInfo":
        if source is None:
            source = path.read_text(encoding="utf-8")
        info = cls(
            path=path,
            display=display or str(path),
            source=source,
            tree=ast.parse(source, filename=str(path)),
            suppressions=SuppressionIndex.from_source(source),
        )
        info.numpy_aliases = _collect_numpy_aliases(info.tree)
        return info


def _collect_numpy_aliases(tree: ast.Module) -> Dict[str, str]:
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy" or alias.name.startswith("numpy."):
                    aliases[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.module == "numpy":
                for alias in node.names:
                    if alias.name == "random":
                        aliases[alias.asname or alias.name] = "numpy.random"
    return aliases


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute chains; None for anything dynamic."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def canonical_numpy(name: Optional[str], module: ModuleInfo) -> Optional[str]:
    """Resolve a dotted name through the module's numpy import aliases."""
    if name is None:
        return None
    head, _, rest = name.partition(".")
    target = module.numpy_aliases.get(head)
    if target is None:
        return None
    return f"{target}.{rest}" if rest else target


@runtime_checkable
class Rule(Protocol):
    """The protocol every lint rule implements."""

    rule_id: str
    description: str

    def applies_to(self, module: ModuleInfo) -> bool:
        ...

    def check(self, module: ModuleInfo) -> List[Finding]:
        ...


REGISTRY: List[Rule] = []


def register(rule_cls):
    """Class decorator adding an instance of ``rule_cls`` to the registry."""
    REGISTRY.append(rule_cls())
    return rule_cls


def _finding(module: ModuleInfo, node: ast.AST, rule_id: str, message: str) -> Finding:
    return Finding(module.display, getattr(node, "lineno", 1), rule_id, message)


@register
class NoFrameworkImportsRule:
    rule_id = "REPRO-IMPORT"
    description = (
        "Deep-learning framework imports are forbidden; the reproduction "
        "must run on the in-repo numpy autograd engine alone."
    )
    severity = "error"
    family = "environment"
    semantic = False
    example = "import torch   # flagged: numpy-only reproduction"

    def applies_to(self, module: ModuleInfo) -> bool:
        return True

    def check(self, module: ModuleInfo) -> List[Finding]:
        findings = []
        for node in ast.walk(module.tree):
            roots = []
            if isinstance(node, ast.Import):
                roots = [(alias.name.split(".")[0], alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                roots = [(node.module.split(".")[0], node.module)]
            for root, full in roots:
                if root in FORBIDDEN_FRAMEWORKS:
                    findings.append(
                        _finding(
                            module, node, self.rule_id,
                            f"import of framework '{full}' is forbidden "
                            "(numpy-only reproduction)",
                        )
                    )
        return findings


@register
class NoGlobalRngRule:
    rule_id = "REPRO-RNG"
    description = (
        "Global numpy RNG state (np.random.rand, .seed, ...) is forbidden; "
        "inject a np.random.Generator so every run is reproducible."
    )
    severity = "error"
    family = "determinism"
    semantic = False
    example = "np.random.seed(0)   # flagged: global RNG state"

    def applies_to(self, module: ModuleInfo) -> bool:
        return True

    def check(self, module: ModuleInfo) -> List[Finding]:
        findings = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = canonical_numpy(dotted_name(node.func), module)
                if name and name.startswith("numpy.random."):
                    member = name.split(".")[2]
                    if member not in ALLOWED_NP_RANDOM:
                        findings.append(
                            _finding(
                                module, node, self.rule_id,
                                f"call to global RNG 'np.random.{member}'; "
                                "use an injected np.random.Generator instead",
                            )
                        )
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
                for alias in node.names:
                    if alias.name not in ALLOWED_NP_RANDOM:
                        findings.append(
                            _finding(
                                module, node, self.rule_id,
                                f"import of global RNG member "
                                f"'numpy.random.{alias.name}'; inject a "
                                "np.random.Generator instead",
                            )
                        )
        return findings


class SyntacticFloat64Rule:
    """The original per-node REPRO-F64 pass.

    Deliberately **not** registered: :class:`~repro.lint.rules_semantic.
    DtypeTaintRule` embeds it and extends it with dataflow tracking.
    The class stays importable so tests can run old-vs-new comparisons
    on the same corpus.
    """

    rule_id = "REPRO-F64"
    description = (
        "The differentiable substrate is float32-only: no np.float64 / "
        "dtype=float, and numpy conversions must pin an explicit dtype."
    )
    severity = "error"
    family = "dtype"
    semantic = False
    example = "buf = np.zeros(n)   # flagged: dtype-less allocator defaults to float64"

    #: calls that convert inputs and silently default to float64.
    _CONVERTERS = {"numpy.asarray", "numpy.array", "numpy.asfarray"}
    #: allocators/builders that default to float64 when no dtype is
    #: pinned.  These are the classic closure-capture leak: a backward
    #: closure grabs a dtype-less scratch array at forward time and
    #: every gradient that touches it silently upcasts.
    _CONSTRUCTORS = {
        "numpy.zeros",
        "numpy.ones",
        "numpy.empty",
        "numpy.full",
        "numpy.arange",
    }

    def applies_to(self, module: ModuleInfo) -> bool:
        return module.in_nn

    def _is_float64_expr(self, node: ast.AST, module: ModuleInfo) -> bool:
        name = canonical_numpy(dotted_name(node), module)
        if name in ("numpy.float64", "numpy.double"):
            return True
        return isinstance(node, ast.Name) and node.id == "float"

    def check(self, module: ModuleInfo) -> List[Finding]:
        findings = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func_name = dotted_name(node.func)
            canonical = canonical_numpy(func_name, module)
            # x.astype(np.float64) / x.astype(float)
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "astype"
                and node.args
                and self._is_float64_expr(node.args[0], module)
            ):
                findings.append(
                    _finding(
                        module, node, self.rule_id,
                        "cast to float64 in the differentiable substrate "
                        "(float32-only by contract)",
                    )
                )
                continue
            # np.float64(...) constructor
            if canonical in ("numpy.float64", "numpy.double"):
                findings.append(
                    _finding(
                        module, node, self.rule_id,
                        "np.float64 value constructed in the differentiable "
                        "substrate (float32-only by contract)",
                    )
                )
                continue
            # dtype=np.float64 / dtype=float keywords anywhere
            for kw in node.keywords:
                if kw.arg == "dtype" and self._is_float64_expr(kw.value, module):
                    findings.append(
                        _finding(
                            module, node, self.rule_id,
                            "dtype=float64 in the differentiable substrate "
                            "(float32-only by contract)",
                        )
                    )
            # bare np.asarray/np.array without an explicit dtype: promotes
            # python floats / float64 inputs straight into the graph.
            if canonical in self._CONVERTERS and not any(
                kw.arg == "dtype" for kw in node.keywords
            ):
                findings.append(
                    _finding(
                        module, node, self.rule_id,
                        f"bare {func_name}(...) without dtype may leak float64 "
                        "into a differentiable path; pass an explicit dtype",
                    )
                )
                continue
            # dtype-less allocators: float64 by default, and frequently
            # captured by backward closures where the leak survives the
            # whole training step.
            if canonical in self._CONSTRUCTORS and not any(
                kw.arg == "dtype" for kw in node.keywords
            ):
                findings.append(
                    _finding(
                        module, node, self.rule_id,
                        f"dtype-less {func_name}(...) allocates float64 by "
                        "default; closure-captured scratch arrays must pin "
                        "an explicit dtype",
                    )
                )
                continue
            # np.bincount with weights accumulates in float64 (it takes
            # no dtype argument); every use must cast on store and say so.
            if canonical == "numpy.bincount" and any(
                kw.arg == "weights" for kw in node.keywords
            ):
                findings.append(
                    _finding(
                        module, node, self.rule_id,
                        f"{func_name}(..., weights=...) accumulates in "
                        "float64; cast the result to float32 and suppress "
                        "with a justification",
                    )
                )
        return findings


@register
class NoTensorDataMutationRule:
    rule_id = "REPRO-MUT"
    description = (
        "Op implementations must not mutate Tensor.data of their operands; "
        "autograd assumes forward values survive until backward "
        "(use Tensor.assign_/index_put_/bump_version for sanctioned updates)."
    )
    severity = "error"
    family = "autograd"
    semantic = False
    example = "out.data[idx] = v   # flagged: mutates forward value"

    def applies_to(self, module: ModuleInfo) -> bool:
        return module.in_nn

    @staticmethod
    def _data_attr_base(node: ast.AST) -> Optional[ast.AST]:
        """Return the base expression of ``<base>.data`` (through subscripts)."""
        while isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute) and node.attr == "data":
            return node.value
        return None

    @classmethod
    def _is_external_data_target(cls, node: ast.AST) -> bool:
        base = cls._data_attr_base(node)
        if base is None:
            return False
        # ``self.data = ...`` inside the Tensor class itself is the
        # substrate managing its own storage and stays allowed.
        return not (isinstance(base, ast.Name) and base.id == "self")

    def check(self, module: ModuleInfo) -> List[Finding]:
        findings = []
        for node in ast.walk(module.tree):
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Call):
                # np.add.at(x.data, idx, ...) style scatter mutation
                name = dotted_name(node.func)
                if name and name.endswith(".at") and node.args:
                    if self._is_external_data_target(node.args[0]):
                        findings.append(
                            _finding(
                                module, node, self.rule_id,
                                "in-place scatter into Tensor.data; write to a "
                                "fresh array and rebuild via Tensor instead",
                            )
                        )
                continue
            for target in targets:
                if self._is_external_data_target(target):
                    findings.append(
                        _finding(
                            module, node, self.rule_id,
                            "assignment into Tensor.data outside the Tensor "
                            "class; use Tensor.assign_() or, to write rows in "
                            "place, Tensor.index_put_() (both bump the "
                            "anomaly-mode version counter), or build a new "
                            "Tensor",
                        )
                    )
        return findings


@register
class NoHotPathFunctionImportRule:
    rule_id = "REPRO-HOTIMPORT"
    description = (
        "Imports inside function bodies of hot-path modules (core/nn/geo/"
        "data/baselines/eval) pay the import-lock lookup on every call; "
        "hoist them to module scope."
    )
    severity = "error"
    family = "performance"
    semantic = False
    example = "def forward(x):\n    import numpy as np   # flagged: hot-path import"

    #: Path components marking request/training hot paths.  Tooling
    #: (lint), offline analysis and the CLI may lazy-import freely.
    HOT_DIRS = frozenset({"core", "nn", "geo", "data", "baselines", "eval"})

    def applies_to(self, module: ModuleInfo) -> bool:
        return any(part in self.HOT_DIRS for part in module.path.parts)

    def check(self, module: ModuleInfo) -> List[Finding]:
        findings = []
        seen: set = set()
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for sub in ast.walk(node):
                if isinstance(sub, (ast.Import, ast.ImportFrom)) and id(sub) not in seen:
                    seen.add(id(sub))
                    findings.append(
                        _finding(
                            module, sub, self.rule_id,
                            f"import inside function '{node.name}' runs on "
                            "every call in a hot path; move it to module "
                            "scope (or suppress with a justification if it "
                            "breaks an import cycle)",
                        )
                    )
        return findings


@register
class NoRawPerfCounterRule:
    rule_id = "REPRO-OBS"
    description = (
        "Raw time.perf_counter() in core//eval/ bypasses the repro.obs "
        "timing layer; use Stopwatch or span() so timings land in the "
        "metrics/trace exports (repro.obs itself is the one home for "
        "the primitive)."
    )
    severity = "error"
    family = "observability"
    semantic = False
    example = "t0 = time.perf_counter()   # flagged: bypasses repro.obs"

    #: Directories whose timing must flow through repro.obs.
    TIMED_DIRS = frozenset({"core", "eval"})

    def applies_to(self, module: ModuleInfo) -> bool:
        parts = module.path.parts
        if "obs" in parts:
            return False
        return any(part in self.TIMED_DIRS for part in parts)

    @staticmethod
    def _time_aliases(tree: ast.Module) -> set:
        """Local names bound to the ``time`` module."""
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        aliases.add(alias.asname or "time")
        return aliases

    def check(self, module: ModuleInfo) -> List[Finding]:
        findings = []
        aliases = self._time_aliases(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name == "perf_counter":
                        findings.append(
                            _finding(
                                module, node, self.rule_id,
                                "import of time.perf_counter outside repro.obs; "
                                "use repro.obs.Stopwatch or span() so the "
                                "timing reaches the metrics/trace exports",
                            )
                        )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is None:
                    continue
                head, _, rest = name.partition(".")
                if head in aliases and rest == "perf_counter":
                    findings.append(
                        _finding(
                            module, node, self.rule_id,
                            f"raw {name}() call outside repro.obs; use "
                            "repro.obs.Stopwatch or span() so the timing "
                            "reaches the metrics/trace exports",
                        )
                    )
        return findings


@register
class AtomicCheckpointIoRule:
    rule_id = "REPRO-ATOMICIO"
    description = (
        "File writes in core//nn/ must go through the atomic, "
        "checksummed checkpoint writer (repro.nn.serialization."
        "save_arrays / atomic_write_bytes); a bare open(..., 'w') or "
        "np.savez can tear on a crash and carries no integrity record."
    )
    severity = "error"
    family = "io"
    semantic = False
    example = "open(path, 'w')   # flagged: torn-write hazard"

    #: Layers that own checkpoint bytes; everything they persist must
    #: survive a mid-write crash.
    CHECKPOINT_DIRS = frozenset({"core", "nn"})
    #: The one sanctioned write path.
    ALLOWED_MODULES = frozenset({"serialization.py"})
    #: numpy writers that serialize arrays straight to disk.
    _NUMPY_WRITERS = {"numpy.savez", "numpy.savez_compressed", "numpy.save"}
    #: pathlib-style write methods.
    _PATH_WRITERS = {"write_bytes", "write_text"}

    def applies_to(self, module: ModuleInfo) -> bool:
        if module.path.name in self.ALLOWED_MODULES and module.in_nn:
            return False
        return any(part in self.CHECKPOINT_DIRS for part in module.path.parts)

    @staticmethod
    def _open_mode(node: ast.Call) -> Optional[str]:
        mode = None
        if len(node.args) >= 2:
            mode = node.args[1]
        for kw in node.keywords:
            if kw.arg == "mode":
                mode = kw.value
        if mode is None:
            return "r"  # open() defaults to read
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return mode.value
        return None  # dynamic mode: treat as suspect

    def check(self, module: ModuleInfo) -> List[Finding]:
        findings = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            canonical = canonical_numpy(name, module)
            if canonical in self._NUMPY_WRITERS:
                # Writing to an in-memory buffer is fine; only a direct
                # path/str first argument is a torn-write hazard.  We
                # cannot prove a Name is a buffer, so flag everything and
                # let the atomic helper be the place that suppresses.
                findings.append(
                    _finding(
                        module, node, self.rule_id,
                        f"direct {name}(...) bypasses the atomic checksummed "
                        "writer; build the payload in memory and hand it to "
                        "repro.nn.serialization (save_arrays/atomic_write_bytes)",
                    )
                )
                continue
            if name == "open" or (name and name.endswith(".open")):
                mode = self._open_mode(node)
                if mode is None or any(flag in mode for flag in ("w", "a", "x", "+")):
                    findings.append(
                        _finding(
                            module, node, self.rule_id,
                            "bare write-mode open() in a checkpoint-owning "
                            "layer can tear on a crash; route the bytes "
                            "through repro.nn.serialization.atomic_write_bytes",
                        )
                    )
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in self._PATH_WRITERS
            ):
                findings.append(
                    _finding(
                        module, node, self.rule_id,
                        f"direct .{node.func.attr}() in a checkpoint-owning "
                        "layer is not crash-safe; use "
                        "repro.nn.serialization.atomic_write_bytes",
                    )
                )
        return findings


@register
class DensePoiAllocationRule:
    rule_id = "REPRO-DENSEPOI"
    description = (
        "No new catalogue-sized 2-D allocations: an np.zeros((num_pois, "
        "...))-shaped table scales O(P·k) and forecloses million-POI "
        "catalogues.  Query the shared spatial index "
        "(CheckInDataset.spatial_index) per target instead, as the "
        "streaming negative sampler does; only repro.baselines, whose "
        "published formulations are dense, may keep such tables."
    )
    severity = "error"
    family = "performance"
    semantic = False
    example = "np.zeros((num_pois + 1, pool_size))   # flagged: O(P*k) table"

    #: numpy allocators that materialize the full table.
    _ALLOCATORS = {"numpy.zeros", "numpy.empty", "numpy.ones", "numpy.full"}
    #: Packages allowed to keep a dense per-POI table: the baselines,
    #: whose published formulations are dense.
    SANCTIONED_DIRS = frozenset({"baselines"})

    def applies_to(self, module: ModuleInfo) -> bool:
        return not any(part in self.SANCTIONED_DIRS for part in module.path.parts)

    #: Widths up to this literal are treated as per-POI *records*
    #: (coordinates, (lat, lon) pairs), not neighbour tables.
    SMALL_WIDTH = 8

    @staticmethod
    def _mentions_poi_count(expr: ast.AST) -> bool:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Name) and "pois" in sub.id:
                return True
            if isinstance(sub, ast.Attribute) and "pois" in sub.attr:
                return True
        return False

    def _is_dense_table(self, shape: ast.Tuple) -> bool:
        """(P, k) is a table when some axis is the POI count and some
        *other* axis is non-trivial (symbolic, or a literal wider than
        a per-POI record like (lat, lon))."""
        poi_axes = [self._mentions_poi_count(e) for e in shape.elts]
        if not any(poi_axes):
            return False
        for is_poi, elt in zip(poi_axes, shape.elts):
            if is_poi:
                continue
            if not (
                isinstance(elt, ast.Constant)
                and isinstance(elt.value, int)
                and elt.value <= self.SMALL_WIDTH
            ):
                return True
        return False

    def check(self, module: ModuleInfo) -> List[Finding]:
        findings = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            canonical = canonical_numpy(dotted_name(node.func), module)
            if canonical not in self._ALLOCATORS or not node.args:
                continue
            shape = node.args[0]
            if (
                isinstance(shape, ast.Tuple)
                and len(shape.elts) >= 2
                and self._is_dense_table(shape)
            ):
                findings.append(
                    _finding(
                        module, node, self.rule_id,
                        "catalogue-sized table allocation scales O(P*k); "
                        "query the shared spatial index "
                        "(CheckInDataset.spatial_index) or stream pools "
                        "instead of materializing per-POI rows",
                    )
                )
        return findings


@register
class FusedAttentionRoutingRule:
    rule_id = "REPRO-FUSED"
    description = (
        "Attention in the model layer (core/) must call "
        "repro.nn.fused.fused_causal_attention; a hand-rolled "
        "'q @ k.transpose()' chain forks the one attention path and "
        "escapes the kernel's equivalence and gradcheck tests (an "
        "ablation that is not attention suppresses with a justification)."
    )
    severity = "error"
    family = "performance"
    semantic = False
    example = "scores = q @ k.transpose(0, 2, 1)   # flagged: bypasses the kernel"

    #: methods/functions that transpose an operand for a score matmul.
    _TRANSPOSERS = frozenset({"transpose", "swapaxes"})

    def applies_to(self, module: ModuleInfo) -> bool:
        return "core" in module.path.parts and not module.in_nn

    @classmethod
    def _is_transposed_operand(cls, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in cls._TRANSPOSERS
        )

    def check(self, module: ModuleInfo) -> List[Finding]:
        findings = []
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)):
                continue
            if self._is_transposed_operand(node.left) or self._is_transposed_operand(
                node.right
            ):
                findings.append(
                    _finding(
                        module, node, self.rule_id,
                        "hand-rolled attention score chain "
                        "('x @ y.transpose()') in core/; call "
                        "repro.nn.fused.fused_causal_attention, the one "
                        "tested attention path",
                    )
                )
        return findings


@register
class SuppressionNeedsReasonRule:
    rule_id = "REPRO-SUP"
    description = (
        "Every '# repro-lint: disable=...' comment must justify itself "
        "with a trailing '-- reason' and silence a finding on its line "
        "(the engine reports the unused ones)."
    )
    severity = "error"
    family = "meta"
    semantic = False
    example = "x()  # repro-lint: disable=<RULE-ID>   <- flagged: missing '-- reason'"

    def applies_to(self, module: ModuleInfo) -> bool:
        return True

    def check(self, module: ModuleInfo) -> List[Finding]:
        return [
            Finding(
                module.display, suppression.line, self.rule_id,
                "suppression without justification; write "
                "'# repro-lint: disable=RULE-ID -- reason'",
            )
            for suppression in module.suppressions.all()
            if not suppression.has_reason
        ]
