"""Per-module symbol table.

The semantic rules index each module once (see
:func:`repro.lint.rules_semantic.module_symbols`) for the context a
per-node pass lacks:

* canonical import resolution (``np`` → ``numpy``, ``Tensor`` →
  ``repro.nn.tensor.Tensor``, relative imports resolved against the
  importing module's dotted path);
* top-level symbols — functions, classes, and module-level globals with
  a mutability classification (the shared-state rule's ground truth).

Everything here is syntactic and cheap: one walk per module.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

__all__ = ["ModuleSymbols", "index_module", "module_dotted_name"]

#: Call targets that build mutable containers.
_MUTABLE_BUILDERS = {
    "list", "dict", "set", "bytearray",
    "collections.defaultdict", "collections.deque", "collections.OrderedDict",
    "collections.Counter", "defaultdict", "deque", "OrderedDict", "Counter",
}


def module_dotted_name(path: Path) -> Optional[str]:
    """``src/repro/nn/tensor.py`` → ``repro.nn.tensor`` (None when the
    file does not sit under a ``src`` root or a ``repro`` package)."""
    parts = list(path.parts)
    anchor = None
    for i, part in enumerate(parts):
        if part == "src" and i + 1 < len(parts):
            anchor = i + 1
            break
    if anchor is None:
        for i, part in enumerate(parts):
            if part == "repro":
                anchor = i
                break
    if anchor is None:
        return None
    rel = parts[anchor:]
    if not rel or not rel[-1].endswith(".py"):
        return None
    rel[-1] = rel[-1][:-3]
    if rel[-1] == "__init__":
        rel = rel[:-1]
    return ".".join(rel) if rel else None


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _dotted(node.func)
        return name in _MUTABLE_BUILDERS
    return False


@dataclass(frozen=True)
class GlobalBinding:
    """A module-level name binding."""

    name: str
    lineno: int
    mutable: bool  # bound to a mutable container at module scope


@dataclass
class ModuleSymbols:
    """Top-level symbols of one module."""

    module: str  # dotted name ("" when unresolvable)
    path: Path
    #: local name -> canonical dotted path ("np" -> "numpy",
    #: "Tensor" -> "repro.nn.tensor.Tensor").
    imports: Dict[str, str] = field(default_factory=dict)
    #: qualified name ("f", "Cls.method") -> def node.
    functions: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    classes: Dict[str, ast.ClassDef] = field(default_factory=dict)
    #: module-level globals (assignments at module scope).
    globals: Dict[str, GlobalBinding] = field(default_factory=dict)

    def resolve(self, name: Optional[str]) -> Optional[str]:
        """Resolve a dotted local name through the import table."""
        if name is None:
            return None
        head, _, rest = name.partition(".")
        target = self.imports.get(head)
        if target is None:
            if head in self.functions or head in self.classes:
                base = f"{self.module}.{head}" if self.module else head
                return f"{base}.{rest}" if rest else base
            return None
        return f"{target}.{rest}" if rest else target


def _collect_imports(tree: ast.Module, module: str) -> Dict[str, str]:
    imports: Dict[str, str] = {}
    package_parts = module.split(".")[:-1] if module else []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                imports[local] = alias.name if alias.asname else alias.name.split(".")[0]
                if alias.asname:
                    imports[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # Relative import: climb from the *package* of `module`.
                anchor = package_parts[: len(package_parts) - (node.level - 1)]
                base = ".".join(anchor + ([node.module] if node.module else []))
            for alias in node.names:
                local = alias.asname or alias.name
                imports[local] = f"{base}.{alias.name}" if base else alias.name
    return imports


def index_module(tree: ast.Module, path: Path) -> ModuleSymbols:
    module = module_dotted_name(path) or ""
    syms = ModuleSymbols(module=module, path=path, imports=_collect_imports(tree, module))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if isinstance(node, ast.FunctionDef):
                syms.functions[node.name] = node
        elif isinstance(node, ast.ClassDef):
            syms.classes[node.name] = node
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    syms.functions[f"{node.name}.{sub.name}"] = sub
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            value = node.value
            if value is None:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    syms.globals[target.id] = GlobalBinding(
                        name=target.id, lineno=node.lineno, mutable=_is_mutable_value(value)
                    )
    return syms
