"""The intraprocedural dataflow engine: a generic forward worklist
fixpoint over :mod:`repro.lint.cfg` graphs, plus the two analyses the
semantic rules build on — reaching definitions and a pluggable abstract
environment (used by the dtype-taint lattice in :mod:`repro.lint.taint`).

States are plain ``dict[str, V]`` environments mapping local names to
abstract values.  ``V`` must form a join-semilattice exposed through the
analysis' ``join_values``; absent keys are implicit bottom.  The engine
iterates in reverse postorder until a fixpoint, which terminates because
every lattice here has finite height and transfer functions are
monotone.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Generic, List, TypeVar

from .cfg import CFG, CFGNode, binding_occurrences

__all__ = [
    "ForwardAnalysis",
    "FixpointResult",
    "ReachingDefinitions",
    "Definition",
]

V = TypeVar("V")
State = Dict[str, V]


@dataclass
class FixpointResult(Generic[V]):
    """Per-node input/output environments after convergence."""

    cfg: CFG
    in_states: List[State]
    out_states: List[State]

    def state_after(self, node: CFGNode) -> State:
        return self.out_states[node.index]


class ForwardAnalysis(Generic[V]):
    """Subclass hooks: ``initial_state`` (entry env), ``transfer``
    (node × env → env, must not mutate its input), ``join_values``."""

    def initial_state(self, cfg: CFG) -> State:
        return {}

    def join_values(self, a: V, b: V) -> V:
        raise NotImplementedError

    def transfer(self, node: CFGNode, state: State) -> State:
        raise NotImplementedError

    # -- engine ---------------------------------------------------------

    def join(self, a: State, b: State) -> State:
        if not a:
            return dict(b)
        if not b:
            return dict(a)
        out = dict(a)
        for name, value in b.items():
            if name in out:
                out[name] = self.join_values(out[name], value)
            else:
                out[name] = value
        return out

    def run(self, cfg: CFG, max_iterations: int = 50) -> FixpointResult:
        n = len(cfg.nodes)
        in_states: List[State] = [{} for _ in range(n)]
        out_states: List[State] = [{} for _ in range(n)]
        order = cfg.reverse_postorder()
        position = {idx: pos for pos, idx in enumerate(order)}

        in_states[cfg.entry] = self.initial_state(cfg)
        out_states[cfg.entry] = self.transfer(cfg.nodes[cfg.entry], in_states[cfg.entry])

        pending = set(order)
        for _ in range(max_iterations):
            if not pending:
                break
            changed = False
            for idx in order:
                if idx not in pending:
                    continue
                pending.discard(idx)
                node = cfg.nodes[idx]
                if node.preds:
                    state: State = {}
                    for pred in node.preds:
                        state = self.join(state, out_states[pred])
                    if idx == cfg.entry:
                        state = self.join(state, self.initial_state(cfg))
                else:
                    state = self.initial_state(cfg) if idx == cfg.entry else {}
                new_out = self.transfer(node, state)
                in_states[idx] = state
                if new_out != out_states[idx]:
                    out_states[idx] = new_out
                    changed = True
                    for succ in node.succs:
                        pending.add(succ)
            if not changed and not pending:
                break
        return FixpointResult(cfg=cfg, in_states=in_states, out_states=out_states)


@dataclass(frozen=True)
class Definition:
    """One definition site: the CFG node that bound the name."""

    node_index: int
    lineno: int
    source: str  # Binding.source tag ("assign", "for", "arg", ...)

    def __repr__(self) -> str:  # keep test diffs readable
        return f"Def(@{self.lineno}:{self.source})"


class ReachingDefinitions(ForwardAnalysis[FrozenSet[Definition]]):
    """Classic reaching definitions: which binding sites may have
    produced the value of each local at each program point."""

    def join_values(
        self, a: FrozenSet[Definition], b: FrozenSet[Definition]
    ) -> FrozenSet[Definition]:
        return a | b

    def transfer(self, node: CFGNode, state: State) -> State:
        bindings = binding_occurrences(node)
        if not bindings:
            return state
        out = dict(state)
        for binding in bindings:
            defn = Definition(
                node_index=node.index,
                lineno=getattr(node.stmt, "lineno", 0),
                source=binding.source,
            )
            if binding.source == "aug":
                # x += e reads the old x: the old defs stay live too.
                out[binding.name] = out.get(binding.name, frozenset()) | {defn}
            else:
                out[binding.name] = frozenset({defn})
        return out

    # -- convenience ----------------------------------------------------

    def analyse(self, fn: ast.AST) -> FixpointResult:
        from .cfg import build_cfg

        return self.run(build_cfg(fn))
