"""``repro.lint`` — static analysis for the autograd substrate.

The reproduction stands on a hand-written numpy autograd engine; a
single silently-wrong backward or a stray float64 corrupts every
Table-3/4 number downstream.  This package mechanically enforces the
engine's contracts.

Two rule tiers share one registry (:mod:`repro.lint.rules` defines the
protocol):

* syntactic rules (:mod:`repro.lint.rules`, :mod:`repro.lint.opcheck`)
  pattern-match single AST nodes;
* semantic rules (:mod:`repro.lint.rules_semantic`) run real program
  analyses — per-function control-flow graphs (:mod:`repro.lint.cfg`),
  a forward dataflow fixpoint engine (:mod:`repro.lint.dataflow`), a
  float64 taint lattice (:mod:`repro.lint.taint`) and a per-module
  symbol/import table (:mod:`repro.lint.symbols`).

The engine (:mod:`repro.lint.engine`) reads and parses every file, runs
the rules, and drops the findings that an inline
``# repro-lint: disable=RULE -- reason`` comment silences; a comment that
silences nothing is itself a finding.  The CLI is ``python -m repro.lint``
/ ``repro check``.

The runtime counterpart — NaN/Inf detection the moment a value is
produced — lives in :mod:`repro.nn.anomaly`.
"""

from .cfg import CFG, build_cfg
from .dataflow import Definition, FixpointResult, ForwardAnalysis, ReachingDefinitions
from .engine import LintRun, lint_paths, main, run_lint
from .findings import Finding, Suppression, SuppressionIndex
from .opcheck import op_inventory
from .rules import REGISTRY, ModuleInfo, Rule, SyntacticFloat64Rule, register
from .symbols import ModuleSymbols
from .taint import ModuleTaint, Taint

__all__ = [
    "Finding",
    "Suppression",
    "SuppressionIndex",
    "ModuleInfo",
    "Rule",
    "REGISTRY",
    "register",
    "lint_paths",
    "run_lint",
    "LintRun",
    "op_inventory",
    "main",
    "build_cfg",
    "CFG",
    "ForwardAnalysis",
    "FixpointResult",
    "ReachingDefinitions",
    "Definition",
    "ModuleSymbols",
    "ModuleTaint",
    "Taint",
    "SyntacticFloat64Rule",
]
