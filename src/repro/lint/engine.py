"""File discovery, rule dispatch, and the ``python -m repro.lint`` CLI.

Usage
-----
    python -m repro.lint [paths...]            # default: src
    python -m repro.lint --list-rules          # registry with metadata
    python -m repro.lint --explain REPRO-F64   # one rule, in depth
    python -m repro.lint --json out.json       # also write findings as JSON
    repro check [args...]                      # the same CLI, arguments as-is

Exit status is 0 when no findings survive inline suppression, 1
otherwise, 2 on usage errors — tier-1 tests and CI both gate on it.

Pipeline per run: discover and read files → parse each → run every
applicable rule → drop the findings an inline
``# repro-lint: disable=RULE -- reason`` comment silences, and report
every such comment that silenced nothing → report.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from . import opcheck  # noqa: F401  (imported for its rule registrations)
from . import rules_semantic  # noqa: F401  (dataflow rule registrations)
from .findings import Finding
from .rules import REGISTRY, ModuleInfo

GRADCHECK_RELPATH = Path("tests") / "test_nn_gradcheck.py"


def iter_python_files(paths: Sequence[Path]) -> Iterable[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(p for p in path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def find_gradcheck_file(paths: Sequence[Path]) -> Optional[Path]:
    """Locate ``tests/test_nn_gradcheck.py`` by walking up from the lint
    targets (so the gate works from any working directory)."""
    seen = set()
    for start in paths:
        start = start.resolve()
        for candidate_root in [start, *start.parents]:
            if candidate_root in seen:
                continue
            seen.add(candidate_root)
            candidate = candidate_root / GRADCHECK_RELPATH
            if candidate.is_file():
                return candidate
    return None


# ---------------------------------------------------------------------------
# Rule metadata accessors (attributes are optional on third-party rules)
# ---------------------------------------------------------------------------


def rule_severity(rule) -> str:
    return getattr(rule, "severity", "error")


def rule_family(rule) -> str:
    return getattr(rule, "family", "general")


def rule_is_semantic(rule) -> bool:
    return bool(getattr(rule, "semantic", False))


def rule_example(rule) -> str:
    return getattr(rule, "example", "")


def find_rule(rule_id: str):
    for rule in REGISTRY:
        if rule.rule_id == rule_id:
            return rule
    return None


# ---------------------------------------------------------------------------
# The run record
# ---------------------------------------------------------------------------


@dataclass
class LintRun:
    """Everything one engine invocation produced."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    elapsed: float = 0.0


def _display(file_path: Path) -> str:
    try:
        return str(file_path.relative_to(Path.cwd()))
    except ValueError:
        return str(file_path)


def _check_module(module: ModuleInfo) -> List[Finding]:
    """Every applicable rule's findings for one module, minus those an
    inline comment suppresses (``REPRO-SUP`` cannot be suppressed).

    A suppression comment that silences no finding on its line is itself
    a ``REPRO-SUP`` finding: once its violation is fixed, the comment
    goes stale loudly instead of hiding the next one."""
    findings: List[Finding] = []
    used = set()
    for rule in REGISTRY:
        if not rule.applies_to(module):
            continue
        severity = rule_severity(rule)
        for finding in rule.check(module):
            if finding.severity == "error" and severity != "error":
                finding = replace(finding, severity=severity)
            if finding.rule_id != "REPRO-SUP" and module.suppressions.is_suppressed(
                finding
            ):
                used.add(finding.line)
                continue
            findings.append(finding)
    findings.extend(
        Finding(
            module.display, suppression.line, "REPRO-SUP",
            "suppression silences no finding on its line; delete it",
        )
        for suppression in module.suppressions.all()
        if suppression.line not in used
    )
    return findings


def run_lint(paths: Sequence[Path], gradcheck_path: Optional[Path] = None) -> LintRun:
    """The full engine pipeline; :func:`lint_paths` is the thin wrapper
    returning only the finding list."""
    started = time.perf_counter()
    run = LintRun()

    if gradcheck_path is None:
        gradcheck_path = find_gradcheck_file(paths)
    covered = None
    if gradcheck_path is not None and gradcheck_path.is_file():
        text = gradcheck_path.read_text(encoding="utf-8")
        covered = frozenset(opcheck.gradcheck_names(text))

    all_findings: List[Finding] = []
    # dict.fromkeys: overlapping path arguments lint each file once.
    for file_path in dict.fromkeys(iter_python_files(paths)):
        display = _display(file_path)
        try:
            source = file_path.read_text(encoding="utf-8")
        except OSError as exc:
            all_findings.append(
                Finding(display, 1, "REPRO-SYNTAX", f"unreadable file: {exc}")
            )
            continue
        run.files_checked += 1
        try:
            module = ModuleInfo.parse(file_path, source=source, display=display)
        except SyntaxError as exc:
            all_findings.append(
                Finding(
                    display, exc.lineno or 1, "REPRO-SYNTAX", f"syntax error: {exc.msg}"
                )
            )
            continue
        module.gradcheck_names = covered
        all_findings.extend(_check_module(module))

    run.findings = sorted(all_findings)
    run.elapsed = time.perf_counter() - started
    return run


def lint_paths(
    paths: Sequence[Path], gradcheck_path: Optional[Path] = None
) -> List[Finding]:
    """Run every registered rule over ``paths`` and return live findings.

    Inline-suppressed findings are dropped — except for ``REPRO-SUP``
    itself, which cannot be silenced (otherwise the justification
    requirement could suppress its own enforcement).
    """
    return run_lint(paths, gradcheck_path).findings


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="Repo-specific static analysis for the numpy autograd substrate.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--gradcheck-file", default=None,
        help="override the gradcheck test module used for REPRO-GRADCHECK "
        "coverage (default: auto-discovered tests/test_nn_gradcheck.py)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule registry (id, severity, family, kind) and exit",
    )
    parser.add_argument(
        "--explain", metavar="RULE-ID", default=None,
        help="print one rule's full description and example, then exit",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write findings as a JSON array to PATH",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="suppress the summary line"
    )
    return parser


def _print_rules() -> None:
    header = f"{'RULE':18s} {'SEV':7s} {'FAMILY':13s} {'KIND':9s} DESCRIPTION"
    print(header)
    print("-" * len(header))
    for rule in REGISTRY:
        kind = "semantic" if rule_is_semantic(rule) else "syntactic"
        print(
            f"{rule.rule_id:18s} {rule_severity(rule):7s} "
            f"{rule_family(rule):13s} {kind:9s} {rule.description}"
        )


def _print_explain(rule_id: str) -> int:
    rule = find_rule(rule_id)
    if rule is None:
        known = ", ".join(r.rule_id for r in REGISTRY)
        print(f"repro.lint: unknown rule '{rule_id}' (known: {known})", file=sys.stderr)
        return 2
    kind = "semantic (dataflow)" if rule_is_semantic(rule) else "syntactic"
    print(f"{rule.rule_id}  [{rule_severity(rule)}, {rule_family(rule)}, {kind}]")
    print()
    print(rule.description)
    example = rule_example(rule)
    if example:
        print()
        print("Example:")
        for line in example.splitlines():
            print(f"    {line}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        _print_rules()
        return 0
    if args.explain:
        return _print_explain(args.explain)
    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"repro.lint: no such path: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    gradcheck = Path(args.gradcheck_file) if args.gradcheck_file else None
    run = run_lint(paths, gradcheck_path=gradcheck)

    for finding in run.findings:
        print(finding.format())

    if args.json:
        Path(args.json).write_text(
            json.dumps([f.to_dict() for f in run.findings], indent=2) + "\n",
            encoding="utf-8",
        )

    if not args.quiet:
        status = "ok" if not run.findings else f"{len(run.findings)} finding(s)"
        print(
            f"repro.lint: {run.files_checked} file(s) checked, {status} "
            f"({run.elapsed:.2f}s)"
        )
    return 1 if run.findings else 0
