"""Checked-in finding baseline: grandfather deliberate violations.

Some findings are *deliberate*: the ``default_rng()`` convenience
fallback in public constructors, the process-local toggles that predate
the sanctioned state modules, the metadata timestamp in the results
store.  Deleting them would regress behaviour, suppressing them inline
would scatter justification comments through the code.  Instead they
live in one reviewed file at the repo root
(``.repro-lint-baseline.json``), each entry carrying a written
justification — the gate stays green while every *new* violation still
fails.

Fingerprints are content-addressed, not line-addressed: an entry hashes
``relative-path :: rule-id :: stripped source line text``, so the
baseline survives unrelated edits that shift line numbers, and goes
stale exactly when the offending line itself changes or disappears.
Two identical offending lines in one file share a fingerprint; the
``count`` field bounds how many findings one entry may absorb.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from .findings import Finding

__all__ = ["Baseline", "BaselineEntry", "fingerprint", "BASELINE_FILENAME"]

BASELINE_FILENAME = ".repro-lint-baseline.json"


def fingerprint(rel_path: str, rule_id: str, code_line: str) -> str:
    payload = f"{rel_path}::{rule_id}::{code_line.strip()}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass
class BaselineEntry:
    fingerprint: str
    path: str  # repo-root-relative, informational + part of the hash
    rule: str
    code: str  # the stripped offending line (what is actually hashed)
    justification: str
    count: int = 1
    line: int = 0  # informational only; drifts freely

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "path": self.path,
            "rule": self.rule,
            "line": self.line,
            "code": self.code,
            "count": self.count,
            "justification": self.justification,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BaselineEntry":
        return cls(
            fingerprint=data["fingerprint"],
            path=data["path"],
            rule=data["rule"],
            code=data["code"],
            justification=data.get("justification", ""),
            count=int(data.get("count", 1)),
            line=int(data.get("line", 0)),
        )


@dataclass
class FilterResult:
    kept: List[Finding]
    suppressed: int
    #: fingerprints present in the baseline, for a file that was linted,
    #: that matched nothing — the grandfathered violation was fixed; the
    #: entry should be deleted.
    stale: List[str] = field(default_factory=list)


class Baseline:
    """The set of grandfathered findings."""

    def __init__(self, entries: Optional[Dict[str, BaselineEntry]] = None) -> None:
        self.entries: Dict[str, BaselineEntry] = entries or {}

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        data = json.loads(path.read_text(encoding="utf-8"))
        entries = {
            entry["fingerprint"]: BaselineEntry.from_dict(entry)
            for entry in data.get("entries", [])
        }
        return cls(entries)

    def save(self, path: Path) -> None:
        doc = {
            "comment": (
                "Grandfathered repro.lint findings. Every entry needs a "
                "justification; fix the code or update this file via "
                "`python -m repro.lint --write-baseline`."
            ),
            "entries": [
                self.entries[fp].to_dict() for fp in sorted(self.entries)
            ],
        }
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")

    # -- matching -------------------------------------------------------

    @staticmethod
    def _finding_fingerprint(
        finding: Finding,
        root: Path,
        sources: Dict[str, str],
        paths: Optional[Dict[str, Path]] = None,
    ) -> Tuple[str, str, str]:
        """(fingerprint, rel_path, code_line) for one finding."""
        source = sources.get(finding.path)
        code_line = ""
        if source is not None:
            lines = source.splitlines()
            if 1 <= finding.line <= len(lines):
                code_line = lines[finding.line - 1]
        real = (paths or {}).get(finding.path, Path(finding.path))
        rel = _rel_to_root(real, root)
        return fingerprint(rel, finding.rule_id, code_line), rel, code_line.strip()

    def filter(
        self,
        findings: List[Finding],
        root: Path,
        sources: Dict[str, str],
        paths: Optional[Dict[str, Path]] = None,
    ) -> FilterResult:
        budget = {fp: entry.count for fp, entry in self.entries.items()}
        kept: List[Finding] = []
        suppressed = 0
        for finding in findings:
            fp, _, _ = self._finding_fingerprint(finding, root, sources, paths)
            if budget.get(fp, 0) > 0:
                budget[fp] -= 1
                suppressed += 1
            else:
                kept.append(finding)
        linted = linted_paths(root, sources, paths)
        stale = [
            fp for fp, left in budget.items()
            if left == self.entries[fp].count and self.entries[fp].path in linted
        ]
        return FilterResult(kept=kept, suppressed=suppressed, stale=sorted(stale))

    @classmethod
    def from_findings(
        cls,
        findings: List[Finding],
        root: Path,
        sources: Dict[str, str],
        justifications: Optional[Dict[str, str]] = None,
        paths: Optional[Dict[str, Path]] = None,
    ) -> "Baseline":
        """Build a baseline absorbing ``findings``.  ``justifications``
        maps fingerprint (or rule id, as a fallback) to the reason."""
        justifications = justifications or {}
        baseline = cls()
        for finding in findings:
            fp, rel, code = cls._finding_fingerprint(finding, root, sources, paths)
            entry = baseline.entries.get(fp)
            if entry is not None:
                entry.count += 1
                continue
            reason = justifications.get(fp) or justifications.get(finding.rule_id, "")
            baseline.entries[fp] = BaselineEntry(
                fingerprint=fp,
                path=rel,
                rule=finding.rule_id,
                code=code,
                justification=reason or "TODO: justify or fix",
                line=finding.line,
            )
        return baseline


def linted_paths(
    root: Path, sources: Dict[str, str], paths: Optional[Dict[str, Path]] = None
) -> Set[str]:
    """Repo-root-relative paths of the files a run linted (the keys of
    ``sources``), in the form baseline entries record."""
    paths = paths or {}
    return {_rel_to_root(paths.get(d, Path(d)), root) for d in sources}


def _rel_to_root(path: Path, root: Path) -> str:
    """Normalise a finding's real path to a repo-root-relative posix
    path, so fingerprints agree regardless of the lint invocation cwd."""
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return Path(path).as_posix()
