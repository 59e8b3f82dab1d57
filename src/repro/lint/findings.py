"""Finding records and per-line suppression parsing for :mod:`repro.lint`.

A finding is rendered as ``file:line: RULE-ID message``.  A finding may
be silenced with an inline comment on the offending line:

    something_forbidden()  # repro-lint: disable=REPRO-F64 -- why this is safe

The ``-- reason`` part is mandatory: a suppression without a written
justification is itself reported (rule ``REPRO-SUP``), so the gate
cannot be quietly eroded.  So is a suppression that silences no finding
on its line (see :func:`repro.lint.engine._check_module`).
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Tuple


def _comment_lines(source: str) -> Iterable[Tuple[int, str]]:
    """(lineno, comment text) for every *actual* comment token.

    Tokenizing (rather than regex-scanning raw lines) keeps suppression
    syntax quoted inside string literals or docstrings — e.g. the lint
    package documenting itself — from being parsed as live suppressions.
    Falls back to a whole-line scan if the source does not tokenize.
    """
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        return [
            (token.start[0], token.string)
            for token in tokens
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return list(enumerate(source.splitlines(), start=1))

SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)"
    r"(?:\s+--\s+(?P<reason>\S.*))?"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    rule_id: str
    message: str
    #: "error", "warning" or "info"; every live finding gates, the
    #: severity only tags the printed line and the JSON record.
    severity: str = "error"

    def format(self) -> str:
        tag = "" if self.severity == "error" else f" [{self.severity}]"
        return f"{self.path}:{self.line}: {self.rule_id}{tag} {self.message}"

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "rule_id": self.rule_id,
            "message": self.message,
            "severity": self.severity,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Finding":
        return cls(
            path=data["path"],
            line=int(data["line"]),
            rule_id=data["rule_id"],
            message=data["message"],
            severity=data.get("severity", "error"),
        )


@dataclass(frozen=True)
class Suppression:
    """An inline ``# repro-lint: disable=...`` comment."""

    line: int
    rule_ids: FrozenSet[str]
    has_reason: bool

    def covers(self, finding: Finding) -> bool:
        return finding.line == self.line and (
            finding.rule_id in self.rule_ids or "all" in self.rule_ids
        )


@dataclass
class SuppressionIndex:
    """All suppressions of one file, keyed by line number."""

    by_line: Dict[int, Suppression] = field(default_factory=dict)

    @classmethod
    def from_source(cls, source: str) -> "SuppressionIndex":
        index = cls()
        for lineno, text in _comment_lines(source):
            match = SUPPRESS_RE.search(text)
            if match is None:
                continue
            ids = frozenset(part.strip() for part in match.group(1).split(","))
            index.by_line[lineno] = Suppression(
                line=lineno,
                rule_ids=ids,
                has_reason=match.group("reason") is not None,
            )
        return index

    def is_suppressed(self, finding: Finding) -> bool:
        suppression = self.by_line.get(finding.line)
        return suppression is not None and suppression.covers(finding)

    def all(self) -> List[Suppression]:
        return [self.by_line[line] for line in sorted(self.by_line)]
