"""Per-rule suppression comments.

Syntax (mirroring NOLINT / NOLINTNEXTLINE, but scoped to named rules so
a suppression never silences more than it claims):

  ``// granulock-lint: allow(rule-id[, rule-id...])``
      suppresses those rules on the comment's own line and the next line
      (so the comment can sit at the end of the offending line or on its
      own line directly above);

  ``// granulock-lint: allow-file(rule-id[, ...])``
      suppresses those rules for the whole file; put it near the top with
      a sentence saying why.

Unknown rule ids in a suppression are themselves reported — a suppression
that does nothing is a lie waiting to be copied.
"""

from __future__ import annotations

import re
from typing import Iterable, List, Set, Tuple

from .lexer import Comment
from .rules import Finding

_ALLOW_RE = re.compile(
    r"granulock-lint:\s*(allow|allow-file)\(([^)]*)\)")


class SuppressionSet:
    def __init__(self):
        # (rule, line) pairs allowed by line suppressions.
        self.line_allows: Set[Tuple[str, int]] = set()
        self.file_allows: Set[str] = set()
        # Parsed directives for unknown-rule validation:
        # (rule, comment_line, kind)
        self.directives: List[Tuple[str, int, str]] = []

    def suppresses(self, finding: Finding) -> bool:
        if finding.rule in self.file_allows:
            return True
        return (finding.rule, finding.line) in self.line_allows


def parse_suppressions(comments: Iterable[Comment]) -> SuppressionSet:
    out = SuppressionSet()
    for comment in comments:
        for m in _ALLOW_RE.finditer(comment.text):
            kind = m.group(1)
            rules = [r.strip() for r in m.group(2).split(",") if r.strip()]
            for rule in rules:
                out.directives.append((rule, comment.line, kind))
                if kind == "allow-file":
                    out.file_allows.add(rule)
                else:
                    out.line_allows.add((rule, comment.line))
                    out.line_allows.add((rule, comment.end_line))
                    out.line_allows.add((rule, comment.end_line + 1))
    return out


def unknown_rule_findings(path: str, sup: SuppressionSet,
                          known_rules: Set[str]) -> List[Finding]:
    out = []
    for rule, line, kind in sup.directives:
        if rule not in known_rules:
            out.append(Finding(
                rule="granulock-lint-usage", path=path, line=line, col=1,
                message=f"suppression {kind}({rule}) names an unknown "
                        f"rule; run with --list-rules for the catalogue"))
    return out
