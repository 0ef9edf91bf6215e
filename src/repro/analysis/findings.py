"""Finding model shared by every analysis pass.

A finding pins one rule violation to a file, line, and (when known) the
dotted chain of enclosing functions, so error output can say *which*
contract function leaked, not just which file.  Findings render to both
the human text report and the machine JSON document; suppression via
``# repro: allow(<rule>)`` comments marks a finding rather than dropping
it, so callers (the audit cross-check, ``--include-suppressed``) can
still see what the analyzer knew.
"""

from __future__ import annotations

import ast
import enum
import json
import re
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.analysis.scopes import ModuleIndex


class Severity(enum.Enum):
    """How a finding affects the exit code.

    - ``ERROR``   — fails the lint unconditionally.
    - ``WARNING`` — fails only under ``--strict``.
    - ``INFO``    — never fails; a design note (e.g. an inherent platform
      caveat the paper documents) the author should be aware of.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 2, "warning": 1, "info": 0}[self.value]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    code: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str
    hint: str = ""
    context: str = ""  # dotted enclosing-function chain, "" at module level
    suppressed: bool = False

    def render(self) -> str:
        where = f" [in {self.context}]" if self.context else ""
        head = (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity.value} {self.code} {self.rule_id}: "
            f"{self.message}{where}"
        )
        if self.suppressed:
            head += " (suppressed)"
        if self.hint:
            head += f"\n    hint: {self.hint}"
        return head

    def to_dict(self) -> dict:
        data = asdict(self)
        data["severity"] = self.severity.value
        return data


def report(
    index: ModuleIndex,
    findings: list[Finding],
    rule_id: str,
    node: ast.AST,
    detail: str,
) -> None:
    """Append a finding of rule *rule_id* at *node* to *findings*."""
    # Imported here: the rule catalogue imports Severity from this module.
    from repro.analysis.rules import RULES

    rule = RULES[rule_id]
    findings.append(
        Finding(
            rule_id=rule.rule_id,
            code=rule.code,
            severity=rule.severity,
            path=index.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=f"{rule.summary}: {detail}",
            hint=rule.hint,
            context=index.context_of(node),
        )
    )


_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\(([^)]*)\)")


@dataclass
class SuppressionIndex:
    """Line-addressed ``# repro: allow(<rule>[, <rule>...])`` comments.

    A suppression applies to findings reported on its own line, and — when
    the comment is the entire line — to the next line as well, so
    multi-line calls can carry the comment directly above them.  Rules may
    be named by id (``flow-to-state``) or code (``F101``); ``*`` allows
    everything on that line.
    """

    by_line: dict[int, set[str]] = field(default_factory=dict)

    @classmethod
    def from_source(cls, source: str) -> "SuppressionIndex":
        index = cls()
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _ALLOW_RE.search(text)
            if not match:
                continue
            rules = {
                token.strip()
                for token in match.group(1).split(",")
                if token.strip()
            }
            index.by_line.setdefault(lineno, set()).update(rules)
            if text.lstrip().startswith("#"):
                # Standalone comment line: covers the statement below it.
                index.by_line.setdefault(lineno + 1, set()).update(rules)
        return index

    def allows(self, line: int, rule_id: str, code: str) -> bool:
        rules = self.by_line.get(line, set())
        return bool(rules & {rule_id, code, "*"})


@dataclass
class LintReport:
    """Everything one analyzer run produced."""

    findings: list[Finding] = field(default_factory=list)
    files_analyzed: int = 0
    parse_errors: list[str] = field(default_factory=list)

    def active(self) -> list[Finding]:
        return [f for f in self.findings if not f.suppressed]

    def suppressed(self) -> list[Finding]:
        return [f for f in self.findings if f.suppressed]

    def count(self, severity: Severity) -> int:
        return sum(1 for f in self.active() if f.severity is severity)

    def exit_code(self, strict: bool = False) -> int:
        threshold = Severity.WARNING.rank if strict else Severity.ERROR.rank
        fails = any(f.severity.rank >= threshold for f in self.active())
        return 1 if fails or self.parse_errors else 0

    def render_text(self, include_suppressed: bool = False) -> str:
        shown = self.findings if include_suppressed else self.active()
        shown = sorted(shown, key=lambda f: (f.path, f.line, f.col, f.code))
        lines = [f.render() for f in shown]
        for error in self.parse_errors:
            lines.append(f"parse error: {error}")
        lines.append(
            f"summary: {len(self.active())} finding(s) "
            f"({self.count(Severity.ERROR)} error, "
            f"{self.count(Severity.WARNING)} warning, "
            f"{self.count(Severity.INFO)} info) "
            f"in {self.files_analyzed} file(s); "
            f"{len(self.suppressed())} suppressed"
        )
        return "\n".join(lines)

    def to_json(self, include_suppressed: bool = True) -> str:
        shown = self.findings if include_suppressed else self.active()
        return json.dumps(
            {
                "files_analyzed": self.files_analyzed,
                "parse_errors": list(self.parse_errors),
                "findings": [
                    f.to_dict()
                    for f in sorted(
                        shown, key=lambda f: (f.path, f.line, f.col, f.code)
                    )
                ],
            },
            indent=2,
        )
