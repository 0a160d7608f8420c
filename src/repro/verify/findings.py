"""Lint findings: the machine-readable diagnostic record + waivers.

Every lint rule emits :class:`Finding` objects (rule id, severity,
file:line:col, message).  Findings can be *waived* two ways, mirroring
how real lint flows silence known-acceptable violations:

* an in-source comment on the offending line (or the line above)
  containing ``repro-lint: waive`` — optionally scoped to rules with
  ``repro-lint: waive=WIDTH,UNUSED``.  The marker text is what matters,
  so it works behind ``//`` (Verilog), ``--`` (VHDL) or ``#`` comment
  leaders alike;
* a waiver file of ``RULE:FILE_GLOB:LINE`` entries (``*`` wildcards
  allowed for any field; ``#`` starts a comment).

Waived findings stay in the report (marked) but do not make it
*blocking* — the lint exit code only reflects unwaived findings.
"""

from __future__ import annotations

import fnmatch
import json
import re
from dataclasses import dataclass, field

SEV_ERROR = "error"
SEV_WARNING = "warning"

_WAIVE_RE = re.compile(r"repro-lint:\s*waive(?:=([A-Za-z0-9_,\-]+))?")


@dataclass
class Finding:
    """One lint diagnostic, machine-readable and renderable."""

    rule: str
    severity: str           # SEV_ERROR | SEV_WARNING
    message: str
    file: str
    line: int
    col: int = 0
    waived: bool = False
    waived_by: str = ""     # "comment" | "waiver-file" | ""

    def location(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"

    def format(self) -> str:
        tag = f" [waived: {self.waived_by}]" if self.waived else ""
        return (f"{self.location()}: {self.severity}: "
                f"{self.rule}: {self.message}{tag}")

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "file": self.file,
            "line": self.line,
            "col": self.col,
            "waived": self.waived,
            "waived_by": self.waived_by,
        }


@dataclass(frozen=True)
class WaiverEntry:
    """One waiver-file line: rule / file-glob / line (``*`` = any)."""

    rule: str
    file_glob: str = "*"
    line: str = "*"

    def matches(self, finding: Finding) -> bool:
        if self.rule != "*" and self.rule != finding.rule:
            return False
        if not fnmatch.fnmatch(finding.file, self.file_glob):
            return False
        return self.line in ("*", str(finding.line))


def parse_waiver_file(text: str, filename: str = "<waivers>") -> list[WaiverEntry]:
    entries: list[WaiverEntry] = []
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(":")
        if len(parts) > 3 or not parts[0]:
            raise ValueError(
                f"{filename}:{n}: bad waiver {raw.strip()!r}; "
                "expected RULE[:FILE_GLOB[:LINE]]"
            )
        parts += ["*"] * (3 - len(parts))
        entries.append(WaiverEntry(parts[0], parts[1] or "*", parts[2] or "*"))
    return entries


def apply_waivers(
    findings: list[Finding],
    sources: dict[str, str],
    entries: list[WaiverEntry] = (),
) -> None:
    """Mark findings waived by in-source comments or waiver entries.

    *sources* maps filename -> source text, used to scan for the
    ``repro-lint: waive`` comment on the finding's line or the one above.
    """
    source_lines: dict[str, list[str]] = {
        name: text.splitlines() for name, text in sources.items()
    }
    for finding in findings:
        lines = source_lines.get(finding.file, [])
        for ln in (finding.line, finding.line - 1):
            if not (1 <= ln <= len(lines)):
                continue
            m = _WAIVE_RE.search(lines[ln - 1])
            if m is None:
                continue
            rules = m.group(1)
            if rules is None or finding.rule in rules.split(","):
                finding.waived = True
                finding.waived_by = "comment"
                break
        if finding.waived:
            continue
        for entry in entries:
            if entry.matches(finding):
                finding.waived = True
                finding.waived_by = "waiver-file"
                break


@dataclass
class LintReport:
    """All findings for one lint run (possibly several files)."""

    findings: list[Finding] = field(default_factory=list)

    @property
    def blocking(self) -> list[Finding]:
        return [f for f in self.findings if not f.waived]

    @property
    def clean(self) -> bool:
        return not self.blocking

    def format_text(self) -> str:
        if not self.findings:
            return "lint: clean (no findings)"
        lines = [f.format() for f in self.findings]
        waived = sum(1 for f in self.findings if f.waived)
        lines.append(
            f"lint: {len(self.findings)} finding(s), {waived} waived, "
            f"{len(self.blocking)} blocking"
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "findings": [f.to_dict() for f in self.findings],
                "blocking": len(self.blocking),
            },
            indent=2,
            sort_keys=True,
        )
