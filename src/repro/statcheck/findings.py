"""The unit of analyzer output: one :class:`Finding` at one location."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict


class Severity(enum.Enum):
    """How bad a finding is; both levels fail the build (CI gates on any
    finding), the distinction exists for reporting and SARIF mapping."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str

    @property
    def sort_key(self) -> "tuple[str, int, int, str]":
        return (self.path, self.line, self.col, self.rule)

    def format_text(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.severity.value}] {self.message}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
