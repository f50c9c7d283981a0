"""Result containers and text rendering for the benchmark harness.

Every experiment returns an :class:`ExperimentResult`: the regenerated
rows/series, the paper's reference values where they exist, and a list
of :class:`ShapeCheck` verdicts -- the qualitative claims the
reproduction is accountable for.  ``render()`` produces the plain-text
tables the benchmark scripts print and EXPERIMENTS.md records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

__all__ = ["ShapeCheck", "ExperimentResult", "format_table",
           "format_series"]


@dataclass
class ShapeCheck:
    """One qualitative pass/fail claim from the paper."""

    name: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        tail = f" ({self.detail})" if self.detail else ""
        return f"[{mark}] {self.name}{tail}"


@dataclass
class ExperimentResult:
    """Output of one table/figure regeneration."""

    experiment: str
    title: str
    headers: Sequence[str]
    rows: list[Sequence[Any]]
    checks: list[ShapeCheck] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(ShapeCheck(name, bool(passed), detail))

    def render(self) -> str:
        out = [f"== {self.experiment}: {self.title} ==",
               format_table(self.headers, self.rows)]
        for note in self.notes:
            out.append(f"note: {note}")
        for check in self.checks:
            out.append(str(check))
        return "\n".join(out)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.2f}"
    return str(value)


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[Any]]) -> str:
    """Render an aligned plain-text table."""
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)),
             "  ".join("-" * w for w in widths)]
    for row in cells:
        lines.append("  ".join(c.rjust(w)
                               for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(name: str, xs: Sequence[Any],
                  ys: Sequence[float]) -> str:
    """One-line summary of a sweep series (for logs)."""
    pairs = ", ".join(f"{x}:{_fmt(y)}" for x, y in zip(xs, ys))
    return f"{name}: {pairs}"
