"""Experiment reports: fixed-column CSV plus a deterministic text summary.

CSV layout: one comment line carrying the format version and the experiment
kind, then a header row, then one row per cell.  Floats are written with
repr, so a rerun with the same seed is byte-identical.  Files are written
atomically (temp file then rename).
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field

CSV_VERSION = "gexpect-csv v1"
LAW_TOLERANCE = 1e-10  # largest violation a law suite passes with by default


@dataclass
class LawReport:
    """Worst violation per law of an operator or G-function property suite."""

    violations: dict

    @property
    def passed(self) -> bool:
        return all(v <= LAW_TOLERANCE for v in self.violations.values())


@dataclass
class ConditionVerdict:
    name: str
    passed: bool
    statistic: float
    detail: str = ""
    hard: bool = True  # soft verdicts describe trends and never fail a run

    def line(self) -> str:
        if self.hard:
            flag = "PASS" if self.passed else "FAIL"
        else:
            flag = "TREND" if self.passed else "TREND?"
        out = f"{flag} {self.name}: statistic={_fmt(self.statistic)}"
        return out + (f" ({self.detail})" if self.detail else "")


@dataclass
class ExperimentReport:
    kind: str
    columns: tuple
    rows: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    def add_row(self, **cells):
        self.rows.append({c: cells.get(c, "") for c in self.columns})

    def add_verdict(self, name: str, passed: bool, statistic: float, detail: str = "",
                    hard: bool = True):
        self.verdicts.append(ConditionVerdict(name, bool(passed), float(statistic),
                                              detail, hard))

    @property
    def hard_pass(self) -> bool:
        return all(v.passed for v in self.verdicts if v.hard)

    def to_csv(self, path: str):
        write_rows_csv(path, self.kind, self.columns, self.rows)

    def summary_text(self) -> str:
        lines = [f"suite: {self.kind}"]
        for key in sorted(self.provenance):
            lines.append(f"{key}: {_fmt(self.provenance[key])}")
        lines.append(f"rows: {len(self.rows)}")
        for v in self.verdicts:
            lines.append(v.line())
        lines.append(f"result: {'PASS' if self.hard_pass else 'FAIL'}")
        return "\n".join(lines) + "\n"

    def write_summary(self, path: str):
        _atomic_write(path, self.summary_text())

    def verdict_line(self) -> str:
        status = "PASS" if self.hard_pass else "FAIL"
        worst = ""
        hard = [v for v in self.verdicts if v.hard]
        if hard:
            bad = [v for v in hard if not v.passed]
            pick = bad[0] if bad else max(hard, key=lambda v: abs(v.statistic))
            worst = f" worst={pick.name}:{_fmt(pick.statistic)}"
        return f"[{self.kind}] {status} rows={len(self.rows)}{worst}"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_rows_csv(path: str, kind: str, columns, rows):
    """The CSV layout above, for reports and auxiliary dumps (PDE field snapshots)."""
    lines = [f"# {CSV_VERSION} kind={kind}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    _atomic_write(path, "\n".join(lines) + "\n")
