"""Check records and reports shared by the checking suites and the CLI."""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .timegrid import Partition, format_timepoint


def _fmt_param(value):
    if isinstance(value, Partition):
        return [format_timepoint(p) for p in value.points]
    if isinstance(value, Fraction):
        return format_timepoint(value)
    if isinstance(value, (tuple, list)):
        return [_fmt_param(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


@dataclass
class CheckRecord:
    """One verified identity: what was checked, on which data, how far off."""

    check: str
    law: str
    params: dict
    passed: bool
    residual: Optional[float] = None
    exact_discrepancy: Optional[str] = None
    detail: Optional[str] = None

    def to_json(self) -> dict:
        out = {
            "check": self.check,
            "law": self.law,
            "params": {k: _fmt_param(v) for k, v in self.params.items()},
            "pass": bool(self.passed),
        }
        if self.residual is not None:
            out["residual"] = float(self.residual)
        if self.exact_discrepancy is not None:
            out["exact_discrepancy"] = self.exact_discrepancy
        if self.detail is not None:
            out["detail"] = self.detail
        return out


@dataclass
class Report:
    """An ordered collection of check records with pass/fail roll-up."""

    records: list[CheckRecord] = field(default_factory=list)

    def add(self, record: CheckRecord) -> CheckRecord:
        self.records.append(record)
        return record

    def residual_record(self, check: str, law: str, params: dict, residual: float,
                        eps: float, expect_fail: bool = False,
                        fail_floor: Optional[float] = None) -> CheckRecord:
        """Record a residual check; negative controls pass when the residual is large."""
        if expect_fail:
            passed = residual >= (fail_floor if fail_floor is not None else eps)
        else:
            passed = residual <= eps
        return self.add(CheckRecord(check=check, law=law, params=params,
                                    passed=passed, residual=float(residual)))

    def extend(self, other: "Report"):
        self.records.extend(other.records)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def max_residual(self) -> float:
        vals = [r.residual for r in self.records if r.residual is not None]
        return float(np.max(vals)) if vals else 0.0

    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if not r.passed]

    def to_json(self) -> dict:
        failed = sum(1 for r in self.records if not r.passed)
        return {
            "records": [r.to_json() for r in self.records],
            "summary": {
                "total": len(self.records),
                "passed": len(self.records) - failed,
                "failed": failed,
                "overall_pass": bool(self.passed),
            },
        }
