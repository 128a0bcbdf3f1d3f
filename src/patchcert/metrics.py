"""Outcome counting and evaluation metrics.

Each metric is one row of `_METRICS`: the records it counts and the
records it counts among. It is kept as that exact numerator/denominator
pair, and all identity checks run in exact rational arithmetic; floats
appear only when a report is rendered. A metric whose denominator is
empty is undefined and says why, rather than pretending to be zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .defenders import Prediction, Verdict, assign_case
from .errors import InvalidInputError, InvariantViolationError

__all__ = [
    "EvalRecord",
    "MetricValue",
    "MetricsReport",
    "compute_metrics",
    "case_histogram",
    "METRIC_NAMES",
]


# In report order, name: (what it counts, among which records or None for
# all, why it is undefined when none is among, whether it reads the
# warning). A sample is consistent when DOMA certifies it.
_METRICS = {
    "acc_clean": (lambda r: r.correct, None, None, False),
    "acc_cert": (lambda r: r.correct and r.verdict.certified, None, None, False),
    "r_cert": (lambda r: r.verdict.certified, None, None, False),
    "r_cert_inc": (lambda r: r.verdict.certified, lambda r: not r.consistent,
                   "no sample has a disagreeing mutant", False),
    "acc_silent": (lambda r: r.correct, lambda r: not r.verdict.warned,
                   "every sample was warned", True),
    "r_fa": (lambda r: r.verdict.warned, lambda r: r.correct,
             "no sample was predicted correctly", True),
    "r_fs": (lambda r: not r.verdict.warned, lambda r: not r.correct,
             "every sample was predicted correctly", True),
}

METRIC_NAMES = tuple(_METRICS)


@dataclass(frozen=True)
class EvalRecord:
    """One sample's evaluation outcome under a fixed defender."""

    sample_id: str
    true_label: int
    base: Prediction
    verdict: Verdict
    consistent: bool

    @property
    def correct(self) -> bool:
        return self.base.label == self.true_label


@dataclass(frozen=True)
class MetricValue:
    """A ratio with its exact parts, or an explicit reason it is undefined."""

    numerator: int
    denominator: int
    undefined_reason: str | None = None

    def __post_init__(self):
        if self.denominator == 0 and self.undefined_reason is None:
            raise InvalidInputError("an empty denominator needs a reason")

    @property
    def defined(self) -> bool:
        return self.denominator != 0

    @property
    def value(self) -> Fraction | None:
        if not self.defined:
            return None
        return Fraction(self.numerator, self.denominator)

    @property
    def percent(self) -> str | None:
        """One-decimal percentage for display; exactness lives in the parts."""
        if not self.defined:
            return None
        return f"{float(self.value) * 100:.1f}"

    def to_dict(self) -> dict:
        return {
            "numerator": self.numerator,
            "denominator": self.denominator,
            "percent": self.percent,
            "undefined_reason": self.undefined_reason,
        }


@dataclass(frozen=True)
class MetricsReport:
    """The seven evaluation metrics by name, in `METRIC_NAMES` order, plus
    the eight-way case histogram.

    `case_counts` is None when the defender had no warning rule, since
    the cases need all three coordinates.
    """

    total: int
    metrics: dict[str, MetricValue]
    case_counts: dict[int, int] | None

    def metric(self, name: str) -> MetricValue:
        if name not in METRIC_NAMES:
            raise InvalidInputError(f"unknown metric {name!r}")
        return self.metrics[name]

    def to_dict(self) -> dict:
        out = {
            "total": self.total,
            "metrics": {n: v.to_dict() for n, v in self.metrics.items()},
        }
        if self.case_counts is None:
            out["cases"] = None
        else:
            out["cases"] = {str(k): self.case_counts[k] for k in range(1, 9)}
        return out


def case_histogram(records: Sequence[EvalRecord]) -> dict[int, int]:
    """Counts for every outcome case 1..8, zeros included."""
    counts = {k: 0 for k in range(1, 9)}
    for r in records:
        counts[assign_case(r.correct, r.verdict)] += 1
    return counts


def _check_identities(report: MetricsReport) -> None:
    """Cross-check the metrics against each other and against the case
    histogram, exactly."""
    value = {n: v.value for n, v in report.metrics.items()}
    if value["acc_cert"] > min(value["acc_clean"], value["r_cert"]):
        raise InvariantViolationError(
            "acc_cert cannot exceed acc_clean or r_cert"
        )
    cases = report.case_counts
    if cases is None:
        return
    n = report.total
    if sum(cases.values()) != n:
        raise InvariantViolationError("case counts must sum to the record count")

    p = {k: Fraction(cases[k], n) for k in cases}
    checks = [
        ("acc_cert = case1 + case2", value["acc_cert"], p[1] + p[2]),
        (
            "r_cert = case1 + case2 + case5 + case6",
            value["r_cert"],
            p[1] + p[2] + p[5] + p[6],
        ),
        (
            "acc_clean = case1 + case2 + case3 + case4",
            value["acc_clean"],
            p[1] + p[2] + p[3] + p[4],
        ),
    ]
    if value["r_fa"] is not None:
        checks.append(
            ("r_fa = (case1 + case3) / acc_clean", value["r_fa"],
             (p[1] + p[3]) / value["acc_clean"])
        )
    if value["r_fs"] is not None:
        checks.append(
            ("r_fs = (case6 + case8) / (1 - acc_clean)", value["r_fs"],
             (p[6] + p[8]) / (1 - value["acc_clean"]))
        )
    for label, got, want in checks:
        if got != want:
            raise InvariantViolationError(f"metric identity failed: {label}")


def compute_metrics(records: Sequence[EvalRecord]) -> MetricsReport:
    """Every `_METRICS` row applied to the records, plus the case histogram.

    Without a warning rule, the rows that read the warning are undefined
    and the histogram, which needs all three coordinates, is None."""
    records = list(records)
    if not records:
        raise InvalidInputError("cannot compute metrics over zero records")
    has_warn = all(r.verdict.warned is not None for r in records)
    if not has_warn and any(r.verdict.warned is not None for r in records):
        raise InvalidInputError("records mix warned and warning-free defenders")
    values = {}
    for name, (counts, among, why, reads_warning) in _METRICS.items():
        if reads_warning and not has_warn:
            values[name] = MetricValue(0, 0, "defender defines no warning rule")
            continue
        pool = records if among is None else list(filter(among, records))
        values[name] = MetricValue(sum(map(counts, pool)), len(pool), None if pool else why)
    report = MetricsReport(
        len(records), values, case_histogram(records) if has_warn else None
    )
    _check_identities(report)
    return report
