"""Outcome counting and evaluation metrics.

Every metric is kept as an explicit numerator/denominator pair and all
identity checks run in exact rational arithmetic; floats appear only
when a report is rendered. A metric whose denominator is empty is
undefined and says why, rather than pretending to be zero.
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

METRIC_NAMES = (
    "acc_clean",
    "acc_cert",
    "r_cert",
    "r_cert_inc",
    "acc_silent",
    "r_fa",
    "r_fs",
)


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
    """All seven evaluation metrics plus the eight-way case histogram.

    `case_counts` is None when the defender had no warning rule, since
    the cases need all three coordinates.
    """

    total: int
    acc_clean: MetricValue
    acc_cert: MetricValue
    r_cert: MetricValue
    r_cert_inc: MetricValue
    acc_silent: MetricValue
    r_fa: MetricValue
    r_fs: MetricValue
    case_counts: dict[int, int] | None

    def metric(self, name: str) -> MetricValue:
        if name not in METRIC_NAMES:
            raise InvalidInputError(f"unknown metric {name!r}")
        return getattr(self, name)

    def to_dict(self) -> dict:
        out = {
            "total": self.total,
            "metrics": {n: self.metric(n).to_dict() for n in METRIC_NAMES},
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


def _ratio(num: int, den: int, reason_if_empty: str) -> MetricValue:
    if den == 0:
        return MetricValue(0, 0, reason_if_empty)
    return MetricValue(num, den)


def _check_identities(report: MetricsReport) -> None:
    """Cross-check the metrics against each other and against the case
    histogram, exactly."""
    if report.acc_cert.value > min(report.acc_clean.value, report.r_cert.value):
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
        ("acc_cert = case1 + case2", report.acc_cert.value, p[1] + p[2]),
        (
            "r_cert = case1 + case2 + case5 + case6",
            report.r_cert.value,
            p[1] + p[2] + p[5] + p[6],
        ),
        (
            "acc_clean = case1 + case2 + case3 + case4",
            report.acc_clean.value,
            p[1] + p[2] + p[3] + p[4],
        ),
    ]
    acc_clean = report.acc_clean.value
    if report.r_fa.defined:
        checks.append(
            ("r_fa = (case1 + case3) / acc_clean", report.r_fa.value,
             (p[1] + p[3]) / acc_clean)
        )
    if report.r_fs.defined:
        checks.append(
            ("r_fs = (case6 + case8) / (1 - acc_clean)", report.r_fs.value,
             (p[6] + p[8]) / (1 - acc_clean))
        )
    for label, got, want in checks:
        if got != want:
            raise InvariantViolationError(f"metric identity failed: {label}")


def compute_metrics(records: Sequence[EvalRecord]) -> MetricsReport:
    """Aggregate evaluation records into the full metric set.

    acc_clean   correct predictions over all samples
    acc_cert    correct and certified over all samples (warned or not)
    r_cert      certified over all samples
    r_cert_inc  certified among samples with a disagreeing mutant
    acc_silent  correct among samples that drew no warning
    r_fa        warned among correctly predicted samples
    r_fs        silent among incorrectly predicted samples
    """
    records = list(records)
    if not records:
        raise InvalidInputError("cannot compute metrics over zero records")
    n = len(records)
    has_warn = all(r.verdict.warned is not None for r in records)
    if not has_warn and any(r.verdict.warned is not None for r in records):
        raise InvalidInputError(
            "records mix warned and warning-free defenders"
        )

    correct = sum(1 for r in records if r.correct)
    certified = sum(1 for r in records if r.verdict.certified)
    cert_correct = sum(
        1 for r in records if r.verdict.certified and r.correct
    )
    inconsistent = sum(1 for r in records if not r.consistent)
    cert_inconsistent = sum(
        1 for r in records if r.verdict.certified and not r.consistent
    )

    acc_clean = MetricValue(correct, n)
    acc_cert = MetricValue(cert_correct, n)
    r_cert = MetricValue(certified, n)
    r_cert_inc = _ratio(
        cert_inconsistent, inconsistent, "no sample has a disagreeing mutant"
    )

    if has_warn:
        unwarned = sum(1 for r in records if not r.verdict.warned)
        silent_correct = sum(
            1 for r in records if not r.verdict.warned and r.correct
        )
        warned_correct = sum(
            1 for r in records if r.verdict.warned and r.correct
        )
        silent_wrong = sum(
            1 for r in records if not r.verdict.warned and not r.correct
        )
        acc_silent = _ratio(silent_correct, unwarned, "every sample was warned")
        r_fa = _ratio(warned_correct, correct, "no sample was predicted correctly")
        r_fs = _ratio(silent_wrong, n - correct, "every sample was predicted correctly")
        cases = case_histogram(records)
    else:
        reason = "defender defines no warning rule"
        acc_silent = MetricValue(0, 0, reason)
        r_fa = MetricValue(0, 0, reason)
        r_fs = MetricValue(0, 0, reason)
        cases = None

    report = MetricsReport(
        total=n,
        acc_clean=acc_clean,
        acc_cert=acc_cert,
        r_cert=r_cert,
        r_cert_inc=r_cert_inc,
        acc_silent=acc_silent,
        r_fa=r_fa,
        r_fs=r_fs,
        case_counts=cases,
    )
    _check_identities(report)
    return report
