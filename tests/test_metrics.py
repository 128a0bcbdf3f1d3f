"""Evaluation metrics over per-sample outcome records."""
import collections
import dataclasses
import json
import pathlib
import random
import re
from fractions import Fraction

import pytest

from patchcert.classifiers import Prediction
from patchcert.defenders import Verdict
from patchcert.errors import InvalidInputError, InvariantViolationError
from patchcert.metrics import (
    METRIC_NAMES,
    EvalRecord,
    MetricValue,
    _check_identities,
    case_histogram,
    compute_metrics,
)

DATA_DIR = pathlib.Path(__file__).parent / "data"


Draw = collections.namedtuple("Draw", "correct certified warned consistent")


def record(sid, correct, certified, warned, consistent):
    true_label = 0
    pred = 0 if correct else 1
    return EvalRecord(
        sample_id=sid,
        true_label=true_label,
        base=Prediction(pred, 0.75),
        verdict=Verdict(certified, warned),
        consistent=consistent,
    )


def four_record_fixture():
    return [
        record("a", correct=True, certified=True, warned=False, consistent=True),
        record("b", correct=True, certified=True, warned=True, consistent=False),
        record("c", correct=False, certified=True, warned=True, consistent=False),
        record("d", correct=False, certified=False, warned=False, consistent=False),
    ]


class TestHandFixture:
    def test_all_seven_metrics(self):
        report = compute_metrics(four_record_fixture())
        assert report.total == 4
        assert report.metric("acc_clean").value == Fraction(2, 4)
        assert report.metric("acc_cert").value == Fraction(2, 4)
        assert report.metric("r_cert").value == Fraction(3, 4)
        assert report.metric("r_cert_inc").value == Fraction(2, 3)
        assert report.metric("acc_silent").value == Fraction(1, 2)
        assert report.metric("r_fa").value == Fraction(1, 2)
        assert report.metric("r_fs").value == Fraction(1, 2)

    def test_case_histogram(self):
        report = compute_metrics(four_record_fixture())
        assert report.case_counts == {
            1: 1, 2: 1, 3: 0, 4: 0, 5: 1, 6: 0, 7: 0, 8: 1,
        }

    def test_warned_certified_samples_count_toward_acc_cert(self):
        # record "b" is warned yet certified and correct; it is case 1
        # and still contributes to acc_cert
        report = compute_metrics(four_record_fixture())
        assert report.case_counts[1] == 1
        assert report.metric("acc_cert").numerator == 2

    def test_percent_rendering(self):
        report = compute_metrics(four_record_fixture())
        assert report.metric("acc_clean").percent == "50.0"
        assert report.metric("r_cert").percent == "75.0"

    def test_to_dict_shape(self):
        doc = compute_metrics(four_record_fixture()).to_dict()
        assert set(doc) == {"total", "metrics", "cases"}
        assert set(doc["metrics"]) == set(METRIC_NAMES)
        assert doc["cases"]["1"] == 1
        assert doc["metrics"]["acc_clean"]["numerator"] == 2


class TestUndefinedMetrics:
    def test_every_sample_warned(self):
        records = [
            record("a", True, True, True, False),
            record("b", False, False, True, False),
        ]
        report = compute_metrics(records)
        assert not report.metric("acc_silent").defined
        assert report.metric("acc_silent").undefined_reason == "every sample was warned"
        assert report.metric("acc_silent").value is None
        assert report.metric("acc_silent").percent is None

    def test_no_correct_predictions(self):
        records = [record("a", False, False, True, False)]
        report = compute_metrics(records)
        assert not report.metric("r_fa").defined
        assert report.metric("r_fa").undefined_reason == "no sample was predicted correctly"

    def test_no_incorrect_predictions(self):
        records = [record("a", True, True, False, True)]
        report = compute_metrics(records)
        assert not report.metric("r_fs").defined
        assert report.metric("r_fs").undefined_reason == "every sample was predicted correctly"

    def test_no_inconsistent_samples(self):
        records = [record("a", True, True, False, True)]
        report = compute_metrics(records)
        assert not report.metric("r_cert_inc").defined
        assert (
            report.metric("r_cert_inc").undefined_reason
            == "no sample has a disagreeing mutant"
        )

    def test_undefined_is_not_zero(self):
        # a defined zero keeps its denominator; undefined has none
        records = [
            record("a", True, False, False, True),
            record("b", True, False, True, False),
        ]
        report = compute_metrics(records)
        assert report.metric("r_cert").defined
        assert report.metric("r_cert").value == 0


class TestWarningFreeDefenders:
    def make(self):
        return [
            EvalRecord("a", 0, Prediction(0, 0.9), Verdict(True, None), True),
            EvalRecord("b", 0, Prediction(1, 0.9), Verdict(False, None), False),
        ]

    def test_warning_metrics_undefined(self):
        report = compute_metrics(self.make())
        reason = "defender defines no warning rule"
        for name in ("acc_silent", "r_fa", "r_fs"):
            assert report.metric(name).undefined_reason == reason
        assert report.case_counts is None
        assert report.to_dict()["cases"] is None

    def test_certification_metrics_still_defined(self):
        report = compute_metrics(self.make())
        assert report.metric("acc_clean").value == Fraction(1, 2)
        assert report.metric("r_cert").value == Fraction(1, 2)

    def test_mixed_verdict_kinds_rejected(self):
        records = self.make() + [record("c", True, True, True, True)]
        with pytest.raises(InvalidInputError):
            compute_metrics(records)


class TestStructuralIdentities:
    def test_hold_on_randomized_records(self):
        rng = random.Random(2024)
        for trial in range(200):
            n = rng.randint(1, 30)
            draws = [
                Draw(
                    correct=rng.random() < 0.6,
                    certified=rng.random() < 0.5,
                    warned=rng.random() < 0.4,
                    consistent=rng.random() < 0.5,
                )
                for _ in range(n)
            ]
            records = [record(f"s{i}", *d) for i, d in enumerate(draws)]
            # compute_metrics re-derives every identity internally and
            # raises if one fails; recompute the headline ones here so a
            # silent identity-check regression cannot pass unnoticed
            report = compute_metrics(records)
            cases = report.case_counts
            assert report.metric("acc_cert").value == Fraction(cases[1] + cases[2], n)
            assert report.metric("r_cert").value == Fraction(
                cases[1] + cases[2] + cases[5] + cases[6], n
            )
            assert sum(cases.values()) == n
            assert report.metric("acc_cert").value <= report.metric("acc_clean").value
            assert report.metric("acc_cert").value <= report.metric("r_cert").value
            if report.metric("r_fa").defined:
                assert report.metric("r_fa").value == Fraction(
                    cases[1] + cases[3], cases[1] + cases[2] + cases[3] + cases[4]
                )
            if report.metric("r_fs").defined:
                assert report.metric("r_fs").value == Fraction(
                    cases[6] + cases[8], cases[5] + cases[6] + cases[7] + cases[8]
                )

            # Each metric counted straight off the draws, not the records.
            def count(counted, among=lambda d: True):
                pool = [d for d in draws if among(d)]
                return sum(1 for d in pool if counted(d)), len(pool)

            straight = {
                "acc_clean": count(lambda d: d.correct),
                "acc_cert": count(lambda d: d.correct and d.certified),
                "r_cert": count(lambda d: d.certified),
                "r_cert_inc": count(lambda d: d.certified, lambda d: not d.consistent),
                "acc_silent": count(lambda d: d.correct, lambda d: not d.warned),
                "r_fa": count(lambda d: d.warned, lambda d: d.correct),
                "r_fs": count(lambda d: not d.warned, lambda d: not d.correct),
            }
            assert list(straight) == list(METRIC_NAMES)
            for name, want in straight.items():
                got = report.metric(name)
                assert (got.numerator, got.denominator) == want, (trial, name)

    def test_histogram_covers_all_cases(self):
        counts = case_histogram(four_record_fixture())
        assert sorted(counts) == list(range(1, 9))
        assert sum(counts.values()) == 4

    @pytest.mark.parametrize("fields, message", [
        ({"case_counts": {**case_histogram(four_record_fixture()), 8: 2}},
         "case counts must sum to the record count"),
        ({"r_cert": MetricValue(4, 4)},
         "metric identity failed: r_cert = case1 + case2 + case5 + case6"),
        ({"case_counts": None, "acc_cert": MetricValue(3, 4)},
         "acc_cert cannot exceed acc_clean or r_cert"),
    ], ids=["case-sum", "identity", "warning-free-bound"])
    def test_a_report_that_breaks_an_identity_is_refused(self, fields, message):
        """Each refusal on a report whose parts disagree; the bound on
        `acc_cert` holds without a case histogram too."""
        report = compute_metrics(four_record_fixture())
        _check_identities(report)
        metrics = {**report.metrics, **{n: v for n, v in fields.items() if n in METRIC_NAMES}}
        rest = {n: v for n, v in fields.items() if n not in METRIC_NAMES}
        with pytest.raises(InvariantViolationError, match=f"^{re.escape(message)}$"):
            _check_identities(dataclasses.replace(report, metrics=metrics, **rest))


class TestImportedRow:
    def test_certified_accuracy_identity_is_exact(self):
        """The imported frequency row's cells must add up in exact rationals."""
        row = json.loads((DATA_DIR / "imported_case_row.json").read_text())
        case1 = Fraction(row["case_percent"]["1"])
        case2 = Fraction(row["case_percent"]["2"])
        assert case1 + case2 == Fraction(row["acc_cert_percent"])
        assert case1 + case2 == Fraction(82)


class TestMetricValue:
    def test_empty_denominator_needs_a_reason(self):
        with pytest.raises(InvalidInputError):
            MetricValue(0, 0)

    def test_exact_value(self):
        v = MetricValue(1, 3)
        assert v.value == Fraction(1, 3)
        assert v.percent == "33.3"

    def test_unknown_metric_name_rejected(self):
        report = compute_metrics(four_record_fixture())
        with pytest.raises(InvalidInputError):
            report.metric("accuracy")

    def test_empty_record_list_rejected(self):
        with pytest.raises(InvalidInputError):
            compute_metrics([])


def test_the_readme_table_lists_every_metric_in_report_order():
    """README's "Metrics" table documents `_METRICS`, one row per metric."""
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("\n### Metrics\n", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` +\|", section, flags=re.MULTILINE)
    assert tuple(rows) == METRIC_NAMES
