"""Acceptance gate: one test per numbered criterion.

Each test registers its outcome with the conftest summary hook, so a
default pytest run ends with one visible pass/fail line per criterion.
"""
import json
import pathlib
import random
import time
from fractions import Fraction

import pytest

from patchcert.classifiers import HashClassifier, Prediction, classify_mutants
from patchcert.cover import (
    gen_multi_cover,
    gen_rect_cover,
    gen_square_cover,
    verify_cover,
)
from patchcert.dataset_io import gen_synthetic_dataset, load_profile_fixture
from patchcert.defenders import (
    Defender,
    DefenderSpec,
    Verdict,
    make_defender,
)
from patchcert.metrics import EvalRecord, case_histogram, compute_metrics
from patchcert.oracle import (
    CHECK_DEF1,
    CHECK_RSUC,
    CHECK_THM1,
    AttackConfig,
    check_profile_fixture,
    run_soundness,
)
from patchcert.tensor import Image, Mask, PatchSpec, Rect, apply_mask, apply_patch

from conftest import make_image, random_profile, record_criterion

DATA_DIR = pathlib.Path(__file__).parent / "data"

GRID_SEEDS = (7, 8, 9)
GRID_TAUS = (0.0, 0.3, 0.5, 0.8)
GRID_SAMPLES = 100
# 49 placements of a 2x2 patch on an 8x8 plane, 4 symbols per pixel.
VARIANTS_PER_SAMPLE = 49 * 4**4


@pytest.fixture(scope="module")
def grid_dataset():
    return gen_synthetic_dataset(
        count=GRID_SAMPLES, plane=(8, 8), channels=1, alphabet_size=4,
        num_labels=5, seed=1234, label_mode="uniform",
    )


@pytest.fixture(scope="module")
def grid_masks():
    return gen_square_cover((8, 8), 2, 3)


@pytest.fixture(scope="module")
def grid_runs(grid_dataset, grid_masks):
    """One exhaustive oracle pass per classifier seed, shared by two tests."""
    cfg = AttackConfig(
        patch_spec=PatchSpec.square(8, 8, 2), mode="exhaustive"
    )
    defenders = [
        make_defender(DefenderSpec("hicert", tau)) for tau in GRID_TAUS
    ]
    runs = {}
    start = time.perf_counter()
    for seed in GRID_SEEDS:
        classifier = HashClassifier(seed=seed, num_labels=5)
        runs[seed] = run_soundness(
            classifier, grid_dataset, grid_masks, defenders, cfg,
            checks={CHECK_DEF1, CHECK_THM1},
        )
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def profile_corpus():
    """Ten thousand randomized profiles with a label and threshold each."""
    corpus_rng = random.Random(0xACCE57)
    return [
        (
            random_profile(corpus_rng),
            corpus_rng.randrange(5),
            corpus_rng.uniform(0.05, 0.95),
        )
        for _ in range(10_000)
    ]


def test_criterion_1_certified_samples_never_evade(grid_runs):
    runs, elapsed = grid_runs
    problems = []
    for seed, run in runs.items():
        for name, report in run.def1.items():
            if report.violations:
                problems.append((seed, name, report.violations[:3]))
            if report.variants_evaluated != GRID_SAMPLES * VARIANTS_PER_SAMPLE:
                problems.append((seed, name, report.variants_evaluated))
    if elapsed >= 600.0:
        problems.append(("runtime", elapsed))
    record_criterion(
        1,
        "exhaustive scan: no certified sample has an unwarned harmful variant",
        not problems,
    )
    assert not problems, problems


def test_criterion_2_consistent_cover_forces_label_difference(grid_runs):
    runs, _ = grid_runs
    problems = []
    for seed, run in runs.items():
        if run.theorem1.thm1_violations:
            problems.append((seed, run.theorem1.thm1_violations[:3]))
        if run.theorem1.variants_evaluated != GRID_SAMPLES * VARIANTS_PER_SAMPLE:
            problems.append((seed, run.theorem1.variants_evaluated))
    record_criterion(
        2,
        "a patch under a consistent mutant always shows a label difference",
        not problems,
    )
    assert not problems, problems


def test_criterion_3_negative_control_fixture():
    fixture = load_profile_fixture(str(DATA_DIR / "negative_control.json"))
    broken = Defender(DefenderSpec("hicert", 0.8), DefenderSpec("doma"))
    broken_report = check_profile_fixture(fixture, broken)
    sound_report = check_profile_fixture(
        fixture, make_defender(DefenderSpec("hicert", 0.8))
    )
    ok = (
        len(broken_report.violations) == 1
        and len(sound_report.violations) == 0
    )
    record_criterion(
        3,
        "control fixture: broken warner caught exactly once, real one clean",
        ok,
    )
    assert len(broken_report.violations) == 1, broken_report.to_dict()
    assert broken_report.certified_count == 1
    assert len(sound_report.violations) == 0, sound_report.to_dict()


def test_criterion_4_threshold_edges_reduce_exactly(profile_corpus):
    doma = make_defender(DefenderSpec("doma"))
    hicert_0 = make_defender(DefenderSpec("hicert", 0.0))
    hicert_1 = make_defender(DefenderSpec("hicert", 1.0))
    mismatches = 0
    for prof, label, _ in profile_corpus:
        if hicert_0.certify(prof, label) != doma.certify(prof, label):
            mismatches += 1
        if hicert_0.warn(prof) != doma.warn(prof):
            mismatches += 1
        if not hicert_1.certify(prof, label):
            mismatches += 1
        if not hicert_1.warn(prof):
            mismatches += 1
    record_criterion(
        4,
        "threshold 0 reduces to plain agreement; threshold 1 accepts all",
        mismatches == 0,
    )
    assert mismatches == 0


def test_criterion_5_inclusions_and_threshold_monotonicity(
    profile_corpus, grid_dataset, grid_masks
):
    doma = make_defender(DefenderSpec("doma"))
    broken_chains = 0
    pgpp_hits = 0
    for prof, label, tau in profile_corpus:
        if make_defender(DefenderSpec("pgpp", tau)).certify(prof, label):
            pgpp_hits += 1
            if not doma.certify(prof, label):
                broken_chains += 1
        hicert = make_defender(DefenderSpec("hicert", tau))
        if doma.certify(prof, label) and not hicert.certify(prof, label):
            broken_chains += 1

    classifier = HashClassifier(seed=7, num_labels=5)
    profiles = [
        (
            classify_mutants(classifier, r.image, grid_masks),
            r.true_label,
            r.id,
        )
        for r in grid_dataset
    ]
    sweep = [i / 10 for i in range(11)]
    r_cert_seq, r_fa_seq, r_fs_seq = [], [], []
    for tau in sweep:
        defender = make_defender(DefenderSpec("hicert", tau))
        records = [
            EvalRecord(
                sample_id=sid,
                true_label=label,
                base=prof.base,
                verdict=defender.verdict(prof, label),
                consistent=make_defender(DefenderSpec("doma")).certify(prof, label),
            )
            for prof, label, sid in profiles
        ]
        report = compute_metrics(records)
        for metric_name in ("r_fa", "r_fs"):
            assert report.metric(metric_name).defined
        r_cert_seq.append(report.metric("r_cert").value)
        r_fa_seq.append(report.metric("r_fa").value)
        r_fs_seq.append(report.metric("r_fs").value)

    monotone = (
        r_cert_seq == sorted(r_cert_seq)
        and r_fa_seq == sorted(r_fa_seq)
        and r_fs_seq == sorted(r_fs_seq, reverse=True)
    )
    ok = broken_chains == 0 and monotone
    record_criterion(
        5,
        "certify implications hold and metric sweeps are monotone in tau",
        ok,
    )
    assert broken_chains == 0
    assert pgpp_hits > 0, "corpus never satisfied the strictest certifier"
    assert r_cert_seq == sorted(r_cert_seq), r_cert_seq
    assert r_fa_seq == sorted(r_fa_seq), r_fa_seq
    assert r_fs_seq == sorted(r_fs_seq, reverse=True), r_fs_seq


def test_criterion_6_generated_covers_verify_exhaustively():
    cover_rng = random.Random(0x60BE5)
    start = time.perf_counter()
    failures = []

    for _ in range(50):
        h = cover_rng.randint(4, 64)
        w = cover_rng.randint(4, 64)
        p = cover_rng.randint(1, min(6, h, w))
        k = cover_rng.randint(1, min(4, h - p + 1, w - p + 1))
        report = verify_cover(gen_square_cover((h, w), p, k))
        if not report.ok:
            failures.append(("square", h, w, p, k, report.first_uncovered))

    for _ in range(6):
        h = cover_rng.randint(5, 16)
        w = cover_rng.randint(5, 16)
        area = cover_rng.randint(1, min(12, h * w))
        k = cover_rng.randint(1, 3)
        report = verify_cover(gen_rect_cover((h, w), area, k))
        if not report.ok:
            failures.append(("rect", h, w, area, k, report.first_uncovered))

    for base_plane, base_p, base_k in ((8, 2, 3), (6, 1, 2)):
        base = gen_square_cover((base_plane, base_plane), base_p, base_k)
        report = verify_cover(gen_multi_cover(base, 2))
        if not report.ok:
            failures.append(("multi", base_plane, report.first_uncovered))

    big = gen_square_cover((224, 224), 32, 6)
    big_report = verify_cover(big)
    if len(big.masks) != 36:
        failures.append(("224 mask count", len(big.masks)))
    if not big_report.ok:
        failures.append(("224 cover", big_report.first_uncovered))
    if big_report.placements_checked != (224 - 32 + 1) ** 2:
        failures.append(("224 placements", big_report.placements_checked))

    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        failures.append(("runtime", elapsed))
    record_criterion(
        6,
        "every generated mask set covers all placements, 224 plane included",
        not failures,
    )
    assert not failures, failures


def test_criterion_7_masking_erases_the_patch():
    id_rng = random.Random(0x1DE17)
    first_failure = None
    for index in range(100_000):
        h = id_rng.randint(4, 8)
        w = id_rng.randint(4, 8)
        image = make_image(id_rng, h, w)
        if index % 10 == 0 and w >= 6:
            half = w // 2
            ph1, pw1 = id_rng.randint(1, 2), id_rng.randint(1, 2)
            ph2, pw2 = id_rng.randint(1, 2), id_rng.randint(1, 2)
            placement = (
                Rect(id_rng.randint(0, h - ph1),
                     id_rng.randint(0, half - pw1), ph1, pw1),
                Rect(id_rng.randint(0, h - ph2),
                     half + id_rng.randint(0, w - half - pw2), ph2, pw2),
            )
        else:
            p = id_rng.randint(1, 3)
            placement = (
                Rect(id_rng.randint(0, h - p), id_rng.randint(0, w - p), p, p),
            )
        content = [
            id_rng.randrange(4)
            for _ in range(sum(r.area for r in placement))
        ]
        top = min(r.top for r in placement)
        left = min(r.left for r in placement)
        bottom = max(r.bottom for r in placement)
        right = max(r.right for r in placement)
        mask_top = id_rng.randint(0, top)
        mask_left = id_rng.randint(0, left)
        mask = Mask(h, w, (
            Rect(mask_top, mask_left,
                 id_rng.randint(bottom, h) - mask_top,
                 id_rng.randint(right, w) - mask_left),
        ))
        patched = apply_patch(image, placement, content)
        if apply_mask(patched, mask).packed != apply_mask(image, mask).packed:
            first_failure = (index, placement, mask)
            break
    record_criterion(
        7,
        "masking over a patched region restores the clean mutant bit for bit",
        first_failure is None,
    )
    assert first_failure is None, first_failure


def _hand_record(sample_id, true_label, base, certified, warned, consistent):
    return EvalRecord(
        sample_id=sample_id,
        true_label=true_label,
        base=base,
        verdict=Verdict(certified=certified, warned=warned),
        consistent=consistent,
    )


def test_criterion_8_metric_values_match_hand_counts():
    records = [
        _hand_record("a", 0, Prediction(0, 0.9), True, False, True),
        _hand_record("b", 1, Prediction(1, 0.8), True, True, False),
        _hand_record("c", 2, Prediction(3, 0.7), True, True, False),
        _hand_record("d", 4, Prediction(2, 0.6), False, False, False),
    ]
    report = compute_metrics(records)
    expected = {
        "acc_clean": Fraction(2, 4),
        "acc_cert": Fraction(2, 4),
        "r_cert": Fraction(3, 4),
        "r_cert_inc": Fraction(2, 3),
        "acc_silent": Fraction(1, 2),
        "r_fa": Fraction(1, 2),
        "r_fs": Fraction(1, 2),
    }
    mismatches = {
        name: (report.metric(name).value, want)
        for name, want in expected.items()
        if report.metric(name).value != want
    }

    histogram = case_histogram(records)
    total = sum(histogram.values())
    acc_cert_identity = (
        Fraction(histogram[1] + histogram[2], len(records))
        == report.metric("acc_cert").value
    )
    r_cert_identity = (
        Fraction(
            histogram[1] + histogram[2] + histogram[5] + histogram[6],
            len(records),
        )
        == report.metric("r_cert").value
    )

    row = json.loads((DATA_DIR / "imported_case_row.json").read_text())
    row_sum = Fraction(row["case_percent"]["1"]) + Fraction(
        row["case_percent"]["2"]
    )
    row_identity = row_sum == Fraction(row["acc_cert_percent"]) == Fraction(82)

    ok = (
        not mismatches
        and total == len(records)
        and acc_cert_identity
        and r_cert_identity
        and row_identity
    )
    record_criterion(
        8,
        "metric values match hand counts; case identities hold exactly",
        ok,
    )
    assert not mismatches, mismatches
    assert total == len(records)
    assert acc_cert_identity
    assert r_cert_identity
    assert row_identity


def test_criterion_9_success_ratio_dominates_certified_ratio():
    mask_set = gen_square_cover((8, 8), 2, 3)
    cfg = AttackConfig(
        patch_spec=PatchSpec.square(8, 8, 2), mode="exhaustive"
    )
    defenders = [
        make_defender(DefenderSpec("doma")),
        make_defender(DefenderSpec("pgpp", 0.5)),
        make_defender(DefenderSpec("hicert", 0.3)),
        make_defender(DefenderSpec("hicert", 0.8)),
    ]
    broken = []
    certified_total = 0
    for seed in (3, 11):
        records = gen_synthetic_dataset(
            count=20, plane=(8, 8), channels=1, alphabet_size=2,
            num_labels=5, seed=seed, label_mode="classifier",
        )
        classifier = HashClassifier(seed=seed, num_labels=5)
        run = run_soundness(
            classifier, records, mask_set, defenders, cfg,
            checks={CHECK_DEF1, CHECK_RSUC},
        )
        for name, report in run.def1.items():
            certified_total += report.certified_count
            r_cert = Fraction(report.certified_count, run.samples)
            r_suc = Fraction(
                run.samples - run.evaded_samples[name], run.samples
            )
            if not r_suc >= r_cert:
                broken.append((seed, name, r_cert, r_suc))
    record_criterion(
        9,
        "defense success ratio never drops below the certified ratio",
        not broken and certified_total > 0,
    )
    assert not broken, broken
    assert certified_total > 0, "grid never certified anything"
