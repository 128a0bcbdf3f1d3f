"""The exhaustive attack oracle.

`TestEngineAgainstNaive` compares whole `run_soundness` results with the
one test-side reference, `naive.soundness`, on configurations drawn from
listed seeds (`-k seed-7` reruns one), and checks that eight planted
faults in the scan break that equality. The other classes pin variant
counting, the budget guard, enumeration order, the placement plan,
classifier call counts and the profile-fixture check.
"""
import functools
import hashlib
import json
import pathlib
import random
import time
import tracemalloc

import pytest

from patchcert import defenders, oracle, tensor
from patchcert.classifiers import HashClassifier, LinearClassifier, \
    TableClassifier, Prediction, _mutant_scorers, classify_mutants
from patchcert.cover import gen_multi_cover, gen_rect_cover, gen_square_cover
from patchcert.dataset_io import (
    DatasetRecord,
    gen_synthetic_dataset,
    load_profile_fixture,
)
from patchcert.defenders import Defender, DefenderSpec, MutantProfile, make_defender
from patchcert.errors import (
    BudgetExceededError,
    DimensionMismatchError,
    InvalidInputError,
    UnsupportedOperationError,
)
from patchcert.oracle import (
    CHECK_DEF1,
    CHECK_RSUC,
    CHECK_THM1,
    AttackConfig,
    SoundnessRun,
    check_profile_fixture,
    count_variants,
    enumerate_variants,
    run_soundness,
)
from patchcert.tensor import Image, Mask, PatchSpec, Rect, apply_mask, apply_patch, \
    iter_placements, mask_covers, zero_masked

import naive
from conftest import make_image, reference_placements

DATA_DIR = pathlib.Path(__file__).parent / "data"


def square_cfg(h, w, size, **kw):
    return AttackConfig(patch_spec=PatchSpec.square(h, w, size), **kw)


class TestCountVariants:
    def test_square_closed_form(self):
        img = Image(8, 8, 1, 4, (0,) * 64)
        assert count_variants(img, square_cfg(8, 8, 2)) == (49 * 256, True)

    def test_rectangle_closed_form(self):
        img = Image(3, 3, 1, 2, (0,) * 9)
        cfg = AttackConfig(patch_spec=PatchSpec.rectangle(3, 3, 2))
        # shapes: 1x1 (9 placements x 2), 1x2 (6 x 4), 2x1 (6 x 4)
        assert count_variants(img, cfg) == (66, True)

    def test_multi_count(self):
        img = Image(3, 3, 1, 2, (0,) * 9)
        cfg = AttackConfig(patch_spec=PatchSpec.multi(3, 3, 2, 1))
        assert count_variants(img, cfg) == (36 * 4, True)

    def test_multi_cap_yields_lower_bound(self):
        """Three or more patches are counted by a walk that stops at the
        cap; one or two patches are counted exactly."""
        img = Image(6, 6, 1, 4, (0,) * 36)
        cfg = AttackConfig(patch_spec=PatchSpec.multi(6, 6, 3, 1))
        total, exact = count_variants(img, cfg, cap=100)
        assert not exact
        assert total >= 100
        cfg = AttackConfig(patch_spec=PatchSpec.multi(6, 6, 2, 1))
        assert count_variants(img, cfg, cap=100) == (630 * 16, True)  # C(36, 2)

    def test_multi_count_cap_reports_lower_bound(self):
        """The walk stops at the first placement past the cap: 11 of the
        C(9, 3) = 84 placements, with 2**3 contents each."""
        img = Image(3, 3, 1, 2, (0,) * 9)
        cfg = AttackConfig(patch_spec=PatchSpec.multi(3, 3, 3, 1))
        assert count_variants(img, cfg, cap=80) == (88, False)
        assert count_variants(img, cfg) == (84 * 8, True)

    def test_crowded_cap_stops_at_once(self):
        """Four 2x2 patches at alphabet 2 reach a cap of 10**7 variants at
        153 placements, however many overlapping combinations a
        one-by-one walk would reject first on a larger plane."""
        img = Image(48, 48, 1, 2, (0,) * 48 * 48)
        cfg = AttackConfig(patch_spec=PatchSpec.multi(48, 48, 4, 2))
        start = time.perf_counter()
        assert count_variants(img, cfg, cap=10**7) == (153 * 2**16, False)
        assert time.perf_counter() - start < 0.2

    def test_no_placement_is_an_exact_zero(self):
        """The lattice bound (h // s) * (w // s) on disjoint squares decides
        whether a spec of three or more patches has a placement at all."""
        for h in range(2, 8):
            for w in range(2, 8):
                for s in range(2, min(h, w, 3) + 1):
                    bound = (h // s) * (w // s)
                    for n in (bound, bound + 1):
                        if n < 3:
                            continue
                        spec = PatchSpec.multi(h, w, n, s)
                        cfg = AttackConfig(patch_spec=spec)
                        img = Image(h, w, 1, 2, (0,) * (h * w))
                        empty = count_variants(img, cfg, cap=1) == (0, True)
                        assert empty == (tensor._placement_ranks(spec)[0] == 0)

    def test_matches_enumeration(self, rng):
        for spec in (
            PatchSpec.square(3, 3, 1),
            PatchSpec.square(3, 3, 2),
            PatchSpec.rectangle(3, 3, 2),
            PatchSpec.multi(3, 3, 2, 1),
            PatchSpec.multi(3, 3, 3, 1),
            PatchSpec.multi(4, 4, 2, 2),
        ):
            img = make_image(rng, spec.plane_height, spec.plane_width, alphabet_size=2)
            cfg = AttackConfig(patch_spec=spec)
            want, exact = count_variants(img, cfg)
            assert exact
            assert sum(1 for _ in enumerate_variants(img, cfg)) == want

    def test_smaller_content_alphabet(self):
        img = Image(3, 3, 1, 4, (0,) * 9)
        cfg = AttackConfig(patch_spec=PatchSpec.square(3, 3, 1), alphabet_size=2)
        assert count_variants(img, cfg) == (18, True)


class TestBudgetGuard:
    def test_full_plane_patch_refuses_exactly(self):
        img = Image(8, 8, 1, 4, (0,) * 64)
        cfg = square_cfg(8, 8, 8)
        with pytest.raises(BudgetExceededError) as exc:
            next(enumerate_variants(img, cfg))
        assert exc.value.required == 4**64
        assert exc.value.budget == 10_000_000
        assert exc.value.exact
        assert str(4**64) in str(exc.value)

    def test_multi_refusal_reports_a_lower_bound(self):
        img = Image(6, 6, 1, 4, (0,) * 36)
        cfg = AttackConfig(
            patch_spec=PatchSpec.multi(6, 6, 3, 1), budget=100
        )
        with pytest.raises(BudgetExceededError) as exc:
            next(enumerate_variants(img, cfg))
        assert not exc.value.exact
        assert "at least" in str(exc.value)
        cfg = AttackConfig(
            patch_spec=PatchSpec.multi(6, 6, 2, 1), budget=100
        )
        with pytest.raises(BudgetExceededError) as exc:
            next(enumerate_variants(img, cfg))
        assert exc.value.exact
        assert str(exc.value) == (
            "exhaustive attack needs 10080 variants, budget is 100"
        )

    def test_attack_without_placement_scans_nothing_at_once(self):
        """Seventeen disjoint 8x8 squares never fit on 32x32, nor two
        120x120 ones on 224x224. Exhaustive mode reports 0 variants and
        random mode refuses, without walking the C(squares, count)
        combinations of the plane's squares (about 10^33 and 6e7)."""
        clf = HashClassifier(seed=3, num_labels=2)
        defender = make_defender(DefenderSpec("hicert", 0.5))
        for spec in (PatchSpec.multi(32, 32, 17, 8), PatchSpec.multi(224, 224, 2, 120)):
            h, w = spec.plane_height, spec.plane_width
            img = Image(h, w, 1, 2, (0,) * (h * w))
            record = DatasetRecord("s", clf.classify(img).label, img)
            ms = gen_square_cover((h, w), spec.size, 2)
            start = time.perf_counter()
            assert list(iter_placements(spec)) == []
            assert tensor._placement_ranks(spec)[0] == 0
            run = run_soundness(clf, [record], ms, [defender], AttackConfig(spec),
                                checks={CHECK_DEF1, CHECK_THM1})
            assert run.def1["hicert(tau=0.5)"].variants_evaluated == 0
            assert run.theorem1.variants_evaluated == 0
            with pytest.raises(InvalidInputError, match="no legal placement"):
                next(enumerate_variants(img, AttackConfig(spec, mode="random", trials=1)))
            assert time.perf_counter() - start < 1.0

    def test_rectangle_refusal_stops_counting_at_the_budget(self):
        """A 128x128 area budget allows 16,384 shapes on 128x128x3, the
        largest with 256**49152 contents each; the count stops at the
        first shape past the budget and states a lower bound."""
        img = Image(128, 128, 3, 256, (0,) * (128 * 128 * 3))
        cfg = AttackConfig(patch_spec=PatchSpec.rectangle(128, 128, 128 * 128))
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError) as exc:
            next(enumerate_variants(img, cfg))
        assert time.perf_counter() - start < 0.5
        assert exc.value.required == 128 * 128 * 256**3
        assert not exc.value.exact

    def test_paper_scale_refusal_states_a_power_of_ten(self):
        """256**3072 has 7,399 digits, past the 4,300 that Python turns
        into a string; the message states the power of ten below it."""
        img = Image(32, 32, 3, 256, (0,) * (32 * 32 * 3))
        cfg = square_cfg(32, 32, 32)
        with pytest.raises(BudgetExceededError) as exc:
            next(enumerate_variants(img, cfg))
        assert exc.value.required == 256**3072
        assert exc.value.exact
        assert str(exc.value) == (
            "exhaustive attack needs at least 10^7398 variants, "
            "budget is 10000000"
        )

    def test_random_mode_counts_trials_against_budget(self):
        img = Image(4, 4, 1, 2, (0,) * 16)
        cfg = square_cfg(4, 4, 1, mode="random", trials=101, budget=100)
        with pytest.raises(BudgetExceededError):
            next(enumerate_variants(img, cfg))

    def test_within_budget_runs(self):
        img = Image(4, 4, 1, 2, (0,) * 16)
        cfg = square_cfg(4, 4, 1, budget=32)
        assert sum(1 for _ in enumerate_variants(img, cfg)) == 32


def listed_random_draws(image, cfg, sample_id):
    """Random mode's (placement, content) draws, replayed by indexing the
    reference list of placements with the sample's own generator."""
    digest = hashlib.blake2b(
        sample_id.encode("utf-8"), digest_size=8, key=cfg.seed.to_bytes(8, "little")
    ).digest()
    rng = random.Random(int.from_bytes(digest, "little"))
    placements = list(reference_placements(cfg.patch_spec))
    a = cfg.resolve_alphabet(image)
    draws = []
    for _ in range(cfg.trials):
        placement = placements[rng.randrange(len(placements))]
        npix = sum(r.area for r in placement) * image.channels
        draws.append((placement, tuple(rng.randrange(a) for _ in range(npix))))
    return draws


class TestEnumerateVariants:
    def test_exhaustive_order_is_lexicographic(self, rng):
        img = make_image(rng, 3, 3, alphabet_size=3)
        cfg = square_cfg(3, 3, 2, alphabet_size=3)
        stream = enumerate_variants(img, cfg)
        placement, content, variant = next(stream)
        assert placement == (Rect(0, 0, 2, 2),)
        assert content == (0, 0, 0, 0)
        assert variant == apply_patch(img, placement, content)
        _, content2, _ = next(stream)
        assert content2 == (0, 0, 0, 1)

    def test_random_mode_is_deterministic_per_sample(self, rng):
        img = make_image(rng, 4, 4)
        cfg = square_cfg(4, 4, 2, mode="random", trials=20, seed=5)
        a = [(p, c) for p, c, _ in enumerate_variants(img, cfg, "s1")]
        b = [(p, c) for p, c, _ in enumerate_variants(img, cfg, "s1")]
        other = [(p, c) for p, c, _ in enumerate_variants(img, cfg, "s2")]
        assert a == b
        assert len(a) == 20
        assert a != other

    def test_random_mode_respects_the_seed(self, rng):
        img = make_image(rng, 4, 4)
        one = square_cfg(4, 4, 2, mode="random", trials=20, seed=5)
        two = square_cfg(4, 4, 2, mode="random", trials=20, seed=6)
        a = [(p, c) for p, c, _ in enumerate_variants(img, one)]
        b = [(p, c) for p, c, _ in enumerate_variants(img, two)]
        assert a != b

    @pytest.mark.parametrize("spec", [
        PatchSpec.square(5, 6, 2),
        PatchSpec.rectangle(4, 5, 3),
        PatchSpec.multi(6, 6, 2, 2),
        PatchSpec.multi(5, 5, 3, 2),
    ], ids=lambda spec: f"{spec.kind}-count{spec.count}")
    def test_random_draws_match_indexing_the_listed_placements(self, rng, spec):
        img = make_image(rng, spec.plane_height, spec.plane_width, channels=2)
        cfg = AttackConfig(spec, mode="random", trials=60, seed=11)
        got = [(p, c) for p, c, _ in enumerate_variants(img, cfg, "s7")]
        assert got == listed_random_draws(img, cfg, "s7")

    def test_random_mode_never_lists_placements(self, rng, monkeypatch):
        def refuse(spec):
            raise AssertionError("random mode listed the placements")

        monkeypatch.setattr(tensor, "iter_placements", refuse)
        monkeypatch.setattr(oracle, "iter_placements", refuse)
        spec = PatchSpec.multi(6, 6, 2, 2)
        img = make_image(rng, 6, 6)
        cfg = AttackConfig(spec, mode="random", trials=30, seed=2)
        assert sum(1 for _ in enumerate_variants(img, cfg)) == 30
        ms = gen_square_cover((6, 6), 2, 2)
        clf = HashClassifier(seed=3, num_labels=2)
        record = DatasetRecord("s", clf.classify(img).label, img)
        defender = make_defender(DefenderSpec("hicert", 0.5))
        run = run_soundness(clf, [record], ms, [defender], cfg,
                            checks={CHECK_DEF1, CHECK_THM1})
        assert run.def1["hicert(tau=0.5)"].variants_evaluated == 30

    def test_random_draws_at_paper_scale_list_nothing(self, rng, monkeypatch):
        """Two 32x32 patches on 224x224x3 have about 6.3e8 placements; a
        list of them could not be held in memory. The draws rank them in
        closed form: neither the placement listing nor the runs walk is
        reached, even with the ranks' cache cold."""

        def refuse(*args, **kwargs):
            raise AssertionError("random draws walked the placements")

        for module in (tensor, oracle):
            monkeypatch.setattr(module, "iter_placements", refuse)
            monkeypatch.setattr(module, "_placement_runs", refuse)
        tensor._placement_ranks.cache_clear()
        img = make_image(rng, 224, 224, channels=3, alphabet_size=256)
        cfg = AttackConfig(PatchSpec.multi(224, 224, 2, 32), mode="random",
                           trials=3, seed=4)
        tracemalloc.start()
        try:
            placements = [p for p, _, _ in enumerate_variants(img, cfg)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(placements) == 3
        for a, b in placements:
            assert a.inside_plane(224, 224) and b.inside_plane(224, 224)
            assert (a.height, a.width, b.height, b.width) == (32, 32, 32, 32)
            assert not a.intersects(b)
        assert peak < 16 * 2**20

    def test_random_ranks_are_set_up_once_per_spec(self, rng, monkeypatch):
        """Every sample of a 3-patch random run draws from one spec, so
        the ranks take one full `_placement_runs` walk, not one a sample."""
        runs, walks = tensor._placement_runs, []

        def counted(spec, first=None):
            if first is None:
                walks.append(spec)
            return runs(spec, first)

        monkeypatch.setattr(tensor, "_placement_runs", counted)
        tensor._placement_ranks.cache_clear()
        spec = PatchSpec.multi(8, 8, 3, 2)
        clf = HashClassifier(seed=3, num_labels=2)
        records = []
        for i in range(4):
            img = make_image(rng, 8, 8, alphabet_size=2)
            records.append(DatasetRecord(f"s{i}", clf.classify(img).label, img))
        defender = make_defender(DefenderSpec("hicert", 0.5))
        cfg = AttackConfig(spec, mode="random", trials=20, seed=5)
        run = run_soundness(clf, records, gen_square_cover((8, 8), 2, 3), [defender],
                            cfg, checks={CHECK_DEF1, CHECK_THM1})
        assert run.theorem1.variants_evaluated == 4 * 20
        assert walks == [spec]

    def test_plane_mismatch_rejected(self, rng):
        img = make_image(rng, 4, 4)
        with pytest.raises(DimensionMismatchError):
            next(enumerate_variants(img, square_cfg(5, 5, 2)))

    def test_alphabet_restriction_bounds_content(self, rng):
        img = make_image(rng, 3, 3)  # alphabet 4
        cfg = square_cfg(3, 3, 1, alphabet_size=2)
        values = {c[0] for _, c, _ in enumerate_variants(img, cfg)}
        assert values == {0, 1}

    def test_alphabet_wider_than_image_rejected(self, rng):
        img = make_image(rng, 3, 3, alphabet_size=2)
        cfg = square_cfg(3, 3, 1, alphabet_size=4)
        with pytest.raises(InvalidInputError):
            next(enumerate_variants(img, cfg))


class TestContentDraw:
    @pytest.mark.parametrize("alphabet", [
        2, 3, 5, 17, 255, 256, 257, 65537, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1,
    ])
    def test_the_batched_draw_is_the_randrange_loop(self, alphabet):
        """Same values and same generator state after, word for word; an
        alphabet above 32 bits takes `randrange` itself."""
        for n in (1, 2, 95, 96, 3072):
            loop, batched = random.Random(alphabet + n), random.Random(alphabet + n)
            want = tuple(loop.randrange(alphabet) for _ in range(n))
            assert tensor._draw_content(batched, alphabet, n) == want, n
            assert batched.getstate() == loop.getstate(), n


class TestAttackConfig:
    def test_rejects_unknown_mode(self):
        with pytest.raises(InvalidInputError):
            AttackConfig(patch_spec=PatchSpec.square(4, 4, 1), mode="greedy")

    def test_rejects_negative_trials(self):
        with pytest.raises(InvalidInputError):
            AttackConfig(
                patch_spec=PatchSpec.square(4, 4, 1), mode="random", trials=-1
            )

    def test_rejects_bad_budget_and_seed(self):
        with pytest.raises(InvalidInputError):
            AttackConfig(patch_spec=PatchSpec.square(4, 4, 1), budget=0)
        with pytest.raises(InvalidInputError):
            AttackConfig(patch_spec=PatchSpec.square(4, 4, 1), seed=-1)


# ---------- naive reference implementations ----------


def certified_detection(classifier, image, true_label, mask_set, defender, cfg):
    """The def1 report of a one-sample `run_soundness`."""
    record = DatasetRecord("sample", true_label, image)
    run = run_soundness(classifier, [record], mask_set, [defender], cfg)
    return run.def1[defender.name]


class CountingClassifier:
    """Delegates `_scorer` to `inner` and counts one call per prediction:
    each scorer `prediction()` and each `score` of an `at` or `label_at`
    closure."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def _scorer(self, data, bytes_per_pixel):
        return CountingScorer(self, self.inner._scorer(data, bytes_per_pixel))


class CountingScorer:
    def __init__(self, counter, inner):
        self.counter = counter
        self.inner = inner

    def prediction(self):
        self.counter.calls += 1
        return self.inner.prediction()

    def masked(self, mask, channels):
        return CountingScorer(self.counter, self.inner.masked(mask, channels))

    def at(self, positions):
        return self.counted(self.inner.at(positions))

    def label_at(self, positions):
        return self.counted(self.inner.label_at(positions))

    def counted(self, score):
        def counted(values):
            self.counter.calls += 1
            return score(values)

        return counted


def leaky_zero_masked(data, mask, channels, bytes_per_pixel):
    """`zero_masked` that keeps the first byte of the mask's first rect."""
    r = mask.rects[0]
    keep = (r.top * mask.plane_width + r.left) * channels * bytes_per_pixel
    out = bytearray(zero_masked(data, mask, channels, bytes_per_pixel))
    out[keep] = data[keep]
    return bytes(out)


def find_unsound_setup():
    """Deterministically locate a certified sample with evading variants.

    The composite pairs stability certification with a warner that only
    fires on a confident disagreement (all but never at pgpp 0.99), so
    certified samples with harmful variants yield violations. Scanning
    seeds keeps the fixture classifier-true instead of hand-tuned.
    """
    mask_set = gen_square_cover((4, 4), 1, 2)
    cfg = square_cfg(4, 4, 1)
    defender = Defender(DefenderSpec("c2"), DefenderSpec("pgpp", 0.99))
    for seed in range(200):
        clf = HashClassifier(seed=seed, num_labels=2)
        img = Image(4, 4, 1, 2, tuple((seed * 7919 + i * 104729) % 2 for i in range(16)))
        profile = classify_mutants(clf, img, mask_set)
        true_label = profile.base.label
        if not defender.certify(profile, true_label):
            continue
        report = certified_detection(clf, img, true_label, mask_set, defender, cfg)
        if report.violations:
            return clf, img, true_label, mask_set, defender, cfg, report
    raise AssertionError("no unsound setup found in 200 seeds")


FAMILIES = ("doma", "c2", "pgpp", "hicert")
SEEDS = range(24)


@functools.cache
def drawn(seed):
    """`run_soundness`'s arguments, `checks` included, for a small
    configuration drawn from `seed`; one over 2,500 variants a sample is
    redrawn. True labels are mostly the prediction, sometimes random."""
    rng = random.Random(seed)
    while True:
        h, w, channels = rng.randint(3, 5), rng.randint(3, 5), rng.choice((1, 2))
        alphabet = rng.choice((2, 3, 300, 70000))
        kind = rng.choice(("square", "rectangle", "multi"))
        if kind == "rectangle":
            ms = gen_rect_cover((h, w), 2, 2)
        else:  # a one-patch multi cover is its square cover
            size, count = (1, 2) if kind == "multi" else (rng.randint(1, 2), 1)
            ms = gen_multi_cover(gen_square_cover((h, w), size, 2), count)
        mode = rng.choice(("exhaustive", "random"))
        content = min(alphabet, rng.choice((2, 3)))
        cfg = AttackConfig(ms.spec, mode, trials=150, seed=rng.randrange(100),
                           alphabet_size=content)
        images = [make_image(rng, h, w, channels, alphabet)
                  for _ in range(rng.randint(1, 3))]
        if mode == "random" or count_variants(images[0], cfg)[0] <= 2500:
            break
    num_labels = rng.choice((2, 3))
    clf = (HashClassifier(rng.randrange(100), num_labels) if rng.random() < 0.5 else
           LinearClassifier(rng.randrange(100), num_labels, temperature=10 * alphabet))
    records = [DatasetRecord(f"s{i}", clf.classify(img).label if rng.random() < 0.8
                             else rng.randrange(num_labels), img)
               for i, img in enumerate(images)]
    benign = classify_mutants(clf, images[0], ms)
    seen = rng.choice([p.confidence for p in (benign.base, *benign.mutants)])
    taus = (0.0, 1.0, seen, rng.choice((0.5, 0.8)))
    defenders = [
        Defender(DefenderSpec(c, rng.choice(taus)), DefenderSpec(w, rng.choice(taus)))
        for c in FAMILIES for w in FAMILIES
    ]
    checks = {c for c in (CHECK_DEF1, CHECK_THM1, CHECK_RSUC) if rng.random() < 0.6}
    return clf, records, ms, defenders, cfg, checks or {CHECK_DEF1}


@functools.cache
def reference(seed):
    return naive.soundness(*drawn(seed))


def whole(run):
    """A `SoundnessRun` as the plain data `naive.soundness` returns."""
    return {"samples": run.samples, "def1": {n: r.to_dict() for n, r in run.def1.items()},
            "thm1": run.theorem1 and run.theorem1.to_dict(),
            "evaded_samples": run.evaded_samples}


def first_clause_only(monkeypatch):
    warn = Defender.warn_clauses
    monkeypatch.setattr(Defender, "warn_clauses", lambda self, profile: (
        "label_difference" if warn(self, profile) == "label_difference" else None))


def any_covered_clause(monkeypatch):
    """A settle helper that credits whichever clause fires on the covered
    mutants, though an uncovered mutant may fire an earlier one."""
    monkeypatch.setattr(Defender, "settled_clause", lambda self, label, covered:
                        self.warn_clauses(MutantProfile(Prediction(label, None), covered)))


def label_blind_settle_memo(monkeypatch):
    """A settle memo that gives a plan's first answer for every label."""
    init = oracle._PlacementPlan.__init__

    class FirstAnswer(dict):
        def get(self, label):
            return next(iter(self.values()), None)

    def blind(self, *args):
        init(self, *args)
        self.settled = FirstAnswer()

    monkeypatch.setattr(oracle._PlacementPlan, "__init__", blind)


def modulo_draw(monkeypatch):
    """A content draw that keeps each word, a rejected one as its value
    modulo the alphabet."""

    def draw(rng, a, n):
        shift = 32 - a.bit_length()
        return tuple((rng.getrandbits(32) >> shift) % a for _ in range(n))

    monkeypatch.setattr(oracle, "_draw_content", draw)


def first_rect_cover(monkeypatch):
    """A cover test that reads only a placement's first rect."""
    cells = tensor._rect_cells
    monkeypatch.setattr(oracle, "_rect_cells",
                        lambda placement, width: cells(placement[:1], width))


def one_mutant_memo(monkeypatch):
    init, memo = oracle._PlacementPlan.__init__, {}

    def sharing(self, *args):
        init(self, *args)
        self.mutants = memo

    monkeypatch.setattr(oracle._PlacementPlan, "__init__", sharing)


class TestEngineAgainstNaive:
    @pytest.mark.parametrize("seed", SEEDS, ids="seed-{}".format)
    def test_whole_result_matches_the_reference(self, seed):
        assert whole(run_soundness(*drawn(seed))) == reference(seed)[0]

    def test_the_seeds_exercise_every_finding(self):
        """Certificates, low-confidence catches, violations, evasions and
        erasure checks all occur, so no comparison above is vacuous."""
        results = [reference(seed) for seed in SEEDS]
        reports = [rep for result, _ in results for rep in result["def1"].values()]
        assert sum(r["certified_count"] for r in reports) > 0
        assert sum(r["thm2_clause_stats"]["low_confidence"] for r in reports) > 0
        assert sum(len(r["violations"]) for r in reports) > 0
        assert sum(sum(result["evaded_samples"].values()) for result, _ in results) > 0
        assert sum(erasure_checks for _, erasure_checks in results) > 0

    @pytest.mark.parametrize("mutate, seeds", [
        (lambda mp: mp.setattr(oracle._VariantMutants, "__iter__",
                               lambda self: iter(self.plan.covered)), (0, 3)),
        (first_clause_only, (4, 8)),
        (lambda mp: mp.setattr(oracle, "zero_masked", leaky_zero_masked), (3, 5, 22)),
        (one_mutant_memo, (4, 7)),
        (any_covered_clause, (0, 8)),
        (label_blind_settle_memo, (12, 17)),
        (modulo_draw, (0, 14)),
        (first_rect_cover, (3, 13)),
    ], ids=["covering-walk-only", "first-clause-only", "leaky-masking", "one-mutant-memo",
            "any-covered-clause", "label-blind-settle-memo", "modulo-draw",
            "first-rect-cover"])
    def test_a_broken_scan_differs_from_the_reference(self, monkeypatch, mutate, seeds):
        # The reference draws through the package too, so it comes first.
        want = [reference(s)[0] for s in seeds]
        mutate(monkeypatch)
        assert any(whole(run_soundness(*drawn(s))) != w for s, w in zip(seeds, want))

    def test_content_values_of_256_or_more_match_the_reference(self):
        """Contents drawn from a whole 300- or 70,000-value alphabet: some
        violations then hold a value of 256 or more, whose digest packs
        each value in four bytes, and some hold none."""
        ms = gen_square_cover((4, 4), 2, 2)
        defenders = [Defender(DefenderSpec("hicert", 0.8), DefenderSpec("doma")),
                     Defender(DefenderSpec("c2"), DefenderSpec("pgpp", 0.6))]
        widest = []
        for seed in range(4):
            for alphabet in (300, 70000):
                rng, clf = random.Random(seed), HashClassifier(seed, 2)
                images = [make_image(rng, 4, 4, 1, alphabet) for _ in range(3)]
                records = [DatasetRecord(f"s{i}", clf.classify(img).label, img)
                           for i, img in enumerate(images)]
                cfg = AttackConfig(ms.spec, "random", trials=150, seed=seed)
                args = (clf, records, ms, defenders, cfg, {CHECK_DEF1, CHECK_RSUC})
                run = run_soundness(*args)
                assert whole(run) == naive.soundness(*args)[0]
                contents = {r.id: [content for _, content, _ in
                                   enumerate_variants(r.image, cfg, r.id)]
                            for r in records}
                widest += [max(contents[v["sample_id"]][v["variant_index"]])
                           for report in run.def1.values() for v in report.violations]
        assert max(widest) >= 256 > min(widest)

    def test_low_confidence_regime_matches_the_naive_scan(self):
        """A 6x6 binary regime where HiCert's low-confidence clause does
        work: the lazy walk must still reach that clause. The reference's
        counts for hicert, its label-difference-only composite and a pgpp
        warner are pinned."""
        records = gen_synthetic_dataset(40, (6, 6), 1, 2, 2, seed=1234)
        ms = gen_square_cover((6, 6), 2, 2)
        assert len(ms.masks) == 4
        hicert = DefenderSpec("hicert", 0.8)
        defenders = [make_defender(hicert), Defender(hicert, DefenderSpec("doma")),
                     Defender(hicert, DefenderSpec("pgpp", 0.6))]
        args = (HashClassifier(seed=7, num_labels=2), records, ms, defenders,
                AttackConfig(patch_spec=ms.spec), {CHECK_DEF1})
        want = naive.soundness(*args)[0]
        assert whole(run_soundness(*args)) == want
        reports = [want["def1"][d.name] for d in defenders]
        assert [r["certified_count"] for r in reports] == [26, 26, 26]
        assert reports[0]["thm2_clause_stats"] == {"label_difference": 5030,
                                                   "low_confidence": 227}
        assert len(reports[1]["violations"]) == 227

    def test_sound_defender_sees_no_violations_where_unsound_does(self):
        clf, img, y0, ms, _, cfg, _ = find_unsound_setup()
        sound = make_defender(DefenderSpec("hicert", 0.8))
        report = certified_detection(clf, img, y0, ms, sound, cfg)
        assert not report.violations

    def test_random_findings_are_a_subset_of_exhaustive(self):
        clf, img, y0, ms, defender, cfg, exhaustive = find_unsound_setup()
        random_cfg = AttackConfig(
            patch_spec=cfg.patch_spec, mode="random", trials=300, seed=17
        )
        sampled = certified_detection(clf, img, y0, ms, defender, random_cfg)
        exhaustive_keys = {
            (tuple(tuple(r) for r in v["placement"]), v["content_digest"])
            for v in exhaustive.violations
        }
        sampled_keys = {
            (tuple(tuple(r) for r in v["placement"]), v["content_digest"])
            for v in sampled.violations
        }
        assert sampled.certified_count == exhaustive.certified_count
        assert sampled_keys  # 300 draws over 32 variants must hit one
        assert sampled_keys <= exhaustive_keys

class TestTheorem1:
    def test_masking_that_keeps_a_patch_byte_is_a_counterexample(self, monkeypatch):
        """Negative control: with a masking that leaves the first byte of
        each mask, the 1x1 patch on that byte survives its covering mask.
        The scan builds no patched or masked image for it: with
        `apply_patch` and `apply_mask` raising, a `def1,thm1` scan
        still runs."""
        clf = HashClassifier(seed=3, num_labels=2)
        img = Image(4, 4, 1, 2, tuple(i % 3 % 2 for i in range(16)))
        ms = gen_square_cover((4, 4), 1, 2)
        first = ms.masks[0]
        # Make the first mask consistent: the sample's label is its mutant's.
        record = DatasetRecord("sample", clf.classify(apply_mask(img, first)).label, img)
        monkeypatch.setattr(oracle, "zero_masked", leaky_zero_masked)

        def refuse(*args):
            raise AssertionError("the scan built a patched or masked image")

        for module in (tensor, oracle):
            for name in ("apply_patch", "apply_mask"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        hicert = make_defender(DefenderSpec("hicert", 0.8))
        for mode in ("exhaustive", "random"):
            cfg = AttackConfig(ms.spec, mode=mode, trials=200, seed=1)
            report = run_soundness(
                clf, [record], ms, [hicert], cfg, checks={CHECK_DEF1, CHECK_THM1}
            ).theorem1
            r = first.rects[0]
            assert {
                "sample_id": "sample",
                "placement": [[r.top, r.left, 1, 1]],
                "mask": 0,
                "reason": "consistent covering mask leaves patch bytes",
            } in report.thm1_violations, mode
            keys = [(str(v["placement"]), v["mask"]) for v in report.thm1_violations]
            assert len(keys) == len(set(keys)), mode


class TestPlacementPlan:
    def test_covering_and_survivors_match_the_dense_mask_grid(self, rng):
        """A plan reads each mask's spans; `Mask.to_matrix` is the reference
        for which masks cover the placement and which content survives, and
        `classify(apply_mask(apply_patch(...)))` for each uncovered mask's
        mutant, which the plan classifies once per content."""

        def random_rect(h, w):
            top, left = rng.randrange(h), rng.randrange(w)
            return Rect(top, left, rng.randint(1, h - top), rng.randint(1, w - left))

        backends = (HashClassifier(seed=5, num_labels=3),
                    LinearClassifier(seed=5, num_labels=3))
        for n in range(300):
            h, w, c = rng.randint(2, 7), rng.randint(2, 7), rng.randint(1, 3)
            img = make_image(rng, h, w, channels=c,
                             alphabet_size=rng.choice((4, 300, 70000)))
            masks = [
                Mask(h, w, tuple(random_rect(h, w) for _ in range(rng.randint(1, 3))))
                for _ in range(4)
            ]
            placement = []
            for _ in range(rng.randint(1, 3)):
                r = random_rect(h, w)
                if not any(r.intersects(p) for p in placement):
                    placement.append(r)
            placement = tuple(placement)
            backend = backends[n % 2]
            clf = CountingClassifier(backend)
            _, scorers, benign = _mutant_scorers(clf, img, masks)
            plan = oracle._PlacementPlan(placement, img, masks, scorers, benign)
            pixels = [
                (y, x)
                for r in placement
                for y in range(r.top, r.bottom)
                for x in range(r.left, r.right)
            ]
            assert plan.positions == [
                (y * w + x) * c + ch for y, x in pixels for ch in range(c)
            ]
            for i, mask in enumerate(masks):
                grid = mask.to_matrix()
                kept = tuple(
                    k * c + ch
                    for k, (y, x) in enumerate(pixels)
                    if not grid[y][x]
                    for ch in range(c)
                )
                assert (i in plan.covering) == (not kept)
                assert (i in plan.uncovered) == bool(kept)
                if kept:
                    assert plan.survivors(mask) == kept
            assert plan.covered == tuple(benign.mutants[i] for i in plan.covering)
            for i in plan.uncovered:
                for _ in range(3):
                    content = [rng.randrange(img.alphabet_size) for _ in plan.positions]
                    want = backend.classify(
                        apply_mask(apply_patch(img, placement, content), masks[i])
                    )
                    assert plan.mutant(i, content) == want
                    calls = clf.calls
                    assert plan.mutant(i, content) == want
                    assert clf.calls == calls


class TestRunSoundness:
    def make_grid(self):
        records = gen_synthetic_dataset(4, (3, 3), 1, 2, 2, seed=13)
        ms = gen_square_cover((3, 3), 1, 2)
        clf = HashClassifier(seed=13, num_labels=2)
        cfg = square_cfg(3, 3, 1)
        defenders = [
            make_defender(DefenderSpec("hicert", 0.5)),
            make_defender(DefenderSpec("doma")),
        ]
        return clf, records, ms, defenders, cfg

    def test_joint_run_covers_all_defenders(self):
        clf, records, ms, defenders, cfg = self.make_grid()
        run = run_soundness(
            clf, records, ms, defenders, cfg, checks={CHECK_DEF1, CHECK_THM1}
        )
        assert run.samples == 4
        assert set(run.def1) == {"hicert(tau=0.5)", "doma"}
        for rep in run.def1.values():
            assert rep.samples_checked == 4
            assert rep.violations == []
        assert run.theorem1 is not None
        assert run.theorem1.thm1_violations == []

    def test_workers_do_not_change_the_result(self):
        """Two workers give the reference's whole result on drawn
        configurations of two or more records."""
        for seed in (8, 13, 23):
            assert len(drawn(seed)[1]) >= 2
            pooled = run_soundness(*drawn(seed), workers=2)
            assert whole(pooled) == reference(seed)[0], seed

    def test_trivial_threshold_certifies_everything_soundly(self):
        clf, records, ms, _, cfg = self.make_grid()
        trivial = make_defender(DefenderSpec("hicert", 1.0))
        run = run_soundness(clf, records, ms, [trivial], cfg)
        rep = run.def1[trivial.name]
        assert rep.certified_count == 4
        assert rep.violations == []

    def test_uncertified_samples_are_skipped(self):
        """An always-rejecting certifier classifies each sample's benign
        profile and nothing else, with or without thm1; the reports still
        count every variant in scope."""
        clf, records, ms, _, cfg = self.make_grid()
        never = make_defender(DefenderSpec("pgpp", 1.0))
        in_scope = len(records) * count_variants(records[0].image, cfg)[0]
        for checks in ({CHECK_DEF1}, {CHECK_DEF1, CHECK_THM1}):
            counting = CountingClassifier(clf)
            run = run_soundness(counting, records, ms, [never], cfg, checks=checks)
            rep = run.def1[never.name]
            assert rep.certified_count == 0
            assert rep.variants_evaluated == in_scope
            assert counting.calls == len(records) * (1 + len(ms.masks)), checks

    def test_covering_mutants_settle_variants_without_a_call(self):
        """On a certified sample the scan classifies the benign profile,
        every variant, and only the mutants a covering-first walk reaches:
        the masks that cover the patch give back benign mutants for free,
        and a walk stops at its first label difference. Each distinct
        (placement, mask, surviving bytes) mutant costs one call."""
        records = gen_synthetic_dataset(40, (6, 6), 1, 2, 2, seed=1234)
        ms = gen_square_cover((6, 6), 2, 2)
        clf = HashClassifier(seed=7, num_labels=2)
        cfg = AttackConfig(patch_spec=ms.spec)
        defender = make_defender(DefenderSpec("hicert", 0.8))
        record = next(
            r for r in records
            if defender.certify(classify_mutants(clf, r.image, ms), r.true_label)
        )
        benign = classify_mutants(clf, record.image, ms)

        # Keys of the mutants the covering-first walk reaches, and of all
        # uncovered mutants of harmful variants (what whole profiles need).
        reached, whole = set(), set()
        variants = settled_for_free = 0
        for placement, _, variant in enumerate_variants(record.image, cfg):
            variants += 1
            label = clf.classify(variant).label
            if label == record.true_label:
                continue
            covering = [i for i, m in enumerate(ms.masks) if mask_covers(m, placement)]
            uncovered = [i for i in range(len(ms.masks)) if i not in covering]
            keys = [(placement, i, apply_mask(variant, ms.masks[i]).packed)
                    for i in uncovered]
            whole.update(keys)
            if any(benign.mutants[i].label != label for i in covering):
                settled_for_free += 1
                continue
            for i, key in zip(uncovered, keys):
                reached.add(key)
                if clf.classify(apply_mask(variant, ms.masks[i])).label != label:
                    break
        assert settled_for_free > 0
        assert len(reached) < len(whole)

        counting = CountingClassifier(clf)
        run = run_soundness(counting, [record], ms, [defender], cfg)
        assert run.def1[defender.name].violations == []
        assert counting.calls == 1 + len(ms.masks) + variants + len(reached)

    @pytest.mark.parametrize("first", [True, False], ids=["settle", "judge"])
    def test_a_rule_that_reads_a_variant_confidence_fails_loudly(self, monkeypatch, first):
        """Harmful variants are scored for their label alone, so their
        confidence is None: a planted HiCert clause that compares it with
        tau raises, whether the settle helper (first clause) or the
        mutant walk (second clause, after a silent label difference)
        reaches it."""
        hicert = defenders._FAMILIES["hicert"]
        own_confidence = lambda profile, tau: profile.base.confidence < tau
        clauses = hicert.warn_clauses
        planted = (own_confidence, clauses[0]) if first else (clauses[0], own_confidence)
        monkeypatch.setitem(defenders._FAMILIES, "hicert",
                            hicert._replace(warn_clauses=planted))
        records = gen_synthetic_dataset(40, (6, 6), 1, 2, 2, seed=1234)
        ms = gen_square_cover((6, 6), 2, 2)
        defender = make_defender(DefenderSpec("hicert", 0.8))
        with pytest.raises(TypeError, match="NoneType"):
            run_soundness(HashClassifier(seed=7, num_labels=2), records, ms,
                          [defender], AttackConfig(patch_spec=ms.spec))

    def test_uncertified_samples_consume_no_content(self, monkeypatch):
        """With no defender to warn-check, the scan walks placements
        only: it draws no patch content, and its thm1 report equals the
        one of a run that walks every variant. The leaky masking gives
        that report counterexamples to compare."""
        clf, records, ms, _, cfg = self.make_grid()
        monkeypatch.setattr(oracle, "zero_masked", leaky_zero_masked)
        consumed = []
        product = oracle.itertools.product

        def counting_product(*args, **kwargs):
            for content in product(*args, **kwargs):
                consumed.append(content)
                yield content

        monkeypatch.setattr(oracle.itertools, "product", counting_product)
        always = make_defender(DefenderSpec("hicert", 1.0))
        walked = run_soundness(
            clf, records, ms, [always], cfg, checks={CHECK_DEF1, CHECK_THM1}
        ).theorem1.to_dict()
        assert consumed and walked["thm1_violations"]
        never = make_defender(DefenderSpec("pgpp", 1.0))
        for checks in ({CHECK_THM1}, {CHECK_DEF1, CHECK_THM1}):
            consumed.clear()
            run = run_soundness(clf, records, ms, [never], cfg, checks=checks)
            assert consumed == [], checks
            assert run.theorem1.to_dict() == walked

    def test_run_is_the_fold_of_one_sample_runs(self):
        """A run over N records is the fold of the N one-record runs, in
        dataset order; `TestEngineAgainstNaive` checks the sums against
        the reference. At this seed three samples carry violations and
        two evade the second defender."""
        records = gen_synthetic_dataset(12, (4, 4), 1, 2, 2, seed=5)
        ms = gen_square_cover((4, 4), 1, 2)
        clf = HashClassifier(seed=5, num_labels=2)
        cfg = square_cfg(4, 4, 1)
        defenders = [
            Defender(DefenderSpec("c2"), DefenderSpec("pgpp", 0.99)),
            make_defender(DefenderSpec("hicert", 0.5)),
        ]
        checks = {CHECK_DEF1, CHECK_THM1, CHECK_RSUC}
        joint = run_soundness(clf, records, ms, defenders, cfg, checks=checks)
        parts = [
            run_soundness(clf, [r], ms, defenders, cfg, checks=checks)
            for r in records
        ]
        assert functools.reduce(SoundnessRun.merge, parts) == joint
        assert joint.samples == 12
        assert joint.theorem1.thm1_violations == []
        violators = [v["sample_id"] for v in joint.def1[defenders[0].name].violations]
        assert sorted(set(violators)) == ["s00001", "s00007", "s00011"]
        assert violators == sorted(violators)
        assert joint.evaded_samples[defenders[1].name] == 2

    def test_validation_errors(self):
        clf, records, ms, defenders, cfg = self.make_grid()
        with pytest.raises(InvalidInputError):
            run_soundness(clf, records, ms, defenders, cfg, checks={"def2"})
        with pytest.raises(InvalidInputError):
            run_soundness(clf, [], ms, defenders, cfg)
        with pytest.raises(InvalidInputError):
            run_soundness(clf, records, ms, defenders + defenders, cfg)
        flip = make_defender(DefenderSpec("hicert_flip", 0.5))
        with pytest.raises(UnsupportedOperationError):
            run_soundness(clf, records, ms, [flip], cfg)

    def test_table_classifier_is_rejected(self):
        _, records, ms, defenders, cfg = self.make_grid()
        profile = MutantProfile(Prediction(0, 0.5), (Prediction(0, 0.5),))
        table = TableClassifier({"s00000": profile})
        with pytest.raises(InvalidInputError):
            run_soundness(table, records, ms, defenders, cfg)


class TestProfileFixtureCheck:
    def load(self):
        return load_profile_fixture(str(DATA_DIR / "negative_control.json"))

    def test_unsound_composite_finds_exactly_one_violation(self):
        fixture = self.load()
        unsound = Defender(
            DefenderSpec("hicert", 0.8), DefenderSpec("doma")
        )
        report = check_profile_fixture(fixture, unsound)
        assert report.certified_count == 1
        assert report.variants_evaluated == 1
        assert len(report.violations) == 1
        assert report.violations[0]["variant_id"] == "x-patched"

    def test_a_variant_that_keeps_the_true_label_is_skipped(self, tmp_path):
        """A harmless variant is no violation, even for a warner that
        lets it through: only `x-patched` evades DOMA."""
        doc = json.loads((DATA_DIR / "negative_control.json").read_text())
        doc["variants"].append("x-harmless")
        doc["rows"] += [
            {"sample_id": "x-harmless", "variant": variant, "label": 0, "confidence": 0.9}
            for variant in ("base", {"mask_index": 0}, {"mask_index": 1})
        ]
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(doc))
        unsound = Defender(DefenderSpec("hicert", 0.8), DefenderSpec("doma"))
        report = check_profile_fixture(load_profile_fixture(str(path)), unsound)
        assert report.variants_evaluated == 2
        assert [v["variant_id"] for v in report.violations] == ["x-patched"]
        assert sum(report.thm2_clause_stats.values()) == 0

    def test_matching_warner_catches_the_variant(self):
        fixture = self.load()
        sound = make_defender(DefenderSpec("hicert", 0.8))
        report = check_profile_fixture(fixture, sound)
        assert report.violations == []
        # the mutants agree with the arriving label, so the catch comes
        # from the low-confidence clause
        assert report.thm2_clause_stats["low_confidence"] == 1
        assert report.thm2_clause_stats["label_difference"] == 0

    def test_uncertified_fixture_scans_nothing(self):
        # `variants_evaluated` counts the fixture's variants either way.
        fixture = self.load()
        strict = make_defender(DefenderSpec("pgpp", 0.99))
        report = check_profile_fixture(fixture, strict)
        assert report.certified_count == 0
        assert report.variants_evaluated == 1
        assert report.violations == []
        assert report.thm2_clause_stats == {"label_difference": 0, "low_confidence": 0}

    def test_flip_defender_rejected(self):
        fixture = self.load()
        flip = make_defender(DefenderSpec("pgpp_flip", 0.5))
        with pytest.raises(UnsupportedOperationError):
            check_profile_fixture(fixture, flip)
