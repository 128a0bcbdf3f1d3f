"""Deterministic classifier backends."""
import hashlib
import json
import math
import random
import tracemalloc

import pytest

from patchcert.classifiers import (
    CONFIDENCE_EPSILON,
    HashClassifier,
    LinearClassifier,
    Prediction,
    TableClassifier,
    _seeded_weights,
    classify_mutants,
)
from patchcert.cover import MaskSet, gen_square_cover
from patchcert.dataset_io import gen_synthetic_dataset, load_predictions, \
    save_predictions
from patchcert.defenders import MutantProfile
from patchcert.errors import DimensionMismatchError, InvalidInputError, TableLookupError, \
    ValueOutOfRangeError
from patchcert.tensor import Image, Mask, Rect, apply_mask, write_packed, zero_masked

from conftest import make_image


class TestPrediction:
    """Predictions are plain values. Pixel backends clamp confidences;
    a prediction read from a file is checked by the table loader."""

    def assert_row_rejected(self, tmp_path, label, confidence):
        path = tmp_path / "preds.jsonl"
        rows = [{"sample_id": "a", "variant": {"mask_index": 0},
                 "label": 0, "confidence": 0.5},
                {"sample_id": "a", "variant": "base",
                 "label": label, "confidence": confidence}]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        with pytest.raises(ValueOutOfRangeError) as exc:
            load_predictions(str(path))
        assert f"{path}:2:" in str(exc.value)

    def test_rejects_negative_label(self, tmp_path):
        self.assert_row_rejected(tmp_path, -1, 0.5)

    @pytest.mark.parametrize("conf", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_confidence_outside_open_interval(self, tmp_path, conf):
        self.assert_row_rejected(tmp_path, 0, conf)

    @pytest.mark.parametrize("clf", [HashClassifier(7, 5), LinearClassifier(7, 5)],
                             ids=["hash", "linear"])
    def test_packed_path_returns_the_classify_prediction(self, clf, rng):
        for alphabet in (4, 300):  # one- and two-byte pixels
            img = make_image(rng, 4, 4, channels=2, alphabet_size=alphabet)
            pred = clf._predict_packed(img.packed, img.bytes_per_pixel)
            assert type(pred) is Prediction
            assert pred == clf.classify(img)


class TestHashClassifier:
    def test_deterministic_across_instances(self, rng):
        a = HashClassifier(seed=7, num_labels=5)
        b = HashClassifier(seed=7, num_labels=5)
        for _ in range(20):
            img = make_image(rng, 4, 4)
            assert a.classify(img) == b.classify(img)

    def test_seed_changes_the_function(self, rng):
        a = HashClassifier(seed=7, num_labels=5)
        b = HashClassifier(seed=8, num_labels=5)
        images = [make_image(rng, 4, 4) for _ in range(50)]
        assert any(a.classify(i).label != b.classify(i).label for i in images)

    def test_labels_in_range_and_confidence_bounds(self, rng):
        clf = HashClassifier(seed=3, num_labels=7)
        hi = 65536 / 65538  # largest raw confidence the digest can produce
        for _ in range(300):
            pred = clf.classify(make_image(rng, 3, 3))
            assert 0 <= pred.label < 7
            assert CONFIDENCE_EPSILON <= pred.confidence <= hi

    def test_every_label_is_reachable(self, rng):
        clf = HashClassifier(seed=11, num_labels=5)
        counts = [0] * 5
        for _ in range(2000):
            counts[clf.classify(make_image(rng, 3, 3)).label] += 1
        assert min(counts) > 2000 * 0.10

    def test_single_pixel_flip_changes_some_label(self):
        clf = HashClassifier(seed=5, num_labels=5)
        base = Image(4, 4, 1, 4, (0,) * 16)
        base_label = clf.classify(base).label
        flipped = []
        for i in range(16):
            pixels = [0] * 16
            pixels[i] = 1
            flipped.append(clf.classify(Image(4, 4, 1, 4, tuple(pixels))).label)
        assert any(lbl != base_label for lbl in flipped)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidInputError):
            HashClassifier(seed=0, num_labels=1)
        with pytest.raises(InvalidInputError):
            HashClassifier(seed=2**64, num_labels=2)
        with pytest.raises(InvalidInputError):
            HashClassifier(seed=-1, num_labels=2)


class TestLinearClassifier:
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_a_seed_outside_64_bits(self, seed):
        with pytest.raises(InvalidInputError, match="seed must fit in 64 bits"):
            LinearClassifier(seed=seed, num_labels=2)

    def test_rejects_a_single_label(self):
        with pytest.raises(InvalidInputError, match="num_labels must be at least 2"):
            LinearClassifier(seed=0, num_labels=1)

    def test_hand_computed_two_label_model(self):
        clf = LinearClassifier(seed=0, num_labels=2, weights=((1,), (0,)))
        zero = Image(1, 1, 1, 4, (0,))
        one = Image(1, 1, 1, 4, (1,))
        # logits (0, 0): tie goes to the lowest index, softmax is uniform
        assert clf.classify(zero) == Prediction(0, 0.5)
        # logits (1, 0): winner 0 with softmax 1 / (1 + e^-1)
        pred = clf.classify(one)
        assert pred.label == 0
        assert pred.confidence == pytest.approx(1.0 / (1.0 + math.exp(-1.0)))

    def test_temperature_flattens_confidence(self):
        sharp = LinearClassifier(0, 2, weights=((1,), (0,)))
        flat = LinearClassifier(0, 2, weights=((1,), (0,)), temperature=2.0)
        img = Image(1, 1, 1, 4, (1,))
        assert flat.classify(img).confidence < sharp.classify(img).confidence
        assert flat.classify(img).confidence == pytest.approx(
            1.0 / (1.0 + math.exp(-0.5))
        )

    def test_extreme_logits_clamp_below_one(self):
        clf = LinearClassifier(0, 2, weights=((1000,), (0,)))
        pred = clf.classify(Image(1, 1, 1, 4, (3,)))
        assert pred.confidence == 1.0 - CONFIDENCE_EPSILON

    def test_confidence_bits_do_not_depend_on_the_interpreter(self):
        """Walkthrough sample s00022 under the linear model; the softmax
        denominator is summed left to right, so Python 3.12 and later
        give the same bits as 3.11, where the builtin sum differed."""
        record = gen_synthetic_dataset(100, (8, 8), 1, 4, 5, seed=1234)[22]
        assert record.id == "s00022"
        pred = LinearClassifier(seed=7, num_labels=5).classify(record.image)
        assert pred == Prediction(3, 0.9975106459357607)

    def test_seeded_weights_are_reproducible(self, rng):
        a = LinearClassifier(seed=42, num_labels=3)
        b = LinearClassifier(seed=42, num_labels=3)
        img = make_image(rng, 5, 5)
        assert a.classify(img) == b.classify(img)

    @pytest.mark.parametrize("seed, labels, features", [
        (0, 2, 1), (7, 5, 64), (42, 3, 300), (7, 3, 224 * 224 * 3),
    ])
    def test_seeded_weights_are_the_randrange_stream(self, seed, labels, features):
        """The batched draw gives the weights of a `randrange(-8, 9)` loop
        over the same seeded generator, row by row."""
        digest = hashlib.blake2b(
            b"linear-weights", digest_size=8, key=seed.to_bytes(8, "little")
        ).digest()
        rng = random.Random(int.from_bytes(digest, "little") + features)
        want = tuple(
            tuple(rng.randrange(-8, 9) for _ in range(features)) for _ in range(labels)
        )
        assert _seeded_weights.__wrapped__(seed, labels, features) == want

    def test_rejects_weight_shape_mismatch(self):
        clf = LinearClassifier(0, 2, weights=((1,), (0,)))
        with pytest.raises(InvalidInputError):
            clf.classify(Image(1, 2, 1, 4, (0, 1)))
        with pytest.raises(InvalidInputError):
            LinearClassifier(0, 3, weights=((1,), (0,)))
        # A short row would drop the pixels past its end from its logit.
        with pytest.raises(InvalidInputError,
                           match="^weight rows must all have the same length$"):
            LinearClassifier(0, 2, weights=((1, 0, 0, 0), (0, 0, 0)))

    def test_rejects_bad_temperature(self):
        with pytest.raises(InvalidInputError):
            LinearClassifier(0, 2, temperature=0.0)


def random_mask(rng, h, w):
    """One to three rects: disjoint, overlapping or nested as they fall."""
    rects = []
    for _ in range(rng.randint(1, 3)):
        top, left = rng.randrange(h), rng.randrange(w)
        rects.append(Rect(top, left, rng.randint(1, h - top), rng.randint(1, w - left)))
    return Mask(h, w, tuple(rects))


def scorer_backend(rng, seed, features):
    """The backend a seed draws: hash, or linear with seeded or explicit
    weights, at one of two temperatures."""
    labels = rng.randint(2, 5)
    kind = seed % 3
    if kind == 0:
        return HashClassifier(seed, labels)
    weights = None
    if kind == 2:
        weights = tuple(
            tuple(rng.randrange(-9, 10) for _ in range(features))
            for _ in range(labels)
        )
    return LinearClassifier(seed, labels, weights, rng.choice((1.0, 3.7)))


class TestScorers:
    """Every scorer, bit for bit against `_predict_packed` on real bytes,
    and its label-only path against that prediction's label."""

    def check(self, clf, scorer, data, bpp, positions, values):
        buf = bytearray(data)
        write_packed(buf, positions, values, bpp)
        want = clf._predict_packed(bytes(buf), bpp)
        got = scorer.at(positions)(values)
        assert (got.label, got.confidence.hex()) == (want.label, want.confidence.hex())
        assert scorer.label_at(positions)(values) == want.label

    @pytest.mark.parametrize("seed", range(90))
    def test_scorers_match_the_packed_reference(self, seed):
        rng = random.Random(seed)
        alphabet = (4, 300, 70000)[seed // 3 % 3]  # 1, 2 and 4 bytes a pixel
        h, w, c = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 3)
        img = make_image(rng, h, w, channels=c, alphabet_size=alphabet)
        n, bpp = h * w * c, img.bytes_per_pixel
        clf = scorer_backend(rng, seed, n)
        base = clf._scorer(img.packed, bpp)
        assert base.prediction() == clf._predict_packed(img.packed, bpp)

        mask = random_mask(rng, h, w)
        masked = base.masked(mask, c)
        masked_data = apply_mask(img, mask).packed
        assert masked.prediction() == clf._predict_packed(masked_data, bpp)

        under = [p for p in range(n) if masked_data[p * bpp:(p + 1) * bpp] == bytes(bpp)
                 and img.pixels[p]]
        for scorer, data in ((base, img.packed), (masked, masked_data)):
            self.check(clf, scorer, data, bpp, [], [])
            for k in (1, rng.randint(1, n), n):  # single, some, all
                positions = rng.sample(range(n), k)
                if under and scorer is not base:
                    positions[0] = rng.choice(under)  # a position the mask zeroed
                    positions = list(dict.fromkeys(positions))
                values = [rng.randrange(alphabet) for _ in positions]
                self.check(clf, scorer, data, bpp, positions, values)
            # A score closure is reusable: it keeps no state between calls.
            positions = rng.sample(range(n), rng.randint(1, n))
            score, label = scorer.at(positions), scorer.label_at(positions)
            for _ in range(3):
                values = [rng.randrange(alphabet) for _ in positions]
                buf = bytearray(data)
                write_packed(buf, positions, values, bpp)
                want = clf._predict_packed(bytes(buf), bpp)
                assert score(values) == want
                assert label(values) == want.label

    def test_label_path_breaks_ties_to_the_lowest_label(self):
        """Labels 1 and 2 share a weight row that outscores labels 0 and 3
        on these pixels, so every path answers 1, never the highest of
        the tied labels."""
        weights = ((0, 0, 0, 0), (1, 2, 0, 1), (1, 2, 0, 1), (-1, 0, 0, 0))
        clf = LinearClassifier(0, 4, weights)
        img = Image(2, 2, 1, 4, (3, 1, 2, 0))
        base = clf._scorer(img.packed, 1)
        mask = Mask(2, 2, (Rect(0, 0, 1, 1),))
        masked = base.masked(mask, 1)
        for scorer, data in ((base, img.packed), (masked, apply_mask(img, mask).packed)):
            for positions, values in (([], []), ([0, 3], [2, 1])):
                self.check(clf, scorer, data, 1, positions, values)
                assert scorer.label_at(positions)(values) == 1

    def test_overlapping_and_compound_masks(self):
        """A pixel under two rects of one mask is zeroed, and its terms
        removed, once."""
        rng = random.Random(3)
        img = make_image(rng, 6, 6, channels=2, alphabet_size=9)
        masks = [
            Mask(6, 6, (Rect(1, 1, 3, 3), Rect(2, 2, 3, 3))),  # overlapping
            Mask(6, 6, (Rect(0, 0, 4, 4), Rect(1, 1, 2, 2))),  # nested
            Mask(6, 6, (Rect(0, 0, 2, 2), Rect(4, 3, 2, 3))),  # compound, apart
            Mask(6, 6, (Rect(0, 0, 1, 6), Rect(1, 0, 1, 6))),  # adjacent rows
        ]
        for clf in (LinearClassifier(5, 4), LinearClassifier(6, 3, temperature=0.4),
                    HashClassifier(5, 4)):
            base = clf._scorer(img.packed, 1)
            for mask in masks:
                data = apply_mask(img, mask).packed
                masked = base.masked(mask, 2)
                assert masked.prediction() == clf._predict_packed(data, 1)
                positions = list(range(0, 72, 5))
                values = [rng.randrange(9) for _ in positions]
                self.check(clf, masked, data, 1, positions, values)


class TestTableClassifier:
    def build(self, tmp_path):
        """A table loaded from rows written out of mask order."""
        path = tmp_path / "preds.jsonl"
        save_predictions([
            ("a", 1, Prediction(2, 0.6)),
            ("a", "base", Prediction(1, 0.9)),
            ("a", 0, Prediction(1, 0.8)),
        ], str(path))
        return load_predictions(str(path))

    def test_lookup_and_profile_order(self, tmp_path):
        profile = self.build(tmp_path).profile_for("a")
        assert profile.base == Prediction(1, 0.9)
        assert profile.mutants == (Prediction(1, 0.8), Prediction(2, 0.6))

    def test_missing_key_is_an_error(self, tmp_path):
        clf = self.build(tmp_path)
        with pytest.raises(TableLookupError) as exc:
            clf.profile_for("b")
        assert "'b', variant 'base'" in str(exc.value)


class TestClassifyMutants:
    def test_matches_manual_masking(self, rng):
        clf = HashClassifier(seed=9, num_labels=5)
        ms = gen_square_cover((8, 8), 2, 3)
        img = make_image(rng, 8, 8)
        profile = classify_mutants(clf, img, ms)
        assert profile.base == clf.classify(img)
        assert len(profile.mutants) == 9
        for got, mask in zip(profile.mutants, ms.masks):
            assert got == clf.classify(apply_mask(img, mask))

    def test_full_plane_mask_erases_the_input(self, rng):
        """Any two inputs agree on the mutant of an all-covering mask."""
        clf = HashClassifier(seed=9, num_labels=5)
        ms = gen_square_cover((6, 6), 6, 1)  # one full-plane mask
        p1 = classify_mutants(clf, make_image(rng, 6, 6), ms)
        p2 = classify_mutants(clf, make_image(rng, 6, 6), ms)
        assert p1.mutants == p2.mutants

    def test_table_backend_requires_sample_id(self):
        profile = MutantProfile(Prediction(0, 0.5), (Prediction(0, 0.5),))
        clf = TableClassifier({"a": profile})
        ms = MaskSet(
            (Mask(4, 4, (Rect(0, 0, 4, 4),)),),
            spec=gen_square_cover((4, 4), 4, 1).spec,
            masks_per_axis=1,
        )
        profile = classify_mutants(clf, None, ms, sample_id="a")
        assert profile.base == Prediction(0, 0.5)
        with pytest.raises(InvalidInputError):
            classify_mutants(clf, None, ms)

    def test_table_backend_checks_mask_count(self):
        profile = MutantProfile(Prediction(0, 0.5), (Prediction(0, 0.5),))
        clf = TableClassifier({"a": profile})
        ms = gen_square_cover((8, 8), 2, 3)
        with pytest.raises(InvalidInputError) as exc:
            classify_mutants(clf, None, ms, sample_id="a")
        assert "table holds 1 mutant columns, mask set has 9" in str(exc.value)

    def test_linear_profile_at_paper_scale(self):
        """One 224x224x3 sample under 36 masks: the scorer profile equals
        the `_predict_packed(zero_masked(...))` reference and allocates
        little more than it. Between masks the reference keeps only
        predictions, so its peak is that of one mutant."""
        img = make_image(random.Random(5), 224, 224, channels=3, alphabet_size=256)
        ms = gen_square_cover((224, 224), 32, 6)
        clf = LinearClassifier(seed=7, num_labels=2)
        predict = clf._predict_packed
        want = MutantProfile(
            predict(img.packed, 1),
            tuple(predict(zero_masked(img.packed, m, 3, 1), 1) for m in ms.masks),
        )
        tracemalloc.start()
        try:
            predict(zero_masked(img.packed, ms.masks[0], 3, 1), 1)
            _, reference_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            got = classify_mutants(clf, img, ms)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak - reference_peak < 20 * 2**20

    def test_mask_on_another_plane_is_refused(self, rng):
        ms = gen_square_cover((8, 8), 2, 3)
        for clf in (HashClassifier(1, 2), LinearClassifier(1, 2)):
            with pytest.raises(DimensionMismatchError):
                classify_mutants(clf, make_image(rng, 8, 6), ms)

    def test_image_backend_requires_pixels(self):
        clf = HashClassifier(seed=1, num_labels=2)
        ms = gen_square_cover((4, 4), 2, 2)
        with pytest.raises(InvalidInputError):
            classify_mutants(clf, None, ms)
