"""On-disk formats: datasets, mask sets, prediction tables, records, fixtures."""
import json
import pathlib
import random
from multiprocessing.reduction import ForkingPickler
import tracemalloc

import pytest

from patchcert.classifiers import HashClassifier, Prediction
from patchcert.cover import gen_multi_cover, gen_square_cover
from patchcert.dataset_io import (
    gen_synthetic_dataset,
    load_dataset,
    load_maskset,
    load_predictions,
    load_profile_fixture,
    load_records,
    save_dataset,
    save_maskset,
    save_predictions,
    save_records,
    save_report,
)
from patchcert.defenders import MutantProfile, Verdict
from patchcert.errors import (
    DuplicateKeyError,
    FileFormatError,
    InvalidInputError,
    MalformedLineError,
    SchemaViolationError,
    ValueOutOfRangeError,
)
from patchcert.metrics import EvalRecord

DATA_DIR = pathlib.Path(__file__).parent / "data"


class TestSyntheticDataset:
    def test_round_trip_is_lossless(self, tmp_path):
        records = gen_synthetic_dataset(5, (4, 4), 1, 4, 3, seed=11)
        path = tmp_path / "ds.jsonl"
        save_dataset(records, str(path))
        assert load_dataset(str(path)) == records

    def test_same_seed_same_bytes(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        save_dataset(gen_synthetic_dataset(8, (4, 4), 1, 4, 3, seed=5), str(a))
        save_dataset(gen_synthetic_dataset(8, (4, 4), 1, 4, 3, seed=5), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_the_data(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        save_dataset(gen_synthetic_dataset(8, (4, 4), 1, 4, 3, seed=5), str(a))
        save_dataset(gen_synthetic_dataset(8, (4, 4), 1, 4, 3, seed=6), str(b))
        assert a.read_bytes() != b.read_bytes()

    def test_classifier_labels_match_the_hash_backend(self):
        records = gen_synthetic_dataset(30, (4, 4), 1, 4, 5, seed=9)
        clf = HashClassifier(seed=9, num_labels=5)
        for r in records:
            assert clf.classify(r.image).label == r.true_label

    def test_uniform_labels_are_roughly_balanced(self):
        records = gen_synthetic_dataset(
            1000, (4, 4), 1, 4, 4, seed=3, label_mode="uniform"
        )
        counts = [0, 0, 0, 0]
        for r in records:
            counts[r.true_label] += 1
        for c in counts:
            assert abs(c / 1000 - 0.25) < 0.05

    @pytest.mark.parametrize("label_mode", ["classifier", "uniform"])
    @pytest.mark.parametrize("alphabet", [2, 4, 256, 300, 2**32])
    def test_pixels_and_labels_are_the_randrange_stream(self, alphabet, label_mode):
        """Each sample's pixels, drawn in word batches, are those of a
        `randrange` loop; a uniform label is that generator's next draw."""
        records = gen_synthetic_dataset(
            4, (3, 5), 2, alphabet, 7, seed=13, label_mode=label_mode
        )
        rng = random.Random(13)
        labeler = HashClassifier(seed=13, num_labels=7)
        for r in records:
            assert r.image.pixels == tuple(rng.randrange(alphabet) for _ in range(30))
            if label_mode == "uniform":
                assert r.true_label == rng.randrange(7)
            else:
                assert r.true_label == labeler.classify(r.image).label

    def test_loaded_samples_hold_little_more_than_their_packed_bytes(self, tmp_path):
        """A loaded image keeps only its packed bytes, not a decoded copy."""
        path = tmp_path / "ds.jsonl"
        save_dataset(gen_synthetic_dataset(8, (32, 32), 3, 256, 3, seed=2), str(path))
        tracemalloc.start()
        try:
            records = load_dataset(str(path))
            alive = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        packed = sum(len(r.image.packed) for r in records)
        assert packed == 8 * 32 * 32 * 3
        assert alive < 2 * packed

    def test_a_pickled_record_ships_its_packed_bytes_only(self):
        """What the worker pool sends per sample: the record loads back
        equal, and its pickle is its packed bytes plus a little."""
        record = gen_synthetic_dataset(1, (32, 32), 3, 256, 3, seed=2)[0]
        blob = ForkingPickler.dumps(record)
        assert ForkingPickler.loads(blob) == record
        assert len(blob) < len(record.image.packed) + 1024

    def test_ids_are_stable(self):
        records = gen_synthetic_dataset(3, (2, 2), 1, 4, 2, seed=0)
        assert [r.id for r in records] == ["s00000", "s00001", "s00002"]

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidInputError):
            gen_synthetic_dataset(0, (4, 4), 1, 4, 2, seed=0)
        with pytest.raises(InvalidInputError):
            gen_synthetic_dataset(1, (4, 4), 1, 4, 2, seed=0, label_mode="fixed")


class TestDatasetErrors:
    def write(self, tmp_path, lines):
        path = tmp_path / "ds.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        return str(path)

    def good_line(self, rid="s0"):
        return json.dumps(
            {
                "format_version": 1,
                "id": rid,
                "label": 0,
                "shape": [1, 2, 1],
                "alphabet": 4,
                "pixels": [0, 1],
            }
        )

    def test_malformed_json_carries_the_line_number(self, tmp_path):
        path = self.write(tmp_path, [self.good_line(), "{not json"])
        with pytest.raises(MalformedLineError) as exc:
            load_dataset(path)
        assert exc.value.line == 2
        assert path in str(exc.value)

    def test_missing_field(self, tmp_path):
        doc = json.loads(self.good_line())
        del doc["label"]
        path = self.write(tmp_path, [json.dumps(doc)])
        with pytest.raises(SchemaViolationError) as exc:
            load_dataset(path)
        assert "label" in str(exc.value)

    def test_bool_is_not_an_int(self, tmp_path):
        doc = json.loads(self.good_line())
        doc["label"] = True
        path = self.write(tmp_path, [json.dumps(doc)])
        with pytest.raises(SchemaViolationError):
            load_dataset(path)

    def test_duplicate_id(self, tmp_path):
        path = self.write(tmp_path, [self.good_line("s0"), self.good_line("s0")])
        with pytest.raises(DuplicateKeyError) as exc:
            load_dataset(path)
        assert exc.value.line == 2

    @pytest.mark.parametrize("pixel", [1.5, True, "1", None])
    def test_non_integer_pixel_names_the_line(self, tmp_path, pixel):
        doc = json.loads(self.good_line("s1"))
        doc["pixels"] = [0, pixel]
        path = self.write(tmp_path, [self.good_line(), json.dumps(doc)])
        with pytest.raises(SchemaViolationError) as exc:
            load_dataset(path)
        assert exc.value.line == 2
        assert path in str(exc.value)

    def test_pixel_out_of_alphabet(self, tmp_path):
        doc = json.loads(self.good_line())
        doc["pixels"] = [0, 4]
        path = self.write(tmp_path, [json.dumps(doc)])
        with pytest.raises(ValueOutOfRangeError):
            load_dataset(path)

    def test_unsupported_version(self, tmp_path):
        doc = json.loads(self.good_line())
        doc["format_version"] = 2
        path = self.write(tmp_path, [json.dumps(doc)])
        with pytest.raises(SchemaViolationError):
            load_dataset(path)

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, [])
        with pytest.raises(SchemaViolationError) as exc:
            load_dataset(path)
        assert exc.value.line == 0

    def test_non_object_line(self, tmp_path):
        path = self.write(tmp_path, ["[1, 2]"])
        with pytest.raises(SchemaViolationError):
            load_dataset(path)


class TestMaskSetFormat:
    def test_square_cover_round_trip(self, tmp_path):
        ms = gen_square_cover((8, 8), 2, 3)
        path = tmp_path / "masks.json"
        save_maskset(ms, str(path))
        assert load_maskset(str(path)) == ms

    def test_compound_cover_round_trip(self, tmp_path):
        ms = gen_multi_cover(gen_square_cover((8, 8), 2, 2), 2)
        path = tmp_path / "masks.json"
        save_maskset(ms, str(path))
        loaded = load_maskset(str(path))
        assert loaded == ms
        assert loaded.compound

    def test_save_is_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_maskset(gen_square_cover((8, 8), 2, 3), str(a))
        save_maskset(gen_square_cover((8, 8), 2, 3), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_bad_rect_arity(self, tmp_path):
        path = tmp_path / "masks.json"
        doc = {
            "format_version": 1,
            "plane": [4, 4],
            "spec": {"kind": "square", "size": 2},
            "masks_per_axis": 1,
            "compound": False,
            "masks": [{"rects": [[0, 0, 4]]}],
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaViolationError):
            load_maskset(str(path))

    @pytest.mark.parametrize("key,value", [
        ("plane", [4.0, 4.0]),
        ("plane", [4, True]),
        ("masks", [{"rects": [[0.5, 0, 3, 3]]}]),
        ("masks", [{"rects": [[0, 0, 4, True]]}]),
        ("spec", {"kind": "square", "size": 2.0}),
        ("masks_per_axis", 1.5),
        ("compound", "no"),
    ])
    def test_rejects_non_integers(self, tmp_path, key, value):
        ms = gen_square_cover((4, 4), 2, 2)
        path = tmp_path / "masks.json"
        save_maskset(ms, str(path))
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaViolationError) as exc:
            load_maskset(str(path))
        assert str(path) in str(exc.value)

    def test_rejects_missing_masks(self, tmp_path):
        path = tmp_path / "masks.json"
        path.write_text(json.dumps({"format_version": 1, "plane": [4, 4],
                                    "spec": {"kind": "square", "size": 2}}))
        with pytest.raises(SchemaViolationError):
            load_maskset(str(path))

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "masks.json"
        path.write_text("{oops")
        with pytest.raises(MalformedLineError):
            load_maskset(str(path))


class TestPredictionTables:
    def rows(self):
        return [
            ("a", "base", Prediction(1, 0.9)),
            ("a", 0, Prediction(1, 0.8)),
            ("a", 1, Prediction(2, 0.6)),
            ("b", "base", Prediction(0, 0.7)),
            ("b", 0, Prediction(0, 0.7)),
            ("b", 1, Prediction(0, 0.7)),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        save_predictions(self.rows(), str(path))
        table = load_predictions(str(path))
        assert table.profiles == {
            "a": MutantProfile(
                Prediction(1, 0.9), (Prediction(1, 0.8), Prediction(2, 0.6))
            ),
            "b": MutantProfile(
                Prediction(0, 0.7), (Prediction(0, 0.7), Prediction(0, 0.7))
            ),
        }

    def test_rejects_confidence_one(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text(json.dumps({
            "sample_id": "a", "variant": "base",
            "label": 0, "confidence": 1.0,
        }) + "\n")
        with pytest.raises(ValueOutOfRangeError):
            load_predictions(str(path))

    def test_rejects_duplicate_key(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        save_predictions(
            [("a", "base", Prediction(0, 0.5)), ("a", "base", Prediction(0, 0.6))],
            str(path),
        )
        with pytest.raises(DuplicateKeyError) as exc:
            load_predictions(str(path))
        assert exc.value.line == 2

    def test_rejects_bad_variant(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text(json.dumps({
            "sample_id": "a", "variant": "mask0",
            "label": 0, "confidence": 0.5,
        }) + "\n")
        with pytest.raises(SchemaViolationError):
            load_predictions(str(path))

    def test_rejects_empty_table(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text("\n")
        with pytest.raises(SchemaViolationError):
            load_predictions(str(path))

    def test_rejects_base_only_table(self, tmp_path):
        """Without mask rows there is no mutant to build a profile from."""
        path = tmp_path / "preds.jsonl"
        save_predictions([("a", "base", Prediction(0, 0.5))], str(path))
        with pytest.raises(SchemaViolationError) as exc:
            load_predictions(str(path))
        assert "mask rows" in str(exc.value)

    @pytest.mark.parametrize("dropped, gap", [
        pytest.param(5, "'b', variant 1", id="mask-row"),
        pytest.param(3, "'b', variant 'base'", id="base-row"),
    ])
    def test_rejects_a_sample_with_a_gap(self, tmp_path, dropped, gap):
        """Each sample needs a base row and a row for every mask index,
        even a sample that nothing looks up."""
        rows = self.rows()
        del rows[dropped]
        path = tmp_path / "preds.jsonl"
        save_predictions(rows, str(path))
        with pytest.raises(SchemaViolationError) as exc:
            load_predictions(str(path))
        assert str(exc.value) == f"{path}: no row for sample {gap}"

    @pytest.mark.parametrize("loader", ["table", "fixture"])
    def test_a_gap_below_a_huge_mask_index_is_named_in_little_memory(
        self, tmp_path, loader
    ):
        """The first missing row is named without building the list of
        every mask index up to the highest one."""
        rows = [{"sample_id": "x", "variant": variant, "label": 0, "confidence": 0.5}
                for variant in ("base", {"mask_index": 10**6})]
        if loader == "table":
            path, load = tmp_path / "preds.jsonl", load_predictions
            path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        else:
            path, load = tmp_path / "fixture.json", load_profile_fixture
            path.write_text(json.dumps({"format_version": 1, "true_label": 0,
                                        "benign": "x", "variants": [], "rows": rows}))
        tracemalloc.start()
        try:
            with pytest.raises(SchemaViolationError) as exc:
                load(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == f"{path}: no row for sample 'x', variant 0"
        assert peak < 2**20


class TestEvalRecords:
    def records(self, warned=(True, False)):
        return [
            EvalRecord("a", 1, Prediction(1, 0.9), Verdict(True, warned[0]), True),
            EvalRecord("b", 2, Prediction(0, 0.4), Verdict(False, warned[1]), False),
        ]

    def rows(self, tmp_path, **changes):
        """Saved records as dicts, with `changes` applied to the last one."""
        path = tmp_path / "records.jsonl"
        save_records(self.records(), str(path))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        rows[-1].update(changes)
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        return path

    @pytest.mark.parametrize(
        "warned, cases", [((True, False), [1, 8]), ((None, None), [None, None])]
    )
    def test_round_trip(self, tmp_path, warned, cases):
        path = tmp_path / "records.jsonl"
        save_records(self.records(warned), str(path))
        assert load_records(str(path)) == self.records(warned)
        lines = path.read_text().splitlines()
        assert [json.loads(line)["case"] for line in lines] == cases

    @pytest.mark.parametrize(
        "changes, error",
        [
            ({"base_confidence": 1.5}, ValueOutOfRangeError),
            ({"base_confidence": "0.5"}, SchemaViolationError),
            ({"certified": "no"}, SchemaViolationError),
            ({"consistent": 0}, SchemaViolationError),
            ({"warned": None, "case": None}, SchemaViolationError),
            ({"true_label": -1}, ValueOutOfRangeError),
            ({"sample_id": "a"}, DuplicateKeyError),
            ({"case": 5}, ValueOutOfRangeError),
            ({"case": True}, SchemaViolationError),
        ],
    )
    def test_rejects_bad_rows_with_file_and_line(self, tmp_path, changes, error):
        path = self.rows(tmp_path, **changes)
        with pytest.raises(error) as exc:
            load_records(str(path))
        assert exc.value.line == 2
        assert str(exc.value).startswith(f"{path}:2: ")

    def test_rejects_missing_field(self, tmp_path):
        path = self.rows(tmp_path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        del rows[0]["warned"]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        with pytest.raises(SchemaViolationError) as exc:
            load_records(str(path))
        assert exc.value.line == 1

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text("\n")
        with pytest.raises(FileFormatError):
            load_records(str(path))


class TestReports:
    def test_key_order_is_canonical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_report({"zeta": 1, "alpha": {"b": 2, "a": 3}}, str(a))
        save_report({"alpha": {"a": 3, "b": 2}, "zeta": 1}, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_failed_writes_keep_the_old_file(self, tmp_path):
        """A save that fails midway leaves the previous file and no temp
        file behind, for single documents and for JSON lines alike."""
        report = tmp_path / "report.json"
        save_report({"ok": True}, str(report))
        before = report.read_bytes()
        with pytest.raises(TypeError):
            save_report({"ok": object()}, str(report))
        assert report.read_bytes() == before

        data = tmp_path / "data.jsonl"
        records = gen_synthetic_dataset(3, (2, 2), 1, 4, 3, seed=1)
        save_dataset(records, str(data))
        saved = data.read_bytes()

        def failing():
            yield records[0]
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError):
            save_dataset(failing(), str(data))
        assert data.read_bytes() == saved
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "data.jsonl", "report.json"
        ]


class TestProfileFixture:
    def test_bundled_negative_control_loads(self):
        fixture = load_profile_fixture(str(DATA_DIR / "negative_control.json"))
        assert fixture.true_label == 0
        assert fixture.benign_id == "x"
        assert [vid for vid, _ in fixture.variants] == ["x-patched"]
        benign = fixture.benign
        assert len(benign.mutants) == 2
        assert benign.base == Prediction(0, 0.7)
        assert [m.label for m in benign.mutants] == [1, 0]

    def write(self, tmp_path, variants, rows):
        doc = {"format_version": 1, "true_label": 0, "benign": "x",
               "variants": variants, "rows": rows}
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def row(self, sample_id, variant, label=0):
        if variant != "base":
            variant = {"mask_index": variant}
        return {"sample_id": sample_id, "variant": variant, "label": label,
                "confidence": 0.5}

    def test_missing_variant_row_fails_fast(self, tmp_path):
        path = self.write(tmp_path, ["ghost"], [self.row("x", "base"), self.row("x", 0)])
        with pytest.raises(SchemaViolationError) as exc:
            load_profile_fixture(path)
        assert path in str(exc.value)
        assert "'ghost', variant 'base'" in str(exc.value)

    def test_variant_missing_a_mask_row_names_it(self, tmp_path):
        rows = [self.row("x", "base"), self.row("x", 0), self.row("x", 1),
                self.row("v", "base", 1), self.row("v", 0, 1)]
        path = self.write(tmp_path, ["v"], rows)
        with pytest.raises(SchemaViolationError) as exc:
            load_profile_fixture(path)
        assert path in str(exc.value)
        assert "'v', variant 1" in str(exc.value)

    def test_rejects_base_only_rows(self, tmp_path):
        path = self.write(tmp_path, [], [self.row("x", "base")])
        with pytest.raises(SchemaViolationError) as exc:
            load_profile_fixture(path)
        assert "mask rows" in str(exc.value)

    def test_rejects_out_of_range_confidence(self, tmp_path):
        doc = {
            "format_version": 1,
            "true_label": 0,
            "benign": "x",
            "variants": [],
            "rows": [
                {"sample_id": "x", "variant": "base", "label": 0, "confidence": 0.0},
            ],
        }
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueOutOfRangeError):
            load_profile_fixture(str(path))
