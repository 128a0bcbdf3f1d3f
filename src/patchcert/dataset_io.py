"""Synthetic datasets and the on-disk formats.

Datasets, prediction tables and evaluation records are JSON lines (one
record per line); mask sets, reports, and profile fixtures are single
JSON documents.
Loading is strict: malformed JSON, schema problems, duplicates, and
out-of-range values are distinct error types that carry the offending
line number. Serialization is canonical (sorted keys, fixed separators)
so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from .classifiers import HashClassifier, TableClassifier, VariantKey
from .cover import MaskSet
from .defenders import MutantProfile, Prediction, Verdict, assign_case
from .errors import (
    DuplicateKeyError,
    InvalidInputError,
    MalformedLineError,
    SchemaViolationError,
    ValueOutOfRangeError,
)
from .metrics import EvalRecord
from .tensor import Image, Mask, PatchSpec, Rect, _draw_content

__all__ = [
    "FORMAT_VERSION",
    "DatasetRecord",
    "ProfileFixture",
    "gen_synthetic_dataset",
    "save_dataset",
    "load_dataset",
    "save_maskset",
    "load_maskset",
    "save_predictions",
    "load_predictions",
    "save_records",
    "load_records",
    "save_report",
    "load_profile_fixture",
    "dumps_canonical",
]

FORMAT_VERSION = 1

LABEL_MODES = ("classifier", "uniform")


@dataclass(frozen=True)
class DatasetRecord:
    """A sample: an image, its identity, and its ground-truth label."""

    id: str
    true_label: int
    image: Image


@dataclass(frozen=True)
class ProfileFixture:
    """Hand-written attack scenario expressed purely as predictions.

    `benign` is the clean sample's profile; every (id, profile) in
    `variants` is treated as an in-scope tampered version of it. Profiles
    come from the bundled prediction rows, so scenarios stay
    classifier-free.
    """

    true_label: int
    benign_id: str
    benign: MutantProfile
    variants: tuple[tuple[str, MutantProfile], ...]


def dumps_canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _write_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write `chunks` to a sibling temp file, then move it over `path`.

    If serializing or writing fails, the old file at `path` survives and
    the temp file is removed.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write_jsonl(path: str, docs: Iterable[dict]) -> None:
    _write_atomic(path, (dumps_canonical(doc) + "\n" for doc in docs))


def gen_synthetic_dataset(
    count: int,
    plane: tuple[int, int],
    channels: int,
    alphabet_size: int,
    num_labels: int,
    seed: int,
    label_mode: str = "classifier",
) -> list[DatasetRecord]:
    """Seeded random pixels with either aligned or uniform labels.

    "classifier" labels each sample with the hash classifier built from
    the same seed and label count, so evaluating under that classifier
    gives clean accuracy 1 by construction. "uniform" draws labels
    independently of the pixels, landing clean accuracy near
    1/num_labels. Each sample takes its pixels from one seeded stream,
    in word batches (`tensor._draw_content`), then its uniform label.
    """
    if count < 1:
        raise InvalidInputError("count must be positive")
    if label_mode not in LABEL_MODES:
        raise InvalidInputError(
            f"label_mode must be one of {LABEL_MODES}, got {label_mode!r}"
        )
    h, w = plane
    rng = random.Random(seed)
    labeler = HashClassifier(seed=seed, num_labels=num_labels)
    records = []
    npix = h * w * channels
    for i in range(count):
        pixels = _draw_content(rng, alphabet_size, npix)
        image = Image(h, w, channels, alphabet_size, pixels)
        if label_mode == "classifier":
            label = labeler.classify(image).label
        else:
            label = rng.randrange(num_labels)
        records.append(DatasetRecord(f"s{i:05d}", label, image))
    return records


# ---------- json-lines plumbing ----------


def _read_jsonl(path: str) -> Iterable[tuple[int, dict]]:
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise MalformedLineError(path, lineno, f"invalid JSON: {e.msg}")
            if not isinstance(obj, dict):
                raise SchemaViolationError(path, lineno, "record must be an object")
            yield lineno, obj


def _need(path: str, lineno: int, obj: dict, key: str, types,
          where: str = "") -> Any:
    if key not in obj:
        raise SchemaViolationError(path, lineno, f"{where}missing field {key!r}")
    val = obj[key]
    wanted = types if isinstance(types, tuple) else (types,)
    if not isinstance(val, wanted) or (isinstance(val, bool) and bool not in wanted):
        raise SchemaViolationError(
            path, lineno, f"{where}field {key!r} has the wrong type"
        )
    return val


def _read_document(path: str) -> dict:
    """A single-document JSON file of the current format version."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise MalformedLineError(path, e.lineno, f"invalid JSON: {e.msg}")
    if not isinstance(doc, dict):
        raise SchemaViolationError(path, 0, "document must be an object")
    version = _need(path, 0, doc, "format_version", int)
    if version != FORMAT_VERSION:
        raise SchemaViolationError(path, 0, f"unsupported format_version {version}")
    return doc


def _all_ints(values: Iterable) -> bool:
    """True when every value is an int proper (not a bool or a float)."""
    return set(map(type, values)) <= {int}


# ---------- datasets ----------


def save_dataset(records: Sequence[DatasetRecord], path: str) -> None:
    _write_jsonl(path, (
        {
            "format_version": FORMAT_VERSION,
            "id": r.id,
            "label": r.true_label,
            "shape": [r.image.height, r.image.width, r.image.channels],
            "alphabet": r.image.alphabet_size,
            "pixels": r.image.pixels,
        }
        for r in records
    ))


def load_dataset(path: str) -> list[DatasetRecord]:
    records = []
    seen: set[str] = set()
    for lineno, obj in _read_jsonl(path):
        version = _need(path, lineno, obj, "format_version", int)
        if version != FORMAT_VERSION:
            raise SchemaViolationError(
                path, lineno, f"unsupported format_version {version}"
            )
        rid = _need(path, lineno, obj, "id", str)
        if rid in seen:
            raise DuplicateKeyError(path, lineno, f"duplicate sample id {rid!r}")
        seen.add(rid)
        label = _need(path, lineno, obj, "label", int)
        if label < 0:
            raise ValueOutOfRangeError(path, lineno, "label must be non-negative")
        shape = _need(path, lineno, obj, "shape", list)
        if len(shape) != 3 or not _all_ints(shape):
            raise SchemaViolationError(path, lineno, "shape must be [h, w, c]")
        alphabet = _need(path, lineno, obj, "alphabet", int)
        pixels = _need(path, lineno, obj, "pixels", list)
        if not _all_ints(pixels):
            raise SchemaViolationError(path, lineno, "pixels must be integers")
        try:
            image = Image(shape[0], shape[1], shape[2], alphabet, pixels)
        except (InvalidInputError, TypeError) as e:
            raise ValueOutOfRangeError(path, lineno, str(e))
        records.append(DatasetRecord(rid, label, image))
    if not records:
        raise SchemaViolationError(path, 0, "dataset holds no records")
    return records


# ---------- mask sets ----------


def save_maskset(mask_set: MaskSet, path: str) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "plane": [mask_set.spec.plane_height, mask_set.spec.plane_width],
        "spec": mask_set.spec.to_dict(),
        "masks_per_axis": mask_set.masks_per_axis,
        "compound": mask_set.compound,
        "masks": [
            {"rects": [r.to_list() for r in m.rects]} for m in mask_set.masks
        ],
    }
    _write_jsonl(path, [doc])


def load_maskset(
    path: str, check_plane: Callable[[int, int], None] | None = None
) -> MaskSet:
    """The mask set in the file. `check_plane(h, w)`, when given, sees the
    file's plane before any mask is built, so it can refuse a mask set
    for another plane without paying for its masks."""
    doc = _read_document(path)
    plane = _need(path, 0, doc, "plane", list)
    if len(plane) != 2 or not _all_ints(plane):
        raise SchemaViolationError(path, 0, "plane must be [h, w]")
    spec_doc = _need(path, 0, doc, "spec", dict)
    _need(path, 0, spec_doc, "kind", str, "spec: ")
    if not _all_ints(spec_doc[k] for k in ("size", "area", "count") if k in spec_doc):
        raise SchemaViolationError(path, 0, "patch spec sizes must be integers")
    masks_doc = _need(path, 0, doc, "masks", list)
    per_axis = (
        _need(path, 0, doc, "masks_per_axis", int) if "masks_per_axis" in doc else 1
    )
    compound = _need(path, 0, doc, "compound", bool) if "compound" in doc else False
    if check_plane is not None:
        check_plane(plane[0], plane[1])
    try:
        spec = PatchSpec.from_dict(plane[0], plane[1], spec_doc)
        masks = []
        for i, m in enumerate(masks_doc):
            if not isinstance(m, dict):
                raise SchemaViolationError(path, 0, f"mask {i}: must be an object")
            rects = _need(path, 0, m, "rects", list, f"mask {i}: ")
            if not all(isinstance(r, list) and len(r) == 4 and _all_ints(r)
                       for r in rects):
                raise SchemaViolationError(
                    path, 0, "mask rects must be four integers each"
                )
            masks.append(Mask(plane[0], plane[1], tuple(Rect(*r) for r in rects)))
        return MaskSet(tuple(masks), spec, per_axis, compound=compound)
    except (InvalidInputError, KeyError, TypeError) as e:
        raise SchemaViolationError(path, 0, f"bad mask set: {e}")


# ---------- prediction tables ----------


def _variant_key(path: str, lineno: int, raw, where: str) -> VariantKey:
    if raw == "base":
        return "base"
    if isinstance(raw, dict) and set(raw) == {"mask_index"}:
        idx = raw["mask_index"]
        if isinstance(idx, int) and not isinstance(idx, bool) and idx >= 0:
            return idx
    raise SchemaViolationError(
        path, lineno, f'{where}variant must be "base" or {{"mask_index": n}}'
    )


def _prediction_table(
    path: str, rows: Iterable[tuple[int, str, Any]], required: Sequence[str] = ()
) -> dict[str, MutantProfile]:
    """Parse `sample_id`/`variant`/`label`/`confidence` rows into profiles.

    Each row comes as (line number, message prefix, parsed object); the
    prefix names the row where the file has no line for it. The mask
    count is the highest mask index plus one. Every sample in the rows,
    and every id in `required`, needs a base row and one row per mask.
    """
    by_sample: dict[str, dict[VariantKey, Prediction]] = {}
    for lineno, where, obj in rows:
        if not isinstance(obj, dict):
            raise SchemaViolationError(path, lineno, f"{where}row must be an object")
        sample_id = _need(path, lineno, obj, "sample_id", str, where)
        if "variant" not in obj:
            raise SchemaViolationError(path, lineno, f"{where}missing field 'variant'")
        variant = _variant_key(path, lineno, obj["variant"], where)
        label = _need(path, lineno, obj, "label", int, where)
        confidence = _need(path, lineno, obj, "confidence", (int, float), where)
        if label < 0:
            raise ValueOutOfRangeError(
                path, lineno, f"{where}label must be non-negative"
            )
        if not 0.0 < confidence < 1.0:
            raise ValueOutOfRangeError(
                path, lineno, f"{where}confidence must lie strictly inside (0, 1)"
            )
        preds = by_sample.setdefault(sample_id, {})
        if variant in preds:
            raise DuplicateKeyError(
                path, lineno, f"{where}duplicate prediction for {(sample_id, variant)!r}"
            )
        preds[variant] = Prediction(label, float(confidence))
    mask_indices = [v for preds in by_sample.values() for v in preds if v != "base"]
    if not mask_indices:
        raise SchemaViolationError(path, 0, "prediction table holds no mask rows")
    masks = range(max(mask_indices) + 1)
    for sample_id in (*by_sample, *required):
        preds = by_sample.get(sample_id, {})
        for variant in itertools.chain(("base",), masks):
            if variant not in preds:
                raise SchemaViolationError(
                    path, 0, f"no row for sample {sample_id!r}, variant {variant!r}"
                )
    return {
        sample_id: MutantProfile(preds["base"], tuple(preds[i] for i in masks))
        for sample_id, preds in by_sample.items()
    }


def save_predictions(
    rows: Sequence[tuple[str, VariantKey, Prediction]], path: str
) -> None:
    _write_jsonl(path, (
        {
            "sample_id": sample_id,
            "variant": "base" if variant == "base" else {"mask_index": variant},
            "label": pred.label,
            "confidence": pred.confidence,
        }
        for sample_id, variant, pred in rows
    ))


def load_predictions(path: str, required: Sequence[str] = ()) -> TableClassifier:
    """A prediction table; each sample id in `required` needs a full profile."""
    return TableClassifier(_prediction_table(
        path, ((lineno, "", obj) for lineno, obj in _read_jsonl(path)), required
    ))


# ---------- evaluation records ----------


def save_records(records: Sequence[EvalRecord], path: str) -> None:
    """One evaluation outcome per line, in the given order."""
    _write_jsonl(path, (
        {
            "sample_id": r.sample_id,
            "true_label": r.true_label,
            "base_label": r.base.label,
            "base_confidence": r.base.confidence,
            "certified": r.verdict.certified,
            "warned": r.verdict.warned,
            "consistent": r.consistent,
            "case": _record_case(r),
        }
        for r in records
    ))


def _record_case(record: EvalRecord) -> int | None:
    if record.verdict.warned is None:
        return None
    return assign_case(record.correct, record.verdict)


def load_records(path: str) -> list[EvalRecord]:
    """Read back what `save_records` wrote, rejecting anything else.

    `warned` must be null on every line (a defender without a warning
    rule) or on none, and `case` must match the other fields.
    """
    records: list[EvalRecord] = []
    seen: set[str] = set()
    for lineno, obj in _read_jsonl(path):
        sample_id = _need(path, lineno, obj, "sample_id", str)
        if sample_id in seen:
            raise DuplicateKeyError(
                path, lineno, f"duplicate sample id {sample_id!r}"
            )
        seen.add(sample_id)
        true_label = _need(path, lineno, obj, "true_label", int)
        base_label = _need(path, lineno, obj, "base_label", int)
        confidence = _need(path, lineno, obj, "base_confidence", (int, float))
        if true_label < 0 or base_label < 0:
            raise ValueOutOfRangeError(path, lineno, "labels must be non-negative")
        if not 0.0 < confidence < 1.0:
            raise ValueOutOfRangeError(
                path, lineno, "base_confidence must lie strictly inside (0, 1)"
            )
        verdict = Verdict(
            _need(path, lineno, obj, "certified", bool),
            _need(path, lineno, obj, "warned", (bool, type(None))),
        )
        if records and (verdict.warned is None) != (
            records[0].verdict.warned is None
        ):
            raise SchemaViolationError(
                path, lineno, "records mix warned and warning-free defenders"
            )
        record = EvalRecord(
            sample_id=sample_id,
            true_label=true_label,
            base=Prediction(base_label, float(confidence)),
            verdict=verdict,
            consistent=_need(path, lineno, obj, "consistent", bool),
        )
        case = _need(path, lineno, obj, "case", (int, type(None)))
        if case != _record_case(record):
            raise ValueOutOfRangeError(
                path, lineno, f"case {case!r} does not match the other fields"
            )
        records.append(record)
    if not records:
        raise SchemaViolationError(path, 0, "records file holds no records")
    return records


# ---------- reports and fixtures ----------


def save_report(doc: dict, path: str) -> None:
    _write_atomic(path, [json.dumps(doc, sort_keys=True, indent=2) + "\n"])


def load_profile_fixture(path: str) -> ProfileFixture:
    doc = _read_document(path)
    true_label = _need(path, 0, doc, "true_label", int)
    if true_label < 0:
        raise ValueOutOfRangeError(path, 0, "true_label must be non-negative")
    benign = _need(path, 0, doc, "benign", str)
    variants = _need(path, 0, doc, "variants", list)
    if not all(isinstance(v, str) for v in variants):
        raise SchemaViolationError(path, 0, "variants must be sample id strings")
    rows_doc = _need(path, 0, doc, "rows", list)

    profiles = _prediction_table(
        path, ((0, f"row {i}: ", obj) for i, obj in enumerate(rows_doc)),
        required=(benign, *variants),
    )
    return ProfileFixture(
        true_label=true_label,
        benign_id=benign,
        benign=profiles[benign],
        variants=tuple((v, profiles[v]) for v in variants),
    )
