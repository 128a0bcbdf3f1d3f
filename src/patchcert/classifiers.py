"""Deterministic desk-scale classifier backends.

Three interchangeable backends drive the defenders and the soundness
oracle: a keyed-hash classifier (fast, adversarially patternless), a
seeded integer linear model, and a prediction table loaded from a file.
The same image always yields the same prediction, on any platform.

Every pixel backend implements `_predict_packed(data, bytes_per_pixel)`:
it classifies bytes-like `data` in the encoding of `Image.packed` and
returns a `Prediction`. `classify(image)` returns that same value, and
`_predict_packed` is the reference for everything below. The linear
one is a fresh scorer's prediction: only `_scorer` computes logits.

Mutants and variants are classified through scorers instead.
`_scorer(data, bytes_per_pixel)` returns a scorer of those bytes:
`prediction()` classifies them, `masked(mask, channels)` is the scorer
of `tensor.apply_mask`'s mutant, the bytes with the mask zeroed as
`tensor.zero_masked` zeroes them, and `at(positions)` returns
`score(values)`, the prediction of the bytes with `values` written at
the flat pixel `positions`; on a masked scorer, positions its mask
leaves (`oracle._PlacementPlan.survivors`). A mutant differs from its
sample only under the mask, and a variant only under the patch, so the
linear backend updates its integer logits at those pixels alone; the
hash backend digests a patched copy. No `Image` is built per mutant or
per variant.

`label_at(positions)` is `at`'s label-only sibling: its `score(values)`
returns `at(positions)(values).label` and computes no confidence. The
hash backend digests only the label stream (`_label_packed`, which
`_predict_packed` also reads), and the linear backend takes the argmax
of the same integer logits without the exponentials. The oracle scores
variants this way, because no warning rule reads a variant's own
confidence.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from operator import mul, sub
from typing import Mapping, Sequence, Union

from .cover import MaskSet
from .defenders import MutantProfile, Prediction
from .errors import InvalidInputError, TableLookupError
from .tensor import (
    Image, Mask, _draw_content, check_mask_plane,
    unpack_pixels, write_packed, zero_masked,
)

__all__ = [
    "CONFIDENCE_EPSILON",
    "Prediction",
    "HashClassifier",
    "LinearClassifier",
    "TableClassifier",
    "VariantKey",
    "classify_mutants",
]

# Confidences are clamped into [EPSILON, 1 - EPSILON] by every backend,
# keeping them strictly inside (0, 1) so threshold comparisons at tau = 0
# and tau = 1 behave as documented.
CONFIDENCE_EPSILON = 2.0 ** -16

# "base" for the unmasked image, or the integer index of a mask.
VariantKey = Union[str, int]


def clamp_confidence(value: float) -> float:
    lo = CONFIDENCE_EPSILON
    hi = 1.0 - CONFIDENCE_EPSILON
    return lo if value < lo else hi if value > hi else value


_CONF_DENOM = 65538  # (1 + value mod 2^16) / (2^16 + 2) stays inside (0, 1)


@lru_cache(maxsize=64)
def _keyed_digests(seed: int) -> tuple:
    """Label and confidence blake2b states with the seed key absorbed.

    Copying a keyed state skips re-hashing the key block on every call.
    The states are shared, so callers update only their copies.
    """
    key = seed.to_bytes(8, "little")
    return tuple(
        hashlib.blake2b(digest_size=8, key=key, person=person)
        for person in (b"label", b"conf")
    )


@dataclass(frozen=True)
class HashClassifier:
    """Labels and confidences derived from a keyed 64-bit digest.

    The label and confidence streams come from independent blake2b
    personalizations over the image's canonical byte encoding, so the
    output is platform-independent, avalanche-mixed, and has no
    structure an enumeration could accidentally align with.
    """

    seed: int
    num_labels: int

    def __post_init__(self):
        if self.num_labels < 2:
            raise InvalidInputError("num_labels must be at least 2")
        if not 0 <= self.seed < 2**64:
            raise InvalidInputError("seed must fit in 64 bits")

    def classify(self, image: Image) -> Prediction:
        return self._predict_packed(image.packed, image.bytes_per_pixel)

    def _predict_packed(self, data: bytes, bytes_per_pixel: int) -> Prediction:
        h_conf = _keyed_digests(self.seed)[1].copy()
        h_conf.update(data)
        raw = int.from_bytes(h_conf.digest(), "little") & 0xFFFF
        return Prediction(
            self._label_packed(data, bytes_per_pixel),
            clamp_confidence((1 + raw) / _CONF_DENOM),
        )

    def _label_packed(self, data: bytes, bytes_per_pixel: int) -> int:
        """`_predict_packed(data, bytes_per_pixel).label`, from the label
        stream alone. The digest reads the bytes as they are; the pixel
        width is unused."""
        h_label = _keyed_digests(self.seed)[0].copy()
        h_label.update(data)
        return int.from_bytes(h_label.digest(), "little") % self.num_labels

    def _scorer(self, data: bytes, bytes_per_pixel: int) -> "_HashScorer":
        return _HashScorer(self, data, bytes_per_pixel)


class _HashScorer:
    """Bytes to digest, whole: masking zeroes a copy with `zero_masked`,
    and a score digests a copy with the values written in. Every
    prediction is a `_predict_packed` call on the classifier, and every
    label-only score a `_label_packed` call."""

    __slots__ = ("classifier", "data", "bpp")

    def __init__(self, classifier: HashClassifier, data: bytes, bpp: int):
        self.classifier = classifier
        self.data = data
        self.bpp = bpp

    def prediction(self) -> Prediction:
        return self.classifier._predict_packed(self.data, self.bpp)

    def masked(self, mask: Mask, channels: int) -> "_HashScorer":
        return _HashScorer(
            self.classifier, zero_masked(self.data, mask, channels, self.bpp), self.bpp
        )

    def at(self, positions: Sequence[int]):
        return self._written(positions, self.classifier._predict_packed)

    def label_at(self, positions: Sequence[int]):
        return self._written(positions, self.classifier._label_packed)

    def _written(self, positions: Sequence[int], read):
        data, bpp = self.data, self.bpp

        def score(values: Sequence[int]):
            buf = bytearray(data)
            write_packed(buf, positions, values, bpp)
            return read(buf, bpp)

        return score


@lru_cache(maxsize=64)
def _seeded_weights(
    seed: int, num_labels: int, num_features: int
) -> tuple[tuple[int, ...], ...]:
    """Fixed small integer weights, reproducible from the seed alone: row
    by row, `rng.randrange(-8, 9)`, drawn as `-8 + rng.randrange(17)`."""
    digest = hashlib.blake2b(
        b"linear-weights", digest_size=8, key=seed.to_bytes(8, "little")
    ).digest()
    rng = random.Random(int.from_bytes(digest, "little") + num_features)
    return tuple(
        tuple(map(sub, _draw_content(rng, 17, num_features), repeat(8)))
        for _ in range(num_labels)
    )


def _top_label(logits: Sequence[int]) -> int:
    """The argmax of exact integer logits: the lowest label among tied
    maxima."""
    return logits.index(max(logits))


@dataclass(frozen=True)
class LinearClassifier:
    """Integer linear model with a softmax confidence.

    Logits are exact integer dot products of the flattened pixels with a
    seeded weight matrix (or explicit `weights`). Ties argmax to the
    lowest label index. Confidence is the softmax maximum at the given
    temperature, then clamped like every other backend.
    """

    seed: int
    num_labels: int
    weights: tuple[tuple[int, ...], ...] | None = None
    temperature: float = 1.0

    def __post_init__(self):
        if self.num_labels < 2:
            raise InvalidInputError("num_labels must be at least 2")
        if not 0 <= self.seed < 2**64:
            raise InvalidInputError("seed must fit in 64 bits")
        if self.temperature <= 0:
            raise InvalidInputError("temperature must be positive")
        if self.weights is not None:
            if len(self.weights) != self.num_labels:
                raise InvalidInputError("weights must have one row per label")
            object.__setattr__(
                self, "weights", tuple(tuple(row) for row in self.weights)
            )
            if len(set(map(len, self.weights))) != 1:
                raise InvalidInputError("weight rows must all have the same length")

    def _weight_rows(self, num_features: int) -> tuple[tuple[int, ...], ...]:
        if self.weights is not None:
            if len(self.weights[0]) != num_features:
                raise InvalidInputError(
                    f"weight rows have {len(self.weights[0])} entries, "
                    f"image has {num_features} values"
                )
            return self.weights
        return _seeded_weights(self.seed, self.num_labels, num_features)

    def classify(self, image: Image) -> Prediction:
        return self._predict_packed(image.packed, image.bytes_per_pixel)

    def _predict_packed(self, data: bytes, bytes_per_pixel: int) -> Prediction:
        return self._scorer(data, bytes_per_pixel).prediction()

    def _prediction(self, logits: Sequence[int]) -> Prediction:
        """The label and softmax confidence of exact integer logits."""
        best = _top_label(logits)
        peak = logits[best]
        # Left to right from 0.0: from Python 3.12 on the builtin sum
        # compensates float rounding, which would change the last bits.
        denom = 0.0
        for l in logits:
            denom += math.exp((l - peak) / self.temperature)
        return Prediction(best, clamp_confidence(1.0 / denom))

    def _scorer(self, data: bytes, bytes_per_pixel: int) -> "_LinearScorer":
        pixels = unpack_pixels(data, bytes_per_pixel)
        rows = self._weight_rows(len(pixels))
        logits = [sum(map(mul, row, pixels)) for row in rows]
        return _LinearScorer(self, rows, pixels, logits)


class _LinearScorer:
    """Exact integer logits of some pixels, less one mask's terms if masked.

    `pixels` are the unmasked values, shared by masked scorers. A score
    adds `w * (v - old)` at each written position, with `old` read from
    `pixels`, so a masked scorer is written only where its mask leaves.
    Only an image's unmasked scorer may be masked: `masked` subtracts
    one mask's terms from it.
    """

    __slots__ = ("classifier", "rows", "pixels", "logits")

    def __init__(self, classifier: LinearClassifier, rows, pixels, logits):
        self.classifier = classifier
        self.rows = rows
        self.pixels = pixels
        self.logits = logits

    def prediction(self) -> Prediction:
        return self.classifier._prediction(self.logits)

    def masked(self, mask: Mask, channels: int) -> "_LinearScorer":
        pixels = self.pixels
        # One C-level pass per label over the zeroed spans' terms.
        slices = [slice(a * channels, b * channels) for a, b in mask.spans]
        hidden = list(chain.from_iterable(map(pixels.__getitem__, slices)))
        logits = [
            total - sum(map(mul, chain.from_iterable(map(row.__getitem__, slices)), hidden))
            for total, row in zip(self.logits, self.rows)
        ]
        return _LinearScorer(self.classifier, self.rows, pixels, logits)

    def at(self, positions: Sequence[int]):
        return self._written(positions, self.classifier._prediction)

    def label_at(self, positions: Sequence[int]):
        return self._written(positions, _top_label)

    def _written(self, positions: Sequence[int], read):
        pixels, logits = self.pixels, self.logits
        olds = [pixels[p] for p in positions]
        columns = [[row[p] for p in positions] for row in self.rows]

        def score(values: Sequence[int]):
            deltas = list(map(sub, values, olds))
            return read([
                total + sum(map(mul, column, deltas))
                for total, column in zip(logits, columns)
            ])

        return score


@dataclass(frozen=True)
class TableClassifier:
    """Complete mutant profiles imported from a file, keyed by sample id.

    The loader refuses a table in which any sample lacks its base row or
    a mask row. There is no way to classify raw pixels; an unknown
    sample is an explicit error, never a default.
    """

    profiles: Mapping[str, MutantProfile]

    def profile_for(self, sample_id: str) -> MutantProfile:
        try:
            return self.profiles[sample_id]
        except KeyError:
            raise TableLookupError(sample_id, "base") from None


def _mutant_scorers(classifier, image: Image, masks: Sequence[Mask]) -> tuple:
    """The scorer of the image's bytes, the scorers of its mutants in mask
    order, and the profile they predict; a mask on another plane is
    refused."""
    base = classifier._scorer(image.packed, image.bytes_per_pixel)
    scorers = []
    for m in masks:
        check_mask_plane(m, image)
        scorers.append(base.masked(m, image.channels))
    benign = MutantProfile(base.prediction(), tuple(s.prediction() for s in scorers))
    return base, scorers, benign


def classify_mutants(classifier, image: Image | None, mask_set: MaskSet,
                     sample_id: str | None = None) -> MutantProfile:
    """Profile of the image and of every one-mask mutant, in mask order.

    Table backends are keyed by sample identity, so they require
    `sample_id` and ignore the pixels; the other backends score the
    image and each mutant through `_mutant_scorers`.
    """
    if isinstance(classifier, TableClassifier):
        if sample_id is None:
            raise InvalidInputError("table classifier needs a sample_id")
        profile = classifier.profile_for(sample_id)
        if len(profile.mutants) != len(mask_set.masks):
            raise InvalidInputError(
                f"table holds {len(profile.mutants)} mutant columns, "
                f"mask set has {len(mask_set.masks)}"
            )
        return profile
    if image is None:
        raise InvalidInputError("image classifiers need pixels")
    return _mutant_scorers(classifier, image, mask_set.masks)[2]
