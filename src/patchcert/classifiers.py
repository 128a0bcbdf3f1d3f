"""Deterministic desk-scale classifier backends.

Three interchangeable backends drive the defenders and the soundness
oracle: a keyed-hash classifier (fast, adversarially patternless), a
seeded integer linear model, and a prediction table loaded from a file.
The same image always yields the same prediction, on any platform.

Every pixel backend implements `_predict_packed(data, bytes_per_pixel)`:
it classifies bytes-like `data` in the encoding of `Image.packed` and
returns a `Prediction`. `classify(image)` returns that same value.
Mutants are classified from `tensor.masked_packed` bytes, and the
oracle's variants from patched copies of those bytes, so no `Image` is
built per mutant or per variant.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, NamedTuple, Union

from .cover import MaskSet
from .defenders import MutantProfile
from .errors import InvalidInputError, TableLookupError
from .tensor import Image, masked_packed, unpack_pixels

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


class Prediction(NamedTuple):
    """A label with the classifier's confidence for it.

    A plain value: pixel backends clamp confidences into (0, 1), and the
    file loaders check label and confidence where a table is read.
    """

    label: int
    confidence: float


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
        # The digest reads the bytes as they are; the pixel width is unused.
        keyed_label, keyed_conf = _keyed_digests(self.seed)
        h_label = keyed_label.copy()
        h_label.update(data)
        h_conf = keyed_conf.copy()
        h_conf.update(data)
        label = int.from_bytes(h_label.digest(), "little") % self.num_labels
        raw = int.from_bytes(h_conf.digest(), "little") & 0xFFFF
        return Prediction(label, clamp_confidence((1 + raw) / _CONF_DENOM))


@lru_cache(maxsize=64)
def _seeded_weights(
    seed: int, num_labels: int, num_features: int
) -> tuple[tuple[int, ...], ...]:
    """Fixed small integer weights, reproducible from the seed alone."""
    digest = hashlib.blake2b(
        b"linear-weights", digest_size=8, key=seed.to_bytes(8, "little")
    ).digest()
    rng = random.Random(int.from_bytes(digest, "little") + num_features)
    return tuple(
        tuple(rng.randrange(-8, 9) for _ in range(num_features))
        for _ in range(num_labels)
    )


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
        if self.temperature <= 0:
            raise InvalidInputError("temperature must be positive")
        if self.weights is not None:
            if len(self.weights) != self.num_labels:
                raise InvalidInputError("weights must have one row per label")
            object.__setattr__(
                self, "weights", tuple(tuple(row) for row in self.weights)
            )

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
        pixels = unpack_pixels(data, bytes_per_pixel)
        rows = self._weight_rows(len(pixels))
        logits = [sum(w * v for w, v in zip(row, pixels)) for row in rows]
        best = 0
        for i in range(1, len(logits)):
            if logits[i] > logits[best]:
                best = i
        peak = logits[best]
        # Left to right from 0.0: from Python 3.12 on the builtin sum
        # compensates float rounding, which would change the last bits.
        denom = 0.0
        for l in logits:
            denom += math.exp((l - peak) / self.temperature)
        return Prediction(best, clamp_confidence(1.0 / denom))


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


def classify_mutants(classifier, image: Image | None, mask_set: MaskSet,
                     sample_id: str | None = None) -> MutantProfile:
    """Profile of the image and of every one-mask mutant, in mask order.

    Table backends are keyed by sample identity, so they require
    `sample_id` and ignore the pixels; the other backends classify the
    masked bytes of each mutant.
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
    base = classifier.classify(image)
    predict, bpp = classifier._predict_packed, image.bytes_per_pixel
    mutants = tuple(predict(masked_packed(image, m), bpp) for m in mask_set.masks)
    return MutantProfile(base, mutants)
