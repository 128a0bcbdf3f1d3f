"""Shared test helpers and the acceptance summary hook."""
from __future__ import annotations

import itertools
import random

import pytest

from patchcert.classifiers import Prediction, clamp_confidence
from patchcert.defenders import MutantProfile
from patchcert.tensor import Image, Rect

# Filled by tests/test_acceptance.py, printed after the run so every
# criterion gets one visible pass/fail line even under default capture.
ACCEPTANCE_RESULTS: dict[int, tuple[str, bool]] = {}


def record_criterion(number: int, description: str, passed: bool) -> None:
    ACCEPTANCE_RESULTS[number] = (description, passed)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        description, passed = ACCEPTANCE_RESULTS[number]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[{status}] criterion {number}: {description}")


def make_image(rng: random.Random, height: int, width: int, channels: int = 1,
               alphabet_size: int = 4) -> Image:
    n = height * width * channels
    pixels = tuple(rng.randrange(alphabet_size) for _ in range(n))
    return Image(height, width, channels, alphabet_size, pixels)


def reference_placements(spec):
    """The reference enumeration of a spec's placements, in order.

    Every rect of an allowed shape, by (height, width, top, left); a
    multi spec takes every `count`-combination of its squares in that
    order and keeps those whose squares are pairwise disjoint.
    """
    h, w = spec.plane_height, spec.plane_width
    if spec.kind == "rectangle":
        shapes = [(rh, rw) for rh in range(1, h + 1) for rw in range(1, w + 1)
                  if rh * rw <= spec.area]
    else:
        shapes = [(spec.size, spec.size)]
    rects = [
        Rect(top, left, rh, rw)
        for rh, rw in shapes
        for top in range(h - rh + 1)
        for left in range(w - rw + 1)
    ]
    if spec.kind != "multi":
        return ((r,) for r in rects)
    return (
        combo for combo in itertools.combinations(rects, spec.count)
        if not any(a.intersects(b) for a, b in itertools.combinations(combo, 2))
    )


def random_prediction(rng: random.Random, num_labels: int) -> Prediction:
    return Prediction(
        label=rng.randrange(num_labels),
        confidence=clamp_confidence(rng.uniform(0.01, 0.99)),
    )


def random_profile(rng: random.Random, num_labels: int = 5,
                   max_mutants: int = 9) -> MutantProfile:
    count = rng.randint(1, max_mutants)
    return MutantProfile(
        base=random_prediction(rng, num_labels),
        mutants=tuple(random_prediction(rng, num_labels) for _ in range(count)),
    )


def profile(base: tuple[int, float],
            mutants: list[tuple[int, float]]) -> MutantProfile:
    """Literal profile builder for hand-written scenarios."""
    return MutantProfile(
        base=Prediction(base[0], base[1]),
        mutants=tuple(Prediction(lbl, conf) for lbl, conf in mutants),
    )


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
