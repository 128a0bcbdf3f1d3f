"""Covering mask construction and the exhaustive cover verifier."""
import random
import time

import pytest

from patchcert.cover import (
    CoverageReport,
    MaskSet,
    gen_multi_cover,
    gen_rect_cover,
    gen_square_cover,
    verify_cover,
)
from patchcert.errors import InvalidInputError
from patchcert.tensor import (
    Mask,
    PatchSpec,
    Rect,
    _placement_ranks,
    mask_covers,
)

from conftest import reference_placements


def brute_force_cover(mask_set):
    """Reference verifier: every placement of the reference enumeration
    against every mask, in order, until one mask covers it."""
    checked = 0
    for placement in reference_placements(mask_set.spec):
        checked += 1
        if not any(mask_covers(m, placement) for m in mask_set.masks):
            return CoverageReport(False, placement, checked)
    return CoverageReport(True, None, checked)


def random_rect(rng, h, w):
    top, left = rng.randrange(h), rng.randrange(w)
    return Rect(top, left, rng.randint(1, h - top), rng.randint(1, w - left))


def differential_configs(seed):
    """The mask sets of one seed: a generated square, rectangle or
    compound (2- or 3-patch) cover and the same cover with one mask
    dropped, or a few random masks of 1-3 rects each, which overlap
    often on these small planes."""
    rng = random.Random(seed)
    kind = seed % 4
    if kind == 3:
        h, w = rng.randint(2, 7), rng.randint(2, 7)
        count = rng.choice((1, 2, 3))
        size = rng.randint(1, min(h, w, 2 if count > 1 else 7))
        spec = rng.choice((
            PatchSpec.square(h, w, size),
            PatchSpec.rectangle(h, w, rng.randint(1, min(6, h * w))),
            PatchSpec.multi(h, w, count, size),
        ))
        masks = tuple(
            Mask(h, w, tuple(random_rect(rng, h, w) for _ in range(rng.randint(1, 3))))
            for _ in range(rng.randint(1, 4))
        )
        return [MaskSet(masks, spec, 1)]
    if kind == 0:
        h, w = rng.randint(2, 12), rng.randint(2, 12)
        p = rng.randint(1, min(h, w))
        ms = gen_square_cover((h, w), p, rng.randint(1, min(3, h - p + 1, w - p + 1)))
    elif kind == 1:
        h, w = rng.randint(2, 9), rng.randint(2, 9)
        ms = gen_rect_cover((h, w), rng.randint(1, min(8, h * w)), rng.randint(1, 3))
    else:
        count = 2 + seed // 4 % 2
        h, w = rng.randint(3, 6), rng.randint(3, 6)
        p = rng.randint(1, 2)
        base = gen_square_cover((h, w), p, rng.randint(1, min(2, h - p + 1, w - p + 1)))
        if len(base) < count:
            base = gen_square_cover((h, w), 1, 2)
        ms = gen_multi_cover(base, count)
    if len(ms) == 1:
        return [ms]
    drop = rng.randrange(len(ms))
    dropped = ms.masks[:drop] + ms.masks[drop + 1:]
    return [ms, MaskSet(dropped, ms.spec, ms.masks_per_axis, ms.compound)]


class TestAgainstBruteForce:
    def test_reports_match_the_brute_force_reference(self):
        """Whole reports agree on every listed configuration, covered or
        not, including the rank of the first uncovered placement."""
        compared, outcomes = 0, set()
        for seed in range(240):
            for ms in differential_configs(seed):
                want = brute_force_cover(ms)
                assert verify_cover(ms) == want, (seed, ms.spec)
                compared += 1
                outcomes.add(want.ok)
        assert compared >= 300
        assert outcomes == {True, False}

    def test_attack_without_placement_verifies_nothing_at_once(self):
        """17 disjoint 8x8 squares do not fit on 32x32: nothing to check."""
        base = gen_square_cover((32, 32), 8, 3)
        ms = MaskSet(base.masks, PatchSpec.multi(32, 32, 17, 8), 3)
        start = time.perf_counter()
        assert verify_cover(ms) == CoverageReport(True, None, 0)
        assert time.perf_counter() - start < 1.0

    def test_paper_scale_compound_cover(self):
        """The two-patch cover of the random-multi benchmark workload."""
        ms = gen_multi_cover(gen_square_cover((32, 32), 4, 3), 2)
        start = time.perf_counter()
        assert verify_cover(ms) == CoverageReport(True, None, 335_400)
        assert time.perf_counter() - start < 2.0


def anchors_of(mask_set):
    rows = sorted({m.rects[0].top for m in mask_set.masks})
    cols = sorted({m.rects[0].left for m in mask_set.masks})
    return rows, cols


class TestSquareCover:
    def test_small_plane_layout(self):
        ms = gen_square_cover((8, 8), 2, 3)
        assert len(ms) == 9
        rows, cols = anchors_of(ms)
        assert rows == [0, 3, 4]
        assert cols == [0, 3, 4]
        assert all(m.rects[0].height == 4 and m.rects[0].width == 4
                   for m in ms.masks)

    def test_small_plane_is_verified_cover(self):
        report = verify_cover(gen_square_cover((8, 8), 2, 3))
        assert report == CoverageReport(True, None, 49)

    def test_large_plane_layout(self):
        ms = gen_square_cover((224, 224), 32, 6)
        assert len(ms) == 36
        rows, cols = anchors_of(ms)
        assert rows == [0, 33, 66, 99, 132, 160]
        assert cols == rows
        assert all(m.rects[0].height == 64 for m in ms.masks)

    def test_anchors_clamp_to_plane(self):
        # stride 2 would put anchor 6 at extent 3 past the edge; it is
        # pulled back to 5 and deduplicated
        ms = gen_square_cover((8, 8), 2, 6)
        rows, cols = anchors_of(ms)
        assert rows == [0, 2, 4, 5]
        assert cols == [0, 2, 4, 5]
        assert verify_cover(ms).ok

    def test_single_mask_covers_whole_plane(self):
        ms = gen_square_cover((7, 5), 3, 1)
        assert len(ms) == 1
        r = ms.masks[0].rects[0]
        assert (r.top, r.left, r.height, r.width) == (0, 0, 7, 5)
        assert verify_cover(ms).ok

    def test_removing_a_mask_breaks_the_cover(self):
        ms = gen_square_cover((8, 8), 2, 3)
        broken = MaskSet(ms.masks[1:], ms.spec, ms.masks_per_axis)
        report = verify_cover(broken)
        assert not report.ok
        assert report.first_uncovered == (Rect(0, 0, 2, 2),)
        assert report.placements_checked == 1

    def test_rejects_more_masks_than_anchors(self):
        with pytest.raises(InvalidInputError):
            gen_square_cover((8, 8), 2, 8)
        with pytest.raises(InvalidInputError, match="^masks_per_axis must be positive$"):
            gen_square_cover((8, 8), 2, 0)

    def test_rejects_patch_larger_than_plane(self):
        with pytest.raises(InvalidInputError):
            gen_square_cover((8, 8), 9, 1)

    def test_deterministic(self):
        assert gen_square_cover((16, 12), 3, 2) == gen_square_cover((16, 12), 3, 2)

    def test_randomized_configs_always_cover(self, rng):
        for _ in range(25):
            h = rng.randint(4, 20)
            w = rng.randint(4, 20)
            p = rng.randint(1, min(h, w))
            kmax = min(h, w) - p + 1
            k = rng.randint(1, min(4, kmax))
            ms = gen_square_cover((h, w), p, k)
            report = verify_cover(ms)
            assert report.ok, (h, w, p, k, report.first_uncovered)


class TestRectCover:
    def test_small_budget_cover(self):
        ms = gen_rect_cover((12, 12), 4, 3)
        report = verify_cover(ms)
        assert report.ok
        assert report.placements_checked == _placement_ranks(ms.spec)[0]

    def test_wide_and_tall_shapes_are_covered(self):
        # area 16 admits a 5x3 patch; the shape buckets must catch it
        ms = gen_rect_cover((16, 16), 16, 2)
        assert verify_cover(ms).ok

    def test_unit_area_reduces_to_unit_square_cover(self):
        rect = gen_rect_cover((9, 9), 1, 2)
        square = gen_square_cover((9, 9), 1, 2)
        assert rect.masks == square.masks

    def test_randomized_budgets_always_cover(self, rng):
        for _ in range(12):
            h = rng.randint(5, 16)
            w = rng.randint(5, 16)
            area = rng.randint(1, min(12, h * w))
            k = rng.randint(1, 3)
            ms = gen_rect_cover((h, w), area, k)
            report = verify_cover(ms)
            assert report.ok, (h, w, area, k, report.first_uncovered)


class TestMultiCover:
    def test_pairs_of_base_masks(self):
        base = gen_square_cover((8, 8), 2, 3)
        ms = gen_multi_cover(base, 2)
        assert len(ms) == 36  # C(9, 2)
        assert ms.compound
        assert ms.spec.kind == "multi"
        assert ms.spec.count == 2
        assert all(len(m.rects) == 2 for m in ms.masks)

    def test_pair_cover_is_verified(self):
        base = gen_square_cover((8, 8), 2, 3)
        ms = gen_multi_cover(base, 2)
        report = verify_cover(ms)
        assert report.ok
        assert report.placements_checked == _placement_ranks(ms.spec)[0]

    def test_count_one_returns_base_unchanged(self):
        base = gen_square_cover((8, 8), 2, 3)
        assert gen_multi_cover(base, 1) is base

    def test_rejects_count_beyond_base_size(self):
        base = gen_square_cover((8, 8), 2, 2)  # 4 masks
        with pytest.raises(InvalidInputError):
            gen_multi_cover(base, 5)

    def test_rejects_non_square_base(self):
        base = gen_rect_cover((8, 8), 4, 2)
        with pytest.raises(InvalidInputError):
            gen_multi_cover(base, 2)

    def test_rejects_zero_patches(self):
        base = gen_square_cover((8, 8), 2, 2)
        with pytest.raises(InvalidInputError, match="patch_count must be at least 1"):
            gen_multi_cover(base, 0)


class TestMaskSet:
    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            MaskSet((), PatchSpec.square(4, 4, 2), 1)

    def test_rejects_plane_mismatch(self):
        mask = Mask(5, 4, (Rect(0, 0, 5, 4),))
        with pytest.raises(InvalidInputError):
            MaskSet((mask,), PatchSpec.square(4, 4, 2), 1)

    def test_len(self):
        assert len(gen_square_cover((8, 8), 2, 3)) == 9

    def test_rejects_zero_masks_per_axis(self):
        ms = gen_square_cover((4, 4), 2, 2)
        with pytest.raises(InvalidInputError, match="masks_per_axis must be positive"):
            MaskSet(ms.masks, ms.spec, masks_per_axis=0)

    def test_stores_a_list_of_masks_as_a_tuple(self):
        ms = gen_square_cover((4, 4), 2, 2)
        listed = MaskSet(list(ms.masks), ms.spec, ms.masks_per_axis)
        assert isinstance(listed.masks, tuple)
        assert listed == ms
