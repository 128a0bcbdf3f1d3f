"""Image, mask, and patch primitives."""
import dataclasses
import itertools
import random
import time

import pytest

from patchcert.errors import DimensionMismatchError, InvalidInputError
from patchcert.tensor import (
    Image,
    Mask,
    PatchSpec,
    Rect,
    apply_mask,
    apply_patch,
    iter_placements,
    mask_covers,
    _placement_ranks,
    _placement_runs,
)

from conftest import make_image, reference_placements


def grid_image(rows):
    """Build a 1-channel image from nested row lists."""
    h = len(rows)
    w = len(rows[0])
    flat = tuple(v for row in rows for v in row)
    return Image(h, w, 1, 4, flat)


def pixel(img, y, x, ch=0):
    """The value at (y, x, ch), by the flat layout `Image` documents."""
    return img.pixels[(y * img.width + x) * img.channels + ch]


class TestRect:
    def test_derived_edges(self):
        r = Rect(1, 2, 3, 4)
        assert (r.bottom, r.right, r.area) == (4, 6, 12)

    def test_intersects(self):
        assert Rect(0, 0, 2, 2).intersects(Rect(1, 1, 2, 2))
        # touching edges share no pixels
        assert not Rect(0, 0, 2, 2).intersects(Rect(0, 2, 2, 2))

    @pytest.mark.parametrize("args", [(-1, 0, 1, 1), (0, -1, 1, 1), (0, 0, 0, 1), (0, 0, 1, 0)])
    def test_rejects_bad_geometry(self, args):
        with pytest.raises(InvalidInputError):
            Rect(*args)


class TestImage:
    def test_flat_layout_is_row_major_channels_innermost(self):
        """(y, x, ch) sits at (y * width + x) * channels + ch, so masking
        pixel (0, 1) zeroes flat values 2 and 3, and pixel (1, 0) 4 and 5."""
        img = Image(2, 2, 2, 9, (1, 2, 3, 4, 5, 6, 7, 8))
        masked = apply_mask(img, Mask(2, 2, (Rect(0, 1, 1, 1),)))
        assert masked.pixels == (1, 2, 0, 0, 5, 6, 7, 8)
        masked = apply_mask(img, Mask(2, 2, (Rect(1, 0, 1, 1),)))
        assert masked.pixels == (1, 2, 3, 4, 0, 0, 7, 8)

    def test_rejects_wrong_pixel_count(self):
        with pytest.raises(InvalidInputError):
            Image(2, 2, 1, 4, (0, 0, 0))

    def test_rejects_out_of_alphabet_values(self):
        with pytest.raises(InvalidInputError):
            Image(1, 2, 1, 4, (0, 4))
        with pytest.raises(InvalidInputError):
            Image(1, 2, 1, 4, (-1, 0))

    @pytest.mark.parametrize("alphabet", [2, 255, 256, 257, 70000])
    @pytest.mark.parametrize("bad", ["negative", "alphabet", "non-integer"])
    def test_refusals_name_the_alphabet_range(self, alphabet, bad):
        """One message whichever check refuses the value: the C pass for
        256 values or fewer, `min`/`max` above. A non-integer pixel is
        refused too."""
        value = {"negative": -1, "alphabet": alphabet, "non-integer": 1.5}[bad]
        with pytest.raises(InvalidInputError) as refused:
            Image(1, 3, 1, alphabet, (0, value, 1))
        assert str(refused.value) == f"pixel values must lie in [0, {alphabet - 1}]"

    @pytest.mark.parametrize("alphabet", [2, 3, 255, 256, 257, 65536, 70000, 2**32])
    def test_packed_is_the_reference_encoding(self, alphabet):
        """Every pixel in `bytes_per_pixel` little-endian bytes, stored
        when the image is built, at every alphabet."""
        rng = random.Random(alphabet)
        pixels = [alphabet - 1, 0] + [rng.randrange(alphabet) for _ in range(22)]
        img = Image(2, 4, 3, alphabet, pixels)
        assert "packed" in vars(img)
        bpp = img.bytes_per_pixel
        assert img.packed == b"".join(v.to_bytes(bpp, "little") for v in pixels)
        assert img.pixels == tuple(pixels)

    def test_packed_is_the_only_stored_form(self):
        """`pixels` is taken by the constructor and decoded on read; the
        instance stores no pixel sequence next to `packed`."""
        img = Image(2, 2, 1, 4, [0, 1, 2, 3])
        assert [f.name for f in dataclasses.fields(Image)] == [
            "height", "width", "channels", "alphabet_size", "packed"]
        assert "pixels" not in vars(img)
        assert img.pixels == (0, 1, 2, 3)

    @pytest.mark.parametrize("alphabet", [4, 256, 300, 70000, 2**32])
    def test_list_tuple_and_bytes_build_the_same_image(self, alphabet):
        rng = random.Random(alphabet)
        values = [alphabet - 1, 0] + [rng.randrange(alphabet) for _ in range(22)]
        kinds = [list, tuple] + ([bytes] if alphabet <= 256 else [])
        images = [Image(2, 4, 3, alphabet, kind(values)) for kind in kinds]
        for img in images:
            assert img == images[0]
            assert hash(img) == hash(images[0])
            assert img.pixels == tuple(values)

    def test_pixels_are_required(self):
        with pytest.raises(TypeError, match="pixels"):
            Image(1, 1, 1, 2)

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(InvalidInputError):
            Image(0, 2, 1, 4, ())
        with pytest.raises(InvalidInputError):
            Image(1, 1, 1, 1, (0,))
        # A wider alphabet's pixels would not fit `packed`'s 4 bytes.
        with pytest.raises(InvalidInputError, match=r"\[2, 2\*\*32\]"):
            Image(1, 1, 1, 2**32 + 1, (2**32,))

    def test_packed_single_byte_alphabets(self):
        img = Image(1, 2, 1, 256, (5, 200))
        assert img.bytes_per_pixel == 1
        assert img.packed == bytes([5, 200])

    def test_packed_wide_alphabets_little_endian(self):
        img = Image(1, 1, 1, 65536, (0x0102,))
        assert img.bytes_per_pixel == 2
        assert img.packed == bytes([0x02, 0x01])
        img = Image(1, 2, 1, 2**32, (0x01020304, 2**32 - 1))
        assert img.bytes_per_pixel == 4
        assert img.packed == bytes([0x04, 0x03, 0x02, 0x01, 0xFF, 0xFF, 0xFF, 0xFF])


class TestApplyMask:
    def test_zeroes_exactly_the_masked_column(self):
        img = grid_image([[1, 2, 3], [0, 1, 2]])
        mask = Mask(2, 3, (Rect(0, 1, 2, 1),))
        assert apply_mask(img, mask).pixels == (1, 0, 3, 0, 0, 2)

    def test_zeroes_all_channels(self):
        img = Image(2, 2, 2, 9, (1, 2, 3, 4, 5, 6, 7, 8))
        mask = Mask(2, 2, (Rect(0, 0, 1, 1),))
        assert apply_mask(img, mask).pixels == (0, 0, 3, 4, 5, 6, 7, 8)

    def test_idempotent(self, rng):
        img = make_image(rng, 6, 5)
        mask = Mask(6, 5, (Rect(1, 1, 3, 2), Rect(0, 3, 2, 2)))
        once = apply_mask(img, mask)
        assert apply_mask(once, mask).pixels == once.pixels

    def test_matches_dense_grid_oracle(self, rng):
        """1-, 2- and 4-byte pixels; `to_matrix` never touches the bytes."""
        for alphabet in (4, 300, 70000) * 200:
            h = rng.randint(1, 7)
            w = rng.randint(1, 7)
            img = make_image(
                rng, h, w, channels=rng.randint(1, 3), alphabet_size=alphabet
            )
            rects = tuple(
                Rect(
                    rng.randrange(h), rng.randrange(w),
                    rng.randint(1, h - 0), rng.randint(1, w - 0),
                )
                for _ in range(rng.randint(1, 3))
            )
            rects = tuple(
                Rect(r.top, r.left,
                     min(r.height, h - r.top), min(r.width, w - r.left))
                for r in rects
            )
            mask = Mask(h, w, rects)
            grid = mask.to_matrix()
            out = apply_mask(img, mask)
            for y in range(h):
                for x in range(w):
                    for ch in range(img.channels):
                        want = 0 if grid[y][x] else pixel(img, y, x, ch)
                        assert pixel(out, y, x, ch) == want

    def test_rejects_plane_mismatch(self):
        img = grid_image([[0, 0], [0, 0]])
        mask = Mask(3, 2, (Rect(0, 0, 1, 1),))
        with pytest.raises(DimensionMismatchError):
            apply_mask(img, mask)

    def test_mask_rejects_out_of_plane_rect(self):
        with pytest.raises(InvalidInputError):
            Mask(2, 2, (Rect(1, 1, 2, 1),))

    def test_mask_rejects_no_rects(self):
        with pytest.raises(InvalidInputError, match="mask needs at least one rect"):
            Mask(2, 2, ())


class TestApplyPatch:
    def test_writes_row_major_content(self):
        img = grid_image([[1, 2, 3], [0, 1, 2]])
        out = apply_patch(img, (Rect(0, 0, 2, 2),), (3, 3, 2, 1))
        assert out.pixels == (3, 3, 3, 2, 1, 2)

    def test_multi_rect_content_concatenates_in_order(self):
        img = grid_image([[1, 2, 3], [0, 1, 2]])
        out = apply_patch(img, (Rect(0, 0, 1, 1), Rect(1, 2, 1, 1)), (2, 3))
        assert out.pixels == (2, 2, 3, 0, 1, 3)

    def test_channels_innermost(self):
        img = Image(2, 2, 2, 9, (1, 2, 3, 4, 5, 6, 7, 8))
        out = apply_patch(img, (Rect(0, 1, 1, 1),), (0, 7))
        assert out.pixels == (1, 2, 0, 7, 5, 6, 7, 8)

    def test_original_is_untouched(self):
        img = grid_image([[1, 2], [3, 0]])
        apply_patch(img, (Rect(0, 0, 1, 1),), (0,))
        assert img.pixels == (1, 2, 3, 0)

    def test_frame_condition(self, rng):
        """Pixels outside the placement never change."""
        for _ in range(200):
            h = rng.randint(2, 7)
            w = rng.randint(2, 7)
            img = make_image(rng, h, w)
            ph = rng.randint(1, h)
            pw = rng.randint(1, w)
            r = Rect(rng.randint(0, h - ph), rng.randint(0, w - pw), ph, pw)
            content = [rng.randrange(4) for _ in range(r.area)]
            out = apply_patch(img, (r,), content)
            for y in range(h):
                for x in range(w):
                    inside = r.top <= y < r.bottom and r.left <= x < r.right
                    if inside:
                        idx = (y - r.top) * r.width + (x - r.left)
                        assert pixel(out, y, x) == content[idx]
                    else:
                        assert pixel(out, y, x) == pixel(img, y, x)

    def test_rejects_out_of_plane(self):
        img = grid_image([[0, 0], [0, 0]])
        with pytest.raises(InvalidInputError):
            apply_patch(img, (Rect(1, 1, 2, 1),), (0, 0))

    def test_rejects_overlapping_rects(self):
        img = grid_image([[0, 0], [0, 0]])
        with pytest.raises(InvalidInputError):
            apply_patch(img, (Rect(0, 0, 2, 1), Rect(1, 0, 1, 2)), (0, 0, 0, 0))

    def test_rejects_wrong_content_length(self):
        img = grid_image([[0, 0], [0, 0]])
        with pytest.raises(InvalidInputError):
            apply_patch(img, (Rect(0, 0, 1, 2),), (0,))

    def test_rejects_out_of_alphabet_content(self):
        img = grid_image([[0, 0], [0, 0]])
        with pytest.raises(InvalidInputError):
            apply_patch(img, (Rect(0, 0, 1, 1),), (4,))


class TestMaskCovers:
    def test_single_rect_containment(self):
        mask = Mask(8, 8, (Rect(0, 0, 4, 4),))
        assert mask_covers(mask, (Rect(1, 1, 2, 2),))
        assert not mask_covers(mask, (Rect(3, 3, 2, 2),))

    def test_union_of_rects_covers_jointly(self):
        # two half-plane strips whose union covers a straddling placement
        mask = Mask(4, 4, (Rect(0, 0, 4, 2), Rect(0, 2, 4, 2)))
        assert mask_covers(mask, (Rect(1, 1, 2, 2),))

    def test_gap_between_rects_is_detected(self):
        mask = Mask(4, 5, (Rect(0, 0, 4, 2), Rect(0, 3, 4, 2)))
        assert not mask_covers(mask, (Rect(1, 1, 2, 2),))

    def test_rejects_out_of_plane_placement(self):
        mask = Mask(4, 4, (Rect(0, 0, 4, 4),))
        with pytest.raises(DimensionMismatchError):
            mask_covers(mask, (Rect(3, 3, 2, 2),))

    def test_matches_pixelwise_oracle(self, rng):
        """The span lookup agrees with the dense-grid subset check."""
        for _ in range(500):
            h = rng.randint(2, 8)
            w = rng.randint(2, 8)
            rects = []
            for _ in range(rng.randint(1, 3)):
                top = rng.randrange(h)
                left = rng.randrange(w)
                rects.append(Rect(top, left,
                                  rng.randint(1, h - top), rng.randint(1, w - left)))
            mask = Mask(h, w, tuple(rects))
            placement = []
            for _ in range(rng.randint(1, 2)):
                ph = rng.randint(1, h)
                pw = rng.randint(1, w)
                cand = Rect(rng.randint(0, h - ph), rng.randint(0, w - pw), ph, pw)
                if any(cand.intersects(p) for p in placement):
                    continue
                placement.append(cand)
            grid = mask.to_matrix()
            want = all(
                grid[y][x]
                for r in placement
                for y in range(r.top, r.bottom)
                for x in range(r.left, r.right)
            )
            assert mask_covers(mask, tuple(placement)) == want


class TestPlacements:
    def test_square_is_row_major(self):
        spec = PatchSpec.square(3, 3, 2)
        got = list(iter_placements(spec))
        assert got[0] == (Rect(0, 0, 2, 2),)
        assert got == [
            (Rect(0, 0, 2, 2),), (Rect(0, 1, 2, 2),),
            (Rect(1, 0, 2, 2),), (Rect(1, 1, 2, 2),),
        ]
        assert _placement_ranks(spec)[0] == 4

    def test_square_count_closed_form(self):
        spec = PatchSpec.square(8, 8, 2)
        assert _placement_ranks(spec)[0] == 49
        assert sum(1 for _ in iter_placements(spec)) == 49

    def test_rectangle_shapes_within_area_budget(self):
        spec = PatchSpec.rectangle(12, 12, 4)
        shapes = {(p[0].height, p[0].width) for p in iter_placements(spec)}
        assert shapes == {
            (1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (3, 1), (4, 1),
        }

    def test_rectangle_count_matches_enumeration(self):
        spec = PatchSpec.rectangle(12, 12, 4)
        n = _placement_ranks(spec)[0]
        assert n == 985
        assert sum(1 for _ in iter_placements(spec)) == n

    def test_multi_unit_squares_are_all_pairs(self):
        spec = PatchSpec.multi(3, 3, 2, 1)
        placements = list(iter_placements(spec))
        assert len(placements) == 36  # C(9, 2); unit squares never collide
        assert _placement_ranks(spec)[0] == 36

    def test_multi_excludes_overlapping_pairs(self):
        spec = PatchSpec.multi(4, 4, 2, 2)
        placements = list(iter_placements(spec))
        for combo in placements:
            for a, b in itertools.combinations(combo, 2):
                assert not a.intersects(b)
        # 9 anchors; pairs closer than 2 in both axes overlap
        assert len(placements) == 16

    def test_multi_too_crowded_yields_nothing(self):
        spec = PatchSpec.multi(3, 3, 2, 2)
        assert _placement_ranks(spec)[0] == 0

    def test_a_crowded_multi_yields_only_completed_runs(self):
        # 16 unit squares on 4x4 have one placement; a run that no square
        # completes is never yielded, so the walk stays on that path.
        runs = list(_placement_runs(PatchSpec.multi(4, 4, 16, 1)))
        assert [(run, completions) for _, run, completions in runs] == [
            (tuple(range(15)), 1 << 15)
        ]

    @pytest.mark.parametrize("spec", [
        PatchSpec.square(3, 5, 2),
        PatchSpec.square(5, 3, 1),
        PatchSpec.square(4, 4, 4),
        PatchSpec.rectangle(3, 4, 4),
        PatchSpec.rectangle(4, 3, 12),
        PatchSpec.rectangle(1, 5, 3),
        PatchSpec.multi(4, 4, 1, 2),
        PatchSpec.multi(3, 3, 2, 2),
        PatchSpec.multi(5, 4, 2, 2),
        PatchSpec.multi(7, 5, 2, 2),
        PatchSpec.multi(5, 8, 2, 3),
        PatchSpec.multi(4, 7, 2, 1),
        PatchSpec.multi(5, 5, 3, 2),
        PatchSpec.multi(4, 6, 3, 1),
        PatchSpec.multi(4, 4, 3, 3),
        PatchSpec.multi(6, 6, 4, 2),
    ], ids=lambda spec: (
        f"{spec.kind}-{spec.plane_height}x{spec.plane_width}"
        f"-size{spec.size}-area{spec.area}-count{spec.count}"
    ))
    def test_unrank_gives_the_enumerated_placement_at_each_rank(self, spec):
        listed = list(reference_placements(spec))
        n, unrank = _placement_ranks(spec)
        assert n == len(listed)
        assert [unrank(k) for k in range(n)] == listed

    @pytest.mark.parametrize("spec", [
        PatchSpec.multi(9, 9, 3, 2),
        PatchSpec.multi(8, 11, 3, 3),
        PatchSpec.multi(6, 7, 3, 1),
        PatchSpec.multi(7, 7, 4, 2),
        PatchSpec.multi(9, 6, 4, 2),
        PatchSpec.multi(5, 4, 4, 1),
    ], ids=lambda spec: (
        f"{spec.plane_height}x{spec.plane_width}-size{spec.size}-count{spec.count}"
    ))
    def test_unrank_matches_the_recursive_reference(self, spec):
        """Three and four squares against the reference enumeration, at
        both ends and at seeded ranks."""
        listed = list(reference_placements(spec))
        n, unrank = _placement_ranks(spec)
        assert n == len(listed)
        draw = random.Random(spec.plane_height * 100 + spec.plane_width + spec.count)
        for k in [0, n - 1] + [draw.randrange(n) for _ in range(60)]:
            assert unrank(k) == listed[k], k

    def test_iter_placements_matches_the_reference(self):
        """A seeded spread of square, rectangle and 1-4 patch multi specs,
        some with no placement at all."""
        rng = random.Random(16)
        seen = set()
        for _ in range(160):
            h, w = rng.randint(1, 6), rng.randint(1, 6)
            kind = rng.choice(("square", "rectangle", "multi"))
            if kind == "square":
                spec = PatchSpec.square(h, w, rng.randint(1, min(h, w)))
            elif kind == "rectangle":
                spec = PatchSpec.rectangle(h, w, rng.randint(1, h * w))
            else:
                spec = PatchSpec.multi(h, w, rng.randint(1, 4), rng.randint(1, min(h, w, 3)))
            want = list(reference_placements(spec))
            assert list(iter_placements(spec)) == want, spec
            seen.add((kind, spec.count, bool(want)))
        assert {("multi", n, True) for n in range(1, 5)} <= seen
        assert {("square", None, True), ("rectangle", None, True)} <= seen
        assert ("multi", 4, False) in seen

    def test_crowded_spec_yields_its_one_tiling_at_once(self):
        """Nine 2x2 squares tile 6x6 one way; a walk over combinations of
        the 25 squares would try C(25, 9) = 2,042,975 of them."""
        start = time.perf_counter()
        got = list(iter_placements(PatchSpec.multi(6, 6, 9, 2)))
        assert time.perf_counter() - start < 0.5
        assert got == [tuple(Rect(t, l, 2, 2) for t in (0, 2, 4) for l in (0, 2, 4))]

    def test_spec_validation(self):
        with pytest.raises(InvalidInputError):
            PatchSpec.square(4, 4, 5)
        with pytest.raises(InvalidInputError):
            PatchSpec.square(4, 4, 0)
        with pytest.raises(InvalidInputError):
            PatchSpec.rectangle(4, 4, 17)
        with pytest.raises(InvalidInputError):
            PatchSpec.multi(4, 4, 0, 1)
        with pytest.raises(InvalidInputError):
            PatchSpec(4, 4, "blob", size=1)
        with pytest.raises(InvalidInputError, match="plane dims must be positive"):
            PatchSpec(0, 4, "square", size=1)
        with pytest.raises(InvalidInputError, match="rectangle spec needs area >= 1"):
            PatchSpec.rectangle(4, 4, 0)

    def test_spec_dict_round_trip(self):
        for spec in (
            PatchSpec.square(8, 8, 2),
            PatchSpec.rectangle(8, 8, 6),
            PatchSpec.multi(8, 8, 2, 2),
        ):
            assert PatchSpec.from_dict(8, 8, spec.to_dict()) == spec


class TestMutantIdentity:
    def test_masking_erases_covered_patches(self, rng):
        """apply_mask(apply_patch(x), m) == apply_mask(x, m) when m covers."""
        for _ in range(300):
            h = rng.randint(2, 8)
            w = rng.randint(2, 8)
            img = make_image(rng, h, w)
            p = rng.randint(1, min(h, w))
            r = Rect(rng.randint(0, h - p), rng.randint(0, w - p), p, p)
            content = [rng.randrange(4) for _ in range(r.area)]
            # grow the covering mask rect a little beyond the placement
            mt = rng.randint(0, r.top)
            ml = rng.randint(0, r.left)
            mask = Mask(h, w, (Rect(
                mt, ml,
                min(h - mt, r.bottom - mt + rng.randint(0, 2)),
                min(w - ml, r.right - ml + rng.randint(0, 2)),
            ),))
            assert mask_covers(mask, (r,))
            patched = apply_patch(img, (r,), content)
            assert apply_mask(patched, mask).pixels == apply_mask(img, mask).pixels
