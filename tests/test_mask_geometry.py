"""What a mask hides, as its merged spans and its cell bitset answer it.

`Mask.spans` and `Mask.cells`, both computed once when the mask is
built, are the forms of a mask's geometry that the package reads. These
tests hold them and their readers to `Mask.to_matrix` on masks whose
merged spans run past a row end, check that no reader builds them
again, and fence every other reader of `Mask.rects` out of `src/`.
"""
import ast
import pathlib
import pickle
import random

import pytest

from patchcert import oracle, tensor
from patchcert.classifiers import HashClassifier, LinearClassifier, _mutant_scorers
from patchcert.cover import _covered_anchors, gen_multi_cover, gen_rect_cover, \
    gen_square_cover, verify_cover
from patchcert.dataset_io import DatasetRecord
from patchcert.oracle import CHECK_THM1, AttackConfig, run_soundness
from patchcert.tensor import (
    Mask, PatchSpec, Rect, _span_at, apply_mask, iter_placements, mask_covers,
)

from conftest import make_image

H, W = 5, 6

# Masks whose merged spans cross a row end; the last one's rects overlap.
ROW_END_MASKS = {
    "full_width": Mask(H, W, (Rect(1, 0, 2, W),)),
    "stacked_full_width": Mask(H, W, (Rect(0, 0, 1, W), Rect(1, 0, 2, W))),
    "right_edge_above_column_0": Mask(H, W, (Rect(1, 3, 1, 3), Rect(2, 0, 2, 2))),
    "overlapping_full_width": Mask(H, W, (Rect(1, 0, 2, W), Rect(2, 2, 2, 3))),
}


@pytest.fixture(params=sorted(ROW_END_MASKS))
def mask(request):
    return ROW_END_MASKS[request.param]


def hidden(mask, placement):
    """Whether `Mask.to_matrix` hides every pixel of the placement."""
    grid = mask.to_matrix()
    return all(
        grid[y][x]
        for r in placement
        for y in range(r.top, r.bottom)
        for x in range(r.left, r.right)
    )


def placements():
    """Every single rect on the plane, and every pair of disjoint 1x1 or
    2x2 squares."""
    spec = PatchSpec.rectangle(H, W, H * W)
    yield from iter_placements(spec)
    for size in (1, 2):
        yield from iter_placements(PatchSpec.multi(H, W, 2, size))


def test_spans_run_past_a_row_end(mask):
    """The directed masks do what they are for: one merged span crosses
    from one row into the next."""
    assert any(
        a // W != (b - 1) // W for a, b in mask.spans
    )


def test_span_at_matches_the_dense_grid(mask):
    spans = mask.spans
    grid = mask.to_matrix()
    for p in range(H * W):
        span = _span_at(spans, p)
        assert (span is not None) == grid[p // W][p % W], p
        assert span is None or span[0] <= p < span[1]
    assert mask.cells == sum(1 << p for p in range(H * W) if grid[p // W][p % W])


def test_mask_covers_matches_the_dense_grid(mask):
    for placement in placements():
        assert mask_covers(mask, placement) == hidden(mask, placement), placement


@pytest.mark.parametrize("channels", [1, 2, 3])
def test_survivors_match_the_dense_grid(mask, channels):
    img = make_image(random.Random(channels), H, W, channels=channels)
    clf = HashClassifier(seed=1, num_labels=3)
    _, scorers, benign = _mutant_scorers(clf, img, [mask])
    grid = mask.to_matrix()
    for placement in placements():
        plan = oracle._PlacementPlan(placement, img, [mask], scorers, benign)
        pixels = [
            (y, x)
            for r in placement
            for y in range(r.top, r.bottom)
            for x in range(r.left, r.right)
        ]
        kept = tuple(
            k * channels + ch
            for k, (y, x) in enumerate(pixels)
            if not grid[y][x]
            for ch in range(channels)
        )
        assert plan.survivors(mask) == kept, placement
        assert (plan.covering == [0]) == (not kept)


@pytest.mark.parametrize("spec", [
    PatchSpec.square(H, W, 2), PatchSpec.rectangle(H, W, 6), PatchSpec.multi(H, W, 2, 2),
], ids=["square", "rectangle", "multi"])
def test_the_scan_cover_test_is_mask_covers(spec):
    """A placement plan's covering masks, found by a subset test on cell
    bitsets, are those `mask_covers` names, for every placement and for
    the generated covers and the row-end masks alike."""
    base = gen_square_cover((H, W), 2, 2)
    masks = [*ROW_END_MASKS.values(), *base.masks,
             *gen_rect_cover((H, W), 6, 2).masks, *gen_multi_cover(base, 2).masks]
    img = make_image(random.Random(0), H, W, channels=2)
    _, scorers, benign = _mutant_scorers(HashClassifier(seed=1, num_labels=3), img, masks)
    for placement in iter_placements(spec):
        plan = oracle._PlacementPlan(placement, img, masks, scorers, benign)
        covers = [mask_covers(m, placement) for m in masks]
        assert plan.covering == [i for i, hit in enumerate(covers) if hit], placement
        assert plan.uncovered == [i for i, hit in enumerate(covers) if not hit], placement


def test_covered_anchors_match_the_dense_grid(mask):
    for rh in range(1, H + 1):
        for rw in range(1, W + 1):
            cols = W - rw + 1
            want = sum(
                1 << (top * cols + left)
                for top in range(H - rh + 1)
                for left in range(cols)
                if hidden(mask, (Rect(top, left, rh, rw),))
            )
            assert _covered_anchors(mask, rh, rw) == want, (rh, rw)


def test_a_mask_builds_its_spans_once(monkeypatch):
    """A mask merges its spans and builds its cell bitset when it is
    built, and its readers read `Mask.spans` and `Mask.cells` without
    building them again: the scan builds cells for its placements only.
    Equality, hashing, pickling and set dedup still go by the fields."""
    merge, merged = tensor._merged_spans, []
    rect_cells, celled = tensor._rect_cells, []

    def counted(spans):
        merged.append(spans)
        return merge(spans)

    def counted_cells(rects, plane_width):
        celled.append(tuple(rects))
        return rect_cells(rects, plane_width)

    monkeypatch.setattr(tensor, "_merged_spans", counted)
    monkeypatch.setattr(tensor, "_rect_cells", counted_cells)
    monkeypatch.setattr(oracle, "_rect_cells", counted_cells)
    rects = (Rect(1, 0, 2, W), Rect(0, 3, 2, 2))
    mask = Mask(H, W, rects)
    assert len(merged) == 1
    assert celled == [rects]
    img = make_image(random.Random(0), H, W, channels=3)
    scorer = LinearClassifier(seed=1, num_labels=3)._scorer(img.packed, 1)
    for _ in range(3):
        mask_covers(mask, (Rect(1, 1, 1, 1),))
        apply_mask(img, mask)
        _covered_anchors(mask, 1, 2)
        scorer.masked(mask, img.channels)
    assert len(merged) == 1
    assert celled == [rects]
    cover = gen_square_cover((H, W), 2, 2)
    merged.clear()
    celled.clear()
    assert verify_cover(cover).ok
    clf, plain = HashClassifier(seed=1, num_labels=3), make_image(random.Random(1), H, W)
    record = DatasetRecord("s", clf.classify(plain).label, plain)
    run_soundness(clf, [record], cover, [], AttackConfig(cover.spec), {CHECK_THM1})
    assert merged == []
    assert celled == list(iter_placements(cover.spec))
    twin = Mask(H, W, list(rects))
    assert twin == mask and hash(twin) == hash(mask) and len({mask, twin}) == 1
    assert twin != Mask(H, W, rects[:1])
    copy = pickle.loads(pickle.dumps(mask))
    assert copy == mask and hash(copy) == hash(mask)
    assert copy.spans == mask.spans


# The only code in `src/` that may read `Mask.rects`, by module and
# enclosing definition: the class itself, which builds the spans every
# other reader goes through, the compound-mask builder and the mask-set
# writer.
RECTS_READERS = {
    ("tensor", "Mask"),
    ("cover", "gen_multi_cover"),
    ("dataset_io", "save_maskset"),
}


def rects_reads(tree, module):
    """(module, top-level definition, line) of each `.rects` read."""
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == "rects":
                yield module, getattr(top, "name", None), node.lineno


def test_only_the_fenced_definitions_read_mask_rects():
    package = pathlib.Path(__file__).resolve().parent.parent / "src" / "patchcert"
    sources = sorted(package.glob("*.py"))
    assert sources
    reads = [
        read
        for path in sources
        for read in rects_reads(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    ]
    assert reads
    assert [read for read in reads if read[:2] not in RECTS_READERS] == []
