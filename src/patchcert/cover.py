"""Covering mask set construction and its exhaustive verifier.

A mask set covers a patch spec when every legal placement is fully
inside at least one mask. Generators below construct such sets; the
verifier checks the property for every placement and is deliberately
independent of how the set was built: it reads only the masks' cell
bitsets (`Mask.cells`) and the spec. It represents placements as bitsets
over patch anchors, so one integer operation checks many of them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from .errors import InvalidInputError
from .tensor import Mask, PatchSpec, Placement, Rect, _placement_runs

__all__ = [
    "MaskSet",
    "CoverageReport",
    "gen_square_cover",
    "gen_rect_cover",
    "gen_multi_cover",
    "verify_cover",
]


@dataclass(frozen=True)
class MaskSet:
    """Ordered, deterministic collection of masks plus the spec they cover."""

    masks: tuple[Mask, ...]
    spec: PatchSpec
    masks_per_axis: int
    compound: bool = False

    def __post_init__(self):
        if not isinstance(self.masks, tuple):
            object.__setattr__(self, "masks", tuple(self.masks))
        if not self.masks:
            raise InvalidInputError("mask set needs at least one mask")
        h, w = self.spec.plane_height, self.spec.plane_width
        for m in self.masks:
            if (m.plane_height, m.plane_width) != (h, w):
                raise InvalidInputError("all masks must share the spec's plane")
        if self.masks_per_axis < 1:
            raise InvalidInputError("masks_per_axis must be positive")

    def __len__(self) -> int:
        return len(self.masks)


@dataclass(frozen=True)
class CoverageReport:
    """Outcome of verify_cover.

    `first_uncovered` is the lexicographically first failing placement,
    or None when the set covers everything.
    """

    ok: bool
    first_uncovered: Placement | None
    placements_checked: int


def _axis_anchors(n: int, patch: int, k: int) -> tuple[list[int], int]:
    """Anchor offsets and mask extent along one axis of length n.

    Stride s = ceil((n - patch + 1) / k) and extent m = patch - 1 + s
    guarantee that consecutive anchors leave no gap an anchor-to-anchor
    patch could slip through; the final anchor is pinned to n - m so the
    tail is covered. Anchors that would leave the plane are clamped to
    n - m, then deduplicated, so fewer than k anchors can come back.
    The callers pass a `patch` already checked to lie in [1, n].
    """
    positions = n - patch + 1
    if k < 1:
        raise InvalidInputError("masks_per_axis must be positive")
    if k != 1 and k > positions:
        raise InvalidInputError(
            f"masks_per_axis {k} exceeds the {positions} distinct anchors"
        )
    stride = -(-positions // k)
    extent = min(patch - 1 + stride, n)
    last = n - extent
    anchors = {min(i * stride, last) for i in range(k - 1)}
    anchors.add(last)
    return sorted(anchors), extent


def gen_square_cover(
    plane: tuple[int, int], patch_size: int, masks_per_axis: int
) -> MaskSet:
    """Covering set for all square patches of the given size.

    The two axes are covered independently and the mask set is the
    axis product, ordered row-major by anchor.
    """
    h, w = plane
    spec = PatchSpec.square(h, w, patch_size)
    ys, mh = _axis_anchors(h, patch_size, masks_per_axis)
    xs, mw = _axis_anchors(w, patch_size, masks_per_axis)
    masks = tuple(
        Mask(h, w, (Rect(ay, ax, mh, mw),)) for ay in ys for ax in xs
    )
    return MaskSet(masks, spec, masks_per_axis)


def _rect_buckets(h: int, w: int, area: int) -> list[tuple[int, int]]:
    """Rectangle extents (ph, pw) such that any patch of area <= `area`
    fits inside at least one bucket.

    Bucket heights halve from min(area, h) down to 1. A bucket with the
    height range (lo, hi] must be wide enough for the widest patch of
    any height above lo, which is floor(area / (lo + 1)) columns. The
    near-square extreme is added explicitly; dominated buckets are
    pruned.
    """
    buckets: list[tuple[int, int]] = []
    hi = min(area, h)
    while hi >= 1:
        lo = hi // 2
        pw = min(w, max(1, area // (lo + 1)))
        buckets.append((hi, pw))
        if hi == 1:
            break
        hi = lo
    side = math.isqrt(area)
    if side * side < area:
        side += 1
    buckets.append((min(side, h), min(side, w)))
    pruned: list[tuple[int, int]] = []
    for b in buckets:
        if any(o != b and o[0] >= b[0] and o[1] >= b[1] for o in buckets):
            continue
        if b not in pruned:
            pruned.append(b)
    return pruned


def gen_rect_cover(plane: tuple[int, int], area: int, masks_per_axis: int) -> MaskSet:
    """Covering set for all rectangles with area up to the budget.

    Builds one square-style axis cover per shape bucket and unions them.
    Mask count stays O(masks_per_axis^2 * log(area)); verify_cover is
    the ground truth for the construction.
    """
    h, w = plane
    spec = PatchSpec.rectangle(h, w, area)
    masks: list[Mask] = []
    seen = set()
    for ph, pw in _rect_buckets(h, w, area):
        ys, mh = _axis_anchors(h, ph, min(masks_per_axis, h - ph + 1))
        xs, mw = _axis_anchors(w, pw, min(masks_per_axis, w - pw + 1))
        for ay in ys:
            for ax in xs:
                m = Mask(h, w, (Rect(ay, ax, mh, mw),))
                if m not in seen:
                    seen.add(m)
                    masks.append(m)
    return MaskSet(tuple(masks), spec, masks_per_axis)


def gen_multi_cover(base: MaskSet, patch_count: int) -> MaskSet:
    """Compound cover for `patch_count` disjoint patches.

    Every combination of `patch_count` base masks is unioned into one
    compound mask: each patch is covered by some base mask, and some
    combination contains all of those masks at once. With patch_count 1
    the base set is returned unchanged.
    """
    if patch_count < 1:
        raise InvalidInputError("patch_count must be at least 1")
    if patch_count == 1:
        return base
    if base.spec.kind != "square":
        raise InvalidInputError("compound covers are built from square covers")
    n = len(base.masks)
    if patch_count > n:
        raise InvalidInputError(
            f"patch_count {patch_count} exceeds the {n} base masks"
        )
    h, w = base.spec.plane_height, base.spec.plane_width
    masks = tuple(
        Mask(h, w, tuple(r for i in combo for r in base.masks[i].rects))
        for combo in itertools.combinations(range(n), patch_count)
    )
    spec = PatchSpec.multi(h, w, patch_count, base.spec.size)
    return MaskSet(masks, spec, base.masks_per_axis, compound=True)


def _doubling_steps(n: int) -> Iterator[int]:
    """Shifts t such that replacing x by `x & shift(x, t)` for each t in
    turn turns a window of 1 into a window of n: the window doubles
    until the last step tops it up to n."""
    span = 1
    while span < n:
        t = min(span, n - span)
        yield t
        span += t


def _covered_anchors(mask: Mask, rh: int, rw: int) -> int:
    """Bitset of the anchors whose rh x rw rect lies inside the mask.

    Bit `top * cols + left`, with cols = plane width - rw + 1, stands
    for the rect at (top, left), as in `_placement_runs`. The mask's
    cells are one int, `Mask.cells`, bit `y * width + x` for (y, x).
    ANDing it with itself shifted by columns leaves the cells whose
    window of rw lies inside, and by whole rows those whose window of rh
    does. Anchors are read from the first masked row on, and from a
    row's first cols cells, so no window runs past a row end.
    """
    w, spans, plane = mask.plane_width, mask.spans, mask.cells
    for t in _doubling_steps(rw):
        plane &= plane >> t
    for t in _doubling_steps(rh):
        plane &= plane >> (t * w)
    cols, low = w - rw + 1, spans[0][0] // w
    plane >>= low * w
    covered = 0
    for top in reversed(range(mask.plane_height - rh + 1 - low)):
        covered = (covered << cols) | ((plane >> (top * w)) & ((1 << cols) - 1))
    return covered << (low * cols)


def verify_cover(mask_set: MaskSet) -> CoverageReport:
    """Exhaustively check that every legal placement is covered.

    Every placement is checked, in `iter_placements` order, through
    anchor bitsets: a mask covers a placement when the anchor of each
    placement rect is in the mask's `_covered_anchors`, built from its
    cell bitset. The placements that share all rects but the last are
    checked at once, against the masks that cover those rects.

    Never raises on a coverage failure; the report carries the
    lexicographically first uncovered placement instead.
    """
    masks, spec = mask_set.masks, mask_set.spec
    checked, shape, covers = 0, None, []
    for (rh, rw), run, completions in _placement_runs(spec):
        if shape != (rh, rw):
            shape, covers = (rh, rw), [_covered_anchors(m, rh, rw) for m in masks]
        covered = 0
        for c in covers:
            if all((c >> i) & 1 for i in run):
                covered |= c
        missing = completions & ~covered
        if missing:
            first = missing & -missing
            cols = spec.plane_width - rw + 1
            placement = tuple(
                Rect(*divmod(i, cols), rh, rw)
                for i in run + (first.bit_length() - 1,)
            )
            checked += (completions & (first - 1)).bit_count() + 1
            return CoverageReport(False, placement, checked)
        checked += completions.bit_count()
    return CoverageReport(True, None, checked)
