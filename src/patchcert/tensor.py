"""Images, rectangles, masks, and patch regions.

Pixels are small unsigned integers over an explicit finite alphabet so
that patch contents can be enumerated exhaustively; ordinary 8-bit
images are the alphabet_size=256 case. Masking zeroes every channel at
the masked spatial locations. All operations return new values; nothing
here mutates its inputs.
"""

from __future__ import annotations

import array
import bisect
import itertools
import math
import operator
import random
import struct
from dataclasses import InitVar, dataclass, field
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DimensionMismatchError, InvalidInputError

__all__ = [
    "Rect",
    "Image",
    "Mask",
    "PatchSpec",
    "Placement",
    "apply_mask",
    "apply_patch",
    "mask_covers",
    "iter_placements",
]


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle in (row, column) coordinates.

    `top`/`left` are inclusive, extents are at least 1.
    """

    top: int
    left: int
    height: int
    width: int

    def __post_init__(self):
        if self.top < 0 or self.left < 0:
            raise InvalidInputError(f"rect origin must be non-negative: {self}")
        if self.height < 1 or self.width < 1:
            raise InvalidInputError(f"rect extents must be at least 1: {self}")

    @property
    def bottom(self) -> int:
        """One past the last covered row."""
        return self.top + self.height

    @property
    def right(self) -> int:
        """One past the last covered column."""
        return self.left + self.width

    @property
    def area(self) -> int:
        return self.height * self.width

    def inside_plane(self, plane_height: int, plane_width: int) -> bool:
        return self.bottom <= plane_height and self.right <= plane_width

    def intersects(self, other: "Rect") -> bool:
        return (
            self.top < other.bottom
            and other.top < self.bottom
            and self.left < other.right
            and other.left < self.right
        )

    def to_list(self) -> list[int]:
        return [self.top, self.left, self.height, self.width]


Placement = tuple[Rect, ...]


@dataclass(frozen=True)
class Image:
    """Immutable dense image with row-major pixels, channels innermost.

    The flat index of (y, x, ch) is (y * width + x) * channels + ch.
    Every pixel is an integer in [0, alphabet_size - 1], and an alphabet
    has at most 2**32 values. Building an image checks its `pixels`, a
    sequence of ints, and stores `packed`, the one stored form and the
    canonical byte encoding that every pixel backend classifies: pixel i
    occupies `bytes_per_pixel` bytes, little-endian, at offset
    i * bytes_per_pixel. With at most 256 values, one C pass both checks
    the pixels and packs them; with more, `min` over the integer values
    and `max` check them first. Reading `pixels` decodes `packed` into a
    new tuple, O(n) per read, so hot paths read `packed`.
    """

    height: int
    width: int
    channels: int
    alphabet_size: int
    pixels: InitVar[Sequence[int]]
    packed: bytes = field(init=False)

    def __post_init__(self, pixels):
        if self.height < 1 or self.width < 1 or self.channels < 1:
            raise InvalidInputError(
                f"image dims must be positive, got "
                f"{self.height}x{self.width}x{self.channels}"
            )
        if not 2 <= self.alphabet_size <= 2**32:
            # `packed` stores a pixel in at most 4 bytes.
            raise InvalidInputError(
                f"alphabet_size must lie in [2, 2**32], got {self.alphabet_size}"
            )
        expected = self.height * self.width * self.channels
        if len(pixels) != expected:
            raise InvalidInputError(f"expected {expected} pixels, got {len(pixels)}")
        a = self.alphabet_size
        try:
            if a <= 256:
                # One C pass: `bytes` refuses a non-integer or a value
                # outside [0, 255], and its result is `packed`.
                packed = bytes(pixels)
                valid = a == 256 or not packed.translate(None, bytes(range(a)))
            else:
                valid = 0 <= min(map(operator.index, pixels)) and max(pixels) < a
        except (TypeError, ValueError):
            valid = False
        if not valid:
            raise InvalidInputError(f"pixel values must lie in [0, {a - 1}]")
        if a > 256:
            bpp = self.bytes_per_pixel
            packed = b"".join(v.to_bytes(bpp, "little") for v in pixels)
        object.__setattr__(self, "packed", packed)

    @property
    def bytes_per_pixel(self) -> int:
        if self.alphabet_size <= 256:
            return 1
        if self.alphabet_size <= 65536:
            return 2
        return 4


# Set after the decorator: in the class body this property would become
# the `pixels` InitVar's default, so a call without pixels would not
# raise the TypeError that names them.
Image.pixels = property(
    lambda self: tuple(unpack_pixels(self.packed, self.bytes_per_pixel)),
    doc="The flat pixel values, decoded from `packed` on each read.",
)


def unpack_pixels(data: bytes, bytes_per_pixel: int) -> Sequence[int]:
    """Flat pixel values of bytes in the `Image.packed` encoding."""
    if bytes_per_pixel == 1:
        return data
    return [
        int.from_bytes(data[i : i + bytes_per_pixel], "little")
        for i in range(0, len(data), bytes_per_pixel)
    ]


def write_packed(
    buf: bytearray,
    positions: Sequence[int],
    values: Sequence[int],
    bytes_per_pixel: int,
) -> None:
    """Overwrite the pixels at flat `positions` of an `Image.packed` copy."""
    if bytes_per_pixel == 1:
        for pos, v in zip(positions, values):
            buf[pos] = v
        return
    for pos, v in zip(positions, values):
        start = pos * bytes_per_pixel
        buf[start : start + bytes_per_pixel] = v.to_bytes(bytes_per_pixel, "little")


def _draw_content(rng: random.Random, a: int, n: int) -> tuple[int, ...]:
    """`n` values of `rng.randrange(a)`, drawn in batches of 32-bit words:
    dataset pixels, random-mode patch contents and linear weights.

    For `a` of at most 32 bits, `randrange(a)` takes one word a try and
    keeps its top `a.bit_length()` bits when they are below `a`, that
    is, when the word is below `a << shift`; a rejected word belongs to
    the value being drawn. `getrandbits(32 * m)` holds m words in draw
    order from its least significant end. So filtering m words for at
    most m values still needed gives the loop's values, and leaves the
    generator in the loop's state.
    """
    shift = 32 - a.bit_length()
    if shift < 0:
        return tuple(rng.randrange(a) for _ in range(n))
    kept = partial(operator.gt, a << shift)
    # 4-byte words, half the size of the tuple built from them.
    values = array.array("I")
    while len(values) < n:
        m = min(n - len(values), 4096)  # bounds the word ints held at once
        words = struct.unpack(f"<{m}I", rng.getrandbits(32 * m).to_bytes(4 * m, "little"))
        values.extend(map(operator.rshift, filter(kept, words), itertools.repeat(shift)))
    return tuple(values)


@dataclass(frozen=True)
class Mask:
    """Union of rectangles on a fixed plane.

    Masking an image zeroes all channels at every location inside the
    union. Rectangles may overlap; the union is what matters. Building
    the mask computes the two forms of its geometry that the package
    reads, over plane cells (cell `y * plane_width + x`): `spans`, the
    sorted, disjoint half-open spans of cells in the union, merged
    across row ends too, which masking reads; and `cells`, the union as
    one int with bit `y * plane_width + x` set where the mask hides
    (`_rect_cells`), which the scan's cover test and `cover.verify_cover`
    read.
    """

    plane_height: int
    plane_width: int
    rects: tuple[Rect, ...]

    def __post_init__(self):
        if not isinstance(self.rects, tuple):
            object.__setattr__(self, "rects", tuple(self.rects))
        if not self.rects:
            raise InvalidInputError("mask needs at least one rect")
        for r in self.rects:
            if not r.inside_plane(self.plane_height, self.plane_width):
                raise InvalidInputError(
                    f"mask rect {r} exceeds plane "
                    f"{self.plane_height}x{self.plane_width}"
                )
        w = self.plane_width
        object.__setattr__(self, "spans", _merged_spans(
            (y * w + r.left, y * w + r.right)
            for r in self.rects
            for y in range(r.top, r.bottom)
        ))
        object.__setattr__(self, "cells", _rect_cells(self.rects, w))

    def to_matrix(self) -> list[list[bool]]:
        """Dense boolean grid, True where the mask zeroes the plane.

        Only the tests' reference, for `spans` and `cells`: masking and
        `mask_covers` read the spans, and `cover.verify_cover`'s anchor
        bitsets and the oracle's cover test start from the cells.
        """
        grid = [[False] * self.plane_width for _ in range(self.plane_height)]
        for r in self.rects:
            for y in range(r.top, r.bottom):
                row = grid[y]
                for x in range(r.left, r.right):
                    row[x] = True
        return grid


@dataclass(frozen=True)
class PatchSpec:
    """Shape family of the adversary's patch, bound to a plane.

    kind "square": every size x size square placement.
    kind "rectangle": every rectangle with area <= area, any aspect.
    kind "multi": every set of `count` pairwise disjoint size x size squares.
    """

    plane_height: int
    plane_width: int
    kind: str
    size: int | None = None
    area: int | None = None
    count: int | None = None

    def __post_init__(self):
        if self.plane_height < 1 or self.plane_width < 1:
            raise InvalidInputError("plane dims must be positive")
        if self.kind == "square":
            self._check_size()
        elif self.kind == "rectangle":
            if self.area is None or self.area < 1:
                raise InvalidInputError("rectangle spec needs area >= 1")
            if self.area > self.plane_height * self.plane_width:
                raise InvalidInputError("area budget exceeds the plane")
        elif self.kind == "multi":
            self._check_size()
            if self.count is None or self.count < 1:
                raise InvalidInputError("multi spec needs count >= 1")
        else:
            raise InvalidInputError(f"unknown patch kind {self.kind!r}")

    def _check_size(self):
        if self.size is None or self.size < 1:
            raise InvalidInputError("patch size must be at least 1")
        if self.size > min(self.plane_height, self.plane_width):
            raise InvalidInputError(
                f"patch size {self.size} exceeds plane "
                f"{self.plane_height}x{self.plane_width}"
            )

    @classmethod
    def square(cls, plane_height: int, plane_width: int, size: int) -> "PatchSpec":
        return cls(plane_height, plane_width, "square", size=size)

    @classmethod
    def rectangle(cls, plane_height: int, plane_width: int, area: int) -> "PatchSpec":
        return cls(plane_height, plane_width, "rectangle", area=area)

    @classmethod
    def multi(
        cls, plane_height: int, plane_width: int, count: int, size: int
    ) -> "PatchSpec":
        return cls(plane_height, plane_width, "multi", size=size, count=count)

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.size is not None:
            out["size"] = self.size
        if self.area is not None:
            out["area"] = self.area
        if self.count is not None:
            out["count"] = self.count
        return out

    @classmethod
    def from_dict(cls, plane_height: int, plane_width: int, d: dict) -> "PatchSpec":
        return cls(
            plane_height,
            plane_width,
            d["kind"],
            size=d.get("size"),
            area=d.get("area"),
            count=d.get("count"),
        )


# ---------- mask and patch application ----------

def _span_at(spans: Sequence[tuple[int, int]], p: int) -> tuple[int, int] | None:
    """The span of sorted, disjoint half-open `spans` that holds `p`, or None."""
    k = bisect.bisect_right(spans, (p, math.inf))
    return spans[k - 1] if k and p < spans[k - 1][1] else None


def _merged_spans(spans: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Sorted, disjoint half-open spans that cover the union of `spans`."""
    merged: list[tuple[int, int]] = []
    for start, stop in sorted(spans):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(stop, merged[-1][1]))
        else:
            merged.append((start, stop))
    return tuple(merged)


def check_mask_plane(mask: Mask, image: Image) -> None:
    """Refuse a mask drawn on another plane than the image's."""
    if (mask.plane_height, mask.plane_width) != (image.height, image.width):
        raise DimensionMismatchError(
            f"mask plane {mask.plane_height}x{mask.plane_width} does not match "
            f"image {image.height}x{image.width}"
        )


def zero_masked(data: bytes, mask: Mask, channels: int, bytes_per_pixel: int) -> bytes:
    """Bytes in the `Image.packed` encoding with every channel zeroed at
    the masked locations."""
    scale = channels * bytes_per_pixel
    buf = bytearray(data)
    for start, stop in mask.spans:
        buf[start * scale : stop * scale] = bytes((stop - start) * scale)
    return bytes(buf)


def apply_mask(image: Image, mask: Mask) -> Image:
    """The reference mutant: a validated `Image` of `image.packed` with
    the mask zeroed by `zero_masked`; a mask on another plane is refused."""
    check_mask_plane(mask, image)
    bpp = image.bytes_per_pixel
    pixels = unpack_pixels(zero_masked(image.packed, mask, image.channels, bpp), bpp)
    return Image(image.height, image.width, image.channels, image.alphabet_size, pixels)


def _check_placement(image_h: int, image_w: int, placement: Placement) -> None:
    for r in placement:
        if not r.inside_plane(image_h, image_w):
            raise InvalidInputError(f"patch rect {r} exceeds plane {image_h}x{image_w}")
    for a, b in itertools.combinations(placement, 2):
        if a.intersects(b):
            raise InvalidInputError(f"patch rects overlap: {a} and {b}")


def apply_patch(image: Image, placement: Placement, content: Sequence[int]) -> Image:
    """Write `content` into the placement rects, row-major, channels innermost.

    Content is one flat run per rect, concatenated in placement order.
    Rects must lie inside the plane and be pairwise disjoint.
    """
    _check_placement(image.height, image.width, placement)
    c = image.channels
    need = sum(r.area for r in placement) * c
    if len(content) != need:
        raise InvalidInputError(
            f"content length {len(content)} does not match patch area {need}"
        )
    for v in content:
        if not 0 <= v < image.alphabet_size:
            raise InvalidInputError(
                f"content value {v} outside [0, {image.alphabet_size - 1}]"
            )
    buf = list(image.pixels)
    w = image.width
    pos = 0
    for r in placement:
        run = r.width * c
        for y in range(r.top, r.bottom):
            start = (y * w + r.left) * c
            buf[start : start + run] = content[pos : pos + run]
            pos += run
    return Image(image.height, image.width, image.channels, image.alphabet_size, buf)


def mask_covers(mask: Mask, placement: Placement) -> bool:
    """True when the mask hides the placement: each rect row lies in one span.

    The reference for the scan's cover test, which asks whether the
    placement's `_rect_cells` are a subset of the mask's `cells`.
    """
    spans, w = mask.spans, mask.plane_width
    for r in placement:
        if not r.inside_plane(mask.plane_height, w):
            raise DimensionMismatchError(
                f"placement rect {r} exceeds mask plane {mask.plane_height}x{w}"
            )
        for start in range(r.top * w + r.left, r.bottom * w, w):
            span = _span_at(spans, start)
            if span is None or span[1] < start + r.width:
                return False
    return True


def _rect_cells(rects: Iterable[Rect], plane_width: int) -> int:
    """The plane cells of a union of rects as one int: bit `y * plane_width
    + x` is set when a rect holds (y, x). Each rect's band is ORed in, since
    a mask's rects may overlap."""
    cells = 0
    for r in rects:
        # one bit at the start of each of the rect's rows: the geometric
        # series of 2 ** (y * plane_width) for y < r.height
        rows = ((1 << (r.height * plane_width)) - 1) // ((1 << plane_width) - 1)
        cells |= ((1 << r.width) - 1) * rows << (r.top * plane_width + r.left)
    return cells


# ---------- placement enumeration ----------


def rectangle_shapes(spec: PatchSpec) -> list[tuple[int, int]]:
    """Every (height, width) of one patch rect, in placement order.

    Square and multi specs have the one shape (size, size); a rectangle
    spec has every shape within its area.
    """
    if spec.kind != "rectangle":
        return [(spec.size, spec.size)]
    return [
        (rh, rw)
        for rh in range(1, min(spec.plane_height, spec.area) + 1)
        for rw in range(1, min(spec.plane_width, spec.area // rh) + 1)
    ]


def iter_placements(spec: PatchSpec) -> Iterator[Placement]:
    """Every legal placement under the spec, in deterministic lexicographic order.

    Single rects are ordered by (height, width, top, left), and multi
    placements as the combinations of squares in that order. Each is
    decoded from `_placement_runs` through one list of rects per shape.
    """
    shape, rects = None, []
    for (rh, rw), run, completions in _placement_runs(spec):
        if shape != (rh, rw):
            shape, rects = (rh, rw), [
                Rect(top, left, rh, rw)
                for top in range(spec.plane_height - rh + 1)
                for left in range(spec.plane_width - rw + 1)
            ]
        head = tuple(rects[i] for i in run)
        for i in _set_bits(completions):
            yield head + (rects[i],)


def _set_bits(x: int) -> Iterator[int]:
    """The indices of the set bits of `x` >= 0, in increasing order."""
    return itertools.compress(itertools.count(), map("1".__eq__, bin(x)[:1:-1]))


def _placement_runs(
    spec: PatchSpec, first: int | None = None,
) -> Iterator[tuple[tuple[int, int], tuple[int, ...], int]]:
    """Every placement as a bitset, grouped by all but its last rect.

    Yields `(shape, run, completions)` by shape, then by the runs'
    anchors in combination order: the order `iter_placements` decodes.
    The rect of shape (rh, rw) at (top, left) is anchor `top * cols +
    left`, with cols = plane width - rw + 1. `run` holds the anchors of
    every rect but the last, and bit k of `completions` is set when the
    rect at anchor k completes the run to a legal placement. A single-rect
    spec yields one empty run per shape. A multi spec yields each run of
    `count - 1` pairwise disjoint squares that some later square,
    disjoint from all of them, completes, with those squares, and
    nothing when the squares do not fit; with `first`, only the runs
    whose first square is at that anchor. A prefix is dropped once fewer
    candidate squares remain than it needs; that bound is tight for 1x1
    squares only, since overlapping candidates are counted apart.
    """
    h, w = spec.plane_height, spec.plane_width
    if spec.kind != "multi":
        for rh, rw in rectangle_shapes(spec):
            yield (rh, rw), (), (1 << ((h - rh + 1) * (w - rw + 1))) - 1
        return
    if not _squares_fit(spec):
        return
    s = spec.size
    rows, cols = h - s + 1, w - s + 1
    # one bit on each of the 2s - 1 anchor rows a square's overlap spans
    band = sum(1 << (t * cols) for t in range(2 * s - 1))

    def disjoint(i: int, squares: int) -> int:
        """`squares` without those that overlap square i: the anchors
        within s - 1 rows and s - 1 columns of it."""
        top, left = divmod(i, cols)
        lo, hi = max(0, left - s + 1), min(cols, left + s)
        overlap = (((1 << (hi - lo)) - 1) << lo) * band
        shift = (top - s + 1) * cols
        overlap = overlap << shift if shift >= 0 else overlap >> -shift
        return squares & ~overlap

    def walk(run: tuple[int, ...], squares: int):
        if squares.bit_count() < spec.count - len(run):
            return  # too few squares left to complete the run
        if len(run) == spec.count - 1:
            yield (s, s), run, squares
            return
        while squares:
            low = squares & -squares
            squares ^= low
            i = low.bit_length() - 1
            yield from walk(run + (i,), disjoint(i, squares))

    squares = (1 << (rows * cols)) - 1
    if first is None:
        yield from walk((), squares)
    else:
        yield from walk((first,), disjoint(first, (squares >> first + 1) << first + 1))


def _squares_fit(spec: PatchSpec) -> bool:
    """Whether `spec.count` disjoint s x s squares fit on the plane: each
    holds exactly one point of the lattice (s-1 + s*i, s-1 + s*j), and a
    tiling fills every point, so (h // s) * (w // s) fit and no more."""
    s = spec.size
    return spec.count <= (spec.plane_height // s) * (spec.plane_width // s)


@lru_cache(maxsize=8)
def _placement_ranks(spec: PatchSpec) -> tuple[int, Callable[[int], Placement]]:
    """The number `n` of placements, and the placement at any rank.

    `unrank(k)` is `list(iter_placements(spec))[k]` for 0 <= k < n,
    found without listing. A single rect is a (height, width) block
    found by bisection, then `divmod` for (top, left). A placement of
    `count` squares is found by its first square, bisected over the
    running totals of each square's disjoint completions, then by its
    completion of that square. Two squares count and pick the partner
    in closed form. Three or more take each first square's total from
    one `_placement_runs` walk, then walk that square's runs to the one
    that holds rank k and take the k-th of its completions' `_set_bits`.
    Cached, since random mode ranks every sample of a run by one spec.
    """
    h, w = spec.plane_height, spec.plane_width
    if spec.kind != "multi" or spec.count == 1:
        shapes = rectangle_shapes(spec)
        starts = list(itertools.accumulate(
            ((h - rh + 1) * (w - rw + 1) for rh, rw in shapes), initial=0
        ))

        def unrank(k: int) -> Placement:
            b = bisect.bisect_right(starts, k) - 1
            rh, rw = shapes[b]
            top, left = divmod(k - starts[b], w - rw + 1)
            return (Rect(top, left, rh, rw),)

        return starts[-1], unrank
    s = spec.size
    rows, cols = h - s + 1, w - s + 1
    if spec.count == 2:
        completions, completion = _pair_completions(s, rows, cols)
    else:
        totals = [0] * (rows * cols)
        for _, run, later in _placement_runs(spec):
            totals[run[0]] += later.bit_count()
        completions = totals

        def completion(i: int, k: int) -> Placement:
            for _, run, later in _placement_runs(spec, first=i):
                n = later.bit_count()
                if k < n:
                    last = next(itertools.islice(_set_bits(later), k, None))
                    return tuple(Rect(*divmod(j, cols), s, s) for j in run[1:] + (last,))
                k -= n
            raise IndexError(k)

    starts = list(itertools.accumulate(completions, initial=0))

    def unrank(k: int) -> Placement:
        i = bisect.bisect_right(starts, k) - 1
        top, left = divmod(i, cols)
        return (Rect(top, left, s, s),) + completion(i, k - starts[i])

    return starts[-1], unrank


def _pair_completions(s: int, rows: int, cols: int):
    """Each square's number of later disjoint partners, and its k-th one.

    Square i of the `rows` x `cols` grid of size-`s` squares sits at
    divmod(i, cols). The later squares that overlap it form one run of
    indices per row: the rest of its own row up to `s - 1` columns on,
    then `s - 1` columns either side on each of the next `s - 1` rows.
    """

    def overlapping_runs(i: int) -> list[tuple[int, int]]:
        top, left = divmod(i, cols)
        lo, hi = max(0, left - s + 1), min(cols, left + s)
        return [(i + 1, top * cols + hi)] + [
            (y * cols + lo, y * cols + hi) for y in range(top + 1, min(rows, top + s))
        ]

    def partners(i: int) -> int:
        top, left = divmod(i, cols)
        lo, hi = max(0, left - s + 1), min(cols, left + s)
        overlapping = hi - left - 1 + (min(rows, top + s) - top - 1) * (hi - lo)
        return rows * cols - 1 - i - overlapping

    def completion(i: int, k: int) -> Placement:
        j = i + 1 + k
        for start, stop in overlapping_runs(i):
            if start > j:
                break
            j += stop - start
        top, left = divmod(j, cols)
        return (Rect(top, left, s, s),)

    return map(partners, range(rows * cols)), completion
