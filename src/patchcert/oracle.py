"""Exhaustive attack oracle for soundness checking.

Certification claims are universally quantified over every in-scope
tampered variant of a sample, so at desk scale they can be checked by
brute force. The scan walks the attack placement by placement: each
placement comes with the patch contents in scope for it, and for a
sample that some defender must warn-check, every content's variant is
scored for its label alone (`label_at`): a warning rule is handed the
arriving label and the mutants, so none can read a variant's own
confidence.

A mask that covers the patch gives back the benign mutant, whatever the
content, and a warning clause fires when some mutant fires it. So the
covering mutants and the variant's label can settle a harmful variant:
when a defender's first clause fires on them alone
(`Defender.settled_clause`), the variant is warned and attributed to
that clause without reading its other mutants. The answer is memoized
per placement, defender and label. Only an unsettled variant's mutants
are walked, covering masks first, and the other masks' mutants are
classified only when the warning rule reads that far. A label
difference stops the walk; only a low-confidence catch or a variant
that draws no warning needs every mutant. Violations are recorded in
the report, never raised; negative controls rely on being able to
count them.

The scan also attributes every warned harmful variant to the warning
clause that caught it (label difference or low confidence). Independent
of any defender, it can check the erasure that the stronger claim rests
on: masking a patched sample with a consistent mask that covers the
patch gives back the benign mutant, whose true label then differs from
any harmful variant's label. That check zeroes each consistent
covering mask over the patch positions once per placement and
classifies nothing.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
from dataclasses import asdict, dataclass, field
from typing import Iterable, Iterator, Sequence

from .classifiers import TableClassifier, _mutant_scorers
from .cover import MaskSet
from .dataset_io import DatasetRecord, ProfileFixture
from .defenders import CLAUSE_NAMES, Defender, MutantProfile, Prediction
from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    InvalidInputError,
    UnsupportedOperationError,
)
from .tensor import (
    Image, Mask, PatchSpec, Placement, _draw_content, _placement_ranks, _placement_runs,
    _rect_cells, apply_patch, iter_placements, rectangle_shapes, zero_masked,
)

__all__ = [
    "DEFAULT_BUDGET",
    "AttackConfig",
    "SoundnessReport",
    "SoundnessRun",
    "enumerate_variants",
    "count_variants",
    "check_profile_fixture",
    "run_soundness",
]

DEFAULT_BUDGET = 10_000_000

CHECK_DEF1 = "def1"
CHECK_THM1 = "thm1"
CHECK_RSUC = "rsuc"
ALL_CHECKS = frozenset({CHECK_DEF1, CHECK_THM1, CHECK_RSUC})
TABLE_CANNOT_SCAN = ("table classifiers cannot label tampered pixels; "
                     "use a profile fixture instead")
_EVADED = "harmful variant drew no warning"


@dataclass(frozen=True)
class AttackConfig:
    """What the adversary may do, and how the oracle explores it.

    Exhaustive mode refuses to start when the variant count exceeds the
    budget; it never silently samples. Random mode draws `trials`
    placement/content pairs i.i.d. from a seeded generator.
    """

    patch_spec: PatchSpec
    mode: str = "exhaustive"
    trials: int = 0
    seed: int = 0
    alphabet_size: int | None = None
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.mode not in ("exhaustive", "random"):
            raise InvalidInputError(f"unknown attack mode {self.mode!r}")
        if self.mode == "random" and self.trials < 0:
            raise InvalidInputError("trials must be non-negative")
        if not 0 <= self.seed < 2**64:
            raise InvalidInputError("seed must fit in 64 bits")
        if self.budget < 1:
            raise InvalidInputError("budget must be positive")

    def resolve_alphabet(self, image: Image) -> int:
        a = self.alphabet_size if self.alphabet_size is not None else image.alphabet_size
        if not 2 <= a <= image.alphabet_size:
            raise InvalidInputError(
                f"content alphabet {a} must lie in [2, {image.alphabet_size}]"
            )
        return a


@dataclass
class SoundnessReport:
    """Tally of one oracle run over a dataset, merged in dataset order."""

    defender: str
    mode: str
    samples_checked: int = 0
    certified_count: int = 0
    variants_evaluated: int = 0
    violations: list[dict] = field(default_factory=list)
    thm1_violations: list[dict] = field(default_factory=list)
    thm2_clause_stats: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(CLAUSE_NAMES, 0)
    )

    def merge(self, other: SoundnessReport) -> None:
        """Add `other`'s tallies, appending its findings after these."""
        self.samples_checked += other.samples_checked
        self.certified_count += other.certified_count
        self.variants_evaluated += other.variants_evaluated
        self.violations.extend(other.violations)
        self.thm1_violations.extend(other.thm1_violations)
        for clause, n in other.thm2_clause_stats.items():
            self.thm2_clause_stats[clause] += n

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SoundnessRun:
    """Joined results of one oracle pass over a dataset.

    The scan produces one run per sample; `merge` folds them in dataset
    order.
    """

    samples: int
    def1: dict[str, SoundnessReport]
    theorem1: SoundnessReport | None
    evaded_samples: dict[str, int]

    def merge(self, other: SoundnessRun) -> SoundnessRun:
        self.samples += other.samples
        for name, report in other.def1.items():
            self.def1[name].merge(report)
        if other.theorem1 is not None:
            self.theorem1.merge(other.theorem1)
        for name, evaded in other.evaded_samples.items():
            self.evaded_samples[name] += evaded
        return self


# ---------- variant enumeration ----------


def count_variants(
    image: Image, cfg: AttackConfig, cap: int | None = None
) -> tuple[int, bool]:
    """Exact number of in-scope variants, or a lower bound above `cap`.

    The second element says whether the count is exact. A rectangle
    spec sums its shapes in order, and a spec of three or more patches
    counts its placements by `_placement_runs`, one run of disjoint
    squares at a time; both stop with a bound once `cap` variants are
    exceeded. Every other spec is counted exactly by `_placement_ranks`.
    """
    spec = cfg.patch_spec
    a = cfg.resolve_alphabet(image)
    c = image.channels
    h, w = spec.plane_height, spec.plane_width
    if spec.kind == "rectangle":
        total = 0
        for rh, rw in rectangle_shapes(spec):
            total += (h - rh + 1) * (w - rw + 1) * a ** (rh * rw * c)
            if cap is not None and total > cap:
                return total, False
        return total, True
    s, n = spec.size, spec.count or 1
    per_placement = a ** (n * s * s * c)
    if n <= 2:
        return _placement_ranks(spec)[0] * per_placement, True
    placement_cap = None if cap is None else cap // per_placement + 1
    placements = 0
    for _, _, completions in _placement_runs(spec):
        placements += completions.bit_count()
        if placement_cap is not None and placements >= placement_cap:
            return placement_cap * per_placement, False
    return placements * per_placement, True


def _guard_scope(image: Image, cfg: AttackConfig) -> int:
    """The number of in-scope variants; refuse a patch spec for another
    plane, or a count over budget."""
    spec = cfg.patch_spec
    if (spec.plane_height, spec.plane_width) != (image.height, image.width):
        raise DimensionMismatchError(
            f"patch spec plane {spec.plane_height}x{spec.plane_width} does not "
            f"match image {image.height}x{image.width}"
        )
    if cfg.mode == "random":
        if cfg.trials > cfg.budget:
            raise BudgetExceededError(cfg.trials, cfg.budget, mode="random")
        return cfg.trials
    total, exact = count_variants(image, cfg, cap=cfg.budget)
    if total > cfg.budget:
        raise BudgetExceededError(total, cfg.budget, exact=exact)
    return total


def _sample_rng(seed: int, sample_id: str) -> random.Random:
    digest = hashlib.blake2b(
        sample_id.encode("utf-8"), digest_size=8, key=seed.to_bytes(8, "little")
    ).digest()
    return random.Random(int.from_bytes(digest, "little"))


def _placement_groups(
    image: Image, cfg: AttackConfig, sample_id: str
) -> Iterator[tuple[Placement, Iterable[tuple[int, ...]]]]:
    """Every in-scope (placement, contents) group, in enumerate_variants order.

    Exhaustive mode gives each placement once, with every content for
    it. Random mode gives one group per trial: the drawn placement with
    the one content drawn for it, so a placement may come back. A draw
    takes a uniform rank in `iter_placements` order and builds the
    placement at that rank; no placement list is built. Its content is
    the `randrange` stream that follows, taken in word batches
    (`_draw_content`). A spec with no legal placement has nothing to
    draw from and is refused.
    """
    a = cfg.resolve_alphabet(image)
    c = image.channels
    if cfg.mode == "random":
        spec = cfg.patch_spec
        count, unrank = _placement_ranks(spec)
        if not count and cfg.trials:
            raise InvalidInputError(
                f"patch spec {spec.to_dict()} has no legal placement on plane "
                f"{spec.plane_height}x{spec.plane_width}"
            )
        rng = _sample_rng(cfg.seed, sample_id)
        for _ in range(cfg.trials):
            placement = unrank(rng.randrange(count))
            npix = sum(r.area for r in placement) * c
            yield placement, (_draw_content(rng, a, npix),)
        return
    for placement in iter_placements(cfg.patch_spec):
        npix = sum(r.area for r in placement) * c
        yield placement, itertools.product(range(a), repeat=npix)


def enumerate_variants(
    image: Image, cfg: AttackConfig, sample_id: str = "sample"
) -> Iterator[tuple[Placement, tuple[int, ...], Image]]:
    """Yield (placement, content, tampered image) for every in-scope variant.

    Exhaustive order is lexicographic: placements as iter_placements
    gives them, contents counting upward in base alphabet with the last
    value fastest. Random mode yields `trials` i.i.d. draws instead and
    may repeat itself.
    """
    _guard_scope(image, cfg)
    for placement, contents in _placement_groups(image, cfg, sample_id):
        for content in contents:
            yield placement, content, apply_patch(image, placement, content)


def _content_digest(content: Sequence[int]) -> str:
    if all(v < 256 for v in content):
        data = bytes(content)
    else:
        data = b"".join(v.to_bytes(4, "little") for v in content)
    return hashlib.blake2b(data, digest_size=8).hexdigest()


def _require_warn(defender: Defender) -> None:
    if not defender.has_warn:
        raise UnsupportedOperationError(f"{defender.name} cannot be soundness-checked")


# ---------- the scan engine ----------


class _PlacementPlan:
    """One placement group's variants and their mutants, built as the scan
    reads them.

    The scan builds one plan at the head of each placement group and
    drops it when the group ends. `positions` are the flat pixel indices
    the patch content lands on, in content order, so the sample's scorer
    at `positions` classifies the group's variants. `covering` lists the
    masks that hide the placement: those whose `Mask.cells` hold every
    cell of the placement's (`tensor._rect_cells`); `tensor.mask_covers`
    is the reference for this test. `covered` holds their benign
    mutants, which are every variant's mutants under those masks.
    `uncovered` lists the other masks in mask order. `survivors(mask)`
    alone decides which patch bytes a mask erases: it keeps the content
    indices whose positions zeroing the mask leaves. `erasure_check`
    tests the covering shortcut with it, and a variant's mutant under an
    uncovered mask i is mask i's mutant with the content written back at
    mask i's survivors. So `scorers[i]`, the scorer of mask i's mutant
    (`classifiers._mutant_scorers`), classifies it there and is never
    written under its mask. `surviving[i]` holds mask i's survivors and
    that scorer at their positions, built the first time a variant's
    mutant walk reaches mask i, so a plan that only `thm1` reads, or
    whose harmful variants the covering mutants settle, builds none.
    `mutants` memoizes the group's other mutant predictions; with the
    placement fixed, a mutant's pixels depend only on the mask and the
    content values that survive it, and the memo holds real classifier
    outputs on real mutants. `settled` memoizes, per harmful variant
    label, each warn-checked defender's `Defender.settled_clause` on
    `covered`: with the placement fixed, that answer depends on the
    defender and the label alone.
    """

    __slots__ = (
        "placement_doc",
        "channels",
        "positions",
        "masks",
        "scorers",
        "covering",
        "covered",
        "uncovered",
        "surviving",
        "mutants",
        "settled",
    )

    def __init__(
        self,
        placement: Placement,
        image: Image,
        masks: Sequence[Mask],
        scorers: Sequence,
        benign: MutantProfile,
    ):
        self.placement_doc = [r.to_list() for r in placement]
        c = self.channels = image.channels
        w = image.width
        self.positions = [
            pos
            for r in placement
            for y in range(r.top, r.bottom)
            for pos in range((y * w + r.left) * c, (y * w + r.right) * c)
        ]
        self.masks = masks
        self.scorers = scorers
        hidden = _rect_cells(placement, w)
        covers = [hidden & m.cells == hidden for m in masks]
        self.covering = [i for i, hit in enumerate(covers) if hit]
        self.covered = tuple(benign.mutants[i] for i in self.covering)
        self.uncovered = [i for i, hit in enumerate(covers) if not hit]
        self.surviving: list[tuple | None] = [None] * len(masks)
        self.mutants: dict[tuple, Prediction] = {}
        self.settled: dict[int, list] = {}

    def survivors(self, mask: Mask) -> tuple[int, ...]:
        """The content indices that `mask` leaves, in content order."""
        ones = b"\1" * (mask.plane_height * mask.plane_width * self.channels)
        kept = zero_masked(ones, mask, self.channels, 1)
        return tuple(k for k, p in enumerate(self.positions) if kept[p])

    def mutant(self, i: int, content) -> Prediction:
        """The variant's mutant under mask i, which does not cover the
        placement."""
        surviving = self.surviving[i]
        if surviving is None:
            proj = self.survivors(self.masks[i])
            positions = self.positions
            surviving = self.surviving[i] = (
                proj, self.scorers[i].at([positions[k] for k in proj])
            )
        proj, score = surviving
        values = tuple(content[k] for k in proj)
        key = (i, values)
        pred = self.mutants.get(key)
        if pred is None:
            pred = self.mutants[key] = score(values)
        return pred

    def erasure_check(self, record: DatasetRecord) -> list[dict]:
        """A `thm1` entry per consistent covering mask that keeps a patch byte.

        A patched variant differs from the sample at patch positions only,
        so a mask gives back the sample's masked bytes for every content
        exactly when zeroing it leaves no patch position (`survivors`).
        """
        return [
            {"sample_id": record.id, "placement": self.placement_doc,
             "mask": i, "reason": "consistent covering mask leaves patch bytes"}
            for i, benign in zip(self.covering, self.covered)
            if benign.label == record.true_label and self.survivors(self.masks[i])
        ]


class _VariantMutants:
    """One variant's mutants, covering masks first, classified on demand.

    Iteration yields the plan's `covered` benign mutants, then the other
    masks' mutants in mask order, each looked up in the plan's memo or
    classified when an iteration first reaches it. So a warning rule
    classifies only the mutants it reads, and a second clause or a
    second defender reads the same mutants again at no call.
    """

    __slots__ = ("plan", "content")

    def __init__(self, plan: _PlacementPlan, content):
        self.plan = plan
        self.content = content

    def __iter__(self) -> Iterator[Prediction]:
        plan = self.plan
        yield from plan.covered
        for i in plan.uncovered:
            yield plan.mutant(i, self.content)


def _scan_sample(
    classifier,
    record: DatasetRecord,
    mask_set: MaskSet,
    defenders: Sequence[Defender],
    cfg: AttackConfig,
    checks: frozenset,
) -> SoundnessRun:
    """Scan one sample into a one-sample `SoundnessRun`."""
    image, true_label, sample_id = record.image, record.true_label, record.id
    in_scope = _guard_scope(image, cfg)

    masks = mask_set.masks
    scorer, scorers, benign = _mutant_scorers(classifier, image, masks)
    certified = {d.name: d.certify(benign, true_label) for d in defenders}

    run = SoundnessRun(1, {}, None, {d.name: 0 for d in defenders})
    if CHECK_DEF1 in checks:
        run.def1 = {
            name: SoundnessReport(name, cfg.mode, 1, int(ok), in_scope)
            for name, ok in certified.items()
        }
    if CHECK_THM1 in checks:
        run.theorem1 = SoundnessReport(
            "(defender independent)", cfg.mode, 1, 0, in_scope
        )
    thm1 = run.theorem1
    erasure_checked: set[Placement] = set()
    want_rsuc = CHECK_RSUC in checks
    # Each defender to warn-check, with its def1 report when the sample
    # is certified for it.
    active = []
    for d in defenders:
        report = run.def1.get(d.name) if certified[d.name] else None
        if report is not None or want_rsuc:
            active.append((d, report))
    if not active and thm1 is None:
        return run

    variant_indices = itertools.count()
    for placement, contents in _placement_groups(image, cfg, sample_id):
        plan = _PlacementPlan(placement, image, masks, scorers, benign)
        # Random draws may return to a placement; check it once.
        if thm1 is not None and placement not in erasure_checked:
            erasure_checked.add(placement)
            thm1.thm1_violations += plan.erasure_check(record)
        if not active:
            continue
        label_of = scorer.label_at(plan.positions)
        # Contents first: zip then takes no index when a group runs out.
        for content, variant_index in zip(contents, variant_indices):
            label = label_of(content)
            if label == true_label:
                continue  # not harmful; nothing to detect
            settled = plan.settled.get(label)
            if settled is None:
                settled = plan.settled[label] = [
                    d.settled_clause(label, plan.covered) for d, _ in active
                ]
            # The settled clause, else the mutant walk's; none is an evasion.
            mutants = None
            for (d, report), clause in zip(active, settled):
                if clause is None:
                    if mutants is None:
                        mutants = _VariantMutants(plan, content)
                    clause = d.warn_clauses(label, mutants)
                if clause is not None:
                    if report is not None:
                        report.thm2_clause_stats[clause] += 1
                    continue
                if want_rsuc:
                    run.evaded_samples[d.name] = 1
                if report is not None:
                    report.violations.append({
                        "sample_id": sample_id, "variant_index": variant_index,
                        "placement": plan.placement_doc,
                        "content_digest": _content_digest(content),
                        "variant_label": label, "reason": _EVADED,
                    })
    return run


def run_soundness(
    classifier,
    records: Sequence[DatasetRecord],
    mask_set: MaskSet,
    defenders: Sequence[Defender],
    cfg: AttackConfig,
    checks: Iterable[str] = (CHECK_DEF1,),
    workers: int = 1,
) -> SoundnessRun:
    """Scan every sample against every defender in one enumeration pass.

    Results are deterministic and independent of `workers`: samples are
    scanned independently and merged in dataset order.
    """
    checks = frozenset(checks)
    unknown = checks - ALL_CHECKS
    if unknown:
        raise InvalidInputError(f"unknown checks: {sorted(unknown)}")
    if not records:
        raise InvalidInputError("no samples to scan")
    names = [d.name for d in defenders]
    if len(set(names)) != len(names):
        raise InvalidInputError("defender names must be unique in one run")
    if CHECK_DEF1 in checks or CHECK_RSUC in checks:
        for d in defenders:
            _require_warn(d)
    if isinstance(classifier, TableClassifier):
        raise InvalidInputError(TABLE_CANNOT_SCAN)

    scan = functools.partial(
        _scan_sample, classifier, mask_set=mask_set,
        defenders=tuple(defenders), cfg=cfg, checks=checks,
    )
    if workers > 1 and len(records) > 1:
        # Imported here: a serial run, and every CLI start-up, skips
        # loading the process-pool machinery.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            runs = pool.map(scan, records, chunksize=1)
            return functools.reduce(SoundnessRun.merge, runs)
    return functools.reduce(SoundnessRun.merge, map(scan, records))


def check_profile_fixture(fixture: ProfileFixture, defender: Defender) -> SoundnessReport:
    """Run the certification check on a hand-written prediction scenario.

    The fixture's variant list plays the role of the enumerated attack
    set; profiles come straight from the table.
    """
    _require_warn(defender)
    certified = defender.certify(fixture.benign, fixture.true_label)
    report = SoundnessReport(
        defender.name, "fixture", 1, int(certified), len(fixture.variants)
    )
    if not certified:
        return report
    for variant_id, (base, mutants) in fixture.variants:
        if base.label == fixture.true_label:
            continue
        clause = defender.warn_clauses(base.label, mutants)
        if clause is not None:
            report.thm2_clause_stats[clause] += 1
        else:
            report.violations.append({
                "sample_id": fixture.benign_id, "variant_id": variant_id,
                "variant_label": base.label, "reason": _EVADED,
            })
    return report
