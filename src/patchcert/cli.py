"""Command line front end.

One binary, five subcommands:

  maskgen    build a covering mask set and verify it
  gen-data   emit a synthetic dataset
  evaluate   run defenders over a dataset and write metrics reports
  verify     run the attack oracle (exhaustive or random) or a fixture
  report     recompute a metrics report from saved evaluation records

Exit codes: 0 success (and, for verify, zero violations), 1 violations
or coverage failures found, 2 usage or configuration errors, 3 broken
input files. Outputs are byte-deterministic for a fixed configuration
and seed, whatever the worker count.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from typing import Sequence

from . import dataset_io
from .classifiers import HashClassifier, LinearClassifier, classify_mutants
from .cover import gen_multi_cover, gen_rect_cover, gen_square_cover, verify_cover
from .defenders import (
    DEFENDER_KINDS,
    Defender,
    DefenderSpec,
    make_defender,
)
from .errors import FileFormatError, InvalidInputError, PatchCertError
from .metrics import EvalRecord, compute_metrics
from .oracle import (
    CHECK_DEF1,
    CHECK_THM1,
    DEFAULT_BUDGET,
    TABLE_CANNOT_SCAN,
    AttackConfig,
    check_profile_fixture,
    run_soundness,
)
from .tensor import PatchSpec

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_IO = 3

# The verify dests a fixture run reads; --fixture refuses any other flag.
_FIXTURE_READS = ("defender", "tau", "fixture", "defender_override", "out")


def _positive(name: str):
    def parse(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"{name} must be at least 1")
        return value

    return parse


def _non_negative(name: str):
    def parse(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"{name} must be non-negative")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    strict = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = strict(
        prog="patchcert",
        description="Mask-based certified detection of adversarial patches, "
        "with brute-force soundness checking.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=strict)

    p = sub.add_parser("maskgen", help="generate and verify a covering mask set")
    p.add_argument("--plane", nargs=2, type=_positive("plane"), required=True,
                   metavar=("H", "W"))
    _add_patch_flags(p, required=True)
    p.add_argument("--masks-per-axis", type=_positive("masks per axis"),
                   required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--skip-verify", action="store_true",
                   help="write the set without the exhaustive coverage check "
                   "(every placement; about 35 s for a two-patch cover at 224x224)")
    p.set_defaults(func=cmd_maskgen)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--count", type=_positive("count"), required=True)
    p.add_argument("--plane", nargs=2, type=_positive("plane"), required=True,
                   metavar=("H", "W"))
    p.add_argument("--channels", type=_positive("channels"), default=1)
    p.add_argument("--alphabet", type=_positive("alphabet"), default=256)
    p.add_argument("--num-labels", type=_positive("num labels"), default=10)
    p.add_argument("--seed", type=_non_negative("seed"), default=0)
    p.add_argument("--label-mode", choices=dataset_io.LABEL_MODES,
                   default="classifier")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("evaluate", help="run defenders and write metric reports")
    _add_common_inputs(p)
    _add_defender_flags(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--workers", type=_positive("workers"), default=None)
    p.add_argument("--timing", action="store_true",
                   help="print per-sample wall time to stderr")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("verify", help="attack-oracle soundness checks")
    _add_common_inputs(p, required=False)
    _add_defender_flags(p)
    p.add_argument("--fixture", help="profile fixture JSON instead of a dataset")
    p.add_argument("--defender-override",
                   help='mixed pair, e.g. "certify=hicert:0.8,warn=doma"')
    _add_patch_flags(p, required=False)
    p.add_argument("--mode", choices=("exhaustive", "random"),
                   default="exhaustive")
    p.add_argument("--trials", type=_non_negative("trials"), default=1000)
    p.add_argument("--attack-seed", type=_non_negative("attack seed"), default=0)
    p.add_argument("--budget", type=_positive("budget"), default=DEFAULT_BUDGET)
    p.add_argument("--checks", default="def1",
                   help="comma list from def1,thm1")
    p.add_argument("--out", help="write the soundness report here")
    p.add_argument("--workers", type=_positive("workers"), default=1)
    p.add_argument("--timing", action="store_true",
                   help="print the scan's wall time to stderr")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="recompute metrics from saved records")
    p.add_argument("--records", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def _add_patch_flags(p: argparse.ArgumentParser, required: bool) -> None:
    group = p.add_mutually_exclusive_group(required=required)
    group.add_argument("--patch-size", type=_positive("patch size"))
    group.add_argument("--patch-area", type=_positive("patch area"))
    p.add_argument("--patches", type=_positive("patches"), default=1,
                   help="number of disjoint patches (square patches only)")


def _add_common_inputs(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--dataset", required=required)
    p.add_argument("--masks", required=required)
    p.add_argument("--classifier", choices=("hash", "linear", "table"),
                   default="hash")
    p.add_argument("--num-labels", type=_positive("num labels"), default=10)
    p.add_argument("--seed", type=_non_negative("seed"), default=0)
    p.add_argument("--predictions", help="prediction table for --classifier table")


def _add_defender_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--defender", choices=DEFENDER_KINDS, default="hicert")
    p.add_argument("--tau", type=float, action="append", default=None,
                   help="threshold; repeat for a sweep (evaluate only)")


def _patch_spec(args, h: int, w: int) -> PatchSpec:
    """The patch model the --patch-size/--patch-area/--patches flags name."""
    if args.patch_area is not None:
        return PatchSpec.rectangle(h, w, args.patch_area)
    if args.patches > 1:
        return PatchSpec.multi(h, w, args.patches, args.patch_size)
    return PatchSpec.square(h, w, args.patch_size)


def _load_inputs(args):
    """Dataset, mask set and classifier for evaluate and verify.

    Samples must lie on the mask set's plane, and pixel classifiers emit
    only labels below --num-labels. A prediction table must hold a
    complete profile for every dataset sample.
    """
    if "predictions" in args.named and args.classifier != "table":
        raise InvalidInputError("--predictions is read only with --classifier table")
    if args.classifier == "table" and not args.predictions:
        raise InvalidInputError("--classifier table needs --predictions")
    records = dataset_io.load_dataset(args.dataset)

    def same_plane(h: int, w: int) -> None:
        for r in records:
            if (r.image.height, r.image.width) != (h, w):
                raise InvalidInputError(
                    f"{args.dataset}: sample {r.id!r} has plane {r.image.height}x"
                    f"{r.image.width}, mask set {args.masks} has plane {h}x{w}"
                )

    # The planes are compared before any mask is built.
    mask_set = dataset_io.load_maskset(args.masks, same_plane)
    classifier = _build_classifier(args, [r.id for r in records])
    for r in records:
        if args.classifier != "table" and r.true_label >= args.num_labels:
            raise InvalidInputError(
                f"{args.dataset}: sample {r.id!r} has label "
                f"{r.true_label}, outside --num-labels {args.num_labels}"
            )
    return records, mask_set, classifier


def _build_classifier(args, sample_ids: Sequence[str]):
    if args.classifier == "hash":
        return HashClassifier(seed=args.seed, num_labels=args.num_labels)
    if args.classifier == "linear":
        return LinearClassifier(seed=args.seed, num_labels=args.num_labels)
    return dataset_io.load_predictions(args.predictions, required=sample_ids)


def _classifier_doc(args) -> dict:
    doc = {"kind": args.classifier}
    if args.classifier in ("hash", "linear"):
        doc["seed"] = args.seed
        doc["num_labels"] = args.num_labels
    else:
        doc["predictions"] = args.predictions
    return doc


def _check_tau(kind: str, given: bool, where: str, flag: str) -> None:
    """A family that reads tau needs `flag`; any other family takes none."""
    uses_tau = DefenderSpec(kind).uses_tau
    if uses_tau != given:
        verb = "needs" if uses_tau else "takes no"
        raise InvalidInputError(f"{where} {verb} {flag}")


def _taus(kind: str, taus: list[float] | None) -> list[float]:
    _check_tau(kind, bool(taus), f"--defender {kind}", "--tau")
    return taus or [0.0]


def _parse_override(text: str) -> Defender:
    parts: dict[str, DefenderSpec] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk or "=" not in chunk:
            raise InvalidInputError(
                f'bad override chunk {chunk!r}; expected role=kind[:tau]'
            )
        role, _, value = chunk.partition("=")
        role = role.strip()
        if role not in ("certify", "warn"):
            raise InvalidInputError(f"override role must be certify or warn, got {role!r}")
        if role in parts:
            raise InvalidInputError(f"override gives {role}= twice")
        kind, colon, tau_text = value.partition(":")
        kind = kind.strip()
        _check_tau(kind, bool(colon), f"override chunk {chunk!r}: {kind}", ":tau")
        try:
            tau = float(tau_text) if colon else 0.0
        except ValueError:
            raise InvalidInputError(f"bad override tau {tau_text!r} in {chunk!r}")
        parts[role] = DefenderSpec(kind, tau)
    if set(parts) != {"certify", "warn"}:
        raise InvalidInputError("override needs both certify= and warn=")
    return Defender(parts["certify"], parts["warn"])


def _refuse_given(args, dests: Sequence[str], message: str) -> None:
    """Fail naming each flag in `dests` that the command line names."""
    given = ["--" + dest.replace("_", "-") for dest in dests if dest in args.named]
    if given:
        raise InvalidInputError(f"{message} {', '.join(given)}")


# ---------- subcommands ----------


def cmd_maskgen(args) -> int:
    h, w = args.plane
    spec = _patch_spec(args, h, w)
    if spec.kind == "rectangle":
        mask_set = gen_rect_cover((h, w), spec.area, args.masks_per_axis)
    else:
        square = gen_square_cover((h, w), spec.size, args.masks_per_axis)
        mask_set = gen_multi_cover(square, args.patches)
    if args.skip_verify:
        dataset_io.save_maskset(mask_set, args.out)
        print(f"masks: {len(mask_set)} (coverage not verified)")
        return EXIT_OK
    report = verify_cover(mask_set)
    dataset_io.save_maskset(mask_set, args.out)
    if report.ok:
        print(
            f"masks: {len(mask_set)}, cover: ok "
            f"({report.placements_checked} placements)"
        )
        return EXIT_OK
    print(
        f"masks: {len(mask_set)}, cover: FAILED at placement "
        f"{[r.to_list() for r in report.first_uncovered]}"
    )
    return EXIT_FINDINGS


def cmd_gen_data(args) -> int:
    records = dataset_io.gen_synthetic_dataset(
        count=args.count,
        plane=tuple(args.plane),
        channels=args.channels,
        alphabet_size=args.alphabet,
        num_labels=args.num_labels,
        seed=args.seed,
        label_mode=args.label_mode,
    )
    dataset_io.save_dataset(records, args.out)
    print(f"wrote {len(records)} samples to {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    taus = _taus(args.defender, args.tau)
    defenders = [make_defender(DefenderSpec(args.defender, tau)) for tau in taus]
    # Taus that print alike share one report file; refuse them before writing.
    tau_of: dict[str, float] = {}
    for tau, defender in zip(taus, defenders):
        if defender.name in tau_of:
            raise InvalidInputError(
                f"--tau {tau_of[defender.name]} and --tau {tau} both name "
                f"{defender.name}"
            )
        tau_of[defender.name] = tau
    if args.classifier == "table":
        _refuse_given(args, ("seed", "num_labels"), "--classifier table does not read")
    records, mask_set, classifier = _load_inputs(args)
    # A consistent sample is by definition one that DOMA certifies.
    doma = make_defender(DefenderSpec("doma"))
    # Each sample is profiled once; every tau's verdict reads that profile.
    per_tau: list[list[EvalRecord]] = [[] for _ in taus]
    for record in records:
        t0 = time.perf_counter()
        profile = classify_mutants(
            classifier, record.image, mask_set, sample_id=record.id
        )
        consistent = doma.certify(profile, record.true_label)
        for defender, eval_records in zip(defenders, per_tau):
            verdict = defender.verdict(profile, record.true_label)
            eval_records.append(EvalRecord(
                record.id, record.true_label, profile.base, verdict, consistent
            ))
        if args.timing:
            ms = (time.perf_counter() - t0) * 1000
            print(f"{record.id}: {ms:.2f} ms", file=sys.stderr)
    # Only now, so a run that fails while profiling leaves no directory.
    os.makedirs(args.out_dir, exist_ok=True)
    for defender, eval_records in zip(defenders, per_tau):
        spec = defender.certifier
        tag = f"{spec.kind}_tau{spec.tau:g}" if spec.uses_tau else spec.kind
        records_path = os.path.join(args.out_dir, f"records_{tag}.jsonl")
        dataset_io.save_records(eval_records, records_path)
        report = compute_metrics(eval_records)
        doc = report.to_dict()
        doc["config"] = {
            "dataset": args.dataset,
            "masks": args.masks,
            "classifier": _classifier_doc(args),
            "defender": {"kind": spec.kind, "tau": spec.tau,
                         "name": defender.name},
        }
        report_path = os.path.join(args.out_dir, f"report_{tag}.json")
        dataset_io.save_report(doc, report_path)
        print(f"{defender.name}: wrote {report_path}")
    return EXIT_OK


def _parse_checks(text: str) -> frozenset:
    parts = [part.strip() for part in text.split(",") if part.strip()]
    for part in parts:
        if part not in (CHECK_DEF1, CHECK_THM1):
            raise InvalidInputError(f"unknown check {part!r}; expected def1, thm1")
    if not parts:
        raise InvalidInputError("no checks requested")
    return frozenset(parts)


def _verify_fixture(args, defender: Defender) -> int:
    fixture = dataset_io.load_profile_fixture(args.fixture)
    report = check_profile_fixture(fixture, defender)
    doc = {"fixture": args.fixture, "report": report.to_dict()}
    if args.out:
        dataset_io.save_report(doc, args.out)
    n = len(report.violations)
    certified = "certified" if report.certified_count else "not certified"
    print(f"{defender.name}: benign sample {certified}, "
          f"{report.variants_evaluated} variants, {n} violation(s)")
    for v in report.violations:
        print(f"  violation: variant {v['variant_id']} "
              f"labeled {v['variant_label']} drew no warning")
    return EXIT_FINDINGS if n else EXIT_OK


def cmd_verify(args) -> int:
    if args.defender_override:
        _refuse_given(args, ("defender", "tau"), "--defender-override replaces")
        defender = _parse_override(args.defender_override)
    elif (args.tau is None and DefenderSpec(args.defender).uses_tau
          and not args.fixture and CHECK_DEF1 not in _parse_checks(args.checks)):
        defender = None  # no check reads it, so its missing --tau is no error
    else:
        taus = _taus(args.defender, args.tau)
        if len(taus) != 1:
            raise InvalidInputError("verify takes a single --tau")
        defender = make_defender(DefenderSpec(args.defender, taus[0]))

    if args.fixture:
        unread = [dest for dest in vars(args) if dest not in _FIXTURE_READS]
        _refuse_given(args, unread, "--fixture does not read")
        return _verify_fixture(args, defender)

    if not args.dataset or not args.masks:
        raise InvalidInputError("verify needs --dataset and --masks (or --fixture)")
    checks = _parse_checks(args.checks)
    if args.classifier == "table":
        raise InvalidInputError(TABLE_CANNOT_SCAN)
    if args.mode != "random":
        _refuse_given(args, ("trials", "attack_seed"), "--mode exhaustive does not read")
    records, mask_set, classifier = _load_inputs(args)

    spec = mask_set.spec
    if {"patch_size", "patch_area", "patches"} & args.named:
        spec = _patch_spec(args, spec.plane_height, spec.plane_width)

    cfg = AttackConfig(
        patch_spec=spec,
        mode=args.mode,
        trials=args.trials,
        seed=args.attack_seed,
        budget=args.budget,
    )
    t0 = time.perf_counter()
    run = run_soundness(
        classifier, records, mask_set, [defender] if defender else [], cfg,
        checks=checks, workers=args.workers,
    )
    elapsed = time.perf_counter() - t0

    findings = 0
    doc: dict = {"mode": cfg.mode, "samples": run.samples, "reports": {}}
    doc["config"] = {
        "dataset": args.dataset,
        "masks": args.masks,
        "classifier": _classifier_doc(args),
        "defender": {"name": defender.name} if defender else None,
        "attack": {
            "patch_spec": spec.to_dict(),
            "mode": cfg.mode,
            "trials": cfg.trials if cfg.mode == "random" else None,
            "seed": cfg.seed,
            "budget": cfg.budget,
        },
        "checks": sorted(checks),
    }
    if run.def1:
        rep = run.def1[defender.name]
        findings += len(rep.violations)
        doc["reports"]["def1"] = rep.to_dict()
        print(
            f"def1 [{defender.name}]: {rep.certified_count}/{rep.samples_checked} "
            f"certified, {rep.variants_evaluated} variants, "
            f"{len(rep.violations)} violation(s)"
        )
    if run.theorem1 is not None:
        rep = run.theorem1
        findings += len(rep.thm1_violations)
        doc["reports"]["thm1"] = rep.to_dict()
        print(
            f"thm1: {rep.variants_evaluated} variants, "
            f"{len(rep.thm1_violations)} counterexample(s)"
        )
    if args.timing:
        print(f"elapsed: {elapsed:.2f} s ({run.samples} samples)", file=sys.stderr)
    if args.out:
        dataset_io.save_report(doc, args.out)
    return EXIT_FINDINGS if findings else EXIT_OK


def cmd_report(args) -> int:
    report = compute_metrics(dataset_io.load_records(args.records))
    doc = report.to_dict()
    doc["config"] = {"records": args.records}
    dataset_io.save_report(doc, args.out)
    print(f"wrote {args.out} ({report.total} records)")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    # The dests the command line names: each flag is "--" plus its dest with
    # dashes, and argparse refuses a value that starts with "--".
    args.named = {t[2:].partition("=")[0].replace("-", "_") for t in argv if t[:2] == "--"}
    try:
        # --patches counts square patches; argparse cannot make it need --patch-size.
        if "patches" in args.named and args.patch_size is None:
            raise InvalidInputError("--patches needs --patch-size")
        return args.func(args)
    except (FileFormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except PatchCertError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
