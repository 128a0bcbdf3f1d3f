"""Test-side reference: the defender rules in the paper's form, and the
soundness scan by plain exhaustive enumeration.

Each rule is a maximum or a minimum over a set of mutants, compared with
tau, with the empty set as an explicit branch. The package's rules in
`patchcert.defenders._FAMILIES` are per-mutant comparisons, which
`Defender` applies to every mutant (certify) or to some mutant (a
warning clause); `tests/test_defenders.py` checks them against these on
random profiles.

`soundness` re-derives the whole `run_soundness` result from public
pieces: it classifies every harmful variant's full mutant profile and
judges it with these rules, so it shares neither the scan's lazy
covering-first walk, nor its mutant memo, nor `Defender.warn_clauses`.
"""
from __future__ import annotations

import hashlib

from patchcert.classifiers import classify_mutants
from patchcert.defenders import CLAUSE_NAMES, MutantProfile
from patchcert.oracle import enumerate_variants
from patchcert.tensor import apply_mask


def _agreeing(profile: MutantProfile, label: int) -> list[float]:
    return [m.confidence for m in profile.mutants if m.label == label]


def _disagreeing(profile: MutantProfile, label: int) -> list[float]:
    return [m.confidence for m in profile.mutants if m.label != label]


def doma_certify(profile: MutantProfile, true_label: int, tau: float) -> bool:
    """No single mask changes the true label."""
    return not _disagreeing(profile, true_label)


def c2_certify(profile: MutantProfile, true_label: int, tau: float) -> bool:
    """No single mask changes the predicted label; the true one is unused."""
    return not _disagreeing(profile, profile.base.label)


def pgpp_certify(profile: MutantProfile, true_label: int, tau: float) -> bool:
    """Unanimity on the true label, and the least confident mutant above tau."""
    if _disagreeing(profile, true_label):
        return False
    agreeing = _agreeing(profile, true_label)
    if not agreeing:
        return True
    return min(agreeing) > tau


def hicert_certify(profile: MutantProfile, true_label: int, tau: float) -> bool:
    """The most confident disagreeing mutant is below tau. With no
    disagreeing mutant there is nothing to bound, and the sample
    certifies at any tau."""
    disagreeing = _disagreeing(profile, true_label)
    if not disagreeing:
        return True
    worst = max(disagreeing)
    return worst < tau


def hicert_flip_certify(profile: MutantProfile, true_label: int, tau: float) -> bool:
    """Ablation: the least confident disagreeing mutant is above tau,
    keeping the unflipped rule's empty-set convention."""
    disagreeing = _disagreeing(profile, true_label)
    if not disagreeing:
        return True
    lowest = min(disagreeing)
    return lowest > tau


def pgpp_flip_certify(profile: MutantProfile, true_label: int, tau: float) -> bool:
    """Ablation: unanimity on the true label, the most confident mutant
    below tau."""
    if _disagreeing(profile, true_label):
        return False
    agreeing = _agreeing(profile, true_label)
    if not agreeing:
        return True
    return max(agreeing) < tau


def label_difference(profile: MutantProfile) -> bool:
    """Some mutant disagrees with the arriving label."""
    return bool(_disagreeing(profile, profile.base.label))


def pgpp_warn_parts(profile: MutantProfile, tau: float) -> tuple[bool]:
    """PatchGuard++'s one clause: the most confident disagreeing mutant
    is above tau. With no disagreement there is no maximum, and no
    warning."""
    disagreeing = _disagreeing(profile, profile.base.label)
    if not disagreeing:
        return (False,)
    return (max(disagreeing) > tau,)


def hicert_warn_parts(profile: MutantProfile, tau: float) -> tuple[bool, bool]:
    """HiCert's two clauses: (label difference, low confidence).

    Low confidence: the least confident mutant that agrees with the
    arriving label is below tau, whether or not another mutant
    disagrees. With no agreeing mutant there is no minimum to test, so
    the clause is False (and the label difference is True).
    """
    agreeing = _agreeing(profile, profile.base.label)
    if not agreeing:
        low_confidence = False
    else:
        low_confidence = min(agreeing) < tau
    return label_difference(profile), low_confidence


CERTIFY = {
    "doma": doma_certify,
    "c2": c2_certify,
    "pgpp": pgpp_certify,
    "hicert": hicert_certify,
    "hicert_flip": hicert_flip_certify,
    "pgpp_flip": pgpp_flip_certify,
}

# Each warning family's clauses, in `CLAUSE_NAMES` order; the flipped
# ablations have no warning rule and no entry.
WARN_PARTS = {
    "doma": lambda profile, tau: (label_difference(profile),),
    "c2": lambda profile, tau: (label_difference(profile),),
    "pgpp": pgpp_warn_parts,
    "hicert": hicert_warn_parts,
}


def first_clause(kind: str, profile: MutantProfile, tau: float) -> str | None:
    """The name of the first of the family's clauses that holds, or None."""
    for name, fired in zip(CLAUSE_NAMES, WARN_PARTS[kind](profile, tau)):
        if fired:
            return name
    return None


def _digest(content) -> str:
    wide = max(content) >= 256
    data = b"".join(v.to_bytes(4, "little") for v in content) if wide else bytes(content)
    return hashlib.blake2b(data, digest_size=8).hexdigest()


def _report(name: str, mode: str) -> dict:
    return {"defender": name, "mode": mode, "samples_checked": 0, "certified_count": 0,
            "variants_evaluated": 0, "violations": [], "thm1_violations": [],
            "thm2_clause_stats": dict.fromkeys(CLAUSE_NAMES, 0)}


def soundness(classifier, records, mask_set, defenders, cfg, checks):
    """`run_soundness`'s result as plain data, with each report in
    `to_dict()` form, and the number of (placement, consistent covering
    mask) erasure checks made, so a caller can tell a vacuous `thm1`."""
    masks = mask_set.masks
    grids = [m.to_matrix() for m in masks]
    named = {d.name: d for d in defenders}
    def1 = {name: _report(name, cfg.mode) for name in named} if "def1" in checks else {}
    thm1 = _report("(defender independent)", cfg.mode) if "thm1" in checks else None
    evaded = dict.fromkeys(named, 0)
    erasure_checks = 0
    for r in records:
        benign = classify_mutants(classifier, r.image, mask_set)
        variants = list(enumerate_variants(r.image, cfg, r.id))
        certified = {name for name, d in named.items()
                     if CERTIFY[d.certifier.kind](benign, r.true_label, d.certifier.tau)}
        for name, report in [*def1.items(), (None, thm1)]:
            if report is not None:
                report["samples_checked"] += 1
                report["certified_count"] += name in certified
                report["variants_evaluated"] += len(variants)
        judged = [(name, d.warner) for name, d in named.items()
                  if "rsuc" in checks or (def1 and name in certified)]
        consistent = [i for i, m in enumerate(benign.mutants) if m.label == r.true_label]
        clean = [apply_mask(r.image, m) for m in masks]
        leaks, sample_evaded = {}, set()
        for index, (placement, content, variant) in enumerate(variants):
            # A placement's erasure is checked at its first group: all of
            # its contents when exhaustive, the first draw when random.
            if thm1 is not None and (placement not in leaks or cfg.mode == "exhaustive"):
                if placement not in leaks:
                    cells = [(y, x) for rect in placement for y in range(rect.top, rect.bottom)
                             for x in range(rect.left, rect.right)]
                    covering = [i for i in consistent
                                if all(grids[i][y][x] for y, x in cells)]
                    erasure_checks += len(covering)
                    leaks[placement] = (covering, set())
                covering, kept = leaks[placement]
                kept.update(i for i in covering if apply_mask(variant, masks[i]) != clean[i])
            if not judged:
                continue
            label = classifier.classify(variant).label
            if label == r.true_label:
                continue
            profile = classify_mutants(classifier, variant, mask_set)
            for name, warner in judged:
                clause = first_clause(warner.kind, profile, warner.tau)
                if clause is None and "rsuc" in checks:
                    sample_evaded.add(name)
                if not def1 or name not in certified:
                    continue
                if clause is not None:
                    def1[name]["thm2_clause_stats"][clause] += 1
                else:
                    def1[name]["violations"].append({
                        "sample_id": r.id, "variant_index": index,
                        "placement": [x.to_list() for x in placement],
                        "content_digest": _digest(content), "variant_label": label,
                        "reason": "harmful variant drew no warning"})
        for name in sample_evaded:
            evaded[name] += 1
        if thm1 is not None:
            thm1["thm1_violations"] += [
                {"sample_id": r.id, "placement": [x.to_list() for x in placement],
                 "mask": i, "reason": "consistent covering mask leaves patch bytes"}
                for placement, (_, kept) in leaks.items() for i in sorted(kept)]
    run = {"samples": len(records), "def1": def1, "thm1": thm1, "evaded_samples": evaded}
    return run, erasure_checks
