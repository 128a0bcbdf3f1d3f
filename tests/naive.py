"""Test-side reference for the defender rules, in the paper's form.

Each rule is written as the paper states it: a maximum or a minimum over
a set of mutants, compared with tau, with the empty set as an explicit
branch. The package's rules in `patchcert.defenders._FAMILIES` are
loops that stop early; `tests/test_defenders.py` checks them against
these on random profiles.
"""
from __future__ import annotations

from patchcert.defenders import CLAUSE_NAMES, MutantProfile


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
