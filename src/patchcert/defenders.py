"""Certification and warning rules over masked-mutant profiles.

A defender looks at the predictions for an image and for each of its
one-mask mutants, then makes two independent decisions: certify (on the
clean image: is this sample provably safe against any in-scope patch?)
and warn (on an arriving image: does it look tampered with?). The rules
here differ only in how they weigh label disagreement and confidence.

Empty aggregations are spelled out as branches, never as sentinel
infinities: a maximum over no elements fails every "< tau" comparison's
complement (so certification over an empty disagreement set succeeds),
and a minimum over no elements never triggers a low-confidence warning.
All threshold comparisons are strict, so a confidence exactly equal to
tau falls on the non-certify / non-warn side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .errors import InvalidInputError, UnsupportedOperationError

if TYPE_CHECKING:
    from .classifiers import Prediction

__all__ = [
    "MutantProfile",
    "Verdict",
    "DefenderSpec",
    "Defender",
    "DEFENDER_KINDS",
    "oma",
    "doma_certify",
    "doma_warn",
    "c2_certify",
    "pgpp_certify",
    "pgpp_warn",
    "hicert_certify",
    "hicert_warn",
    "hicert_warn_parts",
    "hicert_flip_certify",
    "pgpp_flip_certify",
    "make_defender",
    "make_composite",
    "assign_case",
]


class MutantProfile(NamedTuple):
    """Base prediction plus one prediction per mask, in mask-set order."""

    base: "Prediction"
    mutants: tuple["Prediction", ...]


@dataclass(frozen=True)
class Verdict:
    """A defender's two decisions for one sample.

    `warned` is None when the defender has no warning rule (the flipped
    ablations), in which case only certification metrics exist.
    """

    certified: bool
    warned: bool | None


def oma(profile: MutantProfile, label: int) -> bool:
    """One-mask agreement: every mutant keeps the given label."""
    for m in profile.mutants:
        if m.label != label:
            return False
    return True


def doma_certify(profile: MutantProfile, true_label: int) -> bool:
    """Certify when no single mask changes the true label."""
    return oma(profile, true_label)


def doma_warn(profile: MutantProfile) -> bool:
    """Warn when any mutant disagrees with the arriving image's label."""
    return not oma(profile, profile.base.label)


def c2_certify(profile: MutantProfile, true_label: int | None = None) -> bool:
    """Certify agreement with the predicted label instead of the true one.

    The only defender here whose certification needs no ground truth;
    it certifies stability of the prediction, right or wrong.
    """
    return oma(profile, profile.base.label)


def pgpp_certify(profile: MutantProfile, true_label: int, tau: float) -> bool:
    """Certify when every mutant keeps the true label with confidence above tau."""
    if not oma(profile, true_label):
        return False
    for m in profile.mutants:
        if not m.confidence > tau:
            return False
    return True


def pgpp_warn(profile: MutantProfile, tau: float) -> bool:
    """Warn when some mutant both disagrees and is confident above tau.

    The same mutant must do both; a diffident disagreement is ignored.
    """
    base_label = profile.base.label
    for m in profile.mutants:
        if m.label != base_label and m.confidence > tau:
            return True
    return False


def hicert_certify(profile: MutantProfile, true_label: int, tau: float) -> bool:
    """Certify when every disagreeing mutant stays below confidence tau.

    With no disagreeing mutants there is nothing to bound and the
    sample certifies at any tau, which is exactly the agreement rule.
    """
    worst = None
    for m in profile.mutants:
        if m.label != true_label:
            if worst is None or m.confidence > worst:
                worst = m.confidence
    if worst is None:
        return True
    return worst < tau


def hicert_warn_parts(profile: MutantProfile, tau: float) -> tuple[bool, bool]:
    """The two warning clauses separately: (label difference, low confidence).

    Label difference: some mutant disagrees with the arriving label.
    Low confidence: all mutants agree but the least confident of them
    falls below tau. With no agreeing mutants there is no minimum to
    test, so the low-confidence clause is False by convention (the
    label-difference clause is necessarily True then).
    """
    base_label = profile.base.label
    label_diff = False
    lowest = None
    for m in profile.mutants:
        if m.label != base_label:
            label_diff = True
        elif lowest is None or m.confidence < lowest:
            lowest = m.confidence
    low_conf = lowest is not None and lowest < tau
    return label_diff, low_conf


def hicert_warn(profile: MutantProfile, tau: float) -> bool:
    """Warn on any label difference, or on unanimity with a weak link."""
    label_diff, low_conf = hicert_warn_parts(profile, tau)
    return label_diff or low_conf


def hicert_flip_certify(profile: MutantProfile, true_label: int, tau: float) -> bool:
    """Ablation: certify when the least confident disagreement is above tau.

    Keeps the empty-set convention of the unflipped rule (no
    disagreements certify) while inverting the comparison. There is no
    matching warning rule; the ablation exists to show the certificate
    breaks.
    """
    lowest = None
    for m in profile.mutants:
        if m.label != true_label:
            if lowest is None or m.confidence < lowest:
                lowest = m.confidence
    if lowest is None:
        return True
    return lowest > tau


def pgpp_flip_certify(profile: MutantProfile, true_label: int, tau: float) -> bool:
    """Ablation: full agreement with every confidence below tau."""
    if not oma(profile, true_label):
        return False
    for m in profile.mutants:
        if not m.confidence < tau:
            return False
    return True


DEFENDER_KINDS = ("doma", "c2", "pgpp", "hicert", "hicert_flip", "pgpp_flip")
_FLIP_KINDS = ("hicert_flip", "pgpp_flip")
_TAU_KINDS = ("pgpp", "hicert", "hicert_flip", "pgpp_flip")


@dataclass(frozen=True)
class DefenderSpec:
    """Named defender family plus its threshold, if the family uses one."""

    kind: str
    tau: float = 0.0

    def __post_init__(self):
        if self.kind not in DEFENDER_KINDS:
            raise InvalidInputError(
                f"unknown defender kind {self.kind!r}; expected one of "
                f"{', '.join(DEFENDER_KINDS)}"
            )
        if not 0.0 <= self.tau <= 1.0:
            raise InvalidInputError(f"tau must lie in [0, 1], got {self.tau}")

    @property
    def uses_tau(self) -> bool:
        return self.kind in _TAU_KINDS

    @property
    def name(self) -> str:
        if self.uses_tau:
            return f"{self.kind}(tau={self.tau:g})"
        return self.kind


def _certify(kind: str, tau: float, profile: MutantProfile, true_label: int) -> bool:
    if kind == "doma":
        return doma_certify(profile, true_label)
    if kind == "c2":
        return c2_certify(profile)
    if kind == "pgpp":
        return pgpp_certify(profile, true_label, tau)
    if kind == "hicert":
        return hicert_certify(profile, true_label, tau)
    if kind == "hicert_flip":
        return hicert_flip_certify(profile, true_label, tau)
    if kind == "pgpp_flip":
        return pgpp_flip_certify(profile, true_label, tau)
    raise InvalidInputError(f"unknown defender kind {kind!r}")


@dataclass(frozen=True)
class Defender:
    """A bound (certify, warn) pair, possibly from two different families.

    Kinds and thresholds are plain data so defenders pickle cleanly for
    worker processes. `warn_kind` is None for the flipped ablations,
    whose warning rule is deliberately undefined.
    """

    certify_kind: str
    certify_tau: float
    warn_kind: str | None
    warn_tau: float

    @property
    def name(self) -> str:
        cert = DefenderSpec(self.certify_kind, self.certify_tau).name
        if self.warn_kind is None:
            return f"{cert}, no warning rule"
        if self.warn_kind == self.certify_kind and self.warn_tau == self.certify_tau:
            return cert
        warn = DefenderSpec(self.warn_kind, self.warn_tau).name
        return f"certify={cert}, warn={warn}"

    @property
    def has_warn(self) -> bool:
        return self.warn_kind is not None

    def certify(self, profile: MutantProfile, true_label: int) -> bool:
        return _certify(self.certify_kind, self.certify_tau, profile, true_label)

    def warn(self, profile: MutantProfile) -> bool:
        return any(self.warn_clauses(profile))

    def warn_clauses(self, profile: MutantProfile) -> tuple[bool, bool]:
        """(label difference, low confidence) clause values for this warner.

        Families without a confidence clause report their entire warning
        through the label-difference slot.
        """
        kind = self.warn_kind
        if kind == "hicert":
            return hicert_warn_parts(profile, self.warn_tau)
        if kind == "doma" or kind == "c2":
            return doma_warn(profile), False
        if kind == "pgpp":
            return pgpp_warn(profile, self.warn_tau), False
        if kind is None:
            raise UnsupportedOperationError(
                f"{DefenderSpec(self.certify_kind, self.certify_tau).name} "
                "defines no warning rule"
            )
        raise UnsupportedOperationError(f"no warning rule for {kind!r}")

    def verdict(self, profile: MutantProfile, true_label: int) -> Verdict:
        certified = self.certify(profile, true_label)
        warned = self.warn(profile) if self.has_warn else None
        return Verdict(certified, warned)


def make_defender(spec: DefenderSpec) -> Defender:
    """Bind a spec to its own family's certify and warn rules."""
    if spec.kind in _FLIP_KINDS:
        return Defender(spec.kind, spec.tau, None, 0.0)
    return Defender(spec.kind, spec.tau, spec.kind, spec.tau)


def make_composite(certify: DefenderSpec, warn: DefenderSpec) -> Defender:
    """Mix certification from one family with warning from another.

    Exists for negative controls: soundness is a joint property of the
    pair, and mismatched pairs are exactly how it breaks.
    """
    if warn.kind in _FLIP_KINDS:
        raise InvalidInputError(f"{warn.kind} has no warning rule to borrow")
    return Defender(certify.kind, certify.tau, warn.kind, warn.tau)


def assign_case(correct: bool, verdict: Verdict) -> int:
    """Map (prediction correct, warned, certified) onto outcome cases 1..8.

    Correct outcomes take 1-4, incorrect 5-8; within each half the
    certified outcomes come first, and warning toggles the low bit:
    (T,T,T)=1, (T,F,T)=2, (T,T,F)=3, (T,F,F)=4, then the same pattern
    shifted by 4 for incorrect predictions.
    """
    if verdict.warned is None:
        raise UnsupportedOperationError(
            "case assignment needs a warning decision"
        )
    return (
        1
        + (0 if correct else 4)
        + (0 if verdict.certified else 2)
        + (0 if verdict.warned else 1)
    )
