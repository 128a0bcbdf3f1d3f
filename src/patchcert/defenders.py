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
from typing import TYPE_CHECKING, Callable, NamedTuple

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
    Low confidence: the least confident of the mutants that agree with
    the arriving label falls below tau, whether or not another mutant
    disagrees. With no agreeing mutants there is no minimum to test, so
    the low-confidence clause is False by convention (the
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


class _Family(NamedTuple):
    """One family's rules in a uniform shape, tau last.

    `warn_clauses` is None for the flipped ablations. Families without a
    confidence clause report their whole warning in the first slot.
    """

    certify: Callable[[MutantProfile, int, float], bool]
    warn_clauses: Callable[[MutantProfile, float], tuple[bool, bool]] | None
    uses_tau: bool


def _label_difference(profile: MutantProfile, tau: float) -> tuple[bool, bool]:
    return doma_warn(profile), False


# The only place that defines a family; DEFENDER_KINDS keeps this order.
_FAMILIES: dict[str, _Family] = {
    "doma": _Family(lambda p, y, tau: doma_certify(p, y), _label_difference, False),
    "c2": _Family(lambda p, y, tau: c2_certify(p), _label_difference, False),
    "pgpp": _Family(pgpp_certify, lambda p, tau: (pgpp_warn(p, tau), False), True),
    "hicert": _Family(hicert_certify, hicert_warn_parts, True),
    "hicert_flip": _Family(hicert_flip_certify, None, True),
    "pgpp_flip": _Family(pgpp_flip_certify, None, True),
}
DEFENDER_KINDS = tuple(_FAMILIES)


@dataclass(frozen=True)
class DefenderSpec:
    """Named defender family plus its threshold, if the family uses one."""

    kind: str
    tau: float = 0.0

    def __post_init__(self):
        if self.kind not in _FAMILIES:
            raise InvalidInputError(
                f"unknown defender kind {self.kind!r}; expected one of "
                f"{', '.join(DEFENDER_KINDS)}"
            )
        if not 0.0 <= self.tau <= 1.0:
            raise InvalidInputError(f"tau must lie in [0, 1], got {self.tau}")
        # -0.0 would name a second defender that decides like 0.0.
        object.__setattr__(self, "tau", self.tau + 0.0)

    @property
    def uses_tau(self) -> bool:
        return _FAMILIES[self.kind].uses_tau

    @property
    def name(self) -> str:
        if self.uses_tau:
            return f"{self.kind}(tau={self.tau:g})"
        return self.kind


@dataclass(frozen=True)
class Defender:
    """A bound (certify, warn) pair, possibly from two different families.

    Both halves are plain specs so defenders pickle cleanly for worker
    processes. `warner` is None for the flipped ablations, whose warning
    rule is deliberately undefined.
    """

    certifier: DefenderSpec
    warner: DefenderSpec | None

    def __post_init__(self):
        if self.warner is not None and not _FAMILIES[self.warner.kind].warn_clauses:
            raise InvalidInputError(f"{self.warner.kind} has no warning rule to borrow")

    @property
    def name(self) -> str:
        cert = self.certifier.name
        if self.warner is None:
            return f"{cert}, no warning rule"
        if self.warner == self.certifier:
            return cert
        return f"certify={cert}, warn={self.warner.name}"

    @property
    def has_warn(self) -> bool:
        return self.warner is not None

    def certify(self, profile: MutantProfile, true_label: int) -> bool:
        spec = self.certifier
        return _FAMILIES[spec.kind].certify(profile, true_label, spec.tau)

    def warn(self, profile: MutantProfile) -> bool:
        return any(self.warn_clauses(profile))

    def warn_clauses(self, profile: MutantProfile) -> tuple[bool, bool]:
        """(label difference, low confidence) clause values for this warner."""
        spec = self.warner
        if spec is None:
            raise UnsupportedOperationError(
                f"{self.certifier.name} defines no warning rule"
            )
        return _FAMILIES[spec.kind].warn_clauses(profile, spec.tau)

    def verdict(self, profile: MutantProfile, true_label: int) -> Verdict:
        certified = self.certify(profile, true_label)
        warned = self.warn(profile) if self.has_warn else None
        return Verdict(certified, warned)


def make_defender(spec: DefenderSpec) -> Defender:
    """Bind a spec to its own family's certify and warn rules."""
    return Defender(spec, spec if _FAMILIES[spec.kind].warn_clauses else None)


def make_composite(certify: DefenderSpec, warn: DefenderSpec) -> Defender:
    """Mix certification from one family with warning from another.

    Exists for negative controls: soundness is a joint property of the
    pair, and mismatched pairs are exactly how it breaks.
    """
    return Defender(certify, warn)


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
