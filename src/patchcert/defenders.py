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
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

from .errors import InvalidInputError, UnsupportedOperationError

if TYPE_CHECKING:
    from .classifiers import Prediction

__all__ = [
    "MutantProfile",
    "Verdict",
    "DefenderSpec",
    "Defender",
    "DEFENDER_KINDS",
    "CLAUSE_NAMES",
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
    """Base prediction plus one prediction per mask.

    The rules only iterate `mutants`, and a warning rule may iterate
    them more than once. Eager profiles hold a tuple in mask-set order;
    the oracle's scan passes a lazy re-iterable in covering-first order.
    """

    base: "Prediction"
    mutants: Iterable["Prediction"]


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


def _low_confidence(profile: MutantProfile, tau: float) -> bool:
    """Some mutant that agrees with the arriving label is below tau.

    This is HiCert's low-confidence clause: the least confident
    agreeing mutant falls below tau exactly when some agreeing mutant
    does, so the walk stops at the first one. With no agreeing mutants
    there is no minimum to test, and the clause is False.
    """
    base_label = profile.base.label
    for m in profile.mutants:
        if m.label == base_label and m.confidence < tau:
            return True
    return False


def hicert_warn_parts(profile: MutantProfile, tau: float) -> tuple[bool, bool]:
    """The two warning clauses separately: (label difference, low confidence).

    Label difference: some mutant disagrees with the arriving label.
    Low confidence: the least confident of the mutants that agree with
    the arriving label falls below tau, whether or not another mutant
    disagrees. With no agreeing mutants there is no minimum to test, so
    the low-confidence clause is False by convention (the
    label-difference clause is necessarily True then).
    """
    return doma_warn(profile), _low_confidence(profile, tau)


def hicert_warn(profile: MutantProfile, tau: float) -> bool:
    """Warn on any label difference, or on unanimity with a weak link."""
    return doma_warn(profile) or _low_confidence(profile, tau)


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


# The warning clauses, in the order they are judged. A family without a
# confidence clause has a single clause, counted as a label difference.
CLAUSE_NAMES = ("label_difference", "low_confidence")


class _Family(NamedTuple):
    """One family's rules in a uniform shape, tau last.

    `warn_clauses` holds the warning clauses in `CLAUSE_NAMES` order; it
    is empty for the flipped ablations, which have no warning rule.
    """

    certify: Callable[[MutantProfile, int, float], bool]
    warn_clauses: tuple[Callable[[MutantProfile, float], bool], ...]
    uses_tau: bool


def _label_difference(profile: MutantProfile, tau: float) -> bool:
    return doma_warn(profile)


# The only place that defines a family; DEFENDER_KINDS keeps this order.
_FAMILIES: dict[str, _Family] = {
    "doma": _Family(lambda p, y, tau: doma_certify(p, y), (_label_difference,), False),
    "c2": _Family(lambda p, y, tau: c2_certify(p), (_label_difference,), False),
    "pgpp": _Family(pgpp_certify, (pgpp_warn,), True),
    "hicert": _Family(hicert_certify, (_label_difference, _low_confidence), True),
    "hicert_flip": _Family(hicert_flip_certify, (), True),
    "pgpp_flip": _Family(pgpp_flip_certify, (), True),
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
        return self.warn_clauses(profile) is not None

    def warn_clauses(self, profile: MutantProfile) -> str | None:
        """The name of the first warning clause that fires, or None.

        The warner's clauses run in `CLAUSE_NAMES` order, each only when
        the ones before it stayed False, and each stops reading
        `profile.mutants` once its answer is settled: the label
        difference at the first disagreeing mutant, pgpp's clause at the
        first confident disagreement. So when the mutants are a lazy
        re-iterable, such as the scan's covering-first walk, only a
        silent warner or a low-confidence catch reaches every mutant.
        """
        spec = self.warner
        if spec is None:
            raise UnsupportedOperationError(
                f"{self.certifier.name} defines no warning rule"
            )
        for name, clause in zip(CLAUSE_NAMES, _FAMILIES[spec.kind].warn_clauses):
            if clause(profile, spec.tau):
                return name
        return None

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
