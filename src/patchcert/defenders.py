"""Certification and warning rules over masked-mutant profiles.

A defender looks at the predictions for an image and for each of its
one-mask mutants, then makes two independent decisions: certify (on the
clean image: is this sample provably safe against any in-scope patch?)
and warn (on an arriving image: does it look tampered with?). The rules
here differ only in how they weigh label disagreement and confidence.

Every rule in `_FAMILIES` reads one mutant: a label comparison and at
most one strict comparison with tau. `Defender` applies the quantifiers,
once each: a sample certifies when its certify rule holds for every
mutant, and a warning clause fires when it holds for some mutant. Both
stop at the first mutant that settles them, so an empty set certifies
and warns of nothing. A clause that fires on some of a profile's
mutants therefore fires on the whole profile, which
`Defender.settled_clause` uses to judge a patched variant from the
mutants its patch cannot change. Every threshold comparison is strict:
a confidence equal to tau neither certifies nor warns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import InvalidInputError, UnsupportedOperationError

__all__ = [
    "Prediction",
    "MutantProfile",
    "Verdict",
    "DefenderSpec",
    "Defender",
    "DEFENDER_KINDS",
    "CLAUSE_NAMES",
    "make_defender",
    "assign_case",
]


class Prediction(NamedTuple):
    """A label with the classifier's confidence for it.

    A plain value: pixel backends clamp confidences into (0, 1), and the
    file loaders check label and confidence where a table is read. The
    oracle scores a harmful variant for its label alone and hands the
    warning rule that label, never a `Prediction`.
    """

    label: int
    confidence: float


class MutantProfile(NamedTuple):
    """Base prediction plus one prediction per mask, in mask-set order."""

    base: Prediction
    mutants: tuple[Prediction, ...]


@dataclass(frozen=True)
class Verdict:
    """A defender's two decisions for one sample.

    `warned` is None when the defender has no warning rule (the flipped
    ablations), in which case only certification metrics exist.
    """

    certified: bool
    warned: bool | None


# A rule reads one mutant `m`, the label `y` it is judged against and
# tau. A certify rule must hold for every mutant, with `y` the true label
# or, for c2, the predicted one; a warning clause fires when it holds for
# some mutant, with `y` the arriving label.
_Rule = Callable[[Prediction, int, float], bool]


def _label_difference(m: Prediction, y: int, tau: float) -> bool:
    """The mutant disagrees with the arriving label."""
    return m.label != y


def _confident_difference(m: Prediction, y: int, tau: float) -> bool:
    """The mutant both disagrees and is confident above tau."""
    return m.label != y and m.confidence > tau


def _low_confidence(m: Prediction, y: int, tau: float) -> bool:
    """The mutant agrees with the arriving label and is below tau,
    whether or not another mutant disagrees."""
    return m.label == y and m.confidence < tau


# The warning clauses, in the order they are judged. A family without a
# confidence clause has a single clause, counted as a label difference.
CLAUSE_NAMES = ("label_difference", "low_confidence")


class _Family(NamedTuple):
    """One family's rules, tau last. `warn_clauses` is in
    `CLAUSE_NAMES` order, and empty for the flipped ablations, which have
    no warning rule. `certifies_prediction` judges the certify rule
    against the predicted label instead of the true one."""

    certify: _Rule
    warn_clauses: tuple[_Rule, ...]
    uses_tau: bool
    certifies_prediction: bool = False


# The only definition of each family, one row per family of the
# README's defender table; DEFENDER_KINDS keeps this order. Each certify
# rule is what every mutant must satisfy.
_FAMILIES: dict[str, _Family] = {
    # The mutant keeps the true label.
    "doma": _Family(lambda m, y, tau: m.label == y, (_label_difference,), False),
    # The mutant keeps the predicted label, right or wrong: no ground truth.
    "c2": _Family(lambda m, y, tau: m.label == y, (_label_difference,), False, True),
    # The mutant keeps the true label with confidence above tau.
    "pgpp": _Family(lambda m, y, tau: m.label == y and m.confidence > tau,
                    (_confident_difference,), True),
    # A disagreeing mutant stays below confidence tau (so with no
    # disagreement the sample certifies at any tau).
    "hicert": _Family(lambda m, y, tau: m.label == y or m.confidence < tau,
                      (_label_difference, _low_confidence), True),
    # Ablation: HiCert's comparison inverted, a disagreeing mutant above
    # tau. It has no warning rule; it shows the certificate breaks.
    "hicert_flip": _Family(lambda m, y, tau: m.label == y or m.confidence > tau, (), True),
    # Ablation: the mutant keeps the true label with confidence below tau.
    "pgpp_flip": _Family(lambda m, y, tau: m.label == y and m.confidence < tau, (), True),
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
        """The certifier's rule holds for every mutant."""
        spec = self.certifier
        family = _FAMILIES[spec.kind]
        rule, tau = family.certify, spec.tau
        y = profile.base.label if family.certifies_prediction else true_label
        return all(rule(m, y, tau) for m in profile.mutants)

    def warn(self, profile: MutantProfile) -> bool:
        return self.warn_clauses(profile.base.label, profile.mutants) is not None

    def warn_clauses(self, label: int, mutants: Iterable[Prediction]) -> str | None:
        """The name of the first warning clause that fires on some mutant
        of an arriving image labelled `label`, or None.

        The warner's clauses run in `CLAUSE_NAMES` order, each only when
        the ones before it stayed False, and each stops reading `mutants`
        at the first mutant that fires it: the label difference at the
        first disagreeing mutant, pgpp's clause at the first confident
        disagreement. So when `mutants` is a lazy re-iterable, such as
        the scan's covering-first walk, only a silent warner or a
        low-confidence catch reaches every mutant.
        """
        clauses, tau = self._warning()
        for name, clause in zip(CLAUSE_NAMES, clauses):
            if any(clause(m, label, tau) for m in mutants):
                return name
        return None

    def settled_clause(self, label: int, covered: Sequence[Prediction]) -> str | None:
        """The first warning clause's name when it fires on a variant of
        `label` that has the `covered` mutants, whatever its other
        mutants are; else None.

        A clause fires when some mutant fires it, so a first clause that
        fires on `covered` alone fires on every profile holding them, and
        `warn_clauses` names it. A later clause settles nothing: another
        mutant may fire an earlier one.
        """
        clauses, tau = self._warning()
        if any(clauses[0](m, label, tau) for m in covered):
            return CLAUSE_NAMES[0]
        return None

    def _warning(self) -> tuple[tuple[_Rule, ...], float]:
        """The warner's clauses in `CLAUSE_NAMES` order, and its tau."""
        spec = self.warner
        if spec is None:
            raise UnsupportedOperationError(
                f"{self.certifier.name} defines no warning rule"
            )
        return _FAMILIES[spec.kind].warn_clauses, spec.tau

    def verdict(self, profile: MutantProfile, true_label: int) -> Verdict:
        certified = self.certify(profile, true_label)
        warned = self.warn(profile) if self.has_warn else None
        return Verdict(certified, warned)


def make_defender(spec: DefenderSpec) -> Defender:
    """Bind a spec to its own family's certify and warn rules."""
    return Defender(spec, spec if _FAMILIES[spec.kind].warn_clauses else None)


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
