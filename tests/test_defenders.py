"""Certification and warning rules, their reductions and orderings."""
import pickle

import pytest

from patchcert.defenders import (
    _FAMILIES,
    CLAUSE_NAMES,
    DEFENDER_KINDS,
    Defender,
    DefenderSpec,
    Verdict,
    assign_case,
    make_defender,
)
from patchcert.errors import InvalidInputError, UnsupportedOperationError

import naive
from conftest import profile, random_profile


def certify(kind, p, true_label, tau=0.0):
    return make_defender(DefenderSpec(kind, tau)).certify(p, true_label)


def warn(kind, p, tau=0.0):
    return make_defender(DefenderSpec(kind, tau)).warn(p)


def clauses(kind, p, tau):
    """Each of the family's warning clauses on its own, in CLAUSE_NAMES order."""
    return tuple(clause(p, tau) for clause in _FAMILIES[kind].warn_clauses)


def reference_taus(rng, p):
    """Taus 0 and 1, and a confidence that the profile holds."""
    held = [p.base.confidence] + [m.confidence for m in p.mutants]
    return (0.0, 1.0, rng.choice(held))


class TestAgreementRules:
    def test_oma_requires_unanimity(self):
        """One-mask agreement, the consistency rule, is DOMA's certify rule."""
        p = profile((0, 0.7), [(0, 0.9), (0, 0.8)])
        assert certify("doma", p, 0)
        assert not certify("doma", p, 1)
        assert not certify("doma", profile((0, 0.7), [(0, 0.9), (3, 0.6)]), 0)

    def test_doma_certify_and_warn(self):
        agree = profile((0, 0.7), [(0, 0.9), (0, 0.8)])
        disagree = profile((0, 0.7), [(0, 0.9), (3, 0.6)])
        assert certify("doma", agree, 0)
        assert not certify("doma", disagree, 0)
        assert not warn("doma", agree)
        assert warn("doma", disagree)

    def test_c2_follows_the_predicted_label(self):
        # misclassified but stable: agreement certification accepts what
        # the true-label rule rejects
        p = profile((3, 0.8), [(3, 0.9), (3, 0.7)])
        assert certify("c2", p, 3)
        assert not certify("doma", p, 2)
        assert certify("c2", p, 2)  # the true label is ignored


class TestThresholdCertify:
    def test_hicert_bounds_disagreeing_confidence(self):
        p = profile((0, 0.7), [(0, 0.9), (3, 0.6)])
        assert certify("hicert", p, 0, tau=0.8)
        assert not certify("hicert", p, 0, tau=0.5)

    def test_hicert_tie_falls_on_the_reject_side(self):
        p = profile((0, 0.7), [(3, 0.6)])
        assert not certify("hicert", p, 0, tau=0.6)

    def test_hicert_unanimous_certifies_at_any_tau(self):
        p = profile((0, 0.7), [(0, 0.1), (0, 0.2)])
        assert certify("hicert", p, 0, tau=0.0)

    def test_pgpp_needs_unanimity_and_confidence(self):
        p = profile((0, 0.9), [(0, 0.9), (0, 0.7)])
        assert certify("pgpp", p, 0, tau=0.5)
        assert not certify("pgpp", p, 0, tau=0.7)  # tie rejects
        assert not certify("pgpp", p, 0, tau=0.85)
        assert not certify("pgpp", profile((0, 0.9), [(1, 0.99)]), 0, tau=0.5)


class TestWarnRules:
    def test_pgpp_warn_needs_one_confident_disagreement(self):
        p = profile((0, 0.9), [(1, 0.6)])
        assert not warn("pgpp", p, tau=0.8)
        assert warn("pgpp", p, tau=0.5)

    def test_pgpp_warn_clauses_must_come_from_the_same_mutant(self):
        # one diffident disagreement plus one confident agreement is silence
        p = profile((0, 0.9), [(1, 0.5), (0, 0.99)])
        assert not warn("pgpp", p, tau=0.5)

    def test_hicert_warn_on_label_difference(self):
        p = profile((0, 0.7), [(0, 0.9), (3, 0.6)])
        assert clauses("hicert", p, 0.0) == (True, False)
        assert warn("hicert", p, tau=0.0)
        # The agreeing mutants' minimum counts even beside a disagreement.
        assert clauses("hicert", p, 0.95) == (True, True)

    def test_hicert_warn_on_weak_unanimity(self):
        p = profile((0, 0.7), [(0, 0.3), (0, 0.9)])
        assert clauses("hicert", p, 0.5) == (False, True)
        assert not warn("hicert", p, tau=0.2)
        assert not warn("hicert", p, tau=0.3)  # tie stays silent

    def test_hicert_warn_with_no_agreeing_mutants(self):
        p = profile((0, 0.7), [(1, 0.9), (2, 0.1)])
        assert clauses("hicert", p, 0.99) == (True, False)


class TestFlippedAblations:
    def test_hicert_flip_inverts_the_bound(self):
        p = profile((0, 0.7), [(1, 0.9), (2, 0.85)])
        assert certify("hicert_flip", p, 0, tau=0.8)
        assert not certify("hicert_flip", p, 0, tau=0.85)  # tie rejects
        assert not certify("hicert_flip", p, 0, tau=0.9)

    def test_hicert_flip_keeps_the_empty_convention(self):
        p = profile((0, 0.7), [(0, 0.9)])
        assert certify("hicert_flip", p, 0, tau=0.99)

    def test_pgpp_flip_wants_diffident_unanimity(self):
        p = profile((0, 0.9), [(0, 0.3), (0, 0.2)])
        assert certify("pgpp_flip", p, 0, tau=0.5)
        assert not certify("pgpp_flip", p, 0, tau=0.3)  # tie rejects
        assert not certify("pgpp_flip", profile((0, 0.9), [(1, 0.1)]), 0, tau=0.5)

    def test_flips_have_no_warning_rule(self):
        d = make_defender(DefenderSpec("hicert_flip", 0.5))
        p = profile((0, 0.7), [(0, 0.9)])
        with pytest.raises(UnsupportedOperationError):
            d.warn(p)
        with pytest.raises(UnsupportedOperationError):
            d.settled_clause(1, p.mutants)
        # no disagreement, so the flip certifies; warned stays None
        assert d.verdict(p, 0) == Verdict(certified=True, warned=None)


class TestReductions:
    def test_hicert_at_zero_is_doma(self, rng):
        for _ in range(300):
            p = random_profile(rng)
            y = rng.randrange(5)
            assert certify("hicert", p, y, 0.0) == certify("doma", p, y)
            assert warn("hicert", p, 0.0) == warn("doma", p)

    def test_pgpp_at_zero_is_doma(self, rng):
        for _ in range(300):
            p = random_profile(rng)
            y = rng.randrange(5)
            assert certify("pgpp", p, y, 0.0) == certify("doma", p, y)
            assert warn("pgpp", p, 0.0) == warn("doma", p)

    def test_hicert_at_one_accepts_and_warns_everything(self, rng):
        for _ in range(300):
            p = random_profile(rng)
            assert certify("hicert", p, rng.randrange(5), 1.0)
            assert warn("hicert", p, 1.0)

    def test_certification_inclusion_chain(self, rng):
        for _ in range(300):
            p = random_profile(rng)
            y = rng.randrange(5)
            tau = rng.uniform(0.0, 1.0)
            if certify("pgpp", p, y, tau):
                assert certify("doma", p, y)
            if certify("doma", p, y):
                assert certify("hicert", p, y, rng.uniform(0.001, 1.0))

    def test_threshold_monotonicity(self, rng):
        taus = [i / 10 for i in range(11)]
        for _ in range(100):
            p = random_profile(rng)
            y = rng.randrange(5)
            hc = [certify("hicert", p, y, t) for t in taus]
            hw = [warn("hicert", p, t) for t in taus]
            pc = [certify("pgpp", p, y, t) for t in taus]
            pw = [warn("pgpp", p, t) for t in taus]
            assert hc == sorted(hc)  # non-decreasing
            assert hw == sorted(hw)
            assert pc == sorted(pc, reverse=True)  # non-increasing
            assert pw == sorted(pw, reverse=True)


class TestQuantifiers:
    def test_every_rule_has_its_stated_quantifier(self, rng):
        """Certify rules are universal over the mutants and warning
        clauses existential: on a sub-multiset of the mutants, a clause
        that fires also fires on the whole, and a certificate that holds
        on the whole also holds on the part."""
        for _ in range(300):
            p = random_profile(rng)
            y = rng.randrange(5)
            for tau in reference_taus(rng, p):
                k = rng.randint(0, len(p.mutants))
                part = p._replace(mutants=tuple(rng.sample(p.mutants, k)))
                for kind, family in _FAMILIES.items():
                    if family.certify(p, y, tau):
                        assert family.certify(part, y, tau), (kind, p, part, tau)
                    for name, clause in zip(CLAUSE_NAMES, family.warn_clauses):
                        if clause(part, tau):
                            assert clause(p, tau), (kind, name, p, part, tau)

    def test_a_settled_clause_is_the_warning_of_every_completion(self, rng):
        """`settled_clause` on a sub-multiset of the mutants (a plan's
        covered ones) names the first clause when it fires there, and
        then `warn_clauses` on the whole profile names that clause too.
        It names no later clause, which an extra mutant can pre-empt."""
        first = CLAUSE_NAMES[0]
        for _ in range(300):
            p = random_profile(rng)
            for tau in reference_taus(rng, p):
                k = rng.randint(0, len(p.mutants))
                part = p._replace(mutants=tuple(rng.sample(p.mutants, k)))
                for kind in ("doma", "c2", "pgpp", "hicert"):
                    d = make_defender(DefenderSpec(kind, tau))
                    settled = d.settled_clause(p.base.label, part.mutants)
                    assert settled == (first if d.warn_clauses(part) == first else None)
                    if settled is not None:
                        assert d.warn_clauses(p) == settled, (kind, p, part, tau)


class TestDefenderSpec:
    def test_alias_and_name(self):
        with pytest.raises(InvalidInputError):
            DefenderSpec("c2_variant")
        assert DefenderSpec("doma").name == "doma"
        assert DefenderSpec("hicert", 0.8).name == "hicert(tau=0.8)"

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            DefenderSpec("majority")
        with pytest.raises(InvalidInputError):
            DefenderSpec("hicert", 1.5)
        with pytest.raises(InvalidInputError):
            DefenderSpec("hicert", -0.1)


class TestDefender:
    def test_make_defender_binds_both_rules(self):
        d = make_defender(DefenderSpec("hicert", 0.5))
        assert d.name == "hicert(tau=0.5)"
        p = profile((0, 0.7), [(0, 0.9), (3, 0.4)])
        assert d.verdict(p, 0) == Verdict(certified=True, warned=True)

    def test_composite_name_and_behavior(self):
        d = Defender(DefenderSpec("hicert", 0.8), DefenderSpec("doma"))
        assert d.name == "certify=hicert(tau=0.8), warn=doma"
        p = profile((0, 0.7), [(0, 0.9), (0, 0.8)])
        assert d.verdict(p, 0) == Verdict(certified=True, warned=False)

    def test_flip_name_mentions_missing_warn(self):
        d = make_defender(DefenderSpec("pgpp_flip", 0.5))
        assert d.name == "pgpp_flip(tau=0.5), no warning rule"
        assert not d.has_warn

    def test_composite_rejects_flip_warner(self):
        with pytest.raises(InvalidInputError):
            Defender(DefenderSpec("doma"), DefenderSpec("hicert_flip", 0.5))
        with pytest.raises(InvalidInputError, match="no warning rule to borrow"):
            Defender(DefenderSpec("hicert", 0.8), DefenderSpec("pgpp_flip", 0.5))

    def test_warn_clauses_for_plain_warners(self):
        d = make_defender(DefenderSpec("doma"))
        p = profile((0, 0.7), [(3, 0.9)])
        assert d.warn_clauses(p) == "label_difference"

    def test_warn_clauses_for_hicert(self):
        d = make_defender(DefenderSpec("hicert", 0.5))
        p = profile((0, 0.7), [(0, 0.3)])
        assert d.warn_clauses(p) == "low_confidence"

    def test_warn_clauses_names_the_first_clause_that_fires(self):
        d = make_defender(DefenderSpec("hicert", 0.95))
        p = profile((0, 0.7), [(0, 0.9), (3, 0.6)])
        assert clauses("hicert", p, 0.95) == (True, True)
        assert d.warn_clauses(p) == "label_difference"
        assert d.warn_clauses(profile((0, 0.7), [(0, 0.99)])) is None

    def test_warn_clauses_read_the_mutants_only_as_far_as_they_must(self):
        """Each clause stops at the mutant that settles it; the
        low-confidence clause runs only after a full silent walk."""

        class Reads:
            def __init__(self, preds):
                self.preds = preds
                self.reads = []

            def __iter__(self):
                for i, pred in enumerate(self.preds):
                    self.reads.append(i)
                    yield pred

        def reads(spec, base, mutants):
            p = profile(base, mutants)
            lazy = Reads(p.mutants)
            clause = make_defender(spec).warn_clauses(p._replace(mutants=lazy))
            return clause, lazy.reads

        hicert = DefenderSpec("hicert", 0.5)
        assert reads(hicert, (0, 0.7), [(0, 0.9), (3, 0.9), (0, 0.1)]) == (
            "label_difference", [0, 1])
        assert reads(hicert, (0, 0.7), [(0, 0.9), (0, 0.1), (0, 0.9)]) == (
            "low_confidence", [0, 1, 2, 0, 1])
        assert reads(hicert, (0, 0.7), [(0, 0.9), (0, 0.8)]) == (
            None, [0, 1, 0, 1])
        pgpp = DefenderSpec("pgpp", 0.5)
        assert reads(pgpp, (0, 0.7), [(3, 0.4), (3, 0.9), (3, 0.9)]) == (
            "label_difference", [0, 1])

    def test_warn_is_any_clause_and_matches_the_rule(self, rng):
        """Every warning family against the paper-form reference, clause
        by clause, at taus 0 and 1 and at a confidence the profile holds
        (every comparison is strict, so ties are where the forms could
        part)."""
        for _ in range(300):
            p = random_profile(rng)
            for tau in reference_taus(rng, p):
                for kind in naive.WARN_PARTS:
                    d = make_defender(DefenderSpec(kind, tau))
                    want = naive.first_clause(kind, p, tau)
                    assert d.warn_clauses(p) == want, (kind, p, tau)
                    assert d.warn(p) == (want is not None)
                    assert clauses(kind, p, tau) == naive.WARN_PARTS[kind](p, tau)

    def test_certify_matches_the_rule(self, rng):
        assert set(naive.CERTIFY) == set(DEFENDER_KINDS)
        for _ in range(300):
            p = random_profile(rng)
            y = rng.randrange(5)
            for tau in reference_taus(rng, p):
                for kind, rule in naive.CERTIFY.items():
                    assert certify(kind, p, y, tau) == rule(p, y, tau), (kind, p, y, tau)

    def test_defender_pickles(self):
        d = Defender(DefenderSpec("hicert", 0.8), DefenderSpec("doma"))
        assert pickle.loads(pickle.dumps(d)) == d


class TestCaseAssignment:
    @pytest.mark.parametrize(
        "correct,certified,warned,case",
        [
            (True, True, True, 1),
            (True, True, False, 2),
            (True, False, True, 3),
            (True, False, False, 4),
            (False, True, True, 5),
            (False, True, False, 6),
            (False, False, True, 7),
            (False, False, False, 8),
        ],
    )
    def test_all_eight_cases(self, correct, certified, warned, case):
        assert assign_case(correct, Verdict(certified, warned)) == case

    def test_needs_a_warning_decision(self):
        with pytest.raises(UnsupportedOperationError):
            assign_case(True, Verdict(True, None))
