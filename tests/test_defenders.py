"""Certification and warning rules, their reductions and orderings."""
import pickle

import pytest

from patchcert.defenders import (
    Defender,
    DefenderSpec,
    Verdict,
    assign_case,
    c2_certify,
    doma_certify,
    doma_warn,
    hicert_certify,
    hicert_flip_certify,
    hicert_warn,
    hicert_warn_parts,
    make_composite,
    make_defender,
    oma,
    pgpp_certify,
    pgpp_flip_certify,
    pgpp_warn,
)
from patchcert.errors import InvalidInputError, UnsupportedOperationError

from conftest import profile, random_profile


class TestAgreementRules:
    def test_oma_requires_unanimity(self):
        p = profile((0, 0.7), [(0, 0.9), (0, 0.8)])
        assert oma(p, 0)
        assert not oma(p, 1)
        assert not oma(profile((0, 0.7), [(0, 0.9), (3, 0.6)]), 0)

    def test_doma_certify_and_warn(self):
        agree = profile((0, 0.7), [(0, 0.9), (0, 0.8)])
        disagree = profile((0, 0.7), [(0, 0.9), (3, 0.6)])
        assert doma_certify(agree, 0)
        assert not doma_certify(disagree, 0)
        assert not doma_warn(agree)
        assert doma_warn(disagree)

    def test_c2_follows_the_predicted_label(self):
        # misclassified but stable: agreement certification accepts what
        # the true-label rule rejects
        p = profile((3, 0.8), [(3, 0.9), (3, 0.7)])
        assert c2_certify(p)
        assert not doma_certify(p, 2)
        assert c2_certify(p, 2)  # optional true label is ignored


class TestThresholdCertify:
    def test_hicert_bounds_disagreeing_confidence(self):
        p = profile((0, 0.7), [(0, 0.9), (3, 0.6)])
        assert hicert_certify(p, 0, tau=0.8)
        assert not hicert_certify(p, 0, tau=0.5)

    def test_hicert_tie_falls_on_the_reject_side(self):
        p = profile((0, 0.7), [(3, 0.6)])
        assert not hicert_certify(p, 0, tau=0.6)

    def test_hicert_unanimous_certifies_at_any_tau(self):
        p = profile((0, 0.7), [(0, 0.1), (0, 0.2)])
        assert hicert_certify(p, 0, tau=0.0)

    def test_pgpp_needs_unanimity_and_confidence(self):
        p = profile((0, 0.9), [(0, 0.9), (0, 0.7)])
        assert pgpp_certify(p, 0, tau=0.5)
        assert not pgpp_certify(p, 0, tau=0.7)  # tie rejects
        assert not pgpp_certify(p, 0, tau=0.85)
        assert not pgpp_certify(profile((0, 0.9), [(1, 0.99)]), 0, tau=0.5)


class TestWarnRules:
    def test_pgpp_warn_needs_one_confident_disagreement(self):
        p = profile((0, 0.9), [(1, 0.6)])
        assert not pgpp_warn(p, tau=0.8)
        assert pgpp_warn(p, tau=0.5)

    def test_pgpp_warn_clauses_must_come_from_the_same_mutant(self):
        # one diffident disagreement plus one confident agreement is silence
        p = profile((0, 0.9), [(1, 0.5), (0, 0.99)])
        assert not pgpp_warn(p, tau=0.5)

    def test_hicert_warn_on_label_difference(self):
        p = profile((0, 0.7), [(0, 0.9), (3, 0.6)])
        assert hicert_warn_parts(p, tau=0.0) == (True, False)
        assert hicert_warn(p, tau=0.0)
        # The agreeing mutants' minimum counts even beside a disagreement.
        assert hicert_warn_parts(p, tau=0.95) == (True, True)

    def test_hicert_warn_on_weak_unanimity(self):
        p = profile((0, 0.7), [(0, 0.3), (0, 0.9)])
        assert hicert_warn_parts(p, tau=0.5) == (False, True)
        assert not hicert_warn(p, tau=0.2)
        assert not hicert_warn(p, tau=0.3)  # tie stays silent

    def test_hicert_warn_with_no_agreeing_mutants(self):
        p = profile((0, 0.7), [(1, 0.9), (2, 0.1)])
        assert hicert_warn_parts(p, tau=0.99) == (True, False)


class TestFlippedAblations:
    def test_hicert_flip_inverts_the_bound(self):
        p = profile((0, 0.7), [(1, 0.9), (2, 0.85)])
        assert hicert_flip_certify(p, 0, tau=0.8)
        assert not hicert_flip_certify(p, 0, tau=0.85)  # tie rejects
        assert not hicert_flip_certify(p, 0, tau=0.9)

    def test_hicert_flip_keeps_the_empty_convention(self):
        p = profile((0, 0.7), [(0, 0.9)])
        assert hicert_flip_certify(p, 0, tau=0.99)

    def test_pgpp_flip_wants_diffident_unanimity(self):
        p = profile((0, 0.9), [(0, 0.3), (0, 0.2)])
        assert pgpp_flip_certify(p, 0, tau=0.5)
        assert not pgpp_flip_certify(p, 0, tau=0.3)  # tie rejects
        assert not pgpp_flip_certify(profile((0, 0.9), [(1, 0.1)]), 0, tau=0.5)

    def test_flips_have_no_warning_rule(self):
        d = make_defender(DefenderSpec("hicert_flip", 0.5))
        p = profile((0, 0.7), [(0, 0.9)])
        with pytest.raises(UnsupportedOperationError):
            d.warn(p)
        # no disagreement, so the flip certifies; warned stays None
        assert d.verdict(p, 0) == Verdict(certified=True, warned=None)


class TestReductions:
    def test_hicert_at_zero_is_doma(self, rng):
        for _ in range(300):
            p = random_profile(rng)
            y = rng.randrange(5)
            assert hicert_certify(p, y, 0.0) == doma_certify(p, y)
            assert hicert_warn(p, 0.0) == doma_warn(p)

    def test_pgpp_at_zero_is_doma(self, rng):
        for _ in range(300):
            p = random_profile(rng)
            y = rng.randrange(5)
            assert pgpp_certify(p, y, 0.0) == doma_certify(p, y)
            assert pgpp_warn(p, 0.0) == doma_warn(p)

    def test_hicert_at_one_accepts_and_warns_everything(self, rng):
        for _ in range(300):
            p = random_profile(rng)
            assert hicert_certify(p, rng.randrange(5), 1.0)
            assert hicert_warn(p, 1.0)

    def test_certification_inclusion_chain(self, rng):
        for _ in range(300):
            p = random_profile(rng)
            y = rng.randrange(5)
            tau = rng.uniform(0.0, 1.0)
            if pgpp_certify(p, y, tau):
                assert doma_certify(p, y)
            if doma_certify(p, y):
                assert hicert_certify(p, y, rng.uniform(0.001, 1.0))

    def test_threshold_monotonicity(self, rng):
        taus = [i / 10 for i in range(11)]
        for _ in range(100):
            p = random_profile(rng)
            y = rng.randrange(5)
            hc = [hicert_certify(p, y, t) for t in taus]
            hw = [hicert_warn(p, t) for t in taus]
            pc = [pgpp_certify(p, y, t) for t in taus]
            pw = [pgpp_warn(p, t) for t in taus]
            assert hc == sorted(hc)  # non-decreasing
            assert hw == sorted(hw)
            assert pc == sorted(pc, reverse=True)  # non-increasing
            assert pw == sorted(pw, reverse=True)


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
        d = make_composite(DefenderSpec("hicert", 0.8), DefenderSpec("doma"))
        assert d.name == "certify=hicert(tau=0.8), warn=doma"
        p = profile((0, 0.7), [(0, 0.9), (0, 0.8)])
        assert d.verdict(p, 0) == Verdict(certified=True, warned=False)

    def test_flip_name_mentions_missing_warn(self):
        d = make_defender(DefenderSpec("pgpp_flip", 0.5))
        assert d.name == "pgpp_flip(tau=0.5), no warning rule"
        assert not d.has_warn

    def test_composite_rejects_flip_warner(self):
        with pytest.raises(InvalidInputError):
            make_composite(DefenderSpec("doma"), DefenderSpec("hicert_flip", 0.5))
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
        assert hicert_warn_parts(p, 0.95) == (True, True)
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
        rules = {
            "doma": lambda p, t: doma_warn(p),
            "c2": lambda p, t: doma_warn(p),
            "pgpp": pgpp_warn,
            "hicert": hicert_warn,
        }
        for _ in range(200):
            p = random_profile(rng)
            tau = rng.choice([0.0, 0.3, 0.5, 0.8, 1.0])
            for kind, rule in rules.items():
                d = make_defender(DefenderSpec(kind, tau))
                assert d.warn(p) == (d.warn_clauses(p) is not None) == rule(p, tau)
                if kind == "hicert":
                    parts = hicert_warn_parts(p, tau)
                    want = ("label_difference" if parts[0] else
                            "low_confidence" if parts[1] else None)
                    assert d.warn_clauses(p) == want

    def test_defender_pickles(self):
        d = make_composite(DefenderSpec("hicert", 0.8), DefenderSpec("doma"))
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
