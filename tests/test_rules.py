"""Salience assignment, Cf ranking, Cb candidates, transitions, filters."""

import itertools

import pytest

from centering.model import (
    Argument,
    CenterState,
    Entity,
    GrammaticalRole,
    Marking,
    Realization,
    SalienceRole,
    SortalConstraint,
    Transition,
    Utterance,
    VerbFrame,
)
from centering.rules import (
    RejectionCode,
    assign_salience_roles,
    classify_transition,
    compute_cb_candidates,
    filter_assignment,
    rank_cf,
)
from helpers import expected_transition

SUBJ = GrammaticalRole.SUBJ
OBJ2 = GrammaticalRole.OBJ2
OBJ = GrammaticalRole.OBJ
OTHER = GrammaticalRole.OTHER


def overt(role, eid, marking=Marking.NONE):
    return Argument(role, marking, Realization.overt(eid))


def zero(role):
    return Argument(role, Marking.NONE, Realization.zero())


def entities(*ids, inanimate=(), hearer_new=()):
    return {
        eid: Entity(
            eid,
            animate=eid not in inanimate,
            hearer_old=eid not in hearer_new,
            definite=True,
        )
        for eid in ids
    }


# --------------------------------------------------------------------------
# Transition classification


def test_transition_table_exhaustive_three_entity_universe():
    universe = ["a", "b", "c"]
    for prev_cb, cb, cp in itertools.product([None] + universe, universe, universe):
        assert classify_transition(prev_cb, cb, cp) is expected_transition(
            prev_cb, cb, cp
        ), (prev_cb, cb, cp)


def test_transition_quadrants_by_name():
    assert classify_transition("taroo", "taroo", "taroo") is Transition.CONTINUE
    assert classify_transition("taroo", "taroo", "ziroo") is Transition.RETAIN
    assert classify_transition("taroo", "ziroo", "ziroo") is Transition.SMOOTH_SHIFT
    assert classify_transition("taroo", "ziroo", "taroo") is Transition.ROUGH_SHIFT
    # An uninstantiated previous Cb is pinned down, never shifted away from.
    assert classify_transition(None, "ziroo", "ziroo") is Transition.CONTINUE
    assert classify_transition(None, "ziroo", "taroo") is Transition.RETAIN


# --------------------------------------------------------------------------
# Salience roles and Cf ranking


def test_wa_topic_outranks_subject():
    frame = VerbFrame("v", (SUBJ, OBJ))
    utt = Utterance(1, frame, (overt(SUBJ, "a"), overt(OBJ, "b", Marking.WA)))
    cf = rank_cf(assign_salience_roles(utt, {SUBJ: "a", OBJ: "b"}))
    assert cf == (
        ("b", SalienceRole.GRAMM_TOPIC),
        ("a", SalienceRole.SUBJ),
    )


def test_empathy_locus_outranks_subject_but_not_topic():
    frame = VerbFrame("v", (SUBJ, OBJ2, OBJ), {}, OBJ2)
    utt = Utterance(
        1, frame,
        (overt(SUBJ, "a"), overt(OBJ2, "b", Marking.NI), overt(OBJ, "c", Marking.WA)),
    )
    cf = rank_cf(assign_salience_roles(utt, {SUBJ: "a", OBJ2: "b", OBJ: "c"}))
    assert cf == (
        ("c", SalienceRole.GRAMM_TOPIC),
        ("b", SalienceRole.EMPATHY),
        ("a", SalienceRole.SUBJ),
    )


def test_zero_topic_heads_cf_and_demotes_wa_topic():
    frame = VerbFrame("v", (SUBJ, OBJ2, OBJ))
    utt = Utterance(
        1, frame,
        (overt(SUBJ, "a", Marking.WA), zero(OBJ2), overt(OBJ, "c")),
    )
    assignment = {SUBJ: "a", OBJ2: "b", OBJ: "c"}
    cf = rank_cf(assign_salience_roles(utt, assignment, zero_topic="b"))
    assert cf == (
        ("b", SalienceRole.ZERO_TOPIC),
        ("a", SalienceRole.SUBJ),  # wa topic demoted to its grammatical slot
        ("c", SalienceRole.OBJ),
    )


def test_zero_topic_must_be_bound_at_a_zero_slot():
    frame = VerbFrame("v", (SUBJ, OBJ))
    utt = Utterance(1, frame, (overt(SUBJ, "a"), overt(OBJ, "b")))
    with pytest.raises(ValueError):
        assign_salience_roles(utt, {SUBJ: "a", OBJ: "b"}, zero_topic="b")


def test_salience_needs_every_slot_bound_to_an_entity_of_its_own():
    # Ranking takes only injective bindings: the arguments of one verb are
    # disjoint in reference, so one entity in two slots is refused.
    frame = VerbFrame("v", (SUBJ, OBJ))
    utt = Utterance(1, frame, (overt(SUBJ, "a"), overt(OBJ, "a")))
    with pytest.raises(ValueError, match="misses subcategorized role"):
        assign_salience_roles(utt, {SUBJ: "a"})
    with pytest.raises(ValueError, match="'a' fills two slots"):
        assign_salience_roles(utt, {SUBJ: "a", OBJ: "a"})


def test_equal_tiers_keep_subcat_order():
    frame = VerbFrame("v", (OBJ2, OBJ))
    utt = Utterance(1, frame, (overt(OBJ2, "x", Marking.NI), overt(OBJ, "y")))
    cf = rank_cf(assign_salience_roles(utt, {OBJ2: "x", OBJ: "y"}))
    assert cf == (("x", SalienceRole.OBJ2), ("y", SalienceRole.OBJ))


# --------------------------------------------------------------------------
# Cb candidates


def prev_state(cb, *cf_ids):
    cf = tuple((eid, SalienceRole.SUBJ if i == 0 else SalienceRole.OBJ)
               for i, eid in enumerate(cf_ids))
    return CenterState(cb, cf)


def test_instantiated_center_forces_the_highest_realized_candidate():
    prev = prev_state("a", "a", "b")
    assert compute_cb_candidates(prev, {SUBJ: "b", OBJ: "a"}) == ["a"]
    # Even when the old center is gone, the top surviving Cf entity wins.
    assert compute_cb_candidates(prev, {SUBJ: "c", OBJ: "b"}) == ["b"]


def test_uninstantiated_center_keeps_every_realized_candidate():
    prev = prev_state(None, "a", "b")
    assert compute_cb_candidates(prev, {SUBJ: "b", OBJ: "a"}) == ["a", "b"]


def test_no_realized_candidate_means_segment_reset():
    prev = prev_state("a", "a", "b")
    assert compute_cb_candidates(prev, {SUBJ: "c", OBJ: "d"}) == []


def test_discourse_initial_utterance_has_no_candidates():
    assert compute_cb_candidates(None, {SUBJ: "a", OBJ: "b"}) == []


# --------------------------------------------------------------------------
# Candidate filtering


def test_filter_rejects_coindexed_slots():
    frame = VerbFrame("v", (SUBJ, OBJ))
    utt = Utterance(1, frame, (zero(SUBJ), zero(OBJ)))
    prev = prev_state("a", "a", "b")
    code = filter_assignment(utt, {SUBJ: "a", OBJ: "a"}, prev, "a", entities("a", "b"))
    assert code == RejectionCode.CONTRA_INDEX


def test_filter_rejects_sortal_violations():
    frame = VerbFrame("v", (SUBJ, OBJ), {SUBJ: SortalConstraint.ANIMATE})
    utt = Utterance(1, frame, (zero(SUBJ), overt(OBJ, "a")))
    prev = prev_state("a", "a", "rock")
    code = filter_assignment(
        utt, {SUBJ: "rock", OBJ: "a"}, prev, "a",
        entities("a", "rock", inanimate=("rock",)),
    )
    assert code == RejectionCode.SORTAL


def test_filter_enforces_rule_1():
    # The zero picks up a previous-Cf entity while the Cb sits in an
    # overt slot: rejected.
    frame = VerbFrame("v", (SUBJ, OBJ))
    utt = Utterance(1, frame, (overt(SUBJ, "a"), zero(OBJ)))
    prev = prev_state("a", "a", "b")
    code = filter_assignment(utt, {SUBJ: "a", OBJ: "b"}, prev, "a", entities("a", "b"))
    assert code == RejectionCode.RULE_1
    # Same shape, but the Cb is the zero-realized entity: passes.
    assert (
        filter_assignment(utt, {SUBJ: "a", OBJ: "b"}, prev, "b", entities("a", "b"))
        is None
    )


def test_all_overt_utterances_pass_rule_1():
    frame = VerbFrame("v", (SUBJ, OBJ))
    utt = Utterance(1, frame, (overt(SUBJ, "a"), overt(OBJ, "b")))
    prev = prev_state("a", "a", "b")
    assert (
        filter_assignment(utt, {SUBJ: "a", OBJ: "b"}, prev, "a", entities("a", "b"))
        is None
    )


def test_filter_rejects_unrecoverable_zero_antecedents():
    frame = VerbFrame("v", (SUBJ,))
    utt = Utterance(1, frame, (zero(SUBJ),))
    prev = prev_state("a", "a")
    code = filter_assignment(
        utt, {SUBJ: "new"}, prev, None, entities("a", "new", hearer_new=("new",))
    )
    assert code == RejectionCode.ZERO_ANTECEDENT
    # Hearer-old entities are recoverable even from outside the Cf.
    assert (
        filter_assignment(utt, {SUBJ: "old"}, prev, None, entities("a", "old"))
        is None
    )
