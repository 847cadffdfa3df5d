"""Data-model construction rules, salience constants, and validation."""

import dataclasses

import pytest

from centering.model import (
    Argument,
    CenterState,
    Discourse,
    GRAMMATICAL_SALIENCE,
    GrammaticalRole,
    Hypothesis,
    Marking,
    Realization,
    SalienceRole,
    SortalConstraint,
    Step,
    Transition,
    Utterance,
    VerbFrame,
    ViolationCode,
    validate_discourse,
)
from helpers import entity, overt, zero

SUBJ = GrammaticalRole.SUBJ
OBJ2 = GrammaticalRole.OBJ2
OBJ = GrammaticalRole.OBJ
OTHER = GrammaticalRole.OTHER


# --------------------------------------------------------------------------
# Enumerations


def test_salience_tier_order():
    tiers = [
        SalienceRole.ZERO_TOPIC,
        SalienceRole.GRAMM_TOPIC,
        SalienceRole.EMPATHY,
        SalienceRole.SUBJ,
        SalienceRole.OBJ2,
        SalienceRole.OBJ,
        SalienceRole.OTHER,
    ]
    assert [t.rank for t in tiers] == list(range(7))


def test_grammatical_salience_mapping():
    assert GRAMMATICAL_SALIENCE[SUBJ] is SalienceRole.SUBJ
    assert GRAMMATICAL_SALIENCE[OBJ2] is SalienceRole.OBJ2
    assert GRAMMATICAL_SALIENCE[OBJ] is SalienceRole.OBJ
    assert GRAMMATICAL_SALIENCE[OTHER] is SalienceRole.OTHER


def test_transition_ordinals_are_the_preference_order():
    assert Transition.CONTINUE.ordinal == 0
    assert Transition.RETAIN.ordinal == 1
    assert Transition.SMOOTH_SHIFT.ordinal == 2
    assert Transition.ROUGH_SHIFT.ordinal == 3


def test_role_rank_follows_subcat_prominence():
    assert [r.value for r in (SUBJ, OBJ2, OBJ, OTHER)] == [0, 1, 2, 3]


# --------------------------------------------------------------------------
# Construction-time checks


def test_model_values_are_immutable():
    e = entity("taroo")
    with pytest.raises(dataclasses.FrozenInstanceError):
        e.animate = False


def test_empty_ids_and_a_zero_index_are_refused():
    with pytest.raises(ValueError, match="entity id must be non-empty"):
        entity("")
    with pytest.raises(ValueError, match="overt realization needs an entity id"):
        Realization.overt("")
    with pytest.raises(ValueError, match="utterance index is 1-based"):
        Utterance(0, VerbFrame("v", (SUBJ,)), (overt(SUBJ, "a"),))


def test_zero_argument_rejects_particle_marking():
    with pytest.raises(ValueError):
        Argument(SUBJ, Marking.WA, Realization.zero())


def test_frame_requires_nonempty_distinct_subcat():
    with pytest.raises(ValueError, match="verb frame needs a lemma"):
        VerbFrame("", (SUBJ,))
    with pytest.raises(ValueError):
        VerbFrame("v", ())
    with pytest.raises(ValueError):
        VerbFrame("v", (SUBJ, SUBJ))


def test_frame_constraints_must_target_subcat_roles():
    with pytest.raises(ValueError):
        VerbFrame("v", (SUBJ,), {OBJ: SortalConstraint.ANIMATE})
    with pytest.raises(ValueError):
        VerbFrame("v", (SUBJ,), {}, OBJ2)


def test_utterance_args_must_mirror_subcat_order():
    frame = VerbFrame("v", (SUBJ, OBJ))
    with pytest.raises(ValueError):
        Utterance(1, frame, (overt(OBJ, "a"), overt(SUBJ, "b")))
    with pytest.raises(ValueError):
        Utterance(1, frame, (overt(SUBJ, "a"),))


def test_utterance_allows_at_most_one_wa_topic():
    frame = VerbFrame("v", (SUBJ, OBJ))
    with pytest.raises(ValueError):
        Utterance(
            1, frame,
            (overt(SUBJ, "a", Marking.WA), overt(OBJ, "b", Marking.WA)),
        )


def test_discourse_rejects_duplicate_ids_and_index_gaps():
    frame = VerbFrame("v", (SUBJ,))
    u1 = Utterance(1, frame, (overt(SUBJ, "a"),))
    with pytest.raises(ValueError):
        Discourse((entity("a"), entity("a")), (u1,))
    u3 = Utterance(3, frame, (overt(SUBJ, "a"),))
    with pytest.raises(ValueError):
        Discourse((entity("a"),), (u1, u3))
    with pytest.raises(ValueError, match="discourse needs at least one utterance"):
        Discourse((entity("a"),), ())


def test_derived_entity_views_leave_equality_and_repr_alone():
    frame = VerbFrame("v", (SUBJ,))
    ents = (entity("c"), entity("new", hearer_old=False), entity("a"))
    d = Discourse(ents, (Utterance(1, frame, (overt(SUBJ, "a"),)),))
    fresh = Discourse(ents, d.utterances)
    text = repr(d)
    assert d.hearer_old_ids == ("c", "a")
    assert d.entity_map["new"] is ents[1]
    assert d.entity_index == {"c": 0, "new": 1, "a": 2}
    assert d.entity_index is d.entity_index
    assert d == fresh
    assert repr(d) == text == repr(fresh)


def test_center_state_invariants():
    with pytest.raises(ValueError):
        CenterState(None, ())
    cf = (("a", SalienceRole.SUBJ), ("b", SalienceRole.OBJ))
    with pytest.raises(ValueError):
        CenterState("c", cf)
    with pytest.raises(ValueError):
        CenterState(
            "a",
            (("a", SalienceRole.SUBJ), ("a", SalienceRole.OBJ)),
        )
    state = CenterState("a", cf)
    assert state.cp == "a"
    assert state.cf_ids == ("a", "b")


def test_hypothesis_score_is_derived_from_its_steps():
    state = CenterState("a", (("a", SalienceRole.SUBJ),))
    step = Step(1, {SUBJ: "a"}, state, None)
    # An initial or reset step adds 0, a RETAIN adds 1.
    assert Hypothesis((step,)).score == 0
    assert Hypothesis((step,)).step_at(1) is step
    reset = Step(2, {SUBJ: "a"}, state, None)
    linked = Step(3, {SUBJ: "a"}, state, Transition.RETAIN)
    assert Hypothesis((step, reset)).score == 0
    assert Hypothesis((step, reset, linked)).score == 1
    with pytest.raises(ValueError):
        Hypothesis(())


def test_step_at_rejects_utterances_outside_the_reading():
    state = CenterState("a", (("a", SalienceRole.SUBJ),))
    hyp = Hypothesis((Step(1, {SUBJ: "a"}, state, None),))
    for index in (0, -1, 2):
        with pytest.raises(IndexError):
            hyp.step_at(index)


# --------------------------------------------------------------------------
# Discourse validation


def single_utterance_discourse(entities, frame, args, others=()):
    return Discourse(tuple(entities), (Utterance(1, frame, tuple(args), others),))


def test_validation_flags_undeclared_entities():
    frame = VerbFrame("v", (SUBJ, OBJ))
    d = Discourse(
        (entity("a"),),
        (
            Utterance(
                1, frame, (overt(SUBJ, "a"), overt(OBJ, "ghost")), ("phantom",)
            ),
        ),
    )
    codes = [(v.code, v.utterance_index) for v in validate_discourse(d)]
    assert (ViolationCode.UNDECLARED_ENTITY, 1) in codes
    assert len(codes) == 2  # one for the argument, one for the adjunct


def test_validation_flags_wa_on_indefinite():
    frame = VerbFrame("v", (SUBJ,))
    d = single_utterance_discourse(
        [entity("someone", definite=False)],
        frame,
        [overt(SUBJ, "someone", Marking.WA)],
    )
    violations = validate_discourse(d)
    assert [v.code for v in violations] == [ViolationCode.WA_ON_INDEFINITE]
    assert violations[0].slot is SUBJ


def test_validation_flags_unevoked_empathy_locus():
    frame = VerbFrame("give-to-me", (SUBJ, OBJ2), {}, OBJ2)
    d = Discourse(
        (entity("a"), entity("stranger", hearer_old=False)),
        (
            Utterance(
                1, frame, (overt(SUBJ, "a"), overt(OBJ2, "stranger", Marking.NI))
            ),
        ),
    )
    violations = validate_discourse(d)
    assert [v.code for v in violations] == [ViolationCode.EMPATHY_NOT_EVOKED]
    assert violations[0].slot is OBJ2


def test_prior_mention_evokes_an_empathy_locus():
    intro = VerbFrame("v1", (SUBJ,))
    give = VerbFrame("give-to-me", (SUBJ, OBJ2), {}, OBJ2)
    friend = entity("friend", hearer_old=False)
    # Mentioned in utterance 1 (as an adjunct), so the empathy locus in
    # utterance 2 is fine.
    d_ok = Discourse(
        (entity("a"), friend),
        (
            Utterance(1, intro, (overt(SUBJ, "a"),), ("friend",)),
            Utterance(2, give, (overt(SUBJ, "a"), overt(OBJ2, "friend", Marking.NI))),
        ),
    )
    assert not validate_discourse(d_ok)
    # A mention in the same utterance does not count as evoked.
    d_bad = Discourse(
        (entity("a"), friend),
        (
            Utterance(
                1, give,
                (overt(SUBJ, "a"), overt(OBJ2, "friend", Marking.NI)),
                ("friend",),
            ),
        ),
    )
    assert [v.code for v in validate_discourse(d_bad)] == [
        ViolationCode.EMPATHY_NOT_EVOKED
    ]


def test_zero_at_empathy_locus_is_not_checked():
    give = VerbFrame("give-to-me", (SUBJ, OBJ2), {}, OBJ2)
    d = Discourse(
        (entity("a"), entity("b", hearer_old=False)),
        (Utterance(1, give, (overt(SUBJ, "a"), zero(OBJ2))),),
    )
    assert not validate_discourse(d)


def test_hearer_old_empathy_locus_is_evoked():
    give = VerbFrame("give-to-me", (SUBJ, OBJ2), {}, OBJ2)
    d = Discourse(
        (entity("a"), entity("b", hearer_old=True)),
        (Utterance(1, give, (overt(SUBJ, "a"), overt(OBJ2, "b", Marking.NI))),),
    )
    assert not validate_discourse(d)
