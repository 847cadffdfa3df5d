"""Engine behavior: generation, zero-topic variants, stepping, resolution."""

import pytest

from centering import corpus
from centering.engine import (
    DiscourseInvalidError,
    EngineConfig,
    OUT_OF_CF_PRUNED,
    UnresolvableError,
    apply_zta,
    generate_assignments,
    instantiate_initial_cb,
    resolve,
    step,
)
from centering.model import (
    Argument,
    CenterState,
    Discourse,
    Entity,
    GrammaticalRole,
    Marking,
    MaybeCb,
    Realization,
    SalienceRole,
    SortalConstraint,
    Step,
    Transition,
    Utterance,
    VerbFrame,
)

SUBJ = GrammaticalRole.SUBJ
OBJ2 = GrammaticalRole.OBJ2
OBJ = GrammaticalRole.OBJ

WIDE = EngineConfig(beam_width=64)


def overt(role, eid, marking=Marking.NONE):
    return Argument(role, marking, Realization.overt(eid))


def zero(role):
    return Argument(role, Marking.NONE, Realization.zero())


def entity(eid, animate=True, hearer_old=True, definite=True):
    return Entity(eid, animate=animate, hearer_old=hearer_old, definite=definite)


def load(name):
    return corpus.load_corpus(name)[0]


def prefix(discourse, n):
    return Discourse(discourse.entities, discourse.utterances[:n])


def top_parent(discourse, n, config=WIDE):
    return resolve(prefix(discourse, n), config).top


def names(assignment):
    return {role.name.lower(): eid for role, eid in assignment.items()}


# --------------------------------------------------------------------------
# Initial center


def test_wa_topic_instantiates_the_initial_center():
    frame = VerbFrame("v", (SUBJ, OBJ))
    utt = Utterance(1, frame, (overt(SUBJ, "a", Marking.WA), overt(OBJ, "b")))
    assert instantiate_initial_cb(utt) == MaybeCb.instantiated("a")


def test_no_topic_leaves_the_initial_center_open():
    frame = VerbFrame("v", (SUBJ,))
    utt = Utterance(1, frame, (overt(SUBJ, "a", Marking.GA),))
    assert instantiate_initial_cb(utt) == MaybeCb.uninstantiated()


# --------------------------------------------------------------------------
# Assignment generation


def test_generation_expands_two_animate_zeros():
    frame = VerbFrame(
        "explain", (SUBJ, OBJ2),
        {SUBJ: SortalConstraint.ANIMATE, OBJ2: SortalConstraint.ANIMATE},
    )
    utt = Utterance(1, frame, (zero(SUBJ), zero(OBJ2)))
    ents = {
        "taroo": entity("taroo"),
        "john": entity("john"),
        "computer": entity("computer", animate=False),
    }
    got = generate_assignments(utt, ["taroo", "john", "computer"], ents)
    assert got == [
        {SUBJ: "taroo", OBJ2: "john"},
        {SUBJ: "john", OBJ2: "taroo"},
    ]


def test_generation_single_zero_single_antecedent():
    frame = VerbFrame("v", (OBJ2,))
    utt = Utterance(1, frame, (zero(OBJ2),))
    got = generate_assignments(utt, ["taroo"], {"taroo": entity("taroo")})
    assert got == [{OBJ2: "taroo"}]


def test_generation_with_empty_context_yields_nothing():
    frame = VerbFrame("v", (SUBJ,))
    utt = Utterance(1, frame, (zero(SUBJ),))
    assert generate_assignments(utt, [], {}) == []


def test_generation_keeps_overt_slots_fixed():
    frame = VerbFrame("v", (SUBJ, OBJ))
    utt = Utterance(1, frame, (zero(SUBJ), overt(OBJ, "b")))
    ents = {"a": entity("a"), "b": entity("b")}
    assert generate_assignments(utt, ["a", "b"], ents) == [{SUBJ: "a", OBJ: "b"}]


# --------------------------------------------------------------------------
# Zero topic assignment


def _retain_candidate():
    """A RETAIN reading of 'b showed-zero a': Cb=a carried, Cp=b."""
    frame = VerbFrame("v", (SUBJ, OBJ2))
    utt = Utterance(1, frame, (overt(SUBJ, "b"), zero(OBJ2)))
    state = CenterState(
        MaybeCb.instantiated("a"),
        (("b", SalienceRole.SUBJ), ("a", SalienceRole.OBJ2)),
    )
    cand = Step(1, {SUBJ: "b", OBJ2: "a"}, state, Transition.RETAIN)
    return utt, cand


def test_zta_variant_promotes_the_carried_center():
    utt, cand = _retain_candidate()
    variants = apply_zta([cand], MaybeCb.instantiated("a"), utt, WIDE)
    assert len(variants) == 1
    v = variants[0]
    assert v.zta_applied
    assert v.assignment == cand.assignment
    assert v.state.cb == MaybeCb.instantiated("a")
    assert v.state.cf == (
        ("a", SalienceRole.ZERO_TOPIC),
        ("b", SalienceRole.SUBJ),
    )
    assert v.transition is Transition.CONTINUE


def test_zta_requires_enabled_config_and_instantiated_parent():
    utt, cand = _retain_candidate()
    off = EngineConfig(zta_enabled=False)
    assert apply_zta([cand], MaybeCb.instantiated("a"), utt, off) == []
    assert apply_zta([cand], MaybeCb.uninstantiated(), utt, WIDE) == []


def test_zta_stands_down_when_a_continue_exists():
    utt, cand = _retain_candidate()
    cont_state = CenterState(
        MaybeCb.instantiated("b"),
        (("b", SalienceRole.SUBJ), ("a", SalienceRole.OBJ2)),
    )
    cont = Step(1, {SUBJ: "b", OBJ2: "a"}, cont_state, Transition.CONTINUE)
    assert apply_zta([cand, cont], MaybeCb.instantiated("a"), utt, WIDE) == []


def test_zta_skips_low_zero_slots():
    # Same reading, but the carried center sits in a direct-object zero:
    # too low to be a zero topic.
    frame = VerbFrame("v", (SUBJ, OBJ))
    utt = Utterance(1, frame, (overt(SUBJ, "b"), zero(OBJ)))
    state = CenterState(
        MaybeCb.instantiated("a"),
        (("b", SalienceRole.SUBJ), ("a", SalienceRole.OBJ)),
    )
    cand = Step(1, {SUBJ: "b", OBJ: "a"}, state, Transition.RETAIN)
    assert apply_zta([cand], MaybeCb.instantiated("a"), utt, WIDE) == []


def test_zta_requires_the_candidate_to_carry_the_center():
    # The zero binds the old center, but the reading's own Cb has shifted
    # elsewhere, so there is no continuation to promote.
    frame = VerbFrame("v", (SUBJ, OBJ))
    utt = Utterance(1, frame, (zero(SUBJ), overt(OBJ, "b")))
    state = CenterState(
        MaybeCb.instantiated("b"),
        (("a", SalienceRole.SUBJ), ("b", SalienceRole.OBJ)),
    )
    cand = Step(1, {SUBJ: "a", OBJ: "b"}, state, Transition.ROUGH_SHIFT)
    assert apply_zta([cand], MaybeCb.instantiated("a"), utt, WIDE) == []


# --------------------------------------------------------------------------
# Stepping on the corpus


def test_step_ranks_continue_before_retain():
    d = load("cont_ret_ex.json")
    parent = top_parent(d, 2)
    assert parent.last.state.cb == MaybeCb.instantiated("taroo")
    assert parent.last.state.cf_ids == ("taroo", "john", "computer")
    res = step(parent, d.utterances[2], d, WIDE)
    assert len(res.ranked) == 2
    first, second = (h.last for h in res.ranked)
    assert names(first.assignment) == {"subj": "taroo", "obj2": "john"}
    assert first.transition is Transition.CONTINUE
    assert names(second.assignment) == {"subj": "john", "obj2": "taroo"}
    assert second.transition is Transition.RETAIN


def test_step_ranks_smooth_before_rough_shift():
    d = load("shift_ex.json")
    parent = top_parent(d, 3)
    assert parent.last.state.cb == MaybeCb.instantiated("taroo")
    assert parent.last.state.cf_ids == ("ziroo", "taroo")
    res = step(parent, d.utterances[3], d, WIDE)
    assert len(res.ranked) == 2
    first, second = (h.last for h in res.ranked)
    assert names(first.assignment) == {"subj": "ziroo", "obj": "taroo"}
    assert first.transition is Transition.SMOOTH_SHIFT
    assert names(second.assignment) == {"subj": "taroo", "obj": "ziroo"}
    assert second.transition is Transition.ROUGH_SHIFT


def test_step_prefers_the_empathic_continue():
    d = load("emp_cont_ret.json")
    parent = top_parent(d, 2)
    assert parent.last.state.cb == MaybeCb.instantiated("hanako")
    res = step(parent, d.utterances[2], d, WIDE)
    first = res.ranked[0].last
    assert names(first.assignment) == {"subj": "hanako", "obj": "taroo"}
    assert first.transition is Transition.CONTINUE


# --------------------------------------------------------------------------
# Whole-discourse resolution


def test_resolve_is_deterministic():
    d = load("zta_ex_ga.json")
    first = resolve(d, WIDE)
    second = resolve(d, WIDE)
    assert first.hypotheses == second.hypotheses
    assert first.rejections == second.rejections


def test_resolve_respects_beam_width():
    d = load("zta_ex_ga.json")
    narrow = resolve(d, EngineConfig(beam_width=1))
    assert len(narrow.hypotheses) == 1
    wide = resolve(d, WIDE)
    assert narrow.top.steps[-1].assignment == wide.top.steps[-1].assignment


def test_retroactive_instantiation_backfills_the_initial_center():
    d = load("instantiation_ga.json")
    res = resolve(d, WIDE)
    for hyp in res.hypotheses:
        first, second = hyp.steps[0], hyp.steps[1]
        assert first.transition is None
        assert first.state.cb.is_instantiated
        assert first.state.cb == second.state.cb
    assert {h.steps[1].state.cb.entity_id for h in res.hypotheses} == {
        "taroo", "ziroo",
    }


def test_wa_pins_the_initial_center_up_front():
    d = load("instantiation_wa.json")
    res = resolve(d, WIDE)
    assert {h.steps[0].state.cb.entity_id for h in res.hypotheses} == {"taroo"}
    assert {h.steps[1].state.cb.entity_id for h in res.hypotheses} == {"taroo"}


def test_segment_reset_starts_a_fresh_center():
    ents = tuple(entity(x) for x in "abcd")
    d = Discourse(
        ents,
        (
            Utterance(1, VerbFrame("v1", (SUBJ, OBJ)), (overt(SUBJ, "a"), overt(OBJ, "b"))),
            Utterance(2, VerbFrame("v2", (SUBJ, OBJ)), (overt(SUBJ, "c"), overt(OBJ, "d"))),
            Utterance(3, VerbFrame("v3", (SUBJ,)), (zero(SUBJ),)),
        ),
    )
    res = resolve(d, WIDE)
    top = res.top
    reset = top.steps[1]
    assert reset.transition is None
    assert reset.transition_cost == 0
    # The follow-on utterance pins the fresh center down retroactively
    # and classifies against the reset state.
    third = top.steps[2]
    assert third.state.cb.entity_id == third.assignment[SUBJ]
    assert reset.state.cb == third.state.cb
    assert third.transition is Transition.CONTINUE
    assert third.assignment[SUBJ] == "c"


def test_unresolvable_discourse_reports_the_utterance():
    d = Discourse(
        (entity("a", hearer_old=False), entity("rock", animate=False)),
        (
            Utterance(1, VerbFrame("v1", (SUBJ,)), (overt(SUBJ, "a"),)),
            Utterance(
                2,
                VerbFrame("v2", (SUBJ, OBJ), {OBJ: SortalConstraint.ANIMATE}),
                (overt(SUBJ, "a"), zero(OBJ)),
            ),
        ),
    )
    with pytest.raises(UnresolvableError) as err:
        resolve(d, WIDE)
    assert err.value.utterance_index == 2


def test_strict_validation_refuses_infelicitous_discourses():
    d = Discourse(
        (entity("someone", definite=False),),
        (
            Utterance(
                1, VerbFrame("v", (SUBJ,)), (overt(SUBJ, "someone", Marking.WA),)
            ),
        ),
    )
    with pytest.raises(DiscourseInvalidError):
        resolve(d, WIDE)
    relaxed = resolve(d, EngineConfig(strict_validation=False))
    assert len(relaxed.hypotheses) == 1


def test_out_of_cf_bindings_are_last_resort():
    ents = (entity("a"), entity("b"), entity("c"))
    d = Discourse(
        ents,
        (
            Utterance(1, VerbFrame("v1", (SUBJ, OBJ)), (overt(SUBJ, "a"), overt(OBJ, "b"))),
            Utterance(2, VerbFrame("v2", (SUBJ,)), (zero(SUBJ),)),
        ),
    )
    res = resolve(d, WIDE)
    bound = {h.steps[1].assignment[SUBJ] for h in res.hypotheses}
    assert bound == {"a", "b"}  # c stays out: the previous Cf suffices
    pruned = [r for r in res.rejections[2] if r.code == OUT_OF_CF_PRUNED]
    assert [r.assignment[SUBJ] for r in pruned] == ["c"]
