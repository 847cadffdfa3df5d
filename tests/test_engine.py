"""Engine behavior: generation, zero-topic variants, resolution and its beams."""

import contextlib
import dataclasses
import heapq
import itertools
import random
from collections import Counter

import pytest

from centering import corpus, engine, oracle
from centering.engine import (
    ZERO_TOPIC_ROLES,
    DiscourseInvalidError,
    EngineConfig,
    OUT_OF_CF_PRUNED,
    Rejection,
    UnresolvableError,
    apply_zta,
    generate_assignments,
    hypothesis_sort_key,
    resolve,
)
from centering.model import (
    CenterState,
    Discourse,
    GrammaticalRole,
    Hypothesis,
    Marking,
    SalienceRole,
    SortalConstraint,
    Step,
    Transition,
    Utterance,
    VerbFrame,
    validate_discourse,
)
from centering.rules import (
    RejectionCode,
    assign_salience_roles,
    classify_transition,
    compute_cb_candidates,
    filter_assignment,
    rank_cf,
)
from helpers import (
    INFELICITOUS, RELATIONS, antecedent_pool, entity, extends, one_pass_survivors, overt,
    random_discourse, relation_failures, relation_sweep, sameness_digest,
    unresolvable_discourse, zero,
)

SUBJ = GrammaticalRole.SUBJ
OBJ2 = GrammaticalRole.OBJ2
OBJ = GrammaticalRole.OBJ
OTHER = GrammaticalRole.OTHER

WIDE = EngineConfig(beam_width=64)


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


@pytest.mark.parametrize("marking, cb", [(Marking.WA, "a"), (Marking.GA, None)])
def test_the_first_step_takes_the_wa_topic_as_its_cb(marking, cb):
    # A wa-marked opener is about its topic from the start; without one
    # the center starts open, whichever entity the zero binds.
    first = Utterance(1, VerbFrame("v", (SUBJ, OBJ)), (overt(SUBJ, "a", marking), zero(OBJ)))
    d = Discourse(tuple(entity(eid) for eid in "abc"), (first,))
    beam = resolve(d, WIDE).hypotheses
    assert [(h.last.assignment[OBJ], h.last.state.cb) for h in beam] == [("b", cb), ("c", cb)]


# --------------------------------------------------------------------------
# Assignment generation


def generated(utterance, context, entities):
    """generate_assignments on entity codes, each binding read back as entity ids.

    The entities are declared in the mapping's order, and context lists
    ids.  Every binding the engine generates is a tuple of int codes, and
    a generation cut at any limit n gives the first n bindings of the
    uncut one.
    """
    codes = engine._Codes.of(Discourse(tuple(entities.values()), (utterance,)))
    plan = engine._Plan.of(utterance, codes)
    pool = [codes.index[eid] for eid in context]
    got = generate_assignments(plan, pool)
    assert type(got) is list and all(type(b) is tuple for b in got)
    assert all(type(c) is int for b in got for c in b)
    for n in range(1, len(got) + 2):
        assert generate_assignments(plan, pool, limit=n) == got[:n], n
    return [tuple([codes.ids[c] for c in b]) for b in got]


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
    got = generated(utt, ["taroo", "john", "computer"], ents)
    assert got == [("taroo", "john"), ("john", "taroo")]


def test_generation_single_zero_single_antecedent():
    frame = VerbFrame("v", (OBJ2,))
    utt = Utterance(1, frame, (zero(OBJ2),))
    got = generated(utt, ["taroo"], {"taroo": entity("taroo")})
    assert got == [("taroo",)]


def test_generation_with_empty_context_yields_nothing():
    frame = VerbFrame("v", (SUBJ,))
    utt = Utterance(1, frame, (zero(SUBJ),))
    assert generated(utt, [], {}) == []


def test_a_cut_generation_keeps_the_bindings_behind_a_dead_end():
    # The subject takes the one animate entity first, which leaves the
    # animate-only object nothing: a generation cut to the first subject
    # would find no binding, though (b, a) and (c, a) exist.
    frame = VerbFrame("v", (SUBJ, OBJ), {OBJ: SortalConstraint.ANIMATE})
    utt = Utterance(1, frame, (zero(SUBJ), zero(OBJ)))
    ents = {"a": entity("a"), "b": entity("b", animate=False), "c": entity("c", animate=False)}
    assert generated(utt, ["a", "b", "c"], ents) == [("b", "a"), ("c", "a")]


def test_generation_keeps_overt_slots_fixed():
    frame = VerbFrame("v", (SUBJ, OBJ))
    utt = Utterance(1, frame, (zero(SUBJ), overt(OBJ, "b")))
    ents = {"a": entity("a"), "b": entity("b")}
    assert generated(utt, ["a", "b"], ents) == [("a", "b")]


def reference_bindings(utterance, context, entities):
    """generated's bindings by brute force over itertools.product.

    Every fill of the zeros from the whole context, in product order, kept
    when it is injective, names no entity an overt slot names and puts
    only animate entities in animate-only slots.  The overt slots are
    copied as they are, a repeated entity included.
    """
    slots = [a.realization.entity_id for a in utterance.args]
    zeros = [p for p, eid in enumerate(slots) if eid is None]
    animate_only = [
        utterance.frame.constraint(utterance.frame.subcat[p]) is SortalConstraint.ANIMATE
        for p in zeros
    ]
    bindings = []
    for fill in itertools.product(context, repeat=len(zeros)):
        if len(set(fill)) < len(fill) or any(eid in slots for eid in fill):
            continue
        if any(only and not entities[eid].animate for only, eid in zip(animate_only, fill)):
            continue
        binding = list(slots)
        for p, eid in zip(zeros, fill):
            binding[p] = eid
        bindings.append(tuple(binding))
    return bindings


def random_generation_input(rng, all_zero):
    """A seeded utterance over 1-4 roles, its context and its entities.

    Each slot is a zero when all_zero is set, else one at random; about a
    third of the roles are animate-only, and the context holds 0-6 of the
    entities in a shuffled order, so it is often smaller than the number
    of zeros.
    """
    ids = [f"e{i}" for i in range(rng.randint(1, 7))]
    entities = {eid: entity(eid, animate=rng.random() < 0.6) for eid in ids}
    subcat = tuple(rng.sample(list(GrammaticalRole), rng.randint(1, 4)))
    subcat = tuple(sorted(subcat, key=lambda r: r.value))
    sortal = {r: SortalConstraint.ANIMATE for r in subcat if rng.random() < 0.35}
    args = [
        zero(role) if all_zero or rng.random() < 0.5 else overt(role, rng.choice(ids))
        for role in subcat
    ]
    context = rng.sample(ids, rng.randint(0, min(6, len(ids))))
    return Utterance(1, VerbFrame("v", subcat, sortal), tuple(args)), context, entities


@pytest.mark.parametrize("all_zero", [True, False], ids=["all-zero", "mixed"])
def test_generation_equals_the_itertools_reference(all_zero):
    rng = random.Random(19 if all_zero else 20)
    covered = Counter()
    for trial in range(2000):
        utterance, context, entities = random_generation_input(rng, all_zero)
        got = generated(utterance, context, entities)
        assert got == reference_bindings(utterance, context, entities), trial
        n_zeros = sum(a.realization.is_zero for a in utterance.args)
        covered["all zero"] += n_zeros == len(utterance.args)
        covered["overt slots"] += n_zeros < len(utterance.args)
        covered["animate-only zero"] += any(
            a.realization.is_zero and utterance.frame.constraint(a.role) is SortalConstraint.ANIMATE
            for a in utterance.args
        )
        covered["pool smaller than zeros"] += 0 < len(context) < n_zeros
        covered["bindings"] += len(got)
        named = [a.realization.entity_id for a in utterance.args if not a.realization.is_zero]
        covered["repeated overt entity"] += len(set(named)) < len(named) and bool(got)
    for case in ("all zero", "animate-only zero", "pool smaller than zeros"):
        assert covered[case] >= 100, covered
    for case in ("overt slots", "repeated overt entity"):
        assert covered[case] >= (0 if all_zero else 100), covered
    assert covered["bindings"] >= 2000, covered


# --------------------------------------------------------------------------
# Zero topic assignment


def code(eid):
    """The code of a or b, declared in that order by plan_of."""
    return "ab".index(eid)


def plan_of(utt):
    """utt's plan over the codes of a and b."""
    return engine._Plan.of(utt, engine._Codes.of(Discourse((entity("a"), entity("b")), (utt,))))


def candidate(binding, cb, transition):
    """A plain candidate as _survivors makes it, its sibling key, on plan_of's codes."""
    return (transition.ordinal, -1, (tuple(code(eid) for eid in binding), code(cb), 0))


def _retain_candidate():
    """A RETAIN reading of 'b showed-zero a': Cb=a carried, Cp=b."""
    frame = VerbFrame("v", (SUBJ, OBJ2))
    utt = Utterance(1, frame, (overt(SUBJ, "b"), zero(OBJ2)))
    cand = candidate(("b", "a"), "a", Transition.RETAIN)
    assert engine._step(plan_of(utt), cand).state == CenterState(
        "a",
        (("b", SalienceRole.SUBJ), ("a", SalienceRole.OBJ2)),
    )
    return utt, cand


def test_zta_variant_promotes_the_carried_center():
    utt, cand = _retain_candidate()
    plan = plan_of(utt)  # apply_zta compiles the variant's Cf order into it
    variants = apply_zta([cand], code("a"), plan, WIDE)
    assert len(variants) == 1
    v = engine._step(plan, variants[0])
    assert v.zta_applied
    assert v.assignment == engine._step(plan, cand).assignment
    assert v.state.cb == "a"
    assert v.state.cf == (
        ("a", SalienceRole.ZERO_TOPIC),
        ("b", SalienceRole.SUBJ),
    )
    assert v.transition is Transition.CONTINUE
    # The base's sibling key, with the variant's transition and ZTA flag.
    assert variants[0] == (Transition.CONTINUE.ordinal, -1, ((1, 0), 0, 1))


def test_zta_requires_enabled_config_and_instantiated_parent():
    utt, cand = _retain_candidate()
    off = EngineConfig(zta_enabled=False)
    assert apply_zta([cand], code("a"), plan_of(utt), off) == []
    assert apply_zta([cand], None, plan_of(utt), WIDE) == []


def test_zta_stands_down_when_a_continue_exists():
    utt, cand = _retain_candidate()
    cont = candidate(("b", "a"), "b", Transition.CONTINUE)
    assert engine._step(plan_of(utt), cont).state.cf_ids == ("b", "a")
    assert apply_zta([cand, cont], code("a"), plan_of(utt), WIDE) == []


def test_zta_skips_low_zero_slots():
    # Same reading, but the carried center sits in a direct-object zero:
    # too low to be a zero topic.
    frame = VerbFrame("v", (SUBJ, OBJ))
    utt = Utterance(1, frame, (overt(SUBJ, "b"), zero(OBJ)))
    cand = candidate(("b", "a"), "a", Transition.RETAIN)
    assert engine._step(plan_of(utt), cand).state.cf == (
        ("b", SalienceRole.SUBJ),
        ("a", SalienceRole.OBJ),
    )
    assert apply_zta([cand], code("a"), plan_of(utt), WIDE) == []


def test_zta_requires_the_candidate_to_carry_the_center():
    # The zero binds the old center, but the reading's own Cb has shifted
    # elsewhere, so there is no continuation to promote.
    frame = VerbFrame("v", (SUBJ, OBJ))
    utt = Utterance(1, frame, (zero(SUBJ), overt(OBJ, "b")))
    cand = candidate(("a", "b"), "b", Transition.ROUGH_SHIFT)
    assert engine._step(plan_of(utt), cand).state.cf == (
        ("a", SalienceRole.SUBJ),
        ("b", SalienceRole.OBJ),
    )
    assert apply_zta([cand], code("a"), plan_of(utt), WIDE) == []


# --------------------------------------------------------------------------
# Transition order on the corpus


def children_of(parent, d, n):
    """The last steps of the readings in the wide beam at utterance n + 1 that extend parent."""
    _index, keyed, _rejections = next(itertools.islice(engine._beams(d, WIDE), n, None))
    return [h.last for _, h in keyed if extends(parent, h)]


def test_step_ranks_continue_before_retain():
    d = load("cont_ret_ex.json")
    parent = top_parent(d, 2)
    assert parent.last.state.cb == "taroo"
    assert parent.last.state.cf_ids == ("taroo", "john", "computer")
    first, second = children_of(parent, d, 2)
    assert names(first.assignment) == {"subj": "taroo", "obj2": "john"}
    assert first.transition is Transition.CONTINUE
    assert names(second.assignment) == {"subj": "john", "obj2": "taroo"}
    assert second.transition is Transition.RETAIN


def test_step_ranks_smooth_before_rough_shift():
    d = load("shift_ex.json")
    parent = top_parent(d, 3)
    assert parent.last.state.cb == "taroo"
    assert parent.last.state.cf_ids == ("ziroo", "taroo")
    first, second = children_of(parent, d, 3)
    assert names(first.assignment) == {"subj": "ziroo", "obj": "taroo"}
    assert first.transition is Transition.SMOOTH_SHIFT
    assert names(second.assignment) == {"subj": "taroo", "obj": "ziroo"}
    assert second.transition is Transition.ROUGH_SHIFT


def test_step_prefers_the_empathic_continue():
    d = load("emp_cont_ret.json")
    parent = top_parent(d, 2)
    assert parent.last.state.cb == "hanako"
    first = children_of(parent, d, 2)[0]
    assert names(first.assignment) == {"subj": "hanako", "obj": "taroo"}
    assert first.transition is Transition.CONTINUE


def test_children_add_one_ordinal_to_the_parent_score():
    for name in corpus.VALID_FILES:
        beams = [[h for _, h in keyed] for _n, keyed, _ in engine._beams(load(name), WIDE)]
        for beam, children in itertools.pairwise(beams):
            for child in children:
                [parent] = [p for p in beam if extends(p, child)]
                assert child.score == parent.score + child.last.transition_cost, name


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


def test_beam_width_must_be_a_positive_int():
    for width in (2.5, True, "4", None):
        with pytest.raises(TypeError, match="beam width must be an int"):
            EngineConfig(beam_width=width)
    with pytest.raises(ValueError, match="at least 1"):
        EngineConfig(beam_width=0)


def test_engine_flags_must_be_bools():
    # "false" is truthy: taken as given it would turn zero topics on.
    for value in ("false", 0, 1, None):
        with pytest.raises(TypeError, match="zta_enabled must be a bool"):
            EngineConfig(zta_enabled=value)
    assert EngineConfig(zta_enabled=False).zta_enabled is False
    # resolve refuses every felicity violation; there is no mode to relax.
    with pytest.raises(TypeError, match="strict_validation"):
        EngineConfig(strict_validation=False)


def test_retroactive_instantiation_backfills_the_initial_center():
    d = load("instantiation_ga.json")
    res = resolve(d, WIDE)
    for hyp in res.hypotheses:
        first, second = hyp.steps[0], hyp.steps[1]
        assert first.transition is None
        assert first.state.cb is not None
        assert first.state.cb == second.state.cb
    assert {h.steps[1].state.cb for h in res.hypotheses} == {
        "taroo", "ziroo",
    }


def test_wa_pins_the_initial_center_up_front():
    d = load("instantiation_wa.json")
    res = resolve(d, WIDE)
    assert {h.steps[0].state.cb for h in res.hypotheses} == {"taroo"}
    assert {h.steps[1].state.cb for h in res.hypotheses} == {"taroo"}


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
    assert third.state.cb == third.assignment[SUBJ]
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
    # The first utterance is cut apart from the later ones, so it raises apart.
    inanimate_subject = Utterance(
        1, VerbFrame("v0", (SUBJ,), {SUBJ: SortalConstraint.ANIMATE}), (overt(SUBJ, "rock"),)
    )
    with pytest.raises(UnresolvableError) as err:
        resolve(Discourse(d.entities, (inanimate_subject,)), WIDE)
    assert err.value.utterance_index == 1


def one_pass(d, config):
    """What engine._beams yields at each utterance, with the rejections so far.

    Each value is (utterance index, readings, rejection log up to there),
    each utterance's log read as it is yielded; an UnresolvableError ends
    the list as ("unresolvable", its index).  The beams are read only
    after the pass, so a beam the pass changes after yielding it shows.
    """
    yielded, log, end = [], {}, []
    try:
        for u, keyed, rejections in engine._beams(d, config):
            log[u] = rejections()
            yielded.append((u, keyed, dict(log)))
    except UnresolvableError as err:
        end = [("unresolvable", err.utterance_index)]
    return [(u, tuple(h for _, h in keyed), so_far) for u, keyed, so_far in yielded] + end


def per_prefix(d, config):
    """What resolve gives on each prefix of d, in one_pass's shape."""
    values = []
    for n in range(1, len(d.utterances) + 1):
        try:
            result = resolve(prefix(d, n), config)
        except UnresolvableError as err:
            values.append(("unresolvable", err.utterance_index))
            break
        values.append((n, result.hypotheses, dict(result.rejections)))
    return values


def test_each_beam_of_the_one_pass_is_resolve_on_its_prefix(workloads):
    # The n-th value of _beams is resolve on the first n utterances,
    # readings and rejections alike, and where resolve raises on a prefix
    # the pass raises the same index after yielding every earlier beam.
    rng = random.Random(2024)
    sweep = [random_discourse(rng) for _ in range(150)]
    unresolved = 0
    for width in (1, 4, 16):
        for zta in (True, False):
            config = EngineConfig(beam_width=width, zta_enabled=zta)
            for trial, d in enumerate(sweep):
                values = one_pass(d, config)
                assert values == per_prefix(d, config), (trial, width, zta)
                unresolved += values[-1][0] == "unresolvable"
    assert unresolved >= 20, unresolved
    chain = workloads.long_chain(random.Random(3), 40)
    values = one_pass(chain, EngineConfig())
    assert len(values) == len(chain.utterances) and values == per_prefix(chain, EngineConfig())
    d = unresolvable_discourse()
    values = one_pass(d, WIDE)
    assert [v[0] for v in values] == [1, "unresolvable"] and values[-1][1] == 2
    assert values == per_prefix(d, WIDE)


@pytest.mark.parametrize("code, d", INFELICITOUS.values(), ids=list(INFELICITOUS))
def test_resolve_refuses_infelicitous_discourses(code, d):
    with pytest.raises(DiscourseInvalidError) as err:
        resolve(d, WIDE)
    assert err.value.violations == tuple(validate_discourse(d))
    assert [v.code for v in err.value.violations] == [code]


def test_random_discourses_are_felicitous():
    # Every seeded stream of random_discourse the suite draws, the digest's
    # 2029 included, and 2024, each at least as far as any test reads it;
    # resolve refuses the rest.
    for seed in (4, 5, 6, 7, 11, 2024, 2029, 9016, 41114):
        rng = random.Random(seed)
        for trial in range(1000):
            assert validate_discourse(random_discourse(rng)) == [], (seed, trial)
    for seed in range(40):
        assert validate_discourse(random_discourse(random.Random(seed))) == [], seed


def test_entities_neither_mentioned_nor_hearer_old_are_inert():
    # helpers.RELATIONS["inert"]: five appended entities that are neither
    # mentioned nor hearer-old leave the readings, their order and every
    # record as they were, last resorts and unresolvable draws included.
    failures, covered = relation_failures(RELATIONS["inert"], relation_sweep())
    assert failures == []
    assert covered["resolved"] >= 1200 and covered["unresolvable"] >= 400, covered


def test_the_last_resort_is_a_last_resort():
    # helpers.RELATIONS["last_resort"]: where the first utterance has no
    # zero and every expanded state had an in-Cf survivor, five appended
    # unmentioned hearer-old entities leave the readings, their order and
    # the bindings _survivors generates as they were.  Keying the
    # out-of-Cf survivors beside the in-Cf ones changes most of these
    # cases, and generating them at all changes every one.
    failures, covered = relation_failures(RELATIONS["last_resort"], relation_sweep())
    assert failures == []
    assert covered["resolved"] >= 600, covered


def test_out_of_cf_bindings_are_last_resort(workloads):
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
    assert [r.binding for r in pruned] == [("c",)]

    # On a wide in-Cf pool the records are exactly the out-of-Cf pairings
    # that pass the filters, in generation order, each binding a tuple of
    # entity ids and each Cb an id.
    for size in (10, 20):
        pool = workloads.wide_pool(random.Random(5), size, False)
        utterance = pool.utterances[1]
        prev = resolve(prefix(pool, 1), WIDE).top.last.state
        zero_roles = [a.role for a in utterance.args if a.realization.is_zero]
        want = [
            (tuple(a.values()), cb)
            for a, cb in _pairings(pool, utterance, prev)
            if not set(prev.cf_ids).issuperset([a[r] for r in zero_roles])
            and filter_assignment(utterance, a, prev, cb, pool.entity_map) is None
        ]
        pruned = [r for r in resolve(pool, WIDE).rejections[2] if r.code == OUT_OF_CF_PRUNED]
        assert want and all(type(r.binding) is tuple for r in pruned), size
        assert id_level_failures(pruned) == [], size
        assert [(r.binding, r.cb) for r in pruned] == want, size


def id_level_failures(records):
    """Records whose binding is not a tuple of entity ids or whose Cb is not an id or None."""
    return [
        r
        for r in records
        if not all(type(eid) is str for eid in r.binding)
        or not (r.cb is None or type(r.cb) is str)
    ]


def reference_rejections(discourse, utterance, prev):
    """One expansion's records, from _pairings and filter_assignment alone.

    Every pairing filter_assignment rejects, with its code, in generation
    order; then, when some pairing that binds every zero to a previous-Cf
    entity passes, every passing pairing that does not, as pruned.
    """
    prev_cf = set(prev.cf_ids) if prev is not None else set()
    zero_roles = [a.role for a in utterance.args if a.realization.is_zero]
    rejected, pruned, inside = [], [], False
    for a, cb in _pairings(discourse, utterance, prev):
        code = filter_assignment(utterance, a, prev, cb, discourse.entity_map)
        if code is not None:
            rejected.append(Rejection(utterance.index, tuple(a.values()), cb, code))
        elif prev_cf.issuperset(a[r] for r in zero_roles):
            inside = True
        else:
            pruned.append(Rejection(utterance.index, tuple(a.values()), cb, OUT_OF_CF_PRUNED))
    return rejected + (pruned if inside else [])


def test_the_rejection_log_equals_the_reference_records(workloads):
    # Expansion runs on entity codes; every record resolve logs is the one
    # the rules give for the pairing in ids, in content and in order.
    covered = Counter()
    rng = random.Random(41114)
    inputs = [random_discourse(rng) for _ in range(300)]
    inputs += [workloads.wide_pool(random.Random(5), 10, last) for last in (False, True)]
    for trial, d in enumerate(inputs):
        for width in (1, 4):
            states = [None]
            with contextlib.suppress(UnresolvableError):
                for u, keyed, log in engine._beams(d, EngineConfig(beam_width=width)):
                    utterance = d.utterances[u - 1]
                    want = [r for prev in states for r in reference_rejections(d, utterance, prev)]
                    logged = log()
                    assert list(logged) == want, (trial, width, u)
                    assert id_level_failures(logged) == [], (trial, width, u)
                    covered.update(r.code for r in logged)
                    covered["Cb set"] += sum(r.cb is not None for r in logged)
                    states = last_states(keyed)
    for code in (RejectionCode.RULE_1, OUT_OF_CF_PRUNED, "Cb set"):
        assert covered[code] >= 20, covered


def test_a_rejection_is_an_immutable_record_of_its_four_fields():
    # The record's contract, whatever type carries it: four fields by name
    # in this order, no assignment, equality and hashing by the fields,
    # and a repr that names them.
    r = Rejection(2, ("a", "b"), "a", RejectionCode.RULE_1)
    assert r == Rejection(utterance_index=2, binding=("a", "b"), cb="a", code="RULE_1")
    assert (r.utterance_index, r.binding, r.cb, r.code) == (2, ("a", "b"), "a", "RULE_1")
    for name, value in (("utterance_index", 3), ("binding", ()), ("cb", None), ("code", "x")):
        with pytest.raises(AttributeError):
            setattr(r, name, value)
    assert r.cb == "a"
    twin = Rejection(2, ("a", "b"), "a", RejectionCode.RULE_1)
    assert r == twin and hash(r) == hash(twin) and len({r, twin}) == 1
    for other in (
        Rejection(3, ("a", "b"), "a", RejectionCode.RULE_1),
        Rejection(2, ("b", "a"), "a", RejectionCode.RULE_1),
        Rejection(2, ("a", "b"), None, RejectionCode.RULE_1),
        Rejection(2, ("a", "b"), "a", OUT_OF_CF_PRUNED),
    ):
        assert r != other
    assert repr(r) == "Rejection(utterance_index=2, binding=('a', 'b'), cb='a', code='RULE_1')"


# --------------------------------------------------------------------------
# Beam order and per-state expansion


def first_readings(discourse, config):
    """Every reading of the first utterance, each built as it is drawn, with no cut."""
    first = discourse.utterances[0]
    plan = engine._Plan.of(first, engine._Codes.of(discourse))
    survivors, _ = engine._survivors(discourse, None, plan, config)
    return (Hypothesis((engine._step(plan, c),)) for c in survivors)


def full_siblings(parent, utterance, discourse, config):
    """Every child of parent, uncut, from a plan compiled for this parent alone.

    The plain survivors come from a wide, ZTA-free expansion, so no cut
    inside it, before or after the variants, can hide a child.
    """
    state = parent.last.state
    wide = EngineConfig(beam_width=10**9, zta_enabled=False)
    plan = engine._Plan.of(utterance, engine._Codes.of(discourse))
    plain, _ = engine._survivors(discourse, state, plan, wide)
    parent_cb = None if state.cb is None else plan.codes.index[state.cb]
    candidates = plain + apply_zta(plain, parent_cb, plan, config)
    return [engine._child(parent, engine._step(plan, c)) for c in candidates]


def beam_failures(discourse, config):
    """Prefixes whose beam is not the beam_width best siblings of the previous beam.

    The reference is the definition: every reading of the first utterance,
    or every uncut sibling of every reading in resolve's beam one utterance
    earlier, sorted by hypothesis_sort_key over the whole history and cut
    to the beam width.  The beams are those of engine._beams, one pass
    over the discourse, whose beam at each utterance is resolve's up to
    there; it must yield one per utterance and raise UnresolvableError
    exactly where there is no reading to cut.
    """
    entity_index = discourse.entity_index
    failures = []
    candidates = list(first_readings(discourse, config))
    n = 0
    try:
        for n, keyed, _rejections in engine._beams(discourse, config):
            beam = [h for _, h in keyed]
            candidates.sort(key=lambda h: hypothesis_sort_key(h, entity_index))
            if beam != candidates[: config.beam_width]:
                failures.append(n)
            if n < len(discourse.utterances):
                utterance = discourse.utterances[n]
                candidates = [
                    c for p in beam for c in full_siblings(p, utterance, discourse, config)
                ]
    except UnresolvableError as err:
        if candidates or err.utterance_index != n + 1:
            failures.append((n + 1, "unresolvable"))
    else:
        if n != len(discourse.utterances):
            failures.append((n, "beams yielded"))
    return failures


def zero_topic_behind_a_plain_retain():
    """Two RETAINs of the center t; only the later one by content has a variant.

    u2 binds its zeros (SUBJ, OTHER) to (t, a) or (a, t), both with Cb t
    and the wa-marked b as Cp.  a is declared first, so (a, b, t) sorts
    first, but only t in the subject zero makes a zero topic: a cut of the
    plain readings before the variants loses the CONTINUE at width 1.
    """
    subcat = (SUBJ, OBJ, OTHER)
    return Discourse(
        (entity("a"), entity("t"), entity("b")),
        (
            Utterance(1, VerbFrame("v1", (SUBJ, OBJ)),
                      (overt(SUBJ, "t", Marking.WA), overt(OBJ, "a"))),
            Utterance(2, VerbFrame("v2", subcat),
                      (zero(SUBJ), overt(OBJ, "b", Marking.WA), zero(OTHER))),
        ),
    )


def test_every_beam_is_the_best_of_all_siblings_of_the_previous_one(monkeypatch, workloads):
    # Every (parent, kept step) pair resolve keys reaches the one cut, and
    # its key carries the score of the child it would make, with no child
    # built or score re-summed; a reset counts 0 there, though it sorts as
    # -1 in the transition part.
    cut = engine._cut
    checked = Counter()

    def score_checking_cut(pairs, utterance_index, beam_width):
        scores = {}  # a parent keys up to beam_width pairs; re-sum it once
        for key, parent, new_step in pairs:
            if id(parent) not in scores:
                scores[id(parent)] = parent.score
            want = scores[id(parent)] + new_step.transition_cost
            assert key[0] == want, (utterance_index, key, want)
        checked[beam_width] += len(pairs)
        return cut(pairs, utterance_index, beam_width)

    def beams_hold(d, width, where):
        config = EngineConfig(beam_width=width)
        assert beam_failures(d, config) == [], (where, width)
        # A prefix's cuts are the whole discourse's first ones, so one
        # resolve of the whole checks every key's score.
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_cut", score_checking_cut)
            with contextlib.suppress(UnresolvableError):
                resolve(d, config)

    rng = random.Random(4)
    for trial in range(300):
        d = random_discourse(rng)
        for width in (1, 2, 3, 4):
            beams_hold(d, width, trial)
    chain = workloads.long_chain(random.Random(60), 60)
    for width in (1, 3, 16, 64):
        beams_hold(chain, width, "chain")
    d = zero_topic_behind_a_plain_retain()
    for width in (1, 2, 3, 4):
        beams_hold(workloads.wide_pool(random.Random(5), 20, True), width, "wide pool")
        beams_hold(d, width, "zero topic behind a retain")
    assert all(checked[width] > width for width in (1, 2, 3, 4, 16, 64)), checked


def test_step_returns_the_beam_width_best_of_all_siblings():
    # u1 has one reading, so each beam of u2 is that reading's beam_width
    # best children; the zero topic is cut with the plain readings, not
    # after them, so it leads even at width 1.
    d = zero_topic_behind_a_plain_retain()
    [parent] = resolve(prefix(d, 1), WIDE).hypotheses
    siblings = sorted(
        full_siblings(parent, d.utterances[1], d, WIDE),
        key=lambda h: hypothesis_sort_key(h, d.entity_index),
    )
    assert len(siblings) == 3  # widths 1 and 2 cut, 3 and 4 keep them all
    for width in (1, 2, 3, 4):
        assert resolve(d, EngineConfig(beam_width=width)).hypotheses == tuple(siblings[:width])
    best = resolve(d, EngineConfig(beam_width=1)).top.last
    assert best.zta_applied and best.transition is Transition.CONTINUE


def test_the_first_beam_is_sorted_before_it_is_cut(monkeypatch):
    # Generation lists the first utterance's candidates in key order
    # already, so only a shuffled list shows whether the cut sorts them.
    # The reset cut takes the first utterance whenever it has beam_width
    # readings, so the lists reversed here are those of narrower ones.
    survivors = engine._survivors
    reversed_lists = Counter()

    def reversed_first(discourse, prev, plan, config):
        candidates, rejections = survivors(discourse, prev, plan, config)
        if prev is not None:
            return candidates, rejections
        reversed_lists[config.beam_width] += len(candidates) > 1
        return candidates[::-1], rejections

    monkeypatch.setattr(engine, "_survivors", reversed_first)
    rng = random.Random(5)
    for trial in range(100):
        d = random_discourse(rng)
        for width in (1, 2, 3, 4):
            assert beam_failures(d, EngineConfig(beam_width=width)) == [], (trial, width)
    for pool in (3, 4):  # 6 and 24 readings
        assert beam_failures(three_zero_opener(pool), EngineConfig(beam_width=64)) == [], pool
    # At width 64 both the reference's draw and resolve's are reversed, per pool.
    assert reversed_lists[4] >= 3 and reversed_lists[64] == 2 * 2, reversed_lists


def three_zero_opener(pool):
    """One utterance whose three zeros range over pool hearer-old entities."""
    subcat = (SUBJ, OBJ2, OBJ)
    first = Utterance(1, VerbFrame("ageru", subcat), tuple(zero(r) for r in subcat))
    return Discourse(tuple(entity(f"x{i}") for i in range(pool)), (first,))


def test_the_first_utterance_builds_only_what_its_beam_keeps(monkeypatch, workloads):
    # The first utterance is cut on its candidates' keys before any is
    # built, as every later one is, and the cut is still the reference's.
    built = Counter()
    build = engine._step

    def counting_step(plan, candidate):
        built[plan.utterance.index] += 1
        return build(plan, candidate)

    monkeypatch.setattr(engine, "_step", counting_step)
    for pool, count in ((12, 1_320), (40, 59_280)):
        d = three_zero_opener(pool)
        built.clear()
        # nsmallest(16) is the sorted readings cut to 16, so each width's cut is a prefix.
        reference = heapq.nsmallest(
            16,
            first_readings(d, EngineConfig()),
            key=lambda h: hypothesis_sort_key(h, d.entity_index),
        )
        assert built[1] == count
        for width in (1, 4, 16):
            built.clear()
            beam = resolve(d, EngineConfig(beam_width=width)).hypotheses
            assert built[1] <= width, (pool, width, built[1])
            assert beam == tuple(reference[:width]), (pool, width)
    # A wide pool's last resort keys thousands of out-of-Cf candidates in
    # one expansion at utterance 2 (the overt opener has one reading) and
    # builds only the steps its cut keeps.
    d = workloads.wide_pool(random.Random(5), 40, True)
    for width in (1, 4, 16):
        built.clear()
        resolve(d, EngineConfig(beam_width=width))
        assert 0 < built[2] <= width, (width, built[2])


def test_survivors_run_once_per_distinct_parent_state(monkeypatch, workloads):
    # Each utterance expands the distinct last states of the previous beam,
    # once each, in beam order, and logs each one's records once, in that
    # order: the rules' records for the pairings after that state.
    # _kept_steps makes every expansion, the reset cut's included.
    chain = workloads.long_chain(random.Random(30), 30)
    config = EngineConfig()
    kept_steps = engine._kept_steps
    for d in (load("zta_ex_ga.json"), chain):
        expanded = {}

        def recording_kept_steps(discourse, prev, plan, config):
            expanded.setdefault(plan.utterance.index, []).append(prev)
            return kept_steps(discourse, prev, plan, config)

        monkeypatch.setattr(engine, "_kept_steps", recording_kept_steps)
        states, parents, distinct = [None], 0, 0
        for u, keyed, log in engine._beams(d, config):
            assert expanded.pop(u) == states, u
            utterance = d.utterances[u - 1]
            want = [r for prev in states for r in reference_rejections(d, utterance, prev)]
            assert list(log()) == want, u
            states = last_states(keyed)
            if u < len(d.utterances):  # the next utterance's parents and their states
                parents += len(keyed)
                distinct += len(states)
        monkeypatch.undo()
        assert u == len(d.utterances) and expanded == {}
    # Parents of the chain's utterances share states, so the count is a saving.
    assert distinct < parents


def test_children_made_are_bounded_by_the_beam_on_a_wide_pool(monkeypatch, workloads):
    # Steps as well as children: a survivor the per-state cut drops is
    # never built into a Step.
    pool = workloads.wide_pool(random.Random(5), 20, True)
    config = EngineConfig()
    made, built, states = Counter(), Counter(), {}
    child, kept_steps = engine._child, engine._kept_steps

    def counting_child(parent, new_step):
        made[new_step.utterance_index] += 1
        return child(parent, new_step)

    def counting_step_type(utterance_index, *args):
        built[utterance_index] += 1
        return Step(utterance_index, *args)

    def recording_kept_steps(discourse, prev, plan, config):
        states.setdefault(plan.utterance.index, set()).add(prev)
        return kept_steps(discourse, prev, plan, config)

    monkeypatch.setattr(engine, "_child", counting_child)
    monkeypatch.setattr(engine, "Step", counting_step_type)
    monkeypatch.setattr(engine, "_kept_steps", recording_kept_steps)
    result = resolve(pool, config)
    monkeypatch.undo()

    # A child is built only for a pair the beam keeps, a Step per state.
    assert states.pop(1) == {None} and 1 <= built.pop(1) <= config.beam_width
    assert made and set(made) == set(states)
    for u, n in made.items():
        assert n <= config.beam_width, (u, n)
    assert set(built) == set(states)
    for u, n in built.items():
        assert n <= len(states[u]) * config.beam_width, (u, n)
    entity_index = pool.entity_index
    wide = resolve(pool, EngineConfig(beam_width=64)).hypotheses
    want = sorted(wide, key=lambda h: hypothesis_sort_key(h, entity_index))
    assert result.hypotheses == tuple(want[: config.beam_width])


def test_children_are_built_only_for_the_pairs_the_beam_keeps(monkeypatch, workloads):
    # The chain's parents share states and each has up to beam_width kept
    # steps, so a build per (parent, step) pair would pass the bound.
    chain = workloads.long_chain(random.Random(30), 30)
    made, pairs = Counter(), Counter()
    child, cut = engine._child, engine._cut

    def counting_child(parent, new_step):
        made[new_step.utterance_index] += 1
        return child(parent, new_step)

    def counting_cut(keyed_pairs, utterance_index, beam_width):
        pairs[utterance_index] += len(keyed_pairs)
        return cut(keyed_pairs, utterance_index, beam_width)

    monkeypatch.setattr(engine, "_child", counting_child)
    monkeypatch.setattr(engine, "_cut", counting_cut)
    for width in (1, 16, 64):
        made.clear()
        pairs.clear()
        beam = resolve(chain, EngineConfig(beam_width=width)).hypotheses
        assert set(made) == set(range(2, len(chain.utterances) + 1)), width
        for u, n in made.items():
            assert n == min(width, pairs[u]), (width, u, n, pairs[u])
        assert len(beam) == made[len(chain.utterances)]
        if width > 1:
            assert max(pairs.values()) > width


def test_each_utterance_is_compiled_once_per_resolve(monkeypatch, workloads):
    # The plan and its Cf orders depend on the utterance alone, so however
    # many states its parents reach, resolve compiles one plan for it,
    # hands that one plan to every expansion there, and compiles one
    # zero-topic order per slot its variants use.  No plan outlives its
    # resolve: resolving the same discourse again compiles every plan anew.
    chain = workloads.long_chain(random.Random(30), 30)
    for d, runs in ((load("zta_ex_ga.json"), 1), (chain, 2), (chain, 1)):
        plans, orders, states, variant_calls = Counter(), Counter(), {}, Counter()
        received = {}  # (run, utterance index) -> {id(plan): plan} of its expansions
        plan_of, cf_order = engine._Plan.of, engine._cf_order
        plain_zta, survivors = engine.apply_zta, engine._survivors

        def counting_plan(utterance, codes):
            plans[utterance.index] += 1
            return plan_of(utterance, codes)

        def counting_order(utterance, topic=None):
            orders[utterance.index, topic] += 1
            return cf_order(utterance, topic)

        def recording_survivors(discourse, prev, plan, config):
            # The plan is kept alive with its id, so no later plan reuses the id.
            received.setdefault((run, plan.utterance.index), {})[id(plan)] = plan
            states.setdefault(plan.utterance.index, set()).add(prev)
            return survivors(discourse, prev, plan, config)

        def counting_zta(candidates, parent_cb, plan, config):
            variants = plain_zta(candidates, parent_cb, plan, config)
            if variants:
                variant_calls[plan.utterance.index] += 1
            return variants

        monkeypatch.setattr(engine._Plan, "of", staticmethod(counting_plan))
        monkeypatch.setattr(engine, "_cf_order", counting_order)
        monkeypatch.setattr(engine, "_survivors", recording_survivors)
        monkeypatch.setattr(engine, "apply_zta", counting_zta)
        for run in range(runs):
            resolve(d)
        monkeypatch.undo()

        utterances = {u.index for u in d.utterances}
        assert plans == Counter({u: runs for u in utterances})
        assert {u for u, topic in orders if topic is None} == utterances
        assert set(orders.values()) == {runs}, orders
        used = {u for u, topic in orders if topic is not None}
        assert used == set(variant_calls), (used, variant_calls)
        assert set(received) == {(run, u) for run in range(runs) for u in utterances}
        for where, got in received.items():
            assert len(got) == 1, (where, len(got))
        for u in utterances:
            assert all(received[0, u].keys().isdisjoint(received[r, u]) for r in range(1, runs))
    # Many of the chain's utterances expand several states, and some make
    # variants from more than one of them, so a compile per state would show.
    assert sum(len(s) for s in states.values()) > len(states)
    assert max(variant_calls.values()) > 1


# --------------------------------------------------------------------------
# The reset cut


def reset_cut_failures(discourse, fired):
    """Expansions whose reset cut is not the k smallest of all their survivors.

    resolve runs at widths 1, 4, 16 and 64, ZTA on and off, with
    _reset_keys recorded.  Wherever it returned keys, they must be
    heapq.nsmallest(k) of the keys _survivors makes for the same state,
    and _survivors must reject nothing there.  fired counts the
    expansions checked, by width.
    """
    cut, cuts = engine._reset_keys, []

    def recording(prev, plan, k):
        keys = cut(prev, plan, k)
        if keys is not None:
            cuts.append((prev, plan, k, keys))
        return keys

    failures, survivors = [], {}  # survivors depend on the config only through ZTA
    for zta in (True, False):
        for width in (1, 4, 16, 64):
            config = EngineConfig(beam_width=width, zta_enabled=zta)
            cuts.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(engine, "_reset_keys", recording)
                with contextlib.suppress(UnresolvableError):
                    resolve(discourse, config)
            for prev, plan, k, keys in cuts:
                where = (plan.utterance.index, prev, zta)
                if where not in survivors:
                    survivors[where] = engine._survivors(discourse, prev, plan, config)
                candidates, log = survivors[where]
                if log() or keys != tuple(heapq.nsmallest(k, candidates)):
                    failures.append((where, width))
                fired[width] += 1
    return failures


def test_the_reset_cut_is_the_k_smallest_of_all_survivors(workloads):
    from test_adversarial import wide_pool as adversarial_wide_pool

    cases = [
        (f"wide_pool/{pool}/{last_resort}", workloads.wide_pool(random.Random(5), pool, last_resort))
        for pool in (10, 20, 40)
        for last_resort in (False, True)
    ]
    cases += [(f"opener/{pool}", three_zero_opener(pool)) for pool in (12, 40)]
    rng = random.Random(2024)
    cases += [(f"adversarial/{pool}", adversarial_wide_pool(rng, pool, False)) for pool in (8, 12)]
    rng = random.Random(31)
    cases += [("sweep", random_discourse(rng)) for _ in range(150)]
    fired = {name: Counter() for name, _ in cases}
    for name, d in cases:
        assert reset_cut_failures(d, fired[name]) == [], name
    # An in-Cf reading always exists there, and the openers and the
    # last-resort pools have more resets than any width but 64 on ten
    # entities.
    for pool in (10, 20, 40):
        assert not fired[f"wide_pool/{pool}/False"], pool
    assert fired["wide_pool/10/True"] == Counter({1: 2, 4: 2, 16: 2}), fired
    for name in ("wide_pool/20/True", "wide_pool/40/True", "opener/12", "opener/40"):
        assert all(fired[name][width] >= 2 for width in (1, 4, 16, 64)), (name, fired[name])
    assert all(fired[f"adversarial/{pool}"][1] for pool in (8, 12)), fired
    assert fired["sweep"][1] >= 20 and fired["sweep"][4] >= 1, fired["sweep"]


def cut_case(slots, animate_only=(), opener=("r1", "r2"), animate=9):
    """The state after an overt opener, and a second utterance's plan.

    The opener's wa subject and object are named by opener; r1, r2 and
    r3 are inanimate and h0, h1, ... (animate of them) animate, all
    hearer-old.  slots maps each role of the second frame to an entity
    id, or None for a zero, and animate_only names the roles that take
    only animate entities.
    """
    ents = tuple(entity(f"r{i}", animate=False) for i in (1, 2, 3))
    ents += tuple(entity(f"h{i}") for i in range(animate))
    first = Utterance(
        1, VerbFrame("v1", (SUBJ, OBJ)), (overt(SUBJ, opener[0], Marking.WA), overt(OBJ, opener[1]))
    )
    frame = VerbFrame("v2", tuple(slots), {r: SortalConstraint.ANIMATE for r in animate_only})
    args = tuple(zero(r) if eid is None else overt(r, eid) for r, eid in slots.items())
    d = Discourse(ents, (first, Utterance(2, frame, args)))
    [reading] = resolve(prefix(d, 1)).hypotheses
    return d, reading.last.state, engine._Plan.of(d.utterances[1], engine._Codes.of(d))


def test_the_reset_cut_declines_unless_its_k_best_are_all_resets():
    config = EngineConfig(beam_width=4)
    # The animate-only subject finds nothing animate in the inanimate
    # previous Cf, so its eight readings are resets, and the cut is theirs.
    d, prev, plan = cut_case({SUBJ: None, OBJ: "h0"}, (SUBJ,))
    survivors, log = engine._survivors(d, prev, plan, config)
    assert len(survivors) == 8 and log() == ()
    assert engine._reset_keys(prev, plan, 4) == tuple(heapq.nsmallest(4, survivors))
    declines = {
        # An overt slot holds a previous-Cf entity, which then links
        # every binding back as its Cb.
        "overt in Cf": cut_case({SUBJ: None, OBJ: "r1"}, (SUBJ,)),
        # The overt slots fail CONTRA_INDEX or SORTAL, so every pairing is
        # rejected.
        "coindexed": cut_case({SUBJ: None, OBJ2: "h0", OBJ: "h0"}, (SUBJ,)),
        "sortal": cut_case({SUBJ: None, OBJ: "r3"}, (SUBJ, OBJ)),
        # The subject can take r1 or r2 inside the previous Cf.
        "inside": cut_case({SUBJ: None, OBJ: "h0"}),
        # (r1, h0) is inside, behind (h0, ?), whose animate-only object
        # finds nothing left in the previous Cf.
        "inside behind a dead end": cut_case(
            {SUBJ: None, OBJ: None}, (OBJ,), opener=("h0", "r1")
        ),
        # 36 fillings of the reset pools, but only 12 are injective, so
        # the 16 smallest keys hold links as well.
        "fewer resets than k": cut_case(
            {SUBJ: None, OBJ2: None, OBJ: None}, (SUBJ, OBJ2), animate=3
        ),
    }
    width = {"fewer resets than k": 16}
    for name, (d, prev, plan) in declines.items():
        k = width.get(name, 4)
        assert engine._reset_keys(prev, plan, k) is None, name
        survivors, log = engine._survivors(d, prev, plan, config)
        resets = [c for c in survivors if c[0] < 0]
        if name == "fewer resets than k":
            assert 0 < len(resets) < k < len(survivors), name
        elif name in ("coindexed", "sortal"):
            assert not survivors and log(), name
        else:
            assert survivors and not resets, name


def test_bindings_generated_per_expansion_follow_the_beam_not_the_pool(monkeypatch, workloads):
    # A last resort's work does not grow with the entities it never binds:
    # each expansion generates at most beam_width bindings, and the inside
    # probe at most one more.
    generate, kept_steps = engine.generate_assignments, engine._kept_steps
    generated = []

    def counting_generate(plan, context, limit=None):
        bindings = generate(plan, context, limit)
        generated[-1] += len(bindings)
        return bindings

    def counting_kept_steps(discourse, prev, plan, config):
        generated.append(0)
        return kept_steps(discourse, prev, plan, config)

    monkeypatch.setattr(engine, "generate_assignments", counting_generate)
    monkeypatch.setattr(engine, "_kept_steps", counting_kept_steps)
    for d in (workloads.wide_pool(random.Random(5), 40, True), three_zero_opener(40)):
        for width in (1, 4, 16, 64):
            generated.clear()
            resolve(d, EngineConfig(beam_width=width))
            assert generated and max(generated) <= width + 1, (width, generated)


def test_an_in_cf_expansion_generates_only_its_in_cf_bindings(monkeypatch, workloads):
    # Where an in-Cf reading exists, the hearer-old entities outside the
    # previous Cf cost nothing unless the log is read: each expansion
    # generates its in-Cf bindings and at most one more, _reset_keys'
    # inside probe, where one pass over the 40-entity pool generated
    # 14,440.  Reading the log generates the pool after all.
    d = workloads.wide_pool(random.Random(5), 40, False)
    generate, kept_steps = engine.generate_assignments, engine._kept_steps
    expansions = []  # [prev, plan, bindings generated]

    def counting_generate(plan, context, limit=None):
        bindings = generate(plan, context, limit)
        expansions[-1][2] += len(bindings)
        return bindings

    def recording_kept_steps(discourse, prev, plan, config):
        expansions.append([prev, plan, 0])
        return kept_steps(discourse, prev, plan, config)

    for width in (1, 4, 16, 64):
        expansions.clear()
        with monkeypatch.context() as patch:
            patch.setattr(engine, "generate_assignments", counting_generate)
            patch.setattr(engine, "_kept_steps", recording_kept_steps)
            result = resolve(d, EngineConfig(beam_width=width))
        assert [plan.utterance.index for _, plan, _ in expansions] == [1, 2], width
        for prev, plan, count in expansions:
            codes = plan.codes
            prev_cf = [codes.index[e] for e in prev.cf_ids] if prev is not None else []
            pool = [codes.index[e] for e in antecedent_pool(d, prev.cf_ids if prev else ())]
            inside = set(prev_cf) | plan.overt
            in_cf = [b for b in generate(plan, pool) if inside.issuperset(b)]
            assert count <= len(in_cf) + 1, (width, plan.utterance.index, count, len(in_cf))
        assert sum(count for _, _, count in expansions) <= 6, (width, expansions)
        expansions.append(["log read", None, 0])
        with monkeypatch.context() as patch:
            patch.setattr(engine, "generate_assignments", counting_generate)
            pruned = [r for r in result.rejections[2] if r.code == OUT_OF_CF_PRUNED]
        assert expansions[-1][2] == 14_440 and len(pruned) > 14_000, (width, len(pruned))


def test_the_two_phases_key_what_one_pass_over_the_pool_keys(workloads):
    # _survivors generates over the previous Cf first and over the whole
    # pool only when no in-Cf pairing passes; helpers.one_pass_survivors
    # enumerates the whole pool once and keys the in-Cf survivors, or the
    # out-of-Cf ones when there are none.  Their keys must agree, in
    # content and order, on every state resolve expands.
    from test_adversarial import four_zeros

    cases = []
    rng = random.Random(35)
    for trial in range(300):
        d = random_discourse(rng)
        cases += [(f"sweep/{trial}", d, EngineConfig(beam_width=4, zta_enabled=zta))
                  for zta in (True, False)]
    for pool in (10, 20, 40):
        for last_resort in (False, True):
            d = workloads.wide_pool(random.Random(5), pool, last_resort)
            cases.append((f"wide_pool/{pool}/{last_resort}", d, EngineConfig()))
    rng = random.Random(2024)
    for pool, repeats in ((4, 2), (6, 1), (4, 3), (8, 2)):
        cases.append((f"four_zeros/{pool}x{repeats}", four_zeros(rng, pool, repeats), EngineConfig()))

    covered = Counter()
    for name, d, config in cases:
        codes = engine._Codes.of(d)
        for n, states in expanded_states(d, config):
            plan = engine._Plan.of(d.utterances[n], codes)
            for prev in states:
                keys, _log = engine._survivors(d, prev, plan, config)
                assert keys == one_pass_survivors(d, prev, plan, config), (name, n + 1, prev)
                prev_cf = [codes.index[e] for e in prev.cf_ids] if prev is not None else []
                inside = set(prev_cf) | plan.overt
                if not keys:
                    covered["no survivor"] += 1
                elif inside.issuperset(keys[0][2][0]):
                    covered["in-Cf"] += 1
                elif generate_assignments(plan, prev_cf):
                    covered["last resort past failed in-Cf bindings"] += 1
                else:
                    covered["last resort"] += 1
    for kind in ("in-Cf", "last resort", "no survivor"):
        assert covered[kind] >= 50, covered
    assert covered["last resort past failed in-Cf bindings"] >= 10, covered


# --------------------------------------------------------------------------
# Sibling keys against keys built from scratch


def last_states(keyed):
    """The distinct last states of a keyed beam, in beam order: what the next utterance expands."""
    return list(dict.fromkeys(h.last.state for _, h in keyed))


def expanded_states(discourse, config):
    """Each utterance's 0-based index and the states expanded there, from one pass.

    None at the first utterance, else the last states of the beam one
    utterance earlier.  The walk ends after the first utterance that no
    reading survives.
    """
    beams = engine._beams(discourse, config)
    states = [None]
    for n in range(len(discourse.utterances)):
        yield n, states
        try:
            _index, keyed, _rejections = next(beams)
        except UnresolvableError:
            return
        states = last_states(keyed)


def sibling_key_failures(discourse, config, covered):
    """Survivors whose sibling key or transition differs from one built from scratch.

    For each state expanded at each utterance, every survivor of
    _survivors is checked against the rules alone: the transition that
    classify_transition gives for the previous Cb, the survivor's Cb and
    the Cp that rank_cf puts first (the Cb as zero topic for a variant),
    and the key of that transition's ordinal (-1 without one), the
    write-back index (the Cb's when the previous Cb is open and the
    survivor links to a Cb, else -1), the bound entity indices, the Cb
    index (-1 while open) and the ZTA flag.  The binding and Cb are read
    off the Step _step builds from the survivor, which is its key, and the
    key's bound part must be a binding object generate_assignments made
    itself, so no survivor pays for a conversion before the cut.  covered
    counts what was seen.
    """
    entity_index = discourse.entity_index
    failures = []
    generate, generated = engine.generate_assignments, []

    def recording(plan, context):  # holds every binding, so no two share an id
        bindings = generate(plan, context)
        generated.extend(bindings)
        return bindings
    for n, states in expanded_states(discourse, config):
        utterance = discourse.utterances[n]
        plan = engine._Plan.of(utterance, engine._Codes.of(discourse))
        for prev in states:
            generated.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(engine, "generate_assignments", recording)
                survivors, _ = engine._survivors(discourse, prev, plan, config)
            made = {id(b) for b in generated}
            for key in survivors:
                built = engine._step(plan, key)
                binding, cb = tuple(built.assignment.values()), built.state.cb
                transition, zta = built.transition, built.zta_applied
                if id(key[2][0]) not in made:
                    failures.append((n + 1, prev, binding, "key does not hold the binding"))
                want = None
                if prev is None:
                    wa = utterance.wa_argument
                    if cb != (None if wa is None else wa.realization.entity_id):
                        failures.append((n + 1, binding, cb))
                elif cb is not None:
                    assignment = dict(zip(utterance.frame.subcat, binding))
                    cf = rank_cf(assign_salience_roles(
                        utterance, assignment, zero_topic=cb if zta else None
                    ))
                    want = classify_transition(prev.cb, cb, cf[0][0])
                links = prev is not None and cb is not None
                write_back = entity_index[cb] if links and prev.cb is None else -1
                want_key = (
                    want.ordinal if want is not None else -1,
                    write_back,
                    (
                        tuple(entity_index[eid] for eid in binding),
                        entity_index[cb] if cb is not None else -1,
                        int(zta),
                    ),
                )
                if (key, transition) != (want_key, want):
                    failures.append((n + 1, prev, binding, cb, zta, key, want_key))
                covered[want.name if want is not None else "no transition"] += 1
                covered["write-back"] += write_back >= 0
                covered["zta"] += zta
    return failures


def test_every_sibling_key_equals_one_built_from_scratch(workloads):
    config = EngineConfig(beam_width=4)
    covered = Counter()
    rng = random.Random(11)
    for trial in range(500):
        assert sibling_key_failures(random_discourse(rng), config, covered) == [], trial
    for pool in (10, 20):
        for last_resort in (False, True):
            d = workloads.wide_pool(random.Random(5), pool, last_resort)
            assert sibling_key_failures(d, EngineConfig(), covered) == [], (pool, last_resort)
    for name in ("no transition", "write-back", "zta", *(t.name for t in Transition)):
        assert covered[name] >= 20, covered


# --------------------------------------------------------------------------
# The per-utterance plan against the rules it stands in for


def _pairings(discourse, utterance, prev):
    """Every generated (assignment, Cb) pairing of utterance after state prev.

    Generation runs on the codes of the id-level antecedent pool, and each
    binding is read back as entity ids; the Cb candidates are the rules'.
    """
    codes = engine._Codes.of(discourse)
    pool = antecedent_pool(discourse, prev.cf_ids if prev is not None else ())
    plan = engine._Plan.of(utterance, codes)
    for binding in generate_assignments(plan, [codes.index[eid] for eid in pool]):
        assignment = dict(zip(utterance.frame.subcat, [codes.ids[c] for c in binding]))
        for cb in compute_cb_candidates(prev, assignment) or [None]:
            yield assignment, cb


def plan_mismatches(discourse, utterance, prev, verdicts):
    """Pairings on which the utterance's plan and the rules disagree.

    The plan must pass exactly the pairings filter_assignment passes, and
    rank the Cf of every injective binding as rank_cf(assign_salience_roles)
    does, with no zero topic and with each zero slot as the zero topic.
    verdicts counts the rules' verdicts, so callers can see what was covered.
    """
    entities = discourse.entity_map
    plan = engine._Plan.of(utterance, engine._Codes.of(discourse))
    code_of = plan.codes.index
    prev_cf = {code_of[eid] for eid in prev.cf_ids} if prev is not None else set()
    mismatches = []

    # A copy of the plan in which every zero slot may take the zero topic,
    # so _step reads each zero slot's topic order from it.
    every_zero = dataclasses.replace(plan, topic_slots=plan.zeros, topic_orders={})

    def cf(binding, topic=None):  # the Cf _step builds for a binding, topic its zero-topic slot
        bound = tuple(code_of[eid] for eid in binding)
        if topic is None:
            return engine._step(plan, (-1, -1, (bound, -1, 0))).state.cf
        every_zero.topic_orders[topic] = engine._cf_order(utterance, topic)
        return engine._step(every_zero, (0, -1, (bound, bound[topic], 1))).state.cf

    for assignment, cb in _pairings(discourse, utterance, prev):
        binding = tuple(assignment.values())
        code = filter_assignment(utterance, assignment, prev, cb, entities)
        verdicts[code] += 1
        bound = tuple(code_of[eid] for eid in binding)
        if plan.passes(bound, prev_cf, None if cb is None else code_of[cb]) != (code is None):
            mismatches.append(("verdict", assignment, cb, code))
        if len(set(binding)) < len(binding):
            continue
        if cf(binding) != rank_cf(
            assign_salience_roles(utterance, assignment)
        ):
            mismatches.append(("cf", assignment))
        for pos in plan.zeros:
            topic = binding[pos]
            want = rank_cf(assign_salience_roles(utterance, assignment, zero_topic=topic))
            if cf(binding, pos) != want:
                mismatches.append(("zero topic cf", assignment, topic))
    return mismatches


def _states(ids, rng=None, count=None):
    """Previous center states over ids: each Cf order of one or two, Cb open or set.

    With rng, count of them drawn at random, Cfs of three included.
    """
    tiers = (SalienceRole.SUBJ, SalienceRole.OBJ2, SalienceRole.OBJ)
    orders = [cf for n in (1, 2, 3) for cf in itertools.permutations(ids, n)]
    if rng is None:
        orders = [cf for cf in orders if len(cf) < 3]
    states = [
        CenterState(cb, tuple(zip(cf, tiers)))
        for cf in orders
        for cb in (None,) + cf
    ]
    return states if rng is None else rng.sample(states, min(count, len(states)))


PLAN_ENTITIES = (
    entity("a"),
    entity("b"),
    entity("c"),
    entity("rock", animate=False),
    entity("new", hearer_old=False),
)


def _plan_utterances():
    """Frames random draws seldom reach, each as the second utterance."""
    three, four = (SUBJ, OBJ2, OBJ), (SUBJ, OBJ2, OBJ, OTHER)
    animate = SortalConstraint.ANIMATE
    frames = [
        # a wa topic beside zeros
        (VerbFrame("wa", three), (zero(SUBJ), overt(OBJ2, "a", Marking.WA), zero(OBJ))),
        # zero topics at SUBJ and at OBJ2, with a wa topic to demote
        (
            VerbFrame("zta", three, {SUBJ: animate, OBJ2: animate}),
            (zero(SUBJ), zero(OBJ2), overt(OBJ, "c", Marking.WA)),
        ),
        # all overt
        (VerbFrame("overt", (SUBJ, OBJ)), (overt(SUBJ, "a", Marking.WA), overt(OBJ, "b"))),
        # two overt slots co-indexed: CONTRA_INDEX whatever the zero binds
        (VerbFrame("coindexed", three), (zero(SUBJ), overt(OBJ2, "a"), overt(OBJ, "a"))),
        # an inanimate overt entity in an animate-only slot: SORTAL
        (VerbFrame("sortal", (SUBJ, OBJ), {OBJ: animate}), (zero(SUBJ), overt(OBJ, "rock"))),
    ]
    # the empathy locus on each role, zero slots and overt ones alike
    frames += [
        (
            VerbFrame(f"emp-{role.name}", four, {}, role),
            (zero(SUBJ), overt(OBJ2, "b"), zero(OBJ), overt(OTHER, "c")),
        )
        for role in four
    ]
    return [Utterance(2, frame, args) for frame, args in frames]


def test_the_plan_matches_the_rules_on_every_generated_pairing():
    verdicts = Counter()
    opener = Utterance(1, VerbFrame("v", (SUBJ,)), (overt(SUBJ, "a"),))
    for utterance in _plan_utterances():
        d = Discourse(PLAN_ENTITIES, (opener, utterance))
        for prev in [None] + _states(("a", "b", "rock", "new")):
            assert plan_mismatches(d, utterance, prev, verdicts) == [], utterance.frame.lemma

    rng = random.Random(6)
    for trial in range(500):
        d = random_discourse(rng)
        ids = [e.id for e in d.entities]
        for utterance in d.utterances:
            for prev in [None] + _states(ids, rng, 3):
                assert plan_mismatches(d, utterance, prev, verdicts) == [], trial

    assert verdicts[None] > 1000
    for code in (RejectionCode.CONTRA_INDEX, RejectionCode.SORTAL, RejectionCode.RULE_1):
        assert verdicts[code] > 10, code
    assert verdicts[RejectionCode.ZERO_ANTECEDENT] == 0  # generation rules it out


def _unresolvable_second_utterance(frame, args):
    """An overt opener, then an utterance whose overt slots doom every pairing."""
    ents = (entity("a"), entity("b"), entity("c"), entity("rock", animate=False))
    opener = Utterance(
        1, VerbFrame("v1", (SUBJ, OBJ)), (overt(SUBJ, "a", Marking.WA), overt(OBJ, "b"))
    )
    return Discourse(ents, (opener, Utterance(2, frame, args)))


@pytest.mark.parametrize(
    "frame, args, code",
    [
        (
            VerbFrame("coindexed", (SUBJ, OBJ2, OBJ)),
            (zero(SUBJ), overt(OBJ2, "c"), overt(OBJ, "c")),
            RejectionCode.CONTRA_INDEX,
        ),
        (
            VerbFrame("sortal", (SUBJ, OBJ), {OBJ: SortalConstraint.ANIMATE}),
            (zero(SUBJ), overt(OBJ, "rock")),
            RejectionCode.SORTAL,
        ),
    ],
    ids=["contra-index", "sortal"],
)
def test_overt_slots_that_doom_every_pairing_reject_each_with_its_code(frame, args, code):
    d = _unresolvable_second_utterance(frame, args)
    config = EngineConfig()
    assert oracle.check_equivalence(d, config).equivalent
    with pytest.raises(UnresolvableError) as err:
        resolve(d, config)
    assert err.value.utterance_index == 2

    utterance = d.utterances[1]
    prev = resolve(prefix(d, 1), config).top.last.state
    want = [
        Rejection(2, tuple(a.values()), cb, filter_assignment(utterance, a, prev, cb, d.entity_map))
        for a, cb in _pairings(d, utterance, prev)
    ]
    assert len(want) == 3 and {r.code for r in want} == {code}
    plan = engine._Plan.of(utterance, engine._Codes.of(d))
    survivors, log = engine._survivors(d, prev, plan, config)
    assert survivors == [] and log() == tuple(want)


# --------------------------------------------------------------------------
# Output digest

#: helpers.sameness_digest() of the engine's output; the same on Python
#: 3.10, 3.12 and 3.13.
SAMENESS_DIGEST = "ff807ad0e0e4e810ed342c1ba6e919eabc0800e570a989cde3997e67d66cbf3a"


def test_the_output_matches_the_recorded_sameness_digest():
    """The readings and full logs of the fixed sweep hash to the recorded value.

    A change meant to leave the engine's output alone must leave this
    digest alone.  A change that alters the output on purpose re-records
    SAMENESS_DIGEST here and says so in CHANGES.md, as it re-records
    bench/digests.json with bench/record_digests.py.
    """
    assert sameness_digest() == SAMENESS_DIGEST
