"""Multi-hypothesis resolution engine.

The engine walks a discourse utterance by utterance, keeping a beam of
readings (hypotheses).  For each parent reading and each next utterance
it: enumerates every way of binding the utterance's zeros to candidate
antecedents, pairs each binding with its possible backward-looking
centers, discards impossible candidates, builds the resulting center
state, classifies the transition, optionally adds zero-topic variants,
and ranks what survives.  Readings are scored by the sum of their
transition ordinals (lower = more coherent); the beam keeps the best
`beam_width` readings at every stage.

One expansion path builds every utterance's readings: `_survivors`
turns a previous center state and an utterance into `Step`s.  The
discourse-initial utterance goes through it with no previous state
(prev=None): its pool is the hearer-old entities, no Cb links back and
no transition or zero-topic variant arises; `_initial_hypotheses` then
sets the wa topic, if any, as each reading's Cb.

Zero topic assignment (ZTA) is the salience-promoting reading of a zero
that picks up the current center: when a parent's candidates include no
CONTINUE, a surviving candidate that binds some zero to the parent's Cb
entity spawns a variant in which that entity counts as the (zero) topic,
reordering the Cf and usually upgrading the transition.  Both the plain
and the variant reading stay in play - the ambiguity is real and the
ranking adjudicates.  A zero qualifies as zero topic only from a subject
or second-object slot; more oblique slots (direct object and below) are
too lowly ranked to topicalize.

Deterministic ordering is a contract: candidate generation, ranking and
beam truncation use only list order, never set or dict iteration over
unordered data, so identical inputs give byte-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

from .model import (
    Assignment,
    CenterState,
    Discourse,
    Entity,
    GrammaticalRole,
    Hypothesis,
    MaybeCb,
    SortalConstraint,
    Step,
    Transition,
    Utterance,
    Violation,
    validate_discourse,
)
from .rules import (
    assign_salience_roles,
    classify_transition,
    compute_cb_candidates,
    filter_assignment,
    rank_cf,
)

#: Grammatical slots whose zeros may be read as the zero topic.
ZERO_TOPIC_ROLES = (GrammaticalRole.SUBJ, GrammaticalRole.OBJ2)

#: Rejection code for out-of-Cf bindings pruned because in-Cf readings exist.
OUT_OF_CF_PRUNED = "OUT_OF_CF_PRUNED"


@dataclass(frozen=True)
class EngineConfig:
    """Engine knobs: beam width, zero-topic toggle, validation strictness."""

    beam_width: int = 16
    zta_enabled: bool = True
    strict_validation: bool = True

    def __post_init__(self) -> None:
        if self.beam_width < 1:
            raise ValueError("beam width must be at least 1")


@dataclass(frozen=True)
class Rejection:
    """A discarded candidate and the rule that discarded it."""

    utterance_index: int
    assignment: Assignment
    cb: Optional[str]
    code: str


@dataclass(frozen=True)
class StepResult:
    """Ranked children of one parent for one utterance, plus the discards."""

    ranked: tuple[Hypothesis, ...]
    rejections: tuple[Rejection, ...]


@dataclass(frozen=True)
class ResolveResult:
    """Final beam after the whole discourse, best reading first."""

    hypotheses: tuple[Hypothesis, ...]
    violations: tuple[Violation, ...]
    rejections: Mapping[int, tuple[Rejection, ...]] = field(default_factory=dict)

    @property
    def top(self) -> Hypothesis:
        return self.hypotheses[0]


class UnresolvableError(Exception):
    """No reading of some utterance survives the filters."""

    def __init__(self, utterance_index: int) -> None:
        self.utterance_index = utterance_index
        super().__init__(f"no reading survives at utterance {utterance_index}")


class DiscourseInvalidError(Exception):
    """Strict-mode resolution refused a discourse with felicity violations."""

    def __init__(self, violations: Sequence[Violation]) -> None:
        self.violations = tuple(violations)
        lines = "; ".join(str(v) for v in violations)
        super().__init__(f"discourse fails validation: {lines}")


def instantiate_initial_cb(first: Utterance) -> MaybeCb:
    """Initial center of a discourse: the wa topic's entity, if any.

    A discourse-initial utterance with a wa-marked argument is about that
    argument's entity; without one the center starts uninstantiated and
    is pinned down retroactively by the following utterance.
    """
    wa = first.wa_argument
    if wa is not None and wa.realization.entity_id is not None:
        return MaybeCb.instantiated(wa.realization.entity_id)
    return MaybeCb.uninstantiated()


def generate_assignments(
    utterance: Utterance,
    context: Sequence[str],
    entities: Mapping[str, Entity],
) -> list[Assignment]:
    """Every way of binding the utterance's zeros to context entities.

    context is the ordered antecedent pool (previous-Cf order first, then
    any remaining hearer-old entities in declaration order).  Zeros are
    expanded in subcat order; bindings that would violate the frame's
    sortal constraints or co-index two slots are pruned here - the same
    checks filter_assignment applies, so pruning never changes the
    surviving set.  Overt slots pass through untouched.  The result
    preserves generation order; each assignment maps every subcategorized
    role, keyed in subcat order.
    """
    zero_roles = [a.role for a in utterance.args if a.realization.is_zero]
    overt: dict[GrammaticalRole, str] = {}
    for a in utterance.args:
        if not a.realization.is_zero:
            assert a.realization.entity_id is not None
            overt[a.role] = a.realization.entity_id

    results: list[Assignment] = []

    def in_subcat_order(bindings: Mapping[GrammaticalRole, str]) -> Assignment:
        return {a.role: bindings[a.role] for a in utterance.args}

    def expand(i: int, bound: dict[GrammaticalRole, str], used: set[str]) -> None:
        if i == len(zero_roles):
            results.append(in_subcat_order(bound))
            return
        role = zero_roles[i]
        animate_only = utterance.frame.constraint(role) is SortalConstraint.ANIMATE
        for entity_id in context:
            if entity_id in used:
                continue
            if animate_only and not entities[entity_id].animate:
                continue
            bound[role] = entity_id
            used.add(entity_id)
            expand(i + 1, bound, used)
            used.discard(entity_id)
            del bound[role]

    expand(0, dict(overt), set(overt.values()))
    return results


def apply_zta(
    steps: Sequence[Step],
    parent_cb: MaybeCb,
    utterance: Utterance,
    config: EngineConfig,
) -> list[Step]:
    """Zero-topic variants of the surviving readings, in base order.

    Preconditions for any variant at all: ZTA enabled, the parent center
    instantiated, and no surviving plain reading already a CONTINUE
    (when the center continues smoothly there is nothing for the zero
    topic to rescue).  A reading spawns a variant when its own Cb is
    that same entity — the zero topic continues the previous center as
    the current one — and some zero slot binds it from a subject or
    second-object position.  The variant keeps the reading's Cb and
    assignment but recomputes salience with the entity as zero topic
    (demoting any wa topic to its plain grammatical role), reranks the
    Cf and reclassifies the transition, which lands on CONTINUE: the
    zero topic heads the Cf, so Cb and Cp coincide on the carried-over
    center.  Variants are additional readings; the originals stay.
    """
    if not config.zta_enabled:
        return []
    if not parent_cb.is_instantiated:
        return []
    if any(s.transition is Transition.CONTINUE and not s.zta_applied for s in steps):
        return []

    target = parent_cb.entity_id
    assert target is not None
    variants: list[Step] = []
    for base in steps:
        zero_slot: Optional[GrammaticalRole] = None
        for arg in utterance.args:
            if arg.realization.is_zero and base.assignment[arg.role] == target:
                zero_slot = arg.role
                break
        if zero_slot is None or zero_slot not in ZERO_TOPIC_ROLES:
            continue
        if base.state.cb.entity_id != target:
            continue
        bindings = assign_salience_roles(utterance, base.assignment, zero_topic=target)
        state = CenterState(base.state.cb, rank_cf(bindings))
        transition = classify_transition(parent_cb, target, state.cp)
        variants.append(replace(base, state=state, transition=transition, zta_applied=True))
    return variants


def _entity_map(discourse: Discourse) -> dict[str, Entity]:
    return {e.id: e for e in discourse.entities}


def _context_for(discourse: Discourse, prev_cf: Sequence[str]) -> list[str]:
    """Antecedent pool: previous Cf in order, then other hearer-old entities."""
    pool = list(prev_cf)
    seen = set(pool)
    for e in discourse.entities:
        if e.hearer_old and e.id not in seen:
            pool.append(e.id)
    return pool


def _survivors(
    discourse: Discourse,
    prev: Optional[CenterState],
    utterance: Utterance,
    config: EngineConfig,
) -> tuple[list[Step], list[Rejection]]:
    """Filtered, ZTA-extended readings of one utterance after state prev.

    prev is None for the discourse-initial utterance, whose readings are
    then all unlinked (uninstantiated Cb, no transition).  Each binding is
    paired with each of its Cb candidates, or with no Cb when nothing
    links it to prev (a segment reset).  A reading is inside when every
    zero binds a previous-Cf entity; the outside ones reach out to
    hearer-old entities and survive only as a last resort, when no inside
    reading does.
    """
    entities = _entity_map(discourse)
    prev_cf = prev.cf_ids if prev is not None else ()
    prev_cb = prev.cb if prev is not None else MaybeCb.uninstantiated()
    prev_cf_set = set(prev_cf)

    inside: list[Step] = []
    outside: list[Step] = []
    rejections: list[Rejection] = []
    for assignment in generate_assignments(
        utterance, _context_for(discourse, prev_cf), entities
    ):
        inside_cf = all(
            assignment[a.role] in prev_cf_set
            for a in utterance.args
            if a.realization.is_zero
        )
        cf = None
        for cb in compute_cb_candidates(prev, assignment) or [None]:
            code = filter_assignment(utterance, assignment, prev, cb, entities)
            if code is not None:
                rejections.append(Rejection(utterance.index, assignment, cb, code))
                continue
            if cf is None:
                cf = rank_cf(assign_salience_roles(utterance, assignment))
            state = CenterState(MaybeCb(cb), cf)
            transition = None if cb is None else classify_transition(prev_cb, cb, state.cp)
            (inside if inside_cf else outside).append(
                Step(utterance.index, assignment, state, transition)
            )

    if inside:
        rejections.extend(
            Rejection(utterance.index, s.assignment, s.state.cb.entity_id, OUT_OF_CF_PRUNED)
            for s in outside
        )
    survivors = inside or outside
    return survivors + apply_zta(survivors, prev_cb, utterance, config), rejections


def _transition_sort_value(transition: Optional[Transition]) -> int:
    return transition.ordinal if transition is not None else -1


def _child(parent: Hypothesis, new_step: Step) -> Hypothesis:
    """Assemble a child hypothesis, retroactively unifying the parent Cb.

    When the child pins down a center and the parent's latest step left
    its Cb uninstantiated, the newly determined entity is written back
    into that step (provided the entity is realized there) - the earlier
    utterance was about it all along.
    """
    steps = parent.steps
    new_cb = new_step.state.cb
    if new_cb.is_instantiated:
        last = steps[-1]
        if (
            not last.state.cb.is_instantiated
            and new_cb.entity_id in last.assignment.values()
        ):
            unified = replace(last, state=replace(last.state, cb=new_cb))
            steps = steps[:-1] + (unified,)
    return Hypothesis(steps + (new_step,), parent.score + new_step.transition_cost)


def step(
    parent: Hypothesis,
    utterance: Utterance,
    discourse: Discourse,
    config: EngineConfig,
) -> StepResult:
    """Extend one parent reading by one utterance.

    Children are ranked by transition ordinal (CONTINUE before RETAIN
    before the shifts; an unclassified reset sorts with the initials),
    ties broken by generation order.  An empty ranked list means this
    parent cannot account for the utterance.
    """
    survivors, rejections = _survivors(discourse, parent.last.state, utterance, config)
    ranked = sorted(survivors, key=lambda s: _transition_sort_value(s.transition))
    children = tuple(_child(parent, s) for s in ranked)
    return StepResult(children, tuple(rejections))


def hypothesis_sort_key(
    hypothesis: Hypothesis, entity_index: Mapping[str, int]
) -> tuple:
    """Total deterministic order for readings: score, recency, content.

    Primary key is the cumulative score.  Ties break by comparing
    transition ordinals from the most recent step backwards (initial and
    reset steps count as -1), so a reading that coheres later wins.
    Remaining ties fall to a content key built from entity declaration
    indices: per step, the bound entities in subcat order, the Cb, and
    the ZTA flag.
    """
    recency = tuple(
        _transition_sort_value(s.transition) for s in reversed(hypothesis.steps)
    )
    content = tuple(
        (
            tuple(entity_index[eid] for eid in s.assignment.values()),
            entity_index.get(s.state.cb.entity_id, -1)
            if s.state.cb.entity_id is not None
            else -1,
            int(s.zta_applied),
        )
        for s in hypothesis.steps
    )
    return (hypothesis.score, recency, content)


def _initial_hypotheses(
    discourse: Discourse, config: EngineConfig
) -> tuple[list[Hypothesis], list[Rejection]]:
    """All readings of the first utterance (score 0, INITIAL transition)."""
    first = discourse.utterances[0]
    survivors, rejections = _survivors(discourse, None, first, config)
    cb0 = instantiate_initial_cb(first)
    hypotheses = [
        Hypothesis((replace(s, state=replace(s.state, cb=cb0)),), 0) for s in survivors
    ]
    return hypotheses, rejections


def resolve(discourse: Discourse, config: EngineConfig = EngineConfig()) -> ResolveResult:
    """Resolve a whole discourse into a ranked beam of readings.

    Raises DiscourseInvalidError under strict validation if the
    annotation is infelicitous, and UnresolvableError (carrying the
    utterance index) if at some utterance no reading survives.  The
    returned hypotheses are sorted best-first under hypothesis_sort_key
    and truncated to the beam width at every utterance, so the result is
    deterministic for identical inputs.
    """
    violations = validate_discourse(discourse)
    if violations and config.strict_validation:
        raise DiscourseInvalidError(violations)

    entity_index = discourse.entity_index()
    rejection_log: dict[int, tuple[Rejection, ...]] = {}

    beam, rejections = _initial_hypotheses(discourse, config)
    rejection_log[1] = tuple(rejections)
    if not beam:
        raise UnresolvableError(1)
    beam.sort(key=lambda h: hypothesis_sort_key(h, entity_index))
    beam = beam[: config.beam_width]

    for utterance in discourse.utterances[1:]:
        children: list[Hypothesis] = []
        step_rejections: list[Rejection] = []
        for parent in beam:
            result = step(parent, utterance, discourse, config)
            children.extend(result.ranked)
            step_rejections.extend(result.rejections)
        rejection_log[utterance.index] = tuple(step_rejections)
        if not children:
            raise UnresolvableError(utterance.index)
        children.sort(key=lambda h: hypothesis_sort_key(h, entity_index))
        beam = children[: config.beam_width]

    return ResolveResult(tuple(beam), tuple(violations), rejection_log)
