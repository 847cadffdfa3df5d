"""Multi-hypothesis resolution engine.

The engine walks a discourse utterance by utterance, keeping a beam of
readings (hypotheses).  For each parent reading and each next utterance
it: enumerates every way of binding the utterance's zeros to candidate
antecedents, pairs each binding with its possible backward-looking
centers, discards impossible candidates, classifies the transition,
optionally adds zero-topic variants, ranks what survives and builds the
center state of each reading it keeps.  Readings are scored by the sum
of their transition ordinals (lower = more coherent), derived from their
steps; the beam keeps the best `beam_width` readings at every stage.  A step's
cost does not grow with the discourse: `resolve` reads no reading's
score but sorts every beam, the first included, by one five-part key of
fixed size - score (a child's is its parent key's plus one ordinal),
last transition, the parent's whole history as one rank within its
beam, and the content of the last two steps - then cuts it in one
place.  That order equals the reference `hypothesis_sort_key`, which
`resolve` never calls.  An utterance's readings depend only on the
previous center state, so parents that share their last state share one
expansion: `_beams`, the loop over the utterances, groups each beam's
parents by last state and calls `step`, its per-state call, once per
group.  Siblings share their parent's key score and rank, so they
compare on their transition, the Cb their parent's last step takes
after write-back and their own content - their sibling key, fixed by
that state: each expansion keeps only its `beam_width` best survivors,
cut after the zero-topic variants are added, and `step` returns the
new steps of the state's `beam_width` best children in beam order with
their sibling keys.  A child past them
has `beam_width` siblings ahead of it and cannot reach the beam, so the
cut is exact.  `_beams` needs nothing from a step but its return
value, and builds no child before its own cut: it keys every (parent,
kept step) pair from the parent's key and the step's sibling key, in
parent order, cuts the pairs of all parents at once (`_cut`) and
assembles a child (`_child`, which copies the parent's steps) only for
each pair kept, so `beam_width` per utterance.  It logs each state's
rejections once, in the order the states were expanded, and yields
every utterance's beam as it goes, the beam `resolve` gives for the
discourse up to that utterance.

`resolve` is the engine's one entry point: it validates the discourse
and returns the last beam of `_beams`.  `step` is its per-state call,
not an API of its own: `_beams` and the benchmark's tracer
(bench/tracing.py), which wraps it by name, are its only callers, and
it keeps its name and call pattern only for the tracer.  The tests hold
the beams of `_beams` and `resolve`, not `step`'s results, to the
beam's properties.

The full expansion of an utterance is `_survivors`: it turns a
previous center state and the utterance's plan into candidates, and a
candidate is its sibling key - (transition ordinal, write-back
index, (binding, Cb, ZTA flag)) - made once it has passed the filters;
its transition, Cb and Cf order all follow from the key.  Nothing more
is built before the cut: `_kept_steps`, the one place a cut is made and
a candidate becomes a `Step`, takes the smallest keys and only then has
`_step` work out the transition, the assignment, the validated center
state, the Cf and the `Step` of each one it keeps.  A wide pool's last
resort would key thousands of pairings for an expansion that keeps
`beam_width`, and all it keeps are resets, readings that link nothing
back and sort ahead of every transition.  So `_kept_steps` first tries
the reset cut (`_reset_keys`): when the plan can reject nothing, no
binding stays inside the previous Cf and `beam_width` resets exist, the
smallest keys are the first `beam_width` bindings generated outside the
previous Cf, in code order, and nothing else is generated or keyed;
otherwise `_survivors` enumerates the expansion.  Either way the kept
keys, and every rejection logged, are the same.
`step` calls it once per distinct state, and `_initial_hypotheses` once
for the discourse-initial utterance, with no previous state
(prev=None): its pool is the hearer-old entities, no Cb links back and
no transition or zero-topic variant arises, and each reading takes the
wa topic, if any, as its Cb.  Those candidates are all resets and
differ only in content, so their cut is the first beam, and a wide
first utterance takes the reset cut.  A step's Cb is an entity id, or
None while it is uninstantiated; the next utterance that pins it down
writes it back.

Candidates are tuple work on integer entity codes against a plan of
the utterance (`_Plan`).  An entity's code is its declaration index;
`_beams` builds the code tables once (`_Codes`: ids and animate flags
by code, the hearer-old codes in declaration order), compiles one plan
per utterance over them and passes it to every expansion there, which
reads the utterance, its zeros, its overt slots as codes and its Cf
orders from it.  No plan outlives its `resolve`.
`generate_assignments` grows each binding, a tuple of codes, slot by
slot in subcat order: an overt slot appends its entity, and a zero
each entity of its pool the binding does not hold yet, so it binds the
zeros injectively, never to an entity an overt slot names, only to
animate entities in animate-only slots and only to previous-Cf or
hearer-old entities.  A repeated overt entity is left for the filters.
Of the filters, CONTRA_INDEX and SORTAL can then fail only on the overt
slots, one verdict for the whole utterance, and ZERO_ANTECEDENT never
fails, so Rule 1 is the only filter left to run per pairing.  A slot's
salience tier depends on its role, its marking, the empathy locus and
the zero topic, never on the entity in it, so the Cf of every binding is one
fixed order of slot positions; the rules rank a probe binding once to
find it, and once more per zero-topic slot, the first time a variant
takes that slot, into the plan.  Per pairing what remains is integer
work: its Cb candidates from the previous Cf, the Rule 1 test and the
inside test.  A passing pairing is held as its (binding, Cb) pair, and
only the pairings that survive are keyed: the in-Cf ones, or the
out-of-Cf ones when none is in-Cf, which otherwise become prune records
unkeyed.  A sibling key's content is the binding itself and its Cb's
code, and the Cf is read off the order only for a candidate the cut
keeps.  Codes turn back into entity ids only where something outside
the expansion reads them: in `_step` for the kept candidates, and in
each `Rejection` with the `filter_assignment` call that names its rule.
The previous Cb is fixed within an expansion, so a transition depends
only on the (Cb, Cp entity) pair: each expansion classifies a pair
once, through `classify_transition`, which compares entities only for
equality and so takes codes, and reads every other candidate's
transition ordinal from a dict that dies with the expansion.  The
rules stay the specification: `filter_assignment` names
the code of each pairing the plan rejects, and the tests hold the plan
to `filter_assignment` on every generated pairing, and to
`assign_salience_roles` and `rank_cf` on every injective one.

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

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from operator import itemgetter
from typing import AbstractSet, Hashable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .model import (
    CenterState,
    Discourse,
    GrammaticalRole,
    Hypothesis,
    SalienceRole,
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
    filter_assignment,
    rank_cf,
)

#: Grammatical slots whose zeros may be read as the zero topic.
ZERO_TOPIC_ROLES = (GrammaticalRole.SUBJ, GrammaticalRole.OBJ2)

#: Rejection code for out-of-Cf bindings pruned because in-Cf readings exist.
OUT_OF_CF_PRUNED = "OUT_OF_CF_PRUNED"


@dataclass(frozen=True)
class EngineConfig:
    """Engine knobs: beam width and the zero-topic toggle."""

    beam_width: int = 16
    zta_enabled: bool = True

    def __post_init__(self) -> None:
        if type(self.beam_width) is not int:  # a bool is an int to isinstance
            raise TypeError(f"beam width must be an int, got {type(self.beam_width).__name__}")
        if self.beam_width < 1:
            raise ValueError("beam width must be at least 1")
        if type(self.zta_enabled) is not bool:  # "false" would read as true
            raise TypeError(f"zta_enabled must be a bool, got {type(self.zta_enabled).__name__}")


#: A binding of an utterance's slots as expansion handles it: their entity
#: codes (declaration indices, see _Codes), in subcat order.
Binding = tuple[int, ...]


class Rejection(NamedTuple):
    """A discarded pairing and the rule that discarded it.

    binding is the pairing's binding (the entity ids in the utterance's
    slots, in subcat order) and cb its Cb's entity id; code is
    filter_assignment's RejectionCode, or OUT_OF_CF_PRUNED for an
    out-of-Cf pairing that an in-Cf one made unnecessary.  An immutable
    named tuple: a wide pool logs thousands per expansion, and a tuple
    is built in one call.
    """

    utterance_index: int
    binding: tuple[str, ...]
    cb: Optional[str]
    code: str


@dataclass(frozen=True)
class _StepResult:
    """One center state's kept steps for one utterance, plus the discards.

    parent is a reading whose last state is the one expanded.  steps are
    the new steps of its beam_width best children, in beam order, the
    same for every parent with that last state, and keys[i] is steps[i]'s
    sibling key, the candidate it was built from (Candidate): (transition
    ordinal or -1, the Cb index the parent's last step takes by write-back
    or -1, content of the new step).  ranked builds parent's children on
    its first read; _beams never reads it, since it builds a child only
    for a (parent, step) pair its cut keeps, and the tracer is its one
    reader.  rejections are the expansion's records.
    """

    parent: Hypothesis
    keys: tuple[Candidate, ...]
    steps: tuple[Step, ...]
    rejections: tuple[Rejection, ...]

    @cached_property
    def ranked(self) -> tuple[Hypothesis, ...]:
        """The children, in the order of steps."""
        return tuple([_child(self.parent, s) for s in self.steps])


@dataclass(frozen=True)
class ResolveResult:
    """Final beam after the whole discourse, best reading first.

    rejections maps each utterance to the records of every center state
    expanded there, once per state, in the order the states were expanded;
    each Rejection names a discarded pairing by its binding (entity ids in
    subcat order) and Cb.
    """

    hypotheses: tuple[Hypothesis, ...]
    rejections: Mapping[int, tuple[Rejection, ...]]

    @property
    def top(self) -> Hypothesis:
        return self.hypotheses[0]


class UnresolvableError(Exception):
    """No reading of some utterance survives the filters."""

    def __init__(self, utterance_index: int) -> None:
        self.utterance_index = utterance_index
        super().__init__(f"no reading survives at utterance {utterance_index}")


class DiscourseInvalidError(Exception):
    """Resolution refused a discourse with felicity violations."""

    def __init__(self, violations: Sequence[Violation]) -> None:
        self.violations = tuple(violations)
        lines = "; ".join(str(v) for v in violations)
        super().__init__(f"discourse fails validation: {lines}")


def generate_assignments(
    plan: _Plan, context: Sequence[int], limit: Optional[int] = None
) -> list[Binding]:
    """Every way of binding plan's utterance's zeros to context entities.

    context is the ordered antecedent pool as codes (previous-Cf order
    first, then any remaining hearer-old entities in declaration order).
    Bindings grow slot by slot, in subcat order: an overt slot appends its
    entity's code to every binding, unchecked, and a zero appends each
    code of its pool that the binding does not hold yet, the pool being
    the context entities that no overt slot names (only the animate ones
    for an animate-only slot).  So every binding fills its zeros
    injectively, apart from its overt slots, sortal-correctly and to
    recoverable antecedents: of filter_assignment's checks, CONTRA_INDEX
    and SORTAL can fail only on the overt slots, the same way for every
    binding, ZERO_ANTECEDENT never fails, and RULE_1 is the only one left
    to run per candidate.  The result is a list in generation order, the
    order of the product of the zeros' pools; each binding is the tuple
    of the entity codes in the utterance's slots, in subcat order.

    With a limit, the result is the first limit bindings of that list,
    and each zero's level is cut to its first limit bindings as it grows,
    so the work follows the limit, not the pools.  The children of a
    level's first n bindings come first in the next level, so the cut is
    exact as long as no binding dead-ends, which holds when each zero's
    pool outnumbers the zeros before it; where it does not (a small
    animate-only pool), no level is cut and the full list is sliced.
    """
    animate = plan.codes.animate
    free = [c for c in context if c not in plan.overt]
    animate_free = [c for c in free if animate[c]]
    cap = limit
    if limit is not None:
        sizes = [len(animate_free if plan.animate_only[p] else free) for p in plan.zeros]
        if any(size <= n for n, size in enumerate(sizes)):  # a binding may dead-end
            cap = None
    bindings: list[Binding] = [()]
    for code, animate_only in zip(plan.slots, plan.animate_only):
        if code is not None:  # overt: unchecked, so CONTRA_INDEX logs a repeat
            bindings = [b + (code,) for b in bindings]
            continue
        pool = animate_free if animate_only else free
        if cap is None:
            bindings = [b + (c,) for b in bindings for c in pool if c not in b]
        else:
            bindings = list(islice((b + (c,) for b in bindings for c in pool if c not in b), cap))
    return bindings if limit is None else bindings[:limit]


#: Slot positions in Cf order, each with the salience tier it earns.
CfOrder = tuple[tuple[int, SalienceRole], ...]

#: A surviving candidate before the cut is its sibling key: (transition
#: ordinal, -1 without one; the code of the Cb the parent's last step takes
#: by write-back, else -1; (binding, Cb code or -1, ZTA flag 0 or 1)).
#: _step works out the rest for the candidates the cut keeps; see
#: _survivors for the key.
Candidate = tuple[int, int, tuple[Binding, int, int]]


def _cf_order(utterance: Utterance, topic: Optional[int] = None) -> CfOrder:
    """The Cf of any injective binding of the utterance, as slot positions.

    A slot's tier depends on its role, its marking, the empathy locus and
    the zero topic, never on the entity in it, so the rules rank a probe
    binding that puts each slot's position in place of an entity.  topic
    is the position of the zero-topic slot, if any.
    """
    probe = {a.role: pos for pos, a in enumerate(utterance.args)}
    return rank_cf(assign_salience_roles(utterance, probe, topic))


@dataclass(frozen=True, eq=False)
class _Codes:
    """A discourse's entities as integer codes, built once per resolve call.

    An entity's code is its declaration index (Discourse.entity_index,
    kept here as index).  ids and animate hold each entity's id and
    animate flag by code, and hearer_old the hearer-old entities' codes in
    declaration order.
    """

    ids: tuple[str, ...]
    index: Mapping[str, int]
    animate: tuple[bool, ...]
    hearer_old: tuple[int, ...]

    @staticmethod
    def of(discourse: Discourse) -> "_Codes":
        entities = discourse.entities
        return _Codes(
            tuple([e.id for e in entities]),
            discourse.entity_index,
            tuple([e.animate for e in entities]),
            tuple([c for c, e in enumerate(entities) if e.hearer_old]),
        )


@dataclass(eq=False)
class _Plan:
    """One utterance compiled for one resolve call: all its expansions read it.

    _beams compiles one plan per utterance, over the call's one _Codes,
    and hands it to every expansion there, so a plan and its utterance
    never disagree and nothing about the utterance is worked out twice.
    A binding is the tuple of entity codes its slots hold, in subcat
    order; slots holds each overt slot's code (None for a zero) and overt
    the set of them.  Generation binds the zeros injectively, apart from
    the overt slots, sortal-correctly and to recoverable antecedents, so
    filter_assignment passes a pairing exactly when overt_ok and Rule 1
    hold, and the Cf of every binding is the one order cf of slot
    positions.  topic_orders maps each zero-topic slot, by position, to
    the Cf order with that slot as zero topic, as apply_zta compiles it
    on first use, and dies with the resolve call.
    """

    utterance: Utterance
    codes: _Codes
    slots: tuple[Optional[int], ...]  # each slot's overt entity code, None for a zero
    animate_only: tuple[bool, ...]  # whether each slot takes only animate entities
    zeros: tuple[int, ...]  # positions of the zero slots
    topic_slots: tuple[int, ...]  # the zeros' positions that may take the zero topic
    overt: frozenset[int]  # the codes of the entities the overt slots name
    overt_ok: bool  # the overt slots pass CONTRA_INDEX and SORTAL
    cf: CfOrder
    topic_orders: dict[int, CfOrder] = field(default_factory=dict)

    @staticmethod
    def of(utterance: Utterance, codes: _Codes) -> "_Plan":
        args = utterance.args
        index = codes.index
        slots = tuple(
            None if a.realization.is_zero else index[a.realization.entity_id] for a in args
        )
        animate_only = tuple(
            utterance.frame.constraint(a.role) is SortalConstraint.ANIMATE for a in args
        )
        zeros = tuple(p for p, c in enumerate(slots) if c is None)
        named = [c for c in slots if c is not None]
        sortal_ok = all(
            codes.animate[c] for c, only in zip(slots, animate_only) if only and c is not None
        )
        return _Plan(
            utterance,
            codes,
            slots,
            animate_only,
            zeros,
            tuple(p for p in zeros if args[p].role in ZERO_TOPIC_ROLES),
            frozenset(named),
            sortal_ok and len(set(named)) == len(named),
            _cf_order(utterance),
        )

    @cached_property
    def wa(self) -> int:
        """The wa topic's code, -1 without one: a discourse-initial reading's Cb."""
        wa = self.utterance.wa_argument  # always overt: Argument refuses a marked zero
        return -1 if wa is None else self.codes.index[wa.realization.entity_id]

    def passes(
        self, binding: Binding, prev_cf: AbstractSet[int], cb: Optional[int]
    ) -> bool:
        """Whether filter_assignment passes a generated binding with Cb cb.

        prev_cf is the previous Cf as a set of codes, and cb a code or
        None.  Past overt_ok only Rule 1 is left: if a zero realizes a
        previous-Cf entity, the Cb's slot must be a zero.
        """
        if not self.overt_ok:
            return False
        if cb is None or binding.index(cb) in self.zeros:
            return True
        return not any(binding[p] in prev_cf for p in self.zeros)


def apply_zta(
    candidates: Sequence[Candidate],
    parent_cb: Optional[int],
    plan: _Plan,
    config: EngineConfig,
) -> list[Candidate]:
    """Zero-topic variants of the surviving candidates, in base order.

    Candidates are sibling keys (Candidate), and parent_cb is the
    parent's Cb as an entity code, as the keys' Cbs and bindings are.
    Preconditions for any variant at all: ZTA enabled, the parent center
    instantiated, and no surviving candidate already a CONTINUE, a key
    with ordinal 0 (when the center continues smoothly there is nothing
    for the zero topic to rescue); every candidate handed in is plain,
    since variants are made only here.  A candidate spawns a variant when
    its own Cb is that same entity — the zero topic continues the
    previous center as the current one — and one of the plan's
    topic_slots (a zero in a subject or second-object position) binds it.
    The variant keeps the candidate's Cb and binding but takes the Cf
    order with the first such slot as zero topic (which demotes any wa
    topic to its plain grammatical role), one order per slot for all
    candidates, compiled on a miss into the plan's topic_orders, so each
    is compiled once per utterance and _step finds it there.  Its
    transition is CONTINUE: the zero topic heads the Cf, so Cb and Cp
    coincide on the carried-over center.  So the variant is the base key
    with CONTINUE's ordinal (0) and the ZTA flag set:
    (0, write-back index, (binding, Cb, 1)).  Variants are additional
    candidates; the originals stay.  A wide pool's last resort hands over
    thousands of candidates, so both passes over them are plain loops
    that read a key's ordinal (or Cb) before anything else.
    """
    if not config.zta_enabled or parent_cb is None:
        return []
    for c in candidates:
        if c[0] == 0:
            return []

    variants: list[Candidate] = []
    for c in candidates:
        if c[2][1] != parent_cb:
            continue
        binding = c[2][0]
        slot = next((p for p in plan.topic_slots if binding[p] == parent_cb), None)
        if slot is None:
            continue
        if slot not in plan.topic_orders:
            plan.topic_orders[slot] = _cf_order(plan.utterance, slot)
        variants.append((0, c[1], (binding, parent_cb, 1)))
    return variants


def _ids(
    ids: Sequence[str], binding: Binding, cb: Optional[int]
) -> tuple[tuple[str, ...], Optional[str]]:
    """A binding and Cb as entity ids; ids holds each entity's id by code."""
    return tuple([ids[c] for c in binding]), None if cb is None else ids[cb]


def _survivors(
    discourse: Discourse, prev: Optional[CenterState], plan: _Plan, config: EngineConfig
) -> tuple[list[Candidate], list[Rejection]]:
    """Filtered, ZTA-extended candidates of plan's utterance after state prev.

    prev is None for the discourse-initial utterance, whose candidates
    are then all unlinked (no transition) and take the wa topic's entity,
    if any, as their Cb (utterance.wa_argument): the utterance is about
    it; without one the center starts open, for the next utterance to
    write back.  Each binding is paired with each of its Cb candidates
    (compute_cb_candidates), or with no Cb when nothing links it to prev
    (a segment reset).  A pairing is inside when every zero binds a
    previous-Cf entity; the outside ones reach out to hearer-old entities
    and survive only as a last resort, when no inside pairing passes.
    Every pairing goes through the utterance's plan; filter_assignment
    names the rule of each one the plan rejects, and that call is the
    only place a rejected pairing's role -> entity dict is built.  The
    Rejections come in generation order, each naming its pairing by
    entity ids, and the pruned outside pairings' last.

    Expansion runs on entity codes (_Codes): prev's Cf and Cb become codes
    once per call, and the bindings, their Cb candidates, the Rule 1 test
    (plan.passes), the inside test and the transition dict below all work
    on codes.  Ids come back only where something outside reads them: in
    a rejected pairing's filter_assignment call and Rejection, and in
    _step, for the candidates the cut keeps.  A passing pairing is kept
    as its (binding, Cb) pair; only the side that survives, the inside
    pairings or else the outside ones, is keyed, and each outside pair
    becomes its OUT_OF_CF_PRUNED record when an inside one passed.

    A candidate is its key, its key among the children of any parent
    whose last state is prev, and nothing else is built per candidate.
    Siblings share their parent's score and rank, so in the beam they
    compare on their transition ordinal (-1 without one; the cost is the
    ordinal floored at 0, so the ordinal alone orders both), the Cb code
    the parent's last step takes after write-back and the content of the
    new step: the binding itself (the bound entity codes in subcat
    order), the Cb's code (-1 while open) and the ZTA flag.  Write-back
    fires exactly when prev's Cb is open and the candidate links to it,
    since its Cb then comes from prev's Cf; otherwise the parent's own
    Cb, the same for every sibling, stands as -1.  Everything else about
    a candidate follows from its key, so _kept_steps cuts the keys and
    _step works out the Step of each key the beam can keep, for step and
    _initial_hypotheses alike.

    Only what is specific to a candidate is computed per candidate: the
    zeros, the overt entities and the Cf order come from the plan, which
    _beams compiles once per utterance whatever the number of states
    expanded there.  With prev's Cb fixed, the transition depends on the
    (Cb, Cp entity) pair alone, so a dict local to this call holds each
    pair's transition ordinal, filled through classify_transition on a
    miss.  Where prev's Cb is set, a binding's one Cb candidate is the
    first previous-Cf entity it holds.
    """
    utterance = plan.utterance
    codes = plan.codes
    ids, code_of = codes.ids, codes.index
    index = utterance.index
    if prev is None:
        prev_cf: list[int] = []
        prev_cb = None
        first_cb = plan.wa
    else:
        prev_cf = [code_of[e] for e in prev.cf_ids]
        prev_cb = None if prev.cb is None else code_of[prev.cb]
        first_cb = -1
    prev_cf_set = frozenset(prev_cf)
    # No zero binds an entity an overt slot names, so a binding is inside
    # exactly when its slots hold only previous-Cf and overt entities.
    inside_codes = prev_cf_set | plan.overt
    open_cb = prev is not None and prev_cb is None  # a linked Cb is written back
    context = prev_cf + [c for c in codes.hearer_old if c not in prev_cf_set]

    inside: list[tuple[Binding, Optional[int]]] = []
    outside: list[tuple[Binding, Optional[int]]] = []
    rejections: list[Rejection] = []
    passes = plan.passes
    for binding in generate_assignments(plan, context):
        # compute_cb_candidates: the realized previous-Cf entities in
        # previous-Cf order, only the first if the previous Cb is set.
        if open_cb:
            cbs = [c for c in prev_cf if c in binding] or (None,)
        else:
            cbs = (None,)
            for c in prev_cf:
                if c in binding:
                    cbs = (c,)
                    break
        side = None
        for cb in cbs:
            if not passes(binding, prev_cf_set, cb):
                bound, cb_id = _ids(ids, binding, cb)
                assignment = dict(zip(utterance.frame.subcat, bound))
                code = filter_assignment(utterance, assignment, prev, cb_id, discourse.entity_map)
                rejections.append(Rejection(index, bound, cb_id, code))
                continue
            if side is None:
                side = inside if inside_codes.issuperset(binding) else outside
            side.append((binding, cb))

    if inside:  # an in-Cf pool can prune thousands of pairings
        id_of = ids.__getitem__
        rejections += [
            Rejection(index, tuple(map(id_of, binding)), None if cb is None else ids[cb],
                      OUT_OF_CF_PRUNED)
            for binding, cb in outside
        ]
    survivors: list[Candidate] = []
    ordinals: dict[tuple[int, int], int] = {}  # (Cb, Cp entity) -> transition ordinal
    cp = plan.cf[0][0]
    for binding, cb in inside or outside:
        if cb is None:
            survivors.append((-1, -1, (binding, first_cb, 0)))
            continue
        pair = (cb, binding[cp])
        ordinal = ordinals.get(pair)
        if ordinal is None:
            ordinal = ordinals[pair] = classify_transition(prev_cb, *pair).ordinal
        survivors.append((ordinal, cb if open_cb else -1, (binding, cb, 0)))
    return survivors + apply_zta(survivors, prev_cb, plan, config), rejections


def _kept_steps(
    discourse: Discourse, prev: Optional[CenterState], plan: _Plan, config: EngineConfig
) -> tuple[tuple[Candidate, ...], tuple[Step, ...], tuple[Rejection, ...]]:
    """Cut one expansion's survivors to beam_width, then build only those.

    The one place a cut is made and a candidate becomes a Step, for every
    utterance.  When the beam_width smallest keys are all resets, the
    reset cut (_reset_keys) generates just those, and the expansion
    rejects nothing; otherwise the survivors of _survivors, their sibling
    keys, are cut in their natural order (heapq.nsmallest).  The Steps
    are plan's utterance's.  Returns the kept keys and their Steps, best
    first, and the expansion's rejections.  A Step is not yet a child:
    _beams builds one only for a (parent, step) pair its own cut keeps.
    """
    keys = _reset_keys(prev, plan, config.beam_width)
    rejections: Sequence[Rejection] = ()
    if keys is None:
        survivors, rejections = _survivors(discourse, prev, plan, config)
        keys = tuple(heapq.nsmallest(config.beam_width, survivors))
    return keys, tuple([_step(plan, k) for k in keys]), tuple(rejections)


def _reset_keys(
    prev: Optional[CenterState], plan: _Plan, k: int
) -> Optional[tuple[Candidate, ...]]:
    """The k smallest survivor keys after prev when all k are resets, else None.

    A reset binds no previous-Cf entity, so nothing links it back: its
    key is (-1, -1, (binding, Cb, 0)), with the wa topic's code as its Cb
    after no previous state and -1 otherwise, and it sorts ahead of every
    linked candidate and zero-topic variant (ordinal 0 or more), resets
    among themselves by binding.  Four conditions, checked cheapest
    first, make the k smallest keys of _survivors exactly the first k
    bindings generated over the hearer-old entities outside the previous
    Cf, which come in code order and so in key order:
    - the plan rejects nothing: overt_ok, and no overt slot holds a
      previous-Cf entity, so a Cb sits in a zero and Rule 1 holds, and
      a binding whose zeros stay outside the previous Cf is a reset;
    - the product of the reset pools' sizes, a bound on the number of
      resets, reaches k (the number of hearer-old entities to the power
      of the zeros, a looser bound, is checked first, before any list
      is built);
    - no inside binding exists (generation over the previous Cf, cut at
      one), so no pairing is pruned and every one survives;
    - k resets exist.
    Then _survivors would reject nothing and key every pairing, so
    generating the first k resets stands for enumerating them all.  None
    sends the expansion down the full path.
    """
    codes = plan.codes
    if not plan.overt_ok or len(codes.hearer_old) ** len(plan.zeros) < k:
        return None
    prev_cf = [] if prev is None else [codes.index[e] for e, _ in prev.cf]
    overt = plan.overt
    if not overt.isdisjoint(prev_cf):
        return None
    animate = codes.animate
    free = animate_free = 0  # the reset pools' sizes, counted with no list built
    for c in codes.hearer_old:
        if c not in prev_cf and c not in overt:
            free += 1
            animate_free += animate[c]
    size = 1
    for p in plan.zeros:
        size *= animate_free if plan.animate_only[p] else free
    if size < k or generate_assignments(plan, prev_cf, limit=1):
        return None
    resets = generate_assignments(plan, [c for c in codes.hearer_old if c not in prev_cf], limit=k)
    if len(resets) < k:
        return None
    cb = plan.wa if prev is None else -1
    return tuple([(-1, -1, (b, cb, 0)) for b in resets])


def _step(plan: _Plan, candidate: Candidate) -> Step:
    """The Step of one candidate of plan's utterance: assignment and validated state.

    A candidate is its sibling key, and the rest is worked out from it
    here, for the candidates the cut keeps only: the Cb is None at index
    -1 (a first-utterance key holds the wa topic's code), the transition
    None at ordinal -1, and the Cf order is plan.cf, or, with the ZTA
    flag set, the topic order of the first topic slot binding the Cb,
    which apply_zta compiled into plan.topic_orders.  The one place a
    kept candidate's codes become entity ids: the assignment maps each
    slot's role to its entity, and the Cf lists the binding's entities in
    that order.
    """
    ordinal, _, (binding, cb, zta) = candidate
    order = plan.cf
    if zta:
        order = plan.topic_orders[next(p for p in plan.topic_slots if binding[p] == cb)]
    bound, cb_id = _ids(plan.codes.ids, binding, None if cb < 0 else cb)
    state = CenterState(cb_id, tuple([(bound[pos], tier) for pos, tier in order]))
    utterance = plan.utterance
    transition = None if ordinal < 0 else Transition(ordinal)
    assignment = dict(zip(utterance.frame.subcat, bound))
    return Step(utterance.index, assignment, state, transition, bool(zta))


def _child(parent: Hypothesis, new_step: Step) -> Hypothesis:
    """Assemble a child hypothesis, retroactively unifying the parent Cb.

    When the child pins down a center (its Cb is not None) and the
    parent's latest step left its Cb uninstantiated (None), the newly
    determined entity is written back into that step - the earlier
    utterance was about it all along.  It is always realized there: a
    child's Cb comes from the parent's last Cf, which lists every slot.
    """
    steps = parent.steps
    last = steps[-1]
    new_cb = new_step.state.cb
    if new_cb is not None and last.state.cb is None:
        unified = Step(
            last.utterance_index, last.assignment, CenterState(new_cb, last.state.cf),
            last.transition, last.zta_applied,
        )
        return Hypothesis(steps[:-1] + (unified, new_step))
    return Hypothesis(steps + (new_step,))


def step(
    parent: Hypothesis,
    utterance: Utterance,
    discourse: Discourse,
    config: EngineConfig,
    *,
    plan: _Plan,
) -> _StepResult:
    """Expand parent's last center state by one utterance: _beams' per-state call.

    Not an API of its own: _beams and the benchmark's tracer, which
    wraps it by name, are its only callers, and it keeps its name and
    call pattern only for the tracer.  _beams calls it once per distinct
    last state of its beam, with the first parent that reaches the state.

    Returns the new steps of the beam_width best children of any parent
    with that last state, in beam order: transition ordinal first
    (CONTINUE before RETAIN before the shifts; an unclassified reset
    sorts with the initials), then the Cb the parent's last step takes
    after write-back, then the new step's content, as hypothesis_sort_key
    orders siblings.  No child past them can reach the beam.  keys holds
    each step's sibling key (see _survivors), in the same order, and
    rejections the expansion's records.  No steps means no parent with
    that state can account for the utterance.  The survivors stay keyed
    candidates through the cut (_kept_steps); only the kept ones become
    Steps, and no child is built here: the result's ranked builds them
    on demand.  plan is the utterance's _Plan, which _beams compiles once
    and shares among the utterance's states; the expansion reads the
    utterance from it, and utterance stays an argument because the
    tracer reads it.
    """
    return _StepResult(parent, *_kept_steps(discourse, parent.last.state, plan, config))


def _step_content(s: Step, entity_index: Mapping[str, int]) -> tuple:
    """One step's share of hypothesis_sort_key's content: bindings, Cb, ZTA flag."""
    return (
        tuple([entity_index[eid] for eid in s.assignment.values()]),
        entity_index.get(s.state.cb, -1),
        int(s.zta_applied),
    )


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

    This is the reference order: every beam `resolve` keeps, and the one
    it returns, is in it.  `_beams` never computes this key; it sorts by
    the fixed-size keys of `_initial_hypotheses` and `_keyed_pairs`, which
    order readings the same way (a pair's key is that of the child it
    would make), and the tests hold those keys to this one.
    """
    recency = tuple(
        s.transition.ordinal if s.transition is not None else -1
        for s in reversed(hypothesis.steps)
    )
    content = tuple(_step_content(s, entity_index) for s in hypothesis.steps)
    return (hypothesis.score, recency, content)


#: A reading with its beam sort key.
Keyed = tuple[tuple, Hypothesis]

#: A parent and one of its kept steps, with the beam sort key of the
#: child they would make.
Pair = tuple[tuple, Hypothesis, Step]


def _dense_ranks(values: Sequence[Hashable]) -> list[int]:
    """Each value's rank among the distinct values; equal values share one."""
    rank = {v: i for i, v in enumerate(sorted(set(values)))}
    return [rank[v] for v in values]


def _keyed_pairs(key: tuple, parent: Hypothesis, result: _StepResult, rank: int) -> list[Pair]:
    """One parent's kept steps, each keyed as the child it would make.

    key is the parent's beam key and result the expansion of its last
    state, which every parent with that state shares.  The key has a
    fixed size, for the beam sort, and needs no child built.  A child's
    hypothesis_sort_key is its score, its new step's transition followed
    by the parent's recency, and the content of the parent's steps up to
    the last, then of its own last two steps (write-back may have
    rewritten the parent's last one).  The parents
    of one utterance all have the same length, so their (recency, content
    prefix) pairs compare as one dense rank of the pair within the beam
    does, and (score, transition, rank, content of steps[-2], content of
    steps[-1]) orders the children the same way, ties included.
    key[1:4] is then the child's own pair, so its dense rank serves the
    next utterance.  The transition, the write-back Cb and the last
    step's content come from each step's sibling key in result.keys, and
    the content of the parent's last step from the parent's own key, with
    its Cb replaced when the write-back index is set (>= 0), and the
    score from the parent's key plus the transition floored at 0 (a reset
    costs 0).
    """
    bound, _cb, zta = last_content = key[4]
    return [
        (
            (
                key[0] + max(transition, 0),
                transition,
                rank,
                last_content if cb < 0 else (bound, cb, zta),
                content,
            ),
            parent,
            s,
        )
        for s, (transition, cb, content) in zip(result.steps, result.keys)
    ]


def _cut(pairs: list[Pair], utterance_index: int, beam_width: int) -> list[Keyed]:
    """The children of the beam_width best keyed pairs, best first.

    Only the pairs kept are built into children (_child).  Raises
    UnresolvableError if there is no pair at all.
    """
    if not pairs:
        raise UnresolvableError(utterance_index)
    pairs.sort(key=itemgetter(0))
    return [(key, _child(parent, s)) for key, parent, s in pairs[:beam_width]]


def _initial_hypotheses(
    discourse: Discourse, config: EngineConfig, *, plan: _Plan
) -> tuple[list[Keyed], tuple[Rejection, ...]]:
    """The first beam, keyed as children are, and the first utterance's rejections.

    plan is the first utterance's, which goes through _kept_steps with no
    previous state, so only its beam_width best readings (score 0, no
    transition) are built.  Its candidates differ only in content, the
    last part of their sibling key, and have no zero-topic variants, so
    that cut is exactly the first beam.  Each reading's key has the
    children's shape: score 0, no transition, rank 0, no earlier step,
    then its own content.
    """
    keys, steps, rejections = _kept_steps(discourse, None, plan, config)
    return [((0, -1, 0, (), key[2]), Hypothesis((s,))) for key, s in zip(keys, steps)], rejections


def _beams(
    discourse: Discourse, config: EngineConfig
) -> Iterator[tuple[int, list[Keyed], tuple[Rejection, ...]]]:
    """Each utterance's index, keyed beam and rejections, in discourse order.

    The beam at utterance n is resolve's on the discourse's first n
    utterances, and the rejections are that utterance's records, each
    expanded state's once, in the order its states were expanded.  The
    parents are grouped by last state in a dict that lives for one
    utterance: step expands each distinct state once, and each parent's
    pairs are keyed, in parent order, from its group's one result.
    Raises UnresolvableError, after yielding every earlier beam, at the
    first utterance no reading survives.  discourse must be valid.
    """
    codes = _Codes.of(discourse)
    first = _Plan.of(discourse.utterances[0], codes)
    keyed, rejections = _initial_hypotheses(discourse, config, plan=first)
    if not keyed:
        raise UnresolvableError(1)
    yield 1, keyed, rejections

    for utterance in discourse.utterances[1:]:
        plan = _Plan.of(utterance, codes)
        results: dict[CenterState, _StepResult] = {}
        pairs: list[Pair] = []
        logged: list[Rejection] = []
        ranks = _dense_ranks([key[1:4] for key, _ in keyed])
        for (key, parent), rank in zip(keyed, ranks):
            state = parent.last.state
            result = results.get(state)
            if result is None:
                result = results[state] = step(parent, utterance, discourse, config, plan=plan)
                logged += result.rejections
            pairs += _keyed_pairs(key, parent, result, rank)
        keyed = _cut(pairs, utterance.index, config.beam_width)
        yield utterance.index, keyed, tuple(logged)


def resolve(discourse: Discourse, config: EngineConfig = EngineConfig()) -> ResolveResult:
    """Resolve a whole discourse into a ranked beam of readings.

    Raises DiscourseInvalidError, carrying every violation
    validate_discourse reports, if the annotation has any, and
    UnresolvableError (carrying the utterance index) if at some utterance
    no reading survives.  The returned hypotheses are sorted best-first
    under hypothesis_sort_key and truncated to the beam width at every
    utterance, so the result is deterministic for identical inputs.  They
    are the last beam of _beams, and the rejections what it logged at
    each utterance.
    """
    violations = validate_discourse(discourse)
    if violations:
        raise DiscourseInvalidError(violations)

    rejection_log: dict[int, tuple[Rejection, ...]] = {}
    for index, keyed, rejections in _beams(discourse, config):
        rejection_log[index] = rejections
    return ResolveResult(tuple(h for _, h in keyed), rejection_log)
