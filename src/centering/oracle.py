"""Brute-force reference enumerator and engine/oracle equivalence check.

This module re-derives the full set of discourse readings by plain
exhaustive enumeration: every utterance, every way of binding its zeros,
every admissible backward-looking center, every zero-topic variant, with
no beam, no pruning shortcuts and no reuse of the engine's rule
functions.  It exists to catch bugs in the engine (and vice versa), so
the two routes share only the published definitions:

  * antecedent pool: previous Cf in order, then hearer-old entities in
    declaration order;
  * Cb candidates: previous-Cf entities realized by the assignment -
    forced to the highest ranked when the previous Cb is instantiated -
    or no Cb (a reset) when none is realized;
  * filters: contra-indexing, sortal constraints, the pronoun rule (if a
    zero realizes previous-Cf material the Cb's slot must be a zero), and
    recoverability (zeros bind inside the previous Cf or to hearer-old
    entities, the latter only when no reading stays inside the Cf);
  * salience tiers: zero topic > wa topic > empathy > subj > obj2 > obj >
    other, ties by subcat position (a zero topic demotes the wa topic to
    its grammatical role); the Cf is ranked only for bindings that passed
    the filters, which are injective, so each entity fills one slot and
    takes that slot's tier;
  * transitions per the standard two-by-two table, costs
    continue=0 < retain=1 < smooth_shift=2 < rough_shift=3;
  * zero topic assignment: only when the parent center is instantiated
    and no plain candidate is a CONTINUE; only a subject or second-object
    zero bound to the parent center qualifies; variants are extra
    readings;
  * retroactive instantiation: a newly determined Cb is written back into
    an immediately preceding step whose Cb was uninstantiated; it is
    always realized there, since a Cb comes from that step's Cf, which
    lists every entity the step binds;
  * reading order: cumulative score, then transition ordinals from the
    last step backwards (initial/reset = -1), then a content key over
    entity declaration indices.

Each raw binding is filtered once per Cb option, and ranked and turned
into its signature once, when the first option passes.  Readings are
compared between the routes as plain signatures (tuples of primitives),
so the comparison itself cannot hide a representation bug.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import AbstractSet, Iterable, Mapping, Optional, Sequence

from .engine import DiscourseInvalidError, EngineConfig, UnresolvableError, resolve
from .model import (
    Discourse,
    Entity,
    GrammaticalRole,
    Hypothesis,
    Marking,
    SalienceRole,
    Transition,
    Utterance,
    ViolationCode,
    validate_discourse,
)

#: Cap on the projected readings of one layer; no layer past it is built.
SIZE_LIMIT = 1_000_000


class SizeLimitError(Exception):
    """A layer's projected reading count passes SIZE_LIMIT.

    The projection sums _projected_bound over the distinct center states
    of the previous layer (the empty state for the first utterance) and
    is checked before any reading of the layer is built.  bound is that
    sum, stopped at the first state that takes it past SIZE_LIMIT: an
    upper bound that may exceed the true count.
    """

    def __init__(self, utterance_index: int, bound: int) -> None:
        self.utterance_index = utterance_index
        self.bound = bound
        super().__init__(
            f"enumeration at utterance {utterance_index} may exceed "
            f"{SIZE_LIMIT} readings (projected upper bound {bound})"
        )


# One resolved utterance, as bare primitives:
# (utterance_index, ((role_name, entity_id), ...), cb_or_None,
#  ((entity_id, tier_name), ...), transition_name_or_None, zta_flag)
StepSignature = tuple

#: Salience tier ranks, lower = more salient.
_TIER_RANK = {
    "zero_topic": 0,
    "gramm_topic": 1,
    "empathy": 2,
    "subj": 3,
    "obj2": 4,
    "obj": 5,
    "other": 6,
}

#: Transition costs.
_COST = {"continue": 0, "retain": 1, "smooth_shift": 2, "rough_shift": 3}

#: The transition table: (previous center kept or newly pinned?, new center
#: heads the Cf?) -> transition.
_TRANSITION_TABLE = {
    (True, True): "continue",
    (True, False): "retain",
    (False, True): "smooth_shift",
    (False, False): "rough_shift",
}

#: Slots from which a zero may be read as zero topic.
_ZERO_TOPIC_ROLES = (GrammaticalRole.SUBJ, GrammaticalRole.OBJ2)

#: The lowercase name of each role, tier and transition; None stays None.
_NAME = {
    member: member.name.lower()
    for kind in (GrammaticalRole, SalienceRole, Transition)
    for member in kind
} | {None: None}


@dataclass(frozen=True)
class GlobalReading:
    """One complete reading of the discourse, as comparable signatures."""

    steps: tuple[StepSignature, ...]
    score: int


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of comparing the engine against the enumerator."""

    equivalent: bool
    engine_count: int
    oracle_count: int
    detail: str


def _tier_for(arg, utterance: Utterance, entity_id: str, zero_topic: Optional[str]) -> str:
    if zero_topic is not None and entity_id == zero_topic:
        return "zero_topic"
    if arg.marking is Marking.WA and zero_topic is None:
        return "gramm_topic"
    if utterance.frame.empathy_locus is arg.role:
        return "empathy"
    return _NAME[arg.role]


def _cf_list(
    utterance: Utterance,
    assignment: Mapping,
    zero_topic: Optional[str],
) -> tuple[tuple[str, str], ...]:
    """Salience-ordered (entity, tier) pairs of a binding that passed _reject.

    Such a binding is injective, so each slot gives its own entity one
    tier; ties keep subcat order.
    """
    pairs = [
        (assignment[a.role], _tier_for(a, utterance, assignment[a.role], zero_topic))
        for a in utterance.args
    ]
    return tuple(sorted(pairs, key=lambda pair: _TIER_RANK[pair[1]]))


def _reject(
    utterance: Utterance,
    assignment: Mapping,
    old: AbstractSet[str],
    cb: Optional[str],
    entities: Mapping,
) -> bool:
    """True if the candidate breaks any hard constraint; old is the previous Cf."""
    values = [assignment[a.role] for a in utterance.args]
    if len(set(values)) != len(values):
        return True
    for arg in utterance.args:
        constraint = utterance.frame.sortal.get(arg.role)
        if constraint is not None and constraint.value == "animate":
            if not entities[assignment[arg.role]].animate:
                return True
    zeros = [assignment[a.role] for a in utterance.args if a.realization.is_zero]
    if cb is not None and cb not in zeros and any(z in old for z in zeros):
        return True
    return any(z not in old and not entities[z].hearer_old for z in zeros)


def _raw_assignments(
    utterance: Utterance, pool: Sequence[str]
) -> Iterable[dict]:
    """Cartesian zero bindings in pool order; constraints filtered later."""
    roles = [a.role for a in utterance.args]
    slots = [a.realization.entity_id for a in utterance.args]
    zeros = [p for p, a in enumerate(utterance.args) if a.realization.is_zero]
    for combo in itertools.product(pool, repeat=len(zeros)):
        for p, entity_id in zip(zeros, combo):
            slots[p] = entity_id
        yield dict(zip(roles, slots))


def _parent_candidates(
    utterance: Utterance,
    prev_cf: tuple[tuple[str, str], ...],
    prev_cb: Optional[str],
    config: EngineConfig,
    entities: Mapping[str, Entity],
    hearer_old: Sequence[str],
) -> list[tuple[StepSignature, int]]:
    """All surviving readings of one utterance after one parent state.

    entities and hearer_old are the discourse's entity_map and
    hearer_old_ids.  Returns (signature, cost) pairs in deterministic
    order: assignments in pool-product order, Cb candidates in
    previous-Cf order (no Cb when nothing links back), zero-topic
    variants appended after the plain candidates.  A reading is inside
    when every zero binds a previous-Cf entity; the outside ones survive
    only when no inside one does.
    """
    prev_cf_ids = [eid for eid, _ in prev_cf]
    old = frozenset(prev_cf_ids)
    pool = prev_cf_ids + [eid for eid in hearer_old if eid not in old]

    inside: list[tuple[StepSignature, int]] = []
    outside: list[tuple[StepSignature, int]] = []
    for assignment in _raw_assignments(utterance, pool):
        realized = set(assignment.values())
        linked = [eid for eid in prev_cf_ids if eid in realized]
        cf = None
        for cb in (linked[:1] if prev_cb is not None else linked) or [None]:
            if _reject(utterance, assignment, old, cb, entities):
                continue
            if cf is None:
                cf = _cf_list(utterance, assignment, None)
                items = tuple((_NAME[a.role], assignment[a.role]) for a in utterance.args)
                zeros_inside = all(
                    assignment[a.role] in old for a in utterance.args if a.realization.is_zero
                )
            transition = None
            if cb is not None:
                transition = _TRANSITION_TABLE[(prev_cb in (None, cb), cb == cf[0][0])]
            sig = (utterance.index, items, cb, cf, transition, False)
            (inside if zeros_inside else outside).append((sig, _COST.get(transition, 0)))
    readings = inside or outside

    if (
        not config.zta_enabled
        or prev_cb is None
        or any(sig[4] == "continue" for sig, _cost in readings)
    ):
        return readings
    variants = []
    for sig, _cost in readings:
        index, items, cb = sig[:3]
        if cb != prev_cb:
            continue
        assignment = {a.role: eid for a, (_, eid) in zip(utterance.args, items)}
        slot = next(
            (a.role for a in utterance.args
             if a.realization.is_zero and assignment[a.role] == prev_cb),
            None,
        )
        if slot not in _ZERO_TOPIC_ROLES:
            continue
        cf = _cf_list(utterance, assignment, prev_cb)
        transition = _TRANSITION_TABLE[(True, cb == cf[0][0])]
        variants.append(((index, items, cb, cf, transition, True), _COST[transition]))
    return readings + variants


def _unify(steps: tuple[StepSignature, ...], cb: Optional[str]) -> tuple[StepSignature, ...]:
    """Write a newly determined center back into an uninstantiated parent step."""
    if cb is None or not steps:
        return steps
    last = steps[-1]
    if last[2] is not None:
        return steps
    fixed = (last[0], last[1], cb, last[3], last[4], last[5])
    return steps[:-1] + (fixed,)


def _projected_bound(
    utterance: Utterance,
    state: tuple,
    count: int,
    config: EngineConfig,
    hearer_old: frozenset[str],
) -> int:
    """Upper bound on the readings that count parents in state give utterance.

    state is the parents' last (Cf, Cb).  The bound never underestimates
    and may exceed the true count: every zero ranges over the whole pool,
    the hearer-old entities plus the rest of the previous Cf (which lists
    each entity once); while the previous Cb is open a binding may pair
    with each previous-Cf entity as Cb, and once it is set each reading
    may add a zero-topic variant, since ZTA needs an instantiated parent
    center.
    """
    prev_cf, prev_cb = state
    n_zeros = sum(1 for a in utterance.args if a.realization.is_zero)
    pool = len(hearer_old) + sum(1 for eid, _ in prev_cf if eid not in hearer_old)
    if prev_cb is None:
        per_binding = max(1, len(prev_cf))
    else:
        per_binding = 2 if config.zta_enabled else 1
    return count * pool**n_zeros * per_binding


def _reading_sort_key(reading: GlobalReading, entity_index: Mapping[str, int]) -> tuple:
    recency = tuple(
        _COST[s[4]] if s[4] is not None else -1
        for s in reversed(reading.steps)
    )
    content = tuple(
        (
            tuple(entity_index[eid] for _, eid in s[1]),
            entity_index.get(s[2], -1) if s[2] is not None else -1,
            int(s[5]),
        )
        for s in reading.steps
    )
    return (reading.score, recency, content)


def _enumerate(
    discourse: Discourse, config: EngineConfig
) -> tuple[list[GlobalReading], Optional[int], int]:
    """All complete readings best first, the first dead utterance, the widest layer.

    Readings are grouped by their last center state (Cf, Cb), which is
    all the next utterance's candidates depend on, so each distinct
    state is sized and expanded once per utterance.  The discourse
    starts from an empty state (no Cf, no Cb), and each reading of the
    first utterance takes the wa topic's entity, if any, as its Cb.
    Before any reading of a layer is built, the projected bounds of its
    states are summed, and SizeLimitError is raised once the sum passes
    SIZE_LIMIT.  The widest-layer count lets the equivalence check size
    the engine beam so that no intermediate truncation can occur (a
    mid-discourse layer may be larger than the final reading count).
    Raises DiscourseInvalidError if the discourse names an undeclared
    entity.  The other felicity violations do not stop the enumeration,
    but `resolve` refuses them, so check_equivalence raises
    DiscourseInvalidError on any violation.
    """
    undeclared = [
        v for v in validate_discourse(discourse)
        if v.code is ViolationCode.UNDECLARED_ENTITY
    ]
    if undeclared:
        raise DiscourseInvalidError(undeclared)
    hearer_old_set = frozenset(discourse.hearer_old_ids)
    first = discourse.utterances[0]
    topic = next(
        (a.realization.entity_id for a in first.args if a.marking is Marking.WA), None
    )
    states: dict[tuple, list[GlobalReading]] = {((), None): [GlobalReading((), 0)]}
    max_layer = 0

    for utterance in discourse.utterances:
        bound = 0
        for state, readings in states.items():
            bound += _projected_bound(utterance, state, len(readings), config, hearer_old_set)
            if bound > SIZE_LIMIT:
                raise SizeLimitError(utterance.index, bound)
        layer: dict[tuple, list[GlobalReading]] = {}
        for (prev_cf, prev_cb), readings in states.items():
            children = _parent_candidates(
                utterance, prev_cf, prev_cb, config,
                discourse.entity_map, discourse.hearer_old_ids,
            )
            if utterance is first:
                children = [(sig[:2] + (topic,) + sig[3:], cost) for sig, cost in children]
            for reading in readings:
                for sig, cost in children:
                    steps = _unify(reading.steps, sig[2]) + (sig,)
                    layer.setdefault((sig[3], sig[2]), []).append(
                        GlobalReading(steps, reading.score + cost)
                    )
        if not layer:
            return [], utterance.index, max_layer
        states = layer
        max_layer = max(max_layer, sum(map(len, layer.values())))

    readings = [r for group in states.values() for r in group]
    readings.sort(key=lambda r: _reading_sort_key(r, discourse.entity_index))
    return readings, None, max_layer


def enumerate_all(
    discourse: Discourse, config: EngineConfig = EngineConfig()
) -> list[GlobalReading]:
    """Every complete reading of the discourse, best first.

    Exhaustive and beam-free; raises SizeLimitError before building a
    layer whose projected upper bound (see _projected_bound), which may
    exceed its true size, passes SIZE_LIMIT.  An empty list means some
    utterance admits no reading.
    """
    return _enumerate(discourse, config)[0]


def _readings_of(hypotheses: Sequence[Hypothesis]) -> list[GlobalReading]:
    """Flatten engine hypotheses into the comparable signature form.

    Readings share their earlier steps, so each distinct Step is
    flattened once; keying by id is sound while hypotheses holds them.
    """
    flat: dict[int, StepSignature] = {}
    readings = []
    for hypothesis in hypotheses:
        steps = []
        for s in hypothesis.steps:
            sig = flat.get(id(s))
            if sig is None:
                items = tuple((_NAME[role], eid) for role, eid in s.assignment.items())
                cf = tuple((eid, _NAME[tier]) for eid, tier in s.state.cf)
                sig = flat[id(s)] = (
                    s.utterance_index, items, s.state.cb, cf, _NAME[s.transition], s.zta_applied
                )
            steps.append(sig)
        readings.append(GlobalReading(tuple(steps), hypothesis.score))
    return readings


def check_equivalence(
    discourse: Discourse, config: EngineConfig = EngineConfig()
) -> EquivalenceReport:
    """Compare the engine's ranked beam against the exhaustive enumeration.

    The beam is widened to the oracle's reading count so truncation cannot
    hide a difference; set and order must both agree, and error cases must
    agree too (engine UNRESOLVABLE at utterance k matches an enumeration
    that dies at k).
    """
    readings, first_dead, max_layer = _enumerate(discourse, config)

    width = max(config.beam_width, max_layer, 1)
    try:
        result = resolve(discourse, replace(config, beam_width=width))
    except UnresolvableError as err:
        if not readings and first_dead == err.utterance_index:
            return EquivalenceReport(
                True, 0, 0,
                f"both routes fail at utterance {err.utterance_index}",
            )
        return EquivalenceReport(
            False, 0, len(readings),
            f"engine unresolvable at utterance {err.utterance_index}, "
            f"oracle found {len(readings)} readings",
        )

    if not readings:
        return EquivalenceReport(
            False, len(result.hypotheses), 0,
            f"oracle dies at utterance {first_dead}, engine found readings",
        )

    engine_readings = _readings_of(result.hypotheses)
    if len(engine_readings) != len(readings):
        return EquivalenceReport(
            False, len(engine_readings), len(readings),
            f"count mismatch: engine {len(engine_readings)}, oracle {len(readings)}",
        )
    for pos, (ours, theirs) in enumerate(zip(engine_readings, readings)):
        if ours != theirs:
            return EquivalenceReport(
                False, len(engine_readings), len(readings),
                f"readings diverge at rank {pos}: engine {ours}, oracle {theirs}",
            )
    return EquivalenceReport(
        True, len(engine_readings), len(readings),
        f"{len(readings)} readings agree in content and order",
    )
