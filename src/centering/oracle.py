"""Brute-force reference enumerator and engine/oracle equivalence check.

This module re-derives the full set of discourse readings by plain
exhaustive enumeration: every utterance, every way of binding its zeros,
every admissible backward-looking center, every zero-topic variant, with
no beam, no pruning shortcuts and no reuse of the engine's rule
functions.  It exists to catch bugs in the engine (and vice versa), so
the two routes share only the published definitions:

  * antecedent pool: previous Cf in order, then hearer-old entities in
    declaration order;
  * salience tiers: zero topic > wa topic > empathy > subj > obj2 > obj >
    other, one tier per entity, ties by subcat position (a zero topic
    demotes the wa topic to its grammatical role);
  * Cb candidates: previous-Cf entities realized by the assignment -
    forced to the highest ranked when the previous Cb is instantiated;
  * filters: contra-indexing, sortal constraints, the pronoun rule (if a
    zero realizes previous-Cf material the Cb's slot must be a zero), and
    recoverability (zeros bind inside the previous Cf or to hearer-old
    entities, the latter only when no reading stays inside the Cf);
  * transitions per the standard two-by-two table, costs
    continue=0 < retain=1 < smooth_shift=2 < rough_shift=3;
  * zero topic assignment: only when the parent center is instantiated
    and no plain candidate is a CONTINUE; only a subject or second-object
    zero bound to the parent center qualifies; variants are extra
    readings;
  * retroactive instantiation: a newly determined Cb is written back into
    an immediately preceding step whose Cb was uninstantiated, when
    realized there;
  * reading order: cumulative score, then transition ordinals from the
    last step backwards (initial/reset = -1), then a content key over
    entity declaration indices.

Readings are compared between the routes as plain signatures (tuples of
primitives), so the comparison itself cannot hide a representation bug.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .engine import EngineConfig, UnresolvableError, resolve
from .model import Discourse, Hypothesis, Marking, Utterance

#: Hard cap on the number of readings the enumerator will materialize.
SIZE_LIMIT = 1_000_000


class SizeLimitError(Exception):
    """The discourse's reading space exceeds the enumerable bound."""

    def __init__(self, utterance_index: int, bound: int) -> None:
        self.utterance_index = utterance_index
        self.bound = bound
        super().__init__(
            f"enumeration at utterance {utterance_index} exceeds "
            f"{SIZE_LIMIT} readings (projected {bound})"
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
_ZERO_TOPIC_SLOTS = ("subj", "obj2")


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


def _role_name(role) -> str:
    return role.name.lower()


def _tier_for(arg, utterance: Utterance, entity_id: str, zero_topic: Optional[str]) -> str:
    if zero_topic is not None and entity_id == zero_topic:
        return "zero_topic"
    if arg.marking is Marking.WA and zero_topic is None:
        return "gramm_topic"
    if utterance.frame.empathy_locus is arg.role:
        return "empathy"
    return _role_name(arg.role)


def _cf_list(
    utterance: Utterance,
    assignment: Mapping,
    zero_topic: Optional[str],
) -> tuple[tuple[str, str], ...]:
    """Salience-ordered (entity, tier) pairs, one per distinct entity."""
    best: dict[str, tuple[int, int, str]] = {}
    for pos, arg in enumerate(utterance.args):
        entity_id = assignment[arg.role]
        tier = _tier_for(arg, utterance, entity_id, zero_topic)
        key = (_TIER_RANK[tier], pos, tier)
        if entity_id not in best or key < best[entity_id]:
            best[entity_id] = key
    ordered = sorted(best.items(), key=lambda item: item[1][:2])
    return tuple((entity_id, tier) for entity_id, (_, _, tier) in ordered)


def _reject(
    utterance: Utterance,
    assignment: Mapping,
    prev_cf_ids: Sequence[str],
    cb: Optional[str],
    entities: Mapping,
) -> bool:
    """True if the candidate breaks any hard constraint."""
    values = [assignment[a.role] for a in utterance.args]
    if len(set(values)) != len(values):
        return True
    for arg in utterance.args:
        constraint = utterance.frame.sortal.get(arg.role)
        if constraint is not None and constraint.value == "animate":
            if not entities[assignment[arg.role]].animate:
                return True
    old = set(prev_cf_ids)
    if cb is not None:
        pronominalized_old = [
            a for a in utterance.args
            if a.realization.is_zero and assignment[a.role] in old
        ]
        if pronominalized_old:
            for a in utterance.args:
                if assignment[a.role] == cb and not a.realization.is_zero:
                    return True
    for a in utterance.args:
        if a.realization.is_zero:
            bound = assignment[a.role]
            if bound not in old and not entities[bound].hearer_old:
                return True
    return False


def _raw_assignments(
    utterance: Utterance, pool: Sequence[str]
) -> Iterable[dict]:
    """Cartesian zero bindings in pool order; constraints filtered later."""
    zero_roles = [a.role for a in utterance.args if a.realization.is_zero]
    overt = {
        a.role: a.realization.entity_id
        for a in utterance.args
        if not a.realization.is_zero
    }
    for combo in itertools.product(pool, repeat=len(zero_roles)):
        bound = dict(overt)
        bound.update(dict(zip(zero_roles, combo)))
        yield {a.role: bound[a.role] for a in utterance.args}


def _step_signature(
    utterance: Utterance,
    assignment: Mapping,
    cb: Optional[str],
    cf: tuple[tuple[str, str], ...],
    transition: Optional[str],
    zta: bool,
) -> StepSignature:
    items = tuple((_role_name(a.role), assignment[a.role]) for a in utterance.args)
    return (utterance.index, items, cb, cf, transition, zta)


def _parent_candidates(
    discourse: Discourse,
    utterance: Utterance,
    prev_cf: tuple[tuple[str, str], ...],
    prev_cb: Optional[str],
    config: EngineConfig,
) -> list[tuple[StepSignature, int]]:
    """All surviving readings of one utterance after one parent state.

    Returns (signature, cost) pairs in deterministic order: assignments in
    pool-product order, Cb candidates in previous-Cf order, zero-topic
    variants appended after the plain candidates.
    """
    entities = {e.id: e for e in discourse.entities}
    prev_cf_ids = [eid for eid, _ in prev_cf]
    pool = list(prev_cf_ids)
    for e in discourse.entities:
        if e.hearer_old and e.id not in pool:
            pool.append(e.id)

    plain: list[tuple[dict, Optional[str], tuple, Optional[str], bool]] = []
    for assignment in _raw_assignments(utterance, pool):
        realized = set(assignment.values())
        linked = [eid for eid in prev_cf_ids if eid in realized]
        if not linked:
            if _reject(utterance, assignment, prev_cf_ids, None, entities):
                continue
            cf = _cf_list(utterance, assignment, None)
            plain.append((assignment, None, cf, None, _pure(utterance, assignment, prev_cf_ids)))
            continue
        cb_options = [linked[0]] if prev_cb is not None else linked
        cf = _cf_list(utterance, assignment, None)
        for cb in cb_options:
            if _reject(utterance, assignment, prev_cf_ids, cb, entities):
                continue
            kept = prev_cb is None or prev_cb == cb
            transition = _TRANSITION_TABLE[(kept, cb == cf[0][0])]
            plain.append((assignment, cb, cf, transition, _pure(utterance, assignment, prev_cf_ids)))

    if any(is_pure for *_rest, is_pure in plain):
        plain = [entry for entry in plain if entry[4]]

    variants: list[tuple[dict, Optional[str], tuple, Optional[str], bool]] = []
    zta_allowed = (
        config.zta_enabled
        and prev_cb is not None
        and not any(t == "continue" for *_r, t, _p in plain)
    )
    if zta_allowed:
        for assignment, cb, _cf, _transition, is_pure in plain:
            slot = None
            for arg in utterance.args:
                if arg.realization.is_zero and assignment[arg.role] == prev_cb:
                    slot = _role_name(arg.role)
                    break
            if slot is None or slot not in _ZERO_TOPIC_SLOTS or cb != prev_cb:
                continue
            cf = _cf_list(utterance, assignment, prev_cb)
            kept = prev_cb == cb
            transition = _TRANSITION_TABLE[(kept, cb == cf[0][0])]
            variants.append((assignment, cb, cf, transition, is_pure))

    out: list[tuple[StepSignature, int]] = []
    for assignment, cb, cf, transition, _is_pure in plain:
        cost = _COST[transition] if transition is not None else 0
        out.append((_step_signature(utterance, assignment, cb, cf, transition, False), cost))
    for assignment, cb, cf, transition, _is_pure in variants:
        cost = _COST[transition] if transition is not None else 0
        out.append((_step_signature(utterance, assignment, cb, cf, transition, True), cost))
    return out


def _pure(
    utterance: Utterance,
    assignment: Mapping,
    prev_cf_ids: Sequence[str],
) -> bool:
    old = set(prev_cf_ids)
    return all(
        assignment[a.role] in old
        for a in utterance.args
        if a.realization.is_zero
    )


def _unify(steps: tuple[StepSignature, ...], cb: Optional[str]) -> tuple[StepSignature, ...]:
    """Write a newly determined center back into an uninstantiated parent step."""
    if cb is None or not steps:
        return steps
    last = steps[-1]
    if last[2] is not None:
        return steps
    realized = {entity_id for _, entity_id in last[1]}
    if cb not in realized:
        return steps
    fixed = (last[0], last[1], cb, last[3], last[4], last[5])
    return steps[:-1] + (fixed,)


def _initial_readings(discourse: Discourse) -> list[GlobalReading]:
    entities = {e.id: e for e in discourse.entities}
    first = discourse.utterances[0]
    pool = [e.id for e in discourse.entities if e.hearer_old]
    wa_entity: Optional[str] = None
    for arg in first.args:
        if arg.marking is Marking.WA and not arg.realization.is_zero:
            wa_entity = arg.realization.entity_id
    readings: list[GlobalReading] = []
    for assignment in _raw_assignments(first, pool):
        if _reject(first, assignment, [], None, entities):
            continue
        cf = _cf_list(first, assignment, None)
        sig = _step_signature(first, assignment, wa_entity, cf, None, False)
        readings.append(GlobalReading((sig,), 0))
    return readings


def _projected_bound(
    discourse: Discourse,
    utterance: Utterance,
    readings: Sequence[GlobalReading],
    config: EngineConfig,
) -> int:
    """Cheap upper bound on the next layer's size (never an underestimate)."""
    n_zeros = sum(1 for a in utterance.args if a.realization.is_zero)
    total = 0
    zta_factor = 2 if config.zta_enabled else 1
    for reading in readings:
        prev_cf = reading.steps[-1][3]
        pool = len({eid for eid, _ in prev_cf} | {
            e.id for e in discourse.entities if e.hearer_old
        })
        combos = 1
        for _ in range(n_zeros):
            combos *= pool
        cb_options = 1 if reading.steps[-1][2] is not None else max(1, len(prev_cf))
        total += combos * cb_options * zta_factor
        if total > SIZE_LIMIT:
            break
    return total


def _enumerate(
    discourse: Discourse, config: EngineConfig
) -> tuple[list[GlobalReading], Optional[int], int]:
    """All complete readings, the first dead utterance, the widest layer.

    The widest-layer count lets the equivalence check size the engine
    beam so that no intermediate truncation can occur (a mid-discourse
    layer may be larger than the final reading count).
    """
    readings = _initial_readings(discourse)
    max_layer = len(readings)
    if not readings:
        return [], discourse.utterances[0].index, 0
    if len(readings) > SIZE_LIMIT:
        raise SizeLimitError(discourse.utterances[0].index, len(readings))

    for utterance in discourse.utterances[1:]:
        bound = _projected_bound(discourse, utterance, readings, config)
        if bound > SIZE_LIMIT:
            raise SizeLimitError(utterance.index, bound)
        layer: list[GlobalReading] = []
        expected = 0
        for reading in readings:
            prev = reading.steps[-1]
            children = _parent_candidates(discourse, utterance, prev[3], prev[2], config)
            expected += len(children)
            for sig, cost in children:
                steps = _unify(reading.steps, sig[2])
                layer.append(GlobalReading(steps + (sig,), reading.score + cost))
                if len(layer) > SIZE_LIMIT:
                    raise SizeLimitError(utterance.index, len(layer))
        assert len(layer) == expected, "enumeration bookkeeping out of sync"
        if not layer:
            return [], utterance.index, max_layer
        readings = layer
        max_layer = max(max_layer, len(layer))

    return readings, None, max_layer


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


def enumerate_all(
    discourse: Discourse, config: EngineConfig = EngineConfig()
) -> list[GlobalReading]:
    """Every complete reading of the discourse, best first.

    Exhaustive and beam-free; raises SizeLimitError if the reading space
    would exceed SIZE_LIMIT.  An empty list means some utterance admits
    no reading at all.
    """
    readings, _, _ = _enumerate(discourse, config)
    entity_index = {e.id: i for i, e in enumerate(discourse.entities)}
    readings.sort(key=lambda r: _reading_sort_key(r, entity_index))
    return readings


def hypothesis_signature(hypothesis: Hypothesis) -> GlobalReading:
    """Flatten an engine hypothesis into the comparable signature form."""
    steps = []
    for s in hypothesis.steps:
        items = tuple(
            (_role_name(role), entity_id) for role, entity_id in s.assignment.items()
        )
        cf = tuple((eid, tier.name.lower()) for eid, tier in s.state.cf)
        transition = s.transition.name.lower() if s.transition is not None else None
        steps.append(
            (s.utterance_index, items, s.state.cb.entity_id, cf, transition, s.zta_applied)
        )
    return GlobalReading(tuple(steps), hypothesis.score)


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
    entity_index = {e.id: i for i, e in enumerate(discourse.entities)}
    readings.sort(key=lambda r: _reading_sort_key(r, entity_index))

    width = max(config.beam_width, max_layer, 1)
    engine_config = EngineConfig(
        beam_width=width,
        zta_enabled=config.zta_enabled,
        strict_validation=config.strict_validation,
    )
    try:
        result = resolve(discourse, engine_config)
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

    engine_readings = [hypothesis_signature(h) for h in result.hypotheses]
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
