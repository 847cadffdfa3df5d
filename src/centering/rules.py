"""Centering rules: salience, Cf ranking, Cb computation, transitions, filters.

These functions are the per-utterance building blocks the resolution
engine composes.  Given an utterance and a candidate assignment of its
zeros, they decide how salient each realized entity is, which entity can
serve as the backward-looking center, how the move from the previous
state classifies, and whether the candidate is outright impossible.

Salience ordering for Japanese Cf lists, from most to least salient:

    zero topic > grammatical (wa) topic > empathy locus
              > subject > second object > direct object > others

A zero topic, when assigned, displaces the wa topic: the wa-marked
argument then counts only by its grammatical role.  Salience is ranked
only for injective bindings - the arguments of one verb are disjoint in
reference (contra-indexing), as generation and filter_assignment's
CONTRA_INDEX ensure - so each entity fills one slot and takes that
slot's tier, and ties between entities on the same tier fall back to
subcat order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .model import (
    Assignment,
    CenterState,
    CfEntry,
    Entity,
    GRAMMATICAL_SALIENCE,
    Marking,
    SalienceRole,
    SortalConstraint,
    Transition,
    Utterance,
)


@dataclass(frozen=True)
class RoleBinding:
    """One realized entity with the salience tier and slot that earned it.

    subcat_pos is the position of the earning slot in the frame's subcat
    order; it breaks ties between entities on the same salience tier.
    """

    entity_id: str
    salience: SalienceRole
    subcat_pos: int


def assign_salience_roles(
    utterance: Utterance,
    assignment: Assignment,
    zero_topic: Optional[str] = None,
) -> list[RoleBinding]:
    """Map every bound entity to the salience role its slot earns.

    The assignment must bind every subcategorized slot, each to its own
    entity: an assignment that puts one entity in two slots raises
    ValueError.  If zero_topic is given, it must be an entity the
    assignment binds at some zero slot; that entity takes the ZERO_TOPIC
    tier and any wa-marked argument is demoted to its plain grammatical
    role.  Output preserves subcat order (one binding per slot).
    """
    if zero_topic is not None:
        bound_at_zero = {
            assignment[a.role]
            for a in utterance.args
            if a.realization.is_zero and a.role in assignment
        }
        if zero_topic not in bound_at_zero:
            raise ValueError(
                f"zero topic {zero_topic!r} is not bound at any zero slot"
            )

    bindings: list[RoleBinding] = []
    for pos, arg in enumerate(utterance.args):
        role = arg.role
        if role not in assignment:
            raise ValueError(f"assignment misses subcategorized role {role}")
        entity_id = assignment[role]
        if any(b.entity_id == entity_id for b in bindings):
            raise ValueError(f"entity {entity_id!r} fills two slots")

        if zero_topic is not None and entity_id == zero_topic:
            salience = SalienceRole.ZERO_TOPIC
        elif arg.marking is Marking.WA and zero_topic is None:
            salience = SalienceRole.GRAMM_TOPIC
        elif utterance.frame.empathy_locus is role:
            salience = SalienceRole.EMPATHY
        else:
            salience = GRAMMATICAL_SALIENCE[role]

        bindings.append(RoleBinding(entity_id, salience, pos))
    return bindings


def rank_cf(bindings: Sequence[RoleBinding]) -> tuple[CfEntry, ...]:
    """Order bindings into a Cf list: salience tier, then subcat position.

    The sort is total and deterministic: no two bindings share both a tier
    and a subcat position (each slot contributes at most one binding).
    """
    ordered = sorted(bindings, key=lambda b: (b.salience.rank, b.subcat_pos))
    return tuple((b.entity_id, b.salience) for b in ordered)


def compute_cb_candidates(
    prev: Optional[CenterState], assignment: Assignment
) -> list[str]:
    """Candidate backward-looking centers for an utterance.

    The Cb must come from the previous Cf, restricted to entities the
    current assignment realizes.  With an instantiated previous Cb the
    highest-ranked such entity is forced (singleton list); with an
    uninstantiated previous Cb every realized previous-Cf entity is a
    live candidate, in previous-Cf order.  An empty list signals a
    segment reset: nothing links the utterances.  A discourse-initial
    utterance (prev None) has no candidates.
    """
    if prev is None:
        return []
    realized = set(assignment.values())
    in_cf_order = [eid for eid in prev.cf_ids if eid in realized]
    if not in_cf_order:
        return []
    if prev.cb is not None:
        return [in_cf_order[0]]
    return in_cf_order


def classify_transition(
    prev_cb: Optional[str], current_cb: str, current_cp: str
) -> Transition:
    """Classify a move given the previous Cb (None if open) and the current Cb/Cp.

    Keeping the same center (or pinning down a previously uninstantiated
    one) while it also heads the new Cf is a CONTINUE; keeping it without
    headship is a RETAIN.  Changing the center splits the same way into
    SMOOTH_SHIFT (new center heads the Cf) and ROUGH_SHIFT.
    """
    same_or_new = prev_cb is None or prev_cb == current_cb
    if same_or_new:
        return Transition.CONTINUE if current_cb == current_cp else Transition.RETAIN
    return Transition.SMOOTH_SHIFT if current_cb == current_cp else Transition.ROUGH_SHIFT


class RejectionCode:
    """Why a candidate assignment/Cb pairing is impossible."""

    CONTRA_INDEX = "CONTRA_INDEX"
    SORTAL = "SORTAL"
    RULE_1 = "RULE_1"
    ZERO_ANTECEDENT = "ZERO_ANTECEDENT"


def filter_assignment(
    utterance: Utterance,
    assignment: Assignment,
    prev: Optional[CenterState],
    cb: Optional[str],
    entities: Mapping[str, Entity],
) -> Optional[str]:
    """Return a rejection code for an impossible candidate, or None to pass.

    Checks, in order:
      * CONTRA_INDEX - two subcategorized slots bound to one entity
        (arguments of a single verb are disjoint in reference);
      * SORTAL - a slot's selectional restriction is violated (an
        inanimate entity in an animate-only slot);
      * RULE_1 - some zero realizes an element of the previous Cf while
        the slot realizing the Cb is overt (if anything from the previous
        Cf is pronominalized, the Cb must be);
      * ZERO_ANTECEDENT - a zero is bound to an entity that is neither in
        the previous Cf nor hearer-old (zeros need recoverable referents).

    Utterances with no zeros are never rejected by RULE_1 or
    ZERO_ANTECEDENT.
    """
    values = [assignment[a.role] for a in utterance.args]
    if len(set(values)) != len(values):
        return RejectionCode.CONTRA_INDEX

    for arg in utterance.args:
        constraint = utterance.frame.constraint(arg.role)
        if constraint is SortalConstraint.ANIMATE:
            if not entities[assignment[arg.role]].animate:
                return RejectionCode.SORTAL

    prev_cf_ids = set(prev.cf_ids) if prev is not None else set()

    if prev is not None and cb is not None:
        zero_realizes_old = any(
            a.realization.is_zero and assignment[a.role] in prev_cf_ids
            for a in utterance.args
        )
        if zero_realizes_old:
            cb_arg = next(a for a in utterance.args if assignment[a.role] == cb)
            if not cb_arg.realization.is_zero:
                return RejectionCode.RULE_1

    for arg in utterance.args:
        if not arg.realization.is_zero:
            continue
        bound = assignment[arg.role]
        if bound in prev_cf_ids:
            continue
        if not entities[bound].hearer_old:
            return RejectionCode.ZERO_ANTECEDENT

    return None
