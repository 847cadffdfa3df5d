"""Core data model for annotated Japanese discourse and centering states.

A discourse is a sequence of utterances over a declared inventory of
entities.  Each utterance is built around a verb frame that subcategorizes
for a fixed set of grammatical roles; every subcategorized slot is either
overtly realized by an entity-denoting NP or left unexpressed (a zero).
Resolving a discourse means binding every zero to an entity and tracking,
utterance by utterance, a local attentional state: the backward-looking
center Cb (what the utterance is about) and the forward-looking center
list Cf (the realized arguments, ordered by salience).

All types here are immutable values.  Mutation never happens after
construction; derived states are built fresh by the rule and engine
modules.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional


class GrammaticalRole(enum.Enum):
    """Subcategorized argument slots, in decreasing structural prominence.

    The member order is the canonical subcategorization order: subject,
    indirect/second object, direct object, then any oblique.  A lower
    value means higher prominence.
    """

    SUBJ = 0
    OBJ2 = 1
    OBJ = 2
    OTHER = 3


class Marking(enum.Enum):
    """Surface particle annotated on an overt argument.

    WA marks the grammatical topic and is the only marking the rules
    consult.  The case particles (ga, ni, o) and NONE are carried through
    for faithfulness to the annotation but do not affect salience directly.
    """

    WA = "wa"
    GA = "ga"
    NI = "ni"
    O = "o"
    NONE = "none"


class SalienceRole(enum.Enum):
    """Salience tier an entity occupies in a Cf list.

    Lower tier number means more salient.  Topics (zero or grammatical)
    outrank empathy loci, which outrank plain grammatical roles; among
    grammatical roles the subject outranks the second object, which
    outranks the direct object, which outranks obliques.
    """

    ZERO_TOPIC = 0
    GRAMM_TOPIC = 1
    EMPATHY = 2
    SUBJ = 3
    OBJ2 = 4
    OBJ = 5
    OTHER = 6

    @property
    def rank(self) -> int:
        return self.value


#: Salience tier a grammatical role maps to when no topic/empathy applies.
GRAMMATICAL_SALIENCE: Mapping[GrammaticalRole, SalienceRole] = {
    GrammaticalRole.SUBJ: SalienceRole.SUBJ,
    GrammaticalRole.OBJ2: SalienceRole.OBJ2,
    GrammaticalRole.OBJ: SalienceRole.OBJ,
    GrammaticalRole.OTHER: SalienceRole.OTHER,
}


class SortalConstraint(enum.Enum):
    """Selectional restriction a frame places on one of its slots."""

    ANIMATE = "animate"
    ANY = "any"


class Transition(enum.Enum):
    """Centering transition between consecutive utterances.

    Ordered from most to least coherent; the ordinal doubles as the cost
    a step contributes to a hypothesis score.
    """

    CONTINUE = 0
    RETAIN = 1
    SMOOTH_SHIFT = 2
    ROUGH_SHIFT = 3

    @property
    def ordinal(self) -> int:
        return self.value


class Significance(enum.Enum):
    """Whether a surveyed reading preference is statistically significant."""

    SIGNIFICANT = "significant"
    AMBIGUOUS = "ambiguous"


@dataclass(frozen=True)
class Entity:
    """A discourse entity declared up front for the whole discourse.

    hearer_old marks entities the hearer can identify without prior
    mention (e.g. referents of topics); only such entities may antecede a
    zero that reaches outside the previous utterance's Cf.  definite
    gates the wa topic marker.
    """

    id: str
    animate: bool
    hearer_old: bool
    definite: bool

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("entity id must be non-empty")


@dataclass(frozen=True)
class Realization:
    """How a subcategorized slot is realized: an overt NP or a zero.

    An overt realization names the entity its NP denotes.  A zero carries
    no entity; binding zeros to entities is the resolver's job.
    """

    entity_id: Optional[str]

    @staticmethod
    def overt(entity_id: str) -> "Realization":
        if not entity_id:
            raise ValueError("overt realization needs an entity id")
        return Realization(entity_id)

    @staticmethod
    def zero() -> "Realization":
        return Realization(None)

    @property
    def is_zero(self) -> bool:
        return self.entity_id is None


@dataclass(frozen=True)
class Argument:
    """One subcategorized slot of an utterance: role, particle, realization."""

    role: GrammaticalRole
    marking: Marking
    realization: Realization

    def __post_init__(self) -> None:
        if self.realization.is_zero and self.marking is not Marking.NONE:
            raise ValueError(
                f"zero at {self.role.name.lower()} cannot carry marking "
                f"{self.marking.value!r}"
            )


@dataclass(frozen=True)
class VerbFrame:
    """A verb's subcategorization frame.

    subcat lists the roles the verb selects, in canonical order.  sortal
    maps roles to selectional restrictions (roles absent from the map are
    unrestricted).  empathy_locus, when set, names the slot whose referent
    the verb presents from the inside (speaker-perspective verbs such as
    benefactives); the entity filling it is promoted in salience.
    """

    lemma: str
    subcat: tuple[GrammaticalRole, ...]
    sortal: Mapping[GrammaticalRole, SortalConstraint] = field(default_factory=dict)
    empathy_locus: Optional[GrammaticalRole] = None

    def __post_init__(self) -> None:
        if not self.lemma:
            raise ValueError("verb frame needs a lemma")
        if not self.subcat:
            raise ValueError(f"{self.lemma}: subcat must be non-empty")
        if len(set(self.subcat)) != len(self.subcat):
            raise ValueError(f"{self.lemma}: duplicate role in subcat")
        for role in self.sortal:
            if role not in self.subcat:
                raise ValueError(
                    f"{self.lemma}: sortal constraint on non-subcategorized "
                    f"role {role.name.lower()}"
                )
        if self.empathy_locus is not None and self.empathy_locus not in self.subcat:
            raise ValueError(
                f"{self.lemma}: empathy locus {self.empathy_locus.name.lower()} "
                f"not in subcat"
            )

    def constraint(self, role: GrammaticalRole) -> SortalConstraint:
        return self.sortal.get(role, SortalConstraint.ANY)


@dataclass(frozen=True)
class Utterance:
    """One annotated utterance.

    index is the 1-based position in the discourse.  args realize exactly
    the frame's subcategorized roles, in subcat order.  others lists
    entities mentioned overtly outside the subcategorized frame (adjuncts);
    they count as mentions but never enter the Cf.  gloss is free-form
    documentation.
    """

    index: int
    frame: VerbFrame
    args: tuple[Argument, ...]
    others: tuple[str, ...] = ()
    gloss: str = ""

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError("utterance index is 1-based")
        arg_roles = [a.role for a in self.args]
        if arg_roles != list(self.frame.subcat):
            raise ValueError(
                f"utterance {self.index}: args must realize exactly the "
                f"subcat roles in order (got {[r.name.lower() for r in arg_roles]}, "
                f"frame {[r.name.lower() for r in self.frame.subcat]})"
            )
        wa_count = sum(1 for a in self.args if a.marking is Marking.WA)
        if wa_count > 1:
            raise ValueError(f"utterance {self.index}: more than one wa-marked argument")

    @property
    def wa_argument(self) -> Optional[Argument]:
        for a in self.args:
            if a.marking is Marking.WA:
                return a
        return None


@dataclass(frozen=True)
class Discourse:
    """A whole annotated discourse: entity inventory plus utterances."""

    entities: tuple[Entity, ...]
    utterances: tuple[Utterance, ...]

    def __post_init__(self) -> None:
        ids = [e.id for e in self.entities]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate entity id")
        if not self.utterances:
            raise ValueError("discourse needs at least one utterance")
        for pos, u in enumerate(self.utterances, start=1):
            if u.index != pos:
                raise ValueError(
                    f"utterance at position {pos} carries index {u.index}"
                )

    @cached_property
    def entity_map(self) -> Mapping[str, Entity]:
        """Each entity by id.

        Built on first use and cached on the instance; it is not a field,
        so equality and repr ignore it.
        """
        return {e.id: e for e in self.entities}

    @cached_property
    def hearer_old_ids(self) -> tuple[str, ...]:
        """Ids of the hearer-old entities, in declaration order (cached as above)."""
        return tuple(e.id for e in self.entities if e.hearer_old)

    @cached_property
    def entity_index(self) -> Mapping[str, int]:
        """Declaration-order index of each entity id, for deterministic keys (cached as above)."""
        return {e.id: i for i, e in enumerate(self.entities)}


#: A complete binding of an utterance's subcategorized slots to entities,
#: keyed in subcat order.  Treated as an immutable value once built.
Assignment = dict[GrammaticalRole, str]


#: One Cf slot: the entity and the salience tier that put it there.
CfEntry = tuple[str, SalienceRole]


@dataclass(frozen=True)
class CenterState:
    """Attentional state after an utterance: one Cb and the ordered Cf.

    cb is an entity id, or None while it is uninstantiated: a
    discourse-initial utterance without a wa topic leaves it open until a
    later utterance pins it down.  Invariants: the Cf is non-empty, lists
    each entity at most once, and contains the Cb whenever it is set.
    """

    cb: Optional[str]
    cf: tuple[CfEntry, ...]

    def __post_init__(self) -> None:
        if not self.cf:
            raise ValueError("cf must be non-empty")
        ids = [e for e, _ in self.cf]
        if len(set(ids)) != len(ids):
            raise ValueError("cf lists an entity twice")
        if self.cb is not None and self.cb not in ids:
            raise ValueError("instantiated cb must appear in cf")

    @property
    def cf_ids(self) -> tuple[str, ...]:
        return tuple(e for e, _ in self.cf)


@dataclass(frozen=True)
class Step:
    """One resolved utterance inside a hypothesis.

    transition is None for a discourse-initial utterance or a segment
    reset (no link to the previous state).  zta_applied marks readings
    whose Cf was reordered by zero topic assignment.
    """

    utterance_index: int
    assignment: Assignment
    state: CenterState
    transition: Optional[Transition]
    zta_applied: bool = False

    @property
    def transition_cost(self) -> int:
        return self.transition.ordinal if self.transition is not None else 0


@dataclass(frozen=True)
class Hypothesis:
    """A reading of the discourse so far: one step per utterance.

    Its score is derived from the steps, never stored: the sum of their
    transition ordinals (initial and reset steps add 0); lower is better.
    """

    steps: tuple[Step, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("hypothesis needs at least one step")

    @property
    def score(self) -> int:
        return sum(s.transition_cost for s in self.steps)

    @property
    def last(self) -> Step:
        return self.steps[-1]

    def step_at(self, utterance_index: int) -> Step:
        """The step of utterance utterance_index (1-based)."""
        if not 1 <= utterance_index <= len(self.steps):
            raise IndexError(
                f"no utterance {utterance_index} in a reading of {len(self.steps)}"
            )
        return self.steps[utterance_index - 1]


# --------------------------------------------------------------------------
# Discourse-level validation


class ViolationCode(enum.Enum):
    """Annotation felicity violations reported by validate_discourse."""

    WA_ON_INDEFINITE = "WA_ON_INDEFINITE"
    EMPATHY_NOT_EVOKED = "EMPATHY_NOT_EVOKED"
    UNDECLARED_ENTITY = "UNDECLARED_ENTITY"


@dataclass(frozen=True)
class Violation:
    """One felicity violation, located by utterance and slot."""

    code: ViolationCode
    utterance_index: int
    slot: Optional[GrammaticalRole]
    message: str

    def __str__(self) -> str:
        where = f"utterance {self.utterance_index}"
        if self.slot is not None:
            where += f", {self.slot.name.lower()}"
        return f"{self.code.value} ({where}): {self.message}"


def validate_discourse(discourse: Discourse) -> list[Violation]:
    """Check annotation felicity; collect every violation, never abort early.

    Three checks:
      * every entity referenced by a realization or an others list is
        declared (UNDECLARED_ENTITY);
      * a wa-marked argument's entity is definite (WA_ON_INDEFINITE: the
        topic particle presupposes an identifiable referent);
      * an overt argument at a verb's empathy locus refers to an evoked
        entity - hearer-old, or overtly mentioned in an earlier utterance
        (EMPATHY_NOT_EVOKED: perspective-loaded verbs cannot introduce
        their perspective holder cold).
    """
    violations: list[Violation] = []
    declared = discourse.entity_map
    mentioned_before: set[str] = set()

    for u in discourse.utterances:
        mentioned_here: set[str] = set()
        for a in u.args:
            if a.realization.is_zero:
                continue
            eid = a.realization.entity_id
            assert eid is not None
            if eid not in declared:
                violations.append(
                    Violation(
                        ViolationCode.UNDECLARED_ENTITY,
                        u.index,
                        a.role,
                        f"realization names undeclared entity {eid!r}",
                    )
                )
                continue
            mentioned_here.add(eid)
            entity = declared[eid]
            if a.marking is Marking.WA and not entity.definite:
                violations.append(
                    Violation(
                        ViolationCode.WA_ON_INDEFINITE,
                        u.index,
                        a.role,
                        f"topic marker on indefinite entity {eid!r}",
                    )
                )
            if (
                u.frame.empathy_locus is a.role
                and not entity.hearer_old
                and eid not in mentioned_before
            ):
                violations.append(
                    Violation(
                        ViolationCode.EMPATHY_NOT_EVOKED,
                        u.index,
                        a.role,
                        f"empathy locus of {u.frame.lemma!r} filled by "
                        f"unevoked entity {eid!r}",
                    )
                )
        for eid in u.others:
            if eid not in declared:
                violations.append(
                    Violation(
                        ViolationCode.UNDECLARED_ENTITY,
                        u.index,
                        None,
                        f"others list names undeclared entity {eid!r}",
                    )
                )
            else:
                mentioned_here.add(eid)
        mentioned_before |= mentioned_here

    return violations
