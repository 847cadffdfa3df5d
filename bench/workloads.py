"""Seeded discourse generators for the synthetic benchmark workloads.

Each generator builds a `Discourse` from a `random.Random`, so the same
seed always yields the same discourse.  The benchmark serializes every
generated discourse to canonical JSON during set-up and times the path a
user takes from that text.

* `long_chain` - a long discourse over six hearer-old animate entities:
  2-3-slot frames, at most two zeros per utterance, and an all-overt
  `ga`-marked segment opener every tenth utterance, the same mix of zero
  counts and frame sizes in every segment.  The opener names
  entities the previous utterance did not, so many readings reset there
  and the next utterance writes its center back into the opener.
* `wide_pool` - an overt three-entity opener with a `wa` topic followed
  by one utterance whose three slots are all zeros, over a pool of
  hearer-old entities, half of them animate.  With `last_resort` the second frame wants two animate
  arguments while the opener names only one animate entity, so no
  binding inside the previous Cf survives and every candidate comes from
  the out-of-Cf pool.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from centering.corpus import VALID_FILES, corpus_text, parse_discourse, serialize_discourse
from centering.model import (
    Argument,
    Discourse,
    Entity,
    GrammaticalRole,
    Marking,
    Realization,
    SortalConstraint,
    Utterance,
    VerbFrame,
)

SUBJ, OBJ2, OBJ = GrammaticalRole.SUBJ, GrammaticalRole.OBJ2, GrammaticalRole.OBJ

#: Case particle an overt argument carries when it is not the topic.
CASE = {SUBJ: Marking.GA, OBJ2: Marking.NI, OBJ: Marking.O}

FRAMES = ((SUBJ, OBJ), (SUBJ, OBJ2, OBJ))

#: Segment openers recur every this many utterances.
OPENER_EVERY = 10
#: Zeros in each of the OPENER_EVERY - 1 utterances after an opener.
SEGMENT_ZEROS = (0, 0, 1, 1, 1, 1, 2, 2, 2)
#: Frame sizes (slots) of the same utterances.
SEGMENT_SLOTS = (2, 2, 2, 2, 3, 3, 3, 3, 3)


def _frame(rng: random.Random, lemma: str, subcat: tuple) -> VerbFrame:
    sortal = {SUBJ: SortalConstraint.ANIMATE} if rng.random() < 0.5 else {}
    empathy = rng.choice(subcat) if rng.random() < 0.15 else None
    return VerbFrame(lemma, subcat, sortal, empathy)


def _overt(role: GrammaticalRole, entity_id: str, topic: bool = False) -> Argument:
    marking = Marking.WA if topic else CASE[role]
    return Argument(role, marking, Realization.overt(entity_id))


def _zero(role: GrammaticalRole) -> Argument:
    return Argument(role, Marking.NONE, Realization.zero())


def long_chain(rng: random.Random, length: int) -> Discourse:
    """A `length`-utterance chain over six hearer-old animate entities.

    Utterances come in segments of OPENER_EVERY: an all-overt opener,
    then utterances whose zero counts and frame sizes are the fixed
    multisets SEGMENT_ZEROS and SEGMENT_SLOTS in a seeded order, so every
    discourse of a length carries about the same work and only entities,
    order and markings vary.  Every utterance stays resolvable: the only
    filter that can reject is the pronoun rule, and binding every zero
    outside the previous Cf (at most three entities, plus at most one
    overt) always leaves two free entities for the at most two zeros.
    """
    ids = [f"p{i}" for i in range(6)]
    entities = tuple(Entity(eid, True, True, True) for eid in ids)
    utterances = []
    previous_overt: set[str] = set()
    for k in range(1, length + 1):
        position = (k - 1) % OPENER_EVERY
        if position == 0:
            zero_counts = rng.sample(SEGMENT_ZEROS, len(SEGMENT_ZEROS))
            slot_counts = rng.sample(SEGMENT_SLOTS, len(SEGMENT_SLOTS))
            subcat = rng.choice(FRAMES)
        else:
            subcat = FRAMES[slot_counts[position - 1] - 2]
        frame = _frame(rng, f"v{k}", subcat)
        if position == 0:
            fresh = [eid for eid in ids if eid not in previous_overt]
            chosen = rng.sample(fresh, len(subcat))
            args = tuple(_overt(role, eid) for role, eid in zip(subcat, chosen))
        else:
            zeros = zero_counts[position - 1]
            zero_roles = set(subcat[:zeros]) if rng.random() < 0.7 else set(
                rng.sample(subcat, zeros)
            )
            overt_roles = [r for r in subcat if r not in zero_roles]
            chosen = rng.sample(ids, len(overt_roles))
            topic = SUBJ in overt_roles and rng.random() < 0.15
            by_role = dict(zip(overt_roles, chosen))
            args = tuple(
                _zero(role)
                if role in zero_roles
                else _overt(role, by_role[role], topic and role is SUBJ)
                for role in subcat
            )
        previous_overt = {
            a.realization.entity_id for a in args if not a.realization.is_zero
        }
        utterances.append(Utterance(k, frame, args, (), f"u{k}"))
    return Discourse(entities, tuple(utterances))


def wide_pool(rng: random.Random, pool: int, last_resort: bool) -> Discourse:
    """An overt opener and a three-zero utterance over `pool` hearer-old entities.

    Half the pool is animate.  The opener's three entities come first with
    fixed animacy, so the second frame's sortal demands decide whether an
    in-Cf reading exists; the rest of the animate entities are scattered
    at random.  The opener's subject is the `wa` topic, so the center is
    instantiated and each binding has one Cb.  Fixing these keeps the
    candidate space, and so the work, a function of `pool` and
    `last_resort` alone.
    """
    opener_animate = [True, False, False] if last_resort else [True, True, False]
    rest = [n < pool // 2 - sum(opener_animate) for n in range(pool - 3)]
    rng.shuffle(rest)
    animate = opener_animate + rest
    entities = tuple(
        Entity(f"x{i}", animate[i], True, True) for i in range(pool)
    )
    opener_ids = [e.id for e in entities[:3]]
    rng.shuffle(opener_ids)
    subcat = (SUBJ, OBJ2, OBJ)
    opener = Utterance(
        1,
        VerbFrame("ageru", subcat, {}, None),
        tuple(_overt(role, eid, role is SUBJ) for role, eid in zip(subcat, opener_ids)),
        (),
        "opener",
    )
    sortal = {SUBJ: SortalConstraint.ANIMATE, OBJ2: SortalConstraint.ANIMATE}
    zeros = Utterance(
        2,
        VerbFrame("morau", subcat, sortal, None),
        tuple(_zero(role) for role in subcat),
        (),
        "three zeros",
    )
    return Discourse(entities, (opener, zeros))


# --------------------------------------------------------------------------
# Catalogs and per-seed plans
#
# Every input a run can draw comes from a fixed catalog of keyed
# discourses, each generated from its own key, so the digest of its
# rendered output can be recorded once (digests.json) and checked on
# every run whatever the seed.

#: Plan shapes of the synthetic workloads: shape -> (catalog variants,
#: discourses per plan).  A key is "<shape>/<variant>".
SHAPES = {
    # Four 50s per 200, so each length gives 200 utterances.  Every plan
    # holds the same five chains and the seed orders them: drawing the
    # 50s by seed let the median latency vary by a fifth from seed to
    # seed, and drawing the 200 from eight let the tail vary by a fifth
    # over ten seeds (one of them does 11 % more sort-key work than
    # another).
    "long_chain": {"long_chain/50": (4, 4), "long_chain/200": (1, 1)},
    # Ten of sixteen discourses run the last resort.  Sorted by time the
    # shapes form blocks (last resort is the slower kind at each size);
    # the counts put the median discourse inside the 20-entity
    # last-resort block and p84 in the middle of the 40-entity last-resort
    # one, and make the medians of the 10- and
    # 40-entity classes that per_utt_growth compares fall inside one kind.
    "wide_pool": {
        f"wide_pool/{pool}/{kind}": (6, count)
        for pool, in_cf, last_resort in ((10, 3, 1), (20, 2, 4), (40, 1, 5))
        for kind, count in (("in_cf", in_cf), ("last_resort", last_resort))
    },
}


@dataclass(frozen=True)
class Workload:
    """Plan shape and reporting rules of one workload.

    `small` and `large` are the input sizes (utterances, length or pool)
    whose per-utterance times `per_utt_growth` compares.  The memory pass
    runs one discourse of each shape in `memory`, or of each `large`
    shape when `memory` is empty.  The timed loop repeats the plan at
    least `min_passes` times.  `tail_percentile` falls in the middle of
    the plan's slowest block of discourses (the 200-utterance chains, the
    40-entity last-resort pools), so it is a median of many samples of
    one kind rather than one sample at a block's edge.
    """

    small: tuple[int, ...]
    large: tuple[int, ...]
    min_passes: int
    tail_percentile: float
    memory: tuple[str, ...] = ()

    def measures_memory(self, item: "Item") -> bool:
        if self.memory:
            return item.shape in self.memory
        return item.size in self.large


WORKLOADS = {
    "corpus": Workload((2,), (4,), 84, 95.0),
    # The memory pass runs a 50-utterance chain: under tracemalloc a
    # 200-utterance one takes over 20 s.
    "long_chain": Workload((50,), (200,), 2, 90.0, ("long_chain/50",)),
    "wide_pool": Workload((10,), (40,), 3, 84.0, ("wide_pool/40/last_resort",)),
}


@dataclass(frozen=True)
class Item:
    """One catalog discourse: its key, shape, canonical text and size."""

    key: str
    shape: str
    text: str
    size: int
    utterances: int


def catalog(workload: str) -> list[str]:
    """Every key a plan of `workload` can draw."""
    if workload == "corpus":
        return [f"corpus/{name}" for name in VALID_FILES]
    return [
        f"{shape}/{k}" for shape, (variants, _) in SHAPES[workload].items()
        for k in range(variants)
    ]


def build(key: str) -> Item:
    """Generate the discourse a catalog key names and serialize it."""
    workload, *rest = key.split("/")
    if workload == "corpus":
        text = corpus_text(rest[0])
        discourse, _golds = parse_discourse(text)
        return Item(key, key, text, len(discourse.utterances), len(discourse.utterances))
    rng = random.Random(key)
    size = int(rest[0])
    if workload == "long_chain":
        discourse = long_chain(rng, size)
    else:
        discourse = wide_pool(rng, size, rest[1] == "last_resort")
    shape = key.rsplit("/", 1)[0]
    return Item(key, shape, serialize_discourse(discourse), size, len(discourse.utterances))


def plan(workload: str, seed: int) -> list[Item]:
    """The discourses one run of `workload` uses, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "corpus":
        keys = catalog("corpus")
    else:
        keys = [
            f"{shape}/{k}" for shape, (variants, count) in SHAPES[workload].items()
            for k in rng.sample(range(variants), count)
        ]
    rng.shuffle(keys)
    return [build(key) for key in keys]
