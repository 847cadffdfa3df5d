"""Large valid inputs through every command: a documented exit code, never a traceback.

A seeded generator builds discourses at the edges of what the engine and
the oracle handle today and serializes them, and each one goes through
resolve, check, oracle and validate by run_cli.  The shapes:

* wide pools: an overt opener, then three zeros over up to 12
  hearer-old entities, with and without an in-Cf reading;
* four-zero frames: twice and three times in a row over 4 hearer-old
  entities (13,824 readings), once over 6, and three times in a row over
  20 and over 40, where every frame has an in-Cf reading, so expansion
  generates the 24 in-Cf bindings of each state and none of the
  hundreds of thousands outside (the oracle refuses the 40 at utterance
  2, and is not run on the 20: its naive second layer takes 2-3 s);
* a 2,000-utterance chain that keeps one reading throughout;
* 2,000 declared entities, three of them hearer-old, 20 of them named;
* a 40-utterance chain over six hearer-old entities whose readings
  double at every utterance (helpers.ambiguous_chain): the oracle
  refuses it with exit 4 once its projected bound passes SIZE_LIMIT,
  before building that layer, and every other command succeeds.

The engine has no bound on its own work yet: a last resort whose k best
readings hold links still enumerates its whole pool, to the power of its
zeros, so wide four-zero frames with no in-Cf reading stay out of this
gate.
"""

from __future__ import annotations

import random
import time

from centering import cli
from centering.corpus import serialize_discourse
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
from helpers import ambiguous_chain

SUBJ, OBJ2, OBJ, OTHER = (
    GrammaticalRole.SUBJ, GrammaticalRole.OBJ2, GrammaticalRole.OBJ, GrammaticalRole.OTHER,
)
CASE = {SUBJ: Marking.GA, OBJ2: Marking.NI, OBJ: Marking.O, OTHER: Marking.NONE}

#: Every exit code the cli docstring documents.
DOCUMENTED = frozenset(v for k, v in vars(cli).items() if k.startswith("EXIT_"))

#: CPU seconds of this process that any one command may take.
RUN_BOUND_S = 2.0


def _utterance(index, fillers, sortal=(), topic=False):
    """An utterance whose slots hold fillers in subcat order; None is a zero.

    topic marks an overt subject with wa; each role in sortal wants an
    animate filler.
    """
    subcat = tuple(fillers)
    args = tuple(
        Argument(role, Marking.NONE, Realization.zero())
        if eid is None
        else Argument(
            role, Marking.WA if topic and role is SUBJ else CASE[role], Realization.overt(eid)
        )
        for role, eid in fillers.items()
    )
    frame = VerbFrame(
        f"v{index}", subcat, {r: SortalConstraint.ANIMATE for r in sortal}, None
    )
    return Utterance(index, frame, args, (), f"u{index}")


def wide_pool(rng, pool, in_cf):
    """An overt wa-topic opener, then three zeros over pool hearer-old entities.

    The second frame wants two animate arguments; without in_cf the
    opener names only one animate entity, so every reading binds a zero
    outside the previous Cf.
    """
    animate = [True, in_cf, False] + [rng.random() < 0.5 for _ in range(pool - 3)]
    entities = tuple(Entity(f"x{i}", animate[i], True, True) for i in range(pool))
    opener = [e.id for e in entities[:3]]
    rng.shuffle(opener)
    return Discourse(entities, (
        _utterance(1, dict(zip((SUBJ, OBJ2, OBJ), opener)), topic=True),
        _utterance(2, {SUBJ: None, OBJ2: None, OBJ: None}, sortal=(SUBJ, OBJ2)),
    ))


def four_zeros(rng, pool, repeats):
    """An overt four-slot opener, then repeats four-zero utterances over pool entities."""
    entities = tuple(Entity(f"y{i}", True, True, True) for i in range(pool))
    named = rng.sample([e.id for e in entities], 4)
    zeros = dict.fromkeys((SUBJ, OBJ2, OBJ, OTHER))
    return Discourse(entities, (
        _utterance(1, dict(zip((SUBJ, OBJ2, OBJ, OTHER), named)), topic=True),
        *(_utterance(k, zeros) for k in range(2, repeats + 2)),
    ))


def topic_chain(rng, length, named, unnamed=0):
    """A length-utterance chain about one topic t.

    Odd utterances name t and one of the named hearer-new entities
    overtly; even ones name the same entity and leave the subject a
    zero, which only t fills inside the previous Cf.  So the chain keeps
    one reading, while each zero also reaches two more hearer-old
    entities as a last resort.  unnamed more hearer-new entities are
    declared and never named.
    """
    old = ["t", "h1", "h2"]
    new = [f"n{i}" for i in range(named + unnamed)]
    entities = tuple(Entity(eid, True, True, True) for eid in old) + tuple(
        Entity(eid, rng.random() < 0.5, False, True) for eid in new
    )
    utterances = []
    for k in range(1, length + 1):
        if k % 2:
            other = rng.choice(new[:named])
        subject = None if k % 2 == 0 else "t"
        utterances.append(_utterance(k, {SUBJ: subject, OBJ: other}, topic=k == 1))
    return Discourse(entities, tuple(utterances))


def adversarial_inputs(seed):
    """(name, discourse) for every shape, from one seed."""
    rng = random.Random(seed)
    for pool in (8, 12):
        for in_cf in (True, False):
            yield f"wide_pool/{pool}/{in_cf}", wide_pool(rng, pool, in_cf)
    for pool, repeats in ((4, 2), (6, 1), (4, 3)):
        yield f"four_zeros/{pool}x{repeats}", four_zeros(rng, pool, repeats)
    yield "topic_chain/2000", topic_chain(rng, 2000, 4)
    yield "declared/2000", topic_chain(rng, 20, 20, 1977)
    yield AMBIGUOUS, ambiguous_chain(rng, 40)
    for pool in (20, 40):  # drawn last, so the shapes above keep their draws
        yield f"four_zeros/{pool}x3", four_zeros(rng, pool, 3)


COMMANDS = ("resolve", "check", "oracle", "validate")

#: The ambiguous chain, whose oracle run passes SIZE_LIMIT.
AMBIGUOUS = "ambiguous_chain/40"

#: The shapes whose oracle run passes SIZE_LIMIT and ends in its exit code.
ORACLE_REFUSED = (AMBIGUOUS, "four_zeros/40x3")

#: The shape the oracle is not run on: its projected bound (320,000
#: readings) lets it build the second layer, whose 116,280 bindings its
#: naive enumeration takes 2-3 s of CPU to filter and rank.  The
#: oracle's own bound is SIZE_LIMIT, not this gate's.
ORACLE_SKIPPED = "four_zeros/20x3"


def test_large_valid_inputs_end_in_a_documented_exit_code(tmp_path, capsys):
    codes = {}
    for name, discourse in adversarial_inputs(2024):
        path = tmp_path / (name.replace("/", "_") + ".json")
        path.write_text(serialize_discourse(discourse), encoding="utf-8")
        for command in COMMANDS:
            if (name, command) == (ORACLE_SKIPPED, "oracle"):
                continue
            start = time.process_time()
            code = cli.run_cli([command, str(path)])
            spent = time.process_time() - start
            err = capsys.readouterr().err
            assert code in DOCUMENTED, (name, command, code)
            assert "Traceback" not in err, (name, command)
            assert spent < RUN_BOUND_S, (name, command, spent)
            codes[name, command] = code
    # The inputs are valid and carry no gold labels: check has nothing
    # to check, the oracle refuses the ambiguous chain and the widest
    # four-zero frames, and every other command succeeds.
    for name in ORACLE_REFUSED:
        assert codes.pop((name, "oracle")) == cli.EXIT_SIZE_LIMIT, name
    assert {c for (_, command), c in codes.items() if command != "check"} == {cli.EXIT_OK}
    assert {c for (_, command), c in codes.items() if command == "check"} == {
        cli.EXIT_MISMATCH
    }
