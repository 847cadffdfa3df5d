"""Shared machinery for the test suite.

Two independent cross-checks live here so several test modules can use
them:

* a seeded random discourse generator biased toward resolvable inputs
  (zeros need antecedents, so most entities are hearer-old and the first
  utterance is mostly overt), used for engine/oracle equivalence and
  property sweeps, next to three fixed shapes: a discourse that is
  unresolvable, one the oracle refuses because its projected reading
  count, an upper bound that may exceed the true count, passes
  SIZE_LIMIT, and a seeded chain whose readings double at every
  utterance over a few center states;

* the table of infelicitous discourses that every entry point refuses,
  one felicity violation each, and the `entity`, `overt` and `zero`
  builders the unit tests write their discourses with;

* an invariant walker that re-derives, from first principles and the
  oracle's naive helpers, everything a finished hypothesis claims:
  center uniqueness, Cf composition and ordering, the backward-center
  constraint, the pronoun rule, zero-topic soundness and beam ordering,
  and a check of how the engine's beam at one utterance extends its
  beam at the one before.  Both return human-readable failure strings
  instead of asserting so callers can aggregate across many discourses.

It also holds the antecedent pool over entity ids, the reference the
pairing tests generate over, the one-pass enumeration that the engine's
two-phase expansion is held to, the plain-data form of the readings that
`resolve --format json` prints, the reference for the CLI's renderer,
the table of metamorphic relations (`RELATIONS`: entities appended to a
discourse that must leave its readings alone) with the sweep they run
on, and `sameness_digest`, one hash over the engine's output on a fixed
sweep, which test_engine.py holds to its recorded value so that a change
meant to leave the output alone shows it did:

    PYTHONPATH=src:tests python -c "import helpers; print(helpers.sameness_digest())"
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
from collections import Counter
from pathlib import Path
from typing import Callable, List, Optional, Sequence

import pytest

from centering import corpus, engine, oracle
from centering.engine import EngineConfig, ResolveResult, UnresolvableError
from centering.model import (
    Argument,
    CenterState,
    Discourse,
    Entity,
    GrammaticalRole,
    Hypothesis,
    Marking,
    Realization,
    SalienceRole,
    SortalConstraint,
    Transition,
    Utterance,
    VerbFrame,
    ViolationCode,
)
from centering.rules import classify_transition

ROLE_ORDER = [
    GrammaticalRole.SUBJ,
    GrammaticalRole.OBJ2,
    GrammaticalRole.OBJ,
    GrammaticalRole.OTHER,
]


# --------------------------------------------------------------------------
# Builders


def entity(eid, animate=True, hearer_old=True, definite=True):
    return Entity(eid, animate=animate, hearer_old=hearer_old, definite=definite)


def overt(role, eid, marking=Marking.NONE):
    return Argument(role, marking, Realization.overt(eid))


def zero(role):
    return Argument(role, Marking.NONE, Realization.zero())


# --------------------------------------------------------------------------
# Random discourse generation


def random_discourse(rng: random.Random) -> Discourse:
    """A small random discourse, biased toward resolvable readings.

    The bias keeps the equivalence sweep informative: most entities are
    hearer-old (zeros need recoverable antecedents), overt fillers of
    animate-only slots are drawn from the animate entities, zeros prefer
    the subject slot (an object zero that picks up an old entity forces
    the pronoun rule to reject the reading when the center is overt),
    and the discourse-initial utterance is mostly overt.  Unresolvable
    discourses still occur in around a third of draws, which keeps the
    error-path agreement between engine and oracle under test.

    Every draw is felicitous, since resolve refuses any other: a wa mark
    drawn for an indefinite filler is left off, and so is an empathy
    locus whose overt filler is neither hearer-old nor mentioned in an
    earlier utterance.  Both are decided after their random draws, so
    the draws taken do not depend on them.
    """
    n_entities = rng.randint(2, 3) if rng.random() < 0.25 else 3
    entities = tuple(
        Entity(
            f"e{i}",
            animate=rng.random() < 0.75,
            hearer_old=rng.random() < 0.95,
            definite=rng.random() < 0.9,
        )
        for i in range(n_entities)
    )
    ids = [e.id for e in entities]
    animate_ids = [e.id for e in entities if e.animate]
    definite_ids = {e.id for e in entities if e.definite}
    evoked = {e.id for e in entities if e.hearer_old}

    utterances = []
    for k in range(rng.randint(2, 4)):
        subcat = tuple(r for r in ROLE_ORDER if rng.random() < 0.6)[:3]
        if not subcat:
            subcat = (GrammaticalRole.SUBJ,)
        sortal = {r: SortalConstraint.ANIMATE for r in subcat if rng.random() < 0.15}
        empathy = rng.choice(subcat) if rng.random() < 0.25 else None

        args = []
        zeros = 0
        used: set[str] = set()
        for role in subcat:
            if k == 0:
                zero_rate = 0.1
            elif role is GrammaticalRole.SUBJ:
                zero_rate = 0.6
            else:
                zero_rate = 0.3
            if zeros < 2 and rng.random() < zero_rate:
                args.append(Argument(role, Marking.NONE, Realization.zero()))
                zeros += 1
            else:
                base = animate_ids if role in sortal else ids
                pool = [i for i in base if i not in used] or base or ids
                eid = rng.choice(pool)
                used.add(eid)
                args.append(Argument(role, Marking.NONE, Realization.overt(eid)))
        overt_slots = [i for i, a in enumerate(args) if not a.realization.is_zero]
        if overt_slots and rng.random() < 0.25:
            i = rng.choice(overt_slots)
            if args[i].realization.entity_id in definite_ids:
                args[i] = Argument(args[i].role, Marking.WA, args[i].realization)
        others = tuple(
            eid for eid in ids if rng.random() < 0.1 and eid not in used
        )
        if empathy is not None:
            locus = args[subcat.index(empathy)].realization
            if not locus.is_zero and locus.entity_id not in evoked:
                empathy = None
        evoked |= used | set(others)
        frame = VerbFrame(f"v{k}", subcat, sortal, empathy)
        utterances.append(Utterance(k + 1, frame, tuple(args), others, f"u{k + 1}"))
    return Discourse(entities, tuple(utterances))


def unresolvable_discourse() -> Discourse:
    """Two utterances; the second has two zeros and only one entity to bind."""
    subj, obj = GrammaticalRole.SUBJ, GrammaticalRole.OBJ
    return Discourse(
        (Entity("a", animate=True, hearer_old=False, definite=True),),
        (
            Utterance(
                1,
                VerbFrame("v1", (subj,)),
                (Argument(subj, Marking.GA, Realization.overt("a")),),
            ),
            Utterance(
                2,
                VerbFrame("v2", (subj, obj)),
                (
                    Argument(subj, Marking.NONE, Realization.zero()),
                    Argument(obj, Marking.NONE, Realization.zero()),
                ),
            ),
        ),
    )


def oversized_discourse() -> Discourse:
    """Three all-zero four-slot utterances over six entities.

    The oracle refuses it at utterance 2, before building that layer.
    The first utterance projects 6**4 bindings and has 360 readings, each
    its own center state with no Cb.  At utterance 2 each of those states
    projects 6**4 bindings times 4 Cb candidates (no ZTA variant, since
    no Cb is set), and the sum passes SIZE_LIMIT, although the true
    layers hold 360, 34,560 and 829,440 readings, all below it.
    """
    return Discourse(
        tuple(
            Entity(f"e{i}", animate=True, hearer_old=True, definite=True)
            for i in range(6)
        ),
        tuple(
            Utterance(
                k,
                VerbFrame(f"v{k}", tuple(ROLE_ORDER)),
                tuple(Argument(r, Marking.NONE, Realization.zero()) for r in ROLE_ORDER),
            )
            for k in (1, 2, 3)
        ),
    )


def _infelicitous_discourses() -> dict[str, tuple[ViolationCode, Discourse]]:
    subj, obj2 = GrammaticalRole.SUBJ, GrammaticalRole.OBJ2
    opener = overt(subj, "taroo")
    return {
        "wa_on_indefinite": (
            ViolationCode.WA_ON_INDEFINITE,
            Discourse(
                (entity("someone", definite=False),),
                (Utterance(1, VerbFrame("v", (subj,)), (overt(subj, "someone", Marking.WA),)),),
            ),
        ),
        "empathy_not_evoked": (
            ViolationCode.EMPATHY_NOT_EVOKED,
            Discourse(
                (entity("taroo"), entity("stranger", hearer_old=False)),
                (
                    Utterance(1, VerbFrame("v", (subj,)), (opener,)),
                    Utterance(
                        2,
                        VerbFrame("kureta", (subj, obj2), empathy_locus=obj2),
                        (zero(subj), overt(obj2, "stranger")),
                    ),
                ),
            ),
        ),
        "undeclared_other": (
            ViolationCode.UNDECLARED_ENTITY,
            Discourse(
                (entity("taroo"),),
                (Utterance(1, VerbFrame("v", (subj,)), (opener,), ("ghost",)),),
            ),
        ),
        "undeclared_argument": (
            ViolationCode.UNDECLARED_ENTITY,
            Discourse(
                (entity("a"),),
                (Utterance(1, VerbFrame("v", (subj,)), (overt(subj, "ghost"),)),),
            ),
        ),
    }


#: Discourses that break one felicity condition each, by name: the code
#: validate_discourse reports and the discourse.  Every entry point
#: (resolve, enumerate_all, check_equivalence) refuses each of them.
INFELICITOUS = _infelicitous_discourses()


def ambiguous_chain(rng: random.Random, length: int) -> Discourse:
    """A length-utterance chain over six hearer-old entities that stays ambiguous.

    A wa-topic opener names two entities; every later utterance has a
    subject zero and an overt object drawn at random.  The zero may bind
    either previous-Cf entity the object leaves free, so the readings
    about double at every utterance while their center states stay few.
    """
    subj, obj = GrammaticalRole.SUBJ, GrammaticalRole.OBJ
    ids = [f"z{i}" for i in range(6)]
    opener, named = rng.sample(ids, 2)
    utterances = [
        Utterance(
            1,
            VerbFrame("v1", (subj, obj)),
            (
                Argument(subj, Marking.WA, Realization.overt(opener)),
                Argument(obj, Marking.O, Realization.overt(named)),
            ),
        )
    ]
    for k in range(2, length + 1):
        utterances.append(
            Utterance(
                k,
                VerbFrame(f"v{k}", (subj, obj)),
                (
                    Argument(subj, Marking.NONE, Realization.zero()),
                    Argument(obj, Marking.O, Realization.overt(rng.choice(ids))),
                ),
            )
        )
    return Discourse(
        tuple(Entity(eid, animate=True, hearer_old=True, definite=True) for eid in ids),
        tuple(utterances),
    )


# --------------------------------------------------------------------------
# Antecedent pool and the one-pass expansion


def antecedent_pool(discourse: Discourse, prev_cf: Sequence[str]) -> list[str]:
    """The ids a zero may bind after a state with Cf prev_cf, in generation order.

    The previous Cf in order, then the other hearer-old entities in
    declaration order: the id-level form of the pool the engine builds on
    entity codes, the reference the pairing tests generate over.
    """
    return list(prev_cf) + [e for e in discourse.hearer_old_ids if e not in prev_cf]


def one_pass_survivors(
    discourse: Discourse, prev: Optional[CenterState], plan, config: EngineConfig
) -> list[tuple]:
    """engine._survivors' keys from one pass over the whole pool: its reference.

    Every binding of the whole antecedent pool is generated and paired
    with its Cb candidates, and each pairing the plan passes is sorted
    inside (its slots hold only previous-Cf and overt entities, so every
    zero binds a previous-Cf entity) or outside.  The inside ones are
    keyed, or the outside ones when no inside one passed, and the
    zero-topic variants follow: what _survivors did before it generated
    over the previous Cf first and over the pool only as a last resort.
    """
    codes = plan.codes
    prev_cf = [codes.index[e] for e in prev.cf_ids] if prev is not None else []
    prev_cb = codes.index[prev.cb] if prev is not None and prev.cb is not None else None
    open_cb = prev is not None and prev.cb is None
    inside_codes = set(prev_cf) | plan.overt
    pool = antecedent_pool(discourse, prev.cf_ids if prev is not None else ())
    inside, outside = [], []
    for binding in engine.generate_assignments(plan, [codes.index[e] for e in pool]):
        linked = [c for c in prev_cf if c in binding]
        for cb in (linked if open_cb else linked[:1]) or [None]:
            if plan.passes(binding, set(prev_cf), cb):
                side = inside if inside_codes.issuperset(binding) else outside
                side.append((binding, cb))
    keys = []
    for binding, cb in inside or outside:
        if cb is None:
            keys.append((-1, -1, (binding, plan.wa if prev is None else -1, 0)))
        else:
            ordinal = classify_transition(prev_cb, cb, binding[plan.cf[0][0]]).ordinal
            keys.append((ordinal, cb if open_cb else -1, (binding, cb, 0)))
    return keys + engine.apply_zta(keys, prev_cb, plan, config)


# --------------------------------------------------------------------------
# Reference JSON rendering


def readings_json(hypotheses: Sequence[Hypothesis]) -> list[dict]:
    """The readings as plain data.

    json.dumps({"readings": readings_json(h)}, indent=2) is the text that
    `resolve --format json` must print, byte for byte.
    """
    return [
        {
            "rank": rank,
            "score": h.score,
            "steps": [
                {
                    "utterance_index": s.utterance_index,
                    "assignment": {r.name.lower(): e for r, e in s.assignment.items()},
                    "cb": s.state.cb,
                    "cf": [[eid, tier.name.lower()] for eid, tier in s.state.cf],
                    "transition": (
                        s.transition.name.lower() if s.transition is not None else None
                    ),
                    "zta": s.zta_applied,
                }
                for s in h.steps
            ],
        }
        for rank, h in enumerate(hypotheses, start=1)
    ]


# --------------------------------------------------------------------------
# Output digest


def _bench_workloads():
    """The benchmark's seeded generators, bench/workloads.py."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    return workloads


def sameness_digest() -> str:
    """One sha256 over the readings and full rejection logs of a fixed seeded sweep.

    The sweep is 600 random_discourse(Random(2029)) draws, the bundled
    valid files and the benchmark's wide pools of 10, 20 and 40 entities,
    with and without an in-Cf reading (seed 5), each resolved at widths
    1, 4 and 16 with ZTA on and off.  Each resolve adds its readings as
    readings_json gives them and every Rejection field by field, in log
    order, or the index of the utterance it cannot resolve.  Equal digests
    mean the engine's output did not change on any of them; the sweep
    takes a few seconds.
    """
    workloads = _bench_workloads()
    rng = random.Random(2029)
    discourses = [random_discourse(rng) for _ in range(600)]
    discourses += [corpus.load_corpus(name)[0] for name in corpus.VALID_FILES]
    discourses += [
        workloads.wide_pool(random.Random(5), pool, last_resort)
        for pool in (10, 20, 40)
        for last_resort in (False, True)
    ]
    digest = hashlib.sha256()
    for d in discourses:
        for width in (1, 4, 16):
            for zta in (True, False):
                try:
                    result = engine.resolve(d, EngineConfig(beam_width=width, zta_enabled=zta))
                except UnresolvableError as err:
                    digest.update(f"unresolvable {err.utterance_index}\n".encode())
                    continue
                out = {
                    "readings": readings_json(result.hypotheses),
                    "rejections": [
                        [r.utterance_index, list(r.binding), r.cb, r.code]
                        for index in sorted(result.rejections)
                        for r in result.rejections[index]
                    ],
                }
                digest.update(json.dumps(out).encode())
                digest.update(b"\n")
    return digest.hexdigest()


# --------------------------------------------------------------------------
# Independent transition truth table


def expected_transition(
    prev_cb: Optional[str], cb: str, cp: str
) -> Transition:
    """The four-way transition split, written out plainly."""
    carried = prev_cb is None or prev_cb == cb
    if carried and cb == cp:
        return Transition.CONTINUE
    if carried:
        return Transition.RETAIN
    if cb == cp:
        return Transition.SMOOTH_SHIFT
    return Transition.ROUGH_SHIFT


# --------------------------------------------------------------------------
# Invariant walker


def _check_step_composition(
    discourse: Discourse, hyp: Hypothesis, k: int, label: str, failures: List[str]
) -> None:
    """Structural facts about one step: assignment shape, Cf contents."""
    step = hyp.steps[k]
    utt = discourse.utterances[k]

    if tuple(step.assignment) != utt.frame.subcat:
        failures.append(f"{label}: assignment keys differ from subcat")
        return
    for arg in utt.args:
        if not arg.realization.is_zero:
            if step.assignment[arg.role] != arg.realization.entity_id:
                failures.append(f"{label}: overt slot {arg.role.name} rebound")

    values = list(step.assignment.values())
    if len(set(values)) != len(values):
        failures.append(f"{label}: two slots bound to one entity")
    for role, constraint in utt.frame.sortal.items():
        if constraint is SortalConstraint.ANIMATE:
            if not discourse.entity_map[step.assignment[role]].animate:
                failures.append(f"{label}: sortal violation at {role.name}")

    # Constraint 2: the Cf is exactly the bound entities, most salient
    # first, and an instantiated Cb appears in it.
    if set(step.state.cf_ids) != set(values):
        failures.append(f"{label}: Cf differs from bound entities")
    ranks = [tier.rank for _, tier in step.state.cf]
    if ranks != sorted(set(ranks)):
        failures.append(f"{label}: Cf out of salience order or repeats a tier")
    expected_cf = oracle._cf_list(
        utt,
        step.assignment,
        step.state.cb if step.zta_applied else None,
    )
    got_cf = tuple((eid, tier.name.lower()) for eid, tier in step.state.cf)
    if got_cf != expected_cf:
        failures.append(f"{label}: Cf ranking {got_cf} != recomputed {expected_cf}")
    if not step.zta_applied and any(
        tier is SalienceRole.ZERO_TOPIC for _, tier in step.state.cf
    ):
        failures.append(f"{label}: zero-topic tier without the ZTA flag")


def _prev_cb_decided_here(
    discourse: Discourse, hyp: Hypothesis, k: int
) -> bool:
    """Was step k's Cb fixed at step k itself (not written back later)?

    Classified steps always decide their own Cb.  An initial step decides
    it only when a wa topic instantiates it; any other instantiated
    initial/reset Cb must have been unified from the following step.
    """
    step = hyp.steps[k]
    if step.transition is not None:
        return True
    if k == 0:
        return discourse.utterances[0].wa_argument is not None
    return False


def _check_centers(
    discourse: Discourse, hyp: Hypothesis, k: int, label: str, failures: List[str]
) -> None:
    """Constraints 1 and 3, the transition label, and Rule 1 at step k."""
    step = hyp.steps[k]
    utt = discourse.utterances[k]

    if k == 0:
        if step.transition is not None:
            failures.append(f"{label}: discourse-initial step classified")
        return

    prev = hyp.steps[k - 1]
    realized = set(step.assignment.values())
    prev_cf = list(prev.state.cf_ids)

    if step.transition is None:
        # Documented reset: nothing from the previous Cf is realized and
        # the center starts over uninstantiated (unless the next step
        # instantiated it retroactively, which _check_unification covers).
        if set(prev_cf) & realized:
            failures.append(f"{label}: reset despite a shared Cf entity")
        return

    cb = step.state.cb
    if cb is None:
        failures.append(f"{label}: classified step with uninstantiated Cb")
        return

    # Constraint 3: the Cb comes from the previous Cf and is realized.
    if cb not in prev_cf or cb not in realized:
        failures.append(f"{label}: Cb {cb} outside previous Cf or unrealized")
        return
    if _prev_cb_decided_here(discourse, hyp, k - 1) and prev.state.cb is not None:
        forced = next(eid for eid in prev_cf if eid in realized)
        if cb != forced:
            failures.append(
                f"{label}: Cb {cb} not the highest realized previous center {forced}"
            )

    # The recorded transition must match the independent truth table.
    # A previous step whose Cb was written back started uninstantiated,
    # but then its final Cb equals this step's, so the carried-over test
    # gives the same answer either way.
    want = expected_transition(prev.state.cb, cb, step.state.cf[0][0])
    if step.transition is not want:
        failures.append(
            f"{label}: transition {step.transition.name}, expected {want.name}"
        )

    # Rule 1: if any zero picks up a previous-Cf entity, the slot that
    # realizes the Cb must itself be a zero.
    zero_realizes_old = any(
        a.realization.is_zero and step.assignment[a.role] in set(prev_cf)
        for a in utt.args
    )
    if zero_realizes_old:
        cb_arg = next(a for a in utt.args if step.assignment[a.role] == cb)
        if not cb_arg.realization.is_zero:
            failures.append(f"{label}: Rule 1 violated (overt Cb, pronominalized Cf)")

    if step.zta_applied:
        _check_zta(discourse, hyp, k, label, failures)


def _check_zta(
    discourse: Discourse, hyp: Hypothesis, k: int, label: str, failures: List[str]
) -> None:
    """Zero-topic soundness: continuation, slot, and necessity."""
    step = hyp.steps[k]
    prev = hyp.steps[k - 1]
    utt = discourse.utterances[k]
    cb = step.state.cb

    if prev.state.cb is None or prev.state.cb != cb:
        failures.append(f"{label}: zero topic does not continue the previous Cb")
        return
    head, head_tier = step.state.cf[0]
    if head != cb or head_tier is not SalienceRole.ZERO_TOPIC:
        failures.append(f"{label}: zero topic does not head the Cf")
    if step.transition is not Transition.CONTINUE:
        failures.append(f"{label}: ZTA step classified {step.transition}")
    slot = next((a for a in utt.args if step.assignment[a.role] == cb), None)
    if slot is None or not slot.realization.is_zero:
        failures.append(f"{label}: zero topic bound at an overt slot")
    elif slot.role not in (GrammaticalRole.SUBJ, GrammaticalRole.OBJ2):
        failures.append(f"{label}: zero topic from a low slot {slot.role.name}")

    # Necessity: re-derive the parent's plain candidates with the naive
    # enumerator; none may already be a CONTINUE.
    prev_cf_sig = tuple(
        (eid, tier.name.lower()) for eid, tier in prev.state.cf
    )
    plain = oracle._parent_candidates(
        utt, prev_cf_sig, prev.state.cb,
        EngineConfig(zta_enabled=False),
        discourse.entity_map, discourse.hearer_old_ids,
    )
    if any(sig[4] == "continue" for sig, _cost in plain):
        failures.append(f"{label}: ZTA fired although a plain CONTINUE existed")


def _check_unification(
    discourse: Discourse, hyp: Hypothesis, k: int, label: str, failures: List[str]
) -> None:
    """An instantiated initial/reset Cb must come from wa or write-back."""
    step = hyp.steps[k]
    if step.transition is not None or step.state.cb is None:
        return
    if k == 0 and discourse.utterances[0].wa_argument is not None:
        wa = discourse.utterances[0].wa_argument
        if step.state.cb != wa.realization.entity_id:
            failures.append(f"{label}: initial Cb differs from the wa topic")
        return
    if k + 1 >= len(hyp.steps):
        failures.append(f"{label}: unexplained instantiated Cb on a final reset")
        return
    follower = hyp.steps[k + 1]
    if follower.state.cb != step.state.cb:
        failures.append(f"{label}: written-back Cb differs from the next step's")
    if step.state.cb not in set(step.assignment.values()):
        failures.append(f"{label}: written-back Cb not realized in this step")


def hypothesis_invariant_failures(
    discourse: Discourse, config: EngineConfig, result: ResolveResult
) -> List[str]:
    """Every invariant violation in a finished resolution, as strings."""
    failures: List[str] = []

    if len(result.hypotheses) > config.beam_width:
        failures.append("beam width exceeded")
    entity_index = discourse.entity_index
    keys = [engine.hypothesis_sort_key(h, entity_index) for h in result.hypotheses]
    if keys != sorted(keys):
        failures.append("beam not sorted by score/recency/content")

    for h_i, hyp in enumerate(result.hypotheses):
        if len(hyp.steps) != len(discourse.utterances):
            failures.append(f"hyp{h_i}: step count differs from utterance count")
            continue
        for k in range(len(hyp.steps)):
            label = f"hyp{h_i} u{hyp.steps[k].utterance_index}"
            if hyp.steps[k].utterance_index != k + 1:
                failures.append(f"{label}: utterance index out of sequence")
            _check_step_composition(discourse, hyp, k, label, failures)
            _check_centers(discourse, hyp, k, label, failures)
            _check_unification(discourse, hyp, k, label, failures)
    return failures


# --------------------------------------------------------------------------
# Beam extension


def extends(parent: Hypothesis, child: Hypothesis) -> bool:
    """Whether child is parent plus one step, the parent's last one at most written back.

    The older steps must be identical.  The parent's last step may change
    only by write-back: its Cb was open and takes the new step's Cb.
    """
    *older, last = parent.steps
    if len(child.steps) != len(parent.steps) + 1 or list(child.steps[:-2]) != older:
        return False
    was, cb = child.steps[-2], child.last.state.cb
    if was == last:
        return True
    if last.state.cb is not None or cb is None or cb not in last.state.cf_ids:
        return False
    return was == dataclasses.replace(last, state=CenterState(cb, last.state.cf))


def beam_extension_failures(discourse: Discourse, config: EngineConfig) -> List[str]:
    """Where two consecutive beams of engine._beams break the extension properties.

    The beam at each utterance is resolve's on the discourse up to there,
    and all of them come from one pass.  For each utterance after the
    first, against the beam one utterance earlier:
    * every reading extends exactly one reading of the earlier beam: its
      older steps are identical, and that parent's last step changes only
      by write-back (an open Cb takes the new step's Cb);
    * each parent's children, in beam order, come in non-decreasing
      transition ordinal (an initial or reset step counts as -1);
    * each parent's children bind their zeros either all inside the
      parent's last Cf or all outside it (out-of-Cf readings are a last
      resort, so the two kinds never mix).
    """
    failures: List[str] = []
    utterances = discourse.utterances
    beams = []
    try:
        for _index, keyed, _rejections in engine._beams(discourse, config):
            beams.append([h for _, h in keyed])
    except UnresolvableError:
        pass
    for k, (beam, children) in enumerate(zip(beams, beams[1:]), start=2):
        zero_roles = [a.role for a in utterances[k - 1].args if a.realization.is_zero]
        families: dict[int, list[Hypothesis]] = {}  # parent's beam index -> its children
        for c, child in enumerate(children):
            parents = [i for i, p in enumerate(beam) if extends(p, child)]
            if len(parents) != 1:
                failures.append(f"u{k}: reading {c} extends {len(parents)} earlier readings")
            else:
                families.setdefault(parents[0], []).append(child)
        for i, family in families.items():
            ordinals = [-1 if h.last.transition is None else h.last.transition.ordinal
                        for h in family]
            if ordinals != sorted(ordinals):
                failures.append(f"u{k}: children not ordered by transition ordinal")
            prev_cf = set(beam[i].last.state.cf_ids)
            if len({all(h.last.assignment[r] in prev_cf for r in zero_roles) for h in family}) > 1:
                failures.append(f"u{k}: in-Cf and out-of-Cf children mixed")
    return failures


# --------------------------------------------------------------------------
# Metamorphic relations


def outcome(discourse: Discourse, config: EngineConfig) -> tuple:
    """("resolved", readings, full rejection log) of resolve, or ("unresolvable", index)."""
    try:
        result = engine.resolve(discourse, config)
    except UnresolvableError as err:
        return ("unresolvable", err.utterance_index)
    return ("resolved", result.hypotheses, dict(result.rejections))


def readings(discourse: Discourse, config: EngineConfig) -> tuple:
    """outcome without the log: ("resolved", readings) or ("unresolvable", index)."""
    return outcome(discourse, config)[:2]


def last_resort_never_fired(discourse: Discourse, config: EngineConfig) -> bool:
    """Whether no reading of discourse under config reaches past the previous Cf.

    True when the first utterance has no zero and every center state that
    resolve expands has an in-Cf survivor: one whose slots hold only
    previous-Cf and overt entities, read off engine._survivors for each
    distinct last state of each beam of engine._beams.  An unresolvable
    discourse had a state with no survivor at all.
    """
    if any(a.realization.is_zero for a in discourse.utterances[0].args):
        return False
    try:
        beams = [keyed for _index, keyed, _log in engine._beams(discourse, config)]
    except UnresolvableError:
        return False
    codes = engine._Codes.of(discourse)
    for keyed, utterance in zip(beams, discourse.utterances[1:]):
        plan = engine._Plan.of(utterance, codes)
        for state in dict.fromkeys(h.last.state for _, h in keyed):
            survivors, _log = engine._survivors(discourse, state, plan, config)
            inside = {codes.index[e] for e in state.cf_ids} | plan.overt
            if not any(inside.issuperset(binding) for _, _, (binding, _, _) in survivors):
                return False
    return True


def readings_and_survivor_bindings(discourse: Discourse, config: EngineConfig) -> tuple:
    """readings, plus every binding engine._survivors generates while resolve runs.

    The bindings are entity ids, one tuple per generation call, in call
    order, and no log is read (reading one would enumerate the whole
    pool again).  Bindings that _reset_keys generates are left out.
    """
    generated = []
    survivors, generate = engine._survivors, engine.generate_assignments

    def recording(plan, context, limit=None):
        bindings = generate(plan, context, limit)
        generated.append(tuple(tuple(plan.codes.ids[c] for c in b) for b in bindings))
        return bindings

    def expanding(discourse, prev, plan, config):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "generate_assignments", recording)
            return survivors(discourse, prev, plan, config)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_survivors", expanding)
        seen = readings(discourse, config)
    return seen + (generated,)


@dataclasses.dataclass(frozen=True)
class Relation:
    """Entities appended to a discourse, and what that must leave unchanged.

    No utterance names an appended entity.  covers(discourse, config) says
    whether the relation speaks about that resolve at all, and
    observe(discourse, config) gives what must come out equal on the
    discourse and on its copy with the entities appended, as a tuple whose
    first item says whether resolve resolved it.
    """

    appended: tuple[Entity, ...]
    covers: Callable[[Discourse, EngineConfig], bool]
    observe: Callable[[Discourse, EngineConfig], object]


#: The relations that follow from the paper's definitions, by name.
#: inert: a zero's antecedent is a previous-Cf or a hearer-old entity, so
#: an entity that is neither can never be bound, and readings, their order
#: and every record stay as they were, last resorts and unresolvable
#: discourses included.  last_resort: hearer-old entities outside the
#: previous Cf are reached only as a last resort, so where none fired and
#: the first utterance binds nothing by a zero, more of them change no
#: reading, no order and no binding that expansion generates (the log
#: does grow: the new pairings are pruned, and generated when it is read).
RELATIONS = {
    "inert": Relation(
        tuple(
            entity(f"inert{i}", animate=i % 2 == 0, hearer_old=False, definite=i % 3 == 0)
            for i in range(5)
        ),
        lambda discourse, config: True,
        outcome,
    ),
    "last_resort": Relation(
        tuple(entity(f"old{i}", animate=i % 2 == 0, definite=i % 3 == 0) for i in range(5)),
        last_resort_never_fired,
        readings_and_survivor_bindings,
    ),
}


def relation_failures(
    relation: Relation, discourses: Sequence[Discourse], widths: Sequence[int] = (1, 4, 16)
) -> tuple[List[tuple], Counter]:
    """Where appending relation's entities changes what it observes, and what it covered.

    Each discourse is resolved at each width, ZTA on and off; a failure is
    (discourse index, width, ZTA flag), and the counter counts the covered
    cases by the first item of what was observed ("resolved" or
    "unresolvable").
    """
    failures, covered = [], Counter()
    for i, discourse in enumerate(discourses):
        widened = Discourse(discourse.entities + relation.appended, discourse.utterances)
        for width in widths:
            for zta in (True, False):
                config = EngineConfig(beam_width=width, zta_enabled=zta)
                if not relation.covers(discourse, config):
                    continue
                want = relation.observe(discourse, config)
                covered[want[0]] += 1
                if relation.observe(widened, config) != want:
                    failures.append((i, width, zta))
    return failures, covered


def relation_sweep() -> List[Discourse]:
    """The relations' inputs: 300 random_discourse(Random(2024)) draws and the bundled files."""
    rng = random.Random(2024)
    discourses = [random_discourse(rng) for _ in range(300)]
    return discourses + [corpus.load_corpus(name)[0] for name in corpus.VALID_FILES]
