"""Brute-force oracle: pinned enumerations, equivalence, size guard."""

import ast
import random
from dataclasses import replace
from pathlib import Path

import pytest

from centering import corpus, engine, oracle
from centering.engine import (
    DiscourseInvalidError,
    EngineConfig,
    UnresolvableError,
    resolve,
)
from centering.model import (
    Argument,
    Discourse,
    Entity,
    GrammaticalRole,
    Hypothesis,
    Marking,
    Realization,
    Transition,
    Utterance,
    VerbFrame,
    validate_discourse,
)
from helpers import (
    INFELICITOUS,
    ambiguous_chain,
    oversized_discourse,
    random_discourse,
    unresolvable_discourse,
)

SUBJ, OBJ = GrammaticalRole.SUBJ, GrammaticalRole.OBJ

WIDE = EngineConfig(beam_width=64)


def load(name):
    return corpus.load_corpus(name)[0]


def last_step(reading):
    return reading.steps[-1]


def assignment_of(sig):
    return dict(sig[1])


# --------------------------------------------------------------------------
# Pinned enumerations


def test_oracle_enumerates_exactly_two_readings_of_the_continue_example():
    readings = oracle.enumerate_all(load("cont_ret_ex.json"), WIDE)
    assert len(readings) == 2
    top = last_step(readings[0])
    assert assignment_of(top) == {"subj": "taroo", "obj2": "john"}
    assert top[4] == "continue"
    assert all(s[4] in (None, "continue") for s in readings[0].steps)
    runner_up = last_step(readings[1])
    assert assignment_of(runner_up) == {"subj": "john", "obj2": "taroo"}
    assert runner_up[4] == "retain"


def test_oracle_enumerates_exactly_two_readings_of_the_shift_example():
    readings = oracle.enumerate_all(load("shift_ex.json"), WIDE)
    assert len(readings) == 2
    top = last_step(readings[0])
    assert assignment_of(top)["subj"] == "ziroo"
    assert top[4] == "smooth_shift"
    assert last_step(readings[1])[4] == "rough_shift"


def test_oracle_single_utterance_without_zeros_has_one_initial_reading():
    d = Discourse(
        (Entity("a", animate=True, hearer_old=True, definite=True),),
        (
            Utterance(
                1,
                VerbFrame("v", (SUBJ,)),
                (Argument(SUBJ, Marking.GA, Realization.overt("a")),),
            ),
        ),
    )
    readings = oracle.enumerate_all(d, WIDE)
    assert len(readings) == 1
    assert readings[0].score == 0
    assert readings[0].steps[0][4] is None


@pytest.mark.parametrize("marking, cb", [(Marking.WA, "a"), (Marking.GA, None)])
def test_first_utterance_readings_take_the_wa_topic_as_cb(marking, cb):
    d = Discourse(
        tuple(Entity(eid, animate=True, hearer_old=True, definite=True) for eid in "abc"),
        (
            Utterance(
                1,
                VerbFrame("v", (SUBJ, OBJ)),
                (
                    Argument(SUBJ, marking, Realization.overt("a")),
                    Argument(OBJ, Marking.NONE, Realization.zero()),
                ),
            ),
        ),
    )
    tier = "gramm_topic" if marking is Marking.WA else "subj"
    assert oracle.enumerate_all(d, WIDE) == [
        oracle.GlobalReading(
            ((1, (("subj", "a"), ("obj", eid)), cb, (("a", tier), (eid, "obj")), None, False),),
            0,
        )
        for eid in "bc"
    ]


def test_oracle_order_is_reproducible():
    d = load("zta_ex_ga.json")
    assert oracle.enumerate_all(d, WIDE) == oracle.enumerate_all(d, WIDE)


@pytest.mark.parametrize(
    "discourse, shared",
    [(load("zta_ex_ga.json"), False), (ambiguous_chain(random.Random(7), 12), True)],
    ids=["zta_ex_ga", "ambiguous_chain"],
)
def test_oracle_expands_each_distinct_center_state_once(monkeypatch, discourse, shared):
    expanded = []
    real = oracle._parent_candidates

    def recording(utterance, prev_cf, prev_cb, *rest):
        expanded.append((utterance.index, prev_cf, prev_cb))
        return real(utterance, prev_cf, prev_cb, *rest)

    monkeypatch.setattr(oracle, "_parent_candidates", recording)
    oracle.enumerate_all(discourse, WIDE)
    monkeypatch.undo()
    assert len(expanded) == len(set(expanded))
    assert [e for e in expanded if e[0] == 1] == [(1, (), None)]
    parents = 1  # the empty state the discourse starts from
    for k in range(2, len(discourse.utterances) + 1):
        prefix = Discourse(discourse.entities, discourse.utterances[: k - 1])
        readings = oracle.enumerate_all(prefix, WIDE)
        states = {(r.steps[-1][3], r.steps[-1][2]) for r in readings}
        assert {(cf, cb) for index, cf, cb in expanded if index == k} == states, k
        parents += len(readings)
    # The chain's parents share their states: one expansion per parent
    # reading would be far more.
    assert (len(expanded) < parents) is shared


# --------------------------------------------------------------------------
# Engine/oracle equivalence


def test_corpus_equivalence():
    for name, discourse, _golds in corpus.iter_valid_corpus():
        report = oracle.check_equivalence(discourse, WIDE)
        assert report.equivalent, (name, report.detail)
        assert report.engine_count == report.oracle_count > 0


def test_corpus_equivalence_without_zta():
    config = EngineConfig(beam_width=64, zta_enabled=False)
    for name, discourse, _golds in corpus.iter_valid_corpus():
        report = oracle.check_equivalence(discourse, config)
        assert report.equivalent, (name, report.detail)


def test_randomized_equivalence():
    rng = random.Random(9016)
    config = EngineConfig(beam_width=8)
    resolvable = 0
    for trial in range(1000):
        d = random_discourse(rng)
        report = oracle.check_equivalence(d, config)
        assert report.equivalent, (trial, report.detail)
        if report.oracle_count:
            resolvable += 1
    # The generator is biased toward well-formed discourses so the check
    # has teeth; keep a floor on how many trials actually resolve.
    assert resolvable > 600, resolvable


def test_narrow_beam_head_matches_oracle_top():
    config = EngineConfig(beam_width=1)
    for name, discourse, _golds in corpus.iter_valid_corpus():
        top = resolve(discourse, config).top
        best = oracle.enumerate_all(discourse, WIDE)[0]
        assert oracle._readings_of([top]) == [best], name


def test_unresolvable_discourses_agree():
    d = unresolvable_discourse()
    assert oracle.enumerate_all(d, WIDE) == []
    with pytest.raises(UnresolvableError):
        resolve(d, WIDE)
    report = oracle.check_equivalence(d, WIDE)
    assert report.equivalent
    assert report.engine_count == report.oracle_count == 0


def _raise_unresolvable(_result):
    raise UnresolvableError(2)


@pytest.mark.parametrize(
    "discourse, tamper, counts, detail",
    [
        (
            "zta_ex_ga.json", lambda r: replace(r, hypotheses=r.hypotheses[:-1]),
            (3, 4), "count mismatch: engine 3, oracle 4",
        ),
        (
            "zta_ex_ga.json",
            lambda r: replace(r, hypotheses=r.hypotheses[1::-1] + r.hypotheses[2:]),
            (4, 4), "readings diverge at rank 0: engine ",
        ),
        (
            "zta_ex_ga.json", _raise_unresolvable,
            (0, 4), "engine unresolvable at utterance 2, oracle found 4 readings",
        ),
        (
            None, lambda r: r,
            (4, 0), "oracle dies at utterance 2, engine found readings",
        ),
    ],
    ids=["drop-last", "swap", "engine-unresolvable", "oracle-dies"],
)
def test_equivalence_gate_reports_each_disagreement(
    monkeypatch, discourse, tamper, counts, detail
):
    """Every branch of the gate where the engine disagrees with the enumeration.

    The engine's answer is its real beam for zta_ex_ga.json, tampered with;
    the discourse checked is that file, or unresolvable_discourse when None.
    """
    real_resolve = oracle.resolve
    readings = load("zta_ex_ga.json")
    monkeypatch.setattr(
        oracle, "resolve", lambda d, config: tamper(real_resolve(readings, config))
    )
    d = load(discourse) if discourse else unresolvable_discourse()
    report = oracle.check_equivalence(d, WIDE)
    assert report.equivalent is False
    assert (report.engine_count, report.oracle_count) == counts
    assert report.detail.startswith(detail)


_REAL_APPLY_ZTA = engine.apply_zta
_REAL_CLASSIFY = engine.classify_transition


def _zta_without_stand_down(candidates, *rest):
    # apply_zta reads a base candidate's ordinal (the first field of its
    # key) only to stand down on a plain CONTINUE, ordinal 0; every variant
    # is a CONTINUE of its own.
    hidden = [(-1,) + c[1:] if c[0] == Transition.CONTINUE.ordinal else c for c in candidates]
    return _REAL_APPLY_ZTA(hidden, *rest)


def _continue_as_retain(*args):
    transition = _REAL_CLASSIFY(*args)
    return Transition.RETAIN if transition is Transition.CONTINUE else transition


#: One wrong engine rule each: (owner in engine, name, replacement).
ENGINE_MUTANTS = {
    "rule1-ignored": ("_Plan", "passes", lambda plan, binding, prev_cf, cb: plan.overt_ok),
    "no-zta": (None, "apply_zta", lambda *args: []),
    "zta-ignores-continue": (None, "apply_zta", _zta_without_stand_down),
    "no-write-back": (None, "_child", lambda parent, new_step: Hypothesis(parent.steps + (new_step,))),
    "continue-as-retain": (None, "classify_transition", _continue_as_retain),
}


MUTANT_CONFIG = EngineConfig(beam_width=8)


@pytest.fixture(scope="module")
def mutant_inputs():
    """The valid corpus files, then 300 seeded random discourses.

    The real engine agrees with the oracle on every one of them.
    """
    rng = random.Random(7)
    files = [d for _name, d, _golds in corpus.iter_valid_corpus()]
    inputs = files + [random_discourse(rng) for _ in range(300)]
    assert all(oracle.check_equivalence(d, MUTANT_CONFIG).equivalent for d in inputs)
    return inputs


@pytest.mark.parametrize("owner, name, mutant", ENGINE_MUTANTS.values(), ids=list(ENGINE_MUTANTS))
def test_the_oracle_catches_a_wrong_engine_rule(monkeypatch, mutant_inputs, owner, name, mutant):
    monkeypatch.setattr(getattr(engine, owner) if owner else engine, name, mutant)
    assert any(not oracle.check_equivalence(d, MUTANT_CONFIG).equivalent for d in mutant_inputs)


def test_the_oracle_reuses_no_engine_or_rules_function():
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    names: dict[str, set] = {}  # package module -> the names imported from it
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("centering") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = ".".join(filter(None, ("centering", module)))
            names.setdefault(module, set()).update(a.name for a in node.names)
    assert not {"engine", "rules"} & names.get("centering", set())
    assert "centering.rules" not in names
    assert names["centering.engine"] == {
        "DiscourseInvalidError", "EngineConfig", "UnresolvableError", "resolve",
    }


@pytest.mark.parametrize("code, d", INFELICITOUS.values(), ids=list(INFELICITOUS))
def test_the_oracle_refuses_infelicitous_discourses_before_expanding(monkeypatch, code, d):
    monkeypatch.setattr(oracle, "_parent_candidates", None)  # any expansion fails
    for route in (oracle.enumerate_all, oracle.check_equivalence):
        with pytest.raises(DiscourseInvalidError) as err:
            route(d, WIDE)
        assert err.value.violations == tuple(validate_discourse(d)), route.__name__
        assert [v.code for v in err.value.violations] == [code]


# --------------------------------------------------------------------------
# Size guard


def test_oracle_refuses_oversized_enumerations():
    d = oversized_discourse()
    with pytest.raises(oracle.SizeLimitError) as err:
        oracle.enumerate_all(d, WIDE)
    assert err.value.utterance_index == 2
    assert err.value.bound > oracle.SIZE_LIMIT
    # The beam engine handles the same discourse without blowing up.
    res = resolve(d, EngineConfig(beam_width=8))
    assert len(res.hypotheses) == 8


def test_oracle_refuses_an_oversized_first_utterance_before_building_it(monkeypatch):
    # Four zeros over 32 hearer-old entities: 32**4 bindings pass SIZE_LIMIT.
    roles = (SUBJ, GrammaticalRole.OBJ2, OBJ, GrammaticalRole.OTHER)
    d = Discourse(
        tuple(Entity(f"e{i}", animate=True, hearer_old=True, definite=True) for i in range(32)),
        (
            Utterance(
                1,
                VerbFrame("v", roles),
                tuple(Argument(r, Marking.NONE, Realization.zero()) for r in roles),
            ),
        ),
    )
    monkeypatch.setattr(oracle, "_parent_candidates", None)  # any expansion fails
    with pytest.raises(oracle.SizeLimitError) as err:
        oracle.enumerate_all(d, WIDE)
    assert (err.value.utterance_index, err.value.bound) == (1, 32**4)


def test_projected_bound_doubles_for_zta_only_under_a_set_cb():
    u = Utterance(
        2,
        VerbFrame("v", (SUBJ, OBJ)),
        (
            Argument(SUBJ, Marking.NONE, Realization.zero()),
            Argument(OBJ, Marking.O, Realization.overt("a")),
        ),
    )
    cf = (("a", "subj"), ("n", "obj"), ("b", "other"))  # "n" is hearer-new: a pool of 4
    old = frozenset({"a", "b", "c"})
    no_zta = replace(WIDE, zta_enabled=False)
    assert oracle._projected_bound(u, (cf, None), 5, WIDE, old) == 5 * 4 * 3
    assert oracle._projected_bound(u, (cf, "a"), 5, WIDE, old) == 5 * 4 * 2
    assert oracle._projected_bound(u, (cf, "a"), 5, no_zta, old) == 5 * 4
    assert oracle._projected_bound(u, ((), None), 5, WIDE, old) == 5 * 3
