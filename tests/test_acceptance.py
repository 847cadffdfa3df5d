"""Acceptance suite: the eight headline behaviors, one verdict line each.

Each test computes its verdict, registers it for the terminal summary,
prints it, and then asserts — so a failure still leaves a readable
criterion-by-criterion report.
"""

import itertools
import random

from centering import corpus, engine, oracle
from centering.engine import EngineConfig
from centering.model import Significance, Transition
from centering.rules import classify_transition
from conftest import record_criterion
from helpers import (
    beam_extension_failures,
    hypothesis_invariant_failures,
    random_discourse,
)

DEFAULT = EngineConfig()
RANDOM_TRIALS = 1000
RANDOM_CONFIG = EngineConfig(beam_width=8)

SIGNIFICANT_FILES = (
    "shift_ex.json",
    "cont_ret_ex.json",
    "emp_cont_ret.json",
    "zta_ex_ga.json",
    "zta_emp_ga.json",
    "zta_emp_cont.json",
)
AMBIGUOUS_FILES = ("zta_ex_wa.json", "zta_emp_ga_noemp.json")

_cache = {}


def corpus_results():
    """Default-config resolution of every valid corpus file, memoized."""
    if "corpus" not in _cache:
        loaded = {name: corpus.load_corpus(name) for name in corpus.VALID_FILES}
        _cache["corpus"] = {
            name: (discourse, golds, engine.resolve(discourse, DEFAULT))
            for name, (discourse, golds) in loaded.items()
        }
    return _cache["corpus"]


def random_trials():
    """Seeded random sweep: (discourse, equivalence report, beam or None)."""
    if "random" not in _cache:
        rng = random.Random(41114)
        trials = []
        for _ in range(RANDOM_TRIALS):
            d = random_discourse(rng)
            report = oracle.check_equivalence(d, RANDOM_CONFIG)
            try:
                result = engine.resolve(d, RANDOM_CONFIG)
            except engine.UnresolvableError:
                result = None
            trials.append((d, report, result))
        _cache["random"] = trials
    return _cache["random"]


def preferred_label(golds):
    """The most-supported significant label (there is one per file)."""
    significant = [g for g in golds if g.significance is Significance.SIGNIFICANT]
    return max(significant, key=lambda g: g.support_count or 0)


def conclude(number, title, passed, detail=""):
    line = record_criterion(number, title, passed)
    print(line)
    assert passed, detail or line


def test_criterion_1_significant_preferences():
    problems = []
    for name in SIGNIFICANT_FILES:
        _discourse, golds, result = corpus_results()[name]
        label = preferred_label(golds)
        got = result.top.step_at(label.utterance_index).assignment
        if got != label.assignment:
            problems.append(f"{name}: top reading {got} != {label.assignment}")
    conclude(
        1, "surveyed preferences reproduced as top readings",
        not problems, "; ".join(problems),
    )


def test_criterion_2_ambiguous_cases_keep_both_readings():
    problems = []
    for name in AMBIGUOUS_FILES:
        _discourse, golds, result = corpus_results()[name]
        for label in golds:
            produced = {
                tuple(h.step_at(label.utterance_index).assignment.items())
                for h in result.hypotheses
            }
            if tuple(label.assignment.items()) not in produced:
                problems.append(f"{name}: reading {label.assignment} missing")
    conclude(
        2, "ambiguous cases keep both surveyed readings",
        not problems, "; ".join(problems),
    )


def test_criterion_3_minimal_pair_flips_the_reading():
    _d1, _g1, res1 = corpus_results()["minimal_pair_1.json"]
    _d2, _g2, res2 = corpus_results()["minimal_pair_2.json"]
    names1 = {r.name.lower(): e for r, e in res1.top.step_at(3).assignment.items()}
    names2 = {r.name.lower(): e for r, e in res2.top.step_at(3).assignment.items()}
    ok = (
        names1 == {"subj": "ziroo", "obj2": "taroo", "obj": "score"}
        and names2 == {"subj": "taroo", "obj2": "ziroo", "obj": "score"}
    )
    conclude(
        3, "overtness minimal pair flips who asks whom",
        ok, f"got {names1} / {names2}",
    )


def test_criterion_4_topic_marking_controls_instantiation():
    _dw, golds_wa, res_wa = corpus_results()["instantiation_wa.json"]
    _dg, _golds_ga, res_ga = corpus_results()["instantiation_ga.json"]
    wa_top = res_wa.top.step_at(2)
    wa_ok = (
        wa_top.assignment == preferred_label(golds_wa).assignment
        and wa_top.state.cb == "taroo"
        and all(
            h.step_at(2).state.cb == "taroo"
            for h in res_wa.hypotheses
        )
    )
    ga_centers = {h.step_at(2).state.cb for h in res_ga.hypotheses}
    ga_ok = ga_centers == {"taroo", "ziroo"}
    conclude(
        4, "wa pins the center; ga leaves both center readings open",
        wa_ok and ga_ok, f"wa ok={wa_ok}, ga centers={ga_centers}",
    )


def test_criterion_5_engine_matches_exhaustive_oracle():
    problems = []
    for name, (discourse, _golds, _result) in corpus_results().items():
        report = oracle.check_equivalence(discourse, DEFAULT)
        if not report.equivalent:
            problems.append(f"{name}: {report.detail}")
    resolvable = 0
    for i, (_d, report, _result) in enumerate(random_trials()):
        if not report.equivalent:
            problems.append(f"random trial {i}: {report.detail}")
            break
        if report.oracle_count:
            resolvable += 1
    if not problems and resolvable <= RANDOM_TRIALS * 0.6:
        problems.append(f"only {resolvable} random trials resolvable")
    conclude(
        5,
        f"engine equals brute-force oracle (corpus + {RANDOM_TRIALS} random)",
        not problems, "; ".join(problems),
    )


def test_criterion_6_invariants_hold_on_every_state():
    failures = []
    for name, (discourse, _golds, result) in corpus_results().items():
        for f in hypothesis_invariant_failures(discourse, DEFAULT, result):
            failures.append(f"{name}: {f}")
        for f in beam_extension_failures(discourse, DEFAULT):
            failures.append(f"{name}: {f}")
    for i, (discourse, _report, result) in enumerate(random_trials()):
        if result is None:
            continue
        for f in hypothesis_invariant_failures(discourse, RANDOM_CONFIG, result):
            failures.append(f"random trial {i}: {f}")
        for f in beam_extension_failures(discourse, RANDOM_CONFIG):
            failures.append(f"random trial {i}: {f}")
    conclude(
        6, "center constraints, Rule 1, ZTA soundness, rank monotonicity",
        not failures, "; ".join(failures[:5]),
    )


def test_criterion_7_transition_table_is_exhaustive():
    universe = ["a", "b", "c"]
    table = {
        (True, True): Transition.CONTINUE,
        (True, False): Transition.RETAIN,
        (False, True): Transition.SMOOTH_SHIFT,
        (False, False): Transition.ROUGH_SHIFT,
    }
    bad = []
    for prev, cb, cp in itertools.product([None] + universe, universe, universe):
        want = table[(prev is None or prev == cb, cb == cp)]
        got = classify_transition(prev, cb, cp)
        if got is not want:
            bad.append((prev, cb, cp, got.name, want.name))
    conclude(
        7, "four-way transition split reproduced exhaustively",
        not bad, str(bad[:5]),
    )


def test_criterion_8_starred_examples_flag_their_violations():
    expected = {
        "invalid_wa_indefinite.json": "WA_ON_INDEFINITE",
        "invalid_empathy_hearer_new.json": "EMPATHY_NOT_EVOKED",
        "invalid_empathy_indefinite.json": "EMPATHY_NOT_EVOKED",
    }
    problems = []
    for name, code in expected.items():
        try:
            corpus.load_corpus(name)
            problems.append(f"{name}: accepted")
            continue
        except corpus.DiscourseFormatError as err:
            issues = err.issues
        if len(issues) != 1 or issues[0].category != corpus.VALIDATION:
            problems.append(f"{name}: {issues}")
        elif not issues[0].message.startswith(code):
            problems.append(f"{name}: {issues[0].message}")
    conclude(
        8, "infelicitous topic/empathy marking is flagged",
        not problems, "; ".join(problems),
    )
