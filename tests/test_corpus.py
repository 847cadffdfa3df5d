"""Corpus wire format: parsing, canonical serialization, gold checking."""

import json

import pytest

from centering import corpus, engine
from centering.corpus import (
    DiscourseFormatError,
    GoldLabel,
    PARSE,
    SCHEMA,
    VALIDATION,
    check_gold,
    load_corpus,
    parse_discourse,
    serialize_discourse,
)
from centering.model import Significance


def valid_text():
    return corpus.corpus_text("zta_ex_ga.json")


def categories_of(err):
    return [(i.category, i.path) for i in err.issues]


# --------------------------------------------------------------------------
# Bundled corpus


def test_bundled_corpus_inventory():
    assert len(corpus.VALID_FILES) == 12
    assert len(corpus.INVALID_FILES) == 3
    assert len(list(corpus.iter_valid_corpus())) == 12


def test_reference_file_shape():
    discourse, golds = load_corpus("zta_ex_ga.json")
    assert len(discourse.utterances) == 4
    assert len(discourse.entities) == 4
    assert len(golds) == 2
    assert {g.significance for g in golds} == {Significance.SIGNIFICANT}


def test_unknown_corpus_name_is_rejected():
    with pytest.raises(KeyError):
        corpus.corpus_text("no_such_file.json")


def test_serialization_round_trips_byte_for_byte():
    for name in corpus.VALID_FILES:
        text = corpus.corpus_text(name)
        discourse, golds = parse_discourse(text)
        assert serialize_discourse(discourse, golds) == text, name


def test_serialized_key_order_is_fixed():
    discourse, golds = load_corpus("zta_ex_ga.json")
    doc = json.loads(serialize_discourse(discourse, golds))
    assert list(doc) == ["entities", "utterances", "gold"]
    assert list(doc["entities"][0]) == ["id", "animate", "hearer_old", "definite"]
    utterance = doc["utterances"][0]
    assert list(utterance) == ["verb", "args", "others", "gloss"]
    assert list(utterance["verb"]) == ["lemma", "subcat", "sortal", "empathy_locus"]
    assert list(utterance["args"][0]) == ["role", "marking", "realization"]
    assert list(doc["gold"][0]) == [
        "utterance_index", "assignment", "support_count", "significance",
    ]


# --------------------------------------------------------------------------
# Error categories


def test_malformed_json_is_a_parse_error_with_position():
    with pytest.raises(DiscourseFormatError) as err:
        parse_discourse("{not json")
    issue = err.value.issues[0]
    assert issue.category == PARSE
    assert issue.line == 1 and issue.column is not None


def test_bytes_that_are_not_utf8_are_a_parse_error_with_position():
    with pytest.raises(DiscourseFormatError) as err:
        parse_discourse(b'{\n  "entities": ["\xe9"]}')
    (issue,) = err.value.issues
    assert (issue.category, issue.line, issue.column) == (PARSE, 2, 17)


def test_non_object_document_is_a_schema_error():
    with pytest.raises(DiscourseFormatError) as err:
        parse_discourse("[1, 2]")
    assert err.value.categories == {SCHEMA}


def test_unknown_fields_are_schema_errors_with_paths():
    doc = json.loads(valid_text())
    doc["mystery"] = 1
    doc["entities"][0]["color"] = "red"
    with pytest.raises(DiscourseFormatError) as err:
        parse_discourse(json.dumps(doc))
    assert set(categories_of(err.value)) == {
        (SCHEMA, "$.mystery"),
        (SCHEMA, "$.entities[0].color"),
    }


def test_an_earlier_issue_does_not_hide_a_later_constructor_issue():
    # Each item's constructor check must run whatever went wrong in an
    # earlier item: a frame with a duplicate role, and an utterance whose
    # args do not follow its frame.
    doc = json.loads(corpus.corpus_text("cont_ret_ex.json"))
    doc["utterances"][0]["mystery"] = 1
    doc["utterances"][1]["verb"]["subcat"][1] = "subj"
    doc["utterances"][2]["args"].reverse()
    with pytest.raises(DiscourseFormatError) as err:
        parse_discourse(json.dumps(doc))
    found = {(i.path, i.message) for i in err.value.issues}
    assert ("$.utterances[0].mystery", "unknown field") in found
    assert ("$.utterances[1].verb", "miseru: duplicate role in subcat") in found
    assert any(
        path == "$.utterances[2]" and "args must realize exactly" in message
        for path, message in found
    )
    assert err.value.categories == {SCHEMA}


def test_missing_required_fields_are_schema_errors():
    doc = json.loads(valid_text())
    del doc["entities"]
    with pytest.raises(DiscourseFormatError) as err:
        parse_discourse(json.dumps(doc))
    assert err.value.categories == {SCHEMA}


def test_marked_zero_is_a_schema_error():
    doc = json.loads(valid_text())
    # utterance b has a zero subject; give it a topic particle
    doc["utterances"][1]["args"][0]["marking"] = "wa"
    with pytest.raises(DiscourseFormatError) as err:
        parse_discourse(json.dumps(doc))
    assert err.value.categories == {SCHEMA}
    assert any("args[0]" in i.path for i in err.value.issues)


def test_empty_np_is_a_schema_error():
    doc = json.loads(valid_text())
    doc["utterances"][0]["args"][0]["realization"] = {"np": ""}
    with pytest.raises(DiscourseFormatError) as err:
        parse_discourse(json.dumps(doc))
    assert err.value.categories == {SCHEMA}
    assert err.value.issues[0].path == "$.utterances[0].args[0].realization.np"


def test_bad_role_keyword_is_a_schema_error():
    doc = json.loads(valid_text())
    doc["utterances"][0]["args"][0]["role"] = "topic"
    with pytest.raises(DiscourseFormatError) as err:
        parse_discourse(json.dumps(doc))
    assert err.value.categories == {SCHEMA}
    assert "$.utterances[0].args[0].role" in [i.path for i in err.value.issues]


def test_bad_significance_keyword_is_a_schema_error():
    doc = json.loads(valid_text())
    doc["gold"][0]["significance"] = "sure"
    with pytest.raises(DiscourseFormatError) as err:
        parse_discourse(json.dumps(doc))
    assert err.value.categories == {SCHEMA}
    assert "$.gold[0].significance" in [i.path for i in err.value.issues]


def test_undeclared_argument_entity_is_a_validation_issue():
    doc = json.loads(valid_text())
    doc["utterances"][0]["args"][0]["realization"] = {"np": "nobody"}
    with pytest.raises(DiscourseFormatError) as err:
        parse_discourse(json.dumps(doc))
    assert err.value.categories == {VALIDATION}


def test_undeclared_gold_entity_is_a_validation_issue():
    doc = json.loads(valid_text())
    doc["gold"][0]["assignment"]["subj"] = "nobody"
    with pytest.raises(DiscourseFormatError) as err:
        parse_discourse(json.dumps(doc))
    assert err.value.categories == {VALIDATION}


def test_gold_slots_must_cover_the_frame():
    doc = json.loads(valid_text())
    del doc["gold"][0]["assignment"]["subj"]
    with pytest.raises(DiscourseFormatError) as err:
        parse_discourse(json.dumps(doc))
    assert err.value.categories == {SCHEMA}


def test_gold_index_must_point_at_an_utterance():
    doc = json.loads(valid_text())
    doc["gold"][0]["utterance_index"] = 9
    with pytest.raises(DiscourseFormatError) as err:
        parse_discourse(json.dumps(doc))
    assert err.value.categories == {SCHEMA}


def test_negative_support_count_is_a_schema_issue():
    doc = json.loads(valid_text())
    assert [g["support_count"] for g in doc["gold"]] == [28, 6]
    doc["gold"][0]["support_count"] = -29
    doc["gold"][1]["support_count"] = -7
    with pytest.raises(DiscourseFormatError) as err:
        parse_discourse(json.dumps(doc))
    assert categories_of(err.value) == [
        (SCHEMA, "$.gold[0].support_count"),
        (SCHEMA, "$.gold[1].support_count"),
    ]
    doc["gold"][0]["support_count"] = 0
    doc["gold"][1]["support_count"] = None
    _discourse, golds = parse_discourse(json.dumps(doc))
    assert [g.support_count for g in golds] == [0, None]


def test_starred_files_each_carry_one_designated_violation():
    expected = {
        "invalid_wa_indefinite.json": "WA_ON_INDEFINITE",
        "invalid_empathy_hearer_new.json": "EMPATHY_NOT_EVOKED",
        "invalid_empathy_indefinite.json": "EMPATHY_NOT_EVOKED",
    }
    for name, code in expected.items():
        with pytest.raises(DiscourseFormatError) as err:
            load_corpus(name)
        assert err.value.categories == {VALIDATION}, name
        assert len(err.value.issues) == 1, name
        assert err.value.issues[0].message.startswith(code), name


# --------------------------------------------------------------------------
# Gold checking


def test_gold_checks_pass_on_the_bundled_corpus():
    config = engine.EngineConfig(beam_width=64)
    for name, discourse, golds in corpus.iter_valid_corpus():
        result = engine.resolve(discourse, config)
        report = check_gold(golds, result.hypotheses)
        assert report.ok, (name, report)


def test_gold_report_without_labels_is_not_ok():
    discourse, _golds = load_corpus("shift_ex.json")
    result = engine.resolve(discourse)
    assert check_gold((), result.hypotheses).ok is False


def test_gold_label_outside_the_readings_fails():
    discourse, golds = load_corpus("shift_ex.json")
    result = engine.resolve(discourse)
    assert check_gold(golds, result.hypotheses).ok
    last = len(discourse.utterances)
    for index in (0, last + 1):
        stray = GoldLabel(index, golds[0].assignment, 1, golds[0].significance)
        report = check_gold((*golds, stray), result.hypotheses)
        assert not report.ok
        failed = [c for c in report.checks if not c.ok]
        assert [(c.utterance_index, c.detail) for c in failed] == [
            (index, f"no utterance {index} in the readings")
        ]


def test_significant_gold_requires_the_top_reading_to_match():
    discourse, golds = load_corpus("zta_ex_ga.json")
    result = engine.resolve(discourse, engine.EngineConfig(beam_width=64))
    # Swap the support counts so the minority reading becomes preferred:
    # the top reading no longer matches.
    flipped = tuple(
        GoldLabel(
            g.utterance_index,
            g.assignment,
            {28: 6, 6: 28}[g.support_count],
            g.significance,
        )
        for g in golds
    )
    assert not check_gold(flipped, result.hypotheses).ok


def test_ambiguous_gold_requires_both_readings_present():
    discourse, golds = load_corpus("zta_ex_wa.json")
    result = engine.resolve(discourse, engine.EngineConfig(beam_width=64))
    assert check_gold(golds, result.hypotheses).ok
    # Demand an assignment nobody produced (entities rotated one slot
    # left): the check must fail.
    roles = list(golds[0].assignment)
    values = list(golds[0].assignment.values())
    rotated = dict(zip(roles, values[1:] + values[:1]))
    impossible = GoldLabel(
        golds[0].utterance_index, rotated, 1, golds[0].significance
    )
    broken = (*golds, impossible)
    assert not check_gold(broken, result.hypotheses).ok
