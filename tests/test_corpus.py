"""Corpus wire format: parsing, canonical serialization, gold checking."""

import itertools
import json
from operator import setitem

import pytest

from centering import corpus, engine
from centering.corpus import (
    DiscourseFormatError,
    GoldLabel,
    PARSE,
    SCHEMA,
    VALIDATION,
    check_gold,
    parse_discourse,
    serialize_discourse,
)
from centering.model import Significance
from helpers import load_corpus


def valid_text():
    return corpus.corpus_text("zta_ex_ga.json")


def categories_of(err):
    return [(i.category, i.path) for i in err.issues]


# --------------------------------------------------------------------------
# Bundled corpus


def test_bundled_corpus_inventory():
    assert len(corpus.VALID_FILES) == 12
    assert len(corpus.INVALID_FILES) == 3
    assert all(load_corpus(name)[0].utterances for name in corpus.VALID_FILES)


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
    # earlier item, or in a field that feeds no constructor: a frame with
    # a duplicate role and an unknown field, and an utterance whose args
    # do not follow its frame.
    doc = json.loads(corpus.corpus_text("cont_ret_ex.json"))
    doc["utterances"][0]["mystery"] = 1
    doc["utterances"][1]["verb"]["subcat"][1] = "subj"
    doc["utterances"][1]["verb"]["mystery"] = 1
    doc["utterances"][2]["args"].reverse()
    with pytest.raises(DiscourseFormatError) as err:
        parse_discourse(json.dumps(doc))
    found = {(i.path, i.message) for i in err.value.issues}
    assert ("$.utterances[0].mystery", "unknown field") in found
    assert ("$.utterances[1].verb", "miseru: duplicate role in subcat") in found
    assert ("$.utterances[1].verb.mystery", "unknown field") in found
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
    # Located at the argument, and at the others list for an others entry.
    doc = json.loads(valid_text())
    doc["utterances"][0]["args"][0]["realization"] = {"np": "nobody"}
    doc["utterances"][2]["others"] = ["no-one"]
    with pytest.raises(DiscourseFormatError) as err:
        parse_discourse(json.dumps(doc))
    assert categories_of(err.value) == [
        (VALIDATION, "$.utterances[0].args[0]"),
        (VALIDATION, "$.utterances[2].others"),
    ]


def test_undeclared_gold_entity_is_a_validation_issue():
    # Every undeclared entity is reported, each at its own slot.
    doc = json.loads(valid_text())
    slots = list(doc["gold"][0]["assignment"])
    for slot in slots:
        doc["gold"][0]["assignment"][slot] = f"nobody-{slot}"
    with pytest.raises(DiscourseFormatError) as err:
        parse_discourse(json.dumps(doc))
    assert categories_of(err.value) == [
        (VALIDATION, f"$.gold[0].assignment.{slot}") for slot in slots
    ]
    assert [i.message for i in err.value.issues] == [
        f"undeclared entity 'nobody-{slot}'" for slot in slots
    ]


def test_gold_slots_must_cover_the_frame():
    doc = json.loads(valid_text())
    del doc["gold"][0]["assignment"]["subj"]
    with pytest.raises(DiscourseFormatError) as err:
        parse_discourse(json.dumps(doc))
    assert err.value.categories == {SCHEMA}
    # A slot the utterance lacks is reported at that slot.
    doc = json.loads(valid_text())
    assert doc["gold"][0]["utterance_index"] == 4
    doc["gold"][0]["assignment"]["other"] = "hanako"
    assert [(i.category, i.path, i.message) for i in error_of(doc).issues] == [
        (SCHEMA, "$.gold[0].assignment.other", "utterance 4 has no such slot"),
    ]


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
    # A violation points at the argument that carries it: args[j], where j
    # is the slot's position in the frame's subcat.
    expected = {
        "invalid_wa_indefinite.json": ("WA_ON_INDEFINITE", "$.utterances[0].args[0]"),
        "invalid_empathy_hearer_new.json": ("EMPATHY_NOT_EVOKED", "$.utterances[0].args[1]"),
        "invalid_empathy_indefinite.json": ("EMPATHY_NOT_EVOKED", "$.utterances[0].args[1]"),
    }
    for name, (code, path) in expected.items():
        with pytest.raises(DiscourseFormatError) as err:
            load_corpus(name)
        assert err.value.categories == {VALIDATION}, name
        assert len(err.value.issues) == 1, name
        assert err.value.issues[0].message.startswith(code), name
        assert err.value.issues[0].path == path, name


# --------------------------------------------------------------------------
# Every issue of every item


def error_of(doc):
    with pytest.raises(DiscourseFormatError) as err:
        parse_discourse(json.dumps(doc))
    return err.value


def at_or_under(issues, path):
    return any(
        i.path == path or i.path.startswith((path + ".", path + "["))
        for i in issues
    )


def json_objects(value, path="$"):
    """Every (path, object) in a JSON document, the document first."""
    if isinstance(value, dict):
        yield path, value
        for key, item in value.items():
            yield from json_objects(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from json_objects(item, f"{path}[{i}]")


def json_leaves(value, path="$"):
    """Every (path, container, key) whose value is a scalar or an empty container."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        where = f"{path}.{key}" if isinstance(value, dict) else f"{path}[{key}]"
        if isinstance(item, (dict, list)) and item:
            yield from json_leaves(item, where)
        else:
            yield where, value, key


def test_every_bad_field_of_an_item_is_reported():
    # For each object of the valid files, spoil each pair of its scalar
    # fields (and the sortal and assignment objects): both are reported.
    pairs = 0
    for name in corpus.VALID_FILES:
        text = corpus.corpus_text(name)
        for path, obj in json_objects(json.loads(text)):
            fields = [
                key for key, item in obj.items()
                if key in ("sortal", "assignment") or not isinstance(item, (dict, list))
            ]
            for first, second in itertools.combinations(fields, 2):
                doc = json.loads(text)
                spoiled = dict(json_objects(doc))[path]
                spoiled[first] = spoiled[second] = [1]
                issues = error_of(doc).issues
                for key in (first, second):
                    assert at_or_under(issues, f"{path}.{key}"), (name, path, first, second)
                pairs += 1
    assert pairs == 736


def test_a_bad_leaf_anywhere_ends_in_a_format_error():
    # Replace every leaf of every bundled file with each JSON type in turn:
    # the parse succeeds or raises DiscourseFormatError, never anything else.
    for name in corpus.CORPUS_FILES:
        doc = json.loads(corpus.corpus_text(name))
        for path, container, key in list(json_leaves(doc)):
            original = container[key]
            for replacement in (None, 7, [], {}):
                container[key] = replacement
                try:
                    parse_discourse(json.dumps(doc))
                except DiscourseFormatError:
                    pass
                except Exception as err:
                    pytest.fail(f"{name}: {path} = {replacement!r} raised {err!r}")
            container[key] = original


def test_a_lone_surrogate_in_any_string_is_a_schema_issue_at_its_path():
    # json decodes an unpaired \ud800 escape into a string no encoding can
    # write; a paired escape decodes to one valid character and is kept.
    spoiled = 0
    for name in corpus.VALID_FILES:
        doc = json.loads(corpus.corpus_text(name))
        for path, container, key in list(json_leaves(doc)):
            original = container[key]
            if isinstance(original, str):
                container[key] = original + "\ud800"
                assert (SCHEMA, path) in categories_of(error_of(doc)), (name, path)
                container[key] = original
                spoiled += 1
    assert spoiled == 603
    doc = json.loads(valid_text())
    doc["utterances"][0]["gloss"] = "\U0001F600"
    assert "\\ud83d\\ude00" in json.dumps(doc)
    assert parse_discourse(json.dumps(doc))[0].utterances[0].gloss == "\U0001F600"


def test_a_frame_reports_a_bad_lemma_and_a_bad_sortal_together():
    doc = json.loads(corpus.corpus_text("cont_ret_ex.json"))
    doc["utterances"][0]["verb"]["lemma"] = 7
    doc["utterances"][0]["verb"]["sortal"] = {"subj": "plant"}
    lemma, sortal = error_of(doc).issues
    assert (lemma.path, lemma.message) == ("$.utterances[0].verb.lemma", "expected a string, got int")
    assert sortal.path == "$.utterances[0].verb.sortal.subj"
    assert sortal.message.startswith("unknown sortal constraint 'plant'")


def test_a_gold_label_reports_every_bad_slot():
    doc = json.loads(valid_text())
    doc["gold"][0]["assignment"]["subj"] = 7
    doc["gold"][0]["assignment"]["topic"] = "taroo"
    assert categories_of(error_of(doc)) == [
        (SCHEMA, "$.gold[0].assignment.subj"),
        (SCHEMA, "$.gold[0].assignment.topic"),
    ]


def test_discourse_level_issues_are_located():
    doc = json.loads(valid_text())
    doc["entities"].append(dict(doc["entities"][0]))
    doc["entities"].append(dict(doc["entities"][1]))
    n = len(doc["entities"])
    assert [(i.path, i.message) for i in error_of(doc).issues] == [
        (f"$.entities[{n - 2}].id", f"duplicate entity id {doc['entities'][0]['id']!r}"),
        (f"$.entities[{n - 1}].id", f"duplicate entity id {doc['entities'][1]['id']!r}"),
    ]
    doc = json.loads(valid_text())
    doc["utterances"] = []
    doc["gold"] = []
    assert categories_of(error_of(doc)) == [(SCHEMA, "$.utterances")]


def issues_of_spoiled(spoil):
    """The (category, path, message) of each issue once spoil has changed valid_text()."""
    doc = json.loads(valid_text())
    spoil(doc)
    return [(i.category, i.path, i.message) for i in error_of(doc).issues]


def test_an_item_that_is_not_a_whole_object_is_one_issue_at_its_path():
    # Another JSON type in place of an item, or an item without a required
    # field, is reported at the item itself; nothing is built from it, so
    # no later check reports it again.
    assert issues_of_spoiled(lambda doc: setitem(doc["entities"], 1, 7)) == [
        (SCHEMA, "$.entities[1]", "expected an object, got int"),
    ]
    assert issues_of_spoiled(lambda doc: doc["utterances"][2]["verb"].pop("subcat")) == [
        (SCHEMA, "$.utterances[2].verb", "missing required field 'subcat'"),
    ]
    assert issues_of_spoiled(lambda doc: setitem(doc["utterances"][1]["args"], 0, "zero")) == [
        (SCHEMA, "$.utterances[1].args[0]", "expected an object, got str"),
    ]
    assert issues_of_spoiled(lambda doc: doc["utterances"][3].pop("args")) == [
        (SCHEMA, "$.utterances[3]", "missing required field 'args'"),
    ]
    assert issues_of_spoiled(lambda doc: setitem(doc["gold"], 1, [])) == [
        (SCHEMA, "$.gold[1]", "expected an object, got list"),
    ]


def test_gold_labels_are_read_only_once_the_discourse_reads_cleanly():
    doc = json.loads(valid_text())
    doc["entities"][0]["animate"] = "yes"
    doc["gold"][0]["significance"] = "sure"
    assert categories_of(error_of(doc)) == [(SCHEMA, "$.entities[0].animate")]


# --------------------------------------------------------------------------
# Gold checking


def test_gold_checks_pass_on_the_bundled_corpus():
    config = engine.EngineConfig(beam_width=64)
    for name in corpus.VALID_FILES:
        discourse, golds = load_corpus(name)
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
    # With no readings at all there is no top reading to match.
    report = check_gold(golds, ())
    assert [(c.utterance_index, c.ok, c.detail) for c in report.checks] == [
        (4, False, "no hypotheses produced"),
    ]


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
