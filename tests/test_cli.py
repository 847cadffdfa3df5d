"""Command-line interface: subcommands, formats, exit codes."""

import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from centering import cli, corpus, engine, oracle
from centering.cli import (
    EXIT_FORMAT,
    EXIT_IO,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_OUTPUT,
    EXIT_SIZE_LIMIT,
    EXIT_UNRESOLVABLE,
    EXIT_USAGE,
    EXIT_VALIDATION,
    run_cli,
)
from centering.corpus import serialize_discourse
from centering.engine import EngineConfig, resolve
from helpers import (
    load_corpus,
    oversized_discourse,
    random_discourse,
    readings_json,
    unresolvable_discourse,
)

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def corpus_file(tmp_path):
    def _write(name):
        path = tmp_path / name
        path.write_text(corpus.corpus_text(name), encoding="utf-8")
        return str(path)

    return _write


# --------------------------------------------------------------------------
# resolve


def test_resolve_prints_ranked_readings(corpus_file, capsys):
    assert run_cli(["resolve", corpus_file("zta_ex_ga.json")]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("4 reading(s)\n#1 score=0\n")
    first_reading = out.split("#2")[0]
    assert "u4: subj=hanako obj2=lunch obj=mitiko" in first_reading
    assert "zta" in first_reading


def test_resolve_without_zta_flips_the_preferred_reading(corpus_file, capsys):
    path = corpus_file("zta_ex_ga.json")
    assert run_cli(["resolve", path, "--no-zta"]) == EXIT_OK
    out = capsys.readouterr().out
    first_reading = out.split("#2")[0]
    assert "u4: subj=mitiko obj2=lunch obj=hanako" in first_reading
    assert "smooth_shift" in first_reading


def test_resolve_trace_prints_fixed_tables(corpus_file, capsys):
    assert run_cli(["resolve", corpus_file("zta_ex_ga.json"), "--trace"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "HYP | CB" in out
    header = next(line for line in out.splitlines() if line.startswith("HYP"))
    assert [c.strip() for c in header.split("|")] == [
        "HYP", "CB", "CF", "TRANSITION", "ZTA", "SCORE",
    ]
    assert out.count("u1:") == 1 and out.count("u4:") == 1


def test_resolve_trace_score_column_ends_at_each_reading_score(corpus_file, capsys):
    path = corpus_file("zta_ex_ga.json")
    assert run_cli(["resolve", path, "--format", "json"]) == EXIT_OK
    scores = [r["score"] for r in json.loads(capsys.readouterr().out)["readings"]]
    assert run_cli(["resolve", path, "--trace"]) == EXIT_OK
    last_table = capsys.readouterr().out.split("u4:")[1]
    rows = [line.split("|") for line in last_table.splitlines()[3:] if line]
    assert [int(row[5]) for row in rows] == scores
    assert len(set(scores)) > 1


def test_resolve_json_is_machine_readable(corpus_file, capsys):
    assert run_cli(
        ["resolve", corpus_file("zta_ex_ga.json"), "--format", "json"]
    ) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    readings = doc["readings"]
    assert [r["rank"] for r in readings] == [1, 2, 3, 4]
    top = readings[0]
    assert top["score"] == 0
    last = top["steps"][-1]
    assert last["assignment"] == {
        "subj": "hanako", "obj2": "lunch", "obj": "mitiko",
    }
    assert last["transition"] == "continue"
    assert top["steps"][2]["zta"] is True


#: A discourse-initial ga subject leaves the Cb uninstantiated; none of
#: the bundled files ends a reading with an open Cb.
GA_OPENER = {
    "entities": [
        {"id": "taroo", "animate": True, "hearer_old": True, "definite": True}
    ],
    "utterances": [{
        "verb": {"lemma": "kuru", "subcat": ["subj"]},
        "args": [{"role": "subj", "marking": "ga", "realization": {"np": "taroo"}}],
    }],
}


def test_an_open_cb_renders_as_a_placeholder_in_text_and_null_in_json(tmp_path, capsys):
    path = tmp_path / "open_cb.json"
    path.write_text(json.dumps(GA_OPENER), encoding="utf-8")
    assert run_cli(["resolve", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == (
        "1 reading(s)\n"
        "#1 score=0\n"
        "  u1: subj=taroo | cb=[?] cf=[taroo:subj] initial\n"
    )
    assert run_cli(["resolve", str(path), "--trace"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "u1: kuru\n"
        "HYP | CB  | CF           | TRANSITION | ZTA | SCORE\n"
        "---------------------------------------------------\n"
        "1   | [?] | [taroo:subj] | initial    | no  | 0    \n"
        "\n"
    )
    assert run_cli(["resolve", str(path), "--format", "json"]) == EXIT_OK
    out = capsys.readouterr().out
    assert '"cb": null,' in out
    assert json.loads(out)["readings"][0]["steps"][0]["cb"] is None


def test_resolve_honors_beam_width(corpus_file, capsys):
    assert run_cli(["resolve", corpus_file("zta_ex_ga.json"), "--beam", "1"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("1 reading(s)")


# --------------------------------------------------------------------------
# resolve --format json against the reference encoding


def _resolve_json_matches_reference(path, capsys, beam=16, zta=True) -> int:
    """Assert that resolve --format json prints the reference text; return its exit code.

    The reference is json.dumps over helpers.readings_json of the same
    readings.  An unresolvable or infelicitous discourse prints no
    readings to compare.
    """
    argv = ["resolve", str(path), "--format", "json", "--beam", str(beam)]
    code = run_cli(argv if zta else [*argv, "--no-zta"])
    out = capsys.readouterr().out
    if code != EXIT_OK:
        return code
    discourse, _golds = corpus.parse_discourse(Path(path).read_bytes())
    result = resolve(discourse, EngineConfig(beam_width=beam, zta_enabled=zta))
    reference = json.dumps({"readings": readings_json(result.hypotheses)}, indent=2)
    assert out == reference + "\n", (path, beam, zta)
    return code


@pytest.mark.parametrize("name", corpus.VALID_FILES)
def test_resolve_json_matches_the_reference_on_the_bundled_files(corpus_file, capsys, name):
    path = corpus_file(name)
    for beam in (1, 2, 4, 16, 64):
        for zta in (True, False):
            assert _resolve_json_matches_reference(path, capsys, beam, zta) == EXIT_OK


def test_resolve_json_matches_the_reference_on_generated_discourses(
    tmp_path, capsys, workloads
):
    discourses = [workloads.long_chain(random.Random(k), 50) for k in range(2)]
    discourses += [workloads.wide_pool(random.Random(10), 10, kind) for kind in (False, True)]
    discourses += [random_discourse(random.Random(k)) for k in range(40)]
    codes = []
    for i, discourse in enumerate(discourses):
        path = tmp_path / f"d{i}.json"
        path.write_text(serialize_discourse(discourse), encoding="utf-8")
        codes.append(_resolve_json_matches_reference(path, capsys))
    assert codes[:4] == [EXIT_OK] * 4
    assert set(codes) <= {EXIT_OK, EXIT_UNRESOLVABLE, EXIT_VALIDATION}
    assert codes.count(EXIT_OK) > len(codes) // 2


def test_resolve_json_escapes_non_ascii_ids_and_prints_an_open_cb_as_null(
    tmp_path, capsys
):
    opener = tmp_path / "ga_opener.json"
    opener.write_text(json.dumps(GA_OPENER), encoding="utf-8")
    assert _resolve_json_matches_reference(opener, capsys) == EXIT_OK

    ids = ["太郎", "花子", "José"]
    path = tmp_path / "non_ascii.json"
    path.write_text(json.dumps({
        "entities": [
            {"id": eid, "animate": True, "hearer_old": True, "definite": True}
            for eid in ids
        ],
        "utterances": [
            {
                "verb": {"lemma": "miru", "subcat": ["subj", "obj"]},
                "args": [
                    {"role": "subj", "marking": "wa", "realization": {"np": ids[0]}},
                    {"role": "obj", "marking": "o", "realization": {"np": ids[1]}},
                ],
            },
            {
                "verb": {"lemma": "yobu", "subcat": ["subj", "obj"]},
                "args": [
                    {"role": "subj", "marking": "none", "realization": "zero"},
                    {"role": "obj", "marking": "o", "realization": {"np": ids[2]}},
                ],
            },
        ],
    }, ensure_ascii=False), encoding="utf-8")
    assert _resolve_json_matches_reference(path, capsys) == EXIT_OK
    assert run_cli(["resolve", str(path), "--format", "json"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.isascii() and r'"\u592a\u90ce"' in out and r'"Jos\u00e9"' in out


def test_resolve_json_of_no_readings_is_the_reference_text():
    assert cli._render_readings_json(()) == json.dumps({"readings": []}, indent=2)


def test_resolve_json_encodes_each_distinct_step_once(tmp_path, capsys, workloads, monkeypatch):
    """The beam shares prefixes: 16 readings of 200 steps hold far fewer distinct ones."""
    path = tmp_path / "chain.json"
    path.write_text(
        serialize_discourse(workloads.long_chain(random.Random(200), 200)), encoding="utf-8"
    )
    results = []
    encoded = []
    step_json = cli._step_json

    def resolve_and_keep(*args):
        results.append(resolve(*args))
        return results[-1]

    def counting_step_json(step):
        encoded.append(step)
        return step_json(step)

    monkeypatch.setattr(cli, "resolve", resolve_and_keep)
    monkeypatch.setattr(cli, "_step_json", counting_step_json)
    assert run_cli(["resolve", str(path), "--format", "json"]) == EXIT_OK
    capsys.readouterr()
    (result,) = results
    references = [s for h in result.hypotheses for s in h.steps]
    distinct = {id(s) for s in references}
    assert len(references) == 3200 and len(distinct) < 400
    assert len(encoded) == len(distinct)


def test_resolve_json_builds_no_rejection_record(tmp_path, capsys, workloads, monkeypatch):
    """The CLI never reads the rejection log, so no record is built and no pairing filtered.

    The 40-entity in-Cf pool prunes thousands of out-of-Cf pairings at
    utterance 2.  Read through resolve, the log holds the reference's
    records, built once: a second read returns the same tuple.
    """
    from test_engine import prefix, reference_rejections

    d = workloads.wide_pool(random.Random(5), 40, False)
    path = tmp_path / "pool.json"
    path.write_text(serialize_discourse(d), encoding="utf-8")
    made = Counter()
    record, verdict = engine.Rejection, engine.filter_assignment

    def counting_record(*args):
        made["records"] += 1
        return record(*args)

    def counting_filter(*args):
        made["filter calls"] += 1
        return verdict(*args)

    monkeypatch.setattr(engine, "Rejection", counting_record)
    monkeypatch.setattr(engine, "filter_assignment", counting_filter)
    assert run_cli(["resolve", str(path), "--format", "json"]) == EXIT_OK
    capsys.readouterr()
    assert made == Counter()

    result = resolve(d)
    assert made == Counter()
    [prev] = {h.last.state for h in resolve(prefix(d, 1)).hypotheses}
    logged = result.rejections[2]
    assert logged == tuple(reference_rejections(d, d.utterances[1], prev))
    assert made["records"] == len(logged) > 1000
    assert result.rejections[2] is logged and made["records"] == len(logged)
    utterances = range(1, len(d.utterances) + 1)
    assert list(result.rejections) == list(utterances)
    plain = {u: result.rejections[u] for u in utterances}
    assert result.rejections == plain and plain == result.rejections


# --------------------------------------------------------------------------
# check


def test_check_passes_on_gold_corpus(corpus_file, capsys):
    assert run_cli(["check", corpus_file("zta_emp_ga.json")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "gold: PASS" in out


def test_check_fails_on_flipped_gold(tmp_path, capsys):
    discourse, golds = load_corpus("zta_ex_ga.json")
    flipped = tuple(
        corpus.GoldLabel(
            g.utterance_index, g.assignment,
            {28: 6, 6: 28}[g.support_count], g.significance,
        )
        for g in golds
    )
    path = tmp_path / "flipped.json"
    path.write_text(serialize_discourse(discourse, flipped), encoding="utf-8")
    assert run_cli(["check", str(path)]) == EXIT_MISMATCH
    out = capsys.readouterr().out
    assert "MISMATCH" in out
    assert "gold: FAIL" in out


@pytest.fixture
def unlabelled_file(tmp_path):
    doc = json.loads(corpus.corpus_text("shift_ex.json"))
    del doc["gold"]
    path = tmp_path / "unlabelled.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_check_without_gold_labels_fails(unlabelled_file, capsys):
    assert run_cli(["check", unlabelled_file]) == EXIT_MISMATCH
    assert capsys.readouterr().out == "gold: NO LABELS\n"
    assert run_cli(["check", unlabelled_file, "--format", "json"]) == EXIT_MISMATCH
    assert json.loads(capsys.readouterr().out) == {"ok": False, "checks": []}


def test_check_json_reports_per_utterance(corpus_file, capsys):
    assert run_cli(
        ["check", corpus_file("cont_ret_ex.json"), "--format", "json"]
    ) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert [c["ok"] for c in doc["checks"]] == [True]


# --------------------------------------------------------------------------
# oracle


def test_oracle_subcommand_reports_equivalence(corpus_file, capsys):
    assert run_cli(["oracle", corpus_file("shift_ex.json")]) == EXIT_OK
    assert "EQUIVALENT" in capsys.readouterr().out


def test_oracle_subcommand_json(corpus_file, capsys):
    assert run_cli(
        ["oracle", corpus_file("minimal_pair_1.json"), "--format", "json"]
    ) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["equivalent"] is True
    assert doc["engine_count"] == doc["oracle_count"] == 2


def test_oracle_subcommand_hits_the_size_limit(tmp_path, capsys):
    path = tmp_path / "monster.json"
    path.write_text(serialize_discourse(oversized_discourse()), encoding="utf-8")
    assert run_cli(["oracle", str(path)]) == EXIT_SIZE_LIMIT
    assert "error:" in capsys.readouterr().err


def test_oracle_subcommand_reports_a_discrepancy(corpus_file, capsys, monkeypatch):
    real_resolve = oracle.resolve

    def swap_first_two(discourse, config):
        result = real_resolve(discourse, config)
        return replace(result, hypotheses=result.hypotheses[1::-1] + result.hypotheses[2:])

    monkeypatch.setattr(oracle, "resolve", swap_first_two)
    assert run_cli(["oracle", corpus_file("zta_ex_ga.json")]) == EXIT_MISMATCH
    assert capsys.readouterr().out.startswith("DISCREPANCY: readings diverge at rank 0")


# --------------------------------------------------------------------------
# validate and error paths


def test_validate_accepts_clean_files(corpus_file, capsys):
    assert run_cli(["validate", corpus_file("shift_ex.json")]) == EXIT_OK
    assert "no violations" in capsys.readouterr().out


def test_validate_reports_felicity_violations(corpus_file, capsys):
    path = corpus_file("invalid_wa_indefinite.json")
    assert run_cli(["validate", path]) == EXIT_VALIDATION
    assert "WA_ON_INDEFINITE" in capsys.readouterr().err


def test_validate_json_carries_issue_records(corpus_file, capsys):
    path = corpus_file("invalid_empathy_hearer_new.json")
    assert run_cli(["validate", path, "--format", "json"]) == EXIT_VALIDATION
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["issues"]) == 1
    assert doc["issues"][0]["category"] == "validation"
    assert "EMPATHY_NOT_EVOKED" in doc["issues"][0]["message"]


_CHECK_JSON = """\
{
  "ok": true,
  "checks": [
    {
      "utterance_index": 3,
      "ok": true,
      "detail": "top reading matches the preferred label (subj=taroo, obj2=john)"
    }
  ]
}
"""

_ORACLE_JSON = """\
{
  "equivalent": true,
  "engine_count": 2,
  "oracle_count": 2,
  "detail": "2 readings agree in content and order"
}
"""

_VALIDATE_JSON = """\
{
  "issues": [
    {
      "category": "validation",
      "path": "$.utterances[0].args[1]",
      "message": "EMPATHY_NOT_EVOKED: empathy locus of 'kasite-kureru' filled by unevoked entity 'dareka'",
      "line": null,
      "column": null
    }
  ]
}
"""

_SYNTAX_JSON = """\
{
  "issues": [
    {
      "category": "parse",
      "path": "$",
      "message": "Expecting property name enclosed in double quotes",
      "line": 1,
      "column": 2
    }
  ]
}
"""

_SCHEMA_JSON = """\
{
  "issues": [
    {
      "category": "schema",
      "path": "$.mystery",
      "message": "unknown field",
      "line": null,
      "column": null
    }
  ]
}
"""


@pytest.mark.parametrize(
    "command, content, expected_code, expected_out",
    [
        ("check", lambda: corpus.corpus_text("cont_ret_ex.json"), EXIT_OK, _CHECK_JSON),
        ("oracle", lambda: corpus.corpus_text("minimal_pair_1.json"), EXIT_OK, _ORACLE_JSON),
        (
            "validate", lambda: corpus.corpus_text("invalid_empathy_hearer_new.json"),
            EXIT_VALIDATION, _VALIDATE_JSON,
        ),
        ("resolve", lambda: "{oops", EXIT_FORMAT, _SYNTAX_JSON),
        ("check", lambda: _schema_error().decode("utf-8"), EXIT_FORMAT, _SCHEMA_JSON),
    ],
    ids=["check", "oracle", "validate", "syntax-error", "schema-error"],
)
def test_report_json_is_the_documented_text_byte_for_byte(
    tmp_path, capsys, command, content, expected_code, expected_out
):
    """Key order, nesting and null or integer positions are part of the contract."""
    path = tmp_path / "input.json"
    path.write_text(content(), encoding="utf-8")
    assert run_cli([command, str(path), "--format", "json"]) == expected_code
    assert capsys.readouterr() == (expected_out, "")


def test_missing_file_is_an_io_error(tmp_path, capsys):
    assert run_cli(["resolve", str(tmp_path / "nope.json")]) == EXIT_IO
    assert "cannot read" in capsys.readouterr().err


def test_bad_json_is_a_format_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops", encoding="utf-8")
    assert run_cli(["resolve", str(path)]) == EXIT_FORMAT
    assert capsys.readouterr().err


def test_schema_error_exits_format(tmp_path, capsys):
    doc = json.loads(corpus.corpus_text("shift_ex.json"))
    doc["mystery"] = True
    path = tmp_path / "unknown_field.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli(["check", str(path)]) == EXIT_FORMAT
    assert "unknown field" in capsys.readouterr().err


def test_negative_support_count_exits_format(tmp_path, capsys):
    # Negated, the counts would make check prefer the minority reading.
    doc = json.loads(corpus.corpus_text("zta_ex_ga.json"))
    for label, count in zip(doc["gold"], (-29, -7)):
        label["support_count"] = count
    path = tmp_path / "negative_support.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli(["check", str(path)]) == EXIT_FORMAT
    assert "$.gold[0].support_count" in capsys.readouterr().err
    assert run_cli(["check", str(path), "--format", "json"]) == EXIT_FORMAT
    issues = json.loads(capsys.readouterr().out)["issues"]
    assert [i["path"] for i in issues] == ["$.gold[0].support_count", "$.gold[1].support_count"]


def _exit_code(argv):
    """run_cli's return value, or the code of the SystemExit argparse raises."""
    try:
        return run_cli(argv)
    except SystemExit as exit_:
        return exit_.code


_VALID = corpus.corpus_text("shift_ex.json").encode("utf-8")


@pytest.mark.parametrize(
    "content, extra, commands, expected",
    [
        (b'{"entities": ["tar\xffoo"]}', [], ("resolve", "validate"), EXIT_FORMAT),
        (b"[" * 100_000 + b"]" * 100_000, [], ("resolve", "validate"), EXIT_FORMAT),
        (b"[" + b"1" * 5000 + b"]", [], ("resolve", "validate"), EXIT_FORMAT),
        (_VALID, ["--beam", "0"], ("resolve", "check", "oracle"), EXIT_USAGE),
        (_VALID, ["--beam", "-3"], ("resolve",), EXIT_USAGE),
        (_VALID, ["--bogus"], ("resolve", "validate"), EXIT_USAGE),
        (_VALID, ["--help"], ("resolve", "validate"), EXIT_OK),
    ],
    ids=["bad-utf8", "deep-nesting", "long-integer", "beam-0", "beam-negative",
         "unknown-flag", "help"],
)
def test_bad_input_and_command_lines_exit_with_documented_codes(
    tmp_path, capsys, content, extra, commands, expected
):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    for command in commands:
        assert _exit_code([command, str(path), *extra]) == expected, command
        err = capsys.readouterr().err
        if expected == EXIT_FORMAT:
            assert err.startswith("parse: $")
        elif expected == EXIT_USAGE:
            assert "usage:" in err and "error:" in err
        if "--beam" in extra:  # the subcommand's usage, not the top level's
            assert err.startswith(f"usage: centering {command} "), err
            assert f"centering {command}: error: argument --beam: must be" in err


def test_unresolvable_discourse_exits_three(tmp_path, capsys):
    path = tmp_path / "unresolvable.json"
    path.write_text(serialize_discourse(unresolvable_discourse()), encoding="utf-8")
    assert run_cli(["resolve", str(path)]) == EXIT_UNRESOLVABLE
    assert "no reading survives at utterance 2" in capsys.readouterr().err


# --------------------------------------------------------------------------
# Every subcommand against every kind of input failure


_COMMANDS = ("resolve", "check", "oracle", "validate")


def _every(code):
    return dict.fromkeys(_COMMANDS, code)


def _schema_error():
    doc = json.loads(corpus.corpus_text("shift_ex.json"))
    doc["mystery"] = True
    return json.dumps(doc).encode("utf-8")


#: shift_ex.json with the entity taroo, named by its gold labels too,
#: renamed to an id json decodes with an unpaired surrogate.
_LONE_SURROGATE = _VALID.replace(b'"taroo"', b'"a\\ud800"')

#: Input kind -> (file bytes, None for a path that is no file; the exit
#: code of each subcommand the kind applies to).  "clean" is the control.
_KINDS = {
    "clean": (lambda: _VALID, _every(EXIT_OK)),
    "missing": (None, _every(EXIT_IO)),
    "directory": (None, _every(EXIT_IO)),
    "bad-utf8": (lambda: b'{"entities": ["tar\xffoo"]}', _every(EXIT_FORMAT)),
    "schema": (_schema_error, _every(EXIT_FORMAT)),
    "lone-surrogate": (lambda: _LONE_SURROGATE, _every(EXIT_FORMAT)),
    "infelicitous": (
        lambda: corpus.corpus_text("invalid_wa_indefinite.json").encode("utf-8"),
        _every(EXIT_VALIDATION),
    ),
    "unresolvable": (
        lambda: serialize_discourse(unresolvable_discourse()).encode("utf-8"),
        {"resolve": EXIT_UNRESOLVABLE, "check": EXIT_UNRESOLVABLE},
    ),
    "size-limit": (
        lambda: serialize_discourse(oversized_discourse()).encode("utf-8"),
        {"oracle": EXIT_SIZE_LIMIT},
    ),
}


@pytest.mark.parametrize(
    "kind, command, fmt, expected",
    [
        pytest.param(kind, command, fmt, code, id=f"{kind}-{command}-{fmt}")
        for kind, (_content, codes) in _KINDS.items()
        for command, code in codes.items()
        for fmt in ("text", "json")
    ],
)
def test_every_subcommand_exits_with_the_documented_code_per_input_kind(
    tmp_path, capsys, kind, command, fmt, expected
):
    content, _codes = _KINDS[kind]
    path = tmp_path / "input.json"
    if kind == "directory":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content())
    assert run_cli([command, str(path), "--format", fmt]) == expected
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if expected == EXIT_OK:
        assert out and (fmt == "text" or json.loads(out))
    elif fmt == "json" and expected in (EXIT_FORMAT, EXIT_VALIDATION):
        issues = json.loads(out)["issues"]
        assert issues and not err
    else:
        assert err and not out
    if kind == "lone-surrogate":
        # No output could encode the id: parsing refuses it where it stands.
        where = issues[0]["path"] if fmt == "json" else err.split(": ")[1]
        assert where == "$.entities[0].id"


def _env(**overrides):
    """The environment of a child Python that imports this checkout's package."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **overrides)


def test_a_lone_surrogate_ends_the_program_without_a_traceback(tmp_path):
    path = tmp_path / "surrogate.json"
    path.write_bytes(_LONE_SURROGATE)
    proc = subprocess.run(
        [sys.executable, "-m", "centering", "resolve", str(path)],
        env=_env(), capture_output=True,
    )
    assert proc.returncode == EXIT_FORMAT
    assert proc.stdout == b"" and b"Traceback" not in proc.stderr
    assert proc.stderr.startswith(b"schema: $.entities[0].id: lone surrogate")


# --------------------------------------------------------------------------
# Determinism across processes

_EVERY_OUTPUT = """
import sys
from centering.cli import run_cli
*paths, chain = sys.argv[1:]
for path in paths:
    for argv in (["resolve", path, "--format", "json"], ["resolve", path, "--trace"], ["oracle", path]):
        print(argv, "->", run_cli(argv))
wide = ["resolve", chain, "--beam", "64"]
for argv in (wide + ["--format", "json"], wide + ["--trace"]):
    print(argv, "->", run_cli(argv))
"""


def test_output_is_identical_under_different_hash_seeds(corpus_file, workloads, tmp_path):
    """String hashing differs per process; no output may depend on it.

    The bundled files seldom reach one utterance from two center states,
    so a generated chain at a wide beam adds readings whose parents share
    states and whose beam is cut from many parents' steps.
    """
    paths = [corpus_file(name) for name in corpus.VALID_FILES]
    chain = tmp_path / "long_chain.json"
    chain.write_text(
        serialize_discourse(workloads.long_chain(random.Random(3), 50)), encoding="utf-8"
    )
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _EVERY_OUTPUT, *paths, str(chain)],
            env=_env(PYTHONHASHSEED=seed), capture_output=True, check=True,
        ).stdout
        for seed in ("1", "2")
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"EQUIVALENT") == len(paths)
    assert outputs[0].count(b"-> 0\n") == 3 * len(paths) + 2
    assert outputs[0].count(b'"rank": 64') == 1


# --------------------------------------------------------------------------
# Output that cannot be written


def _assert_unwritable_exits_eight(argv, target):
    """With stdout on target, argv exits 8 with one error line, buffered or not."""
    for unbuffered in ("", "1"):
        env = _env(PYTHONUNBUFFERED=unbuffered)
        if target == "ascii-stdout":
            env["PYTHONIOENCODING"] = "ascii"

        def start(stdout):
            return subprocess.Popen(
                [sys.executable, "-m", "centering", *argv],
                stdout=stdout, stderr=subprocess.PIPE, env=env,
            )

        if target == "closed-pipe":
            proc = start(subprocess.PIPE)
            proc.stdout.close()
        elif target == "ascii-stdout":
            proc = start(subprocess.DEVNULL)
        else:
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full on this platform")
            with open("/dev/full", "wb") as full:
                proc = start(full)
        with proc.stderr:
            err = proc.stderr.read().decode("utf-8")
        assert proc.wait() == EXIT_OUTPUT, unbuffered
        assert err.startswith("error: cannot write output: ")
        assert err.count("\n") == 1, err


TARGETS = pytest.mark.parametrize("target", ["closed-pipe", "full-device"])


@pytest.mark.parametrize(
    "command, fmt",
    [("resolve", "json"), ("validate", "text")],
    ids=["large-output", "small-output"],
)
@TARGETS
def test_unwritable_output_exits_eight_with_one_error_line(
    tmp_path, workloads, target, command, fmt
):
    """A large output fails while printing, a small one at the final flush."""
    path = tmp_path / "chain.json"
    chain = workloads.long_chain(random.Random(50), 50)
    path.write_text(serialize_discourse(chain), encoding="utf-8")
    _assert_unwritable_exits_eight([command, str(path), "--format", fmt], target)


@pytest.mark.parametrize("argv", [["--help"], ["resolve", "--help"]], ids=["top", "resolve"])
@TARGETS
def test_unwritable_help_exits_eight_with_one_error_line(target, argv):
    """argparse drops a failed write; the help of a parser or subparser may not."""
    _assert_unwritable_exits_eight(argv, target)


def test_a_character_stdout_cannot_encode_exits_eight_with_one_error_line(tmp_path):
    """Text prints the id as it is; JSON escapes it, so it still succeeds."""
    path = tmp_path / "non_ascii.json"
    path.write_text(
        corpus.corpus_text("shift_ex.json").replace('"taroo"', '"太郎"'), encoding="utf-8"
    )
    _assert_unwritable_exits_eight(["resolve", str(path)], "ascii-stdout")
    proc = subprocess.run(
        [sys.executable, "-m", "centering", "resolve", str(path), "--format", "json"],
        env=_env(PYTHONIOENCODING="ascii"), capture_output=True,
    )
    assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
