"""Command-line interface: subcommands, formats, exit codes."""

import json

import pytest

from centering import corpus
from centering.cli import (
    EXIT_FORMAT,
    EXIT_IO,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_SIZE_LIMIT,
    EXIT_UNRESOLVABLE,
    EXIT_USAGE,
    EXIT_VALIDATION,
    run_cli,
)
from centering.corpus import serialize_discourse
from centering.model import (
    Argument,
    Discourse,
    Entity,
    GrammaticalRole,
    Marking,
    Realization,
    Utterance,
    VerbFrame,
)


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


def test_resolve_honors_beam_width(corpus_file, capsys):
    assert run_cli(["resolve", corpus_file("zta_ex_ga.json"), "--beam", "1"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("1 reading(s)")


# --------------------------------------------------------------------------
# check


def test_check_passes_on_gold_corpus(corpus_file, capsys):
    assert run_cli(["check", corpus_file("zta_emp_ga.json")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "gold: PASS" in out


def test_check_fails_on_flipped_gold(tmp_path, capsys):
    discourse, golds = corpus.load_corpus("zta_ex_ga.json")
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
    roles = (
        GrammaticalRole.SUBJ, GrammaticalRole.OBJ2,
        GrammaticalRole.OBJ, GrammaticalRole.OTHER,
    )
    d = Discourse(
        tuple(
            Entity(f"e{i}", animate=True, hearer_old=True, definite=True)
            for i in range(6)
        ),
        tuple(
            Utterance(
                k,
                VerbFrame(f"v{k}", roles),
                tuple(Argument(r, Marking.NONE, Realization.zero()) for r in roles),
            )
            for k in (1, 2, 3)
        ),
    )
    path = tmp_path / "monster.json"
    path.write_text(serialize_discourse(d), encoding="utf-8")
    assert run_cli(["oracle", str(path)]) == EXIT_SIZE_LIMIT
    assert "error:" in capsys.readouterr().err


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


def test_unresolvable_discourse_exits_three(tmp_path, capsys):
    d = Discourse(
        (Entity("a", animate=True, hearer_old=False, definite=True),),
        (
            Utterance(
                1,
                VerbFrame("v1", (GrammaticalRole.SUBJ,)),
                (Argument(GrammaticalRole.SUBJ, Marking.GA, Realization.overt("a")),),
            ),
            Utterance(
                2,
                VerbFrame("v2", (GrammaticalRole.SUBJ, GrammaticalRole.OBJ)),
                (
                    Argument(GrammaticalRole.SUBJ, Marking.NONE, Realization.zero()),
                    Argument(GrammaticalRole.OBJ, Marking.NONE, Realization.zero()),
                ),
            ),
        ),
    )
    path = tmp_path / "unresolvable.json"
    path.write_text(serialize_discourse(d), encoding="utf-8")
    assert run_cli(["resolve", str(path)]) == EXIT_UNRESOLVABLE
    assert "no reading survives at utterance 2" in capsys.readouterr().err
