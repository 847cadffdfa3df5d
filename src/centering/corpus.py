"""Corpus wire format: JSON parsing/serialization, gold labels, bundled data.

A corpus file is a single JSON object with three keys: "entities" (the
declared inventory), "utterances" (annotated verb frames and argument
realizations) and "gold" (surveyed reference readings).  Parsing is
strict: unknown fields, wrong types, bad enum values and structural
nonsense are rejected with located errors, and the parsed discourse is
additionally run through felicity validation.  Serialization writes keys
in a fixed documented order with two-space indentation, so serializing
is deterministic and a parsed file re-serializes byte-identically.

Error categories:
  * parse - the bytes are not UTF-8 JSON (carries line/column where
    the reader reports one);
  * schema - the JSON is shaped wrongly (carries a JSON path);
  * validation - the discourse is well-formed but infelicitous (carries
    the felicity violations).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib.resources import files
from typing import Any, Callable, Mapping, Optional, Sequence

from .model import (
    Argument,
    Assignment,
    Discourse,
    Entity,
    GrammaticalRole,
    Hypothesis,
    Marking,
    Realization,
    Significance,
    SortalConstraint,
    Utterance,
    VerbFrame,
    Violation,
    validate_discourse,
)

PARSE = "parse"
SCHEMA = "schema"
VALIDATION = "validation"

_ROLES = {r.name.lower(): r for r in GrammaticalRole}
_MARKINGS = {m.value: m for m in Marking}
_SORTALS = {s.value: s for s in SortalConstraint}
_SIGNIFICANCE = {s.value: s for s in Significance}


@dataclass(frozen=True)
class FormatIssue:
    """One located problem with a corpus file."""

    category: str
    path: str
    message: str
    line: Optional[int] = None
    column: Optional[int] = None

    def __str__(self) -> str:
        where = self.path
        if self.line is not None:
            where += f" (line {self.line}, column {self.column})"
        return f"{self.category}: {where}: {self.message}"


class DiscourseFormatError(Exception):
    """A corpus file failed to parse, type-check or validate."""

    def __init__(self, issues: Sequence[FormatIssue]) -> None:
        self.issues = tuple(issues)
        super().__init__("\n".join(str(i) for i in issues))

    @property
    def categories(self) -> frozenset[str]:
        return frozenset(i.category for i in self.issues)


@dataclass(frozen=True)
class GoldLabel:
    """One surveyed reading of one utterance.

    support_count is the number of survey informants who chose this
    reading (None when the reading was stated but not surveyed).
    significance says whether the preference at this utterance was
    statistically significant or the readings stay genuinely ambiguous.
    """

    utterance_index: int
    assignment: Assignment
    support_count: Optional[int]
    significance: Significance


@dataclass(frozen=True)
class GoldCheck:
    """Outcome of checking the resolver against one utterance's labels."""

    utterance_index: int
    ok: bool
    detail: str


@dataclass(frozen=True)
class GoldReport:
    checks: tuple[GoldCheck, ...]

    @property
    def ok(self) -> bool:
        """Every check passed, and there was at least one to pass."""
        return bool(self.checks) and all(c.ok for c in self.checks)


# --------------------------------------------------------------------------
# Parsing

_JSON_TYPES = {str: "a string", bool: "a boolean", int: "an integer", list: "an array", dict: "an object"}


class _Reader:
    """Strict JSON-shape reader collecting located schema issues.

    Each _read_* function reads every field of its item, reporting each
    bad one, and then builds the item with build, which skips the
    constructor if any field it uses raised an issue.  An unknown field
    feeds no constructor, so it does not stop the build.
    """

    def __init__(self) -> None:
        self.issues: list[FormatIssue] = []

    def fail(self, path: str, message: str, category: str = SCHEMA) -> None:
        self.issues.append(FormatIssue(category, path, message))

    def expect(self, value: Any, path: str, kind: type) -> Any:
        """value if JSON gave it the type kind, else None after an issue.

        A string holding a lone surrogate (an unpaired \\ud800-\\udfff
        escape, which json accepts) is refused too, as no encoding can write it.
        """
        if type(value) is not kind:
            self.fail(path, f"expected {_JSON_TYPES[kind]}, got {type(value).__name__}")
        elif kind is str and not value.isascii() and any("\ud800" <= c <= "\udfff" for c in value):
            self.fail(path, "lone surrogate escape: a string must be valid Unicode")
        else:
            return value
        return None

    def array(self, value: Any, path: str) -> list:
        return self.expect(value, path, list) or []

    def mapping(self, value: Any, path: str) -> dict:
        return self.expect(value, path, dict) or {}

    def obj(self, value: Any, path: str, allowed: Sequence[str], required: Sequence[str]) -> Optional[dict]:
        """An object with only allowed keys; None if it is not one or lacks a required key."""
        data = self.expect(value, path, dict)
        if data is None:
            return None
        for key in data:
            if key not in allowed:
                self.fail(f"{path}.{key}", "unknown field")
        missing = [key for key in required if key not in data]
        for key in missing:
            self.fail(path, f"missing required field {key!r}")
        return None if missing else data

    def keyword(self, value: Any, path: str, table: Mapping[str, Any], what: str):
        text = self.expect(value, path, str)
        if text is not None and text not in table:
            self.fail(path, f"unknown {what} {text!r} (expected one of {sorted(table)})")
        return table.get(text)

    def build(self, before: int, path: str, make: Callable[..., Any], *args: Any) -> Any:
        """make(*args), or None if an issue was raised since before or make refuses."""
        if len(self.issues) > before:
            return None
        try:
            return make(*args)
        except ValueError as err:
            self.fail(path, str(err))
            return None


def _read_entity(reader: _Reader, value: Any, path: str) -> Optional[Entity]:
    fields = ["id", "animate", "hearer_old", "definite"]
    data = reader.obj(value, path, fields, fields)
    if data is None:
        return None
    before = len(reader.issues)
    eid = reader.expect(data["id"], f"{path}.id", str)
    flags = [reader.expect(data[key], f"{path}.{key}", bool) for key in fields[1:]]
    return reader.build(before, path, Entity, eid, *flags)


def _read_frame(reader: _Reader, value: Any, path: str) -> Optional[VerbFrame]:
    data = reader.obj(value, path, ["lemma", "subcat", "sortal", "empathy_locus"],
                      ["lemma", "subcat"])
    if data is None:
        return None
    before = len(reader.issues)
    lemma = reader.expect(data["lemma"], f"{path}.lemma", str)
    subcat = tuple(
        reader.keyword(item, f"{path}.subcat[{i}]", _ROLES, "role")
        for i, item in enumerate(reader.array(data["subcat"], f"{path}.subcat"))
    )
    sortal = {
        reader.keyword(key, f"{path}.sortal.{key}", _ROLES, "role"):
            reader.keyword(item, f"{path}.sortal.{key}", _SORTALS, "sortal constraint")
        for key, item in reader.mapping(data.get("sortal", {}), f"{path}.sortal").items()
    }
    empathy = None
    if data.get("empathy_locus") is not None:
        empathy = reader.keyword(data["empathy_locus"], f"{path}.empathy_locus", _ROLES, "role")
    return reader.build(before, path, VerbFrame, lemma, subcat, sortal, empathy)


def _read_argument(reader: _Reader, value: Any, path: str) -> Optional[Argument]:
    data = reader.obj(value, path, ["role", "marking", "realization"],
                      ["role", "marking", "realization"])
    if data is None:
        return None
    before = len(reader.issues)
    role = reader.keyword(data["role"], f"{path}.role", _ROLES, "role")
    marking = reader.keyword(data["marking"], f"{path}.marking", _MARKINGS, "marking")
    raw = data["realization"]
    realization: Optional[Realization] = None
    if raw == "zero":
        realization = Realization.zero()
    elif isinstance(raw, dict) and set(raw) == {"np"}:
        eid = reader.expect(raw["np"], f"{path}.realization.np", str)
        if eid == "":
            reader.fail(f"{path}.realization.np", "entity id must be non-empty")
        elif eid is not None:
            realization = Realization.overt(eid)
    else:
        reader.fail(f"{path}.realization", 'expected {"np": <entity>} or "zero"')
    return reader.build(before, path, Argument, role, marking, realization)


def _read_utterance(reader: _Reader, value: Any, path: str, index: int) -> Optional[Utterance]:
    data = reader.obj(value, path, ["verb", "args", "others", "gloss"], ["verb", "args"])
    if data is None:
        return None
    before = len(reader.issues)
    frame = _read_frame(reader, data["verb"], f"{path}.verb")
    args = tuple(
        _read_argument(reader, item, f"{path}.args[{i}]")
        for i, item in enumerate(reader.array(data["args"], f"{path}.args"))
    )
    others = tuple(
        reader.expect(item, f"{path}.others[{i}]", str)
        for i, item in enumerate(reader.array(data.get("others", []), f"{path}.others"))
    )
    gloss = reader.expect(data.get("gloss", ""), f"{path}.gloss", str)
    return reader.build(before, path, Utterance, index, frame, args, others, gloss)


def _read_gold(reader: _Reader, value: Any, path: str, discourse: Discourse) -> Optional[GoldLabel]:
    data = reader.obj(
        value, path,
        ["utterance_index", "assignment", "support_count", "significance"],
        ["utterance_index", "assignment", "significance"],
    )
    if data is None:
        return None
    before = len(reader.issues)
    index = reader.expect(data["utterance_index"], f"{path}.utterance_index", int)
    if index is not None and not 1 <= index <= len(discourse.utterances):
        reader.fail(f"{path}.utterance_index", f"no utterance {index}")
    significance = reader.keyword(
        data["significance"], f"{path}.significance", _SIGNIFICANCE, "significance"
    )
    support = data.get("support_count")
    if support is not None:
        support = reader.expect(support, f"{path}.support_count", int)
        if support is not None and support < 0:
            reader.fail(f"{path}.support_count", f"expected a count of 0 or more, got {support}")
    assignment: Assignment = {
        reader.keyword(key, f"{path}.assignment.{key}", _ROLES, "role"):
            reader.expect(item, f"{path}.assignment.{key}", str)
        for key, item in reader.mapping(data["assignment"], f"{path}.assignment").items()
    }
    if len(reader.issues) > before:
        return None
    subcat = discourse.utterances[index - 1].frame.subcat
    for role, eid in assignment.items():
        slot = f"{path}.assignment.{role.name.lower()}"
        if role not in subcat:
            reader.fail(slot, f"utterance {index} has no such slot")
        elif eid not in discourse.entity_map:
            reader.fail(slot, f"undeclared entity {eid!r}", VALIDATION)
    if not set(subcat) <= set(assignment):
        reader.fail(f"{path}.assignment", "must bind exactly the subcategorized roles")
    ordered = {role: assignment[role] for role in subcat if role in assignment}
    return reader.build(before, path, GoldLabel, index, ordered, support, significance)


def parse_discourse(text: str | bytes) -> tuple[Discourse, tuple[GoldLabel, ...]]:
    """Parse and fully check one corpus file.

    Raises DiscourseFormatError carrying every located issue: a parse
    issue for input that is not UTF-8 JSON, nests too deep or holds an
    integer too long to convert, schema issues for structural problems,
    and validation issues when the well-formed discourse is infelicitous.
    Every issue of every entity and utterance is reported; gold labels
    are read only once the entities and utterances read cleanly.
    """
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        document = json.loads(text)
    except json.JSONDecodeError as err:
        raise DiscourseFormatError(
            [FormatIssue(PARSE, "$", err.msg, err.lineno, err.colno)]
        ) from err
    except UnicodeDecodeError as err:
        line = err.object.count(b"\n", 0, err.start) + 1
        column = err.start - err.object.rfind(b"\n", 0, err.start)
        raise DiscourseFormatError(
            [FormatIssue(PARSE, "$", f"not UTF-8: {err.reason}", line, column)]
        ) from None
    except (RecursionError, ValueError) as err:  # too deep, or an integer too long
        raise DiscourseFormatError([FormatIssue(PARSE, "$", str(err))]) from None

    reader = _Reader()
    top = reader.obj(document, "$", ["entities", "utterances", "gold"],
                     ["entities", "utterances"])
    if top is None:
        raise DiscourseFormatError(reader.issues)

    entities = [
        _read_entity(reader, item, f"$.entities[{i}]")
        for i, item in enumerate(reader.array(top["entities"], "$.entities"))
    ]
    seen: set[str] = set()
    for i, entity in enumerate(entities):
        if entity is not None:
            if entity.id in seen:
                reader.fail(f"$.entities[{i}].id", f"duplicate entity id {entity.id!r}")
            seen.add(entity.id)
    utterances = [
        _read_utterance(reader, item, f"$.utterances[{i}]", i + 1)
        for i, item in enumerate(reader.array(top["utterances"], "$.utterances"))
    ]
    if top["utterances"] == []:
        reader.fail("$.utterances", "discourse needs at least one utterance")
    discourse = reader.build(0, "$", Discourse, tuple(entities), tuple(utterances))
    if discourse is None:
        raise DiscourseFormatError(reader.issues)

    golds = tuple(
        _read_gold(reader, item, f"$.gold[{i}]", discourse)
        for i, item in enumerate(reader.array(top.get("gold", []), "$.gold"))
    )
    if reader.issues:
        raise DiscourseFormatError(reader.issues)

    violations = validate_discourse(discourse)
    if violations:
        raise DiscourseFormatError([
            FormatIssue(VALIDATION, _violation_path(discourse, v), f"{v.code.value}: {v.message}")
            for v in violations
        ])
    return discourse, golds


def _violation_path(discourse: Discourse, violation: Violation) -> str:
    """The JSON path of a violation: its argument, or the others list when it has no slot."""
    i = violation.utterance_index - 1
    if violation.slot is None:
        return f"$.utterances[{i}].others"
    return f"$.utterances[{i}].args[{discourse.utterances[i].frame.subcat.index(violation.slot)}]"


# --------------------------------------------------------------------------
# Serialization


def serialize_discourse(
    discourse: Discourse, golds: Sequence[GoldLabel] = ()
) -> str:
    """Canonical JSON for a discourse: fixed key order, 2-space indent."""
    data: dict[str, Any] = {
        "entities": [
            {
                "id": e.id,
                "animate": e.animate,
                "hearer_old": e.hearer_old,
                "definite": e.definite,
            }
            for e in discourse.entities
        ],
        "utterances": [
            {
                "verb": {
                    "lemma": u.frame.lemma,
                    "subcat": [r.name.lower() for r in u.frame.subcat],
                    "sortal": {
                        r.name.lower(): u.frame.sortal[r].value
                        for r in u.frame.subcat
                        if r in u.frame.sortal
                    },
                    "empathy_locus": (
                        u.frame.empathy_locus.name.lower()
                        if u.frame.empathy_locus is not None
                        else None
                    ),
                },
                "args": [
                    {
                        "role": a.role.name.lower(),
                        "marking": a.marking.value,
                        "realization": (
                            "zero"
                            if a.realization.is_zero
                            else {"np": a.realization.entity_id}
                        ),
                    }
                    for a in u.args
                ],
                "others": list(u.others),
                "gloss": u.gloss,
            }
            for u in discourse.utterances
        ],
        "gold": [
            {
                "utterance_index": g.utterance_index,
                "assignment": {
                    role.name.lower(): g.assignment[role]
                    for role in discourse.utterances[g.utterance_index - 1].frame.subcat
                },
                "support_count": g.support_count,
                "significance": g.significance.value,
            }
            for g in golds
        ],
    }
    return json.dumps(data, indent=2) + "\n"


# --------------------------------------------------------------------------
# Gold checking


def check_gold(
    golds: Sequence[GoldLabel], hypotheses: Sequence[Hypothesis]
) -> GoldReport:
    """Check the final ranked readings against the surveyed labels.

    Labels are grouped per utterance.  Where the survey found a
    significant preference, the top reading's assignment at that
    utterance must be the most-supported label's.  Where it found the
    readings ambiguous, every label's assignment must be present
    somewhere in the hypothesis set at that utterance.  A label on an
    utterance the readings do not cover fails.
    """
    checks: list[GoldCheck] = []
    by_utterance: dict[int, list[GoldLabel]] = {}
    for label in golds:
        by_utterance.setdefault(label.utterance_index, []).append(label)

    top = hypotheses[0] if hypotheses else None
    for index in sorted(by_utterance):
        group = by_utterance[index]
        if top is not None and not 1 <= index <= len(top.steps):
            checks.append(
                GoldCheck(index, False, f"no utterance {index} in the readings")
            )
            continue
        produced = [h.step_at(index).assignment for h in hypotheses]

        significant = [g for g in group if g.significance is Significance.SIGNIFICANT]
        ambiguous = [g for g in group if g.significance is Significance.AMBIGUOUS]

        if significant:
            preferred = max(
                significant,
                key=lambda g: -1 if g.support_count is None else g.support_count,
            )
            if top is None:
                checks.append(GoldCheck(index, False, "no hypotheses produced"))
            else:
                actual = top.step_at(index).assignment
                if actual == preferred.assignment:
                    checks.append(GoldCheck(
                        index, True,
                        f"top reading matches the preferred label "
                        f"({_format_assignment(preferred.assignment)})",
                    ))
                else:
                    checks.append(GoldCheck(
                        index, False,
                        f"top reading {_format_assignment(actual)} != preferred "
                        f"label {_format_assignment(preferred.assignment)}",
                    ))
        for label in ambiguous:
            if label.assignment in produced:
                checks.append(GoldCheck(
                    index, True,
                    f"ambiguous label {_format_assignment(label.assignment)} "
                    f"is among the readings",
                ))
            else:
                checks.append(GoldCheck(
                    index, False,
                    f"ambiguous label {_format_assignment(label.assignment)} "
                    f"missing from the readings",
                ))
    return GoldReport(tuple(checks))


def _format_assignment(assignment: Assignment) -> str:
    return ", ".join(f"{r.name.lower()}={e}" for r, e in assignment.items())


# --------------------------------------------------------------------------
# Bundled corpus

#: Discourses that parse and validate cleanly.
VALID_FILES = (
    "minimal_pair_1.json",
    "minimal_pair_2.json",
    "cont_ret_ex.json",
    "shift_ex.json",
    "emp_cont_ret.json",
    "instantiation_wa.json",
    "instantiation_ga.json",
    "zta_ex_ga.json",
    "zta_ex_wa.json",
    "zta_emp_ga_noemp.json",
    "zta_emp_ga.json",
    "zta_emp_cont.json",
)

#: Deliberately infelicitous discourses; each carries exactly one violation.
INVALID_FILES = (
    "invalid_wa_indefinite.json",
    "invalid_empathy_hearer_new.json",
    "invalid_empathy_indefinite.json",
)

CORPUS_FILES = VALID_FILES + INVALID_FILES


def corpus_text(name: str) -> str:
    """Raw text of a bundled corpus file."""
    if name not in CORPUS_FILES:
        raise KeyError(name)
    return (files("centering") / "data" / name).read_text(encoding="utf-8")

