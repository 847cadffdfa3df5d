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
from typing import Any, Iterable, Mapping, Optional, Sequence

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


class _Reader:
    """Strict JSON-shape reader collecting located schema issues."""

    def __init__(self) -> None:
        self.issues: list[FormatIssue] = []

    def fail(self, path: str, message: str) -> None:
        self.issues.append(FormatIssue(SCHEMA, path, message))

    def obj(self, value: Any, path: str, allowed: Sequence[str], required: Sequence[str]) -> Optional[dict]:
        if not isinstance(value, dict):
            self.fail(path, f"expected an object, got {type(value).__name__}")
            return None
        for key in value:
            if key not in allowed:
                self.fail(f"{path}.{key}", "unknown field")
        for key in required:
            if key not in value:
                self.fail(path, f"missing required field {key!r}")
        if any(key not in value for key in required):
            return None
        return value

    def array(self, value: Any, path: str) -> Optional[list]:
        if not isinstance(value, list):
            self.fail(path, f"expected an array, got {type(value).__name__}")
            return None
        return value

    def string(self, value: Any, path: str) -> Optional[str]:
        if not isinstance(value, str):
            self.fail(path, f"expected a string, got {type(value).__name__}")
            return None
        return value

    def boolean(self, value: Any, path: str) -> Optional[bool]:
        if not isinstance(value, bool):
            self.fail(path, f"expected a boolean, got {type(value).__name__}")
            return None
        return value

    def integer(self, value: Any, path: str) -> Optional[int]:
        if isinstance(value, bool) or not isinstance(value, int):
            self.fail(path, f"expected an integer, got {type(value).__name__}")
            return None
        return value

    def keyword(self, value: Any, path: str, table: Mapping[str, Any], what: str):
        text = self.string(value, path)
        if text is None:
            return None
        if text not in table:
            self.fail(path, f"unknown {what} {text!r} (expected one of {sorted(table)})")
            return None
        return table[text]


def _read_entity(reader: _Reader, value: Any, path: str) -> Optional[Entity]:
    data = reader.obj(value, path, ["id", "animate", "hearer_old", "definite"],
                      ["id", "animate", "hearer_old", "definite"])
    if data is None:
        return None
    eid = reader.string(data["id"], f"{path}.id")
    animate = reader.boolean(data["animate"], f"{path}.animate")
    hearer_old = reader.boolean(data["hearer_old"], f"{path}.hearer_old")
    definite = reader.boolean(data["definite"], f"{path}.definite")
    if None in (eid, animate, hearer_old, definite):
        return None
    try:
        return Entity(eid, animate, hearer_old, definite)
    except ValueError as err:
        reader.fail(path, str(err))
        return None


def _read_frame(reader: _Reader, value: Any, path: str) -> Optional[VerbFrame]:
    data = reader.obj(value, path, ["lemma", "subcat", "sortal", "empathy_locus"],
                      ["lemma", "subcat"])
    if data is None:
        return None
    lemma = reader.string(data["lemma"], f"{path}.lemma")
    subcat_raw = reader.array(data["subcat"], f"{path}.subcat")
    if lemma is None or subcat_raw is None:
        return None
    subcat = []
    for i, item in enumerate(subcat_raw):
        role = reader.keyword(item, f"{path}.subcat[{i}]", _ROLES, "role")
        if role is not None:
            subcat.append(role)
    sortal: dict[GrammaticalRole, SortalConstraint] = {}
    if "sortal" in data:
        sortal_obj = data["sortal"]
        if not isinstance(sortal_obj, dict):
            reader.fail(f"{path}.sortal", "expected an object")
        else:
            for key, item in sortal_obj.items():
                role = reader.keyword(key, f"{path}.sortal.{key}", _ROLES, "role")
                constraint = reader.keyword(item, f"{path}.sortal.{key}", _SORTALS, "sortal constraint")
                if role is not None and constraint is not None:
                    sortal[role] = constraint
    empathy = None
    if "empathy_locus" in data and data["empathy_locus"] is not None:
        empathy = reader.keyword(data["empathy_locus"], f"{path}.empathy_locus", _ROLES, "role")
    if reader.issues:
        return None
    try:
        return VerbFrame(lemma, tuple(subcat), sortal, empathy)
    except ValueError as err:
        reader.fail(path, str(err))
        return None


def _read_argument(reader: _Reader, value: Any, path: str) -> Optional[Argument]:
    data = reader.obj(value, path, ["role", "marking", "realization"],
                      ["role", "marking", "realization"])
    if data is None:
        return None
    role = reader.keyword(data["role"], f"{path}.role", _ROLES, "role")
    marking = reader.keyword(data["marking"], f"{path}.marking", _MARKINGS, "marking")
    realization: Optional[Realization] = None
    raw = data["realization"]
    if raw == "zero":
        realization = Realization.zero()
    elif isinstance(raw, dict):
        if set(raw) != {"np"}:
            reader.fail(f"{path}.realization", 'expected {"np": <entity>} or "zero"')
        else:
            eid = reader.string(raw["np"], f"{path}.realization.np")
            if eid == "":
                reader.fail(f"{path}.realization.np", "entity id must be non-empty")
            elif eid is not None:
                realization = Realization.overt(eid)
    else:
        reader.fail(f"{path}.realization", 'expected {"np": <entity>} or "zero"')
    if role is None or marking is None or realization is None:
        return None
    try:
        return Argument(role, marking, realization)
    except ValueError as err:
        reader.fail(path, str(err))
        return None


def _read_utterance(reader: _Reader, value: Any, path: str, index: int) -> Optional[Utterance]:
    data = reader.obj(value, path, ["verb", "args", "others", "gloss"], ["verb", "args"])
    if data is None:
        return None
    frame = _read_frame(reader, data["verb"], f"{path}.verb")
    args_raw = reader.array(data["args"], f"{path}.args")
    args: list[Argument] = []
    if args_raw is not None:
        for i, item in enumerate(args_raw):
            arg = _read_argument(reader, item, f"{path}.args[{i}]")
            if arg is not None:
                args.append(arg)
    others: list[str] = []
    if "others" in data:
        others_raw = reader.array(data["others"], f"{path}.others")
        if others_raw is not None:
            for i, item in enumerate(others_raw):
                eid = reader.string(item, f"{path}.others[{i}]")
                if eid is not None:
                    others.append(eid)
    gloss = ""
    if "gloss" in data:
        gloss = reader.string(data["gloss"], f"{path}.gloss") or ""
    if frame is None or reader.issues:
        return None
    try:
        return Utterance(index, frame, tuple(args), tuple(others), gloss)
    except ValueError as err:
        reader.fail(path, str(err))
        return None


def _read_gold(
    reader: _Reader,
    value: Any,
    path: str,
    utterances: Sequence[Utterance],
    declared: frozenset[str],
) -> Optional[GoldLabel]:
    data = reader.obj(
        value, path,
        ["utterance_index", "assignment", "support_count", "significance"],
        ["utterance_index", "assignment", "significance"],
    )
    if data is None:
        return None
    index = reader.integer(data["utterance_index"], f"{path}.utterance_index")
    significance = reader.keyword(
        data["significance"], f"{path}.significance", _SIGNIFICANCE, "significance"
    )
    support: Optional[int] = None
    if "support_count" in data and data["support_count"] is not None:
        support = reader.integer(data["support_count"], f"{path}.support_count")
        if support is None:
            return None
    if index is None or significance is None:
        return None
    if not 1 <= index <= len(utterances):
        reader.fail(f"{path}.utterance_index", f"no utterance {index}")
        return None
    utterance = utterances[index - 1]
    raw = data["assignment"]
    if not isinstance(raw, dict):
        reader.fail(f"{path}.assignment", "expected an object")
        return None
    assignment: Assignment = {}
    for key, item in raw.items():
        role = reader.keyword(key, f"{path}.assignment.{key}", _ROLES, "role")
        eid = reader.string(item, f"{path}.assignment.{key}")
        if role is None or eid is None:
            return None
        if role not in utterance.frame.subcat:
            reader.fail(f"{path}.assignment.{key}", f"utterance {index} has no such slot")
            return None
        assignment[role] = eid
    if set(assignment) != set(utterance.frame.subcat):
        reader.fail(f"{path}.assignment", "must bind exactly the subcategorized roles")
        return None
    undeclared = [eid for eid in assignment.values() if eid not in declared]
    if undeclared:
        reader.issues.append(FormatIssue(
            VALIDATION, f"{path}.assignment",
            f"undeclared entity {undeclared[0]!r}",
        ))
        return None
    ordered = {role: assignment[role] for role in utterance.frame.subcat}
    return GoldLabel(index, ordered, support, significance)


def parse_discourse(text: str | bytes) -> tuple[Discourse, tuple[GoldLabel, ...]]:
    """Parse and fully check one corpus file.

    Raises DiscourseFormatError carrying every located issue: a parse
    issue for input that is not UTF-8 JSON, nests too deep or holds an
    integer too long to convert, schema issues for structural problems,
    and validation issues when the well-formed discourse is infelicitous.
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

    entities: list[Entity] = []
    entities_raw = reader.array(top["entities"], "$.entities")
    if entities_raw is not None:
        for i, item in enumerate(entities_raw):
            entity = _read_entity(reader, item, f"$.entities[{i}]")
            if entity is not None:
                entities.append(entity)

    utterances: list[Utterance] = []
    utterances_raw = reader.array(top["utterances"], "$.utterances")
    if utterances_raw is not None:
        for i, item in enumerate(utterances_raw):
            utterance = _read_utterance(reader, item, f"$.utterances[{i}]", i + 1)
            if utterance is not None:
                utterances.append(utterance)

    if reader.issues:
        raise DiscourseFormatError(reader.issues)

    try:
        discourse = Discourse(tuple(entities), tuple(utterances))
    except ValueError as err:
        raise DiscourseFormatError([FormatIssue(SCHEMA, "$", str(err))]) from None

    declared = frozenset(e.id for e in entities)
    golds: list[GoldLabel] = []
    if "gold" in top:
        gold_raw = reader.array(top["gold"], "$.gold")
        if gold_raw is not None:
            for i, item in enumerate(gold_raw):
                label = _read_gold(reader, item, f"$.gold[{i}]", utterances, declared)
                if label is not None:
                    golds.append(label)
    if reader.issues:
        raise DiscourseFormatError(reader.issues)

    violations = validate_discourse(discourse)
    if violations:
        raise DiscourseFormatError([
            FormatIssue(
                VALIDATION,
                f"$.utterances[{v.utterance_index - 1}]"
                + (f".{v.slot.name.lower()}" if v.slot is not None else ""),
                f"{v.code.value}: {v.message}",
            )
            for v in violations
        ])

    return discourse, tuple(golds)


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
    somewhere in the hypothesis set at that utterance.
    """
    checks: list[GoldCheck] = []
    by_utterance: dict[int, list[GoldLabel]] = {}
    for label in golds:
        by_utterance.setdefault(label.utterance_index, []).append(label)

    top = hypotheses[0] if hypotheses else None
    for index in sorted(by_utterance):
        group = by_utterance[index]
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


def load_corpus(name: str) -> tuple[Discourse, tuple[GoldLabel, ...]]:
    """Parse a bundled corpus file by name."""
    return parse_discourse(corpus_text(name))


def iter_valid_corpus() -> Iterable[tuple[str, Discourse, tuple[GoldLabel, ...]]]:
    for name in VALID_FILES:
        discourse, golds = load_corpus(name)
        yield name, discourse, golds
