"""Command-line front end.

Four subcommands over annotated-discourse JSON files:

  resolve   rank the readings of a discourse (optionally as per-utterance
            trace tables or JSON)
  check     resolve, then compare the readings against the file's gold
            labels (a file without labels fails: nothing was checked)
  oracle    compare the engine against the exhaustive reference
            enumerator on the file
  validate  report annotation felicity violations

Exit codes:
  0  success
  1  gold mismatch or no gold labels (check), or engine/oracle
     discrepancy (oracle)
  2  felicity validation failure
  3  the discourse is unresolvable (some utterance admits no reading)
  4  the oracle refuses an utterance, the first included, before
     building its readings: an upper bound projected per previous
     center state (a ZTA variant counted only where that state's Cb is
     set) passes the size limit (oracle)
  5  the input file cannot be read
  6  the input file is not UTF-8 JSON or is shaped wrongly (a string
     holding a lone surrogate escape such as "\\ud800" included)
  7  bad command line (unknown option, missing argument, beam width < 1)
  8  the output cannot be written (closed pipe, full device, or a
     character stdout's encoding cannot hold)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from functools import lru_cache
from typing import Callable, NoReturn, Optional, Sequence, TypeVar

from .corpus import (
    DiscourseFormatError,
    GoldLabel,
    PARSE,
    SCHEMA,
    check_gold,
    parse_discourse,
)
from .engine import EngineConfig, ResolveResult, UnresolvableError, resolve
from .model import Discourse, Hypothesis, Step
from .oracle import SizeLimitError, check_equivalence

_T = TypeVar("_T")

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_VALIDATION = 2
EXIT_UNRESOLVABLE = 3
EXIT_SIZE_LIMIT = 4
EXIT_IO = 5
EXIT_FORMAT = 6
EXIT_USAGE = 7
EXIT_OUTPUT = 8


class _Parser(argparse.ArgumentParser):
    """Exits EXIT_USAGE on a bad command line; argparse's own 2 is EXIT_VALIDATION."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def _print_message(self, message: str, file=None) -> None:
        # argparse drops a failed write; one to stdout (help, usage) must
        # reach main() so that it exits EXIT_OUTPUT.
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="centering",
        description="Resolve unexpressed verb arguments in annotated "
        "Japanese discourse by center tracking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, handler: Callable, beam: bool = True) -> None:
        # run_cli reports a bad --beam through the subcommand's own parser.
        p.set_defaults(handler=handler, parser=p)
        p.add_argument("file", help="annotated discourse JSON file")
        if beam:
            p.add_argument(
                "--beam", type=int, default=16, metavar="N",
                help="beam width (default 16)",
            )
            p.add_argument(
                "--no-zta", action="store_true",
                help="disable zero topic assignment",
            )
        p.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="output format (default text)",
        )

    p_resolve = sub.add_parser("resolve", help="rank the readings of a discourse")
    add_common(p_resolve, _cmd_resolve)
    p_resolve.add_argument(
        "--trace", action="store_true",
        help="print per-utterance tables of every reading's center state",
    )

    p_check = sub.add_parser("check", help="compare readings against gold labels")
    add_common(p_check, _cmd_check)

    p_oracle = sub.add_parser(
        "oracle", help="compare the engine against exhaustive enumeration"
    )
    add_common(p_oracle, _cmd_oracle)

    p_validate = sub.add_parser("validate", help="report felicity violations")
    add_common(p_validate, _cmd_validate, beam=False)

    return parser


def _format_cb(step: Step) -> str:
    return step.state.cb if step.state.cb is not None else "[?]"


def _format_cf(step: Step) -> str:
    return "[" + ", ".join(f"{eid}:{tier.name.lower()}" for eid, tier in step.state.cf) + "]"


def _format_transition(step: Step) -> str:
    return step.transition.name.lower() if step.transition is not None else "initial"


def _format_assignment(step: Step) -> str:
    return " ".join(f"{r.name.lower()}={e}" for r, e in step.assignment.items())


def _by_identity(fn: Callable[[Step], _T]) -> Callable[[Step], _T]:
    """fn, run once per distinct step.

    The beam shares prefixes, so a result's readings hold far fewer
    distinct steps than step references.  Steps are keyed by id(), which
    stays unique while the result holds every step.
    """
    memo: dict[int, _T] = {}

    def once(step: Step) -> _T:
        value = memo.get(id(step))
        if value is None:
            value = memo[id(step)] = fn(step)
        return value

    return once


#: json.dumps over the string scalars of a step, and None: entity ids and
#: role, tier and transition names, which a step's text repeats and each
#: render meets again, so each is encoded once.  typed, so that no value
#: of another type could be answered from a string's or None's entry.
_dumps = lru_cache(maxsize=1024, typed=True)(json.dumps)


def _step_json(step: Step) -> str:
    """One step as JSON, indented to its depth in the readings document.

    The text json.dumps(..., indent=2) writes for the step's object, each
    line after the first indented by 8 more spaces, laid out by hand at
    the step's fixed nesting: only the scalars go through json.dumps,
    whose compact encoder escapes non-ASCII ids the same way, the string
    ones and None through its memo (_dumps); the utterance index, an
    int, and the ZTA flag are written directly.  An indenting encoder
    would be built anew, in pure Python, for every step.  A step's
    assignment and Cf are never empty (a frame subcategorizes at least
    one role), so no {} or [] arises.
    """
    dumps = _dumps
    assignment = ",\n            ".join([
        f"{dumps(r.name.lower())}: {dumps(e)}" for r, e in step.assignment.items()
    ])
    cf = ",\n            ".join([
        f"[\n              {dumps(eid)},\n              {dumps(tier.name.lower())}\n            ]"
        for eid, tier in step.state.cf
    ])
    transition = step.transition.name.lower() if step.transition is not None else None
    return (
        f'{{\n          "utterance_index": {step.utterance_index},'
        f'\n          "assignment": {{\n            {assignment}\n          }},'
        f'\n          "cb": {dumps(step.state.cb)},'
        f'\n          "cf": [\n            {cf}\n          ],'
        f'\n          "transition": {dumps(transition)},'
        f'\n          "zta": {"true" if step.zta_applied else "false"}\n        }}'
    )


def _render_readings_json(hypotheses: Sequence[Hypothesis]) -> str:
    """What json.dumps({"readings": [...]}, indent=2) writes for the readings.

    Each reading is {"rank", "score", "steps"}, its steps laid out by
    _step_json; the wrapper around them is written here.
    """
    if not hypotheses:
        return '{\n  "readings": []\n}'
    step_json = _by_identity(_step_json)
    parts = ['{\n  "readings": [\n']
    for rank, h in enumerate(hypotheses, start=1):
        parts.append(
            f'    {{\n      "rank": {rank},\n      "score": {h.score},\n'
            '      "steps": [\n        '
        )
        for s in h.steps:
            parts += (step_json(s), ",\n        ")
        parts[-1] = "\n      ]\n    },\n"
    parts[-1] = "\n      ]\n    }\n  ]\n}"
    return "".join(parts)


def _reading_line(step: Step) -> str:
    zta = " zta" if step.zta_applied else ""
    return (
        f"  u{step.utterance_index}: {_format_assignment(step)} | "
        f"cb={_format_cb(step)} cf={_format_cf(step)} {_format_transition(step)}{zta}"
    )


def _print_readings(result: ResolveResult) -> None:
    line = _by_identity(_reading_line)
    print(f"{len(result.hypotheses)} reading(s)")
    for rank, h in enumerate(result.hypotheses, start=1):
        print("\n".join([f"#{rank} score={h.score}", *map(line, h.steps)]))


def _trace_cells(step: Step) -> tuple[int, tuple[str, str, str, str]]:
    """The step's transition cost and its CB, CF, TRANSITION and ZTA cells."""
    return step.transition_cost, (
        _format_cb(step),
        _format_cf(step),
        _format_transition(step),
        "yes" if step.zta_applied else "no",
    )


def _print_trace(discourse: Discourse, result: ResolveResult) -> None:
    """Per-utterance tables: one row per reading, fixed columns."""
    header = ("HYP", "CB", "CF", "TRANSITION", "ZTA", "SCORE")
    cells = _by_identity(_trace_cells)
    totals = [0] * len(result.hypotheses)  # each reading's score so far
    for utterance in discourse.utterances:
        rows = []
        for i, h in enumerate(result.hypotheses):
            cost, step_cells = cells(h.step_at(utterance.index))
            totals[i] += cost
            rows.append((str(i + 1), *step_cells, str(totals[i])))
        widths = [max(len(name), *map(len, col)) for name, col in zip(header, zip(*rows))]
        row_format = " | ".join(f"{{:{w}}}" for w in widths)
        title = f"u{utterance.index}: {utterance.frame.lemma}"
        if utterance.gloss:
            title += f" - {utterance.gloss}"
        line = row_format.format(*header)
        table = [title, line, "-" * len(line), *(row_format.format(*row) for row in rows)]
        print("\n".join(table), end="\n\n")


def _emit_format_error(err: DiscourseFormatError, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps({"issues": [asdict(i) for i in err.issues]}, indent=2))
    else:
        for issue in err.issues:
            print(str(issue), file=sys.stderr)
    if err.categories & {PARSE, SCHEMA}:
        return EXIT_FORMAT
    return EXIT_VALIDATION


class _ReadError(Exception):
    """The input file cannot be read."""


def _load(path: str) -> tuple[Discourse, tuple[GoldLabel, ...]]:
    """Read and parse a corpus file."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as err:
        raise _ReadError(f"cannot read {path}: {err}") from err
    return parse_discourse(data)


#: The failures reported as one "error:" line on stderr, by class.
_ERROR_EXITS: dict[type[Exception], int] = {
    _ReadError: EXIT_IO, UnresolvableError: EXIT_UNRESOLVABLE, SizeLimitError: EXIT_SIZE_LIMIT,
}


def _config(args: argparse.Namespace) -> EngineConfig:
    return EngineConfig(beam_width=args.beam, zta_enabled=not args.no_zta)


def _cmd_resolve(args: argparse.Namespace) -> int:
    """Print the readings best first, as text, --trace tables or JSON.

    The JSON is a stable contract: {"readings": [{"rank", "score",
    "steps": [{"utterance_index", "assignment", "cb", "cf", "transition",
    "zta"}]}]}, the text json.dumps(..., indent=2) writes for it (2-space
    indent, non-ASCII escaped, null for an open Cb and for the transition
    of an initial or reset step).  --trace is ignored under --format json.
    """
    discourse, _golds = _load(args.file)
    result = resolve(discourse, _config(args))
    if args.format == "json":
        print(_render_readings_json(result.hypotheses))
    elif args.trace:
        _print_trace(discourse, result)
    else:
        _print_readings(result)
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    discourse, golds = _load(args.file)
    report = check_gold(golds, resolve(discourse, _config(args)).hypotheses)
    if args.format == "json":
        print(json.dumps({"ok": report.ok, "checks": [asdict(c) for c in report.checks]}, indent=2))
    else:
        for c in report.checks:
            status = "ok" if c.ok else "MISMATCH"
            print(f"utterance {c.utterance_index}: {status} - {c.detail}")
        if not report.checks:
            print("gold: NO LABELS")
        else:
            print("gold: PASS" if report.ok else "gold: FAIL")
    return EXIT_OK if report.ok else EXIT_MISMATCH


def _cmd_oracle(args: argparse.Namespace) -> int:
    discourse, _golds = _load(args.file)
    report = check_equivalence(discourse, _config(args))
    if args.format == "json":
        print(json.dumps(asdict(report), indent=2))
    else:
        verdict = "EQUIVALENT" if report.equivalent else "DISCREPANCY"
        print(f"{verdict}: {report.detail}")
    return EXIT_OK if report.equivalent else EXIT_MISMATCH


def _cmd_validate(args: argparse.Namespace) -> int:
    _load(args.file)
    if args.format == "json":
        print(json.dumps({"issues": []}, indent=2))
    else:
        print("no violations")
    return EXIT_OK


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments and run one subcommand; returns the exit code.

    A bad command line raises SystemExit(EXIT_USAGE), as --help raises
    SystemExit(0).  Each failure a subcommand raises is mapped to its
    documented exit code here, except an OSError or UnicodeEncodeError
    from writing stdout, which main() turns into EXIT_OUTPUT.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "beam", 1) < 1:
        args.parser.error(f"argument --beam: must be at least 1, got {args.beam}")
    try:
        return args.handler(args)
    except DiscourseFormatError as err:
        return _emit_format_error(err, args.format)
    except tuple(_ERROR_EXITS) as err:
        print(f"error: {err}", file=sys.stderr)
        return next(code for cls, code in _ERROR_EXITS.items() if isinstance(err, cls))


def main() -> None:  # pragma: no cover - the tests run it in a subprocess
    try:
        try:
            code = run_cli(sys.argv[1:])
        finally:
            # Also when argparse exits: --help leaves its text in the buffer.
            sys.stdout.flush()
    except (OSError, UnicodeEncodeError) as err:
        # A closed pipe or a full device on stdout, or a character its
        # encoding cannot hold (say, under PYTHONIOENCODING=ascii).
        # Drop the unwritten output, or the flush at exit fails again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write output: {err}", file=sys.stderr)
        code = EXIT_OUTPUT
    sys.exit(code)
