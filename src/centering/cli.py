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
  6  the input file is not UTF-8 JSON or is shaped wrongly
  7  bad command line (unknown option, missing argument, beam width < 1)
  8  the output cannot be written (closed pipe, full device)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, NoReturn, Optional, Sequence

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
        p.set_defaults(handler=handler)
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


def _step_json(step: Step) -> dict:
    return {
        "utterance_index": step.utterance_index,
        "assignment": {r.name.lower(): e for r, e in step.assignment.items()},
        "cb": step.state.cb,
        "cf": [[eid, tier.name.lower()] for eid, tier in step.state.cf],
        "transition": (
            step.transition.name.lower() if step.transition is not None else None
        ),
        "zta": step.zta_applied,
    }


def _readings_json(hypotheses: Sequence[Hypothesis]) -> list[dict]:
    return [
        {"rank": rank, "score": h.score, "steps": [_step_json(s) for s in h.steps]}
        for rank, h in enumerate(hypotheses, start=1)
    ]


def _print_readings(result: ResolveResult) -> None:
    print(f"{len(result.hypotheses)} reading(s)")
    for rank, h in enumerate(result.hypotheses, start=1):
        print(f"#{rank} score={h.score}")
        for s in h.steps:
            zta = " zta" if s.zta_applied else ""
            print(
                f"  u{s.utterance_index}: {_format_assignment(s)} | "
                f"cb={_format_cb(s)} cf={_format_cf(s)} {_format_transition(s)}{zta}"
            )


def _print_trace(discourse: Discourse, result: ResolveResult) -> None:
    """Per-utterance tables: one row per reading, fixed columns."""
    header = ("HYP", "CB", "CF", "TRANSITION", "ZTA", "SCORE")
    totals = [0] * len(result.hypotheses)  # each reading's score so far
    for utterance in discourse.utterances:
        rows = []
        for i, h in enumerate(result.hypotheses):
            s = h.step_at(utterance.index)
            totals[i] += s.transition_cost
            rows.append((
                str(i + 1),
                _format_cb(s),
                _format_cf(s),
                _format_transition(s),
                "yes" if s.zta_applied else "no",
                str(totals[i]),
            ))
        widths = [
            max(len(header[col]), *(len(r[col]) for r in rows))
            for col in range(len(header))
        ]
        title = f"u{utterance.index}: {utterance.frame.lemma}"
        if utterance.gloss:
            title += f" - {utterance.gloss}"
        print(title)
        line = " | ".join(h.ljust(w) for h, w in zip(header, widths))
        print(line)
        print("-" * len(line))
        for row in rows:
            print(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        print()


def _emit_format_error(err: DiscourseFormatError, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps({
            "issues": [
                {
                    "category": i.category,
                    "path": i.path,
                    "message": i.message,
                    "line": i.line,
                    "column": i.column,
                }
                for i in err.issues
            ]
        }, indent=2))
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


def _config(args: argparse.Namespace) -> EngineConfig:
    return EngineConfig(beam_width=args.beam, zta_enabled=not args.no_zta)


def _cmd_resolve(args: argparse.Namespace) -> int:
    discourse, _golds = _load(args.file)
    result = resolve(discourse, _config(args))
    if args.format == "json":
        print(json.dumps({"readings": _readings_json(result.hypotheses)}, indent=2))
    elif args.trace:
        _print_trace(discourse, result)
    else:
        _print_readings(result)
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    discourse, golds = _load(args.file)
    report = check_gold(golds, resolve(discourse, _config(args)).hypotheses)
    if args.format == "json":
        print(json.dumps({
            "ok": report.ok,
            "checks": [
                {"utterance_index": c.utterance_index, "ok": c.ok, "detail": c.detail}
                for c in report.checks
            ],
        }, indent=2))
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
        print(json.dumps({
            "equivalent": report.equivalent,
            "engine_count": report.engine_count,
            "oracle_count": report.oracle_count,
            "detail": report.detail,
        }, indent=2))
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
    documented exit code here, except an OSError from writing stdout,
    which main() turns into EXIT_OUTPUT.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "beam", 1) < 1:
        parser.error(f"argument --beam: must be at least 1, got {args.beam}")
    try:
        return args.handler(args)
    except _ReadError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except DiscourseFormatError as err:
        return _emit_format_error(err, args.format)
    except UnresolvableError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_UNRESOLVABLE
    except SizeLimitError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SIZE_LIMIT


def main() -> None:  # pragma: no cover - the tests run it in a subprocess
    try:
        try:
            code = run_cli(sys.argv[1:])
        finally:
            # Also when argparse exits: --help leaves its text in the buffer.
            sys.stdout.flush()
    except OSError as err:  # a closed pipe or a full device on stdout
        # Drop the unwritten output, or the flush at exit fails again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write output: {err}", file=sys.stderr)
        code = EXIT_OUTPUT
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    main()
