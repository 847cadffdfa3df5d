#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the centering resolver.

Usage (from the repository root):

    python3 bench/run.py --workload corpus|long_chain|wide_pool \\
        --seed N --seconds S --trace 0|1

One process, one caller, closed loop: each discourse goes from its JSON
file through `run_cli(["resolve", FILE, "--format", "json"])` (read,
parse, validate, resolve, render) with stdout captured, and the next
starts only when it is done.  The plan of discourses is repeated whole
until `--seconds` have passed (and at least the workload's minimum
number of passes has run).

Every time is scaled to a reference host speed by probes run beside
the program (hostspeed.py), because the host's own speed drifts.

`--trace 0` reports the end-to-end metrics; an untimed tracemalloc pass
over one discourse of each of the workload's memory shapes gives
`peak_alloc_mb`.
`--trace 1` runs the same untraced loop, then whole passes for half as
long with tracing installed, and reports the per-layer metrics with
`trace.overhead_ratio` (traced over untraced throughput).
Either way every output is checked afterwards, outside the timed region,
against the digest recorded in digests.json and against the exhaustive
oracle.  The last line of stdout is one JSON object; the exit code is 0
only when every check passed.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from typing import Optional

from hostspeed import REFERENCE_PROBE_NS, HostSpeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DIGESTS = BENCH_DIR / "digests.json"
SPANS_DIR = BENCH_DIR / "out"

#: Set-up runs this many times at each of four points of a run.
SETUP_REPEATS = 3
#: Probes run just before and just after each set-up, to scale its time.
SETUP_PROBES = 3
#: Beam width of every resolve (the CLI default).
BEAM = 16
#: Utterances of a long-chain discourse the oracle checks.
ORACLE_PREFIX = 6


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _ms_per_utt(medians_s, items, sizes) -> float:
    """Median over the discourses of `sizes` of their median ms per utterance."""
    return statistics.median(
        s * 1e3 / item.utterances for s, item in zip(medians_s, items) if item.size in sizes
    )


def _median_s(samples, count: int) -> list[float]:
    """Median seconds of each of `count` discourses over its samples."""
    by_item: list[list[int]] = [[] for _ in range(count)]
    for i, ns in samples:
        by_item[i].append(ns)
    return [statistics.median(values) / 1e9 for values in by_item]


def tail(values: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile of values and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * percentile // 100))  # ceil
    rank = int(min(rank, len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


class Bench:
    """The discourses of one run, written as files and parsed once.

    Building a Bench is the run's set-up; `setup` times it.
    """

    def __init__(self, workload: str, items, workdir: Path) -> None:
        from centering.corpus import parse_discourse
        from workloads import WORKLOADS

        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.items = items
        self.paths: list[str] = []
        for i, item in enumerate(items):
            path = workdir / f"{i}.json"
            path.write_text(item.text, encoding="utf-8")
            self.paths.append(str(path))
        parsed = [parse_discourse(item.text) for item in items]
        self.discourses = [d for d, _ in parsed]
        self.golds = [g for _, g in parsed]

    # ------------------------------------------------------------------
    # The pipeline a user runs, one discourse.

    def run_one(self, i: int) -> tuple[int, str]:
        from centering.cli import run_cli

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = run_cli(["resolve", self.paths[i], "--format", "json"])
        return code, buffer.getvalue()

    def timed_loop(self, seconds: float, min_passes: int, speed: HostSpeed, tracer=None):
        """Whole passes over the plan until `seconds` and `min_passes` are reached.

        Samples are (item, ns) with ns scaled to the reference host speed.
        """
        run = self.run_one if tracer is None else lambda i: tracer.discourse(self.run_one, i)
        wall, program = time.perf_counter_ns, speed.program_ns
        raw: list[tuple[int, int, int, int]] = []  # (item, program ns, wall start, wall end)
        codes: list[tuple[int, int]] = []  # (item, exit code) of failed calls
        outputs: dict[int, str] = {}
        passes = 0
        with speed.sampling():
            start = wall()
            deadline = start + int(seconds * 1e9)
            while passes < min_passes or wall() < deadline:
                for i in range(len(self.items)):
                    w0, p0 = wall(), program()
                    code, out = run(i)
                    p1, w1 = program(), wall()
                    raw.append((i, p1 - p0, w0, w1))
                    if code != 0:
                        codes.append((i, code))
                    outputs[i] = out
                passes += 1
            elapsed = (wall() - start) / 1e9
        samples = [(i, ns * speed.scale(w0, w1)) for i, ns, w0, w1 in raw]
        return samples, codes, outputs, passes, elapsed

    def memory_pass(self) -> float:
        """Peak traced allocation (MB) over one discourse of each memory shape.

        The discourse of a shape is its lowest catalog key in the plan, so
        plans that share it measure the same input.
        """
        peak = 0
        seen = set()
        for i in sorted(range(len(self.items)), key=lambda i: self.items[i].key):
            item = self.items[i]
            if item.shape in seen or not self.spec.measures_memory(item):
                continue
            seen.add(item.shape)
            tracemalloc.start()
            try:
                self.run_one(i)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peak / 1e6

    # ------------------------------------------------------------------
    # Correctness: recorded digest plus the exhaustive oracle.

    def check(self, outputs: dict[int, str], recorded: Optional[dict]) -> dict[int, list[str]]:
        """Failure messages by item index; digests are skipped when recorded is None."""
        from centering.corpus import check_gold
        from centering.engine import EngineConfig, resolve
        from centering.model import Discourse
        from centering.oracle import check_equivalence

        config = EngineConfig(beam_width=BEAM)
        failures: dict[int, list[str]] = {}
        for i, item in enumerate(self.items):
            problems = []
            if i not in outputs:
                problems.append("no output")
            elif recorded is not None:
                expected = recorded.get(item.key)
                if expected is None:
                    problems.append("no recorded digest")
                elif sha256(item.text) != expected["input"]:
                    problems.append("input differs from the recorded one")
                elif sha256(outputs[i]) != expected["output"]:
                    problems.append("rendered JSON differs from the recorded digest")
            discourse = self.discourses[i]
            if self.workload == "long_chain":
                discourse = Discourse(discourse.entities, discourse.utterances[:ORACLE_PREFIX])
            report = check_equivalence(discourse, config)
            if not report.equivalent:
                problems.append(f"oracle: {report.detail}")
            if self.workload == "corpus":
                gold = check_gold(self.golds[i], resolve(discourse, config).hypotheses)
                if not gold.ok:
                    problems.append("gold: FAIL")
            if problems:
                failures[i] = problems
        return failures


def setup(workload: str, seed: int, workdir: Path, times: list[float], repeats: int,
          speed: HostSpeed) -> Bench:
    """Build the run's inputs `repeats` times, appending each scaled time to `times`."""
    from workloads import plan

    for _ in range(repeats):
        for _ in range(SETUP_PROBES):
            speed.probe()
        start = time.perf_counter_ns()
        bench = Bench(workload, plan(workload, seed), workdir)
        end = time.perf_counter_ns()
        for _ in range(SETUP_PROBES):
            speed.probe()
        times.append((end - start) * speed.scale(start, end) / 1e9)
    return bench


def host() -> str:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    uname = platform.uname()
    return (
        f"python {platform.python_version()} ({platform.python_implementation()}), "
        f"nproc {nproc}, {uname.system} {uname.release} {uname.machine}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "long_chain", "wide_pool"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "centering"
    if not package.is_dir():
        print(f"error: {package} not found; run from the repository root", file=sys.stderr)
        return 2
    if not DIGESTS.is_file():
        print(f"error: missing {DIGESTS}", file=sys.stderr)
        return 2

    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    from workloads import WORKLOADS

    spec = WORKLOADS[args.workload]
    # The host's speed drifts over seconds, so set-up is timed a few times
    # before the timed loop and again after each later phase (rebuilding
    # identical files); setup_s is the median of all of them.
    setup_times: list[float] = []
    speed = HostSpeed()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as tmp:
        workdir = Path(tmp)
        bench = setup(args.workload, args.seed, workdir, setup_times, SETUP_REPEATS, speed)
        samples, codes, outputs, passes, elapsed = bench.timed_loop(
            args.seconds, spec.min_passes, speed
        )
        setup(args.workload, args.seed, workdir, setup_times, SETUP_REPEATS, speed)
        if args.trace:
            from tracing import Tracer

            tracer = Tracer(speed.program_ns)
            tracer.install()
            try:
                # Per-layer counts repeat on every pass; half the time is plenty.
                traced = bench.timed_loop(args.seconds / 2, 1, speed, tracer)
            finally:
                tracer.uninstall()
            samples_all, codes = samples + traced[0], codes + traced[1]
        else:
            peak_mb = bench.memory_pass()
            samples_all = samples
        setup(args.workload, args.seed, workdir, setup_times, SETUP_REPEATS, speed)
        failures = bench.check(outputs, json.loads(DIGESTS.read_text(encoding="utf-8")))
        setup(args.workload, args.seed, workdir, setup_times, SETUP_REPEATS, speed)
    setup_s = statistics.median(setup_times)

    items = bench.items
    plan_utts = sum(item.utterances for item in items)
    attempted = len(samples_all)
    failed_items = set(failures) | {i for i, _ in codes}
    failed = sum(1 for i, _ in samples_all if i in failed_items)
    # Utterances of one pass over the time of a pass made of each
    # discourse's median: a burst of host load in one pass moves it less
    # than a total over the whole loop.
    medians_s = _median_s(samples, len(items))
    throughput = plan_utts / sum(medians_s)

    print(f"workload {args.workload} seed {args.seed}: {len(items)} discourses, "
          f"{plan_utts} utterances per pass, {passes} passes in {elapsed:.2f} s")
    print(f"host: {host()}")
    probe_ms = statistics.median(speed.durations) / 1e6
    print(f"host probe: median {probe_ms:.3f} ms over {len(speed.durations)} probes; "
          f"times below are scaled to the reference {REFERENCE_PROBE_NS / 1e6:g} ms "
          f"(unscaled loop throughput {passes * plan_utts / elapsed:.6g} utt/s)")
    for i, problems in sorted(failures.items()):
        print(f"FAIL {items[i].key}: {'; '.join(problems)}")
    for i, code in codes[:10]:
        print(f"FAIL {items[i].key}: exit code {code}")
    print(f"failed_frac {failed / attempted:.6f} ({failed} of {attempted})")

    if args.trace:
        _, _, _, traced_passes, traced_s = traced
        print(f"traced: {traced_passes} passes in {traced_s:.2f} s")
        metrics = tracer.metrics(traced_passes * len(items))
        traced_tp = plan_utts / sum(_median_s(traced[0], len(items)))
        metrics["trace.overhead_ratio"] = (traced_tp / throughput, "ratio")
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans-{args.workload}.jsonl"
        count = tracer.write_spans(spans_path)
        print(f"spans: {count} written to {spans_path.relative_to(ROOT)}")
    else:
        latencies = [ns / 1e6 for _, ns in samples]
        tail_ms, beyond = tail(latencies, spec.tail_percentile)
        metrics = {
            "setup_s": (setup_s, "s"),
            "throughput_utt_per_s": (throughput, "utt/s"),
            "discourse_ms_p50": (statistics.median(latencies), "ms"),
            "discourse_ms_tail": (tail_ms, "ms"),
            "per_utt_growth": (
                _ms_per_utt(medians_s, items, spec.large)
                / _ms_per_utt(medians_s, items, spec.small),
                "ratio",
            ),
            "peak_alloc_mb": (peak_mb, "MB"),
        }
        print(f"discourse_ms_tail is p{spec.tail_percentile:g} of {attempted} samples, "
              f"{beyond} beyond it")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
