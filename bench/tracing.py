"""Per-layer tracing installed from outside the `centering` package.

`Tracer.install()` replaces, in the modules that look them up, the names
the pipeline calls at each layer boundary with timing wrappers, and
`Tracer.uninstall()` puts the originals back.  Nothing under `src/`
changes: the engine resolves these names through its module globals at
call time, so the substitutes take effect on the next call.

Two kinds of record come out of a traced pass:

* spans for the coarse boundaries (discourse, parse, validate, resolve,
  step, render), kept in memory with their parent links and written out
  as JSON lines by `write_spans`;
* aggregates (calls, inclusive time, self time, work counts) for every
  wrapped name, hot inner calls included.

Self time is a call's duration minus the time of the wrapped calls made
directly inside it.  `Hypothesis.__post_init__` is aggregated without
being subtracted from its caller, so the self time of `step` still holds
child assembly (`_child`, private) including hypothesis construction.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from typing import Callable, Optional

from centering import cli, corpus, engine, model
from centering.engine import OUT_OF_CF_PRUNED
from centering.rules import RejectionCode

#: Codes filter_assignment can return; each gets its own counter.
REJECTION_CODES = (
    RejectionCode.CONTRA_INDEX,
    RejectionCode.SORTAL,
    RejectionCode.RULE_1,
    RejectionCode.ZERO_ANTECEDENT,
)

#: Wrapped names also recorded as spans; every other one is aggregated
#: only.  Rendering spans ("cli.render") come from `_render_wrapper`.
SPAN_NAMES = frozenset(
    {"discourse", "corpus.parse", "model.validate", "engine.resolve", "engine.step"}
)


class Tracer:
    """Aggregates and spans for one traced pass; install, run, uninstall."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._clock = clock  # ns; the run passes one that stops during host probes
        self.calls: Counter[str] = Counter()
        self.ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple[int, Optional[int], str, int, int]] = []
        self._frames: list[list] = []  # [child_ns, span_id] per open wrapped call
        self._next_span = 0
        self._patches: list[tuple[object, str, object]] = []
        # utterance -> [parents, distinct parent states, children, beam width]
        self._layers: dict[int, list] = {}
        self._resolve_end = 0

    # ------------------------------------------------------------------
    # Wrapping

    def _wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        frames = self._frames
        calls, ns, self_ns = self.calls, self.ns, self.self_ns
        is_span = name in SPAN_NAMES
        clock = self._clock

        def wrapper(*args, **kwargs):
            span_id = None
            if is_span:
                span_id = self._next_span
                self._next_span += 1
            frame = [0, span_id]
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                elapsed = end - start
                if frames:
                    frames[-1][0] += elapsed
                calls[name] += 1
                ns[name] += elapsed
                self_ns[name] += elapsed - frame[0]
                if is_span:
                    self.spans.append((span_id, self._parent_span(), name, start, end))
            if after is not None:
                after(result, *args)
            return result

        return wrapper

    def _parent_span(self) -> Optional[int]:
        for frame in reversed(self._frames):
            if frame[1] is not None:
                return frame[1]
        return None

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def discourse(self, run: Callable, *args) -> tuple[int, str]:
        """Run one discourse inside a root span; run returns (exit code, output)."""
        code, out = self._wrap("discourse", run)(*args)
        self.counts["cli.render.bytes"] += len(out.encode("utf-8"))
        return code, out

    def install(self) -> None:
        wrap, patch = self._wrap, self._patch
        patch(cli, "parse_discourse", wrap("corpus.parse", cli.parse_discourse))
        for module in (corpus, engine):
            patch(module, "validate_discourse",
                  wrap("model.validate", module.validate_discourse))
        patch(cli, "resolve", wrap("engine.resolve", cli.resolve, self._after_resolve))
        patch(cli, "_cmd_resolve", self._render_wrapper(cli._cmd_resolve))
        patch(engine, "_initial_hypotheses",
              wrap("engine.initial", engine._initial_hypotheses, self._after_initial))
        patch(engine, "step", wrap("engine.step", engine.step, self._after_step))
        patch(engine, "generate_assignments",
              wrap("engine.generate", engine.generate_assignments, self._after_generate))
        patch(engine, "filter_assignment",
              wrap("rules.filter", engine.filter_assignment, self._after_filter))
        patch(engine, "assign_salience_roles",
              wrap("rules.salience", engine.assign_salience_roles))
        patch(engine, "rank_cf", wrap("rules.salience", engine.rank_cf))
        patch(engine, "apply_zta", wrap("engine.zta", engine.apply_zta, self._after_zta))
        patch(engine, "hypothesis_sort_key",
              wrap("engine.sort_key", engine.hypothesis_sort_key))
        patch(model.Hypothesis, "__post_init__",
              self._counting_wrapper("model.hypothesis", model.Hypothesis.__post_init__))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _counting_wrapper(self, name: str, fn: Callable) -> Callable:
        """Aggregate calls and time without charging them to the caller's children."""
        calls, ns = self.calls, self.ns
        clock = self._clock

        def wrapper(*args):
            start = clock()
            try:
                return fn(*args)
            finally:
                ns[name] += clock() - start
                calls[name] += 1

        return wrapper

    def _render_wrapper(self, fn: Callable) -> Callable:
        """Time rendering as the stretch from resolve's return to the command's."""

        def wrapper(args):
            self._resolve_end = 0
            code = fn(args)
            if self._resolve_end:
                end = self._clock()
                span_id = self._next_span
                self._next_span += 1
                self.spans.append(
                    (span_id, self._parent_span(), "cli.render", self._resolve_end, end)
                )
                self.calls["cli.render"] += 1
                self.ns["cli.render"] += end - self._resolve_end
            return code

        return wrapper

    # ------------------------------------------------------------------
    # Work counters

    def _after_generate(self, result, *args) -> None:
        self.counts["engine.generate.assignments"] += len(result)

    def _after_filter(self, code, *args) -> None:
        if code is not None:
            self.counts[f"rules.filter.rejected.{code}"] += 1

    def _after_zta(self, variants, *args) -> None:
        self.counts["engine.zta.variants"] += len(variants)

    def _after_initial(self, result, discourse, config) -> None:
        self._layers.clear()
        hypotheses, _rejections = result
        self.counts["engine.beam.children"] += len(hypotheses)
        self.counts["engine.beam.cut"] += max(0, len(hypotheses) - config.beam_width)

    def _after_step(self, result, parent, utterance, discourse, config) -> None:
        layer = self._layers.setdefault(utterance.index, [0, set(), 0, config.beam_width])
        layer[0] += 1
        layer[1].add(parent.last.state)
        layer[2] += len(result.ranked)
        last = parent.last
        self.counts["engine.beam.children"] += len(result.ranked)
        self.counts["engine.writeback.count"] += sum(
            1 for child in result.ranked if child.steps[-2] is not last
        )
        self.counts["engine.prune.out_of_cf"] += sum(
            1 for r in result.rejections if r.code == OUT_OF_CF_PRUNED
        )

    def _after_resolve(self, result, *args) -> None:
        self._resolve_end = self._clock()
        self.counts["engine.rejections.logged"] += sum(
            len(v) for v in result.rejections.values()
        )
        for parents, states, children, beam_width in self._layers.values():
            self.counts["engine.step.parents"] += parents
            self.counts["engine.step.distinct_parents"] += len(states)
            self.counts["engine.beam.cut"] += max(0, children - beam_width)
        self._layers.clear()

    # ------------------------------------------------------------------
    # Output

    def metrics(self, discourses: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics averaged per discourse of the traced pass."""
        per = 1.0 / discourses
        calls, ms, counts = self.calls, self.ns, self.counts

        def per_disc_ms(name: str) -> float:
            return ms[name] / 1e6 * per

        out: dict[str, tuple[float, str]] = {}
        for name in ("engine.sort_key", "engine.step", "engine.generate", "rules.filter",
                     "rules.salience", "engine.zta", "corpus.parse", "model.validate"):
            out[f"{name}.calls"] = (calls[name] * per, "calls/disc")
        out["model.hypothesis.constructs"] = (calls["model.hypothesis"] * per, "count/disc")
        for name in ("engine.sort_key", "engine.step", "engine.generate", "rules.filter",
                     "rules.salience", "engine.zta", "corpus.parse", "model.validate",
                     "engine.resolve", "cli.render"):
            out[f"{name}.ms"] = (per_disc_ms(name), "ms/disc")
        out["model.hypothesis.init_ms"] = (per_disc_ms("model.hypothesis"), "ms/disc")
        out["engine.step.self_ms"] = (self.self_ns["engine.step"] / 1e6 * per, "ms/disc")
        parents = counts["engine.step.parents"]
        out["engine.step.distinct_parent_ratio"] = (
            counts["engine.step.distinct_parents"] / parents if parents else 1.0, "ratio"
        )
        generated = counts["engine.generate.assignments"]
        out["engine.candidates.useful_ratio"] = (
            counts["engine.beam.children"] / generated if generated else 1.0, "ratio"
        )
        for name in ("engine.generate.assignments", "engine.prune.out_of_cf",
                     "engine.rejections.logged", "engine.zta.variants",
                     "engine.beam.children", "engine.beam.cut", "engine.writeback.count"):
            out[name] = (counts[name] * per, "count/disc")
        out["cli.render.bytes"] = (counts["cli.render.bytes"] * per, "B/disc")
        for code in REJECTION_CODES:
            out[f"rules.filter.rejected.{code}"] = (
                counts[f"rules.filter.rejected.{code}"] * per, "count/disc"
            )
        return out

    def write_spans(self, path) -> int:
        """Write the spans as JSON lines; times are ns from the earliest start."""
        spans = sorted(self.spans)
        origin = min((s[3] for s in spans), default=0)
        trace: dict[int, int] = {}  # span -> its root discourse span
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end in spans:
                trace[span_id] = span_id if parent is None else trace[parent]
                handle.write(json.dumps({
                    "trace": trace[span_id], "id": span_id, "parent": parent,
                    "name": name, "start_ns": start - origin, "end_ns": end - origin,
                }) + "\n")
        return len(spans)
