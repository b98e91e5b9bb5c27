"""Span tracing for the benchmark's traced run, recorded from outside the package.

``install`` replaces the public functions of each layer at the module
bindings other modules call them through (``lfqa_eval.corpus.
segment_sentences``, ``lfqa_eval.cli.score_record`` and so on) with wrappers
that open a span. Each thread keeps its own span stack, so spans opened in
the batch runner's worker threads get their parents there. A span's self
time is its duration minus the time its direct child spans cover.

``layer_metrics`` turns the aggregates into the per-layer metrics the
benchmark prints; the stub-side counts are added by the caller.
"""
from __future__ import annotations

import functools
import statistics
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor


class _ThreadRecord:
    """One thread's span stack and aggregates, so spans need no lock."""

    def __init__(self):
        self.stack: list = []  # [name, start, time covered by direct children]
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counters: Counter = Counter()
        self.samples: defaultdict = defaultdict(list)  # name -> durations (s)
        self.texts: set[str] = set()


class Tracer:
    """Per-name call counts, total and self times, counters and sampled durations.

    Every thread records into its own ``_ThreadRecord``; the merged views
    (``calls``, ``self_s`` and so on) are read once the traced work is over.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.step = ""  # the CLI subcommand running now
        self._local = threading.local()
        self._records: list[_ThreadRecord] = []
        self._lock = threading.Lock()  # guards _records

    def _record(self) -> _ThreadRecord:
        record = getattr(self._local, "record", None)
        if record is None:
            record = self._local.record = _ThreadRecord()
            with self._lock:
                self._records.append(record)
        return record

    def enter(self, name: str) -> None:
        self._record().stack.append([name, self.clock(), 0.0])

    def exit(self) -> float:
        """Close the innermost span of this thread; returns its duration."""
        record = self._record()
        name, start, child = record.stack.pop()
        duration = self.clock() - start
        if record.stack:
            record.stack[-1][2] += duration
        record.calls[name] += 1
        record.total_s[name] += duration
        record.self_s[name] += duration - child
        return duration

    def count(self, key: str, n: int = 1) -> None:
        self._record().counters[key] += n

    def sample(self, name: str, value: float) -> None:
        self._record().samples[name].append(value)

    def see_text(self, text: str) -> None:
        self._record().texts.add(text)

    def _merged(self, attr: str) -> Counter:
        total: Counter = Counter()
        for record in self._records:
            total.update(getattr(record, attr))
        return total

    calls = property(lambda self: self._merged("calls"))
    total_s = property(lambda self: self._merged("total_s"))
    self_s = property(lambda self: self._merged("self_s"))
    counters = property(lambda self: self._merged("counters"))

    @property
    def samples(self) -> defaultdict:
        merged: defaultdict = defaultdict(list)
        for record in self._records:
            for name, values in record.samples.items():
                merged[name].extend(values)
        return merged

    @property
    def texts(self) -> set[str]:
        return set().union(*(record.texts for record in self._records))

    def wrap(self, name: str, fn, *, sample: bool = False, before=None, after=None):
        """Return fn wrapped in a span; before(args) and after(result) observe the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.exit()
                if sample:
                    self.sample(name, duration)
            if after is not None:
                after(result)
            return result

        return traced


def _executor_class(tracer: Tracer):
    """ThreadPoolExecutor that records queue wait and busy time per task."""

    class TracedExecutor(ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            self._bench_start = tracer.clock()

        def submit(self, fn, /, *args, **kwargs):
            submitted = tracer.clock()

            def task():
                tracer.sample("cli.queue_wait", tracer.clock() - submitted)
                tracer.enter("cli.task")
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.count("cli.busy_us", round(tracer.exit() * 1e6))

            return super().submit(task)

        def shutdown(self, wait=True, **kwargs):
            super().shutdown(wait, **kwargs)
            lifetime = tracer.clock() - self._bench_start
            tracer.count("cli.capacity_us", round(lifetime * self._max_workers * 1e6))

    return TracedExecutor


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions at the bindings its callers use."""
    from lfqa_eval import cli, corpus, evalmetrics, feedback, genclient, refine, scoring, segment

    def bind(name, fn, modules, **options):
        wrapped = tracer.wrap(name, fn, **options)
        for module in modules:
            setattr(module, fn.__name__, wrapped)

    def seen_text(args):
        tracer.count("segment.chars", len(args[0]))
        tracer.see_text(args[0])

    bind("segment", segment.segment_sentences, (segment, corpus, cli, feedback), before=seen_text)

    bind("corpus.load", cli.load_corpus, (cli,))
    bind("corpus.record_from_dict", corpus.record_from_dict, (corpus, cli))
    bind("corpus.validate_record", corpus.validate_record, (corpus, cli))
    bind("corpus.label_answer", corpus.label_answer, (scoring, evalmetrics))
    bind("corpus.project_spans", corpus.project_spans, (corpus,))
    bind("corpus.classify_granularity", corpus.classify_granularity, (cli,))

    bind(
        "scoring.score_record",
        scoring.score_record,
        (scoring, cli),
        before=lambda args: tracer.count(f"scoring.score_record_calls.{tracer.step}"),
    )
    bind("scoring.alpha", scoring.krippendorff_alpha, (scoring,))

    genclient.GenerationClient.generate = tracer.wrap(
        "genclient.generate", genclient.GenerationClient.generate, sample=True
    )
    genclient.FixtureStore.lookup = tracer.wrap(
        "genclient.fixture_lookup", genclient.FixtureStore.lookup
    )

    bind(
        "feedback.parse",
        feedback.parse_feedback_output,
        (feedback,),
        after=lambda sample: tracer.count("feedback.parse_ok", int(sample.parse_ok)),
    )
    bind("feedback.prompt", feedback.build_feedback_prompt, (feedback,))
    bind(
        "feedback.select",
        feedback.select_feedback,
        (feedback,),
        after=lambda result: tracer.count("feedback.low_confidence", int(result.low_confidence)),
    )

    bind(
        "refine.run_eir",
        refine.run_eir,
        (cli,),
        after=lambda record: tracer.count("refine.passthrough", int(record.passthrough)),
    )
    bind("refine.refine_answer", refine.refine_answer, (refine, cli))

    bind("evalmetrics.detection_eval", evalmetrics.detection_eval, (cli,))

    cli.ThreadPoolExecutor = _executor_class(tracer)
    bind("cli.write", cli._write_lines, (cli,))
    bind(
        "cli.existing_lines",
        cli._existing_lines,
        (cli,),
        after=lambda kept: tracer.count("cli.resume_kept", len(kept)),
    )


def percentile_ms(values: list[float], pct: int) -> float:
    """The pct-th percentile in milliseconds; 0 without samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1] * 1e3


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (stub-side counts excluded)."""
    c, s, calls, total = tracer.counters, tracer.self_s, tracer.calls, tracer.total_s
    samples = tracer.samples
    parse_calls = calls["feedback.parse"]
    eir_calls = calls["refine.run_eir"]
    return {
        "segment.calls": calls["segment"],
        "segment.calls_per_text": _ratio(calls["segment"], len(tracer.texts)),
        "segment.self_s": s["segment"],
        "segment.chars_per_s": _ratio(c["segment.chars"], s["segment"]),
        "corpus.load_calls": calls["corpus.load"],
        "corpus.load_s": total["corpus.load"],
        "corpus.parse_self_s": s["corpus.record_from_dict"] + s["corpus.validate_record"],
        "corpus.label_answer_calls": calls["corpus.label_answer"],
        "corpus.project_spans_self_s": s["corpus.project_spans"],
        "corpus.classify_granularity_self_s": s["corpus.classify_granularity"],
        "scoring.score_record_calls.score": c["scoring.score_record_calls.score"],
        "scoring.score_record_calls.agreement": c["scoring.score_record_calls.agreement"],
        "scoring.score_record_self_s": s["scoring.score_record"],
        "scoring.alpha_self_s": s["scoring.alpha"],
        "genclient.generate_calls": calls["genclient.generate"],
        "genclient.generate_p50_ms": percentile_ms(samples["genclient.generate"], 50),
        "genclient.generate_p99_ms": percentile_ms(samples["genclient.generate"], 99),
        "genclient.fixture_lookup_self_s": s["genclient.fixture_lookup"],
        "feedback.parse_calls": parse_calls,
        "feedback.parse_self_s": s["feedback.parse"],
        "feedback.parse_ok_frac": _ratio(c["feedback.parse_ok"], parse_calls),
        "feedback.prompt_self_s": s["feedback.prompt"],
        "feedback.select_self_s": s["feedback.select"],
        "feedback.low_confidence_frac": _ratio(
            c["feedback.low_confidence"], calls["feedback.select"]
        ),
        "refine.refine_calls": calls["refine.refine_answer"],
        "refine.passthrough_frac": _ratio(c["refine.passthrough"], eir_calls),
        "evalmetrics.detection_eval_self_s": s["evalmetrics.detection_eval"],
        "cli.queue_wait_p50_ms": percentile_ms(samples["cli.queue_wait"], 50),
        "cli.queue_wait_p99_ms": percentile_ms(samples["cli.queue_wait"], 99),
        "cli.worker_busy_frac": _ratio(c["cli.busy_us"], c["cli.capacity_us"]),
        "cli.write_s": total["cli.write"],
        "cli.resume_kept": c["cli.resume_kept"],
    }
