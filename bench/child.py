"""Fresh-process parts of the benchmark, each run as ``python3 bench/child.py MODE ...``.

``pass SPEC RESULT``
    One pass. SPEC is a JSON file naming the ``lfqa-eval`` steps to run
    (each an argv list); RESULT is where the timings go. The pass imports
    ``lfqa_eval.cli`` and then runs every step through ``lfqa_eval.cli.main``
    in this process, timing each in wall seconds, in this process's CPU
    seconds (``cpu_s``) and in seconds stolen from the host's CPUs
    (``stolen_s``). Before every step and after the last, it times the
    reference kernel (``ref_s``). It loads nothing before the first step,
    so a step pays for its own corpus load. A cache that one step fills and
    a later step of the same pass reuses is measured as a gain, although
    separate CLI invocations would not share it. With
    ``"trace": true`` the layer wrappers of ``spans.py`` are installed first
    and the result carries the per-layer aggregates.
``setup CORPUS``
    Prints the same timings for importing ``lfqa_eval.cli`` and loading
    CORPUS once, the set-up every subcommand pays, with reference kernel
    times from before and after it.
"""
from __future__ import annotations

import contextlib
import gc
import json
import os
import re
import sys
import time

REF_SAMPLES = 2  # reference kernel runs at each step boundary
_REF_TEXT = " ".join(
    f'Sentence {i} has {i * 7 % 13} words, e.g. Dr. Smith said {i}.5 "q{i % 17}".'
    for i in range(1500)
)


def stolen_s() -> float:
    """Seconds the hypervisor has kept a runnable CPU of this machine from running,
    per CPU, since boot: the ``steal`` column of ``/proc/stat`` (0 where the
    kernel reports none).

    On a shared virtual machine the stolen share of a CPU changes by tens of
    percent over minutes, and the wall time of CPU-bound work follows it.
    The per-CPU mean is what a thread that ran throughout lost on average.
    """
    with open("/proc/stat", encoding="ascii") as handle:
        lines = handle.read().splitlines()
    fields = lines[0].split()
    n_cpus = sum(1 for line in lines if line.startswith("cpu") and line[3].isdigit())
    steal = int(fields[8]) if len(fields) > 8 else 0
    return steal / os.sysconf("SC_CLK_TCK") / n_cpus


def reference_kernel() -> int:
    """A fixed piece of interpreter work like the CLI's own: split text into
    sentences with a regular expression, count words in a dict, and round-trip
    the counts through JSON. It uses nothing from the package.
    """
    counts: dict[str, int] = {}
    for sentence in re.split(r"(?<=[.!?])\s+", _REF_TEXT):
        for word in sentence.split():
            counts[word] = counts.get(word, 0) + 1
    return len(json.loads(json.dumps(sorted(counts.items()))))


def ref_samples() -> list[float]:
    """CPU seconds of a few runs of the reference kernel, with the collector off.

    The shared host's CPU speed changes by tens of percent from one second to
    the next and drifts over minutes, so the time of the same work follows it;
    samples taken between the steps follow the speed the steps ran at.
    """
    samples = []
    enabled = gc.isenabled()  # restored as found: the program may have turned it off
    gc.disable()
    try:
        for _ in range(REF_SAMPLES):
            c0 = time.process_time()
            reference_kernel()
            samples.append(time.process_time() - c0)
    finally:
        if enabled:
            gc.enable()
    return samples


def _timed(fn, *args):
    """fn(*args) and its wall, CPU and stolen seconds."""
    t0, c0, s0 = time.perf_counter(), time.process_time(), stolen_s()
    value = fn(*args)
    return value, {
        "s": time.perf_counter() - t0,
        "cpu_s": time.process_time() - c0,
        "stolen_s": stolen_s() - s0,
    }


def peak_rss_mb() -> float:
    """This process image's peak resident set size (VmHWM), in MiB.

    ``getrusage``'s ``ru_maxrss`` would not do: Linux carries it over fork
    and exec, so it reports the benchmark parent's size when that is larger.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _load(corpus: str) -> None:
    from lfqa_eval import cli  # noqa: F401
    from lfqa_eval.corpus import load_corpus

    load_corpus(corpus)


def run_pass(spec: dict) -> dict:
    from lfqa_eval import cli

    tracer = None
    if spec.get("trace"):
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    steps, refs = [], []
    with open(os.devnull, "w") as devnull:
        for step in spec["steps"]:
            if step.get("resume_prefix_of"):
                # Untimed: an --out holding the first half of a finished run's lines.
                with open(step["resume_prefix_of"], encoding="utf-8") as handle:
                    lines = handle.readlines()
                with open(step["out"], "w", encoding="utf-8") as handle:
                    handle.writelines(lines[: len(lines) // 2])
            refs += ref_samples()
            if tracer is not None:
                tracer.step = step["name"]
            with contextlib.redirect_stdout(devnull):
                rc, timing = _timed(cli.main, step["argv"])
            steps.append({"name": step["name"], "rc": rc, **timing})

    refs += ref_samples()
    result = {"steps": steps, "ref_s": refs, "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
    return result


if __name__ == "__main__":
    mode, *args = sys.argv[1:]
    reference_kernel()  # untimed: the first run also compiles and specializes
    if mode == "setup":
        before = ref_samples()
        timing = _timed(_load, args[0])[1]
        print(json.dumps({**timing, "ref_s": before + ref_samples()}))
    elif mode == "pass":
        spec_path, result_path = args
        with open(spec_path, encoding="utf-8") as handle:
            spec = json.load(handle)
        result = run_pass(spec)
        with open(result_path, "w", encoding="utf-8") as handle:
            json.dump(result, handle)
    else:
        sys.exit(f"unknown mode {mode!r}")
