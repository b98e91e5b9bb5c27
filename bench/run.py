"""Benchmark for the lfqa-eval toolkit, driving its CLI from outside.

    python3 bench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Each workload is a closed loop: one pass runs the workload's sequence of
``lfqa-eval`` subcommands, in order, in a fresh child process (``child.py``)
with ``--workers 2``; HTTP backends have ``max_in_flight = 2``. Passes repeat
until ``--seconds`` have gone by; with ``--trace 0`` a set-up runs in a
process of its own after every pass. Every time is wall time less the time
the hypervisor stole from the host's CPUs meanwhile (``child.stolen_s``),
with the seconds the process spent on a CPU rescaled to the reference
kernel's speed (``host_seconds``), and the end-to-end times are the lower
quartile of the run (``end_to_end``).
Inputs come from ``gen.py`` and depend only on the seed. The first pass of
a run is checked against what the generator built (line counts, keys,
passthrough and low-confidence flags, resume equal to the uninterrupted
run), and its ``--out`` bytes become the reference that every later pass
must reproduce. The HTTP workloads take an untimed scripted-backend pass
over the same inputs as their reference, so their outputs must equal its
bytes.

With ``--trace 0`` the last line of output is the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate, and the last line is the
per-layer metrics of ``spans.py``, the stub's counts, each step's untraced
time, the batch throughput and the tracing overhead. Metric units come from
``BENCHMARK.json``. Both are JSON objects with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` and
``failed`` count answers over all timed passes, and a step that exits
non-zero or writes bytes that differ from the reference fails all of its
answers. The exit code is 0 when the run completed, whatever it measured.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKERS = 2
MAX_IN_FLIGHT = 2
N_SAMPLES = 20
SETUP_SAMPLES = 9  # at least this many set-up children per run
REF_CPU_S = 0.010  # CPU seconds of child.reference_kernel at reference speed
CHILD_TIMEOUT_S = 150
STEP_NAMES = (
    "validate", "stats", "score", "agreement", "eval_detect",
    "feedback", "refine_eir", "resume",
)
BATCH_STEPS = ("feedback", "refine_eir", "resume")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    records: int
    answers: str  # which answers the batch steps cover: "all" or "model"
    fixtures: bool = False
    predictions: bool = False
    stub: dict | None = None  # delay_ms, fail_share

    @property
    def http(self) -> bool:
        return bool(self.stub)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "analyze",
            "CPU-only analysis path (validate, stats, score, agreement, eval-detect): "
            "segment, corpus and scoring do the work, genclient none",
            records=698,
            answers="all",
            predictions=True,
        ),
        Workload(
            "pipeline-scripted",
            "feedback n=20, eir refine, eval-detect and a resumed feedback on the scripted "
            "backend: parsing, selection, refine and the batch runner carry the cost",
            records=250,
            answers="all",
            fixtures=True,
        ),
        Workload(
            "http-native",
            "feedback and eir refine against a stub endpoint with 10 ms service delay, "
            "native n and 1% first-attempt 503s: waiting, concurrency and retries",
            records=200,
            answers="model",
            fixtures=True,
            stub={"delay_ms": 10.0, "fail_share": 0.01},
        ),
    )
}


# ---------------------------------------------------------------------------
# Steps of one pass


def _steps(w: Workload, inp: Path, out: Path, backend: list[str]) -> list[dict]:
    """The pass's lfqa-eval invocations, with what each one writes."""
    corpus = str(inp / "corpus.jsonl")
    if w.name == "analyze":
        return [
            {"name": "validate", "argv": ["validate", corpus], "outs": []},
            {"name": "stats", "argv": ["stats", corpus, "--out", str(out / "stats.jsonl")],
             "outs": ["stats.jsonl"]},
            {"name": "score",
             "argv": ["score", corpus, "--out", str(out / "cards.jsonl"),
                      "--report", str(out / "report.jsonl")],
             "outs": ["cards.jsonl", "report.jsonl"]},
            {"name": "agreement",
             "argv": ["agreement", corpus, "--out", str(out / "agreement.jsonl")],
             "outs": ["agreement.jsonl"]},
            {"name": "eval_detect",
             "argv": ["eval-detect", corpus, "--predictions", str(inp / "predictions.jsonl"),
                      "--out", str(out / "detect.jsonl")],
             "outs": ["detect.jsonl"]},
        ]
    batch = ["--answer", w.answers, "--workers", str(WORKERS), "--n-samples", str(N_SAMPLES)]
    steps = [
        {"name": "feedback",
         "argv": ["feedback", corpus, *backend, *batch, "--out", str(out / "feedback.jsonl")],
         "outs": ["feedback.jsonl"]},
    ]
    steps.append(
        {"name": "refine_eir",
         "argv": ["refine", corpus, "--mode", "eir", *backend, *batch,
                  "--out", str(out / "refined.jsonl")],
         "outs": ["refined.jsonl"]}
    )
    if w.name == "http-native":
        return steps
    return steps + [
        {"name": "eval_detect",
         "argv": ["eval-detect", corpus, "--predictions", str(out / "feedback.jsonl"),
                  "--out", str(out / "detect.jsonl")],
         "outs": ["detect.jsonl"]},
        {"name": "resume",
         "argv": ["feedback", corpus, *backend, *batch, "--resume",
                  "--out", str(out / "resume.jsonl")],
         "outs": ["resume.jsonl"],
         "out": str(out / "resume.jsonl"),
         "resume_prefix_of": str(out / "feedback.jsonl")},
    ]


def _step_answers(step: dict, manifest: dict, w: Workload) -> int:
    """Answers a step processes: all answers for analysis, the selection for batches."""
    if step["name"] in BATCH_STEPS:
        n = manifest["fixture_answers"]
        return n - n // 2 if step["name"] == "resume" else n
    if step["name"] == "eval_detect" and w.name != "analyze":
        return manifest["fixture_answers"]
    return manifest["answers"]


# ---------------------------------------------------------------------------
# Child processes and the stub


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def child(*args: str) -> str:
    """Run ``child.py`` with args in a fresh interpreter and return its output."""
    return subprocess.run(
        [sys.executable, str(BENCH / "child.py"), *args],
        env=_child_env(), capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S,
    ).stdout


def run_child(work: Path, steps: list[dict], trace: bool) -> dict | None:
    """Run one pass in a fresh interpreter; None when the process fails or hangs."""
    spec_path = work / "spec.json"
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    spec_path.write_text(json.dumps({"steps": steps, "trace": trace}))
    try:
        child("pass", str(spec_path), str(result_path))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"pass failed: {exc}\n{getattr(exc, 'stderr', '')}", file=sys.stderr)
        return None
    return json.loads(result_path.read_text())


class Stub:
    """The stub endpoint process (``stub.py``) and its counters."""

    def __init__(self, fixtures: Path, delay_ms: float, fail_share: float):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "stub.py"), "--fixtures", str(fixtures),
             "--delay-ms", str(delay_ms), "--fail-share", str(fail_share)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"stub did not start: {line!r}")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def stats(self, reset: bool = False) -> dict:
        query = "?reset=1" if reset else ""
        with urllib.request.urlopen(f"{self.url}/_stats{query}", timeout=10) as response:
            return json.loads(response.read())

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _http_config(path: Path, url: str) -> None:
    lines = []
    for role in ("feedback", "refine"):
        lines += [
            f"{role}.kind = http",
            f"{role}.endpoint_url = {url}/v1/chat/completions",
            f"{role}.model_name = stub",
            f"{role}.max_in_flight = {MAX_IN_FLIGHT}",
            f"{role}.native_n = true",
            f"{role}.timeout = 30",
        ]
    lines.append("feedback.temperature = 0.7")
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Output checks


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _lines(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def check_reference(w: Workload, out: Path, inp: Path, manifest: dict) -> list[str]:
    """What the reference pass wrote, against what the generator built."""
    problems = []
    corpus = _lines(inp / "corpus.jsonl")
    if w.name == "analyze":
        keys = [(r["id"], i) for r in corpus for i in range(len(r["answers"]))]
        cards = _lines(out / "cards.jsonl")
        if [(c["record_id"], c["answer_index"]) for c in cards] != keys:
            problems.append("score --out: one card per answer, in corpus order")
        domains = {r["domain"] for r in corpus}
        for name in ("report.jsonl", "agreement.jsonl"):
            if len(_lines(out / name)) != len(domains) + 1:
                problems.append(f"{name}: one line per domain plus the average")
        spans = [s for s in _lines(out / "stats.jsonl") if s["kind"] == "span_granularity"]
        n_ann = sum(len(r["annotations"]) for r in corpus)
        if not spans or spans[-1]["aspect"] != "average" or spans[-1]["n_spans"] != n_ann:
            problems.append("stats --out: every annotation classified once")
        (detect,) = _lines(out / "detect.jsonl")
        if detect["n_records"] != len(keys) or detect["skipped"]:
            problems.append("eval-detect: every prediction evaluated")
        return problems

    expected = manifest["expected"]
    keys = [
        (r["id"], i)
        for r in corpus
        for i, a in enumerate(r["answers"])
        if w.answers == "all" or a["source"] == w.answers
    ]
    feedback = _lines(out / "feedback.jsonl")
    if [(f["record_id"], f["answer_index"]) for f in feedback] != keys:
        problems.append("feedback: one line per selected answer, in corpus order")
    for f in feedback:
        want = expected.get(f"{f['record_id']}#{f['answer_index']}", {})
        if (f["n_sampled"], f["n_parseable"], f["low_confidence"]) != (
            N_SAMPLES, want.get("n_parseable"), want.get("low_confidence")
        ):
            problems.append(f"feedback {f['record_id']}#{f['answer_index']}: unexpected selection")
            break
    if (out / "refined.jsonl").exists():
        refined = _lines(out / "refined.jsonl")
        if [(r["record_id"], r["answer_index"]) for r in refined] != keys:
            problems.append("refine: one line per selected answer, in corpus order")
        for r in refined:
            if r["passthrough"] != expected[f"{r['record_id']}#{r['answer_index']}"]["passthrough"]:
                problems.append(f"refine {r['record_id']}#{r['answer_index']}: wrong passthrough")
                break
    if (out / "resume.jsonl").exists() and _digest(out / "resume.jsonl") != _digest(
        out / "feedback.jsonl"
    ):
        problems.append("feedback --resume: differs from the uninterrupted run")
    return problems


# ---------------------------------------------------------------------------
# One workload


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def cpu_scale(ref_samples: list[float]) -> float:
    """Reference speed over the run's speed: REF_CPU_S over the mean reference kernel time.

    The samples are taken inside the measured processes, between their steps,
    all through the run, so their mean sees the same mix of fast and slow
    spells of the shared host as the steps do.
    """
    return REF_CPU_S / statistics.fmean(ref_samples)


def host_seconds(timing: dict, scale: float) -> float:
    """Wall seconds less stolen seconds, with the part spent on a CPU at reference speed.

    On a shared virtual machine the hypervisor steals a share of the CPUs
    that changes by tens of percent over minutes, and the CPU speed itself
    changes as much without any steal; the wall time of the same work follows
    both. The stolen seconds are taken out, and the process's CPU seconds
    (at most the rest) are multiplied by ``scale``. Waiting, on the endpoint
    or on a lock, is counted as measured.
    """
    wall = timing["s"] - timing["stolen_s"]
    busy = min(timing["cpu_s"], wall)
    return wall - busy + busy * scale


class Run:
    def __init__(self, w: Workload, seed: int, work: Path):
        import gen

        self.w, self.work = w, work
        self.inp = work / "inputs"
        self.manifest = gen.build_inputs(
            self.inp, seed, w.records, answers=w.answers, fixtures=w.fixtures,
            predictions=w.predictions,
        )
        self.out = work / "out"
        self.out.mkdir()
        self.stub = None
        self.reference: dict[str, str] = {}
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def setup_sample(self) -> dict:
        """Set-up timings of one fresh process."""
        return json.loads(child("setup", str(self.inp / "corpus.jsonl")))

    def steps(self, scripted: bool) -> list[dict]:
        if self.w.http and not scripted:
            backend = ["--config", str(self.work / "http.cfg")]
        else:
            backend = ["--backend", f"scripted:{self.inp / 'fixtures'}"]
        return _steps(self.w, self.inp, self.out, backend)

    def start(self) -> None:
        """For HTTP workloads: an untimed scripted pass gives the reference, then the stub starts."""
        if self.w.http:
            self.run_pass(trace=False, scripted=True)
            self.stub = Stub(self.inp / "fixtures", self.w.stub["delay_ms"], self.w.stub["fail_share"])
            _http_config(self.work / "http.cfg", self.stub.url)

    def run_pass(self, trace: bool, scripted: bool = False) -> dict | None:
        """One pass; the first one is checked against the generator and becomes the reference.

        Returns None, with every answer of the pass failed, when the child process fails.
        """
        for path in self.out.iterdir():
            path.unlink()
        if self.stub:
            self.stub.stats(reset=True)
        steps = self.steps(scripted)
        result = run_child(self.work, steps, trace)
        crashed = result is None
        if crashed:
            self.problems.append("a pass's child process failed")
            result = {"steps": [{"name": s["name"], "rc": None, "s": 0.0} for s in steps]}
        elif self.stub:
            result["stub"] = self.stub.stats()
        wrong = False
        if not self.reference and not crashed:
            try:
                found = check_reference(self.w, self.out, self.inp, self.manifest)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                found = [f"outputs unreadable: {exc!r}"]
            self.problems += found
            wrong = bool(found)
            self.reference = {
                name: _digest(self.out / name)
                for spec in steps
                for name in spec["outs"]
                if (self.out / name).exists()
            }
        for spec, step in zip(steps, result["steps"]):
            n = _step_answers(spec, self.manifest, self.w)
            bad = crashed or wrong or step["rc"] != 0 or any(
                not (self.out / name).exists()
                or _digest(self.out / name) != self.reference.get(name)
                for name in spec["outs"]
            )
            if bad:
                self.problems.append(f"{step['name']}: exit {step['rc']} or output differs")
            step["answers"], step["failed"] = n, bad
            if not scripted or not self.w.http:
                self.attempted += n
                self.failed += n if bad else 0
        if crashed:
            return None
        for key, field in (("raw_wall_s", "s"), ("stolen_s", "stolen_s")):
            result[key] = sum(step[field] for step in result["steps"])
        return result

    def close(self) -> None:
        if self.stub:
            self.stub.close()


def _lower_quartile(values: list[float]) -> float:
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 else values[0]


def pass_seconds(result: dict, scale: float) -> float:
    return sum(host_seconds(step, scale) for step in result["steps"])


def end_to_end(passes: list[dict], setup: list[dict], scale: float) -> dict[str, float]:
    """Lower quartiles of the run's set-up and pass times, and the median peak memory.

    A pass or set-up lands in a fast or a slow state of the host that lasts
    seconds, so its times are bimodal, and their median jumps from one mode
    to the other as the share of slow samples drifts; the minimum instead
    follows the rare pass that ran unusually fast. Host noise only adds
    time, and the lower quartile stays in the fast mode without resting on
    a single pass.
    """
    return {
        "setup_s": _lower_quartile([host_seconds(t, scale) for t in setup]),
        "wall_s": _lower_quartile([pass_seconds(p, scale) for p in passes]),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in passes]),
    }


def batch_answers_per_s(result: dict, scale: float) -> float:
    """Answers the batch steps completed without failing, over those steps' seconds."""
    batch = [step for step in result["steps"] if step["name"] in BATCH_STEPS]
    seconds = sum(host_seconds(step, scale) for step in batch)
    done = sum(step["answers"] for step in batch if not step["failed"])
    return done / seconds if seconds else 0.0


def per_layer(
    plain: list[dict], traced: list[dict], fail_frac: float, scale: float
) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for name in traced[0]["layers"]:
        metrics[name] = _median([p["layers"][name] for p in traced])
    stub = [p["stub"] for p in traced if "stub" in p]
    posts = _median([s["posts"] for s in stub])
    connections = _median([s["connections"] for s in stub])
    in_flight = _median([s["in_flight_mean"] for s in stub])
    metrics.update({
        "genclient.posts": posts,
        "genclient.connections": connections,
        "genclient.posts_per_connection": posts / connections if connections else 0.0,
        "genclient.retries": _median([s["errors_5xx"] for s in stub]),
        "genclient.in_flight_mean": in_flight,
        "genclient.in_flight_util": in_flight / MAX_IN_FLIGHT,
    })
    for name in STEP_NAMES:
        metrics[f"cli.{name}_s"] = _median(
            [host_seconds(s, scale) for p in plain for s in p["steps"] if s["name"] == name]
        )
    metrics["cli.answers_per_s"] = _median([batch_answers_per_s(p, scale) for p in plain])
    metrics["cli.fail_frac"] = fail_frac
    metrics["host.stolen_s"] = _median([p["stolen_s"] for p in plain])
    metrics["host.raw_wall_s"] = _median([p["raw_wall_s"] for p in plain])
    metrics["host.cpu_scale"] = scale
    metrics["trace.overhead_frac"] = (
        _median([pass_seconds(p, scale) for p in traced])
        / _median([pass_seconds(p, scale) for p in plain])
        - 1.0
    )
    return metrics


def metric_units() -> dict[str, str]:
    """Unit of every metric, as ``BENCHMARK.json`` declares it."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in config["end_to_end"] + config["per_layer"]}


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-{seed}-", dir=ROOT / ".bench_work"))
    run = None
    try:
        run = Run(w, seed, work)
        run.start()
        plain, traced, setups = [], [], []
        n_plain = n_traced = 0
        deadline = time.perf_counter() + seconds
        last = 0.0
        # Start another pass only while at least half of one fits before the deadline.
        while not n_plain or (trace and not n_traced) or time.perf_counter() + last / 2 < deadline:
            tracing = trace and n_traced < n_plain
            started = time.perf_counter()
            result = run.run_pass(trace=tracing)
            last = time.perf_counter() - started
            if tracing:
                n_traced += 1
            else:
                n_plain += 1
            if result is not None:
                (traced if tracing else plain).append(result)
            if not trace:
                # Spread through the run, so that their median spans its drift.
                setups.append(run.setup_sample())
        if not plain or (trace and not traced):
            raise RuntimeError("no pass completed")
        if not trace:
            setups += [run.setup_sample() for _ in range(SETUP_SAMPLES - len(setups))]
        scale = cpu_scale([x for r in plain + traced + setups for x in r["ref_s"]])
        if trace:
            metrics = per_layer(plain, traced, run.failed / run.attempted, scale)
        else:
            metrics = end_to_end(plain, setups, scale)
            print(
                f"{w.name}: {len(plain)} passes; median raw wall "
                f"{_median([p['raw_wall_s'] for p in plain]):.4g} s, of which stolen "
                f"{_median([p['stolen_s'] for p in plain]):.4g} s; CPU scale {scale:.4g}; "
                f"median corrected {_median([pass_seconds(p, scale) for p in plain]):.4g} s"
            )
        units = metric_units()
        for problem in dict.fromkeys(run.problems):
            print(f"{w.name}: {problem}", file=sys.stderr)
        return {
            "correct": not run.problems,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
    finally:
        if run is not None:
            run.close()
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="lfqa-eval benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lfqa_eval" / "cli.py").is_file():
        print(f"error: lfqa_eval sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        for metric, entry in result["metrics"].items():
            print(f"{name:<18} {metric:<40} {entry['value']:>14.6g} {entry['unit']}")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
