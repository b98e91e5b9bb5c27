"""Tests of the benchmark's own parts: generator, stub, span arithmetic, metric names.

Run with ``python -m pytest bench/tests``.
"""
import hashlib
import json
import re
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import child  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stub  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_same_seed_gives_same_input_bytes(tmp_path):
    options = dict(answers="all", fixtures=True, predictions=True)
    gen.build_inputs(tmp_path / "a", 7, 40, **options)
    gen.build_inputs(tmp_path / "b", 7, 40, **options)
    gen.build_inputs(tmp_path / "c", 8, 40, **options)
    a, b, c = (_tree_bytes(tmp_path / d) for d in "abc")
    assert a == b
    assert a["corpus.jsonl"] != c["corpus.jsonl"]


def test_generator_properties(tmp_path):
    manifest = gen.build_inputs(tmp_path, 3, 200, predictions=True)
    assert manifest["records"] == 200 and manifest["answers"] == 400
    assert manifest["distinct_texts"] == 600
    shares = manifest["shares"]
    for name, share in gen.FEATURE_SHARES.items():
        assert abs(shares[f"sentences_with_{name}"] - share) < 0.04
    assert shares["answers_segmented_as_generated"] == 1.0
    fixture = manifest["fixture_shares"]
    assert 0.4 < fixture["answers_passthrough"] < 0.6
    assert 0.08 < fixture["answers_low_confidence"] < 0.22
    assert 0.07 < fixture["samples_unparseable"] < 0.13
    for line in (tmp_path / "corpus.jsonl").read_text().splitlines():
        record = json.loads(line)
        assert 2 <= len(record["preferences"]) <= 3
    for path in (tmp_path / "fixtures").glob("*.json"):
        texts = json.loads(path.read_text())["texts"]
        assert len(texts) in (1, gen.N_SAMPLES)  # a refined answer, or feedback samples
        if len(texts) == gen.N_SAMPLES:
            assert texts[0].startswith("1. [")  # sample 0 is never the unparseable one


def test_stub_takes_first_n_cyclically():
    assert stub.choose_texts(["a", "b", "c"], 2) == ["a", "b"]
    assert stub.choose_texts(["a", "b", "c"], 5) == ["a", "b", "c", "a", "b"]


def test_stub_fails_a_fixed_share_spread_through_the_send_order():
    order = [f"{i:064x}" for i in range(300)]
    chosen = stub.failing_digests(order, 0.01)
    assert chosen == {order[75], order[150], order[225]}
    assert stub.failing_digests(order, 0.0) == set()


def test_send_order_lists_every_fixture_once(tmp_path):
    gen.build_inputs(tmp_path, 5, 30, answers="model")
    order = (tmp_path / "fixtures" / "send_order.txt").read_text().split()
    assert sorted(order) == sorted(p.stem for p in (tmp_path / "fixtures").glob("*.json"))


def test_stub_response_is_one_http11_message():
    raw = stub.http_response(200, "OK", b'{"x": 1}')
    head, body = raw.split(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 OK")
    assert b"Content-Length: 8" in head and body == b'{"x": 1}'


def _post(url: str, prompt: str, n: int):
    body = json.dumps({"messages": [{"role": "user", "content": prompt}], "n": n}).encode()
    request = urllib.request.Request(url, data=body, headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


def test_stub_serves_n_choices_and_one_503_per_selected_prompt(tmp_path):
    prompts = [f"prompt {i}" for i in range(4)]
    digests = [hashlib.sha256(p.encode()).hexdigest() for p in prompts]
    for p, digest in zip(prompts, digests):
        (tmp_path / f"{digest}.json").write_text(json.dumps({"prompt": p, "texts": ["x", "y"]}))
    (tmp_path / "send_order.txt").write_text("\n".join(digests))
    server = stub.serve(tmp_path, delay_s=0.0, fail_share=0.25)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}"
        failing = prompts[2]  # the middle one of four
        try:
            _post(url, failing, 3)
            raise AssertionError("first attempt of the selected prompt must fail")
        except urllib.error.HTTPError as exc:
            assert exc.code == 503
        reply = _post(url, failing, 3)
        assert [c["message"]["content"] for c in reply["choices"]] == ["x", "y", "x"]
        for p in prompts:
            if p != failing:
                assert len(_post(url, p, 1)["choices"]) == 1
        with urllib.request.urlopen(f"{url}/_stats?reset=1", timeout=10) as response:
            stats = json.loads(response.read())
        assert stats["posts"] == 5 and stats["errors_5xx"] == 1
        assert stats["connections"] == 5  # urllib opens one per request
        assert 0.0 < stats["in_flight_mean"] <= 1.0
        with urllib.request.urlopen(f"{url}/_stats", timeout=10) as response:
            assert json.loads(response.read())["posts"] == 0
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_is_duration_minus_direct_children():
    # outer [0, 10] holds a [1, 4] and b [5, 8]; b holds c [5.5, 6.5].
    tracer = spans.Tracer(clock=FakeClock([0, 1, 4, 5, 5.5, 6.5, 8, 10]))
    tracer.enter("outer")
    tracer.enter("a")
    tracer.exit()
    tracer.enter("b")
    tracer.enter("c")
    tracer.exit()
    tracer.exit()
    tracer.exit()
    assert tracer.total_s == {"outer": 10, "a": 3, "b": 3, "c": 1}
    assert tracer.self_s == {"outer": 4, "a": 3, "b": 2, "c": 1}
    assert sum(tracer.self_s.values()) == tracer.total_s["outer"]


def test_spans_in_another_thread_have_their_own_parents():
    tracer = spans.Tracer()
    tracer.enter("main")
    worker = threading.Thread(target=lambda: (tracer.enter("worker"), tracer.exit()))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.exit()
    assert tracer.self_s["main"] == tracer.total_s["main"]
    assert tracer.calls == {"main": 1, "worker": 1}


def test_wrap_counts_calls_and_observes_results():
    tracer = spans.Tracer()
    seen = []
    double = tracer.wrap("double", lambda x: 2 * x, sample=True, before=seen.append,
                         after=seen.append)
    assert double(4) == 8
    assert seen == [(4,), 8]
    assert tracer.calls["double"] == 1 and len(tracer.samples["double"]) == 1


def test_host_seconds_take_out_stolen_time_and_rescale_cpu_time():
    assert run.host_seconds({"s": 2.0, "cpu_s": 0.0, "stolen_s": 0.5}, 2.0) == 1.5
    # 1.5 s on a CPU at half the reference speed, 0.5 s waiting.
    assert run.host_seconds({"s": 2.0, "cpu_s": 1.5, "stolen_s": 0.0}, 0.5) == 1.25
    # CPU seconds beyond the wall time (two threads at once) count once.
    assert run.host_seconds({"s": 1.0, "cpu_s": 1.8, "stolen_s": 0.0}, 0.5) == 0.5


def test_cpu_scale_is_reference_over_mean_sample():
    assert run.cpu_scale([run.REF_CPU_S] * 3) == 1.0
    assert run.cpu_scale([run.REF_CPU_S, 3 * run.REF_CPU_S]) == 0.5


def test_reference_kernel_is_fixed_work():
    assert child.reference_kernel() == child.reference_kernel()
    samples = child.ref_samples()
    assert len(samples) == child.REF_SAMPLES and all(s > 0 for s in samples)


def _fake_pass(layers=None) -> dict:
    steps = [
        {"name": name, "s": 1.0, "cpu_s": 1.0, "stolen_s": 0.0, "rc": 0, "answers": 10,
         "failed": False}
        for name in run.STEP_NAMES
    ]
    result = {"steps": steps, "raw_wall_s": 8.0, "stolen_s": 0.0, "peak_rss_mb": 30.0}
    if layers is not None:
        result["layers"] = layers
        result["stub"] = {"posts": 4, "connections": 4, "errors_5xx": 0, "in_flight_mean": 1.0}
    return result


def test_end_to_end_times_are_lower_quartiles_of_the_run():
    passes = [
        {"steps": [{"s": w, "cpu_s": w, "stolen_s": 0.0}], "peak_rss_mb": 30.0}
        for w in (5.0, 1.0, 4.0, 2.0, 3.0)
    ]
    setup = [{"s": 0.2, "cpu_s": 0.2, "stolen_s": 0.0}]
    metrics = run.end_to_end(passes, setup, 2.0)
    assert metrics["wall_s"] == 3.0  # statistics.quantiles(..., n=4)[0] of 2 x the times
    assert metrics["setup_s"] == 0.4


def test_batch_throughput_counts_completed_batch_answers_only():
    result = _fake_pass()
    result["steps"][run.STEP_NAMES.index("refine_eir")]["failed"] = True
    result["steps"][run.STEP_NAMES.index("validate")]["s"] = 5.0  # not a batch step
    # feedback and resume completed 10 answers each, over 3 batch-step seconds.
    assert run.batch_answers_per_s(result, 1.0) == 20 / 3


def test_metric_names_are_valid_and_match_benchmark_json():
    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in config["end_to_end"]}
    per_layer = {m["name"] for m in config["per_layer"]}
    layers = spans.layer_metrics(spans.Tracer())
    setup = {"s": 0.2, "cpu_s": 0.2, "stolen_s": 0.0}
    assert set(run.end_to_end([_fake_pass()], [setup], 1.0)) == end_to_end
    assert set(run.per_layer([_fake_pass()], [_fake_pass(layers)], 0.0, 1.0)) == per_layer
    assert set(run.metric_units()) == end_to_end | per_layer
    assert {w["name"]: w["why"] for w in config["workloads"]} == {
        w.name: w.why for w in run.WORKLOADS.values()
    }
    for name in [*end_to_end, *per_layer, *run.WORKLOADS]:
        assert NAME_RE.fullmatch(name), name
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
