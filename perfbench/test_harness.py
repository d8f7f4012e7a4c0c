"""Self-tests of the benchmark harness; they need no long inputs.

    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import math
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402
from harness import Op, Span  # noqa: E402


def test_failed_op_adds_no_goodput_and_misses_every_latency_limit():
    ops = [
        Op(True, 300.0, 1.0, [5.0, 6.0, 7.0], 3),
        Op(False, 300.0, 0.5, [], 3, "boom"),
    ]
    m = harness.summarize(ops, walls=[1.0, 1.0], cpus=[2.0, 2.0], refs=[0.5, 0.5], shift_ms=1000.0)
    # goodput is the median of per-chunk goodputs; only the op that succeeded counts
    assert m["eeg_s_per_s"].value == 150.0
    assert m["eeg_s_per_cpu_s"].value == 75.0
    assert m["eeg_s_per_ref"].value == 75.0  # 300 s of EEG in 4 probe times
    assert math.isinf(m["window_p90_ms"].value)
    assert m["ok_frac"].value == 0.5 and m["fail_frac"].value == 0.5
    assert m["budget_met_frac"].value == 0.5  # 3 of 6 windows met the shift
    assert m["window_p50_ms"].n == 6
    assert math.isinf(m["window_p99_ms"].value)  # 3 of 6 windows are infinitely late
    assert math.isinf(m["op_p50_s"].value)


def test_auroc_matches_pairwise_count_with_ties():
    labels = [True, False, True, False, False, True, False]
    scores = [0.9, 0.1, 0.4, 0.4, 0.8, 0.4, 0.2]
    pairs = [(p, n) for p, y in zip(scores, labels) if y for n, z in zip(scores, labels) if not z]
    expected = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p, n in pairs) / len(pairs)
    assert harness.auroc(labels, scores) == pytest.approx(expected)
    assert math.isnan(harness.auroc([True, True], [0.1, 0.2]))


def test_self_time_of_nested_spans():
    spans = [
        Span("a", 0.0, 10.0, -1, 0, 0.0, False),
        Span("b", 1.0, 3.0, 0, 0, 0.0, False),
        Span("c", 4.0, 8.0, 0, 0, 0.0, False),
        Span("d", 5.0, 6.0, 2, 0, 0.0, False),
        Span("a", 11.0, 12.0, -1, 1, 0.0, False),
    ]
    assert harness.self_times(spans) == [4.0, 2.0, 3.0, 1.0, 1.0]


def test_tracer_links_calls_made_through_module_attributes():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(ns.inner(x))
    tracer = harness.Tracer()
    tracer.op = 3
    tracer.wrap(ns, "inner", "m.inner")
    tracer.wrap(ns, "outer", "m.outer")
    assert ns.outer(1) == 3
    tracer.restore()
    assert ns.outer(1) == 3 and len(tracer.spans) == 3
    outer = next(i for i, s in enumerate(tracer.spans) if s.name == "m.outer")
    inner = [s for s in tracer.spans if s.name == "m.inner"]
    assert all(s.parent == outer and s.op == 3 for s in inner)
    selfs = harness.self_times(tracer.spans)
    assert selfs[outer] == pytest.approx(tracer.spans[outer].dur - sum(s.dur for s in inner))
    layers = harness.layer_metrics(tracer.spans, traced_ops=1, windows_per_op=1.0)
    assert layers["m.inner_calls_per_op"].value == 2
    assert layers["m.outer_failed"].value == 0


def test_every_percentile_comes_with_its_sample_count():
    assert harness.percentile([float(x) for x in range(1, 101)], 99) == (pytest.approx(99.01), 100)
    assert harness.percentile([], 50)[1] == 0
    m = harness.summarize([Op(True, 1.0, 0.1, [1.0] * 40, 40)], [1.0], [1.0], [0.01], 1000.0)
    assert {k: v.n for k, v in m.items() if k.startswith("window_")} == {
        "window_p50_ms": 40,
        "window_p90_ms": 40,
        "window_p99_ms": 40,
        "window_p50_ref": 40,
    }
    assert m["window_p50_ref"].value == pytest.approx(0.1)  # 1 ms in probes of 10 ms
    assert run.fmt("window_p99_ms", vars(m["window_p99_ms"])).endswith("n=40")


def test_reference_matches_the_package_and_catches_a_wrong_kernel():
    import numpy as np
    import reference

    sys.path.insert(0, str(HERE.parent / "src"))
    from seizeval import core, features

    names = list(core.DEFAULT_UNIPOLAR_CHANNELS)
    rng = np.random.default_rng(0)
    rec = core.Recording(256, names, rng.standard_normal((len(names), 2560)).astype(np.float32),
                         core.Montage.UNIPOLAR)  # fmt: skip
    got = core.resample(core.to_bipolar(rec), 200).samples
    want = reference.resample(
        reference.bipolar(names, rec.samples, core.DEFAULT_BIPOLAR_PAIRS), 256, 200
    )
    assert reference.rel_err(got, want) < 1e-6
    window = want[:, :800]
    bands = features.SincBank().bands
    ref = reference.sinc_features(window, 200, bands)
    assert reference.rel_err(features.sinc_filterbank(window).data, ref) < 1e-9
    wrong = reference.sinc_features(window, 200, bands[::-1])
    assert reference.rel_err(features.sinc_filterbank(window).data, wrong) > 0.1


def test_scores_compare_on_the_logit_scale():
    import reference

    assert reference.same_score(1e-75, 1e-75 * (1 + 1e-9), 1e-6)
    assert not reference.same_score(1e-75, 1.1e-75, 1e-6)  # equal to 1e-6 absolute
    assert reference.same_score(1.0, 1.0, 1e-6)
    assert not reference.same_score(1.0, 1 - 1e-12, 1e-6)
    assert reference.same_score(1 / (1 + math.exp(500)), 1 / (1 + math.exp(510)), 1e-6)


def test_workload_leaves_no_file_outside_its_output_directory(tmp_path, monkeypatch):
    import gen

    monkeypatch.setattr(gen, "CLI_TRAIN_S", 60)
    monkeypatch.setattr(gen, "CLI_TEST_S", 60)
    inputs, cwd = tmp_path / "inputs", tmp_path / "cwd"
    gen.generate("cli", 3, inputs)
    work = cwd / "work"
    work.mkdir(parents=True)
    repo = HERE.parent

    def snapshot():
        skip = {"__pycache__", ".perfbench", ".git", ".pytest_cache"}
        files = {p for p in cwd.rglob("*") if work not in p.parents and p != work}
        return files | {p for p in repo.rglob("*") if not skip & set(p.parts)}

    before = snapshot()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", "train-eval",
         "--inputs", str(inputs), "--work", str(work), "--seed", "3",
         "--seconds", "0.5", "--trace", "0", "--out", str(work / "result.json")],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    assert snapshot() == before
    assert (work / "result.json").is_file()
