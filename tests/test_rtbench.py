import functools

import numpy as np
import pytest

import seizeval as sv
from seizeval import features
from seizeval.errors import IncompatibleFeatureError, InvalidArgumentError
from seizeval.features import get_extractor
from seizeval.rtbench import LatencyReport, run_stream

from oracles import batch_replay_scores


def synth_rec(seed=0, duration=30.0):
    cfg = sv.SynthConfig(duration_s=duration, events=[(10, 20)], seed=seed)
    rec, labels = sv.synth_recording(cfg)
    return rec, labels


@functools.cache
def energy_model():
    """The energy baseline fitted on a training recording of its own."""
    rec, labels = synth_rec(seed=100)
    extractor, spec = get_extractor("bands"), sv.WindowSpec()
    feats = [extractor(w.samples) for w in sv.slice_windows(rec, spec)]
    return sv.fit_energy(list(zip(feats, sv.window_labels(rec, labels, spec))))


def energy_detector(smoothing=0.0):
    return sv.LinearDetector(energy_model(), smoothing=smoothing)


class TestRunStream:
    def test_window_count(self):
        rec, _ = synth_rec()
        track, report = run_stream(rec, get_extractor("bands"), energy_detector())
        assert track.scores.size == 27
        assert report.n_windows == 27
        assert np.all(report.extract_s >= 0) and np.all(report.detect_s >= 0)

    def test_deterministic_scores(self):
        rec, _ = synth_rec(seed=1)
        t1, _ = run_stream(rec, get_extractor("bands"), energy_detector())
        t2, _ = run_stream(rec, get_extractor("bands"), energy_detector())
        np.testing.assert_array_equal(t1.scores, t2.scores)

    def test_stream_equals_batch_stateless(self):
        rec, _ = synth_rec(seed=2)
        det = energy_detector()
        streamed, _ = run_stream(rec, get_extractor("bands"), det)
        batched = batch_replay_scores(rec, get_extractor("bands"), det)
        assert streamed.scores.tobytes() == batched.tobytes()

    def test_stream_equals_batch_stateful(self):
        rec, _ = synth_rec(seed=3)
        det = energy_detector(smoothing=0.6)
        streamed, _ = run_stream(rec, get_extractor("bands"), det)
        batched = batch_replay_scores(rec, get_extractor("bands"), det)
        assert streamed.scores.tobytes() == batched.tobytes()

    def test_incompatible_surfaces_immediately(self):
        rec, _ = synth_rec(seed=4)
        with pytest.raises(IncompatibleFeatureError):
            run_stream(rec, get_extractor("raw"), energy_detector())

    # The detector does not check tensors; run_stream checks the first one.
    # A 1 Hz recording makes an n-second window n samples long.
    @staticmethod
    def stream_raw(n_channels, window_samples, extractor_id, model_shape):
        rec = sv.Recording(1, [f"C{c}" for c in range(n_channels)], np.zeros((n_channels, 12)))
        n = int(np.prod(model_shape))
        model = sv.LinearModel(np.zeros(n), 0.0, np.zeros(n), np.ones(n), extractor_id, model_shape)
        spec = sv.WindowSpec(window_samples, window_samples)
        return run_stream(rec, features.extract_raw, sv.LinearDetector(model), spec)

    def test_wrong_extractor(self):
        with pytest.raises(IncompatibleFeatureError, match="'bands' features, got 'raw'"):
            self.stream_raw(2, 6, "bands", (2, 1, 6))

    def test_dim_mismatch(self):
        with pytest.raises(IncompatibleFeatureError):
            self.stream_raw(1, 6, "raw", (1, 1, 4))

    def test_shape_mismatch_of_equal_size(self):
        # (2, 1, 2) holds as many values as the model's (1, 1, 4)
        with pytest.raises(IncompatibleFeatureError, match=r"\(2, 1, 2\).*\(1, 1, 4\)"):
            self.stream_raw(2, 2, "raw", (1, 1, 4))

    def test_matching_model_scores_every_window(self):
        track, _ = self.stream_raw(2, 2, "raw", (2, 1, 2))
        assert track.scores.tolist() == [0.5] * 6

    def test_rejected_window_is_named(self):
        rec, _ = synth_rec(seed=5)
        rec.samples[3, 1000] = np.nan  # sample 1000 is in windows 2 to 5 only
        with pytest.raises(InvalidArgumentError, match=r"^window 2 at 2 s: .*non-finite"):
            run_stream(rec, get_extractor("bands"), energy_detector())


class TestCheckRealtime:
    def report(self, times, budget=1.0, warmup=0.0):
        # the first window is the warm-up, left out of every figure
        t = np.array([warmup, *times], dtype=float)
        return LatencyReport(extract_s=t / 2, detect_s=t / 2, shift_budget_s=budget)

    def test_pass(self):
        report = self.report([0.05, 0.08, 0.06])
        assert report.passed and "PASS" in report.summary()

    def test_fail(self):
        report = self.report([0.05, 1.2])
        assert not report.passed and "FAIL" in report.summary()

    def test_boundary_inclusive(self):
        assert self.report([1.0, 0.5]).passed

    def test_empty_report(self):
        with pytest.raises(InvalidArgumentError, match="empty"):
            LatencyReport(extract_s=np.array([]), detect_s=np.array([]), shift_budget_s=1.0)

    def test_warmup_exclusion(self):
        # a slow first window is the warm-up; a slow second window fails
        assert self.report([0.01, 0.01], warmup=5.0).passed
        assert not self.report([5.0, 0.01], warmup=0.01).passed
        # a one-window report has no other window to measure
        assert not self.report([], warmup=5.0).passed

    def test_stats_exact(self):
        rep = self.report([0.0, 0.2, 0.4], warmup=9.0)
        assert rep.n_windows == 4
        assert rep.mean_s == pytest.approx(0.2)
        assert rep.p95_s == pytest.approx(0.38)
        assert rep.max_s == pytest.approx(0.4)

    def test_csv_and_kv(self):
        # the per-window CSV carries every figure of the key-value report it
        # replaced: the figures are those of its rows after the warm-up
        rep = self.report([0.1, 0.2, 0.7], budget=0.5, warmup=3.0)
        lines = rep.per_window_csv().splitlines()
        assert lines[0] == "window,extract_s,detect_s,total_s"
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3"]
        total = np.array([float(line.split(",")[3]) for line in lines[2:]])
        assert total.tolist() == [0.1, 0.2, 0.7]
        assert (rep.mean_s, rep.p95_s, rep.max_s) == pytest.approx(
            (total.mean(), np.percentile(total, 95), total.max())
        )
        assert not rep.passed


@pytest.mark.parametrize(
    "name,attr,shape",
    [("bands", "frequency_bands", (20, 7, 100)), ("sincnet", "sinc_filterbank", (7, 20, 400))],
)
def test_streaming_extractor_calls_module_function_once_per_window(monkeypatch, name, attr, shape):
    # the traced benchmark wraps these module attributes; a callable that
    # bypassed them would leave features.calls_per_window without a value
    extractor = get_extractor(name)
    calls = []
    function = getattr(features, attr)

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return function(*args, **kwargs)

    monkeypatch.setattr(features, attr, counting)
    rec, _ = sv.synth_recording(sv.SynthConfig(duration_s=13, events=[(5, 8)], seed=1))
    n = int(np.prod(shape))
    model = sv.LinearModel(np.zeros(n), 0.0, np.zeros(n), np.ones(n), name, shape)
    track, _ = run_stream(rec, extractor, sv.LinearDetector(model))
    assert track.scores.size == 10
    assert calls == [(20, 800)] * 10
