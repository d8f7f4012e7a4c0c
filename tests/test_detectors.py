import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import seizeval as sv
from seizeval import detectors as dt
from seizeval.errors import (
    DegenerateDatasetError,
    IncompatibleFeatureError,
    InvalidArgumentError,
    MalformedHeaderError,
)
from seizeval.features import FeatureTensor, frequency_bands

from oracles import energy_scores, pairwise_auroc


def bands_tensor(data):
    return FeatureTensor(np.asarray(data, dtype=float), extractor_id="bands")


def synth_band_features(seed, duration_s=120, n_events=3):
    cfg = sv.SynthConfig(duration_s=duration_s, n_random_events=n_events, seed=seed)
    rec, labels = sv.synth_recording(cfg)
    spec = sv.WindowSpec()
    feats = [frequency_bands(w.samples) for w in sv.slice_windows(rec, spec)]
    return feats, sv.window_labels(rec, labels, spec)


def energy_detector(midpoint, scale, shape=(2, 7, 5), smoothing=0.0):
    """The energy baseline fitted so that its background p90 is ``midpoint``
    and its scale is ``scale``."""
    p50 = midpoint - scale * np.log(9.0)

    def background(energy):
        data = np.zeros(shape)
        data[:, 0, :] = energy
        return bands_tensor(data), 0

    # of 11 sorted values, the 6th is the 50th percentile and the 10th the 90th
    model = sv.fit_energy([background(e) for e in [p50] * 6 + [midpoint] * 5])
    return sv.LinearDetector(model, smoothing=smoothing)


class TestEnergyDetector:
    def test_zero_tensor_floor(self):
        det = energy_detector(midpoint=2.0, scale=0.5, shape=(3, 7, 10))
        score, _ = det.detect(det.reset_state(), bands_tensor(np.zeros((3, 7, 10))))
        expected = 1.0 / (1.0 + np.exp(2.0 / 0.5))
        assert abs(score - expected) < 1e-12

    def test_monotone_in_energy(self):
        det = energy_detector(midpoint=1.0, scale=1.0)
        state = det.reset_state()
        lo, _ = det.detect(state, bands_tensor(np.full((2, 7, 5), 0.5)))
        hi, _ = det.detect(state, bands_tensor(np.full((2, 7, 5), 1.0)))
        assert hi >= lo

    def test_wrong_extractor(self):
        # a stream of raw tensors is rejected by run_stream (test_rtbench.py)
        raw = FeatureTensor(np.zeros((2, 1, 10)), extractor_id="raw")
        with pytest.raises(IncompatibleFeatureError, match="'bands' features, got 'raw'"):
            sv.fit_energy([(raw, 0), (raw, 1)])

    def test_no_background_rejected(self):
        ictal = bands_tensor(np.ones((2, 7, 5)))
        for dataset in ([], [(ictal, 1), (ictal, 1)]):
            with pytest.raises(DegenerateDatasetError):
                sv.fit_energy(dataset)

    def test_separates_synth_corpus(self):
        feats, wl = synth_band_features(seed=11)
        det = sv.LinearDetector(sv.fit_energy(list(zip(feats, wl))))
        scores = np.array(
            [det.detect(det.reset_state(), f)[0] for f in feats]
        )
        assert scores[wl].mean() - scores[~wl].mean() > 0.3

    @pytest.mark.parametrize("smoothing", [0.0, 0.5])
    def test_matches_direct_energy_oracle(self, smoothing):
        train = list(zip(*synth_band_features(seed=17, duration_s=60, n_events=2)))
        test_feats, _ = synth_band_features(seed=18, duration_s=60, n_events=2)
        det = sv.LinearDetector(sv.fit_energy(train), smoothing=smoothing)
        state, scores = det.reset_state(), []
        for f in test_feats:
            score, state = det.detect(state, f)
            scores.append(score)
        want = energy_scores(train, test_feats, smoothing)
        assert np.abs(np.array(scores) - want).max() <= 1e-12


class TestTrainLinear:
    def toy_dataset(self):
        rng = np.random.default_rng(0)
        data = []
        for _ in range(40):
            x = rng.normal(size=2)
            y = int(x[0] + x[1] > 0)
            # push the classes apart so the toy set is linearly separable
            x = x + (2.0 if y else -2.0)
            data.append((FeatureTensor(x.reshape(1, 1, 2), "toy"), y))
        return data

    def test_separable_accuracy(self):
        data = self.toy_dataset()
        model = sv.train_linear(data, sv.TrainConfig(epochs=50, seed=0))
        det = sv.LinearDetector(model)
        correct = sum(
            (det.detect(det.reset_state(), f)[0] >= 0.5) == bool(y) for f, y in data
        )
        assert correct == len(data)

    def test_loss_non_increasing(self):
        feats, wl = synth_band_features(seed=12, duration_s=60, n_events=2)
        model = sv.train_linear(
            list(zip(feats, wl.astype(int))), sv.TrainConfig(epochs=10, seed=0)
        )
        diffs = np.diff(model.loss_history)
        assert np.all(diffs <= 1e-3)

    def test_permuted_labels_chance_auroc(self):
        feats, wl = synth_band_features(seed=13)
        rng = np.random.default_rng(99)
        shuffled = rng.permutation(wl.astype(int))
        if shuffled.sum() in (0, len(shuffled)):
            pytest.skip("degenerate shuffle")
        half = len(feats) // 2
        model = sv.train_linear(
            list(zip(feats[:half], shuffled[:half])), sv.TrainConfig(seed=1)
        )
        det = sv.LinearDetector(model)
        scores = [det.detect(det.reset_state(), f)[0] for f in feats[half:]]
        auroc = pairwise_auroc(shuffled[half:].astype(bool), scores)
        assert 0.3 < auroc < 0.7

    def test_synth_heldout_auroc(self):
        feats, wl = synth_band_features(seed=14)
        test_feats, test_wl = synth_band_features(seed=15)
        model = sv.train_linear(list(zip(feats, wl.astype(int))), sv.TrainConfig(seed=0))
        det = sv.LinearDetector(model)
        scores = [det.detect(det.reset_state(), f)[0] for f in test_feats]
        assert pairwise_auroc(test_wl, scores) >= 0.8

    def test_single_class_rejected(self):
        feats = [FeatureTensor(np.zeros((1, 1, 2)), "toy") for _ in range(4)]
        with pytest.raises(DegenerateDatasetError):
            sv.train_linear([(f, 1) for f in feats])

    def test_deterministic(self):
        data = self.toy_dataset()
        a = sv.train_linear(data, sv.TrainConfig(seed=5))
        b = sv.train_linear(data, sv.TrainConfig(seed=5))
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias == b.bias

    @pytest.mark.parametrize("batch_size", [0, -4])
    def test_batch_size_below_one_rejected(self, batch_size):
        with pytest.raises(InvalidArgumentError, match="batch_size"):
            sv.TrainConfig(batch_size=batch_size)


class TestDetectWindow:
    def zero_model(self):
        return dt.LinearModel(
            weights=np.zeros(4),
            bias=0.0,
            feature_mean=np.zeros(4),
            feature_std=np.ones(4),
            extractor_id="toy",
            feature_shape=(1, 1, 4),
        )

    def test_zero_model_scores_half(self):
        feat = FeatureTensor(np.random.default_rng(0).normal(size=(1, 1, 4)), "toy")
        score, _ = sv.LinearDetector(self.zero_model()).detect(dt.DetectorState(), feat)
        assert score == 0.5

    def test_stateless_determinism(self):
        feat = FeatureTensor(np.random.default_rng(1).normal(size=(1, 1, 4)), "toy")
        model = self.zero_model()
        s1, _ = sv.LinearDetector(model).detect(dt.DetectorState(), feat)
        s2, _ = sv.LinearDetector(model).detect(dt.DetectorState(), feat)
        assert s1 == s2

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs")
    def test_scoring_stays_on_one_core(self):
        # a sincnet-sized model: a BLAS dot this long would wake a thread pool.
        # 1000 windows take a few tens of ms. The OpenBLAS workers spin for a
        # while after numpy is imported, with no BLAS call made, so the loop
        # is timed only once they have gone idle. Besides the process's CPU
        # per wall second, the child reports the CPU its other threads used
        # during the loop (process minus main-thread CPU time, at clock
        # resolution rather than /proc's 10 ms ticks): a woken pool spins for
        # most of the loop, an idle one uses none.
        code = (
            "import time\n"
            "import numpy as np\n"
            "from seizeval import detectors as dt\n"
            "from seizeval.features import FeatureTensor\n"
            "shape = (7, 20, 400)\n"
            "rng = np.random.default_rng(0)\n"
            "d = rng.normal(size=56000)\n"
            "m = dt.LinearModel(d * 1e-3, 0.0, d, np.abs(d) + 1, 'sincnet', shape)\n"
            "det = dt.LinearDetector(m)\n"
            "feats = [FeatureTensor(rng.normal(size=shape), 'sincnet') for _ in range(10)]\n"
            "state = det.reset_state()\n"
            "time.sleep(0.5)\n"
            "c0, m0, t0 = time.process_time(), time.thread_time(), time.perf_counter()\n"
            "for i in range(1000):\n"
            "    _, state = det.detect(state, feats[i % 10])\n"
            "wall = time.perf_counter() - t0\n"
            "cpu, main = time.process_time() - c0, time.thread_time() - m0\n"
            "print(cpu / wall, (cpu - main) / wall)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(sv.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        cpu_per_wall, other_threads_per_wall = map(float, proc.stdout.split())
        assert cpu_per_wall <= 1.3
        assert other_threads_per_wall <= 0.1

    # the bands, sincnet and stft tensors of a 4 s, 20-channel, 200 Hz
    # window, and a prime length that leaves a tail after the rows
    DOT_SHAPES = [(20, 7, 100), (7, 20, 400), (20, 100, 100), (1, 1, 8209)]

    def random_model(self, shape, seed):
        rng = np.random.default_rng(seed)
        d = int(np.prod(shape))
        # weights scaled so the logits stay within a few units of 0
        return dt.LinearModel(
            rng.normal(size=d) / np.sqrt(d), 0.3, rng.normal(size=d),
            rng.uniform(0.5, 2.0, size=d), "toy", shape,
        )  # fmt: skip

    @pytest.mark.parametrize("shape", DOT_SHAPES, ids=str)
    def test_weight_rows_stay_under_threaded_dot(self, shape):
        # OpenBLAS threads a ddot above 10 000 elements
        det = sv.LinearDetector(self.random_model(shape, 0))
        d = int(np.prod(shape))
        assert det._rows.shape[1] <= 8192
        assert det._rows.size + det._tail.size == d
        assert det._tail.size < det._rows.shape[0]

    @pytest.mark.parametrize("shape", DOT_SHAPES, ids=str)
    def test_scores_match_unfolded_logistic(self, shape):
        model = self.random_model(shape, 1)
        det = sv.LinearDetector(model)
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = rng.normal(size=shape)
            z = float(((x.ravel() - model.feature_mean) / model.feature_std) @ model.weights)
            z += model.bias
            score, _ = det.detect(dt.DetectorState(), FeatureTensor(x, "toy"))
            assert abs(z) < 10
            assert np.log(score) - np.log1p(-score) == pytest.approx(z, rel=0, abs=1e-12)
            assert score == pytest.approx(dt.logistic(z), rel=1e-12)

    @pytest.mark.parametrize("bias", [1e4, -1e4, 1e300, -1e300])
    def test_extreme_logits_saturate_without_overflow(self, bias):
        model = dt.LinearModel(np.zeros(4), bias, np.zeros(4), np.ones(4), "toy", (1, 1, 4))
        feat = FeatureTensor(np.ones((1, 1, 4)), "toy")
        score, _ = sv.LinearDetector(model).detect(dt.DetectorState(), feat)
        # the logit is clipped to +-500, as logistic() clips it for training
        if bias > 0:
            assert score == 1.0
        else:
            assert 0.0 < score < 1e-200
            assert score == pytest.approx(dt.logistic(-500.0), rel=1e-12)

    @pytest.mark.parametrize("smoothing", [0.3, 0.9])
    def test_smoothing_recurrence_unchanged(self, smoothing):
        # s_k = clip(s * s_{k-1} + (1 - s) * raw_k) over the unsmoothed scores
        model = self.random_model((2, 3, 50), 3)
        rng = np.random.default_rng(4)
        feats = [FeatureTensor(rng.normal(size=(2, 3, 50)) * 3, "toy") for _ in range(20)]
        raw = sv.LinearDetector(model)
        smooth = sv.LinearDetector(model, smoothing=smoothing)
        state, prev = smooth.reset_state(), None
        for f in feats:
            got, state = smooth.detect(state, f)
            want, _ = raw.detect(raw.reset_state(), f)
            if prev is not None:
                want = smoothing * prev + (1 - smoothing) * want
            want = min(1.0, max(0.0, want))
            assert got == want
            prev = want


class TestState:
    @pytest.mark.parametrize("smoothing", [-3.0, 1.0, float("nan")])
    @pytest.mark.parametrize("kind", ["energy", "linear"])
    def test_smoothing_outside_unit_interval_rejected(self, kind, smoothing):
        with pytest.raises(InvalidArgumentError, match="smoothing"):
            if kind == "energy":
                energy_detector(midpoint=1.0, scale=1.0, smoothing=smoothing)
            else:
                sv.LinearDetector(TestDetectWindow().zero_model(), smoothing=smoothing)

    def smoothing_detector(self):
        return energy_detector(midpoint=1.0, scale=1.0, smoothing=0.5)

    def features_stream(self, seed, n=10):
        rng = np.random.default_rng(seed)
        return [bands_tensor(np.abs(rng.normal(size=(2, 7, 5)))) for _ in range(n)]

    def test_reset_equals_fresh(self):
        det = self.smoothing_detector()
        stream = self.features_stream(0)
        state = det.reset_state()
        for f in stream:
            _, state = det.detect(state, f)
        assert state.prev_score is not None
        state = det.reset_state()
        fresh, _ = det.detect(state, stream[0])
        expect, _ = det.detect(dt.DetectorState(), stream[0])
        assert fresh == expect

    def test_reset_idempotent(self):
        det = self.smoothing_detector()
        assert det.reset_state() == det.reset_state() == dt.DetectorState()

    def test_interleaved_streams_do_not_cross(self):
        det = self.smoothing_detector()
        a, b = self.features_stream(1), self.features_stream(2)

        def sequential(stream):
            out, state = [], det.reset_state()
            for f in stream:
                s, state = det.detect(state, f)
                out.append(s)
            return out

        seq_a, seq_b = sequential(a), sequential(b)
        out_a, out_b = [], []
        sa, sb = det.reset_state(), det.reset_state()
        for fa, fb in zip(a, b):
            s, sa = det.detect(sa, fa)
            out_a.append(s)
            s, sb = det.detect(sb, fb)
            out_b.append(s)
        assert out_a == seq_a and out_b == seq_b


class TestFloat32Tensors:
    def test_float32_tensor_scores_as_its_float64_cast(self, monkeypatch):
        # detect casts a float32 tensor exactly into float64 and takes every
        # product in float64
        feats, wl = synth_band_features(seed=19, duration_s=60, n_events=2)
        assert feats[0].data.dtype == np.float32
        model = sv.train_linear(list(zip(feats, wl.astype(int))), sv.TrainConfig(seed=2, epochs=2))
        dtypes = set()
        matmul = np.matmul

        def recording(a, b, **kwargs):
            dtypes.update((a.dtype, b.dtype))
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", recording)
        for smoothing in (0.0, 0.5):
            det = sv.LinearDetector(model, smoothing=smoothing)
            s32, s64 = det.reset_state(), det.reset_state()
            for f in feats:
                got, s32 = det.detect(s32, f)
                want, s64 = det.detect(s64, FeatureTensor(f.data.astype(np.float64), "bands"))
                assert got == want
        assert dtypes == {np.dtype(np.float64)}


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        feats, wl = synth_band_features(seed=16, duration_s=60, n_events=2)
        model = sv.train_linear(list(zip(feats, wl.astype(int))), sv.TrainConfig(seed=3))
        path = tmp_path / "model.bin"
        dt.save_model(model, path)
        loaded = dt.load_model(path)
        assert loaded.weights.tobytes() == model.weights.tobytes()
        assert loaded.bias == model.bias
        assert loaded.feature_mean.tobytes() == model.feature_mean.tobytes()
        assert loaded.feature_std.tobytes() == model.feature_std.tobytes()
        assert loaded.extractor_id == model.extractor_id
        assert loaded.feature_shape == model.feature_shape

    @pytest.mark.parametrize("field", ["bias", "weights", "feature_mean", "feature_std"])
    def test_non_finite_model_rejected(self, tmp_path, field):
        n = 6
        model = sv.LinearModel(
            weights=np.arange(n, dtype=float), bias=0.5, feature_mean=np.zeros(n),
            feature_std=np.ones(n), extractor_id="bands", feature_shape=(1, 2, 3),
        )
        path = tmp_path / "model.bin"
        dt.save_model(model, path)
        data = bytearray(path.read_bytes())
        offset = {"bias": 0, "weights": 1, "feature_mean": 1 + n, "feature_std": 1 + 2 * n}
        start = data.index(b"end_header\n") + len(b"end_header\n") + 8 * offset[field]
        data[start : start + 8] = np.array([np.nan], "<f8").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(InvalidArgumentError, match=r"model\.bin: .*must be finite"):
            dt.load_model(path)

    def test_non_ascii_header_typed_error(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes("#SEIZMODEL v1\nextractor_id=b\u00e4nds\nend_header\n".encode())
        with pytest.raises(MalformedHeaderError, match=r"model\.bin: header is not ASCII"):
            dt.load_model(path)
