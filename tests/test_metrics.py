import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seizeval as sv
from seizeval.errors import DegenerateDatasetError, InvalidArgumentError

import oracles


def track(events, duration=60.0):
    return sv.LabelTrack([sv.Event(a, b) for a, b in events], duration)


class TestEventize:
    def test_simple_run(self):
        ev = sv.eventize([0, 1, 1, 0], sv.WindowSpec(4, 1), sv.EventizeOpts())
        assert ev == [(1.0, 3.0)]

    def test_gap_merge(self):
        ev = sv.eventize(
            [1, 0, 1], sv.WindowSpec(4, 1), sv.EventizeOpts(gap_merge_s=1.0)
        )
        assert ev == [(0.0, 3.0)]

    def test_min_event_drop(self):
        ev = sv.eventize(
            [1, 0, 0, 1, 1], sv.WindowSpec(4, 1), sv.EventizeOpts(min_event_s=2.0)
        )
        assert ev == [(3.0, 5.0)]

    def test_boundaries_are_python_floats(self):
        ev = sv.eventize([0, 1, 1, 0, 1], sv.WindowSpec(4, 1), sv.EventizeOpts())
        assert ev == [(1.0, 3.0), (4.0, 5.0)]
        assert all(type(t) is float for interval in ev for t in interval)

    def test_brute_force_equivalence(self):
        rng = np.random.default_rng(0)
        spec = sv.WindowSpec(4, 1)
        for _ in range(300):
            scores = rng.random(30)
            gap = float(rng.integers(0, 3))
            min_ev = float(rng.integers(0, 3))
            opts = sv.EventizeOpts(threshold=0.5, gap_merge_s=gap, min_event_s=min_ev)
            got = sv.eventize(scores, spec, opts)
            expected = oracles.brute_eventize(scores >= 0.5, 1.0, gap, min_ev)
            assert got == pytest.approx(expected)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=40))
    def test_bijection_with_positive_runs(self, decisions):
        spec = sv.WindowSpec(4, 1)
        scores = np.array(decisions, dtype=float)
        events = sv.eventize(scores, spec, sv.EventizeOpts(threshold=0.5))
        # reconstruct decisions from events
        rebuilt = np.zeros(len(decisions), dtype=bool)
        for a, b in events:
            rebuilt[int(round(a)) : int(round(b))] = True
        assert rebuilt.tolist() == decisions


class TestEpoch:
    def test_mixed(self):
        cc = sv.epoch_counts([0, 0, 1, 1], [0, 1, 1, 0])
        assert (cc.tp, cc.tn, cc.fp, cc.fn) == (1, 1, 1, 1)
        assert cc.tpr == 0.5 and cc.tnr == 0.5

    def test_identical(self):
        cc = sv.epoch_counts([0, 1, 1], [0, 1, 1])
        assert cc.tpr == 1.0 and cc.tnr == 1.0

    def test_absent_class(self):
        cc = sv.epoch_counts([0, 0], [0, 1])
        assert cc.tpr is None

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            sv.epoch_counts([0, 1], [0])


class TestOvlp:
    def test_overlap_is_tp(self):
        cc, fa = sv.ovlp(track([(10, 20)]), [(18.0, 25.0)])
        assert (cc.tp, cc.fn, cc.fp) == (1, 0, 0) and fa == 0

    def test_disjoint(self):
        cc, fa = sv.ovlp(track([(10, 20)]), [(21.0, 25.0)])
        assert cc.fn == 1 and cc.fp == 1 and fa == 1

    def test_touching_is_not_overlap(self):
        cc, _ = sv.ovlp(track([(10, 20)]), [(20.0, 25.0)])
        assert cc.tp == 0 and cc.fn == 1


class TestTaes:
    def test_half_overlap(self):
        cc = sv.taes(track([(10, 20)]), [(15.0, 20.0)])
        assert cc.tp == pytest.approx(0.5)
        assert cc.fn == pytest.approx(0.5)

    def test_exact_match(self):
        cc = sv.taes(track([(10, 20)]), [(10.0, 20.0)])
        assert cc.tp == pytest.approx(1.0) and cc.fp == pytest.approx(0.0)


class TestMargin:
    def test_boundary_arithmetic(self):
        t = track([(10, 20)])
        on, _ = sv.margin(t, [(13.0, 22.0)], 5.0)
        assert on == 1.0
        on, _ = sv.margin(t, [(13.0, 22.0)], 3.0)
        assert on == 1.0  # inclusive at exactly the margin
        on, _ = sv.margin(t, [(16.0, 22.0)], 5.0)
        assert on == 0.0

    def test_empty_hypothesis(self):
        on, off = sv.margin(track([(10, 20)]), [], 3.0)
        assert on == 0.0 and off == 0.0

    def test_no_label_events_is_nan(self):
        on, off = sv.margin(track([]), [(1.0, 2.0)], 3.0)
        assert math.isnan(on) and math.isnan(off)


class TestOnsetLatency:
    def test_simple(self):
        res = sv.onset_latency(track([(10, 20)]), [(13.0, 22.0)])
        assert res.mean_s == pytest.approx(3.0)

    def test_exact_onset(self):
        res = sv.onset_latency(track([(10, 20)]), [(10.0, 12.0)])
        assert res.mean_s == 0.0

    def test_early_detection_negative(self):
        res = sv.onset_latency(track([(10, 20)]), [(7.0, 12.0)])
        assert res.mean_s == pytest.approx(-3.0)

    def test_miss_counted(self):
        res = sv.onset_latency(track([(10, 20), (40, 50)]), [(12.0, 15.0)])
        assert res.mean_s == pytest.approx(2.0)
        assert res.n_missed == 1


class TestFaRate:
    def test_values(self):
        assert sv.fa_per_24h(2, 12 * 3600) == pytest.approx(4.0)
        assert sv.fa_per_24h(0, 1000) == 0.0
        assert sv.fa_per_24h(1, 86400) == pytest.approx(1.0)

    def test_zero_duration(self):
        with pytest.raises(InvalidArgumentError):
            sv.fa_per_24h(1, 0)


class TestCurves:
    def test_perfect_separation(self):
        c = sv.curve_metrics([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9])
        assert c.auroc == pytest.approx(1.0)
        assert c.auprc == pytest.approx(1.0)

    def test_constant_scores(self):
        c = sv.curve_metrics([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5])
        assert c.auroc == pytest.approx(0.5)

    def test_pairwise_estimator_equivalence(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(10, 100))
            labels = rng.random(n) < 0.4
            if labels.all() or not labels.any():
                continue
            scores = np.round(rng.random(n), 1)  # force ties
            c = sv.curve_metrics(labels, scores)
            assert abs(c.auroc - oracles.pairwise_auroc(labels, scores)) < 1e-9

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateDatasetError):
            sv.curve_metrics([1, 1], [0.2, 0.8])


class TestOperatingPoints:
    def test_perfect(self):
        c = sv.curve_metrics([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9])
        pts = sv.operating_points(c)
        y = pts.youden_threshold
        decisions = np.array([0.1, 0.2, 0.8, 0.9]) >= y
        cc = sv.epoch_counts([0, 0, 1, 1], decisions)
        assert cc.tpr == 1.0 and cc.tnr == 1.0
        assert pts.tnr95_threshold is not None

    def test_exhaustive_scan(self):
        rng = np.random.default_rng(2)
        labels = rng.random(200) < 0.3
        scores = np.clip(labels * 0.4 + rng.random(200) * 0.6, 0, 1)
        c = sv.curve_metrics(labels, scores)
        pts = sv.operating_points(c)
        best_j, best_t = -1.0, None
        for t in np.unique(scores):
            d = scores >= t
            cc = sv.epoch_counts(labels, d)
            j = (cc.tpr or 0) + (cc.tnr or 0)
            if j > best_j + 1e-12 or (abs(j - best_j) <= 1e-12 and t < best_t):
                best_j, best_t = j, t
        assert pts.youden_threshold == pytest.approx(best_t)

    def test_unattainable_tnr(self):
        # negatives always score above positives: TNR >= 0.95 needs a
        # threshold above every score, which the sweep never reaches
        labels = np.array([1] * 50 + [0] * 50, dtype=bool)
        scores = np.concatenate([np.full(50, 0.2), np.full(50, 0.8)])
        pts = sv.operating_points(sv.curve_metrics(labels, scores))
        assert pts.tnr95_threshold is None


def random_pair(rng, duration=60.0):
    lab = oracles.random_event_list(rng, duration, max_events=3)
    hyp = oracles.random_event_list(rng, duration, max_events=4)
    return track(lab, duration), lab, hyp


class TestGridOracleEquivalence:
    def test_sampled_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            t, lab, hyp = random_pair(rng)
            cc, fa = sv.ovlp(t, hyp)
            assert (cc.tp, cc.tn, cc.fp, cc.fn, fa) == oracles.grid_ovlp(lab, hyp, 60.0)
            tc = sv.taes(t, hyp)
            otp, otn, ofp, ofn = oracles.grid_taes(lab, hyp, 60.0)
            for got, want in ((tc.tp, otp), (tc.tn, otn), (tc.fp, ofp), (tc.fn, ofn)):
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


class TestInvariants:
    def test_taes_le_ovlp_sensitivity(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            t, lab, hyp = random_pair(rng)
            if not lab:
                continue
            cc, _ = sv.ovlp(t, hyp)
            tc = sv.taes(t, hyp)
            assert tc.tpr <= cc.tpr + 1e-12

    def test_margin_monotone(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            t, lab, hyp = random_pair(rng)
            if not lab:
                continue
            on3, off3 = sv.margin(t, hyp, 3.0)
            on5, off5 = sv.margin(t, hyp, 5.0)
            assert on5 >= on3 and off5 >= off3

    def test_background_append(self):
        # event-level sensitivities, margin, and latency ignore appended
        # background; the false-alarm rate strictly decreases
        t = track([(10, 20), (30, 35)], duration=60.0)
        hyp = [(12.0, 18.0), (40.0, 42.0)]
        longer = track([(10, 20), (30, 35)], duration=120.0)
        cc_a, fa_a = sv.ovlp(t, hyp)
        cc_b, fa_b = sv.ovlp(longer, hyp)
        assert (cc_a.tp, cc_a.fn, cc_a.fp) == (cc_b.tp, cc_b.fn, cc_b.fp)
        assert sv.taes(t, hyp).tpr == sv.taes(longer, hyp).tpr
        assert sv.margin(t, hyp, 3.0) == sv.margin(longer, hyp, 3.0)
        assert sv.onset_latency(t, hyp).mean_s == sv.onset_latency(longer, hyp).mean_s
        assert sv.fa_per_24h(fa_b, 120.0) < sv.fa_per_24h(fa_a, 60.0)


class TestReport:
    def test_full_report_families(self):
        rng = np.random.default_rng(3)
        spec = sv.WindowSpec(4, 1)
        t = track([(10, 20), (35, 45)], duration=60.0)
        wl = np.zeros(57, dtype=bool)
        scores = rng.random(57) * 0.3
        for k in range(57):
            if sv.window_label(t, float(k), spec) is sv.WindowClass.ICTAL:
                wl[k] = True
                scores[k] = 0.7 + rng.random() * 0.3
        ht = sv.HypothesisTrack(scores, spec, 60.0)
        report = sv.evaluate_track(t, wl, ht)
        d = report.to_dict()
        for family in ("epoch", "ovlp", "taes", "margin", "onset_latency"):
            assert family in d
        assert set(d["margin"]) == {"3.0", "5.0"}
        assert report.auroc > 0.9
        text = report.to_text()
        assert "MARGIN" in text and "OVLP" in text

    def test_export_hypothesis(self, tmp_path):
        spec = sv.WindowSpec(4, 1)
        ht = sv.HypothesisTrack([0.0, 0.9, 0.9, 0.0], spec, 7.0)
        path = tmp_path / "hyp.txt"
        sv.metrics.export_hypothesis(ht, sv.EventizeOpts(), path)
        line = path.read_text().strip().split()
        assert line[:3] == ["1.000", "3.000", "seiz"]
        assert float(line[3]) == pytest.approx(0.9)
