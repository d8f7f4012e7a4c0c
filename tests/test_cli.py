import csv
import json
import os
import stat

import numpy as np
import pytest

from seizeval import core, detectors, features, io, metrics, rtbench
from seizeval.cli import main


@pytest.fixture()
def corpus(tmp_path):
    """Synth train/test recordings plus a trained model."""
    train = tmp_path / "train"
    test = tmp_path / "test"
    assert main([
        "synth", "--out-dir", str(train), "--duration", "120",
        "--n-events", "3", "--seed", "1",
    ]) == 0
    assert main([
        "synth", "--out-dir", str(test), "--duration", "120",
        "--n-events", "3", "--seed", "2",
    ]) == 0
    model = tmp_path / "model.bin"
    assert main([
        "train", "--rec", str(train / "rec.eeg"), "--labels",
        str(train / "labels.txt"), "--feature", "bands", "--epochs", "10",
        "--seed", "0", "--out", str(model),
    ]) == 0
    return tmp_path


def test_synth_writes_files(tmp_path):
    out = tmp_path / "synth"
    assert main([
        "synth", "--out-dir", str(out), "--duration", "30",
        "--events", "10:20", "--seed", "3",
    ]) == 0
    assert (out / "rec.eeg").exists()
    assert (out / "labels.txt").read_text() == "10.000 20.000 seiz\n"


def test_synth_writes_both_files_or_neither(tmp_path, capsys):
    # labels.txt is a directory: rec.eeg is not written either
    out = tmp_path / "synth"
    (out / "labels.txt").mkdir(parents=True)
    assert main(["synth", "--out-dir", str(out), "--duration", "30"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out / "labels.txt") in err
    assert [p.name for p in out.iterdir()] == ["labels.txt"]
    assert not any((out / "labels.txt").iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--n-event", "3", "--dur", "30"],
        ["sweep", "--windows", "4", "--n-event", "2", "--duration", "60"],
    ],
)
def test_abbreviated_flag_is_validation_error(tmp_path, capsys, argv):
    # "--n-event" is not read as "--n-events"
    out = tmp_path / "out"
    flag = "--out-dir" if argv[0] == "synth" else "--out"
    assert main(argv + [flag, str(out)]) == 1
    assert "unrecognized arguments: --n-event" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "field,extra",
    [
        ("duration_s", ["--duration", "nan"]),
        ("duration_s", ["--duration", "inf"]),
        ("duration_s", ["--duration", "0.001"]),  # 0 samples
        ("duration_s", ["--duration", "0.005"]),  # 1 sample
        ("background_amplitude_uv", ["--background-uv", "nan"]),
        ("background_amplitude_uv", ["--background-uv", "0"]),
        ("ictal_amplitude_uv", ["--ictal-uv", "inf"]),
        ("ictal_amplitude_uv", ["--ictal-uv", "-1"]),
        ("ictal_base_freq_hz", ["--base-freq", "nan", "--n-events", "1"]),
        ("ictal_base_freq_hz", ["--base-freq", "0"]),
        ("n_random_events", ["--n-events", "-1"]),
        ("n_channels", ["--channels", "0"]),
    ],
)
def test_synth_bad_numbers_are_validation_errors(tmp_path, capsys, field, extra):
    out = tmp_path / "synth"
    assert main(["synth", "--out-dir", str(out)] + extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert not out.exists()


def test_sweep_non_finite_duration_is_validation_error(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--windows", "4", "--duration", "nan", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "duration_s" in err
    assert not out.exists()


def test_ingest_csv(tmp_path):
    csv = tmp_path / "rec.csv"
    rows = ["FP1,F7"] + ["1.0,2.0"] * 100
    csv.write_text("\n".join(rows) + "\n")
    out = tmp_path / "rec.eeg"
    assert main(["ingest", "--csv", str(csv), "--rate", "200", "--out", str(out)]) == 0
    rec = io.load_recording(out)
    assert rec.n_channels == 2 and rec.n_samples == 100


@pytest.mark.parametrize("montage", [False, True])
def test_ingest_header_only_csv_gives_a_recording_of_no_samples(tmp_path, montage):
    csv = tmp_path / "rec.csv"
    csv.write_text("FP1,F7\n")
    out = tmp_path / "rec.eeg"
    argv = ["ingest", "--csv", str(csv), "--rate", "256", "--out", str(out)]
    if montage:
        (tmp_path / "pairs.txt").write_text("FP1 F7\n")
        argv += ["--montage", str(tmp_path / "pairs.txt")]
    assert main(argv) == 0
    rec = io.load_recording(out)
    assert rec.sample_rate_hz == 256 and rec.samples.shape == (1 if montage else 2, 0)
    assert rec.channel_names == (["FP1-F7"] if montage else ["FP1", "F7"])


@pytest.mark.parametrize("rate", ["0", "-1"])
def test_ingest_bad_resample_rate_is_validation_error(tmp_path, capsys, rate):
    csv = tmp_path / "rec.csv"
    csv.write_text("FP1,F7\n" + "1.0,2.0\n" * 100)
    out = tmp_path / "rec.eeg"
    argv = ["ingest", "--csv", str(csv), "--rate", "200", "--resample", rate, "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("rate,target", [(256, 200), (200, 100)])
def test_ingest_resample_of_one_sample_is_validation_error(tmp_path, capsys, rate, target):
    csv = tmp_path / "one.csv"
    csv.write_text("FP1,F7\n1.0,2.0\n")
    out = tmp_path / "one.eeg"
    argv = ["ingest", "--csv", str(csv), "--rate", str(rate), "--resample", str(target),
            "--out", str(out)]  # fmt: skip
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: resampling needs at least 2 samples")
    assert not out.exists()


def test_ingest_non_finite_csv_cell_is_validation_error(tmp_path, capsys):
    csv = tmp_path / "bad.csv"
    csv.write_text("FP1,F7\n1.0,nan\n1e39,2\n")
    out = tmp_path / "bad.eeg"
    assert main(["ingest", "--csv", str(csv), "--rate", "200", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {csv}: line 2: column 2 (F7): nan")
    assert not out.exists()


def test_ingest_unstorable_channel_name_is_validation_error(tmp_path, capsys):
    csv = tmp_path / "rec.csv"
    csv.write_text("FP1,F\u00e47\n" + "1.0,2.0\n" * 10, encoding="utf-8")
    out = tmp_path / "rec.eeg"
    assert main(["ingest", "--csv", str(csv), "--rate", "200", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}: channel name 'F\u00e47'")
    assert not out.exists()


def test_extract_dump(corpus, tmp_path, capsys):
    out = tmp_path / "tensor"
    code = main([
        "extract", "--rec", str(corpus / "train" / "rec.eeg"),
        "--feature", "bands", "--out", str(out),
    ])
    assert code == 0
    assert np.load(tmp_path / "tensor.npy").shape == (20, 7, 100)
    assert capsys.readouterr().out == f"wrote {out}.npy (bands, shape=(20, 7, 100))\n"


@pytest.mark.parametrize("index", [5, -1])
def test_extract_npy_bit_equal_to_extractor(corpus, tmp_path, index):
    rec = io.load_recording(corpus / "test" / "rec.eeg")
    extractor = features.get_extractor("bands", rec.sample_rate_hz)
    want = [extractor(w.samples).data for w in core.slice_windows(rec, core.WindowSpec())]
    assert main([
        "extract", "--rec", str(corpus / "test" / "rec.eeg"), "--feature", "bands",
        "--window-index", str(index), "--out", str(tmp_path / "t"),
    ]) == 0
    if index == -1:
        names = [f"t.{k}.npy" for k in range(len(want))]
    else:
        names, want = ["t.npy"], [want[index]]
    assert sorted(p.name for p in tmp_path.glob("t*.npy")) == sorted(names)
    for name, w in zip(names, want):
        got = np.load(tmp_path / name, allow_pickle=False)
        assert got.dtype == w.dtype and got.shape == w.shape and got.tobytes() == w.tobytes()


@pytest.mark.parametrize("index,sliced", [(7, [7]), (-1, list(range(117)))])
def test_extract_slices_only_the_windows_it_writes(corpus, tmp_path, monkeypatch, index, sliced):
    # one window for --window-index K, each window once for -1, in order
    yielded = []
    slice_windows = core.slice_windows

    def counting(*args, **kwargs):
        for w in slice_windows(*args, **kwargs):
            yielded.append(w.index)
            yield w

    monkeypatch.setattr(core, "slice_windows", counting)
    assert main([
        "extract", "--rec", str(corpus / "test" / "rec.eeg"), "--feature", "raw",
        "--window-index", str(index), "--out", str(tmp_path / "t"),
    ]) == 0
    assert yielded == sliced


@pytest.mark.skipif(not hasattr(os, "preadv"), reason="reads windows with os.preadv")
def test_recording_truncated_after_loading_is_validation_error(corpus, monkeypatch, capsys):
    # the stream reads the file, so a short read raises a typed error rather
    # than a page fault past the end of the file
    rec_path = corpus / "test" / "rec.eeg"
    load = io.load_recording

    def load_then_truncate(path):
        rec = load(path)
        os.truncate(path, os.stat(path).st_size // 2)
        return rec

    monkeypatch.setattr(io, "load_recording", load_then_truncate)
    argv = ["run", "--rec", str(rec_path), "--model", str(corpus / "model.bin"),
            "--out-hyp", str(corpus / "hyp.txt")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {rec_path}: the file ends before sample ")
    assert not (corpus / "hyp.txt").exists()


@pytest.mark.parametrize("index", [99999, -5])
def test_extract_window_index_out_of_range(corpus, tmp_path, capsys, index):
    out = tmp_path / "tensor.txt"
    code = main([
        "extract", "--rec", str(corpus / "test" / "rec.eeg"),
        "--window-index", str(index), "--out", str(out),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert f"--window-index {index}" in err and "117 windows" in err
    assert not list(tmp_path.glob("tensor.txt*"))


def test_eval_report_and_determinism(corpus):
    args = [
        "eval", "--rec", str(corpus / "test" / "rec.eeg"),
        "--labels", str(corpus / "test" / "labels.txt"),
        "--model", str(corpus / "model.bin"), "--seed", "0",
    ]
    out_a = corpus / "eval-a"
    out_b = corpus / "eval-b"
    assert main(args + ["--out-dir", str(out_a)]) == 0
    assert main(args + ["--out-dir", str(out_b)]) == 0
    for name in ("report.json", "report.txt", "curves.csv", "hypothesis.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    text = (out_a / "report.txt").read_text()
    for token in ("AUROC", "EPOCH", "OVLP", "TAES", "MARGIN(3s)", "MARGIN(5s)", "onset latency"):
        assert token in text


def test_eval_missing_labels_is_validation_error(corpus, capsys):
    code = main([
        "eval", "--rec", str(corpus / "test" / "rec.eeg"),
        "--labels", str(corpus / "nope.txt"),
        "--model", str(corpus / "model.bin"),
    ])
    assert code == 1
    assert "nope.txt" in capsys.readouterr().err


def test_run_exports_hypothesis(corpus):
    out = corpus / "hyp.txt"
    code = main([
        "run", "--rec", str(corpus / "test" / "rec.eeg"),
        "--model", str(corpus / "model.bin"),
        "--threshold", "0.5", "--out-hyp", str(out),
    ])
    assert code == 0
    for line in out.read_text().splitlines():
        parts = line.split()
        assert len(parts) == 4 and parts[2] == "seiz"


def test_run_smoothing_and_latency_match_the_stream(corpus):
    # run writes what export_hypothesis writes for the smoothed stream, and
    # one latency row per window
    rec = io.load_recording(corpus / "test" / "rec.eeg")
    model = detectors.load_model(corpus / "model.bin")
    hyps = {}
    for s in ("0", "0.3", "0.9"):
        out, lat = corpus / f"hyp-{s}.txt", corpus / f"lat-{s}.csv"
        assert main([
            "run", "--rec", str(corpus / "test" / "rec.eeg"), "--model", str(corpus / "model.bin"),
            "--smoothing", s, "--out-hyp", str(out), "--out-latency", str(lat),
        ]) == 0
        extractor = features.get_extractor(model.extractor_id, rec.sample_rate_hz)
        track, _ = rtbench.run_stream(rec, extractor, detectors.LinearDetector(model, float(s)))
        want = corpus / f"want-{s}.txt"
        metrics.export_hypothesis(track, metrics.EventizeOpts(), want)
        hyps[s] = out.read_text()
        assert hyps[s] == want.read_text()
        rows = lat.read_text().splitlines()
        assert rows[0] == "window,extract_s,detect_s,total_s"
        assert [r.split(",")[0] for r in rows[1:]] == [str(i) for i in range(track.scores.size)]
    assert hyps["0.9"] != hyps["0"]


def test_bench_pass_and_fail(corpus):
    # run's exit code is the real-time benchmark's verdict
    base = [
        "run", "--rec", str(corpus / "test" / "rec.eeg"),
        "--model", str(corpus / "model.bin"),
    ]
    assert main(base + ["--out-hyp", str(corpus / "pass.txt")]) == 0
    # zero budget cannot be met: exit code 3, after the hypothesis is written
    assert main(base + ["--out-hyp", str(corpus / "fail.txt"), "--budget-sec", "0"]) == 3
    assert (corpus / "fail.txt").read_text() == (corpus / "pass.txt").read_text()


def test_bench_writes_reports(corpus, tmp_path, capsys):
    # run writes the latency CSV, and it carries every figure of the summary:
    # from the rows after the warm-up window, mean, p95 and max of total_s;
    # a missed budget (exit 3) writes both files too
    argv = ["run", "--rec", str(corpus / "test" / "rec.eeg"), "--model", str(corpus / "model.bin")]
    # no --budget-sec: the budget is the 1 s shift
    for extra, budget, code in (([], "1s", 0), (["--budget-sec", "0"], "0s", 3)):
        hyp, lat = tmp_path / f"hyp-{code}.txt", tmp_path / f"lat-{code}.csv"
        capsys.readouterr()
        assert main(argv + ["--out-hyp", str(hyp), "--out-latency", str(lat), *extra]) == code
        assert hyp.exists()
        line = capsys.readouterr().out
        assert line.endswith("[PASS]\n" if code == 0 else "[FAIL]\n")
        summary = dict(field.split("=") for field in line.split("; ")[1].split()[:-1])
        with open(lat, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["window"] for row in rows] == [str(k) for k in range(len(rows))]
        assert summary["windows"] == str(len(rows))
        assert summary["budget"] == budget
        total = np.array([float(row["total_s"]) for row in rows[1:]])
        # the CSV holds 9 decimals and the summary 6: they agree to rounding
        for name, value in (("mean", total.mean()), ("p95", np.percentile(total, 95)),
                            ("max", total.max())):
            assert abs(value - float(summary[name].rstrip("s"))) <= 5e-7 + 1e-9, name


def test_sweep_windows(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--windows", "1,4,12", "--feature", "raw",
        "--duration", "60", "--n-events", "2", "--seed", "0",
        "--out", str(out),
    ])
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0].startswith("setting,")
    assert len(rows) == 4
    # a 1 s window with a 1 s shift can never satisfy the strict ictal
    # labeling rule, so that row degenerates to single-class and is rejected
    assert "rejected" in rows[1]
    assert all(",ok" in r for r in rows[2:])


def test_sweep_rejects_window_below_shift(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--shifts", "5", "--window-sec", "4",
        "--duration", "60", "--n-events", "2", "--out", str(out),
    ])
    assert code == 0
    assert "rejected" in out.read_text()


def test_sweep_rejects_non_finite_and_sub_sample_settings(tmp_path):
    # a rejected setting is a row; the sweep goes on to the next one
    out = tmp_path / "sweep.csv"
    assert main([
        "sweep", "--windows", "inf,4", "--feature", "raw",
        "--duration", "60", "--n-events", "2", "--out", str(out),
    ]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [(r["value"], r["status"]) for r in rows] == [
        ("inf", "rejected: need finite window_s >= shift_s > 0, got inf and 1"),
        ("4", "ok"),
    ]
    assert main(["sweep", "--shifts", "1e-09", "--duration", "60", "--out", str(out)]) == 0
    (row,) = csv.DictReader(out.read_text().splitlines())
    assert row["status"] == "rejected: shift_s must be at least one sample at 200 Hz, got 1e-09"


def test_sweep_row_matches_eval_report(tmp_path):
    """A sweep row is eval's report.json, flattened, for the same seeds and defaults."""
    out = tmp_path / "sweep.csv"
    assert main([
        "sweep", "--windows", "4", "--feature", "raw", "--duration", "60",
        "--n-events", "2", "--seed", "0", "--out", str(out),
    ]) == 0
    (row,) = csv.DictReader(out.open())
    for sub, seed in (("train", "0"), ("test", "1")):
        assert main([
            "synth", "--out-dir", str(tmp_path / sub), "--duration", "60",
            "--n-events", "2", "--seed", seed,
        ]) == 0
    assert main([
        "train", "--rec", str(tmp_path / "train" / "rec.eeg"),
        "--labels", str(tmp_path / "train" / "labels.txt"), "--feature", "raw",
        "--out", str(tmp_path / "model.bin"),
    ]) == 0
    assert main([
        "eval", "--rec", str(tmp_path / "test" / "rec.eeg"),
        "--labels", str(tmp_path / "test" / "labels.txt"),
        "--model", str(tmp_path / "model.bin"), "--out-dir", str(tmp_path / "eval"),
    ]) == 0

    def flatten(d, prefix=""):
        for key, value in d.items():
            if isinstance(value, dict):
                yield from flatten(value, f"{prefix}{key}.")
            else:
                yield prefix + key, value

    report = dict(flatten(json.loads((tmp_path / "eval" / "report.json").read_text())))
    columns = list(row)
    assert columns[:2] == ["setting", "value"] and sorted(columns[2:-4]) == sorted(report)
    assert columns[-4:] == ["mean_window_time_s", "p95_window_time_s", "budget_met", "status"]
    assert {k: row[k] for k in report} == {
        k: "" if v is None else str(v) for k, v in report.items()
    }
    assert row["status"] == "ok" and row["budget_met"] == "1"
    assert (round(float(row["auroc"]), 4), round(float(row["auprc"]), 4)) == (0.4316, 0.5326)


def test_sweep_needs_settings():
    assert main(["sweep"]) == 1


@pytest.mark.parametrize("grid,message", [
    (["--windows", "2,4", "--shifts", "2"], "argument --shifts: not allowed with argument --windows"),
    (["--windows", ""], "error: sweep needs at least one --windows or --shifts value"),
])
def test_sweep_takes_one_non_empty_grid(tmp_path, capsys, grid, message):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *grid, "--duration", "60", "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_report_pretty_print(corpus, capsys):
    out = corpus / "eval-c"
    main([
        "eval", "--rec", str(corpus / "test" / "rec.eeg"),
        "--labels", str(corpus / "test" / "labels.txt"),
        "--model", str(corpus / "model.bin"), "--out-dir", str(out),
    ])
    capsys.readouterr()
    assert main(["report", "--json", str(out / "report.json")]) == 0
    assert "auroc" in capsys.readouterr().out


def test_rec_directory_is_validation_error(corpus, capsys):
    code = main([
        "run", "--rec", str(corpus / "test"), "--model", str(corpus / "model.bin"),
        "--out-hyp", str(corpus / "hyp.txt"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "is a directory" in err and str(corpus / "test") in err


@pytest.mark.parametrize("content", [b'{"auroc": 0.9', b"\xff\xfe not json"])
def test_report_malformed_json_is_validation_error(tmp_path, capsys, content):
    path = tmp_path / "report.json"
    path.write_bytes(content)
    assert main(["report", "--json", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and "not a JSON report" in err


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """A 30 s synthetic recording and a raw-sample model fitted on it."""
    out = tmp_path_factory.mktemp("small")
    assert main([
        "synth", "--out-dir", str(out), "--duration", "30", "--events", "10:20", "--seed", "1",
    ]) == 0
    assert main([
        "train", "--rec", str(out / "rec.eeg"), "--labels", str(out / "labels.txt"),
        "--feature", "raw", "--epochs", "1", "--out", str(out / "model.bin"),
    ]) == 0
    return out


@pytest.mark.parametrize("argv", [
    "run --rec REC --model MODEL --out-hyp DIR",
    "run --rec REC --model MODEL --out-hyp HYP --out-latency DIR",
    "train --rec REC --labels LABELS --feature raw --epochs 1 --out DIR",
    "sweep --windows 4 --duration 30 --n-events 1 --out DIR",
    "eval --rec REC --labels LABELS --model MODEL --out-dir FILE",
    "synth --duration 10 --out-dir FILE",
    "synth --duration 10 --out-dir BELOW_FILE",
])
def test_output_path_of_the_wrong_kind_is_validation_error(small, tmp_path, capsys, argv):
    # the last argument is a file output that is a directory, or an
    # --out-dir that is a file or lies below one
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    paths = {
        "REC": small / "rec.eeg", "LABELS": small / "labels.txt", "MODEL": small / "model.bin",
        "HYP": tmp_path / "hyp.txt", "DIR": tmp_path / "dir", "FILE": tmp_path / "file",
        "BELOW_FILE": tmp_path / "file" / "sub",
    }
    args = [str(paths.get(arg, arg)) for arg in argv.split()]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and args[-1] in err


@pytest.mark.parametrize("argv", [
    "run --rec REC --model MODEL --out-hyp OUT --out-latency DIR",
    "run --rec REC --model MODEL --out-hyp DIR --out-latency OUT",
    "run --rec REC --model MODEL --out-hyp OUT --out-latency MISSING",
    "run --rec REC --model MODEL --out-hyp MISSING --out-latency OUT",
])
def test_two_outputs_are_written_both_or_neither(small, tmp_path, capsys, argv):
    # one output path is a directory or lies in none: the other output is
    # not written either, and no temporary file is left behind
    (tmp_path / "dir").mkdir()
    paths = {
        "REC": small / "rec.eeg", "MODEL": small / "model.bin", "OUT": tmp_path / "out",
        "DIR": tmp_path / "dir", "MISSING": tmp_path / "missing" / "out",
    }
    args = [str(paths.get(arg, arg)) for arg in argv.split()]
    assert main(args) == 1
    err = capsys.readouterr().err
    bad = next(str(paths[a]) for a in argv.split() if a in ("DIR", "MISSING"))
    assert err.startswith("error: ") and bad in err
    assert [p.name for p in tmp_path.iterdir()] == ["dir"] and not any((tmp_path / "dir").iterdir())


def test_eval_writes_its_four_files_all_or_none(small, tmp_path, capsys):
    # curves.csv is a directory: eval fails on it before any report file is written
    out = tmp_path / "eval"
    (out / "curves.csv").mkdir(parents=True)
    argv = ["eval", "--rec", str(small / "rec.eeg"), "--labels", str(small / "labels.txt"),
            "--model", str(small / "model.bin"), "--out-dir", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out / "curves.csv") in err
    assert [p.name for p in out.iterdir()] == ["curves.csv"]
    (out / "curves.csv").rmdir()
    assert main(argv) == 0
    names = ["curves.csv", "hypothesis.txt", "report.json", "report.txt"]
    assert sorted(p.name for p in out.iterdir()) == names


def test_outputs_write_through_symlinks_and_into_devices(small, tmp_path):
    # a symlinked output keeps its link and replaces the file it points to,
    # which keeps its permission bits; a device is written in place
    target = tmp_path / "real" / "hyp.txt"
    target.parent.mkdir()
    target.write_text("old")
    target.chmod(0o640)
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    rec, model = str(small / "rec.eeg"), str(small / "model.bin")
    argv = ["run", "--rec", rec, "--model", model, "--out-hyp", str(link), "--out-latency", os.devnull]
    assert main(argv) == 0
    assert link.is_symlink() and link.resolve() == target.resolve()
    plain = tmp_path / "plain.txt"
    assert main(["run", "--rec", rec, "--model", model, "--out-hyp", str(plain)]) == 0
    assert target.read_text() == plain.read_text() != "old"
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert [p.name for p in target.parent.iterdir()] == ["hyp.txt"]
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert main(["run", "--rec", rec, "--model", model, "--out-hyp", os.devnull]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


@pytest.mark.parametrize("flag", ["--labels", "--model", "--montage", "--json"])
def test_input_directory_is_validation_error(corpus, capsys, flag):
    rec, directory = str(corpus / "test" / "rec.eeg"), str(corpus / "test")
    csv = corpus / "rec.csv"
    csv.write_text("FP1,F7\n" + "1.0,2.0\n" * 10)
    argv = {
        "--labels": ["eval", "--rec", rec, "--labels", directory,
                     "--model", str(corpus / "model.bin"), "--out-dir", str(corpus / "eval-dir")],
        "--model": ["run", "--rec", rec, "--model", directory,
                    "--out-hyp", str(corpus / "hyp.txt")],
        "--montage": ["ingest", "--csv", str(csv), "--rate", "200", "--montage", directory,
                      "--out", str(corpus / "ingested.eeg")],
        "--json": ["report", "--json", directory],
    }[flag]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "is a directory" in err and directory in err


def test_eval_rejects_non_finite_model(corpus, capsys):
    model = corpus / "model.bin"
    data = model.read_bytes()
    bias_at = data.index(b"end_header\n") + len(b"end_header\n")
    nan_model = corpus / "nan.bin"
    nan_bias = np.array([np.nan], "<f8").tobytes()
    nan_model.write_bytes(data[:bias_at] + nan_bias + data[bias_at + 8 :])
    code = main([
        "eval", "--rec", str(corpus / "test" / "rec.eeg"),
        "--labels", str(corpus / "test" / "labels.txt"), "--model", str(nan_model),
        "--out-dir", str(corpus / "nan-eval"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{nan_model}: " in err and "finite" in err


@pytest.mark.parametrize("flag", ["--labels", "--montage", "--csv"])
def test_non_utf8_text_input_is_validation_error(corpus, capsys, flag):
    rec = str(corpus / "test" / "rec.eeg")
    bad = corpus / "bad.txt"
    csv_path = corpus / "rec.csv"
    csv_path.write_text("FP1,F7\n" + "1.0,2.0\n" * 10)
    bad.write_bytes({
        "--labels": b"\xff\xfe 1 2 seiz\n",
        "--montage": b"FP1 \xffF7\n",
        "--csv": b"FP1,F7\n1.0,2.0\n1.0,\xff\n",
    }[flag])
    argv = {
        "--labels": ["eval", "--rec", rec, "--labels", str(bad),
                     "--model", str(corpus / "model.bin"), "--out-dir", str(corpus / "eval-bad")],
        "--montage": ["ingest", "--csv", str(csv_path), "--rate", "200",
                      "--montage", str(bad), "--out", str(corpus / "ingested.eeg")],
        "--csv": ["ingest", "--csv", str(bad), "--rate", "200",
                  "--out", str(corpus / "ingested.eeg")],
    }[flag]
    assert main(argv) == 1
    err = capsys.readouterr().err
    line = 3 if flag == "--csv" else 1
    assert err.startswith("error: ") and f"{bad}: line {line}: not UTF-8" in err


@pytest.mark.parametrize(
    "extra",
    [["--batch-size", "0"], ["--batch-size", "-4"], ["--smoothing", "-3"], ["--smoothing", "1"],
     ["--lr", "nan"], ["--l2", "-5"],
     ["--min-event-sec", "nan"], ["--gap-merge-sec", "nan"], ["--margins", "nan"],
     ["--detector", "energy", "--feature", "raw"],
     ["--budget-sec", "nan"], ["--budget-sec", "-1"], ["--detector", "energy", "--lr", "50"],
     ["--threshold", "2"], ["--threshold", "0.5", "--gap-merge-sec", "-1"],
     ["--gap-merge-sec", "-1"], ["--window-sec", "inf"], ["--shift-sec", "1e-09"]],
)
def test_bad_training_and_smoothing_values_are_validation_errors(
    corpus, capsys, monkeypatch, extra
):
    # the last value of ``extra`` is the offending one, and the error shows it;
    # --threshold or --budget-sec selects run, a training flag train, else eval
    def no_stream(*args, **kwargs):
        raise AssertionError("the recording was streamed before the options were checked")

    monkeypatch.setattr(rtbench, "run_stream", no_stream)
    model = str(corpus / "model.bin")
    if extra[0] in ("--batch-size", "--lr", "--l2", "--detector"):
        argv = ["train", "--rec", str(corpus / "train" / "rec.eeg"),
                "--labels", str(corpus / "train" / "labels.txt"),
                "--out", str(corpus / "bad-model.bin")]
    elif extra[0] in ("--threshold", "--budget-sec"):
        argv = ["run", "--rec", str(corpus / "test" / "rec.eeg"), "--model", model,
                "--out-hyp", str(corpus / "hyp-bad.txt")]
    else:
        argv = ["eval", "--rec", str(corpus / "test" / "rec.eeg"),
                "--labels", str(corpus / "test" / "labels.txt"),
                "--model", model, "--out-dir", str(corpus / "eval-bad")]
    assert main(argv + extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"got {extra[-1]}" in err
    assert not (corpus / "bad-model.bin").exists()
    assert not (corpus / "eval-bad").exists()
    assert not (corpus / "hyp-bad.txt").exists()


@pytest.mark.parametrize("command", ["extract", "train", "run", "eval"])
def test_non_finite_window_is_validation_error(corpus, capsys, command):
    rec, labels = str(corpus / "test" / "rec.eeg"), str(corpus / "test" / "labels.txt")
    out = corpus / "out"
    argv = {
        "extract": ["--rec", rec, "--out", str(out)],
        "train": ["--rec", rec, "--labels", labels, "--out", str(out)],
        "run": ["--rec", rec, "--model", str(corpus / "model.bin"), "--out-hyp", str(out)],
        "eval": ["--rec", rec, "--labels", labels, "--model", str(corpus / "model.bin"),
                 "--out-dir", str(out)],
    }[command]
    assert main([command, *argv, "--window-sec", "inf"]) == 1
    assert capsys.readouterr().err.startswith("error: need finite window_s")
    assert list(corpus.glob("out*")) == []


def test_extract_into_missing_directory_is_validation_error(corpus, capsys):
    out = corpus / "missing" / "t"
    argv = ["extract", "--rec", str(corpus / "test" / "rec.eeg"), "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: --out {out}: no directory {out.parent}\n"
    assert not out.parent.exists()


def test_extract_lfcc_below_4_hz_is_validation_error(tmp_path, capsys):
    # 0.15 s, the LFCC hop, is under one sample at 2 Hz
    src = tmp_path / "slow.csv"
    src.write_text("FP1,F7\n" + "1.0,2.0\n" * 40)
    rec = tmp_path / "slow.eeg"
    assert main(["ingest", "--csv", str(src), "--rate", "2", "--out", str(rec)]) == 0
    capsys.readouterr()
    out = tmp_path / "tensor"
    assert main(["extract", "--rec", str(rec), "--feature", "lfcc", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: LFCC frame or hop is under one sample at 2 Hz\n"
    assert not (tmp_path / "tensor.npy").exists()


def test_model_rejects_tensor_of_another_shape_and_equal_size(corpus, capsys):
    # (20, 1, 800) and (10, 1, 1600) both hold 16 000 values
    model = corpus / "raw.bin"
    assert main([
        "train", "--rec", str(corpus / "train" / "rec.eeg"),
        "--labels", str(corpus / "train" / "labels.txt"), "--feature", "raw",
        "--epochs", "2", "--out", str(model),
    ]) == 0
    narrow = corpus / "narrow"
    assert main(["synth", "--out-dir", str(narrow), "--duration", "60", "--channels", "10",
                 "--n-events", "1", "--seed", "3"]) == 0
    capsys.readouterr()
    code = main([
        "eval", "--rec", str(narrow / "rec.eeg"), "--labels", str(narrow / "labels.txt"),
        "--model", str(model), "--window-sec", "8", "--out-dir", str(corpus / "narrow-eval"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "(10, 1, 1600)" in err and "(20, 1, 800)" in err
    assert not (corpus / "narrow-eval").exists()


@pytest.mark.parametrize("detector", ["model", "energy"])
@pytest.mark.parametrize("command", ["eval", "run"])
def test_one_stream_pass_per_command(corpus, monkeypatch, command, detector):
    model = corpus / "model.bin"
    if detector == "energy":
        model = corpus / "energy.bin"
        assert main([
            "train", "--detector", "energy", "--rec", str(corpus / "train" / "rec.eeg"),
            "--labels", str(corpus / "train" / "labels.txt"), "--out", str(model),
        ]) == 0
    calls = {"run_stream": 0, "load_model": 0, "window_labels": 0, "curve_metrics": 0}
    for module, name in (
        (rtbench, "run_stream"), (detectors, "load_model"), (core, "window_labels"),
        (metrics, "curve_metrics"),
    ):
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    argv = [command, "--rec", str(corpus / "test" / "rec.eeg"), "--model", str(model)]
    if command == "eval":
        argv += ["--labels", str(corpus / "test" / "labels.txt")]
    argv += {
        "eval": ["--out-dir", str(corpus / "eval-once")],
        "run": ["--out-hyp", str(corpus / "hyp.txt")],
    }[command]
    assert main(argv) == 0
    assert calls == {
        "run_stream": 1,
        "load_model": 1,
        "window_labels": int(command == "eval"),
        "curve_metrics": int(command == "eval"),
    }


@pytest.mark.parametrize("command", ["run", "eval", "train", "extract"])
def test_nan_sample_stops_the_stream_before_any_output(corpus, capsys, command):
    # extract --window-index -1 writes windows 0 and 1 before it meets the NaN,
    # and must leave neither behind
    rec = io.load_recording(corpus / "test" / "rec.eeg")
    samples = rec.samples.copy()  # a loaded recording is read-only
    samples[3, 1000] = np.nan  # 5.0 s: in windows 2 to 5 of 4 s every 1 s
    nan = core.Recording(rec.sample_rate_hz, rec.channel_names, samples, rec.montage)
    io.save_recording(nan, corpus / "nan.eeg")
    out = corpus / "out"
    labels = ["--labels", str(corpus / "test" / "labels.txt")]
    model = ["--model", str(corpus / "model.bin")]
    args = ["--rec", str(corpus / "nan.eeg")] + {
        # a zero budget fails every window, but the stream stops first: exit 1
        "run": [*model, "--out-hyp", str(out), "--out-latency", f"{out}-latency",
                "--budget-sec", "0"],
        "eval": [*model, *labels, "--out-dir", str(out)],
        "train": [*labels, "--out", str(out)],
        "extract": ["--feature", "bands", "--window-index", "-1", "--out", str(out)],
    }[command]
    before = sorted(corpus.iterdir())
    capsys.readouterr()
    assert main([command, *args]) == 1
    assert capsys.readouterr().err == (
        "error: window 2 at 2 s: window holds a non-finite sample or one beyond float32 range\n"
    )
    assert sorted(corpus.iterdir()) == before
