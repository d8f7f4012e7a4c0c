"""Command-line entry point wiring the full pipeline.

Exit codes: 0 success, 1 validation error, 2 runtime error, 3 real-time
constraint violation (``run``, after it has written its outputs).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io as stdio
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import core, detectors, features, io, metrics, rtbench
from .errors import (
    DirectoryPathError,
    FileFormatError,
    InvalidArgumentError,
    MalformedReportError,
    SeizevalError,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_REALTIME = 3


def _parse_events(text: str) -> list[tuple[float, float]]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            a, b = part.split(":")
            out.append((float(a), float(b)))
        except ValueError:
            raise InvalidArgumentError(f"bad event spec {part!r}, expected start:stop")
    return out


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise InvalidArgumentError(f"bad numeric list {text!r}")


def _load_rec_and_labels(args) -> tuple[core.Recording, core.LabelTrack]:
    rec = io.load_recording(args.rec)
    labels = io.load_labels(args.labels, total_duration_s=rec.duration_s)
    return rec, labels


def _window_spec(args) -> core.WindowSpec:
    return core.WindowSpec(window_s=args.window_sec, shift_s=args.shift_sec)


def _fit(rec, labels, spec, feature: str, fit) -> detectors.LinearModel:
    """Fit a model with ``fit(dataset)`` on every window of ``rec`` (train and sweep)."""
    extractor = features.get_extractor(feature, rec.sample_rate_hz)
    feats = [rtbench.extract_window(extractor, w) for w in core.slice_windows(rec, spec)]
    wl = core.window_labels(rec, labels, spec)
    return fit(list(zip(feats, wl.astype(int))))


def _stream(rec, detector, spec, budget_s=None):
    """Stream ``rec`` once through the extractor the model names: (track, latency)."""
    extractor = features.get_extractor(detector.extractor_id, rec.sample_rate_hz)
    return rtbench.run_stream(rec, extractor, detector, spec, budget_s)


def _score(rec, labels, wl, detector, spec, **eval_opts):
    """Stream ``rec`` once and score it with every metric: (track, latency, report)."""
    track, latency = _stream(rec, detector, spec)
    return track, latency, metrics.evaluate_track(labels, wl, track, **eval_opts)


def _add_window_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--window-sec", type=float, default=4.0)
    p.add_argument("--shift-sec", type=float, default=1.0)


def _add_detector_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, help="model file written by train")
    p.add_argument("--smoothing", type=float, default=0.0)


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    cfg = core.SynthConfig(
        duration_s=args.duration,
        n_channels=args.channels,
        background_amplitude_uv=args.background_uv,
        ictal_amplitude_uv=args.ictal_uv,
        ictal_base_freq_hz=args.base_freq,
        events=_parse_events(args.events) if args.events else None,
        n_random_events=args.n_events,
        seed=args.seed,
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rec, labels = core.synth_recording(cfg)
    io.write_outputs([
        (out / "rec.eeg", functools.partial(io.save_recording, rec)),
        (out / "labels.txt", functools.partial(io.save_labels, labels)),
    ])
    print(f"wrote {out / 'rec.eeg'} ({rec.n_channels} ch, {rec.duration_s:g} s) "
          f"and {out / 'labels.txt'} ({len(labels.events)} events)")
    return EXIT_OK


def cmd_ingest(args) -> int:
    rec = io.load_csv_recording(args.csv, sample_rate_hz=args.rate)
    if args.montage:
        rec = core.to_bipolar(rec, io.load_montage(args.montage))
    if args.resample is not None:
        rec = core.resample(rec, args.resample)
    io.save_recording(rec, args.out)
    print(f"wrote {args.out} ({rec.n_channels} ch @ {rec.sample_rate_hz} Hz)")
    return EXIT_OK


def cmd_extract(args) -> int:
    rec = io.load_recording(args.rec)
    extractor = features.get_extractor(args.feature, rec.sample_rate_hz)
    spec = _window_spec(args)
    n = core._window_starts(rec, spec).size
    if not -1 <= args.window_index < n:
        raise InvalidArgumentError(
            f"--window-index {args.window_index} is out of range: the recording has "
            f"{n} windows (0 to {n - 1}, or -1 for all)"
        )
    if args.window_index == -1:
        first, paths = 0, [f"{args.out}.{k}.npy" for k in range(n)]
    else:
        first, paths = args.window_index, [args.out + ".npy"]
    out = Path(args.out)
    if not out.parent.is_dir():
        raise InvalidArgumentError(f"--out {args.out}: no directory {out.parent}")
    windows = core.slice_windows(rec, spec, first, first + len(paths))
    written = []

    def save(path: Path) -> None:
        # one window at a time: each is sliced and extracted as its file is written
        tensor = rtbench.extract_window(extractor, next(windows))
        with open(path, "wb") as f:
            np.save(f, tensor.data, allow_pickle=False)
        written.append(f"{tensor.extractor_id}, shape={tensor.shape}")

    io.write_outputs([(path, save) for path in paths])
    for path, what in zip(paths, written):
        print(f"wrote {path} ({what})")
    return EXIT_OK


# train flags of logistic regression, and the TrainConfig field each one sets
_LINEAR_FLAGS = {"lr": "learning_rate", "epochs": "epochs", "batch_size": "batch_size", "l2": "l2"}


def cmd_train(args) -> int:
    given = {dest: getattr(args, dest) for dest in _LINEAR_FLAGS if getattr(args, dest) is not None}
    if args.detector == "energy":
        if args.feature != "bands":
            raise InvalidArgumentError(f"--detector energy needs --feature bands, got {args.feature}")
        if given:
            dest, value = next(iter(given.items()))
            flag = "--" + dest.replace("_", "-")
            raise InvalidArgumentError(f"{flag} does not apply to --detector energy, got {value:g}")
        fit = detectors.fit_energy
    else:
        cfg = detectors.TrainConfig(
            seed=args.seed, **{_LINEAR_FLAGS[dest]: value for dest, value in given.items()}
        )
        fit = functools.partial(detectors.train_linear, cfg=cfg)
    rec, labels = _load_rec_and_labels(args)
    model = _fit(rec, labels, _window_spec(args), args.feature, fit)
    detectors.save_model(model, args.out)
    loss = f", final loss {model.loss_history[-1]:.4f}" if model.loss_history else ""
    print(f"wrote {args.out} ({args.detector} detector, feature={args.feature}{loss})")
    return EXIT_OK


def cmd_run(args) -> int:
    rec = io.load_recording(args.rec)
    spec = _window_spec(args)
    detector = detectors.LinearDetector(detectors.load_model(args.model), args.smoothing)
    opts = metrics.EventizeOpts(
        threshold=args.threshold,
        gap_merge_s=args.gap_merge_sec,
        min_event_s=args.min_event_sec,
    )
    if args.budget_sec is not None:
        rtbench.check_budget(args.budget_sec)
    track, report = _stream(rec, detector, spec, args.budget_sec)
    outputs = [(args.out_hyp, functools.partial(metrics.export_hypothesis, track, opts))]
    if args.out_latency:
        outputs.append((args.out_latency, lambda p: p.write_text(report.per_window_csv())))
    io.write_outputs(outputs)
    print(f"wrote {args.out_hyp}; {report.summary()}")
    return EXIT_OK if report.passed else EXIT_REALTIME


def cmd_eval(args) -> int:
    rec, labels = _load_rec_and_labels(args)
    spec = _window_spec(args)
    wl = core.window_labels(rec, labels, spec)
    detector = detectors.LinearDetector(detectors.load_model(args.model), args.smoothing)
    # reject bad event options before the stream is scored
    opts = metrics.EventizeOpts(gap_merge_s=args.gap_merge_sec, min_event_s=args.min_event_sec)
    for m in args.margins:
        metrics.margin(labels, [], m)
    track, _, report = _score(
        rec, labels, wl, detector, spec, margins_s=tuple(args.margins),
        gap_merge_s=args.gap_merge_sec, min_event_s=args.min_event_sec,
    )
    # only a scored stream creates --out-dir: a model that does not fit the
    # recording fails on its first window
    out = Path(args.out_dir) if args.out_dir else _default_run_dir(args.seed)
    out.mkdir(parents=True, exist_ok=True)
    curves = report.curves
    rows = ["threshold,tpr,fpr,precision,recall"]
    for t, tp, fp, pr in zip(curves.thresholds, curves.tpr, curves.fpr, curves.precision):
        rows.append(f"{t:.9f},{tp:.9f},{fp:.9f},{pr:.9f},{tp:.9f}")
    youden = dataclasses.replace(opts, threshold=report.record["youden_threshold"])
    io.write_outputs([
        (out / "report.json", lambda p: p.write_text(report.to_json() + "\n")),
        (out / "report.txt", lambda p: p.write_text(report.to_text())),
        (out / "curves.csv", lambda p: p.write_text("\n".join(rows) + "\n")),
        (out / "hypothesis.txt", functools.partial(metrics.export_hypothesis, track, youden)),
    ])
    print(report.to_text(), end="")
    print(f"report written to {out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.windows is not None:
        name, values = "window_sec", args.windows
    else:
        name, values = "shift_sec", args.shifts
    settings = [(name, v) for v in _parse_floats(values)]
    if not settings:
        raise InvalidArgumentError("sweep needs at least one --windows or --shifts value")

    (train_rec, train_labels), (test_rec, test_labels) = (
        core.synth_recording(core.SynthConfig(
            duration_s=args.duration, n_random_events=args.n_events, seed=args.seed + k
        ))
        for k in (0, 1)
    )

    rows = []
    for name, value in settings:
        row = {"setting": name, "value": f"{value:g}"}
        try:
            spec = core.WindowSpec(
                window_s=value if name == "window_sec" else args.window_sec,
                shift_s=args.shift_sec if name == "window_sec" else value,
            )
            cfg = detectors.TrainConfig(seed=args.seed)
            fit = functools.partial(detectors.train_linear, cfg=cfg)
            model = _fit(train_rec, train_labels, spec, args.feature, fit)
            wl = core.window_labels(test_rec, test_labels, spec)
            _, latency, report = _score(
                test_rec, test_labels, wl, detectors.LinearDetector(model), spec
            )
        except SeizevalError as exc:
            row["status"] = f"rejected: {exc}"
        else:
            row.update(report.to_row())
            row["mean_window_time_s"] = f"{latency.mean_s:.6f}"
            row["p95_window_time_s"] = f"{latency.p95_s:.6f}"
            row["budget_met"] = int(latency.passed)
            row["status"] = "ok"
        rows.append(row)
    table = stdio.StringIO()
    # rejected rows hold a subset of an ok row's columns, in the same order
    header = max(rows, key=len, default=["setting", "value", "status"])
    writer = csv.DictWriter(table, header, restval="", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    if args.out:
        io.write_outputs([(args.out, lambda p: p.write_text(table.getvalue()))])
    print(table.getvalue(), end="")
    return EXIT_OK


def cmd_report(args) -> int:
    try:
        with io.open_input(args.json, encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError on binary input
        raise MalformedReportError(f"{args.json}: not a JSON report: {exc}") from exc
    print(json.dumps(data, indent=2, sort_keys=True))
    return EXIT_OK


def _default_run_dir(seed: int) -> Path:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return Path("runs") / f"{stamp}-seed{seed}"


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seizeval",
        description="Real-time EEG seizure detection pipeline and scorer",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # every flag is spelt out in full: "--n-event" is an error, not "--n-events"
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add("synth", help="generate a synthetic recording + labels")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--duration", type=float, default=60.0)
    p.add_argument("--channels", type=int, default=20)
    p.add_argument("--background-uv", type=float, default=20.0)
    p.add_argument("--ictal-uv", type=float, default=100.0)
    p.add_argument("--base-freq", type=float, default=3.0)
    p.add_argument("--events", help="comma list of start:stop seconds")
    p.add_argument("--n-events", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = add("ingest", help="convert CSV to the .eeg binary format")
    p.add_argument("--csv", required=True)
    p.add_argument("--rate", type=int, required=True)
    p.add_argument("--montage", help="apply a bipolar montage spec file")
    p.add_argument("--resample", type=int, help="resample to this rate")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = add("extract", help="dump feature tensors for debugging")
    p.add_argument("--rec", required=True)
    p.add_argument("--feature", choices=features.EXTRACTOR_NAMES, default="raw")
    _add_window_args(p)
    p.add_argument("--window-index", type=int, default=0, help="-1 for all windows")
    p.add_argument("--out", required=True,
                   help="writes OUT.npy, or OUT.K.npy for each window K with --window-index -1")
    p.set_defaults(func=cmd_extract)

    p = add("train", help="fit a detector model on labelled training data")
    p.add_argument("--rec", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--detector", choices=["linear", "energy"], default="linear",
                   help="logistic regression, or the band-0 energy baseline (needs bands)")
    p.add_argument("--feature", choices=features.EXTRACTOR_NAMES, default="bands")
    _add_window_args(p)
    # --detector linear only; a flag not given takes its TrainConfig default
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--l2", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = add("run", help="stream a recording, export hypotheses, check the budget")
    p.add_argument("--rec", required=True)
    _add_detector_args(p)
    _add_window_args(p)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--gap-merge-sec", type=float, default=0.0)
    p.add_argument("--min-event-sec", type=float, default=0.0)
    p.add_argument("--budget-sec", type=float, help="override the shift budget")
    p.add_argument("--out-hyp", required=True)
    p.add_argument("--out-latency", help="per-window times CSV")
    p.set_defaults(func=cmd_run)

    p = add("eval", help="full metrics report")
    p.add_argument("--rec", required=True)
    p.add_argument("--labels", required=True)
    _add_detector_args(p)
    _add_window_args(p)
    p.add_argument("--gap-merge-sec", type=float, default=0.0)
    p.add_argument("--min-event-sec", type=float, default=0.0)
    p.add_argument("--margins", type=_parse_floats, default=[3.0, 5.0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_eval)

    p = add("sweep", help="window/shift parameter sweep on synth data")
    grid = p.add_mutually_exclusive_group(required=True)
    grid.add_argument("--windows", help="comma list of window sizes (s)")
    grid.add_argument("--shifts", help="comma list of shift lengths (s)")
    _add_window_args(p)
    p.add_argument("--feature", choices=features.EXTRACTOR_NAMES, default="raw")
    p.add_argument("--duration", type=float, default=120.0)
    p.add_argument("--n-events", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = add("report", help="pretty-print a report.json")
    p.add_argument("--json", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code else EXIT_OK
    try:
        return args.func(args)
    # the OSErrors name the path: a missing input, an output path that is a
    # directory, or an --out-dir that is (or lies below) a file
    except (InvalidArgumentError, FileFormatError, DirectoryPathError, FileNotFoundError,
            IsADirectoryError, NotADirectoryError, FileExistsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SeizevalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
