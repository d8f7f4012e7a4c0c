"""seizeval: real-time EEG seizure detection pipeline and scoring toolkit.

Submodules and the names below load on first access (PEP 562), so a caller
compiles and runs only the modules it uses: ``import seizeval`` loads none,
and ``from seizeval import core, io`` loads neither ``metrics`` nor ``rtbench``.
"""

import importlib

__version__ = "0.1.0"

# the public names, by the submodule that defines them
_EXPORTS = {
    "core": (
        "Event", "LabelTrack", "Montage", "MontageSpec", "Recording", "SeizureLabel",
        "SynthConfig", "WindowSpec", "resample", "slice_windows", "synth_recording",
        "to_bipolar", "window_labels",
    ),
    "detectors": (
        "DetectorState", "LinearDetector", "LinearModel", "TrainConfig", "fit_energy",
        "train_linear",
    ),
    "features": (
        "FeatureTensor", "SincBank", "design_sinc_kernel", "extract_raw", "frequency_bands",
        "lfcc", "multirate", "sinc_filterbank", "stft",
    ),
    "metrics": (
        "ConfusionCounts", "EventizeOpts", "HypothesisTrack", "MetricsReport", "curve_metrics",
        "epoch_counts", "eventize", "evaluate_track", "fa_per_24h", "margin", "onset_latency",
        "operating_points", "ovlp", "taes",
    ),
    "rtbench": ("LatencyReport", "run_stream"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("core", "detectors", "errors", "features", "io", "metrics", "rtbench")

__all__ = list(_OWNER)


def __getattr__(name: str):
    if name in _OWNER:
        value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
