"""seizeval: real-time EEG seizure detection pipeline and scoring toolkit."""

from .core import (
    Event,
    LabelTrack,
    Montage,
    MontageSpec,
    Recording,
    SeizureLabel,
    SynthConfig,
    WindowSpec,
    resample,
    slice_windows,
    synth_recording,
    to_bipolar,
    window_labels,
)
from .detectors import (
    DetectorState,
    LinearDetector,
    LinearModel,
    TrainConfig,
    fit_energy,
    train_linear,
)
from .features import (
    FeatureTensor,
    SincBank,
    design_sinc_kernel,
    extract_raw,
    frequency_bands,
    lfcc,
    multirate,
    sinc_filterbank,
    stft,
)
from .metrics import (
    ConfusionCounts,
    EventizeOpts,
    HypothesisTrack,
    MetricsReport,
    curve_metrics,
    epoch_counts,
    eventize,
    evaluate_track,
    fa_per_24h,
    margin,
    onset_latency,
    operating_points,
    ovlp,
    taes,
)
from .rtbench import LatencyReport, run_stream

__version__ = "0.1.0"
