"""Channel-wise subband music source separation toolkit."""

from .cirm import NetworkOutput, apply_cirm, cirm_gradients
from .filterbank import (
    FilterBank,
    ReconReport,
    analysis,
    design_filterbank,
    measure_reconstruction,
    synthesis,
)
from .metrics import (
    energy_conservation_loss,
    evaluation_report,
    sdr_framewise_median,
    sdr_global,
)
from .pipeline import IdentityModel, separate
from .resunet import (
    PRESETS,
    Model,
    ModelConfig,
    WeightStore,
    build,
    count_layers,
    init_random,
    model_from_store,
    read_store,
    save_weights,
    write_store,
)
from .spectral import MagPhase, istft, stft_streams, to_magphase
from .wave_io import Waveform, read_wav, write_wav

__version__ = "0.1.0"

__all__ = [
    "Waveform",
    "read_wav",
    "write_wav",
    "FilterBank",
    "ReconReport",
    "design_filterbank",
    "analysis",
    "synthesis",
    "measure_reconstruction",
    "MagPhase",
    "stft_streams",
    "istft",
    "to_magphase",
    "NetworkOutput",
    "apply_cirm",
    "cirm_gradients",
    "ModelConfig",
    "Model",
    "WeightStore",
    "PRESETS",
    "build",
    "count_layers",
    "init_random",
    "save_weights",
    "write_store",
    "read_store",
    "model_from_store",
    "separate",
    "IdentityModel",
    "energy_conservation_loss",
    "sdr_global",
    "sdr_framewise_median",
    "evaluation_report",
]
