"""edgekeep: texture-augmented edge-preserving image filtering.

A bilateral filter extended with a steerable-filter-derived texture
similarity term ("multilateral" filtering), together with seeded noise
injectors, SNR / edge-preserving-exponent metrics, and a benchmark harness.
"""

from .bench import BenchReport, BenchRow, run_bench
from .filters import (
    FilterMode,
    FilterParams,
    filter_image,
    filter_oracle,
)
from .image import (
    ImageBuffer,
    MalformedHeaderError,
    PnmError,
    TruncatedPayloadError,
    UnsupportedMaxvalError,
    load_pnm,
    save_pnm,
    to_grayscale,
)
from .kernels import convolve, gaussian_derivative_taps
from .metrics import (
    Direction,
    MetricsReport,
    edge_preserving_exponent,
    evaluate_pair,
    snr,
)
from .noise import NoiseSpec, add_noise
from .synth import grating, step_edge, two_texture
from .texture import (
    ORIENTATIONS_DEG,
    TextureClass,
    TextureMap,
    TextureParams,
    classify,
    compute_texture_map,
    decompose,
    local_energy,
    steer,
    texture_map_image,
)

__version__ = "0.1.0"
