"""Guided depth map super-resolution via closed-form DCT solves.

The core solves a gradient-transfer energy exactly in the cosine basis,
in the single-channel image domain and across a semi-coupled filter-bank
feature domain, with a bicubic degradation protocol, a quantile-based
edge attention stand-in, and a benchmark harness around them.
"""

from .image_core import as_image, as_stack
from .dct import dct2_forward, dct2_inverse
from .spectral import (
    FIVE_POINT,
    build_rhs,
    derived_symbol,
    laplacian_apply,
    solve_screened,
    stencil_symbol,
    symbol_for,
)
from .guidance import (
    EdgeWeightConfig,
    edge_weight,
    luminance,
    multichannel_edge_weight,
    transfer_target,
)
from .feature_bank import (
    FilterBank,
    FilterPair,
    ReconstructionHead,
    apply_head,
    channel_solve,
    default_bank,
    extract,
    fit_head,
    fit_lambda,
    spectral_predict,
)
from .resample import (
    bicubic_downsample,
    bicubic_kernel,
    bicubic_upsample,
    crop_to_multiple,
    degrade,
)
from .imgio import load_image, load_luminance, quantize, save_error_map, save_image
from .bench import (
    BenchRecord,
    DatasetEntry,
    DatasetManifest,
    PipelineConfig,
    load_manifest,
    load_params,
    predict,
    rmse,
    run_bench,
    run_image,
    save_params,
)

__version__ = "0.1.0"
