"""Virtual volumetric confocal imaging via axially-shifted slit-pattern illumination.

A slit-array pattern projected at a tilt slides laterally with depth, so a
single lateral scan encodes every depth section at once. This package
provides the synthetic forward model, mask calibration, the mask-multiply
volume reconstruction, axial-response / depth-map analysis, a binary stack
file format, and a benchmark harness, plus the `aspi` command-line tool.
"""

__version__ = "0.1.0"

from .errors import (
    AspiError,
    CoverageError,
    DegenerateInputError,
    EmptyMaskError,
    FwhmRangeError,
    StackFormatError,
)
from .imaging_model import (
    GeometryConfig,
    GeometryMasks,
    PatternSpec,
    ZGrid,
    axial_range,
    base_camera_pattern,
    camera_shape,
    is_axially_ambiguous,
    make_slit_pattern,
    sample_row,
    shift_image,
    synthesize_mask,
    threshold_mask,
    validate_frame,
)
from .calibration import MaskModel, estimate_translation, fit_mask_model, predict_mask
from .forward_sim import (
    NoiseSpec,
    Scene,
    acquire_stack,
    make_tilted_plane_scene,
    render_frame,
    render_frames,
    tilted_plane_sections,
)
from .reconstructor import (
    SENTINEL,
    CoverageReport,
    ModelMasks,
    VolumeStack,
    VolumeStream,
    coverage_report,
    default_floor,
    reconstruct_section,
    reconstruct_volume,
)
from .volume_analysis import (
    AxialCurve,
    DepthMap,
    axial_psf,
    contrast_window,
    extract_depth_map,
    fwhm,
    predicted_fwhm_sections,
)
from .stack_io import StackReader, StackWriter, read_stack, write_pgm, write_stack
from .bench import BenchReport, bench_reconstruction
from .cli import run_cli

__all__ = [
    "AspiError", "CoverageError", "DegenerateInputError", "EmptyMaskError",
    "FwhmRangeError", "StackFormatError",
    "PatternSpec", "GeometryConfig", "ZGrid",
    "validate_frame", "sample_row", "shift_image",
    "make_slit_pattern", "axial_range", "is_axially_ambiguous",
    "synthesize_mask", "threshold_mask",
    "MaskModel", "estimate_translation", "fit_mask_model", "predict_mask",
    "NoiseSpec", "Scene", "camera_shape",
    "base_camera_pattern", "render_frame", "render_frames", "acquire_stack",
    "make_tilted_plane_scene", "tilted_plane_sections",
    "SENTINEL", "VolumeStack", "CoverageReport", "GeometryMasks",
    "ModelMasks", "default_floor",
    "reconstruct_section", "reconstruct_volume", "VolumeStream", "coverage_report",
    "AxialCurve", "DepthMap", "axial_psf", "fwhm", "predicted_fwhm_sections",
    "contrast_window", "extract_depth_map",
    "read_stack", "write_stack", "StackReader", "StackWriter", "write_pgm",
    "BenchReport", "bench_reconstruction",
    "run_cli",
]
