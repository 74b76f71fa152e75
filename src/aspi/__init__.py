"""Virtual volumetric confocal imaging via axially-shifted slit-pattern illumination.

A slit-array pattern projected at a tilt slides laterally with depth, so a
single lateral scan encodes every depth section at once. This package
provides the synthetic forward model, mask calibration, the mask-multiply
volume reconstruction, axial-response / depth-map analysis, a binary stack
file format, and a benchmark harness, plus the `aspi` command-line tool.

`import aspi` loads none of it: each name below is looked up in its module
(PEP 562) the first time it is read, so a command or a script loads numpy
and the modules it uses, and no others.
"""

import importlib

__version__ = "0.1.0"

# the names the package exports, by the module that defines them
_EXPORTS = {
    "errors": ("AspiError", "CoverageError", "DegenerateInputError", "EmptyMaskError",
               "FwhmRangeError", "StackFormatError"),
    "rig": ("PatternSpec", "GeometryConfig", "ZGrid", "axial_range", "is_axially_ambiguous",
            "camera_shape"),
    "imaging_model": ("validate_frame", "sample_row", "shift_image", "make_slit_pattern",
                      "synthesize_mask", "threshold_mask", "base_camera_pattern",
                      "GeometryMasks"),
    "calibration": ("MaskModel", "estimate_translation", "fit_mask_model", "predict_mask"),
    "forward_sim": ("NoiseSpec", "Scene", "render_frame", "render_frames", "acquire_stack",
                    "make_tilted_plane_scene", "tilted_plane_sections"),
    "reconstructor": ("ModelMasks", "default_floor", "reconstruct_section",
                      "reconstruct_volume", "VolumeStream"),
    "volume_analysis": ("AxialCurve", "DepthMap", "axial_psf", "fwhm",
                        "predicted_fwhm_sections", "contrast_window", "extract_depth_map"),
    "stack_io": ("read_stack", "write_stack", "StackReader", "StackWriter", "write_pgm",
                 "SENTINEL", "VolumeStack"),
    "bench": ("BenchReport", "bench_reconstruction"),
    "cli": ("run_cli",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads find it without this call
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
