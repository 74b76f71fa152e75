"""`aspi psf`: the axial response curve of a rig at one probe pixel."""

from __future__ import annotations

import math

import numpy as np

from ..errors import CoverageError
from ..imaging_model import GeometryMasks, threshold_mask
from ..volume_analysis import axial_psf, fwhm
from . import print_summary, rig_from_metadata


def run(args) -> int:
    spec, geom, grid = rig_from_metadata({**vars(args), "theta_rad": math.radians(args.theta_deg)})
    masks = GeometryMasks(spec, geom, grid)
    shape = masks.base.shape
    layer_z = args.layer_z if args.layer_z is not None else grid.count // 2
    # the first frame of a unit layer at layer_z is its section's first mask
    pattern = np.broadcast_to(masks.section_masks(layer_z)[0], shape)
    mask = threshold_mask(masks.base[:1]) if args.threshold else masks.base
    probe_x = args.probe_x if args.probe_x is not None else (3 * shape[1]) // 4
    probe_y = args.probe_y if args.probe_y is not None else shape[0] // 2
    try:
        curve = axial_psf(pattern, mask, spec, geom, grid, (probe_x, probe_y))
    except CoverageError as exc:
        if not args.threshold:
            raise
        raise CoverageError(
            f"{exc}; --threshold leaves 1-pixel slits, which need a scan step of about one "
            f"camera pixel, and this rig's, shift_step x magnification, is "
            f"{spec.shift_step * geom.magnification:.6g} camera pixels") from None
    width = fwhm(curve)
    if args.out:
        with open(args.out, "w") as fh:
            for zv, rv in zip(curve.z, curve.response):
                fh.write(f"{float(zv)!r} {float(rv)!r}\n")
    print_summary(kind="psf", fwhm_z=f"{width:.6g}",
                  fwhm_sections=f"{width / grid.z_step:.6g}",
                  probe_x=probe_x, probe_y=probe_y,
                  path=args.out if args.out else "-")
    return 0
