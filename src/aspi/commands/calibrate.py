"""`aspi calibrate`: fit a mask model from three reference planes."""

from __future__ import annotations

import math

import numpy as np

from ..calibration import fit_mask_model
from ..stack_io import read_stack, write_stack
from . import distinct_files, print_summary


def run(args) -> int:
    distinct_files(args, "refs", "out")
    planes, _ = read_stack(args.refs)
    if planes.shape[0] != 3:
        raise ValueError(f"calibration needs exactly 3 reference planes, got {planes.shape[0]}")
    refs = [p.astype(np.float64) for p in planes]
    if args.normalize:
        # a plane with no pixels, or a NaN or Inf peak, is left as it is,
        # for the fit to reject
        refs = [r / r.max() if r.size and 0 < r.max() < math.inf else r for r in refs]
    model = fit_mask_model(refs[0], refs[1], refs[2], (args.anchor_x, args.anchor_z))
    meta = {
        "kind": "mask-model",
        "lateral_dx": model.lateral_dx,
        "lateral_dy": model.lateral_dy,
        "axial_dx": model.axial_dx,
        "axial_dy": model.axial_dy,
        "anchor_x": model.anchors[0],
        "anchor_z": model.anchors[1],
        "lateral_residual_rms": model.lateral_residual_rms,
        "axial_residual_rms": model.axial_residual_rms,
    }
    write_stack(model.base_mask, meta, args.out)
    print_summary(kind="mask-model",
                  lateral_dx=f"{model.lateral_dx:.6f}", lateral_dy=f"{model.lateral_dy:.6f}",
                  axial_dx=f"{model.axial_dx:.6f}", axial_dy=f"{model.axial_dy:.6f}",
                  path=args.out)
    return 0
