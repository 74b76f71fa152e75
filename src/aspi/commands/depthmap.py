"""`aspi depthmap`: extract a depth map from a volume file, a window of rows at a time."""

from __future__ import annotations

import numpy as np

from ..rig import axial_range, is_axially_ambiguous
from ..stack_io import VolumeStack, write_pgm, write_stack
from ..volume_analysis import CONTRAST_TAU, contrast_window, extract_depth_map
from . import distinct_files, open_stack, print_summary, rig_from_metadata


def run(args) -> int:
    distinct_files(args, "input", "out", "confidence_out", "pgm")
    # the volume is read once, a window of rows of every plane at a time
    planes, meta = open_stack(args.input, "volume")
    with planes:
        spec, geom, grid = rig_from_metadata(meta)
        if planes.shape[0] != grid.count:
            raise ValueError(f"volume has {planes.shape[0]} planes, metadata declares {grid.count}")
        floor = meta.value("floor", float) if meta.get("floor") else 0.0
        volume = VolumeStack(sections=planes, grid=grid, coverage_floor_used=floor)
        # the contrast rule's window: one peak's own response, from the rig
        window = contrast_window(spec.linewidth_w * geom.magnification, geom.shear_px_per_section)
        dm = extract_depth_map(volume, min_confidence=args.min_confidence, refine=args.refine,
                               window=window)
    # depths beyond one slit period of shear fold into [z0, z0 + that range)
    ambiguous = str(is_axially_ambiguous(spec, geom, grid)).lower()
    unambiguous = f"{axial_range(spec, geom) / grid.z_step:.6g}"
    rule = ({"valid_rule": "contrast", "contrast_tau": CONTRAST_TAU, "contrast_window": window}
            if args.min_confidence is None else {"valid_rule": "min_confidence"})
    out_meta = {"kind": "depthmap", "z0": grid.z0, "z_step": grid.z_step,
                "sections": grid.count, "refine": int(args.refine),
                "ambiguous": ambiguous, "unambiguous_sections": unambiguous, **rule}
    write_stack(dm.depth, out_meta, args.out)
    if args.confidence_out:
        write_stack(dm.confidence, {"kind": "confidence"}, args.confidence_out)
    if args.pgm:
        write_pgm(dm.depth, args.pgm, invalid_value=float(grid.z0))
    valid_fraction = float(np.mean(np.isfinite(dm.depth)))
    print_summary(kind="depthmap", valid_fraction=f"{valid_fraction:.6g}",
                  valid_rule=rule["valid_rule"], ambiguous=ambiguous,
                  unambiguous_sections=unambiguous, path=args.out)
    return 0
