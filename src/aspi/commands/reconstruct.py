"""`aspi reconstruct`: recover the confocal volume of an acquisition, row chunk by row chunk."""

from __future__ import annotations

import math
from contextlib import closing
from typing import TYPE_CHECKING

import numpy as np

from ..imaging_model import GeometryMasks
from ..reconstructor import ModelMasks, VolumeStream
from ..rig import camera_shape
from ..stack_io import SENTINEL, StackWriter
from . import distinct_files, open_stack, print_summary, rig_from_metadata, rig_metadata

# calibration loads only with --model
if TYPE_CHECKING:
    from ..calibration import MaskModel


def _load_model(path) -> MaskModel:
    from ..calibration import MaskModel

    reader, meta = open_stack(path, "mask-model")
    with reader:
        if reader.shape[0] != 1:
            raise ValueError(f"{path}: a mask model is one plane, this one has {reader.shape[0]}")
        base = reader[0].astype(np.float64)
    values = {key: meta.value(key, float) for key in (
        "lateral_dx", "lateral_dy", "axial_dx", "axial_dy", "lateral_residual_rms",
        "axial_residual_rms")}
    anchors = (meta.value("anchor_x", int), meta.value("anchor_z", int))
    try:
        return MaskModel(base_mask=base, anchors=anchors, **values)
    except ValueError as exc:
        raise ValueError(f"{meta.path}: {exc}") from None


def run(args) -> int:
    # a model that is also the input fails as a file of the wrong kind
    distinct_files(args, "input", "out")
    distinct_files(args, "model", "out")
    frames, meta = open_stack(args.input, "acquisition")
    with frames:
        spec, geom, grid = rig_from_metadata(meta)
        if frames.shape[0] != spec.num_shifts_n:
            raise ValueError(
                f"acquisition has {frames.shape[0]} frames but metadata declares "
                f"{spec.num_shifts_n} scan positions"
            )
        expected_shape = camera_shape(spec, geom)
        if frames.shape[1:] != expected_shape:
            raise ValueError(
                f"acquisition planes are {frames.shape[1:]} but the rig implies {expected_shape}"
            )
        if args.model:
            provider = ModelMasks(_load_model(args.model), grid, spec.num_shifts_n)
        else:
            provider = GeometryMasks(spec, geom, grid, threshold=args.threshold)
        # the frames are checked in one pass over the file, then read chunk by chunk
        stream = VolumeStream(frames, provider, floor=args.floor, threads=args.threads)
        out_meta = rig_metadata(spec, geom, grid)
        out_meta.update(kind="volume", floor=stream.floor, sentinel=SENTINEL,
                        masks_source=stream.masks_source)
        # the volume goes to the file chunk by chunk and is never held whole;
        # with more than one thread, each chunk is written while the next ones compute
        with StackWriter(args.out, stream.shape, out_meta) as out, \
                closing(stream.blocks()) as chunks:
            for r0, chunk in chunks:
                out.write(0, r0, chunk)
    sentinel_fraction = stream.sentinels / math.prod(stream.shape)
    ambiguous = provider.ambiguous
    print_summary(kind="volume", sections=grid.count,
                  floor=f"{stream.floor:.6g}",
                  sentinel_fraction=f"{sentinel_fraction:.6g}",
                  ambiguous="n/a" if ambiguous is None else str(bool(ambiguous)).lower(),
                  masks_source=stream.masks_source, path=args.out)
    return 0
