"""Span recording for the traced benchmark run.

Spans are recorded from outside the program. `Hooks` replaces public aspi
functions, at the module attribute where each caller looks them up, with
wrappers that open a span around the call, and puts the originals back
when removed. Spans stay in memory; the benchmark writes them out when the
run ends. No aspi source is changed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import statistics
import threading
import time
from dataclasses import asdict, dataclass, field

# Size of the stack-file header; the payload is float32 (see aspi.stack_io).
STACK_HEADER_BYTES = 32


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Nested spans with parent links, kept in memory.

    A span opened on a worker thread with no open span of its own takes the
    innermost open span of the main thread as its parent: the executor
    threads of `reconstruct_volume` work on behalf of that span. A root span
    starts a run; its descendants share its run id.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._main_ident = threading.get_ident()
        self._main_stack: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        sid = next(self._ids)
        span = Span(sid, name, 0.0, 0.0, parent.id if parent else None,
                    parent.run if parent else sid, threading.get_ident())
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def records(self) -> list[dict]:
        return [asdict(s) for s in sorted(self.spans, key=lambda s: s.start)]


def self_seconds(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it covered by its children's union."""
    covered = 0.0
    cursor = span.start
    for lo, hi in sorted((max(c.start, span.start), min(c.end, span.end)) for c in children):
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span.seconds - covered


# ---------------------------------------------------------------- hook points

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _acquire_attrs(args, kwargs, result):
    # Computed, not measured: one mask per (scan, layer) for the modulated
    # term, and the same again for the haze background when haze is on.
    scene = _arg(args, kwargs, 0, "scene")
    spec = _arg(args, kwargs, 1, "spec")
    passes = 2 if scene.haze_fraction > 0.0 else 1
    return {"mask_requests_computed": spec.num_shifts_n * len(scene.layers) * passes}


def _section_attrs(args, kwargs, result):
    # Computed, not measured: n multiplies and n adds per output pixel for
    # the numerator, n adds per mask pixel for the coverage, one divide per
    # pixel; bytes are one pass over frames and masks plus the section and
    # coverage outputs.
    frames = _arg(args, kwargs, 0, "acq")
    frames = getattr(frames, "frames", frames)
    masks = _arg(args, kwargs, 1, "masks")
    n, h, w = frames.shape
    mask_px = n * masks.shape[1] * masks.shape[2]
    return {
        "flop_computed": 2 * n * h * w + mask_px + h * w,
        "bytes_computed": frames.itemsize * n * h * w + masks.itemsize * mask_px + 2 * 8 * h * w,
    }


def _read_attrs(args, kwargs, result):
    return {"bytes_computed": STACK_HEADER_BYTES + result[0].size * 4}


def _write_attrs(args, kwargs, result):
    planes = _arg(args, kwargs, 0, "planes")
    return {"bytes_computed": STACK_HEADER_BYTES + planes.size * 4}


def _depthmap_attrs(args, kwargs, result):
    return {"voxels": _arg(args, kwargs, 0, "volume").sections.size}


# (owner, attribute, span name, attrs from (args, kwargs, result)).
# The owner is the module or class through which the caller looks the
# function up, so the wrapper sees every call made along that path.
HOOKS = (
    ("aspi.cli", "read_stack", "stack_io.read", _read_attrs),
    ("aspi.cli", "write_stack", "stack_io.write", _write_attrs),
    ("aspi.cli", "acquire_stack", "forward_sim.acquire", _acquire_attrs),
    ("aspi.forward_sim", "synthesize_mask", "imaging_model.synthesize_mask", None),
    ("aspi.reconstructor", "synthesize_mask", "imaging_model.synthesize_mask", None),
    ("aspi.imaging_model", "shift_image", "imaging_model.shift_image", None),
    ("aspi.calibration", "shift_image", "imaging_model.shift_image", None),
    ("aspi.cli", "fit_mask_model", "calibration.fit", None),
    ("aspi.calibration", "estimate_translation", "calibration.estimate_translation", None),
    ("aspi.reconstructor", "predict_mask", "calibration.predict_mask", None),
    ("aspi.cli", "reconstruct_volume", "reconstructor.volume", None),
    ("aspi.reconstructor", "reconstruct_section", "reconstructor.section", _section_attrs),
    ("aspi.reconstructor.GeometryMasks", "section_masks", "reconstructor.section_masks", None),
    ("aspi.reconstructor.ModelMasks", "section_masks", "reconstructor.section_masks", None),
    ("aspi.cli", "extract_depth_map", "volume_analysis.depthmap", _depthmap_attrs),
    ("aspi.volume_analysis", "estimate_background", "volume_analysis.background", None),
)


def _resolve(path: str):
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


def _wrap(tracer: Tracer, fn, name: str, attrs_fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if attrs_fn is not None:
            span.attrs = attrs_fn(args, kwargs, result)
        return result
    return wrapper


class Hooks:
    """Installs the span wrappers of HOOKS; `remove` restores the originals.

    A hook point the program no longer has is listed in `missing` and
    skipped, so its layer reads zero instead of failing the run.
    """

    def __init__(self, tracer: Tracer):
        self._saved = []
        self.missing = []
        for path, attr, name, attrs_fn in HOOKS:
            try:
                owner = _resolve(path)
            except (ImportError, AttributeError):
                owner = None
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{path}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, name, attrs_fn))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []


# ------------------------------------------------------------ per-layer metrics

def layer_metrics(spans: list[Span], timed: tuple[str, ...], threads: int) -> dict[str, float]:
    """Per-layer figures from the spans of one traced pass.

    Sums run over the whole pass, set-up commands included. Values named
    `*_computed` (and rates built on them) come from array shapes, not
    from a measurement.
    """
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    by_id = {s.id: s for s in spans}

    def total(name):
        return sum(s.seconds for s in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, ()))

    def under(span, ancestor):
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == ancestor:
                return True
        return False

    wall = sum(s.seconds for cmd in timed for s in by_name.get(f"cli.{cmd}", ()))
    m = {"trace.wall_s": wall}
    for cmd in ("simulate", "calibrate", "reconstruct", "depthmap"):
        m[f"cli.{cmd}_self_s"] = sum(
            self_seconds(s, children.get(s.id, [])) for s in by_name.get(f"cli.{cmd}", ()))

    requests = attr_sum("forward_sim.acquire", "mask_requests_computed")
    sim_calls = sum(1 for s in by_name.get("imaging_model.synthesize_mask", ())
                    if under(s, "forward_sim.acquire"))
    m.update({
        "forward_sim.acquire_s": total("forward_sim.acquire"),
        "forward_sim.mask_requests_computed": requests,
        "imaging_model.synthesize_mask_calls": count("imaging_model.synthesize_mask"),
        "imaging_model.synthesize_mask_s": total("imaging_model.synthesize_mask"),
        "imaging_model.mask_reuse_frac": 1.0 - sim_calls / requests if requests else 0.0,
        "imaging_model.shift_image_calls": count("imaging_model.shift_image"),
        "imaging_model.shift_image_s": total("imaging_model.shift_image"),
        "calibration.estimate_translation_calls": count("calibration.estimate_translation"),
        "calibration.estimate_translation_s": total("calibration.estimate_translation"),
        "calibration.fit_s": total("calibration.fit"),
        "calibration.predict_mask_calls": count("calibration.predict_mask"),
        "calibration.predict_mask_s": total("calibration.predict_mask"),
    })

    sections = [s.seconds * 1e3 for s in by_name.get("reconstructor.section", ())]
    kernel_s = total("reconstructor.section")
    volume_s = total("reconstructor.volume")
    masks_s = total("reconstructor.section_masks")
    gflop = attr_sum("reconstructor.section", "flop_computed") / 1e9
    kbytes = attr_sum("reconstructor.section", "bytes_computed")
    m.update({
        "reconstructor.volume_s": volume_s,
        "reconstructor.kernel_s": kernel_s,
        "reconstructor.sections": len(sections),
        "reconstructor.section_p50_ms": statistics.median(sections) if sections else 0.0,
        # p75 leaves at least ten samples beyond it for the 40- and
        # 48-section grids the workloads use.
        "reconstructor.section_p75_ms": (statistics.quantiles(sections, n=4)[2]
                                         if len(sections) > 1 else 0.0),
        "reconstructor.section_masks_calls": count("reconstructor.section_masks"),
        "reconstructor.section_masks_s": masks_s,
        "reconstructor.parallel_eff": ((kernel_s + masks_s) / (threads * volume_s)
                                       if volume_s else 0.0),
        "reconstructor.kernel_gflop_computed": gflop,
        "reconstructor.kernel_bytes_computed": kbytes,
        "reconstructor.kernel_flop_per_byte_computed": gflop * 1e9 / kbytes if kbytes else 0.0,
        "reconstructor.kernel_gflop_s": gflop / kernel_s if kernel_s else 0.0,
    })

    depth_s = total("volume_analysis.depthmap")
    read_s, write_s = total("stack_io.read"), total("stack_io.write")
    read_b = attr_sum("stack_io.read", "bytes_computed")
    write_b = attr_sum("stack_io.write", "bytes_computed")
    m.update({
        "volume_analysis.depthmap_s": depth_s,
        "volume_analysis.background_s": total("volume_analysis.background"),
        "volume_analysis.voxels_per_s": (attr_sum("volume_analysis.depthmap", "voxels") / depth_s
                                         if depth_s else 0.0),
        "stack_io.read_s": read_s,
        "stack_io.write_s": write_s,
        "stack_io.bytes_read_computed": read_b,
        "stack_io.bytes_written_computed": write_b,
        "stack_io.read_mb_s": read_b / 1e6 / read_s if read_s else 0.0,
        "stack_io.write_mb_s": write_b / 1e6 / write_s if write_s else 0.0,
    })
    return m
