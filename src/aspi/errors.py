"""Exception types shared across the package, the thread-count check, and its worker pipeline.

All the exceptions subclass ValueError so callers that do not care about
the distinction can catch a single builtin type. run_ahead is the one way
the package runs work on threads: simulate renders its frames with it,
and the reconstructor computes its row chunks with it.
"""

from collections import deque


class AspiError(ValueError):
    """Base class for errors raised by this package."""


class DegenerateInputError(AspiError):
    """An input carries no usable signal (constant frame, zero-displacement anchor pair)."""


class EmptyMaskError(AspiError):
    """A mask with no positive energy where slits are required."""


class CoverageError(AspiError):
    """A probe or region falls below the illumination-coverage floor."""


class FwhmRangeError(AspiError):
    """A half-maximum crossing lies outside the sampled curve."""


class StackFormatError(AspiError):
    """A stack file violates the binary format contract."""


def check_threads(threads: int) -> None:
    """A worker thread count below 1 is a ValueError."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")


def run_ahead(work, items, outs, threads: int):
    """Yield work(item, out) for each item and out, in step and in order.

    Up to `threads` calls run at once on a pool of workers. The next call is
    submitted only when the caller asks for the next result, so while the
    caller holds a result at most threads - 1 calls run, a ring of
    `threads` outs suffices, and a result is valid until the caller asks
    for the next one. items and outs are drawn on the calling thread, as
    their calls are submitted. The pool is made on the first request and
    shut down when the iterator ends, is closed or raises, which re-raises
    an exception of work. With threads < 2 this is map(work, items, outs).
    """
    if threads < 2:
        yield from map(work, items, outs)
        return
    if "ThreadPoolExecutor" not in globals():
        __getattr__("ThreadPoolExecutor")
    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        ahead = deque()
        for item, out in zip(items, outs):
            ahead.append(pool.submit(work, item, out))
            if len(ahead) == threads:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def __getattr__(name):
    # concurrent.futures is imported by the first pool (or the first read of
    # ThreadPoolExecutor), not by every command; from then on the class is a
    # plain attribute of this module, which run_ahead looks up on each call
    global ThreadPoolExecutor
    if name != "ThreadPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor
