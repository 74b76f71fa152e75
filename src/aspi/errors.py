"""Exception types shared across the package, the thread-count check, and its worker pipeline.

All the exceptions subclass ValueError so callers that do not care about
the distinction can catch a single builtin type. run_ahead is the one way
the package runs work on threads: simulate renders its frames with it,
and the reconstructor computes its row chunks with it. Its workers are
plain threading.Threads fed through a queue.SimpleQueue, so no command
loads concurrent.futures (and the logging and traceback modules it
imports). A thread per call would cost a GIL hand-off in every start.
threading and queue are imported only when run_ahead starts workers.
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

    Up to `threads` calls run at once, on as many worker threads, each
    started with the first call that needs it. The next call is submitted
    only when the caller asks for the next result, so while the caller
    holds a result at most threads - 1 calls run, a ring of `threads` outs
    suffices, and a result is valid until the caller asks for the next
    one. items and outs are drawn on the calling thread, as their calls are
    submitted. Every worker is joined when the iterator ends, is closed or
    raises, which re-raises an exception of work. With threads < 2 this is
    map(work, items, outs).
    """
    if threads < 2:
        yield from map(work, items, outs)
        return
    import threading
    from queue import SimpleQueue

    calls, workers, ahead = SimpleQueue(), [], deque()
    try:
        for item, out in zip(items, outs):
            if len(workers) < threads:
                worker = threading.Thread(target=_serve, args=(work, calls))
                worker.start()
                workers.append(worker)
            done = SimpleQueue()
            calls.put((done, item, out))
            ahead.append(done)
            if len(ahead) == threads:
                yield _result(ahead.popleft())
        while ahead:
            yield _result(ahead.popleft())
    finally:
        for _ in workers:
            calls.put(None)
        for worker in workers:
            worker.join()


def _serve(work, calls):
    # run work on each call's item and out until a None; they are let go
    # of before the worker waits for the next call
    for call in iter(calls.get, None):
        _call(work, *call)
        del call


def _call(work, done, item, out):
    try:
        done.put((True, work(item, out)))
    except BaseException as error:  # re-raised on the calling thread, in order
        done.put((False, error))


def _result(done):
    ok, value = done.get()
    if not ok:
        raise value
    return value
