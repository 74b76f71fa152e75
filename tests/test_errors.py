"""errors.run_ahead: at most `threads` calls at once, results in order, every worker joined."""

import threading
import time
from itertools import repeat

import pytest

from aspi.errors import run_ahead


def drawn_on(idents, values):
    # the values, recording the thread that draws each
    for value in values:
        idents.add(threading.get_ident())
        yield value


@pytest.mark.parametrize("threads", [2, 3])
def test_at_most_threads_calls_and_workers_with_a_slow_caller(started_threads, threads):
    baseline = threading.active_count()
    lock, running, peaks, drawn = threading.Lock(), [0], [], set()

    def work(item, out):
        with lock:
            running[0] += 1
            peaks.append((running[0], threading.active_count() - baseline))
        time.sleep(0.002)
        with lock:
            running[0] -= 1
        return item * out

    results = []
    for result in run_ahead(work, drawn_on(drawn, range(8)), drawn_on(drawn, repeat(10)),
                            threads):
        # while the caller holds a result, at most threads - 1 calls run
        with lock:
            assert running[0] <= threads - 1
        assert threading.active_count() - baseline <= threads
        time.sleep(0.01)  # slower than a call: the workers wait for the caller
        results.append(result)
    assert results == [10 * i for i in range(8)]
    assert max(calls for calls, _ in peaks) <= threads
    assert max(workers for _, workers in peaks) <= threads
    assert len(started_threads) == threads
    assert drawn == {threading.get_ident()}
    assert threading.active_count() == baseline


@pytest.mark.parametrize("threads", [2, 3])
def test_an_error_in_the_second_call_is_raised_in_order_and_every_worker_joined(
        started_threads, threads):
    baseline = threading.active_count()

    def work(item, out):
        if item == 1:
            raise KeyError(item)
        time.sleep(0.005)
        return item

    results = []
    with pytest.raises(KeyError):
        for result in run_ahead(work, range(8), repeat(None), threads):
            results.append(result)
            time.sleep(0.01)
    assert results == [0]
    assert len(started_threads) == threads
    assert threading.active_count() == baseline


@pytest.mark.parametrize("threads", [2, 3])
def test_close_after_the_first_result_joins_every_worker(started_threads, threads):
    baseline = threading.active_count()

    def work(item, out):
        time.sleep(0.005)
        return item

    results = run_ahead(work, range(8), repeat(None), threads)
    assert next(results) == 0
    assert threading.active_count() == baseline + threads
    results.close()
    assert len(started_threads) == threads
    assert threading.active_count() == baseline


def test_one_thread_is_a_plain_map(started_threads):
    caller = threading.get_ident()
    calls = run_ahead(lambda item, out: (item, out, threading.get_ident()), range(4), "abcd", 1)
    assert list(calls) == [(i, c, caller) for i, c in zip(range(4), "abcd")]
    assert started_threads == []
