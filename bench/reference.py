"""Fixed pure-Python loops that measure how fast the CPU runs right now.

On a shared machine the speed at which a core runs interpreted code
drifts by up to 80 % within seconds, and the benchmark's times drift with
it.  Each sampler runs a fixed loop and returns the CPU time the
calling thread spent on it; a time ``t`` measured next to the samples
is reported at the nominal speed as ``t * nominal / mean(samples)``,
with the sampler's ``*_NOMINAL_S`` as ``nominal``.

Two loops, because on the VM the benchmark was defined on the
slowdowns hit allocation-heavy code harder than a tight loop.  The
library's calls move with ``fraction_sample``, ``Fraction`` arithmetic
like their own; interpreter start and imports move with
``integer_sample``, which needs no import, so a set-up interpreter can
sample it before importing anything.

CPU time, not wall time: time the thread spends waiting for the
interpreter lock or for a free core does not count, so threads or
processes that the library starts do not move the samples.  The loops
keep at most some 60 kB alive and run with the cyclic garbage
collector off.
"""

import functools
import gc
import time

# the medians of the two samplers on the 2-core Xeon VM the benchmark
# was defined on (Python 3.11.7); normalised times are at that speed
FRACTION_NOMINAL_S = 0.02
INTEGER_NOMINAL_S = 0.016

_FRACTION_ROUNDS = 10
_INTEGER_ITERATIONS = 150_000


def _cpu_seconds(loop):
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        loop()
        return time.thread_time() - t0
    finally:
        if enabled:
            gc.enable()


@functools.cache
def _fraction_args():
    from fractions import Fraction

    return ([Fraction(i % 97 + 1, i % 89 + 2) for i in range(500)],
            Fraction(3, 7), Fraction(1, 2))


def _fraction_loop():
    values, scale, shift = _fraction_args()
    for _ in range(_FRACTION_ROUNDS):
        for x in values:
            x * scale + shift


def _integer_loop():
    s = 0
    for i in range(_INTEGER_ITERATIONS):
        s += i * i % 7


def fraction_sample():
    """CPU seconds of the calling thread spent on 5 000 Fraction
    multiply-adds."""
    _fraction_args()
    return _cpu_seconds(_fraction_loop)


def integer_sample():
    """CPU seconds of the calling thread spent on a loop of integer
    arithmetic."""
    return _cpu_seconds(_integer_loop)
