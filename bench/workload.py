"""One repetition of a benchmark workload in a fresh interpreter.

    PYTHONPATH=src python3 bench/workload.py --workload NAME --seed N
        [--trace 0|1] [--spans PATH]

Builds the inputs, times each public library call (traced when
``--trace 1``), checks the outputs outside the timed region and prints
one JSON object as the last line of standard output.  ``bench/run.py``
starts this process once per repetition.

While the calls run, a timer signal interrupts them every 0.4 s to take
a sample of the Fraction loop in ``bench/reference.py``, and the CPU
time spent there is taken out of every timing.  ``norm_wall_s`` is the
calls' wall time rescaled by the mean sample.  A sample taken only
between calls cannot see how the speed moves during a call of several
seconds, such as ``identity_space(H, (2, 2, 1))``.  No sample is taken
while the process has a second thread or a child process, so the
library's own threads or worker processes cannot slow the loop and
move the divisor; a sample is also taken before and after the calls.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import signal
import statistics
import sys
import threading
import time

import checks
import reference
import workloads

SAMPLE_EVERY_S = 0.4


def running_alone():
    """True while this process has one thread and no child process."""
    if threading.active_count() > 1:
        return False
    for path in glob.glob("/proc/self/task/*/children"):
        try:
            with open(path) as fh:
                if fh.read().strip():
                    return False
        except OSError:  # the thread ended meanwhile
            pass
    return True


class Sampler:
    """Samples the reference loop from a timer signal while the calls
    run.  ``clock`` is ``perf_counter`` minus the CPU time spent
    sampling; ``paused`` is that CPU time."""

    def __init__(self):
        self.samples = [reference.fraction_sample()]
        self.paused = 0.0

    def _on_timer(self, signum, frame):
        if not running_alone():
            return
        s = reference.fraction_sample()
        self.samples.append(s)
        self.paused += s

    def clock(self):
        while True:
            paused = self.paused
            now = time.perf_counter()
            if paused == self.paused:  # no sample taken in between
                return now - paused

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(reference.fraction_sample())


def measure(calls, sampler):
    """Run the ``(label, thunk)`` calls in order under ``sampler``.

    Returns the outputs, the wall seconds of each call and the CPU
    seconds of all of them, sampling excluded from both.
    """
    outputs, wall_s = [], []
    cpu0 = time.process_time()
    paused0 = sampler.paused
    with sampler:
        for _, thunk in calls:
            t0 = sampler.clock()
            outputs.append(thunk())
            wall_s.append(sampler.clock() - t0)
    cpu_s = time.process_time() - cpu0 - (sampler.paused - paused0)
    return outputs, wall_s, cpu_s


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    import numpy

    inputs = workloads.build(args.workload, args.seed)
    sampler = Sampler()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(
            f"{args.workload}-seed{args.seed}-pid{os.getpid()}", sampler.clock)
        tracing.install_all(tracer)

    calls = workloads.units(args.workload, inputs)
    outputs, wall_s, cpu_s = measure(calls, sampler)
    wall = sum(wall_s)
    ref = statistics.mean(sampler.samples)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "wall_s": wall,
        "norm_wall_s": wall * reference.FRACTION_NOMINAL_S / ref,
        "ref_s": ref,
        "samples": len(sampler.samples),
        "cpu_s": cpu_s,
        "unit_s": dict(zip((label for label, _ in calls), wall_s)),
        "peak_rss_mb": peak_kib / 1024,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "TWISTDIV_THREADS": os.environ.get("TWISTDIV_THREADS"),
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layers()
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"run": tracer.run_id, "spans": tracer.span_records()}, fh)

    tally = checks.check(args.workload, inputs, outputs, args.seed)
    result.update(attempted=tally.attempted, failed=tally.failed,
                  messages=tally.messages)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
