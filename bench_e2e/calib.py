"""A probe that measures how fast the CPU runs the jobs while they run.

The machine this benchmark was written on changes speed by up to 2x within a
minute, and each of its CPUs changes speed on its own within a second (other
tenants share them), so runs of the same jobs on the same inputs read far
apart.  Every process of a run is bound to one CPU (run.py), and while a job
runs, a `Probe` thread times a small fixed task on that CPU every
PERIOD_S, in CPU time of the thread.  The run scales each job's time to the
speed the probe saw during that job: a job time t is reported as
t * REFERENCE_S / (mean probe time during the job).

The task is a 14 x 14 row reduction over GF(p) in plain Python; it never
imports intres, so no change to the program changes it.  README.md gives the
spreads with and without the scaling.
"""

import random
import threading
import time

# Mean probe time on the reference machine (2 vCPUs, Python 3.11.7) while a
# job runs on the same CPU: a job at that speed is reported unscaled.
REFERENCE_S = 0.00058
# Pause between two probe tasks: the probe takes about 1.5% of the CPU.
PERIOD_S = 0.05
P = 10007
_RNG = random.Random(2)
_ROWS = [[_RNG.randrange(P) for _ in range(14)] for _ in range(14)]


def _reduce(rows):
    """Row-reduce `rows` over GF(P) in place."""
    n, m = len(rows), len(rows[0])
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, n) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        s = pow(rows[r][c], P - 2, P)
        rows[r] = [x * s % P for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % P for x, y in zip(rows[i], rows[r])]
        r += 1


def task_s():
    """CPU seconds of this thread for the fixed task."""
    rows = [row[:] for row in _ROWS]
    t0 = time.thread_time()
    _reduce(rows)
    return time.thread_time() - t0


class Probe:
    """Times task_s every PERIOD_S while the `with` block runs, appending the
    timings to `samples`."""

    def __init__(self, samples):
        self.samples = samples
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run)

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            self.samples.append(task_s())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def job_scales(probes):
    """For each job's probe samples, the factor that takes the job's time to
    the reference speed; a job too short for a sample gets the run's."""
    every = [x for samples in probes for x in samples]
    run_scale = REFERENCE_S * len(every) / sum(every) if every else 1.0
    return [REFERENCE_S * len(s) / sum(s) if s else run_scale for s in probes]
