"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the same work can run 40% slower for minutes at a time, far
more than the changes the benchmark has to resolve.  So the benchmark times
this kernel after each of its own measurements and reports times in
calibrated seconds::

    calibrated = measured * REFERENCE_S / kernel

where ``kernel`` is the mean of the kernel's time just before and just after
the measurement, each the median of three runs (the first run after a large
op pays for the caches that op evicted).  The kernel calls nothing from levsketch, so no change to
the library moves it.  It mixes the kinds of work the workloads spend their
time on (a row gather from a tall array, a tall least-squares solve, a QR of
a wide-ish matrix that does not fit in cache, many tiny solves and Python
float parsing, the last three in roughly equal shares), so it slows down
when they do.

For a workload that runs a pool of threads, the kernel runs as that many
concurrent copies (one on the helper's main thread, the others on a pool)
and a sample is their joint time divided by their number.
Such a workload slows down far more than one thread does when the host's
other cores are busy, and one copy alone does not see that.

The kernel runs in a helper process (this file run as a script), so that its
arrays and temporaries do not raise the peak memory of the process being
measured.  The helper times one sample for each line it reads on standard
input and exits at end of input.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

#: Kernel time on the machine the benchmark was defined on (2 vCPUs,
#: OpenBLAS 0.3.31, numpy 2.4); it only sets the scale of calibrated seconds.
REFERENCE_S = 0.12
RUNS_PER_SAMPLE = 3


class Kernel:
    def __init__(self) -> None:
        import numpy as np

        self._np = np
        rng = np.random.default_rng(20220125)
        self._tall = rng.standard_normal((50000, 7))
        self._rows = rng.integers(0, 50000, 27016)
        self._wide = rng.standard_normal((12000, 40))
        self._small = rng.standard_normal((24, 6))
        self._tokens = [format(v, ".16e") for v in rng.standard_normal(40000)]

    def run(self) -> float:
        """Run the kernel once and return its wall time in seconds."""
        np = self._np
        start = time.perf_counter()
        gathered = self._tall[self._rows, :] * 1.5
        np.linalg.lstsq(gathered[:, :5], gathered[:, 5:], rcond=None)
        np.linalg.qr(self._wide)
        for _ in range(1500):
            np.linalg.lstsq(self._small[:, :4], self._small[:, 4:], rcond=None)
        [float(t) for t in self._tokens]
        return time.perf_counter() - start

    def sample(self, pool: ThreadPoolExecutor, threads: int) -> float:
        def together() -> float:
            start = time.perf_counter()
            others = [pool.submit(self.run) for _ in range(threads - 1)]
            self.run()
            for other in others:
                other.result()
            return (time.perf_counter() - start) / threads

        return statistics.median(together() for _ in range(RUNS_PER_SAMPLE))


class Yardstick:
    """The kernel in a helper process; use as a context manager to stop it.

    ``threads`` is the number of pool threads of the workload being measured.
    """

    def __init__(self, threads: int) -> None:
        self._proc = subprocess.Popen([sys.executable, __file__, str(threads)],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.samples: list[float] = []
        try:
            self.samples.append(self.sample())
        except BaseException:
            self.close()
            raise

    def sample(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"yardstick helper exited with {self._proc.wait()}")
        return float(line)

    def calibrate(self, seconds: float) -> float:
        """Convert a duration that has just been measured to calibrated seconds."""
        before = self.samples[-1]
        self.samples.append(self.sample())
        return seconds * REFERENCE_S / ((before + self.samples[-1]) / 2)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> Yardstick:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve() -> None:
    threads = int(sys.argv[1])
    kernel = Kernel()
    with ThreadPoolExecutor(max(1, threads - 1)) as pool:
        for _ in sys.stdin:
            print(kernel.sample(pool, threads), flush=True)


if __name__ == "__main__":
    serve()
