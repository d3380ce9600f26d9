"""A fixed reference kernel that measures how fast the host runs right now.

On a shared VM the same code runs up to about 1.5x slower for phases of
seconds to tens of seconds, and process CPU time slows down with wall time,
so CPU time does not hide it. `HostClock` cuts every timed command into
chunks of about INTERVAL_S, runs the kernel between chunks, and scales each
chunk by the kernel's time at its two ends: a timing then reads as it would
on the reference host in a fast phase. Kernel time is outside every chunk.

The kernel imitates the program's op mix without calling it: small float64
numpy operations recorded as closures on a tape and replayed in reverse (the
shape of `sggkit.autodiff`), plus one masked dense softmax attention (the
shape of `local_attention` at large N). It never imports sggkit, so a change
to the program cannot change the yardstick.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time on the reference host (2-vCPU shared VM, Python 3.11, numpy
# with OpenBLAS on one thread) in a fast phase. It only sets the unit: a
# scaled timing is in seconds of that host.
REFERENCE_S = 0.041
INTERVAL_S = 0.3  # shortest chunk between two kernel runs

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((30, 16))
_W = _rng.standard_normal((16, 16)) * 0.1
_Q = _rng.standard_normal((450, 48))
_MASK = _rng.random((450, 450)) < 0.3


def _tape_steps(steps: int = 150) -> float:
    total = 0.0
    for _ in range(steps):
        tape = []
        h = _X
        for _layer in range(6):
            a = np.tanh(h @ _W)
            e = np.exp(a - a.max(axis=1, keepdims=True))
            h_next = a + 0.1 * e / e.sum(axis=1, keepdims=True)
            tape.append(lambda g, h=h, a=a: ((g * (1.0 - a * a)) @ _W.T, h.T @ (g * (1.0 - a * a))))
            h = h_next
        g = np.ones_like(h)
        for backward in reversed(tape):
            g, grad_w = backward(g)
        total += float(grad_w[0, 0])
    return total


def _dense_attention(reps: int = 3) -> float:
    total = 0.0
    for _ in range(reps):
        scores = np.where(_MASK, (_Q @ _Q.T) * 0.1, -1e9)
        scores -= scores.max(axis=1, keepdims=True)
        p = np.exp(scores)
        p /= p.sum(axis=1, keepdims=True)
        total += float((p.T @ (p @ _Q))[0, 0])
    return total


def kernel() -> float:
    return _tape_steps() + _dense_attention()


def kernel_time() -> tuple[float, float]:
    """(wall, thread CPU) seconds of one kernel run."""
    w0, c0 = time.perf_counter(), time.thread_time()
    kernel()
    return time.perf_counter() - w0, time.thread_time() - c0


class HostClock:
    """Scaled time of commands, chunk by chunk.

    `start` opens a command's first chunk. `tick`, called by the benchmark's
    wrappers at points inside the program's loops, closes the chunk once it
    is INTERVAL_S old (at once with force), runs the kernel and opens the
    next. `stop` closes the last chunk. A chunk's scale is REFERENCE_S over
    the mean kernel time at its two ends, for wall and for thread CPU time.
    With ticking off, a command is one chunk between two kernel runs.
    """

    def __init__(self):
        self.kernel = kernel_time()  # the latest kernel run, which opens the next chunk
        self.ticking = False
        self.raw_s = 0.0  # raw wall seconds of all closed chunks
        self.scaled_s = 0.0  # scaled wall seconds of all closed chunks
        self.chunk_scales: list[tuple[float, float]] = []  # (wall, cpu) scale per chunk of this command
        self._t = time.perf_counter()

    def start(self, ticking: bool) -> None:
        self.ticking = ticking
        self.chunk_scales = []
        self._t = time.perf_counter()

    def tick(self, force: bool = False) -> None:
        if self.ticking and (force or time.perf_counter() - self._t >= INTERVAL_S):
            self._close()

    def stop(self) -> None:
        self._close()
        self.ticking = False

    def _close(self) -> None:
        chunk = time.perf_counter() - self._t
        before, self.kernel = self.kernel, kernel_time()
        wall_scale = 2.0 * REFERENCE_S / (before[0] + self.kernel[0])
        cpu_scale = 2.0 * REFERENCE_S / (before[1] + self.kernel[1])
        self.chunk_scales.append((wall_scale, cpu_scale))
        self.raw_s += chunk
        self.scaled_s += chunk * wall_scale
        self._t = time.perf_counter()
