"""Machine-speed probe: fixed pieces of work timed between the program's
units of work, so that timings can be scaled to a reference speed.

On a shared host the same process can run at half its usual speed for
minutes, with CPU time growing as much as wall time (a slower core, not
waiting for one). Not all work slows alike: in such a state small NumPy
calls driven from Python took 2.4 to 2.6 times as long, batch-128 matrix
products 2.1 times; the program's set-up and single-window forecasts
slowed by 2.3 to 2.8, its training and batch forecasts by 1.9 to 2.2.
The probe therefore has two parts, timed apart:

- light: a transformer-like forward and backward of small NumPy calls on
  per-head slices at batch 128, six tokens of width 60, with a tape of
  Python objects; it alone scales set-up and serving cycles (LIGHT);
- heavy: full-width matrix products and tanh over the same batch.

Training and batch re-forecasts mix both kinds of work and are scaled by
the whole probe (WHOLE): in slow runs the light part alone made them read
10 to 25 % faster than in quiet runs, the heavy part alone up to 15 %
slower.

The probe never calls the program, so a slower program still reads
slower: only the machine's share of a change cancels. Nothing here
imports gwindcast.
"""

from __future__ import annotations

import resource
import time

import numpy as np

# Wall seconds of each part of a probe on the reference machine of
# README.md in its quiet state; a scaled timing is the time the work would
# have taken there. CPU time is scaled by the same reference. The heavy
# figure is derived, not timed: the machine stayed slowed while that part
# was written, so it comes from a quiet timing of the same products made
# with allocating calls (3.09 ms per 20 steps) and the two variants' ratio
# when slowed (0.93).
REF_S = {"light": 0.0171, "heavy": 0.0172}
LIGHT = ("light",)
WHOLE = ("light", "heavy")

BATCH, TOKENS, WIDTH, HEADS = 128, 6, 60, 4
LIGHT_ROUNDS = 12  # light forward and backward passes per probe
HEAVY_ROUNDS = 120  # heavy product, tanh and scale steps per probe


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    return own.ru_utime + own.ru_stime


class _Node:
    """One recorded op, as an autograd tape holds it."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = value
        self.grad = None


class Probe:
    """Times the light and the heavy part; see the module docstring.

    Every array is allocated once, here: the time of a fresh allocation of
    this size depends on the allocator's history in the process (glibc
    moves its mmap and trim thresholds as large blocks are freed), which
    halved or doubled the probe's time from one process to the next."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        hd = WIDTH // HEADS
        self.x = rng.normal(size=(BATCH, TOKENS, WIDTH))
        self.w = rng.normal(scale=0.1, size=(2, 3, HEADS, WIDTH, hd))
        self.h = np.empty_like(self.x)
        self.mix = np.empty_like(self.x)
        self.g = np.empty_like(self.x)
        self.qkv = np.empty((3, BATCH, TOKENS, hd))
        self.att = np.empty((2, HEADS, BATCH, TOKENS, TOKENS))
        self.row = np.empty((BATCH, TOKENS, 1))
        self.stat = np.empty((2, TOKENS, WIDTH))
        self.wide = rng.normal(scale=0.1, size=(WIDTH, WIDTH))
        self.flat = np.empty((2, BATCH * TOKENS, WIDTH))
        self.samples = []  # {part: (wall_s, cpu_s)} per probe

    def _heavy(self) -> float:
        h, t = self.flat
        np.copyto(h, self.x.reshape(-1, WIDTH))
        for _ in range(HEAVY_ROUNDS):
            np.matmul(h, self.wide, out=t)
            np.tanh(t, out=h)
            h *= 0.5
        return float(h[0, 0])

    def _light(self) -> float:
        tape = []
        h, mix, g, q, k, v = self.h, self.mix, self.g, *self.qkv
        hd = WIDTH // HEADS
        np.copyto(h, self.x)
        for layer in range(2):
            for j in range(HEADS):
                w = self.w[layer, :, j]
                np.matmul(h, w[0], out=q)
                np.matmul(h, w[1], out=k)
                np.matmul(h, w[2], out=v)
                att = self.att[layer, j]
                np.matmul(q, k.transpose(0, 2, 1), out=att)
                att *= 1.0 / np.sqrt(hd)
                np.exp(att, out=att)
                np.sum(att, axis=-1, keepdims=True, out=self.row)
                att /= self.row
                np.matmul(att, v, out=mix[:, :, j * hd:(j + 1) * hd])
                tape.append(_Node(att))
            h += mix
            mean, std = self.stat
            np.mean(h, axis=0, out=mean)
            np.std(h, axis=0, out=std)
            std += 1e-5
            h -= mean
            h /= std
            tape.append(_Node(h))
        g.fill(1.0 / g.size)
        for node in reversed(tape):
            node.grad = g
            if node.value.shape == g.shape:
                np.tanh(node.value, out=mix)
                mix *= 0.5
                mix += 1.0
                g *= mix
            else:
                g += 1e-3 * float(node.value[0, 0, 0])
        return float(g[0, 0, 0])

    def run(self) -> dict:
        """One probe: records and returns the wall and CPU seconds of each
        part."""
        sample = {}
        for part, work in (("light", lambda: [self._light() for _ in range(LIGHT_ROUNDS)]),
                           ("heavy", self._heavy)):
            t0, c0 = time.perf_counter(), cpu_seconds()
            work()
            sample[part] = (time.perf_counter() - t0, cpu_seconds() - c0)
        self.samples.append(sample)
        return sample


def probe_seconds(samples) -> tuple:
    """Wall and CPU seconds the probes took, both parts."""
    return (sum(t[0] for s in samples for t in s.values()),
            sum(t[1] for s in samples for t in s.values()))


def factors(samples, parts) -> tuple:
    """Slowdown against the reference machine over some probes: the mean
    wall and CPU time of the given parts, each divided by their reference."""
    ref = len(samples) * sum(REF_S[p] for p in parts)
    return (sum(s[p][0] for s in samples for p in parts) / ref,
            sum(s[p][1] for s in samples for p in parts) / ref)
