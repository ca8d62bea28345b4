"""A fixed pure-Python yardstick for the host's current speed.

On a shared host the speed of pointer-heavy Python code drifts by up
to 2x over tens of seconds (other tenants), far more than the effects
a benchmark must resolve.  The drift moves this yardstick and the
pipeline alike, so the benchmark times yardstick passes *interleaved*
with its own work and reports every time at the *reference speed*:

    reported = measured * REFERENCE_MS / median(nearby pass times)

(rates the other way round).  The yardstick touches nothing in
``repro``, so a change to the program cannot move it.  ``REFERENCE_MS``
is a constant (the yardstick's median on the 2-cpu host the benchmark
was written on); the traced run reports the measured median as
``yardstick.ms`` so the correction is visible.

Passes run in the benchmark process and only while none of the
measured work is in flight: after each ``cold-run`` program, between
server launches, between the short closed-loop segments of the server
workloads, and in the idle gaps of the open-loop schedule.  A pass
taken while the server works would measure contention instead (a
probe process running beside the server was tried and tracked the
server's speed poorly).
"""

from __future__ import annotations

import random
import statistics
import time

#: The yardstick's time at reference speed (ms).
REFERENCE_MS = 17.5


class _Node:
    __slots__ = ("kind", "kids", "val")

    def __init__(self, kind, kids, val):
        self.kind = kind
        self.kids = kids
        self.val = val


def _build(depth: int, rng: random.Random) -> _Node:
    if depth == 0:
        return _Node("leaf", (), rng.random())
    return _Node(f"n{depth % 5}",
                 tuple(_build(depth - 1, rng) for _ in range(3)), None)


def _walk(node: _Node, env: dict) -> float:
    if not node.kids:
        return node.val
    env = dict(env)
    env[node.kind] = len(env)
    return sum(_walk(kid, env) for kid in node.kids) + env[node.kind]


def once() -> float:
    """One yardstick pass: build and walk a tree of small objects,
    then count strings in a dict (allocation, attribute access, dict
    and recursion, the mix the pipeline spends its time on)."""
    tree = _build(7, random.Random(0))
    total = _walk(tree, {})
    counts: dict[str, int] = {}
    for i in range(20000):
        word = str(i * 7919 % 10007) + "x"
        counts[word] = counts.get(word, 0) + len(word)
    return total + sum(sorted(counts.values())[:10])


class Yardstick:
    """The passes of one run, each with its ``perf_counter`` stamp."""

    def __init__(self):
        self.passes: list[tuple[float, float]] = []  # (stamp, ms)

    def once(self) -> float:
        """One timed pass; returns its ms (also kept)."""
        t0 = time.perf_counter()
        once()
        ms = (time.perf_counter() - t0) * 1e3
        self.passes.append((t0, ms))
        return ms

    def burst(self, passes: int = 3) -> None:
        for _ in range(passes):
            self.once()

    @property
    def ms(self) -> float:
        return statistics.median(ms for _, ms in self.passes)

    @property
    def scale(self) -> float:
        """The factor from the median of every pass of the run."""
        return REFERENCE_MS / self.ms

    def scale_near(self, t0: float, t1: float, least: int = 4) -> float:
        """The factor for a time measured over ``[t0, t1]``: reference
        over the median of the passes in that interval, widened on
        both sides until it holds at least ``least`` passes."""
        pad = 0.25
        while True:
            near = [ms for stamp, ms in self.passes
                    if t0 - pad <= stamp <= t1 + pad]
            if len(near) >= least or pad > 1e4:
                return REFERENCE_MS / (statistics.median(near) if near
                                       else REFERENCE_MS)
            pad *= 2


def local_scales(passes_ms: list[float], reach: int = 2) -> list[float]:
    """Per-item scales from the passes interleaved with the items
    (``passes_ms[i]`` ran right after item ``i``): each item uses the
    median of the passes within ``reach`` of it, so the correction
    follows the host's speed as it drifts during the run."""
    out = []
    for i in range(len(passes_ms)):
        near = passes_ms[max(0, i - reach):i + reach]
        out.append(REFERENCE_MS / statistics.median(near))
    return out


#: Units of times (multiplied by a scale) and of rates (divided).
TIME_UNITS = ("s", "ms")
RATE_UNITS = ("1/s", "kB/s")


def at_reference_speed(metrics: dict, scale: float, keep=()) -> dict:
    """``metrics`` (name -> (value, unit)) with every time and rate
    corrected by ``scale``, except the names in ``keep``."""
    out = {}
    for name, (value, unit) in metrics.items():
        if name not in keep and unit in TIME_UNITS:
            value *= scale
        elif name not in keep and unit in RATE_UNITS:
            value /= scale
        out[name] = (value, unit)
    return out
