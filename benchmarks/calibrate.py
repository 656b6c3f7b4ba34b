"""Host speed, measured by fixed pure-Python kernels beside each timed unit.

The benchmark runs on a few vCPUs of a shared host whose speed changes by
up to 2x within seconds: a fixed loop takes either about 0.4 ms or about
0.8 ms, and both states last from a fraction of a second to minutes. In
some hours the run-to-run spread of raw wall times is then 0.2-0.5 of the
median for the same code and inputs, which hides any change in seknow.

``Speed`` times a kernel just before and just after a unit of work and
converts the unit's wall time into *reference seconds*: the time the unit
would have taken with the kernel running at its reference time. The kernels
are part of the benchmark, not of seknow, so a change to seknow moves the
reference seconds exactly as it moves the wall time. Two kernels exist,
because the host's slow state does not slow all code alike:

* ``compute``: a small LCS table that stays in the core's caches. It tracks
  fuzzy matching, regex work, scoring and corpus generation.
* ``memory``: a key-filtered scan of a dict of 20,000 tuple-keyed entries,
  the access pattern that dominates ``build_topic_index``.
"""

from __future__ import annotations

import gc
import statistics
import time

# Kernel times in the host's fast state (2 vCPUs of a shared Sapphire Rapids
# Xeon, Python 3.11.7): reference seconds equal wall seconds in that state.
REFERENCE_S = {"compute": 0.00040, "memory": 0.0012}
REPEATS = 3

_A = "the quick brown fox jumps over"
_B = "a quick brown dog jumped over it"


def _compute_kernel(_state) -> int:
    for _ in range(2):
        prev = [0] * (len(_B) + 1)
        for ca in _A:
            cur = [0]
            for j, cb in enumerate(_B):
                cur.append(prev[j] + 1 if ca == cb else max(prev[j + 1], cur[j]))
            prev = cur
    return prev[-1]


def _memory_state() -> dict:
    """20,000 entries keyed like the index build's scores: ((entity, doc), token)."""
    tokens = [f"tok{i}" for i in range(997)]
    docs = [(f"e{i // 10}", f"d{i % 10}") for i in range(800)]
    return {(docs[i // 25], tokens[(i * 7) % 997]): float(i) for i in range(20000)}


def _memory_kernel(state: dict) -> int:
    key = ("e0", "d0")
    return len({tok: val for (k, tok), val in state.items() if k == key})


class Speed:
    """Converts wall seconds of a unit into reference seconds."""

    def __init__(self):
        self._memory = None  # built on first use: it costs 3 MB of the process's RSS

    def factor(self, kind: str) -> float:
        """Median kernel time over ``REPEATS`` runs, relative to its reference."""
        if kind == "memory" and self._memory is None:
            self._memory = _memory_state()
        kernel, state = (_compute_kernel, None) if kind == "compute" \
            else (_memory_kernel, self._memory)
        enabled = gc.isenabled()
        gc.disable()  # a collection of the workload's heap is not the host's speed
        try:
            times = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                kernel(state)
                times.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        return statistics.median(times) / REFERENCE_S[kind]

    def timed(self, kind: str, fn):
        """``fn()``'s result, wall seconds and reference seconds."""
        before = self.factor(kind)
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        return out, wall, wall / ((before + self.factor(kind)) / 2)
