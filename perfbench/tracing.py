"""Spans around the public callables on the experiment path.

The traced run wraps, from outside the package, each layer's entry point:

    harness.run_single
      algorithms.init            (nests the objective calls below)
      harness.run_until_stagnation
        algorithms.step.<alg>
          core.value_batch       ObjectiveSpec.value_batch and its lambda
            benchmarks.value_batch
              kernels.value      kernels.VALUE[f]
      algorithms.best
      audit                      ObjectiveSpec.grad at the returned point
    harness.summarize
    harness.write                write_records / write_summary / write_curves

Spans stay in memory as ``(name, start, end, parent, count)`` tuples; the
count is the rows of a kernel call or the evaluations of a step.  A span's
self time is its duration minus the durations of its children: runs are
sequential, so children never overlap.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter

from stagbench import algorithms as algos
from stagbench import benchmarks, core, harness, kernels


class Tracer:
    """In-memory span recorder; one instance per traced grid."""

    def __init__(self):
        self.spans = []
        self.improvements = 0
        self._open = []

    def _enter(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._open.append(idx)
        return idx

    def _exit(self, idx: int, name: str, start: float, count: int = 0) -> None:
        end = perf_counter()
        self._open.pop()
        parent = self._open[-1] if self._open else -1
        self.spans[idx] = (name, start, end, parent, count)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._enter()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx, name, start)

        return traced

    def wrap_kernel(self, fn):
        def traced(X):
            idx = self._enter()
            start = perf_counter()
            try:
                return fn(X)
            finally:
                self._exit(idx, "kernels.value", start, X.shape[0])

        return traced

    def wrap_step(self, fn):
        def traced(state):
            before = state.evaluations
            idx = self._enter()
            start = perf_counter()
            nxt = state
            try:
                nxt = fn(state)
                return nxt
            finally:
                self._exit(
                    idx,
                    "algorithms.step." + state.algorithm,
                    start,
                    nxt.evaluations - before,
                )

        return traced

    def wrap_loop(self, fn, step_fn):
        def traced(state, T, max_generations, step_fn=step_fn, capture=False):
            idx = self._enter()
            start = perf_counter()
            try:
                out = fn(state, T, max_generations, step_fn=step_fn, capture=capture)
            finally:
                self._exit(idx, "harness.run_until_stagnation", start)
            self.improvements += out[0].tracker.improvement_count
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced callable for the duration of the block."""
        saved = []

        def patch(owner, attr, value):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        for f in benchmarks.FUNCTIONS:
            saved.append((kernels.VALUE, f, kernels.VALUE[f]))
            kernels.VALUE[f] = self.wrap_kernel(kernels.VALUE[f])
        patch(benchmarks, "value_batch", self.wrap("benchmarks.value_batch", benchmarks.value_batch))
        patch(core.ObjectiveSpec, "value_batch", self.wrap("core.value_batch", core.ObjectiveSpec.value_batch))
        patch(core.ObjectiveSpec, "grad", self.wrap("audit", core.ObjectiveSpec.grad))
        patch(algos, "init", self.wrap("algorithms.init", algos.init))
        patch(algos, "best", self.wrap("algorithms.best", algos.best))
        step = self.wrap_step(algos.step)
        patch(harness, "run_until_stagnation", self.wrap_loop(harness.run_until_stagnation, step))
        patch(harness, "run_single", self.wrap("harness.run_single", harness.run_single))
        patch(harness, "summarize", self.wrap("harness.summarize", harness.summarize))
        for writer in ("write_records", "write_summary", "write_curves"):
            patch(harness, writer, self.wrap("harness.write", getattr(harness, writer)))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                if isinstance(owner, dict):
                    owner[attr] = value
                else:
                    setattr(owner, attr, value)

    def totals(self):
        """Per span name: calls, summed duration, summed self time, summed count."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        dur = defaultdict(float)
        self_s = defaultdict(float)
        count = defaultdict(int)
        for i, (name, start, end, _, n) in enumerate(self.spans):
            calls[name] += 1
            dur[name] += end - start
            self_s[name] += end - start - child[i]
            count[name] += n
        return calls, dur, self_s, count

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("span,name,start_s,end_s,parent,count\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent, n) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent},{n}\n")
