"""In-memory span tracer that wraps the package's public layer functions
from outside the package.

A span is (id, name, parent id, start ns, end ns).  Each benchmark operation
opens a root span, so the spans of one operation share their root.  A
layer's self time is its span's duration minus the time covered by traced
calls made inside it; the wrapper's own bookkeeping is charged to no layer,
so it shows only as the difference between traced and untraced wall time.
"""

from array import array
import functools
import time

import numpy as np

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.names = ["bench.op"]
        self.keep_spans = False
        self._stack = []
        self._next_id = 0
        self._wrapped = []  # (owner, attribute, original, wrapper)
        self.spans = {k: array("q") for k in ("id", "name", "parent", "start", "end")}
        self.op_keys = []  # key of each root span, in order
        self.reset()

    def reset(self):
        """Zero the per-pass aggregates (calls, self time, extra counters)."""
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.extra = {}
        self.deferred = []  # (hook, args, result) evaluated after the pass

    def _record(self, sid, name, parent, start, end):
        s = self.spans
        s["id"].append(sid)
        s["name"].append(name)
        s["parent"].append(parent)
        s["start"].append(start)
        s["end"].append(end)

    def add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value

    def wrap(self, owner, attr, name, after=None, defer=None):
        """Prepare a timing wrapper for owner.attr; `install` puts it in
        place.  `after(tracer, args, result)` runs at once, outside every
        span; `defer` is stored with its arguments and run by `finish_pass`,
        for hooks too costly to run while the pass is timed."""
        fn = getattr(owner, attr)
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = _now()
            sid = self._next_id
            self._next_id = sid + 1
            frame = [0, sid]
            stack.append(frame)
            try:
                start = _now()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = _now()
                    stack.pop()
                    self.calls[idx] += 1
                    self.self_ns[idx] += end - start - frame[0]
                    if self.keep_spans:
                        self._record(sid, idx, stack[-1][1] if stack else -1,
                                     start, end)
                if after is not None:
                    after(self, args, result)
                if defer is not None:
                    self.deferred.append((defer, args, result))
                return result
            finally:
                if stack:
                    stack[-1][0] += _now() - enter

        self._wrapped.append((owner, attr, fn, wrapper))

    def install(self):
        for owner, attr, _, wrapper in self._wrapped:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, fn, _ in self._wrapped:
            setattr(owner, attr, fn)

    def op(self, call, key):
        """Run one benchmark operation under a root span."""
        sid = self._next_id
        self._next_id = sid + 1
        frame = [0, sid]
        self._stack.append(frame)
        start = _now()
        try:
            return call()
        finally:
            end = _now()
            self._stack.pop()
            self.calls[0] += 1
            self.self_ns[0] += end - start - frame[0]
            if self.keep_spans:
                self._record(sid, 0, -1, start, end)
                self.op_keys.append(key)

    def finish_pass(self):
        for hook, args, result in self.deferred:
            hook(self, args, result)
        self.deferred = []

    def snapshot(self):
        """Per-name calls and self seconds, plus extra counters, of the
        pass just finished."""
        return {
            "calls": dict(zip(self.names, self.calls)),
            "self_s": {n: ns / 1e9 for n, ns in zip(self.names, self.self_ns)},
            "extra": dict(self.extra),
        }

    def write_spans(self, path):
        """Write the kept spans as arrays in a compressed .npz file."""
        arrays = {k: np.frombuffer(v, dtype=np.int64) if len(v) else
                  np.zeros(0, dtype=np.int64) for k, v in self.spans.items()}
        np.savez_compressed(path, names=np.array(self.names),
                            op_keys=np.array(self.op_keys), **arrays)
        return len(self.spans["id"])
