"""In-memory spans around srlab's layer boundaries, for the traced run only.

Each wrapper replaces a function at the module attribute its caller looks
up (``srlab.fuzz.check_weyl``, ``srlab.cli.read_matrix``,
``numpy.linalg.svd``, ...) and restores it on ``uninstall``. A span is
``[name, parent index, start, end]``; the benchmark opens one root span
per op, so spans of one op share that root. Counts are taken at the same
boundaries.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
from collections import Counter

import numpy as np

DECOMPOSITIONS = ("svd", "eigvalsh", "eigh", "qr")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._seen: dict[str, set] = {}
        self._patches: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, time.perf_counter(), None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, name: str) -> int:
        """Open an op's root span; distinct-input sets are per op."""
        self._seen = {}
        return self.open(name)

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn, on_call=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:  # outside any op, e.g. a correctness check
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if on_call is not None:
                on_call(args)
            return result

        return wrapper

    def _decomp_wrapper(self, kind, fn):
        def on_call(args):
            a = np.ascontiguousarray(args[0])
            key = hashlib.blake2b(a.tobytes(), digest_size=16)
            key.update(repr((a.shape, a.dtype.str)).encode())
            self.counts[f"{kind}_calls"] += 1
            self._seen.setdefault(kind, set()).add(key.digest())

        return self._span_wrapper(f"decomp.{kind}", fn, on_call)

    def _count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _file_wrapper(self, name, fn, counter):
        def on_call(args):
            self.counts[counter] += os.path.getsize(args[0])

        return self._span_wrapper(name, fn, on_call)

    def end_op(self, index: int) -> None:
        self.close(index)
        for kind, keys in self._seen.items():
            self.counts[f"{kind}_distinct"] += len(keys)
        self._seen = {}

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, _get(owner, attr)))
        _set(owner, attr, wrapper)

    def wrap(self, owner, attr, name) -> None:
        self._patch(owner, attr, self._span_wrapper(name, _get(owner, attr)))

    def wrap_count(self, owner, attr, name) -> None:
        self._patch(owner, attr, self._count_wrapper(name, _get(owner, attr)))

    def wrap_decompositions(self) -> None:
        for kind in DECOMPOSITIONS:
            self._patch(np.linalg, kind, self._decomp_wrapper(kind, getattr(np.linalg, kind)))

    def wrap_file(self, owner, attr, name, counter) -> None:
        self._patch(owner, attr, self._file_wrapper(name, _get(owner, attr), counter))

    def uninstall(self) -> None:
        while self._patches:
            _set(*self._patches.pop())

    # -- reading ------------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans, one JSON list per line: name, parent index, start, end.

        Times are seconds from the first span's start.
        """
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, parent, start, end in self.spans:
                fh.write(json.dumps([name, parent, round(start - t0, 7), round(end - t0, 7)]) + "\n")

    def op_layers(self) -> list[dict[str, float]]:
        """Per root span: seconds per span name, counting nested same-name spans once.

        Also gives ``<name>.self`` (duration minus child spans) and the
        root under key ``op``.
        """
        per_op: list[dict[str, float]] = []
        children_time: dict[int, float] = {}
        root_of: dict[int, int] = {}
        for i, (name, parent, start, end) in enumerate(self.spans):
            duration = end - start
            if parent is None:
                root_of[i] = len(per_op)
                per_op.append({"op": duration})
                continue
            root_of[i] = root_of[parent]
            children_time[parent] = children_time.get(parent, 0.0) + duration
            if not self._nested_in_same(parent, name):
                layers = per_op[root_of[i]]
                layers[name] = layers.get(name, 0.0) + duration
        for i, (name, parent, start, end) in enumerate(self.spans):
            layers = per_op[root_of[i]]
            key = "op.self" if parent is None else f"{name}.self"
            layers[key] = layers.get(key, 0.0) + (end - start) - children_time.get(i, 0.0)
        return per_op

    def _nested_in_same(self, index, name) -> bool:
        while index is not None:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][1]
        return False


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)
