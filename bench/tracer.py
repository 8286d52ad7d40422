"""Outside-in span tracer for the sgt benchmark.

The tracer wraps the public functions listed in WRAPPED and patches the
wrapper into every ``sgt`` module namespace that binds the original
function, because most callers import by name (``from .core import
from_cayley``) and ``classify`` reaches ``green.green_data`` through a
module attribute.  Nothing inside ``src/`` is changed.

Each call records a span (name, start, end, parent span, op id).  Spans
stay in memory; ``write_spans`` dumps them when the run ends.  Self time
is a span's duration minus the time covered by its child spans; spans
nest strictly because the program is single-threaded.
"""
from __future__ import annotations

import importlib
import sys
import time

WRAPPED = {
    "core": ("from_cayley", "from_transformations", "direct_product",
             "sub_semigroup", "subsemigroup_closure", "classify"),
    "green": ("green_data", "schutzenberger"),
    "congruence": ("rc_generate", "join", "enumerate_right_congruences",
                   "right_congruence", "minimal_generating_pairs",
                   "quotient_semigroup", "find_x_sequence", "rc_diameter"),
    "structure": ("rees_structure", "rees_construct", "rees_coordinates"),
    "verify": ("sweep", "verify_fg_gens", "verify_lclass_gens",
               "verify_dp_gens", "verify_schutz_gens", "verify_quotient_gens",
               "verify_ideal_gens", "verify_extend_gens",
               "two_sided_congruences", "ideals_with_identity"),
    "cli": ("parse_input", "run"),
}

NAMES = tuple(f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns)
CACHED = ("core.classify", "green.green_data")
ENUMERATE = NAMES.index("congruence.enumerate_right_congruences")


class Tracer:
    """Collects spans and per-function counters while installed."""

    def __init__(self):
        self.originals = {}
        for mod, fns in WRAPPED.items():
            module = importlib.import_module(f"sgt.{mod}")
            for fn in fns:
                self.originals[f"{mod}.{fn}"] = getattr(module, fn)
        self.spans: list[tuple] = []  # (name index, start, end, parent, op)
        self.calls = [0] * len(NAMES)
        self.self_s = [0.0] * len(NAMES)
        self.counters = {"cayley_cells": 0, "cayley_scan_ops": 0,
                         "cayley_max_n": 0, "joins_tried": 0, "joins_new": 0}
        # lru_cache (hits, misses) while installed; None where the cache is gone
        self.cache = {name: None if self._cache_info(name) is None else [0, 0]
                      for name in CACHED}
        self.op = -1
        self._stack: list[list] = []  # [span id, child time, name index]
        self._seen: list[set] = []  # congruences found by each running enumeration
        self._patched: list[tuple] = []
        self._cache_start: dict = {}

    def _cache_info(self, name):
        info = getattr(self.originals[name], "cache_info", None)
        return None if info is None else info()

    # -- installation -------------------------------------------------
    def install(self) -> None:
        """Patch a wrapper over every binding of each traced function."""
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self.originals.items()}
        for modname, module in list(sys.modules.items()):
            if modname != "sgt" and not modname.startswith("sgt."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))
        self._cache_start = {name: self._cache_info(name) for name in CACHED}

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
        for name, tally in self.cache.items():
            info, start = self._cache_info(name), self._cache_start[name]
            if tally is not None and info is not None:
                tally[0] += info.hits - start.hits
                tally[1] += info.misses - start.misses

    # -- recording ----------------------------------------------------
    def _wrap(self, name, fn):
        idx = NAMES.index(name)
        hook = {"core.from_cayley": self._after_from_cayley,
                "congruence.rc_generate": self._after_rc_generate,
                "congruence.join": self._after_join}.get(name)
        spans, stack, calls, self_s = self.spans, self._stack, self.calls, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [len(spans), 0.0, idx]
            spans.append(None)
            stack.append(frame)
            if idx == ENUMERATE:
                s = args[0] if args else kwargs["s"]
                self._seen.append({tuple(range(s.size))})
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                calls[idx] += 1
                self_s[idx] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                spans[frame[0]] = (idx, t0, t1,
                                   -1 if parent is None else parent[0], self.op)
                if idx == ENUMERATE:
                    self._seen.pop()
            if hook is not None:
                hook(args, kwargs, result, None if parent is None else parent[2])
            return result

        traced.__wrapped__ = fn
        return traced

    def _after_from_cayley(self, args, kwargs, result, parent):
        n = args[0] if args else kwargs["n"]
        c = self.counters
        c["cayley_cells"] += n * n
        # the blocked numpy scan gathers t[t[i]] and t[i, t]: 2 n^3 entries
        c["cayley_scan_ops"] += 2 * n ** 3
        c["cayley_max_n"] = max(c["cayley_max_n"], n)

    def _after_rc_generate(self, args, kwargs, result, parent):
        # the enumeration generates its principal congruences directly
        if parent == ENUMERATE and self._seen:
            self._seen[-1].add(result.class_of)

    def _after_join(self, args, kwargs, result, parent):
        # mirrors the enumeration's own bookkeeping: a join is new when its
        # partition was not among those found so far
        if not self._seen:
            return
        self.counters["joins_tried"] += 1
        if result.class_of not in self._seen[-1]:
            self.counters["joins_new"] += 1
            self._seen[-1].add(result.class_of)

    # -- merging and output -------------------------------------------
    def export(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s,
                "counters": self.counters, "cache": self.cache,
                "spans": self.spans}

    def absorb(self, data: dict, op: int) -> None:
        """Merge an exported tracer (a child process's) as op ``op``."""
        offset = len(self.spans)
        self.spans.extend((idx, t0, t1, -1 if par < 0 else par + offset, op)
                          for idx, t0, t1, par, _ in data["spans"])
        for k in range(len(NAMES)):
            self.calls[k] += data["calls"][k]
            self.self_s[k] += data["self_s"][k]
        for key, value in data["counters"].items():
            if key == "cayley_max_n":
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value
        for name, tally in data["cache"].items():
            if tally is None or self.cache[name] is None:
                self.cache[name] = None
            else:
                self.cache[name] = [a + b for a, b in zip(self.cache[name], tally)]

    def write_spans(self, path) -> None:
        """Write spans as CSV: name,start,end,parent row (-1 for a root),op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op\n")
            for idx, t0, t1, parent, op in self.spans:
                fh.write(f"{NAMES[idx]},{t0!r},{t1!r},{parent},{op}\n")
