"""Opt-in work counters.

Counting is off by default.  While `enabled` is true, the library adds what
it did to `counts` under dotted names, such as `congruence.pair_graph.sccs`;
a hot loop gathers its numbers in locals and adds them once per call, so
the disabled path costs one check.
"""
from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

enabled = False
counts: Counter = Counter()


@contextmanager
def counting():
    """Count from zero for the duration of the block; yields `counts`."""
    global enabled
    was = enabled
    counts.clear()
    enabled = True
    try:
        yield counts
    finally:
        enabled = was
