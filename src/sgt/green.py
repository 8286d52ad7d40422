"""Green's relations, egg-box data, and Schuetzenberger groups."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .congruence import (FORMAL_IDENTITY, _canonical_classes, _forest_classes,
                         _member_links, _merge, times)
from .core import (FiniteSemigroup, InternalAssertFailure, _index, classify,
                   from_cayley, sub_semigroup)


@dataclass(frozen=True)
class GreenData:
    r_class: tuple[int, ...]
    l_class: tuple[int, ...]
    h_class: tuple[int, ...]
    d_class: tuple[int, ...]
    j_class: tuple[int, ...]
    group_h_classes: frozenset[int]

    def h_members(self, h: int) -> list[int]:
        return [x for x, c in enumerate(self.h_class) if c == h]


def _principal_masks(rows) -> list[int]:
    """Bitmask of {a} and the a-th row's entries, for each a: aS^1 over the
    table's rows, S^1a over its columns."""
    masks = []
    for a, row in enumerate(rows):
        m = 1 << a
        for v in row:
            m |= 1 << v
        masks.append(m)
    return masks


@lru_cache(maxsize=256)
def green_data(s: FiniteSemigroup) -> GreenData:
    """Compute R, L, H, D and J as canonical class maps; asserts D = J."""
    n = s.size
    table = s.table
    columns = list(zip(*table))
    rmask = _principal_masks(table)
    lmask = _principal_masks(columns)
    r_class = _canonical_classes(rmask)
    l_class = _canonical_classes(lmask)
    h_class = _canonical_classes(zip(r_class, l_class))

    # D = R v L, the join of the two as equivalences
    d_class = _forest_classes(_merge(list(range(n)),
                                     _member_links(r_class) + _member_links(l_class)))

    # S^1aS^1 is aS^1 together with xS^1 for every x in Sa
    jmask = []
    for a, column in enumerate(columns):
        m = rmask[a]
        for x in column:
            m |= rmask[x]
        jmask.append(m)
    j_class = _canonical_classes(jmask)
    if d_class != j_class:
        raise InternalAssertFailure("D != J on a finite semigroup")

    groups = frozenset(h_class[x] for x in range(n) if table[x][x] == x)
    return GreenData(r_class=r_class, l_class=l_class, h_class=h_class,
                     d_class=d_class, j_class=j_class, group_h_classes=groups)


@dataclass(frozen=True)
class SchutzGroup:
    h_class: tuple[int, ...]
    stabilizer: tuple[int | None, ...]
    sigma_class_of: dict[int | None, int]
    group: FiniteSemigroup
    action_witness: dict[tuple[int, int], int]


def schutzenberger(s: FiniteSemigroup, element: int) -> SchutzGroup:
    """Right stabilizer of the H-class of `element`, modulo pointwise equality.

    The stabilizer is taken inside S^1 (the formal identity is FORMAL_IDENTITY,
    listed last); the quotient is returned as an explicit group table.
    """
    element = _index(element, "element", s.size)
    gd = green_data(s)
    members = tuple(gd.h_members(gd.h_class[element]))
    hset = frozenset(members)

    stab: list[int | None] = []
    for m in range(s.size):
        if frozenset(s.table[h][m] for h in members) == hset:
            stab.append(m)
    stab.append(FORMAL_IDENTITY)

    # m ~ m' iff they act alike on H; each class is represented by its first m
    labels = _canonical_classes(tuple(times(s, h, m) for h in members) for m in stab)
    class_of = dict(zip(stab, labels))
    size = max(labels) + 1
    reps = [stab[labels.index(c)] for c in range(size)]
    # products of stabilizer elements stay in the stabilizer
    table = [[class_of[times(s, reps[a], reps[b])] for b in range(size)]
             for a in range(size)]
    group = from_cayley(size, table)
    if not classify(group).group:
        raise InternalAssertFailure("stabilizer quotient is not a group")
    if size != len(members):
        raise InternalAssertFailure("stabilizer quotient size differs from |H|")

    witness = {(h, c): times(s, h, reps[c]) for h in members for c in range(size)}
    return SchutzGroup(h_class=members, stabilizer=tuple(stab),
                       sigma_class_of=class_of, group=group,
                       action_witness=witness)


def maximal_subgroups(s: FiniteSemigroup) -> list[tuple[tuple[int, ...], FiniteSemigroup]]:
    """The group H-classes with their multiplication tables."""
    gd = green_data(s)
    out = []
    for h in sorted(gd.group_h_classes):
        members = gd.h_members(h)
        out.append((tuple(members), sub_semigroup(s, members)))
    return out
