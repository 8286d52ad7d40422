"""Green's relations, egg-box data, and Schuetzenberger groups."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .congruence import (FORMAL_IDENTITY, _canonical_classes, _member_links,
                         _merged_labels, _sccs, times)
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


@lru_cache(maxsize=256)
def green_data(s: FiniteSemigroup) -> GreenData:
    """Compute R, L, H, D and J as canonical class maps; asserts D = J.

    R, L and J are the strongly connected components of the right Cayley
    graph x -> x*g over s.generators, of the left one x -> g*x and of both
    (Froidure and Pin, "Algorithms for computing finite semigroups", 1997):
    x reaches y in them iff y is in xS^1, S^1x or S^1xS^1.  _sccs numbers
    the components successors first; _canonical_classes renumbers them by
    first occurrence.  H labels the pairs (R, L), and D = R v L is R's
    labels merged by L's member links, the lattice's join
    (congruence._merged_labels), apart from J, so that D = J is a real check."""
    n = s.size
    table = s.table
    gens = s.generators
    right = [[row[g] for g in gens] for row in table]
    left = list(zip(*[table[g] for g in gens]))  # g*x for each g, by x
    both = [[*r, *l] for r, l in zip(right, left)]
    r_class = _canonical_classes(_sccs(n, right.__getitem__))
    l_class = _canonical_classes(_sccs(n, left.__getitem__))
    j_class = _canonical_classes(_sccs(n, both.__getitem__))
    h_class = _canonical_classes(zip(r_class, l_class))
    root = _merged_labels(r_class, max(r_class) + 1, _member_links(l_class))
    d_class = _canonical_classes(map(root.__getitem__, r_class))
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
