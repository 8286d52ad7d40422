"""Right congruences generated by pair sets, connecting sequences, enumeration."""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from . import trace
from .core import (FiniteSemigroup, InternalAssertFailure, RangeError, _derived, _index,
                   _trusted)

#: Multiplier standing for the formal identity of S^1; serialized as "1".
FORMAL_IDENTITY = None


def times(s: FiniteSemigroup, x: int | None, m: int | None) -> int | None:
    """The product x*m in S^1, where either factor may be FORMAL_IDENTITY."""
    if m is FORMAL_IDENTITY:
        return x
    if x is FORMAL_IDENTITY:
        return m
    return s.table[x][m]


class CapExceeded(RuntimeError):
    def __init__(self, partial_count: int):
        super().__init__(f"congruence count exceeded cap (found {partial_count} so far)")
        self.partial_count = partial_count


class NotTwoSided(ValueError):
    def __init__(self, witness):
        a, b, t = witness
        super().__init__(f"left compatibility fails: {a} ~ {b} but {t}*{a} !~ {t}*{b}")
        self.witness = witness


@dataclass(frozen=True)
class PairSet:
    parent: FiniteSemigroup
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        n = self.parent.size
        object.__setattr__(self, "pairs", frozenset(
            (_index(a, "pair entry", n), _index(b, "pair entry", n)) for a, b in self.pairs))

    def symmetrized(self) -> frozenset[tuple[int, int]]:
        return self.pairs | {(y, x) for (x, y) in self.pairs}

    def __iter__(self):
        return iter(sorted(self.pairs))

    def __len__(self):
        return len(self.pairs)


def pair_set(s: FiniteSemigroup, pairs: PairSet | Iterable[tuple[int, int]]) -> PairSet:
    """pairs as a PairSet of s: a PairSet of s as it is, else a new PairSet
    of s (its constructor checks the entries)."""
    if isinstance(pairs, PairSet) and pairs.parent == s:
        return pairs
    return PairSet(parent=s, pairs=pairs)


def _congruence_on(table, rho: RightCongruence, what: str = "rho") -> RightCongruence:
    """Only for a congruence that a second value must match."""
    if rho.parent.table != table:
        raise RangeError(f"{what} is a congruence of another semigroup")
    return rho


@dataclass(frozen=True)
class RightCongruence:
    """A right congruence of parent as a class map.  The constructor checks
    for one int label per element (numpy integers are stored as ints),
    numbered by first occurrence (RangeError otherwise), and right
    compatibility (ValueError naming the first witness otherwise)."""

    parent: FiniteSemigroup
    class_of: tuple[int, ...]

    def __post_init__(self):
        if trace.enabled:
            trace.counts["congruence.checked"] += 1
        s, labels = self.parent, tuple(self.class_of)
        if len(labels) != s.size:
            raise RangeError("class map length must equal semigroup size")
        if set(map(type, labels)) != {int}:
            labels = tuple([_index(c, "class label") for c in labels])
        if list(dict.fromkeys(labels)) != list(range(max(labels) + 1)):  # first occurrences
            raise RangeError(f"class map must number its classes by first occurrence, got {labels}")
        if bad := _incompatible(s, labels):  # (a, b, t)
            raise ValueError("not right compatible: {0} ~ {1} but {0}*{2} !~ {1}*{2}".format(*bad))
        object.__setattr__(self, "class_of", labels)

    @cached_property
    def index(self) -> int:
        return max(self.class_of) + 1

    def classes(self) -> list[list[int]]:
        return _class_lists(self.class_of, self.index)

    def related(self, a: int, b: int) -> bool:
        n = len(self.class_of)
        return self.class_of[_index(a, "element", n)] == self.class_of[_index(b, "element", n)]

    @cached_property
    def _links(self) -> tuple[tuple[int, int], ...]:
        return _member_links(self.class_of)


def _member_links(class_of) -> tuple[tuple[int, int], ...]:
    """(first member, member) for every member but the first of each class."""
    first: dict = {}
    return tuple((f, x) for x, c in enumerate(class_of) if (f := first.setdefault(c, x)) != x)


def _canonical_classes(keys) -> tuple[int, ...]:
    """Class labels numbered by first occurrence."""
    seen: dict = {}
    return tuple([seen.setdefault(k, len(seen)) for k in keys])


def _class_lists(class_of, count: int) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(count)]
    for x, c in enumerate(class_of):
        out[c].append(x)
    return out


def _incompatible(s: FiniteSemigroup, class_of,
                  two_sided: bool = False) -> tuple[int, int, int] | None:
    """First (a, b, t) with a ~ b but a*t !~ b*t (or, when two_sided,
    t*a !~ t*b), else None.  Classes go in order of first occurrence, then
    consecutive members (a, b), which suffice by transitivity, then t.

    Only t in the generating set is tried first: the translations that keep
    the partition are closed under products, so if every generator keeps
    it, all of S does.  The full scan runs only when a generator fails, to
    report the first witness.
    """
    table = s.table
    groups: dict = {}
    for x, c in enumerate(class_of):
        groups.setdefault(c, []).append(x)
    links = [(a, b) for members in groups.values() for a, b in zip(members, members[1:])]
    gens = s.generators
    if all(class_of[table[a][g]] == class_of[table[b][g]] for a, b in links for g in gens) and (
            not two_sided or all(class_of[table[g][a]] == class_of[table[g][b]]
                                 for a, b in links for g in gens)):
        return None
    for a, b in links:
        row_a, row_b = table[a], table[b]
        for t in range(s.size):
            if class_of[row_a[t]] != class_of[row_b[t]] or (
                    two_sided and class_of[table[t][a]] != class_of[table[t][b]]):
                return a, b, t
    return None


def right_congruence(s: FiniteSemigroup, class_of: Iterable) -> RightCongruence:
    """The right congruence whose classes are those of a map from the elements
    to any hashable keys, numbered by first occurrence; its constructor checks it."""
    return RightCongruence(parent=s, class_of=_canonical_classes(class_of))


def identity_congruence(s: FiniteSemigroup) -> RightCongruence:
    return _trusted(RightCongruence, parent=s, class_of=tuple(range(s.size)), index=s.size)


def universal_congruence(s: FiniteSemigroup) -> RightCongruence:
    return _trusted(RightCongruence, parent=s, class_of=(0,) * s.size, index=1)


def _find(parent: list[int], a: int) -> int:
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def _merge(parent: list[int], links: Iterable[tuple[int, int]]) -> list[int]:
    """The join, as equivalences, of what the links relate: each link (f, x)
    is merged into the forest in place, and nothing is translated."""
    for f, x in links:
        rx, rf = _find(parent, x), _find(parent, f)
        if rx != rf:
            parent[rx] = rf
    return parent


def _forest_classes(parent: list[int]) -> tuple[int, ...]:
    return _canonical_classes([_find(parent, x) for x in range(len(parent))])


def _close(s: FiniteSemigroup, pairs: Iterable[tuple[int, int]] = (),
           closed: Iterable[tuple[int, ...]] = (),
           two_sided: bool = False,
           within: RightCongruence | None = None) -> RightCongruence:
    """Union-find saturation: the least right (or two-sided) congruence
    containing the pairs and the partitions in `closed`.

    Each partition in `closed` must be a congruence of the kind built: its
    classes are merged by _merge, untranslated, and the transitive closure
    of compatible equivalences is compatible.  Every union that a pair adds
    is queued and translated on the right by each generator of s (and on
    the left too when two_sided) until the queue empties.  That is enough:
    every union then relates its translates by each generator, so by
    transitivity every pair of the result does, and by induction on word
    length so do its translates by every element of S.

    A caller that knows a congruence `within` of the kind built, which
    relates every pair and holds every partition in `closed`, may pass it.
    Every union then relates translates of pairs of within, so the
    partition refines within all along, and equals it once it has
    within.index classes: the saturation stops there and returns within
    itself.  A result that is not within is a strictly finer congruence.
    """
    if trace.enabled:
        trace.counts["congruence.close.calls"] += 1
    n = s.size
    table = s.table
    parent = _merge(list(range(n)), itertools.chain.from_iterable(map(_member_links, closed)))
    index = sum(p == x for x, p in enumerate(parent))  # the classes so far
    stop = 0 if within is None else within.index  # index >= 1 never reaches 0
    queue = []

    def union(a, b):
        nonlocal index
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            parent[rb] = ra
            queue.append((a, b))
            index -= 1

    for a, b in pairs:
        union(a, b)
    gens = s.generators
    left = [table[g] for g in gens] if two_sided else []
    while queue and index != stop:
        a, b = queue.pop()
        row_a, row_b = table[a], table[b]
        for g in gens:
            union(row_a[g], row_b[g])
        for row in left:
            union(row[a], row[b])
    if index == stop:
        if trace.enabled:
            trace.counts["congruence.close.stopped"] += 1
        return within
    return _trusted(RightCongruence, parent=s, class_of=_forest_classes(parent), index=index)


def rc_generate(s: FiniteSemigroup, x: PairSet | Iterable[tuple[int, int]],
                two_sided: bool = False) -> RightCongruence:
    """Smallest right (or two-sided) congruence containing the pairs, by
    union-find saturation from the identity partition."""
    return _close(s, pair_set(s, x).pairs, two_sided=two_sided)


@dataclass(frozen=True)
class XStep:
    x: int
    y: int
    s: int | None  # FORMAL_IDENTITY for the formal multiplier


@dataclass(frozen=True)
class XSequence:
    parent: FiniteSemigroup
    a: int
    b: int
    steps: tuple[XStep, ...]

    def __len__(self):
        return len(self.steps)


def _sequence_edges(s: FiniteSemigroup, x: PairSet):
    """Adjacency u -> [(label, v)] with label = (x, y, s-key); s-key n is the formal
    identity.  Labels are made in increasing order, so each list is sorted as built."""
    n = s.size
    adj: list[list[tuple[tuple[int, int, int], int]]] = [[] for _ in range(n)]
    for (px, py) in sorted(x.symmetrized()):
        for m in range(n + 1):
            u, v = (s.table[px][m], s.table[py][m]) if m < n else (px, py)
            adj[u].append(((px, py, m), v))
    return adj


def _distances(adj, src: int) -> list[int]:
    """The one BFS behind sequences and the diameter; -1 where unreachable."""
    dist = [-1] * len(adj)
    dist[src] = 0
    frontier = deque([src])
    while frontier:
        u = frontier.popleft()
        for _, v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                frontier.append(v)
    return dist


def find_x_sequence(s: FiniteSemigroup, x: PairSet | Iterable[tuple[int, int]],
                    a: int, b: int) -> XSequence | None:
    """Shortest connecting sequence from a to b, or None when none exists.

    A connecting sequence of length k is a = c1*t1, d1*t1 = c2*t2, ...,
    dk*tk = b, where each step's pair (ci, di) lies in X or is the reverse
    of a pair of X, and each multiplier ti lies in S^1; the formal identity
    stands for the 1 of S^1. a and b are connected exactly when they are
    related by the right congruence generated by X.

    Among shortest sequences the lexicographically least list of step
    records (x, y, s) is returned, with the formal identity ordered after
    all real multipliers.
    """
    x = pair_set(s, x)
    a, b = _index(a, "endpoint", s.size), _index(b, "endpoint", s.size)
    if a == b:
        return XSequence(parent=s, a=a, b=b, steps=())
    adj = _sequence_edges(s, x)
    n = s.size
    dist = _distances(adj, b)
    if dist[a] < 0:
        return None
    steps = []
    u, remaining = a, dist[a]
    while remaining:
        for label, v in adj[u]:
            if dist[v] == remaining - 1:
                px, py, m = label
                steps.append(XStep(x=px, y=py, s=m if m < n else FORMAL_IDENTITY))
                u, remaining = v, remaining - 1
                break
        else:
            raise InternalAssertFailure("BFS tree walk lost the path")
    return XSequence(parent=s, a=a, b=b, steps=tuple(steps))


@dataclass(frozen=True)
class Disconnected:
    index: int


def rc_diameter(s: FiniteSemigroup, x: PairSet | Iterable[tuple[int, int]]) -> int | Disconnected:
    """Max over all pairs of the shortest connecting-sequence length.

    Sequences are those of find_x_sequence: each step uses a pair of X or
    its reverse, with a multiplier in S^1 (the formal identity standing for
    the 1 of S^1).

    Defined only when the generated right congruence is universal; otherwise
    returns Disconnected carrying the actual index.
    """
    x = pair_set(s, x)
    rho = rc_generate(s, x)
    if rho.index != 1:
        return Disconnected(index=rho.index)
    adj = _sequence_edges(s, x)
    best = 0
    for src in range(s.size):
        dist = _distances(adj, src)
        if min(dist) < 0:
            raise InternalAssertFailure("universal congruence but sequence graph disconnected")
        best = max(best, max(dist))
    return best


@dataclass(frozen=True)
class CongruenceLattice:
    parent: FiniteSemigroup
    congruences: tuple[RightCongruence, ...]

    def __len__(self):
        return len(self.congruences)


def within_class_pairs(rho: RightCongruence) -> list[tuple[int, int]]:
    return [p for members in rho.classes() for p in itertools.combinations(members, 2)]


def join(rho: RightCongruence, sigma: RightCongruence) -> RightCongruence:
    """Least congruence above both: sigma's classes merged into rho's partition.

    Both are closed already, so the merged partition is closed too and no
    union needs translating; joins of two-sided congruences are therefore
    two-sided.  The merge is a union-find over rho's class labels, driven
    by sigma's links.  When nothing merges, the join is rho itself.
    """
    sigma = _congruence_on(rho.parent.table, sigma, "sigma")
    return _relabelled(rho, _merged_labels(rho.class_of, rho.index, sigma._links))


def _merged_labels(cls, count: int, links: Iterable[tuple[int, int]]) -> list[int]:
    """For each of the count labels of a class map cls, the least label
    that the links, pairs of elements, merge it with: the join of cls and
    the equivalence the links generate, by a union-find over the labels,
    not the elements.  join passes rho's class map and sigma's member
    links, green_data R's class map and L's member links, and the
    irreducibility test the identity's class map and the member links of
    the principals below sigma.  A link inside one label is skipped."""
    root = list(range(count))
    for f, x in links:
        rf, rx = cls[f], cls[x]
        if rf == rx:
            continue
        while root[rf] != rf:
            rf = root[rf]
        while root[rx] != rx:
            rx = root[rx]
        if rf < rx:
            root[rx] = rf
        elif rx < rf:
            root[rf] = rx
    for c, p in enumerate(root):  # p <= c, so root[p] is final already
        root[c] = root[p]
    return root


def _relabelled(rho: RightCongruence, root: list[int]) -> RightCongruence:
    """rho with its labels merged to their roots: a root is its group's least
    label, the first in S, so numbering roots in order gives canonical labels."""
    relabel = _canonical_classes(root)
    index = max(relabel) + 1
    if index == rho.index:  # nothing merged
        return rho
    return _trusted(RightCongruence, parent=rho.parent,
                    class_of=tuple(map(relabel.__getitem__, rho.class_of)), index=index)


def _sccs(n: int, succ) -> list[int]:
    """The component number of each node of the graph on range(n) whose
    node v has successors succ(v), numbered successors first: an edge that
    leaves a component enters one with a lower number.  Tarjan's algorithm
    (1972), with a stack of successor iterators in place of recursion; a
    node's low-link becomes its component number once its component is
    done."""
    order = [0] * n  # depth-first number from 1, 0 while unvisited
    low = [0] * n
    path = []  # visited nodes not yet in a component, in order of visit
    visited = done = 0
    for root in range(n):
        if order[root]:
            continue
        visited += 1
        order[root] = low[root] = visited
        path.append(root)
        frames = [(root, iter(succ(root)))]
        while frames:
            v, edges = frames[-1]
            for w in edges:
                if not order[w]:
                    visited += 1
                    order[w] = low[w] = visited
                    path.append(w)
                    frames.append((w, iter(succ(w))))
                    break
                if order[w] < low[v]:
                    low[v] = order[w]
            else:
                frames.pop()
                if frames and low[v] < low[frames[-1][0]]:
                    low[frames[-1][0]] = low[v]
                if low[v] == order[v]:
                    k = len(path) - 1
                    while path[k] != v:
                        k -= 1
                    for w in path[k:]:
                        order[w] = n + 1  # above every low-link from now on
                        low[w] = done
                    del path[k:]
                    done += 1
    return low


def _principals(s: FiniteSemigroup,
                two_sided: bool = False) -> list[tuple[int, int, RightCongruence]]:
    """The distinct principal right (or two-sided) congruences <(a, b)>,
    each with its first pair a < b, in lexicographic order of those pairs,
    from the pair graph of enumerate_right_congruences (with the edges
    {x, y} -> {gx, gy} too when two_sided).  _sccs numbers the components
    successors first, so the components that one reaches in an edge are
    built before it."""
    n = s.size
    table = s.table
    moves = [[row[g] for row in table] for g in s.generators]  # x -> x*g
    if two_sided:
        moves += [table[g] for g in s.generators]  # x -> g*x
    # node ids in lexicographic order of the pairs: {x, y} is off[x] + y
    off = [x * n - x * (x + 3) // 2 - 1 for x in range(n)]
    pairs = list(itertools.combinations(range(n), 2))
    succ = [[off[u] + w if u < w else off[w] + u
             for m in moves if (u := m[x]) != (w := m[y])] for x, y in pairs]
    principal: dict[tuple[int, ...], RightCongruence] = {}  # the distinct ones, by class map
    rho_of: list[RightCongruence | None] = [None] * len(pairs)  # each node's, once built
    component = _sccs(len(pairs), succ.__getitem__)
    components = _class_lists(component, max(component, default=-1) + 1)
    for members in components:
        # a successor outside the component is in one built before it
        reached = {id(r): r for v in members for w in succ[v] if (r := rho_of[w]) is not None}
        links = [pairs[v] for v in members]
        for r in reached.values():
            links += r._links
        cls = _forest_classes(_merge(list(range(n)), links))
        rho = principal.setdefault(cls, _trusted(RightCongruence, parent=s, class_of=cls,
                                                 index=max(cls) + 1))
        for v in members:
            rho_of[v] = rho
    if trace.enabled:
        trace.counts.update({"congruence.pair_graph.nodes": len(pairs),
                             "congruence.pair_graph.sccs": len(components),
                             "congruence.principals": len(principal)})
    first: dict[int, tuple[int, int, RightCongruence]] = {}  # by id(<(a, b)>), in node order
    for (a, b), rho in zip(pairs, rho_of):
        first.setdefault(id(rho), (a, b, rho))
    return list(first.values())


def _principal_closure(s: FiniteSemigroup, two_sided: bool = False,
                       cap: int | None = None) -> list[RightCongruence]:
    """All right (or two-sided) congruences, ordered by (-index, class_of),
    by the close-by-one walk of enumerate_right_congruences.  The walk holds
    each congruence rho as (-index, class map) only.  A stack entry (rho,
    start, witness) maps each i whose merge failed the canonicity test at an
    ancestor to the earlier pair k that it related, so that rho skips
    sigma_i unless it relates k.  After the walk the tuples are sorted and
    each becomes a RightCongruence, unchecked and with its index: it is a
    join of principal congruences, each closed, and so closed itself."""
    principal = _principals(s, two_sided)
    if cap is not None and 1 + len(principal) > cap:  # the identity and the principals
        raise CapExceeded(cap + 1)
    n = s.size
    identity = tuple(range(n))
    irreducible = []
    for a, b, sigma in principal:
        # the links of the principals strictly below sigma: those of larger
        # index whose pair sigma relates; their join misses (a, b) exactly
        # when it is not sigma = <(a, b)>
        cls = sigma.class_of
        below = [link for c, d, tau in principal if tau.index > sigma.index and cls[c] == cls[d]
                 for link in tau._links]
        root = _merged_labels(identity, n, below)
        if root[a] != root[b]:
            irreducible.append((a, b, sigma))
    found = [(-n, identity)]  # (-index, class map): the identity, then each kept join
    stack = [(found[0], 0, {})]
    tried = skipped = 0  # label merges made, and skipped on a witness
    while stack:
        (neg_index, cls), start, inherited = stack.pop()
        # i -> k < i: a pair that rho v sigma_i relates; rho's children share
        # it, and each copies it when popped, after rho's loop has filled it
        witness = dict(inherited)
        earlier = []  # (k, rho's labels of pair k) for the pairs k < i rho does not relate
        for i, (a, b, sigma) in enumerate(irreducible):
            if cls[a] == cls[b]:
                continue
            if i >= start:
                k = witness.get(i)
                if k is not None and cls[irreducible[k][0]] != cls[irreducible[k][1]]:
                    skipped += 1  # rho v sigma_i relates pair k as well
                else:
                    tried += 1
                    root = _merged_labels(cls, -neg_index, sigma._links)
                    k = next((k for k, c, d in earlier if root[c] == root[d]), None)
                    if k is None:
                        # a root is its group's least label, so roots in order are canonical
                        relabel = _canonical_classes(root)
                        found.append((-1 - max(relabel), tuple(map(relabel.__getitem__, cls))))
                        if cap is not None and len(found) > cap:
                            raise CapExceeded(len(found))
                        stack.append((found[-1], i + 1, witness))
                    else:
                        witness[i] = k
            earlier.append((i, cls[a], cls[b]))
    if trace.enabled:
        trace.counts.update({"congruence.walk.merges_tried": tried,
                             "congruence.walk.merges_skipped": skipped,
                             "congruence.walk.merges_kept": len(found) - 1})
    found.sort()
    return [_trusted(RightCongruence, parent=s, class_of=cls, index=-neg_index)
            for neg_index, cls in found]


def enumerate_right_congruences(s: FiniteSemigroup,
                                cap: int | None = None) -> CongruenceLattice:
    """All right congruences: the joins of the join-irreducible principal
    ones, each built once by close-by-one.

    Every right congruence rho is the join of the principal right
    congruences <(a, b)> of its own pairs: it contains each of them, and
    together they relate all of its pairs.  <(a, b)> is the equivalence
    generated by the pairs reachable from {a, b} in the pair graph, whose
    nodes are the pairs {x, y}, x < y, with an edge to {xg, yg} for each
    generator g of s unless xg = yg.  So the pairs of one strongly
    connected component generate one congruence: its own pairs merged,
    untranslated, with the congruences of the components it reaches in one
    edge, and no pair is saturated.  In a finite lattice every element is
    a join of join-irreducible ones, and those are principal here, so only
    the join-irreducible principals sigma_i are kept, each with its first
    pair (a_i, b_i), in order of those pairs: a principal is dropped when
    the principal ones strictly below it join to it, that is, when their
    member links, merged over the identity's labels, relate its first
    pair.  Let C(rho) be the
    set of i with rho relating (a_i, b_i), that is, sigma_i <= rho.  As
    rho is the join of the sigma_i below it, rho -> C(rho) is injective,
    onto the sets closed under X -> C(join of the sigma_i, i in X).  The
    close-by-one walk (Kuznetsov 1993) with Ganter's canonicity test
    (1984) yields each closed set once: from (identity, 0), for a pair
    (rho, start) and each i >= start not in C(rho), j = join(rho, sigma_i)
    is kept, and walked on as (j, i + 1), only when C(j) adds no index
    below i to C(rho).  Each join merges classes of two closed partitions
    and re-saturates nothing, and the test reads the merged labels before
    a class map is built.  The walk holds class maps and class counts
    only; each RightCongruence is built once, after the walk, with its
    index set.  A failed test is passed down to the descendants
    (fast close-by-one, Outrata and Vychodil 2012): when
    C(join(rho, sigma_i)) holds some k < i not in C(rho), every rho' >= rho
    has k in C(join(rho', sigma_i)), so a descendant rho' with k not in
    C(rho') skips that join, and only one that holds k makes it.

    Congruences are ordered by decreasing index, then by class map.
    Raises CapExceeded as soon as the count passes the cap, which must be
    None or a non-negative int (RangeError otherwise).  The cap bounds the
    count of congruences, not memory: it is first tested after the pair
    graph, n(n - 1)/2 nodes, is built.
    """
    if cap is not None:
        cap = _index(cap, "cap")
    return CongruenceLattice(parent=s, congruences=tuple(_principal_closure(s, cap=cap)))


def minimal_generating_pairs(rho: RightCongruence,
                             exact_limit: int = 12) -> tuple[PairSet, bool]:
    """A pair set of rho.parent generating rho, with an optimality flag.

    Candidates are the within-class pairs.  When there are at most
    exact_limit candidates the minimum-cardinality subset, first in
    lexicographic order, is found by iterative deepening (optimal=True);
    otherwise a greedy cover is built (optimal=False).  exact_limit must
    be a non-negative int (RangeError otherwise).

    The answer depends only on the table, rho's class map and exact_limit,
    so after exact_limit is checked a search runs once per question and
    semigroup instance: rho.parent memoizes, by (rho.class_of, exact_limit),
    the pairs found and the flag, and every call wraps them in a new
    PairSet of rho.parent, so that the memo makes no reference cycle.
    """
    s = rho.parent
    exact_limit = _index(exact_limit, "exact_limit")
    key = (rho.class_of, exact_limit)
    memo = s._generating_pairs_memo
    if key not in memo:
        pairs, optimal = _search_generating_pairs(rho, exact_limit)
        memo[key] = (frozenset(pairs), optimal)
        if trace.enabled:
            trace.counts["congruence.generating_pairs.searches"] += 1
    elif trace.enabled:
        trace.counts["congruence.generating_pairs.memo_hits"] += 1
    pairs, optimal = memo[key]
    return _trusted(PairSet, parent=s, pairs=pairs), optimal


def _search_generating_pairs(rho: RightCongruence,
                             exact_limit: int) -> tuple[list[tuple[int, int]], bool]:
    """minimal_generating_pairs' search, on a checked rho and exact_limit."""
    s = rho.parent
    candidates = sorted(within_class_pairs(rho))
    if not candidates:
        return [], True
    if len(candidates) <= exact_limit:
        for k in range(1, len(candidates) + 1):
            combo = _first_combination(s, candidates, rho, 0, identity_congruence(s), k)
            if combo is not None:
                return combo, True
        raise InternalAssertFailure("within-class pairs must generate their congruence")
    chosen: list[tuple[int, int]] = []
    current = identity_congruence(s)
    while current.class_of != rho.class_of:
        best = None
        for c in candidates:
            if current.related(*c):
                continue
            trial = _close(s, [c], closed=(current.class_of,))
            # trial refines rho, so every pair it relates is a candidate
            gain = sum(len(m) * (len(m) - 1) for m in trial.classes())
            if best is None or gain > best[0]:
                best = (gain, c, trial)
        chosen.append(best[1])
        current = best[2]
    return chosen, False


def _first_combination(s: FiniteSemigroup, candidates, target: RightCongruence, start: int,
                       prefix: RightCongruence, k: int) -> list[tuple[int, int]] | None:
    """The first k-combination of candidates[start:], in lexicographic order,
    that closes onto prefix to target, else None, walked depth first.  The
    candidates are target's within-class pairs, so every closure refines
    target and _close returns target itself once it is reached.  A pair
    that the prefix already relates is skipped with all its extensions:
    they close like a smaller combination, and every smaller one has
    failed."""
    if k == 0:
        return [] if prefix is target else None
    cls = prefix.class_of
    for i in range(start, len(candidates) - k + 1):
        a, b = candidates[i]
        if cls[a] != cls[b]:
            rest = _first_combination(s, candidates, target, i + 1,
                                      _close(s, [(a, b)], closed=(cls,), within=target), k - 1)
            if rest is not None:
                return [(a, b), *rest]
    return None


def quotient_semigroup(rho: RightCongruence) -> FiniteSemigroup:
    """Quotient of rho.parent by a two-sided congruence; classes keep their
    canonical order.  The quotient of a semigroup by a two-sided congruence,
    which _incompatible checks, is a semigroup, so its table is not checked."""
    s, cls = rho.parent, rho.class_of
    bad = _incompatible(s, cls, two_sided=True)
    if bad is not None:
        raise NotTwoSided(bad)
    groups = rho.classes()
    # compatibility makes the products of representatives well defined
    reps = [members[0] for members in groups]
    table = [[cls[s.table[ra][rb]] for rb in reps] for ra in reps]
    return _derived(table, ["|".join(map(s.label, members)) for members in groups])
