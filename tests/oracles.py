"""Independent brute-force oracles; deliberately naive, never shared with src."""
from __future__ import annotations

import itertools
import operator
from collections import deque


def set_partitions(n):
    """All partitions of range(n) as canonical class maps (first-occurrence ids)."""
    def rec(k, assignment, blocks):
        if k == n:
            yield tuple(assignment)
            return
        for b in range(blocks):
            assignment.append(b)
            yield from rec(k + 1, assignment, blocks)
            assignment.pop()
        assignment.append(blocks)
        yield from rec(k + 1, assignment, blocks + 1)
        assignment.pop()

    yield from rec(0, [], 0)


def is_right_compatible(s, class_of):
    n = s.size
    for a in range(n):
        for b in range(n):
            if class_of[a] == class_of[b]:
                for t in range(n):
                    if class_of[s.table[a][t]] != class_of[s.table[b][t]]:
                        return False
    return True


def is_left_compatible(s, class_of):
    n = s.size
    for a in range(n):
        for b in range(n):
            if class_of[a] == class_of[b]:
                for t in range(n):
                    if class_of[s.table[t][a]] != class_of[s.table[t][b]]:
                        return False
    return True


def canonical(class_of):
    seen = {}
    out = []
    for c in class_of:
        if c not in seen:
            seen[c] = len(seen)
        out.append(seen[c])
    return tuple(out)


def meet(partitions):
    """Common refinement of class maps."""
    return canonical(tuple(zip(*partitions)))


def partition_join(p1, p2):
    """Transitive closure of the union of two partitions (plain set merging)."""
    n = len(p1)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in (p1, p2):
        firsts = {}
        for x in range(n):
            if p[x] in firsts:
                parent[find(x)] = find(firsts[p[x]])
            else:
                firsts[p[x]] = x
    return canonical(find(x) for x in range(n))


def contains_pairs(class_of, pairs):
    return all(class_of[a] == class_of[b] for a, b in pairs)


def brute_first_nonassociative(rows, triples=None):
    """First (i, j, k) with (ij)k != i(jk), else None: among the given
    triples, or among all of them in lexicographic order."""
    n = len(rows)
    if triples is None:
        triples = itertools.product(range(n), repeat=3)
    for i, j, k in triples:
        if rows[rows[i][j]][k] != rows[i][rows[j][k]]:
            return (i, j, k)
    return None


def is_square_table(rows):
    """Every row has one entry per row, and every entry is an int (not a
    bool) naming a row."""
    n = len(rows)
    return n > 0 and all(len(row) == n and all(
        type(v) is int and 0 <= v < n for v in row) for row in rows)


def x_sequence_holds(seq):
    """Every step identity of a connecting sequence, re-verified by direct
    multiplication; a multiplier of None is the formal identity."""
    def times(x, m):
        return x if m is None else seq.parent.table[x][m]

    cur = seq.a
    for st in seq.steps:
        if times(st.x, st.s) != cur:
            return False
        cur = times(st.y, st.s)
    return cur == seq.b


def brute_rees_table(group_table, i_size, j_size, p, with_zero):
    """The matrix semigroup's table, one triple product per cell:
    (i1, g1, j1)(i2, g2, j2) = (i1, g1 p[j1][i2] g2, j2), or the zero when
    p[j1][i2] is None; triples in lexicographic order, the zero last."""
    g = group_table
    triples = list(itertools.product(range(i_size), range(len(g)), range(j_size)))
    index = {t: k for k, t in enumerate(triples)}
    zero = len(triples)

    def mul(x, y):
        (i1, g1, j1), (i2, g2, j2) = x, y
        if p[j1][i2] is None:
            return zero
        return index[(i1, g[g[g1][p[j1][i2]]][g2], j2)]

    rows = [[mul(x, y) for y in triples] + [zero] * with_zero for x in triples]
    return rows + [[zero] * (zero + 1)] * with_zero


def brute_rees(group, i_size, j_size, p, with_zero):
    """The matrix semigroup's table, by brute_rees_table, and its labels
    "(i,g,j)" over the group's labels, triples in lexicographic order, then
    "0" for the zero; both made at once."""
    labels = [f"({i},{group.label(g)},{j})" for i, g, j in
              itertools.product(range(i_size), range(group.size), range(j_size))]
    return (brute_rees_table(group.table, i_size, j_size, p, with_zero),
            labels + ["0"] * with_zero)


def brute_diagonal_cyclic_witness(s):
    """First (a, b) whose right orbit {(a*t, b*t)} is all of S x S, by a scan
    of every pair."""
    n = s.size
    for a in range(n):
        for b in range(n):
            if len({(s.table[a][t], s.table[b][t]) for t in range(n)}) == n * n:
                return (a, b)
    return None


def brute_closure(s, seed):
    """Smallest superset of seed closed under products, by squaring until stable."""
    members = set(seed)
    while True:
        grown = members | {s.table[a][b] for a in members for b in members}
        if grown == members:
            return tuple(sorted(members))
        members = grown


def brute_ideals_with_identity(s):
    """(ideal, identity) for every two-sided ideal with an internal identity,
    by scanning all 2^n subsets in (size, members) order."""
    out = []
    for size in range(1, s.size + 1):
        for subset in itertools.combinations(range(s.size), size):
            mset = set(subset)
            if any(s.table[a][x] not in mset or s.table[x][a] not in mset
                   for a in subset for x in range(s.size)):
                continue
            e = next((c for c in subset
                      if all(s.table[c][v] == v == s.table[v][c] for v in subset)),
                     None)
            if e is not None:
                out.append((subset, e))
    return out


def brute_right_congruences(s):
    """Every right-compatible partition, by exhaustive scan."""
    return [p for p in set_partitions(s.size) if is_right_compatible(s, p)]


def brute_generated(s, pairs, two_sided=False):
    """Intersection of all right-compatible (and, when two_sided, also
    left-compatible) partitions containing the pairs."""
    fitting = [p for p in brute_right_congruences(s) if contains_pairs(p, pairs)
               and (not two_sided or is_left_compatible(s, p))]
    return meet(fitting)


def first_pair_principals(n, generate):
    """The principal loop of old: generate([(a, b)]) for every pair a < b
    in lexicographic order, each distinct class map it returns kept with
    its first pair, as (class map, a, b) in the order of those pairs."""
    first = {}
    for a in range(n):
        for b in range(a + 1, n):
            first.setdefault(generate([(a, b)]), (a, b))
    return [(class_of, a, b) for class_of, (a, b) in first.items()]


def reachable(succ, v):
    """The nodes reachable from v in the graph with successors succ, v included."""
    seen = {v}
    frontier = [v]
    while frontier:
        for w in succ(frontier.pop()):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def first_incompatible(s, class_of, two_sided=False):
    """The full scan for a compatibility witness: the first (a, b, t), over
    classes by first occurrence, consecutive members (a, b), then every t in
    S, with a*t !~ b*t (or, when two_sided, t*a !~ t*b); else None."""
    groups = {}
    for x, c in enumerate(class_of):
        groups.setdefault(c, []).append(x)
    for members in groups.values():
        for a, b in zip(members, members[1:]):
            for t in range(s.size):
                if class_of[s.table[a][t]] != class_of[s.table[b][t]]:
                    return a, b, t
                if two_sided and class_of[s.table[t][a]] != class_of[s.table[t][b]]:
                    return a, b, t
    return None


def greedy_generating_pairs(s, class_of):
    """The greedy cover of minimal_generating_pairs with its first gain: each
    round adds the first candidate (a within-class pair a < b) whose trial
    congruence relates the most candidates not yet related."""
    congruences = brute_right_congruences(s)

    def generated(pairs):
        return meet([p for p in congruences if contains_pairs(p, pairs)])

    n = s.size
    candidates = [(a, b) for a in range(n) for b in range(a + 1, n)
                  if class_of[a] == class_of[b]]
    chosen = []
    current = generated(chosen)
    while current != canonical(class_of):
        best = None
        for c in candidates:
            if current[c[0]] == current[c[1]]:
                continue
            trial = generated(chosen + [c])
            gain = sum(1 for a, b in candidates
                       if trial[a] == trial[b] and current[a] != current[b])
            if best is None or gain > best[0]:
                best = (gain, c, trial)
        chosen.append(best[1])
        current = best[2]
    return chosen


def brute_sequence_distance(s, pairs, a, b):
    """BFS over connecting sequences with edges rebuilt by triple scan.

    Returns the step count, or None if no sequence connects a and b.
    """
    if a == b:
        return 0
    n = s.size
    sym = set(pairs) | {(y, x) for (x, y) in pairs}

    def neighbours(u):
        out = set()
        for (x, y) in sym:
            for t in range(n):
                if s.table[x][t] == u:
                    out.add(s.table[y][t])
            if x == u:  # formal identity multiplier
                out.add(y)
        return out

    dist = {a: 0}
    queue = deque([a])
    while queue:
        u = queue.popleft()
        for v in neighbours(u):
            if v not in dist:
                dist[v] = dist[u] + 1
                if v == b:
                    return dist[v]
                queue.append(v)
    return None


def brute_diameter(s, pairs):
    """Max pairwise sequence distance; None when some pair is unreachable."""
    worst = 0
    for a in range(s.size):
        for b in range(s.size):
            d = brute_sequence_distance(s, pairs, a, b)
            if d is None:
                return None
            worst = max(worst, d)
    return worst


def principal_ideal_classes(s):
    """Class maps of Green's R, L and J: a R b iff aS^1 = bS^1, a L b iff
    S^1a = S^1b, a J b iff S^1aS^1 = S^1bS^1, each ideal built as a set."""
    n = s.size
    right = [frozenset({a, *s.table[a]}) for a in range(n)]
    left = [frozenset({a} | {s.table[x][a] for x in range(n)}) for a in range(n)]
    both = [frozenset().union(*(right[x] for x in left[a])) for a in range(n)]
    return canonical(right), canonical(left), canonical(both)


def brute_classify(s):
    """Classification flags (as Classification.as_dict) by scans of the table:
    a Latin square with one idempotent, the powers S, S^2, ..., S^n, the
    zero's J-class counted, and completely simple as simple and completely
    regular; Green's R, L and J from principal ideals built as sets."""
    n = s.size
    t = s.table
    full = set(range(n))
    idem = [x for x in range(n) if t[x][x] == x]
    band = len(idem) == n
    commutative = all(t[a][b] == t[b][a] for a in range(n) for b in range(n))
    latin = (all(set(row) == full for row in t)
             and all({t[a][b] for a in range(n)} == full for b in range(n)))
    identity = [e for e in range(n) if all(t[e][x] == x == t[x][e] for x in range(n))]
    zero = [z for z in range(n) if all(t[z][x] == z == t[x][z] for x in range(n))]

    nilpotent = False
    if zero:
        power = full
        for _ in range(n):
            power = {t[a][b] for a in power for b in range(n)}
            nilpotent = nilpotent or power == set(zero)

    r_class, l_class, j_class = principal_ideal_classes(s)
    h_class = canonical(zip(r_class, l_class))
    completely_regular = all(h_class[x] == h_class[t[x][x]] for x in range(n))
    simple = len(set(j_class)) == 1

    zero_simple = False
    if zero and len(set(j_class)) == 2:
        z = zero[0]
        zero_alone = sum(1 for x in range(n) if j_class[x] == j_class[z]) == 1
        zero_simple = zero_alone and any(t[a][b] != z for a in range(n) for b in range(n))

    return {
        "band": band,
        "semilattice": band and commutative,
        "commutative": commutative,
        "group": latin and len(idem) == 1,
        "monoid": bool(identity),
        "has_zero": bool(zero),
        "nilpotent": nilpotent,
        "completely_regular": completely_regular,
        "cryptogroup": (completely_regular and is_right_compatible(s, h_class)
                        and is_left_compatible(s, h_class)),
        "left_simple": len(set(l_class)) == 1,
        "right_simple": len(set(r_class)) == 1,
        "simple": simple,
        "zero_simple": zero_simple,
        "completely_simple": simple and completely_regular,
        "completely_zero_simple": zero_simple,
    }


def brute_archimedean(s):
    """Class map of mutual divisibility by powers: a ~ b iff some power of a
    lies in bS^1 and some power of b lies in aS^1."""
    n = s.size

    def powers(a):
        out, p = set(), a
        for _ in range(n):
            out.add(p)
            p = s.table[p][a]
        return out

    def divides(a, b):
        return bool(powers(a) & ({b} | {s.table[b][x] for x in range(n)}))

    return canonical(frozenset(b for b in range(n) if divides(a, b) and divides(b, a))
                     for a in range(n))


def subgroup_count(g):
    """Number of nonempty multiplicatively closed subsets of a finite group.

    For finite groups these are exactly the subgroups.
    """
    n = g.size
    count = 0
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            sset = set(subset)
            if all(g.table[a][b] in sset for a in subset for b in subset):
                count += 1
    return count


def divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def kernel(images):
    """Partition of the domain by equal image, as a canonical class map."""
    return canonical(images)


def compose(f, g):
    """Apply f first, then g."""
    return tuple(g[v] for v in f)


def is_isomorphism(src, dst, phi):
    """phi (a tuple, src index -> dst index) is a bijection with
    phi(a*b) = phi(a)*phi(b) for every pair, checked cell by cell."""
    n = src.size
    return (dst.size == n and sorted(phi) == list(range(n))
            and all(phi[src.table[a][b]] == dst.table[phi[a]][phi[b]]
                    for a in range(n) for b in range(n)))


def brute_parse_cayley(text):
    """A cayley file parsed the plain way, the reference for parse_input:
    every line split up front, and one int() per token."""
    from sgt.cli import ParseError
    from sgt.core import from_cayley

    lines = []
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        lines.append((num, line.split()))

    def ints(tokens, where):
        try:
            return list(map(int, tokens))
        except ValueError:
            pass
        for t in tokens:
            try:
                int(t)
            except ValueError:
                break
        raise ParseError(where, f"expected an integer, got {t!r}")

    if not lines:
        raise ParseError(None, "empty input")
    num, head = lines[0]
    kind = head[0].lower()
    if kind != "cayley":
        raise ParseError(num, f"unknown format {kind!r}")
    if len(head) != 2:
        raise ParseError(num, "usage: cayley <n>")
    n, = ints(head[1:], num)
    if len(lines) != 1 + n:
        raise ParseError(num, f"expected {n} table rows")
    rows = [ints(tokens, ln) for ln, tokens in lines[1:]]
    return from_cayley(n, rows)


def brute_from_transformations(degree, gens):
    """The closure of transformations with one tuple composition and one dict
    lookup per table cell; the generators first (duplicates dropped), then
    breadth-first products in (element, generator) order."""
    from sgt.core import DegreeMismatch, from_cayley

    if not gens:
        raise DegreeMismatch("at least one generator required")
    for g in gens:
        if g.degree != degree:
            raise DegreeMismatch(
                f"generator of degree {g.degree}, expected {degree}")
    images = [g.images for g in gens]
    elements = []
    index = {}
    words = []
    for gi, g in enumerate(images):
        if g not in index:
            index[g] = len(elements)
            elements.append(g)
            words.append(f"g{gi}")
    pos = 0
    while pos < len(elements):
        x = elements[pos]
        for gi, g in enumerate(images):
            y = tuple([g[v] for v in x])
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
                words.append(words[pos] + f"*g{gi}")
        pos += 1
    table = [[index[tuple([b[v] for v in a])] for b in elements] for a in elements]
    return from_cayley(len(elements), table, labels=words)


def relabelled(s, perm):
    """Isomorphic copy of s in which element x is renamed perm[x]."""
    from sgt.core import from_cayley

    inv = sorted(range(s.size), key=perm.__getitem__)
    return from_cayley(s.size, [[perm[s.table[inv[a]][inv[b]]] for b in range(s.size)]
                                for a in range(s.size)])


def brute_hom_failure(src_table, dst_table, phi):
    """First (a, b) in row-major order with phi(a*b) != phi(a)*phi(b), else None."""
    for a, row in enumerate(src_table):
        image = dst_table[phi[a]]
        for b, ab in enumerate(row):
            if phi[ab] != image[phi[b]]:
                return a, b
    return None


class SizeLimitExceeded(ValueError):
    pass


def _power_profile(table, x):
    """(index, period) of the monogenic subsemigroup of x."""
    seen = {x: 1}
    p, k = x, 1
    while True:
        p = table[p][x]
        k += 1
        if p in seen:
            return seen[p], k - seen[p]
        seen[p] = k


def _element_profiles(s):
    """Per element: idempotent or not, |xS^1|, |S^1x| and the power profile;
    an isomorphism keeps all four."""
    t = s.table
    return [(t[x][x] == x, len({x, *t[x]}), len({x, *(row[x] for row in t)}),
             _power_profile(t, x)) for x in range(s.size)]


def isomorphic(s, t, size_limit):
    """First table isomorphism found by profile-pruned backtracking, or None;
    size_limit must be a non-negative int (numpy integers too), else
    RangeError, and SizeLimitExceeded is raised above it."""
    from sgt.core import RangeError

    try:
        limit = -1 if isinstance(size_limit, bool) else operator.index(size_limit)
    except TypeError:
        limit = -1
    if limit < 0:
        raise RangeError(f"size_limit must be a non-negative int, got {size_limit!r}")
    if s.size != t.size:
        return None
    if s.size > limit:
        raise SizeLimitExceeded(f"size {s.size} exceeds limit {limit}")
    n = s.size
    prof_s, prof_t = _element_profiles(s), _element_profiles(t)
    candidates = [[y for y in range(n) if prof_t[y] == prof_s[x]] for x in range(n)]
    mapping = [-1] * n
    used = [False] * n

    def consistent(x, y):
        for a in range(x + 1):
            fa = mapping[a] if a < x else y
            for (u, v, fu, fv) in ((a, x, fa, y), (x, a, y, fa)):
                p = s.table[u][v]
                if mapping[p] != -1 and mapping[p] != t.table[fu][fv]:
                    return False
        return True

    def backtrack(x):
        if x == n:
            return True
        for y in candidates[x]:
            if used[y]:
                continue
            mapping[x], used[y] = y, True
            if consistent(x, y) and backtrack(x + 1):
                return True
            mapping[x], used[y] = -1, False
        return False

    return tuple(mapping) if backtrack(0) else None
