"""Finite semigroups given by Cayley tables: constructors and classification."""
from __future__ import annotations

import operator
import threading
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain
from operator import itemgetter
from typing import Iterable, Sequence

from . import trace


class RangeError(ValueError):
    pass


def _index(v, what: str, size: int | None = None) -> int:
    """v as an int in [0, size), else RangeError; bools and non-integers are rejected."""
    try:
        i = operator.index(v) if not isinstance(v, bool) else None
    except TypeError:
        i = None
    if i is None or i < 0 or (size is not None and i >= size):
        want = "a non-negative int" if size is None else f"an int in [0, {size})"
        raise RangeError(f"{what} must be {want}, got {v!r}")
    return i


class AssociativityViolation(ValueError):
    def __init__(self, triple):
        i, j, k = triple
        super().__init__(f"({i}*{j})*{k} != {i}*({j}*{k})")
        self.triple = (i, j, k)


class DegreeMismatch(ValueError):
    pass


class NotAnIdeal(ValueError):
    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class InternalAssertFailure(RuntimeError):
    """A theorem-guaranteed check failed; indicates an implementation bug."""


@dataclass(frozen=True)
class FiniteSemigroup:
    """Semigroup on {0, ..., size-1} with multiplication table[a][b] = a*b.

    The constructor checks a nonempty square table of ints in [0, size)
    (numpy integers are stored as ints; bools, floats and strings raise
    RangeError) and one label per element, and decides associativity by
    Light's test over the greedy generators, in O(n^2 * k) C-level gathers
    for k generators: AssociativityViolation carries the first failing triple.
    """

    # The fields hold what the caller gives; every fact derived from them is
    # a cached_property, made on first read and kept out of equality, hashing
    # and repr.  The same holds for sgt's other frozen dataclasses.  A
    # derived table's labels may be made on first read too (`_derived`).
    table: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        if trace.enabled:
            trace.counts["core.semigroups.checked"] += 1
        n = len(self.table)
        if n == 0:
            raise RangeError("size must be positive")
        for row in self.table:
            if len(row) != n:
                raise RangeError(f"expected {n} columns, got {len(row)}")
        rows = tuple(map(tuple, self.table))
        if not (set(map(type, chain.from_iterable(rows))) == {int}
                and frozenset(range(n)).issuperset(chain.from_iterable(rows))):
            # one check per cell, to name the first bad entry
            rows = tuple(tuple([_index(v, "entry", n) for v in row]) for row in rows)
        gens = tuple(_greedy_generators(rows))
        if not _light_associative(rows, gens):
            raise AssociativityViolation(_first_nonassociative_triple(rows))
        labels = None if self.labels is None else tuple(map(str, self.labels))
        if labels is not None and len(labels) != n:
            raise RangeError("labels length must equal size")
        # frozen: set past __setattr__; Light's test found the generators
        self.__dict__.update(table=rows, labels=labels, generators=gens)

    @cached_property
    def size(self) -> int:
        return len(self.table)

    @cached_property
    def identity(self) -> int | None:
        return _identity(self.table)

    @cached_property
    def zero(self) -> int | None:
        """A zero is the product of all elements, so it has one candidate."""
        rows, z = self.table, 0
        for x in range(len(rows)):
            z = rows[z][x]
        return z if rows[z].count(z) == len(rows) and all(row[z] == z for row in rows) else None

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A generating set, the greedy one: every element is a product of these."""
        return tuple(_greedy_generators(self.table))

    @cached_property
    def _generating_pairs_memo(self) -> dict:
        """minimal_generating_pairs' answers, by (class map, exact_limit)."""
        return {}

    def idempotents(self) -> list[int]:
        return [x for x in range(self.size) if self.table[x][x] == x]

    def label(self, x: int) -> str:
        if self.labels is not None:
            return self.labels[x]
        return str(x)

    def __getstate__(self):
        """The instance's __dict__, with labels made first: a copy or a
        pickle then holds the tuple, not a share of a one-shot recipe."""
        self.labels
        return self.__dict__


_labels_lock = threading.RLock()  # reentrant: a recipe may read another's labels


class _LabelsOnFirstRead:
    """FiniteSemigroup.labels where `_derived` was given an iterator: the
    iterator is kept unread, as a recipe, and made into the tuple of str on
    first read.  A non-data descriptor, so it runs only while the instance's
    __dict__ holds no labels, which every other build sets at once."""

    def __get__(self, s, owner=None):
        if s is None:
            return None  # the field's default
        with _labels_lock:  # a recipe is read once, even by two threads
            if "labels" not in s.__dict__:
                s.__dict__["labels"] = tuple(map(str, s.__dict__.pop("_label_recipe")))
        return s.__dict__["labels"]


FiniteSemigroup.labels = _LabelsOnFirstRead()


@dataclass(frozen=True)
class Transformation:
    """Total map on {0, ..., degree-1}; composes left to right."""

    degree: int
    images: tuple[int, ...]

    def __post_init__(self):
        if len(self.images) != _index(self.degree, "degree"):
            raise DegreeMismatch(
                f"expected {self.degree} images, got {len(self.images)}")
        object.__setattr__(self, "images",  # ints in a tuple, so that it hashes
                           tuple(_index(v, "image", self.degree) for v in self.images))


def _trusted(cls, **fields):
    """A frozen dataclass value with these fields, built without its
    __post_init__ checks.  Only for a builder whose output is valid by
    construction, or by a check made earlier in the same call, which its
    docstring names; README lists these builders."""
    value = object.__new__(cls)
    value.__dict__.update(fields)
    return value


def _derived(rows, labels: Iterable[str] | None) -> FiniteSemigroup:
    """The semigroup of a table that `_trusted`'s rule makes valid, counted
    apart from the checked ones; README lists these builders.

    Labels given as an iterator are kept unread and made on first read of
    `labels`, so a caller that never reads them never formats them; None or
    a collection is stored as the tuple now.  The iterator must not reach
    the value it labels, or anything that holds that value: the value would
    then sit in a reference cycle, freed only by the cyclic collector."""
    if trace.enabled:
        trace.counts["core.semigroups.derived"] += 1
    if isinstance(labels, Iterator):
        fields = {"_label_recipe": labels}
    else:
        fields = {"labels": None if labels is None else tuple(map(str, labels))}
    return _trusted(FiniteSemigroup, table=tuple(map(tuple, rows)), **fields)


def _identity(rows) -> int | None:
    """The two-sided identity of a checked table, else None: an identity is
    the only left identity, so one candidate is checked."""
    ar = tuple(range(len(rows)))
    e = next((x for x in ar if rows[x] == ar), None)
    return e if e is not None and all(row[e] == x for x, row in enumerate(rows)) else None


def _first_nonassociative_triple(rows) -> tuple[int, int, int] | None:
    """First (i, j, k) in lexicographic order with (i*j)*k != i*(j*k), by full scan."""
    gets = [itemgetter(*row) for row in rows]
    for i, row in enumerate(rows):
        for j, ij in enumerate(row):
            left, right = rows[ij], gets[j](row)  # (i*j)*k and i*(j*k) over k
            if left != right:
                return i, j, next(k for k, (u, v) in enumerate(zip(left, right)) if u != v)
    return None


def _greedy_generators(rows) -> list[int]:
    """A generating set: each generator is the least element not yet reached.

    Reached elements are the generators and their left-bracketed products,
    found by walking x -> x*a over the generators; every (x, a) is walked
    once, so the cost is O(n*k) for k generators.
    """
    seen = [False] * len(rows)
    reached: list[int] = []
    gens: list[int] = []
    for g in range(len(rows)):
        if seen[g]:
            continue
        old = len(reached)
        gens.append(g)
        seen[g] = True
        reached.append(g)
        for x in reached[:old]:
            y = rows[x][g]
            if not seen[y]:
                seen[y] = True
                reached.append(y)
        pos = old
        while pos < len(reached):
            row = rows[reached[pos]]
            for a in gens:
                y = row[a]
                if not seen[y]:
                    seen[y] = True
                    reached.append(y)
            pos += 1
    return gens


def _light_associative(rows, gens: Sequence[int]) -> bool:
    """Light's test: (x*a)*y == x*(a*y) for all x, y and every generator a.

    Exact: the b with (x*b)*y == x*(b*y) for all x, y are closed under
    products, so holding on a generating set it holds on all of S.
    """
    if len(rows) == 1:  # [[0]]; a one-argument itemgetter returns a scalar
        return True
    return all(itemgetter(*map(itemgetter(a), rows))(rows)  # rows of x*a
               == tuple(map(itemgetter(*rows[a]), rows))  # rows of x*(a*y)
               for a in gens)


def from_cayley(n: int, rows: Sequence[Sequence[int]],
                labels: Sequence[str] | None = None) -> FiniteSemigroup:
    """The semigroup of an n-by-n table: n must be a positive int equal to the
    number of rows (RangeError otherwise); FiniteSemigroup checks the rest."""
    if _index(n, "size") == 0:
        raise RangeError("size must be positive")
    if len(rows) != n:
        raise RangeError(f"expected {n} rows, got {len(rows)}")
    return FiniteSemigroup(table=rows, labels=labels)


def from_transformations(degree: int, gens: Sequence[Transformation]) -> FiniteSemigroup:
    """Close a nonempty set of transformations of a degree (a non-negative
    int, else RangeError) under left-to-right composition.

    Elements are indexed in discovery order: the generators first (in the
    given order, duplicates dropped), then breadth-first products in
    (element, generator) order.  Labels record a shortest generator word.

    The search composes maps only along the right Cayley graph, n*k times
    for k generators (Froidure and Pin 1997); row a is then read off it as
    a*b = (a*p)*g = right[a*p][g], where the search found b = p*g, p < b.
    Composition is associative, so the table is not checked (`_derived`).
    """
    degree = _index(degree, "degree")
    if not gens:
        raise DegreeMismatch("at least one generator required")
    for g in gens:
        if g.degree != degree:
            raise DegreeMismatch(
                f"generator of degree {g.degree}, expected {degree}")
    # elements are image tuples, composed directly: x then g is g[x[v]]
    images = [g.images for g in gens]
    elements: list[tuple[int, ...]] = []
    index: dict[tuple[int, ...], int] = {}
    words: list[str] = []
    first: list[int] = []  # the generator of each of the first elements
    for gi, g in enumerate(images):
        if g not in index:
            index[g] = len(elements)
            elements.append(g)
            words.append(f"g{gi}")
            first.append(gi)
    right: list[list[int]] = []
    steps: list[tuple[int, int]] = []  # (p, gi) of each later element
    for pos, x in enumerate(elements):  # grows while it is walked
        edges = []
        for gi, g in enumerate(images):
            y = tuple([g[v] for v in x])
            k = index.get(y)
            if k is None:
                k = index[y] = len(elements)
                elements.append(y)
                words.append(words[pos] + f"*g{gi}")
                steps.append((pos, gi))
            edges.append(k)
        right.append(edges)
    table = []
    for edges in right:  # edges of a; row[b] = a*b
        row = [edges[gi] for gi in first]
        for p, gi in steps:
            row.append(right[row[p]][gi])
        table.append(tuple(row))
    return _derived(table, words)


def _adjoin(s: FiniteSemigroup, column: Sequence[int], row: list[int],
            label: str) -> FiniteSemigroup:
    """s with one new element at index size: x*new = column[x], and row
    holds new*y for every y, the new element last.  Adjoining an identity or
    a zero to a checked semigroup gives a semigroup, so it is not checked."""
    table = [(*r, c) for r, c in zip(s.table, column)] + [row]
    return _derived(table, None if s.labels is None else [*s.labels, label])


def adjoin_identity(s: FiniteSemigroup) -> FiniteSemigroup:
    """Adjoin a two-sided identity as a new element at index size."""
    return _adjoin(s, range(s.size), list(range(s.size + 1)), "1")


def adjoin_zero(s: FiniteSemigroup) -> FiniteSemigroup:
    """Adjoin a two-sided zero as a new element at index size."""
    n = s.size
    return _adjoin(s, [n] * n, [n] * (n + 1), "0")


def _product_table(m: FiniteSemigroup, n: FiniteSemigroup) -> tuple[tuple[int, ...], ...]:
    """The componentwise product's table; (i, j) sits at index i*|N| + j."""
    nn = n.size
    return tuple(tuple([x * nn + y for x in mrow for y in nrow])
                 for mrow in m.table for nrow in n.table)


def direct_product(m: FiniteSemigroup, n: FiniteSemigroup) -> FiniteSemigroup:
    """Componentwise product; (i, j) sits at index i*|N| + j.  The product of
    two checked semigroups is one, so its table is not checked again."""
    labels = [f"({m.label(a)},{n.label(b)})" for a in range(m.size) for b in range(n.size)]
    return _derived(_product_table(m, n), labels)


def _hom_failure(src_table, dst_table, phi, gens: Sequence[int]) -> tuple[int, int] | None:
    """First (a, b) in row-major order with phi(a*b) != phi(a)*phi(b), else None.

    Both tables must be associative and gens must generate the source.  Then
    phi(a*g) == phi(a)*phi(g) for every a and every generator g makes phi a
    homomorphism, by induction on the length of b as a word in gens; only a
    failing map is scanned in full, to name its first pair.
    """
    images = [dst_table[x] for x in phi]  # row of phi(a), by a
    gen_images = [(g, phi[g]) for g in gens]
    if all(phi[row[g]] == image[h]
           for row, image in zip(src_table, images) for g, h in gen_images):
        return None
    return next((a, b) for a, (row, image) in enumerate(zip(src_table, images))
                for b, ab in enumerate(row) if phi[ab] != image[phi[b]])


def _ideal_members(s: FiniteSemigroup, ideal: Iterable[int]) -> list[int]:
    """The sorted members of a two-sided ideal of s; RangeError for a bad
    entry, NotAnIdeal for an empty set or the first escaping product."""
    members = sorted({_index(v, "ideal element", s.size) for v in ideal})
    if not members:
        raise NotAnIdeal("ideal must be nonempty")
    mset = set(members)
    for a in members:
        for x in range(s.size):
            if s.table[a][x] not in mset:
                raise NotAnIdeal(f"{a}*{x} escapes the ideal", pair=(a, x))
            if s.table[x][a] not in mset:
                raise NotAnIdeal(f"{x}*{a} escapes the ideal", pair=(x, a))
    return members


def rees_quotient(s: FiniteSemigroup, ideal: Iterable[int]) -> FiniteSemigroup:
    """Collapse a two-sided ideal to a fresh zero (placed at the last index).
    The Rees quotient by a checked ideal is a semigroup, so it is not checked."""
    ideal = set(_ideal_members(s, ideal))
    keep = [x for x in range(s.size) if x not in ideal]
    new_index = {x: i for i, x in enumerate(keep)}
    z = len(keep)
    n = z + 1
    table = [[z] * n for _ in range(n)]
    for a in keep:
        for b in keep:
            p = s.table[a][b]
            table[new_index[a]][new_index[b]] = new_index.get(p, z)
    return _derived(table, [*map(s.label, keep), "0"])


def _restricted_table(s: FiniteSemigroup, members: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The table of s on members, renumbered in the given order; ValueError
    names the first product that leaves them."""
    index = {x: i for i, x in enumerate(members)}
    for a in members:
        for b in members:
            if s.table[a][b] not in index:
                raise ValueError(f"subset not closed: {a}*{b} = {s.table[a][b]}")
    return tuple(tuple([index[s.table[a][b]] for b in members]) for a in members)


def sub_semigroup(s: FiniteSemigroup, members: Sequence[int]) -> FiniteSemigroup:
    """Restrict the table to a multiplicatively closed subset (given order);
    RangeError for a bad or repeated member.  _restricted_table checks the
    closure, and a closed subset of a semigroup is one, so it is not checked."""
    members = [_index(v, "member", s.size) for v in members]
    if len(set(members)) != len(members):
        raise RangeError(f"members must be distinct, got {members}")
    return _derived(_restricted_table(s, members), map(s.label, members))


def subsemigroup_closure(s: FiniteSemigroup, seed: Iterable[int]) -> tuple[int, ...]:
    """The sorted members of the smallest multiplicatively closed superset
    of seed: the products of seeds, reached by multiplying on the right by
    seeds only."""
    gens = sorted({_index(v, "seed element", s.size) for v in seed})
    members = set(gens)
    queue = list(gens)
    for a in queue:  # grows while it is walked
        row = s.table[a]
        for g in gens:
            if row[g] not in members:
                members.add(row[g])
                queue.append(row[g])
    return tuple(sorted(members))


@dataclass(frozen=True)
class Classification:
    band: bool
    semilattice: bool
    commutative: bool
    group: bool
    monoid: bool
    has_zero: bool
    nilpotent: bool
    completely_regular: bool
    cryptogroup: bool
    left_simple: bool
    right_simple: bool
    simple: bool
    zero_simple: bool
    completely_simple: bool
    completely_zero_simple: bool

    def as_dict(self) -> dict[str, bool]:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@lru_cache(maxsize=512)
def classify(s: FiniteSemigroup) -> Classification:
    """Compute the standard property flags.

    The structural flags are read from Green's relations, by theorems on
    finite semigroups: S is a group iff it is one H-class (an H-class that
    holds an idempotent is a group); nilpotent iff the zero is its only
    idempotent (finite nil is nilpotent); 0-simple iff it has a zero, two
    J-classes and a nonzero product (the zero's J-class is {0}); and simple
    or 0-simple implies completely so.
    """
    from . import green  # deferred: green builds FiniteSemigroup values
    from .congruence import _incompatible  # deferred: congruence imports core

    n = s.size
    table = s.table
    idem = s.idempotents()
    band = len(idem) == n
    # generators that commute pairwise commute with every product of them
    gens = s.generators
    commutative = all(table[a][b] == table[b][a] for i, a in enumerate(gens) for b in gens[:i])

    gd = green.green_data(s)
    completely_regular = all(gd.h_class[x] == gd.h_class[table[x][x]] for x in range(n))
    num_l = len(set(gd.l_class))
    num_r = len(set(gd.r_class))
    num_j = len(set(gd.j_class))
    zero_simple = (s.zero is not None and num_j == 2
                   and any(v != s.zero for row in table for v in row))

    return Classification(
        band=band,
        semilattice=band and commutative,
        commutative=commutative,
        group=len(set(gd.h_class)) == 1,
        monoid=s.identity is not None,
        has_zero=s.zero is not None,
        nilpotent=idem == [s.zero],
        completely_regular=completely_regular,
        # H is a congruence on a completely simple semigroup (Howie 1995, §4)
        cryptogroup=(completely_regular
                     and (num_j == 1 or _incompatible(s, gd.h_class, two_sided=True) is None)),
        left_simple=num_l == 1,
        right_simple=num_r == 1,
        simple=num_j == 1,
        zero_simple=zero_simple,
        completely_simple=num_j == 1,
        completely_zero_simple=zero_simple,
    )
