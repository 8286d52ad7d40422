"""Structure theory: Rees matrix semigroups, semilattice decompositions."""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter

from .core import (FiniteSemigroup, InternalAssertFailure, RangeError, _derived,
                   _hom_failure, _index, _trusted, classify, sub_semigroup)
from .congruence import (RightCongruence, _class_lists, _incompatible,
                         quotient_semigroup, right_congruence)
from .green import green_data


class InvalidGroup(ValueError):
    pass


class RaggedMatrix(ValueError):
    pass


class MismatchedInput(ValueError):
    pass


class NotCompletelySimple(ValueError):
    pass


class NotCompletelyRegular(ValueError):
    pass


class NotCommutative(ValueError):
    pass


#: Sandwich-matrix entry standing for zero.
ZERO = None


@dataclass(frozen=True)
class ReesStructure:
    group: FiniteSemigroup
    p_matrix: tuple[tuple[int | None, ...], ...]  # j_size rows of i_size entries
    with_zero: bool

    def __post_init__(self):
        if self.with_zero is not True and self.with_zero is not False:
            raise RangeError(f"with_zero must be True or False, got {self.with_zero!r}")
        if not classify(self.group).group:
            raise InvalidGroup("structure group must be a group")
        if not len(self.p_matrix) or not len(self.p_matrix[0]):
            raise RaggedMatrix("index sets must be nonempty")

        def entry(v):
            if v is not ZERO:
                return _index(v, "matrix entry", self.group.size)
            if not self.with_zero:
                raise RangeError("zero entry in a structure without zero")
            return ZERO

        rows = []
        for row in self.p_matrix:
            if len(row) != self.i_size:
                raise RaggedMatrix(f"expected {self.i_size} entries, got {len(row)}")
            rows.append(tuple(map(entry, row)))
        object.__setattr__(self, "p_matrix", tuple(rows))

    @cached_property
    def i_size(self) -> int:
        return len(self.p_matrix[0])

    @cached_property
    def j_size(self) -> int:
        return len(self.p_matrix)

    @cached_property
    def semigroup(self) -> FiniteSemigroup:
        """The matrix semigroup: triples (i, g, j) in lexicographic order with
        (i1, g1, j1)*(i2, g2, j2) = (i1, c*g2, j2) for c = g1*p[j1][i2], then
        the zero if with_zero.  Unchecked: the constructor checked the group
        and the entries, and a Rees matrix semigroup over a group is
        associative (Howie 1995, §3.2).

        Row (i1, g1, j1) is one block of i1 per i2, the products (i1, c*g2,
        j2) over (g2, j2), or a block of zeros.  Each i's blocks, for
        c = 0, 1, ... and then the zero, sit in one flat tuple, and one
        itemgetter per distinct sequence of c over i2 reads a row off it.
        The labels "(i,g,j)" are made on first read (`_derived`), from a
        generator that holds the group and the sizes but not the structure,
        so that no reference cycle runs through this cached property."""
        ng, jsz, gt = self.group.size, self.j_size, self.group.table
        nt = self.triple_count()  # also the index of the zero
        span = ng * jsz  # the length of a block
        z = ng * span  # the zero's position in a flat tuple
        # flat[i]: i's blocks for c = 0, 1, ..., those of i = 0 shifted by i*span
        base = [cg * jsz + j for crow in gt for cg in crow for j in range(jsz)]
        flat = [(*map((i * span).__add__, base), nt) for i in range(self.i_size)]
        # spans[c]: block c's positions in a flat tuple, and spans[ng] a block
        # of zeros; tuples, so that all getters share their int objects
        spans = [tuple(range(c * span, c * span + span)) for c in range(ng)] + [(z,) * span]
        tail = (z,) * self.with_zero
        # the c of each i2 (ng for a zero entry), by (g1, j1)
        cs_rows = [tuple([ng if p is ZERO else grow[p] for p in prow])
                   for grow in gt for prow in self.p_matrix]
        made = {cs: itemgetter(*chain.from_iterable(map(spans.__getitem__, cs)), *tail)
                for cs in set(cs_rows)}
        getters = [made[cs] for cs in cs_rows]
        if nt + self.with_zero == 1:  # one index makes an itemgetter return a scalar
            table = [(0,)]
        else:
            table = [get(f) for f in flat for get in getters]
        if self.with_zero:
            table.append((nt,) * (nt + 1))
        return _derived(table, _rees_labels(self.group, self.i_size, jsz, self.with_zero))

    @cached_property
    def _completely_simple(self) -> bool:
        """Whether semigroup is completely simple, or completely 0-simple with
        a zero, by classify; rees_coordinates presets it (see there)."""
        flags = classify(self.semigroup)
        return flags.completely_zero_simple if self.with_zero else flags.completely_simple

    def triple_count(self) -> int:
        return self.i_size * self.group.size * self.j_size

    def is_regular(self) -> bool:
        """Every row and every column of P has a nonzero entry."""
        rows_ok = all(any(v is not ZERO for v in row) for row in self.p_matrix)
        cols_ok = all(any(row[i] is not ZERO for row in self.p_matrix)
                      for i in range(self.i_size))
        return rows_ok and cols_ok


def _rees_labels(group: FiniteSemigroup, i_size: int, j_size: int, with_zero: bool):
    """The labels of a matrix semigroup, in its element order, made as they
    are read; it holds the group, not the structure (`_derived`)."""
    for i in range(i_size):
        for g in range(group.size):
            for j in range(j_size):
                yield f"({i},{group.label(g)},{j})"
    if with_zero:
        yield "0"


def rees_structure(group: FiniteSemigroup, i_size: int, j_size: int,
                   p_matrix, with_zero: bool) -> ReesStructure:
    """Validated structure: the sizes against the matrix here, then the group
    and the entries (ints, numpy integers too, or ZERO) by the constructor."""
    i_size, j_size = _index(i_size, "i_size"), _index(j_size, "j_size")
    if i_size == 0 or j_size == 0:
        raise RaggedMatrix("index sets must be nonempty")
    if len(p_matrix) != j_size:
        raise RaggedMatrix(f"expected {j_size} rows, got {len(p_matrix)}")
    if len(p_matrix[0]) != i_size:
        raise RaggedMatrix(f"expected {i_size} entries, got {len(p_matrix[0])}")
    return ReesStructure(group=group, p_matrix=p_matrix, with_zero=with_zero)


def rees_construct(r: ReesStructure) -> FiniteSemigroup:
    """r.semigroup, checked to be completely (0-)simple when P is regular;
    otherwise a warning is issued and the check is skipped.  The check reads
    r's fact, which classify decides on first read unless rees_coordinates
    preset it."""
    if not r.is_regular():
        warnings.warn("sandwich matrix is not regular; classification not checked",
                      stacklevel=2)
    elif not r._completely_simple:
        raise InternalAssertFailure("regular sandwich matrix did not yield a "
                                    "completely (0-)simple semigroup")
    return r.semigroup


def theta_congruence(r: ReesStructure
                     ) -> tuple[tuple[tuple[int, ...], ...], RightCongruence]:
    """Per-column zero patterns of P, one 0/1 vector of length |I| per j,
    and the right congruence on r.semigroup that relates nonzero elements
    iff their third coordinates have equal patterns, the zero alone."""
    if not r.with_zero:
        raise MismatchedInput("theta congruence needs a structure with zero")
    vectors = tuple(tuple(1 if v is not ZERO else 0 for v in row)
                    for row in r.p_matrix)
    # element (i, g, j) has index (i*|G| + g)*|J| + j
    keys = [vectors[x % r.j_size] for x in range(r.triple_count())] + ["zero"]
    rho = right_congruence(r.semigroup, keys)
    if rho.index != len(set(vectors)) + 1:
        raise InternalAssertFailure("pattern count does not match congruence index")
    return vectors, rho


def rees_coordinates(s: FiniteSemigroup) -> tuple[ReesStructure, tuple[int, ...]]:
    """Coordinatize a completely (0-)simple semigroup as a matrix semigroup.

    Returns the structure and the element map from constructed indices to
    s, checked to be a bijective homomorphism.  P is normalized so its first
    row and column are the group identity where nonzero.  The structure is
    built unchecked (`core._trusted`): classify found s completely
    (0-)simple, so H_e, an H-class that holds the idempotent e, is a group;
    the inverse check below has run; and each entry is a g_index value, or
    ZERO only with a zero.  The homomorphism check runs over the preimages
    of s.generators: phi(a*t) == phi(a)*phi(t) for every a and preimage t
    makes, by induction on word length, every element of s the image of a
    product of preimages, so for a bijection they generate the source.  The
    structure's semigroup is then isomorphic to s, so the fact that it is
    completely (0-)simple is preset, not classified again.
    """
    flags = classify(s)
    if not (flags.completely_simple or flags.completely_zero_simple):
        raise NotCompletelySimple("input must be completely simple or completely 0-simple")
    with_zero = flags.completely_zero_simple
    gd = green_data(s)
    table = s.table
    nonzero = [x for x in range(s.size) if not (with_zero and x == s.zero)]
    e = min(x for x in nonzero if table[x][x] == x)
    re_, le_ = gd.r_class[e], gd.l_class[e]

    # One walk: the least member of each L-class inside R_e (the q_j), of
    # each R-class inside L_e (the r_i), and H_e = R_e /\ L_e in order.
    q_of, r_of, h = {}, {}, []
    for x in nonzero:
        if gd.r_class[x] == re_:
            q_of.setdefault(gd.l_class[x], x)
        if gd.l_class[x] == le_:
            r_of.setdefault(gd.r_class[x], x)
            if gd.r_class[x] == re_:
                h.append(x)
    # class ids number classes by first occurrence: e's class, then id order
    q = [q_of.pop(le_)] + [q_of[c] for c in sorted(q_of)]
    rr = [r_of.pop(re_)] + [r_of[c] for c in sorted(r_of)]
    g_index = {x: k for k, x in enumerate(h)}
    inverse = {x: y for x in h for y in h if table[x][y] == e}
    if len(inverse) != len(h):
        raise InternalAssertFailure("maximal subgroup element without an inverse")

    # rr[0] = min(H_e), so q_j*rr[0] and then q_0*r_i become e where nonzero
    for j, qj in enumerate(q):
        x = table[qj][rr[0]]
        if x in inverse:
            q[j] = table[inverse[x]][qj]
    for i, ri in enumerate(rr):
        x = table[q[0]][ri]
        if x in inverse:
            rr[i] = table[ri][inverse[x]]
    p = tuple(tuple([g_index.get(table[qj][ri], ZERO) for ri in rr]) for qj in q)

    struct = _trusted(ReesStructure, group=sub_semigroup(s, h), p_matrix=p,
                      with_zero=with_zero)
    mapping = tuple([table[table[ri][g]][qj] for ri in rr for g in h for qj in q]
                    + ([s.zero] if with_zero else []))
    if sorted(mapping) != list(range(s.size)):
        raise InternalAssertFailure("coordinate map is not a bijection")
    # the Rees product is associative (Howie 1995, §3.2), so generators suffice
    if _hom_failure(struct.semigroup.table, table, mapping,
                    [mapping.index(g) for g in s.generators]) is not None:
        raise InternalAssertFailure("coordinate map is not a homomorphism")
    struct.__dict__["_completely_simple"] = True  # frozen; isomorphic to s
    return struct, mapping


@dataclass(frozen=True)
class Decomposition:
    parent: FiniteSemigroup
    component_of: tuple[int, ...]
    semilattice: FiniteSemigroup
    kind: str  # of every component
    component_tables: tuple[FiniteSemigroup, ...]

    def components(self) -> list[list[int]]:  # the quotient has one element per component
        return _class_lists(self.component_of, self.semilattice.size)


def _decomposition(s: FiniteSemigroup, component_of, kind: str, parts: str,
                   quotient: str, check) -> Decomposition:
    """The tail both decompositions share.  component_of is checked to be a
    two-sided congruence whose quotient is a semilattice, and every component
    to be a closed subsemigroup with check(members, sub) true; `parts` and
    `quotient` name the classes and the quotient in the failure messages."""
    try:
        rho = right_congruence(s, component_of)
        quot = quotient_semigroup(rho)
    except ValueError as exc:
        raise InternalAssertFailure(f"{parts} are not a congruence: {exc}")
    if not classify(quot).semilattice:
        raise InternalAssertFailure(f"{quotient} is not a semilattice")
    comps = rho.classes()
    tables = []
    for members in comps:
        try:
            sub = sub_semigroup(s, members)
        except ValueError as exc:
            raise InternalAssertFailure(f"component is not closed: {exc}")
        if not check(members, sub):
            raise InternalAssertFailure(f"component is not {kind.replace('_', ' ')}")
        tables.append(sub)
    return Decomposition(parent=s, component_of=rho.class_of, semilattice=quot,
                         kind=kind, component_tables=tuple(tables))


def cr_decomposition(s: FiniteSemigroup) -> Decomposition:
    """Split a completely regular semigroup into its J-classes, each
    checked to be completely simple."""
    if not classify(s).completely_regular:
        raise NotCompletelyRegular("input is not a union of groups")
    return _decomposition(s, green_data(s).j_class, "completely_simple", "J-classes",
                          "quotient by J-classes",
                          lambda members, sub: classify(sub).completely_simple)


def h_congruence_check(s: FiniteSemigroup) -> tuple[bool, tuple[int, int, int] | None]:
    """Is Green's H a two-sided congruence?  On failure return (a, b, t)."""
    witness = _incompatible(s, green_data(s).h_class, two_sided=True)
    return witness is None, witness


def archimedean_decomposition(s: FiniteSemigroup) -> Decomposition:
    """Split a commutative semigroup along mutual divisibility: a and b
    share a component iff some power of each lies in the other's principal
    ideal."""
    if not classify(s).commutative:
        raise NotCommutative("archimedean decomposition needs a commutative semigroup")
    n = s.size
    rmask = [sum(1 << v for v in {a, *row}) for a, row in enumerate(s.table)]  # aS^1
    powmask = []  # the powers a, a^2, ..., a^n of each a, as a bitmask
    for a in range(n):
        m, p = 0, a
        for _ in range(n):
            m |= 1 << p
            p = s.table[p][a]
        powmask.append(m)

    def divides(a, b):
        return powmask[a] & rmask[b] != 0

    # a's key: the least b with a | b and b | a, an equivalence on commutative S
    comp = [next(b for b in range(n) if divides(a, b) and divides(b, a)) for a in range(n)]
    return _decomposition(s, comp, "archimedean", "components", "divisibility quotient",
                          lambda members, sub: all(divides(a, b) for a in members
                                                   for b in members))


def completeness_check(s: FiniteSemigroup) -> tuple[bool, tuple[tuple[int, ...], ...]]:
    """Per archimedean component, the idempotents it contains."""
    dec = archimedean_decomposition(s)
    report = tuple(tuple(x for x in members if s.table[x][x] == x)
                   for members in dec.components())
    return all(report), report


def diagonal_cyclic_witness(s: FiniteSemigroup) -> tuple[int, int] | None:
    """First (a, b) whose componentwise right orbit {(a*t, b*t) : t in S}
    covers all of S x S.  The orbit has at most one pair per t, so at most
    n < n^2 pairs for n >= 2, and no (a, b) is a witness; for n = 1 the one
    pair (0, 0) is (tests/oracles.py keeps the scan over every (a, b))."""
    return (0, 0) if s.size == 1 else None
