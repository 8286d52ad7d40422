"""Every value checks itself: FiniteSemigroup refuses tables that are not
semigroups, RightCongruence refuses class maps that are not right
congruences, and the builders that skip those checks build only values
that pass them."""
import dataclasses
import itertools
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracles
from sgt import congruence, core, green, structure, verify
from sgt.cli import parse_input
from sgt.congruence import (PairSet, RightCongruence, enumerate_right_congruences,
                            quotient_semigroup, rc_generate)
from sgt.core import (AssociativityViolation, FiniteSemigroup, RangeError, Transformation,
                      adjoin_identity, adjoin_zero, classify, direct_product,
                      from_transformations, rees_quotient, sub_semigroup,
                      subsemigroup_closure)
from sgt.library import cyclic, library, trivial
from sgt.structure import (ZERO, ReesStructure, rees_construct, rees_coordinates,
                           rees_structure)
from sgt.verify import (ideal_subsemigroup, ideals_with_identity, sweep,
                        two_sided_congruences)

T3 = parse_input("transformation 3 3\n1 2 0\n1 0 2\n0 0 2\n")[0]
T4_GENS = ((1, 2, 3, 0), (1, 0, 2, 3), (0, 0, 2, 3))
_SMALL = [s for s in library().values() if s.size <= 4]
_BAD_ENTRIES = [-1, True, False, 0.0, 1.5, None, "0", np.int64(-1)]


def _valid_entry(v, n):
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and 0 <= v < n


@st.composite
def _tables(draw):
    """A tuple-of-tuples table: random entries or a library table, with at
    most one cell replaced (by an int, a numpy int or a bad value) and at
    most one row cut short or grown, so that every outcome occurs."""
    if draw(st.booleans()):
        rows = [list(row) for row in draw(st.sampled_from(_SMALL)).table]
    else:
        n = draw(st.integers(1, 3))
        rows = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                             min_size=n, max_size=n))
    n = len(rows)
    if draw(st.booleans()):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[a][b] = draw(st.one_of(st.integers(-1, n), st.sampled_from(_BAD_ENTRIES),
                                    st.integers(0, n - 1).map(np.int8)))
    if draw(st.integers(0, 4)) == 0:
        row = rows[draw(st.integers(0, n - 1))]
        if draw(st.booleans()):
            row.append(0)
        else:
            row.pop()
    if draw(st.integers(0, 9)) == 0:
        rows = []
    return tuple(map(tuple, rows))


@settings(max_examples=300, deadline=None)
@given(_tables())
def test_a_table_is_accepted_exactly_when_it_is_an_associative_table(rows):
    n = len(rows)
    if not (n and all(len(row) == n and all(_valid_entry(v, n) for v in row) for row in rows)):
        with pytest.raises(RangeError):
            FiniteSemigroup(table=rows)
        return
    ints = tuple(tuple(int(v) for v in row) for row in rows)
    bad = oracles.brute_first_nonassociative(ints)
    if bad is not None:
        with pytest.raises(AssociativityViolation) as err:
            FiniteSemigroup(table=rows)
        assert err.value.triple == bad
        return
    s = FiniteSemigroup(table=rows)
    assert s.table == ints and oracles.is_square_table(s.table)
    assert oracles.brute_first_nonassociative(s.table) is None


@st.composite
def _class_maps(draw):
    """A library table and a map: a generated right congruence or a random
    canonical map, with at most one label replaced (by an int, a numpy int or a
    bad value) and the length at most one off."""
    s = draw(st.sampled_from(list(library().values())))
    element = st.integers(0, s.size - 1)
    if draw(st.booleans()):
        pairs = draw(st.lists(st.tuples(element, element), max_size=2))
        labels = list(rc_generate(s, pairs).class_of)
    else:
        k = draw(st.integers(1, s.size))
        labels = list(oracles.canonical(draw(st.lists(st.integers(0, k - 1),
                                                      min_size=s.size, max_size=s.size))))
    if draw(st.booleans()):
        labels[draw(element)] = draw(st.one_of(
            st.integers(-1, s.size), st.sampled_from(_BAD_ENTRIES),
            st.integers(0, s.size - 1).map(np.int16)))
    if draw(st.integers(0, 5)) == 0:
        if draw(st.booleans()):
            labels.append(0)
        else:
            labels.pop()
    return s, tuple(labels)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_class_maps())
def test_a_class_map_is_accepted_exactly_when_it_is_a_right_congruence(case):
    s, labels = case
    if not (len(labels) == s.size and all(_valid_entry(c, s.size) for c in labels)
            and oracles.canonical(labels) == labels):
        with pytest.raises(RangeError):
            RightCongruence(parent=s, class_of=labels)
        return
    if not oracles.is_right_compatible(s, labels):
        with pytest.raises(ValueError, match="not right compatible") as err:
            RightCongruence(parent=s, class_of=labels)
        assert type(err.value) is ValueError
        return
    rho = RightCongruence(parent=s, class_of=labels)
    assert rho.class_of == labels and all(type(c) is int for c in rho.class_of)


def _relabelled_copies(tables):
    return st.sampled_from(tables).flatmap(lambda s: st.permutations(range(s.size)).map(
        lambda perm: oracles.relabelled(s, perm)))


_MONOIDS = [s for s in library().values() if s.identity is not None and s.size <= 3]


@settings(max_examples=60, deadline=None)
@given(_relabelled_copies(_MONOIDS), _relabelled_copies(_MONOIDS))
def test_every_coordinate_restriction_of_a_product_congruence_is_a_right_congruence(m, n):
    """verify_dp_gens builds its restrictions of a checked congruence of M x N
    unchecked: at 1_M to N, and at every d in N (each d_j among them) to M."""
    for rho in enumerate_right_congruences(direct_product(m, n)).congruences:
        cls = rho.class_of
        RightCongruence(parent=n, class_of=oracles.canonical(
            [cls[m.identity * n.size + b] for b in range(n.size)]))
        for d in range(n.size):
            RightCongruence(parent=m, class_of=oracles.canonical(
                [cls[a * n.size + d] for a in range(m.size)]))


@settings(max_examples=60, deadline=None)
@given(_relabelled_copies([s for s in library().values() if s.size <= 5]), st.data())
def test_every_pullback_along_a_checked_homomorphism_is_a_right_congruence(s, data):
    """verify_quotient_gens and verify_ideal_gens build the pullbacks of
    _push_forward unchecked, along theta onto a relabelled quotient and
    along a -> e*a onto an ideal with identity e."""
    maps = []
    for rho2 in two_sided_congruences(s):
        t = quotient_semigroup(rho2)
        perm = data.draw(st.permutations(range(t.size)))
        maps.append((oracles.relabelled(t, perm), [perm[c] for c in rho2.class_of]))
    for ideal, e in ideals_with_identity(s):
        maps.append((ideal_subsemigroup(s, ideal), [ideal.index(v) for v in s.table[e]]))
    for t, phi in maps:
        assert oracles.brute_hom_failure(s.table, t.table, phi) is None
        for rho in enumerate_right_congruences(t).congruences:
            RightCongruence(parent=s, class_of=oracles.canonical([rho.class_of[v] for v in phi]))


def test_every_trusted_value_rebuilds_unchanged_through_its_constructor(monkeypatch):
    built = []
    callers = set()  # the functions that asked for them, and their callers

    def recording(cls, **fields):
        value = trusted(cls, **fields)
        built.append(value)
        caller = sys._getframe(1)
        callers.update((caller.f_code.co_name, caller.f_back.f_code.co_name))
        return value

    trusted = congruence._trusted
    for module in (congruence, verify):
        monkeypatch.setattr(module, "_trusted", recording)
    sweep()  # every replay, and minimal_generating_pairs' memo hits and misses
    for s in [*library().values(), T3]:
        enumerate_right_congruences(s)
        two_sided_congruences(s)
    green.green_data.__wrapped__(T3)  # uncached: D = R v L is no right congruence of T3
    assert {type(v) for v in built} == {RightCongruence, PairSet}
    # the dp restrictions and the push-forward's pullbacks among them
    assert {"verify_dp_gens", "_push_forward"} <= callers
    for v in built:
        fields = {f.name: getattr(v, f.name) for f in dataclasses.fields(v) if f.init}
        assert type(v)(**fields) == v, v
    for rho in (v for v in built if type(v) is RightCongruence):
        assert type(rho.class_of) is tuple and all(type(c) is int for c in rho.class_of)
    assert all(type(a) is int and type(b) is int
               for x in built if type(x) is PairSet for a, b in x.pairs)


def _assert_rebuilds(s):
    """s, a derived semigroup, has every field the checked constructor gives
    its table and labels, an int table of tuples and str labels."""
    ref = FiniteSemigroup(table=s.table, labels=s.labels)
    fields = ("table", "labels", "size", "identity", "zero", "generators")
    assert [getattr(s, f) for f in fields] == [getattr(ref, f) for f in fields], s
    assert type(s.table) is tuple and all(type(row) is tuple for row in s.table)
    assert all(type(v) is int for row in s.table for v in row)
    assert s.labels is None or (type(s.labels) is tuple
                                and all(type(x) is str for x in s.labels))
    assert type(s.generators) is tuple


def test_no_sgt_dataclass_has_a_field_outside_its_constructor():
    # a fact derived from the fields is a cached_property, not a field
    modules = (core, congruence, green, structure, verify)
    classes = [c for m in modules for c in vars(m).values()
               if dataclasses.is_dataclass(c) and c.__module__ == m.__name__]
    assert len(classes) > 10
    assert [(c.__name__, f.name) for c in classes for f in dataclasses.fields(c)
            if not f.init] == []
    assert [f.name for f in dataclasses.fields(FiniteSemigroup)] == ["table", "labels"]


def test_a_derived_semigroup_holds_its_inputs_until_a_fact_is_read():
    s = direct_product(cyclic(2), cyclic(3))
    assert set(vars(s)) == {"table", "labels"}
    assert (s.size, s.identity, s.zero, s.generators) == (6, 0, None, (0, 1, 3))
    assert set(vars(s)) == {"table", "labels", "size", "identity", "zero", "generators"}


def test_a_checked_semigroup_keeps_the_generators_lights_test_found(monkeypatch):
    s = FiniteSemigroup(table=cyclic(4).table)
    assert set(vars(s)) == {"table", "labels", "generators"}
    monkeypatch.setattr(core, "_greedy_generators", None)  # no second search
    assert s.generators == (0, 1)


def _criterion_8_structures():
    """Criterion 8's Rees structures, in its order."""
    for g in (trivial(), cyclic(2), cyclic(3)):
        for isz, jsz in itertools.product((1, 2, 3), repeat=2):
            for flat in itertools.product(range(g.size), repeat=isz * jsz):
                p = [list(flat[r * isz:(r + 1) * isz]) for r in range(jsz)]
                yield rees_structure(g, isz, jsz, p, with_zero=False)


def test_every_derived_table_rebuilds_unchanged_through_its_constructor(monkeypatch):
    built = []
    callers = set()

    def recording(rows, labels):
        value = derived(rows, labels)
        built.append(value)
        callers.add(sys._getframe(1).f_code.co_name)
        return value

    derived = core._derived
    for module in (core, congruence, structure):
        monkeypatch.setattr(module, "_derived", recording)
    sweep()  # S^1, products, quotients, ideals and sub-semigroups
    for r in itertools.islice(_criterion_8_structures(), 500):
        struct, _ = rees_coordinates(rees_construct(r))  # its group is a sub-semigroup
        rees_construct(struct)
    from_transformations(4, [Transformation(4, g) for g in T4_GENS])
    assert callers == {"_adjoin", "direct_product", "quotient_semigroup", "sub_semigroup",
                       "semigroup", "from_transformations"}
    assert len(built) > 1500 and built[-1].size == 256
    for s in built:
        _assert_rebuilds(s)


def _rees_semigroups(data):
    """A Rees matrix semigroup over a relabelled trivial group, Z2 or Z3,
    with or without a zero, its P regular or not."""
    g = data.draw(_relabelled_copies([trivial(), cyclic(2), cyclic(3)]))
    with_zero = data.draw(st.booleans())
    isz, jsz = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    entry = st.sampled_from([*range(g.size), *([ZERO] if with_zero else [])])
    p = data.draw(st.lists(st.lists(entry, min_size=isz, max_size=isz),
                           min_size=jsz, max_size=jsz))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a P that is not regular
        return [rees_construct(rees_structure(g, isz, jsz, p, with_zero))]


def _products(data):
    m, n = (data.draw(_relabelled_copies(_SMALL)) for _ in range(2))
    return [direct_product(m, n), adjoin_identity(m), adjoin_zero(m)]


def _quotients(data):
    s = data.draw(_relabelled_copies([s for s in library().values() if s.size <= 5]))
    return [quotient_semigroup(rho) for rho in two_sided_congruences(s)]


def _ideals(data):
    """The Rees quotient by a principal ideal S^1 a S^1 and by S."""
    s = data.draw(st.sampled_from(list(library().values())) | _relabelled_copies(_SMALL))
    a = data.draw(st.integers(0, s.size - 1))
    left = {a, *(row[a] for row in s.table)}  # S^1 a
    ideal = left | {s.table[x][y] for x in left for y in range(s.size)}
    return [rees_quotient(s, ideal), rees_quotient(s, range(s.size))]


def _sub_semigroups(data):
    s = data.draw(st.sampled_from(list(library().values())) | _relabelled_copies(_SMALL))
    seed = data.draw(st.sets(st.integers(0, s.size - 1), min_size=1))
    members = list(subsemigroup_closure(s, seed))
    return [sub_semigroup(s, data.draw(st.permutations(members)))]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([_rees_semigroups, _products, _quotients, _ideals, _sub_semigroups]),
       st.data())
def test_a_derived_semigroup_equals_its_checked_rebuild(builder, data):
    for s in builder(data):
        _assert_rebuilds(s)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_every_coordinate_structure_rebuilds_unchanged_through_its_constructor(data):
    """rees_coordinates builds its structure unchecked, on a relabelled
    completely (0-)simple semigroup, and presets that its semigroup is
    completely (0-)simple, which classify finds on the rebuilt structure."""
    s = _rees_semigroups(data)[0]
    s = oracles.relabelled(s, data.draw(st.permutations(range(s.size))))
    flags = classify(s)
    assume(flags.completely_simple or flags.completely_zero_simple)
    struct, _ = rees_coordinates(s)
    ref = ReesStructure(group=struct.group, p_matrix=struct.p_matrix, with_zero=struct.with_zero)
    assert (struct.group.table, struct.p_matrix, struct.with_zero) == (
        ref.group.table, ref.p_matrix, ref.with_zero)
    ref_flags = classify(ref.semigroup)
    assert vars(struct)["_completely_simple"] is (
        ref_flags.completely_zero_simple if ref.with_zero else ref_flags.completely_simple)
    assert type(struct.p_matrix) is tuple and all(type(row) is tuple for row in struct.p_matrix)


@pytest.mark.parametrize("rows, error", [
    (((1, 0), (0, 0)), AssociativityViolation),  # classify called it a group
    (((0, 5), (1, 1)), RangeError),  # ended in a bare IndexError
    (((True, False), (False, True)), RangeError),
    (((0, 1), (1, 0.0)), RangeError),  # ended in a bare TypeError
    ((), RangeError),
    (((0, 1), (1,)), RangeError),
])
def test_a_hand_built_table_is_refused_when_built(rows, error):
    with pytest.raises(error):
        classify(FiniteSemigroup(table=rows))

