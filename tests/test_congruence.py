import dataclasses
import gc
import itertools
import random
import re
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import oracles
from sgt import congruence, trace
from sgt.congruence import _congruence_on, _incompatible
from sgt.congruence import (CapExceeded, Disconnected, NotTwoSided, PairSet,
                            RightCongruence, enumerate_right_congruences, find_x_sequence,
                            join,
                            identity_congruence, minimal_generating_pairs,
                            pair_set, quotient_semigroup, rc_diameter,
                            rc_generate, right_congruence,
                            universal_congruence, within_class_pairs)
from sgt.core import (RangeError, Transformation, direct_product, from_cayley,
                      from_transformations)
from sgt.library import chain, cyclic, left_zero, library, right_zero, t2
from sgt.verify import _refines, two_sided_congruences

T3_GENS = ((1, 2, 0), (1, 0, 2), (0, 0, 2))


def test_rc_generate_two_chain_universal():
    s = chain(2)
    assert rc_generate(s, [(0, 1)]).index == 1


def test_rc_generate_right_zero():
    rho = rc_generate(right_zero(3), [(0, 1)])
    assert rho.classes() == [[0, 1], [2]]
    assert rho.class_of == oracles.brute_generated(right_zero(3), [(0, 1)])


def test_rc_generate_cyclic_universal():
    z3 = cyclic(3)
    rho = rc_generate(z3, [(0, 1)])
    assert rho.index == 1
    assert rho.class_of == oracles.brute_generated(z3, [(0, 1)])


def test_rc_generate_matches_partition_oracle_small(lib):
    for name in ("trivial", "z2", "z3", "chain2", "rz3", "lz3", "n3"):
        s = lib[name]
        elements = range(s.size)
        for x in itertools.combinations(itertools.product(elements, elements), 2):
            assert rc_generate(s, x).class_of == oracles.brute_generated(s, x)


def test_rc_generate_two_sided():
    s = t2()
    rho = rc_generate(s, [(0, 2)], two_sided=True)
    assert oracles.is_right_compatible(s, rho.class_of)
    assert oracles.is_left_compatible(s, rho.class_of)


def test_find_x_sequence_reflexive():
    s = cyclic(3)
    seq = find_x_sequence(s, [(0, 1)], 1, 1)
    assert len(seq) == 0 and oracles.x_sequence_holds(seq)


def test_find_x_sequence_z3():
    s = cyclic(3)
    d = oracles.brute_sequence_distance(s, [(0, 1)], 0, 2)
    seq = find_x_sequence(s, [(0, 1)], 0, 2)
    assert len(seq) == d == 1
    assert oracles.x_sequence_holds(seq)
    # lexicographically least shortest witness: e = g*g^2, e*g^2 = g^2
    assert [(st.x, st.y, st.s) for st in seq.steps] == [(1, 0, 2)]


def test_find_x_sequence_nopath():
    assert find_x_sequence(right_zero(3), [(0, 1)], 0, 2) is None


def test_witness_soundness(lib):
    for name in ("z2", "z3", "chain2", "chain3", "rz3", "lz3", "n3", "t2"):
        s = lib[name]
        for a in range(s.size):
            for b in range(s.size):
                x = [(0, a)] if a != b else [(a, b)]
                rho = rc_generate(s, x)
                for u in range(s.size):
                    for v in range(s.size):
                        seq = find_x_sequence(s, x, u, v)
                        if rho.related(u, v):
                            assert seq is not None and oracles.x_sequence_holds(seq)
                            assert seq.a == u and seq.b == v
                        else:
                            assert seq is None


def test_monotonicity(lib):
    rng = random.Random(11)
    for s in lib.values():
        if s.size < 2:
            continue
        pool = [(a, b) for a in range(s.size) for b in range(s.size) if a != b]
        for _ in range(10):
            x = rng.sample(pool, k=min(2, len(pool)))
            y = x + rng.sample(pool, k=1)
            rx = rc_generate(s, x)
            ry = rc_generate(s, y)
            for members in rx.classes():
                assert len({ry.class_of[m] for m in members}) == 1


def test_symmetry_indifference(lib):
    rng = random.Random(13)
    for s in lib.values():
        if s.size < 2:
            continue
        pool = [(a, b) for a in range(s.size) for b in range(s.size) if a != b]
        x = rng.sample(pool, k=2)
        flipped = [(b, a) for (a, b) in x]
        both = x + flipped
        assert (rc_generate(s, x).class_of
                == rc_generate(s, flipped).class_of
                == rc_generate(s, both).class_of)


def test_enumerate_counts_match_bell_for_zero_semigroups():
    # every partition of a (left or right) zero semigroup is right compatible
    assert len(enumerate_right_congruences(right_zero(2))) == 2
    assert len(enumerate_right_congruences(right_zero(3))) == 5
    assert len(enumerate_right_congruences(right_zero(4))) == 15
    assert len(enumerate_right_congruences(left_zero(4))) == 15


def test_enumerate_counts_match_subgroups_of_z4():
    assert len(enumerate_right_congruences(cyclic(4))) == 3


def test_enumerate_trivial():
    from sgt.library import trivial
    assert len(enumerate_right_congruences(trivial())) == 1


def test_enumerate_matches_brute_force(lib):
    for name, s in lib.items():
        if s.size > 5:
            continue
        expected = sorted(oracles.brute_right_congruences(s))
        got = sorted(r.class_of for r in enumerate_right_congruences(s).congruences)
        assert got == expected, name


def test_two_sided_generate_matches_partition_oracle(lib):
    for name in ("z4", "chain3", "rz3", "lz3", "n3", "t2"):
        s = lib[name]
        pool = [(a, b) for a in range(s.size) for b in range(s.size) if a != b]
        for x in [[p] for p in pool] + [pool[:2]]:
            compatible = [p for p in oracles.set_partitions(s.size)
                          if oracles.is_right_compatible(s, p)
                          and oracles.is_left_compatible(s, p)
                          and oracles.contains_pairs(p, x)]
            expect = oracles.meet(compatible)
            assert rc_generate(s, x, two_sided=True).class_of == expect, (name, x)


def test_enumerate_order_and_extremes(lib):
    lattice = enumerate_right_congruences(lib["rz3"])
    indexes = [r.index for r in lattice.congruences]
    assert indexes == sorted(indexes, reverse=True)
    assert lattice.congruences[0].class_of == tuple(range(3))
    assert lattice.congruences[-1].class_of == (0, 0, 0)


def test_enumerate_cap(monkeypatch):
    # rz4 has 15 right congruences; counting stops at the first past the cap
    for cap in (0, 1, 2, 5, 7, 14, np.int64(14)):
        with pytest.raises(CapExceeded) as err:
            enumerate_right_congruences(right_zero(4), cap=cap)
        assert err.value.partial_count == cap + 1
    assert len(enumerate_right_congruences(right_zero(4), cap=15)) == 15
    # T3 has 44 distinct principals besides the identity: the cap trips in
    # the principal phase up to 44 and in the close-by-one walk from 45 on
    t3 = from_transformations(3, [Transformation(3, g) for g in T3_GENS])
    for cap in (0, 44, 45, 46, 100, 286):
        with pytest.raises(CapExceeded) as err:
            enumerate_right_congruences(t3, cap=cap)
        assert err.value.partial_count == cap + 1
    assert len(enumerate_right_congruences(t3, cap=287)) == 287
    # up to 44 the cap trips before the walk merges anything
    monkeypatch.setattr(congruence, "_merged_labels", None)
    with pytest.raises(CapExceeded) as err:
        enumerate_right_congruences(t3, cap=44)
    assert err.value.partial_count == 45


@pytest.mark.parametrize("cap", [-1, -3, 2.5, 3.0, True, False, "5"])
def test_enumerate_rejects_bad_cap(cap):
    with pytest.raises(RangeError):
        enumerate_right_congruences(right_zero(3), cap=cap)


def test_t3_lattice_counts():
    t3 = from_transformations(3, [Transformation(3, g) for g in T3_GENS])
    assert t3.size == 27
    lattice = enumerate_right_congruences(t3)
    assert len(lattice) == 287
    keys = [(-r.index, r.class_of) for r in lattice.congruences]
    assert keys == sorted(keys)
    two_sided = two_sided_congruences(t3)
    assert len(two_sided) == 7
    assert {r.class_of for r in two_sided} <= {r.class_of for r in lattice.congruences}


def test_join_is_exported_from_the_package():
    import sgt
    assert sgt.join is sgt.congruence.join


def test_join_resaturation_agrees_with_partition_join(lib):
    for name, s in lib.items():
        if s.size > 4:
            continue
        congruences = enumerate_right_congruences(s).congruences
        for r1 in congruences:
            for r2 in congruences:
                lattice_join = oracles.partition_join(r1.class_of, r2.class_of)
                from sgt.congruence import join
                assert join(r1, r2).class_of == lattice_join, name


def test_minimal_generating_pairs_identity():
    s = cyclic(3)
    x, optimal = minimal_generating_pairs(identity_congruence(s))
    assert len(x) == 0 and optimal


def test_minimal_generating_pairs_z3():
    s = cyclic(3)
    x, optimal = minimal_generating_pairs(universal_congruence(s))
    assert optimal and sorted(x.pairs) == [(0, 1)]


def test_minimal_generating_pairs_right_zero_needs_two():
    s = right_zero(3)
    x, optimal = minimal_generating_pairs(universal_congruence(s))
    assert optimal and len(x) == 2
    # oracle: no single within-class pair closes to universal
    for pair in within_class_pairs(universal_congruence(s)):
        assert rc_generate(s, [pair]).index != 1


def test_minimal_generating_pairs_exhaustive_optimality(lib):
    for name, s in lib.items():
        if s.size > 4:
            continue
        for rho in enumerate_right_congruences(s).congruences:
            x, optimal = minimal_generating_pairs(rho)
            assert rc_generate(s, x).class_of == rho.class_of, name
            candidates = within_class_pairs(rho)
            if optimal and len(candidates) <= 12:
                for k in range(len(x)):
                    for combo in itertools.combinations(candidates, k):
                        assert rc_generate(s, combo).class_of != rho.class_of


def test_minimal_generating_pairs_greedy_mode():
    s = right_zero(4)
    x, optimal = minimal_generating_pairs(universal_congruence(s), exact_limit=0)
    assert not optimal
    assert rc_generate(s, x).index == 1


# Greedy pairs of the parent implementation, which re-saturated every trial
# from the identity partition.
_GREEDY_PINS = {
    ("z6", "universal"): [(0, 1)],
    ("rz4", "universal"): [(0, 1), (0, 2), (0, 3)],
    ("lz4", "L"): [(0, 1), (0, 2), (0, 3)],
    ("rb22", "universal"): [(0, 3)],
    ("t2", "universal"): [(0, 1), (0, 2)],
    ("t2xz2", "universal"): [(0, 3), (0, 4)],
    ("t2xz2", "L"): [(0, 1), (0, 4)],
}


def test_minimal_generating_pairs_greedy_branch(lib):
    from sgt.verify import _l_congruence
    tables = dict(lib, t2xz2=direct_product(lib["t2"], lib["z2"]))
    for name, s in tables.items():
        congruences = (enumerate_right_congruences(s).congruences if s.size <= 6
                       else (universal_congruence(s), _l_congruence(s)))
        for rho in congruences:
            x, optimal = minimal_generating_pairs(rho, exact_limit=0)
            assert rc_generate(s, x).class_of == rho.class_of, name
            assert all(rho.related(a, b) for a, b in x.pairs), name
            assert optimal == (rho.index == s.size)
    for (name, which), pairs in _GREEDY_PINS.items():
        s = tables[name]
        rho = universal_congruence(s) if which == "universal" else _l_congruence(s)
        assert sorted(minimal_generating_pairs(rho, exact_limit=0)[0].pairs) == pairs


def test_rc_diameter_values():
    z3 = cyclic(3)
    assert oracles.brute_diameter(z3, [(0, 1)]) == 1
    assert rc_diameter(z3, [(0, 1)]) == 1
    assert rc_diameter(chain(2), [(0, 1)]) == 1
    out = rc_diameter(right_zero(3), [(0, 1)])
    assert out == Disconnected(index=2)


def test_rc_diameter_matches_brute(lib):
    for name, s in lib.items():
        if s.size > 4:
            continue
        x, _ = minimal_generating_pairs(universal_congruence(s))
        expect = oracles.brute_diameter(s, sorted(x.pairs))
        assert rc_diameter(s, x) == expect, name
        assert expect < s.size


def test_quotient_identity_and_universal():
    s = cyclic(4)
    assert quotient_semigroup(identity_congruence(s)).table == s.table
    assert quotient_semigroup(universal_congruence(s)).size == 1


def test_quotient_z4_mod_subgroup():
    s = cyclic(4)
    rho = rc_generate(s, [(0, 2)])
    assert rho.classes() == [[0, 2], [1, 3]]
    q = quotient_semigroup(rho)
    assert q.table == ((0, 1), (1, 0))


def test_quotient_rejects_one_sided():
    s = t2()
    rho = rc_generate(s, [(0, 2)])  # swap ~ id is right- but not left-compatible
    with pytest.raises(NotTwoSided) as err:
        quotient_semigroup(rho)
    a, b, w = err.value.witness
    assert rho.related(a, b)


def test_extension_property(lib):
    # a refinement extends to the coarser congruence via representative pairs
    for name, s in lib.items():
        if s.size > 4:
            continue
        congruences = enumerate_right_congruences(s).congruences
        for rho in congruences:
            for sigma in congruences:
                if any(len({sigma.class_of[m] for m in members}) != 1
                       for members in rho.classes()):
                    continue
                x, _ = minimal_generating_pairs(rho)
                alphas = [members[0] for members in rho.classes()]
                cross = {(a, b) for a in alphas for b in alphas
                         if a != b and sigma.related(a, b)}
                got = rc_generate(s, set(x.pairs) | cross)
                assert got.class_of == sigma.class_of


def test_pair_set_symmetrization_is_derived():
    s = cyclic(3)
    x = pair_set(s, [(0, 1), (1, 0)])
    assert len(x.pairs) == 2
    y = pair_set(s, [(0, 1)])
    assert y.symmetrized() == {(0, 1), (1, 0)}
    assert y.pairs == frozenset({(0, 1)})


def test_pair_set_rejects_non_integer_and_out_of_range_entries():
    z2 = cyclic(2)
    for bad in [[(0, 1.7)], [(0.0, 1)], [(True, 0)], [(0, False)], [("0", 1)],
                [(0, 2)], [(-1, 0)]]:
        with pytest.raises(RangeError):
            pair_set(z2, bad)
        with pytest.raises(RangeError):
            rc_generate(z2, bad)


def test_pair_set_accepts_numpy_integers():
    x = pair_set(cyclic(3), [(np.int64(0), np.int8(2))])
    assert x.pairs == frozenset({(0, 2)})
    assert all(type(v) is int for pair in x.pairs for v in pair)


def test_pair_set_of_its_semigroup_comes_back_as_it_is():
    s = cyclic(6)
    x = pair_set(s, [(0, 5)])
    assert pair_set(s, x) is x
    # a PairSet of another semigroup is validated against the one it is used on
    y = pair_set(cyclic(2), pair_set(s, [(0, 1)]))
    assert y.parent == cyclic(2) and y.pairs == frozenset({(0, 1)})


@pytest.mark.parametrize("pairs", [{(0, -1)}, {(0, 99)}, {(True, 0)}, {(0.0, 1)}])
def test_pair_set_constructor_checks_its_entries(pairs):
    with pytest.raises(RangeError, match="pair entry must be an int in"):
        PairSet(parent=cyclic(3), pairs=pairs)


def test_pair_set_constructor_stores_numpy_integers_as_ints():
    x = PairSet(parent=cyclic(3), pairs={(np.int64(0), np.uint8(2))})
    assert x.pairs == frozenset({(0, 2)})
    assert all(type(v) is int for pair in x.pairs for v in pair)
    assert pair_set(cyclic(3), x) is x


def test_right_congruence_holds_only_its_class_map():
    assert [f.name for f in dataclasses.fields(RightCongruence) if f.init] == [
        "parent", "class_of"]
    assert "index" not in {f.name for f in dataclasses.fields(RightCongruence)}
    s = cyclic(3)
    with pytest.raises(TypeError):
        RightCongruence(parent=s, class_of=(0, 1, 2), index=3)
    rho = dataclasses.replace(rc_generate(s, []), class_of=(0, 0, 0))
    assert rho.index == 1 and rho.classes() == [[0, 1, 2]]
    assert "index" not in repr(rho)


def test_a_hand_built_non_congruence_is_refused_when_built():
    s = cyclic(3)
    with pytest.raises(ValueError) as want:
        right_congruence(s, (0, 1, 0))
    with pytest.raises(ValueError) as got:  # verify_extend_gens once reported on it
        RightCongruence(parent=s, class_of=(0, 1, 0))  # 0 ~ 2 but 0*1 !~ 2*1
    assert str(got.value) == str(want.value) == "not right compatible: 0 ~ 2 but 0*1 !~ 2*1"
    assert type(got.value) is type(want.value) is ValueError
    with pytest.raises(ValueError, match="not right compatible"):
        dataclasses.replace(universal_congruence(s), class_of=(0, 1, 0))


@pytest.mark.parametrize("class_of, message", [
    ((1, 1, 1), "first occurrence"), ((0, 2, 1), "first occurrence"),
    ((0, 0), "length"), ((0, 0, 0, 0), "length"),
    ((0, 0, 0.0), "class label"), ((0.0, 0, 0), "class label"),
    ((False, 0, 0), "class label"), ((0, None, 0), "class label")])
def test_a_non_canonical_class_map_is_refused_when_built(class_of, message):
    # (1, 1, 1) would read as index 2 with classes [[], [0, 1, 2]]; it and
    # (0, 0, 0.0) once ended verify_fg_gens and quotient_semigroup in a bare
    # IndexError or TypeError
    s = cyclic(3)
    with pytest.raises(RangeError, match=message):
        RightCongruence(parent=s, class_of=class_of)


def test_a_class_map_is_stored_as_a_tuple_of_ints():
    s = cyclic(6)
    rho = RightCongruence(parent=s, class_of=np.array([0, 1, 0, 1, 0, 1], dtype=np.int8))
    assert rho.class_of == (0, 1, 0, 1, 0, 1)
    assert type(rho.class_of) is tuple and all(type(c) is int for c in rho.class_of)
    assert rho == rc_generate(s, [(0, 2)]) and hash(rho) == hash(rc_generate(s, [(0, 2)]))


def test_memo_returns_the_pair_set_it_built():
    s = cyclic(6)
    rho = rc_generate(s, [(0, 2)])
    first = minimal_generating_pairs(rho)
    assert first[0].parent is s
    again = minimal_generating_pairs(rc_generate(s, [(0, 2)]))
    assert again == first and again[0].parent is s
    # numpy integer labels are stored as ints, so they ask the same question
    t, labels = cyclic(6), tuple(np.array(rho.class_of))
    assert minimal_generating_pairs(RightCongruence(parent=t, class_of=labels)) == (
        PairSet(parent=t, pairs=first[0].pairs), True)


def test_congruence_of_its_semigroup_comes_back_as_it_is():
    s = cyclic(6)
    rho = rc_generate(s, [(0, 2)])
    assert _congruence_on(s.table, rho) is rho
    # equal tables suffice: the rows are compared, not the objects
    assert _congruence_on(from_cayley(6, [list(row) for row in s.table]).table, rho) is rho


@pytest.mark.parametrize("a, b", [(-1, 0), (0, 3), (0, 1.0), (True, 0), ("0", 1)])
def test_related_is_range_checked(a, b):
    rho = universal_congruence(cyclic(3))
    with pytest.raises(RangeError):
        rho.related(a, b)
    with pytest.raises(RangeError):
        rho.related(b, a)


@pytest.mark.parametrize("call", [rc_generate, rc_diameter,
                                  lambda s, x: find_x_sequence(s, x, 0, 1)],
                         ids=["rc_generate", "rc_diameter", "find_x_sequence"])
def test_pair_set_of_another_semigroup_is_range_checked(call):
    with pytest.raises(RangeError):
        call(cyclic(2), pair_set(cyclic(6), [(0, 5)]))


def _check_against_brute(s):
    right = sorted(map(oracles.canonical, oracles.brute_right_congruences(s)),
                   key=lambda c: (-(max(c) + 1), c))
    assert [r.class_of for r in enumerate_right_congruences(s).congruences] == right
    assert ([r.class_of for r in two_sided_congruences(s)]
            == [c for c in right if oracles.is_left_compatible(s, c)])


_SMALL_LIBRARY = [s for s in library().values() if s.size <= 6]
_PROPERTY = settings(max_examples=100, deadline=None,
                     suppress_health_check=[HealthCheck.filter_too_much])


#: Generator lists of random transformation semigroups on 2 or 3 points.
_TRANSFORMATION_GENS = st.integers(2, 3).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(0, d - 1)] * d), min_size=1, max_size=3))


def _transformation_semigroup(gens):
    return from_transformations(len(gens[0]), [Transformation(len(g), g) for g in gens])


@_PROPERTY
@given(_TRANSFORMATION_GENS, st.data())
def test_every_constructed_congruence_counts_its_classes(gens, data):
    s = _transformation_semigroup(gens)
    assume(s.size <= 7)
    element = st.integers(0, s.size - 1)
    pairs = st.lists(st.tuples(element, element), max_size=3)
    lattice = enumerate_right_congruences(s).congruences
    made = list(lattice) + [rc_generate(s, data.draw(pairs, label=f"pairs{k}"),
                                        two_sided=k == 1) for k in range(2)]
    made.append(right_congruence(s, data.draw(st.sampled_from(lattice)).class_of))
    made.append(join(*data.draw(st.tuples(st.sampled_from(lattice),
                                          st.sampled_from(lattice)))))
    for rho in made:
        assert rho.index == len(set(rho.class_of))
        assert all(rho.classes())


@_PROPERTY
@given(_TRANSFORMATION_GENS, st.data())
def test_greedy_pairs_match_the_candidate_rescan_gain(gens, data):
    s = _transformation_semigroup(gens)
    assume(s.size <= 7)
    rho = data.draw(st.sampled_from(enumerate_right_congruences(s).congruences),
                    label="rho")
    x, _ = minimal_generating_pairs(rho, exact_limit=0)
    assert sorted(x.pairs) == sorted(oracles.greedy_generating_pairs(s, rho.class_of))


@_PROPERTY
@given(_TRANSFORMATION_GENS, st.data())
def test_sequences_and_diameter_match_brute_bfs(gens, data):
    s = _transformation_semigroup(gens)
    assume(s.size <= 7)
    element = st.integers(0, s.size - 1)
    pairs = data.draw(st.lists(st.tuples(element, element), max_size=3), label="pairs")
    for a in range(s.size):
        for b in range(s.size):
            seq = find_x_sequence(s, pairs, a, b)
            distance = oracles.brute_sequence_distance(s, pairs, a, b)
            assert (seq is None) == (distance is None)
            if seq is not None:
                assert len(seq) == distance and oracles.x_sequence_holds(seq)
    # the star {(0, x)} generates the universal congruence on every table
    star = [(0, x) for x in range(1, s.size)]
    for x in (pairs, star):
        rho = rc_generate(s, x)
        if rho.index == 1:
            assert rc_diameter(s, x) == oracles.brute_diameter(s, x)
        else:
            assert rc_diameter(s, x) == Disconnected(index=rho.index)


def test_right_congruence_validates():
    with pytest.raises(ValueError):
        right_congruence(cyclic(3), [0, 0, 1])  # e ~ g is not closed


# Library tables and their direct products of size <= 9, for class-map properties.
_MAP_TABLES = list(library().values()) + [
    direct_product(a, b) for a in library().values() for b in library().values()
    if 1 < a.size and 1 < b.size and a.size * b.size <= 9]


@st.composite
def _class_maps(draw):
    """A table and a class map: random labels, or a generated right or
    two-sided congruence with one element possibly moved into another class
    (so that both outcomes occur)."""
    s = draw(st.sampled_from(_MAP_TABLES))
    element = st.integers(0, s.size - 1)
    if draw(st.booleans()):
        pairs = draw(st.lists(st.tuples(element, element), max_size=2))
        class_of = list(rc_generate(s, pairs, two_sided=draw(st.booleans())).class_of)
        class_of[draw(element)] = class_of[draw(element)]
    else:
        k = draw(st.integers(1, s.size))
        class_of = draw(st.lists(st.integers(0, k - 1), min_size=s.size, max_size=s.size))
    return s, class_of


@_PROPERTY
@given(_class_maps())
def test_right_congruence_accepts_exactly_right_compatible_maps(case):
    s, class_of = case
    canon = oracles.canonical(class_of)
    if oracles.is_right_compatible(s, canon):
        rho = right_congruence(s, class_of)
        assert rho.class_of == canon and rho.index == len(set(canon))
        return
    with pytest.raises(ValueError, match="not right compatible") as err:
        right_congruence(s, class_of)
    a, b, t = map(int, re.match(r"not right compatible: (\d+) ~ (\d+) but \1\*(\d+) ",
                                str(err.value)).groups())
    assert canon[a] == canon[b] and canon[s.table[a][t]] != canon[s.table[b][t]]


@_PROPERTY
@given(_class_maps())
def test_quotient_rejects_exactly_maps_not_compatible_on_both_sides(case):
    s, class_of = case
    canon = oracles.canonical(class_of)
    if not oracles.is_right_compatible(s, canon):
        # refused when built, before quotient_semigroup can see it
        with pytest.raises(ValueError, match="not right compatible"):
            RightCongruence(parent=s, class_of=canon)
        return
    rho = RightCongruence(parent=s, class_of=canon)
    if oracles.is_left_compatible(s, canon):
        q = quotient_semigroup(rho)
        assert all(q.table[canon[a]][canon[b]] == canon[s.table[a][b]]
                   for a in range(s.size) for b in range(s.size))
        return
    with pytest.raises(NotTwoSided) as err:
        quotient_semigroup(rho)
    a, b, t = err.value.witness
    assert canon[a] == canon[b]
    assert (canon[s.table[a][t]] != canon[s.table[b][t]]
            or canon[s.table[t][a]] != canon[s.table[t][b]])


@pytest.mark.parametrize("limit", [2.5, -1, True, "3", None])
def test_minimal_generating_pairs_rejects_bad_exact_limit(limit):
    s = cyclic(3)
    with pytest.raises(RangeError, match="exact_limit must be a non-negative int"):
        minimal_generating_pairs(universal_congruence(s), exact_limit=limit)


#: Random transformation semigroups of at most 7 elements, and relabelled
#: library tables of at most 6.
_SMALL_TABLES = st.one_of(
    _TRANSFORMATION_GENS.map(_transformation_semigroup).filter(lambda s: s.size <= 7),
    st.sampled_from(_SMALL_LIBRARY).flatmap(
        lambda s: st.permutations(range(s.size)).map(lambda p: oracles.relabelled(s, p))))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(_SMALL_TABLES)
# the two constants and the identity: left translation by the last element matters
@example(s=_transformation_semigroup([(0, 0), (0, 1), (1, 1)]))
def test_lattice_matches_brute_on_both_sides(s):
    # a merge skipped on an inherited witness must never be one the walk needed
    _check_against_brute(s)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(_SMALL_TABLES, st.data())
def test_generated_congruence_matches_brute_on_both_sides(s, data):
    element = st.integers(0, s.size - 1)
    pairs = data.draw(st.lists(st.tuples(element, element), max_size=3), label="pairs")
    for two_sided in (False, True):
        assert (rc_generate(s, pairs, two_sided=two_sided).class_of
                == oracles.brute_generated(s, pairs, two_sided=two_sided))


def _check_principals_against_closures(s):
    for two_sided in (False, True):
        def close(x):
            return congruence._close(s, x, two_sided=two_sided).class_of

        assert ([(rho.class_of, a, b) for a, b, rho in congruence._principals(s, two_sided)]
                == oracles.first_pair_principals(s.size, close))


@_PROPERTY
@given(_SMALL_TABLES)
def test_pair_graph_principals_match_one_closure_per_pair(s):
    _check_principals_against_closures(s)


def test_t3_principals_match_one_closure_per_pair():
    _check_principals_against_closures(
        from_transformations(3, [Transformation(3, g) for g in T3_GENS]))


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(_SMALL_TABLES)
def test_a_congruence_refines_none_listed_before_it(s):
    # the order (-index, class_of) puts a strict refinement, of larger
    # index, first: sweep() looks for what lattice[a] refines in lattice[a:]
    lattice = enumerate_right_congruences(s).congruences
    for a, rho in enumerate(lattice):
        for b, sigma in enumerate(lattice):
            refines = oracles.partition_join(rho.class_of, sigma.class_of) == sigma.class_of
            assert _refines(rho, sigma) == refines
            assert not refines or a <= b


_GRAPHS = st.integers(1, 12).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n - 1), max_size=3), min_size=n, max_size=n))


@_PROPERTY
@given(_GRAPHS)
def test_sccs_are_the_mutually_reachable_classes_successors_first(succ):
    n = len(succ)
    where = congruence._sccs(n, succ.__getitem__)
    assert len(where) == n and sorted(set(where)) == list(range(len(set(where))))
    reach = [oracles.reachable(succ.__getitem__, v) for v in range(n)]
    for v in range(n):
        for w in range(n):
            assert (where[v] == where[w]) == (w in reach[v] and v in reach[w])
        assert all(where[w] <= where[v] for w in succ[v])


def test_sccs_need_no_recursion_on_long_paths():
    n = 100_000
    assert congruence._sccs(n, lambda v: [(v + 1) % n]) == [0] * n
    line = congruence._sccs(n, lambda v: [v + 1] if v + 1 < n else [])
    assert line == list(reversed(range(n)))


@_PROPERTY
@given(st.sampled_from(_MAP_TABLES), st.data())
def test_join_matches_partition_join_up_to_nine_elements(s, data):
    element = st.integers(0, s.size - 1)
    pairs = st.lists(st.tuples(element, element), max_size=3)
    two_sided = data.draw(st.booleans(), label="two_sided")
    rho, sigma = (rc_generate(s, data.draw(pairs, label=name), two_sided=two_sided)
                  for name in ("rho", "sigma"))
    joined = join(rho, sigma)
    assert joined.class_of == oracles.partition_join(rho.class_of, sigma.class_of)
    assert joined.index == len(set(joined.class_of))
    assert oracles.is_right_compatible(s, joined.class_of)
    if two_sided:
        assert oracles.is_left_compatible(s, joined.class_of)


@_PROPERTY
@given(st.data())
def test_merged_labels_are_the_partition_join(data):
    # any two partitions, not only congruences; cls's own member links lie
    # inside one label each, and so do other's wherever other refines cls
    n = data.draw(st.integers(1, 9), label="n")
    cls, other = (oracles.canonical(data.draw(st.lists(st.integers(0, n - 1), min_size=n,
                                                       max_size=n), label=name))
                  for name in ("cls", "other"))
    links = congruence._member_links(other) + congruence._member_links(cls)
    links = data.draw(st.permutations(links), label="links")
    root = congruence._merged_labels(cls, max(cls) + 1, links)
    assert all(root[root[c]] == root[c] <= c for c in range(len(root)))  # each group's least
    assert oracles.canonical([root[c] for c in cls]) == oracles.partition_join(cls, other)


@_PROPERTY
@given(_SMALL_TABLES, st.data())
def test_a_closure_within_a_congruence_stops_exactly_at_it(s, data):
    # the pairs lie in rho, and so does the partition tau in closed, so the
    # closure refines rho: it is rho itself exactly when it has rho's classes
    lattice = enumerate_right_congruences(s).congruences
    rho = data.draw(st.sampled_from(lattice), label="rho")
    inside = within_class_pairs(rho)
    pairs = data.draw(st.lists(st.sampled_from(inside), max_size=4) if inside
                      else st.just([]), label="pairs")
    tau = data.draw(st.sampled_from([t for t in lattice if _refines(t, rho)]), label="tau")
    for closed, extra in (((), []), ((tau.class_of,), within_class_pairs(tau))):
        stopped = congruence._close(s, pairs, closed=closed, within=rho)
        generated = rc_generate(s, pairs + extra)
        assert (stopped is rho) == (generated.class_of == rho.class_of)
        assert stopped.class_of == generated.class_of


def test_a_closure_within_counts_its_stops():
    s = cyclic(4)
    universal = universal_congruence(s)
    with trace.counting() as counts:
        assert congruence._close(s, [(0, 1)], within=universal) is universal
        assert congruence._close(s, [(0, 2)], within=universal).class_of == (0, 1, 0, 1)
        rc_generate(s, [(0, 1)])
    assert counts["congruence.close.calls"] == 3
    assert counts["congruence.close.stopped"] == 1


@_PROPERTY
@given(_class_maps(), st.booleans())
def test_incompatible_reports_the_full_scan_witness(case, two_sided):
    s, class_of = case
    assert (_incompatible(s, class_of, two_sided=two_sided)
            == oracles.first_incompatible(s, class_of, two_sided=two_sided))


def _resaturating_search(s, rho, exact_limit):
    """The exact branch as it was: every combination of within-class pairs,
    smallest first and in lexicographic order, closed from the identity."""
    candidates = sorted(within_class_pairs(rho))
    if not candidates or len(candidates) > exact_limit:
        return None
    for k in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, k):
            if rc_generate(s, combo).class_of == rho.class_of:
                return sorted(combo)
    raise AssertionError("within-class pairs must generate their congruence")


def test_exact_generating_pairs_match_the_resaturating_search():
    rng = random.Random(14)
    for s in _SMALL_LIBRARY:
        perm = list(range(s.size))
        rng.shuffle(perm)
        for t in (s, oracles.relabelled(s, perm)):
            for rho in enumerate_right_congruences(t).congruences:
                want = _resaturating_search(t, rho, 15)
                if want is None:
                    continue
                x, optimal = minimal_generating_pairs(rho, exact_limit=15)
                assert optimal and sorted(x.pairs) == want


def _answer(result):
    x, optimal = result
    return sorted(x.pairs), optimal


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(_SMALL_TABLES, st.sampled_from([(0, 12), (12, 0)]))
def test_memoized_generating_pairs_match_a_fresh_instance(s, limits):
    # every question asked first of a fresh equal instance, whose memo is empty
    def fresh(rho, limit):
        t = from_cayley(s.size, s.table)
        return _answer(minimal_generating_pairs(dataclasses.replace(rho, parent=t), limit))

    before = (hash(s), repr(s), dataclasses.fields(s))
    twin = from_cayley(s.size, s.table)
    congruences = enumerate_right_congruences(s).congruences
    for _ in range(2):  # the second round is answered from the memo
        for rho in congruences:
            for limit in limits:
                result = minimal_generating_pairs(rho, limit)
                assert result[0].parent is s
                assert _answer(result) == fresh(rho, limit)
    assert len(s._generating_pairs_memo) == len(limits) * len(congruences)
    assert (hash(s), repr(s), dataclasses.fields(s)) == before
    assert s == twin and hash(s) == hash(twin)


def test_memo_checks_its_arguments_on_every_call():
    s, other = from_cayley(3, right_zero(3).table), from_cayley(3, left_zero(3).table)
    rho = universal_congruence(s)
    minimal_generating_pairs(rho)
    # the same class map on another table is asked of that table, not of s
    x, _ = minimal_generating_pairs(universal_congruence(other))
    assert x.parent is other and len(x) == 2
    assert s._generating_pairs_memo.keys() == other._generating_pairs_memo.keys()
    with pytest.raises(RangeError, match="exact_limit"):
        minimal_generating_pairs(rho, exact_limit=-1)


def test_memo_is_freed_with_its_semigroup():
    # a copy of rz4, so that no library or lru_cache entry holds it; neither
    # classify nor green_data is called on it
    s = from_cayley(library()["rz4"].size, library()["rz4"].table)
    for rho in enumerate_right_congruences(s).congruences:
        minimal_generating_pairs(rho)
    assert len(s._generating_pairs_memo) == 15
    relabelled = dataclasses.replace(s, labels=tuple("abcd"))
    assert relabelled == s and relabelled._generating_pairs_memo == {}
    ref = weakref.ref(s)
    del s, rho
    gc.collect()
    assert ref() is None


def test_a_semigroup_that_answered_is_freed_by_reference_counting():
    # the memo holds pairs, not PairSets that refer back to s, so s is in no
    # reference cycle and goes as soon as its last reference does
    s = from_cayley(library()["rz4"].size, library()["rz4"].table)
    gc.disable()
    try:
        answers = [minimal_generating_pairs(rho)
                   for rho in enumerate_right_congruences(s).congruences]
        assert len(s._generating_pairs_memo) == 15
        assert all(x.parent is s for x, _ in answers)
        ref = weakref.ref(s)
        del s, answers
        assert ref() is None
    finally:
        gc.enable()
