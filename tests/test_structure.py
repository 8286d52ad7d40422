import copy
import dataclasses
import gc
import itertools
import pickle
import random
import re
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sgt import core, green, structure
from sgt.core import (InternalAssertFailure, RangeError, Transformation, classify,
                      direct_product, from_cayley, from_transformations)
from sgt.green import green_data, maximal_subgroups
from sgt.library import library
from sgt.library import chain, cyclic, left_zero, nilpotent_n3, rectangular_band, right_zero, t2, trivial
from sgt.structure import (ZERO, InvalidGroup, MismatchedInput, NotCommutative,
                           NotCompletelyRegular, NotCompletelySimple,
                           RaggedMatrix, ReesStructure, archimedean_decomposition,
                           completeness_check, cr_decomposition,
                           diagonal_cyclic_witness, h_congruence_check,
                           rees_construct, rees_coordinates,
                           rees_structure, theta_congruence)


def test_rees_construct_rectangular_band():
    r = rees_structure(trivial(), 2, 2, [[0, 0], [0, 0]], with_zero=False)
    s = rees_construct(r)
    assert s.size == 4
    assert oracles.isomorphic(s, rectangular_band(2, 2), 8) is not None


def test_rees_construct_degenerate_group():
    r = rees_structure(cyclic(2), 1, 1, [[0]], with_zero=False)
    s = rees_construct(r)
    assert s.table == cyclic(2).table


def test_rees_construct_with_zero():
    r = rees_structure(trivial(), 2, 2, [[0, None], [None, 0]], with_zero=True)
    s = rees_construct(r)
    assert s.size == 5 and s.zero == 4
    # product formula by hand: (i1,g,j1)(i2,g,j2) = 0 iff p[j1][i2] = 0
    for a, (i1, j1) in enumerate(itertools.product(range(2), range(2))):
        for b, (i2, j2) in enumerate(itertools.product(range(2), range(2))):
            expect = 4 if r.p_matrix[j1][i2] is None else i1 * 2 + j2
            assert s.table[a][b] == expect
    assert classify(s).completely_zero_simple


def test_rees_construct_irregular_warns():
    r = rees_structure(trivial(), 2, 2, [[0, 0], [None, None]], with_zero=True)
    with pytest.warns(UserWarning):
        rees_construct(r)


_GROUPS = [trivial(), cyclic(2), cyclic(3), cyclic(4),
           direct_product(cyclic(2), cyclic(2)),
           from_transformations(3, [Transformation(3, (1, 0, 2)),
                                    Transformation(3, (1, 2, 0))])]


@st.composite
def _rees_inputs(draw):
    g = draw(st.sampled_from(_GROUPS))
    perm = draw(st.permutations(range(g.size)))  # relabel: x -> perm[x]
    inv = sorted(range(g.size), key=perm.__getitem__)
    gt = [[perm[g.table[inv[a]][inv[b]]] for b in range(g.size)] for a in range(g.size)]
    i_size, j_size = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    with_zero = draw(st.booleans())
    entry = st.integers(0, g.size - 1)
    if with_zero:
        entry = st.none() | entry
    p = [[draw(entry) for _ in range(i_size)] for _ in range(j_size)]
    return gt, i_size, j_size, p, with_zero


@settings(max_examples=200, deadline=None)
@given(_rees_inputs())
def test_rees_table_matches_the_triple_product(case):
    gt, i_size, j_size, p, with_zero = case
    r = rees_structure(from_cayley(len(gt), gt), i_size, j_size, p, with_zero)
    assert list(map(list, r.semigroup.table)) == oracles.brute_rees_table(*case)


def test_rees_structure_validation():
    with pytest.raises(InvalidGroup):
        rees_structure(chain(2), 1, 1, [[0]], with_zero=False)
    with pytest.raises(RaggedMatrix):
        rees_structure(trivial(), 2, 2, [[0, 0]], with_zero=False)
    with pytest.raises(ValueError):
        rees_structure(trivial(), 1, 1, [[None]], with_zero=False)


@pytest.mark.parametrize("entry", [0.0, 1.0, True, "0", -1, 2])
def test_rees_structure_rejects_bad_sandwich_entries(entry):
    with pytest.raises(RangeError):
        rees_structure(cyclic(2), 1, 1, [[entry]], with_zero=False)


def test_rees_structure_stores_numpy_entries_as_ints():
    r = rees_structure(cyclic(2), 2, 1, [[np.int64(1), np.int32(0)]], with_zero=False)
    assert r.p_matrix == ((1, 0),)
    assert all(type(v) is int for v in r.p_matrix[0])
    assert rees_construct(r).size == 4


def test_theta_diagonal_pattern():
    r = rees_structure(trivial(), 2, 2, [[0, None], [None, 0]], with_zero=True)
    s = rees_construct(r)
    vectors, rho = theta_congruence(r)
    assert vectors == ((1, 0), (0, 1))
    assert rho.index == 3
    # brute-force class count over the 5 elements
    assert len(set(rho.class_of)) == 3
    assert oracles.is_right_compatible(s, rho.class_of)


def test_theta_all_nonzero():
    r = rees_structure(trivial(), 2, 3, [[0, 0], [0, 0], [0, 0]], with_zero=True)
    s = rees_construct(r)
    vectors, rho = theta_congruence(r)
    assert set(vectors) == {(1, 1)}
    assert rho.index == 2


def test_theta_repeated_rows():
    r = rees_structure(trivial(), 2, 3, [[0, None], [0, None], [None, 0]],
                       with_zero=True)
    s = rees_construct(r)
    _, rho = theta_congruence(r)
    assert rho.index == 3


def test_theta_mismatched_input():
    r2 = rees_structure(trivial(), 2, 2, [[0, 0], [0, 0]], with_zero=False)
    with pytest.raises(MismatchedInput, match="needs a structure with zero"):
        theta_congruence(r2)


def test_rees_coordinates_rectangular_band():
    struct, mapping = rees_coordinates(rectangular_band(2, 2))
    assert struct.group.size == 1
    assert struct.i_size == 2 and struct.j_size == 2
    assert all(v == 0 for row in struct.p_matrix for v in row)


def test_rees_coordinates_group():
    struct, mapping = rees_coordinates(cyclic(3))
    assert struct.group.size == 3 and struct.i_size == 1 and struct.j_size == 1


def test_rees_coordinates_right_zero():
    struct, mapping = rees_coordinates(right_zero(3))
    assert (struct.group.size, struct.i_size, struct.j_size) == (1, 1, 3)


def test_rees_coordinates_left_zero():
    struct, mapping = rees_coordinates(left_zero(3))
    assert (struct.group.size, struct.i_size, struct.j_size) == (1, 3, 1)


def test_rees_coordinates_rejects_non_simple():
    # note chain(2) itself is completely 0-simple (trivial group, 1x1 matrix)
    with pytest.raises(NotCompletelySimple):
        rees_coordinates(chain(3))
    with pytest.raises(NotCompletelySimple):
        rees_coordinates(nilpotent_n3())
    struct, _ = rees_coordinates(chain(2))
    assert struct.with_zero and struct.group.size == 1


def test_rees_coordinates_normalization():
    # first row and column of P are the identity where nonzero
    r = rees_structure(cyclic(2), 2, 2, [[0, 1], [1, 1]], with_zero=False)
    struct, _ = rees_coordinates(rees_construct(r))
    assert struct.p_matrix[0] == (struct.group.identity,) * struct.i_size
    for row in struct.p_matrix:
        assert row[0] == struct.group.identity


def test_rees_roundtrip_with_zero():
    r = rees_structure(cyclic(2), 2, 2, [[0, None], [None, 1]], with_zero=True)
    s = rees_construct(r)
    struct, mapping = rees_coordinates(s)
    rebuilt = rees_construct(struct)
    assert rebuilt.size == s.size
    for a in range(rebuilt.size):
        for b in range(rebuilt.size):
            assert mapping[rebuilt.table[a][b]] == s.table[mapping[a]][mapping[b]]


def _s3():
    """S3 as the group H-class of T3, relabelled so its identity is the last
    element: in a matrix semigroup over it, min(H_e) is not e."""
    t3 = from_transformations(3, [Transformation(3, (1, 0, 2)), Transformation(3, (1, 2, 0)),
                                  Transformation(3, (0, 0, 2))])
    (_, g), = [(m, g) for m, g in maximal_subgroups(t3) if g.size == 6]
    perm = [x for x in range(6) if x != g.identity] + [g.identity]  # new -> old
    inv = {old: new for new, old in enumerate(perm)}
    return from_cayley(6, [[inv[g.table[a][b]] for b in perm] for a in perm],
                       labels=[g.label(x) for x in perm])


# Pinned coordinates: P, the map and the group labels; (0, g, 0) maps to
# h0*g*h0^-1 for h0 = min(H_e), which S3 being non-abelian makes visible.
S3_PINS = [
    ([[1, 2, 5], [3, 4, 0]], False, ((3, 3, 3), (3, 0, 2)),
     (1, 2, 9, 6, 5, 10, 7, 8, 11, 4, 3, 0, 21, 18, 13, 14, 23, 16, 15, 12, 17, 22, 19, 20,
      29, 34, 27, 24, 31, 32, 25, 26, 33, 30, 35, 28),
     ("(0,g0,1)", "(0,g1,1)", "(0,g0*g1,1)", "(0,g1*g0,1)", "(0,g1*g1,1)", "(0,g0*g0,1)")),
    ([[1, None], [None, 2], [4, 3]], True, ((1, 1), (1, None), (None, 5)),
     (2, 6, 1, 5, 12, 4, 11, 0, 10, 8, 9, 7, 17, 3, 16, 14, 15, 13, 32, 33, 31, 29, 18, 28,
      23, 30, 22, 35, 21, 34, 26, 27, 25, 20, 24, 19, 36),
     ("(0,g0,2)", "(0,g1,2)", "(0,g0*g1,2)", "(0,g1*g0,2)", "(0,g1*g1,2)", "(0,g0*g0,2)")),
]


@pytest.mark.parametrize("p, with_zero, p_out, mapping_out, labels_out", S3_PINS)
def test_rees_coordinates_pinned_over_s3(p, with_zero, p_out, mapping_out, labels_out):
    s3 = _s3()
    assert not classify(s3).commutative and s3.identity == 5
    s = rees_construct(rees_structure(s3, len(p[0]), len(p), p, with_zero))
    struct, mapping = rees_coordinates(s)
    assert (struct.i_size, struct.j_size, struct.with_zero) == (len(p[0]), len(p), with_zero)
    assert struct.p_matrix == p_out and mapping == mapping_out
    assert struct.group.labels == labels_out
    assert struct.group.identity != 0  # e is not min(H_e)
    assert oracles.is_isomorphism(rees_construct(struct), s, mapping)


def _rees_cases():
    """Trivial, Z2 and Z3 with |I|, |J| <= 3, with and without a zero, three
    sandwich matrices each (one all zero where a zero is allowed)."""
    rng = random.Random(36)
    for g, isz, jsz, with_zero in itertools.product(
            _GROUPS[:3], (1, 2, 3), (1, 2, 3), (False, True)):
        entries = [*range(g.size), *([ZERO] if with_zero else [])]
        for k in range(3):
            p = [[rng.choice(entries) if k or not with_zero else ZERO
                  for _ in range(isz)] for _ in range(jsz)]
            yield g, isz, jsz, p, with_zero


def _assert_rees_matches_the_eager_oracle(g, isz, jsz, p, with_zero, read_labels_first):
    table, labels = oracles.brute_rees(g, isz, jsz, p, with_zero)
    s = rees_structure(g, isz, jsz, p, with_zero).semigroup
    if read_labels_first:
        assert s.labels == tuple(labels)
    assert list(map(list, s.table)) == table
    assert s.labels == tuple(labels) and type(s.labels) is tuple
    assert all(type(x) is str for x in s.labels)
    assert [s.label(x) for x in range(s.size)] == labels


@pytest.mark.parametrize("read_labels_first", [False, True])
def test_rees_table_and_labels_match_the_eager_oracle(read_labels_first):
    for case in _rees_cases():
        _assert_rees_matches_the_eager_oracle(*case, read_labels_first)


@pytest.mark.parametrize("isz, jsz", [(64, 2), (2, 64)])
def test_a_large_rees_table_matches_the_eager_oracle(isz, jsz):
    rng = random.Random(isz)
    p = [[rng.choice([0, 1, 2, ZERO]) for _ in range(isz)] for _ in range(jsz)]
    _assert_rees_matches_the_eager_oracle(cyclic(3), isz, jsz, p, True, False)


@pytest.mark.parametrize("p, with_zero", [(p, z) for p, z, *_ in S3_PINS])
def test_rees_table_and_labels_over_s3_match_the_eager_oracle(p, with_zero):
    _assert_rees_matches_the_eager_oracle(_s3(), len(p[0]), len(p), p, with_zero, False)


def test_rees_coordinates_group_labels_are_those_of_the_maximal_subgroup():
    """struct.group is s on H_e, in s's order, labelled as in s: its labels
    are made on first read, after the round trip."""
    for g, isz, jsz, p, with_zero in itertools.islice(_rees_cases(), 0, None, 5):
        if with_zero and all(v is ZERO for row in p for v in row):
            continue  # not completely 0-simple
        r = rees_structure(g, isz, jsz, p, with_zero)
        if not r.is_regular():
            continue
        s = rees_construct(r)
        struct, _ = rees_coordinates(s)
        gd = green_data(s)
        e = min(x for x in range(s.size - with_zero) if s.table[x][x] == x)  # the zero last
        assert struct.group.labels == tuple(map(s.label, gd.h_members(gd.h_class[e])))


def test_a_rees_round_trip_leaves_no_reference_cycle():
    """The label recipes hold the group and the sizes, not the structure, so
    reference counting alone frees a round trip's structure and semigroup."""
    gc.collect()
    gc.disable()
    try:
        s = rees_construct(rees_structure(cyclic(3), 3, 3, [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
                                          with_zero=False))
        struct, _ = rees_coordinates(s)
        rebuilt = rees_construct(struct)
        refs = [weakref.ref(struct), weakref.ref(rebuilt)]
        del struct, rebuilt
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_unread_labels_survive_a_copy_and_a_pickle():
    """A copy made before the labels are read holds them, not a share of the
    one-shot recipe."""
    r = rees_structure(cyclic(2), 2, 1, [[0, 1]], with_zero=False)
    expected = oracles.brute_rees(r.group, 2, 1, [[0, 1]], False)[1]
    s = r.semigroup
    assert "labels" not in vars(s)
    twin, clone = copy.copy(s), pickle.loads(pickle.dumps(s))
    assert s.labels == twin.labels == clone.labels == tuple(expected)
    assert s == twin == clone


def test_threads_that_read_unread_labels_at_once_all_get_them():
    """A recipe is one-shot; the lock makes it run once, so no reader gets a
    share of it.  Four threads on a two-core host start their reads
    together and switch often."""
    p = [[0] * 8] * 8
    expected = tuple(oracles.brute_rees(cyclic(3), 8, 8, p, False)[1])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            s = rees_structure(cyclic(3), 8, 8, p, with_zero=False).semigroup
            start, seen = threading.Barrier(4), []

            def read():
                start.wait(timeout=10)
                seen.append(s.labels)

            threads = [threading.Thread(target=read) for _ in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=10)
            assert not any(th.is_alive() for th in threads)
            assert seen == [expected] * 4
    finally:
        sys.setswitchinterval(interval)


def test_rees_coordinates_orders_classes_by_first_occurrence_in_s():
    # L-classes go in order of their least element in S, not in R_e; the
    # two orders differ here and the map shows which one was taken
    s = oracles.relabelled(rectangular_band(2, 3), (0, 2, 3, 4, 5, 1))
    struct, mapping = rees_coordinates(s)
    assert (struct.i_size, struct.j_size) == (2, 3)
    assert mapping == (0, 3, 2, 4, 1, 5)


@st.composite
def _rees_inputs(draw):
    """A regular Rees structure over a small group, and a relabelling of the
    matrix semigroup it constructs."""
    g = draw(st.sampled_from([trivial(), cyclic(2), cyclic(3), _s3()]))
    i_size, j_size = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    with_zero = draw(st.booleans())
    entries = st.sampled_from(list(range(g.size)) + [None] * with_zero)
    p = draw(st.lists(st.lists(entries, min_size=i_size, max_size=i_size),
                      min_size=j_size, max_size=j_size).filter(
        lambda p: all(any(v is not None for v in row) for row in p)
        and all(any(row[i] is not None for row in p) for i in range(i_size))))
    s = rees_construct(rees_structure(g, i_size, j_size, p, with_zero))
    return oracles.relabelled(s, draw(st.permutations(range(s.size))))


@settings(max_examples=60, deadline=None)
@given(_rees_inputs())
def test_rees_coordinates_of_relabelled_constructions_is_an_isomorphism(s):
    struct, mapping = rees_coordinates(s)
    assert oracles.is_isomorphism(rees_construct(struct), s, mapping)
    first = set(struct.p_matrix[0]) | {row[0] for row in struct.p_matrix}
    assert first <= {struct.group.identity, None}  # normalized where nonzero


def test_rees_structure_derives_its_index_set_sizes_from_the_matrix():
    assert [f.name for f in dataclasses.fields(ReesStructure) if f.init] == [
        "group", "p_matrix", "with_zero"]
    z2 = cyclic(2)
    for sizes in ({"i_size": 1}, {"j_size": 1}, {"i_size": 1, "j_size": 1}):
        with pytest.raises(TypeError):
            ReesStructure(group=z2, p_matrix=((0,), (1,)), with_zero=False, **sizes)
    # two rows of one entry: |I| = 1 and |J| = 2, so no row is dropped
    r = ReesStructure(group=z2, p_matrix=((0,), (1,)), with_zero=False)
    assert (r.i_size, r.j_size) == (1, 2)
    assert r == rees_structure(z2, 1, 2, [[0], [1]], with_zero=False)
    assert rees_construct(r).size == 4
    wide = dataclasses.replace(r, p_matrix=((0, 1, 0),))
    assert (wide.i_size, wide.j_size) == (3, 1)
    assert wide != dataclasses.replace(r, p_matrix=((0,), (1,), (0,)))


@pytest.mark.parametrize("p_matrix, error, message", [
    (((0, 5),), RangeError, r"matrix entry must be an int in \[0, 2\), got 5"),
    (((0,), (0, 1)), RaggedMatrix, "expected 1 entries, got 2"),
    (((0, 1), (0,)), RaggedMatrix, "expected 2 entries, got 1"),
    (((0, None),), RangeError, "zero entry in a structure without zero"),
    (((0, 1.0),), RangeError, "got 1.0"),
    (((True,),), RangeError, "got True"),
    ((), RaggedMatrix, "index sets must be nonempty"),
    (((),), RaggedMatrix, "index sets must be nonempty"),
])
def test_hand_built_rees_structure_checks_its_matrix(p_matrix, error, message):
    z2 = cyclic(2)
    with pytest.raises(error, match=message):
        ReesStructure(group=z2, p_matrix=p_matrix, with_zero=False)
    with pytest.raises(error, match=message):
        dataclasses.replace(ReesStructure(group=z2, p_matrix=((0,),), with_zero=False),
                            p_matrix=p_matrix)


def test_hand_built_rees_structure_checks_its_group():
    with pytest.raises(InvalidGroup, match="structure group must be a group"):
        ReesStructure(group=chain(2), p_matrix=((0,),), with_zero=False)
    r = ReesStructure(group=cyclic(2), p_matrix=((0,),), with_zero=False)
    with pytest.raises(InvalidGroup, match="structure group must be a group"):
        dataclasses.replace(r, group=chain(2))


def test_rees_semigroup_is_derived_once_and_is_no_field():
    r = rees_structure(cyclic(2), 2, 1, [[0, 1]], with_zero=False)
    assert "semigroup" not in [f.name for f in dataclasses.fields(ReesStructure)]
    assert r.semigroup is r.semigroup and rees_construct(r).table == r.semigroup.table
    twin = rees_structure(cyclic(2), 2, 1, [[0, 1]], with_zero=False)
    # twin has built no semigroup yet; the group's own table is in both reprs
    assert repr(r.semigroup.table) not in repr(r) and repr(r) == repr(twin)
    assert r == twin and hash(r) == hash(twin)


def test_rees_construct_returns_the_structures_own_semigroup():
    r = rees_structure(cyclic(3), 2, 2, [[0, 1], [2, 0]], with_zero=False)
    assert rees_construct(r) is rees_construct(r) is r.semigroup
    assert [f.name for f in dataclasses.fields(ReesStructure)] == [
        "group", "p_matrix", "with_zero"]


def _round_trips_with_cold_caches():
    """Criterion 8's round trip on its first structure of each stratum, with
    classify's and green_data's caches cleared first, so that no op is
    spared work by a cache hit; yields after each op."""
    classify.cache_clear()
    green.green_data.cache_clear()
    for g in _GROUPS[:3]:  # trivial, Z2 and Z3, built before any op
        for isz, jsz in itertools.product((1, 2, 3), repeat=2):
            r = rees_structure(g, isz, jsz, [[0] * isz] * jsz, with_zero=False)
            struct, _ = rees_coordinates(rees_construct(r))
            rees_construct(struct)
            yield


def test_a_rees_round_trip_finds_each_generating_set_once(monkeypatch):
    """rees_coordinates checks its map over the preimages of s's generators,
    which classify(s) found, and rees_construct(struct) reuses the structure's
    own semigroup without classifying it: an op finds at most one generating
    set on average, s's."""
    calls = []
    greedy = core._greedy_generators
    monkeypatch.setattr(core, "_greedy_generators",
                        lambda rows: calls.append(1) or greedy(rows))
    ops = sum(1 for _ in _round_trips_with_cold_caches())
    assert 0 < len(calls) <= ops


def test_a_rees_round_trip_does_not_classify_its_maximal_subgroup(monkeypatch):
    """rees_coordinates builds its structure unchecked: classify found s
    completely simple, so H_e is a group, and the structure's semigroup is
    isomorphic to s, so rees_construct(struct) need not classify it.  An op
    classifies the group and s twice, and nothing else."""
    calls = []
    monkeypatch.setattr(structure, "classify", lambda s: calls.append(s) or classify(s))
    for _ in _round_trips_with_cold_caches():
        assert len(calls) == 3
        calls.clear()


@pytest.mark.parametrize("with_zero", [False, True])
def test_only_rees_coordinates_presets_that_its_semigroup_is_completely_simple(
        monkeypatch, with_zero):
    """A structure from rees_structure, the constructor or dataclasses.replace
    classifies its semigroup when rees_construct checks it."""
    calls = []
    monkeypatch.setattr(structure, "classify", lambda s: calls.append(s) or classify(s))
    p = [[0, ZERO], [1, 0]] if with_zero else [[0, 1], [1, 0]]
    struct, _ = rees_coordinates(rees_construct(rees_structure(cyclic(2), 2, 2, p, with_zero)))
    for r in (rees_structure(struct.group, struct.i_size, struct.j_size, struct.p_matrix,
                             with_zero),
              ReesStructure(group=struct.group, p_matrix=struct.p_matrix, with_zero=with_zero),
              dataclasses.replace(struct)):
        assert "_completely_simple" not in vars(r)
        calls.clear()
        assert rees_construct(r).table == struct.semigroup.table
        assert calls == [r.semigroup] and r._completely_simple
    calls.clear()
    assert vars(struct)["_completely_simple"] and rees_construct(struct) is struct.semigroup
    assert calls == []


def test_a_regular_hand_built_structure_that_classify_rejects_still_raises(monkeypatch):
    not_simple = dataclasses.replace(classify(trivial()), completely_simple=False,
                                     completely_zero_simple=False)
    r = ReesStructure(group=cyclic(2), p_matrix=((0, 1), (1, 0)), with_zero=False)
    monkeypatch.setattr(structure, "classify",
                        lambda s: not_simple if s is r.semigroup else classify(s))
    with pytest.raises(InternalAssertFailure, match="completely \\(0-\\)simple"):
        rees_construct(r)


def test_hand_built_rees_structure_stores_int_entries():
    r = ReesStructure(group=cyclic(2), p_matrix=[[np.int64(1), None], (None, np.int32(0))],
                      with_zero=True)
    assert r.p_matrix == ((1, None), (None, 0))
    assert all(type(v) is int for row in r.p_matrix for v in row if v is not None)
    assert r == rees_structure(cyclic(2), 2, 2, [[1, None], [None, 0]], with_zero=True)


@pytest.mark.parametrize("size", [True, 1.0, -1, "1", None])
@pytest.mark.parametrize("which", ["i", "j"])
def test_rees_structure_rejects_bad_index_set_sizes(size, which):
    sizes = (size, 1) if which == "i" else (1, size)
    with pytest.raises(RangeError, match=f"{which}_size must be"):
        rees_structure(cyclic(2), *sizes, [[0]], with_zero=False)


@pytest.mark.parametrize("with_zero", ["no", 2, 1.0, 1, 0, None])
def test_rees_structure_with_zero_is_true_or_false(with_zero):
    # a truthy "no" once built a 3-element semigroup with a zero
    with pytest.raises(RangeError, match=re.escape(
            f"with_zero must be True or False, got {with_zero!r}")):
        rees_structure(cyclic(2), 1, 1, [[0]], with_zero=with_zero)


def test_rees_structure_size_zero_is_ragged():
    with pytest.raises(RaggedMatrix):
        rees_structure(cyclic(2), 0, 1, [[]], with_zero=False)


def test_cr_decomposition_band(lib):
    for name in ("chain3", "rb22", "lz3", "rz4"):
        s = lib[name]
        dec = cr_decomposition(s)
        assert classify(dec.semilattice).semilattice
        for sub in dec.component_tables:
            assert classify(sub).completely_simple
        # component map equals the J-classes
        from sgt.green import green_data
        assert dec.component_of == green_data(s).j_class


def test_cr_decomposition_group():
    dec = cr_decomposition(cyclic(2))
    assert dec.kind == "completely_simple" and len(dec.components()) == 1
    assert dec.semilattice.size == 1


def test_cr_decomposition_semilattice_is_itself():
    s = chain(2)
    dec = cr_decomposition(s)
    assert dec.semilattice.table == s.table
    assert all(len(m) == 1 for m in dec.components())


def test_cr_decomposition_rejects_non_cr():
    with pytest.raises(NotCompletelyRegular):
        cr_decomposition(nilpotent_n3())


def test_h_congruence_check_band_and_group():
    assert h_congruence_check(chain(3)) == (True, None)
    assert h_congruence_check(cyclic(4)) == (True, None)


def test_h_congruence_check_t2_witness():
    s = t2()
    ok, witness = h_congruence_check(s)
    # oracle: full scan both sides
    from sgt.green import green_data
    h = green_data(s).h_class
    expect = all(
        h[s.table[a][w]] == h[s.table[b][w]] and h[s.table[w][a]] == h[s.table[w][b]]
        for a in range(s.size) for b in range(s.size) if h[a] == h[b]
        for w in range(s.size))
    assert ok == expect == False
    a, b, w = witness
    assert h[a] == h[b]
    assert (h[s.table[a][w]] != h[s.table[b][w]]
            or h[s.table[w][a]] != h[s.table[w][b]])


def test_h_congruence_agrees_with_definition_oracle(lib):
    from sgt.green import green_data
    for s in lib.values():
        h = green_data(s).h_class
        expect = all(
            h[s.table[a][w]] == h[s.table[b][w]]
            and h[s.table[w][a]] == h[s.table[w][b]]
            for a in range(s.size) for b in range(s.size) if h[a] == h[b]
            for w in range(s.size))
        assert h_congruence_check(s)[0] == expect


_TABLES = list(library().values()) + [
    direct_product(a, b) for a in library().values() for b in library().values()
    if 1 < a.size and 1 < b.size and a.size * b.size <= 12]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_TABLES).flatmap(
    lambda s: st.tuples(st.just(s), st.permutations(range(s.size)))))
def test_h_congruence_check_and_cryptogroup_on_relabelled_tables(case):
    s = oracles.relabelled(*case)
    h = green_data(s).h_class
    ok, witness = h_congruence_check(s)
    assert ok == (oracles.is_right_compatible(s, h) and oracles.is_left_compatible(s, h))
    if not ok:
        a, b, t = witness
        assert h[a] == h[b]
        assert h[s.table[a][t]] != h[s.table[b][t]] or h[s.table[t][a]] != h[s.table[t][b]]
    flags = classify(s)
    assert flags.cryptogroup == (flags.completely_regular and ok)


_DECOMPOSABLE = [s for s in _TABLES
                 if classify(s).completely_regular or classify(s).commutative]


def _is_semilattice(s):
    return all(s.table[a][a] == a and s.table[a][b] == s.table[b][a]
               for a in range(s.size) for b in range(s.size))


def _check_decompositions(s):
    flags = classify(s)
    assert flags.completely_regular or flags.commutative
    if flags.completely_regular:
        dec = cr_decomposition(s)
        assert dec.component_of == oracles.principal_ideal_classes(s)[2]
        assert _is_semilattice(dec.semilattice)
    if flags.commutative:
        dec = archimedean_decomposition(s)
        assert dec.component_of == oracles.brute_archimedean(s)
        assert _is_semilattice(dec.semilattice)


def test_decompositions_match_brute_classes():
    for s in _DECOMPOSABLE:
        _check_decompositions(s)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_DECOMPOSABLE).flatmap(
    lambda s: st.tuples(st.just(s), st.permutations(range(s.size)))))
def test_decompositions_match_brute_classes_on_relabelled_tables(case):
    _check_decompositions(oracles.relabelled(*case))


def test_cryptogroup_cross_module_consistency(lib):
    for s in lib.values():
        flags = classify(s)
        assert flags.cryptogroup == (flags.completely_regular
                                     and h_congruence_check(s)[0])


def test_archimedean_two_chain():
    dec = archimedean_decomposition(chain(2))
    assert dec.kind == "archimedean" and len(dec.components()) == 2
    # oracle: 0 is in 1*S^1 but no power of 1 reaches 0*S^1 = {0}
    s = chain(2)
    assert 0 in {s.table[1][x] for x in range(2)} | {1}
    assert all(p != 0 for p in [1])


def test_archimedean_group_single_component():
    dec = archimedean_decomposition(cyclic(4))
    assert len(dec.components()) == 1


def test_archimedean_nilpotent_single_component():
    dec = archimedean_decomposition(nilpotent_n3())
    assert len(dec.components()) == 1
    assert dec.semilattice.size == 1


def test_archimedean_rejects_noncommutative():
    with pytest.raises(NotCommutative):
        archimedean_decomposition(right_zero(3))


def test_archimedean_components_recheck(lib):
    for name, s in lib.items():
        if not classify(s).commutative:
            continue
        dec = archimedean_decomposition(s)
        assert classify(dec.semilattice).semilattice
        # within each component, mutual divisibility holds in the parent
        for members in dec.components():
            for a in members:
                for b in members:
                    powers = set()
                    p = a
                    for _ in range(s.size):
                        powers.add(p)
                        p = s.table[p][a]
                    ideal = {b} | {s.table[b][x] for x in range(s.size)}
                    assert powers & ideal, (name, a, b)


def test_completeness_check():
    ok, report = completeness_check(nilpotent_n3())
    assert ok and report == ((2,),)
    ok2, report2 = completeness_check(chain(2))
    assert ok2 and report2 == ((0,), (1,))
    for s in (cyclic(5), chain(3)):
        assert completeness_check(s)[0]


def test_diagonal_cyclic_witness(lib):
    assert diagonal_cyclic_witness(trivial()) == (0, 0)
    for name, s in lib.items():
        if s.size >= 2:
            assert diagonal_cyclic_witness(s) is None, name


def test_diagonal_cyclic_witness_agrees_with_the_scan_on_the_library(lib):
    for name, s in lib.items():
        assert diagonal_cyclic_witness(s) == oracles.brute_diagonal_cyclic_witness(s), name


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda degree: st.lists(
    st.lists(st.integers(0, degree - 1), min_size=degree, max_size=degree),
    min_size=1, max_size=3).map(lambda gens: from_transformations(
        degree, [Transformation(degree, g) for g in gens]))))
def test_diagonal_cyclic_witness_agrees_with_the_scan_on_random_tables(s):
    assert diagonal_cyclic_witness(s) == oracles.brute_diagonal_cyclic_witness(s)
