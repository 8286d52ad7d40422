import dataclasses
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from sgt import core, green
from sgt.core import (AssociativityViolation, DegreeMismatch, FiniteSemigroup,
                      NotAnIdeal, RangeError, Transformation, adjoin_identity, adjoin_zero,
                      classify, direct_product, from_cayley,
                      from_transformations, rees_quotient, sub_semigroup,
                      subsemigroup_closure)
from sgt.library import (chain, cyclic, left_zero, library, rectangular_band,
                         right_zero, trivial)
from sgt.structure import rees_construct, rees_structure
from sgt.verify import ideal_subsemigroup


def test_trivial_semigroup():
    s = from_cayley(1, [[0]])
    assert s.size == 1 and s.identity == 0 and s.zero == 0


def test_right_zero_table_is_associative():
    rows = [[j for j in range(3)] for _ in range(3)]
    # hand oracle: (i*j)*k = k = i*(j*k)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert rows[rows[i][j]][k] == k == rows[i][rows[j][k]]
    s = from_cayley(3, rows)
    assert s.identity is None and s.zero is None


def test_z2_table():
    s = from_cayley(2, [[0, 1], [1, 0]])
    assert s.identity == 0


def test_associativity_violation_reports_first_triple():
    rows = [[0, 1], [0, 0]]
    expected = None
    for i in range(2):
        for j in range(2):
            for k in range(2):
                if rows[rows[i][j]][k] != rows[i][rows[j][k]]:
                    expected = (i, j, k)
                    break
            if expected:
                break
        if expected:
            break
    with pytest.raises(AssociativityViolation) as err:
        from_cayley(2, rows)
    assert err.value.triple == expected


def test_from_cayley_range_errors():
    with pytest.raises(RangeError):
        from_cayley(2, [[0, 1], [1, 2]])
    with pytest.raises(RangeError):
        from_cayley(2, [[0, 1]])


def test_from_transformations_t2():
    swap = Transformation(2, (1, 0))
    const0 = Transformation(2, (0, 0))
    s = from_transformations(2, [swap, const0])
    # oracle: closure by hand over image tuples
    maps = {(1, 0), (0, 0)}
    changed = True
    while changed:
        changed = False
        for f in list(maps):
            for g in list(maps):
                h = oracles.compose(f, g)
                if h not in maps:
                    maps.add(h)
                    changed = True
    assert s.size == len(maps) == 4


def test_from_transformations_discovery_order():
    swap = Transformation(2, (1, 0))
    const0 = Transformation(2, (0, 0))
    s = from_transformations(2, [swap, const0])
    # generators first, then BFS products: swap*swap = id, const0*swap = const1
    assert s.labels == ("g0", "g1", "g0*g0", "g1*g0")
    assert s.identity == 2


def test_from_transformations_trivial_cases():
    ident = Transformation(3, (0, 1, 2))
    assert from_transformations(3, [ident]).size == 1
    const0 = Transformation(2, (0, 0))
    assert from_transformations(2, [const0]).size == 1


def test_from_transformations_closed_under_recomposition():
    swap = Transformation(2, (1, 0))
    const0 = Transformation(2, (0, 0))
    s = from_transformations(2, [swap, const0])
    # rebuild the image tuples in discovery order and recheck every product
    elems = [(1, 0), (0, 0), (0, 1), (1, 1)]
    index = {t: i for i, t in enumerate(elems)}
    for a, fa in enumerate(elems):
        for b, fb in enumerate(elems):
            assert s.table[a][b] == index[oracles.compose(fa, fb)]


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        from_transformations(3, [Transformation(2, (0, 1))])
    with pytest.raises(DegreeMismatch):
        from_transformations(2, [])


def test_adjoin_identity_unconditional():
    s = from_cayley(1, [[0]])
    one = adjoin_identity(s)
    assert one.size == 2 and one.identity == 1
    assert classify(one).semilattice


def test_adjoined_elements_are_labelled():
    z2 = cyclic(2)
    assert adjoin_identity(z2).size == 3
    # the new element is labelled "1" (and an adjoined zero "0") when s has labels
    assert adjoin_identity(z2).labels == ("e", "g", "1")
    assert adjoin_zero(z2).labels == ("e", "g", "0")
    assert adjoin_identity(from_cayley(1, [[0]])).labels is None


def test_adjoin_zero_right_zero():
    s = adjoin_zero(right_zero(3))
    assert s.size == 4 and s.zero == 3
    for x in range(4):
        assert s.table[3][x] == 3 == s.table[x][3]


def test_direct_product_klein():
    z2 = cyclic(2)
    p = direct_product(z2, z2)
    # hand table: componentwise mod-2 addition is XOR on indices
    assert p.table == tuple(tuple(i ^ j for j in range(4)) for i in range(4))


def test_direct_product_trivial_gives_copy():
    t = from_cayley(1, [[0]])
    s = right_zero(3)
    assert direct_product(t, s).table == s.table


def test_direct_product_of_chains_is_meet_lattice():
    c = chain(2)
    p = direct_product(c, c)
    for a in range(4):
        for b in range(4):
            expect = (min(a // 2, b // 2), min(a % 2, b % 2))
            assert p.table[a][b] == expect[0] * 2 + expect[1]
    assert classify(p).semilattice


def test_rees_quotient_of_chain_bottom():
    c = chain(3)
    q = rees_quotient(c, {0})
    assert q.zero == 2 and q.size == 3
    assert oracles.isomorphic(q, c, 8) is not None


def test_rees_quotient_whole_semigroup():
    q = rees_quotient(cyclic(2), {0, 1})
    assert q.size == 1


def test_rees_quotient_group_has_no_proper_ideal():
    with pytest.raises(NotAnIdeal):
        rees_quotient(cyclic(2), {1})


def test_rees_quotient_preserves_surviving_products():
    c = chain(3)
    q = rees_quotient(c, {0})
    # survivors 1, 2 sit at 0, 1; their products agree with the original
    for a in (1, 2):
        for b in (1, 2):
            p = c.table[a][b]
            if p != 0:
                assert q.table[a - 1][b - 1] == p - 1


def test_subsemigroup_closure():
    z4 = cyclic(4)
    assert subsemigroup_closure(z4, {2}) == (0, 2)
    assert subsemigroup_closure(z4, range(4)) == (0, 1, 2, 3)
    swap = Transformation(2, (1, 0))
    const0 = Transformation(2, (0, 0))
    t2 = from_transformations(2, [swap, const0])
    assert subsemigroup_closure(t2, {0}) == (0, 2)  # swap, id


def _relabelled_library(seed):
    """The library, its products of size <= 9, each with a random relabelling."""
    rng = random.Random(seed)
    lib = library()
    tables = list(lib.values()) + [direct_product(a, b) for a in lib.values()
                                   for b in lib.values() if a.size * b.size <= 9]
    out = []
    for s in tables:
        perm = list(range(s.size))
        rng.shuffle(perm)
        out += [s, oracles.relabelled(s, perm)]
    return out


def test_subsemigroup_closure_matches_brute_force():
    rng = random.Random(11)
    for s in _relabelled_library(5):
        for k in range(min(s.size, 4) + 1):
            for _ in range(3):
                seed = rng.sample(range(s.size), k)
                assert subsemigroup_closure(s, seed) == oracles.brute_closure(s, seed)


def test_ideal_and_seed_entries_are_range_checked():
    n3 = library()["n3"]
    for bad in ([-1, 0], [3], [0.0], [True], ["0"]):
        with pytest.raises(RangeError):
            rees_quotient(n3, bad)
        with pytest.raises(RangeError):
            ideal_subsemigroup(n3, bad)
        with pytest.raises(RangeError):
            subsemigroup_closure(n3, bad)
    # the range check comes before the ideal check, whose message is kept
    with pytest.raises(RangeError, match=r"ideal element must be an int in \[0, 3\), got -1"):
        ideal_subsemigroup(n3, [-1, 0])
    with pytest.raises(NotAnIdeal, match=r"^0\*0 escapes the ideal$"):
        rees_quotient(n3, [0, 2])
    with pytest.raises(NotAnIdeal, match=r"^1\*0 escapes the ideal$"):
        ideal_subsemigroup(left_zero(3), [0])  # a right ideal only
    assert rees_quotient(n3, [np.int64(2)]).size == 3


def test_sub_semigroup_rejects_unclosed():
    with pytest.raises(ValueError):
        sub_semigroup(cyclic(4), [1, 2])


@pytest.mark.parametrize("s, members", [
    (cyclic(2), [0, 0]), (chain(3), [-1]), (chain(3), [7]), (chain(3), [True]),
    (chain(3), [1.0]), (chain(3), ["1"])])
def test_sub_semigroup_rejects_bad_and_repeated_members(s, members):
    with pytest.raises(RangeError):
        sub_semigroup(s, members)


def test_sub_semigroup_accepts_numpy_members():
    sub = sub_semigroup(chain(3), [np.int64(0), np.int32(2)])
    assert sub.table == ((0, 0), (0, 1)) and sub.labels == ("0", "2")


def test_classify_right_zero_orientation():
    flags = classify(right_zero(3))
    assert flags.band and not flags.semilattice
    # x*S^1 = S for every x, S^1*x = {x}: one R-class, singleton L-classes
    assert flags.right_simple and not flags.left_simple
    assert flags.completely_simple


def test_classify_left_zero_orientation():
    flags = classify(left_zero(3))
    assert flags.left_simple and not flags.right_simple


def test_classify_group():
    flags = classify(cyclic(3))
    assert flags.group and flags.completely_regular and flags.cryptogroup
    assert flags.simple and not flags.zero_simple


def test_classify_chain():
    flags = classify(chain(2))
    assert flags.band and flags.semilattice and flags.commutative and flags.has_zero
    assert not flags.group


def test_classify_nilpotent():
    n3 = from_cayley(3, [[1, 2, 2], [2, 2, 2], [2, 2, 2]])
    flags = classify(n3)
    assert flags.nilpotent and flags.has_zero and not flags.completely_regular


def test_classify_rectangular_band():
    flags = classify(rectangular_band(2, 2))
    assert flags.band and flags.completely_simple and not flags.commutative


def test_classify_relabel_invariance(lib):
    rng = random.Random(7)
    for s in lib.values():
        perm = list(range(s.size))
        rng.shuffle(perm)
        assert classify(oracles.relabelled(s, perm)) == classify(s)


def test_classify_zero_simple_and_nilpotent_pins():
    null2 = from_cayley(2, [[0, 0], [0, 0]])
    z2zero = adjoin_zero(cyclic(2))
    flags = classify(null2)
    # two J-classes and a zero, but S^2 = {0}
    assert flags.nilpotent and not flags.zero_simple and not flags.completely_zero_simple
    flags = classify(z2zero)
    assert flags.zero_simple and flags.completely_zero_simple and not flags.nilpotent
    flags = classify(from_cayley(1, [[0]]))
    assert flags.group and flags.nilpotent and flags.simple and not flags.zero_simple


_VARIANTS = {"plain": lambda s: s, "zero": adjoin_zero, "identity": adjoin_identity}


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 3).flatmap(lambda d: st.lists(
           st.tuples(*[st.integers(0, d - 1)] * d), min_size=1, max_size=3)),
       st.sampled_from(sorted(_VARIANTS)), st.integers(0, 2 ** 16))
# the 2-element null semigroup {a, 0}: a*a = 0, so S^2 = {0} decides
@example(gens=[(1, 2, 2)], variant="plain", seed=0)
@example(gens=[(1, 0)], variant="zero", seed=0)  # Z2 with a zero: 0-simple
@example(gens=[(0, 0)], variant="plain", seed=0)  # the trivial semigroup
def test_classify_matches_brute_on_transformation_semigroups(gens, variant, seed):
    s = _VARIANTS[variant](from_transformations(
        len(gens[0]), [Transformation(len(g), g) for g in gens]))
    flags = classify(s)
    assert flags.as_dict() == oracles.brute_classify(s)
    perm = list(range(s.size))
    random.Random(seed).shuffle(perm)
    assert classify(oracles.relabelled(s, perm)) == flags


def test_classify_matches_brute_on_rees_structures_and_library(lib):
    # classify skips the cryptogroup scan on one J-class: H is then a congruence
    rng = random.Random(20261019)
    sample = []
    for g in (trivial(), cyclic(2), cyclic(3)):
        for isz in (1, 2, 3):
            for jsz in (1, 2, 3):
                for _ in range(3):
                    p = [[rng.randrange(g.size) for _ in range(isz)] for _ in range(jsz)]
                    sample.append(rees_construct(rees_structure(g, isz, jsz, p, with_zero=False)))
    assert all(classify(s).completely_simple for s in sample)
    for s in sample + list(lib.values()):
        assert classify(s).as_dict() == oracles.brute_classify(s)


def test_every_library_table_associative(lib):
    for s in lib.values():
        n = s.size
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert s.table[s.table[i][j]][k] == s.table[i][s.table[j][k]]


@pytest.mark.parametrize("rows", [
    [[0, 1.9], [1, 0]],
    [[0, 1.0], [1, 0]],
    [[0, True], [True, 0]],
    [[0, 1], [1, False]],
    [[False, True], [True, False]],
    [[0, "1"], [1, 0]],
    [[0, np.bool_(True)], [1, 0]],
    [[0, None], [1, 0]],
    [[0, [1]], [1, 0]],
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    [np.array([0, 1]), np.array([True, False])],
])
def test_from_cayley_rejects_non_integer_entries(rows):
    with pytest.raises(RangeError, match=r"entry must be an int in \[0, 2\), got "):
        from_cayley(2, rows)


@pytest.mark.parametrize("rows, entry", [
    ([[0, 1], [1, 2]], "2"),
    ([[0, -1], [1, 0]], "-1"),
    ([[0, 1], [1, 2 ** 70]], str(2 ** 70)),
    (np.array([[0, 1], [1, 5]], dtype=np.uint8), "np.uint8(5)"),
])
def test_from_cayley_range_error_names_the_entry(rows, entry):
    with pytest.raises(RangeError) as err:
        from_cayley(2, rows)
    assert str(err.value) == f"entry must be an int in [0, 2), got {entry}"


@pytest.mark.parametrize("rows", [
    [[np.int64(0), np.int8(1)], [np.uint16(1), 0]],
    [np.array([0, 1]), np.array([1, 0], dtype=np.int32)],
    np.array([[0, 1], [1, 0]], dtype=np.uint8),
])
def test_from_cayley_accepts_numpy_integers(rows):
    s = from_cayley(2, rows)
    assert s.table == ((0, 1), (1, 0)) and s.identity == 0
    assert all(type(v) is int for row in s.table for v in row)


def _brute_identity_zero(rows):
    n = len(rows)
    ident = [e for e in range(n) if all(rows[e][x] == x == rows[x][e] for x in range(n))]
    zero = [z for z in range(n) if all(rows[z][x] == z == rows[x][z] for x in range(n))]
    return (ident or [None])[0], (zero or [None])[0]


def _check_against_brute(rows):
    bad = oracles.brute_first_nonassociative(rows)
    if bad is None:
        s = from_cayley(len(rows), rows)
        assert s.table == tuple(map(tuple, rows))
        assert (s.identity, s.zero) == _brute_identity_zero(rows)
    else:
        with pytest.raises(AssociativityViolation) as err:
            from_cayley(len(rows), rows)
        assert err.value.triple == bad
        assert str(err.value) == "({0}*{1})*{2} != {0}*({1}*{2})".format(*bad)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n)))
# the generating set is {0}, and the first failing triple has middle element 1
@example(rows=[[1, 2, 0], [2, 0, 1], [0, 0, 0]])
def test_from_cayley_matches_brute_associativity(rows):
    _check_against_brute(rows)


def _null(n):
    return from_cayley(n, [[0] * n for _ in range(n)])


_MANY_GENERATORS = [left_zero(7), right_zero(7), _null(7), rectangular_band(2, 3),
                    direct_product(left_zero(2), right_zero(3)),
                    direct_product(chain(2), cyclic(3))]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_MANY_GENERATORS + list(library().values())
                      + [adjoin_zero(cyclic(3)), adjoin_identity(right_zero(3))]).flatmap(
    lambda s: st.tuples(st.just(s), st.permutations(range(s.size)))))
def test_from_cayley_accepts_relabelled_associative_tables(case):
    s, perm = case
    _check_against_brute([list(r) for r in oracles.relabelled(s, perm).table])


def _brute_closure(rows, seed):
    members = set(seed)
    while True:
        more = {rows[a][b] for a in members for b in members} - members
        if not more:
            return members
        members |= more


_T3 = from_transformations(3, [Transformation(3, (1, 0, 2)), Transformation(3, (1, 2, 0)),
                               Transformation(3, (0, 0, 2))])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_MANY_GENERATORS + [_T3, cyclic(12)]).flatmap(
    lambda s: st.tuples(st.just(s), st.permutations(range(s.size)))))
def test_greedy_generators_take_the_least_unreached_element(case):
    s, perm = case
    rows = [list(r) for r in oracles.relabelled(s, perm).table]
    gens = core._greedy_generators(rows)
    for i, g in enumerate(gens):
        assert g == min(set(range(s.size)) - _brute_closure(rows, gens[:i]))
    assert _brute_closure(rows, gens) == set(range(s.size))


def test_greedy_generators_sizes():
    assert core._greedy_generators([list(r) for r in _T3.table]) == [0, 1, 2]
    assert core._greedy_generators([list(r) for r in cyclic(500).table]) == [0, 1]
    assert core._greedy_generators([list(r) for r in left_zero(5).table]) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("s", _MANY_GENERATORS)
def test_from_cayley_chunked_light_test_is_exact(s):
    # many generators, so a defect seen only by a late generator must be
    # found by its own gather
    n = s.size
    rows = [list(r) for r in s.table]
    _check_against_brute(rows)
    rng = random.Random(n)
    for _ in range(20):
        bent = [list(r) for r in rows]
        bent[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        _check_against_brute(bent)


@pytest.mark.parametrize("rows", [[[0]], ((0,),), [[np.int8(0)]], np.array([[0]])])
def test_from_cayley_one_by_one(rows):
    s = from_cayley(1, rows)
    assert s.table == ((0,),) and s.identity == s.zero == 0
    assert type(s.table[0][0]) is int


@pytest.mark.parametrize("rows", [[[1]], [[-1]], [[True]], [[0.0]], np.array([[1]])])
def test_from_cayley_one_by_one_rejects_a_bad_entry(rows):
    with pytest.raises(RangeError, match=r"entry must be an int in \[0, 1\), got "):
        from_cayley(1, rows)


@pytest.mark.parametrize("n", [True, 1.0, "1", None, -1])
def test_from_cayley_size_is_range_checked(n):
    # True and 1.0 once built a semigroup, "1" ended in a bare TypeError
    with pytest.raises(RangeError, match=f"size must be a non-negative int, got {n!r}"):
        from_cayley(n, [[0]])


def test_from_cayley_size_zero_is_not_positive():
    with pytest.raises(RangeError, match="^size must be positive$"):
        from_cayley(0, [])
    assert from_cayley(np.int64(1), [[0]]).size == 1


@pytest.mark.parametrize("degree", [2.0, True, "2", None, -2])
def test_from_transformations_degree_is_range_checked(degree):
    # 2.0 once built Z2, as each generator's degree compared equal to it
    with pytest.raises(RangeError, match=f"degree must be a non-negative int, got {degree!r}"):
        from_transformations(degree, [Transformation(2, (1, 0))])


@pytest.mark.parametrize("cell", [(1, 2), (250, 499), (499, 499), (0, 7)])
def test_from_cayley_names_the_first_triple_of_a_bent_cyclic_500(cell):
    rows = [list(r) for r in cyclic(500).table]
    a, b = cell
    rows[a][b] = (rows[a][b] + 1) % 500
    _check_against_brute(rows)


def test_from_cayley_cpu_time_is_bounded():
    rows = [list(r) for r in cyclic(500).table]
    start = time.process_time()
    s = from_cayley(500, rows)
    assert time.process_time() - start < 0.5
    assert s.identity == 0


def test_from_cayley_memory_is_bounded_when_every_element_generates():
    # left_zero(300) has 300 generators; holding every generator's n-by-n
    # gather at once would take 216 MB
    rows = [[a] * 300 for a in range(300)]
    tracemalloc.start()
    try:
        from_cayley(300, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


@pytest.mark.parametrize("degree, images", [
    (2, (0.0, 1)), (2, (True, 0)), (2, ("0", 1)), (2, (-1, 0)), (2, (2, 0)),
    (True, (0,)), (1.0, (0,)), (-1, ()),
])
def test_transformation_rejects_non_int_and_out_of_range_input(degree, images):
    with pytest.raises(RangeError):
        Transformation(degree, images)


@pytest.mark.parametrize("images", [(np.int64(1), np.int32(0)), [1, 0]])
def test_transformation_stores_images_as_a_tuple_of_ints(images):
    t = Transformation(2, images)
    assert t.images == (1, 0) and all(type(v) is int for v in t.images)
    assert from_transformations(2, [t]).table == ((1, 0), (0, 1))


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    st.integers(2, 4).flatmap(lambda d: st.lists(
        st.tuples(*[st.integers(0, d - 1)] * d), min_size=1, max_size=3)).map(
        lambda gens: from_transformations(
            len(gens[0]), [Transformation(len(g), g) for g in gens])),
    st.sampled_from(list(library().values())).flatmap(
        lambda s: st.permutations(range(s.size)).map(lambda p: oracles.relabelled(s, p)))))
def test_generators_generate_the_whole_semigroup(s):
    assert s.generators == tuple(core._greedy_generators(s.table))
    assert subsemigroup_closure(s, s.generators) == tuple(range(s.size))
    bare = FiniteSemigroup(table=s.table)
    assert ((bare.size, bare.identity, bare.zero, bare.generators)
            == (s.size, s.identity, s.zero, s.generators))


def test_generators_are_derived_from_the_table_and_kept_out_of_equality_and_repr():
    s = cyclic(4)
    bare = FiniteSemigroup(table=s.table)
    assert bare.generators == s.generators == (0, 1)
    assert bare == s and hash(bare) == hash(s)
    assert "generators" not in repr(s)
    for derived in ({"generators": (1,)}, {"size": 4}, {"identity": None}, {"zero": None}):
        with pytest.raises(TypeError):
            FiniteSemigroup(table=s.table, **derived)
    # a copy with another table gets that table's generators; the table and
    # its labels are checked again, so four labels do not fit three elements
    zero = left_zero(3)
    assert dataclasses.replace(s, table=zero.table, labels=None).generators == zero.generators
    with pytest.raises(RangeError, match="labels length"):
        dataclasses.replace(s, table=zero.table)
    # ... and that table's size, identity and zero
    null = dataclasses.replace(chain(2), table=((0, 0), (0, 0)))
    assert (null.size, null.identity, null.zero) == (2, None, 0)


def test_a_bare_table_cannot_poison_the_classify_caches():
    # identity and zero stay out of equality, so the equality-keyed caches
    # are sound only if both follow from the table
    classify.cache_clear()
    green.green_data.cache_clear()
    assert classify(FiniteSemigroup(table=chain(2).table)).has_zero
    assert classify(FiniteSemigroup(table=cyclic(3).table)).monoid
    assert classify(chain(2)).has_zero and classify(cyclic(3)).monoid


def test_commutative_matches_every_pair():
    for s in _relabelled_library(14):
        t = s.table
        assert classify(s).commutative == all(
            t[a][b] == t[b][a] for a in range(s.size) for b in range(s.size))


def test_from_cayley_checks_associativity_before_the_labels():
    with pytest.raises(RangeError, match="labels length"):
        from_cayley(2, [[0, 1], [1, 0]], labels=["a"])
    with pytest.raises(AssociativityViolation):
        from_cayley(2, [[1, 0], [0, 0]], labels=["a"])


@st.composite
def _generator_lists(draw):
    """Transformations of degree 1 to 4, drawn from a pool of at most three,
    so that a list often repeats a generator."""
    d = draw(st.integers(1, 4))
    pool = draw(st.lists(st.tuples(*[st.integers(0, d - 1)] * d), min_size=1, max_size=3))
    return d, draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))


def _same_closure(degree, gens):
    gens = [Transformation(degree, g) for g in gens]
    s = from_transformations(degree, gens)
    want = oracles.brute_from_transformations(degree, gens)
    assert ((s.table, s.labels, s.identity, s.zero)
            == (want.table, want.labels, want.identity, want.zero))
    return s


@settings(max_examples=300, deadline=None)
@given(_generator_lists())
def test_from_transformations_matches_the_composition_oracle(case):
    _same_closure(*case)


@pytest.mark.parametrize("degree, gens, size", [
    (2, [(1, 0), (0, 0)], 4),  # the library's t2
    (3, [(1, 2, 0), (1, 0, 2), (0, 0, 2)], 27),
    (4, [(1, 2, 3, 0), (1, 0, 2, 3), (0, 0, 2, 3)], 256),
    (3, [(1, 2, 0), (1, 2, 0), (0, 1, 2)], 3),  # Z3, its generator twice
], ids=["t2", "T3", "T4", "duplicates"])
def test_from_transformations_matches_the_oracle_on_full_monoids(degree, gens, size):
    assert _same_closure(degree, gens).size == size


_HOM_SOURCES = [s for s in library().values() if s.size <= 6] + [_T3]


@st.composite
def _hom_cases(draw):
    """(s, t, phi): maps from a small semigroup that are homomorphisms, and
    maps that are not, some of them one entry away from one."""
    s = draw(st.sampled_from(_HOM_SOURCES))
    t = draw(st.sampled_from([s, *_HOM_SOURCES]))
    kind = draw(st.sampled_from(["random", "relabel", "idempotent", "bent"]))
    if kind == "relabel":  # an isomorphism onto a relabelled copy
        perm = draw(st.permutations(range(s.size)))
        return s, oracles.relabelled(s, perm), list(perm)
    if kind == "idempotent":  # constant on an idempotent: a homomorphism
        return s, t, [draw(st.sampled_from(t.idempotents()))] * s.size
    if kind == "bent":  # the identity map of s with one entry changed
        phi = list(range(s.size))
        phi[draw(st.integers(0, s.size - 1))] = draw(st.integers(0, s.size - 1))
        return s, s, phi
    return s, t, draw(st.lists(st.integers(0, t.size - 1), min_size=s.size, max_size=s.size))


@settings(max_examples=300, deadline=None)
@given(_hom_cases())
def test_hom_failure_on_generators_names_the_oracles_pair(case):
    s, t, phi = case
    assert (core._hom_failure(s.table, t.table, phi, s.generators)
            == oracles.brute_hom_failure(s.table, t.table, phi))
