import random
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sgt import green
from sgt.congruence import FORMAL_IDENTITY, times
from sgt.core import (FiniteSemigroup, InternalAssertFailure, RangeError, Transformation,
                      classify, from_cayley, from_transformations)
from sgt.green import green_data, maximal_subgroups, schutzenberger
from sgt.library import chain, cyclic, rectangular_band, right_zero, t2
from sgt.structure import ZERO, rees_construct, rees_structure


def _classes_as_sets(class_of):
    groups = {}
    for x, c in enumerate(class_of):
        groups.setdefault(c, set()).add(x)
    return sorted(map(sorted, groups.values()))


def test_t2_green_against_kernel_image_oracle():
    s = t2()
    # discovery order of the maps, recomputed independently
    elems = [(1, 0), (0, 0), (0, 1), (1, 1)]
    kernels = [oracles.kernel(f) for f in elems]
    images = [frozenset(f) for f in elems]
    expect_r = oracles.canonical(kernels)
    expect_l = oracles.canonical(images)
    gd = green_data(s)
    assert gd.r_class == expect_r
    assert gd.l_class == expect_l
    assert _classes_as_sets(gd.h_class) == [[0, 2], [1], [3]]
    assert len(set(gd.d_class)) == 2


def test_group_has_single_classes():
    gd = green_data(cyclic(5))
    for cls in (gd.r_class, gd.l_class, gd.h_class, gd.d_class, gd.j_class):
        assert set(cls) == {0}


def test_rectangular_band_grid():
    s = rectangular_band(2, 2)
    # direct ideal computation oracle
    n = s.size
    rmasks = [frozenset([a] + [s.table[a][x] for x in range(n)]) for a in range(n)]
    lmasks = [frozenset([a] + [s.table[x][a] for x in range(n)]) for a in range(n)]
    gd = green_data(s)
    assert gd.r_class == oracles.canonical(rmasks)
    assert gd.l_class == oracles.canonical(lmasks)
    assert len(set(gd.r_class)) == 2 and len(set(gd.l_class)) == 2
    assert len(set(gd.h_class)) == 4
    assert set(gd.d_class) == {0}


def test_d_equals_j_via_independent_two_sided_ideals(lib):
    for s in lib.values():
        n = s.size
        masks = []
        for a in range(n):
            ideal = {a}
            changed = True
            while changed:
                changed = False
                for x in list(ideal):
                    for t in range(n):
                        for p in (s.table[x][t], s.table[t][x]):
                            if p not in ideal:
                                ideal.add(p)
                                changed = True
            masks.append(frozenset(ideal))
        gd = green_data(s)
        assert gd.j_class == oracles.canonical(masks)
        assert gd.d_class == gd.j_class


@st.composite
def _transformation_semigroups(draw):
    degree = draw(st.integers(1, 4))
    image = st.lists(st.integers(0, degree - 1), min_size=degree, max_size=degree)
    gens = draw(st.lists(image, min_size=1, max_size=3))
    return from_transformations(degree, [Transformation(degree, g) for g in gens])


@st.composite
def _rees_semigroups(draw):
    """A relabelled Rees matrix semigroup over Z1, Z2 or Z3, with or without
    a zero, its P regular or not."""
    g = cyclic(draw(st.integers(1, 3)))
    with_zero = draw(st.booleans())
    isz, jsz = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entry = st.sampled_from([*range(g.size), *([ZERO] if with_zero else [])])
    p = draw(st.lists(st.lists(entry, min_size=isz, max_size=isz),
                      min_size=jsz, max_size=jsz))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a P that is not regular
        s = rees_construct(rees_structure(g, isz, jsz, p, with_zero))
    return oracles.relabelled(s, draw(st.permutations(range(s.size))))


@pytest.mark.parametrize("s", [
    rectangular_band(2, 2),
    from_transformations(3, [Transformation(3, g) for g in ((1, 2, 0), (1, 0, 2), (0, 0, 2))]),
], ids=["rb22", "T3"])
def test_a_d_relation_computed_too_fine_fails_the_d_equals_j_check(monkeypatch, s):
    """D is joined apart from J, so a D that misses the joins of R and L
    raises instead of passing for J."""
    # the shared label join merges nothing: D comes out as R
    monkeypatch.setattr(green, "_merged_labels", lambda cls, count, links: list(range(count)))
    green_data.cache_clear()
    with pytest.raises(InternalAssertFailure, match="D != J"):
        green_data(s)


@settings(max_examples=150, deadline=None)
@given(_transformation_semigroups() | _rees_semigroups())
def test_r_l_and_j_are_the_principal_ideal_classes(s):
    gd = green_data(s)
    assert (gd.r_class, gd.l_class, gd.j_class) == oracles.principal_ideal_classes(s)


@settings(max_examples=150, deadline=None)
@given(_transformation_semigroups() | _rees_semigroups())
def test_d_is_the_element_level_join_of_r_and_l(s):
    """D is R's labels merged by L's links; the oracle merges elements."""
    gd = green_data(s)
    assert gd.d_class == oracles.partition_join(gd.r_class, gd.l_class)


def test_t4_r_l_and_j_are_the_principal_ideal_classes():
    gens = ((1, 2, 3, 0), (1, 0, 2, 3), (0, 0, 2, 3))
    t4 = from_transformations(4, [Transformation(4, g) for g in gens])
    gd = green_data(t4)
    assert (gd.r_class, gd.l_class, gd.j_class) == oracles.principal_ideal_classes(t4)
    assert [len(set(c)) for c in (gd.r_class, gd.l_class, gd.h_class, gd.j_class)] == [
        15, 15, 71, 4]


def test_schutzenberger_of_group_h_class():
    sg = schutzenberger(cyclic(3), 0)
    assert sg.group.size == 3 == len(sg.h_class)
    assert oracles.isomorphic(sg.group, cyclic(3), 8) is not None


def test_schutzenberger_right_zero_singleton():
    sg = schutzenberger(right_zero(2), 0)
    assert sg.h_class == (0,)
    assert sg.group.size == 1


def test_schutzenberger_rectangular_band_trivial():
    s = rectangular_band(2, 2)
    for x in range(4):
        assert schutzenberger(s, x).group.size == 1


def test_schutzenberger_rejects_bad_element():
    z2 = cyclic(2)
    for bad in (-1, 2, 7, 1.0, True):
        with pytest.raises(RangeError):
            schutzenberger(z2, bad)
    assert schutzenberger(z2, np.int64(1)).group.size == 2


def test_schutzenberger_size_law_library(lib):
    for s in lib.values():
        gd = green_data(s)
        seen = set()
        for x in range(s.size):
            if gd.h_class[x] in seen:
                continue
            seen.add(gd.h_class[x])
            sg = schutzenberger(s, x)
            assert sg.group.size == len(sg.h_class)
            assert classify(sg.group).group


def test_schutzenberger_group_h_class_isomorphism(lib):
    from sgt.core import sub_semigroup
    for s in lib.values():
        gd = green_data(s)
        for h in gd.group_h_classes:
            members = gd.h_members(h)
            if len(members) > 8:
                continue
            sg = schutzenberger(s, members[0])
            sub = sub_semigroup(s, members)
            assert oracles.isomorphic(sg.group, sub, 8) is not None


def test_schutzenberger_stabilizer_contract():
    s = t2()
    sg = schutzenberger(s, 0)  # H = {swap, id}
    hset = frozenset(sg.h_class)
    for m in sg.stabilizer:
        if m is None:
            continue
        assert frozenset(s.table[h][m] for h in sg.h_class) == hset
    assert sg.stabilizer[-1] is None
    # sigma classes: equal pointwise action
    for m1 in sg.stabilizer:
        for m2 in sg.stabilizer:
            same = all((h if m1 is None else s.table[h][m1])
                       == (h if m2 is None else s.table[h][m2])
                       for h in sg.h_class)
            assert same == (sg.sigma_class_of[m1] == sg.sigma_class_of[m2])


def test_action_witness_lands_in_h():
    s = t2()
    sg = schutzenberger(s, 0)
    for (h, c), result in sg.action_witness.items():
        assert h in sg.h_class and result in sg.h_class


def test_maximal_subgroups_z6():
    out = maximal_subgroups(cyclic(6))
    assert len(out) == 1 and out[0][1].size == 6


def test_maximal_subgroups_t2():
    out = maximal_subgroups(t2())
    orders = sorted(g.size for _, g in out)
    assert orders == [1, 1, 2]


def test_maximal_subgroups_chain():
    out = maximal_subgroups(chain(3))
    assert [g.size for _, g in out] == [1, 1, 1]


def test_h_refines_r_and_l(lib):
    for s in lib.values():
        gd = green_data(s)
        for x in range(s.size):
            for y in range(s.size):
                if gd.h_class[x] == gd.h_class[y]:
                    assert gd.r_class[x] == gd.r_class[y]
                    assert gd.l_class[x] == gd.l_class[y]


def test_green_relabel_invariance(lib):
    rng = random.Random(23)
    for s in lib.values():
        perm = list(range(s.size))
        rng.shuffle(perm)
        gd = green_data(s)
        gd2 = green_data(oracles.relabelled(s, perm))
        for cls, cls2 in ((gd.r_class, gd2.r_class), (gd.l_class, gd2.l_class),
                          (gd.h_class, gd2.h_class), (gd.d_class, gd2.d_class)):
            moved = [cls[x] for x in range(s.size)]
            relabeled = [cls2[perm[x]] for x in range(s.size)]
            assert oracles.canonical(moved) == oracles.canonical(relabeled)


def test_green_data_carries_no_semigroup_of_another_labelling():
    # the cache keys on the table only, so green_data(b) is green_data(a)
    # for an equal table: it must hold nothing that names a's labels
    a = from_cayley(2, [[0, 1], [1, 0]], labels=["e", "g"])
    b = from_cayley(2, [[0, 1], [1, 0]], labels=["x", "y"])
    gd_a, gd_b = green_data(a), green_data(b)
    assert gd_b == gd_a
    assert not any(isinstance(getattr(gd_b, f.name), FiniteSemigroup) for f in fields(gd_b))
    assert gd_b.h_members(0) == [0, 1]


def test_times_is_the_product_of_s1():
    s = cyclic(3)
    assert times(s, 1, 2) == 0
    assert times(s, 1, FORMAL_IDENTITY) == 1
    assert times(s, FORMAL_IDENTITY, 2) == 2
    assert times(s, FORMAL_IDENTITY, FORMAL_IDENTITY) is FORMAL_IDENTITY
