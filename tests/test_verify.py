import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sgt import core, trace, verify
from sgt.congruence import (enumerate_right_congruences, identity_congruence, join,
                            minimal_generating_pairs,
                            pair_set, quotient_semigroup, rc_generate,
                            right_congruence, universal_congruence, within_class_pairs)
from sgt.core import (FiniteSemigroup, RangeError, Transformation, adjoin_identity,
                      adjoin_zero, direct_product, from_cayley, from_transformations,
                      sub_semigroup)
from sgt.green import green_data
from sgt.library import (chain, cyclic, left_zero, library, rectangular_band,
                         right_zero, trivial)
from sgt.verify import (NoInternalIdentity, NotGenerating, NotHomomorphism,
                        NotMonoids, NotRefinement, NotSurjective,
                        PreconditionFailed, VerificationReport, ideals_with_identity, sweep,
                        two_sided_congruences, verify_dp_gens,
                        verify_extend_gens, verify_fg_gens, verify_ideal_gens,
                        verify_lclass_gens, verify_quotient_gens,
                        verify_schutz_gens)
from sgt.verify import _congruence_report


def test_congruence_report_generates_the_built_pairs():
    s = right_zero(3)
    rep = _congruence_report("extend", "", [(0, 1)], universal_congruence(s))
    assert rep.built_pairs == pair_set(s, [(0, 1)])
    assert rep.computed.class_of == (0, 0, 1)
    assert not rep.passed and rep.distinguishing_pair == (0, 2)
    # a replay's pairs come from s's own table and class maps, so the report
    # takes them as built; pair arguments that callers pass are checked
    assert rep.built_pairs.parent is s and rep.built_pairs.pairs == frozenset({(0, 1)})
    with pytest.raises(RangeError):
        pair_set(s, [(0, 3)])


def _first_difference(p, q):
    n = len(p)
    return next(((a, b) for a in range(n) for b in range(a + 1, n)
                 if (p[a] == p[b]) != (q[a] == q[b])), None)


@pytest.mark.parametrize("name", ["z4", "rz3", "n3", "t2", "rb22"])
def test_a_failing_report_carries_the_full_closure(lib, name):
    # built pairs that miss a pair of expected stop short of it; pairs that
    # leave expected are saturated in full: either way the report fails with
    # the closure of the built pairs and their first pair that it splits
    s = lib[name]
    lattice = enumerate_right_congruences(s).congruences
    cases = [(rho, sigma) for rho in lattice for sigma in lattice
             if rho.class_of != sigma.class_of and oracles.partition_join(
                 rho.class_of, sigma.class_of) in (rho.class_of, sigma.class_of)]
    assert cases
    for rho, sigma in cases:
        built = within_class_pairs(rho)
        rep = _congruence_report("extend", "", built, sigma)
        assert not rep.passed and rep.computed is not sigma
        assert rep.computed.class_of == oracles.brute_generated(s, built) == rho.class_of
        assert rep.distinguishing_pair == _first_difference(sigma.class_of, rho.class_of)
        assert rep.distinguishing_pair is not None


def test_a_passing_report_computes_expected_itself():
    s = cyclic(4)
    expected = universal_congruence(s)
    rep = _congruence_report("fg", "", [(0, 1)], expected)
    assert rep.passed and rep.computed is expected and rep.distinguishing_pair is None


Z2, Z6 = cyclic(2), cyclic(6)


@pytest.mark.parametrize("call", [
    lambda: join(universal_congruence(Z2), universal_congruence(Z6)),
    # same size as Z2 x Z2, another table
    lambda: verify_dp_gens(Z2, Z2, universal_congruence(cyclic(4))),
    lambda: verify_ideal_gens(Z2, [0, 1], universal_congruence(cyclic(3))),
    lambda: verify_extend_gens(identity_congruence(Z6), universal_congruence(Z2)),
], ids=["join", "dp", "ideal", "extend_sigma"])
def test_congruence_of_another_semigroup_is_range_checked(call):
    # only where a second value must match the congruence
    with pytest.raises(RangeError, match="congruence of another semigroup"):
        call()


def test_each_call_reads_its_semigroup_from_the_congruence():
    # s and twin share one table: what each call returns belongs to rho.parent
    twin = from_cayley(6, cyclic(6).table)
    s = from_cayley(6, twin.table, labels="abcdef")
    rho = rc_generate(s, [(0, 2)])
    x, _ = minimal_generating_pairs(rho)
    assert x.parent is s and twin._generating_pairs_memo == {}
    assert list(s._generating_pairs_memo) == [(rho.class_of, 12)]
    assert quotient_semigroup(rho).labels == ("a|c|e", "b|d|f")
    z2 = cyclic(2)
    for rep, t in ((verify_fg_gens([1], rho), s), (verify_extend_gens(rho, rho), s),
                   (verify_quotient_gens(twin, [v % 2 for v in range(6)],
                                         universal_congruence(z2)), z2),
                   (verify_ideal_gens(twin, range(6), rho), s)):
        assert rep.passed and rep.built_pairs.parent is t and rep.expected.parent is t


def test_an_ideal_without_an_identity_is_refused_by_name():
    n3 = library()["n3"]  # {1, 2} is a null semigroup
    with pytest.raises(NoInternalIdentity, match="^ideal has no internal identity$"):
        verify_ideal_gens(n3, [1, 2], universal_congruence(sub_semigroup(n3, [1, 2])))


@pytest.mark.parametrize("gens", [["x", 1], [None, 1]])
def test_fg_generators_are_range_checked(gens):
    # a str or None among ints once ended in a bare TypeError from sorted()
    z3 = cyclic(3)
    with pytest.raises(RangeError, match=r"seed element must be an int in \[0, 3\)"):
        verify_fg_gens(gens, universal_congruence(z3))


def test_lclass_takes_a_list_of_pairs():
    s = left_zero(2)
    rep = verify_lclass_gens(s, [(0, 1)])
    assert rep.passed and rep.built_pairs == pair_set(s, [(0, 1)])
    # a PairSet of another semigroup is checked against s, not carried over
    rep = verify_lclass_gens(s, pair_set(left_zero(3), [(0, 1)]))
    assert rep.built_pairs.parent == s
    with pytest.raises(RangeError):
        verify_lclass_gens(s, pair_set(left_zero(3), [(0, 2)]))


def test_fg_universal_on_z2():
    s = cyclic(2)
    rep = verify_fg_gens([1], universal_congruence(s))
    assert rep.passed
    assert (1, 0) in rep.built_pairs.pairs


def test_fg_identity_on_z2():
    s = cyclic(2)
    rep = verify_fg_gens([1], identity_congruence(s))
    assert rep.passed
    assert all(a == b for a, b in rep.built_pairs.pairs)


def test_fg_right_zero():
    s = right_zero(3)
    rho = rc_generate(s, [(0, 1)])
    rep = verify_fg_gens(range(3), rho)
    assert rep.passed and rep.computed.class_of == rho.class_of


def test_fg_rejects_non_generating_set():
    with pytest.raises(NotGenerating):
        verify_fg_gens([2], universal_congruence(cyclic(4)))


def test_lclass_left_zero():
    s = left_zero(3)
    rep = verify_lclass_gens(s, pair_set(s, [(0, 1), (1, 2)]))
    assert rep.passed
    assert set(rep.built_elements) == {0, 1, 2}


def test_lclass_group():
    s = cyclic(3)
    rep = verify_lclass_gens(s, pair_set(s, [(0, 1)]))
    assert rep.passed
    # alpha with e = alpha*g is g^2; closure of {g^2, e} covers the group
    assert 2 in rep.built_elements


def test_lclass_right_zero_identity_relation():
    s = right_zero(3)
    rep = verify_lclass_gens(s, pair_set(s, []))
    assert rep.passed
    assert rep.built_elements == (0, 1, 2)


def test_lclass_precondition():
    s = cyclic(3)
    with pytest.raises(PreconditionFailed):
        verify_lclass_gens(s, pair_set(s, []))  # identity != universal = L


def test_lclass_replay_compares_without_a_checked_congruence(lib):
    # the replay compares the generated class map with green_data's L-classes
    # and takes its representatives from it, so it rebuilds no L-relation
    for name, s in lib.items():
        lrel = right_congruence(s, green_data(s).l_class)
        for x in (minimal_generating_pairs(lrel)[0], pair_set(s, within_class_pairs(lrel))):
            with trace.counting() as counts:
                rep = verify_lclass_gens(s, x)
            assert rep.passed, name
            assert counts["congruence.checked"] == 0, name


def test_dp_klein_universal():
    m = cyclic(2)
    p = direct_product(m, m)
    rep = verify_dp_gens(m, m, universal_congruence(p))
    assert rep.passed


def test_dp_accepts_monoids_built_from_a_bare_table():
    m = FiniteSemigroup(table=cyclic(3).table)
    rep = verify_dp_gens(m, m, universal_congruence(direct_product(m, m)))
    assert rep.passed


def test_dp_trivial():
    t = trivial()
    p = direct_product(t, t)
    rep = verify_dp_gens(t, t, universal_congruence(p))
    assert rep.passed


def test_dp_projection_kernel():
    m = cyclic(2)
    n = chain(2)
    p = direct_product(m, n)
    from sgt.congruence import enumerate_right_congruences
    kernel = [r for r in enumerate_right_congruences(p).congruences
              if r.class_of == tuple(a // n.size for a in range(p.size))]
    assert kernel, "projection kernel must be enumerated"
    rep = verify_dp_gens(m, n, kernel[0])
    assert rep.passed


def test_dp_rejects_non_monoids():
    s = right_zero(2)
    p = direct_product(s, s)
    with pytest.raises(NotMonoids):
        verify_dp_gens(s, s, universal_congruence(p))


def test_schutz_cyclic_group():
    rep = verify_schutz_gens(cyclic(3), 0)
    assert rep.passed


def test_schutz_right_zero():
    rep = verify_schutz_gens(right_zero(2), 0)
    assert rep.passed
    # pairs of S^1 = S + {3} for the in-R-class translates: x's R-class is {x}
    for x in range(3):
        assert list(verify_schutz_gens(right_zero(3), x).built_pairs) == [(x, 3)]


def test_schutz_without_built_elements_is_the_trivial_group(lib):
    # a and a^2 of {a, a^2, 0} lie in trivial H-classes, and no generating
    # pair inside their R-classes yields a stabilizer class
    for x in (0, 1):
        rep = verify_schutz_gens(lib["n3"], x)
        assert rep.built_elements == () and rep.passed


def test_schutz_rectangular_band():
    s = rectangular_band(2, 2)
    for x in range(4):
        assert verify_schutz_gens(s, x).passed


def test_quotient_identity_map():
    s = cyclic(3)
    theta = tuple(range(3))
    rep = verify_quotient_gens(s, theta, universal_congruence(s))
    assert rep.passed


def test_quotient_z4_to_z2():
    s = cyclic(4)
    t = cyclic(2)
    theta = (0, 1, 0, 1)
    rep = verify_quotient_gens(s, theta, universal_congruence(t))
    assert rep.passed


def test_quotient_chain_collapse():
    s = chain(3)
    rho2 = rc_generate(s, [(0, 1)], two_sided=True)
    t = quotient_semigroup(rho2)
    rep = verify_quotient_gens(s, rho2.class_of, identity_congruence(t))
    assert rep.passed


def test_quotient_validation():
    s = cyclic(4)
    with pytest.raises(NotHomomorphism):
        verify_quotient_gens(s, (0, 0, 1, 1), universal_congruence(cyclic(2)))
    with pytest.raises(NotSurjective):
        verify_quotient_gens(s, (0, 0, 0, 0), universal_congruence(cyclic(2)))


@pytest.mark.parametrize("theta", [(0, 1, 5), (0, 1, -1), (0.0, 1, 2), (True, 1, 2),
                                   ("0", 1, 2), (None, 1, 2)])
def test_quotient_map_entries_are_range_checked(theta):
    s = cyclic(3)
    with pytest.raises(RangeError, match="theta entry"):
        verify_quotient_gens(s, theta, universal_congruence(s))


def test_ideal_zero_adjoined_group():
    s = adjoin_zero(cyclic(2))
    isub = sub_semigroup(s, [2])
    rep = verify_ideal_gens(s, [2], universal_congruence(isub))
    assert rep.passed


def test_ideal_chain_bottom():
    s = chain(2)
    isub = sub_semigroup(s, [0])
    rep = verify_ideal_gens(s, [0], universal_congruence(isub))
    assert rep.passed


def test_ideal_product_example():
    m = cyclic(2)
    n = chain(2)
    p = direct_product(m, n)  # (a, b) at index a*2+b
    ideal = [0, 2]  # Z2 x {bottom}
    isub = sub_semigroup(p, ideal)
    rep = verify_ideal_gens(p, ideal, universal_congruence(isub))
    assert rep.passed


def test_ideal_validation():
    # e is the identity of rho_on_i's parent: 1 in {0, 1} of the chain 0 < 1 < 2
    s = chain(3)
    isub = sub_semigroup(s, [0, 1])
    rep = verify_ideal_gens(s, [0, 1], identity_congruence(isub))
    assert rep.passed and rep.expected.parent is isub
    assert verify_ideal_gens(s, [0, 1], universal_congruence(isub)).passed


def _relabelled(s, rng):
    perm = list(range(s.size))
    rng.shuffle(perm)
    return oracles.relabelled(s, perm)


def test_ideals_with_identity_matches_subset_scan():
    rng = random.Random(3)
    lib = library()
    tables = list(lib.values())
    tables += [direct_product(a, b) for a in lib.values() for b in lib.values()
               if a.size * b.size <= 9]
    tables += [adjoin(s) for s in lib.values() for adjoin in (adjoin_identity, adjoin_zero)]
    tables += [_relabelled(s, rng) for s in list(tables)]
    for s in tables:
        assert ideals_with_identity(s) == oracles.brute_ideals_with_identity(s)


def test_extend_identity_to_universal():
    s = cyclic(3)
    rep = verify_extend_gens(identity_congruence(s), universal_congruence(s))
    assert rep.passed


def test_extend_equal():
    s = cyclic(3)
    rho = universal_congruence(s)
    rep = verify_extend_gens(rho, rho)
    assert rep.passed
    assert rep.built_pairs.pairs == minimal_generating_pairs(rho)[0].pairs


def test_extend_z4_coset():
    s = cyclic(4)
    rho = rc_generate(s, [(0, 2)])
    rep = verify_extend_gens(rho, universal_congruence(s))
    assert rep.passed


def test_extend_rejects_non_refinement():
    s = cyclic(4)
    rho = rc_generate(s, [(0, 2)])
    sigma = identity_congruence(s)
    with pytest.raises(NotRefinement):
        verify_extend_gens(rho, sigma)


def test_reports_reproducible():
    s = cyclic(3)
    a = verify_fg_gens([1], universal_congruence(s), inputs="x")
    b = verify_fg_gens([1], universal_congruence(s), inputs="x")
    assert a == b


def test_two_sided_congruences_right_zero():
    # in a right-zero semigroup left compatibility is automatic
    assert len(two_sided_congruences(right_zero(3))) == 5


def test_sweep_names_a_library_value_that_is_no_semigroup():
    lib = {"z2": cyclic(2), "x": 3}  # once a bare AttributeError, after z2's replays
    with trace.counting() as counts, pytest.raises(
            TypeError, match=r"lib\['x'\] must be a FiniteSemigroup, got int"):
        sweep(lib=lib)
    assert not counts  # refused before any replay ran


def test_sweep_schutz_reports_equal_the_replay_called_alone(lib):
    # the sweep shares one S^1 per table among its elements' replays
    swept = [rep for rep in sweep(lib=lib) if rep.construction == "schutz"]
    alone = [verify_schutz_gens(s, el, inputs=f"{name} el{el}")
             for name, s in lib.items() if s.size <= 6 for el in range(s.size)]
    names = [f.name for f in dataclasses.fields(VerificationReport)]
    assert len(swept) == len(alone) == 55
    for a, b in zip(swept, alone):
        assert [getattr(a, f) for f in names] == [getattr(b, f) for f in names], b.inputs


def test_sweep_dp_reports_equal_the_replay_called_alone(lib):
    # the sweep hands each replay the product it holds
    swept = [rep for rep in sweep(lib=lib) if rep.construction == "dp"]
    monoids = [(name, s) for name, s in lib.items() if s.identity is not None and s.size <= 3]
    alone = [verify_dp_gens(m, n, rho, inputs=f"{na}x{nb} rho#{k}")
             for na, m in monoids for nb, n in monoids
             for k, rho in enumerate(enumerate_right_congruences(direct_product(m, n)).congruences)]
    names = [f.name for f in dataclasses.fields(VerificationReport)]
    assert len(swept) == len(alone) == 276
    for a, b in zip(swept, alone):
        assert [getattr(a, f) for f in names] == [getattr(b, f) for f in names], b.inputs


def test_sweep_builds_each_product_table_once(monkeypatch, lib):
    # one table per direct_product of two small monoids, and none per dp replay
    calls = Counter()

    def counting(module):
        build = module._product_table

        def counted(m, n):
            calls[module.__name__] += 1
            return build(m, n)
        return counted

    for module in (core, verify):
        monkeypatch.setattr(module, "_product_table", counting(module))
    reports = sweep(lib=lib)
    monoids = [s for s in lib.values() if s.identity is not None and s.size <= verify.DP_LIMIT]
    assert len(monoids) ** 2 == 25
    assert calls == {"sgt.core": 25}
    assert sum(r.construction == "dp" for r in reports) == 276
    # the public replay builds the product's table once itself
    m, n = monoids[:2]
    verify_dp_gens(m, n, identity_congruence(direct_product(m, n)))
    assert calls == {"sgt.core": 26, "sgt.verify": 1}


def _sweep_counting_enumerations(monkeypatch, lib):
    """sweep(lib=lib) with the tables that it enumerates, in call order."""
    tables = []
    enumerate_all = verify.enumerate_right_congruences

    def counted(t, *args, **kwargs):
        tables.append(t.table)
        return enumerate_all(t, *args, **kwargs)

    monkeypatch.setattr(verify, "enumerate_right_congruences", counted)
    return sweep(lib=lib), tables


def _check_one_enumeration_per_table(reports, tables, counts):
    assert len(tables) == len(set(tables))
    # every table whose congruences a replay ran on, and only those
    assert set(tables) == {r.expected.parent.table for r in reports if r.expected is not None}
    assert all(r.passed for r in reports)
    assert Counter(r.construction for r in reports) == counts


def test_sweep_enumerates_each_distinct_table_once(monkeypatch, lib):
    # quotients by the identity, ideals equal to S and products with the
    # trivial monoid repeat tables: 124 enumerations were 35 distinct tables
    reports, tables = _sweep_counting_enumerations(monkeypatch, lib)
    assert len(tables) == 35
    _check_one_enumeration_per_table(reports, tables, {
        "dp": 276, "extend": 221, "quotient": 208, "fg": 76, "schutz": 55,
        "lclass": 32, "ideal": 28})


def test_t3_sweep_enumerates_each_distinct_table_once(monkeypatch):
    # the input of acceptance criterion 13, with its report counts
    for limit, value in (("SIZE_LIMIT", 27), ("SCHUTZ_LIMIT", 27), ("DP_LIMIT", 0)):
        monkeypatch.setattr(verify, limit, value)
    t3 = from_transformations(3, [Transformation(3, g)
                                  for g in ((1, 2, 0), (1, 0, 2), (0, 0, 2))])
    reports, tables = _sweep_counting_enumerations(monkeypatch, {"T3": t3})
    _check_one_enumeration_per_table(reports, tables, {
        "fg": 287, "extend": 5963, "quotient": 446, "ideal": 287, "schutz": 27,
        "lclass": 2})


def test_sweep_small_library_passes():
    small = {"z2": cyclic(2), "rz2": right_zero(2)}
    reports = sweep(lib=small)
    assert reports and all(r.passed for r in reports)
    constructions = {r.construction for r in reports}
    assert {"fg", "lclass", "extend", "quotient", "ideal", "schutz", "dp"} <= constructions


def test_fg_built_set_respects_size_bound(lib):
    from sgt.congruence import enumerate_right_congruences
    for name, s in lib.items():
        if s.size > 4:
            continue
        gens = list(range(s.size))
        for rho in enumerate_right_congruences(s).congruences:
            rep = verify_fg_gens(gens, rho)
            assert rep.passed
            assert len(rep.built_pairs) <= len(gens) * (1 + rho.index)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 3).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(0, d - 1)] * d), min_size=1, max_size=3)), st.data())
def test_fg_replay_bound_on_transformation_semigroups(gens, data):
    s = from_transformations(len(gens[0]), [Transformation(len(g), g) for g in gens])
    # the generators come first, duplicates dropped
    a = range(len(set(gens)))
    element = st.integers(0, s.size - 1)
    pairs = data.draw(st.lists(st.tuples(element, element), max_size=3), label="pairs")
    rho = rc_generate(s, pairs)
    rep = verify_fg_gens(a, rho)
    assert rep.passed
    assert len(rep.built_pairs) <= len(a) * (rho.index + 1)


def test_extend_built_set_respects_size_bound():
    s = cyclic(4)
    rho = rc_generate(s, [(0, 2)])
    rep = verify_extend_gens(rho, universal_congruence(s))
    x, _ = minimal_generating_pairs(rho)
    assert len(rep.built_pairs) <= len(x) + rho.index * rho.index


def test_constructions_on_six_element_monoid():
    # beyond the exhaustive sweep size: spot runs on a larger instance
    z6 = cyclic(6)
    from sgt.congruence import enumerate_right_congruences
    congruences = enumerate_right_congruences(z6).congruences
    assert len(congruences) == 4  # divisors of 6
    for rho in congruences:
        assert verify_fg_gens([1], rho).passed
        assert verify_extend_gens(rho, universal_congruence(z6)).passed
        assert verify_quotient_gens(z6, tuple(range(6)), rho).passed
