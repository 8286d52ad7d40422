"""The opt-in work counters of sgt.trace."""
from sgt import congruence, trace
from sgt.congruence import enumerate_right_congruences, rc_generate
from sgt.core import Transformation, from_transformations
from sgt.library import library, right_zero
from sgt.verify import sweep, two_sided_congruences, verify_schutz_gens

T3_GENS = ((1, 2, 0), (1, 0, 2), (0, 0, 2))


def _t3():
    return from_transformations(3, [Transformation(3, g) for g in T3_GENS])


def test_nothing_is_counted_while_off():
    t3 = _t3()
    trace.counts.clear()
    assert not trace.enabled
    enumerate_right_congruences(t3)
    two_sided_congruences(t3)
    rc_generate(t3, [(0, 1)])
    verify_schutz_gens(t3, 0)  # a derived S^1, a checked group and congruence, a search
    assert not trace.counts


def test_counting_restores_the_flag_and_starts_from_zero():
    trace.counts["stale"] = 3
    with trace.counting() as counts:
        assert trace.enabled and counts is trace.counts and not counts
    assert not trace.enabled


def test_t3_counts_on_both_sides():
    t3 = _t3()
    with trace.counting() as counts:
        enumerate_right_congruences(t3)
    assert counts["congruence.pair_graph.nodes"] == 351
    assert counts["congruence.pair_graph.sccs"] == 65
    assert counts["congruence.principals"] == 44
    # the old walk's 1,295 merges, each made or skipped on an inherited witness
    assert counts["congruence.walk.merges_tried"] == 696
    assert counts["congruence.walk.merges_skipped"] == 599
    assert counts["congruence.walk.merges_kept"] == 286
    assert (counts["congruence.walk.merges_tried"]
            + counts["congruence.walk.merges_skipped"]) == 1295
    with trace.counting() as counts:
        two_sided_congruences(t3)
    assert counts["congruence.pair_graph.nodes"] == 351
    assert counts["congruence.pair_graph.sccs"] == 17
    assert counts["congruence.principals"] == 6
    assert counts["congruence.walk.merges_kept"] == 6


def test_rz6_walk_counts():
    with trace.counting() as counts:
        enumerate_right_congruences(right_zero(6))
    assert counts["congruence.walk.merges_tried"] == 399
    assert counts["congruence.walk.merges_skipped"] == 471
    assert counts["congruence.walk.merges_kept"] == 202
    assert (counts["congruence.walk.merges_tried"]
            + counts["congruence.walk.merges_skipped"]) == 870


def test_the_principal_phase_saturates_no_pair():
    t3 = _t3()
    for two_sided in (False, True):
        with trace.counting() as counts:
            congruence._principals(t3, two_sided)
        assert counts["congruence.pair_graph.nodes"] == 351
        assert counts["congruence.close.calls"] == 0
    # the counter does see closures: one per rc_generate, and none in an
    # enumeration, whose irreducibility test merges labels too
    with trace.counting() as counts:
        rc_generate(t3, [(0, 1)])
    assert counts["congruence.close.calls"] == 1
    with trace.counting() as counts:
        enumerate_right_congruences(t3)
    assert counts["congruence.principals"] > 0 and counts["congruence.close.calls"] == 0


def test_one_library_sweep_builds_180_tables_and_checks_71_congruences():
    lib = library()
    with trace.counting() as counts:
        reports = sweep(lib=lib)
    assert len(reports) == 896
    # one S^1 per table of at most six elements: 17 of them, not one per element (55);
    # only the 55 Schutzenberger groups are checked, and the tables built from
    # checked ones (S^1, products, quotients, ideals) are derived
    assert counts["core.semigroups.checked"] == 55
    assert counts["core.semigroups.derived"] == 125
    # the elements of a table share its S^1 and so 25 answers from its memo
    assert counts["congruence.generating_pairs.searches"] == 106
    assert (counts["congruence.generating_pairs.searches"]
            + counts["congruence.generating_pairs.memo_hits"]) == 1412
    # one L-relation for each of the 16 tables of at most five elements, which
    # sweep() builds for the lclass inputs (the replays build none), and one
    # by-translate congruence per schutz replay; the dp restrictions and the
    # pullbacks, 1,120 more, follow from checks already made
    assert counts["congruence.checked"] == 16 + 55
