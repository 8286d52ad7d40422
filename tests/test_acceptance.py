"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its runtime and enforcing a runtime budget."""
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import time
import warnings
from collections import Counter

import oracles
from sgt import trace, verify
from sgt.congruence import (enumerate_right_congruences,
                            minimal_generating_pairs, rc_diameter, rc_generate,
                            universal_congruence)
from sgt.core import Transformation, classify, from_transformations, sub_semigroup
from sgt.green import green_data, schutzenberger
from sgt.library import cyclic, right_zero, trivial
from sgt.structure import (ZERO, archimedean_decomposition, cr_decomposition,
                           diagonal_cyclic_witness, rees_construct,
                           rees_coordinates, rees_structure, theta_congruence)
from sgt.verify import sweep, two_sided_congruences, verify_schutz_gens

SEED = 20260810
T3_GENS = ((1, 2, 0), (1, 0, 2), (0, 0, 2))
T4_GENS = ((1, 2, 3, 0), (1, 0, 2, 3), (0, 0, 2, 3))
T5_GENS = ((1, 2, 3, 4, 0), (1, 0, 2, 3, 4), (0, 0, 2, 3, 4))


def _full_transformation_monoid(degree, gens):
    return from_transformations(degree, [Transformation(degree, g) for g in gens])


def _run(num, desc, bound, fn):
    t0 = time.perf_counter()
    try:
        fn()
        elapsed = time.perf_counter() - t0
        if elapsed >= bound:
            print(f"CRITERION {num:2d}: FAIL ({elapsed:.1f}s > {bound}s) {desc}")
            raise AssertionError(f"runtime {elapsed:.1f}s exceeded {bound}s budget")
    except AssertionError as exc:
        elapsed = time.perf_counter() - t0
        print(f"CRITERION {num:2d}: FAIL ({elapsed:.1f}s) {desc} :: {exc}")
        raise
    print(f"CRITERION {num:2d}: PASS ({elapsed:.1f}s) {desc}")


def _small_library(lib):
    return {name: s for name, s in lib.items() if s.size <= 5}


def test_criterion_01_closure_oracle_equivalence(lib):
    def check():
        required = {"trivial", "z2", "z3", "z4", "z5", "chain2", "chain3",
                    "lz2", "lz3", "lz4", "rz2", "rz3", "rz4", "rb22", "n3", "t2"}
        small = _small_library(lib)
        assert required <= set(small), "library misses required instances"
        for name, s in small.items():
            compatible = oracles.brute_right_congruences(s)
            all_pairs = [(a, b) for a in range(s.size) for b in range(s.size)]
            pair_sets = [()]
            pair_sets += [(p,) for p in all_pairs]
            pair_sets += list(itertools.combinations(all_pairs, 2))
            for x in pair_sets:
                fitting = [p for p in compatible if oracles.contains_pairs(p, x)]
                expect = oracles.meet(fitting)
                assert rc_generate(s, x).class_of == expect, (name, x)

    _run(1, "closure equals intersection of right-compatible partitions", 30, check)


def test_criterion_02_bell_numbers():
    def check():
        counts = [len(enumerate_right_congruences(right_zero(n)))
                  for n in (2, 3, 4)]
        assert counts == [2, 5, 15], counts

    _run(2, "right-zero congruence counts are Bell numbers 2, 5, 15", 5, check)


def test_criterion_03_group_subgroup_correspondence():
    def check():
        expected = (2, 2, 3, 2, 4, 2, 4)
        got = tuple(len(enumerate_right_congruences(cyclic(n)))
                    for n in range(2, 9))
        assert got == expected, got
        for n in range(2, 9):
            g = cyclic(n)
            assert len(enumerate_right_congruences(g)) \
                == oracles.subgroup_count(g) == oracles.divisor_count(n)

    _run(3, "cyclic-group congruence counts equal divisor counts", 10, check)


def test_criterion_04_schutzenberger_size_law():
    def check():
        rng = random.Random(SEED)
        trials = 0
        while trials < 100:
            k = rng.randint(1, 3)
            gens = [Transformation(4, tuple(rng.randrange(4) for _ in range(4)))
                    for _ in range(k)]
            s = from_transformations(4, gens)
            gd = green_data(s)
            seen = set()
            for x in range(s.size):
                h = gd.h_class[x]
                if h in seen:
                    continue
                seen.add(h)
                sg = schutzenberger(s, x)
                assert sg.group.size == len(sg.h_class), (trials, x)
                if h in gd.group_h_classes and len(sg.h_class) <= 8:
                    sub = sub_semigroup(s, list(sg.h_class))
                    assert oracles.isomorphic(sg.group, sub, 8) is not None, (trials, x)
            trials += 1

    _run(4, "|Gamma(H)| = |H| over 100 random subsemigroups of T4", 60, check)


def test_criterion_05_constructive_proof_sweep(monkeypatch):
    monkeypatch.setattr(verify, "SCHUTZ_LIMIT", 0)  # criterion 6 replays schutz

    def check():
        reports = sweep()
        by_construction = {}
        for rep in reports:
            by_construction.setdefault(rep.construction, []).append(rep)
        for needed in ("fg", "lclass", "extend", "quotient", "ideal", "dp"):
            assert by_construction.get(needed), f"no {needed} runs"
        bad = [r for r in reports if not r.passed]
        assert not bad, f"{len(bad)} failures, first: {bad[0] if bad else None}"

    _run(5, "fg/lclass/extend/quotient/ideal/dp replays all pass", 120, check)


def test_criterion_06_schutzenberger_generators(lib):
    def check():
        for name, s in lib.items():
            if s.size > 6:
                continue
            for el in range(s.size):
                rep = verify_schutz_gens(s, el, inputs=f"{name} el{el}")
                assert rep.passed, (name, el, rep.note)

    _run(6, "stabilizer-class generators span every Schutzenberger group", 60, check)


def test_criterion_07_theta_congruence_law():
    def check():
        groups = [trivial(), cyclic(2), cyclic(3)]
        rng = random.Random(SEED)
        cases = []
        for _ in range(200):
            g = groups[rng.randrange(3)]
            isz, jsz = rng.randint(1, 3), rng.randint(1, 3)
            p = [[rng.choice([ZERO] + list(range(g.size))) for _ in range(isz)]
                 for _ in range(jsz)]
            cases.append((g, isz, jsz, p))
        for g in groups:
            for size in (1, 2, 3):
                eye = [[g.identity if i == j else ZERO for i in range(size)]
                       for j in range(size)]
                cases.append((g, size, size, eye))
            for isz in (1, 2, 3):
                for jsz in (1, 2, 3):
                    cases.append((g, isz, jsz,
                                  [[g.identity] * isz for _ in range(jsz)]))
        for g, isz, jsz, p in cases:
            r = rees_structure(g, isz, jsz, p, with_zero=True)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                s = rees_construct(r)
            _, rho = theta_congruence(r)
            assert rho.parent.table == s.table
            assert oracles.is_right_compatible(s, rho.class_of)
            # independent recomputation of the classes
            vectors = [tuple(0 if v is ZERO else 1 for v in row) for row in p]
            keys = [vectors[j] for i in range(isz) for _g in range(g.size)
                    for j in range(jsz)] + ["0"]
            assert rho.class_of == oracles.canonical(keys)
            assert rho.index == len(set(vectors)) + 1

    _run(7, "column-pattern congruence is right compatible with exact index", 60, check)


def test_criterion_08_rees_round_trip():
    def check():
        count = 0
        for g in (trivial(), cyclic(2), cyclic(3)):
            for isz in (1, 2, 3):
                for jsz in (1, 2, 3):
                    for flat in itertools.product(range(g.size), repeat=isz * jsz):
                        p = [list(flat[r * isz:(r + 1) * isz]) for r in range(jsz)]
                        r = rees_structure(g, isz, jsz, p, with_zero=False)
                        s = rees_construct(r)
                        struct, mapping = rees_coordinates(s)
                        rebuilt = rees_construct(struct)
                        assert rebuilt.size == s.size
                        if count % 20 == 0:  # independent spot re-check
                            assert sorted(mapping) == list(range(s.size))
                            for a in range(s.size):
                                for b in range(s.size):
                                    assert (mapping[rebuilt.table[a][b]]
                                            == s.table[mapping[a]][mapping[b]])
                        count += 1
        assert count == 21988, count

    _run(8, "all small Rees structures coordinatize back isomorphically", 60, check)


def test_criterion_09_decomposition_guarantees(lib):
    def check():
        cr_seen = arch_seen = 0
        for name, s in lib.items():
            flags = classify(s)
            if flags.completely_regular:
                cr_seen += 1
                dec = cr_decomposition(s)
                q = dec.semilattice
                assert all(q.table[i][i] == i for i in range(q.size))
                assert all(q.table[i][j] == q.table[j][i]
                           for i in range(q.size) for j in range(q.size))
                for sub in dec.component_tables:
                    assert classify(sub).completely_simple, name
            if flags.commutative:
                arch_seen += 1
                dec = archimedean_decomposition(s)
                assert classify(dec.semilattice).semilattice
                for members in dec.components():
                    for a in members:
                        for b in members:
                            powers, v = set(), a
                            for _ in range(s.size):
                                powers.add(v)
                                v = s.table[v][a]
                            ideal = {b} | {s.table[b][x] for x in range(s.size)}
                            assert powers & ideal, (name, a, b)
        assert cr_seen and arch_seen

    _run(9, "decompositions yield semilattices of the guaranteed components", 30, check)


def test_criterion_10_diameter_sanity(lib):
    def check():
        for name, s in lib.items():
            x, _ = minimal_generating_pairs(universal_congruence(s))
            d = rc_diameter(s, x)
            assert isinstance(d, int), name
            assert d < s.size, (name, d)
        # pinned value for Z3 with the pair (e, g): each step uses (e, g) or
        # its reverse (g, e) with a multiplier in S^1, so every off-diagonal
        # pair is one step apart:
        #   e -> g:   e = e*1,   g*1 = g        (pair (e, g))
        #   g -> g^2: g = e*g,   g*g = g^2      (pair (e, g))
        #   e -> g^2: e = g*g^2, e*g^2 = g^2    (reversed pair (g, e))
        # A value of 2 arises only if steps from the reversed pair are
        # forbidden, which is not the definition of the generated congruence.
        d = rc_diameter(cyclic(3), [(0, 1)])
        assert d == 1, f"rc_diameter(Z3, (e,g)) = {d}, pinned value is 1"

    _run(10, "diameters defined and below |S|; Z3 pinned value", 10, check)


def test_criterion_11_diagonal_act_negative(lib):
    def check():
        assert diagonal_cyclic_witness(trivial()) == (0, 0)
        for name, s in lib.items():
            if s.size >= 2:
                assert diagonal_cyclic_witness(s) is None, name

    _run(11, "diagonal act is cyclic only for the trivial semigroup", 5, check)


def test_criterion_12_large_tables():
    def check():
        t4 = _full_transformation_monoid(4, T4_GENS)
        with trace.counting() as counts:
            chain = two_sided_congruences(t4)
        assert [rho.index for rho in chain] == [256, 253, 211, 169, 73, 49, 25, 7, 3, 2, 1]
        # a chain: each congruence refines the next, whose labels are a
        # function of its own
        assert all(len(set(zip(finer.class_of, coarser.class_of))) == finer.index
                   for finer, coarser in zip(chain, chain[1:]))
        # one pass over the pair graph; only the irreducibility test closes
        assert counts["congruence.pair_graph.nodes"] == 256 * 255 // 2
        assert counts["congruence.principals"] == 10
        assert counts["congruence.close.calls"] < counts["congruence.principals"]
        assert len(enumerate_right_congruences(cyclic(500))) == oracles.divisor_count(500) == 12

    _run(12, "two-sided congruences of T4 and right congruences of cyclic(500)", 10, check)


def test_criterion_13_t3_replays(monkeypatch):
    for limit, value in (("SIZE_LIMIT", 27), ("SCHUTZ_LIMIT", 27), ("DP_LIMIT", 0)):
        monkeypatch.setattr(verify, limit, value)

    def check():
        t3 = _full_transformation_monoid(3, T3_GENS)
        reports = sweep(lib={"T3": t3})
        bad = [r for r in reports if not r.passed]
        assert not bad, f"{len(bad)} failures, first: {bad[0]}"
        assert Counter(r.construction for r in reports) == {
            "fg": 287, "extend": 5963, "quotient": 446, "ideal": 287,
            "schutz": 27, "lclass": 2}

    _run(13, "every construction replays on T3", 10, check)


def _in_own_interpreter(function: str) -> dict:
    """The JSON result of this module's function, run in a fresh interpreter."""
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(trace.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", "import json, test_acceptance as a; "
                               f"print(json.dumps(a.{function}()))"],
        cwd=tests, env={**os.environ, "PYTHONPATH": os.pathsep.join([tests, src])},
        capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def _build_t5() -> dict:
    """Build T5 and check it; with the build's time and the process's peak
    RSS right after the build, before the check draws its sample, so that
    criterion 14 reads them in an interpreter of their own."""
    t0 = time.perf_counter()
    t5 = _full_transformation_monoid(5, T5_GENS)
    seconds = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rng = random.Random(SEED)
    triples = [tuple(rng.randrange(t5.size) for _ in range(3)) for _ in range(100_000)]
    return {"size": t5.size, "seconds": seconds,
            "identity_row": (t5.identity is not None
                             and t5.table[t5.identity] == tuple(range(t5.size))),
            "idempotents": len(t5.idempotents()),
            "nonassociative": oracles.brute_first_nonassociative(t5.table, triples),
            "peak_rss_mb": peak_rss_mb}


def test_criterion_14_t5_from_transformations():
    def check():
        got = _in_own_interpreter("_build_t5")
        # |T5| = 5^5, and sum_k C(5, k) k^(5-k) of its elements are idempotent
        assert (got["size"], got["idempotents"]) == (3125, 196)
        assert got["identity_row"] and got["nonassociative"] is None
        print(f"T5: built in {got['seconds']:.2f} s (target 3 s), "
              f"peak RSS {got['peak_rss_mb']:.0f} MB (target 250 MB)")

    _run(14, "T5 from its generators: 3,125 elements, identity, associative sample", 10, check)


def _green_t5() -> dict:
    """Build T5, then take its Green data; with the time green_data takes
    and the rise of the process's peak RSS over the build's, so that
    criterion 15 reads them in an interpreter of their own."""
    t5 = _full_transformation_monoid(5, T5_GENS)
    built_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    t0 = time.perf_counter()
    gd = green_data(t5)
    seconds = time.perf_counter() - t0
    rise_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 - built_rss_mb
    counts = {name: len(set(getattr(gd, f"{name}_class"))) for name in "rlhdj"}
    return {"seconds": seconds, "rss_rise_mb": rise_mb, "counts": counts,
            "group_h_classes": len(gd.group_h_classes)}


def test_criterion_15_t5_green_data():
    def check():
        got = _in_own_interpreter("_green_t5")
        # kernels (Bell(5)), images (2^5 - 1), their pairs sum_k S(5, k) C(5, k),
        # ranks, and one group H-class per idempotent
        assert got["counts"] == {"r": 52, "l": 31, "h": 456, "d": 5, "j": 5}, got["counts"]
        assert got["group_h_classes"] == 196
        assert got["seconds"] < 0.5, f"green_data(T5) took {got['seconds']:.2f} s"
        assert got["rss_rise_mb"] < 10, f"peak RSS rose {got['rss_rise_mb']:.1f} MB"
        print(f"T5: green_data in {got['seconds']:.3f} s (budget 0.5 s), "
              f"peak RSS +{got['rss_rise_mb']:.1f} MB over the build (budget 10 MB)")

    _run(15, "Green data of T5: 52 R-, 31 L-, 456 H-classes, 5 D = J", 10, check)
