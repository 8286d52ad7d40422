"""Replays of the constructive generating-set arguments on finite instances.

Each verify_* operation builds a generating set exactly as the corresponding
construction prescribes and checks that it generates the claimed congruence
(or subsemigroup).  All representative choices use smallest-index
tie-breaking so reports are reproducible.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import (FiniteSemigroup, InternalAssertFailure, _hom_failure,
                   _ideal_members, _identity, _index, _product_table,
                   _restricted_table, _trusted, adjoin_identity,
                   direct_product, sub_semigroup, subsemigroup_closure)
from .congruence import (PairSet, RightCongruence, _canonical_classes, _congruence_on,
                         _principal_closure, enumerate_right_congruences,
                         minimal_generating_pairs, pair_set, quotient_semigroup,
                         rc_generate, right_congruence, times, within_class_pairs)
from .green import green_data, schutzenberger
from .library import library


class NotGenerating(ValueError):
    pass


class PreconditionFailed(ValueError):
    pass


class NotMonoids(ValueError):
    pass


class NotHomomorphism(ValueError):
    pass


class NotSurjective(ValueError):
    pass


class NoInternalIdentity(ValueError):
    pass


class NotRefinement(ValueError):
    pass


@dataclass(frozen=True)
class VerificationReport:
    construction: str
    inputs: str
    built_pairs: PairSet | None
    built_elements: tuple | None
    expected: RightCongruence | None
    computed: RightCongruence | None
    passed: bool
    distinguishing_pair: tuple[int, int] | None
    note: str = ""


def _distinguish(expected: RightCongruence, computed: RightCongruence):
    n = expected.parent.size
    return next(((a, b) for a in range(n) for b in range(a + 1, n)
                 if expected.related(a, b) != computed.related(a, b)), None)


def _congruence_report(construction, inputs, built, expected) -> VerificationReport:
    """A congruence replay's one check, on t = expected.parent.  A replay
    builds its pairs from t's own table and class maps, so they are not
    checked again."""
    t = expected.parent
    built = _trusted(PairSet, parent=t, pairs=frozenset(built))
    computed = rc_generate(t, built)
    passed = expected.class_of == computed.class_of
    return VerificationReport(
        construction=construction, inputs=inputs, built_pairs=built,
        built_elements=None, expected=expected, computed=computed,
        passed=passed,
        distinguishing_pair=None if passed else _distinguish(expected, computed))


def _elements_report(construction, inputs, x, t, built, note) -> VerificationReport:
    """The one check of an element replay: the built elements (none stands
    for the identity) generate t; note(generated) explains a failure."""
    generated = subsemigroup_closure(t, built) or (t.identity,)
    passed = generated == tuple(range(t.size))
    return VerificationReport(
        construction=construction, inputs=inputs, built_pairs=x,
        built_elements=tuple(sorted(built)), expected=None, computed=None,
        passed=passed, distinguishing_pair=None,
        note="" if passed else note(generated))


def verify_fg_gens(gens: Iterable[int], rho: RightCongruence,
                   inputs: str = "") -> VerificationReport:
    """Generator-indexed pair set for a finite-index congruence on
    <gens> = S, where S is rho.parent."""
    s = rho.parent
    gens = sorted({_index(g, "seed element", s.size) for g in gens})
    if subsemigroup_closure(s, gens) != tuple(range(s.size)):
        raise NotGenerating("given set does not generate the semigroup")
    alpha = [members[0] for members in rho.classes()]
    built = set()
    for x in gens:
        built.add((x, alpha[rho.class_of[x]]))
    for i in range(rho.index):
        for x in gens:
            ax = s.table[alpha[i]][x]
            built.add((ax, alpha[rho.class_of[ax]]))
    return _congruence_report("fg", inputs, built, rho)


def _implied(s: FiniteSemigroup, keys) -> RightCongruence:
    """The right congruence of s with these class keys, numbered by first
    occurrence and not checked again: only for a map that a check made
    earlier in the same call makes right compatible."""
    return _trusted(RightCongruence, parent=s, class_of=_canonical_classes(keys))


def _l_congruence(s: FiniteSemigroup) -> RightCongruence:
    return right_congruence(s, green_data(s).l_class)


def verify_lclass_gens(s: FiniteSemigroup, x: PairSet | Iterable[tuple[int, int]],
                       inputs: str = "") -> VerificationReport:
    """Element set built from a pair set generating the L-relation.

    For each (a, b) in the symmetrized set, the smallest alpha with
    a = alpha*b joins the class representatives; the formal identity is
    allowed as alpha and contributes nothing.
    """
    x = pair_set(s, x)
    lrel = rc_generate(s, x)  # both class maps are numbered by first occurrence
    if lrel.class_of != green_data(s).l_class:
        raise PreconditionFailed("pair set does not generate the L-relation")
    built = set()
    for (a, b) in sorted(x.symmetrized()):
        if a == b:
            continue
        alpha = next((c for c in range(s.size) if s.table[c][b] == a), None)
        if alpha is None:
            raise PreconditionFailed(f"no left factor: {a} not in S*{b}")
        built.add(alpha)
    built.update(members[0] for members in lrel.classes())
    return _elements_report("lclass", inputs, x, s, built, lambda gen:
                            f"unreached elements: {sorted(set(range(s.size)) - set(gen))}")


def verify_dp_gens(m: FiniteSemigroup, n: FiniteSemigroup, rho: RightCongruence,
                   inputs: str = "") -> VerificationReport:
    """Product generating set assembled from the two coordinate restrictions.

    rho was checked as a right congruence when it was built, and
    _congruence_on checks that its parent is M x N, so both restrictions
    are right congruences without a second check: (1, b) rho (1, b')
    times (1, c) gives (1, bc) rho (1, b'c), and (a, d) rho (a', d) times
    (c, 1) gives (ac, d) rho (a'c, d).
    """
    if m.identity is None or n.identity is None:
        raise NotMonoids("both factors must be monoids")
    rho = _congruence_on(_product_table(m, n), rho)  # compared, not rebuilt

    def idx(a, b):
        return a * n.size + b

    one_m = m.identity
    rho_n = _implied(n, [rho.class_of[idx(one_m, b)] for b in range(n.size)])
    d_reps = [members[0] for members in rho_n.classes()]

    alpha: dict[tuple[int, int], int] = {}
    for j, dj in enumerate(d_reps):
        for a in range(m.size):
            key = (rho.class_of[idx(a, dj)], j)
            if key not in alpha:
                alpha[key] = a
    built = set()
    for (i, j), aij in alpha.items():
        for (i2, k), aik in alpha.items():
            if i == i2 and j != k:
                built.add((idx(aij, d_reps[j]), idx(aik, d_reps[k])))
    for (a, b) in minimal_generating_pairs(rho_n)[0]:
        built.add((idx(one_m, a), idx(one_m, b)))
    for j, dj in enumerate(d_reps):
        rho_j = _implied(m, [rho.class_of[idx(a, dj)] for a in range(m.size)])
        for (a, b) in minimal_generating_pairs(rho_j)[0]:
            built.add((idx(a, dj), idx(b, dj)))
    return _congruence_report("dp", inputs, built, rho)


def verify_schutz_gens(s: FiniteSemigroup, element: int,
                       inputs: str = "") -> VerificationReport:
    """Stabilizer-class generators for the group assigned to an H-class.

    Works over S^1, S with a fresh identity adjoined; the by-translate
    congruence is generated, and for each generating pair inside the
    R-class a stabilizer element realizing the translate is reduced to its
    class.
    """
    return _schutz_report(s, adjoin_identity(s), element, inputs)


def _schutz_report(s: FiniteSemigroup, t: FiniteSemigroup, element: int,
                   inputs: str) -> VerificationReport:
    """verify_schutz_gens over t = adjoin_identity(s), which sweep() shares
    among s's elements, so that t's memo answers the questions they share.
    The by-translate congruence is checked: no earlier check implies it."""
    sg = schutzenberger(s, element)  # range-checks element
    # for a in S, aS^1 is the same in S and in S^1, whose 1 is alone in its R-class
    r_class = green_data(s).r_class
    r_set = frozenset(v for v, c in enumerate(r_class) if c == r_class[element])
    keys = []
    for w in range(t.size):
        f = frozenset(t.table[h][w] for h in sg.h_class)
        keys.append(("in", tuple(sorted(f))) if f <= r_set else ("out",))
    x, _ = minimal_generating_pairs(right_congruence(t, keys))

    h0 = sg.h_class[0]
    a_classes = set()
    for (px, py) in sorted(x.symmetrized()):
        if keys[px] == ("out",):
            continue
        target = t.table[h0][px]
        chosen = None
        for alpha in sg.stabilizer:
            if t.table[times(s, h0, alpha)][py] == target:
                chosen = alpha
                break
        if chosen is None:
            raise InternalAssertFailure("no stabilizer element realizes the translate")
        a_classes.add(sg.sigma_class_of[chosen])
    return _elements_report("schutz", inputs, x, sg.group, a_classes,
                            lambda gen: f"generated {len(gen)} of {sg.group.size} classes")


def _push_forward(s: FiniteSemigroup, phi: Sequence[int],
                  rho: RightCongruence) -> set[tuple[int, int]]:
    """A generating set of the pullback of rho along phi: S -> T, where T
    is rho.parent, mapped forward by phi.  The caller has checked that phi
    is a homomorphism (verify_quotient_gens with _hom_failure,
    verify_ideal_gens by taking e as the identity of rho.parent), so the
    pullback is a right congruence without a second check: phi(a) rho
    phi(b) gives phi(ac) = phi(a)phi(c) rho phi(b)phi(c) = phi(bc)."""
    pulled = _implied(s, [rho.class_of[v] for v in phi])
    return {(phi[a], phi[b]) for (a, b) in minimal_generating_pairs(pulled)[0]}


def verify_quotient_gens(s: FiniteSemigroup, theta: Sequence[int],
                         rho_on_t: RightCongruence,
                         inputs: str = "") -> VerificationReport:
    """Push a pullback's generating set through a surjective homomorphism
    theta: S -> T, where T is rho_on_t.parent; every entry of theta must be
    an int in [0, |T|), else RangeError."""
    t = rho_on_t.parent
    if len(theta) != s.size:
        raise NotHomomorphism("map length must equal source size")
    theta = [_index(v, "theta entry", t.size) for v in theta]
    bad = _hom_failure(s.table, t.table, theta, s.generators)
    if bad is not None:
        a, b = bad
        raise NotHomomorphism(f"theta({a}*{b}) != theta({a})*theta({b})")
    if set(theta) != set(range(t.size)):
        raise NotSurjective("map does not cover the target")
    return _congruence_report("quotient", inputs, _push_forward(s, theta, rho_on_t), rho_on_t)


def ideal_subsemigroup(s: FiniteSemigroup, ideal: Iterable[int]) -> FiniteSemigroup:
    """s restricted to a two-sided ideal, on its members in increasing order."""
    return sub_semigroup(s, _ideal_members(s, ideal))


def verify_ideal_gens(s: FiniteSemigroup, ideal: Iterable[int],
                      rho_on_i: RightCongruence,
                      inputs: str = "") -> VerificationReport:
    """Left-multiply a pullback's generating set into an ideal I: rho_on_i's
    parent is I's table, and e is the identity of that table
    (NoInternalIdentity when it has none).  Then a -> e*a is a
    homomorphism onto I, as e*a*e = e*a for e*a in I, which the
    push-forward relies on."""
    members = _ideal_members(s, ideal)
    rho_on_i = _congruence_on(_restricted_table(s, members), rho_on_i, "rho_on_i")
    if rho_on_i.parent.identity is None:
        raise NoInternalIdentity("ideal has no internal identity")
    e = members[rho_on_i.parent.identity]
    sub_index = {v: k for k, v in enumerate(members)}
    phi = [sub_index[v] for v in s.table[e]]
    return _congruence_report("ideal", inputs, _push_forward(s, phi, rho_on_i), rho_on_i)


def _refines(rho: RightCongruence, sigma: RightCongruence) -> bool:
    """Every class of rho lies in one class of sigma, i.e. the meet of the
    two has rho's index."""
    return len(set(zip(rho.class_of, sigma.class_of))) == rho.index


def verify_extend_gens(rho: RightCongruence, sigma: RightCongruence,
                       inputs: str = "") -> VerificationReport:
    """Extend a refinement's generating set by representative cross pairs;
    sigma must be a congruence of rho.parent."""
    sigma = _congruence_on(rho.parent.table, sigma, "sigma")
    if not _refines(rho, sigma):
        raise NotRefinement("rho does not refine sigma")
    alpha: dict[int, list[int]] = {}
    for members in rho.classes():
        alpha.setdefault(sigma.class_of[members[0]], []).append(members[0])
    built = set(minimal_generating_pairs(rho)[0].pairs)
    built.update(p for group in alpha.values() for p in itertools.permutations(group, 2))
    return _congruence_report("extend", inputs, built, sigma)


def two_sided_congruences(s: FiniteSemigroup) -> list[RightCongruence]:
    """All two-sided congruences, ordered by (-index, class_of): the
    principal two-sided congruences closed under join."""
    return _principal_closure(s, two_sided=True)


def ideals_with_identity(s: FiniteSemigroup):
    """All two-sided ideals possessing an internal identity, with that
    identity, in (size, members) order.  An ideal I with identity f has
    I = fIf inside S^1fS^1 inside I, so the candidates are the principal
    ideals S^1eS^1 = SeS (as e = eee) of the idempotents e."""
    table = s.table
    candidates = set()
    for e in s.idempotents():
        right = set(table[e])
        candidates.add(tuple(sorted({row[r] for row in table for r in right})))
    out = []
    for ideal in sorted(candidates, key=lambda m: (len(m), m)):
        f = _identity(_restricted_table(s, ideal))
        if f is not None:
            out.append((ideal, ideal[f]))
    return out


#: sweep() replays on the tables of at most these many elements: every
#: construction but schutz and dp, schutz, and dp on pairs of monoids.
SIZE_LIMIT, SCHUTZ_LIMIT, DP_LIMIT = 5, 6, 3


def sweep(lib: dict[str, FiniteSemigroup] | None = None) -> list[VerificationReport]:
    """Run every construction over the built-in library, or over lib (a
    dict of FiniteSemigroups by name, TypeError naming the first other
    value), within the size limits above; returns all reports.
    """
    if lib is None:
        lib = library()
    for name, s in lib.items():
        if not isinstance(s, FiniteSemigroup):
            raise TypeError(f"lib[{name!r}] must be a FiniteSemigroup, got {type(s).__name__}")
    reports: list[VerificationReport] = []
    for name, s in lib.items():
        if s.size <= SIZE_LIMIT:
            lattice = enumerate_right_congruences(s).congruences
            gens = tuple(range(s.size))
            for k, rho in enumerate(lattice):
                reports.append(verify_fg_gens(gens, rho, inputs=f"{name} rho#{k}"))
            lrel = _l_congruence(s)
            xmin, _ = minimal_generating_pairs(lrel)
            reports.append(verify_lclass_gens(s, xmin, inputs=f"{name} minimal"))
            xfull = pair_set(s, within_class_pairs(lrel))
            reports.append(verify_lclass_gens(s, xfull, inputs=f"{name} full"))
            for a, rho in enumerate(lattice):
                # a strict refinement has a larger index, so it comes first
                for b, sigma in enumerate(lattice[a:], start=a):
                    if _refines(rho, sigma):
                        reports.append(verify_extend_gens(
                            rho, sigma, inputs=f"{name} rho#{a} sigma#{b}"))
            for k, rho2 in enumerate(two_sided_congruences(s)):
                t = quotient_semigroup(rho2)
                for k2, rho_t in enumerate(enumerate_right_congruences(t).congruences):
                    reports.append(verify_quotient_gens(
                        s, rho2.class_of, rho_t,
                        inputs=f"{name} mod#{k} rho#{k2}"))
            for ideal, _ in ideals_with_identity(s):
                isub = ideal_subsemigroup(s, ideal)
                for k2, rho_i in enumerate(enumerate_right_congruences(isub).congruences):
                    reports.append(verify_ideal_gens(
                        s, ideal, rho_i,
                        inputs=f"{name} ideal{list(ideal)} rho#{k2}"))
        if s.size <= SCHUTZ_LIMIT:
            t = adjoin_identity(s)
            for el in range(s.size):
                reports.append(_schutz_report(s, t, el, inputs=f"{name} el{el}"))
    monoids = [(name, s) for name, s in lib.items()
               if s.identity is not None and s.size <= DP_LIMIT]
    for na, m in monoids:
        for nb, n2 in monoids:
            p = direct_product(m, n2)
            for k, rho in enumerate(enumerate_right_congruences(p).congruences):
                reports.append(verify_dp_gens(m, n2, rho,
                                              inputs=f"{na}x{nb} rho#{k}"))
    return reports
