"""Command-line front end: parse table files, dispatch, print text or JSON."""
from __future__ import annotations

import argparse
import contextlib
import json
import sys
import warnings

from . import (classify, enumerate_right_congruences, find_x_sequence,
               green_data, maximal_subgroups, minimal_generating_pairs,
               pair_set, rc_diameter, rc_generate, schutzenberger, trace)
from .congruence import (CapExceeded, Disconnected, FORMAL_IDENTITY,
                         identity_congruence, quotient_semigroup,
                         universal_congruence)
from .core import (FiniteSemigroup, InternalAssertFailure, Transformation,
                   direct_product, from_cayley, from_transformations)
from .green import GreenData
from .structure import (ReesStructure, archimedean_decomposition,
                        cr_decomposition, diagonal_cyclic_witness,
                        ZERO, rees_construct, rees_coordinates,
                        rees_structure, theta_congruence)
from .verify import (_l_congruence, ideal_subsemigroup, sweep, verify_dp_gens,
                     verify_extend_gens, verify_fg_gens, verify_ideal_gens,
                     verify_lclass_gens, verify_quotient_gens, verify_schutz_gens)


class _UsageError(ValueError):
    """A usage or precondition failure; run prints it as one error line."""


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error instead of printing usage and exiting 2."""

    def error(self, message):
        raise _UsageError(message)


class ParseError(ValueError):
    def __init__(self, line: int | None, message: str):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def _content_lines(text: str) -> list[tuple[int, str]]:
    """A reader splits a line only when it reads it, so the tokens of one
    row at a time are alive, not those of the whole file."""
    return [(num, line) for num, line in enumerate(map(str.strip, text.splitlines()), start=1)
            if line and not line.startswith("#")]


def _ints(tokens, where, dash: bool = False) -> list:
    """`where` is a file line number (ParseError) or an option name."""
    out = []
    for t in tokens:
        try:
            out.append(ZERO if dash and t == "-" else int(t))
        except ValueError:
            message = f"expected an integer, got {t!r}"
            if isinstance(where, int):
                raise ParseError(where, message) from None
            raise _UsageError(f"{where}: {message}") from None
    return out


def _counts(tokens, num: int) -> list[int]:
    values = _ints(tokens, num)
    for t, v in zip(tokens, values):
        if v < 1:
            raise ParseError(num, f"expected a count >= 1, got {t!r}")
    return values


def parse_input(text: str, fmt: str = "auto") -> tuple[FiniteSemigroup, ReesStructure | None]:
    """Parse one of the table formats; returns the structure too for rees input."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError(None, "empty input")
    num, line = lines[0]
    head = line.split()
    kind = head[0].lower()
    if fmt != "auto" and kind != fmt:
        raise ParseError(num, f"expected {fmt} input, found {kind}")
    if kind == "cayley":
        if len(head) != 2:
            raise ParseError(num, "usage: cayley <n>")
        n, = _counts(head[1:], num)
        if len(lines) != 1 + n:
            raise ParseError(num, f"expected {n} table rows")
        # Rows become tuples as they are read, each token looked up so that
        # equal entries share one int; a row with another spelling ("007",
        # "+1", out of range, not an integer) is read by _ints instead.
        value = {str(v): v for v in range(n)}.__getitem__
        rows, fallback = [], 0
        for ln, line in lines[1:]:
            tokens = line.split()
            try:
                rows.append(tuple(map(value, tokens)))
            except KeyError:
                rows.append(_ints(tokens, ln))
                fallback += 1
        if trace.enabled:
            trace.counts["cli.parse.fallback_rows"] += fallback
        return from_cayley(n, rows), None
    if kind == "transformation":
        if len(head) != 3:
            raise ParseError(num, "usage: transformation <degree> <count>")
        degree, count = _counts(head[1:], num)
        if len(lines) != 1 + count:
            raise ParseError(num, f"expected {count} generator rows")
        gens = []
        for ln, line in lines[1:]:
            images = _ints(line.split(), ln)
            if len(images) != degree:
                raise ParseError(ln, f"expected {degree} images")
            gens.append(Transformation(degree, tuple(images)))
        return from_transformations(degree, gens), None
    if kind == "rees":
        if len(head) != 5:
            raise ParseError(num, "usage: rees <|G|> <|I|> <|J|> <zero:0|1>")
        ng, isz, jsz = _counts(head[1:4], num)
        wz, = _ints(head[4:], num)
        if wz not in (0, 1):
            raise ParseError(num, f"expected a zero flag of 0 or 1, got {head[4]!r}")
        need = 1 + ng + jsz
        if len(lines) != need:
            raise ParseError(num, f"expected {need - 1} content rows after header")
        gtable = [_ints(line.split(), ln) for ln, line in lines[1:1 + ng]]
        group = from_cayley(ng, gtable)
        p = []
        for ln, line in lines[1 + ng:]:
            row = _ints(line.split(), ln, dash=True)
            if len(row) != isz:
                raise ParseError(ln, f"expected {isz} matrix entries")
            p.append(row)
        r = rees_structure(group, isz, jsz, p, with_zero=bool(wz))
        return rees_construct(r), r
    raise ParseError(num, f"unknown format {kind!r}")


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def parse_pairs(text: str, s: FiniteSemigroup, option: str = "--pairs"):
    """The pair set written in an option as "a b; c d; ..."."""
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split()
        if len(parts) != 2:
            raise _UsageError(f"{option}: bad pair {chunk!r}; expected 'a b'")
        pairs.append(tuple(_ints(parts, option)))
    return pair_set(s, pairs)


def congruence_json(rho) -> dict:
    return {"index": rho.index, "classes": rho.classes()}


def _cayley_text(s: FiniteSemigroup) -> str:
    lines = [f"cayley {s.size}"]
    for row in s.table:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines)


def _rees_text(r: ReesStructure) -> str:
    lines = [f"rees {r.group.size} {r.i_size} {r.j_size} {1 if r.with_zero else 0}"]
    for row in r.group.table:
        lines.append(" ".join(str(v) for v in row))
    for row in r.p_matrix:
        lines.append(" ".join("-" if v is None else str(v) for v in row))
    return "\n".join(lines)


def _d_classes(gd: GreenData) -> list[tuple[int, list[list[tuple[int, bool]]]]]:
    """The one walk behind both egg-box views: per D-class, its H-classes'
    (size, is a group) in a grid of R-class rows and L-class columns."""
    cells: dict[int, dict[tuple[int, int], list[int]]] = {}
    for x in range(len(gd.h_class)):
        cells.setdefault(gd.d_class[x], {}).setdefault(
            (gd.r_class[x], gd.l_class[x]), []).append(x)
    out = []
    for d in sorted(cells):
        h_cells = cells[d]
        grid = [[h_cells[r, l] for l in sorted({l for _, l in h_cells})]
                for r in sorted({r for r, _ in h_cells})]
        out.append((d, [[(len(h), gd.h_class[h[0]] in gd.group_h_classes) for h in row]
                        for row in grid]))
    return out


def _egg_box(d_classes) -> dict:
    # H-classes of one D-class have equal size (Green's lemma)
    return {"D": [{"R_rows": len(grid), "L_cols": len(grid[0]), "H_size": grid[0][0][0],
                   "is_group": any(group for row in grid for _, group in row)}
                  for _, grid in d_classes]}


def _egg_box_grid(d_classes) -> str:
    lines = []
    for d, grid in d_classes:
        lines.append(f"D-class {d}: {len(grid)} x {len(grid[0])}")
        for row in grid:
            lines.append("  [ " + " ".join(f"{size}{'*' if group else ' '}"
                                           for size, group in row) + "]")
    return "\n".join(lines)


def _label(m):
    return "1" if m is FORMAL_IDENTITY else m


def _congruence_lines(rho) -> list[str]:
    return [f"index: {rho.index}"] + [f"class {i}: " + " ".join(map(str, c))
                                      for i, c in enumerate(rho.classes())]


def _cmd_info(args, s, r):
    payload = {"size": s.size, "identity": s.identity, "zero": s.zero,
               **classify(s).as_dict()}
    return payload, [f"{k}: {v}" for k, v in payload.items()]


def _cmd_green(args, s, r):
    d_classes = _d_classes(green_data(s))
    subgroups = maximal_subgroups(s)
    payload = _egg_box(d_classes)
    payload["maximal_subgroups"] = [{"h_class": list(m), "order": g.size}
                                    for m, g in subgroups]
    return payload, [_egg_box_grid(d_classes), "maximal subgroups: " + " ".join(
        f"{list(m)}(order {g.size})" for m, g in subgroups)]


def _cmd_congruences(args, s, r):
    try:
        lattice = enumerate_right_congruences(s, cap=args.max)
    except CapExceeded as exc:
        raise _UsageError(f"cap exceeded: more than {args.max} right congruences "
                          f"(found {exc.partial_count})") from exc
    payload = {"count": len(lattice),
               "congruences": [congruence_json(rho) for rho in lattice.congruences]}
    lines = [f"count: {len(lattice)}"]
    lines += [f"index {rho.index}: " + " ".join("{" + ",".join(map(str, c)) + "}"
                                                for c in rho.classes())
              for rho in lattice.congruences]
    return payload, lines


def _cmd_close(args, s, r):
    rho = rc_generate(s, parse_pairs(args.pairs, s), two_sided=args.two_sided)
    return congruence_json(rho), _congruence_lines(rho)


def _cmd_witness(args, s, r):
    seq = find_x_sequence(s, parse_pairs(args.pairs, s), args.from_el, args.to_el)
    if seq is None:
        return {"nopath": True, "from": args.from_el, "to": args.to_el}, ["no path"]
    steps = [{"x": st.x, "y": st.y, "s": _label(st.s)} for st in seq.steps]
    payload = {"from": seq.a, "to": seq.b, "k": len(seq), "steps": steps}
    return payload, [f"k: {len(seq)}"] + [
        f"step {i}: x={st['x']} y={st['y']} s={st['s']}" for i, st in enumerate(steps, start=1)]


def _cmd_minimize(args, s, r):
    rho = rc_generate(s, parse_pairs(args.pairs, s))
    out, optimal = minimal_generating_pairs(rho, exact_limit=args.exact_limit)
    pairs = sorted(out.pairs)
    payload = {"pairs": [list(p) for p in pairs], "optimal": optimal}
    return payload, ["pairs: " + "; ".join(f"{a} {b}" for a, b in pairs),
                     f"optimal: {optimal}"]


def _cmd_diameter(args, s, r):
    out = rc_diameter(s, parse_pairs(args.pairs, s))
    if isinstance(out, Disconnected):
        return {"disconnected": True, "index": out.index}, [f"disconnected (index {out.index})"]
    return {"diameter": out}, [f"diameter: {out}"]


def _cmd_schutz(args, s, r):
    sg = schutzenberger(s, args.element)
    stab = [_label(m) for m in sg.stabilizer]
    payload = {"h_class": list(sg.h_class), "stabilizer": stab,
               "group_size": sg.group.size,
               "group_table": [list(row) for row in sg.group.table]}
    return payload, [f"H: {list(sg.h_class)}", f"stabilizer: {stab}",
                     f"group size: {sg.group.size}"]


def _cmd_decompose(args, s, r):
    dec = cr_decomposition(s) if args.mode == "cr" else archimedean_decomposition(s)
    payload = {
        "kind": args.mode,
        "components": [{"elements": members, "kind": dec.kind}
                       for members in dec.components()],
        "semilattice": {"size": dec.semilattice.size,
                        "table": [list(row) for row in dec.semilattice.table]},
    }
    lines = [f"components: {dec.semilattice.size}"]
    lines += [f"component {i} ({dec.kind}): " + " ".join(map(str, members))
              for i, members in enumerate(dec.components())]
    lines.append(f"semilattice size: {dec.semilattice.size}")
    return payload, lines


def _cmd_rees(args, s, r):
    if args.construct:
        if r is None:
            raise _UsageError("--construct needs rees-format input")
        return {"size": s.size, "table": [list(row) for row in s.table]}, [_cayley_text(s)]
    struct, mapping = rees_coordinates(s)
    payload = {"group_size": struct.group.size, "i_size": struct.i_size,
               "j_size": struct.j_size,
               "p_matrix": [["-" if v is None else v for v in row]
                            for row in struct.p_matrix],
               "map": list(mapping)}
    return payload, [_rees_text(struct)]


def _cmd_theta(args, s, r):
    if r is None:
        raise _UsageError("theta needs rees-format input")
    vectors, rho = theta_congruence(r)
    payload = {"patterns": [list(v) for v in vectors], **congruence_json(rho)}
    return payload, ["patterns: " + " ".join("".join(map(str, v)) for v in vectors),
                     *_congruence_lines(rho)]


def _report_json(rep) -> dict:
    return {
        "construction": rep.construction,
        "inputs": rep.inputs,
        "passed": rep.passed,
        "built_pairs": sorted(list(p) for p in rep.built_pairs.pairs)
        if rep.built_pairs is not None else None,
        "built_elements": list(rep.built_elements)
        if rep.built_elements is not None else None,
        "expected": congruence_json(rep.expected) if rep.expected else None,
        "computed": congruence_json(rep.computed) if rep.computed else None,
        "distinguishing_pair": list(rep.distinguishing_pair)
        if rep.distinguishing_pair else None,
        "note": rep.note,
    }


def _congruence_arg(s: FiniteSemigroup, pairs: str | None, option: str, default):
    """An empty option is the empty pair set, not a missing one."""
    return default(s) if pairs is None else rc_generate(s, parse_pairs(pairs, s, option))


def _sweep_summary():
    counts: dict[str, list[int]] = {}
    for rep in sweep():
        ran_ok = counts.setdefault(rep.construction, [0, 0])
        ran_ok[0] += 1
        ran_ok[1] += rep.passed
    all_passed = all(ran == ok for ran, ok in counts.values())
    payload = {"all_passed": all_passed,
               "constructions": {k: {"runs": v[0], "passed": v[1]}
                                 for k, v in sorted(counts.items())}}
    lines = [f"{k:10s} {v['passed']}/{v['runs']} passed"
             for k, v in payload["constructions"].items()]
    return payload, lines + ["all passed" if all_passed else "FAILURES PRESENT"]


def _cmd_verify(args, s, r):
    if args.sweep:
        return _sweep_summary()
    con = args.construction
    if con == "diagonal":
        witness = diagonal_cyclic_witness(s)
        passed = (witness is not None) == (s.size == 1)
        payload = {"construction": "diagonal",
                   "witness": list(witness) if witness else None, "passed": passed}
        return payload, [f"witness: {witness}", f"passed: {passed}"]
    if con == "fg":
        gens = (list(range(s.size)) if args.gens is None
                else _ints(args.gens.split(","), "--gens"))
        rho = _congruence_arg(s, args.pairs, "--pairs", universal_congruence)
        rep = verify_fg_gens(gens, rho, inputs="cli")
    elif con == "lclass":
        if args.pairs is None:
            x, _ = minimal_generating_pairs(_l_congruence(s))
        else:
            x = parse_pairs(args.pairs, s)
        rep = verify_lclass_gens(s, x, inputs="cli")
    elif con == "dp":
        if not args.second:
            raise _UsageError("dp needs --second FILE")
        n2, _ = parse_input(_read(args.second), "auto")
        rho = _congruence_arg(direct_product(s, n2), args.pairs, "--pairs",
                              universal_congruence)
        rep = verify_dp_gens(s, n2, rho, inputs="cli")
    elif con == "schutz":
        rep = verify_schutz_gens(s, args.element, inputs="cli")
    elif con == "quotient":
        if args.pairs is None:
            raise _UsageError("quotient needs --pairs")
        rho2 = rc_generate(s, parse_pairs(args.pairs, s), two_sided=True)
        rho_t = _congruence_arg(quotient_semigroup(rho2), args.target_pairs,
                                "--target-pairs", universal_congruence)
        rep = verify_quotient_gens(s, rho2.class_of, rho_t, inputs="cli")
    elif con == "ideal":
        if args.ideal is None:
            raise _UsageError("ideal needs --ideal LIST")
        ideal = sorted(_ints(args.ideal.split(","), "--ideal"))
        rho_i = _congruence_arg(ideal_subsemigroup(s, ideal), args.target_pairs,
                                "--target-pairs", universal_congruence)
        rep = verify_ideal_gens(s, ideal, rho_i, inputs="cli")
    else:  # extend; argparse choices admit nothing else
        rho = _congruence_arg(s, args.pairs, "--pairs", identity_congruence)
        sigma = _congruence_arg(s, args.sigma_pairs, "--sigma-pairs", universal_congruence)
        rep = verify_extend_gens(rho, sigma, inputs="cli")
    lines = [f"construction: {rep.construction}", f"passed: {rep.passed}"]
    return _report_json(rep), lines + ([f"note: {rep.note}"] if rep.note else [])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sgt", description="finite semigroup toolkit")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, handler):
        p.set_defaults(handler=handler)
        p.add_argument("-i", "--input", default="-",
                       help="input file, or - for stdin")
        p.add_argument("--format", default="auto",
                       choices=["auto", "cayley", "transformation", "rees"])
        p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON")
        p.add_argument("--stats", action="store_true",
                       help="write the work counters as JSON, last on stderr")

    p = sub.add_parser("info", help="classification flags")
    common(p, _cmd_info)

    p = sub.add_parser("green", help="egg-box structure and maximal subgroups")
    common(p, _cmd_green)

    p = sub.add_parser("congruences", help="enumerate all right congruences")
    common(p, _cmd_congruences)
    p.add_argument("--max", type=int, default=None, help="abort above this count")

    p = sub.add_parser("close", help="right congruence generated by pairs")
    common(p, _cmd_close)
    p.add_argument("--pairs", required=True, help='"a b; c d; ..."')
    p.add_argument("--two-sided", action="store_true", dest="two_sided")

    p = sub.add_parser("witness", help="shortest connecting sequence")
    common(p, _cmd_witness)
    p.add_argument("--pairs", required=True)
    p.add_argument("--from", type=int, required=True, dest="from_el")
    p.add_argument("--to", type=int, required=True, dest="to_el")

    p = sub.add_parser("minimize", help="minimal generating pairs of a congruence")
    common(p, _cmd_minimize)
    p.add_argument("--pairs", required=True)
    p.add_argument("--exact-limit", type=int, default=12, dest="exact_limit")

    p = sub.add_parser("diameter", help="worst-case connecting length")
    common(p, _cmd_diameter)
    p.add_argument("--pairs", required=True)

    p = sub.add_parser("schutz", help="stabilizer quotient of an H-class")
    common(p, _cmd_schutz)
    p.add_argument("--element", type=int, required=True)

    p = sub.add_parser("decompose", help="semilattice decomposition")
    common(p, _cmd_decompose)
    p.add_argument("--mode", required=True, choices=["cr", "arch"])

    p = sub.add_parser("rees", help="matrix semigroup construction/coordinates")
    common(p, _cmd_rees)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--construct", action="store_true")
    g.add_argument("--to-coordinates", action="store_true", dest="to_coordinates")

    p = sub.add_parser("theta", help="column-pattern congruence of a matrix semigroup")
    common(p, _cmd_theta)

    p = sub.add_parser("verify", help="replay a constructive argument")
    common(p, _cmd_verify)
    p.add_argument("--construction",
                   choices=["fg", "lclass", "dp", "schutz", "quotient",
                            "ideal", "extend", "diagonal"])
    p.add_argument("--sweep", action="store_true",
                   help="run the whole built-in library suite")
    p.add_argument("--gens", default=None, help="comma-separated generators (fg)")
    p.add_argument("--pairs", default=None)
    p.add_argument("--sigma-pairs", default=None, dest="sigma_pairs")
    p.add_argument("--target-pairs", default=None, dest="target_pairs")
    p.add_argument("--ideal", default=None, help="comma-separated ideal elements")
    p.add_argument("--element", type=int, default=0)
    p.add_argument("--second", default=None, help="second monoid file (dp)")
    return parser


def run(argv=None) -> int:
    """Read the input once (verify --sweep reads none), run the verb's
    handler, and print the payload it returns as JSON, or its lines as text.
    Exit codes: 0 success, 1 usage/parse/precondition error, 2 the payload's
    "passed" or "all_passed" is false, 3 an internal check failed (a bug),
    4 the run ran out of memory (MemoryError, printed as one error line).
    Warnings print as "warning:" lines after the output, and not at all
    after an error.  With --stats, a run without an error ends stderr with
    the counts of sgt.trace as one JSON object, keys sorted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            args = build_parser().parse_args(argv)
            sweeping = args.verb == "verify" and args.sweep
            if args.verb == "verify" and not (sweeping or args.construction):
                raise _UsageError("verify needs --construction or --sweep")
            with trace.counting() if args.stats else contextlib.nullcontext() as stats:
                s, r = (None, None) if sweeping else parse_input(_read(args.input), args.format)
                payload, lines = args.handler(args, s, r)
            print(json.dumps(payload) if args.json else "\n".join(lines))
            code = 0 if payload.get("passed", payload.get("all_passed", True)) else 2
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except InternalAssertFailure as exc:
            print(f"error: internal: {exc}", file=sys.stderr)
            return 3
        except MemoryError:  # what held the memory is freed as the error unwinds
            print("error: out of memory", file=sys.stderr)
            return 4
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    if stats is not None:
        print(json.dumps(stats, sort_keys=True), file=sys.stderr)
    return code


def console_main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    console_main()
