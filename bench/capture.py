"""Regenerate bench/expected.json, the outputs the workload gates compare to.

    python3 bench/capture.py

Run it only at a commit whose outputs are trusted: the gates then hold every
later commit to the same lattices, sweep report counts and CLI output bytes.
"""
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sgt import congruence, verify  # noqa: E402

import workloads  # noqa: E402
from workloads import library  # noqa: E402


def main() -> None:
    lattice = {}
    for name, s in (("T3", workloads.transformation_monoid(3, workloads.T3_GENS)),
                    ("rz6", library.right_zero(6))):
        lat = congruence.enumerate_right_congruences(s)
        lattice[name] = {"count": len(lat),
                         "digest": workloads.lattice_digest(
                             rho.class_of for rho in lat.congruences)}
    counts = Counter(r.construction for r in verify.sweep(lib=library.library()))

    workloads.OUT.mkdir(exist_ok=True)
    paths = workloads.write_cli_tables()
    outputs = {}
    for table, verbs in workloads.CLI_VARIANTS.items():
        for verb, variants in verbs.items():
            for v in range(len(variants)):
                rc, out, err, _ = workloads.run_cli(
                    workloads.cli_argv(table, verb, v, paths[table]))
                if rc != 0:
                    raise SystemExit(f"{table} {verb} {v}: exit {rc}: {err.decode()}")
                outputs[f"{table} {verb} {v}"] = hashlib.sha256(out).hexdigest()
    expected = {"lattice": lattice, "sweep_counts": dict(counts), "cli": outputs}
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n",
                                       encoding="utf-8")


if __name__ == "__main__":
    main()
