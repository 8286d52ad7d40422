"""One sgt CLI process for the cli-large workload.

    python3 bench/cli_op.py [--trace OUT.json] -- VERB ARGS...

Runs ``sgt.cli.run`` on the arguments after ``--`` and exits with its code,
as the ``sgt`` console script does.  With ``--trace`` the span tracer is
installed before the call and its spans and counters are written to OUT.json.
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts, cli_argv = argv[:split], argv[split + 1:]
    trace_out = opts[1] if opts[:1] == ["--trace"] else None

    from sgt import cli
    if trace_out is None:
        return cli.run(cli_argv)

    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        return cli.run(cli_argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.export(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
