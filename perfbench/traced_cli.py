"""Run the oracle-opt command line under the benchmark's span tracer.

    python3 perfbench/traced_cli.py SPANS_FILE run --problem matching ...

Behaves like ``python3 -m oracleopt.cli`` with the same arguments, and
writes the spans of the import and of the command to SPANS_FILE (JSON
lines) when the command ends.  oracleopt must be importable, for example
through PYTHONPATH.
"""

import sys

import spans


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    index = tracer.begin("cli.import", "import")
    from oracleopt import cli

    tracer.end(index)
    tracer.install()
    index = tracer.begin("cli.main", "cli")
    try:
        return cli.main(argv)
    finally:
        tracer.end(index)
        tracer.uninstall()
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
