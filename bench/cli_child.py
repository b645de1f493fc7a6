"""Traced CLI operation: install the span wrappers, then run normcov.cli.main(argv).

    python3 bench/cli_child.py TRACE_FILE OP_ID -- ARGV...

Stdout and the exit code are the CLI's own; the spans go to TRACE_FILE.
"""

import sys

import tracing


def main() -> int:
    trace_file, op = sys.argv[1], int(sys.argv[2])
    argv = sys.argv[4:]
    tracer = tracing.Tracer()
    tracer.op = op
    tracer.install()
    import normcov.cli

    try:
        return normcov.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(trace_file)


if __name__ == "__main__":
    sys.exit(main())
