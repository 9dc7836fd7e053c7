"""Run one rainbowspread CLI invocation in-process with layer spans recorded.

    python3 perfbench/traced_cli.py SPANS_OUT ARGV...

Standard output, standard error and the exit code are those of
`rainbowspread ARGV...`; the spans, counters and any hook site that does
not exist are written to SPANS_OUT as JSON, also when the command fails.
"""

import sys

import tracer


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    from rainbowspread import cli

    rec = tracer.Recorder()
    missing = tracer.install(rec)
    try:
        return cli.main(argv)
    finally:
        rec.dump(spans_out, missing)


if __name__ == "__main__":
    sys.exit(main())
