"""Traced stand-in for ``python -m digenergy``.

Times ``import digenergy``, installs the boundary wrappers of
``tracing.py``, runs ``digenergy.cli.main`` on the remaining arguments,
then appends the trace summary as one line to SUMMARIES_JSONL and the
spans, tagged with REQUEST_ID, to SPANS_JSONL.

Usage: python3 perfbench/shim.py SUMMARIES_JSONL SPANS_JSONL REQUEST_ID [digenergy args...]
"""

import sys
import time

STARTED = time.perf_counter()
import digenergy.cli  # noqa: E402
IMPORT_S = time.perf_counter() - STARTED

import json  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    summaries_path, spans_path, request_id, *cli_args = sys.argv[1:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return digenergy.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.write_spans(spans_path, int(request_id))
        with open(summaries_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({**tracer.summary(), "import_s": IMPORT_S}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
