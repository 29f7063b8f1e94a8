"""Run one ``plnsim`` CLI command under the tracer and write its spans.

    python -X importtime perfbench/launch.py --spans OUT.json --request N -- <plnsim args>

The exit status is the command's.  The spans file holds the tracer dump
(spans with this invocation's request id, and the exact counts).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import harness


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", required=True)
    parser.add_argument("--request", type=int, required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    harness.configure_process()
    import plnsim.cli
    import tracer

    with tracer.Tracer(request=args.request) as tr:
        code = plnsim.cli.main(argv)
    Path(args.spans).write_text(json.dumps(tr.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main())
