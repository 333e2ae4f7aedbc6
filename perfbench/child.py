"""The workload process: runs one workload and writes ``result.json``.

Started by ``run.py``, one process per workload.  Pool workers started
through the multiprocessing forkserver re-import this file as
``__mp_main__``, so it imports only the standard library at module level
and does its work under the ``__main__`` guard.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rundir", type=Path, required=True)
    parser.add_argument("--crash", choices=("raise", "exit"))
    args = parser.parse_args(argv)

    import suite

    result = suite.run_workload(
        args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), rundir=args.rundir, crash=args.crash)
    tmp = args.rundir / "result.json.tmp"
    tmp.write_text(json.dumps(result))
    os.replace(tmp, args.rundir / "result.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
