"""``repro serve`` with the benchmark's tracing installed.

    python3 perfbench/serve.py --spans FILE serve --store PATH [...]

Everything after ``--spans FILE`` is passed to the ``repro`` CLI.  The
spans and plan runs are written to FILE when the service stops
(SIGINT, its clean shutdown path).
"""

from __future__ import annotations

import sys


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--spans":
        print(__doc__, file=sys.stderr)
        return 2
    import tracing
    from repro.cli import main as repro_main

    tracer = tracing.Tracer(tag="s").install()
    try:
        return repro_main(argv[2:])
    finally:
        tracer.dump(argv[1])


if __name__ == "__main__":
    sys.exit(main())
