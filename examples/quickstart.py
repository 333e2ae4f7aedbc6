#!/usr/bin/env python3
"""Quickstart: one protocol run, then the structured experiment API.

Part 1 builds a 100-agent network with a 60/40 red/blue split, runs one
full execution of the rational fair consensus protocol, and prints the
outcome, the winning agent, the good-execution report and the
communication costs (the quantities Theorem 4 bounds).

Part 2 shows the structured-results API the experiment harness is built
on: look an experiment up in the registry, run it with overridden
options, inspect its typed records, and save/load the result through
the JSON persistence layer (DESIGN.md §7).

Usage:
    python examples/quickstart.py [seed]
"""

import sys
import tempfile
from pathlib import Path

from repro import (
    ProtocolConfig,
    get_experiment,
    load_result,
    run_protocol,
    save_result,
)


def single_run(seed: int) -> None:
    colors = ["red"] * 60 + ["blue"] * 40
    config = ProtocolConfig(colors=colors, gamma=3.0, seed=seed)
    result = run_protocol(config)

    params = result.extras["params"]
    print("=== Rational Fair Consensus — quickstart ===")
    print(f"network size        : {config.n} agents")
    print(f"initial support     : 60% red / 40% blue")
    print(f"phase length q      : {params.q} rounds (gamma = {config.gamma})")
    print()
    print(f"outcome             : {result.outcome!r}"
          + ("  (consensus reached)" if result.succeeded else "  (FAILED)"))
    print(f"winning agent       : {result.winner}")
    print(f"rounds executed     : {result.rounds}  (= 4q, fixed schedule)")
    print()
    print("--- good-execution report (Definition 2) ---")
    print(f"votes per agent     : {result.good.min_votes} .. {result.good.max_votes}")
    print(f"k-value collision   : {result.good.k_collision}")
    print(f"Find-Min agreement  : {result.good.find_min_agreement}")
    print()
    print("--- communication (Theorem 4) ---")
    m = result.metrics
    print(f"total messages      : {m.total_messages}   (all-to-all would be {config.n * (config.n - 1)})")
    print(f"total traffic       : {m.total_bits / 8 / 1024:.1f} KiB")
    print(f"largest message     : {m.max_message_bits} bits  (the winning certificate)")
    print()
    agreeing = sum(1 for d in result.decisions.values() if d == result.outcome)
    print(f"{agreeing}/{len(result.decisions)} active agents decided {result.outcome!r}.")


def structured_experiment(seed: int) -> None:
    print()
    print("=== Structured results (E1 fairness, tiny) ===")
    spec = get_experiment("e1")          # registry: options class + runner
    opts = spec.options_cls(sizes=(64,), workloads=("balanced", "skewed"),
                            trials=100, seed=seed)
    result = spec.run(opts)              # ExperimentResult, not printed text

    print(f"experiment          : {result.experiment}  ({result.title})")
    print(f"claim               : {result.claim}")
    print(f"engine tier         : {result.meta.resolved_engine}"
          f"  (wall time {result.meta.wall_time_s:.3f}s)")
    print(f"resume key          : {result.key}")
    print()
    for rec in result.records():         # typed, header-keyed row dicts
        print(f"  {rec['workload']:<10} TV={rec['TV distance']:.4f} "
              f"(noise floor {rec['TV noise floor']:.4f}) "
              f"fair={rec['fair at 5%?']}")
    print()

    with tempfile.TemporaryDirectory() as tmp:
        paths = save_result(result, Path(tmp))        # e1-<hash>.json
        loaded = load_result(paths[0])
        assert loaded.canonical() == result.canonical()
        print(f"saved + reloaded    : {paths[0].name} (round trip exact)")

    print()
    print(result.tables()[0].render())   # the classic text table, unchanged


if __name__ == "__main__":
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    single_run(seed)
    structured_experiment(seed)
