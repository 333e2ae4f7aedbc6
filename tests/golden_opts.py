"""Fixed tiny option sets shared by the golden-capture script and the
byte-parity regression test (tests/test_results.py).

The golden files under ``tests/golden/`` were rendered by the
pre-redesign experiment modules (``run()`` returning bare ``Table``
objects) with exactly these options; the parity test re-runs the
redesigned ``run()`` with the same options and asserts the
``ExperimentResult.tables()`` render is byte-identical.

``e10.txt`` was refreshed when the vectorized graph/async tier landed:
the scenario matrix widened (ba/ws/torus/star + the churn row) and
E10a gained the "mean patched edges" column that makes the formerly
silent connectivity patching of the sparse families visible.  Its
options below pin the refreshed capture.  It was refreshed again when
the numpy-native BA/WS sampler specs replaced the networkx samplers
(SAMPLER_VERSION 2): the ba/ws rows reflect the new specs' draws, and
the sampler-conformance suite pins the new bytes against the scalar
reference implementations.
"""

from __future__ import annotations

GOLDEN_OPTS: dict[str, dict] = {
    "e1": dict(sizes=(32,), workloads=("balanced", "skewed"), trials=40,
               seed=2017),
    "e2": dict(sizes=(32, 64, 128), trials=6, seed=2202),
    "e3": dict(sizes=(32, 64, 128), trials=6, seed=3303),
    "e4": dict(sizes=(32, 64), trials=3, seed=4404),
    "e5": dict(sizes=(32,), gammas=(1.0, 3.0), trials=40, seed=5505),
    "e6": dict(n=32, alphas=(0.0, 0.4), gammas=(4.0,),
               placements=("random",), trials=20, seed=6606),
    "e7": dict(n=24, strategies=("silent", "underbid_alter", "griefing"),
               coalition_sizes=(1,), trials=20, seed=7707),
    "e8": dict(n=32, trials=20, scaling_n=64, seed=8808),
    "e9": dict(n=24, trials=20, seed=9909),
    "e10": dict(n=24, trials=6, async_sizes=(16, 32), seed=1010,
                engine="auto"),
}
