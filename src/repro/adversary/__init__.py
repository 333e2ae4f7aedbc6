"""The adversary: permanent fault patterns.

The paper's fault model is *worst-case permanent*: before round 0 an
adversary that knows the protocol crashes up to ``alpha * n`` agents; no
further adversarial action is allowed.  :mod:`repro.adversary.faults`
provides representative worst-case placements.  The rational adversary
of Theorem 7 is a coalition of supporters (``E7Options.members``).
"""

from repro.adversary.faults import (
    color_targeted_faults,
    prefix_faults,
    random_faults,
)

__all__ = [
    "color_targeted_faults",
    "prefix_faults",
    "random_faults",
]
