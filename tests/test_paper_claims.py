"""The paper's claims, checked against the tracked ``results/paper/`` archive.

``results/paper/`` holds every experiment at its defaults plus E7 at
n = 512 with 2000 paired trials, one ``<experiment>-<key>.json`` per
cell, as the CLI writes them:

    PYTHONPATH=src python -m repro experiment all --out results/paper
    PYTHONPATH=src python -m repro experiment e7 --set n=512 --trials 2000 --out results/paper

Two kinds of test read it.  The freshness tests pin the archive to the
current code: exactly the expected file names (keys computed from the
current options classes), every document stamped with the current
``__version__``, and E1-E9 re-run in-process to the same payload bytes.
E10 and the n = 512 E7 cell are too slow to re-run here; the nightly
CI job regenerates the whole archive and diffs it.  The claim tests
then assert each claim's shape on the archived tables: fairness and
the O(log n) / O(log^2 n) / o(n^2) costs (Theorem 4), good executions
w.h.p. (Lemma 3), the fault tolerance of Theorem 4, the whp t-strong
equilibrium (Theorem 7), the exploitable baselines, the load-bearing
defences and the E10 open-problem shape.
"""

from __future__ import annotations

import dataclasses
import functools
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analysis.fairness import expected_distribution
from repro.experiments.registry import get_experiment, options_dict
from repro.experiments.workloads import WORKLOADS
from repro.results import ExperimentResult, load_result, result_path

ARCHIVE = Path(__file__).resolve().parent.parent / "results" / "paper"

REGENERATE = (
    "regenerate the archive with\n"
    "  PYTHONPATH=src python -m repro experiment all --out results/paper\n"
    "  PYTHONPATH=src python -m repro experiment e7 --set n=512 "
    "--trials 2000 --out results/paper"
)

#: Every archived cell, as (experiment, overrides of its defaults):
#: each experiment at its defaults, plus the paper-scale E7 grid.
CELLS = {f"e{i}": (f"e{i}", {}) for i in range(1, 11)}
CELLS["e7@512"] = ("e7", {"n": 512, "trials": 2000})

#: The cells cheap enough to re-run on every tier-1 run (about 5 s).
RERUN = [f"e{i}" for i in range(1, 10)]


def _options(cell: str):
    name, overrides = CELLS[cell]
    return dataclasses.replace(get_experiment(name).options_cls(),
                               **overrides)


def _path(cell: str) -> Path:
    return result_path(ARCHIVE, CELLS[cell][0], options_dict(_options(cell)))


@functools.cache
def archived(cell: str) -> ExperimentResult:
    path = _path(cell)
    if not path.exists():
        pytest.fail(f"{path.name} is missing from results/paper; "
                    f"{REGENERATE}")
    return load_result(path)


def _by(table, key_columns, value_column):
    keys = zip(*(table.column(c) for c in key_columns))
    if len(key_columns) == 1:
        keys = (k for k, in keys)
    return dict(zip(keys, table.column(value_column)))


# ---------------------------------------------------------------------------
# Freshness: the archive is what the current code produces
# ---------------------------------------------------------------------------

def test_archive_holds_exactly_the_expected_cells():
    expected = sorted(_path(cell).name for cell in CELLS)
    found = sorted(p.name for p in ARCHIVE.iterdir()) \
        if ARCHIVE.is_dir() else []
    assert found == expected, (
        f"results/paper holds {found}, the current options key "
        f"{expected}; {REGENERATE}"
    )


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_archive_is_stamped_with_the_current_version(cell):
    version = archived(cell).meta.version
    assert version == repro.__version__, (
        f"{_path(cell).name} was written by {version}, the package is "
        f"{repro.__version__}; {REGENERATE}"
    )


@pytest.mark.parametrize("cell", RERUN)
def test_defaults_rerun_to_the_archived_payload(cell):
    fresh = get_experiment(CELLS[cell][0]).run(_options(cell))
    assert fresh.payload_json() == archived(cell).payload_json(), (
        f"{cell} at its defaults no longer reproduces "
        f"{_path(cell).name}; {REGENERATE}"
    )


# ---------------------------------------------------------------------------
# The claims
# ---------------------------------------------------------------------------

def _fair_tv_quantile(expected: dict, draws: int, q: float = 0.999) -> float:
    """The ``q`` quantile of the TV distance between a fair multinomial
    sample of ``draws`` winners and ``expected``, over 10,000 seeded
    simulated samples."""
    p = np.fromiter(expected.values(), dtype=float)
    counts = np.random.default_rng(0).multinomial(draws, p, size=10_000)
    return float(np.quantile(0.5 * np.abs(counts / draws - p).sum(axis=1),
                             q))


def test_e1_fairness():
    """Theorem 4: Pr[color c wins] = its support fraction.  TV sits at
    the fair-sampling noise floor, below the 99.9% quantile of a fair
    sample's TV, and chi-square does not reject at a Bonferroni-corrected
    5% over the family of rows.  The quantile is what binds on
    many-category rows, where 3x the normal-approximation floor nears
    1 (0.956 for leader election at n = 256, against about 0.37)."""
    table, = archived("e1").tables()
    rows = len(table.rows)
    for workload, n, trials, fails, tv, floor in zip(*(
            table.column(c) for c in ("workload", "n", "trials", "fail_rate",
                                      "TV distance", "TV noise floor"))):
        expected = expected_distribution(WORKLOADS[workload](n))
        fair = _fair_tv_quantile(expected, round(trials * (1 - fails)))
        assert tv < min(max(0.05, 3.0 * floor), fair), (workload, n)
    for fails in table.column("fail_rate"):
        assert fails < 0.02
    pvalues = table.column("chi2 p-value")
    assert all(p > 0.05 / rows for p in pvalues)
    assert sum(1 for p in pvalues if p > 0.05) >= rows - 2


def test_e2_rounds():
    """Theorem 4: O(log n) rounds.  The schedule and the Find-Min mean
    fit a*log n + b, better than the linear control, and Find-Min
    always converged inside its budget."""
    main, fits = archived("e2").tables()
    fit = _by(fits, ("quantity", "fitted shape"), "R^2")
    assert fit[("schedule rounds", "log n")] > 0.999
    assert fit[("find-min mean", "log n")] > 0.9
    assert fit[("find-min mean", "log n")] > fit[("find-min mean", "n")]
    for cell in main.column("converged in q"):
        done, total = cell.split("/")
        assert done == total


def test_e3_message_size():
    """Theorem 4: O(log^2 n)-bit messages.  The log^2 n fit wins."""
    _main, fits = archived("e3").tables()
    r2 = _by(fits, ("fitted shape",), "R^2")
    assert r2["log^2 n"] > 0.995
    assert r2["log^2 n"] > r2["log n"]
    assert r2["log^2 n"] > r2["n"]


def test_e4_communication():
    """Headline: o(n^2) messages.  P's message ratio to the LOCAL
    election falls with n, and P's totals fit n log n and n log^3 n."""
    main, fits = archived("e4").tables()
    ratios = main.column("msg ratio (P/LOCAL)")
    assert ratios[-1] < 0.5           # decisively cheaper at n = 2048
    assert ratios[-1] < ratios[0]     # advantage grows with n
    fit = _by(fits, ("quantity", "fitted shape"), "R^2")
    assert fit[("P messages", "n log n")] > 0.999
    assert fit[("P bits", "n log^3 n")] > 0.99


def test_e5_good_executions():
    """Lemma 3: good executions w.h.p., improving in n and gamma; k
    collisions follow the birthday bound 1/(2n)."""
    result = archived("e5")
    table, = result.tables()
    sizes, trials = result.options["sizes"], result.options["trials"]
    rows = _by(table, ("n", "gamma"), "good rate")
    collisions = _by(table, ("n", "gamma"), "k collisions")
    for n in sizes:
        assert rows[(n, 2.0)] > 0.95
        assert rows[(n, 3.0)] > 0.97
        assert rows[(n, 3.0)] >= rows[(n, 1.0)]
    assert rows[(1024, 3.0)] >= rows[(64, 3.0)]
    assert rows[(1024, 3.0)] > 0.995
    for (n, _g), c in collisions.items():
        assert c / trials < 4.0 / n
    assert collisions[(1024, 3.0)] <= 2


def test_e6_faults():
    """Theorem 4's alpha < 1 tolerance: a sufficient gamma(alpha) keeps
    success w.h.p. and fairness relative to the active agents.  gamma =
    10 covers the whole sweep, gamma = 4 covers alpha <= 0.4, and at
    alpha = 0.8 success is monotone in gamma."""
    result = archived("e6")
    table, = result.tables()
    rows = list(zip(
        table.column("placement"), table.column("alpha"),
        table.column("gamma"), table.column("success rate"),
        table.column("TV vs active support"),
    ))
    for placement, alpha, gamma, success, tv in rows:
        if gamma >= 10.0:
            assert success > 0.97, (placement, alpha)
            assert tv < 0.12, (placement, alpha)
        if gamma >= 4.0 and alpha <= 0.4:
            assert success > 0.97, (placement, alpha, gamma)
    by_gamma = {
        g: min(s for p, a, gg, s, _ in rows if a == 0.8 and gg == g)
        for g in result.options["gammas"]
    }
    assert by_gamma[2.0] <= by_gamma[4.0] + 0.02
    assert by_gamma[4.0] <= by_gamma[10.0] + 0.02


def test_e7_equilibrium():
    """Theorem 7: no deviation is significantly profitable; lying
    strategies are strictly harmful; the rational pooled attack falls
    back to honesty."""
    table, = archived("e7").tables()
    for profitable in table.column("profitable?"):
        assert not profitable
    rows = _by(table, ("strategy", "t"), "gain (chi=1)")
    for lying in ("underbid_alter", "underbid_drop", "underbid_klie",
                  "griefing", "pooled_gamble"):
        assert rows[(lying, 1)] < -0.5, lying
    devf = _by(table, ("strategy", "t"), "deviant fail")
    assert devf[("pooled", 4)] < 0.05


def test_e7_no_cell_gains_on_the_paper_scale_grid():
    """Theorem 7 at n = 512: on every cell of the full grid (all default
    strategies x t in {1, 4}, 2000 paired trials, gamma = 2.5) the
    coalition's paired gain (chi = 1) is <= 0.05."""
    result = archived("e7@512")
    table, = result.tables()
    gains = _by(table, ("strategy", "t"), "gain (chi=1)")
    assert set(gains) == {
        (strategy, t) for strategy in result.options["strategies"]
        for t in (1, 4)
    }
    assert max(gains.values()) <= 0.05, gains


def test_e8_baseline_attacks():
    """Positive control: the attacks that gain nothing against P win
    outright against min-gossip without verification and against
    polling, and polling needs Theta(n) rounds against P's O(log n)."""
    result = archived("e8")
    table, = result.tables()
    rows = {
        (p, a): (w, f)
        for p, a, w, f in zip(
            table.column("protocol"), table.column("attack"),
            table.column("attacker-color win rate"),
            table.column("fail rate"),
        )
    }
    for proto in ("naive min-gossip", "HP polling", "Protocol P"):
        w, _ = rows[(proto, "none (honest)")]
        assert 0.02 < w < 0.25, proto
    assert rows[("naive min-gossip", "k=0 cheater")][0] > 0.95
    assert rows[("HP polling", "stubborn agent")][0] > 0.9
    w, f = rows[("Protocol P", "forged-certificate")]
    assert w == 0.0
    assert f > 0.95
    rounds = _by(table, ("protocol", "attack"), "mean rounds")
    big = result.options["scaling_n"]
    assert rounds[(f"HP polling @ n={big}", "none (honest)")] > \
        2 * rounds[(f"Protocol P @ n={big}", "none (honest)")]
    assert rounds[(f"HP polling @ n={big}", "none (honest)")] > \
        3 * rounds[("HP polling", "none (honest)")]
    assert rounds[(f"Protocol P @ n={big}", "none (honest)")] < \
        2 * rounds[("Protocol P", "none (honest)")]


def test_e9_ablations():
    """Every defence is load-bearing: with all of them every attack
    fails; removing one check re-enables exactly its attack; Coherence
    turns starved splits into clean failures; Commitment coverage is
    the pooled attack's only obstacle."""
    result = archived("e9")
    table, = result.tables()
    rows = {
        (d, g, a): (w, f, s)
        for d, g, a, w, f, s in zip(
            table.column("defenses"), table.column("gamma"),
            table.column("attack"), table.column("attacker win rate"),
            table.column("fail rate"), table.column("silent split rate"),
        )
    }
    g = result.options["gamma"]
    for attack in ("underbid_klie", "underbid_alter", "underbid_drop"):
        w, f, _ = rows[("full", g, attack)]
        assert w == 0.0 and f > 0.95, attack
    assert rows[("without verify_k", g, "underbid_klie")][0] > 0.9
    assert rows[("without verify_ledger", g, "underbid_alter")][0] > 0.9
    assert rows[("without verify_omissions", g, "underbid_drop")][0] > 0.9
    _, _, split_with = rows[("full", 0.75, "none (honest)")]
    _, _, split_without = rows[("without coherence", 0.75, "none (honest)")]
    assert split_with == 0.0
    assert split_without > split_with
    assert rows[("without commitment", g, "pooled")][0] > 0.9
    assert rows[("full", g, "pooled")][0] < 0.5


def test_e10_open_problem_shape():
    """The conclusions' open problems at E10's defaults (n = 512, 500
    trials per scenario): expanders behave like the complete graph, the
    ring's diameter kills the O(log n) schedule, the star's leaves get
    no votes, patching is reported, and sequential min-aggregation
    costs Theta(n log n) ticks."""
    result = archived("e10")
    topo, asy = result.tables()
    success = _by(topo, ("graph",), "success rate")
    patched = _by(topo, ("graph",), "mean patched edges")
    zero = _by(topo, ("graph",), "mean zero-vote agents")
    assert success["complete"] > 0.95
    assert success["er_dense"] > 0.9
    assert success["ring"] < 0.1
    assert success["complete"] >= success["er_sparse"]
    assert zero["star"] > result.options["n"] / 2
    assert patched["er_sparse"] > 0
    assert patched["complete"] == 0 and patched["ring"] == 0
    assert 0.0 <= success["regular8+churn"] <= 1.0
    ratios = asy.column("min-agg ticks / (n log2 n)")
    assert all(0.1 < r < 10 for r in ratios)
    assert max(ratios) / min(ratios) < 4
