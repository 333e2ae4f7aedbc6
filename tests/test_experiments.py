"""Smoke + correctness tests for the experiment harness (tiny scales).

Each experiment must run end-to-end, produce a well-formed table, and
show the *direction* of the paper's claim even at toy sizes.  The
claims at the experiments' defaults are checked against the tracked
``results/paper/`` archive in tests/test_paper_claims.py.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import workloads
from repro.experiments.e1_fairness import (
    E1Options,
    _binned_uniform_pvalue,
    run as run_e1,
)
from repro.experiments.e2_rounds import E2Options, run as run_e2
from repro.experiments.e3_message_size import E3Options, run as run_e3
from repro.experiments.e4_communication import E4Options, run as run_e4
from repro.experiments.e5_good_executions import E5Options, run as run_e5
from repro.experiments.e6_faults import E6Options, run as run_e6
from repro.exec.pool import default_workers


class TestRunner:
    def test_default_workers_positive(self):
        assert default_workers() >= 1


class TestWorkloads:
    def test_balanced_split(self):
        colors = workloads.balanced(10)
        assert colors.count("red") == 5 and colors.count("blue") == 5

    def test_skewed_minority(self):
        colors = workloads.skewed(100, 0.1)
        assert colors.count("blue") == 10

    def test_skewed_never_empty_minority(self):
        assert "blue" in workloads.skewed(5, 0.01)

    @pytest.mark.parametrize("minority", [0.0, 1.0, 1.5, -0.25])
    def test_skewed_minority_outside_unit_interval_rejected(self, minority):
        with pytest.raises(ValueError, match=r"minority must be in \(0, 1\)"):
            workloads.skewed(48, minority)

    def test_multiway_partition(self):
        colors = workloads.multiway(100)
        assert len(colors) == 100
        assert set(colors) == {"c0", "c1", "c2", "c3"}

    def test_leader_election_unique(self):
        colors = workloads.leader_election(32)
        assert len(set(colors)) == 32


class TestE1:
    def test_fairness_direction(self):
        table, = run_e1(E1Options(sizes=(32,), workloads=("balanced",),
                                  trials=120)).tables()
        assert len(table.rows) == 1
        tv = table.column("TV distance")[0]
        assert tv < 0.15  # fair up to Monte-Carlo noise
        assert table.column("fail_rate")[0] < 0.05

    @pytest.mark.parametrize("n", [2, 3, 12, 100])
    def test_binned_pvalue_of_uniform_winners_is_one(self, n):
        # Every label wins equally often: the bins' expected mass follows
        # their label counts, so the fit is perfect whether or not 8
        # divides n.
        winners = np.tile(np.arange(n), 5)
        assert _binned_uniform_pvalue(winners, n) == 1.0

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_binned_pvalue_unchanged_when_8_divides_n(self, n):
        from scipy import stats

        winners = np.random.default_rng(n).integers(n, size=997)
        observed = np.bincount(np.minimum(7, winners * 8 // n), minlength=8)
        old = stats.chisquare(observed, [winners.size / 8] * 8).pvalue
        assert _binned_uniform_pvalue(winners, n) == float(old)

    @pytest.mark.parametrize("workload", ["balanced", "leader_election"])
    def test_cell_without_a_successful_trial_reports_no_test(self, workload):
        # gamma = 0.05 passes the range check but every run fails: the
        # row keeps its fail rate and TV and has no p-value to report.
        table, = run_e1(E1Options(sizes=(64,), workloads=(workload,),
                                  trials=4, gamma=0.05)).tables()
        row, = table.records()
        assert row["fail_rate"] == 1.0
        assert row["TV distance"] == 0.5
        assert row["chi2 p-value"] is None
        assert row["fair at 5%?"] is None


class TestE2:
    def test_log_fit_beats_linear(self):
        main, fits = run_e2(E2Options(sizes=(32, 64, 128, 256, 512),
                                      trials=10)).tables()
        assert len(main.rows) == 5
        rows = {(r[0], r[1]): r for r in
                zip(fits.column("quantity"), fits.column("fitted shape"),
                    fits.column("R^2"))}
        assert rows[("schedule rounds", "log n")][2] > 0.99
        assert rows[("schedule rounds", "log n")][2] > \
            rows[("schedule rounds", "n")][2]


class TestE3:
    def test_log2_fit_wins(self):
        main, fits = run_e3(E3Options(sizes=(32, 64, 128, 256, 512, 1024),
                                      trials=8)).tables()
        r2 = dict(zip(fits.column("fitted shape"), fits.column("R^2")))
        assert r2["log^2 n"] > 0.98
        assert r2["log^2 n"] > r2["n"]


class TestE4:
    def test_protocol_beats_local_at_scale(self):
        main, _fits = run_e4(E4Options(sizes=(32, 256), trials=5)).tables()
        ratios = main.column("msg ratio (P/LOCAL)")
        assert ratios[-1] < 1.0        # P wins at n=256
        assert ratios[-1] < ratios[0]  # and the advantage grows


class TestE5:
    def test_gamma_buys_goodness(self):
        table, = run_e5(E5Options(sizes=(64,), gammas=(0.5, 3.0),
                                  trials=60)).tables()
        rates = table.column("good rate")
        assert rates[1] >= rates[0]
        assert rates[1] > 0.9


class TestE6:
    def test_success_with_moderate_faults(self):
        table, = run_e6(E6Options(n=64, alphas=(0.0, 0.4), gammas=(4.0,),
                                  placements=("random",),
                                  trials=40)).tables()
        for rate in table.column("success rate"):
            assert rate > 0.9


@pytest.mark.slow
class TestE7Smoke:
    def test_no_profitable_strategy_at_toy_scale(self):
        from repro.experiments.e7_equilibrium import E7Options, run as run_e7

        table, = run_e7(E7Options(
            n=24, trials=30,
            strategies=("silent", "underbid_alter", "griefing"),
            coalition_sizes=(1,),
        )).tables()
        for profitable in table.column("profitable?"):
            assert not profitable


class TestE7GainHeader:
    def test_header_names_the_chi_it_uses(self):
        from repro.experiments.e7_equilibrium import E7Options, run as run_e7

        for chi, header in ((0.5, "gain (chi=0.5)"), (1.0, "gain (chi=1)")):
            table, = run_e7(E7Options(
                n=16, trials=2, strategies=("silent",), coalition_sizes=(1,),
                chi=chi,
            )).tables()
            assert header in table.headers
