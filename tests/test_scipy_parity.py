"""``scipy.special`` replacements for ``scipy.stats``, pinned bit for bit.

``import repro`` does not load ``scipy.stats`` (DESIGN.md §4).  Its two
former uses are rebuilt from ``scipy.special`` ufuncs, and every result
byte depends on the rebuilds matching the originals exactly:

* the statistical-mode count marginal (``_CountMarginal``) was built from
  a frozen ``scipy.stats.binom``; it now calls the private Boost ufuncs
  ``_binom_cdf``/``_binom_isf`` under ``rv_discrete.cdf``'s support mask
  and clip.  The mask matters: at ``k >= trials`` the raw ufunc is not
  always exactly 1.0.
* ``chi_square_gof`` replaces ``scipy.stats.chisquare``.

This module may import ``scipy.stats``: it is the reference.  A scipy
release that renames the private ufuncs breaks ``import repro`` and so
every test; this module is the one that names them.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.analysis.fairness import chi_square_gof
from repro.fastpath.batch import _CountMarginal


def _reference_marginal(n_a: int, n: int, q: int):
    """The arrays ``_CountMarginal`` built from ``scipy.stats.binom``."""
    trials = max(0, (n_a - 1) * q)
    if trials == 0:
        return np.ones(1), 1.0, np.ones(1)
    dist = stats.binom(trials, 1.0 / (n - 1))
    cap = int(dist.isf(1e-15)) + 2
    cdf = dist.cdf(np.arange(cap + 1))
    p0 = float(cdf[0])
    nz = (cdf - p0) / (1.0 - p0)
    nz[0] = 0.0
    return cdf, p0, nz


def _marginal_points():
    """Every (n, n_a, q) with n <= 24 and q <= 8, plus seeded samples up
    to n = 4096 (edges n_a = 2 and n_a = n included)."""
    points = [(n, n_a, q) for n in range(2, 25) for n_a in range(1, n + 1)
              for q in range(1, 9)]
    rng = np.random.default_rng(1705)
    for n in (*rng.integers(25, 4097, size=20), 4096):
        n = int(n)
        for n_a in (2, int(rng.integers(2, n + 1)), n):
            points.append((n, n_a, int(rng.integers(1, 13))))
    return points


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


class TestCountMarginal:
    def test_matches_scipy_stats_binom_bit_for_bit(self):
        mismatches = []
        for n, n_a, q in _marginal_points():
            cdf, p0, nz = _reference_marginal(n_a, n, q)
            got = _CountMarginal(n_a, n, q)
            if (got.cdf.shape != cdf.shape or _bits(got.cdf) != _bits(cdf)
                    or _bits(got.p0) != _bits(p0)
                    or _bits(got.cdf_nonzero) != _bits(nz)):
                mismatches.append((n, n_a, q))
        assert mismatches == []


def _same(a: float, b: float) -> bool:
    return _bits(a) == _bits(b)


class TestChiSquare:
    def test_matches_scipy_chisquare_on_random_tables(self):
        rng = np.random.default_rng(2017)
        mismatches = []
        for i in range(2000):
            k = int(rng.integers(2, 17))
            total = int(rng.integers(1, 5000))
            observed = rng.multinomial(total, rng.dirichlet(np.ones(k)))
            expected = total * rng.dirichlet(np.full(k, 2.0))
            stat, pvalue = chi_square_gof(observed, expected)
            ref = stats.chisquare(observed, expected)
            if not (_same(stat, ref.statistic) and _same(pvalue, ref.pvalue)):
                mismatches.append(i)
        assert mismatches == []

    def test_zero_observations_in_a_bin(self):
        observed, expected = [0, 7, 5], [4.0, 4.0, 4.0]
        ref = stats.chisquare(observed, expected)
        stat, pvalue = chi_square_gof(observed, expected)
        assert _same(stat, ref.statistic) and _same(pvalue, ref.pvalue)

    def test_one_category_has_nan_pvalue(self):
        ref = stats.chisquare([9], [9.0])
        stat, pvalue = chi_square_gof([9], [9.0])
        assert np.isnan(ref.pvalue) and np.isnan(pvalue)
        assert _same(stat, ref.statistic)

    def test_sum_mismatch_raises(self):
        observed, expected = [5, 5], [5.0, 5.001]
        with pytest.raises(ValueError):
            stats.chisquare(observed, expected)
        with pytest.raises(ValueError, match="sums differ"):
            chi_square_gof(observed, expected)
        # Within sqrt(eps) of the smaller sum passes, as in scipy.
        close = [5.0, 5.0 + 1e-12]
        assert _same(chi_square_gof(observed, close)[1],
                     stats.chisquare(observed, close).pvalue)
