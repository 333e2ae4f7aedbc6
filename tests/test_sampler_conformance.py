"""Sampler-conformance tier: vectorized == scalar, byte for byte.

The numpy-native samplers in :mod:`repro.extensions.families` (single
and batch) and the scalar per-edge references consume the *same*
pre-drawn uniform tensors, so their outputs must agree exactly — not
statistically, bit for bit.  This suite pins that contract per family,
plus the structural invariants of the sampled graphs (hypothesis), and
the end-to-end guarantee the workload cache rides on: the e10 result
payload is byte-identical with the cache off, cold, and warm.  A digest
over a grid of sampled workloads pins the bytes themselves, so a kernel
rewrite that moves any byte fails here instead of silently changing
results under an unchanged ``SAMPLER_VERSION``.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.extensions.families import (
    DETERMINISTIC_KINDS,
    GRAPH_KINDS,
    PATCHED_KINDS,
    SAMPLER_VERSION,
    GraphCSR,
    _codes_to_csr,
    _patch_connected,
    _regular8_codes,
    _regular8_codes_networkx,
    _ring_codes,
    _shuffle,
    _upper_codes,
    sample_churn_faulty,
    sample_graph,
    sample_graph_batch,
    sample_graph_reference,
    sample_scenario_workload,
)
from repro.util.bits import MAX_KEY_N
from repro.util.faults import (
    decode_fault_sets,
    encode_fault_sets,
    normalise_faulty,
)
from repro.workloads import (
    cached_scenario_workload,
    workload_cache,
)

SIZES = (8, 24, 64)
SEEDS = (0, 1, 1010)


def assert_same_sample(a, b) -> None:
    assert a.kind == b.kind
    assert a.patched_edges == b.patched_edges
    assert np.array_equal(a.csr.indptr, b.csr.indptr)
    assert np.array_equal(a.csr.nbrs, b.csr.nbrs)


def connected(csr: GraphCSR) -> bool:
    seen = np.zeros(csr.n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        for v in csr.neighbors(u):
            if not seen[v]:
                seen[v] = True
                stack.append(int(v))
    return bool(seen.all())


class TestScalarReferenceParity:
    """The headline contract: fast sampler == scalar reference, per seed."""

    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    @pytest.mark.parametrize("n", SIZES)
    def test_reference_byte_identity(self, kind, n):
        for seed in SEEDS:
            assert_same_sample(
                sample_graph(kind, n, seed),
                sample_graph_reference(kind, n, seed),
            )

    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_batch_matches_per_seed(self, kind):
        seeds = [1010 + 41 * i for i in range(7)]
        batch = sample_graph_batch(kind, 24, seeds)
        assert len(batch) == len(seeds)
        for s, got in zip(seeds, batch):
            assert_same_sample(got, sample_graph(kind, 24, s))

    def test_batch_shares_deterministic_samples(self):
        # The batch tier's block-adjacency fast path keys on object
        # identity — deterministic kinds must share one sample.
        for kind in DETERMINISTIC_KINDS:
            batch = sample_graph_batch(kind, 16, [3, 44, 85])
            assert all(s is batch[0] for s in batch)

    def test_batch_empty_and_validation(self):
        assert sample_graph_batch("ba", 16, []) == []
        with pytest.raises(ValueError, match="unknown graph kind"):
            sample_graph_batch("mystery", 16, [1])
        with pytest.raises(ValueError, match="n >= 4"):
            sample_graph_reference("ba", 2, 1)


#: sha256 over every value :func:`sample_scenario_workload` emits on the
#: grid below: each sample's ``indptr``/``nbrs`` widened to int64 (dtype
#: tag and bytes), its ``patched_edges`` and its fault set.  Recorded
#: from the samplers as they stood before the sorted-code kernels and
#: the in-module regular8 port (lexsort CSR, ``np.union1d`` patch,
#: networkx's regular graphs), when the CSR arrays were int64; the
#: int32 arrays of ``SAMPLER_VERSION`` 3 widen back to those bytes.  A
#: change that moves it must bump ``SAMPLER_VERSION``.
SAMPLE_DIGEST = (
    "633e3e025894ee69b49850fc7d01cde0edacd5094ebc9c3ff8c00e4b4211f045")
DIGEST_SCENARIOS = GRAPH_KINDS + ("regular8+churn", "er_dense+churn")
DIGEST_SIZES = (5, 8, 24, 256)
DIGEST_SEEDS = (0, 1, 1010)


def workload_digest() -> str:
    h = hashlib.sha256()
    for scenario in DIGEST_SCENARIOS:
        for n in DIGEST_SIZES:
            for seed in DIGEST_SEEDS:
                wl = sample_scenario_workload(scenario, n, 3, seed)
                h.update(f"{scenario} {n} {seed}".encode())
                for sample, faulty in zip(wl.samples, wl.faulty):
                    for a in (sample.csr.indptr, sample.csr.nbrs):
                        assert a.dtype == np.int32
                        a = a.astype(np.int64)
                        h.update(a.dtype.str.encode())
                        h.update(a.tobytes())
                    h.update(
                        f"{sample.patched_edges} {sorted(faulty)}".encode())
    return h.hexdigest()


def sorted_codes(n: int):
    """Sorted, unique edge codes ``u * n + v`` (u < v) on ``n`` nodes."""
    pairs = n * (n - 1) // 2
    return st.sets(st.integers(0, pairs - 1), max_size=pairs).map(
        lambda picked: _upper_codes(n)[sorted(picked)])


def lexsort_csr(n: int, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR formulation the sort-based kernel replaced."""
    u, v = codes // n, codes % n
    ends = np.concatenate([u, v])
    other = np.concatenate([v, u])
    order = np.lexsort((other, ends))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=n), out=indptr[1:])
    return indptr, other[order].astype(np.int64)


class TestSampleBytes:
    """The sampled bytes themselves, and the kernels that make them."""

    def test_workload_digest_unchanged(self):
        assert SAMPLER_VERSION == 3
        assert workload_digest() == SAMPLE_DIGEST

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(4, 40))
    def test_patch_equals_union_with_ring(self, data, n):
        codes = data.draw(sorted_codes(n))
        patched, added = _patch_connected(n, codes)
        want = np.union1d(codes, _ring_codes(n))
        assert patched.dtype == np.int64
        assert np.array_equal(patched, want)
        assert added == want.size - codes.size

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(4, 40))
    def test_csr_equals_lexsort_formulation(self, data, n):
        codes = data.draw(sorted_codes(n))
        csr = _codes_to_csr(n, codes)
        indptr, nbrs = lexsort_csr(n, codes)
        assert csr.indptr.dtype == np.int32 and csr.nbrs.dtype == np.int32
        assert np.array_equal(csr.indptr, indptr)
        assert np.array_equal(csr.nbrs, nbrs)

    def test_csr_dtype_widens_past_int32_offsets(self):
        # int32 holds every offset while n * (n - 1) < 2**31: through
        # n = 46341, one past MAX_KEY_N; a ring is cheap on both sides.
        assert MAX_KEY_N * (MAX_KEY_N + 1) < 2**31 <= (MAX_KEY_N + 2) * (
            MAX_KEY_N + 1)
        for n, dtype in ((MAX_KEY_N, np.int32), (MAX_KEY_N + 1, np.int32),
                         (MAX_KEY_N + 2, np.int64)):
            csr = _codes_to_csr(n, _ring_codes(n))
            assert csr.indptr.dtype == csr.nbrs.dtype == dtype, n
            assert np.array_equal(csr.indptr, np.arange(0, 2 * n + 1, 2))
            assert np.array_equal(csr.nbrs[:2], [1, n - 1])
            assert np.array_equal(csr.nbrs[-2:], [0, n - 2])

    @settings(max_examples=40, deadline=None)
    @given(size=st.integers(0, 600), seed=st.integers(0, 2**32 - 1))
    def test_shuffle_is_random_shuffle(self, size, seed):
        ours, theirs = random.Random(seed), random.Random(seed)
        x = list(range(size)) * 2
        y = list(x)
        _shuffle(x, ours)
        theirs.shuffle(y)
        assert x == y
        assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize(
        "n", (4, 5, 6, 7, 8, 9, 10, 16, 24, 33, 64, 128))
    def test_regular8_port_matches_networkx(self, n):
        for seed in range(25):
            ours = _regular8_codes(n, seed)
            theirs = _regular8_codes_networkx(n, seed)
            assert ours.dtype == theirs.dtype
            assert np.array_equal(ours, theirs), (n, seed)

    def test_shared_code_arrays_are_read_only(self):
        for codes in (_ring_codes(16), _upper_codes(16)):
            assert not codes.flags.writeable
            with pytest.raises(ValueError):
                codes[0] = 1


class TestSamplerProperties:
    """Hypothesis invariants of the vectorized samplers."""

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(5, 80), seed=st.integers(0, 2**31 - 1))
    def test_ba_connected_and_bounded(self, n, seed):
        # BA attaches every new vertex to an existing one: connected by
        # construction (never patched), with at most m*(n-m) edges.
        g = sample_graph("ba", n, seed)
        m = min(4, n - 1)
        assert g.patched_edges == 0
        assert connected(g.csr)
        assert g.csr.edge_count() <= m * (n - m)
        assert g.csr.nbrs.size % 2 == 0

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(5, 80), seed=st.integers(0, 2**31 - 1))
    def test_ws_connected_after_patch(self, n, seed):
        g = sample_graph("ws", n, seed)
        assert connected(g.csr)
        # Rewiring never adds edges beyond the lattice count.
        half = max(1, min(8, n - 2) // 2)
        assert g.csr.edge_count() <= n * half + g.patched_edges

    @settings(max_examples=20, deadline=None)
    @given(
        kind=st.sampled_from(sorted(PATCHED_KINDS)),
        n=st.integers(5, 64),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_patch_counts_match_reference(self, kind, n, seed):
        fast = sample_graph(kind, n, seed)
        ref = sample_graph_reference(kind, n, seed)
        assert fast.patched_edges == ref.patched_edges
        assert connected(fast.csr)

    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.sampled_from(GRAPH_KINDS),
        n=st.integers(5, 64),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_csr_well_formed(self, n, kind, seed):
        csr = sample_graph(kind, n, seed).csr
        assert csr.indptr.shape == (n + 1,)
        assert csr.indptr[0] == 0 and csr.indptr[-1] == csr.nbrs.size
        assert np.all(np.diff(csr.indptr) >= 0)
        # Degree sum == 2E (handshake), labels in range, rows sorted,
        # no self loops.
        assert int(csr.degrees.sum()) == csr.nbrs.size
        if csr.nbrs.size:
            assert csr.nbrs.min() >= 0 and csr.nbrs.max() < n
        for u in (0, n // 2, n - 1):
            row = csr.neighbors(u)
            assert np.all(np.diff(row) > 0)  # sorted, no duplicates
            assert u not in row

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(4, 128),
        rate=st.floats(0.0, 0.9),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_churn_sets_respect_normalise_faulty(self, n, rate, seed):
        f = sample_churn_faulty(n, rate, seed)
        # Labels valid for n agents — normalise_faulty must accept.
        [back] = normalise_faulty(f, 1, n)
        assert back == f
        assert len(f) <= n - 2  # at least two agents stay alive

    @settings(max_examples=25, deadline=None)
    @given(
        sets=st.lists(
            st.frozensets(st.integers(0, 63), max_size=8), max_size=6
        )
    )
    def test_fault_set_encoding_round_trips(self, sets):
        labels, offsets = encode_fault_sets(sets)
        assert labels.dtype == np.int64 and offsets.dtype == np.int64
        assert offsets.shape == (len(sets) + 1,)
        assert decode_fault_sets(labels, offsets) == list(sets)


class TestWorkloadParity:
    """Scenario workloads through the cache: cold == warm == uncached."""

    def assert_same_workload(self, a, b) -> None:
        assert a.scenario == b.scenario
        assert a.seeds == b.seeds
        assert tuple(a.faulty) == tuple(b.faulty)
        assert len(a.samples) == len(b.samples)
        for x, y in zip(a.samples, b.samples):
            assert_same_sample(x, y)

    @pytest.mark.parametrize("scenario", ["ba", "ring", "regular8+churn"])
    def test_cache_roundtrip_byte_identity(self, scenario, tmp_path):
        plain = sample_scenario_workload(scenario, 16, 5, 1010)
        with workload_cache(tmp_path):
            cold = cached_scenario_workload(scenario, 16, 5, 1010)
            warm = cached_scenario_workload(scenario, 16, 5, 1010)
        self.assert_same_workload(plain, cold)
        self.assert_same_workload(plain, warm)
        assert cold.ref is not None and warm.ref is not None
        # Cached views are read-only memory maps: nothing downstream
        # can mutate the shared artifact.
        assert not warm.csrs[0].nbrs.flags.writeable

    def test_e10_payload_identical_cache_on_and_off(self, tmp_path):
        from golden_opts import GOLDEN_OPTS
        from repro.experiments.registry import get_experiment

        spec = get_experiment("e10")
        opts = spec.options_cls(**GOLDEN_OPTS["e10"])
        off = spec.run(opts).payload_json()
        with workload_cache(tmp_path):
            cold = spec.run(opts).payload_json()
            warm = spec.run(opts).payload_json()
        assert off == cold
        assert off == warm
