"""The workload-artifact cache: sample once, memory-map everywhere.

Sampling the n=512 E10 scenario grid once took 25.6 s against 8.8 s of
simulating it: the simulator outran its own input pipeline ~3x.  This
module closes that gap the same way results are cached: every sampled
scenario workload (per-trial CSR batch, churn fault sets, trial seeds)
is keyed by the sha256 content hash of its fully normalised spec
(:func:`workload_key`, same ``canonical_json`` convention as
:func:`repro.results.result_key`), generated exactly once, published
atomically, and served back as **zero-copy read-only memory-mapped
views** to studies, benchmarks, the service daemon and the conformance
suite.

Artifact layout (one directory per workload)::

    <root>/<scenario>-<key>/
        manifest.json     # schema, spec, shapes — written last, fsynced
        seeds.npy         # (T,) int64 trial seeds
        indptr.npy        # (G, n+1) int64 CSR row offsets
        nbrs.npy          # flat int64 neighbour arrays, concatenated
        nbrs_offsets.npy  # (G+1,) int64 slice bounds into nbrs
        patched.npy       # (G,) int64 Hamiltonian-patch edge counts
        faulty.npy        # flat sorted fault labels
        faulty_offsets.npy  # (T+1,) int64 slice bounds into faulty

``G`` is 1 for the deterministic kinds (one graph shared by every
trial — attachment replicates it *by reference*, preserving the object
identity the batch tier's block-adjacency fast path keys on) and ``T``
otherwise.

Publish protocol (crash-safe, multi-process): arrays and manifest are
written into a pid-suffixed temp directory, each file fsynced, the
manifest last; the directory is fsynced and then :func:`os.rename`\\ d
over the final name.  The rename is atomic on POSIX — concurrent
writers of the same key race to one winner, and the losers adopt the
winner's artifact.  A crash at any point leaves only a ``.tmp.<pid>``
directory that ``repro workloads gc`` can sweep.  Corrupt or torn
artifacts (chaos-truncated manifests, short arrays) are quarantined to
``<name>.corrupt`` and transparently resampled, by the same
:func:`repro.results.quarantine` that handles torn study archives.

Invalidation is by construction: the spec hashed into the key carries
:data:`repro.extensions.families.SAMPLER_VERSION`, so any change to the
byte-level sampler spec keys new artifacts instead of serving stale
pre-change bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterator, Mapping

import numpy as np

from repro.extensions.families import (
    SAMPLER_VERSION,
    GraphCSR,
    GraphSample,
    ScenarioWorkload,
    sample_scenario_workload,
    split_scenario,
)
from repro.results import canonical_json, quarantine
from repro.util.faults import decode_fault_sets, encode_fault_sets

__all__ = [
    "ENV_VAR",
    "MANIFEST_SCHEMA",
    "CacheStats",
    "WorkloadArtifact",
    "WorkloadCache",
    "WorkloadRef",
    "active_cache",
    "attach_artifact",
    "cache_stats",
    "cached_scenario_workload",
    "detach_artifacts",
    "reset_cache_stats",
    "set_workload_cache",
    "workload_cache",
    "workload_key",
    "workload_spec",
]

#: Environment variable naming the cache root; when set, the experiment
#: front doors route scenario sampling through the artifact cache.
ENV_VAR = "REPRO_WORKLOAD_CACHE"

MANIFEST_SCHEMA = "repro.workload/v1"

_ARRAY_NAMES = (
    "seeds", "indptr", "nbrs", "nbrs_offsets", "patched",
    "faulty", "faulty_offsets",
)


# ---------------------------------------------------------------------------
# Keying
# ---------------------------------------------------------------------------

def workload_spec(
    scenario: str,
    n: int,
    trials: int,
    base_seed: int,
    churn_rate: float = 0.05,
    seed_stride: int = 41,
) -> dict[str, Any]:
    """The *fully normalised* spec a workload is keyed on.

    Every sampling input is in here — scenario (kind + churn flag), n,
    trials, the seed spine, the churn rate, and the sampler version —
    so two scenarios that share a kind but differ in any sampled input
    (e.g. only the fault fraction) can never collide on one artifact.
    ``churn_rate`` is normalised to 0.0 for non-churn scenarios: it is
    not a sampling input there, and folding it in would needlessly
    split identical workloads across keys.
    """
    kind, churn = split_scenario(scenario)
    return {
        "family": "scenario",
        "scenario": scenario,
        "kind": kind,
        "churn": churn,
        "n": int(n),
        "trials": int(trials),
        "base_seed": int(base_seed),
        "seed_stride": int(seed_stride),
        "churn_rate": float(churn_rate) if churn else 0.0,
        "sampler_version": SAMPLER_VERSION,
    }


def workload_key(spec: Mapping[str, Any]) -> str:
    """sha256 content hash of the canonical spec (16 hex chars)."""
    payload = canonical_json(dict(spec))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------

@dataclass
class CacheStats:
    """Process-wide cache counters (hits/misses/sampled work)."""

    hits: int = 0
    misses: int = 0
    quarantined: int = 0
    sampled_edges: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "quarantined": self.quarantined,
            "sampled_edges": self.sampled_edges,
        }


_STATS = CacheStats()


def cache_stats() -> CacheStats:
    """The live process-wide counters (mutated by every fetch)."""
    return _STATS


def reset_cache_stats() -> None:
    global _STATS
    _STATS = CacheStats()


# ---------------------------------------------------------------------------
# Attached artifacts (memory-mapped, shared per process)
# ---------------------------------------------------------------------------

class WorkloadArtifact:
    """One published workload directory, memory-mapped read-only.

    Arrays are ``np.load(..., mmap_mode="r")`` views — the OS page
    cache owns the bytes, attachment costs no copies, and the arrays
    are not writeable, so no consumer can corrupt the shared artifact.
    Construction validates the manifest and every array shape; any
    mismatch raises (the cache quarantines and resamples).
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        manifest_path = self.path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("schema") != MANIFEST_SCHEMA:
            raise ValueError(
                f"unknown workload schema {manifest.get('schema')!r}"
            )
        self.manifest = manifest
        self.spec: dict[str, Any] = manifest["spec"]
        self.key: str = manifest["key"]
        self.arrays: dict[str, np.ndarray] = {
            name: np.load(self.path / f"{name}.npy", mmap_mode="r")
            for name in _ARRAY_NAMES
        }
        self._samples: tuple[GraphSample, ...] | None = None
        self._validate()

    def _validate(self) -> None:
        a = self.arrays
        trials = int(self.manifest["trials"])
        graphs = int(self.manifest["graphs"])
        n = int(self.spec["n"])
        if a["seeds"].shape != (trials,):
            raise ValueError("seeds array shape mismatch")
        if a["indptr"].shape != (graphs, n + 1):
            raise ValueError("indptr array shape mismatch")
        if a["patched"].shape != (graphs,):
            raise ValueError("patched array shape mismatch")
        if a["nbrs_offsets"].shape != (graphs + 1,):
            raise ValueError("nbrs_offsets array shape mismatch")
        if a["faulty_offsets"].shape != (trials + 1,):
            raise ValueError("faulty_offsets array shape mismatch")
        for name in ("nbrs_offsets", "faulty_offsets"):
            off = a[name]
            if off[0] != 0 or np.any(np.diff(off) < 0):
                raise ValueError(f"{name} not monotone from 0")
        if int(a["nbrs_offsets"][-1]) != a["nbrs"].size:
            raise ValueError("nbrs length does not match offsets")
        if int(a["faulty_offsets"][-1]) != a["faulty"].size:
            raise ValueError("faulty length does not match offsets")

    @property
    def trials(self) -> int:
        return int(self.manifest["trials"])

    @property
    def sampled_edges(self) -> int:
        return int(self.manifest["sampled_edges"])

    def graph_samples(self) -> tuple[GraphSample, ...]:
        """The distinct graphs (1 for deterministic kinds, T otherwise)."""
        if self._samples is None:
            a = self.arrays
            n = int(self.spec["n"])
            kind = self.spec["kind"]
            samples = []
            for g in range(int(self.manifest["graphs"])):
                lo, hi = int(a["nbrs_offsets"][g]), \
                    int(a["nbrs_offsets"][g + 1])
                csr = GraphCSR(
                    n=n, indptr=a["indptr"][g], nbrs=a["nbrs"][lo:hi],
                )
                samples.append(GraphSample(
                    kind=kind, csr=csr,
                    patched_edges=int(a["patched"][g]),
                ))
            self._samples = tuple(samples)
        return self._samples

    def csr_list(self, lo: int = 0, hi: int | None = None) -> list[GraphCSR]:
        """Per-trial CSRs for trials ``[lo, hi)`` — shared object when
        the artifact holds one deterministic graph (the batch tier's
        block-adjacency fast path keys on that ``is`` identity)."""
        hi = self.trials if hi is None else hi
        samples = self.graph_samples()
        if len(samples) == 1:
            return [samples[0].csr] * (hi - lo)
        return [s.csr for s in samples[lo:hi]]

    def workload(self) -> ScenarioWorkload:
        """Reconstruct the full :class:`ScenarioWorkload`, artifact-backed."""
        a = self.arrays
        samples = self.graph_samples()
        if len(samples) == 1:
            samples = samples * self.trials
        faulty = tuple(decode_fault_sets(a["faulty"], a["faulty_offsets"]))
        return ScenarioWorkload(
            scenario=self.spec["scenario"],
            samples=samples,
            faulty=faulty,
            seeds=tuple(int(s) for s in a["seeds"]),
            ref=WorkloadRef(str(self.path), self.key, 0, self.trials),
        )


_ATTACHED: dict[str, WorkloadArtifact] = {}


def attach_artifact(path: str | Path) -> WorkloadArtifact:
    """Attach (memory-map) an artifact, shared per process.

    Raises on a missing or corrupt artifact — shard workers let that
    fail the shard, and the retry/degrade machinery falls back to the
    parent's in-memory copy.
    """
    key = str(Path(path).resolve())
    art = _ATTACHED.get(key)
    if art is None:
        art = WorkloadArtifact(path)
        _ATTACHED[key] = art
    return art


def detach_artifacts() -> None:
    """Drop every process-cached attachment (tests / cold-cache timing)."""
    _ATTACHED.clear()


@dataclass(frozen=True)
class WorkloadRef:
    """A picklable handle to a trial window of a published artifact.

    Execution plans carry this instead of the CSR bytes: shard workers
    re-attach the memory-mapped artifact by path and slice their trial
    window, so sharding a cached workload ships ~100 bytes per shard
    instead of repickling every neighbour array.
    """

    path: str
    key: str
    lo: int
    hi: int

    def narrow(self, lo: int, hi: int) -> "WorkloadRef":
        """The sub-window for a shard's ``[lo, hi)`` trial slice."""
        return replace(
            self, lo=self.lo + lo, hi=min(self.lo + hi, self.hi),
        )

    def csrs(self) -> list[GraphCSR]:
        return attach_artifact(self.path).csr_list(self.lo, self.hi)


# ---------------------------------------------------------------------------
# The cache
# ---------------------------------------------------------------------------

class WorkloadCache:
    """Content-addressed store of sampled workload artifacts."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    # -- fetch ------------------------------------------------------------

    def fetch(self, spec: Mapping[str, Any]) -> ScenarioWorkload:
        """The workload for ``spec``: attach if published, else sample,
        publish and attach.  Always returns a usable workload — corrupt
        artifacts are quarantined and resampled, and if chaos tears the
        publish the freshly sampled in-memory workload is returned."""
        spec = dict(spec)
        path = self._artifact_path(spec)
        art = self._attach(path, spec)
        if art is not None:
            _STATS.hits += 1
            return art.workload()
        _STATS.misses += 1
        wl = sample_scenario_workload(
            spec["scenario"], spec["n"], spec["trials"], spec["base_seed"],
            churn_rate=spec["churn_rate"], seed_stride=spec["seed_stride"],
        )
        _STATS.sampled_edges += sum(
            s.csr.nbrs.size for s in _distinct_samples(wl)
        ) // 2
        final = self._publish(spec, wl)
        art = self._attach(final, spec)
        if art is None:
            # Publish was torn (chaos) or lost to a corrupt racer: the
            # in-memory workload is still correct — serve it un-reffed.
            return wl
        return art.workload()

    # -- layout -----------------------------------------------------------

    def _artifact_path(self, spec: Mapping[str, Any]) -> Path:
        return self.root / f"{spec['scenario']}-{workload_key(spec)}"

    def _attach(
        self, path: Path, spec: Mapping[str, Any] | None = None
    ) -> WorkloadArtifact | None:
        if not path.is_dir():
            return None
        try:
            art = attach_artifact(path)
            if spec is not None and \
                    canonical_json(art.spec) != canonical_json(dict(spec)):
                raise ValueError("artifact spec does not match key")
        except (ValueError, KeyError, OSError, json.JSONDecodeError):
            # Moved aside, so the caller resamples.
            _ATTACHED.pop(str(path.resolve()), None)
            quarantine(path, "workload artifact")
            _STATS.quarantined += 1
            return None
        return art

    # -- publish ----------------------------------------------------------

    def _publish(
        self, spec: Mapping[str, Any], wl: ScenarioWorkload
    ) -> Path:
        """Atomic multi-file publish: temp dir + fsync + rename.

        Concurrent writers of one key race on the final rename; exactly
        one wins, the losers remove their temp dir and adopt the
        winner's artifact.
        """
        final = self._artifact_path(spec)
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = final.with_name(f"{final.name}.tmp.{os.getpid()}")
        try:
            tmp.mkdir()
            arrays = _encode_workload(wl)
            total = 0
            for name, arr in arrays.items():
                apath = tmp / f"{name}.npy"
                with apath.open("wb") as fh:
                    np.save(fh, arr)
                    fh.flush()
                    os.fsync(fh.fileno())
                total += apath.stat().st_size
            manifest = {
                "schema": MANIFEST_SCHEMA,
                "key": workload_key(spec),
                "spec": dict(spec),
                "trials": len(wl.seeds),
                "graphs": int(arrays["patched"].size),
                "sampled_edges": int(arrays["nbrs"].size) // 2,
                "arrays": list(_ARRAY_NAMES),
                "bytes": total,
                "version": 1,
            }
            mpath = tmp / "manifest.json"
            with mpath.open("w") as fh:
                fh.write(json.dumps(manifest, indent=2, sort_keys=True)
                         + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            dfd = os.open(tmp, os.O_RDONLY)
            try:
                os.fsync(dfd)
            finally:
                os.close(dfd)
            try:
                os.rename(tmp, final)
            except OSError:
                # Lost the publish race: a complete artifact (or a
                # pre-existing one) already holds the final name.
                shutil.rmtree(tmp, ignore_errors=True)
                return final
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        _chaos_tear_artifact(final)
        return final

    # -- maintenance ------------------------------------------------------

    def artifacts(self) -> list[WorkloadArtifact]:
        """Every readable published artifact under the root."""
        out = []
        if not self.root.is_dir():
            return out
        for path in sorted(self.root.iterdir()):
            if not path.is_dir() or ".tmp." in path.name \
                    or path.name.endswith(".corrupt"):
                continue
            art = self._attach(path)
            if art is not None:
                out.append(art)
        return out

    def orphans(self) -> list[Path]:
        """Leftover temp dirs and quarantined artifacts (gc targets)."""
        if not self.root.is_dir():
            return []
        return sorted(
            p for p in self.root.iterdir()
            if p.is_dir()
            and (".tmp." in p.name or p.name.endswith(".corrupt"))
        )

    def gc(self, dry_run: bool = False,
           all_artifacts: bool = False) -> dict[str, Any]:
        """Sweep orphans (and, with ``all_artifacts``, everything)."""
        targets = [p.name for p in self.orphans()]
        removed_artifacts = []
        if all_artifacts:
            removed_artifacts = [a.path.name for a in self.artifacts()]
        if not dry_run:
            for name in targets + removed_artifacts:
                path = self.root / name
                _ATTACHED.pop(str(path.resolve()), None)
                shutil.rmtree(path, ignore_errors=True)
        return {
            "root": str(self.root),
            "orphans": targets,
            "artifacts_removed": removed_artifacts,
            "dry_run": dry_run,
        }


def _distinct_samples(wl: ScenarioWorkload) -> list[GraphSample]:
    first = wl.samples[0] if wl.samples else None
    if first is not None and all(s is first for s in wl.samples):
        return [first]
    return list(wl.samples)


def _encode_workload(wl: ScenarioWorkload) -> dict[str, np.ndarray]:
    samples = _distinct_samples(wl)
    indptr = np.stack([s.csr.indptr for s in samples])
    nbrs_offsets = np.zeros(len(samples) + 1, dtype=np.int64)
    for i, s in enumerate(samples):
        nbrs_offsets[i + 1] = nbrs_offsets[i] + s.csr.nbrs.size
    nbrs = (np.concatenate([s.csr.nbrs for s in samples])
            if samples else np.zeros(0, dtype=np.int64))
    faulty, faulty_offsets = encode_fault_sets(list(wl.faulty))
    return {
        "seeds": np.array(wl.seeds, dtype=np.int64),
        "indptr": np.asarray(indptr, dtype=np.int64),
        "nbrs": np.asarray(nbrs, dtype=np.int64),
        "nbrs_offsets": nbrs_offsets,
        "patched": np.array([s.patched_edges for s in samples],
                            dtype=np.int64),
        "faulty": faulty,
        "faulty_offsets": faulty_offsets,
    }


def _chaos_tear_artifact(path: Path) -> None:
    """Fault injection: tear a just-published artifact's manifest.

    Mirrors :func:`repro.results._chaos_tear` — active only inside
    chaos blocks, keyed on the artifact directory name, and exercises
    the quarantine-and-resample path end to end.
    """
    from repro.exec import chaos  # deferred, matching results.py

    cfg = chaos.active_config()
    if cfg is not None and cfg.truncates(path.name):
        mpath = path / "manifest.json"
        data = mpath.read_text()
        mpath.write_text(data[: len(data) // 2])
        _ATTACHED.pop(str(path.resolve()), None)


# ---------------------------------------------------------------------------
# Activation (env var / explicit override) and the front door
# ---------------------------------------------------------------------------

_OVERRIDE: WorkloadCache | None = None
_OVERRIDE_SET = False
_ENV_CACHE: WorkloadCache | None = None
_ENV_ROOT: str | None = None


def set_workload_cache(cache: WorkloadCache | None) -> None:
    """Install (or, with ``None``, clear) an explicit cache override.

    The override wins over :data:`ENV_VAR`; clearing it restores the
    environment-driven behaviour.
    """
    global _OVERRIDE, _OVERRIDE_SET
    _OVERRIDE = cache
    _OVERRIDE_SET = cache is not None


def active_cache() -> WorkloadCache | None:
    """The cache in effect: the override, else ``$REPRO_WORKLOAD_CACHE``."""
    global _ENV_CACHE, _ENV_ROOT
    if _OVERRIDE_SET:
        return _OVERRIDE
    root = os.environ.get(ENV_VAR)
    if not root:
        return None
    if _ENV_CACHE is None or _ENV_ROOT != root:
        _ENV_CACHE = WorkloadCache(root)
        _ENV_ROOT = root
    return _ENV_CACHE


@contextmanager
def workload_cache(root: str | Path) -> Iterator[WorkloadCache]:
    """Scoped activation: the block's fetches route through ``root``."""
    cache = WorkloadCache(root)
    set_workload_cache(cache)
    try:
        yield cache
    finally:
        set_workload_cache(None)


def cached_scenario_workload(
    scenario: str,
    n: int,
    trials: int,
    base_seed: int,
    churn_rate: float = 0.05,
    seed_stride: int = 41,
    cache: WorkloadCache | None = None,
) -> ScenarioWorkload:
    """The cache-aware front door the experiments sample through.

    With no cache (argument, override, or env), this *is*
    :func:`sample_scenario_workload` — byte-identical outputs, no
    artifacts.  With one, the workload round-trips through the artifact
    store and comes back memory-mapped with a :class:`WorkloadRef`.
    """
    cache = cache if cache is not None else active_cache()
    if cache is None:
        return sample_scenario_workload(
            scenario, n, trials, base_seed,
            churn_rate=churn_rate, seed_stride=seed_stride,
        )
    spec = workload_spec(
        scenario, n, trials, base_seed,
        churn_rate=churn_rate, seed_stride=seed_stride,
    )
    return cache.fetch(spec)
