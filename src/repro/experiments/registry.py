"""The experiment registry: discoverable, options-typed experiment specs.

Each experiment module declares itself with the :func:`experiment`
decorator::

    @experiment("e1", options=E1Options,
                title="Fairness of the winning distribution",
                claim="Theorem 4", kind="honest", seed_strides=(1000,))
    def run(opts: E1Options = E1Options()) -> Table:
        ...

The decorator registers an :class:`ExperimentSpec` (binding the options
dataclass to the runner) and wraps ``run`` so that it always returns a
:class:`repro.results.ExperimentResult`: the body keeps building plain
``Table`` objects exactly as before, and the wrapper captures them into
typed row sections together with the run metadata — options, seed
spine, engine tier, wall time and package version.  Rendering the
result's tables reproduces the legacy text byte-for-byte.

Lookup is lazy: :func:`get_experiment` imports the experiment's module
on first use, so ``repro list``/CLI start-up stays cheap.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import functools
import importlib
import math
import numbers
import time
import types
import typing
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.agents.plans import STRATEGY_NAMES
from repro.exec.backends import ExecRecord, collect_execution
from repro.exec.plan import AUTO_ENGINE as _PLAN_AUTO_ENGINE
from repro.exec.plan import ENGINES
from repro.extensions.families import (
    GRAPH_KINDS,
    MIN_GRAPH_N,
    split_scenario,
)
from repro.experiments.workloads import WORKLOADS
from repro.results import ExperimentResult, ResultSection, build_meta
from repro.util.bits import MAX_KEY_N
from repro.util.tables import Table

__all__ = [
    "EXECUTION_FIELDS",
    "ExperimentSpec",
    "build_options",
    "check_counts",
    "check_fields",
    "experiment",
    "experiment_names",
    "get_experiment",
    "iter_experiments",
    "options_dict",
    "run_experiment",
]

#: Canonical experiment order and the module each one lives in.
_MODULE_BY_NAME: dict[str, str] = {
    "e1": "repro.experiments.e1_fairness",
    "e2": "repro.experiments.e2_rounds",
    "e3": "repro.experiments.e3_message_size",
    "e4": "repro.experiments.e4_communication",
    "e5": "repro.experiments.e5_good_executions",
    "e6": "repro.experiments.e6_faults",
    "e7": "repro.experiments.e7_equilibrium",
    "e8": "repro.experiments.e8_baseline_attacks",
    "e9": "repro.experiments.e9_ablations",
    "e10": "repro.experiments.e10_extensions",
}

_REGISTRY: dict[str, "ExperimentSpec"] = {}

#: What ``engine="auto"`` resolves to per experiment kind — sourced from
#: the plan layer's single routing table (DESIGN.md §1/§5); ``mixed``
#: experiments default to their deviation workloads' tier.
_AUTO_ENGINE = {
    "honest": _PLAN_AUTO_ENGINE["honest"],
    "deviation": _PLAN_AUTO_ENGINE["deviation"],
    "mixed": _PLAN_AUTO_ENGINE["deviation"],
}

#: Options fields that steer *execution mechanics* only.  They are
#: guaranteed not to change result values (DESIGN.md §9), so they are
#: excluded from the serialised options — and hence from the
#: content-hash resume key: a sweep computed at ``jobs=1`` resumes
#: cleanly under ``jobs=8`` and vice versa.
EXECUTION_FIELDS = ("jobs",)


def options_dict(opts: Any) -> dict[str, Any]:
    """An options dataclass as the plain dict a result records.

    ``dataclasses.asdict`` minus :data:`EXECUTION_FIELDS` — the one
    converter used by results, studies and the CLI, so resume keys stay
    consistent everywhere.
    """
    out = dataclasses.asdict(opts)
    for name in EXECUTION_FIELDS:
        out.pop(name, None)
    return out


#: Lower bounds of the count options: a run needs one trial and one
#: worker, a coalition one member, a protocol two agents, and numpy a
#: non-negative seed.  Sequence fields bound each entry.
_COUNT_MINIMUMS = (
    ("trials", 1), ("jobs", 1), ("coalition_sizes", 1), ("n", 2),
    ("sizes", 2), ("async_sizes", 2), ("scaling_n", 2), ("seed", 0),
)

#: Experiments that fit a scaling curve across ``sizes`` (E2–E4), and
#: so need at least two distinct sizes.
_FITS_ACROSS_SIZES = ("e2", "e3", "e4")

#: The γ options (the certificate-size factor): finite and > 0.
_GAMMA_FIELDS = ("gamma", "gammas", "pooled_gammas", "starvation_gamma")

#: Options whose every entry must be one of a fixed set of names.
_NAME_FIELDS = {
    "strategies": STRATEGY_NAMES,
    "workloads": tuple(WORKLOADS),
    "placements": ("random", "color_targeted"),
}


def _entries(value: Any) -> tuple[Any, ...]:
    """A sequence option's entries, or a scalar option as one entry."""
    return tuple(value) if isinstance(value, (list, tuple)) else (value,)


def check_counts(name: str, opts: Any) -> None:
    """Reject counts below their minimum and values outside their range.

    The range check of :func:`build_options`: ``trials`` must be >= 1,
    ``jobs`` None or >= 1, ``seed`` >= 0 and every trial seed ``seed +
    stride * i`` an int64 (``i < max(trials, 10)``, the most any row
    draws), every entry of ``coalition_sizes`` >= 1 and at most the
    coalition colour's supporters (E7), ``n``, ``scaling_n`` and every
    entry of ``sizes`` and ``async_sizes`` >= 2, and all but
    ``scaling_n`` at most ``MAX_KEY_N`` (46340, the int64 key limit),
    ``sizes`` at least two distinct values where the experiment fits a
    curve across them, ``minority`` strictly between 0 and 1, every γ
    (``gamma``, ``gammas``, ``pooled_gammas``, ``starvation_gamma``)
    finite and > 0, and every fault fraction in ``alphas`` and the
    ``churn_rate`` in [0, 1), and ``chi`` finite and >= 0.  Every entry
    of ``scenarios`` must be a graph kind with an optional ``+churn``,
    and ``n`` >= 4 when there is one.  ``engine`` must be a tier of the
    experiment's kind (honest experiments, E10 included, take the
    honest tiers; deviation and mixed ones the deviation tiers), and
    every entry of ``strategies``, ``workloads`` and ``placements`` a
    registered name.  The ``ValueError`` names the experiment, the
    field and the limit or the valid values.
    """
    for field, minimum in _COUNT_MINIMUMS:
        for v in _entries(getattr(opts, field, None)):
            if isinstance(v, numbers.Real) and v < minimum:
                raise ValueError(
                    f"{name}: option {field!r} must be >= {minimum}, "
                    f"got {v!r}"
                )
    seed = getattr(opts, "seed", None)
    if isinstance(seed, numbers.Integral):
        stride = max(get_experiment(name).seed_strides, default=0)
        seeds = max(getattr(opts, "trials", 1), 10)
        limit = 2**63 - 1 - stride * (seeds - 1)
        if seed > limit:
            raise ValueError(
                f"{name}: option 'seed' must be <= {limit} (the int64 "
                f"trial-seed limit), got {seed!r}"
            )
    for field in ("n", "sizes", "async_sizes"):     # the int64 keys
        for v in _entries(getattr(opts, field, None)):
            if isinstance(v, numbers.Real) and v > MAX_KEY_N:
                raise ValueError(
                    f"{name}: option {field!r} must be <= {MAX_KEY_N} "
                    f"(the int64 key limit), got {v!r}"
                )
    if name in _FITS_ACROSS_SIZES and len(set(opts.sizes)) < 2:
        raise ValueError(
            f"{name}: option 'sizes' needs >= 2 distinct values for the "
            f"scaling fit, got {tuple(opts.sizes)!r}"
        )
    minority = getattr(opts, "minority", None)
    if isinstance(minority, numbers.Real) and not 0 < minority < 1:
        raise ValueError(
            f"{name}: option 'minority' must be in (0, 1), got {minority!r}"
        )
    for field in _GAMMA_FIELDS:
        for v in _entries(getattr(opts, field, None)):
            if isinstance(v, numbers.Real) and not (
                    math.isfinite(v) and v > 0):
                raise ValueError(
                    f"{name}: option {field!r} must be finite and > 0, "
                    f"got {v!r}"
                )
    for field in ("alphas", "churn_rate"):
        for v in _entries(getattr(opts, field, None)):
            if isinstance(v, numbers.Real) and not 0 <= v < 1:
                raise ValueError(
                    f"{name}: option {field!r} must be in [0, 1), got {v!r}"
                )
    chi = getattr(opts, "chi", None)
    if isinstance(chi, numbers.Real) and not (math.isfinite(chi) and chi >= 0):
        raise ValueError(
            f"{name}: option 'chi' must be finite and >= 0, got {chi!r}"
        )
    # Each coalition is drawn from the coalition colour's supporters.
    for t in _entries(getattr(opts, "coalition_sizes", ())):
        try:
            opts.members(t)
        except ValueError as exc:
            raise ValueError(
                f"{name}: option 'coalition_sizes' entries must fit the "
                f"coalition colour: {exc}"
            ) from None
    engine = getattr(opts, "engine", None)
    if engine is not None:
        kind = get_experiment(name).kind
        valid = ENGINES["honest" if kind == "honest" else "deviation"]
        if engine not in valid:
            raise ValueError(
                f"{name}: option 'engine' must be one of "
                f"{', '.join(valid)}, got {engine!r}"
            )
    for field, valid in _NAME_FIELDS.items():
        for v in _entries(getattr(opts, field, ())):
            if v not in valid:
                raise ValueError(
                    f"{name}: option {field!r} entries must be one of "
                    f"{', '.join(valid)}, got {v!r}"
                )
    scenarios = getattr(opts, "scenarios", ())
    for scenario in scenarios:
        if split_scenario(scenario)[0] not in GRAPH_KINDS:
            raise ValueError(
                f"{name}: option 'scenarios' entries must be one of "
                f"{', '.join(GRAPH_KINDS)}, optionally with '+churn', "
                f"got {scenario!r}"
            )
    if scenarios and opts.n < MIN_GRAPH_N:
        raise ValueError(
            f"{name}: option 'n' must be >= {MIN_GRAPH_N} for graph "
            f"scenarios, got {opts.n!r}"
        )


def _typed(value: Any, hint: Any) -> Any:
    """``value`` in the form ``hint`` declares; ``TypeError`` where it
    does not fit."""
    if type(value) is hint:     # already typed: skips the ABC checks
        return value
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if hint is int and number and isinstance(value, numbers.Integral):
        return int(value)
    if hint is float and number:
        return float(value)
    if hint in (str, bool) and isinstance(value, hint):
        return value
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if (origin is collections.abc.Sequence
            and isinstance(value, (list, tuple))):
        return tuple(_typed(v, args[0]) for v in value)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (inner,) = (a for a in args if a is not type(None))
        return _typed(value, inner)
    raise TypeError(value)


@functools.cache
def _field_types(options_cls: type) -> tuple[dict[str, Any], dict[str, Any]]:
    """The resolved type hints of an options dataclass, plus its
    annotations as written (``Sequence[int]``) for messages.  Resolving
    the hints costs ~0.1 ms, so it is done once per class."""
    declared = {f.name: f.type for f in dataclasses.fields(options_cls)}
    return typing.get_type_hints(options_cls), declared


def check_fields(name: str, fields: Iterable[str]) -> None:
    """Reject names that are no option field of experiment ``name``.

    The field check of :func:`build_options`, shared with
    :class:`~repro.study.Study`'s grid; the ``ValueError`` names the
    experiment, the field and the valid ones.
    """
    _, valid = _field_types(get_experiment(name).options_cls)
    for field in fields:
        if field not in valid:
            raise ValueError(f"{name}: unknown option field {field!r}; "
                             f"valid fields: {', '.join(valid)}")


def build_options(
    name: str,
    overrides: Mapping[str, Any] | None = None,
    *,
    base: Any = None,
) -> Any:
    """Experiment ``name``'s options: ``overrides`` over ``base``.

    The one way options are built — by the CLI, ``POST /jobs``,
    :class:`~repro.study.Study`, the daemon and every registered
    runner — so a cell has one key whichever door it came through.
    ``base`` is an options instance (the defaults when ``None``).
    Unknown fields are rejected (:func:`check_fields`), and every field
    is typed as declared: ``int`` takes an integer and never a bool,
    ``float`` any real number, stored as ``float`` (so ``3`` keys the
    cell ``3.0`` keys); ``str`` and ``bool`` take a string and a bool,
    ``Sequence[T]`` a list or tuple of ``T`` (stored as a tuple), and
    ``T | None`` also ``None``.  A mismatch raises ``ValueError``
    naming the experiment, the field and the value; the options are
    then range-checked (:func:`check_counts`).
    """
    spec = get_experiment(name)
    overrides = overrides or {}
    check_fields(spec.name, overrides)
    if base is None:
        base = spec.options_cls()
    hints, declared = _field_types(spec.options_cls)
    typed: dict[str, Any] = {}
    for field in declared:
        value = (overrides[field] if field in overrides
                 else getattr(base, field))
        try:
            typed[field] = _typed(value, hints[field])
        except (TypeError, OverflowError):
            raise ValueError(
                f"{spec.name}: option {field!r} must be {declared[field]}, "
                f"got {value!r}"
            ) from None
    opts = spec.options_cls(**typed)
    check_counts(spec.name, opts)
    return opts


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: its options type, runner and claim."""

    name: str
    options_cls: type
    run: Callable[..., ExperimentResult]
    title: str = ""
    claim: str = ""
    kind: str = "honest"
    seed_strides: tuple[int, ...] = ()

    def default_options(self) -> Any:
        return self.options_cls()

    def option_fields(self) -> tuple[dataclasses.Field, ...]:
        return dataclasses.fields(self.options_cls)


def _seed_spine(opts: Any, strides: Sequence[int]) -> dict[str, Any]:
    return {
        "base": getattr(opts, "seed", None),
        "strides": list(strides),
        "scheme": "trial i of a workload draws seed = base + stride*i",
    }


#: The :class:`ExecRecord` counters that sum, over a run's plans, into
#: the :class:`~repro.results.ResultMeta` fields of the same name.
_SUMMED_EXEC_FIELDS = (
    "shards", "retries", "shard_failures", "degraded_shards",
    "recovery_wall_s",
)


def _execution_meta(records: Sequence[ExecRecord]) -> dict[str, Any]:
    """A run's plan records folded into its metadata: the backend is
    ``parallel`` if any plan sharded, the counters sum, and a run that
    executed no plan keeps every field's default."""
    if not records:
        return {}
    folded = {name: sum(getattr(r, name) for r in records)
              for name in _SUMMED_EXEC_FIELDS}
    folded["backend"] = (
        "parallel" if any(r.backend == "parallel" for r in records)
        else "serial"
    )
    return folded


def experiment(
    name: str,
    *,
    options: type,
    title: str = "",
    claim: str = "",
    kind: str = "honest",
    seed_strides: Sequence[int] = (),
) -> Callable[[Callable], Callable[..., ExperimentResult]]:
    """Register an experiment runner under ``name``.

    ``options`` is the frozen options dataclass; ``kind`` tells the
    metadata layer which tier ``engine="auto"`` routes to (``honest`` →
    ``batch``, ``deviation``/``mixed`` → ``batch-strategy``);
    ``seed_strides`` documents the per-trial seed derivation for the
    result's seed spine.  The decorated function may keep returning a
    ``Table`` (or tuple of tables); the wrapper converts to
    :class:`ExperimentResult` and fills in the metadata.
    """
    if kind not in _AUTO_ENGINE:
        raise ValueError(f"unknown experiment kind {kind!r}")
    if not dataclasses.is_dataclass(options):
        raise TypeError(f"options must be a dataclass, got {options!r}")

    def decorate(fn: Callable) -> Callable[..., ExperimentResult]:
        @functools.wraps(fn)
        def run(opts: Any = None, /, **overrides: Any) -> ExperimentResult:
            opts = build_options(name, overrides, base=opts)
            start = time.perf_counter()
            with collect_execution() as exec_records:
                out = fn(opts)
            wall = time.perf_counter() - start
            if isinstance(out, ExperimentResult):
                return out
            tables = out if isinstance(out, tuple) else (out,)
            if not all(isinstance(t, Table) for t in tables):
                raise TypeError(
                    f"experiment {name!r} returned {type(out).__name__}; "
                    "expected Table(s) or ExperimentResult"
                )
            engine = getattr(opts, "engine", None)
            resolved = _AUTO_ENGINE[kind] if engine == "auto" else engine
            return ExperimentResult(
                experiment=name,
                title=title,
                claim=claim,
                options=options_dict(opts),
                options_type=f"{options.__module__}.{options.__qualname__}",
                sections=tuple(ResultSection.from_table(t) for t in tables),
                meta=build_meta(
                    wall_time_s=wall,
                    engine=engine,
                    resolved_engine=resolved,
                    jobs=getattr(opts, "jobs", None),
                    seed_spine=_seed_spine(opts, seed_strides),
                    **_execution_meta(exec_records),
                ),
            )

        spec = ExperimentSpec(
            name=name, options_cls=options, run=run, title=title,
            claim=claim, kind=kind, seed_strides=tuple(seed_strides),
        )
        _REGISTRY[name] = spec
        run.spec = spec  # type: ignore[attr-defined]
        return run

    return decorate


def experiment_names() -> list[str]:
    """All experiment names in canonical order (no module imports)."""
    return list(_MODULE_BY_NAME)


def get_experiment(name: str) -> ExperimentSpec:
    """The spec registered under ``name``, importing its module lazily."""
    name = name.lower()
    if name not in _REGISTRY:
        module = _MODULE_BY_NAME.get(name)
        if module is None:
            known = ", ".join(experiment_names())
            raise KeyError(f"unknown experiment {name!r}; known: {known}")
        importlib.import_module(module)
        if name not in _REGISTRY:  # pragma: no cover - registration bug
            raise RuntimeError(
                f"module {module} did not register experiment {name!r}"
            )
    return _REGISTRY[name]


def iter_experiments() -> Iterator[ExperimentSpec]:
    """Every experiment spec, in canonical order (imports all modules)."""
    for name in experiment_names():
        yield get_experiment(name)


def run_experiment(
    name: str,
    opts: Any = None,
    /,
    **overrides: Any,
) -> ExperimentResult:
    """Run a registered experiment by name.

    ``opts`` is a full options instance; alternatively pass field
    overrides as keyword arguments (applied to the default options).
    """
    return get_experiment(name).run(opts, **overrides)
