"""Pass registry, pipeline configuration, and pipeline construction.

The registry maps stable pass names — the identifiers used by
``compiler.passes`` sections in experiment specs and by the CLI — to
pass classes.  A :class:`PipelineConfig` describes a pipeline as a
delta from the default: the optional passes to *enable*.  Each optional
pass has one fixed slot, so a pipeline has exactly one spelling and the
pass order is never configurable.  :func:`build_pipeline`
turns a validated configuration into a runnable
:class:`~repro.core.pipeline.manager.PassManager`.

Validation happens here, eagerly, so a typo in a spec file fails at
load time with the list of known passes rather than mid-sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Type, Union

from repro.core.pipeline.delta import validate_invalidation
from repro.core.pipeline.manager import CompilerPass, PassManager
from repro.core.pipeline.passes import (
    BuildLinearSystemPass,
    EmitSchedulePass,
    FixedSolvePass,
    PartitionPass,
    RefinementPass,
    ScheduleCompactionPass,
    TermFusionPass,
    TimeOptimizationPass,
)
from repro.errors import CompilationError

__all__ = [
    "PASS_REGISTRY",
    "PASS_INVALIDATION",
    "DEFAULT_PASSES",
    "OPTIONAL_PASSES",
    "PipelineConfig",
    "normalize_passes_config",
    "resolve_pass_names",
    "build_pipeline",
]

#: Every known pass, by its stable registry name.
PASS_REGISTRY: Dict[str, Type[CompilerPass]] = {
    TermFusionPass.name: TermFusionPass,
    BuildLinearSystemPass.name: BuildLinearSystemPass,
    PartitionPass.name: PartitionPass,
    TimeOptimizationPass.name: TimeOptimizationPass,
    FixedSolvePass.name: FixedSolvePass,
    RefinementPass.name: RefinementPass,
    ScheduleCompactionPass.name: ScheduleCompactionPass,
    EmitSchedulePass.name: EmitSchedulePass,
}

#: Each registered pass's declared invalidation inputs — the
#: incremental-compilation contract (``docs/compilation.md``).  A
#: coefficient-only delta re-enters the pipeline at the first pass
#: whose inputs include ``"coefficients"``; everything before it
#: carries over from the family's donor snapshot.
PASS_INVALIDATION: Dict[str, Tuple[str, ...]] = {
    name: tuple(cls.invalidation) for name, cls in PASS_REGISTRY.items()
}

for _name, _inputs in PASS_INVALIDATION.items():
    for _problem in validate_invalidation(_name, _inputs):
        raise CompilationError(_problem)

#: The behavior-preserving default pipeline, in order.
DEFAULT_PASSES: Tuple[str, ...] = (
    BuildLinearSystemPass.name,
    PartitionPass.name,
    TimeOptimizationPass.name,
    FixedSolvePass.name,
    RefinementPass.name,
    EmitSchedulePass.name,
)

#: Opt-in optimization passes and where they slot into the default.
OPTIONAL_PASSES: Tuple[str, ...] = (
    TermFusionPass.name,
    ScheduleCompactionPass.name,
)
_INSERT_BEFORE: Dict[str, str] = {
    TermFusionPass.name: BuildLinearSystemPass.name,
    ScheduleCompactionPass.name: EmitSchedulePass.name,
}

#: The keys a ``passes`` mapping accepts.
_PASSES_KEYS: Tuple[str, ...] = ("enable",)

#: Keys a ``passes`` mapping no longer accepts, with what to use instead.
_REMOVED_KEYS: Dict[str, str] = {
    "disable": "use refine=False to skip the L1 refinement; optional "
    "passes run only when listed in 'enable'",
    "order": "the pass order is fixed",
}


@dataclass(frozen=True)
class PipelineConfig:
    """A pipeline described as a delta from the default.

    Attributes
    ----------
    enable:
        Optional passes to add (subset of :data:`OPTIONAL_PASSES`), in
        canonical :data:`OPTIONAL_PASSES` order without duplicates once
        validated by :func:`normalize_passes_config`.
    """

    enable: Tuple[str, ...] = ()

    @property
    def is_default(self) -> bool:
        """True when this config selects the default pipeline."""
        return not self.enable

    def as_pairs(self) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
        """The canonical hashable form: ``(("enable", names),)`` or ``()``."""
        return (("enable", self.enable),) if self.enable else ()


def _as_name_tuple(value: object, where: str) -> Tuple[str, ...]:
    """Coerce a spec value into a tuple of pass-name strings."""
    if isinstance(value, str) or not isinstance(value, Sequence):
        raise CompilationError(
            f"{where} must be a list of pass names, got {value!r}"
        )
    names = []
    for item in value:
        if not isinstance(item, str):
            raise CompilationError(
                f"{where} entries must be strings, got {item!r}"
            )
        names.append(item)
    return tuple(names)


def normalize_passes_config(
    config: Union[
        None, PipelineConfig, Mapping, Sequence[Tuple[str, Sequence[str]]]
    ],
) -> PipelineConfig:
    """Validate any accepted ``passes`` form into a :class:`PipelineConfig`.

    Accepts ``None`` (default pipeline), an existing config, a mapping
    with an ``enable`` key, or the hashable pair-tuple form produced by
    :meth:`PipelineConfig.as_pairs` (which is how configs travel
    through batch-job keys).  Every spelling of one pipeline yields the
    same config: ``enable`` is put in :data:`OPTIONAL_PASSES` order and
    repeats are dropped.

    Raises
    ------
    repro.errors.CompilationError
        On unknown or removed keys (``disable``, ``order``; the message
        names the replacement), unknown pass names, or default passes
        listed in ``enable``.
    """
    if config is None:
        return PipelineConfig()
    if isinstance(config, PipelineConfig):
        enable = config.enable
    else:
        if not isinstance(config, Mapping):
            try:
                config = dict(config)
            except (TypeError, ValueError):
                raise CompilationError(
                    "compiler passes config must be a mapping with an "
                    f"'enable' key, got {config!r}"
                ) from None
        for key, replacement in _REMOVED_KEYS.items():
            if key in config:
                raise CompilationError(
                    f"compiler.passes.{key} was removed: {replacement}"
                )
        unknown = sorted(set(config) - set(_PASSES_KEYS))
        if unknown:
            raise CompilationError(
                f"unknown compiler.passes key(s) {unknown}; allowed: "
                f"{list(_PASSES_KEYS)}"
            )
        enable = _as_name_tuple(
            config.get("enable", ()), "compiler.passes.enable"
        )

    known = sorted(PASS_REGISTRY)
    for name in enable:
        if name not in PASS_REGISTRY:
            raise CompilationError(
                f"unknown compiler pass {name!r}; known passes: {known}"
            )
        if name not in OPTIONAL_PASSES:
            raise CompilationError(
                f"pass {name!r} is part of the default pipeline; only "
                f"{list(OPTIONAL_PASSES)} can be enabled"
            )
    return PipelineConfig(
        enable=tuple(name for name in OPTIONAL_PASSES if name in enable)
    )


def resolve_pass_names(config: PipelineConfig) -> List[str]:
    """The concrete pass list a configuration selects, in run order."""
    names = list(DEFAULT_PASSES)
    for name in config.enable:
        names.insert(names.index(_INSERT_BEFORE[name]), name)
    return names


def build_pipeline(
    config: Optional[PipelineConfig] = None, refine: bool = True
) -> PassManager:
    """Construct the :class:`PassManager` a configuration describes.

    Parameters
    ----------
    config:
        A validated pipeline configuration (None for the default).
    refine:
        The compiler's ``refine`` knob: whether the ``refinement`` pass
        runs its L1-refinement step.
    """
    config = config if config is not None else PipelineConfig()
    passes: List[CompilerPass] = []
    for name in resolve_pass_names(config):
        if name == RefinementPass.name:
            passes.append(RefinementPass(apply_refinement=refine))
        else:
            passes.append(PASS_REGISTRY[name]())
    return PassManager(passes)
