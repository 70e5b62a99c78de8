"""Delta detection for incremental compilation: digests and re-entry.

Incremental compilation rests on a two-level fingerprint of a compile
request:

* The **structure digest** hashes *which* non-identity Pauli terms each
  segment of the target drives — nothing else.  Two targets share a
  structure digest exactly when they have the same number of segments
  and per-segment nonzero term sets.  (A coefficient that flips to
  exactly zero changes the structure: :class:`~repro.hamiltonian.
  expression.Hamiltonian` drops vanishing coefficients at construction,
  so the term simply disappears from the set.)
* The **coefficient digest** hashes the numeric content: per-segment
  durations and the exact (``repr``-round-tripped) coefficient of every
  term.

A *family* is a (compiler fingerprint, structure digest) pair: every
target in a family runs the same pipeline over the same linear-system
structure, channel partition, and fusion plan, differing only in
coefficients.  The snapshot store (:mod:`repro.core.pipeline.snapshot`)
keeps one donor compile per family; a later compile in the same family
is a **delta** and re-enters the pipeline at the first pass whose
declared :attr:`~repro.core.pipeline.manager.CompilerPass.invalidation`
inputs include ``"coefficients"`` — everything before that point is
carried from the donor.

A structure change (term added or removed, segment count change) lands
in a different family and compiles cold; a compiler-knob or pipeline
change alters the fingerprint with the same effect.  Stale reuse is
therefore impossible by construction; see ``docs/compilation.md``.
"""

from __future__ import annotations

import hashlib
import pickle
import weakref
from typing import Dict, List, Sequence

from repro.core.linear_system import BOUNDED_SOLVER
from repro.core.pipeline import passes as _passes
from repro.core.time_optimizer import MIN_TIME_FLOOR
from repro.hamiltonian.time_dependent import PiecewiseHamiltonian

__all__ = [
    "structure_digest",
    "coefficient_digest",
    "unit_digest",
    "compiler_fingerprint",
    "family_name",
    "reentry_index",
    "describe_unit_state",
    "validate_invalidation",
    "INVALIDATION_INPUTS",
]

#: The target properties a pass may declare as invalidation inputs.
INVALIDATION_INPUTS = ("structure", "coefficients")


def _hex(payload: str, size: int = 16) -> str:
    """Hex blake2b digest of a string payload."""
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=size).hexdigest()


def structure_digest(target: PiecewiseHamiltonian) -> str:
    """Digest of the per-segment nonzero Pauli-term sets of ``target``.

    Identity terms and coefficients are excluded: two targets share a
    structure digest iff they drive the same terms segment by segment.

    Parameters
    ----------
    target:
        The piecewise-constant target being compiled.

    Returns
    -------
    str
        A 32-character hex digest.
    """
    parts = []
    for segment in target.segments:
        hashes = sorted(
            term.stable_hash()
            for term in segment.hamiltonian.terms
            if not term.is_identity
        )
        parts.append(",".join(hashes))
    return _hex("|".join(parts))


def coefficient_digest(target: PiecewiseHamiltonian) -> str:
    """Digest of the numeric content of ``target``.

    Covers each segment's duration and every non-identity term's exact
    coefficient (``repr`` round-trips floats bit-exactly), so equal
    digests mean numerically identical compile inputs.

    Parameters
    ----------
    target:
        The piecewise-constant target being compiled.

    Returns
    -------
    str
        A 32-character hex digest.
    """
    parts = []
    for segment in target.segments:
        items = sorted(
            (term.stable_hash(), repr(coeff))
            for term, coeff in segment.hamiltonian.terms.items()
            if not term.is_identity
        )
        body = ",".join(f"{h}={c}" for h, c in items)
        parts.append(f"{segment.duration!r};{body}")
    return _hex("|".join(parts))


def unit_digest(target: PiecewiseHamiltonian) -> str:
    """Full content digest of a compile request (structure + coefficients).

    Two targets with equal unit digests compile to bit-identical
    results under the same compiler, which is what makes the snapshot
    store's *identical hit* (returning the donor's stored result) safe.
    """
    return _hex(structure_digest(target) + ":" + coefficient_digest(target))


#: AAIS content digests, memoized per live AAIS object.  Instruction
#: sets are immutable after construction, so the digest of one object
#: never changes; fresh compilers over a shared AAIS (the sweep case)
#: would otherwise re-pickle it on every fingerprint.
_AAIS_DIGEST_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _aais_digest(aais) -> str:
    """Content digest of an AAIS via its (deterministic) pickle form."""
    digest = _AAIS_DIGEST_MEMO.get(aais)
    if digest is None:
        digest = hashlib.blake2b(
            pickle.dumps(aais, protocol=pickle.HIGHEST_PROTOCOL),
            digest_size=16,
        ).hexdigest()
        _AAIS_DIGEST_MEMO[aais] = digest
    return digest


def compiler_fingerprint(compiler) -> str:
    """Digest of everything about a compiler that can change its output.

    Covers the AAIS (by content, via its pickle form), both
    result-affecting knobs (``refine``, ``use_analytic_solvers``), the
    fixed evolution-time floor and time-stretch constants (still named
    ``t_floor``, ``growth`` and ``max_iters`` in the payload, so family
    names predating their removal as knobs stay valid), the bounded
    linear solver, and the pipeline (pass names in run order plus the
    canonical ``passes`` configuration, which has one spelling per
    pipeline).  Cache state is deliberately excluded — what the
    in-memory caches hold never changes what the compiler produces.

    Parameters
    ----------
    compiler:
        A :class:`~repro.core.compiler.QTurboCompiler`.

    Returns
    -------
    str
        A 32-character hex digest.
    """
    aais_digest = _aais_digest(compiler.aais)
    config = compiler.pipeline_config
    config_part = repr(config.as_pairs()) if config is not None else "custom"
    payload = ";".join(
        (
            aais_digest,
            f"refine={compiler.refine}",
            f"t_floor={MIN_TIME_FLOOR!r}",
            f"growth={_passes.FEASIBILITY_GROWTH!r}",
            f"max_iters={_passes.MAX_FEASIBILITY_ITERS}",
            f"analytic={compiler.use_analytic_solvers}",
            f"linear_solve={BOUNDED_SOLVER}",
            f"passes={','.join(compiler.pass_names)}",
            f"config={config_part}",
        )
    )
    return _hex(payload)


def family_name(fingerprint: str, structure: str) -> str:
    """The snapshot-store directory name of one compile family.

    Concatenates truncated fingerprint and structure digests; both full
    digests are recorded in the family's metadata for verification.
    """
    return f"{fingerprint[:16]}-{structure[:16]}"


def reentry_index(passes: Sequence) -> int:
    """Where a coefficient-only delta re-enters a pipeline.

    The first pass (in run order) whose declared
    :attr:`~repro.core.pipeline.manager.CompilerPass.invalidation`
    inputs include ``"coefficients"``; every pass before it depends at
    most on the target's structure, which the whole family shares, so
    its donor output carries over unchanged.

    Parameters
    ----------
    passes:
        :class:`~repro.core.pipeline.manager.CompilerPass` instances in
        run order.

    Returns
    -------
    int
        Re-entry pass index; ``len(passes)`` when no pass declares
        ``"coefficients"`` (callers treat that as "no delta path").
    """
    for index, compiler_pass in enumerate(passes):
        if "coefficients" in getattr(compiler_pass, "invalidation", ()):
            return index
    return len(passes)


def describe_unit_state(unit, index: int, source: str = "replay") -> Dict[str, object]:
    """JSON-serializable summary of a unit's state after one pass.

    Backs ``repro compile --explain --at-pass <name>``: renders which
    stage fields the pipeline prefix has populated and their headline
    values, without leaking non-serializable objects (systems, Pauli
    keys) into the CLI output.

    Parameters
    ----------
    unit:
        A :class:`~repro.core.pipeline.unit.CompilationUnit` captured
        right after pass ``index`` ran.
    index:
        Pipeline index of the inspected pass.
    source:
        ``"snapshot"`` when the state was loaded from the snapshot
        store, ``"replay"`` when it was recomputed in memory.

    Returns
    -------
    dict
        The state summary (safe for ``json.dumps``).
    """
    state: Dict[str, object] = {
        "pass_index": index,
        "source": source,
        "passes_run": [record.name for record in unit.records],
        "segments": unit.num_segments,
    }
    if unit.fusion_plan is not None:
        state["fusion"] = {
            "pruned_channels": len(unit.fusion_plan.pruned_channels),
            "fused_groups": len(unit.fusion_plan.groups),
        }
    if unit.system is not None:
        rows, cols = unit.system.matrix.shape
        state["linear_system"] = {"rows": rows, "cols": cols}
    if unit.linear_solutions:
        state["linear_residual_l1"] = sum(
            solution.residual_l1 for solution in unit.linear_solutions
        )
    if unit.components:
        state["partition"] = {
            "components": len(unit.components),
            "fixed": len(unit.fixed_strategies),
            "dynamic": len(unit.dynamic_strategies),
        }
    if unit.t_all:
        state["t_all"] = [float(t) for t in unit.t_all]
    if unit.fixed_values:
        state["fixed_values"] = {
            name: float(value) for name, value in sorted(unit.fixed_values.items())
        }
        state["feasibility_iterations"] = unit.feasibility_iterations
    if unit.segment_times:
        state["segment_times"] = [float(t) for t in unit.segment_times]
    if unit.segment_eps2:
        state["eps2_total"] = float(sum(unit.segment_eps2))
        state["refinement_applied"] = unit.refinement_applied
    if unit.schedule is not None:
        state["schedule_segments"] = unit.schedule.num_segments
    if unit.result is not None:
        state["result"] = unit.result.summary()
    if unit.warnings:
        state["warnings"] = list(unit.warnings)
    return state


def validate_invalidation(name: str, inputs: Sequence[str]) -> List[str]:
    """Check a pass's declared invalidation inputs against the contract.

    Parameters
    ----------
    name:
        Registry name of the pass (used in problem messages).
    inputs:
        The declared :attr:`CompilerPass.invalidation` tuple.

    Returns
    -------
    list of str
        Human-readable problems; empty when the declaration is valid.
    """
    problems = []
    for item in inputs:
        if item not in INVALIDATION_INPUTS:
            problems.append(
                f"pass {name!r} declares unknown invalidation input "
                f"{item!r}; allowed: {list(INVALIDATION_INPUTS)}"
            )
    return problems
