"""Resumable on-disk artifact store for experiment runs.

One run directory holds everything a run produced::

    <run-dir>/
      manifest.json       # spec hash + canonical spec + expanded job plan
      jobs/<job_id>.json  # one record per executed job
      report.json         # written by the report stage

The manifest is keyed by the spec's content hash: re-running the same
spec against the same directory resumes, skipping every job whose
artifact is already complete, while a *different* spec is rejected so
stale artifacts can never leak into a new experiment.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import ExperimentError
from repro.experiments.spec import ExperimentJob, ExperimentSpec
from repro.store import read_json, write_json

__all__ = ["ArtifactStore"]


#: Job statuses that count as "done" for resume purposes.  ``error``
#: records are retried on the next run *unless* their recorded
#: ``failure_class`` is ``permanent`` (retrying cannot help); a compiler
#: that *reported* failure (``compile_failed``) is a stable,
#: reproducible outcome and is never retried.
_COMPLETE_STATUSES = ("ok", "compile_failed")


class ArtifactStore:
    """Read/write access to one experiment run directory.

    Parameters
    ----------
    run_dir:
        Directory holding the manifest and per-job artifacts; created
        on :meth:`initialize` if missing.
    """

    MANIFEST = "manifest.json"
    REPORT = "report.json"

    def __init__(self, run_dir: Union[str, Path]):
        self.run_dir = Path(run_dir)
        self.jobs_dir = self.run_dir / "jobs"

    # ------------------------------------------------------------------
    def initialize(
        self,
        spec: ExperimentSpec,
        jobs: Sequence[ExperimentJob],
        force: bool = False,
    ) -> None:
        """Prepare the run directory for (re-)executing ``spec``.

        A fresh directory gets a manifest; an existing one must carry
        the same spec hash or the call fails.  With ``force=True`` a
        mismatched (or partially complete) directory is wiped and
        re-initialized instead.
        """
        manifest_path = self.run_dir / self.MANIFEST
        if manifest_path.is_file():
            existing = self.read_manifest()
            if existing.get("spec_hash") != spec.spec_hash:
                if not force:
                    raise ExperimentError(
                        f"{self.run_dir} holds a different experiment "
                        f"(spec hash {existing.get('spec_hash')} != "
                        f"{spec.spec_hash}); pass --force to overwrite "
                        "or choose another --out directory"
                    )
                shutil.rmtree(self.run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.jobs_dir.mkdir(exist_ok=True)
        manifest = {
            "name": spec.name,
            "description": spec.description,
            "spec_hash": spec.spec_hash,
            "spec": spec.to_dict(),
            "num_jobs": len(jobs),
            "jobs": [
                {
                    "index": job.index,
                    "job_id": job.job_id,
                    "overrides": dict(job.overrides),
                    "seed": job.seed,
                }
                for job in jobs
            ],
        }
        write_json(manifest_path, manifest)

    # ------------------------------------------------------------------
    def job_path(self, job_id: str) -> Path:
        """Where the artifact for ``job_id`` lives."""
        return self.jobs_dir / f"{job_id}.json"

    def is_complete(self, job_id: str) -> bool:
        """True when ``job_id`` already has a usable artifact on disk.

        A torn/corrupt record reads as None and therefore incomplete —
        a crash mid-write simply means that job is re-executed on
        resume.  Errored jobs whose recorded ``failure_class`` is
        ``permanent`` are complete too: re-running a permanent failure
        reproduces it.
        """
        record = self.read_job(job_id)
        if record is None:
            return False
        status = record.get("status")
        if status in _COMPLETE_STATUSES:
            return True
        return (
            status == "error"
            and record.get("failure_class") == "permanent"
        )

    def read_job(self, job_id: str) -> Optional[Dict]:
        """The stored record for ``job_id``, or None when absent/corrupt."""
        return read_json(self.job_path(job_id))

    def write_job(self, record: Dict) -> None:
        """Persist one job record atomically (:func:`repro.store.atomic_write`).

        The pid+tid temp name means concurrent writers of the same run
        directory never interleave partial content; readers see either
        the old record or the new one, never a torn file.
        """
        write_json(
            self.job_path(record["job_id"]), record, "store.write_job"
        )

    # ------------------------------------------------------------------
    def read_manifest(self) -> Dict:
        """The run manifest; raises when the directory was never run."""
        path = self.run_dir / self.MANIFEST
        manifest = read_json(path)
        if manifest is None:
            state = "a corrupt" if path.is_file() else "no"
            raise ExperimentError(
                f"{self.run_dir} has {state} {self.MANIFEST}; not an "
                "experiment run directory"
            )
        return manifest

    def read_all_jobs(self) -> List[Dict]:
        """Every stored job record, in manifest (submission) order."""
        manifest = self.read_manifest()
        records = []
        for entry in manifest.get("jobs", []):
            record = self.read_job(entry["job_id"])
            if record is not None:
                records.append(record)
        return records

    def write_report(self, payload: Dict) -> Path:
        """Persist the aggregated report atomically next to the manifest."""
        path = self.run_dir / self.REPORT
        write_json(path, payload, "store.write_report")
        return path
