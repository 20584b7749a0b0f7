"""Canonical sweep artifacts (``BENCH_sweep.json``) and their diffs.

The artifact is the sweep's single product: a key-sorted, indented
JSON document with one entry per cell.  It deliberately contains no
timestamps, hostnames, worker counts, or wall-clock numbers — only
inputs and results — so two runs of the same sweep produce *byte
identical* files regardless of parallelism or cache temperature.
That property is what makes the checked-in golden baseline and the
``repro-bench diff`` regression gate trustworthy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..canonical import dumps_canonical as dumps_artifact
from ..canonical import load_canonical
from ..canonical import write_canonical as write_artifact
from ..bench.compare import values_match
from ..sim import SIM_VERSION
from .fingerprint import to_jsonable
from .pool import SweepConfig, SweepResult

__all__ = ["ARTIFACT_SCHEMA", "VOLATILE_RESULT_FIELDS",
           "scrub_volatile", "build_artifact", "dumps_artifact",
           "write_artifact", "load_artifact", "ArtifactDiff",
           "diff_artifacts"]

PathLike = Union[str, Path]

ARTIFACT_SCHEMA = "repro-sweep/1"

#: Wall-clock and host-identity fields that must never reach a
#: byte-compared artifact.  In-tree evaluators produce none of them;
#: the scrub in :func:`build_artifact` is the enforcement point for
#: results that arrive via the cache from older versions or external
#: tooling (e.g. a per-cell ``elapsed_s`` — the sweep-level one on
#: :class:`SweepResult` only ever reaches the progress summary).
VOLATILE_RESULT_FIELDS = frozenset({
    "elapsed_s", "wall_s", "wall_clock_s", "host", "hostname",
    "timestamp", "started_at", "finished_at", "pid", "worker",
})

#: (machine, op, nbytes, p, algorithm) — how diffing pairs cells up.
#: Plain sweep cells carry no ``algorithm`` key (the machine default);
#: they index with the empty string so pre-override artifacts pair up
#: unchanged.
CellKey = Tuple[str, str, int, int, str]


def scrub_volatile(result: Dict[str, object]) -> Dict[str, object]:
    """A copy of a cell result with volatile fields removed."""
    return {name: value for name, value in result.items()
            if name not in VOLATILE_RESULT_FIELDS}


def build_artifact(result: SweepResult, grid_name: str,
                   config: SweepConfig) -> Dict[str, object]:
    """Assemble the canonical artifact document for one sweep."""
    cells = []
    for cell in result.cells:
        if cell in result.quarantined:
            continue
        entry = {
            "machine": cell.machine,
            "op": cell.op,
            "nbytes": cell.nbytes,
            "p": cell.p,
            "fingerprint": result.fingerprints[cell],
            "result": scrub_volatile(result.results[cell]),
        }
        if cell.algorithm:
            # Only on override cells, so plain artifacts stay
            # byte-identical to the pre-override format.
            entry["algorithm"] = cell.algorithm
        cells.append(entry)
    payload = {
        "schema": ARTIFACT_SCHEMA,
        "grid": grid_name,
        "mode": config.mode,
        "sim_version": SIM_VERSION,
        "config": to_jsonable(config.cell_config()),
        "cells": cells,
    }
    if config.breakdown:
        # Only present on breakdown sweeps, so plain artifacts stay
        # byte-identical to the pre-breakdown format.
        payload["breakdown"] = True
    if result.quarantined:
        # Only present when something failed, so clean runs stay
        # byte-identical to pre-quarantine artifacts.
        quarantined = []
        for cell, reason in sorted(result.quarantined.items()):
            entry = {
                "machine": cell.machine,
                "op": cell.op,
                "nbytes": cell.nbytes,
                "p": cell.p,
                "reason": reason,
            }
            if cell.algorithm:
                entry["algorithm"] = cell.algorithm
            quarantined.append(entry)
        payload["quarantined"] = quarantined
    return payload


def load_artifact(path: PathLike) -> Dict[str, object]:
    """Load and schema-check a sweep artifact."""
    return load_canonical(path, ARTIFACT_SCHEMA, "a sweep artifact")


def _index(payload: Dict[str, object]) -> Dict[CellKey, Dict[str, object]]:
    cells = payload.get("cells", [])
    return {(c["machine"], c["op"], int(c["nbytes"]), int(c["p"]),
             c.get("algorithm", "")): c
            for c in cells}


def _cell_name(key: CellKey) -> str:
    return "/".join(str(part) for part in key if part != "")


@dataclass
class ArtifactDiff:
    """Outcome of comparing a sweep artifact against a baseline."""

    rtol: float
    atol: float
    compared: int = 0
    #: Cells only in the new artifact / only in the baseline.
    added: List[CellKey] = field(default_factory=list)
    removed: List[CellKey] = field(default_factory=list)
    #: (key, baseline time, new time, relative difference).
    changed: List[Tuple[CellKey, float, float, float]] = \
        field(default_factory=list)
    #: Metadata fields (mode, grid, sim_version, config) that differ.
    metadata: List[str] = field(default_factory=list)

    def clean(self) -> bool:
        return not (self.added or self.removed or self.changed or
                    self.metadata)

    def format(self) -> str:
        """Human-readable report; one line per divergence."""
        lines = []
        if self.metadata:
            lines.append("metadata differs: " + ", ".join(self.metadata))
        for key in self.removed:
            lines.append(f"- {_cell_name(key)}: only in baseline")
        for key in self.added:
            lines.append(f"+ {_cell_name(key)}: only in new artifact")
        for key, base, new, rel in self.changed:
            lines.append(f"! {_cell_name(key)}: {base:.6g} us -> "
                         f"{new:.6g} us ({rel:+.3%})")
        verdict = "identical" if self.clean() else \
            (f"{len(self.added)} added, {len(self.removed)} removed, "
             f"{len(self.changed)} changed")
        lines.append(f"compared {self.compared} cells "
                     f"(rtol={self.rtol:g}, atol={self.atol:g}): "
                     f"{verdict}")
        return "\n".join(lines)


def diff_artifacts(baseline: Dict[str, object],
                   current: Dict[str, object],
                   rtol: float = 0.0,
                   atol: float = 0.0) -> ArtifactDiff:
    """Compare two artifacts cell by cell.

    With the default zero tolerances, any bit difference in a cell's
    ``time_us`` is reported; pass ``rtol``/``atol`` to accept float
    noise (e.g. across libm versions).
    """
    diff = ArtifactDiff(rtol=rtol, atol=atol)
    for name in ("grid", "mode", "sim_version", "config", "breakdown"):
        if baseline.get(name) != current.get(name):
            diff.metadata.append(
                f"{name} ({baseline.get(name)!r} -> "
                f"{current.get(name)!r})")
    base_cells = _index(baseline)
    new_cells = _index(current)
    diff.removed = sorted(set(base_cells) - set(new_cells))
    diff.added = sorted(set(new_cells) - set(base_cells))
    for key in sorted(set(base_cells) & set(new_cells)):
        diff.compared += 1
        base = float(base_cells[key]["result"]["time_us"])
        new = float(new_cells[key]["result"]["time_us"])
        if not values_match(base, new, rtol=rtol, atol=atol):
            rel = (new - base) / base if base else float("inf")
            diff.changed.append((key, base, new, rel))
    return diff
