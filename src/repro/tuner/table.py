"""Decision tables: the autotuner's product and its canonical artifact.

A :class:`DecisionTable` maps (machine, op, message size, communicator
size) to the collective algorithm the tuner measured fastest, encoded
as crossover points — per (machine, op), a list of ``min_p`` bands each
holding ``min_bytes``-thresholded rules, the quantized form of
Barchet-Estefanel & Mounié's "Fast Tuning" decision maps
(arXiv:cs/0408034).  ``BENCH_tuning.json`` is its canonical rendering:
key-sorted, 9-significant-digit times, one trailing newline — byte
stable across runs, processes, and worker counts, like every other
artifact in the repo.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (Any, Dict, List, Mapping, Optional, Sequence, Tuple,
                    Union)

from ..canonical import dumps_canonical as dumps_tuning
from ..canonical import load_canonical
from ..canonical import write_canonical as write_tuning
from ..sim import SIM_VERSION

__all__ = ["TUNING_SCHEMA", "DecisionRule", "DecisionEntry",
           "DecisionTable", "build_tuning_artifact", "dumps_tuning",
           "write_tuning", "load_tuning", "load_decision_table"]

PathLike = Union[str, Path]

TUNING_SCHEMA = "repro-tuning/1"


def _round9(value: float) -> float:
    """Canonical 9-significant-digit rounding used by all artifacts."""
    return float(f"{value:.9g}")


@dataclass(frozen=True, order=True)
class DecisionRule:
    """From ``min_bytes`` up (until the next rule): use ``algorithm``."""

    min_bytes: int
    algorithm: str


@dataclass(frozen=True, order=True)
class DecisionEntry:
    """From ``min_p`` ranks up (until the next entry): these rules."""

    min_p: int
    rules: Tuple[DecisionRule, ...]

    def rule_for(self, nbytes: int) -> DecisionRule:
        """The rule covering ``nbytes``: the largest ``min_bytes`` at
        or below it, else the smallest band (sizes below the measured
        grid extrapolate downward rather than going unanswered)."""
        chosen = self.rules[0]
        for rule in self.rules:
            if rule.min_bytes <= nbytes:
                chosen = rule
        return chosen


@dataclass(frozen=True)
class DecisionTable:
    """Fitted crossover points for every tuned (machine, op) pair.

    ``entries`` maps ``(machine, op)`` to ``min_p``-sorted bands;
    ``defaults`` records the paper's fixed choice for each tuned pair
    (what an absent or non-matching lookup falls back to — the spec's
    own ``algorithms`` map answers in that case, so a table never has
    to be complete).
    """

    entries: Mapping[Tuple[str, str], Tuple[DecisionEntry, ...]] = \
        field(default_factory=dict)
    defaults: Mapping[Tuple[str, str], str] = field(default_factory=dict)

    def lookup(self, machine: str, op: str, nbytes: int,
               p: int) -> Optional[str]:
        """Algorithm for the cell, or ``None`` when the table has no
        opinion (untuned machine/op — the caller's fixed map decides).
        """
        bands = self.entries.get((machine, op))
        if not bands:
            return None
        chosen = bands[0]
        for entry in bands:
            if entry.min_p <= p:
                chosen = entry
        return chosen.rule_for(nbytes).algorithm

    def override_cells(self, cells: Sequence[Any]) -> Tuple[Any, ...]:
        """Sweep ``cells`` with the table's choices as per-cell
        algorithm overrides.

        Overrides are placed on the cells themselves — not smuggled in
        via modified machine specs — so cache fingerprints see exactly
        which algorithm ran and tuned cells never collide with
        fixed-choice results.  Cells the table resolves to the
        machine's own default stay untouched (and keep their existing
        cache entries).
        """
        from ..machines import get_machine_spec

        out = []
        for cell in cells:
            choice = self.lookup(cell.machine, cell.op, cell.nbytes,
                                 cell.p)
            spec = get_machine_spec(cell.machine)
            if choice and choice != spec.algorithms.get(cell.op):
                cell = replace(cell, algorithm=choice)
            out.append(cell)
        return tuple(out)

    def algorithms_used(self) -> Tuple[str, ...]:
        """Every algorithm any rule selects, sorted."""
        names = set()
        for bands in self.entries.values():
            for entry in bands:
                for rule in entry.rules:
                    names.add(rule.algorithm)
        return tuple(sorted(names))

    def validate(self) -> None:
        """Raise ``ValueError`` if any rule names an unregistered
        algorithm — the up-front gate that keeps a hand-edited or
        stale table from surfacing as a raw ``KeyError`` mid-sweep."""
        from ..mpi.collectives import algorithm_names

        known = set(algorithm_names())
        unknown = sorted(set(self.algorithms_used()) - known)
        if unknown:
            raise ValueError(
                f"decision table names unknown algorithm(s) "
                f"{', '.join(unknown)}; known algorithms: "
                f"{', '.join(sorted(known))}")

    # -- canonical payload form ------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        """The table section of ``BENCH_tuning.json``."""
        machines: Dict[str, Dict[str, object]] = {}
        for (machine, op), bands in sorted(self.entries.items()):
            table = machines.setdefault(machine, {})
            table[op] = {
                "default": self.defaults.get((machine, op)),
                "entries": [{
                    "min_p": entry.min_p,
                    "rules": [{"min_bytes": rule.min_bytes,
                               "algorithm": rule.algorithm}
                              for rule in entry.rules],
                } for entry in bands],
            }
        return machines

    @classmethod
    def from_payload(cls, machines: Mapping[str, object]
                     ) -> "DecisionTable":
        entries: Dict[Tuple[str, str], Tuple[DecisionEntry, ...]] = {}
        defaults: Dict[Tuple[str, str], str] = {}
        for machine in sorted(machines):
            ops = machines[machine]
            for op in sorted(ops):
                section = ops[op]
                if section.get("default") is not None:
                    defaults[(machine, op)] = str(section["default"])
                bands = tuple(sorted(
                    DecisionEntry(
                        min_p=int(entry["min_p"]),
                        rules=tuple(sorted(
                            DecisionRule(min_bytes=int(rule["min_bytes"]),
                                         algorithm=str(rule["algorithm"]))
                            for rule in entry["rules"])))
                    for entry in section["entries"]))
                if bands:
                    entries[(machine, op)] = bands
        return cls(entries=entries, defaults=defaults)


def build_tuning_artifact(table: DecisionTable,
                          flips: Sequence[Mapping[str, object]],
                          grid_name: str,
                          config: object,
                          quarantined: int = 0) -> Dict[str, object]:
    """Assemble the canonical ``BENCH_tuning.json`` document."""
    from ..runner.fingerprint import to_jsonable

    flip_rows: List[Dict[str, object]] = []
    for flip in flips:
        row = dict(flip)
        for key in ("time_us", "default_time_us", "speedup"):
            if key in row:
                row[key] = _round9(float(row[key]))
        flip_rows.append(row)
    payload: Dict[str, object] = {
        "schema": TUNING_SCHEMA,
        "grid": grid_name,
        "sim_version": SIM_VERSION,
        "config": to_jsonable(config) if config is not None else None,
        "machines": table.to_payload(),
        "flips": flip_rows,
    }
    if quarantined:
        # Only present when cells failed, so clean artifacts carry no
        # empty bookkeeping keys.
        payload["quarantined"] = quarantined
    return payload


def load_tuning(path: PathLike) -> Dict[str, object]:
    """Load and schema-check a ``BENCH_tuning.json`` document."""
    return load_canonical(path, TUNING_SCHEMA, "a tuning artifact")


def load_decision_table(path: PathLike) -> DecisionTable:
    """Load, parse, and validate the decision table in an artifact."""
    payload = load_tuning(path)
    table = DecisionTable.from_payload(payload.get("machines", {}))
    table.validate()
    return table
