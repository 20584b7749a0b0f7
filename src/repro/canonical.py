"""The one canonical JSON form every checked-in artifact is written in.

Sorted keys, a fixed two-space indent and one final newline: the
byte-stable serialization that goldens, caches and CI diffs compare.
Each artifact family re-exports it under its own ``dumps_*`` name,
writes through :func:`write_canonical` and loads through
:func:`load_canonical`, which checks the family's ``schema`` tag.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

__all__ = ["dumps_canonical", "write_canonical", "load_canonical"]

PathLike = Union[str, Path]


def dumps_canonical(payload: Any) -> str:
    """Serialize ``payload`` canonically (sorted keys, indent 2,
    trailing newline)."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_canonical(payload: Any, path: PathLike) -> Path:
    """Write ``payload`` canonically to ``path``; returns the path."""
    path = Path(path)
    path.write_text(dumps_canonical(payload), "utf-8")
    return path


def load_canonical(path: PathLike, schema: str,
                   noun: str) -> Dict[str, Any]:
    """Load the JSON document at ``path`` and check its schema tag.

    Raises ``ValueError`` naming the file as ``noun`` (e.g. "a sweep
    artifact") when its ``schema`` tag is not ``schema``.
    """
    path = Path(path)
    payload = json.loads(path.read_text("utf-8"))
    found = payload.get("schema")
    if found != schema:
        raise ValueError(f"{path} is not {noun} (schema {found!r}, "
                         f"expected {schema!r})")
    return payload
