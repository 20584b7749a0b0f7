"""The one canonical JSON form every checked-in artifact is written in.

Sorted keys, a fixed two-space indent and one final newline: the
byte-stable serialization that goldens, caches and CI diffs compare.
Each artifact family re-exports it under its own ``dumps_*`` name.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = ["dumps_canonical"]


def dumps_canonical(payload: Any) -> str:
    """Serialize ``payload`` canonically (sorted keys, indent 2,
    trailing newline)."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
