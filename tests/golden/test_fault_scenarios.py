"""Full-text goldens of the fault scenarios CI runs.

A link dies while a 1 MB broadcast is in flight on a 64-node T3D: two
transfers are aborted mid-flight and recover by retransmission over a
detour.  The critical-path report and the chaos summary at that point
are pinned byte for byte (they were written by the process-per-hop
wire, before every transfer went through bookings and route chains).
"""

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_DIR = Path(__file__).parent

POINT = ["t3d", "broadcast", "--nodes", "64", "--bytes", "1048576",
         "--faults", "midflight-outage"]


@pytest.mark.parametrize("command, golden", [
    ("critpath", "critpath_t3d_broadcast_midflight.txt"),
    ("chaos", "chaos_t3d_broadcast_midflight.txt"),
])
def test_midflight_outage_report_matches_golden(command, golden, capsys):
    assert main([command, *POINT]) in (None, 0)
    expected = (GOLDEN_DIR / golden).read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
