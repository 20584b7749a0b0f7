"""Shared fixtures: the golden-file comparator and its update flag.

``pytest --update-golden`` rewrites every golden snapshot a test
touches instead of asserting against it; a normal run fails with a
unified diff on any mismatch.  Goldens live under ``tests/golden/``
as key-sorted indented JSON so their diffs are line-oriented and
reviewable.
"""

import difflib
import json
from pathlib import Path

import pytest

from repro.bench.perfsuite import run_perf_suite

GOLDEN_DIR = Path(__file__).parent / "golden"


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite golden snapshots under tests/golden/ instead of "
             "comparing against them")


class GoldenComparator:
    """Compare payloads against (or rewrite) tests/golden/ snapshots."""

    def __init__(self, update: bool):
        self.update = update

    @staticmethod
    def render(payload) -> str:
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def check(self, name: str, payload) -> None:
        """Assert ``payload`` matches the golden file ``name``.

        Under ``--update-golden`` the file is rewritten and the check
        passes; otherwise a mismatch fails with a unified diff and a
        pointer to the update flag.
        """
        path = GOLDEN_DIR / name
        text = self.render(payload)
        if self.update:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, "utf-8")
            return
        if not path.exists():
            pytest.fail(f"missing golden snapshot {path}; run "
                        f"`pytest --update-golden` to create it")
        expected = path.read_text("utf-8")
        if text == expected:
            return
        diff = difflib.unified_diff(
            expected.splitlines(), text.splitlines(),
            fromfile=f"golden/{name}", tofile="regenerated",
            lineterm="")
        shown = list(diff)
        if len(shown) > 60:
            shown = shown[:60] + [f"... ({len(shown) - 60} more diff "
                                  f"lines)"]
        pytest.fail(f"golden snapshot {name} differs:\n" +
                    "\n".join(shown) +
                    "\nrun `pytest --update-golden` if the change is "
                    "intended")


@pytest.fixture
def golden(request):
    return GoldenComparator(request.config.getoption("--update-golden"))


@pytest.fixture(scope="session")
def smoke_perf_runs():
    """One unprofiled ``smoke`` engine perf-suite run for the session.

    Tests that compare two independent runs, or profile a run, make
    their own instead.
    """
    return tuple(run_perf_suite("smoke"))


@pytest.fixture
def shared_smoke_perf_suite(monkeypatch, request):
    """Answer unprofiled ``run_perf_suite("smoke")`` calls made through
    :mod:`repro.bench.perfsuite` (as the CLI makes them) with the
    session's shared run, which is made on first use."""
    from repro.bench import perfsuite

    def shared(suite="default", profiler=None):
        if suite == "smoke" and profiler is None:
            return list(request.getfixturevalue("smoke_perf_runs"))
        return run_perf_suite(suite, profiler=profiler)

    monkeypatch.setattr(perfsuite, "run_perf_suite", shared)
