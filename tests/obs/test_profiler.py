"""Tests for the engine profiler hook."""

from repro.obs import EngineProfiler
from repro.obs.profiler import _process_type
from repro.sim import Environment


def test_process_type_strips_instance_suffixes():
    assert _process_type("rank-3") == "rank"
    assert _process_type("wire-0-15") == "wire"
    assert _process_type("process") == "process"
    assert _process_type("42") == "42"  # never returns empty


def test_profiler_counts_events_and_times_callbacks():
    env = Environment()
    profiler = EngineProfiler()
    env.profiler = profiler

    def worker():
        for _ in range(5):
            yield env.timeout(1.0)

    env.process(worker(), name="rank-0")
    env.process(worker(), name="rank-1")
    env.run()

    assert profiler.events_scheduled.get("Timeout") == 10
    assert profiler.events_fired.get("Timeout") == 10
    assert profiler.total_scheduled == profiler.total_fired
    assert "rank" in profiler.sites
    count, seconds, _self_s = profiler.sites["rank"]
    assert count >= 10
    assert seconds >= 0


def test_profiler_report_ranks_hot_paths():
    env = Environment()
    profiler = EngineProfiler()
    env.profiler = profiler

    def busy():
        yield env.timeout(1.0)

    env.process(busy(), name="rank-0")
    env.run()
    report = profiler.format_report(top=3)
    assert "engine profile:" in report
    assert "events scheduled:" in report
    assert "rank" in report
    hottest = profiler.hottest()
    assert hottest and hottest[0][2] >= hottest[-1][2]


def test_profiler_detached_has_no_effect_on_results():
    def run(with_profiler):
        env = Environment()
        if with_profiler:
            env.profiler = EngineProfiler()

        def worker():
            for _ in range(20):
                yield env.timeout(0.5)

        env.process(worker())
        env.run()
        return env.now

    assert run(False) == run(True) == 10.0


def test_profiler_empty_run_reports_cleanly():
    profiler = EngineProfiler()
    assert profiler.total_scheduled == 0
    assert profiler.total_fired == 0
    assert profiler.total_callback_seconds == 0.0
    assert profiler.rankings() == []
    assert profiler.hottest() == []
    assert profiler.folded_lines() == []
    report = profiler.format_report()
    assert "engine profile:" in report
    assert "events scheduled: 0" in report


def test_profiler_nested_regions_split_self_and_cumulative():
    """Resource request/release open nested frames inside the worker's
    callback frames, so the worker's self time is strictly less than
    its cumulative time and the folded export carries the nesting."""
    from repro.sim import Resource

    env = Environment()
    profiler = EngineProfiler()
    env.profiler = profiler
    resource = Resource(env, capacity=1)

    def worker():
        for _ in range(25):
            request = resource.request()
            yield request
            yield env.timeout(0.1)
            resource.release(request)

    for index in range(4):
        env.process(worker(), name=f"worker-{index}")
    env.run()

    assert "resource.request" in profiler.sites
    assert "resource.release" in profiler.sites
    calls, cum_s, self_s = profiler.sites["worker"]
    assert calls > 0
    assert self_s < cum_s  # nested region time was subtracted
    folded = profiler.folded_lines()
    assert any(line.startswith("worker;resource.") for line in folded)
    # Self times sum to the true total (no double counting).
    total = profiler.total_callback_seconds
    cum_total = sum(cum for _, (_, cum, _s) in profiler.sites.items())
    assert total <= cum_total


def test_profiler_attach_detach_mid_run():
    """Detaching mid-run keeps already-open frames balanced (the
    engine holds its own reference for the duration of a callback) and
    stops recording new ones."""
    env = Environment()
    profiler = EngineProfiler()

    def phase_one():
        yield env.timeout(1.0)
        env.profiler = None  # detach from inside a profiled callback

    def phase_two():
        yield env.timeout(5.0)

    env.profiler = profiler
    env.process(phase_one(), name="early-0")
    env.process(phase_two(), name="late-0")
    env.run()
    assert env.profiler is None
    assert profiler._stack == []  # every frame was closed
    assert "early" in profiler.sites
    # Re-attach works and keeps accumulating into the same profiler.
    env2 = Environment()
    env2.profiler = profiler

    def more():
        yield env2.timeout(1.0)

    env2.process(more(), name="early-1")
    env2.run()
    assert profiler.sites["early"][0] >= 2


def test_profiler_rankings_tie_broken_by_name():
    profiler = EngineProfiler()
    for site in ("zeta", "alpha", "mid"):
        profiler.enter(site)
        profiler.leave()
    # Force identical costs so ordering falls back to the name.
    for site in profiler.sites:
        profiler.sites[site] = [1, 0.5, 0.5]
    ranked = [site for site, _, _, _ in profiler.rankings()]
    assert ranked == ["alpha", "mid", "zeta"]
    assert [site for site, _, _ in profiler.hottest(2)] == \
        ["alpha", "mid"]


def test_profiler_callback_frame_site_from_owner_name(monkeypatch):
    import repro.obs.profiler as profiler_module

    clock = iter([1.0, 1.25])
    monkeypatch.setattr(profiler_module, "perf_counter",
                        lambda: next(clock))
    profiler = EngineProfiler()

    class Owner:
        name = "rank-7"

    class Bound:
        __self__ = Owner()

        def __call__(self, event):  # pragma: no cover - never invoked
            pass

    profiler.enter_callback(Bound())
    profiler.leave()
    count, seconds, self_s = profiler.sites["rank"]
    assert count == 1
    assert seconds == 0.25
    assert self_s == 0.25  # no children: self == cumulative
    assert profiler.folded_lines() == ["rank 250000"]


def test_profiler_csv_and_folded_exports(tmp_path):
    from repro.obs import write_folded_stacks, write_profile_csv

    env = Environment()
    profiler = EngineProfiler()
    env.profiler = profiler

    def busy():
        yield env.timeout(1.0)

    env.process(busy(), name="rank-0")
    env.run()
    csv_path = tmp_path / "profile.csv"
    write_profile_csv(profiler, str(csv_path))
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "site,calls,cumulative_s,self_s"
    assert any(line.startswith("rank,") for line in lines[1:])
    folded_path = tmp_path / "engine.folded"
    write_folded_stacks(profiler, str(folded_path))
    content = folded_path.read_text()
    assert content.endswith("\n")
    for line in content.strip().splitlines():
        stack, _, weight = line.rpartition(" ")
        assert stack
        assert weight.isdigit()
