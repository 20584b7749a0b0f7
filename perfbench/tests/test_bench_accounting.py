"""The benchmark's own arithmetic, on synthetic inputs."""

import math

import pytest

from accounting import (SITE_LAYERS, failed_cells, layer_split, median,
                        self_time, share, tuned_gain_geomean)


def test_self_time_subtracts_direct_children():
    assert self_time(10.0, (3.0, 2.5)) == pytest.approx(4.5)
    assert self_time(10.0, ()) == 10.0


def test_self_time_clamps_timer_jitter_at_zero():
    assert self_time(1.0, (0.6, 0.4000001)) == 0.0


def test_nested_spans_split_into_self_times():
    # sweep 10 > {cache.get 1, cache.put 0.5, fingerprint 0.5,
    #   measure 6 > {build 1, world.run 4 > callbacks 3}}
    spans = {"sweep": 10.0, "cache.get": 1.0, "cache.put": 0.5,
             "fingerprint": 0.5, "measure": 6.0, "build": 1.0,
             "world.run": 4.0}
    sites = {"rank": 1.5, "wire": 0.5, "fabric.route": 0.25,
             "resource.request": 0.25, "AllOf": 0.25,
             "mystery-process": 0.25}
    out = layer_split(10.5, spans, sites, {})
    assert out["runner.self_s"] == pytest.approx(2.0)
    assert out["core.measurement.self_s"] == pytest.approx(1.0)
    assert out["machines.build_s"] == pytest.approx(1.0)
    # world.run 4 minus all 3 s of callbacks, plus the engine's own
    # condition callbacks.
    assert out["sim.engine.self_s"] == pytest.approx(1.25)
    assert out["mpi.rank.self_s"] == pytest.approx(1.5)
    assert out["mpi.transport.self_s"] == pytest.approx(0.5)
    assert out["network.fabric.self_s"] == pytest.approx(0.25)
    assert out["sim.resources.self_s"] == pytest.approx(0.25)
    # 0.5 s outside the sweep span plus the site no layer owns.
    assert out["trace.unattributed_s"] == pytest.approx(0.75)


def test_layer_self_times_sum_to_wall_when_everything_is_owned():
    spans = {"tune": 9.0, "sweep": 7.0, "fit": 1.0, "measure": 5.0,
             "world.run": 4.0}
    sites = {site: 0.5 for site in ("rank", "wire", "Transport")}
    out = layer_split(9.0, spans, sites, {})
    assert out["tuner.fit_s"] == 1.0
    assert out["trace.unattributed_s"] == pytest.approx(0.0)


def test_every_site_maps_to_a_reported_layer():
    out = layer_split(1.0, {}, {}, {})
    for layer in set(SITE_LAYERS.values()):
        assert f"{layer}.self_s" in out


def test_share_is_zero_when_nothing_was_attempted():
    assert share(0, 0) == 0.0
    assert share(3, 0) == 0.0
    assert share(1, 4) == 0.25


def test_share_metrics_with_zero_denominators():
    out = layer_split(1.0, {}, {}, {"transfers_booked": 0,
                                    "messages_sent": 0})
    assert out["network.fabric.stall_share"] == 0.0
    assert out["network.fabric.shortcircuit_share"] == 0.0
    assert out["mpi.transport.retransmissions_per_msg"] == 0.0


def test_share_metrics_from_work_counters():
    out = layer_split(1.0, {}, {}, {
        "transfers_booked": 8, "transfers_stalled": 2,
        "transfers_shortcircuited": 6, "messages_sent": 10,
        "retransmissions": 5, "events_fired": 99})
    assert out["network.fabric.stall_share"] == 0.25
    assert out["network.fabric.shortcircuit_share"] == 0.75
    assert out["mpi.transport.retransmissions_per_msg"] == 0.5
    assert out["sim.engine.events_fired"] == 99.0


def test_tuned_gain_without_flips_is_one():
    assert tuned_gain_geomean([], 12) == 1.0
    assert tuned_gain_geomean([], 0) == 1.0


def test_tuned_gain_counts_unflipped_points_as_one():
    # (4 * 1 * 1 * 1) ** (1/4)
    assert tuned_gain_geomean([4.0], 4) == pytest.approx(math.sqrt(2))
    assert tuned_gain_geomean([2.0, 8.0], 2) == pytest.approx(4.0)


@pytest.mark.parametrize("speedups,points", [([2.0, 2.0], 1),
                                             ([0.0], 1), ([-1.0], 2)])
def test_tuned_gain_rejects_impossible_inputs(speedups, points):
    with pytest.raises(ValueError):
        tuned_gain_geomean(speedups, points)


def test_failed_cells_accounting():
    cells = ["ok", "quarantined", "missing", "nan", "zero", "drift"]
    cold = {"ok": (5.0, 1.0), "quarantined": None, "nan": (math.nan,),
            "zero": (0.0,), "drift": (5.0, 1.0), "missing": (1.0,)}
    warm = {"ok": (5.0, 1.0), "quarantined": (1.0,), "nan": (math.nan,),
            "zero": (0.0,), "drift": (5.0, 1.000000001)}
    assert failed_cells(cells, [cold, warm]) == sorted(
        ["quarantined", "missing", "nan", "zero", "drift"])
    assert failed_cells(cells, [cold]) == sorted(["quarantined", "nan",
                                                  "zero"])
    assert failed_cells([], [cold, warm]) == []


def test_median():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([1.0, 2.0]) == 1.5
    with pytest.raises(ValueError):
        median([])


def test_host_scale_is_nominal_over_mean_chunk_time():
    import hostspeed

    nominal = hostspeed.NOMINAL_CHUNK_S
    assert hostspeed.scale([nominal] * 3) == pytest.approx(1.0)
    # twice as slow -> half the reference seconds per measured second
    assert hostspeed.scale([nominal, 3 * nominal]) == pytest.approx(0.5)


def test_reference_seconds_scale_every_end_to_end_time():
    from run import _in_reference_seconds

    plain = {"setup_s": 2.0, "wall_s": 10.0, "warm_times": [1.0, 3.0],
             "host_scale": 0.5, "warm_host_scale": 2.0, "peak_rss_mb": 40}
    scaled = _in_reference_seconds(plain)
    assert (scaled["setup_s"], scaled["wall_s"]) == (1.0, 5.0)
    assert scaled["warm_times"] == [2.0, 6.0]
    assert scaled["peak_rss_mb"] == 40
    assert plain["wall_s"] == 10.0
