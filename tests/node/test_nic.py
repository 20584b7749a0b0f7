"""Tests for the NIC model: duplex modes and fast (DMA-fed) path."""

import pytest

from repro.node import Nic
from repro.obs.perf import WorkMeter
from repro.sim import Environment


def run_leg(env, generator, result, key):
    def proc():
        start = env.now
        yield from generator
        result[key] = env.now - start
    env.process(proc())


def test_occupancy_includes_per_message_cost():
    env = Environment()
    nic = Nic(env, per_message_us=2.0, bandwidth_mbs=100.0)
    assert nic.occupancy_us(1048) == pytest.approx(2.0 + 1048 / 104.8576)


def test_fast_path_uses_fast_bandwidth():
    env = Environment()
    nic = Nic(env, per_message_us=0.0, bandwidth_mbs=100.0,
              fast_bandwidth_mbs=300.0)
    slow = nic.occupancy_us(3000, fast=False)
    fast = nic.occupancy_us(3000, fast=True)
    assert slow == pytest.approx(3 * fast)


def test_fast_defaults_to_normal_bandwidth():
    env = Environment()
    nic = Nic(env, per_message_us=0.0, bandwidth_mbs=100.0)
    assert nic.occupancy_us(512, fast=True) == nic.occupancy_us(512)


def test_full_duplex_tx_rx_parallel():
    env = Environment()
    nic = Nic(env, per_message_us=0.0, bandwidth_mbs=100.0,
              half_duplex=False)
    single = nic.occupancy_us(10486)
    result = {}
    run_leg(env, nic.transmit(10486), result, "tx")
    run_leg(env, nic.receive(10486), result, "rx")
    env.run()
    assert result["tx"] == pytest.approx(single)
    assert result["rx"] == pytest.approx(single)  # concurrent


def test_half_duplex_tx_rx_serialize():
    env = Environment()
    nic = Nic(env, per_message_us=0.0, bandwidth_mbs=100.0,
              half_duplex=True)
    single = nic.occupancy_us(10486)
    result = {}
    run_leg(env, nic.transmit(10486), result, "tx")
    run_leg(env, nic.receive(10486), result, "rx")
    env.run()
    assert result["tx"] == pytest.approx(single)
    assert result["rx"] == pytest.approx(2 * single)  # shared engine


def test_same_direction_messages_serialize():
    env = Environment()
    nic = Nic(env, per_message_us=1.0, bandwidth_mbs=100.0)
    result = {}
    run_leg(env, nic.transmit(10486), result, "first")
    run_leg(env, nic.transmit(10486), result, "second")
    env.run()
    assert result["second"] == pytest.approx(2 * result["first"])


def test_message_counters():
    env = Environment()
    nic = Nic(env, per_message_us=0.0, bandwidth_mbs=100.0)
    result = {}
    run_leg(env, nic.transmit(10), result, "tx")
    run_leg(env, nic.receive(10), result, "rx")
    env.run()
    assert nic.messages_sent == 1
    assert nic.messages_received == 1


def test_invalid_parameters_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        Nic(env, per_message_us=0.0, bandwidth_mbs=0.0)
    with pytest.raises(ValueError):
        Nic(env, per_message_us=-1.0, bandwidth_mbs=10.0)
    with pytest.raises(ValueError):
        Nic(env, per_message_us=0.0, bandwidth_mbs=10.0,
            fast_bandwidth_mbs=0.0)
    nic = Nic(env, per_message_us=0.0, bandwidth_mbs=10.0)
    with pytest.raises(ValueError):
        list(nic.transmit(-1))


def test_transmit_books_like_try_book_transmit():
    # The process path books an idle (or contiguously busy) engine the
    # same way the synchronous fast path does: same end times, one
    # occupancy per message, no request/grant protocol.
    size = 10486
    booked_env = Environment()
    booked = Nic(booked_env, per_message_us=1.0, bandwidth_mbs=100.0)
    ends = []
    for _ in range(2):
        end, _engine, _previous = booked.try_book_transmit(size)
        booked.commit_transmit()
        ends.append(end)

    env = Environment()
    env.work = WorkMeter()
    nic = Nic(env, per_message_us=1.0, bandwidth_mbs=100.0)
    result = {}
    run_leg(env, nic.transmit(size), result, "first")
    run_leg(env, nic.transmit(size), result, "second")
    env.run()
    assert [result["first"], result["second"]] == ends
    assert env.work.resource_occupancies == 2
    assert nic.messages_sent == booked.messages_sent == 2
