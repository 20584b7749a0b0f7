"""Tests for the NIC model: duplex modes, fast (DMA-fed) path, and the
engine bookings every message takes."""

import pytest

from repro.faults import FaultInjector, FaultPlan, NicStall
from repro.network import Mesh2D
from repro.node import Nic
from repro.obs.metrics import MetricsRegistry
from repro.sim import Environment, RandomStreams


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
    assert nic.book_transmit(10486) == pytest.approx(single)
    assert nic.book_receive(10486) == pytest.approx(single)  # concurrent


def test_half_duplex_tx_rx_serialize():
    env = Environment()
    nic = Nic(env, per_message_us=0.0, bandwidth_mbs=100.0,
              half_duplex=True)
    single = nic.occupancy_us(10486)
    assert nic.book_transmit(10486) == pytest.approx(single)
    # One shared engine: the receive waits for the transmit.
    assert nic.book_receive(10486) == pytest.approx(2 * single)


def test_same_direction_messages_serialize():
    env = Environment()
    nic = Nic(env, per_message_us=1.0, bandwidth_mbs=100.0)
    first = nic.book_transmit(10486)
    assert nic.book_transmit(10486) == pytest.approx(2 * first)


def test_bookings_are_back_to_back_fifo():
    # A booking starts at the end of the engine's last booking while
    # that one runs, and at the current instant once the engine is
    # free again: exactly where a FIFO grant would have fallen.
    env = Environment()
    nic = Nic(env, per_message_us=1.0, bandwidth_mbs=100.0)
    occupancy = nic.occupancy_us(1048)
    ends = [nic.book_transmit(1048) for _ in range(3)]
    assert ends == [occupancy, 2 * occupancy, 3 * occupancy]
    env.run(until=10 * occupancy)
    assert nic.book_transmit(1048) == 10 * occupancy + occupancy


def test_message_counters():
    env = Environment()
    nic = Nic(env, per_message_us=0.0, bandwidth_mbs=100.0)
    nic.book_transmit(10)
    nic.book_receive(10)
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
        nic.book_transmit(-1)
    with pytest.raises(ValueError):
        nic.book_receive(-1)
    assert nic.messages_sent == nic.messages_received == 0


def test_stall_is_part_of_the_booking():
    # The engine is granted inside the stall window [5, 15): it holds
    # for the rest of the window, then for the message.
    env = Environment()
    plan = FaultPlan(name="stall", nic_stalls=(
        NicStall(node=0, start_us=5.0, duration_us=10.0),))
    injector = FaultInjector(env, plan, RandomStreams(0), Mesh2D(2, 1))
    nic = Nic(env, per_message_us=10.0, bandwidth_mbs=100.0,
              node_index=0, injector=injector)
    assert nic.book_transmit(0) == 10.0  # granted at 0: no stall
    assert nic.book_transmit(0) == 10.0 + 5.0 + 10.0
    assert nic.book_receive(0) == 10.0  # other engine, granted at 0
    assert injector.nic_stall_total_us == 5.0


def test_queue_depth_gauge_counts_waiting_bookings():
    env = Environment()
    metrics = MetricsRegistry(enabled=True)
    nic = Nic(env, per_message_us=1.0, bandwidth_mbs=100.0,
              metrics=metrics)
    for _ in range(3):
        nic.book_transmit(1048)
    gauge = metrics.gauge("nic.tx.queue_depth")
    # The first booking is granted at once, the next two wait.
    assert (gauge.value, gauge.high_water, gauge.samples) == (2, 2, 3)
    env.run(until=nic.occupancy_us(1048))
    nic.book_transmit(1048)
    assert gauge.value == 2  # the second booking has started
    assert metrics.counter("nic.tx.messages").value == 4
