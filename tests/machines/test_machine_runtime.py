"""Tests for the Machine runtime wrapper (jitter, topology sizing)."""

import math
from dataclasses import replace

import pytest

from repro.machines import Machine, PARAGON, SP2, T3D
from repro.sim import Environment, RandomStreams


def test_log2_nodes():
    env = Environment()
    assert Machine(env, SP2, 16).log2_nodes() == 4.0
    assert Machine(env, SP2, 3).log2_nodes() == pytest.approx(
        math.log2(3))


def test_jitter_draws_vary_but_reproduce():
    env1 = Environment()
    machine1 = Machine(env1, SP2, 4, streams=RandomStreams(9))
    draws1 = [machine1.jitter(0) for _ in range(5)]
    env2 = Environment()
    machine2 = Machine(env2, SP2, 4, streams=RandomStreams(9))
    draws2 = [machine2.jitter(0) for _ in range(5)]
    assert draws1 == draws2
    assert len(set(draws1)) > 1


def test_jitter_always_positive():
    env = Environment()
    machine = Machine(env, PARAGON, 4)
    assert all(machine.jitter(i % 4) > 0 for i in range(200))


def _with_sigma(spec, sigma):
    return replace(spec, software=replace(spec.software,
                                          jitter_sigma=sigma))


def test_jitter_centred_and_positive():
    machine = Machine(Environment(), _with_sigma(SP2, 0.05), 4,
                      streams=RandomStreams(11))
    draws = [machine.jitter(2) for _ in range(500)]
    assert all(d > 0 for d in draws)
    assert 0.95 < sum(draws) / len(draws) < 1.05


def test_jitter_clipped_above_zero():
    machine = Machine(Environment(), _with_sigma(SP2, 2.0), 4,
                      streams=RandomStreams(11))
    draws = [machine.jitter(0) for _ in range(500)]
    assert min(draws) == 1e-3  # a wide spread reaches the clip
    assert all(d >= 1e-3 for d in draws)


def test_jitter_zero_sigma_is_exact_one():
    machine = Machine(Environment(), _with_sigma(SP2, 0.0), 4,
                      streams=RandomStreams(1))
    assert [machine.jitter(i % 4) for i in range(8)] == [1.0] * 8


def test_buffered_jitter_equals_scalar_draws():
    """Block draws give exactly the values one scalar draw per call
    would, on every node, however the nodes' calls interleave."""
    machine = Machine(Environment(), SP2, 4, streams=RandomStreams(9))
    buffered = {0: [], 3: []}
    for index in range(10_000):
        node = 3 if index % 3 == 0 else 0
        buffered[node].append(machine.jitter(node))
    sigma = SP2.software.jitter_sigma
    scalar = RandomStreams(9)
    for node, draws in buffered.items():
        stream = scalar.stream(f"sw.{node}")
        expected = [max(stream.normal(1.0, sigma), 1e-3)
                    for _ in range(len(draws))]
        assert draws == expected
    # The streams stay aligned afterwards: the next buffered draw is
    # the next scalar one.
    assert machine.jitter(3) == scalar.stream("sw.3").normal(1.0, sigma)


def test_topology_sized_to_machine():
    env = Environment()
    for p in (2, 8, 24, 64):
        machine = Machine(env, PARAGON, p)
        assert machine.topology.num_nodes == p
        assert len(machine.nodes) == p


def test_nodes_have_expected_hardware():
    env = Environment()
    t3d = Machine(env, T3D, 4)
    assert all(node.dma is not None for node in t3d.nodes)
    sp2 = Machine(env, SP2, 4)
    assert all(node.dma is None for node in sp2.nodes)
    assert sp2.nodes[0].nic.half_duplex


def test_contention_flag_passes_through():
    env = Environment()
    machine = Machine(env, SP2, 4, contention=False)
    assert machine.fabric.contention is False


def test_clock_resolution_from_spec():
    env = Environment()
    machine = Machine(env, T3D, 4)
    assert machine.nodes[0].clock.resolution_us == \
        T3D.timer_resolution_us


def test_payload_mode_thresholds():
    from repro.node import TransferMode
    env = Environment()
    t3d = Machine(env, T3D, 4)
    node = t3d.nodes[0]
    # Below the BLT threshold the host path is used even when policy
    # prefers DMA.
    assert node.payload_mode(True, 100) is TransferMode.HOST
    assert node.payload_mode(True, 8192) is TransferMode.BLT
    assert node.payload_mode(False, 8192) is TransferMode.HOST
