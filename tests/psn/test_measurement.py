"""Unit tests for delay averaging and the significance criterion."""

import pytest

from repro.des import Simulator
from repro.psn import LinkTransmitter, Packet, PacketKind, SignificanceCriterion
from repro.topology import Network, line_type


def _transmitter():
    """A 56 kb/s line with 10 ms propagation, and its delay-sample tap."""
    net = Network()
    a, b = net.add_node().node_id, net.add_node().node_id
    link, _ = net.add_circuit(a, b, line_type("56K-T"), 0.010)
    sim = Simulator()
    tx = LinkTransmitter(sim, link, lambda p, l: None)
    samples = []
    tx.on_delay_sample = samples.append
    return sim, tx, samples


def _send(sim, tx, size_bits=5600.0):
    tx.send(Packet(
        kind=PacketKind.DATA, src=0, dst=1,
        size_bits=size_bits, created_s=sim.now,
    ))


class TestTransmitterDelayRead:
    """The measurement interval's mean delay, read off the transmitter."""

    def test_average_of_samples(self):
        sim, tx, samples = _transmitter()
        for _ in range(3):
            _send(sim, tx)  # 100 ms each on the wire: they queue
        sim.run()
        assert tx.delay_count == 3
        # 111, 211 and 311 ms: 1 ms processing, 100 ms transmission,
        # 10 ms propagation, and 0 / 100 / 200 ms of queueing.
        assert tx.take_delay() == pytest.approx(0.211)
        assert samples == pytest.approx([0.111, 0.211, 0.311])

    def test_interval_reset(self):
        sim, tx, samples = _transmitter()
        _send(sim, tx, size_bits=56_000.0)
        sim.run()
        tx.take_delay()
        _send(sim, tx)
        sim.run()
        assert tx.take_delay() == pytest.approx(0.111) == samples[-1]

    def test_empty_interval_reports_zero_load(self):
        _sim, tx, _samples = _transmitter()
        # 600 bits at 56 kb/s, then propagation and processing.
        assert tx.take_delay() == pytest.approx(600 / 56_000 + 0.011)


class TestSignificanceCriterion:
    def test_large_change_reports_immediately(self):
        crit = SignificanceCriterion(13)
        assert crit.should_report(15)
        assert crit.should_report(-14)

    def test_small_change_suppressed(self):
        crit = SignificanceCriterion(13)
        assert not crit.should_report(5)

    def test_threshold_decays_to_force_update_by_50s(self):
        """10 s intervals, 50 s cap: the 5th check always passes."""
        crit = SignificanceCriterion(13)
        results = [crit.should_report(0) for _ in range(5)]
        assert results == [False, False, False, False, True]

    def test_success_rearms_threshold(self):
        crit = SignificanceCriterion(13)
        crit.should_report(0)  # decay once
        assert crit.should_report(13)  # fires
        assert not crit.should_report(12)  # threshold back to full

    def test_decay_lowers_bar_gradually(self):
        crit = SignificanceCriterion(12)
        assert not crit.should_report(11)   # vs 12
        assert crit.should_report(11)       # vs 9 after one decay step


    def test_zero_threshold_always_reports(self):
        crit = SignificanceCriterion(0)
        assert crit.should_report(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SignificanceCriterion(-1)
