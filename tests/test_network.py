"""Tests for the message fabric and Local_Max_LSN piggybacking."""

from repro.common.seams import Seams
from repro.common.stats import MESSAGES_SENT, MESSAGE_BYTES, StatsRegistry
from repro.net.network import Network
from repro.wal.log_manager import LogManager
from repro.wal.records import make_update


def rec():
    return make_update(1, 0, 10, 0, b"r", b"u")


def setup(piggyback=True):
    seams = Seams.of()
    net = Network(seams, piggyback_enabled=piggyback)
    a = LogManager(1, seams)
    b = LogManager(2, seams)
    net.register(1, a)
    net.register(2, b)
    return net, a, b, seams.stats


class TestPiggyback:
    def test_message_carries_senders_max(self):
        net, a, b, _ = setup()
        for _ in range(7):
            a.append(rec())
        net.message(1, 2, "page_transfer")
        assert b.local_max_lsn == 7

    def test_receiver_keeps_higher_max(self):
        net, a, b, _ = setup()
        a.append(rec())
        for _ in range(9):
            b.append(rec())
        net.message(1, 2, "lock_grant")
        assert b.local_max_lsn == 9

    def test_piggyback_disabled(self):
        net, a, b, _ = setup(piggyback=False)
        for _ in range(7):
            a.append(rec())
        net.message(1, 2, "page_transfer")
        assert b.local_max_lsn == 0

    def test_self_message_is_free(self):
        net, a, _, stats = setup()
        net.message(1, 1, "noop")
        assert stats.get(MESSAGES_SENT) == 0


class TestBroadcast:
    def test_broadcast_converges_all(self):
        net, a, b, _ = setup()
        c = LogManager(3)
        net.register(3, c)
        for _ in range(5):
            a.append(rec())
        net.broadcast_max_lsns()
        assert b.local_max_lsn == 5
        assert c.local_max_lsn == 5

    def test_broadcast_counts_n_squared_messages(self):
        net, a, b, stats = setup()
        before = stats.get(MESSAGES_SENT)
        net.broadcast_max_lsns()
        assert stats.get(MESSAGES_SENT) == before + 2  # 2 systems -> 2 msgs

    def test_broadcast_uses_pre_exchange_snapshot(self):
        """All systems exchange the maxima they had at broadcast start."""
        net, a, b, _ = setup()
        for _ in range(3):
            a.append(rec())
        for _ in range(5):
            b.append(rec())
        net.broadcast_max_lsns()
        assert a.local_max_lsn == 5
        assert b.local_max_lsn == 5


class TestCounters:
    def test_message_counters(self):
        net, _, _, stats = setup()
        net.message(1, 2, "page_transfer", nbytes=4096)
        net.message(2, 1, "ack", nbytes=32)
        assert stats.get(MESSAGES_SENT) == 2
        assert stats.get(MESSAGE_BYTES) == 4128
        assert stats.get("net.messages.page_transfer") == 1
        assert stats.get("net.messages.ack") == 1

    def test_deregister(self):
        net, a, b, _ = setup()
        net.deregister(2)
        a.append(rec())
        net.message(1, 2, "x")  # counted but no piggyback target
        assert b.local_max_lsn == 0


class TestParkedMessages:
    """Quiesce/shutdown hygiene for injected-DELAY parking (the park
    bench must be empty after either drain or fail — no in-flight
    state may leak into a later run)."""

    def parked_setup(self):
        from repro.common.stats import NET_PARKED_DRAINED, NET_PARKED_FAILED
        from repro.faults import points as fp
        from repro.faults.injector import FaultInjector, FaultPlan

        stats = StatsRegistry()
        plan = FaultPlan(seed=0)
        plan.at(fp.NET_MSG).on_hit(1).delay()
        seams = Seams.of(stats, injector=FaultInjector(plan))
        net = Network(seams)
        a = LogManager(1, seams)
        b = LogManager(2, seams)
        net.register(1, a)
        net.register(2, b)
        a.append(rec())
        net.message(1, 2, "page_transfer")  # parked by the delay rule
        assert net.parked_count() == 1
        return net, a, b, stats, NET_PARKED_DRAINED, NET_PARKED_FAILED

    def test_drain_delivers_and_counts(self):
        net, a, b, stats, DRAINED, FAILED = self.parked_setup()
        assert net.drain_parked() == 1
        assert net.parked_count() == 0
        assert b.local_max_lsn == a.local_max_lsn  # piggyback arrived
        assert stats.get(DRAINED) == 1
        assert stats.get(FAILED) == 0
        assert stats.get(MESSAGES_SENT) == 1

    def test_fail_discards_and_counts(self):
        net, a, b, stats, DRAINED, FAILED = self.parked_setup()
        assert net.fail_parked() == 1
        assert net.parked_count() == 0
        assert b.local_max_lsn == 0  # the message really died
        assert stats.get(FAILED) == 1
        assert stats.get(DRAINED) == 0
        assert stats.get(MESSAGES_SENT) == 0

    def test_empty_park_bench_is_free(self):
        net, _, _, stats = setup()
        assert net.drain_parked() == 0
        assert net.fail_parked() == 0
        from repro.common.stats import NET_PARKED_DRAINED, NET_PARKED_FAILED

        assert stats.get(NET_PARKED_DRAINED) == 0
        assert stats.get(NET_PARKED_FAILED) == 0

    def test_failed_message_never_resurfaces(self):
        """After fail_parked, later traffic must not deliver the dead
        message (regression: _flush_delayed on the next message used to
        be the only drain path)."""
        net, a, b, stats, _, _ = self.parked_setup()
        net.fail_parked()
        a.append(rec())
        net.message(1, 2, "page_transfer")
        assert stats.get(MESSAGES_SENT) == 1  # only the new message
