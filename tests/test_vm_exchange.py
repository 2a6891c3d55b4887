"""``VirtualMachine.exchange(batch)`` is ``alltoallv`` of the same messages.

One pricing core (``VirtualMachine._exchange``) serves both entry points:
a :class:`~repro.machine.batch.MessageBatch` is priced on count vectors,
the dict form is flattened into the same vectors first.  Twin machines
fed the two forms must be indistinguishable — statistics, clocks, op
counts, delivered payloads, and the exception when one is due — with and
without a fault plan, and a failing exchange must still record exactly
the messages delivered before the failure.  The pooled particle router
(``exchange_by_destination_pooled``) is held to the same standard
against the per-rank dict router it replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import FaultEvent, FaultPlan, MachineModel, VirtualMachine
from repro.machine.batch import MessageBatch
from repro.machine.collectives import exchange_by_destination_pooled
from repro.util.errors import InvalidRankError, MessageLost
from tests._looped_oracle import looped_exchange_by_destination


def _batch(p, pairs, sizes, kind, rng, ncomponents=2):
    """Messages ``pairs[i]`` of ``sizes[i]`` entries; ``kind`` picks the payload parts."""
    src, dst = np.array(pairs, dtype=np.int64).reshape(-1, 2).T.copy()
    total = int(sum(sizes))
    ids = rng.integers(0, 1000, total) if kind in ("both", "ids") else None
    values = rng.normal(size=(ncomponents, total)) if kind in ("both", "values") else None
    return MessageBatch(src, dst, np.cumsum([0] + list(sizes)), ids, values)


def _as_bytes(payload):
    parts = payload if isinstance(payload, tuple) else (payload,)
    return [(a.dtype, a.shape, a.tobytes()) for a in parts]


def _twins(p, plan=None, iteration=0):
    machines = [VirtualMachine(p, MachineModel.cm5()) for _ in range(2)]
    for vm in machines:
        if plan is not None:
            vm.install_faults(plan)
            vm.fault_injector.set_iteration(iteration)
    return machines


def _run(call):
    try:
        return call(), None
    except (InvalidRankError, MessageLost) as exc:
        return None, exc


def _assert_twins_agree(p, batch, plan=None):
    by_batch, by_dicts = _twins(p, plan)
    with by_batch.phase("scatter"), by_dicts.phase("scatter"):
        delivered, error = _run(lambda: by_batch.exchange(batch))
        recv, error_dicts = _run(lambda: by_dicts.alltoallv(batch.to_dicts(p)))
    assert type(error) is type(error_dicts) and str(error) == str(error_dicts)
    assert by_batch.state_dict() == by_dicts.state_dict()
    if error is None:
        got = delivered.to_dicts(p, received=True)
        assert [sorted(inbox) for inbox in got] == [sorted(inbox) for inbox in recv]
        for mine, ref in zip(got, recv):
            for src in ref:
                assert _as_bytes(mine[src]) == _as_bytes(ref[src])
    return by_batch, error


# ----------------------------------------------------------------------
# the property
# ----------------------------------------------------------------------
_MESSAGE_KINDS = ("drop", "duplicate", "corrupt", "poison")


@st.composite
def exchanges(draw):
    p = draw(st.integers(1, 8))
    rank = st.integers(0, p - 1)
    pairs = draw(st.lists(st.tuples(rank, rank), unique=True, max_size=20))  # self-sends too
    sizes = draw(st.lists(st.integers(0, 5), min_size=len(pairs), max_size=len(pairs)))
    kind = draw(st.sampled_from(["both", "ids", "values"]))
    if pairs and draw(st.booleans()):  # one destination out of range
        i = draw(st.integers(0, len(pairs) - 1))
        bad = (pairs[i][0], draw(st.sampled_from([-1, p, p + 3])))
        if bad not in pairs:
            pairs[i] = bad
    batch = _batch(p, pairs, sizes, kind, np.random.default_rng(draw(st.integers(0, 2**16))))
    plan = None
    if draw(st.booleans()):
        maybe_rank = st.one_of(st.none(), rank)
        events = draw(
            st.lists(
                st.builds(
                    FaultEvent,
                    kind=st.sampled_from(_MESSAGE_KINDS),
                    src=maybe_rank,
                    dst=maybe_rank,
                    phase=st.sampled_from([None, "scatter", "gather"]),
                    count=st.integers(1, 3),
                ),
                max_size=4,
            )
        )
        plan = FaultPlan(events=tuple(events), max_retries=draw(st.integers(1, 3)))
    return p, batch, plan


class TestBatchEqualsDicts:
    @given(case=exchanges())
    @settings(max_examples=300, deadline=None)
    def test_twin_machines_cannot_tell(self, case):
        _assert_twins_agree(*case)

    def test_reply_walks_in_the_senders_order(self):
        """A transposed batch is in (dst, src) order; faults must still be
        applied source by source, as ``alltoallv`` walks its dicts."""
        p, rng = 4, np.random.default_rng(0)
        pairs = [(s, d) for s in range(p) for d in range(p) if s != d]
        request = _batch(p, pairs, [3] * len(pairs), "ids", rng)
        reply = request.reply(rng.normal(size=(6, request.ids.size)))
        plan = FaultPlan(
            events=(
                FaultEvent(kind="drop", count=2),
                FaultEvent(kind="corrupt", src=2),
                FaultEvent(kind="poison", dst=1),
            )
        )
        vm, error = _assert_twins_agree(p, reply, plan)
        assert error is None and vm.elapsed() > 0


# ----------------------------------------------------------------------
# failure semantics of the walk the count vectors replaced
# ----------------------------------------------------------------------
def _forms(p, batch):
    """The same exchange through both entry points."""
    return {
        "exchange(batch)": lambda vm: vm.exchange(batch),
        "alltoallv(dicts)": lambda vm: vm.alltoallv(batch.to_dicts(p)),
    }


@pytest.mark.parametrize("form", ["exchange(batch)", "alltoallv(dicts)"])
class TestFailureSemantics:
    P = 4
    PAIRS = [(0, 1), (0, 2), (1, 3), (2, 0), (3, 1)]
    SIZES = [2, 1, 4, 3, 5]

    def _send(self, form, pairs, plan=None):
        batch = _batch(self.P, pairs, self.SIZES, "both", np.random.default_rng(1))
        vm = VirtualMachine(self.P, MachineModel.cm5())
        if plan is not None:
            vm.install_faults(plan)
        return vm, batch, _forms(self.P, batch)[form]

    def _delivered_before(self, batch, upto):
        """Per-rank tallies of messages ``[0, upto)`` of a source-ordered batch."""
        sent = np.bincount(batch.src[:upto], minlength=self.P)
        recv = np.bincount(batch.dst[:upto], minlength=self.P)
        nbytes = batch.nbytes()[:upto]
        out = np.bincount(batch.src[:upto], weights=nbytes, minlength=self.P)
        return sent, recv, out

    def test_out_of_range_destination(self, form):
        pairs = list(self.PAIRS)
        pairs[2] = (1, 7)
        vm, batch, send = self._send(form, pairs)
        with vm.phase("scatter"), pytest.raises(InvalidRankError, match=r"rank 7 out of range \[0, 4\)"):
            send(vm)
        sent, recv, out = self._delivered_before(batch, 2)
        record = vm.stats.phase("scatter")
        assert np.array_equal(record.msgs_sent, sent) and np.array_equal(record.msgs_recv, recv)
        assert np.array_equal(record.bytes_sent, out)
        assert vm.elapsed() == 0.0  # a failed exchange is recorded, not charged

    def test_negative_destination(self, form):
        pairs = list(self.PAIRS)
        pairs[0] = (0, -1)
        vm, _, send = self._send(form, pairs)
        with pytest.raises(InvalidRankError, match=r"rank -1 out of range"):
            send(vm)
        assert vm.stats.phases() == []

    def test_message_lost(self, form):
        plan = FaultPlan(events=(FaultEvent(kind="drop", src=2, count=9),), max_retries=3)
        vm, batch, send = self._send(form, self.PAIRS, plan)
        with vm.phase("scatter"), pytest.raises(MessageLost):
            send(vm)
        sent, recv, out = self._delivered_before(batch, 3)  # rank 2's message is the fourth
        record = vm.stats.phase("scatter")
        assert np.array_equal(record.msgs_sent, sent) and np.array_equal(record.msgs_recv, recv)
        assert np.array_equal(record.bytes_sent, out)

    def test_empty_plan_looks_at_no_message(self, form, monkeypatch):
        vm, _, send = self._send(form, self.PAIRS, FaultPlan())
        monkeypatch.setattr(
            type(vm.fault_injector), "on_message", lambda *a, **k: pytest.fail("walked a message")
        )
        send(vm)
        assert vm.stats.phase("default").total_msgs == len(self.PAIRS)


# ----------------------------------------------------------------------
# the pooled router against the per-rank dict router it replaced
# ----------------------------------------------------------------------
@st.composite
def routings(draw):
    p = draw(st.integers(1, 7))
    counts = draw(st.lists(st.integers(0, 6), min_size=p, max_size=p))  # empty ranks too
    offsets = np.cumsum([0] + counts)
    src = np.repeat(np.arange(p), counts)
    mode = draw(st.sampled_from(["any", "self", "off"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if mode == "self" or p == 1:
        dest = src.copy()
    elif mode == "off":
        dest = (src + rng.integers(1, p, src.size)) % p
    else:
        dest = rng.integers(0, p, src.size)
    if src.size and draw(st.booleans()):  # one destination out of range
        dest[draw(st.integers(0, src.size - 1))] = draw(st.sampled_from([-1, p, p + 2]))
    rows = rng.normal(size=(src.size, 3))
    keys = rng.integers(0, 1000, src.size)
    plan = None
    if draw(st.booleans()):
        maybe_rank = st.one_of(st.none(), st.integers(0, p - 1))
        events = draw(
            st.lists(
                st.builds(
                    FaultEvent,
                    kind=st.sampled_from(_MESSAGE_KINDS),
                    src=maybe_rank,
                    dst=maybe_rank,
                    phase=st.sampled_from([None, "redistribution"]),
                    count=st.integers(1, 3),
                ),
                max_size=4,
            )
        )
        plan = FaultPlan(events=tuple(events), max_retries=draw(st.integers(1, 3)))
    return p, rows, keys, dest, offsets, plan


class TestPooledRouterEqualsDictRouter:
    @given(case=routings())
    @settings(max_examples=300, deadline=None)
    def test_pooled_router_matches_the_per_rank_router(self, case):
        p, rows, keys, dest, offsets, plan = case
        pooled, looped = _twins(p, plan)
        cut = offsets[1:-1]
        with pooled.phase("redistribution"), looped.phase("redistribution"):
            got, error = _run(
                lambda: exchange_by_destination_pooled(pooled, (rows.T, keys), dest, offsets)
            )
            ref, error_ref = _run(
                lambda: [
                    looped_exchange_by_destination(looped, np.split(a, cut), np.split(dest, cut))
                    for a in (rows, keys)
                ]
            )
        assert type(error) is type(error_ref)
        if isinstance(error, InvalidRankError):  # both name the first bad row
            bad = int(np.flatnonzero((dest < 0) | (dest >= p))[0])
            rank = int(np.searchsorted(offsets, bad, side="right") - 1)
            assert f"row {bad}: dest {dest[bad]}" in str(error)
            assert f"rank {rank} row {bad - offsets[rank]}:" in str(error_ref)
        else:
            assert str(error) == str(error_ref)
        assert pooled.state_dict() == looped.state_dict()
        if error is None:
            (got_columns, got_keys), got_offsets = got
            for delivered, expected in zip((got_columns.T, got_keys), ref):
                per_rank = np.split(delivered, got_offsets[1:-1])
                assert [_as_bytes(a) for a in per_rank] == [_as_bytes(a) for a in expected]
