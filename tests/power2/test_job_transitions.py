"""Job-transition sweeps: ``SP2Machine.snapshot_nodes`` / ``install_rates``.

The PBS prologue, epilogue and kill read and re-rate a job's whole
allocation as one row set on the shared counter store.  A machine built
under :func:`~repro.cluster.machine._scalar_accrual` runs the same calls
node by node on detached scalar nodes; the two must agree bit for bit —
the snapshot rows and every per-slot accumulator, rate, clock and busy
total — for a node subset, for every node (the full-sweep branch), for
a repeat at the same ``now`` and for a ``now`` that runs backwards.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.machine import SP2Machine, _scalar_accrual
from repro.power2.counters import BANK_SIZE, Mode

N_NODES = 8


def make_machines():
    """(store-backed machine, scalar-oracle machine) of the same size."""
    store = SP2Machine(N_NODES)
    with _scalar_accrual():
        scalar = SP2Machine(N_NODES)
    assert store.store is not None and scalar.store is None
    return store, scalar


def scalar_state(machine: SP2Machine) -> dict[str, np.ndarray]:
    """The scalar nodes' state laid out like the store's matrices."""
    values, rates, last, wall, busy, flag = [], [], [], [], [], []
    for node in machine.nodes:
        values.append(
            np.concatenate(
                [
                    node.monitor.banks[Mode.USER].raw_vector(),
                    node.monitor.banks[Mode.SYSTEM].raw_vector(),
                ]
            )
        )
        user = np.zeros(BANK_SIZE) if node._user_rates is None else node._user_rates
        rates.append(np.concatenate([user, node._system_rates]))
        last.append(node._last_sync)
        wall.append(node.wall_seconds)
        busy.append(node.busy_seconds)
        flag.append(1.0 if node._rates_busy else 0.0)
    return {
        "_values": np.array(values),
        "_rates": np.array(rates),
        "_last_sync": np.array(last),
        "_wall": np.array(wall),
        "_busy": np.array(busy),
        "_busy_flag": np.array(flag),
    }


def assert_same_state(store_machine: SP2Machine, scalar_machine: SP2Machine):
    expected = scalar_state(scalar_machine)
    for name, want in expected.items():
        got = getattr(store_machine.store, name)
        # tobytes is bit-exact (== would hide a ±0.0 difference).
        assert got.tobytes() == want.tobytes(), name


def rate_rows(seed: int):
    rng = np.random.default_rng(seed)
    return rng.random(BANK_SIZE) * 1e7, rng.random(BANK_SIZE) * 1e6


def both(machines, method, *args, **kwargs):
    return [getattr(m, method)(*args, **kwargs) for m in machines]


class TestTransitionsMatchOracle:
    def test_subset_prologue_epilogue(self):
        machines = make_machines()
        user, system = rate_rows(1)
        job = (1, 2, 5)
        rows = both(machines, "snapshot_nodes", job, 10.0)
        assert rows[0].dtype == np.int64 and rows[0].shape == (3, 2 * BANK_SIZE)
        both(machines, "install_rates", job, 10.0, user, system, busy=True)
        assert_same_state(*machines)
        rows = both(machines, "snapshot_nodes", job, 3700.5)
        assert rows[0].tobytes() == rows[1].tobytes()
        assert rows[0].any()
        both(machines, "install_rates", job, 3700.5)
        assert_same_state(*machines)

    def test_all_nodes_full_sweep(self):
        machines = make_machines()
        user, system = rate_rows(2)
        every = tuple(range(N_NODES))
        both(machines, "install_rates", (0, 3), 0.0, user, system, busy=True)
        both(machines, "install_rates", every, 50.0, user * 0.5, None, busy=True)
        rows = both(machines, "snapshot_nodes", every, 999.25)
        assert rows[0].tobytes() == rows[1].tobytes()
        assert_same_state(*machines)
        both(machines, "install_rates", every, 1500.0)
        rows = both(machines, "snapshot_nodes", every, 2000.0)
        assert rows[0].tobytes() == rows[1].tobytes()
        assert_same_state(*machines)

    def test_rows_follow_requested_order(self):
        machines = make_machines()
        user, system = rate_rows(3)
        for m in machines:
            for nid in range(N_NODES):
                m.install_rates((nid,), 0.0, user * (nid + 1), system, busy=True)
        backwards = tuple(reversed(range(N_NODES)))
        rows = both(machines, "snapshot_nodes", backwards, 100.0)
        assert rows[0].tobytes() == rows[1].tobytes()
        forwards = machines[0].snapshot_nodes(tuple(range(N_NODES)), 100.0)
        assert np.array_equal(rows[0], forwards[::-1])

    def test_repeat_at_same_now_is_a_no_op(self):
        machines = make_machines()
        user, system = rate_rows(4)
        job = (0, 4, 6, 7)
        both(machines, "install_rates", job, 5.0, user, system, busy=True)
        first = both(machines, "snapshot_nodes", job, 77.0)
        assert_same_state(*machines)
        before = machines[0].store._values.copy()
        again = both(machines, "snapshot_nodes", job, 77.0)
        both(machines, "install_rates", job, 77.0)
        assert machines[0].store._values.tobytes() == before.tobytes()
        for a, b in zip(first, again):
            assert a.tobytes() == b.tobytes()
        assert_same_state(*machines)

    def test_zero_dt_within_clock_tolerance(self):
        """A ``now`` a hair behind the clock (inside the 1e-9 slack) is
        a zero-dt sync: no accrual, but the clock still moves to ``now``
        on every row, exactly as on the scalar nodes."""
        machines = make_machines()
        user, system = rate_rows(5)
        job = (2, 3)
        both(machines, "install_rates", job, 100.0, user, system, busy=True)
        rows = both(machines, "snapshot_nodes", job, 100.0 - 5e-10)
        assert rows[0].tobytes() == rows[1].tobytes()
        assert_same_state(*machines)
        assert machines[0].store._last_sync[2] == 100.0 - 5e-10

    def test_backwards_now_raises(self):
        for machine in make_machines():
            machine.install_rates((1, 2), 100.0)
            with pytest.raises(ValueError, match="backwards"):
                machine.snapshot_nodes((1, 2), 50.0)
            with pytest.raises(ValueError, match="backwards"):
                machine.install_rates((2,), 50.0)
            with pytest.raises(ValueError, match="backwards"):
                machine.snapshot_nodes(tuple(range(N_NODES)), 50.0)

    def test_empty_node_set(self):
        machines = make_machines()
        for machine in machines:
            rows = machine.snapshot_nodes((), 10.0)
            assert rows.shape == (0, 2 * BANK_SIZE)
            machine.install_rates((), 10.0)
        assert_same_state(*machines)
        assert not machines[0].store._last_sync.any()


# One schedule step: advance by dt, then act on a node subset.
transitions = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
        st.sampled_from(["snapshot", "start", "idle"]),
        st.lists(st.integers(0, N_NODES - 1), min_size=0, max_size=N_NODES, unique=True),
        st.integers(0, 2**16),
        st.booleans(),
    ),
    min_size=1,
    max_size=10,
)


class TestRandomTransitions:
    @given(transitions)
    @settings(max_examples=60, deadline=None)
    def test_random_transition_schedules_bitwise_identical(self, schedule):
        machines = make_machines()
        now = 0.0
        for dt, action, nodes, seed, busy in schedule:
            now += dt
            ids = tuple(nodes)
            if action == "snapshot":
                rows = both(machines, "snapshot_nodes", ids, now)
                assert rows[0].tobytes() == rows[1].tobytes()
            elif action == "start":
                user, system = rate_rows(seed)
                both(machines, "install_rates", ids, now, user, system, busy=busy)
            else:
                both(machines, "install_rates", ids, now)
            assert_same_state(*machines)


class TestStoreInstall:
    """``CounterStore.install`` takes one slot or a slot set."""

    def test_slot_set_matches_one_slot_at_a_time(self):
        user, system = rate_rows(6)
        one, many = SP2Machine(N_NODES).store, SP2Machine(N_NODES).store
        for kwargs in (
            dict(user=user, system=system, busy=True),
            dict(user=None, system=None, busy=False),
            dict(user=user, system=None, busy=True),
        ):
            for slot in (1, 4, 6):
                one.install(slot, **kwargs)
            many.install([1, 4, 6], **kwargs)
            assert one._rates.tobytes() == many._rates.tobytes()
            assert one._busy_flag.tobytes() == many._busy_flag.tobytes()

    def test_empty_slot_set_is_a_no_op(self):
        user, system = rate_rows(7)
        store = SP2Machine(N_NODES).store
        rates, flag = store._rates.copy(), store._busy_flag.copy()
        store.install([], user, system, busy=True)
        assert store._rates.tobytes() == rates.tobytes()
        assert store._busy_flag.tobytes() == flag.tobytes()
