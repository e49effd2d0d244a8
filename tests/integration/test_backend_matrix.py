"""Campaign-level oracle equivalence: the seed × accrual path × worker matrix.

Production campaigns accrue counters in one shared store
(:mod:`repro.power2.batch`); the detached per-node scalar path is the
differential oracle.  For any seed and any shard plan, the two must
produce byte-identical ``--json`` output at every worker count.  This is
the system-level counterpart of the per-node property tests in
``tests/power2/test_batch_equivalence.py``.

Serial and sharded campaigns are *different experiments* (the shard plan
changes the trace realization the way a different seed would), so each
is compared within its own plan group.
"""

from __future__ import annotations

import pytest

from repro.analysis.export import dataset_to_json
from repro.cluster.machine import SP2Machine, _scalar_accrual
from repro.core.study import StudyConfig, run_study
from repro.faults.profile import PROFILES
from repro.parallel import run_parallel_study

SEEDS = [0, 1, 2, 3, 4]
SMALL = dict(n_days=2, n_nodes=16, n_users=6)


def _serial_json(seed: int, **kwargs) -> str:
    return dataset_to_json(run_study(seed, **SMALL, **kwargs))


def _sharded_json(seed: int, workers: int) -> str:
    ds = run_parallel_study(StudyConfig(seed=seed, **SMALL), workers=workers, shard_days=1)
    return dataset_to_json(ds)


def test_seam_detaches_the_store():
    assert SP2Machine(2).store is not None
    with _scalar_accrual():
        machine = SP2Machine(2)
    assert machine.store is None
    assert all(node._store is None for node in machine.nodes)
    assert SP2Machine(2).store is not None


class TestSerialMatrix:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_scalar_and_vectorized_serial_runs_identical(self, seed):
        with _scalar_accrual():
            oracle = _serial_json(seed)
        assert _serial_json(seed) == oracle


class TestShardedMatrix:
    @pytest.fixture(autouse=True)
    def _fork_workers(self, monkeypatch):
        # Forked workers inherit the oracle seam from the parent process.
        monkeypatch.setenv("REPRO_MP_START", "fork")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_backend_and_worker_count_invariant(self, seed):
        """{scalar oracle, store} × {1, 4 workers}: one byte pattern."""
        with _scalar_accrual():
            reference = _sharded_json(seed, workers=1)
            assert _sharded_json(seed, workers=4) == reference
        assert _sharded_json(seed, workers=1) == reference
        assert _sharded_json(seed, workers=4) == reference


class TestFaultedCampaigns:
    def test_backends_identical_under_fault_injection(self):
        """Crash/repair schedules (counter freezes, unreachable nodes,
        requeues) accrue identically on the store and the oracle."""
        faulted = dict(fault_profile=PROFILES["pathological"])
        with _scalar_accrual():
            oracle = run_study(7, **SMALL, **faulted)
        assert oracle.faults is not None and len(oracle.faults.events) > 0
        assert _serial_json(7, **faulted) == dataset_to_json(oracle)


class TestCliSurface:
    def test_unknown_backend_rejected(self, capsys):
        """The accrual path is not a user option: the old flag exits 2."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["--accrual-backend", "scalar"])
        assert exc.value.code == 2
        assert "--accrual-backend" in capsys.readouterr().err
