"""Cross-point batched GRAPE: bit-identity, lockstep semantics, planning.

The whole feature's contract is that batching is a pure execution-strategy
change: every per-point result — optimizer iterates, final amplitudes,
pulse-cache entries, session payloads — is bit-identical to the per-point
fan-out path.  These tests assert that contract at each layer: the stacked
evaluator vs the solo cost/gradient, the batch driver vs solo optimizations,
the planner's grouping, and a full batched session sweep against the same
points run one at a time (a singleton plan takes the per-point path).
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.core.grape import grape_cost_and_gradient
from repro.core.grape_batch import LockstepEvaluator, StackedClosedEvaluator
from repro.core.parametrization import TimeGrid, initial_amplitudes
from repro.experiments.gates import (
    GateExperimentConfig,
    optimize_gate_pulse,
    optimize_gate_pulse_batch,
)
from repro.qobj.gates import standard_gate_unitary
from repro.session import Session
from repro.session.planner import plan_specs
from repro.session.specs import GRAPESpec, SweepSpec
from repro.utils.validation import ValidationError


def _toy_model(d=3, n_ctrls=2, seed=0):
    rng = np.random.default_rng(seed)
    def herm():
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return (m + m.conj().T) / 2.0
    drift = herm()
    controls = [herm() for _ in range(n_ctrls)]
    targets = []
    for _ in range(4):
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        targets.append(q)
    return drift, controls, targets


class TestStackedClosedEvaluator:
    @pytest.mark.parametrize("subspace_dim", [None, 2])
    @pytest.mark.parametrize("gradient", ["exact", "approx"])
    def test_bit_identical_to_solo(self, subspace_dim, gradient):
        drift, controls, targets = _toy_model()
        dt, n_ts = 0.7, 9
        stacked = StackedClosedEvaluator(
            drift, controls, targets, dt,
            phase_option="PSU", gradient=gradient, subspace_dim=subspace_dim,
        )
        rng = np.random.default_rng(42)
        amps = [rng.normal(size=(len(controls), n_ts)) for _ in targets]
        batch = stacked.evaluate(amps, list(range(len(targets))))
        for a, target, (cost, grad) in zip(amps, targets, batch):
            solo_cost, solo_grad = grape_cost_and_gradient(
                drift, controls, a, dt, target,
                phase_option="PSU", gradient=gradient, subspace_dim=subspace_dim,
            )
            assert cost == solo_cost
            assert np.array_equal(grad, solo_grad)

    def test_partial_stack_still_bit_identical(self):
        drift, controls, targets = _toy_model(seed=3)
        stacked = StackedClosedEvaluator(drift, controls, targets, 0.5)
        rng = np.random.default_rng(7)
        amps = [rng.normal(size=(len(controls), 6)) for _ in range(2)]
        # evaluate a 2-point sub-stack of a 4-point evaluator
        batch = stacked.evaluate(amps, [1, 3])
        for a, idx, (cost, grad) in zip(amps, [1, 3], batch):
            solo_cost, solo_grad = grape_cost_and_gradient(
                drift, controls, a, 0.5, targets[idx], phase_option="PSU",
            )
            assert cost == solo_cost and np.array_equal(grad, solo_grad)

    def test_validation(self):
        drift, controls, targets = _toy_model()
        with pytest.raises(ValidationError):
            StackedClosedEvaluator(drift, controls, targets, 0.5, phase_option="XX")
        with pytest.raises(ValidationError):
            StackedClosedEvaluator(drift, controls, targets, 0.5, gradient="nope")
        with pytest.raises(ValidationError):
            StackedClosedEvaluator(drift, controls, [], 0.5)


class TestLockstepEvaluator:
    def test_retire_unblocks_survivors(self):
        drift, controls, targets = _toy_model(seed=5)
        stacked = StackedClosedEvaluator(drift, controls, targets[:2], 0.5)
        lockstep = LockstepEvaluator(stacked)
        rng = np.random.default_rng(1)
        amps = rng.normal(size=(len(controls), 6))
        out = {}

        def survivor():
            out["result"] = lockstep.for_point(0)(amps)

        thread = threading.Thread(target=survivor)
        thread.start()
        # point 0 is blocked until point 1 leaves the stack
        thread.join(timeout=0.3)
        assert thread.is_alive()
        lockstep.retire(1)
        thread.join(timeout=5)
        assert not thread.is_alive()
        cost, grad = out["result"]
        solo_cost, solo_grad = grape_cost_and_gradient(
            drift, controls, amps, 0.5, targets[0], phase_option="PSU",
        )
        assert cost == solo_cost and np.array_equal(grad, solo_grad)

    def test_error_fans_out_to_every_waiter(self):
        drift, controls, targets = _toy_model(seed=9)
        stacked = StackedClosedEvaluator(drift, controls, targets[:2], 0.5)
        lockstep = LockstepEvaluator(stacked)
        errors = []

        def point(i, amps):
            try:
                lockstep.for_point(i)(amps)
            except RuntimeError as exc:
                errors.append(exc)

        good = np.zeros((len(controls), 6))
        bad = np.zeros((len(controls) + 1, 6))  # control-count mismatch breaks the stack
        threads = [
            threading.Thread(target=point, args=(0, good)),
            threading.Thread(target=point, args=(1, bad)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert len(errors) == 2
        assert all(e.__cause__ is not None for e in errors)


class TestOptimizeGatePulseBatch:
    @pytest.fixture(scope="class")
    def configs(self):
        return [
            GateExperimentConfig(gate="x", qubits=(0,), duration_ns=105.0, n_ts=8,
                                 max_iter=30, seed=7),
            GateExperimentConfig(gate="sx", qubits=(0,), duration_ns=105.0, n_ts=8,
                                 max_iter=30, seed=11),
            GateExperimentConfig(gate="x", qubits=(0,), duration_ns=105.0, n_ts=8,
                                 max_iter=30, seed=23, init_pulse_type="RND"),
        ]

    def test_bit_identical_to_solo_runs(self, montreal_props, configs):
        solo = [optimize_gate_pulse(montreal_props, c) for c in configs]
        batch = optimize_gate_pulse_batch(montreal_props, configs)
        assert len(batch) == len(solo)
        for s, b in zip(solo, batch):
            assert np.array_equal(s.final_amps, b.final_amps)
            assert s.fid_err == b.fid_err
            assert s.fid_err_history == b.fid_err_history
            assert s.n_iter == b.n_iter and s.n_fun_evals == b.n_fun_evals
            assert s.termination_reason == b.termination_reason

    def test_mixed_models_fall_back_to_sequential(self, montreal_props, configs):
        mixed = [configs[0],
                 GateExperimentConfig(gate="x", qubits=(1,), duration_ns=105.0,
                                      n_ts=8, max_iter=30, seed=7)]
        fallback = optimize_gate_pulse_batch(montreal_props, mixed)
        solo = [optimize_gate_pulse(montreal_props, c) for c in mixed]
        for s, b in zip(solo, fallback):
            assert np.array_equal(s.final_amps, b.final_amps)

    def test_open_system_points_are_not_stacked(self, montreal_props):
        configs = [
            GateExperimentConfig(gate="x", qubits=(0,), duration_ns=60.0, n_ts=6,
                                 max_iter=5, seed=s, include_decoherence=True)
            for s in (1, 2)
        ]
        batch = optimize_gate_pulse_batch(montreal_props, configs)
        solo = [optimize_gate_pulse(montreal_props, c) for c in configs]
        for s, b in zip(solo, batch):
            assert np.array_equal(s.final_amps, b.final_amps)


class TestPlannerBatching:
    def _sweep(self, **base_overrides):
        base = GRAPESpec(device="montreal", gate="x", qubits=(0,), duration_ns=105.0,
                         n_ts=8, seed=7, **base_overrides)
        return SweepSpec(base=base, grid={"seed": (7, 11, 23)})

    def test_batchable_sweep_plans_one_batch_step(self):
        plan = plan_specs([self._sweep()])
        kinds = [s.kind for s in plan.steps]
        assert kinds.count("grape_batch") == 1
        assert kinds.count("grape") == 3
        batch = next(s for s in plan.steps if s.kind == "grape_batch")
        # the batch step orders before its member grape steps
        assert kinds.index("grape_batch") < kinds.index("grape")
        assert len(batch.payload) == 3
        assert sorted(plan.consumers[batch.key]) == [0, 1, 2]

    def test_open_system_and_non_lbfgs_points_stay_solo(self):
        for sweep in (self._sweep(include_decoherence=True), self._sweep(method="GRAPE")):
            plan = plan_specs([sweep])
            assert all(s.kind != "grape_batch" for s in plan.steps)


def _scrub(obj):
    """Drop run-volatile payload fields (wall clocks, store locations)."""
    if isinstance(obj, dict):
        return {
            k: _scrub(v)
            for k, v in obj.items()
            if k not in ("timings", "store_root", "wall_time", "trace")
        }
    if isinstance(obj, list):
        return [_scrub(v) for v in obj]
    return obj


class TestSessionBatchedSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return SweepSpec(
            base=GRAPESpec(device="montreal", gate="x", qubits=(0,), duration_ns=105.0,
                           n_ts=8, max_iter=25, seed=7),
            # the seed only feeds the RND initial pulse, so the grid varies
            # the DRAG start instead: four points, four distinct optimizations
            grid={"init_pulse_scale": (0.2, 0.25, 0.3, 0.4)},
        )

    def _run(self, sweep, root, per_point=False):
        """The sweep batched (``run_all``) or each point run on its own."""
        with Session(store=root, num_workers=1, trace_sink=False) as s:
            if per_point:
                result = [s.run(point) for point in sweep.expand()]
            else:
                result = s.run_all([sweep])[0]
            stats = s.stats_snapshot()
            batch_steps = sum(1 for key in s.prep_timings if key[0] == "grape_batch")
            fps = {
                point.fingerprint(): s.store.pulse_key(
                    point.cache_fingerprint(), s.properties_fingerprint_for(point.device)
                )
                for point in sweep.expand()
            }
            pulses = {fp: s.store.load_pulse(key) for fp, key in fps.items()}
        return result, stats, batch_steps, fps, pulses

    def test_batched_sweep_bit_identical_to_fan_out(self, sweep, tmp_path):
        solo, st_solo, steps_solo, keys_solo, pulses_solo = self._run(
            sweep, tmp_path / "solo", per_point=True
        )
        batched, st_bat, steps_bat, keys_bat, pulses_bat = self._run(sweep, tmp_path / "batched")
        # the two paths really differ: only the sweep stacks its points
        assert (steps_solo, steps_bat) == (0, 1)
        # identical per-point spec, payload and provenance (wall clocks,
        # paths and traces scrubbed), compared at full float precision
        def dump(obj):
            return json.dumps(_scrub(obj), sort_keys=True, default=lambda a: np.asarray(a).tolist())

        children = batched.payload["children"]
        assert len(children) == len(solo) == 4
        for point, child in zip(solo, children):
            point_doc = {"spec": point.spec, "payload": point.payload, "provenance": point.provenance}
            assert dump(point_doc) == dump(child)
        # identical pulse-cache keys and stored amplitudes
        assert keys_solo == keys_bat
        for fp, pulse in pulses_solo.items():
            assert pulse is not None and pulses_bat[fp] is not None
            assert np.array_equal(pulse.final_amps, pulses_bat[fp].final_amps)
            assert pulse.fid_err == pulses_bat[fp].fid_err
        # the points are distinct optimizations, so a mix-up between the
        # stacked rows would show as a mismatch above
        amps = [pulse.final_amps for pulse in pulses_bat.values()]
        assert len(amps) == 4
        for i in range(len(amps)):
            for j in range(i + 1, len(amps)):
                assert not np.array_equal(amps[i], amps[j])
        # both paths execute every point exactly once
        assert st_solo["executions"] == st_bat["executions"] == 4

    def test_warm_replay_after_batched_run(self, sweep, tmp_path):
        root = tmp_path / "warm"
        cold, _, _, _, pulses_cold = self._run(sweep, root)
        warm, stats, _, _, pulses_warm = self._run(sweep, root)
        assert stats["executions"] == 0
        # provenance legitimately differs (the replay records cache hits);
        # the experiment payloads must not
        def payload_only(obj):
            if isinstance(obj, dict):
                return {k: payload_only(v) for k, v in _scrub(obj).items() if k != "provenance"}
            if isinstance(obj, list):
                return [payload_only(v) for v in obj]
            return obj

        cold_children = [payload_only(c) for c in cold.payload["children"]]
        warm_children = [payload_only(c) for c in warm.payload["children"]]
        assert json.dumps(cold_children, sort_keys=True, default=str) == \
               json.dumps(warm_children, sort_keys=True, default=str)
        for fp, pulse in pulses_cold.items():
            assert np.array_equal(pulse.final_amps, pulses_warm[fp].final_amps)
