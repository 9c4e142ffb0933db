"""Conformance suite: every registered spec kind passes the shared contract.

Parametrized over :func:`repro.session.specs.registered_spec_kinds` through
the :mod:`tests.harness.spec_contract` battery, so a newly registered spec
class is pulled into these tests automatically — and fails loudly until it
gets a :data:`~tests.harness.spec_contract.EXAMPLES` entry.
"""

from __future__ import annotations

import dataclasses
import multiprocessing

import pytest

from repro.session import Session, plan_specs
from repro.session.specs import (
    ExperimentSpec,
    registered_spec_kinds,
    spec_from_dict,
)
from repro.utils.validation import ValidationError

from tests.harness import spec_contract as contract

ALL_KINDS = sorted(registered_spec_kinds())


def test_examples_cover_every_registered_kind():
    """Registering a spec kind obliges a conformance example for it."""
    assert set(contract.EXAMPLES) == set(registered_spec_kinds())


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_roundtrip(kind):
    contract.check_roundtrip(contract.EXAMPLES[kind].spec)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_fingerprint_stability(kind):
    contract.check_fingerprint_stability(contract.EXAMPLES[kind].spec)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_fingerprint_sensitivity(kind):
    contract.check_fingerprint_sensitivity(contract.EXAMPLES[kind])


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_cache_fingerprint_excludes_execution_knobs(kind):
    contract.check_cache_fingerprint_excludes_execution_knobs(
        contract.EXAMPLES[kind].spec
    )


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_unknown_key_rejected(kind):
    contract.check_unknown_key_rejection(contract.EXAMPLES[kind].spec)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_warm_replay_zero_executions(kind, tmp_path):
    """A second session over the same store replays without any work."""
    stats = contract.run_warm_replay_check(kind, tmp_path / "store")
    assert stats["executions"] == 0
    assert stats["prep_builds"] == 0


def test_warm_replay_under_spawn_start_method(tmp_path):
    """The replay contract holds in a spawn-context child process.

    CI runs tier-1 under both fork and spawn via ``REPRO_MP_START``; this
    test pins the harness itself to the stricter start method regardless
    of the ambient default, proving the store/counter machinery carries
    no fork-only state.
    """
    ctx = multiprocessing.get_context("spawn")
    proc = ctx.Process(
        target=contract.run_warm_replay_check, args=("rb", str(tmp_path / "store"))
    )
    proc.start()
    proc.join(timeout=300)
    assert proc.exitcode == 0, f"spawned replay check failed (exit {proc.exitcode})"


class TestNegativeControl:
    """A deliberately broken spec class must fail the battery."""

    def test_lenient_from_dict_is_caught(self):
        @dataclasses.dataclass(frozen=True)
        class LenientDemoSpec(ExperimentSpec):
            kind = "lenient_demo"
            knob: int = 1

            @classmethod
            def from_dict(cls, data):
                # broken on purpose: silently drops unknown keys
                fields = {f.name for f in dataclasses.fields(cls)}
                return cls(**{k: v for k, v in data.items() if k in fields})

        with contract.temporary_spec_kind(LenientDemoSpec):
            spec = LenientDemoSpec()
            assert spec_from_dict(spec.to_dict()) == spec
            with pytest.raises(AssertionError, match="unknown key"):
                contract.check_unknown_key_rejection(spec)
        assert "lenient_demo" not in registered_spec_kinds()

    def test_strict_demo_passes_then_unregisters(self):
        @dataclasses.dataclass(frozen=True)
        class StrictDemoSpec(ExperimentSpec):
            kind = "strict_demo"
            knob: int = 1

        with contract.temporary_spec_kind(StrictDemoSpec):
            contract.check_roundtrip(StrictDemoSpec(knob=3))
            contract.check_unknown_key_rejection(StrictDemoSpec(knob=3))
        assert "strict_demo" not in registered_spec_kinds()
        with pytest.raises(ValidationError):
            spec_from_dict({"kind": "strict_demo", "knob": 3})

    def test_kind_without_plan_or_executor_is_refused(self):
        @dataclasses.dataclass(frozen=True)
        class UnplannedDemoSpec(ExperimentSpec):
            kind = "unplanned_demo"
            knob: int = 1

        @dataclasses.dataclass(frozen=True)
        class UnexecutableDemoSpec(ExperimentSpec):
            kind = "unexecutable_demo"
            knob: int = 1

            def prep_steps(self):
                return []

        with contract.temporary_spec_kind(UnplannedDemoSpec):
            demo = UnplannedDemoSpec()
            with pytest.raises(ValidationError, match="cannot plan spec of kind 'unplanned_demo'"):
                plan_specs([demo])
            with Session(store=None, trace_sink=False) as session:
                with pytest.raises(ValidationError, match="cannot plan spec of kind 'unplanned_demo'"):
                    session.run(demo)
                assert session.stats["prep_builds"] == 0
        with contract.temporary_spec_kind(UnexecutableDemoSpec):
            demo = UnexecutableDemoSpec()
            assert plan_specs([demo]).steps == []
            with Session(store=None, trace_sink=False) as session:
                with pytest.raises(
                    ValidationError, match="cannot execute spec of kind 'unexecutable_demo'"
                ):
                    session.run(demo)
                assert session.stats["prep_builds"] == 0
                assert session.stats["executions"] == 0
