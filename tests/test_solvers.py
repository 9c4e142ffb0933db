"""Tests for the dynamics solvers (expm utilities, propagators, sesolve, mesolve)."""

import numpy as np
import pytest
import scipy.linalg as la

from repro.qobj import basis, ket2dm, sigmam, sigmax, sigmay, sigmaz, x_gate
from repro.qobj.random import random_hermitian
from repro.solvers import (
    expm_frechet_hermitian,
    expm_hermitian,
    expm_unitary_step,
    mesolve,
    propagator,
    pwc_cumulative_propagators,
    pwc_liouvillian_total,
    pwc_step_propagators,
    pwc_total_propagator,
    rk4_integrate,
    sesolve,
)
from repro.solvers.expm_utils import (
    expm_batch,
    expm_frechet_hermitian_multi,
    expm_hermitian_batch,
    hermitian_eig_batch,
)
from repro.solvers.propagator import assemble_pwc_hamiltonians, chain_propagator_product
from repro.utils.linalg import is_unitary
from repro.utils.validation import ValidationError

X = sigmax(as_array=True)
Y = sigmay(as_array=True)
Z = sigmaz(as_array=True)


class TestExpm:
    def test_expm_hermitian_matches_scipy(self):
        h = random_hermitian(5, seed=0)
        assert np.allclose(expm_hermitian(h, scale=-1j * 0.37), la.expm(-1j * 0.37 * h))

    def test_expm_unitary_step_is_unitary(self):
        u = expm_unitary_step(random_hermitian(4, seed=1), 0.2)
        assert is_unitary(u)

    def test_frechet_matches_finite_difference(self):
        h = random_hermitian(3, seed=2)
        e = random_hermitian(3, seed=3)
        dt = 0.31
        _, du = expm_frechet_hermitian(h, e, dt)
        eps = 1e-6
        fd = (la.expm(-1j * dt * (h + eps * e)) - la.expm(-1j * dt * (h - eps * e))) / (2 * eps)
        assert np.allclose(du, fd, atol=1e-6)

    def test_frechet_degenerate_eigenvalues(self):
        h = np.zeros((2, 2), dtype=complex)  # fully degenerate spectrum
        e = X
        dt = 0.5
        _, du = expm_frechet_hermitian(h, e, dt)
        fd = (la.expm(-1j * dt * (h + 1e-6 * e)) - la.expm(-1j * dt * (h - 1e-6 * e))) / 2e-6
        assert np.allclose(du, fd, atol=1e-6)

    def test_frechet_multi_consistent(self):
        h = random_hermitian(4, seed=4)
        dirs = [random_hermitian(4, seed=5), random_hermitian(4, seed=6)]
        u, dus = expm_frechet_hermitian_multi(h, dirs, 0.2)
        for d, du in zip(dirs, dus):
            u_single, du_single = expm_frechet_hermitian(h, d, 0.2)
            assert np.allclose(u, u_single)
            assert np.allclose(du, du_single)



def _hermitian_stack(n: int = 6, d: int = 4, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    return (m + np.conj(np.swapaxes(m, -1, -2))) / 2.0


def _general_stack(n: int = 5, d: int = 4, seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))


class TestBatchedKernels:
    def test_kernels_bit_identical_to_preseam_formulas(self):
        """Each batched kernel's output equals the inlined NumPy computation."""
        herm = _hermitian_stack()
        evals, evecs = hermitian_eig_batch(herm)
        ref_evals, ref_evecs = np.linalg.eigh(herm.astype(complex))
        assert np.array_equal(evals, ref_evals)
        assert np.array_equal(evecs, ref_evecs)

        scale = -1j * 0.02
        phases = np.exp(scale * ref_evals)
        ref_steps = np.matmul(
            ref_evecs * phases[..., None, :], np.conj(np.swapaxes(ref_evecs, -1, -2))
        )
        assert np.array_equal(expm_hermitian_batch(herm, scale=scale), ref_steps)

        # chain product: one np.matmul per pairwise reduction level
        mats = ref_steps
        while mats.shape[0] > 1:
            half = mats.shape[0] // 2
            reduced = np.matmul(mats[1 : 2 * half : 2], mats[0 : 2 * half : 2])
            if mats.shape[0] % 2:
                reduced = np.concatenate([reduced, mats[-1:]])
            mats = reduced
        assert np.array_equal(chain_propagator_product(ref_steps), mats[0])

    def test_expm_batch_matches_scipy_per_slice(self):
        gen = _general_stack() * 0.3
        batched = expm_batch(gen)
        for k in range(gen.shape[0]):
            assert np.allclose(batched[k], la.expm(gen[k]), atol=1e-12)

class TestPWCPropagators:
    def test_assemble_hamiltonians(self):
        amps = np.array([[0.1, 0.2], [0.3, 0.4]])
        h = assemble_pwc_hamiltonians(Z, [X, Y], amps)
        assert h.shape == (2, 2, 2)
        assert np.allclose(h[1], Z + 0.2 * X + 0.4 * Y)

    def test_amp_shape_validation(self):
        with pytest.raises(ValidationError):
            assemble_pwc_hamiltonians(Z, [X], np.zeros((2, 5)))

    def test_constant_x_drive_pi_pulse(self):
        # H = (pi/2/T) X for time T gives X up to phase
        T, n = 10.0, 20
        amp = np.full((1, n), 1.0)
        ctrl = (np.pi / 2 / T) * X
        u = pwc_total_propagator(np.zeros((2, 2)), [ctrl], amp, T / n)
        assert abs(np.trace(u.conj().T @ x_gate())) / 2 == pytest.approx(1.0)

    def test_step_propagators_unitary(self):
        amps = np.random.default_rng(0).uniform(-1, 1, size=(2, 6))
        steps = pwc_step_propagators(Z, [X, Y], amps, 0.3)
        for u in steps:
            assert is_unitary(u)

    def test_cumulative_products(self):
        amps = np.random.default_rng(1).uniform(-1, 1, size=(2, 5))
        steps = pwc_step_propagators(Z, [X, Y], amps, 0.2)
        forward, backward = pwc_cumulative_propagators(steps)
        total = pwc_total_propagator(Z, [X, Y], amps, 0.2)
        assert np.allclose(forward[-1], total)
        # backward[k] @ forward[k] == total for every k
        for k in range(len(steps)):
            assert np.allclose(backward[k] @ forward[k], total, atol=1e-10)

    def test_liouvillian_total_matches_unitary_when_no_cops(self):
        amps = np.random.default_rng(2).uniform(-0.5, 0.5, size=(1, 4))
        u = pwc_total_propagator(Z, [X], amps, 0.1)
        s = pwc_liouvillian_total(Z, [X], amps, 0.1, c_ops=())
        from repro.qobj.superop import unitary_superop

        assert np.allclose(s, unitary_superop(u), atol=1e-8)

    def test_propagator_time_independent(self):
        u = propagator(0.5 * np.pi * X, 1.0)
        assert abs(np.trace(u.conj().T @ (-1j * X))) / 2 == pytest.approx(1.0)

    def test_propagator_with_cops_is_superop(self):
        s = propagator(Z, 1.0, c_ops=[0.1 * sigmam(as_array=True)])
        assert s.shape == (4, 4)


class TestSesolve:
    def test_rabi_oscillation(self):
        """Resonant drive: P1(t) = sin^2(Omega t / 2)."""
        omega = 0.2
        h = 0.5 * omega * X
        times = np.linspace(0, 40, 81)
        res = sesolve(h, basis(2, 0), times=times, e_ops=[ket2dm(basis(2, 1)).data])
        p1 = res.expect[0].real
        assert np.allclose(p1, np.sin(omega * times / 2) ** 2, atol=1e-4)

    def test_pwc_and_callable_agree(self):
        amps = np.array([[0.3, -0.2, 0.5, 0.1]])
        dt = 1.5
        res_pwc = sesolve((Z * 0.1, [0.2 * X], amps), basis(2, 0), dt=dt)

        def h_of_t(t):
            k = min(int(t // dt), 3)
            return Z * 0.1 + amps[0, k] * 0.2 * X

        times = np.arange(5) * dt
        res_call = sesolve(h_of_t, basis(2, 0), times=times, substeps=64)
        assert np.allclose(res_pwc.final_state, res_call.final_state, atol=5e-4)

    def test_norm_preserved(self):
        amps = np.random.default_rng(3).uniform(-1, 1, size=(2, 10))
        res = sesolve((Z, [X, Y], amps), basis(2, 0), dt=0.2)
        for state in res.states:
            assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-10)

    def test_unitary_evolution_of_identity(self):
        amps = np.array([[0.4, 0.4]])
        res = sesolve((np.zeros((2, 2)), [X], amps), np.eye(2), dt=1.0)
        assert is_unitary(res.final_state)

    def test_requires_times_for_callable(self):
        with pytest.raises(ValidationError):
            sesolve(lambda t: Z, basis(2, 0))


class TestMesolve:
    def test_t1_decay(self):
        t1 = 50.0
        c = np.sqrt(1.0 / t1) * sigmam(as_array=True)
        amps = np.zeros((1, 40))
        res = mesolve(
            (np.zeros((2, 2)), [X], amps),
            basis(2, 1),
            dt=2.0,
            c_ops=[c],
            e_ops=[ket2dm(basis(2, 1)).data],
        )
        times = res.times
        assert np.allclose(res.expect[0].real, np.exp(-times / t1), atol=1e-3)

    def test_t2_dephasing(self):
        gamma_phi = 0.02
        c = np.sqrt(2 * gamma_phi) * np.diag([0.0, 1.0]).astype(complex)
        amps = np.zeros((1, 30))
        plus = (basis(2, 0, as_array=True) + basis(2, 1, as_array=True)) / np.sqrt(2)
        res = mesolve((np.zeros((2, 2)), [X], amps), plus, dt=1.0, c_ops=[c], e_ops=[X])
        assert np.allclose(res.expect[0].real, np.exp(-gamma_phi * res.times), atol=1e-3)

    def test_trace_and_positivity_preserved(self):
        amps = np.random.default_rng(4).uniform(-0.3, 0.3, size=(2, 10))
        c = 0.05 * sigmam(as_array=True)
        res = mesolve((Z * 0.2, [X, Y], amps), basis(2, 0), dt=1.0, c_ops=[c])
        for rho in res.states:
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
            assert np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))) > -1e-9

    def test_matches_sesolve_without_cops(self):
        amps = np.random.default_rng(5).uniform(-0.5, 0.5, size=(1, 8))
        se = sesolve((Z, [X], amps), basis(2, 0), dt=0.4)
        me = mesolve((Z, [X], amps), basis(2, 0), dt=0.4)
        rho_pure = se.final_state @ se.final_state.conj().T
        assert np.allclose(me.final_state, rho_pure, atol=1e-9)

    def test_steady_state_thermalization_to_ground(self):
        c = np.sqrt(0.5) * sigmam(as_array=True)
        amps = np.zeros((1, 50))
        res = mesolve((np.zeros((2, 2)), [X], amps), basis(2, 1), dt=1.0, c_ops=[c])
        assert res.final_state[0, 0].real == pytest.approx(1.0, abs=1e-6)


class TestRK4:
    def test_exponential_decay(self):
        times = np.linspace(0, 2, 21)
        out = rk4_integrate(lambda t, y: -y, np.array([1.0 + 0j]), times, substeps=4)
        assert np.allclose([o[0] for o in out], np.exp(-times), atol=1e-6)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            rk4_integrate(lambda t, y: y, np.array([1.0]), np.array([0.0, 0.0, 1.0]))
