import gc
import math
import weakref

import numpy as np
import pytest
import scipy.linalg

import mqcsim.evolution
from mqcsim import (
    AllToAll,
    Axis,
    Chain,
    EigenBasis,
    ExplicitCouplings,
    InvalidParameter,
    OperatorKind,
    build_system,
    collective_pulse,
    dq_cycle,
    evolve,
    hamiltonian_matrix,
    krylov_expmv,
    pulse_matrix,
    unitarity_defect,
)

from mqcsim.spins import magnetization_sectors, parity_sectors
from oracles import (aht_error, dense_hdq, dense_operator, dq_cycle_direct, dq_cycle_steps,
                     random_couplings, random_state)

UP, DOWN = 1, 0


def bits(*spins):
    return sum(b << i for i, b in enumerate(spins))


@pytest.fixture
def sys4():
    rng = np.random.default_rng(40)
    return build_system(ExplicitCouplings(random_couplings(4, rng)), 4)


class TestEvolve:
    def test_hdq_fixed_point(self):
        system = build_system(AllToAll(d0=1.0), 2)
        psi = np.zeros(4, dtype=complex)
        psi[bits(UP, DOWN)] = 1.0
        out = evolve(psi, system, OperatorKind.HDQ, 0.83)
        assert np.allclose(out, psi, atol=1e-12)

    def test_two_spin_density_cosine(self):
        # Iz under Hdq: diagonal +-cos(dt), (uu,dd) magnitude sin(dt)
        system = build_system(AllToAll(d0=1.0), 2)
        t = 0.37
        rho = np.diag(system.magnetization).astype(complex)
        out = evolve(rho, system, OperatorKind.HDQ, t)
        assert out[bits(UP, UP), bits(UP, UP)] == pytest.approx(np.cos(t), abs=1e-12)
        assert out[bits(DOWN, DOWN), bits(DOWN, DOWN)] == pytest.approx(
            -np.cos(t), abs=1e-12
        )
        assert abs(out[bits(UP, UP), bits(DOWN, DOWN)]) == pytest.approx(
            np.sin(t), abs=1e-12
        )
        # brute-force dense exponential agrees
        u = scipy.linalg.expm(-1j * dense_hdq(system.couplings) * t)
        assert np.max(np.abs(out - u @ rho @ u.conj().T)) < 1e-12

    @pytest.mark.parametrize("n", range(2, 8))
    @pytest.mark.parametrize("kind", [OperatorKind.IZ_TOTAL, OperatorKind.IX_TOTAL,
                                      OperatorKind.IY_TOTAL])
    def test_collective_kinds_rotate_in_closed_form(self, n, kind):
        # vectors and densities against expm of the kron-built operator,
        # with no eigenbasis or other table built on the way
        rng = np.random.default_rng(n)
        system = build_system(ExplicitCouplings(random_couplings(n, rng)), n)
        psi = random_state(n, rng)
        rho = np.outer(psi, psi.conj()) + np.diag(rng.normal(size=system.dim))
        for t in (-2.3, 0.7, 5.1):
            u = scipy.linalg.expm(-1j * t * dense_operator(kind.value, system.couplings, n))
            for method in ("auto", "eigen"):
                out = evolve(psi, system, kind, t, method=method)
                assert np.max(np.abs(out - u @ psi)) < 1e-12
            out = evolve(rho, system, kind, t)
            assert np.max(np.abs(out - u @ rho @ u.conj().T)) < 1e-12
        assert not system._tables

    def test_norm_preserved_under_hzz(self, sys4):
        rng = np.random.default_rng(0)
        psi = random_state(4, rng)
        out = evolve(psi, sys4, OperatorKind.HZZ, 1.7)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_composition(self, sys4):
        rng = np.random.default_rng(1)
        psi = random_state(4, rng)
        once = evolve(psi, sys4, OperatorKind.HDQ, 0.9)
        twice = evolve(
            evolve(psi, sys4, OperatorKind.HDQ, 0.4), sys4, OperatorKind.HDQ, 0.5
        )
        assert np.max(np.abs(once - twice)) < 1e-10

    def test_reversal_loschmidt(self, sys4):
        rng = np.random.default_rng(2)
        rho = np.outer(*(2 * [random_state(4, rng)])).astype(complex)
        rho = rho + rho.conj().T
        back = evolve(
            evolve(rho, sys4, OperatorKind.HZZ, 0.8), sys4, OperatorKind.HZZ, -0.8
        )
        assert np.max(np.abs(back - rho)) < 1e-10

    def test_eigen_and_krylov_agree_n8(self):
        rng = np.random.default_rng(8)
        system = build_system(ExplicitCouplings(random_couplings(8, rng)), 8)
        psi = random_state(8, rng)
        a = evolve(psi, system, OperatorKind.HDQ, 0.6, method="eigen")
        b = evolve(psi, system, OperatorKind.HDQ, 0.6, method="krylov")
        assert np.max(np.abs(a - b)) < 1e-8

    def test_krylov_long_time(self, sys4):
        # bt ~ 210 with the Weyl bound: some 275 series terms whose Bessel
        # coefficients must cancel to the result
        rng = np.random.default_rng(3)
        psi = random_state(4, rng)
        out = krylov_expmv(sys4, OperatorKind.HZZ, psi, 40.0)
        ref = evolve(psi, sys4, OperatorKind.HZZ, 40.0, method="eigen")
        assert np.max(np.abs(out - ref)) < 1e-7

    def test_krylov_term_count(self, monkeypatch):
        # Hdq at N=8 to t=1.6: the Weyl bound b = 8.07 takes 40 operator
        # applications where Gershgorin's sum_{i<j} |d_ij| / 2 = 13.0 took 52
        rng = np.random.default_rng(8)
        system = build_system(ExplicitCouplings(random_couplings(8, rng, 0.5, 1.5)), 8)
        psi = random_state(8, rng)
        calls = []
        apply = mqcsim.evolution.apply_operator

        def counted(*args):
            calls.append(args[0])
            return apply(*args)

        monkeypatch.setattr(mqcsim.evolution, "apply_operator", counted)
        krylov_expmv(system, OperatorKind.HDQ, psi, 1.6)
        assert calls == [OperatorKind.HDQ] * 40

    def test_krylov_density(self, sys4, monkeypatch):
        # above EIGEN_MAX_DIM vectors take Krylov, densities stay on the eigenbasis
        monkeypatch.setattr(mqcsim.evolution, "EIGEN_MAX_DIM", sys4.dim // 2)
        calls = []
        krylov = mqcsim.evolution.krylov_expmv

        def counted(*args):
            calls.append(args)
            return krylov(*args)

        monkeypatch.setattr(mqcsim.evolution, "krylov_expmv", counted)
        psi = random_state(4, np.random.default_rng(5))
        rho = evolve(np.outer(psi, psi.conj()), sys4, OperatorKind.HDQ, 0.5)
        assert calls == []
        out = evolve(psi, sys4, OperatorKind.HDQ, 0.5)
        assert len(calls) == 1
        assert np.max(np.abs(rho - np.outer(out, out.conj()))) < 1e-8
        with pytest.raises(ValueError, match="state vectors only"):
            evolve(rho, sys4, OperatorKind.HDQ, 0.5, method="krylov")

    @pytest.mark.parametrize("route, obj, t", [
        ("eigen", "psi", np.nan), ("krylov", "psi", np.inf),
        ("eigen", "bad_psi", 0.5), ("krylov", "bad_psi", 0.5),
        ("auto", "rho", np.nan), ("auto", "bad_rho", 0.5),
        ("expmv", "psi", np.nan), ("expmv", "bad_psi", 0.5),
    ])
    def test_non_finite_input_rejected(self, sys4, monkeypatch, route, obj, t):
        psi = random_state(4, np.random.default_rng(9))
        objs = {"psi": psi, "bad_psi": psi.copy(), "rho": np.outer(psi, psi.conj())}
        objs["bad_psi"][3] = np.nan
        objs["bad_rho"] = objs["rho"].copy()
        objs["bad_rho"][2, 5] = np.inf

        def no_work(*args):
            pytest.fail("operator applied before the input was checked")

        monkeypatch.setattr(mqcsim.evolution, "apply_operator", no_work)
        with pytest.raises(ValueError, match="finite"):
            if route == "expmv":
                krylov_expmv(sys4, OperatorKind.HDQ, objs[obj], t)
            else:
                evolve(objs[obj], sys4, OperatorKind.HDQ, t, method=route)

    @pytest.mark.parametrize("shape", [(16, 2), (16, 1), (8,), ()],
                             ids=["block", "column", "short", "scalar"])
    def test_krylov_expmv_rejects_non_vector(self, sys4, monkeypatch, shape):
        # the series recurrence would carry a (D, k) block through silently
        def no_work(*args):
            pytest.fail("operator applied before the shape was checked")

        monkeypatch.setattr(mqcsim.evolution, "apply_operator", no_work)
        with pytest.raises(InvalidParameter, match="shape") as exc:
            krylov_expmv(sys4, OperatorKind.HDQ, np.ones(shape, dtype=complex), 0.5)
        assert exc.value.name == "v"


class TestCollectivePulse:
    def test_pi_half_y_maps_iz_to_ix(self, sys4):
        iz = np.diag(sys4.magnetization).astype(complex)
        ix = hamiltonian_matrix(sys4, OperatorKind.IX_TOTAL)
        out = collective_pulse(iz, Axis.Y, np.pi / 2)
        assert np.max(np.abs(out - ix)) < 1e-12

    def test_two_pi_is_identity_on_densities(self):
        # odd N: the state picks up a global -1, which cancels on rho
        rng = np.random.default_rng(6)
        system = build_system(ExplicitCouplings(random_couplings(3, rng)), 3)
        rho = np.diag(system.magnetization).astype(complex)
        rho = collective_pulse(rho, Axis.Y, 0.4)  # something non-diagonal
        for axis in Axis:
            out = collective_pulse(rho, axis, 2 * np.pi)
            assert np.max(np.abs(out - rho)) < 1e-12
        psi = random_state(3, rng)
        flipped = collective_pulse(psi, Axis.X, 2 * np.pi)
        assert np.max(np.abs(flipped + psi)) < 1e-12  # global phase -1

    def test_pi_x_inverts_iz(self, sys4):
        iz = np.diag(sys4.magnetization).astype(complex)
        out = collective_pulse(iz, Axis.X, np.pi)
        assert np.max(np.abs(out + iz)) < 1e-12

    def test_matches_dense_pulse_matrix(self):
        rng = np.random.default_rng(7)
        psi = random_state(5, rng)
        for axis in Axis:
            u = pulse_matrix(axis, 0.93, 5)
            assert np.max(np.abs(collective_pulse(psi, axis, 0.93) - u @ psi)) < 1e-12

    @pytest.mark.parametrize("axis", list(Axis))
    def test_closed_form_matches_expm(self, axis):
        # steps of pi/8; expm, the reference, is itself off by up to about
        # 1e-15 at some angles, where the closed form is exact to an ulp
        for angle in np.linspace(-4 * np.pi, 4 * np.pi, 65):
            expected = scipy.linalg.expm(-1j * angle * mqcsim.evolution._AXIS_OP[axis])
            assert np.max(np.abs(mqcsim.evolution._pulse_u2(axis, angle) - expected)) < 1e-15

    @pytest.mark.parametrize("angle", [np.nan, np.inf])
    def test_non_finite_angle_rejected(self, angle):
        for build in (lambda: pulse_matrix(Axis.X, angle, 3),
                      lambda: collective_pulse(np.eye(8), Axis.X, angle)):
            with pytest.raises(ValueError, match="finite"):
                build()


class TestPrograms:
    """The eight-pulse cycle, the one pulse program the package builds."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_matches_step_by_step_oracle(self, n, sign):
        couplings = random_couplings(n, np.random.default_rng(n), 100.0, 2000.0)
        system = build_system(ExplicitCouplings(couplings), n)
        steps = dq_cycle_steps(3e-6, 8e-6)
        assert sum(t for what, t in steps if what == "delay") == pytest.approx(60e-6)
        assert [what for what, _ in steps].count("pulse") == 8
        expected = dq_cycle_direct(couplings, 3e-6, 8e-6, sign)
        assert np.max(np.abs(dq_cycle(system, 3e-6, 8e-6, sign) - expected)) < 1e-12

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_propagator_unitarity(self, n):
        rng = np.random.default_rng(n)
        system = build_system(
            ExplicitCouplings(random_couplings(n, rng, 100.0, 2000.0)), n
        )
        prop = dq_cycle(system)
        assert unitarity_defect(prop) < 1e-10


class TestAhtError:
    def test_error_vanishes_with_scale(self):
        system = build_system(Chain(d0=1.0), 4)
        errs = [
            aht_error(OperatorKind.HDQ, system, s)
            for s in (400.0, 50.0, 1e-3)
        ]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-9

    @pytest.mark.parametrize("n", [4, 6])
    def test_leading_order_scaling(self, n):
        # halving the couplings quarters the defect in the small-coupling regime
        system = build_system(AllToAll(d0=1.0), n)
        scale = 500.0  # d0 * tau_dq = 0.03
        e1 = aht_error(OperatorKind.HDQ, system, scale)
        e2 = aht_error(OperatorKind.HDQ, system, scale / 2)
        assert e2 / e1 == pytest.approx(0.25, abs=0.0625)

    def test_reversed_block_realizes_minus_hdq(self):
        system = build_system(AllToAll(d0=1.0), 4)
        # target exp(+i*Hdq*T) = exp(-i*(-Hdq)*T)
        err = aht_error(OperatorKind.HDQ, system, 500.0, sign=-1)
        # same leading-order quality as the forward block
        fwd = aht_error(OperatorKind.HDQ, system, 500.0)
        assert err == pytest.approx(fwd, rel=0.2)


class TestEigenBasisCache:
    def test_one_basis_per_system_and_kind(self):
        system = build_system(Chain(d0=1.0), 4)
        basis = EigenBasis.compute(system, OperatorKind.HZZ)
        assert EigenBasis.compute(system, OperatorKind.HZZ) is basis
        assert EigenBasis.compute(system, OperatorKind.HDQ) is not basis
        twin = build_system(Chain(d0=1.0), 4)
        assert EigenBasis.compute(twin, OperatorKind.HZZ) is not basis

    def test_entry_goes_with_its_system(self):
        # the basis lives among the system's tables, and nothing else holds it
        system = build_system(Chain(d0=1.0), 4)
        basis = weakref.ref(EigenBasis.compute(system, OperatorKind.HZZ))
        assert basis() is not None
        del system
        gc.collect()
        assert basis() is None

    @pytest.mark.parametrize("kind", [OperatorKind.IZ_TOTAL, OperatorKind.IX_TOTAL,
                                      OperatorKind.IY_TOTAL])
    def test_collective_kinds_have_no_eigenbasis(self, sys4, kind):
        with pytest.raises(InvalidParameter, match="collective_pulse") as exc:
            EigenBasis.compute(sys4, kind)
        assert exc.value.name == "kind"


class TestParitySectors:
    """The invariants behind the sector-wise eigenbasis and MQC pass."""

    @pytest.mark.parametrize("n", [2, 3, 5, 6])
    def test_sectors_split_by_popcount_parity(self, n):
        even, odd = parity_sectors(n)
        assert even.size == odd.size == 1 << (n - 1)
        assert sorted(np.concatenate([even, odd])) == list(range(1 << n))
        assert all(int(b).bit_count() % 2 == 0 for b in even)
        assert all(int(b).bit_count() % 2 == 1 for b in odd)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize(
        "kind", [OperatorKind.HZZ, OperatorKind.HDQ, OperatorKind.IZ_TOTAL]
    )
    def test_generator_has_exact_zeros_between_sectors(self, n, kind):
        rng = np.random.default_rng(n)
        system = build_system(ExplicitCouplings(random_couplings(n, rng)), n)
        even, odd = parity_sectors(n)
        h = hamiltonian_matrix(system, kind)
        assert not np.any(h[np.ix_(even, odd)])
        assert not np.any(h[np.ix_(odd, even)])

    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("mismatch", [0.0, 0.05])
    def test_compiled_dq_block_conserves_parity(self, n, sign, mismatch):
        # in the toggling frame Hzz becomes Hyy, which also flips spins in
        # pairs, and the eight pulses rotate by the identity in total
        rng = np.random.default_rng(10 * n)
        couplings = random_couplings(n, rng, 100.0, 2000.0) * (1.0 + mismatch)
        system = build_system(ExplicitCouplings(couplings), n)
        u = dq_cycle(system, sign=sign)
        even, odd = parity_sectors(n)
        assert np.max(np.abs(u[np.ix_(even, odd)])) < 1e-12
        assert np.max(np.abs(u[np.ix_(odd, even)])) < 1e-12
        # the block does mix within a sector, so the check above has teeth
        assert np.max(np.abs(u[np.ix_(even, even)] - np.eye(even.size))) > 1e-3


class TestMagnetizationSectors:
    """Hzz and Iz keep the popcount, so their eigenbases split N+1 ways."""

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_sectors_split_by_popcount(self, n):
        sectors = magnetization_sectors(n)
        assert [s.size for s in sectors] == [math.comb(n, k) for k in range(n + 1)]
        assert sorted(np.concatenate(sectors)) == list(range(1 << n))
        assert all(int(b).bit_count() == k for k, s in enumerate(sectors) for b in s)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    @pytest.mark.parametrize("kind", [OperatorKind.HZZ, OperatorKind.IZ_TOTAL])
    def test_generator_has_exact_zeros_between_sectors(self, n, kind):
        rng = np.random.default_rng(n)
        system = build_system(ExplicitCouplings(random_couplings(n, rng, -1.5, 1.5)), n)
        sectors = magnetization_sectors(n)
        h = hamiltonian_matrix(system, kind)
        for a, rows in enumerate(sectors):
            for b, cols in enumerate(sectors):
                if a != b:
                    assert not np.any(h[np.ix_(rows, cols)]), (a, b)

    @pytest.mark.parametrize("n", [3, 6])
    def test_eigenbasis_sectors(self, n):
        system = build_system(Chain(d0=1.0), n)
        assert len(EigenBasis.compute(system, OperatorKind.HZZ).sectors) == n + 1
        assert len(EigenBasis.compute(system, OperatorKind.HDQ).sectors) == 2


class TestHdqFlipBasis:
    """Hdq's eigenbasis through the global flip X: one sector eigh at odd N,
    where X swaps the sectors, and two X-parity halves per sector at even N."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_sector_eigenpairs(self, n, monkeypatch):
        sizes = []
        eigh = scipy.linalg.eigh

        def counted(a, *args, **kwargs):
            sizes.append(a.shape[0])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", counted)
        couplings = random_couplings(n, np.random.default_rng(n), -1.5, 1.5)
        basis = EigenBasis.compute(
            build_system(ExplicitCouplings(couplings), n), OperatorKind.HDQ)
        half = 1 << (n - 1)
        assert sizes == ([half] if n % 2 else [half // 2] * 4)
        h = dense_operator("dq", couplings, n)
        assert len(basis.sectors) == 2
        for s, w, v in zip(basis.sectors, basis.eigenvalues, basis.eigenvectors):
            assert v.shape == (s.size, s.size)
            assert np.linalg.norm(h[np.ix_(s, s)] @ v - v * w) <= 1e-12
            assert np.linalg.norm(v.T @ v - np.eye(s.size)) <= 1e-12
            assert np.all(np.diff(w) >= 0)


class TestSectorBlocks:
    """hamiltonian_matrix on a list of states, the route every eigenbasis
    assembles through, against the kron-built oracle and the full matrix."""

    FAMILIES = {
        "all": lambda n: [np.arange(1 << n)],
        "parity": parity_sectors,
        "magnetization": magnetization_sectors,
    }

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("family", list(FAMILIES))
    @pytest.mark.parametrize("kind", list(OperatorKind))
    def test_block_is_the_cut_of_the_full_matrix(self, n, family, kind):
        couplings = random_couplings(n, np.random.default_rng(7 * n), -1.5, 1.5)
        system = build_system(ExplicitCouplings(couplings), n)
        dense = dense_operator(kind.value, couplings, n)
        full = hamiltonian_matrix(system, kind)
        for s in self.FAMILIES[family](n):
            block = hamiltonian_matrix(system, kind, s)
            assert block.dtype == full.dtype
            assert np.max(np.abs(block - dense[np.ix_(s, s)])) <= 1e-14
            assert np.array_equal(block, full[np.ix_(s, s)])

    @pytest.mark.parametrize("states", [
        np.array([1, 0]), np.array([0, 0]), np.array([-1, 2]), np.array([3, 16]),
        np.array([0.0, 1.0]), np.array([[0, 1]]),
    ], ids=["decreasing", "repeated", "negative", "beyond-D", "float", "2d"])
    def test_rejects_states_that_are_not_increasing_indices(self, sys4, states):
        with pytest.raises(InvalidParameter) as exc:
            hamiltonian_matrix(sys4, OperatorKind.HDQ, states)
        assert exc.value.name == "states"

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("kind", [OperatorKind.HZZ, OperatorKind.HDQ])
    def test_every_eigenbasis_assembles_through_the_hooked_kernel(self, monkeypatch, n, kind):
        # a benchmark check scales mqcsim.evolution.apply_operator to catch a
        # wrong kernel: every basis must see that name, so its eigenvalues
        # scale with it
        couplings = random_couplings(n, np.random.default_rng(n), -1.5, 1.5)
        plain = EigenBasis.compute(build_system(ExplicitCouplings(couplings), n), kind)
        kernel = mqcsim.evolution.apply_operator
        monkeypatch.setattr(mqcsim.evolution, "apply_operator",
                            lambda *args: 1.001 * kernel(*args))
        scaled = EigenBasis.compute(build_system(ExplicitCouplings(couplings), n), kind)
        for w, w_scaled in zip(plain.eigenvalues, scaled.eigenvalues, strict=True):
            assert np.max(np.abs(w_scaled - 1.001 * w)) <= 1e-12
        assert max(np.max(np.abs(w)) for w in plain.eigenvalues) > 0.1
