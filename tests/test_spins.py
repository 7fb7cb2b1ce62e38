import itertools
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import mqcsim.spins
from mqcsim import (
    AllToAll,
    CapExceeded,
    Chain,
    ExplicitCouplings,
    InvalidParameter,
    Lattice3D,
    OperatorKind,
    SpinSystem,
    apply_operator,
    build_system,
)
from mqcsim.spins import _zz_diagonal

from oracles import dense_operator, pair_action, random_couplings, random_state

UP, DOWN = 1, 0


def bits(*spins):
    """State index from per-spin values, spin 0 first."""
    return sum(b << i for i, b in enumerate(spins))


class TestBuildSystem:
    def test_all_to_all_two_spins(self):
        system = build_system(AllToAll(d0=1.0), 2)
        assert system.couplings[0, 1] == 1.0
        assert np.all(np.diag(system.couplings) == 0.0)

    def test_identity_equality_and_hash(self):
        # systems are cache keys: equal only to themselves, whatever their couplings
        system = build_system(Chain(d0=1.0), 3)
        twin = build_system(Chain(d0=1.0), 3)
        assert system == system
        assert system != twin
        assert hash(system) == hash(system)
        assert len({system, twin, system}) == 2

    def test_chain_dipolar_power(self):
        system = build_system(Chain(d0=1.0, exponent=3), 3)
        assert system.couplings[0, 2] == pytest.approx(1.0 / 8.0)
        assert system.couplings[0, 1] == pytest.approx(1.0)

    def test_lattice_2x2x2_nearest_neighbors(self):
        # brute-force enumeration of pair distances on the unit cube
        sites = list(itertools.product(range(2), repeat=3))
        expected = np.zeros((8, 8))
        for a in range(8):
            for b in range(8):
                if a == b:
                    continue
                r = sum(abs(x - y) for x, y in zip(sites[a], sites[b]))
                if r <= 1.5:
                    expected[a, b] = 1.0 / r**3
        system = build_system(Lattice3D(d0=1.0, cutoff=1.5), 8)
        assert np.allclose(system.couplings, expected)
        # each spin couples to exactly its 3 nearest neighbors at distance 1
        assert np.all((system.couplings > 0).sum(axis=0) == 3)
        assert np.all(system.couplings[system.couplings > 0] == 1.0)

    def test_spin_count_limited_by_memory_budget_only(self, monkeypatch):
        # a system of any size builds; its first table refuses over budget
        assert build_system(AllToAll(d0=1.0), 15).magnetization.size == 1 << 15
        monkeypatch.setattr(mqcsim.spins, "MEMORY_BUDGET", 10**6)
        system = build_system(AllToAll(d0=1.0), 15)
        with pytest.raises(CapExceeded, match="the 15-spin vector path needs"):
            system.magnetization  # noqa: B018

    def test_huge_spin_count_refused_without_a_huge_integer(self):
        # the N x N coupling matrix is counted, 8 N**2 bytes, and no 1 << N
        with pytest.raises(CapExceeded, match="coupling matrix needs [0-9]+ bytes"):
            build_system(AllToAll(d0=1.0), 2**62)

    @pytest.mark.parametrize("build", [
        lambda: build_system(AllToAll(d0=1.0), 20),
        lambda: SpinSystem(n_spins=20, couplings=np.ones((20, 20)) - np.eye(20)),
    ], ids=["build_system", "SpinSystem"])
    def test_construction_allocates_no_table(self, build):
        # a 2**20 table would be 8 MB; the tables come on first use
        tracemalloc.start()
        try:
            system = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert not system._tables

    def test_huge_lattice_shape_lists_only_the_sites_it_uses(self):
        small = build_system(Lattice3D(d0=1.0, cutoff=2.0, shape=(2, 2, 2)), 4)
        huge = build_system(Lattice3D(d0=1.0, cutoff=2.0, shape=(10**12, 2, 2)), 4)
        assert np.array_equal(huge.couplings, small.couplings)

    def test_extreme_chain_exponent(self):
        # the power under- or overflows in float64; an infinite coupling is refused
        system = build_system(Chain(d0=1.0, exponent=1e308), 3)
        assert np.array_equal(system.couplings, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        with pytest.raises(InvalidParameter, match="finite") as exc:
            build_system(Chain(d0=1.0, exponent=-1e308), 3)
        assert exc.value.name == "couplings"

    def test_asymmetry_beyond_float_range_rejected(self):
        bad = np.array([[0.0, 1e308], [-1e308, 0.0]])
        with pytest.raises(InvalidParameter, match="symmetric") as exc:
            build_system(ExplicitCouplings(bad), 2)
        assert exc.value.name == "couplings"

    @pytest.mark.parametrize(
        "geometry",
        [AllToAll(d0=0.0), AllToAll(d0=-1.0), Chain(d0=-2.0),
         Lattice3D(d0=1.0, cutoff=0.0), Lattice3D(d0=-1.0, cutoff=2.0),
         Lattice3D(d0=1.0, cutoff=np.nan)],
    )
    def test_invalid_geometry(self, geometry):
        with pytest.raises(InvalidParameter, match="must be positive") as exc:
            build_system(geometry, 4)
        # each geometry has one parameter out of range
        assert exc.value.name == ("d0" if geometry.d0 <= 0 else "cutoff")

    @pytest.mark.parametrize(
        "geometry",
        [AllToAll(d0=np.inf), AllToAll(d0=np.nan),
         ExplicitCouplings(np.array([[0.0, np.nan], [np.nan, 0.0]]))],
    )
    def test_non_finite_couplings_rejected(self, geometry):
        with pytest.raises(InvalidParameter, match="couplings must be finite") as exc:
            build_system(geometry, 2)
        assert exc.value.name == "couplings"

    def test_explicit_asymmetric_rejected(self):
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(InvalidParameter, match="symmetric") as exc:
            build_system(ExplicitCouplings(bad), 2)
        assert exc.value.name == "couplings"

    @pytest.mark.parametrize("n_spins", [1, 0, -1, True, 2.0])
    def test_spin_count_rejected(self, n_spins):
        # the system itself refuses fewer than 2 spins, as build_system does
        with pytest.raises(InvalidParameter) as exc:
            SpinSystem(n_spins=n_spins, couplings=np.zeros((1, 1)))
        assert exc.value.name == "n_spins"

    def test_explicit_nonzero_diagonal_rejected(self):
        bad = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(InvalidParameter, match="diagonal") as exc:
            build_system(ExplicitCouplings(bad), 2)
        assert exc.value.name == "couplings"


class TestBasis:
    def test_magnetization_popcount(self):
        mz = build_system(AllToAll(d0=1.0), 3).magnetization
        assert mz[bits(UP, UP, DOWN)] == pytest.approx(0.5)
        assert mz[0] == pytest.approx(-1.5)
        assert mz[7] == pytest.approx(1.5)

    def test_tables_built_once_and_kept(self):
        system = build_system(Chain(d0=1.0), 4)
        assert system.magnetization is system.magnetization
        assert _zz_diagonal(system) is _zz_diagonal(system)
        assert set(system._tables) == {"magnetization", "zz-diagonal"}


class TestApplyOperator:
    def test_hdq_annihilates_antialigned_pair(self):
        system = build_system(AllToAll(d0=1.0), 2)
        state = np.zeros(4, dtype=complex)
        state[bits(UP, DOWN)] = 1.0
        out = apply_operator(OperatorKind.HDQ, system, state)
        assert np.allclose(out, 0.0)

    def test_hdq_flips_aligned_pair(self):
        system = build_system(AllToAll(d0=1.0), 2)
        state = np.zeros(4, dtype=complex)
        state[bits(DOWN, DOWN)] = 1.0
        out = apply_operator(OperatorKind.HDQ, system, state)
        expected = np.zeros(4, dtype=complex)
        expected[bits(UP, UP)] = -0.5
        assert np.allclose(out, expected)

    def test_iz_diagonal(self):
        system = build_system(AllToAll(d0=1.0), 3)
        state = np.zeros(8, dtype=complex)
        state[bits(UP, UP, DOWN)] = 1.0
        out = apply_operator(OperatorKind.IZ_TOTAL, system, state)
        assert np.allclose(out, 0.5 * state)

    def test_dimension_mismatch(self):
        system = build_system(AllToAll(d0=1.0), 3)
        with pytest.raises(InvalidParameter, match="shape") as exc:
            apply_operator(OperatorKind.IZ_TOTAL, system, np.zeros(4))
        assert exc.value.name == "state"

    @pytest.mark.parametrize("shape", [(), (8, 2, 1)], ids=["scalar", "3d"])
    def test_rejects_state_that_is_not_a_vector_or_block(self, shape):
        system = build_system(AllToAll(d0=1.0), 3)
        with pytest.raises(InvalidParameter, match="shape") as exc:
            apply_operator(OperatorKind.HDQ, system, np.ones(shape))
        assert exc.value.name == "state"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    @pytest.mark.parametrize("shape, order", [((8,), "C"), ((8, 2), "C"), ((8, 3), "F")],
                             ids=["vector", "block", "fortran-block"])
    def test_rejects_non_finite_state(self, bad, shape, order):
        system = build_system(AllToAll(d0=1.0), 3)
        state = np.ones(shape, dtype=complex, order=order)
        state[5] = bad
        with pytest.raises(InvalidParameter, match="state"):
            apply_operator(OperatorKind.HZZ, system, state)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_accepts_finite_state_whose_sum_overflows(self, dtype):
        # the finiteness check sums the state first; an overflow is not a NaN
        system = build_system(AllToAll(d0=1.0), 3)
        state = np.full((8, 2), 1e308, dtype=dtype)
        out = apply_operator(OperatorKind.IZ_TOTAL, system, state)
        assert np.array_equal(out, system.magnetization[:, None] * state)

    @pytest.mark.parametrize("kind", list(OperatorKind))
    def test_empty_block(self, kind):
        # the finiteness check reduces over the block, which has no elements
        system = build_system(AllToAll(d0=1.0), 3)
        assert apply_operator(kind, system, np.zeros((8, 0))).shape == (8, 0)

    @pytest.mark.parametrize("kind", list(OperatorKind))
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_matches_dense_oracle(self, kind, n):
        rng = np.random.default_rng(n * 100 + len(kind.value))
        system = build_system(ExplicitCouplings(random_couplings(n, rng)), n)
        dense = dense_operator(kind.value, system.couplings, n)
        via_apply = apply_operator(kind, system, np.eye(2**n, dtype=complex))
        assert np.max(np.abs(via_apply - dense)) < 1e-12

    @pytest.mark.parametrize("kind", [OperatorKind.HZZ, OperatorKind.HDQ])
    def test_hermiticity_on_random_states(self, kind):
        rng = np.random.default_rng(11)
        system = build_system(ExplicitCouplings(random_couplings(5, rng)), 5)
        for _ in range(10):
            psi = random_state(5, rng)
            chi = random_state(5, rng)
            lhs = np.vdot(chi, apply_operator(kind, system, psi))
            rhs = np.conj(np.vdot(psi, apply_operator(kind, system, chi)))
            assert abs(lhs - rhs) < 1e-12

    def test_sector_rules(self):
        rng = np.random.default_rng(3)
        n = 5
        system = build_system(ExplicitCouplings(random_couplings(n, rng)), n)
        mz = system.magnetization
        for m in (-1.5, -0.5, 0.5):
            sel = mz == m
            psi = np.zeros(2**n, dtype=complex)
            psi[sel] = random_state(n, rng)[sel]
            # Hzz preserves the magnetization sector exactly
            out = apply_operator(OperatorKind.HZZ, system, psi)
            assert np.all(out[~sel] == 0.0)
            # Hdq maps it into m +- 2 only
            out = apply_operator(OperatorKind.HDQ, system, psi)
            outside = ~(np.isclose(mz, m + 2) | np.isclose(mz, m - 2))
            assert np.max(np.abs(out[outside])) < 1e-14

    def test_stacked_columns_match_single_vectors(self):
        # the kernel treats every column on its own, also across the pair
        # kernel's column chunks: a column of a block is, bit for bit, that
        # column applied alone
        rng = np.random.default_rng(5)
        system = build_system(ExplicitCouplings(random_couplings(8, rng, -1.5, 1.5)), 8)
        complex_block = rng.normal(size=(256, 7)) + 1j * rng.normal(size=(256, 7))
        for kind in OperatorKind:
            for block in (complex_block, rng.normal(size=(256, 13))):
                stacked = apply_operator(kind, system, block)
                for c in range(block.shape[1]):
                    single = apply_operator(kind, system, block[:, c])
                    assert np.array_equal(stacked[:, c], single), (kind, c)


def gather_apply(kind, system, state):
    """The mask-and-gather form of the kernel: per spin or pair, index
    arrays select the affected states and gather their flipped partners."""
    idx = np.arange(system.dim)
    col = (slice(None),) + (None,) * (state.ndim - 1)
    if kind == OperatorKind.IZ_TOTAL:
        return system.magnetization[col] * state
    if kind in (OperatorKind.IX_TOTAL, OperatorKind.IY_TOTAL):
        out = np.zeros_like(state)
        for i in range(system.n_spins):
            flipped = idx ^ (1 << i)
            if kind == OperatorKind.IX_TOTAL:
                out += 0.5 * state[flipped]
            else:
                coeff = np.where((idx >> i) & 1 == 1, -0.5j, 0.5j)
                out += coeff[col] * state[flipped]
        return out
    out = _zz_diagonal(system)[col] * state if kind == OperatorKind.HZZ else np.zeros_like(state)
    for i, j in zip(*np.triu_indices(system.n_spins, 1)):
        d = system.couplings[i, j]
        if d == 0.0:
            continue
        same = ((idx >> int(i)) & 1) == ((idx >> int(j)) & 1)
        sel = idx[~same if kind == OperatorKind.HZZ else same]
        out[sel] += (-0.5 * d) * state[sel ^ ((1 << int(i)) | (1 << int(j)))]
    return out


PAIR_KINDS = (OperatorKind.HZZ, OperatorKind.HDQ)


class TestTensorKernel:
    # The single-spin kinds add a state's terms spin by spin, as the gather
    # form does. The pair kinds add them part by part of the kernel's split
    # (low and cross pairs, then high pairs), so they keep the gather form's
    # order, and its bits, only where no part holds two terms of one state:
    # up to N = 3 with the pair (0, N-1) dropped.
    @pytest.mark.parametrize("n, kind", [(n, kind) for n in (2, 3, 5, 7) for kind in OperatorKind
                                         if n <= 3 or kind not in PAIR_KINDS])
    def test_bit_identical_to_gather_kernel(self, kind, n):
        # the same addends in the same order for every element: equal bits.
        # A real state stays real for every kind but Iy, with the real part
        # of the complex result
        for expected, out in self._cases(kind, n):
            assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n, kind", [(n, kind) for n in (5, 7) for kind in PAIR_KINDS])
    def test_pair_kinds_match_gather_kernel_to_roundoff(self, kind, n):
        # the same addends in another order: equal to a few ulps of the
        # largest element, with the same exact zeros
        for expected, out in self._cases(kind, n):
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(out - expected)) <= 4 * np.finfo(float).eps * scale
            assert np.array_equal(out == 0, expected == 0)

    @staticmethod
    def _cases(kind, n):
        """(gather-form result, kernel result) for a vector, a block, a
        Fortran-ordered block and a real block, with the pair (0, n-1)
        dropped."""
        rng = np.random.default_rng(n)
        couplings = random_couplings(n, rng)
        couplings[0, n - 1] = couplings[n - 1, 0] = 0.0  # a dropped pair
        system = build_system(ExplicitCouplings(couplings), n)
        block = rng.normal(size=(system.dim, 3)) + 1j * rng.normal(size=(system.dim, 3))
        for state in (block[:, 0], block, np.asfortranarray(block), block.real):
            expected = gather_apply(kind, system, state.astype(complex))
            out = apply_operator(kind, system, state)
            if np.isrealobj(state) and kind != OperatorKind.IY_TOTAL:
                expected = expected.real
            assert out.dtype == expected.dtype
            yield expected, out


class TestPairKernel:
    """The split pair kernel of Hzz and Hdq against the tensor-product oracle,
    which shares no code with it, and against the sector rules."""

    @pytest.mark.parametrize("kind", PAIR_KINDS)
    @pytest.mark.parametrize("n", range(2, 12))
    def test_matches_tensor_oracle(self, kind, n):
        # N = 2 and 3 leave one spin on the low side of the split; couplings
        # of both signs, every third pair exactly zero
        rng = np.random.default_rng(100 + n)
        couplings = random_couplings(n, rng, -1.5, 1.5)
        iu, ju = np.triu_indices(n, 1)
        couplings[iu[::3], ju[::3]] = couplings[ju[::3], iu[::3]] = 0.0
        system = build_system(ExplicitCouplings(couplings), n)
        block = rng.normal(size=(system.dim, 3)) + 1j * rng.normal(size=(system.dim, 3))
        for state in (block, block[:, 0], block.real, block.real[:, 0]):
            expected = pair_action(kind.value, couplings, state)
            assert np.max(np.abs(apply_operator(kind, system, state) - expected)) <= 1e-13
        if n <= 6:  # the oracle itself against the kron-built matrix
            dense = dense_operator(kind.value, couplings, n)
            assert np.max(np.abs(pair_action(kind.value, couplings, block) - dense @ block)) <= 1e-13

    def test_concurrent_first_uses(self):
        # threads that build the factors at once each get a correct result,
        # and the system keeps one set of factors per kind
        n = 8
        rng = np.random.default_rng(9)
        couplings = random_couplings(n, rng, -1.5, 1.5)
        system = build_system(ExplicitCouplings(couplings), n)
        psi = random_state(n, rng)
        results = {}

        def work(k):
            results[k] = apply_operator(OperatorKind.HDQ, system, psi)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(k,)) for k in range(6)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        expected = pair_action("dq", couplings, psi)
        assert all(np.max(np.abs(r - expected)) <= 1e-13 for r in results.values())
        # Hdq has no diagonal and needs no magnetization: neither is built
        assert len(results) == 6 and list(system._tables) == [("pair-factors", OperatorKind.HDQ)]

    def test_exact_zeros_outside_the_reached_sectors(self):
        # at N = 8 the split has cross pairs; from one magnetization sector
        # Hzz reaches only that sector and Hdq only m +- 2, with exact zeros
        n = 8
        rng = np.random.default_rng(8)
        system = build_system(ExplicitCouplings(random_couplings(n, rng, -1.5, 1.5)), n)
        mz = system.magnetization
        for m in np.unique(mz):
            psi = np.where(mz == m, random_state(n, rng), 0.0)
            assert np.all(apply_operator(OperatorKind.HZZ, system, psi)[mz != m] == 0.0)
            reached = np.abs(mz - m) == 2
            assert np.all(apply_operator(OperatorKind.HDQ, system, psi)[~reached] == 0.0)

