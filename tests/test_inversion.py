import numpy as np
import pytest
from scipy.optimize import nnls

import mqcsim.inversion
from mqcsim import (
    IllConditionedWarning,
    InvalidParameter,
    NoFeasibleSolution,
    NoPeaks,
    analyze,
    fit_power_law,
    invert,
    make_kernel_problem,
    mixture_second_moment,
)
from mqcsim.inversion import (
    _discrepancy_alpha,
    _find_peaks,
    _second_difference,
    _solve_tikhonov_nnls,
)

from fixtures import (
    BIMODAL_ORDERS,
    BIMODAL_S,
    BIMODAL_W,
    SPECTRUM_NOISE,
    bimodal_clean,
    bimodal_noisy,
    single_gaussian_fit,
)


@pytest.fixture(autouse=True)
def _quiet_expected_conditioning_warning():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        yield


class TestKernelProblem:
    def test_kernel_entries_in_unit_interval(self):
        prob = make_kernel_problem(np.arange(0, 20, 2.0), np.ones(10))
        assert np.all(prob.kernel > 0.0)
        assert np.all(prob.kernel <= 1.0)
        assert np.all(np.diff(prob.size_grid) > 0)
        assert prob.kernel[0] == pytest.approx(1.0)  # k = 0 row

    def test_validation(self):
        with pytest.raises(ValueError):
            make_kernel_problem(np.array([-2.0, 0.0]), np.ones(2))
        with pytest.raises(ValueError):
            make_kernel_problem(np.array([0.0, 2.0]), np.ones(3))
        with pytest.raises(ValueError):
            make_kernel_problem(np.array([0.0, 2.0]), np.ones(2), n_grid=4)
        with pytest.raises(ValueError):
            make_kernel_problem(np.array([0.0, 2.0]), np.ones(2), noise_estimate=-1.0)
        for orders, data, noise in (([0.0, 2.0], [1.0, np.nan], 0.0),
                                    ([0.0, np.inf], [1.0, 0.5], 0.0),
                                    ([0.0, 2.0], [1.0, 0.5], np.nan)):
            with pytest.raises(ValueError, match="finite"):
                make_kernel_problem(np.array(orders), np.array(data), noise_estimate=noise)

    def test_condition_number_warning(self):
        import warnings

        prob = make_kernel_problem(BIMODAL_ORDERS, bimodal_clean())
        assert np.linalg.cond(prob.kernel) > 1e12
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            invert(prob, alpha=1.0)
        assert any(issubclass(w.category, IllConditionedWarning) for w in caught)


class TestInvert:
    def test_delta_truth_recovered(self):
        orders = BIMODAL_ORDERS
        data = np.exp(-(orders**2) / 100.0)
        prob = make_kernel_problem(orders, data, noise_estimate=1e-8)
        dist = invert(prob)
        an = analyze(dist)
        assert len(an.peaks) == 1
        grid_step = dist.size_grid[1] / dist.size_grid[0]
        assert 100.0 / grid_step <= an.peaks[0][0] <= 100.0 * grid_step
        # the front of a delta-like distribution sits at its location
        assert 100.0 / grid_step**2 <= an.front_97 <= 100.0 * grid_step**2

    def test_pure_noise_gives_near_zero_mass(self):
        rng = np.random.default_rng(1)
        eps = 0.01
        data = np.abs(rng.normal(0.0, eps, BIMODAL_ORDERS.size))
        prob = make_kernel_problem(BIMODAL_ORDERS, data, noise_estimate=eps)
        dist = invert(prob)
        assert dist.total_mass < 5 * eps

    def test_all_zero_data_rejected(self):
        prob = make_kernel_problem(BIMODAL_ORDERS, np.zeros(BIMODAL_ORDERS.size))
        with pytest.raises(NoFeasibleSolution):
            invert(prob)

    def test_nonnegativity_exact(self):
        dist = invert(
            make_kernel_problem(
                BIMODAL_ORDERS, bimodal_noisy(3), noise_estimate=SPECTRUM_NOISE
            )
        )
        assert np.all(dist.f >= 0.0)
        assert np.any(dist.f == 0.0)  # active set, not clipped values

    def test_bimodal_roundtrip(self):
        hits = 0
        for seed in range(20):
            data = bimodal_noisy(seed)
            prob = make_kernel_problem(
                BIMODAL_ORDERS, data, noise_estimate=SPECTRUM_NOISE
            )
            dist = invert(prob)
            noise_norm = SPECTRUM_NOISE * np.sqrt(BIMODAL_ORDERS.size)
            assert dist.residual_norm <= 1.5 * noise_norm
            an = analyze(dist)
            locs = [p[0] for p in an.peaks]
            near = [
                [i for i, l in enumerate(locs) if abs(l - s) / s <= 0.15]
                for s in BIMODAL_S
            ]
            if all(near):
                pops = an.populations
                if all(
                    abs(pops[near_i[0]] - w) <= 0.1
                    for near_i, w in zip(near, BIMODAL_W)
                ):
                    hits += 1
        assert hits >= 18

    def test_discrepancy_residual_tracking(self):
        data = bimodal_noisy(7)
        prob = make_kernel_problem(BIMODAL_ORDERS, data, noise_estimate=SPECTRUM_NOISE)
        dist = invert(prob)
        noise_norm = SPECTRUM_NOISE * np.sqrt(data.size)
        assert 0.5 * noise_norm <= dist.residual_norm <= 1.5 * noise_norm

    def test_discrepancy_alpha_is_a_root_of_the_residual(self, monkeypatch):
        # Brent's method in log10 alpha: the residual crosses the target within
        # 2e-4 decades of the returned alpha, and few NNLS solves find it
        solves = []

        def counting_nnls(*args):
            solves.append(args)
            return nnls(*args)

        monkeypatch.setattr(mqcsim.inversion, "nnls", counting_nnls)
        for seed in range(8):
            prob = make_kernel_problem(
                BIMODAL_ORDERS, bimodal_noisy(seed), noise_estimate=SPECTRUM_NOISE
            )
            data = np.clip(prob.data, 0.0, None)
            smoother = _second_difference(prob.size_grid.size)
            target = SPECTRUM_NOISE * np.sqrt(data.size)
            solves.clear()
            alpha = _discrepancy_alpha(prob.kernel, data, smoother, target)
            assert len(solves) <= 16, seed
            _, below, _ = _solve_tikhonov_nnls(prob.kernel, data, smoother, alpha * 10**-2e-4)
            _, above, _ = _solve_tikhonov_nnls(prob.kernel, data, smoother, alpha * 10**2e-4)
            assert below <= target <= above, seed

    def test_lcurve_fallback_without_noise_estimate(self):
        data = bimodal_noisy(11)
        prob = make_kernel_problem(BIMODAL_ORDERS, data)  # noise unknown
        dist = invert(prob)
        assert dist.alpha > 0
        assert dist.total_mass == pytest.approx(1.0, abs=0.1)

    def test_monotone_regularization(self):
        data = bimodal_noisy(5)
        prob = make_kernel_problem(BIMODAL_ORDERS, data, noise_estimate=SPECTRUM_NOISE)
        smoother = _second_difference(prob.size_grid.size)
        penalties = []
        for alpha in (1e-4, 1e-2, 1e0, 1e2):
            _, _, penalty = _solve_tikhonov_nnls(prob.kernel, prob.data, smoother, alpha)
            penalties.append(penalty)
        assert all(a >= b - 1e-12 for a, b in zip(penalties, penalties[1:]))

    def test_front_97_stable_under_noise(self):
        fronts = []
        for seed in range(10):
            prob = make_kernel_problem(
                BIMODAL_ORDERS, bimodal_noisy(seed), noise_estimate=SPECTRUM_NOISE
            )
            fronts.append(analyze(invert(prob)).front_97)
        grid_step = 10 ** (4 / 63)  # ratio between neighboring grid points
        assert max(fronts) / min(fronts) <= grid_step

    def test_pipeline_second_moment_identity(self):
        # each Gaussian component of width s contributes s/2; the mixture's
        # normalized second moment matches the data's within 10%
        orders = BIMODAL_ORDERS
        data = bimodal_clean()
        prob = make_kernel_problem(orders, data, noise_estimate=1e-7)
        dist = invert(prob)
        mix = mixture_second_moment(dist, orders)
        sym = np.where(orders > 0, 2.0, 1.0)
        data_m2 = np.sum(sym * orders**2 * data) / np.sum(sym * data)
        assert mix == pytest.approx(data_m2, rel=0.10)


class TestAnalyze:
    def test_log_gaussian_bump_fwhm(self):
        # closed form: crossings at x0 +- w*sqrt(2 ln 2) in x = log s
        s = np.geomspace(1.0, 1e4, 256)
        x = np.log(s)
        x0, w = np.log(100.0), 0.5
        f = np.exp(-((x - x0) ** 2) / (2 * w**2))
        from mqcsim import ClusterDistribution

        dist = ClusterDistribution(size_grid=s, f=f, alpha=0.0, residual_norm=0.0)
        an = analyze(dist)
        assert len(an.peaks) == 1
        assert an.peaks[0][0] == pytest.approx(100.0, rel=0.01)
        delta = w * np.sqrt(2 * np.log(2))
        expected = np.exp(x0 + delta) - np.exp(x0 - delta)
        assert an.fwhm[0] == pytest.approx(expected, rel=0.05)

    def test_two_bumps_partition_of_mass(self):
        s = np.geomspace(1.0, 1e4, 128)
        x = np.log(s)
        f = 0.4 * np.exp(-((x - np.log(10)) ** 2) / 0.08) + 0.6 * np.exp(
            -((x - np.log(1000)) ** 2) / 0.08
        )
        from mqcsim import ClusterDistribution

        dist = ClusterDistribution(size_grid=s, f=f, alpha=0.0, residual_norm=0.0)
        an = analyze(dist)
        assert len(an.peaks) == 2
        assert sum(an.populations) == pytest.approx(np.sum(f), abs=1e-6)

    def test_no_peaks_on_empty(self):
        from mqcsim import ClusterDistribution

        dist = ClusterDistribution(
            size_grid=np.geomspace(1, 100, 16), f=np.zeros(16),
            alpha=0.0, residual_norm=0.0,
        )
        with pytest.raises(NoPeaks):
            analyze(dist)

    def test_front_97_of_delta(self):
        from mqcsim import ClusterDistribution

        s = np.geomspace(1.0, 1e4, 64)
        f = np.zeros(64)
        f[30] = 1.0
        dist = ClusterDistribution(size_grid=s, f=f, alpha=0.0, residual_norm=0.0)
        an = analyze(dist)
        step = s[1] / s[0]
        assert s[30] / step <= an.front_97 <= s[30] * step


class TestPeakFinder:
    @staticmethod
    def arrays(rng):
        """64-point arrays as analyze pads them: noise, plateaus from
        coarse levels (flat tops at the edges too), sparse NNLS-like
        solutions, and smooth bumps."""
        for trial in range(240):
            kind = trial % 4
            if kind == 0:
                f = rng.random(64)
            elif kind == 1:
                f = np.floor(rng.random(64) * rng.integers(2, 5)) / 4
            elif kind == 2:
                f = np.where(rng.random(64) < 0.2, rng.random(64), 0.0)
            else:
                x = np.arange(64.0)
                f = sum(rng.random() * np.exp(-((x - rng.uniform(-5, 69)) ** 2)
                                              / rng.uniform(1, 40))
                        for _ in range(rng.integers(1, 4)))
            yield np.concatenate([[0.0], f, [0.0]])

    def test_matches_scipy_find_peaks(self):
        from scipy.signal import find_peaks

        rng = np.random.default_rng(64)
        checked = 0
        for x in self.arrays(rng):
            for fraction in (0.0, 0.02, 0.3):
                min_prominence = fraction * float(np.max(x))
                expected = find_peaks(x, prominence=min_prominence)[0].tolist()
                assert _find_peaks(x, min_prominence) == expected
                checked += 1
        assert checked >= 600

    def test_plateau_resolves_to_middle(self):
        x = np.array([0.0, 1.0, 2.0, 2.0, 2.0, 2.0, 1.0, 3.0, 3.0, 0.0])
        assert _find_peaks(x, 0.0) == [3, 7]
        # the lower plateau reaches down to 1 before the higher peak, so its
        # prominence is 1, and a prominence equal to the threshold is kept
        assert _find_peaks(x, 1.0) == [3, 7]
        assert _find_peaks(x, 1.5) == [7]


class TestPowerLaw:
    def test_exact_cubic(self):
        t = np.linspace(1.0, 5.0, 12)
        fit = fit_power_law(t, 5.0 * t**3)
        assert fit.exponent == pytest.approx(3.0, abs=0.01)
        assert fit.prefactor == pytest.approx(5.0, rel=0.01)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_noisy_quadratic_over_seeds(self):
        t = np.linspace(1.0, 8.0, 10)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            y = 2.0 * t**2 * (1.0 + rng.normal(0, 0.05, t.size))
            fit = fit_power_law(t, y)
            assert 1.8 <= fit.exponent <= 2.2

    def test_forced_exponent_mode(self):
        t = np.linspace(1.0, 5.0, 8)
        fit = fit_power_law(t, 4.0 * t**3, forced_exponent=3.0)
        assert fit.forced_prefactor == pytest.approx(4.0, rel=1e-6)
        assert fit.forced_residual == pytest.approx(0.0, abs=1e-9)
        assert fit.forced_exponent == 3.0

    def test_nonpositive_rejected(self):
        t = np.linspace(1.0, 5.0, 8)
        with pytest.raises(InvalidParameter, match="positive values") as exc:
            fit_power_law(t, t**2 - 5.0)
        assert exc.value.name == "values"
        with pytest.raises(InvalidParameter, match="positive times") as exc:
            fit_power_law(t - 2.0, t**2)
        assert exc.value.name == "times"
        with pytest.raises(ValueError):
            fit_power_law(t[:3], t[:3] ** 2)

    def test_non_finite_or_single_time_rejected(self):
        t = np.linspace(1.0, 5.0, 8)
        for bad in (np.nan, np.inf):
            times, values = t.copy(), t**2
            times[3] = values[3] = bad
            with pytest.raises(ValueError, match="finite"):
                fit_power_law(times, t**2)
            with pytest.raises(ValueError, match="finite"):
                fit_power_law(t, values)
        with pytest.raises(ValueError, match="distinct"):
            fit_power_law(np.full(6, 2.0), np.arange(1.0, 7.0))

    def test_unordered_and_repeated_times_fit(self):
        # pooled points of several analytics files: any order, repeated times
        t = np.linspace(1.0, 5.0, 8)
        ref = fit_power_law(t, 2.0 * t**3)
        times = np.concatenate([t[::-1], t])
        fit = fit_power_law(times, 2.0 * times**3)
        assert fit.exponent == pytest.approx(ref.exponent, abs=1e-12)
        assert fit.prefactor == pytest.approx(ref.prefactor, rel=1e-12)


class TestGaussianBaseline:
    def test_exact_single_gaussian(self):
        k = np.arange(0, 30, 2.0)
        s_fit, amplitude, residual = single_gaussian_fit(k, 0.8 * np.exp(-(k**2) / 50.0))
        assert s_fit == pytest.approx(50.0, rel=1e-6)
        assert amplitude == pytest.approx(0.8, rel=1e-6)
        assert residual < 1e-8

    def test_bimodal_beats_gaussian_by_5x(self):
        orders = BIMODAL_ORDERS
        data = bimodal_clean()
        _, _, gauss_rms = single_gaussian_fit(orders, data)
        prob = make_kernel_problem(orders, data, noise_estimate=1e-7)
        dist = invert(prob)
        invert_rms = dist.residual_norm / np.sqrt(orders.size)
        assert gauss_rms > 5 * invert_rms
