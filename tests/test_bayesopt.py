import numpy as np
import pytest

from scipy.special import ndtr
from scipy.stats import norm, qmc

from fusecast.bayesopt import (
    GPHyper,
    GPState,
    Observation,
    SearchSpace,
    _ei_minimize,
    _kernel_matrix,
    _latin_hypercube,
    _posterior_std_units,
    gp_fit,
    propose,
    tune,
)
from fusecast.errors import (DimensionMismatch, DivergedLoss, EmptySpace, InvalidSpec,
                             ObjectiveFailure)


# -- scalar oracles and one-point views of the batched GP code ------------

def sq_exp_kernel(x: np.ndarray, x2: np.ndarray, hyper: GPHyper) -> float:
    """Squared-exponential covariance between two points."""
    z = (np.asarray(x, dtype=np.float64) - np.asarray(x2, dtype=np.float64)) / hyper.length_scales
    return float(hyper.signal_var * np.exp(-0.5 * np.dot(z, z)))


def expected_improvement(mu: float, sigma: float, f_plus: float, xi: float = 0.0) -> float:
    """Closed-form EI for maximization: sigma * (u Phi(u) + phi(u)) with
    u = (mu - f_plus - xi) / sigma; zero in the deterministic limit."""
    if sigma <= 0.0:
        return 0.0
    u = (mu - f_plus - xi) / sigma
    return max(0.0, float(sigma * (u * norm.cdf(u) + norm.pdf(u))))


def gp_posterior(state, x) -> tuple[float, float]:
    """Posterior mean and variance at one point in objective units: the
    batched standardized posterior, de-standardized."""
    mu, var = _posterior_std_units(state, np.asarray(x, dtype=np.float64)[None])
    return state.y_mean + state.y_std * float(mu[0]), state.y_std ** 2 * float(var[0])


def ei_minimize_at(mu: float, sigma: float, f_plus: float, xi: float = 0.0) -> float:
    """``_ei_minimize`` at a query whose posterior, in the maximization form
    it scores, has mean ``mu`` and standard deviation ``sigma`` against the
    incumbent ``f_plus``. One observation sits at 0: a query there has
    variance 0, and one at 1 has mean 0 and variance ``signal_var`` (the
    kernel underflows to 0); the observed value mu - f_plus sets the
    incumbent to f_plus - mu, the same u as mean mu against f_plus."""
    hyper = GPHyper(signal_var=sigma ** 2 if sigma > 0 else 1.0,
                    length_scales=np.array([0.01]), noise_var=0.0)
    state = GPState(x=np.zeros((1, 1)), y=np.array([mu - f_plus]), hyper=hyper, y_mean=0.0,
                    y_std=1.0, chol=np.ones((1, 1)), alpha=np.zeros(1), jitter=0.0)
    return float(_ei_minimize(state, np.full((1, 1), 1.0 if sigma > 0 else 0.0), xi)[0])


def make_obs(x, y):
    return [Observation(x=np.asarray(xi), y=float(yi)) for xi, yi in zip(x, y)]


def hyper_for(d, noise=1e-4, ell=0.2, signal=1.0):
    return GPHyper(signal_var=signal, length_scales=np.full(d, ell), noise_var=noise)


class TestKernel:
    def test_zero_distance(self):
        h = hyper_for(3, signal=2.5)
        x = np.array([[0.1, 0.5, 0.9]])
        assert _kernel_matrix(x, x, h)[0, 0] == 2.5

    def test_formula_value(self):
        # 1-D, unit signal and length scale, distance sqrt(2) -> e^-1
        h = GPHyper(signal_var=1.0, length_scales=np.array([1.0]), noise_var=0.0)
        val = _kernel_matrix(np.array([[0.0]]), np.array([[np.sqrt(2.0)]]), h)[0, 0]
        assert abs(val - np.exp(-1.0)) < 1e-12

    def test_symmetry(self, rng):
        h = hyper_for(4)
        for _ in range(20):
            a, b = rng.uniform(size=(1, 4)), rng.uniform(size=(1, 4))
            assert abs(_kernel_matrix(a, b, h)[0, 0] - _kernel_matrix(b, a, h)[0, 0]) < 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gp_fit(make_obs([np.zeros(3)], [1.0]), hyper_for(2))


class TestGpFit:
    def test_no_observations_is_empty_space(self):
        with pytest.raises(EmptySpace, match="at least one observation"):
            gp_fit([], hyper_for(2))

    def test_single_observation_factor(self):
        h = hyper_for(2, noise=1e-4)
        state = gp_fit(make_obs([[0.5, 0.5]], [3.0]), h)
        expected = np.sqrt(h.signal_var + h.noise_var + state.jitter)
        assert abs(state.chol[0, 0] - expected) < 1e-12

    def test_duplicate_points_rescued_by_jitter(self):
        h = hyper_for(2, noise=0.0)
        obs = make_obs([[0.3, 0.3], [0.3, 0.3]], [1.0, 2.0])
        state = gp_fit(obs, h)  # must not raise
        assert state.jitter >= 1e-8

    def test_factor_reconstructs_kernel_matrix(self, rng):
        h = hyper_for(3)
        x = rng.uniform(size=(5, 3))
        obs = make_obs(x, rng.normal(size=5))
        state = gp_fit(obs, h)
        gram = state.chol @ state.chol.T - (h.noise_var + state.jitter) * np.eye(5)
        direct = np.array([[sq_exp_kernel(a, b, h) for b in x] for a in x])
        np.testing.assert_allclose(gram, direct, atol=1e-10)


class TestPosterior:
    def test_noiseless_interpolation(self, rng):
        h = hyper_for(2, noise=0.0)
        x = rng.uniform(size=(6, 2))
        y = rng.normal(loc=5.0, scale=2.0, size=6)
        state = gp_fit(make_obs(x, y), h)
        for xi, yi in zip(x, y):
            mu, var = gp_posterior(state, xi)
            assert abs(mu - yi) <= 1e-6 * y.std()
            assert var <= 1e-6 * h.signal_var * state.y_std ** 2

    def test_prior_reversion_far_away(self, rng):
        h = hyper_for(2, noise=0.0)
        x = rng.uniform(size=(4, 2)) * 0.1
        y = rng.normal(size=4)
        state = gp_fit(make_obs(x, y), h)
        mu_std, var_std = _posterior_std_units(state, np.array([[50.0, 50.0]]))
        assert abs(mu_std[0]) < 1e-6
        assert abs(var_std[0] - h.signal_var) < 1e-6

    def test_dense_inverse_oracle(self, rng):
        # Cholesky path vs direct dense-inverse evaluation of the posterior
        # equations, standardization replayed outside
        for trial in range(10):
            g = np.random.default_rng(trial)
            h = hyper_for(3, noise=1e-4)
            x = g.uniform(size=(6, 3))
            y = g.normal(loc=3.0, scale=1.5, size=6)
            state = gp_fit(make_obs(x, y), h)
            xq = g.uniform(size=3)
            mu, var = gp_posterior(state, xq)

            y_st = (y - y.mean()) / y.std()
            gram = np.array([[sq_exp_kernel(a, b, h) for b in x] for a in x])
            ks = np.array([sq_exp_kernel(a, xq, h) for a in x])
            inv = np.linalg.inv(gram + (h.noise_var + state.jitter) * np.eye(6))
            mu_oracle = y.mean() + y.std() * (ks @ inv @ y_st)
            var_oracle = y.std() ** 2 * (sq_exp_kernel(xq, xq, h) - ks @ inv @ ks)
            assert abs(mu - mu_oracle) < 1e-8
            assert abs(var - var_oracle) < 1e-8

    def test_variance_never_negative(self, rng):
        h = hyper_for(2, noise=0.0)
        x = rng.uniform(size=(12, 2))
        state = gp_fit(make_obs(x, rng.normal(size=12)), h)
        _, var = _posterior_std_units(state, rng.uniform(size=(200, 2)))
        assert (var >= 0).all()

    def test_information_monotonicity(self, rng):
        # adding an observation never raises the (standardized-unit)
        # posterior variance, which depends on locations only
        h = hyper_for(2, noise=1e-4)
        for _ in range(5):
            x = rng.uniform(size=(7, 2))
            y = rng.normal(size=7)
            state_small = gp_fit(make_obs(x[:6], y[:6]), h)
            state_big = gp_fit(make_obs(x, y), h)
            queries = rng.uniform(size=(50, 2))
            _, var_small = _posterior_std_units(state_small, queries)
            _, var_big = _posterior_std_units(state_big, queries)
            assert (var_big <= var_small + 1e-8).all()


class TestExpectedImprovement:
    def test_zero_sigma(self):
        assert ei_minimize_at(1.0, 0.0, 0.0) == 0.0

    def test_at_the_mean(self):
        # u = 0 -> EI = sigma * phi(0) = sigma / sqrt(2 pi)
        sigma = 0.7
        val = ei_minimize_at(1.5, sigma, 1.5, xi=0.0)
        assert abs(val - sigma / np.sqrt(2 * np.pi)) < 1e-12

    def test_monte_carlo_oracle(self):
        g = np.random.default_rng(99)
        mu, sigma, f_plus, xi = 1.0, 0.5, 0.8, 0.0
        samples = g.normal(mu, sigma, size=1_000_000)
        gains = np.maximum(samples - f_plus - xi, 0.0)
        mc = gains.mean()
        se = gains.std(ddof=1) / np.sqrt(len(gains))
        assert abs(ei_minimize_at(mu, sigma, f_plus, xi) - mc) <= 3 * se

    def test_monotone_in_sigma_below_incumbent(self):
        vals = [ei_minimize_at(0.0, s, 1.0) for s in np.linspace(0.01, 2.0, 30)]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_closed_form_oracle(self):
        grid = [(mu, sigma, f_plus, xi) for mu in (-1.0, 0.0, 1.5) for sigma in (0.0, 0.3, 1.0)
                for f_plus in (-0.5, 0.8) for xi in (0.0, 0.05)]
        for args in grid:
            assert abs(ei_minimize_at(*args) - expected_improvement(*args)) <= 1e-15


class TestScipyOracles:
    """The tuner's numpy and ``scipy.special`` code against the
    ``scipy.stats`` calls it replaced, bit for bit."""

    @pytest.mark.parametrize("d", [1, 2, 4, 6])
    @pytest.mark.parametrize("n", [0, 1, 3, 30])
    def test_latin_hypercube_matches_qmc(self, d, n):
        for seed in range(25):
            expected = qmc.LatinHypercube(d=d, seed=seed).random(n)
            got = _latin_hypercube(d, n, seed)
            assert got.shape == expected.shape == (n, d)
            assert got.tobytes() == expected.tobytes()

    def test_ndtr_and_pdf_match_norm(self):
        u = np.concatenate([np.random.default_rng(0).normal(0.0, 4.0, size=100_000),
                            [0.0, -0.0, 1e-300, -40.0, 40.0, 1e200, -np.inf, np.inf]])
        with np.errstate(over="ignore"):    # 1e200**2, in scipy's pdf too
            pdf, expected = np.exp(-u**2 / 2.0) / np.sqrt(2 * np.pi), norm.pdf(u)
        assert ndtr(u).tobytes() == norm.cdf(u).tobytes()
        assert pdf.tobytes() == expected.tobytes()

    def test_ei_matches_the_norm_formula(self, rng):
        x = rng.uniform(size=(12, 3))
        state = gp_fit(make_obs(x, rng.normal(size=12)), hyper_for(3))
        uq = np.concatenate([rng.uniform(size=(4000, 3)), x])   # at x the variance is near or at 0
        for xi in (0.0, 0.01, 0.5):
            mu, var = _posterior_std_units(state, uq)
            sigma = np.sqrt(var)
            best = -(state.y.min() - state.y_mean) / state.y_std
            u = (-mu - best - xi) / np.where(sigma > 0, sigma, 1.0)
            expected = np.where(sigma > 0, np.maximum(
                0.0, sigma * (u * norm.cdf(u) + norm.pdf(u))), 0.0)
            assert _ei_minimize(state, uq, xi).tobytes() == expected.tobytes()


class TestSearchSpace:
    def test_round_trip(self):
        space = SearchSpace()
        cfg = {"cnn_layers": 3, "heads": 4, "filters": 238, "kernel_size": 4}
        assert space.round_to_grid(space.to_unit(cfg)) == cfg

    def test_contains_reported_optimum(self):
        space = SearchSpace()
        space.to_unit({"cnn_layers": 3, "heads": 4, "filters": 238, "kernel_size": 4})

    def test_invalid_range(self):
        with pytest.raises(InvalidSpec):
            SearchSpace(heads=(5, 2))

    def test_snap_unit_pool_matches_per_point(self):
        pool = np.random.default_rng(9).uniform(size=(512, 4))
        for space in (SearchSpace(), SearchSpace(heads=(3, 3), filters=(16, 18))):
            per_point = np.stack([space.to_unit(space.round_to_grid(u)) for u in pool])
            assert np.array_equal(space.snap_unit(pool), per_point)


class TestPropose:
    def test_empty_pool_is_empty_space(self):
        state = gp_fit(make_obs([[0.5] * 4], [1.0]), hyper_for(4))
        with pytest.raises(EmptySpace, match="pool_size"):
            propose(state, SearchSpace(), pool_size=0, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("xi", [np.nan, np.inf, -1.0])
    def test_bad_xi_is_invalid_spec(self, xi):
        # a NaN xi would score every point NaN and return the first of the pool
        state = gp_fit(make_obs([[0.5] * 4, [0.2] * 4], [1.0, 2.0]), hyper_for(4))
        with pytest.raises(InvalidSpec, match="xi"):
            propose(state, SearchSpace(), pool_size=16, rng=np.random.default_rng(0), xi=xi)

    def test_pool_of_one_returned(self, rng):
        space = SearchSpace()
        state = gp_fit(make_obs([[0.5] * 4, [0.2] * 4], [1.0, 2.0]), hyper_for(4))
        g = np.random.default_rng(5)
        cfg = propose(state, space, pool_size=1, rng=np.random.default_rng(5))
        expected = space.round_to_grid(g.uniform(size=(1, 4))[0])
        assert cfg == expected

    def test_all_ties_pick_first(self):
        # degenerate one-cell space: every candidate snaps to the same config
        space = SearchSpace(cnn_layers=(3, 3), heads=(4, 4),
                            filters=(238, 238), kernel_size=(4, 4))
        state = gp_fit(make_obs([[0.5] * 4], [1.0]), hyper_for(4))
        cfg = propose(state, space, pool_size=16, rng=np.random.default_rng(0))
        assert cfg == {"cnn_layers": 3, "heads": 4, "filters": 238, "kernel_size": 4}

    def test_returned_beats_pool(self, rng):
        space = SearchSpace()
        x = rng.uniform(size=(8, 4))
        state = gp_fit(make_obs(x, rng.normal(size=8)), hyper_for(4))
        seed = 77
        cfg = propose(state, space, pool_size=64, rng=np.random.default_rng(seed))
        # re-draw the same pool and check EI dominance
        from fusecast.bayesopt import _ei_minimize
        pool = np.random.default_rng(seed).uniform(size=(64, 4))
        snapped = np.stack([space.snap_unit(u) for u in pool])
        ei_pool = _ei_minimize(state, snapped, xi=0.01)
        ei_chosen = _ei_minimize(state, space.to_unit(cfg)[None], xi=0.01)[0]
        assert ei_chosen >= ei_pool.max() - 1e-12


class TestTune:
    def test_budget_equals_init_is_random_search(self):
        calls = []

        def objective(cfg):
            calls.append(cfg)
            return float(cfg["filters"])

        result = tune(objective, SearchSpace(), budget=3, init=3, seed=0)
        assert len(result.trials) == 3 and len(calls) == 3

    def test_grid_minimum_found_1d(self):
        # quadratic over a 17-point grid in the filters dimension
        space = SearchSpace(cnn_layers=(1, 1), heads=(2, 2),
                            filters=(16, 32), kernel_size=(2, 2))
        objective = lambda cfg: (cfg["filters"] - 24) ** 2 / 64.0
        result = tune(objective, space, budget=15, seed=3)
        grid_best = min(range(16, 33), key=lambda f: (f - 24) ** 2)
        assert result.best_config["filters"] == grid_best

    def test_incumbent_non_increasing(self):
        def objective(cfg):
            return (cfg["cnn_layers"] - 3) ** 2 + cfg["filters"] / 100.0

        result = tune(objective, SearchSpace(), budget=12, seed=1)
        inc = np.array(result.incumbent)
        assert (np.diff(inc) <= 0).all()
        assert result.best_objective == inc[-1]

    def test_reproducible_logs(self):
        def objective(cfg):
            return cfg["filters"] * 0.01 + cfg["heads"]

        r1 = tune(objective, SearchSpace(), budget=10, seed=6)
        r2 = tune(objective, SearchSpace(), budget=10, seed=6)
        assert [t.config for t in r1.trials] == [t.config for t in r2.trials]
        assert [t.objective for t in r1.trials] == [t.objective for t in r2.trials]

    def test_objective_failure_penalized(self):
        def objective(cfg):
            if cfg["heads"] == 4:
                raise DivergedLoss("boom")
            return float(cfg["filters"])

        result = tune(objective, SearchSpace(), budget=12, seed=2)
        failed = [t for t in result.trials if t.failed]
        succeeded = [t for t in result.trials if not t.failed]
        assert succeeded, "some trials must succeed"
        for t in failed:
            prior = [s.objective for s in result.trials[:t.index] if np.isfinite(s.objective)]
            if prior:
                assert t.objective == max(prior)

    def test_unexpected_exception_propagates(self):
        # only package, floating-point and linear-algebra errors mark a
        # bad cell; anything else is a bug in the objective
        calls = []

        def objective(cfg):
            calls.append(cfg)
            if len(calls) == 2:
                raise KeyError("filters")
            return float(cfg["filters"])

        with pytest.raises(KeyError):
            tune(objective, SearchSpace(), budget=6, init=3, seed=0)
        assert len(calls) == 2

    def test_every_initial_trial_failing_is_objective_failure(self):
        calls = []

        def objective(cfg):
            calls.append(cfg)
            raise DivergedLoss("boom")

        with pytest.raises(ObjectiveFailure) as info:
            tune(objective, SearchSpace(), budget=6, init=3, seed=0)
        assert len(calls) == 3 and info.value.trial == 2
        assert isinstance(info.value.cause, DivergedLoss)

    def test_validation(self):
        with pytest.raises(InvalidSpec):
            tune(lambda c: 0.0, SearchSpace(), budget=0)
        with pytest.raises(InvalidSpec):
            tune(lambda c: 0.0, SearchSpace(), budget=2, init=5)

    @pytest.mark.parametrize("init,kwargs,error", [
        (3, {"pool_size": 0}, EmptySpace), (5, {"pool_size": 0}, EmptySpace),
        (3, {"xi": float("nan")}, InvalidSpec), (3, {"xi": -1.0}, InvalidSpec),
        (3, {"xi": float("inf")}, InvalidSpec)])
    def test_arguments_checked_before_first_trial(self, init, kwargs, error):
        # init == budget never proposes, and is checked all the same
        calls = []

        def objective(cfg):
            calls.append(cfg)
            return 0.0

        with pytest.raises(error):
            tune(objective, SearchSpace(), budget=5, init=init, **kwargs)
        assert calls == []

    def test_seeded_run_pinned(self):
        # budget 12, init 3: trials 3, 5 and 7 are global EI picks, 4 and 6
        # box picks (4 fails), 8-11 polish picks; recorded from a known-good
        # run, so a refactor that changes any pick fails here
        space = SearchSpace(cnn_layers=(1, 6), heads=(2, 5), filters=(8, 40), kernel_size=(2, 5))

        def objective(cfg):
            if (cfg["cnn_layers"], cfg["heads"], cfg["filters"], cfg["kernel_size"]) == (3, 4, 22, 5):
                raise DivergedLoss("boom")
            return ((cfg["cnn_layers"] - 3) ** 2 + (cfg["heads"] - 4) ** 2
                    + (cfg["filters"] - 20) ** 2 / 16 + (cfg["kernel_size"] - 3) ** 2)

        result = tune(objective, space, budget=12, init=3, seed=4)
        cells = [(1, 2, 30, 3), (3, 4, 21, 5), (5, 4, 9, 4), (4, 4, 22, 5), (3, 4, 22, 5),
                 (3, 4, 15, 5), (3, 4, 18, 5), (3, 4, 8, 5), (4, 4, 21, 5), (3, 5, 21, 5),
                 (3, 4, 20, 5), (3, 4, 20, 4)]
        assert [t.config for t in result.trials] == [dict(zip(space.NAMES, c)) for c in cells]
        assert [t.objective for t in result.trials] == [
            14.25, 4.0625, 12.5625, 5.25, 14.25, 5.5625, 4.25, 13.0, 5.0625, 5.0625, 4.0, 1.0]
        assert [t.failed for t in result.trials] == [i == 4 for i in range(12)]
        assert result.trials[4].error == "DivergedLoss: boom"
        assert result.incumbent == (14.25,) + (4.0625,) * 9 + (4.0, 1.0)
        assert result.best_config == {"cnn_layers": 3, "heads": 4, "filters": 20, "kernel_size": 4}
        assert result.best_objective == 1.0
