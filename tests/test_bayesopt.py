import numpy as np
import pytest

from fusecast.bayesopt import (
    GPHyper,
    Observation,
    SearchSpace,
    _posterior_std_units,
    expected_improvement,
    gp_fit,
    gp_posterior,
    propose,
    sq_exp_kernel,
    tune,
)
from fusecast.errors import DimensionMismatch, InvalidSpec, ObjectiveFailure


def make_obs(x, y):
    return [Observation(x=np.asarray(xi), y=float(yi)) for xi, yi in zip(x, y)]


def hyper_for(d, noise=1e-4, ell=0.2, signal=1.0):
    return GPHyper(signal_var=signal, length_scales=np.full(d, ell), noise_var=noise)


class TestKernel:
    def test_zero_distance(self):
        h = hyper_for(3, signal=2.5)
        x = np.array([0.1, 0.5, 0.9])
        assert sq_exp_kernel(x, x, h) == 2.5

    def test_formula_value(self):
        # 1-D, unit signal and length scale, distance sqrt(2) -> e^-1
        h = GPHyper(signal_var=1.0, length_scales=np.array([1.0]), noise_var=0.0)
        val = sq_exp_kernel(np.array([0.0]), np.array([np.sqrt(2.0)]), h)
        assert abs(val - np.exp(-1.0)) < 1e-12

    def test_symmetry(self, rng):
        h = hyper_for(4)
        for _ in range(20):
            a, b = rng.uniform(size=4), rng.uniform(size=4)
            assert abs(sq_exp_kernel(a, b, h) - sq_exp_kernel(b, a, h)) < 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sq_exp_kernel(np.zeros(2), np.zeros(3), hyper_for(2))


class TestGpFit:
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
        assert expected_improvement(1.0, 0.0, 0.0) == 0.0

    def test_at_the_mean(self):
        # u = 0 -> EI = sigma * phi(0) = sigma / sqrt(2 pi)
        sigma = 0.7
        val = expected_improvement(1.5, sigma, 1.5, xi=0.0)
        assert abs(val - sigma / np.sqrt(2 * np.pi)) < 1e-12

    def test_monte_carlo_oracle(self):
        g = np.random.default_rng(99)
        mu, sigma, f_plus, xi = 1.0, 0.5, 0.8, 0.0
        samples = g.normal(mu, sigma, size=1_000_000)
        gains = np.maximum(samples - f_plus - xi, 0.0)
        mc = gains.mean()
        se = gains.std(ddof=1) / np.sqrt(len(gains))
        assert abs(expected_improvement(mu, sigma, f_plus, xi) - mc) <= 3 * se

    def test_monotone_in_sigma_below_incumbent(self):
        vals = [expected_improvement(0.0, s, 1.0) for s in np.linspace(0.01, 2.0, 30)]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


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
                raise RuntimeError("boom")
            return float(cfg["filters"])

        result = tune(objective, SearchSpace(), budget=12, seed=2)
        failed = [t for t in result.trials if t.failed]
        succeeded = [t for t in result.trials if not t.failed]
        assert succeeded, "some trials must succeed"
        for t in failed:
            prior = [s.objective for s in result.trials[:t.index] if np.isfinite(s.objective)]
            if prior:
                assert t.objective == max(prior)

    def test_every_initial_trial_failing_is_objective_failure(self):
        calls = []

        def objective(cfg):
            calls.append(cfg)
            raise RuntimeError("boom")

        with pytest.raises(ObjectiveFailure) as info:
            tune(objective, SearchSpace(), budget=6, init=3, seed=0)
        assert len(calls) == 3 and info.value.trial == 2
        assert isinstance(info.value.cause, RuntimeError)

    def test_validation(self):
        with pytest.raises(InvalidSpec):
            tune(lambda c: 0.0, SearchSpace(), budget=0)
        with pytest.raises(InvalidSpec):
            tune(lambda c: 0.0, SearchSpace(), budget=2, init=5)
