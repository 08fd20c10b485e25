"""Gaussian-process surrogate optimization of integer hyperparameters with
an Expected Improvement acquisition.

The surrogate lives on the unit hypercube; candidate points are snapped to
the integer grid before scoring and evaluation. Objectives are minimized:
the acquisition internally negates values so EI keeps its textbook
maximization form. Targets are standardized inside the GP, so the default
exploration offset ``xi`` is in standardized units.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.special import ndtr

from .errors import (
    DimensionMismatch,
    EmptySpace,
    FusecastError,
    InvalidSpec,
    ObjectiveFailure,
    SingularKernel,
)

JITTER_START = 1e-8
JITTER_MAX = 1e-4


@dataclass(frozen=True)
class SearchSpace:
    """Inclusive integer ranges for the tuned hyperparameters, with the
    mapping to and from the unit hypercube."""

    cnn_layers: tuple = (1, 12)
    heads: tuple = (2, 5)
    filters: tuple = (16, 256)
    kernel_size: tuple = (2, 5)

    NAMES = ("cnn_layers", "heads", "filters", "kernel_size")

    def __post_init__(self):
        for name in self.NAMES:
            bound = getattr(self, name)
            if (not isinstance(bound, (tuple, list)) or len(bound) != 2
                    or any(not isinstance(v, (int, np.integer)) or isinstance(v, bool)
                           for v in bound)):
                raise InvalidSpec(f"{name} must be a (lo, hi) pair of integers, got {bound!r}")
            lo, hi = bound
            if lo > hi:
                raise InvalidSpec(f"{name}: lo {lo} > hi {hi}")

    @property
    def dim(self) -> int:
        return len(self.NAMES)

    def bounds(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in self.NAMES], dtype=np.float64)

    def _grid_values(self, u: np.ndarray) -> np.ndarray:
        """Nearest integer grid values (as floats) of unit points (..., dim)."""
        u = np.clip(np.asarray(u, dtype=np.float64), 0.0, 1.0)
        bounds = self.bounds()
        ints = np.floor(bounds[:, 0] + u * (bounds[:, 1] - bounds[:, 0]) + 0.5)
        return np.clip(ints, bounds[:, 0], bounds[:, 1])

    def round_to_grid(self, u: np.ndarray) -> dict:
        """Snap a unit-hypercube point to the nearest integer config."""
        return dict(zip(self.NAMES, (int(v) for v in self._grid_values(u))))

    def to_unit(self, config: dict) -> np.ndarray:
        u = np.empty(self.dim)
        for i, name in enumerate(self.NAMES):
            lo, hi = getattr(self, name)
            v = config[name]
            if not lo <= v <= hi:
                raise InvalidSpec(f"{name}={v} outside [{lo}, {hi}]")
            u[i] = 0.0 if hi == lo else (v - lo) / (hi - lo)
        return u

    def snap_unit(self, u: np.ndarray) -> np.ndarray:
        """Unit coordinates of the grid point nearest to ``u``, for one point
        (dim,) or a pool (n, dim); equals ``to_unit(round_to_grid(u))``
        bit for bit."""
        bounds = self.bounds()
        span = np.maximum(bounds[:, 1] - bounds[:, 0], 1.0)
        return (self._grid_values(u) - bounds[:, 0]) / span


@dataclass(frozen=True)
class Observation:
    """One evaluated point: unit-hypercube location and objective value."""

    x: np.ndarray
    y: float

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        object.__setattr__(self, "x", x)
        if np.any(x < -1e-12) or np.any(x > 1 + 1e-12):
            raise InvalidSpec("observation outside the unit hypercube")
        if not np.isfinite(self.y):
            raise InvalidSpec("objective value must be finite")


@dataclass(frozen=True)
class GPHyper:
    """Kernel hyperparameters: k(x,x') = signal_var *
    exp(-1/2 sum_i ((x_i-x'_i)/length_scales_i)^2), plus observation noise."""

    signal_var: float = 1.0
    length_scales: np.ndarray = field(default_factory=lambda: np.full(4, 0.2))
    noise_var: float = 1e-4

    def __post_init__(self):
        ls = np.asarray(self.length_scales, dtype=np.float64)
        object.__setattr__(self, "length_scales", ls)
        if self.signal_var <= 0 or np.any(ls <= 0) or self.noise_var < 0:
            raise InvalidSpec("GP hyperparameters must be positive (noise_var >= 0)")


@dataclass(frozen=True)
class GPState:
    """Fitted surrogate: data, standardization, and the Cholesky factor of
    K + (noise + jitter) I on standardized targets."""

    x: np.ndarray          # (n, d)
    y: np.ndarray          # (n,) raw objective values
    hyper: GPHyper
    y_mean: float
    y_std: float
    chol: np.ndarray       # lower triangular
    alpha: np.ndarray      # (K + sI)^-1 y_standardized
    jitter: float          # effective jitter actually used


def _kernel_matrix(xa: np.ndarray, xb: np.ndarray, hyper: GPHyper) -> np.ndarray:
    za = xa / hyper.length_scales
    zb = xb / hyper.length_scales
    sq = ((za[:, None, :] - zb[None, :, :]) ** 2).sum(axis=2)
    return hyper.signal_var * np.exp(-0.5 * sq)


def gp_fit(observations, hyper: GPHyper | None = None) -> GPState:
    """Factorize the kernel system for a set of observations.

    Targets are standardized internally (mean/std of y). The jitter added to
    the diagonal escalates tenfold from 1e-8 up to 1e-4 before giving up
    with SingularKernel.
    """
    obs = list(observations)
    if not obs:
        raise EmptySpace("gp_fit needs at least one observation")
    x = np.stack([np.asarray(o.x, dtype=np.float64) for o in obs])
    y = np.array([o.y for o in obs], dtype=np.float64)
    if hyper is None:
        hyper = GPHyper(length_scales=np.full(x.shape[1], 0.2))
    if x.shape[1] != hyper.length_scales.shape[0]:
        raise DimensionMismatch("length scales do not match the observation dimension")

    y_mean = float(y.mean())
    y_std = float(y.std())
    if y_std == 0.0:
        y_std = 1.0
    y_st = (y - y_mean) / y_std

    gram = _kernel_matrix(x, x, hyper)
    jitter = JITTER_START
    while True:
        try:
            chol = cholesky(gram + (hyper.noise_var + jitter) * np.eye(len(obs)), lower=True)
            break
        except np.linalg.LinAlgError:
            jitter *= 10.0
            if jitter > JITTER_MAX:
                raise SingularKernel(
                    f"kernel matrix not positive definite even with jitter {JITTER_MAX}"
                ) from None
    alpha = cho_solve((chol, True), y_st)
    return GPState(x=x, y=y, hyper=hyper, y_mean=y_mean, y_std=y_std,
                   chol=chol, alpha=alpha, jitter=jitter)


def _posterior_std_units(state: GPState, xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance at query points, in standardized target
    units. ``xq`` is (m, d); variances are clamped at zero."""
    ks = _kernel_matrix(state.x, xq, state.hyper)        # (n, m)
    mu = ks.T @ state.alpha
    v = solve_triangular(state.chol, ks, lower=True)     # (n, m)
    var = state.hyper.signal_var - (v * v).sum(axis=0)
    return mu, np.maximum(var, 0.0)


def _ei_minimize(state: GPState, uq: np.ndarray, xi: float) -> np.ndarray:
    """EI of candidate points for a minimized objective: scored as
    maximization of the negated standardized posterior."""
    mu, var = _posterior_std_units(state, uq)
    sigma = np.sqrt(var)
    best = -(state.y.min() - state.y_mean) / state.y_std
    ei = np.zeros(len(uq))
    pos = sigma > 0
    u = (-mu[pos] - best - xi) / sigma[pos]
    pdf = np.exp(-u**2 / 2.0) / np.sqrt(2 * np.pi)    # scipy.stats.norm.pdf's bits
    ei[pos] = np.maximum(0.0, sigma[pos] * (u * ndtr(u) + pdf))
    return ei


def _latin_hypercube(d: int, n: int, seed: int) -> np.ndarray:
    """``n`` points in [0, 1)^d, one in each of the ``n`` slices of every
    axis: ``scipy.stats.qmc.LatinHypercube(d, seed=seed).random(n)``'s bits."""
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(size=(n, d))
    perms = np.tile(np.arange(1, n + 1), (d, 1))
    for row in perms:
        rng.shuffle(row)
    return (perms.T - offsets) / n


def _check_acquisition(pool_size: int, xi: float) -> None:
    """A pool needs a point; EI's offset must be a finite number >= 0."""
    if pool_size < 1:
        raise EmptySpace("pool_size must be >= 1")
    if not 0.0 <= xi < np.inf:
        raise InvalidSpec(f"xi must be finite and >= 0, got {xi!r}")


def propose(state: GPState, space: SearchSpace, pool_size: int,
            rng: np.random.Generator | None = None, xi: float = 0.01) -> dict:
    """Pick the next configuration to evaluate.

    Draws ``pool_size`` uniform points in the hypercube, snaps each to the
    integer grid, scores EI, and returns the argmax (ties break toward the
    lowest pool index).
    """
    _check_acquisition(pool_size, xi)
    if rng is None:
        rng = np.random.default_rng(0)
    pool_u = rng.uniform(size=(pool_size, space.dim))
    snapped = space.snap_unit(pool_u)
    ei = _ei_minimize(state, snapped, xi)
    return space.round_to_grid(snapped[int(np.argmax(ei))])


def _box_candidates(space: SearchSpace, center: dict, radii: dict,
                    evaluated: set) -> list[dict]:
    """Unevaluated grid cells in an axis-aligned box around ``center``."""
    ranges = []
    for name in space.NAMES:
        lo, hi = getattr(space, name)
        r = radii[name]
        ranges.append(range(max(lo, center[name] - r), min(hi, center[name] + r) + 1))
    return [dict(zip(space.NAMES, combo)) for combo in itertools.product(*ranges)
            if combo not in evaluated]


def _coordinate_neighbours(space: SearchSpace, center: dict, evaluated: set) -> list[dict]:
    """Unevaluated single-coordinate +-1 neighbours of ``center``."""
    cells = []
    for name in space.NAMES:
        lo, hi = getattr(space, name)
        for delta in (-1, 1):
            v = center[name] + delta
            if lo <= v <= hi:
                cfg = {**center, name: v}
                if tuple(cfg[n] for n in space.NAMES) not in evaluated:
                    cells.append(cfg)
    return cells


@dataclass(frozen=True)
class Trial:
    index: int
    config: dict
    objective: float
    wall_seconds: float
    failed: bool = False
    error: str = ""              # the objective's exception, when failed


@dataclass(frozen=True)
class TuneResult:
    best_config: dict
    best_objective: float
    trials: tuple
    incumbent: tuple   # best objective seen up to and including each trial


def tune(objective, space: SearchSpace, budget: int, init: int | None = None, *,
         seed: int = 0, pool_size: int = 512, xi: float = 0.01) -> TuneResult:
    """Minimize ``objective(config)`` over the integer grid.

    ``budget`` >= ``init`` >= 1 (``init`` defaults to min(5, budget)) and a
    finite ``xi`` >= 0 are checked before the first trial (InvalidSpec), and
    so is ``pool_size`` >= 1 (EmptySpace); a pool too large for memory, when
    ``budget`` > ``init``, raises MemoryError there too. The first ``init``
    trials are a seeded Latin-hypercube design. After that, global EI
    proposals, each hill-climbed over its grid neighbours while that raises
    its EI, alternate with exploitation steps that take the best posterior
    mean over a box of unevaluated cells around the incumbent, so the search
    concentrates instead of wandering the hypercube; the final trials sweep
    the incumbent's immediate grid neighbours (best predicted mean
    alternating with highest posterior uncertainty) to settle the exact
    cell. An objective raising a package error, FloatingPointError or
    LinAlgError is penalized with the worst finite value so far and skipped,
    and any other exception propagates; ObjectiveFailure is raised when no
    initial trial gives a finite value.

    The trial list is the only record: the incumbent (the first trial with
    the lowest finite objective), the evaluated cells, the GP's observations
    (the finite trials, in order) and the result are derived from it. Fully
    reproducible for fixed seeds.
    """
    if budget < 1:
        raise InvalidSpec("budget must be >= 1")
    if init is None:
        init = min(5, budget)
    if not 1 <= init <= budget:
        raise InvalidSpec("need budget >= init >= 1")
    _check_acquisition(pool_size, xi)
    if budget > init:
        # the shape of propose's pool: one too large for memory fails here
        np.empty((pool_size, space.dim))

    init_points = _latin_hypercube(space.dim, init, seed)
    rng = np.random.default_rng(seed + 1)
    box_radii = {name: max(2, round(0.1 * (getattr(space, name)[1] - getattr(space, name)[0])))
                 for name in space.NAMES}
    polish = min(max(4, round(0.2 * budget)), max(0, (budget - init) // 2))

    def local_pick(state, cells, explore: bool) -> dict:
        uq = np.stack([space.to_unit(c) for c in cells])
        mu, var = _posterior_std_units(state, uq)
        return cells[int(np.argmax(var)) if explore else int(np.argmin(mu))]

    trials: list[Trial] = []
    last_error: Exception | None = None
    polish_count = 0
    for i in range(budget):
        finite = [t for t in trials if np.isfinite(t.objective)]
        if i < init:
            cfg = space.round_to_grid(init_points[i])
        else:
            best_cfg = min(finite, key=lambda t: t.objective).config
            evaluated = {tuple(t.config[n] for n in space.NAMES) for t in trials}
            state = gp_fit(Observation(x=space.to_unit(t.config), y=t.objective) for t in finite)
            cfg = None
            if i >= budget - polish:
                cells = _coordinate_neighbours(space, best_cfg, evaluated)
                if cells:
                    cfg = local_pick(state, cells, explore=polish_count % 2 == 1)
                    polish_count += 1
            elif (i - init) % 2 == 1:
                cells = _box_candidates(space, best_cfg, box_radii, evaluated)
                if cells:
                    cfg = local_pick(state, cells, explore=False)
            if cfg is None:
                # the global EI pick, hill-climbed over its grid neighbours; the
                # cell is scored in the same batch as its neighbours, since a
                # point's EI can differ in the last bit from batch to batch
                cfg = propose(state, space, pool_size, rng=rng, xi=xi)
                while True:
                    cells = [cfg, *_coordinate_neighbours(space, cfg, set())]
                    ei = _ei_minimize(state, np.stack([space.to_unit(c) for c in cells]), xi)
                    top = int(np.argmax(ei))    # ties keep the current cell
                    if top == 0:
                        break
                    cfg = cells[top]

        t0 = time.perf_counter()
        failed, error = False, ""
        # a bad cell is penalized and skipped; any other exception is a bug
        try:
            y = float(objective(cfg))
        except (FusecastError, FloatingPointError, np.linalg.LinAlgError) as exc:
            failed, error, last_error = True, f"{type(exc).__name__}: {exc}", exc
            y = max((t.objective for t in finite), default=np.inf)
        trials.append(Trial(index=i, config=cfg, objective=y,
                            wall_seconds=time.perf_counter() - t0, failed=failed, error=error))
        if i == init - 1 and not any(np.isfinite(t.objective) for t in trials):
            # nothing for the surrogate to fit: a numeric failure, not a bad space
            raise ObjectiveFailure(i, last_error or RuntimeError("no finite objective"),
                                   tuple(trials))

    best = min((t for t in trials if np.isfinite(t.objective)), key=lambda t: t.objective)
    incumbent = itertools.accumulate(
        (t.objective if np.isfinite(t.objective) else np.inf for t in trials), min)
    return TuneResult(best_config=best.config, best_objective=best.objective,
                      trials=tuple(trials), incumbent=tuple(incumbent))
