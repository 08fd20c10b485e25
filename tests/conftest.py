import numpy as np
import pytest

from fusecast import blas, nn
from fusecast.nn import ModelConfig, _backward_batch, _forward_batch, init_params


TINY_CONFIG = dict(w=8, cnn_layers=2, filters=4, kernel_size=2, heads=2, head_dim=2)


@pytest.fixture
def tiny_params():
    return init_params(ModelConfig(**TINY_CONFIG, seed=7))


def count_workspaces(monkeypatch, module) -> list:
    """Record every ``nn.Workspace`` that ``module`` builds through its
    ``Workspace`` name from now on; views are not built, so not recorded."""
    built = []

    class Counted(nn.Workspace):
        def __init__(self, config, batch, *args, **kwargs):
            super().__init__(config, batch, *args, **kwargs)
            built.append(self)

    monkeypatch.setattr(module, "Workspace", Counted)
    return built


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def workspace_sizes(workspaces) -> list:
    """(batch, training, sorted view sizes) of each workspace."""
    return [(ws.batch, ws.training, sorted(ws._views)) for ws in workspaces]


def assert_view_step_is_a_fresh_step(params, rng, batch=32, size=17, helper=None):
    """Assert that a forward and backward of ``size`` windows in a view of a
    ``batch``-window training workspace, run after a full batch through the
    workspace, are the bytes of the same step in a new ``size``-window
    workspace. Each splits as ``blas.splits`` says at its size, and both
    have ``helper``. Returns the workspace and its view."""
    cfg = params.config
    ws = nn.Workspace(cfg, batch, helper, split=blas.splits(cfg, batch))
    _, ws = _forward_batch(params, rng.normal(size=(batch, cfg.w)), workspace=ws)
    _backward_batch(params, ws, rng.normal(size=batch))
    xb, g = rng.normal(size=(size, cfg.w)), rng.normal(size=size)
    view = ws.view(size)
    steps = []
    for space in (view, nn.Workspace(cfg, size, helper, split=blas.splits(cfg, size))):
        yhat, _ = _forward_batch(params, xb, workspace=space)
        steps.append((yhat, space.act, space.att, space.z, _backward_batch(params, space, g)))
    for in_view, fresh in zip(*steps):
        assert in_view.tobytes() == fresh.tobytes()
    return ws, view
