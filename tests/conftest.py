import numpy as np
import pytest

from fusecast import nn
from fusecast.nn import ModelConfig, init_params


TINY_CONFIG = dict(w=8, cnn_layers=2, filters=4, kernel_size=2, heads=2, head_dim=2)


@pytest.fixture
def tiny_params():
    return init_params(ModelConfig(**TINY_CONFIG, seed=7))


def count_workspaces(monkeypatch, module) -> list:
    """Record (batch, training) of every ``nn.Workspace`` that ``module``
    builds through its ``Workspace`` name from now on."""
    built = []

    class Counted(nn.Workspace):
        def __init__(self, config, batch, *args, **kwargs):
            super().__init__(config, batch, *args, **kwargs)
            built.append((batch, self.training))

    monkeypatch.setattr(module, "Workspace", Counted)
    return built


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
