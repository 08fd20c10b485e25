"""Print the peak resident set size of one wide training step.

    PYTHONPATH=src python tools/peak_rss.py

Runs one ``train`` step in this process, a fresh one: 12 conv layers of
256 filters at kernel 5 with 5 heads (3.87M parameters), on one batch of 32
random windows of 15 steps. Then prints the process's ``ru_maxrss`` in MB
(kilobytes on Linux, bytes on macOS). It covers the imports, the
parameters, Adam's two moments, the gradient window and the workspace.
Runners differ, so the figure is for reading, not a gate.
"""

import resource
import sys

import numpy as np

from fusecast.nn import ModelConfig
from fusecast.series import WindowedDataset
from fusecast.train import TrainConfig, train

BATCH, W = 32, 15

rng = np.random.default_rng(0)
data = WindowedDataset(rng.normal(size=(BATCH, W)), rng.normal(size=BATCH), W)
train(ModelConfig(w=W, cnn_layers=12, filters=256, kernel_size=5, heads=5),
      TrainConfig(epochs=1, batch_size=BATCH), data)
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(f"peak RSS of one 12x256 k=5 B={BATCH} training step: "
      f"{peak / (2**20 if sys.platform == 'darwin' else 2**10):.1f} MB")
