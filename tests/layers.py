"""Models from explicit (W, b) layers and back, for tests that set weights
by hand or read a layer's weight and bias apart."""
import numpy as np

from fedsim import nn


def mlp_from(*layers):
    """The model whose layer i is `layers[i]`, a (W, b) pair with W stored
    (fan_in, fan_out): each [W; b] block concatenated into theta."""
    widths = (layers[0][0].shape[0], *(w.shape[1] for w, _ in layers))
    return nn.MlpModel(widths, np.concatenate([np.vstack([w, b]).ravel() for w, b in layers]))


def layers_of(model):
    """Each layer's (W, b), as views of the model's `blocks`."""
    return [(block[:-1], block[-1]) for block in model.blocks]
