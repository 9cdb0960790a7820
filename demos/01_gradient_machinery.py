#!/usr/bin/env python
# Walk through the dense-network machinery: forward/backward, the
# finite-difference oracle on the composite training objective, and the
# binary checkpoint round trip.
import os
import tempfile

import numpy as np

from fedsim import nn
from fedsim.algorithms import FedGpsHyper, ce_loss_and_grad, fedgps_loss_and_grad

rng = np.random.default_rng(0)

# a small extractor + classifier stack
model = nn.init_mlp(input_dim=8, hidden=(16, 6), num_classes=3, rng=rng)
print(f"model: 8 -> 16 -> 6 -> 3, {model.num_params} parameters, "
      f"embed_dim={model.embed_dim}")

x = rng.standard_normal((10, 8))
y = rng.integers(0, 3, size=10)
trace = nn.forward(model, x)
print(f"forward: logits {trace.logits.shape}, embeddings {trace.embeddings.shape}")

loss, grad = ce_loss_and_grad(model, x, y, l2=1e-5)
print(f"cross-entropy {loss:.4f}, gradient norm {np.linalg.norm(grad):.4f}")

# the analytic gradient against central differences, first for plain CE,
# then for the full composite objective with both alignment stages active
def ce_fn(m, batch):
    return ce_loss_and_grad(m, batch[0], batch[1], 1e-5)

err = nn.finite_diff_check(model, (x, y), ce_fn, epsilon=1e-5, num_coords=64,
                           rng=np.random.default_rng(1))
print(f"finite-difference check, plain CE:       max rel error {err:.2e}")

xs = rng.standard_normal((12, 8))
ys = np.repeat(np.arange(3), 4)
protos = rng.standard_normal((3, model.embed_dim))
hyper = FedGpsHyper(lambda1=0.1, lambda2=0.2, lambda3=1e-4)

def composite_fn(m, batch):
    return fedgps_loss_and_grad(m, (batch[0], batch[1]), (xs, ys), protos, hyper)

err = nn.finite_diff_check(model, (x, y), composite_fn, epsilon=1e-5,
                           num_coords=64, rng=np.random.default_rng(2))
print(f"finite-difference check, composite loss: max rel error {err:.2e}")

# flatten/unflatten is a bijection and the checkpoint format round-trips
theta = nn.flatten(model)
rebuilt = nn.unflatten_like(model, theta)
same_blocks = all(np.array_equal(a, b) for a, b in zip(model.blocks, rebuilt.blocks))
print(f"flatten -> unflatten bit-exact: "
      f"{np.array_equal(rebuilt.theta, model.theta) and same_blocks}")

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "demo_model.bin")
    nn.save_checkpoint(path, model)
    loaded = nn.load_checkpoint(path)
print(f"checkpoint round trip bit-exact: "
      f"{np.array_equal(nn.flatten(loaded), theta)}")
