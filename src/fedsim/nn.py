"""Minimal dense network with exact manual backpropagation.

A model is rectified dense layers of the given `widths`, (input_dim,
*hidden, num_classes), then a linear classifier. All parameters live in
one flat float64 vector, `model.theta`, the unit of all federated
communication and arithmetic in this package. Layer i's segment, W
(fan_in, fan_out) row-major and then b, is the row-major block [W; b]
that `model.blocks[i]` views; every pass reads the layers through these
views. `flatten` returns a copy of theta, and `unflatten_like` builds a
model over a given vector.

Every pass runs through a `Kernel`, which owns each layer's input as
[h, 1], its ones column set once: a layer is one product [h, 1] @ [W; b],
and backward's [h, 1]^T @ dz is the weight and bias gradient at once.
Callers pass (n, input_dim) features; the kernel copies them into its own
input block, so the ones column is written nowhere else and no caller's
rows outlive the pass. `forward` and `backward` make a kernel per batch and
return fresh arrays.

A run's template model keeps what the run reuses, each made once per run
at first use: the `shared_kernel` its trainers step on, the forward-only
`inference_kernel` for prototypes and test accuracy, and `scratch` models
(the trainee, the rectified point), which share the template's kernels.
Each use overwrites the last.
"""
from __future__ import annotations

import struct

import numpy as np

CHECKPOINT_MAGIC = b"FGPS"
CHECKPOINT_VERSION = 1


class ShapeError(ValueError):
    """Raised when array dimensions do not match the model architecture."""


class MlpModel:
    """Rectified dense layers of `widths`, then a linear classifier, over
    one flat vector: `theta` when given (a vector that is not contiguous
    float64 is copied), else zeros. `blocks[i]` views layer i's [W; b],
    W stored (fan_in, fan_out) so a batch flows as ``x @ W + b``. With two
    widths there is no hidden layer and the feature space is the input.
    """

    def __init__(self, widths, theta: np.ndarray | None = None):
        self.widths = tuple(widths)
        if len(self.widths) < 2 or min(self.widths) < 1:
            raise ShapeError(f"need two or more widths, each >= 1, got {self.widths}")
        size = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(self.widths, self.widths[1:]))
        self.theta = (np.zeros(size) if theta is None
                      else np.ascontiguousarray(theta, dtype=np.float64))
        if self.theta.shape != (size,):
            raise ShapeError(f"expected flat vector of length {size}, got {self.theta.shape}")
        self.blocks = _blocks(self.theta, self.widths)
        self._kernels, self._kept = {}, {}  # see `kept`; scratch models share the kernels

    @property
    def input_dim(self) -> int:
        return self.widths[0]

    @property
    def embed_dim(self) -> int:
        return self.widths[-2]

    @property
    def num_classes(self) -> int:
        return self.widths[-1]

    @property
    def num_params(self) -> int:
        return self.theta.size

    def shared_kernel(self, rows: int) -> Kernel:
        """A kernel for any model of this shape with room for `rows`, kept on
        this model and remade only to grow; each use overwrites the last."""
        return self._kernel("train", rows)

    def inference_kernel(self, rows: int) -> Kernel:
        """Like `shared_kernel`, a second kernel for forwards that take no
        `backward`, so inference never evicts a trainer's rows or buffers."""
        return self._kernel("infer", rows)

    def _kernel(self, key: str, rows: int) -> Kernel:
        kernel = self._kernels.get(key)
        if kernel is None or kernel.capacity < rows:
            kernel = self._kernels[key] = Kernel(self.widths, rows)
        return kernel

    def kept(self, key: str, make):
        """The object this model keeps under `key`, made by `make()` at the
        first call: per-run state of the code that uses it as a template.
        What is kept must not refer back to the model, so that a run's state
        is freed with its template, without waiting for the cycle collector."""
        if key not in self._kept:
            self._kept[key] = make()
        return self._kept[key]

    def scratch(self, key: str) -> MlpModel:
        """A model of this shape over its own vector, kept under `key`; it
        shares this model's kernels, and each user overwrites it."""
        def make():
            model = MlpModel(self.widths, np.empty(self.num_params))
            model._kernels = self._kernels
            return model
        return self.kept(key, make)


def _blocks(flat: np.ndarray, widths) -> list[np.ndarray]:
    """Each layer's (fan_in + 1, fan_out) block [W; b], a view into `flat`."""
    blocks, offset = [], 0
    for fan_in, fan_out in zip(widths, widths[1:]):
        end = offset + (fan_in + 1) * fan_out
        blocks.append(flat[offset:end].reshape(fan_in + 1, fan_out))
        offset = end
    return blocks


class Kernel:
    """Buffers for the passes of one model shape over up to `capacity` rows.

    Each layer's input is the kernel's own augmented buffer [h, 1], its ones
    column set once. `forward(model, x)` copies (n, input_dim) rows into the
    first, `inputs` views them there, and a hidden layer writes its product
    into the next buffer and rectifies that whole, contiguous buffer in
    place. `backward` fills dh, the masks (each activation's sign) and one
    gradient vector, made at its first call. n rows use each buffer's first
    n: the same strides and bits as a kernel of n rows. The views of each
    row count are made once and kept; no caller's array is.
    """

    def __init__(self, widths, capacity: int):
        self.widths, self.capacity, self.n = tuple(widths), capacity, -1
        self._aug = [np.empty((capacity, w + 1)) for w in self.widths[:-1]]
        for a in self._aug:
            a[:, -1] = 1.0
        self._logits = np.empty((capacity, self.widths[-1]))
        self.grad = None
        self._views = {}

    def _rows(self, n: int) -> None:
        if n not in self._views:
            aug = [a[:n] for a in self._aug]  # each layer's input [h, 1]
            views = (aug, [a[:, :-1] for a in aug], self._logits[:n])  # h, logits
            if self.grad is not None:
                sign = [s[:n] for s in self._sign]
                views += ([d[:n] for d in self._dh], sign, [s[:, :-1] for s in sign])
            self._views[n] = views
        self._a, (self.inputs, *self.acts), self.logits, *grad = self._views[n]
        self.n = n
        if grad:
            self._d, self._s, self._m = grad

    @property
    def embeddings(self) -> np.ndarray:
        """The extractor's output: the last hidden activation, or the input."""
        return self.acts[-1] if self.acts else self.inputs

    def forward(self, model: MlpModel, x: np.ndarray, classify: bool = True) -> Kernel:
        """The pass over `x`, (n, input_dim) rows with n <= capacity; any
        other shape raises `ShapeError`."""
        if x.shape[1:] != (self.widths[0],) or len(x) > self.capacity:
            raise ShapeError(f"rows must be (n <= {self.capacity}, {self.widths[0]}), "
                             f"got {x.shape}")
        if len(x) != self.n:
            self._rows(len(x))
        self.inputs[...] = x
        a = self._a
        for i, z in enumerate(self.acts):
            np.matmul(a[i], model.blocks[i], out=z)
            np.maximum(a[i + 1], 0.0, out=a[i + 1])
        if classify:
            np.matmul(a[-1], model.blocks[-1], out=self.logits)
        return self

    def backward(self, model: MlpModel, dlogits: np.ndarray,
                 dembed: np.ndarray | None = None) -> np.ndarray:
        """The flat gradient of the last `forward`, in the kernel's own vector."""
        if self.grad is None:
            self._dh = [np.empty((self.capacity, w)) for w in self.widths[1:-1]]
            self._sign = [np.empty_like(a) for a in self._aug[1:]]
            self.grad = np.empty(model.num_params)
            self._g = _blocks(self.grad, self.widths)
            self._views.clear()
            self._rows(self.n)
        a, top, dz = self._a, len(self.acts), dlogits
        for i in range(top, -1, -1):
            np.matmul(a[i].T, dz, out=self._g[i])
            if i:
                dz = np.matmul(dz, model.blocks[i][:-1].T, out=self._d[i - 1])
                if i == top and dembed is not None:
                    dz += dembed
                np.sign(a[i], out=self._s[i - 1])
                np.multiply(dz, self._m[i - 1], out=dz)
        return self.grad


def init_mlp(input_dim: int, hidden: tuple[int, ...], num_classes: int,
             rng: np.random.Generator) -> MlpModel:
    """Seeded init: each layer uniform in +-1/sqrt(fan_in), biases zero."""
    model = MlpModel((input_dim, *hidden, num_classes))
    for block in model.blocks:  # [W; b]: fan_in + 1 rows
        bound = 1.0 / np.sqrt(len(block) - 1)
        block[:-1] = rng.uniform(-bound, bound, size=block[:-1].shape)
    return model


def flatten(model: MlpModel) -> np.ndarray:
    """A copy of all parameters, layer by layer as `blocks` views them."""
    return model.theta.copy()


def unflatten_like(template: MlpModel, vec: np.ndarray) -> MlpModel:
    """A model with the template's shapes over `vec`: later writes into
    `vec` move it (a `vec` that is not contiguous float64 is copied)."""
    return MlpModel(template.widths, vec)


def forward(model: MlpModel, batch: np.ndarray) -> Kernel:
    """Run an (n, input_dim) batch through a fresh kernel, the trace
    `backward` takes, with `logits`, `acts` and `embeddings` (the input
    when there is no hidden layer)."""
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ShapeError(f"batch must be (n, {model.input_dim}), got {x.shape}")
    return Kernel(model.widths, len(x)).forward(model, x)


def backward(model: MlpModel, trace: Kernel, dlogits: np.ndarray,
             dembed: np.ndarray | None = None) -> np.ndarray:
    """Exact gradient of a loss over the full flattened parameter vector,
    as a fresh vector.

    `dlogits` is the loss gradient w.r.t. the logits; an optional `dembed`
    (loss gradient w.r.t. the embeddings, as produced by feature-alignment
    terms) is routed through the extractor layers only. The rectifier
    subgradient at 0 is taken as 0.
    """
    dlogits = np.asarray(dlogits, dtype=np.float64)
    if dlogits.shape != trace.logits.shape:
        raise ShapeError(f"dlogits shape {dlogits.shape} != logits {trace.logits.shape}")
    if dembed is not None:
        dembed = np.asarray(dembed, dtype=np.float64)
        if dembed.shape != trace.embeddings.shape:
            raise ShapeError(
                f"dembed shape {dembed.shape} != embeddings {trace.embeddings.shape}")
    return trace.backward(model, dlogits, dembed).copy()


def finite_diff_check(model: MlpModel, batch, loss_fn, epsilon: float = 1e-5,
                      num_coords: int = 64, rng: np.random.Generator | None = None) -> float:
    """Compare an analytic gradient against central finite differences.

    `loss_fn(model, batch)` must return ``(loss, flat_grad)``. The check
    perturbs a random subsample of parameter coordinates and returns the
    max of ``|analytic - central| / (|central| + 1e-12)``, NaN when any
    compared value is NaN, so that no tolerance passes it.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    if rng is None:
        rng = np.random.default_rng(0)
    theta = flatten(model)
    _, grad = loss_fn(model, batch)
    n = theta.size
    coords = rng.choice(n, size=min(num_coords, n), replace=False)
    rels = []
    for i in coords:
        theta_hi = theta.copy()
        theta_hi[i] += epsilon
        theta_lo = theta.copy()
        theta_lo[i] -= epsilon
        loss_hi, _ = loss_fn(unflatten_like(model, theta_hi), batch)
        loss_lo, _ = loss_fn(unflatten_like(model, theta_lo), batch)
        central = (loss_hi - loss_lo) / (2.0 * epsilon)
        rels.append(abs(grad[i] - central) / (abs(central) + 1e-12))
    return float(np.max(rels, initial=0.0))


def save_checkpoint(path, model: MlpModel) -> None:
    """Little-endian binary checkpoint: magic, version, the layer count and
    each layer's (fan_in, fan_out), then theta as raw f64."""
    shapes = list(zip(model.widths, model.widths[1:]))
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(shapes)))
        for fan_in, fan_out in shapes:
            fh.write(struct.pack("<II", fan_in, fan_out))
        fh.write(model.theta.astype("<f8", copy=False).tobytes())


def load_checkpoint(path) -> MlpModel:
    """The model a `save_checkpoint` file holds. A header cut short, with no
    layers or with shapes that do not chain, or a body that is not whole
    f64 values or not theta's length, raises `ShapeError`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"bad checkpoint magic: {raw[:4]!r}")

    def words(offset: int, count: int) -> tuple[int, ...]:
        if len(raw) < offset + 4 * count:
            raise ShapeError(f"checkpoint header cut short at {len(raw)} bytes")
        return struct.unpack_from(f"<{count}I", raw, offset)

    (version,) = words(4, 1)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version: {version}")
    (n_layers,) = words(8, 1)
    if n_layers == 0:
        raise ShapeError("checkpoint header declares no layers")
    shapes = words(12, 2 * n_layers)
    fan_in, fan_out = shapes[0::2], shapes[1::2]
    if fan_in[1:] != fan_out[:-1]:
        raise ShapeError(f"checkpoint layer shapes do not chain: {list(zip(fan_in, fan_out))}")
    body = 12 + 8 * n_layers
    if (len(raw) - body) % 8:
        raise ShapeError(f"checkpoint body of {len(raw) - body} bytes is not whole f64 values")
    theta = np.frombuffer(raw, dtype="<f8", offset=body).astype(np.float64)
    return MlpModel((fan_in[0], *fan_out), theta)
