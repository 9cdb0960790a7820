"""Minimal dense network with exact manual backpropagation.

The model is a stack of fully connected layers split into a feature
extractor (linear + rectifier per layer) and a final linear classifier.
All parameters live in one flat float64 vector, `model.theta`, the unit
of all federated communication and arithmetic in this package. Layer i's
segment, W (fan_in, fan_out) row-major and then b, is the row-major
block [W; b] that `model.blocks[i]` views. `flatten` returns a copy of
theta, and `unflatten_like` builds a model over a given vector.

Every pass runs through a `Kernel`: with a trailing ones column on each
layer's input, a layer is one product [h, 1] @ [W; b], and backward's
[h, 1]^T @ dz is the weight and bias gradient at once. `forward`, `embed`
and `backward` make a kernel per batch and return fresh arrays.

A run's template model keeps what the run reuses, each made once per run
at first use: the `shared_kernel` its trainers step on, the forward-only
`inference_kernel` for prototypes, test accuracy and the monitor, and
`scratch` models (the trainee, the rectified point), which share the
template's kernels. Each use overwrites the last, and the trainers
`release` their rows from the shared kernel when local training ends.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

CHECKPOINT_MAGIC = b"FGPS"
CHECKPOINT_VERSION = 1


class ShapeError(ValueError):
    """Raised when array dimensions do not match the model architecture."""


@dataclass
class MlpModel:
    """Feature extractor (rectified dense layers) plus a linear classifier.

    Weight matrices are stored as (fan_in, fan_out) so a batch flows as
    ``x @ W + b``. The extractor may be empty, in which case the feature
    space is the raw input.

    The layers are copied into a fresh `theta`, unless one is passed: the
    model is then built over it, and the layers give only the shapes.
    """

    extractor: list[tuple[np.ndarray, np.ndarray]]
    classifier: tuple[np.ndarray, np.ndarray]
    theta: np.ndarray | None = field(default=None, kw_only=True, repr=False, compare=False)

    def __post_init__(self):
        layers = self._layers()
        if any(a[0].shape[1] != b[0].shape[0] for a, b in zip(layers, layers[1:])):
            raise ShapeError("each layer's input width must equal the previous output width")
        self.widths = (layers[0][0].shape[0], *(w.shape[1] for w, _ in layers))
        size = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(self.widths, self.widths[1:]))
        if self.theta is None:
            self.theta = np.concatenate([a.ravel() for wb in layers for a in wb])
        self.theta = np.ascontiguousarray(self.theta, dtype=np.float64)
        if self.theta.shape != (size,):
            raise ShapeError(f"expected flat vector of length {size}, got {self.theta.shape}")
        self.blocks = _blocks(self.theta, self.widths)
        *self.extractor, self.classifier = [(blk[:-1], blk[-1]) for blk in self.blocks]
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

    def _layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return [*self.extractor, self.classifier]

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
            model = MlpModel(self.extractor, self.classifier, theta=np.empty(self.num_params))
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

    `forward(model, x)` takes rows with the ones column. A hidden layer
    writes its product into its own augmented buffer (ones column set
    once) and rectifies the whole, contiguous buffer in place. `backward`
    fills dh, the masks (each activation's sign) and one gradient vector,
    made at its first call. n rows use each buffer's first n: the same
    strides and bits as a kernel of n rows. The views of each row count are
    made once and kept; the input rows are not: a forward holds them until
    the next forward or `release`.
    """

    def __init__(self, widths, capacity: int):
        self.widths, self.capacity, self.n, self._a = tuple(widths), capacity, -1, [None]
        self._aug = [np.empty((capacity, w + 1)) for w in self.widths[1:-1]]
        for a in self._aug:
            a[:, -1] = 1.0
        self._logits = np.empty((capacity, self.widths[-1]))
        self.grad = None
        self._views = {}

    def _rows(self, n: int) -> None:
        if n not in self._views:
            aug = [a[:n] for a in self._aug]  # layers 1.. augmented inputs
            views = (aug, [a[:, :-1] for a in aug], self._logits[:n])  # activations, logits
            if self.grad is not None:
                sign = [s[:n] for s in self._sign]
                views += ([d[:n] for d in self._dh], sign, [s[:, :-1] for s in sign])
            self._views[n] = views
        aug, self.acts, self.logits, *grad = self._views[n]
        self.n, self._a = n, [self._a[0], *aug]
        if grad:
            self._d, self._s, self._m = grad

    def release(self) -> None:
        """Drop the last forward's input rows, so the kernel keeps them from no one."""
        self._a[0] = None

    @property
    def inputs(self) -> np.ndarray:
        return self._a[0][:, :-1]

    @property
    def embeddings(self) -> np.ndarray:
        """The extractor's output: the last hidden activation, or the input."""
        return self.acts[-1] if self.acts else self.inputs

    def forward(self, model: MlpModel, x: np.ndarray, classify: bool = True) -> Kernel:
        if len(x) != self.n:
            self._rows(len(x))
        a = self._a
        a[0] = x
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
            self._sign = [np.empty_like(a) for a in self._aug]
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
    widths = (input_dim, *hidden, num_classes)
    *extractor, classifier = [(rng.uniform(-1.0 / np.sqrt(i), 1.0 / np.sqrt(i), size=(i, o)),
                               np.zeros(o)) for i, o in zip(widths, widths[1:])]
    return MlpModel(extractor=extractor, classifier=classifier)


def flatten(model: MlpModel) -> np.ndarray:
    """A copy of all parameters (extractor first, classifier last)."""
    return model.theta.copy()


def unflatten_like(template: MlpModel, vec: np.ndarray) -> MlpModel:
    """A model with the template's shapes over `vec`: later writes into
    `vec` move it (a `vec` that is not contiguous float64 is copied)."""
    return MlpModel(extractor=template.extractor, classifier=template.classifier, theta=vec)


def augment(model: MlpModel, batch) -> np.ndarray:
    """A float64 copy of an (n, input_dim) batch with a trailing ones column."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != model.input_dim:
        raise ShapeError(f"batch must be (n, {model.input_dim}), got {batch.shape}")
    return np.concatenate([batch, np.ones((len(batch), 1))], axis=1)


def forward(model: MlpModel, batch: np.ndarray) -> Kernel:
    """Run a batch through a fresh kernel, the trace `backward` takes, with
    `logits`, `acts` and `embeddings` (the input when there is no extractor)."""
    x = augment(model, batch)
    return Kernel(model.widths, len(x)).forward(model, x)


def embed(model: MlpModel, batch: np.ndarray) -> np.ndarray:
    """The extractor's output for a batch, bit-identical to
    `forward(model, batch).embeddings`, without the classifier. For
    forwards that need no `backward` (prototypes, monitors)."""
    x = augment(model, batch)
    return Kernel(model.widths, len(x)).forward(model, x, classify=False).embeddings


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
    max of ``|analytic - central| / (|central| + 1e-12)``.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    if rng is None:
        rng = np.random.default_rng(0)
    theta = flatten(model)
    _, grad = loss_fn(model, batch)
    n = theta.size
    coords = rng.choice(n, size=min(num_coords, n), replace=False)
    worst = 0.0
    for i in coords:
        theta_hi = theta.copy()
        theta_hi[i] += epsilon
        theta_lo = theta.copy()
        theta_lo[i] -= epsilon
        loss_hi, _ = loss_fn(unflatten_like(model, theta_hi), batch)
        loss_lo, _ = loss_fn(unflatten_like(model, theta_lo), batch)
        central = (loss_hi - loss_lo) / (2.0 * epsilon)
        rel = abs(grad[i] - central) / (abs(central) + 1e-12)
        worst = max(worst, rel)
    return worst


def save_checkpoint(path, model: MlpModel) -> None:
    """Little-endian binary checkpoint: magic, version, shapes, theta as raw f64."""
    layers = model._layers()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(layers)))
        for w, _ in layers:
            fh.write(struct.pack("<II", w.shape[0], w.shape[1]))
        fh.write(model.theta.astype("<f8", copy=False).tobytes())


def load_checkpoint(path) -> MlpModel:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"bad checkpoint magic: {magic!r}")
        (version,) = struct.unpack("<I", fh.read(4))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version: {version}")
        (n_layers,) = struct.unpack("<I", fh.read(4))
        shapes = [struct.unpack("<II", fh.read(8)) for _ in range(n_layers)]
        theta = np.frombuffer(fh.read(), dtype="<f8").astype(np.float64)
    *extractor, classifier = [(np.empty((r, c)), np.empty(c)) for r, c in shapes]
    return MlpModel(extractor=extractor, classifier=classifier, theta=theta)
