"""Minimal dense network with exact manual backpropagation.

The model is a stack of fully connected layers split into a feature
extractor (linear + rectifier per layer) and a final linear classifier.
All parameters live in one flat float64 vector, `model.theta`, the unit
of all federated communication and arithmetic in this package; each layer
is a reshape view into it. `flatten` returns a copy of that vector, and
`unflatten_like` builds a model over a given vector, sharing its memory.
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
        if self.extractor and self.extractor[-1][0].shape[1] != self.classifier[0].shape[0]:
            raise ShapeError("extractor output width must equal classifier input width")
        size = sum(w.size + b.size for w, b in self._layers())
        if self.theta is None:
            self.theta = np.concatenate([a.ravel() for wb in self._layers() for a in wb])
        self.theta = np.ascontiguousarray(self.theta, dtype=np.float64)
        if self.theta.shape != (size,):
            raise ShapeError(f"expected flat vector of length {size}, got {self.theta.shape}")
        *self.extractor, self.classifier = _layer_views(self.theta, self._layers())

    @property
    def input_dim(self) -> int:
        if self.extractor:
            return self.extractor[0][0].shape[0]
        return self.classifier[0].shape[0]

    @property
    def embed_dim(self) -> int:
        return self.classifier[0].shape[0]

    @property
    def num_classes(self) -> int:
        return self.classifier[0].shape[1]

    @property
    def num_params(self) -> int:
        return self.theta.size

    def _layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return [*self.extractor, self.classifier]


def _layer_views(flat: np.ndarray, layers) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight, bias) views into `flat` with the shapes of `layers`."""
    views, offset = [], 0
    for w, b in layers:
        end = offset + w.size
        views.append((flat[offset:end].reshape(w.shape), flat[end:end + b.size]))
        offset = end + b.size
    return views


@dataclass
class ForwardTrace:
    """Per-layer caches from a forward pass, consumed by `backward`."""

    inputs: np.ndarray
    pre_acts: list[np.ndarray] = field(default_factory=list)
    acts: list[np.ndarray] = field(default_factory=list)
    embeddings: np.ndarray = None
    logits: np.ndarray = None


def init_mlp(input_dim: int, hidden: tuple[int, ...], num_classes: int,
             rng: np.random.Generator) -> MlpModel:
    """Seeded init: each layer uniform in +-1/sqrt(fan_in), biases zero."""
    extractor = []
    fan_in = input_dim
    for width in hidden:
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(fan_in, width))
        extractor.append((w, np.zeros(width)))
        fan_in = width
    bound = 1.0 / np.sqrt(fan_in)
    clf_w = rng.uniform(-bound, bound, size=(fan_in, num_classes))
    return MlpModel(extractor=extractor, classifier=(clf_w, np.zeros(num_classes)))


def flatten(model: MlpModel) -> np.ndarray:
    """A copy of all parameters (extractor first, classifier last)."""
    return model.theta.copy()


def unflatten_like(template: MlpModel, vec: np.ndarray) -> MlpModel:
    """A model with the template's shapes over `vec`: later writes into
    `vec` move it (a `vec` that is not contiguous float64 is copied)."""
    return MlpModel(extractor=template.extractor, classifier=template.classifier, theta=vec)


def _as_batch(model: MlpModel, batch) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != model.input_dim:
        raise ShapeError(
            f"batch must be (n, {model.input_dim}), got {batch.shape}")
    return batch


def forward(model: MlpModel, batch: np.ndarray) -> ForwardTrace:
    """Run a batch through the network, caching every intermediate.

    The feature space is the extractor's final activation (the input
    itself when the extractor is empty); `trace.embeddings` holds it.
    """
    batch = _as_batch(model, batch)
    trace = ForwardTrace(inputs=batch)
    h = batch
    for w, b in model.extractor:
        z = h @ w
        z += b
        h = np.maximum(z, 0.0)
        trace.pre_acts.append(z)
        trace.acts.append(h)
    trace.embeddings = h
    clf_w, clf_b = model.classifier
    trace.logits = h @ clf_w
    trace.logits += clf_b
    return trace


def embed(model: MlpModel, batch: np.ndarray) -> np.ndarray:
    """The extractor's output for a batch, bit-identical to
    `forward(model, batch).embeddings` but keeping no trace: each layer's
    rectifier runs in place, so only one activation per layer is made. For
    forwards that need no `backward` (evaluation, prototypes, monitors)."""
    h = _as_batch(model, batch)
    for w, b in model.extractor:
        h = h @ w
        h += b
        np.maximum(h, 0.0, out=h)
    return h


def backward(model: MlpModel, trace: ForwardTrace, dlogits: np.ndarray,
             dembed: np.ndarray | None = None) -> np.ndarray:
    """Exact gradient of a loss over the full flattened parameter vector.

    `dlogits` is the loss gradient w.r.t. the logits; an optional `dembed`
    (loss gradient w.r.t. the embeddings, as produced by feature-alignment
    terms) is routed through the extractor layers only. The rectifier
    subgradient at 0 is taken as 0.
    """
    dlogits = np.asarray(dlogits, dtype=np.float64)
    if dlogits.shape != trace.logits.shape:
        raise ShapeError(f"dlogits shape {dlogits.shape} != logits {trace.logits.shape}")
    grad = np.empty(model.num_params)
    views = _layer_views(grad, model._layers())
    clf_w, _ = model.classifier
    np.matmul(trace.embeddings.T, dlogits, out=views[-1][0])
    dlogits.sum(axis=0, out=views[-1][1])
    dh = dlogits @ clf_w.T
    if dembed is not None:
        dembed = np.asarray(dembed, dtype=np.float64)
        if dembed.shape != trace.embeddings.shape:
            raise ShapeError(
                f"dembed shape {dembed.shape} != embeddings {trace.embeddings.shape}")
        dh += dembed

    # dh is always a fresh product here, so it becomes dz in place.
    for i in range(len(model.extractor) - 1, -1, -1):
        dz = np.multiply(dh, trace.pre_acts[i] > 0, out=dh)
        prev = trace.inputs if i == 0 else trace.acts[i - 1]
        np.matmul(prev.T, dz, out=views[i][0])
        dz.sum(axis=0, out=views[i][1])
        if i > 0:
            dh = dz @ model.extractor[i][0].T
    return grad


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
