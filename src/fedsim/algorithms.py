"""Local training procedures: the goal/path-synergy method and the
FedAvg / FedAvgM / FedProx / SCAFFOLD baselines.

Every local trainer consumes the broadcast global parameters plus
read-only round inputs and returns the client's parameter delta. The
synergy method adds two mechanisms on top of plain momentum SGD:

* a composite objective that augments local cross-entropy with
  cross-entropy on a shared surrogate set and two prototype-alignment
  penalties (local batch vs. surrogate batch, surrogate batch vs. the
  downloaded global prototypes), plus an L2 term;
* path rectification, which evaluates each step's gradient at the model
  shifted by ``lambda_g`` along the unit direction of the non-self
  gradient collected by the server.

The alignment distance is the mean over classes of the squared Euclidean
distance between class-conditional mean embeddings, which keeps the
gradient exact; order-statistic transport distances are reserved for
diagnostics in `fedsim.eval`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .nn import MlpModel, backward, flatten, forward, unflatten_like
from .protocol import ClientState, apply_global_delta, mean_delta


class DivergedError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, message: str, round_index: int | None = None,
                 client_id: int | None = None):
        if round_index is not None or client_id is not None:
            message = f"{message} (round={round_index}, client={client_id})"
        super().__init__(message)
        self.round_index = round_index
        self.client_id = client_id


@dataclass
class FedGpsHyper:
    """Local-training hyperparameters; baselines reuse the shared fields.

    lambda1 weighs local-vs-surrogate alignment, lambda2 surrogate-vs-
    global alignment, lambda3 the L2 penalty, lambda_g the rectification
    step. `surrogate_ce` scales the surrogate cross-entropy term (1 as
    written, 0 to ablate). `nsg_sign` flips the non-self-gradient
    direction; the two published forms disagree on the sign, so both are
    reachable.
    """

    lambda1: float = 0.1
    lambda2: float = 0.2
    lambda3: float = 1e-5
    lambda_g: float = 0.5
    eta_l: float = 0.01
    momentum: float = 0.9
    local_epochs: int = 1
    batch_size: int = 32
    surrogate_ce: float = 1.0
    nsg_sign: float = 1.0
    prox_mu: float = 0.125

    def __post_init__(self):
        if min(self.lambda1, self.lambda2, self.lambda3, self.lambda_g) < 0:
            raise ValueError("lambda weights must be >= 0")
        if self.eta_l <= 0:
            raise ValueError("eta_l must be > 0")
        if self.local_epochs < 1 or self.batch_size < 1:
            raise ValueError("local_epochs and batch_size must be >= 1")
        if self.nsg_sign not in (1.0, -1.0, 1, -1):
            raise ValueError("nsg_sign must be +1 or -1")


@dataclass
class PrototypeSet:
    """Per-class mean embeddings with the sample counts behind them."""

    means: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=np.float64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if (self.counts < 1).any():
            raise ValueError("every class needs at least one sample")


def compute_local_prototypes(model: MlpModel, surrogate: LabeledDataset) -> PrototypeSet:
    """Class-c prototype = mean extractor embedding over surrogate class c."""
    trace = forward(model, surrogate.features)
    means, counts = _class_means(trace.embeddings, surrogate.labels, surrogate.num_classes)
    missing = np.flatnonzero(counts == 0)
    if len(missing) > 0:
        raise ValueError(f"surrogate set is missing class {missing[0]}")
    return PrototypeSet(means, counts)


def _ce_from_logits(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient w.r.t. the logits."""
    n = len(labels)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1))
    loss = float(np.mean(logsumexp - shifted[np.arange(n), labels]))
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    probs[np.arange(n), labels] -= 1.0
    return loss, probs / n


def ce_loss_and_grad(model: MlpModel, batch_x: np.ndarray, batch_y: np.ndarray,
                     l2: float = 0.0) -> tuple[float, np.ndarray]:
    """Cross-entropy plus l2*||theta||^2, with the exact flat gradient."""
    trace = forward(model, batch_x)
    loss, dlogits = _ce_from_logits(trace.logits, batch_y)
    grad = backward(model, trace, dlogits)
    if l2 != 0.0:
        theta = flatten(model)
        loss += l2 * float(theta @ theta)
        grad += (2.0 * l2) * theta
    if not np.isfinite(loss):
        raise DivergedError("non-finite cross-entropy loss")
    return loss, grad


def _class_means(embeddings: np.ndarray, labels: np.ndarray, num_classes: int):
    """Per-class mean embeddings plus counts for one batch; an absent
    class gets a zero mean and a zero count."""
    counts = np.bincount(labels, minlength=num_classes)
    onehot = np.equal.outer(np.arange(num_classes), labels).astype(np.float64)
    means = (onehot @ embeddings) / np.maximum(counts, 1)[:, None]
    return means, counts


def fedgps_loss_and_grad(model: MlpModel, local_batch, surrogate_batch,
                         global_prototypes: np.ndarray | None,
                         hyper: FedGpsHyper) -> tuple[float, np.ndarray]:
    """Composite local objective and its exact gradient.

        loss = CE(local) + w_s * CE(surrogate)
             + lambda1 * d(local batch, surrogate batch)
             + lambda2 * d(surrogate batch, global prototypes)
             + lambda3 * ||theta||^2

    where d is the mean over classes of the squared distance between
    class-conditional mean embeddings. Stage 1 covers classes present in
    both batches; stage 2 covers classes present in the surrogate batch
    (the downloaded prototypes are constants, a zero matrix in round 0).
    With the surrogate machinery disabled this reduces, operation for
    operation, to `ce_loss_and_grad` on the local batch.
    """
    x_local, y_local = local_batch
    surrogate_off = (surrogate_batch is None or
                     (hyper.surrogate_ce == 0.0 and hyper.lambda1 == 0.0
                      and hyper.lambda2 == 0.0))
    if surrogate_off:
        return ce_loss_and_grad(model, x_local, y_local, hyper.lambda3)

    x_surr, y_surr = surrogate_batch
    n_local = len(y_local)
    trace = forward(model, np.concatenate([x_local, x_surr]))
    ce_l, dlogits_l = _ce_from_logits(trace.logits[:n_local], y_local)
    ce_s, dlogits_s = _ce_from_logits(trace.logits[n_local:], y_surr)
    loss = ce_l + hyper.surrogate_ce * ce_s
    dembed = None

    if hyper.lambda1 > 0 or hyper.lambda2 > 0:
        # Each alignment term is a function of the class means, so its
        # embedding gradient is a per-class row divided by the class count
        # and handed to every sample of that class.
        num_classes = model.num_classes
        mu, n_l = _class_means(trace.embeddings[:n_local], y_local, num_classes)
        nu, n_s = _class_means(trace.embeddings[n_local:], y_surr, num_classes)
        g_mu = np.zeros_like(mu)
        g_nu = np.zeros_like(nu)

        if hyper.lambda1 > 0:
            shared = np.flatnonzero((n_l > 0) & (n_s > 0))
            if len(shared) > 0:
                diff = mu[shared] - nu[shared]
                loss += hyper.lambda1 * float(np.mean((diff ** 2).sum(axis=1)))
                g_mu[shared] = (2.0 * hyper.lambda1 / len(shared)) * diff
                g_nu[shared] = -g_mu[shared]

        if hyper.lambda2 > 0 and global_prototypes is not None:
            present = np.flatnonzero(n_s > 0)
            diff = nu[present] - global_prototypes[present]
            loss += hyper.lambda2 * float(np.mean((diff ** 2).sum(axis=1)))
            g_nu[present] += (2.0 * hyper.lambda2 / len(present)) * diff

        dembed = np.concatenate([(g_mu / np.maximum(n_l, 1)[:, None])[y_local],
                                 (g_nu / np.maximum(n_s, 1)[:, None])[y_surr]])

    dlogits = np.concatenate([dlogits_l, hyper.surrogate_ce * dlogits_s])
    grad = backward(model, trace, dlogits, dembed)
    if hyper.lambda3 != 0.0:
        theta = flatten(model)
        loss += hyper.lambda3 * float(theta @ theta)
        grad += (2.0 * hyper.lambda3) * theta
    if not np.isfinite(loss):
        raise DivergedError("non-finite composite loss")
    return loss, grad


def _unit_direction(vec: np.ndarray) -> np.ndarray:
    """vec / ||vec||_2, computed so that inputs differing only by an exact
    positive factor produce bit-identical outputs (divide by the largest
    magnitude first, then normalize)."""
    scale = np.max(np.abs(vec))
    scaled = vec / scale
    return scaled / np.linalg.norm(scaled)


def rectified_gradient(model: MlpModel, nsg: np.ndarray | None, lambda_g: float,
                       loss_and_grad) -> np.ndarray:
    """Gradient of `loss_and_grad` at theta + lambda_g * nsg/||nsg||.

    The caller's model is never mutated; the perturbed evaluation happens
    on a rebuilt copy. Degenerate inputs (no nsg, lambda_g = 0, or
    ||nsg|| < 1e-12) fall back to the unperturbed gradient.
    """
    if nsg is None or lambda_g == 0.0 or np.linalg.norm(nsg) < 1e-12:
        loss, grad = loss_and_grad(model)
        if not np.isfinite(loss):
            raise DivergedError("non-finite loss at unperturbed point")
        return grad
    unit = _unit_direction(nsg)
    perturbed = unflatten_like(model, flatten(model) + lambda_g * unit)
    loss, grad = loss_and_grad(perturbed)
    if not np.isfinite(loss):
        raise DivergedError("non-finite loss at rectified point")
    return grad


class _BatchCycler:
    """Endless minibatch stream over n items, reshuffled per pass."""

    def __init__(self, n: int, batch_size: int, rng: np.random.Generator):
        self.n = n
        self.batch_size = min(batch_size, n)
        self.rng = rng
        self._order = rng.permutation(n)
        self._pos = 0

    def next(self) -> np.ndarray:
        if self._pos + self.batch_size > self.n:
            self._order = self.rng.permutation(self.n)
            self._pos = 0
        batch = self._order[self._pos:self._pos + self.batch_size]
        self._pos += self.batch_size
        return batch


def _local_sgd(client: ClientState, template: MlpModel, theta_start: np.ndarray,
               dataset: LabeledDataset, hyper: FedGpsHyper, grad_fn, round_index: int,
               step_offset: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, int]:
    """Momentum-SGD over the client's shuffled shard for E local epochs.

    `grad_fn(model, xb, yb)` returns the flat gradient for one minibatch.
    `step_offset`, when given, is added to every step's displacement after
    momentum smoothing (control-variate style). A `DivergedError` from a
    step is raised again naming the round and the client, without overflow
    warnings on the way. Caches the delta on the client and returns
    (delta, theta_end, number of steps taken).
    """
    features = dataset.features[client.shard]
    labels = dataset.labels[client.shard]
    theta = theta_start.copy()
    velocity = np.zeros_like(theta)
    n = len(labels)
    bs = min(hyper.batch_size, n)
    steps = 0
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(hyper.local_epochs):
                order = client.data_rng.permutation(n)
                for start in range(0, n, bs):
                    mb = order[start:start + bs]
                    model = unflatten_like(template, theta)
                    grad = grad_fn(model, features[mb], labels[mb])
                    velocity = hyper.momentum * velocity + grad
                    if step_offset is None:
                        theta = theta - hyper.eta_l * velocity
                    else:
                        theta = theta - hyper.eta_l * (velocity + step_offset)
                    steps += 1
    except DivergedError as err:
        raise DivergedError(str(err), round_index, client.id) from None
    client.last_delta = theta - theta_start
    return client.last_delta, theta, steps


def fedgps_local_train(client: ClientState, template: MlpModel,
                       theta_global: np.ndarray, nsg: np.ndarray | None,
                       dataset: LabeledDataset, surrogate: LabeledDataset,
                       global_prototypes: np.ndarray | None, hyper: FedGpsHyper,
                       round_index: int = 0) -> tuple[np.ndarray, PrototypeSet]:
    """One client's round: rectified steps over the composite objective.

    The non-self gradient is fixed for the round and its perturbation is
    re-applied at every iteration; with rectification and all surrogate
    terms disabled this trajectory is bit-identical to FedAvg's. Returns
    the parameter delta and fresh local prototypes over the full
    surrogate set, and caches the delta on the client.
    """
    if nsg is not None and hyper.nsg_sign == -1.0:
        nsg = -nsg

    cycler = None
    if hyper.surrogate_ce != 0.0 or hyper.lambda1 != 0.0 or hyper.lambda2 != 0.0:
        cycler = _BatchCycler(len(surrogate), hyper.batch_size, client.surrogate_rng)

    def grad_fn(model, xb, yb):
        surr = None
        if cycler is not None:
            mb = cycler.next()
            surr = (surrogate.features[mb], surrogate.labels[mb])

        def closure(m):
            return fedgps_loss_and_grad(m, (xb, yb), surr, global_prototypes, hyper)

        return rectified_gradient(model, nsg, hyper.lambda_g, closure)

    delta, theta_end, _ = _local_sgd(client, template, theta_global, dataset, hyper,
                                     grad_fn, round_index)
    prototypes = compute_local_prototypes(unflatten_like(template, theta_end), surrogate)
    return delta, prototypes


def fedavg_local_train(client: ClientState, template: MlpModel,
                       theta_global: np.ndarray, dataset: LabeledDataset,
                       hyper: FedGpsHyper, round_index: int = 0) -> np.ndarray:
    """Plain momentum SGD on local cross-entropy (plus L2)."""
    def grad_fn(model, xb, yb):
        return ce_loss_and_grad(model, xb, yb, hyper.lambda3)[1]

    return _local_sgd(client, template, theta_global, dataset, hyper,
                      grad_fn, round_index)[0]


def fedprox_local_train(client: ClientState, template: MlpModel,
                        theta_global: np.ndarray, dataset: LabeledDataset,
                        hyper: FedGpsHyper, round_index: int = 0) -> np.ndarray:
    """FedAvg plus the proximal pull mu*(theta - theta_global)."""
    mu = hyper.prox_mu

    def grad_fn(model, xb, yb):
        grad = ce_loss_and_grad(model, xb, yb, hyper.lambda3)[1]
        if mu != 0.0:
            grad = grad + mu * (flatten(model) - theta_global)
        return grad

    return _local_sgd(client, template, theta_global, dataset, hyper,
                      grad_fn, round_index)[0]


def scaffold_local_train(client: ClientState, template: MlpModel,
                         theta_global: np.ndarray, dataset: LabeledDataset,
                         hyper: FedGpsHyper, server_control: np.ndarray,
                         client_control: np.ndarray,
                         round_index: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Control-variate-corrected local steps with the option-II update.

    Each step applies the correction -c_k + c outside the momentum buffer
    (momentum smooths the stochastic gradient only; compounding a constant
    correction through momentum multiplies it by 1/(1-beta) and diverges).
    Afterwards the client control becomes
    c_k - c + (theta_global - theta_end) / (steps * eta_l).
    """
    def grad_fn(model, xb, yb):
        return ce_loss_and_grad(model, xb, yb, hyper.lambda3)[1]

    delta, theta_end, steps = _local_sgd(client, template, theta_global, dataset, hyper,
                                         grad_fn, round_index,
                                         step_offset=server_control - client_control)
    new_control = client_control - server_control + \
        (theta_global - theta_end) / (steps * hyper.eta_l)
    return delta, new_control


def fedavgm_server_update(server, deltas: dict[int, np.ndarray],
                          velocity: np.ndarray, beta: float = 0.9) -> np.ndarray:
    """Server momentum: v <- beta*v + mean(deltas); theta <- theta + eta_g*v.

    Returns the new velocity. `prev_global_delta` records the change
    actually applied, which under momentum is no longer eta_g*mean(deltas).
    """
    velocity = beta * velocity + mean_delta(deltas)
    apply_global_delta(server, deltas, server.eta_g * velocity)
    return velocity
