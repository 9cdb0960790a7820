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
gradient exact.

With a surrogate term on, the synergy method lays out each local epoch
once as an `EpochPlan`: every step's local and surrogate rows side by
side, each row's cross-entropy index and weight, and the label-only part
of the alignment terms (a matrix M_i per step that maps embeddings to
class-mean differences, and per-class weights omega_i). A step is then
one forward over a slice, one weighted softmax pass, the alignment terms
as two small products (diff = M_i E - [0; P], and the embedding gradient
M_i^T (2 omega_i diff)) and one backward. `fedgps_loss_and_grad` runs a
one-step plan.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import islice

import numpy as np

from .data import LabeledDataset
from .nn import MlpModel, backward, embed, forward, unflatten_like
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
        problems = hyper_problems(self)
        if problems:
            raise ValueError("; ".join(problems))

    @property
    def uses_surrogate(self) -> bool:
        """Whether any surrogate term (its cross-entropy, lambda1, lambda2) is on."""
        return self.surrogate_ce != 0.0 or self.lambda1 != 0.0 or self.lambda2 != 0.0


def hyper_problems(h) -> list[str]:
    """The rules on the `FedGpsHyper` fields that `h`, a hyper or a config,
    breaks; every float field of `h` must be finite."""
    problems = [f"{f.name} must be finite" for f in fields(h)
                if f.type == "float" and not math.isfinite(getattr(h, f.name))]
    if min(h.lambda1, h.lambda2, h.lambda3, h.lambda_g) < 0:
        problems.append("lambda weights must be >= 0")
    if h.eta_l <= 0:
        problems.append("eta_l must be > 0")
    if h.local_epochs < 1 or h.batch_size < 1:
        problems.append("local_epochs and batch_size must be >= 1")
    if h.nsg_sign not in (1.0, -1.0, 1, -1):
        problems.append("nsg_sign must be +1 or -1")
    return problems


@dataclass
class PrototypeSet:
    """Per-class mean embeddings with the sample counts behind them."""

    means: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=np.float64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        missing = np.flatnonzero(self.counts < 1)
        if len(missing) > 0:
            raise ValueError(f"missing class {missing[0]}: every class needs a sample")


def compute_local_prototypes(model: MlpModel, surrogate: LabeledDataset) -> PrototypeSet:
    """Class-c prototype = mean extractor embedding over surrogate class c."""
    return PrototypeSet(*_class_means(embed(model, surrogate.features), surrogate.labels,
                                      surrogate.num_classes))


def _ce_from_logits(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient w.r.t. the logits; row r's label
    entry is read at flat index r * C + label."""
    n, num_classes = logits.shape
    flat = np.arange(0, n * num_classes, num_classes) + labels
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    sums = probs.sum(axis=1)
    losses = np.log(sums) - shifted.take(flat)
    probs /= sums[:, None]
    probs.reshape(-1)[flat] -= 1.0
    probs /= n
    return float(losses.sum()) / n, probs


def ce_loss_and_grad(model: MlpModel, batch_x: np.ndarray, batch_y: np.ndarray,
                     l2: float = 0.0) -> tuple[float, np.ndarray]:
    """Cross-entropy plus l2*||theta||^2, with the exact flat gradient."""
    trace = forward(model, batch_x)
    loss, dlogits = _ce_from_logits(trace.logits, batch_y)
    grad = backward(model, trace, dlogits)
    if l2 != 0.0:
        theta = model.theta
        loss += l2 * float(theta @ theta)
        grad += (2.0 * l2) * theta
    if not math.isfinite(loss):
        raise DivergedError("non-finite cross-entropy loss")
    return loss, grad


def _class_means(embeddings: np.ndarray, labels: np.ndarray, num_classes: int):
    """Per-class mean embeddings plus counts for one batch; an absent
    class gets a zero mean and a zero count."""
    counts = np.bincount(labels, minlength=num_classes)
    onehot = np.equal.outer(np.arange(num_classes), labels).astype(np.float64)
    means = (onehot @ embeddings) / np.maximum(counts, 1)[:, None]
    return means, counts


class EpochPlan:
    """The composite steps of one local epoch, laid out once.

    Step i takes local rows [i*B, (i+1)*B) of the epoch's gathered shard
    (B = min(batch_size, n)) and the surrogate rows `batches[i]`. Its rows
    [local_i; surrogate_i] sit contiguously in `x`, so a step's inputs are
    one slice. Per row the plan holds the flat cross-entropy index and the
    cross-entropy weight: 1/n_local on local rows, surrogate_ce/n_surr on
    surrogate rows.

    With an alignment term on, step i's rows of `mt` hold M_i^T, where the
    (2C x rows) matrix M_i turns the step's embeddings E into
    [mu - nu; nu] with entries +-1/count, and `omega2[i]` holds 2*omega_i:
    lambda1/n_shared on the classes both batches hold, lambda2/n_present
    on the surrogate batch's classes (with global prototypes only) and 0
    elsewhere. omega_i scales a class's difference before anything squares
    it, so a huge embedding that no term weighs cannot make the loss 0*inf.
    """

    def __init__(self, x_local: np.ndarray, y_local: np.ndarray, batch_size: int,
                 x_surr: np.ndarray, y_surr: np.ndarray, batches: np.ndarray,
                 global_prototypes: np.ndarray | None, hyper: FedGpsHyper, model: MlpModel):
        n, (steps, self.m), c = len(y_local), batches.shape, model.num_classes
        self.batch = min(batch_size, n)
        self.stride, self.c, self.lambda3 = self.batch + self.m, c, hyper.lambda3
        n_loc = np.minimum(n - np.arange(steps) * self.batch, self.batch)
        self.n_local = n_loc.tolist()
        total = n + steps * self.m
        # plan rows run step by step, each step's local rows first
        pos = np.arange(total)
        step, row = np.divmod(pos, self.stride)
        step_local = n_loc[step]
        surr = row >= step_local
        local = ~surr
        drawn = batches.ravel()
        self.x = np.empty((total, x_local.shape[1]))
        self.x[local], self.x[surr] = x_local, x_surr[drawn]
        labels = np.empty(total, dtype=np.intp)
        labels[local], labels[surr] = y_local, y_surr[drawn]
        self.flat = row * c + labels
        self.ce_weight = 1.0 / step_local
        self.ce_weight[surr] = hyper.surrogate_ce / self.m

        self.prototypes = global_prototypes if hyper.lambda2 > 0 else None
        self.mt = None
        if hyper.lambda1 == 0 and self.prototypes is None:
            return
        cell = labels + c * surr  # c for a local row of class c, C + c for a surrogate one
        key = step * (2 * c) + cell
        counts = np.bincount(key, minlength=steps * 2 * c).reshape(steps, 2 * c)
        inv = (1.0 / np.maximum(counts, 1)).ravel()[key]
        # a row's column of M_i: 1/count in its own class-mean row and, on a
        # surrogate row, -1/count in its class's mu - nu row
        self.mt = np.zeros((total, 2 * c))
        self.mt[pos, cell] = inv
        self.mt[pos, labels] -= inv * surr
        present = counts[:, c:] > 0
        self.omega2 = np.zeros((steps, 2 * c, 1))
        if hyper.lambda1 > 0:
            shared = (counts[:, :c] > 0) & present
            self.omega2[:, :c, 0] = shared * (
                2.0 * hyper.lambda1 / np.maximum(shared.sum(axis=1, keepdims=True), 1))
        if self.prototypes is not None:
            self.omega2[:, c:, 0] = present * (
                2.0 * hyper.lambda2 / present.sum(axis=1, keepdims=True))

    def loss_and_grad(self, model: MlpModel, start: int = 0) -> tuple[float, np.ndarray]:
        """Composite loss and exact gradient of the step whose local rows start at `start`."""
        i = start // self.batch
        k = self.n_local[i]
        rows = slice(i * self.stride, i * self.stride + k + self.m)
        trace = forward(model, self.x[rows])
        flat, weight, logits = self.flat[rows], self.ce_weight[rows], trace.logits
        # `_ce_from_logits`'s softmax, each row normalised and weighted in one pass
        shifted = logits - logits.max(axis=1, keepdims=True)
        dlogits = np.exp(shifted)
        sums = dlogits.sum(axis=1)
        losses = np.log(sums) - shifted.take(flat)
        dlogits *= (weight / sums)[:, None]
        dlogits.reshape(-1)[flat] -= weight
        ce_local, ce_surr = float(losses[:k] @ weight[:k]), float(losses[k:] @ weight[k:])
        stage1 = stage2 = 0.0
        dembed = None
        if self.mt is not None:
            c, mt = self.c, self.mt[rows]
            diff = mt.T @ trace.embeddings  # [mu - nu; nu]
            if self.prototypes is not None:
                diff[c:] -= self.prototypes
            g = diff * self.omega2[i]
            stage1 = 0.5 * float(np.vdot(g[:c], diff[:c]))
            stage2 = 0.5 * float(np.vdot(g[c:], diff[c:]))
            dembed = mt @ g
        grad = backward(model, trace, dlogits, dembed)
        l2 = 0.0
        if self.lambda3 != 0.0:
            theta = model.theta
            l2 = self.lambda3 * float(theta @ theta)
            grad += (2.0 * self.lambda3) * theta
        loss = ce_local + ce_surr + stage1 + stage2 + l2
        if not math.isfinite(loss):
            raise DivergedError("non-finite composite loss")
        return loss, grad


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
    The batches make a one-step `EpochPlan`, the trainer's code path. With
    the surrogate machinery disabled this is `ce_loss_and_grad` on the
    local batch.
    """
    x_local, y_local = local_batch
    if surrogate_batch is None or not hyper.uses_surrogate:
        return ce_loss_and_grad(model, x_local, y_local, hyper.lambda3)
    x_surr, y_surr = surrogate_batch
    return EpochPlan(x_local, y_local, len(y_local), x_surr, y_surr,
                     np.arange(len(y_surr))[None], global_prototypes, hyper,
                     model).loss_and_grad(model)


def rectification_shift(nsg: np.ndarray | None, lambda_g: float) -> np.ndarray | None:
    """lambda_g * nsg/||nsg||, or None when degenerate (no nsg, lambda_g = 0
    or ||nsg|| < 1e-12). Dividing by the largest magnitude first makes any
    exact positive multiple of nsg give a bit-identical shift."""
    if nsg is None or lambda_g == 0.0 or np.linalg.norm(nsg) < 1e-12:
        return None
    scaled = nsg / np.max(np.abs(nsg))
    return lambda_g * (scaled / np.linalg.norm(scaled))


def rectified_gradient(model: MlpModel, nsg: np.ndarray | None, lambda_g: float, loss_and_grad,
                       shift: np.ndarray | None = None, at: MlpModel | None = None) -> np.ndarray:
    """Gradient of `loss_and_grad` at theta + lambda_g * nsg/||nsg||.

    The caller's model is never mutated; degenerate inputs fall back to the
    unperturbed gradient. A caller stepping against one nsg all round passes
    its `rectification_shift` and a scratch model `at` for theta + shift.
    """
    if shift is None:
        shift = rectification_shift(nsg, lambda_g)
    point, where = model, "unperturbed"
    if shift is not None:
        point, where = at or unflatten_like(model, np.empty_like(model.theta)), "rectified"
        np.add(model.theta, shift, out=point.theta)
    loss, grad = loss_and_grad(point)
    if not math.isfinite(loss):
        raise DivergedError(f"non-finite loss at {where} point")
    return grad


def _batch_cycler(n: int, batch_size: int, rng: np.random.Generator):
    """Endless minibatch stream over n items: per pass, full batches of a fresh permutation."""
    batch_size = min(batch_size, n)
    while True:
        order = rng.permutation(n)
        for start in range(0, n - batch_size + 1, batch_size):
            yield order[start:start + batch_size]


def _local_sgd(client: ClientState, template: MlpModel, theta_start: np.ndarray,
               dataset: LabeledDataset, hyper: FedGpsHyper, epoch_grad, round_index: int,
               step_offset: np.ndarray | None = None) -> tuple[np.ndarray, MlpModel, int]:
    """Momentum-SGD for E local epochs, each over the shard gathered in a fresh shuffle.

    `epoch_grad(features, labels)` receives each epoch's gathered shard
    once and returns `step_grad(model, start, stop)`, the flat gradient
    for the minibatch of rows start:stop; every step updates `model.theta`
    in place. `step_offset`, when given, is added to every step's
    displacement after momentum smoothing (control-variate style). A
    `DivergedError` from a step is raised again naming the round and the
    client, without overflow warnings on the way. Returns (delta, end
    model, steps); the client keeps no copy of the delta.
    """
    model = unflatten_like(template, theta_start.copy())
    velocity = np.zeros_like(theta_start)
    n = len(client.shard)
    bs = min(hyper.batch_size, n)
    steps = 0
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(hyper.local_epochs):
                rows = client.shard[client.data_rng.permutation(n)]
                step_grad = epoch_grad(dataset.features.take(rows, axis=0),
                                       dataset.labels.take(rows))
                for start in range(0, n, bs):
                    grad = step_grad(model, start, start + bs)
                    velocity *= hyper.momentum
                    velocity += grad
                    if step_offset is None:
                        model.theta -= hyper.eta_l * velocity
                    else:
                        model.theta -= hyper.eta_l * (velocity + step_offset)
                    steps += 1
    except DivergedError as err:
        raise DivergedError(str(err), round_index, client.id) from None
    return model.theta - theta_start, model, steps


def fedgps_local_train(client: ClientState, template: MlpModel,
                       theta_global: np.ndarray, nsg: np.ndarray | None,
                       dataset: LabeledDataset, surrogate: LabeledDataset,
                       global_prototypes: np.ndarray | None, hyper: FedGpsHyper,
                       round_index: int = 0) -> tuple[np.ndarray, PrototypeSet]:
    """One client's round: rectified steps over the composite objective.

    The non-self gradient is fixed for the round, so its shift is computed
    once and re-applied at every iteration. With a surrogate term on, each
    epoch draws its steps' surrogate minibatches in step order and lays
    the epoch out as one `EpochPlan`; with rectification and all surrogate
    terms disabled this trajectory is bit-identical to FedAvg's. Returns
    the parameter delta and fresh local prototypes over the full
    surrogate set.
    """
    if nsg is not None and hyper.nsg_sign == -1.0:
        nsg = -nsg
    shift = rectification_shift(nsg, hyper.lambda_g)
    at = None if shift is None else MlpModel(  # scratch model for theta + shift
        template.extractor, template.classifier, theta=np.empty(template.num_params))

    cycler = (_batch_cycler(len(surrogate), hyper.batch_size, client.surrogate_rng)
              if hyper.uses_surrogate else None)

    def epoch_grad(features, labels):
        if cycler is None:
            def step_grad(model, start, stop):
                xb, yb = features[start:stop], labels[start:stop]
                return rectified_gradient(model, nsg, hyper.lambda_g,
                                          lambda m: ce_loss_and_grad(m, xb, yb, hyper.lambda3),
                                          shift, at)
            return step_grad

        n = len(labels)
        batches = np.array(list(islice(cycler, -(-n // min(hyper.batch_size, n)))))
        plan = EpochPlan(features, labels, hyper.batch_size, surrogate.features,
                         surrogate.labels, batches, global_prototypes, hyper, template)
        return lambda model, start, stop: rectified_gradient(
            model, nsg, hyper.lambda_g, lambda m: plan.loss_and_grad(m, start), shift, at)

    delta, model_end, _ = _local_sgd(client, template, theta_global, dataset, hyper,
                                     epoch_grad, round_index)
    return delta, compute_local_prototypes(model_end, surrogate)


def _ce_grad(hyper: FedGpsHyper):
    """Each step's gradient of local cross-entropy plus L2, for `_local_sgd`."""
    def epoch_grad(features, labels):
        return lambda model, start, stop: ce_loss_and_grad(
            model, features[start:stop], labels[start:stop], hyper.lambda3)[1]
    return epoch_grad


def fedavg_local_train(client: ClientState, template: MlpModel,
                       theta_global: np.ndarray, dataset: LabeledDataset,
                       hyper: FedGpsHyper, round_index: int = 0) -> np.ndarray:
    """Plain momentum SGD on local cross-entropy (plus L2)."""
    return _local_sgd(client, template, theta_global, dataset, hyper,
                      _ce_grad(hyper), round_index)[0]


def fedprox_local_train(client: ClientState, template: MlpModel,
                        theta_global: np.ndarray, dataset: LabeledDataset,
                        hyper: FedGpsHyper, round_index: int = 0) -> np.ndarray:
    """FedAvg plus the proximal pull mu*(theta - theta_global)."""
    mu = hyper.prox_mu

    def epoch_grad(features, labels):
        def step_grad(model, start, stop):
            grad = ce_loss_and_grad(model, features[start:stop], labels[start:stop],
                                    hyper.lambda3)[1]
            if mu != 0.0:
                grad += mu * (model.theta - theta_global)
            return grad
        return step_grad

    return _local_sgd(client, template, theta_global, dataset, hyper,
                      epoch_grad, round_index)[0]


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
    delta, model_end, steps = _local_sgd(client, template, theta_global, dataset, hyper,
                                         _ce_grad(hyper), round_index,
                                         step_offset=server_control - client_control)
    new_control = client_control - server_control + \
        (theta_global - model_end.theta) / (steps * hyper.eta_l)
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
