"""Local training procedures: the goal/path-synergy method and the
FedAvg / FedAvgM / FedProx / SCAFFOLD baselines.

Every local trainer consumes the broadcast global parameters plus
read-only round inputs and returns the client's parameter delta;
SCAFFOLD's also updates the client's control variate and returns its
change. A non-finite loss raises `DivergedError`, which the trainers let
through to the round loop. The synergy method adds two mechanisms on
top of plain momentum SGD:

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

Every trainer runs one local-SGD loop, `_local_sgd`, which lays out each
local epoch once as an `EpochPlan`: every step's local rows and, with a
surrogate term on, its surrogate rows side by side, each row's
cross-entropy index and weight, and the label-only part of the alignment
terms (a matrix M_i per step that maps embeddings to class-mean
differences, and per-class weights omega_i). A baseline epoch, and a
synergy epoch with every surrogate term off, is a plan with no surrogate
rows. A step is then one forward over a slice, one weighted softmax pass,
the alignment terms as two small products (diff = M_i E - [0; P], and the
embedding gradient M_i^T (2 omega_i diff)) and one backward. Every step's
gradient comes through `rectified_gradient`, at theta for the baselines;
the loop adds FedProx's pull and SCAFFOLD's offset.
`ce_loss_and_grad` and `fedgps_loss_and_grad` run a one-step plan. Each
epoch's feature rows are gathered once; a step hands its slice to the
template's `shared_kernel`, which adds the ones column.

The template is the run's workspace. Once per run it keeps the trainee
and the rectified point (`MlpModel.scratch`), its one kernel, and one plan
layout per shard size and surrogate shape, which every epoch of such a
shard reuses. The round loop computes each distinct rectification shift
once and hands the trainer the shift, not the non-self gradient.
Prototypes run on that same kernel, grown to the surrogate's rows, once
the client's steps are done, over the surrogate's features and kept class
indicator, so per client they cost one forward and one product.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import islice

import numpy as np

from .data import LabeledDataset
from .nn import Kernel, MlpModel, ShapeError, unflatten_like
from .protocol import ClientState, apply_global_delta, mean_delta


class DivergedError(RuntimeError):
    """Training produced a non-finite loss; the round loop, which knows the
    round and the client, records them."""


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
    if not 0 <= h.momentum < 1:
        problems.append("momentum must be in [0, 1)")
    if h.prox_mu < 0:
        problems.append("prox_mu must be >= 0")
    if h.local_epochs < 1 or h.batch_size < 1:
        problems.append("local_epochs and batch_size must be >= 1")
    if h.nsg_sign not in (1.0, -1.0, 1, -1):
        problems.append("nsg_sign must be +1 or -1")
    return problems


def compute_local_prototypes(model: MlpModel, surrogate: LabeledDataset) -> np.ndarray:
    """The (C, embed_dim) prototype matrix: row c is the mean extractor
    embedding over surrogate class c, from the surrogate's features and kept
    indicator on `model`'s shared kernel. Every class needs a sample."""
    kernel = model.shared_kernel(len(surrogate))
    embeddings = kernel.forward(model, surrogate.features, classify=False).embeddings
    means, counts = _means_by_class(embeddings, *surrogate.indicator)
    if counts.min(initial=1) < 1:
        raise ValueError(f"missing class {np.flatnonzero(counts < 1)[0]}: "
                         "every class needs a sample")
    return means


def ce_loss_and_grad(model: MlpModel, batch_x: np.ndarray, batch_y: np.ndarray,
                     l2: float = 0.0) -> tuple[float, np.ndarray]:
    """Mean cross-entropy plus l2*||theta||^2, with the exact flat gradient
    as a fresh vector: a one-step `EpochPlan`, the trainers' code path."""
    x, y = np.asarray(batch_x, dtype=np.float64), np.asarray(batch_y)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ShapeError(f"batch must be (n, {model.input_dim}), got {x.shape}")
    return EpochPlan(model, x, y, len(y), l2).loss_and_grad(model)


def _means_by_class(embeddings: np.ndarray, onehot: np.ndarray, counts: np.ndarray):
    """Per-class mean embeddings plus counts over a `data.class_indicator`
    (onehot, counts); an absent class gets a zero mean and a zero count."""
    return (onehot @ embeddings) / np.maximum(counts, 1)[:, None], counts


class _PlanLayout:
    """The label-free index arithmetic of an epoch plan over n local rows in
    batches of B, with m surrogate rows per step. It depends only on its
    arguments: a run's template keeps one per key, which every epoch of a
    shard of the same size reuses. Counted as hits times the cost of a
    miss, keeping them saves about 3% of a desk fedgps run, 3.5-4% of a
    desk baseline run and 7-8% of a 100-client run of about two steps each."""

    def __init__(self, n: int, batch: int, steps: int, m: int, c: int, surrogate_ce: float):
        n_loc = np.minimum(n - np.arange(steps) * batch, batch)
        self.stride, self.n_local, self.total = batch + m, n_loc.tolist(), n + steps * m
        # plan rows run step by step, each step's local rows first
        step, row = np.divmod(np.arange(self.total), self.stride)
        step_local = n_loc[step]
        surr = row >= step_local
        self.local, self.surr_rows = np.flatnonzero(~surr), np.flatnonzero(surr)
        self.row_c, self.ce_weight = row * c, 1.0 / step_local
        self.ce_weight[surr] = surrogate_ce / max(m, 1)
        if m:  # the alignment terms' class cells, read only with surrogate rows
            self.surr_c, self.step_2c = c * surr, step * (2 * c)


class EpochPlan:
    """The steps of one local epoch, laid out once.

    Step i takes local rows [i*B, (i+1)*B) of the epoch's shard, x_local's
    `rows` (B = min(batch_size, n)), and, with a `surrogate` (x_surr,
    y_surr, batches, global_prototypes), the surrogate rows `batches[i]`.
    Its feature rows [local_i; surrogate_i], gathered once, sit
    contiguously in `x`, so a step's inputs are one slice. Per
    row the plan holds the flat cross-entropy index and the weight:
    1/n_local on local rows, surrogate_ce/n_surr on surrogate rows. With no
    surrogate a step is cross-entropy plus l2*||theta||^2 on its local rows.

    With an alignment term on, step i's rows of `mt` hold M_i^T, where the
    (2C x rows) matrix M_i turns the step's embeddings E into
    [mu - nu; nu] with entries +-1/count, and `omega2[i]` holds 2*omega_i:
    lambda1/n_shared on the classes both batches hold, lambda2/n_present
    on the surrogate batch's classes (with global prototypes only) and 0
    elsewhere. omega_i scales a class's difference before anything squares
    it, so a huge embedding that no term weighs cannot make the loss 0*inf.
    `hyper` gives the surrogate terms' weights. The steps run on `kernel`
    (by default a fresh one), overwriting it.
    """

    def __init__(self, model: MlpModel, x_local: np.ndarray, y_local: np.ndarray,
                 batch_size: int, l2: float, rows=slice(None), kernel: Kernel | None = None,
                 surrogate: tuple | None = None, hyper: FedGpsHyper | None = None):
        y_local = y_local[rows]
        n, c = len(y_local), model.num_classes
        self.batch = min(batch_size, n)
        steps = -(-n // self.batch)
        x_surr, y_surr, batches, prototypes = surrogate or (None, None, None, None)
        self.m = 0 if batches is None else batches.shape[1]
        self.c, self.l2 = c, l2
        key = (n, self.batch, steps, self.m, c, hyper.surrogate_ce if self.m else 0.0)
        layouts = model.kept("plan layouts", dict)
        lay = layouts.get(key)
        if lay is None:
            lay = layouts[key] = _PlanLayout(*key)
        self.stride, self.n_local, self.ce_weight = lay.stride, lay.n_local, lay.ce_weight
        total = lay.total
        self.x = np.empty((total, x_local.shape[1]))
        self.x[lay.local] = x_local[rows]
        self.kernel = kernel or Kernel(model.widths, self.batch + self.m)
        labels = np.empty(total, dtype=np.intp)
        labels[lay.local] = y_local
        if self.m:
            drawn = batches.ravel()
            self.x[lay.surr_rows] = x_surr[drawn]
            labels[lay.surr_rows] = y_drawn = y_surr[drawn]
        self.flat = lay.row_c + labels

        self.prototypes = prototypes if self.m and hyper.lambda2 > 0 else None
        self.mt = None
        if not self.m or (hyper.lambda1 == 0 and self.prototypes is None):
            return
        cell = labels + lay.surr_c  # c for a local row of class c, C + c for a surrogate one
        key = lay.step_2c + cell
        counts = np.bincount(key, minlength=steps * 2 * c).reshape(steps, 2 * c)
        inv = (1.0 / np.maximum(counts, 1)).ravel()[key]
        # a row's column of M_i: 1/count in its own class-mean row and, on a
        # surrogate row, -1/count in its class's mu - nu row
        self.mt = np.zeros((total, 2 * c))
        self.mt[np.arange(total), cell] = inv
        self.mt[lay.surr_rows, y_drawn] = -inv[lay.surr_rows]
        present = counts[:, c:] > 0
        self.omega2 = np.zeros((steps, 2 * c, 1))
        omega2 = self.omega2.reshape(steps, 2, c)  # [stage 1; stage 2] weights per step
        if hyper.lambda1 > 0:
            shared = (counts[:, :c] > 0) & present
            omega2[:, 0] = shared
            omega2[:, 0] *= (2.0 * hyper.lambda1 / np.maximum(shared.sum(axis=1), 1))[:, None]
        if self.prototypes is not None:
            omega2[:, 1] = present
            omega2[:, 1] *= (2.0 * hyper.lambda2 / present.sum(axis=1))[:, None]

    def loss_and_grad(self, model: MlpModel, step: int = 0) -> tuple[float, np.ndarray]:
        """Loss and exact gradient of step `step` at `model`, l2*||theta||^2
        included; a non-finite loss raises `DivergedError`."""
        rows = slice(step * self.stride, step * self.stride + self.n_local[step] + self.m)
        kernel = self.kernel.forward(model, self.x[rows])
        flat, weight, logits = self.flat[rows], self.ce_weight[rows], kernel.logits
        # the softmax, each row normalised and weighted in one pass
        shifted = logits - logits.max(axis=1, keepdims=True)
        dlogits = np.exp(shifted)
        sums = dlogits.sum(axis=1)
        losses = np.log(sums) - shifted.take(flat)
        dlogits *= (weight / sums)[:, None]
        dlogits.reshape(-1)[flat] -= weight
        loss = float(losses @ weight)
        dembed = None
        if self.mt is not None:
            mt = self.mt[rows]
            diff = mt.T @ kernel.embeddings  # [mu - nu; nu]
            if self.prototypes is not None:
                diff[self.c:] -= self.prototypes
            g = diff * self.omega2[step]
            loss += 0.5 * float(np.vdot(g, diff))  # stage 1 and stage 2
            dembed = mt @ g
        grad = kernel.backward(model, dlogits, dembed)
        if self.l2 != 0.0:
            theta = model.theta
            loss += self.l2 * float(theta @ theta)
            grad += (2.0 * self.l2) * theta
        if not math.isfinite(loss):
            raise DivergedError(f"non-finite {'composite' if self.m else 'cross-entropy'} loss")
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
    The batches make a one-step `EpochPlan`, the trainers' code path. With
    the surrogate machinery disabled this is `ce_loss_and_grad` on the
    local batch.
    """
    x_local, y_local = local_batch
    surrogate = None
    if surrogate_batch is not None and hyper.uses_surrogate:
        surrogate = (*surrogate_batch, np.arange(len(surrogate_batch[1]))[None],
                     global_prototypes)
    return EpochPlan(model, x_local, y_local, len(y_local), hyper.lambda3, surrogate=surrogate,
                     hyper=hyper).loss_and_grad(model)


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
               dataset: LabeledDataset, hyper: FedGpsHyper,
               shift: np.ndarray | None = None, surrogate: LabeledDataset | None = None,
               global_prototypes: np.ndarray | None = None, anchor: np.ndarray | None = None,
               step_offset: np.ndarray | None = None) -> tuple[np.ndarray, MlpModel, int]:
    """Momentum-SGD for E local epochs, each over the shard in a fresh shuffle.

    Each epoch is one `EpochPlan` over the shuffled shard's rows, on the
    template's shared kernel: local cross-entropy plus L2 and, with a
    `surrogate`, the composite terms over surrogate minibatches drawn in
    step order from the client's stream. Every step takes its gradient
    through `rectified_gradient`, at theta + `shift` on the template's
    scratch point, or at theta when `shift` is None; an `anchor` adds
    FedProx's pull prox_mu * (theta - anchor) to it. Every step updates
    `model.theta` in place. `step_offset`, when given, is added to every
    step's displacement after momentum smoothing (control-variate style).
    A step's `DivergedError` propagates, without overflow warnings on the
    way. The trainee is the template's scratch model. Returns (delta, end
    model, steps).
    """
    model = template.scratch("trainee")
    at = None if shift is None else template.scratch("rectified point")
    np.copyto(model.theta, theta_start)
    velocity = np.zeros_like(theta_start)
    n = len(client.shard)
    steps = -(-n // min(hyper.batch_size, n))
    m = 0 if surrogate is None else min(hyper.batch_size, len(surrogate))
    if m:
        cycler = _batch_cycler(len(surrogate), hyper.batch_size, client.surrogate_rng)
    pull = 0.0 if anchor is None else hyper.prox_mu
    kernel = template.shared_kernel(hyper.batch_size + m)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(hyper.local_epochs):
            rows = client.shard[client.data_rng.permutation(n)]
            surrogate_rows = None if not m else (
                surrogate.features, surrogate.labels,
                np.array(list(islice(cycler, steps))), global_prototypes)
            plan = EpochPlan(template, dataset.features, dataset.labels, hyper.batch_size,
                             hyper.lambda3, rows, kernel, surrogate_rows, hyper)
            for i in range(steps):
                grad = rectified_gradient(model, None, hyper.lambda_g,
                                          lambda point: plan.loss_and_grad(point, i),
                                          shift, at)
                if pull != 0.0:
                    grad += pull * (model.theta - anchor)
                velocity *= hyper.momentum
                velocity += grad
                model.theta -= hyper.eta_l * (velocity if step_offset is None
                                              else velocity + step_offset)
    return model.theta - theta_start, model, hyper.local_epochs * steps


def fedgps_local_train(client: ClientState, template: MlpModel,
                       theta_global: np.ndarray, shift: np.ndarray | None,
                       dataset: LabeledDataset, surrogate: LabeledDataset,
                       global_prototypes: np.ndarray | None,
                       hyper: FedGpsHyper) -> tuple[np.ndarray, np.ndarray]:
    """One client's round: rectified steps over the composite objective.

    `shift` is the round's rectification shift, `rectification_shift` of
    the signed non-self gradient, made by the round loop; every step takes
    its gradient at theta + shift, or at theta when `shift` is None. With
    every surrogate term off an epoch's plan has no surrogate rows, so with
    rectification off as well this trajectory is bit-identical to FedAvg's.
    Returns the delta and the end point's prototype matrix over the full
    surrogate set, `compute_local_prototypes`, which the client uploads.
    """
    delta, model_end, _ = _local_sgd(client, template, theta_global, dataset, hyper, shift,
                                     surrogate if hyper.uses_surrogate else None,
                                     global_prototypes)
    return delta, compute_local_prototypes(model_end, surrogate)


def fedavg_local_train(client: ClientState, template: MlpModel,
                       theta_global: np.ndarray, dataset: LabeledDataset,
                       hyper: FedGpsHyper) -> np.ndarray:
    """Plain momentum SGD on local cross-entropy (plus L2)."""
    return _local_sgd(client, template, theta_global, dataset, hyper)[0]


def fedprox_local_train(client: ClientState, template: MlpModel,
                        theta_global: np.ndarray, dataset: LabeledDataset,
                        hyper: FedGpsHyper) -> np.ndarray:
    """FedAvg plus the proximal pull mu*(theta - theta_global)."""
    return _local_sgd(client, template, theta_global, dataset, hyper, anchor=theta_global)[0]


def scaffold_local_train(client: ClientState, template: MlpModel,
                         theta_global: np.ndarray, dataset: LabeledDataset,
                         hyper: FedGpsHyper,
                         server_control: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Control-variate-corrected local steps with the option-II update.

    Each step applies the correction -c_k + c outside the momentum buffer
    (momentum smooths the stochastic gradient only; compounding a constant
    correction through momentum multiplies it by 1/(1-beta) and diverges).
    Afterwards the client's control `client.control` becomes
    c_k - c + (theta_global - theta_end) / (steps * eta_l). Returns the
    delta and the control's change, which the client sends the server.
    """
    delta, model_end, steps = _local_sgd(client, template, theta_global, dataset, hyper,
                                         step_offset=server_control - client.control)
    new_control = client.control - server_control + \
        (theta_global - model_end.theta) / (steps * hyper.eta_l)
    change = new_control - client.control
    client.control = new_control
    return delta, change


def fedavgm_server_update(server, deltas: dict[int, np.ndarray], beta: float = 0.9) -> np.ndarray:
    """Server momentum: v <- beta*v + mean(deltas); theta <- theta + eta_g*v,
    with v the server's `velocity`.

    Returns the new global parameters, as `protocol.aggregate` does.
    `prev_global_delta` records the change actually applied, which under
    momentum is no longer eta_g*mean(deltas).
    """
    server.velocity = beta * server.velocity + mean_delta(deltas)
    apply_global_delta(server, deltas, server.eta_g * server.velocity)
    return server.global_params
