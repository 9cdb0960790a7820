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
one-step plan. Each epoch's rows are gathered once with the ones column of
`nn.Kernel`; trainer steps run on the template's `shared_kernel`.

The template is the run's workspace. Once per run it keeps the trainee
and the rectified point (`MlpModel.scratch`), the kernels, and the last
plan layout, which every epoch of a shard of that size reuses. The round
loop computes each distinct rectification shift once and hands the
trainer the shift, not the non-self gradient. Prototypes run on the
template's inference kernel over the surrogate's kept inputs and class
indicator, so per client they cost one forward and one product.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import islice

import numpy as np

from .data import LabeledDataset, class_indicator
from .nn import Kernel, MlpModel, augment, unflatten_like
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
        if self.counts.min(initial=1) < 1:
            missing = np.flatnonzero(self.counts < 1)[0]
            raise ValueError(f"missing class {missing}: every class needs a sample")


def compute_local_prototypes(model: MlpModel, surrogate: LabeledDataset) -> PrototypeSet:
    """Class-c prototype = mean extractor embedding over surrogate class c,
    from the surrogate's kept inputs and indicator on `model`'s inference kernel."""
    kernel = model.inference_kernel(len(surrogate))
    embeddings = kernel.forward(model, surrogate.augmented, classify=False).embeddings
    return PrototypeSet(*_means_by_class(embeddings, *surrogate.indicator))


def _ce_from_logits(logits: np.ndarray, flat: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient w.r.t. the logits; row r's label
    entry is read at the flat index flat[r] = r * C + label."""
    n = len(logits)
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    sums = probs.sum(axis=1)
    losses = np.log(sums) - shifted.take(flat)
    probs /= sums[:, None]
    probs.reshape(-1)[flat] -= 1.0
    probs /= n
    return float(losses.sum()) / n, probs


def ce_loss_and_grad(model: MlpModel, batch_x: np.ndarray, batch_y: np.ndarray,
                     l2: float = 0.0, kernel: Kernel | None = None) -> tuple[float, np.ndarray]:
    """Cross-entropy plus l2*||theta||^2, with the exact flat gradient as a
    fresh vector. A trainer's step passes the shared `kernel` and rows laid
    out by `_ce_objective` (`batch_x` with the ones column, `batch_y` as
    flat indices r * C + label); the gradient is then the kernel's own."""
    if kernel is None:
        kernel, batch_x = Kernel(model.widths, len(batch_x)), augment(model, batch_x)
        batch_y = np.arange(0, len(batch_x) * model.num_classes, model.num_classes) + batch_y
    loss, dlogits = _ce_from_logits(kernel.forward(model, batch_x).logits, batch_y)
    return _plus_l2(model, loss, kernel.backward(model, dlogits), l2, "cross-entropy")


def _plus_l2(model: MlpModel, loss: float, grad: np.ndarray, l2: float, objective: str):
    """loss + l2*||theta||^2 and its gradient added into `grad`; non-finite raises."""
    if l2 != 0.0:
        theta = model.theta
        loss += l2 * float(theta @ theta)
        grad += (2.0 * l2) * theta
    if not math.isfinite(loss):
        raise DivergedError(f"non-finite {objective} loss")
    return loss, grad


def _class_means(embeddings: np.ndarray, labels: np.ndarray, num_classes: int):
    """Per-class mean embeddings plus counts for one batch; an absent
    class gets a zero mean and a zero count."""
    return _means_by_class(embeddings, *class_indicator(labels, num_classes))


def _means_by_class(embeddings: np.ndarray, onehot: np.ndarray, counts: np.ndarray):
    """`_class_means` over a `class_indicator` made beforehand."""
    return (onehot @ embeddings) / np.maximum(counts, 1)[:, None], counts


class _PlanLayout:
    """The label-free index arithmetic of an epoch plan over n local rows in
    batches of B, with m surrogate rows per step. It depends only on its
    arguments: a run's template keeps the last one, which every epoch of a
    shard of the same size reuses."""

    def __init__(self, n: int, batch: int, steps: int, m: int, c: int, surrogate_ce: float):
        n_loc = np.minimum(n - np.arange(steps) * batch, batch)
        self.stride, self.n_local = batch + m, n_loc.tolist()
        # plan rows run step by step, each step's local rows first
        self.pos = np.arange(n + steps * m)
        step, row = np.divmod(self.pos, self.stride)
        step_local = n_loc[step]
        surr = row >= step_local
        self.local, self.surr_rows = np.flatnonzero(~surr), np.flatnonzero(surr)
        self.row_c, self.surr_c, self.step_2c = row * c, c * surr, step * (2 * c)
        self.ce_weight = 1.0 / step_local
        self.ce_weight[surr] = surrogate_ce / m


class EpochPlan:
    """The composite steps of one local epoch, laid out once.

    Step i takes local rows [i*B, (i+1)*B) of the epoch's shard, x_local's
    `rows` (B = min(batch_size, n)), and the surrogate rows `batches[i]`.
    Its rows [local_i; surrogate_i], gathered once with the kernel's ones
    column, sit contiguously in `x`, so a step's inputs are one slice. Per
    row the plan holds the flat cross-entropy index and the weight:
    1/n_local on local rows, surrogate_ce/n_surr on surrogate rows.

    With an alignment term on, step i's rows of `mt` hold M_i^T, where the
    (2C x rows) matrix M_i turns the step's embeddings E into
    [mu - nu; nu] with entries +-1/count, and `omega2[i]` holds 2*omega_i:
    lambda1/n_shared on the classes both batches hold, lambda2/n_present
    on the surrogate batch's classes (with global prototypes only) and 0
    elsewhere. omega_i scales a class's difference before anything squares
    it, so a huge embedding that no term weighs cannot make the loss 0*inf.
    The steps run on `kernel` (by default a fresh one), overwriting it.
    """

    def __init__(self, x_local: np.ndarray, y_local: np.ndarray, batch_size: int,
                 x_surr: np.ndarray, y_surr: np.ndarray, batches: np.ndarray,
                 global_prototypes: np.ndarray | None, hyper: FedGpsHyper, model: MlpModel,
                 rows=slice(None), kernel: Kernel | None = None):
        y_local = y_local[rows]
        n, (steps, self.m), c = len(y_local), batches.shape, model.num_classes
        self.batch = min(batch_size, n)
        self.c, self.lambda3 = c, hyper.lambda3
        key = (n, self.batch, steps, self.m, c, hyper.surrogate_ce)
        last = model.kept("plan layout", dict)
        if last.get("key") != key:
            last.update(key=key, layout=_PlanLayout(*key))
        lay = last["layout"]
        self.stride, self.n_local, self.ce_weight = lay.stride, lay.n_local, lay.ce_weight
        drawn, total = batches.ravel(), len(lay.pos)
        self.x = np.empty((total, x_local.shape[1] + 1))
        self.x[lay.local, :-1] = x_local[rows]
        self.x[lay.surr_rows, :-1] = x_surr[drawn]
        self.x[:, -1] = 1.0
        self.kernel = kernel or Kernel(model.widths, self.batch + self.m)
        labels, y_drawn = np.empty(total, dtype=np.intp), y_surr[drawn]
        labels[lay.local], labels[lay.surr_rows] = y_local, y_drawn
        self.flat = lay.row_c + labels

        self.prototypes = global_prototypes if hyper.lambda2 > 0 else None
        self.mt = None
        if hyper.lambda1 == 0 and self.prototypes is None:
            return
        cell = labels + lay.surr_c  # c for a local row of class c, C + c for a surrogate one
        key = lay.step_2c + cell
        counts = np.bincount(key, minlength=steps * 2 * c).reshape(steps, 2 * c)
        inv = (1.0 / np.maximum(counts, 1)).ravel()[key]
        # a row's column of M_i: 1/count in its own class-mean row and, on a
        # surrogate row, -1/count in its class's mu - nu row
        self.mt = np.zeros((total, 2 * c))
        self.mt[lay.pos, cell] = inv
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

    def loss_and_grad(self, model: MlpModel, start: int = 0) -> tuple[float, np.ndarray]:
        """Composite loss and exact gradient of the step whose local rows start at `start`."""
        i = start // self.batch
        k = self.n_local[i]
        rows = slice(i * self.stride, i * self.stride + k + self.m)
        kernel = self.kernel.forward(model, self.x[rows])
        flat, weight, logits = self.flat[rows], self.ce_weight[rows], kernel.logits
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
            diff = mt.T @ kernel.embeddings  # [mu - nu; nu]
            if self.prototypes is not None:
                diff[c:] -= self.prototypes
            g = diff * self.omega2[i]
            stage1 = 0.5 * float(np.vdot(g[:c], diff[:c]))
            stage2 = 0.5 * float(np.vdot(g[c:], diff[c:]))
            dembed = mt @ g
        return _plus_l2(model, ce_local + ce_surr + stage1 + stage2,
                        kernel.backward(model, dlogits, dembed), self.lambda3, "composite")


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
    return EpochPlan(x_local, y_local, len(y_local), *surrogate_batch,
                     np.arange(len(surrogate_batch[1]))[None], global_prototypes, hyper,
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
               hyper: FedGpsHyper, epoch_grad, round_index: int,
               step_offset: np.ndarray | None = None) -> tuple[np.ndarray, MlpModel, int]:
    """Momentum-SGD for E local epochs, each over the shard in a fresh shuffle.

    `epoch_grad(rows)` gathers each epoch's dataset rows, in step order,
    once and returns `step_grad(model, start, stop)`, the flat gradient for
    the minibatch of rows start:stop; every step updates `model.theta` in
    place. `step_offset`, when given, is added to every step's displacement
    after momentum smoothing (control-variate style). A `DivergedError`
    from a step is raised again naming the round and the client, without
    overflow warnings on the way. The trainee is the template's scratch
    model, and the shared kernel keeps no epoch rows once training ends.
    Returns (delta, end model, steps).
    """
    model = template.scratch("trainee")
    np.copyto(model.theta, theta_start)
    velocity = np.zeros_like(theta_start)
    n = len(client.shard)
    bs = min(hyper.batch_size, n)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(hyper.local_epochs):
                step_grad = epoch_grad(client.shard[client.data_rng.permutation(n)])
                for start in range(0, n, bs):
                    grad = step_grad(model, start, start + bs)
                    velocity *= hyper.momentum
                    velocity += grad
                    model.theta -= hyper.eta_l * (velocity if step_offset is None
                                                  else velocity + step_offset)
    except DivergedError as err:
        raise DivergedError(str(err), round_index, client.id) from None
    finally:
        template.shared_kernel(0).release()
    return model.theta - theta_start, model, hyper.local_epochs * -(-n // bs)


def fedgps_local_train(client: ClientState, template: MlpModel,
                       theta_global: np.ndarray, shift: np.ndarray | None,
                       dataset: LabeledDataset, surrogate: LabeledDataset,
                       global_prototypes: np.ndarray | None, hyper: FedGpsHyper,
                       round_index: int = 0) -> tuple[np.ndarray, PrototypeSet]:
    """One client's round: rectified steps over the composite objective.

    `shift` is the round's rectification shift, `rectification_shift` of
    the signed non-self gradient, made by the round loop; every step takes
    its gradient at theta + shift, on the template's scratch point, or at
    theta when `shift` is None. With a surrogate term on, each epoch draws
    its steps' surrogate minibatches in step order and lays the epoch out
    as one `EpochPlan`; with rectification and all surrogate terms
    disabled this trajectory is bit-identical to FedAvg's.
    Returns the delta and fresh local prototypes over the full surrogate set.
    """
    at = None if shift is None else template.scratch("rectified point")

    cycler = (_batch_cycler(len(surrogate), hyper.batch_size, client.surrogate_rng)
              if hyper.uses_surrogate else None)

    def epoch_grad(rows):
        if cycler is None:
            objective = _ce_objective(dataset, rows, hyper, template)
            return lambda model, start, stop: rectified_gradient(
                model, None, hyper.lambda_g, lambda m: objective(m, start, stop), shift, at)

        bs = min(hyper.batch_size, len(rows))
        batches = np.array(list(islice(cycler, -(-len(rows) // bs))))
        plan = EpochPlan(dataset.features, dataset.labels, hyper.batch_size, surrogate.features,
                         surrogate.labels, batches, global_prototypes, hyper, template, rows,
                         template.shared_kernel(hyper.batch_size + batches.shape[1]))
        return lambda model, start, stop: rectified_gradient(
            model, None, hyper.lambda_g, lambda m: plan.loss_and_grad(m, start), shift, at)

    delta, model_end, _ = _local_sgd(client, template, theta_global, hyper,
                                     epoch_grad, round_index)
    return delta, compute_local_prototypes(model_end, surrogate)


def _ce_objective(dataset: LabeledDataset, rows: np.ndarray, hyper: FedGpsHyper,
                  template: MlpModel):
    """`ce_loss_and_grad` plus L2 over an epoch's rows start:stop on the shared
    kernel, the rows gathered once with the ones column and flat indices."""
    bs = min(hyper.batch_size, len(rows))
    x = augment(template, dataset.features[rows])
    flat = np.arange(len(rows)) % bs * template.num_classes + dataset.labels[rows]
    kernel = template.shared_kernel(hyper.batch_size)
    return lambda model, start, stop: ce_loss_and_grad(
        model, x[start:stop], flat[start:stop], hyper.lambda3, kernel)


def _ce_grad(dataset: LabeledDataset, hyper: FedGpsHyper, template: MlpModel,
             anchor: np.ndarray | None = None):
    """Each step's gradient of local cross-entropy plus L2, for `_local_sgd`;
    with an `anchor`, plus FedProx's pull prox_mu * (theta - anchor)."""
    def epoch_grad(rows):
        objective = _ce_objective(dataset, rows, hyper, template)

        def step_grad(model, start, stop):
            grad = objective(model, start, stop)[1]
            if anchor is not None and hyper.prox_mu != 0.0:
                grad += hyper.prox_mu * (model.theta - anchor)
            return grad
        return step_grad
    return epoch_grad


def fedavg_local_train(client: ClientState, template: MlpModel,
                       theta_global: np.ndarray, dataset: LabeledDataset,
                       hyper: FedGpsHyper, round_index: int = 0) -> np.ndarray:
    """Plain momentum SGD on local cross-entropy (plus L2)."""
    return _local_sgd(client, template, theta_global, hyper,
                      _ce_grad(dataset, hyper, template), round_index)[0]


def fedprox_local_train(client: ClientState, template: MlpModel,
                        theta_global: np.ndarray, dataset: LabeledDataset,
                        hyper: FedGpsHyper, round_index: int = 0) -> np.ndarray:
    """FedAvg plus the proximal pull mu*(theta - theta_global)."""
    return _local_sgd(client, template, theta_global, hyper,
                      _ce_grad(dataset, hyper, template, theta_global), round_index)[0]


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
    delta, model_end, steps = _local_sgd(client, template, theta_global, hyper,
                                         _ce_grad(dataset, hyper, template), round_index,
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
