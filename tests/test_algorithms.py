"""Local training procedures: the composite objective, path
rectification, prototype computation, and the baselines."""
import collections
import dataclasses
import sys
from unittest import mock

import numpy as np
import pytest

from fedsim import algorithms as alg
from fedsim import data as dat
from fedsim import nn
from fedsim import protocol as proto
from fedsim import runner
from fedsim.diag import grad_check_report, quadratic_oracle_report
from layers import mlp_from


def tiny_model(seed=0, input_dim=4, hidden=(6, 5), classes=2):
    return nn.init_mlp(input_dim, hidden, classes, np.random.default_rng(seed))


def make_client(shard, seed=0, cid=0):
    return proto.ClientState(
        id=cid, shard=np.asarray(shard),
        data_rng=np.random.default_rng(seed),
        surrogate_rng=np.random.default_rng(seed + 1000))


def toy_batches(seed=0, classes=2):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((6, 4))
    y = rng.integers(0, classes, size=6)
    xs = rng.standard_normal((8, 4))
    ys = np.repeat(np.arange(classes), 8 // classes)
    return (x, y), (xs, ys)


class TestLocalPrototypes:
    def test_degenerate_surrogate_with_identity_extractor(self):
        means = np.abs(np.random.default_rng(0).standard_normal((3, 4))) + 0.1
        spec = dat.SurrogateSpec(3, 4, means, class_std=0.0, n_per_class=5, seed=0)
        surrogate = dat.gen_surrogate(spec)
        model = mlp_from((np.eye(4), np.zeros(4)), (np.ones((4, 3)), np.zeros(3)))
        protos = alg.compute_local_prototypes(model, surrogate)
        assert np.allclose(protos.means, means, atol=1e-15)

    def test_zero_extractor_gives_zero_prototypes(self):
        model = tiny_model(classes=3)
        for block in model.blocks[:-1]:
            block[:] = 0.0
        surrogate = dat.gen_surrogate(dat.make_surrogate_spec(3, 4, seed=1, n_per_class=4))
        protos = alg.compute_local_prototypes(model, surrogate)
        assert np.array_equal(protos.means, np.zeros((3, model.embed_dim)))

    def test_two_points_give_midpoint(self):
        feats = np.array([[1.0, 3.0], [3.0, 5.0], [2.0, 2.0], [4.0, 4.0]])
        surrogate = dat.LabeledDataset(feats, np.array([0, 0, 1, 1]), 2)
        model = mlp_from((np.eye(2), np.zeros(2)), (np.ones((2, 2)), np.zeros(2)))
        protos = alg.compute_local_prototypes(model, surrogate)
        assert np.array_equal(protos.means, [[2.0, 4.0], [3.0, 3.0]])

    def test_missing_class_rejected(self):
        ds = dat.LabeledDataset(np.zeros((3, 2)), np.array([0, 0, 2]), 3)
        with pytest.raises(ValueError, match="missing class 1"):
            alg.compute_local_prototypes(tiny_model(input_dim=2, classes=3), ds)


class TestCompositeObjective:
    def test_ablation_reduces_to_plain_cross_entropy(self):
        model = tiny_model(seed=1)
        local, surr = toy_batches(seed=2)
        hyper = alg.FedGpsHyper(lambda1=0.0, lambda2=0.0, surrogate_ce=0.0)
        loss_a, grad_a = alg.fedgps_loss_and_grad(model, local, surr, None, hyper)
        loss_b, grad_b = alg.ce_loss_and_grad(model, local[0], local[1], hyper.lambda3)
        assert loss_a == loss_b
        assert np.array_equal(grad_a, grad_b)

    def test_stage1_zero_under_perfect_alignment(self):
        # identical local and surrogate batches through any extractor give
        # identical per-class embedding means, so the stage-1 term vanishes
        model = tiny_model(seed=3)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((8, 4))
        y = np.repeat(np.arange(2), 4)
        base = alg.fedgps_loss_and_grad(
            model, (x, y), (x, y), None,
            alg.FedGpsHyper(lambda1=0.0, lambda2=0.0, lambda3=0.0))[0]
        with_stage1 = alg.fedgps_loss_and_grad(
            model, (x, y), (x, y), None,
            alg.FedGpsHyper(lambda1=0.7, lambda2=0.0, lambda3=0.0))[0]
        assert with_stage1 == pytest.approx(base, abs=1e-12)

    def test_gradient_matches_finite_differences_everywhere(self):
        report = grad_check_report()
        assert report["passed"], report
        assert report["max_rel_error"] < 1e-4

    def test_nan_gradient_fails_the_grad_check(self):
        composite = alg.fedgps_loss_and_grad

        def poisoned(*args):
            loss, grad = composite(*args)
            return loss, grad * np.nan

        with mock.patch.object(alg, "fedgps_loss_and_grad", poisoned):
            report = grad_check_report()
        assert not report["passed"]
        assert np.isnan(report["max_rel_error"])

    def test_nan_raises_diverged(self):
        model = tiny_model(seed=5)
        x = np.full((2, 4), np.nan)
        with pytest.raises(alg.DivergedError):
            alg.ce_loss_and_grad(model, x, np.array([0, 1]))

    def test_zero_prototypes_allowed(self):
        model = tiny_model(seed=6)
        local, surr = toy_batches(seed=7)
        hyper = alg.FedGpsHyper()
        loss, grad = alg.fedgps_loss_and_grad(model, local, surr,
                                              np.zeros((2, model.embed_dim)), hyper)
        assert np.isfinite(loss) and np.all(np.isfinite(grad))


def flat_index(labels, num_classes):
    """Row r's label entry as the flat index r * C + label."""
    return np.arange(len(labels)) * num_classes + labels


def reference_class_means(embeddings, labels, num_classes):
    """Loop form of `_class_means`: one mask and one mean per present class."""
    means = np.zeros((num_classes, embeddings.shape[1]))
    counts = np.zeros(num_classes, dtype=np.int64)
    for c in np.unique(labels):
        mask = labels == c
        counts[c] = mask.sum()
        means[c] = embeddings[mask].mean(axis=0)
    return means, counts


def reference_composite(model, local_batch, surrogate_batch, global_prototypes, hyper):
    """Loop form of the composite objective: a forward and a backward per
    batch, and the alignment gradients scattered class by class."""
    (x_local, y_local), (x_surr, y_surr) = local_batch, surrogate_batch
    num_classes = model.num_classes
    trace_l = nn.forward(model, x_local)
    trace_s = nn.forward(model, x_surr)
    ce_l, dlogits_l = alg._ce_from_logits(trace_l.logits, flat_index(y_local, num_classes))
    ce_s, dlogits_s = alg._ce_from_logits(trace_s.logits, flat_index(y_surr, num_classes))
    loss = ce_l + hyper.surrogate_ce * ce_s
    demb_l = np.zeros_like(trace_l.embeddings)
    demb_s = np.zeros_like(trace_s.embeddings)
    mu, n_l = reference_class_means(trace_l.embeddings, y_local, num_classes)
    nu, n_s = reference_class_means(trace_s.embeddings, y_surr, num_classes)
    if hyper.lambda1 > 0:
        shared = np.flatnonzero((n_l > 0) & (n_s > 0))
        if len(shared) > 0:
            diff = mu[shared] - nu[shared]
            loss += hyper.lambda1 * float(np.mean((diff ** 2).sum(axis=1)))
            coef = 2.0 * hyper.lambda1 / len(shared)
            for i, c in enumerate(shared):
                demb_l[y_local == c] += coef * diff[i] / n_l[c]
                demb_s[y_surr == c] -= coef * diff[i] / n_s[c]
    if hyper.lambda2 > 0 and global_prototypes is not None:
        present = np.flatnonzero(n_s > 0)
        diff = nu[present] - global_prototypes[present]
        loss += hyper.lambda2 * float(np.mean((diff ** 2).sum(axis=1)))
        coef = 2.0 * hyper.lambda2 / len(present)
        for i, c in enumerate(present):
            demb_s[y_surr == c] += coef * diff[i] / n_s[c]
    grad = nn.backward(model, trace_l, dlogits_l, demb_l)
    grad += nn.backward(model, trace_s, hyper.surrogate_ce * dlogits_s, demb_s)
    theta = nn.flatten(model)
    return loss + hyper.lambda3 * float(theta @ theta), grad + (2.0 * hyper.lambda3) * theta


def assert_same_bits(a, b):
    """Equal shape, dtype and bytes: signed zeros and NaN payloads included."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def composite_case(seed, n_local=9, n_surr=11, local_classes=(0, 1, 2, 3),
                   surr_classes=(0, 1, 2, 3), with_protos=True):
    model = tiny_model(seed=seed, hidden=(6, 5), classes=4)
    rng = np.random.default_rng(seed + 1)
    local = (rng.standard_normal((n_local, 4)), rng.choice(local_classes, n_local))
    surr = (rng.standard_normal((n_surr, 4)), rng.choice(surr_classes, n_surr))
    protos = rng.standard_normal((4, model.embed_dim)) if with_protos else None
    return model, local, surr, protos


def assert_composite_matches_loop(seed, hyper, *args, **kwargs):
    model, local, surr, protos = composite_case(seed, *args, **kwargs)
    ref_loss, ref_grad = reference_composite(model, local, surr, protos, hyper)
    loss, grad = alg.fedgps_loss_and_grad(model, local, surr, protos, hyper)
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-15)


class TestVectorisedEquivalence:
    """The vectorised class means and composite objective against the loop
    reference, at rtol 1e-12 for loss and gradient."""

    @pytest.mark.parametrize("n", [1, 7, 32, 640])
    def test_class_means_match_loop(self, n):
        rng = np.random.default_rng(n)
        emb = rng.standard_normal((n, 5))
        labels = rng.choice([0, 2, 3, 6], n)  # classes 1, 4, 5 absent
        means, counts = alg._class_means(emb, labels, 7)
        ref_means, ref_counts = reference_class_means(emb, labels, 7)
        assert np.array_equal(counts, ref_counts)
        np.testing.assert_allclose(means, ref_means, rtol=1e-12, atol=1e-15)
        assert np.all(means[counts == 0] == 0.0)

    @pytest.mark.parametrize("lambda1", [0.0, 0.3])
    @pytest.mark.parametrize("lambda2", [0.0, 0.4])
    @pytest.mark.parametrize("surrogate_ce", [0.0, 1.0])
    @pytest.mark.parametrize("with_protos", [True, False])
    def test_every_term_combination(self, lambda1, lambda2, surrogate_ce, with_protos):
        hyper = alg.FedGpsHyper(lambda1=lambda1, lambda2=lambda2, surrogate_ce=surrogate_ce)
        assert_composite_matches_loop(50, hyper, with_protos=with_protos)

    @pytest.mark.parametrize("n_local,n_surr,local_classes,surr_classes", [
        (8, 8, [0, 1], [1, 2, 3]),      # class 0 only local, classes 2 and 3 only surrogate
        (8, 8, [3], [0, 1, 2, 3]),      # one shared class
        (8, 8, [0, 1], [2, 3]),         # nothing shared: stage 1 contributes nothing
        (3, 32, [0, 1, 2, 3], [0, 1, 2, 3]),  # a shard's short last minibatch
    ])
    def test_class_coverage_and_batch_sizes(self, n_local, n_surr, local_classes, surr_classes):
        hyper = alg.FedGpsHyper(lambda1=0.5, lambda2=0.25)
        assert_composite_matches_loop(52, hyper, n_local, n_surr, local_classes, surr_classes)

    @pytest.mark.parametrize("n_local,n_surr", [(1, 1), (3, 32), (9, 11), (32, 32), (64, 640)])
    @pytest.mark.parametrize("classes", ["all", "disjoint", "one_shared"])
    def test_joint_class_means_match_two_calls(self, n_local, n_surr, classes):
        # a surrogate row of class c keyed C + c: the zero one-hot entries of
        # the other batch leave each class sum bit for bit unchanged
        rng = np.random.default_rng(n_local + n_surr)
        local_cls, surr_cls = {"all": ([0, 1, 2, 3, 4], [0, 1, 2, 3, 4]),
                               "disjoint": ([0, 1], [2, 3, 4]),
                               "one_shared": ([0, 3], [3, 4])}[classes]
        emb = np.maximum(rng.standard_normal((n_local + n_surr, 32)), 0.0)
        y_local, y_surr = rng.choice(local_cls, n_local), rng.choice(surr_cls, n_surr)
        means, counts = alg._class_means(emb, np.concatenate([y_local, y_surr + 5]), 10)
        mu, n_l = alg._class_means(emb[:n_local], y_local, 5)
        nu, n_s = alg._class_means(emb[n_local:], y_surr, 5)
        assert_same_bits(means, np.concatenate([mu, nu]))
        assert_same_bits(counts, np.concatenate([n_l, n_s]))

    @pytest.mark.parametrize("lambda1,lambda2", [(0.3, 0.0), (0.0, 0.4), (0.3, 0.4)])
    @pytest.mark.parametrize("local_classes,surr_classes", [
        ([0, 1], [1, 2, 3]),   # class 0 absent from the surrogate batch, 2 and 3 from the local
        ([0, 1], [2, 3]),      # nothing shared
        ([2], [2]),            # one class on both sides, three absent on both
    ])
    @pytest.mark.parametrize("with_protos", [True, False])
    def test_absent_classes_match_loop(self, lambda1, lambda2, local_classes, surr_classes,
                                       with_protos):
        hyper = alg.FedGpsHyper(lambda1=lambda1, lambda2=lambda2)
        assert_composite_matches_loop(53, hyper, 8, 8, local_classes, surr_classes,
                                      with_protos=with_protos)

    def test_prototypes_match_loop(self):
        model = tiny_model(seed=56, classes=3)
        rng = np.random.default_rng(57)
        feats = rng.standard_normal((30, 4))
        labels = np.repeat(np.arange(3), 10)
        protos = alg.compute_local_prototypes(model, dat.LabeledDataset(feats, labels, 3))
        ref_means, ref_counts = reference_class_means(
            nn.forward(model, feats).embeddings, labels, 3)
        assert np.array_equal(protos.counts, ref_counts)
        np.testing.assert_allclose(protos.means, ref_means, rtol=1e-12, atol=1e-15)


def reference_ce(logits, labels):
    """Cross-entropy as first written: two exponentials, then mean and /n."""
    n = len(labels)
    shifted = logits - logits.max(axis=1, keepdims=True)
    loss = float(np.mean(np.log(np.exp(shifted).sum(axis=1)) - shifted[np.arange(n), labels]))
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    probs[np.arange(n), labels] -= 1.0
    return loss, probs / n


def reference_ce_fancy(logits, labels):
    """`_ce_from_logits` with 2-D fancy indexing [rows, labels], as written
    before the flat row * C + label indices."""
    rows = np.arange(len(labels))
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    sums = probs.sum(axis=1)
    losses = np.log(sums) - shifted[rows, labels]
    probs /= sums[:, None]
    probs[rows, labels] -= 1.0
    return float(losses.sum()) / len(labels), probs / len(labels)


class TestCrossEntropy:
    """`_ce_from_logits` against the forms it replaced, bit for bit."""

    @pytest.mark.parametrize("n", [1, 3, 32, 64])
    def test_flat_index_matches_fancy_index(self, n):
        rng = np.random.default_rng(n + 7)
        logits = 4.0 * rng.standard_normal((n, 10))
        logits[0, :3] = 0.0  # a tied row maximum
        labels = rng.integers(0, 10, n)
        before = logits.copy()
        loss, dlogits = alg._ce_from_logits(logits, flat_index(labels, 10))
        ref_loss, ref_dlogits = reference_ce_fancy(logits, labels)
        assert loss == ref_loss
        assert_same_bits(dlogits, ref_dlogits)
        assert_same_bits(logits, before)

    @pytest.mark.parametrize("n", [1, 3, 32, 64])
    def test_ce_from_logits_matches_reference(self, n):
        rng = np.random.default_rng(n)
        logits = 4.0 * rng.standard_normal((n, 10))
        labels = rng.integers(0, 10, n)
        loss, dlogits = alg._ce_from_logits(logits, flat_index(labels, 10))
        ref_loss, ref_dlogits = reference_ce(logits, labels)
        assert loss == ref_loss and np.array_equal(dlogits, ref_dlogits)


class TestHoistedShift:
    """The per-round shift and scratch model against the raw-nsg call."""

    @pytest.mark.parametrize("case", ["random", "none", "zero_lambda", "tiny_norm"])
    @pytest.mark.parametrize("objective", ["ce", "composite"])
    def test_matches_raw_call(self, case, objective):
        model = tiny_model(seed=60)
        local, surr = toy_batches(seed=61)
        rng = np.random.default_rng(62)
        nsg, lambda_g = {
            "random": (rng.standard_normal(model.num_params), 0.2),
            "none": (None, 0.2),
            "zero_lambda": (rng.standard_normal(model.num_params), 0.0),
            "tiny_norm": (np.full(model.num_params, 1e-15), 0.5),
        }[case]
        if objective == "ce":
            def fn(m):
                return alg.ce_loss_and_grad(m, local[0], local[1], 1e-4)
        else:
            protos = rng.standard_normal((2, model.embed_dim))

            def fn(m):
                return alg.fedgps_loss_and_grad(m, local, surr, protos, alg.FedGpsHyper())
        before = nn.flatten(model)
        shift = alg.rectification_shift(nsg, lambda_g)
        assert (shift is None) == (case != "random")
        at = nn.unflatten_like(model, np.full(model.num_params, np.nan))
        hoisted = alg.rectified_gradient(model, nsg, lambda_g, fn, shift, at)
        assert np.array_equal(hoisted, alg.rectified_gradient(model, nsg, lambda_g, fn))
        assert np.array_equal(nn.flatten(model), before)
        if shift is not None:
            assert np.array_equal(at.theta, before + shift)


def reference_local_train(client, template, theta_start, dataset, hyper, grad_fn,
                          step_offset=None):
    """The local-SGD loop before the flat buffer and the per-epoch gather: a
    model rebuilt from a copy of theta at every step, each minibatch
    fancy-indexed out of the shard, and out-of-place updates. Returns the
    delta and the end point."""
    features, labels = dataset.features[client.shard], dataset.labels[client.shard]
    theta, velocity = theta_start.copy(), np.zeros_like(theta_start)
    n = len(labels)
    bs = min(hyper.batch_size, n)
    for _ in range(hyper.local_epochs):
        order = client.data_rng.permutation(n)
        for start in range(0, n, bs):
            mb = order[start:start + bs]
            grad = grad_fn(nn.unflatten_like(template, theta.copy()), features[mb], labels[mb])
            velocity = hyper.momentum * velocity + grad
            if step_offset is None:
                theta = theta - hyper.eta_l * velocity
            else:
                theta = theta - hyper.eta_l * (velocity + step_offset)
    return theta - theta_start, theta


class ReferenceCycler:
    """The surrogate minibatch stream as an object: one permutation when
    made, and a fresh one whenever a full batch no longer fits."""

    def __init__(self, n, batch_size, rng):
        self.n, self.bs, self.rng = n, min(batch_size, n), rng
        self.order, self.pos = rng.permutation(n), 0

    def next(self):
        if self.pos + self.bs > self.n:
            self.order, self.pos = self.rng.permutation(self.n), 0
        self.pos += self.bs
        return self.order[self.pos - self.bs:self.pos]


@pytest.mark.parametrize("n,batch_size", [(45, 8), (40, 8), (5, 8), (7, 7), (1, 3)])
def test_batch_cycler_matches_reference(n, batch_size):
    stream = alg._batch_cycler(n, batch_size, np.random.default_rng(3))
    ref = ReferenceCycler(n, batch_size, np.random.default_rng(3))
    for _ in range(4 * n + 3):
        assert np.array_equal(next(stream), ref.next())


class TestInPlaceDriver:
    """Trainers on the in-place driver against the rebuilt-model loop."""

    def setup_method(self):
        self.ds = dat.gen_blobs(3, 4, 30, 2.0, 0.5, seed=70)
        self.surrogate = dat.gen_surrogate(dat.make_surrogate_spec(3, 4, seed=71, n_per_class=8))
        self.model = tiny_model(seed=72, classes=3)
        self.theta = nn.flatten(self.model)
        self.hyper = alg.FedGpsHyper(local_epochs=2, batch_size=8, lambda_g=0.2,
                                     nsg_sign=-1.0, prox_mu=0.5)

        self.shard = np.arange(45)  # 5 full batches of 8 and a short one of 5

    def client(self):
        return make_client(self.shard, seed=73)

    @pytest.mark.parametrize("shard", ["scattered", "shorter_than_batch"])
    def test_every_trainer_on_shard_shapes(self, shard):
        rng = np.random.default_rng(77)
        self.shard = {"scattered": rng.permutation(90)[:45],
                      "shorter_than_batch": rng.permutation(90)[:5]}[shard]
        self.test_fedavg_fedprox_scaffold()
        self.test_fedgps(with_nsg=True)

    def ce_grad(self, m, x, y):
        return alg.ce_loss_and_grad(m, x, y, self.hyper.lambda3)[1]

    def test_fedavg_fedprox_scaffold(self):
        hyper, theta = self.hyper, self.theta
        delta = alg.fedavg_local_train(self.client(), self.model, theta, self.ds, hyper)
        ref, _ = reference_local_train(self.client(), self.model, theta, self.ds, hyper,
                                       self.ce_grad)
        assert np.array_equal(delta, ref)
        delta = alg.fedprox_local_train(self.client(), self.model, theta, self.ds, hyper)
        ref, _ = reference_local_train(
            self.client(), self.model, theta, self.ds, hyper,
            lambda m, x, y: self.ce_grad(m, x, y) + hyper.prox_mu * (nn.flatten(m) - theta))
        assert np.array_equal(delta, ref)
        rng = np.random.default_rng(76)
        c_server, c_client = 1e-2 * rng.standard_normal((2, theta.size))
        delta, control = alg.scaffold_local_train(self.client(), self.model, theta, self.ds,
                                                  hyper, c_server, c_client)
        ref, ref_end = reference_local_train(self.client(), self.model, theta, self.ds, hyper,
                                             self.ce_grad, step_offset=c_server - c_client)
        assert np.array_equal(delta, ref)
        steps = hyper.local_epochs * -(-len(self.shard) // min(hyper.batch_size,
                                                              len(self.shard)))
        assert np.array_equal(control, c_client - c_server
                              + (theta - ref_end) / (steps * hyper.eta_l))

    @pytest.mark.parametrize("with_nsg", [True, False])
    def test_fedgps(self, with_nsg):
        hyper, theta = self.hyper, self.theta
        nsg = np.random.default_rng(74).standard_normal(theta.size) if with_nsg else None
        signed = None if nsg is None else hyper.nsg_sign * nsg
        protos = np.random.default_rng(75).standard_normal((3, self.model.embed_dim))
        delta, out = alg.fedgps_local_train(
            self.client(), self.model, theta, alg.rectification_shift(signed, hyper.lambda_g),
            self.ds, self.surrogate, protos, hyper)
        ref_client = self.client()
        cycler = ReferenceCycler(len(self.surrogate), hyper.batch_size,
                                 ref_client.surrogate_rng)

        def grad_fn(m, x, y):
            mb = cycler.next()
            surr = (self.surrogate.features[mb], self.surrogate.labels[mb])
            return alg.rectified_gradient(m, signed, hyper.lambda_g, lambda p: (
                alg.fedgps_loss_and_grad(p, (x, y), surr, protos, hyper)))

        ref, ref_end = reference_local_train(ref_client, self.model, theta, self.ds, hyper,
                                             grad_fn)
        assert np.array_equal(delta, ref)
        ref_protos = alg.compute_local_prototypes(nn.unflatten_like(self.model, ref_end),
                                                  self.surrogate)
        assert np.array_equal(out.means, ref_protos.means)


class TestEpochPlan:
    """Every step of an epoch plan against the loop reference, at rtol 1e-12
    for loss and gradient, and the surrogate stream the plan draws."""

    def setup_method(self):
        self.ds = dat.gen_blobs(4, 4, 30, 2.0, 0.5, seed=80)
        self.surrogate = dat.gen_surrogate(dat.make_surrogate_spec(4, 4, seed=81, n_per_class=5))
        self.model = tiny_model(seed=82, classes=4)
        self.protos = np.random.default_rng(83).standard_normal((4, self.model.embed_dim))

    def shard(self, kind):
        rng = np.random.default_rng(84)
        return {"ragged": rng.permutation(120)[:45],     # 5 full batches of 8, then 5 rows
                "short": rng.permutation(120)[:5],       # one batch smaller than B
                "two_classes": np.flatnonzero(self.ds.labels < 2)[:30]}[kind]

    def train(self, shard, hyper, protos, plan=alg.EpochPlan):
        """Run fedgps_local_train without rectification; returns each step's
        (theta, loss, gradient) and the client it trained."""
        steps = []

        def spy(model, nsg, lambda_g, loss_and_grad, shift=None, at=None):
            loss, grad = loss_and_grad(model)  # the shared kernel's buffer: copy it
            steps.append((model.theta.copy(), loss, grad.copy()))
            return grad

        client = make_client(shard, seed=85)
        with mock.patch.object(alg, "rectified_gradient", spy), \
                mock.patch.object(alg, "EpochPlan", plan):
            alg.fedgps_local_train(client, self.model, nn.flatten(self.model), None, self.ds,
                                   self.surrogate, protos, hyper)
        return steps, client

    def replay(self, shard, hyper):
        """Each step's local and surrogate batches as the per-step loop draws them."""
        client = make_client(shard, seed=85)
        cycler = ReferenceCycler(len(self.surrogate), hyper.batch_size, client.surrogate_rng)
        n = len(shard)
        bs = min(hyper.batch_size, n)
        for _ in range(hyper.local_epochs):
            rows = shard[client.data_rng.permutation(n)]
            for start in range(0, n, bs):
                mb, local = cycler.next(), rows[start:start + bs]
                yield ((self.ds.features[local], self.ds.labels[local]),
                       (self.surrogate.features[mb], self.surrogate.labels[mb]))

    @pytest.mark.parametrize("kind", ["ragged", "short", "two_classes"])
    @pytest.mark.parametrize("lambda1,lambda2,surrogate_ce", [
        (l1, l2, ce) for l1 in (0.0, 0.3) for l2 in (0.0, 0.4) for ce in (0.0, 1.0)
        if l1 or l2 or ce])
    @pytest.mark.parametrize("with_protos", [True, False])
    def test_steps_match_loop(self, kind, lambda1, lambda2, surrogate_ce, with_protos):
        hyper = alg.FedGpsHyper(lambda1=lambda1, lambda2=lambda2, surrogate_ce=surrogate_ce,
                                local_epochs=2, batch_size=8, lambda_g=0.0)
        protos = self.protos if with_protos else None
        shard = self.shard(kind)
        steps, _ = self.train(shard, hyper, protos)
        batches = list(self.replay(shard, hyper))
        assert len(steps) == len(batches) == 2 * -(-len(shard) // min(8, len(shard)))
        for (theta, loss, grad), (local, surr) in zip(steps, batches):
            ref_loss, ref_grad = reference_composite(nn.unflatten_like(self.model, theta),
                                                     local, surr, protos, hyper)
            assert loss == pytest.approx(ref_loss, rel=1e-12)
            np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-15)

    def test_draws_the_per_step_surrogate_stream(self):
        hyper = alg.FedGpsHyper(local_epochs=3, batch_size=8, lambda_g=0.0)
        drawn, plan = [], alg.EpochPlan

        def recording_plan(*args):
            drawn.extend(args[5])  # the epoch's surrogate minibatches, one row per step
            return plan(*args)

        shard = self.shard("ragged")
        _, client = self.train(shard, hyper, self.protos, recording_plan)
        ref_rng = make_client(shard, seed=85).surrogate_rng
        ref = ReferenceCycler(len(self.surrogate), hyper.batch_size, ref_rng)
        assert len(drawn) == 3 * 6
        for batch in drawn:
            assert np.array_equal(batch, ref.next())
        assert client.surrogate_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("lambda1,lambda2", [(0.3, 0.0), (0.0, 0.4), (0.3, 0.4)])
    def test_huge_embeddings_on_zero_weight_class(self, lambda1, lambda2):
        # class 0 is only in the local batch, so no alignment term weighs it, yet
        # its squared mean overflows: the loss must stay finite, as the loop's does
        model, (x, y), surr, protos = composite_case(90, 9, 11, (0, 1, 2), (1, 2, 3))
        x[y == 0] = 1e200 * np.abs(x[y == 0])
        hyper = alg.FedGpsHyper(lambda1=lambda1, lambda2=lambda2)
        mu = nn.forward(model, x).embeddings[y == 0].mean(axis=0)
        with np.errstate(over="ignore"):
            assert not np.isfinite(mu @ mu)
        loss, grad = alg.fedgps_loss_and_grad(model, (x, y), surr, protos, hyper)
        ref_loss, ref_grad = reference_composite(model, (x, y), surr, protos, hyper)
        assert np.isfinite(loss) and np.all(np.isfinite(grad))
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-15)


def c_calls_per_step(config, trainer, step_name):
    """Profiler-visible C calls made inside `trainer` per local step, a
    step being one call of `step_name`."""
    counts = collections.Counter()

    def profile(frame, event, arg):
        counts[event] += 1
        if event == "call" and frame.f_code.co_name == step_name:
            counts["steps"] += 1

    real = getattr(alg, trainer)

    def profiled(*args, **kwargs):
        sys.setprofile(profile)
        try:
            return real(*args, **kwargs)
        finally:
            sys.setprofile(None)

    with mock.patch.object(alg, trainer, profiled):
        runner.run_one(config, 0, 0)
    return counts["c_call"] / counts["steps"]


def test_fedgps_step_dispatch_within_budget_of_fedavg(tmp_path):
    """A fedgps step may make at most 1.25x the C calls of a FedAvg step on the
    desk shapes. Call counts, unlike times, do not drift with the machine."""
    config = runner.ExperimentConfig(
        num_classes=10, input_dim=16, n_per_class=500, separation=0.8, noise_std=1.0,
        num_clients=10, sample_rate=0.5, rounds=4, alpha=0.1, scenario_seeds=(0,),
        training_seeds=(0,), lambda_g=0.2, nsg_sign=-1.0, out_dir=str(tmp_path))
    fedavg = c_calls_per_step(dataclasses.replace(config, algo="fedavg"),
                              "fedavg_local_train", "ce_loss_and_grad")
    fedgps = c_calls_per_step(dataclasses.replace(config, algo="fedgps"),
                              "fedgps_local_train", "rectified_gradient")
    assert fedgps <= 1.25 * fedavg, (fedgps, fedavg)


class TestRectifiedGradient:
    def closure(self, x, y):
        def fn(m):
            return alg.ce_loss_and_grad(m, x, y, 1e-4)
        return fn

    def test_zero_lambda_is_unperturbed(self):
        model = tiny_model(seed=8)
        local, _ = toy_batches(seed=9)
        fn = self.closure(*local)
        base = fn(model)[1]
        out = alg.rectified_gradient(model, np.ones(model.num_params), 0.0, fn)
        assert np.array_equal(out, base)

    def test_tiny_norm_falls_back(self):
        model = tiny_model(seed=10)
        local, _ = toy_batches(seed=11)
        fn = self.closure(*local)
        out = alg.rectified_gradient(model, np.full(model.num_params, 1e-15), 0.5, fn)
        assert np.array_equal(out, fn(model)[1])

    def test_scale_invariance_bit_exact(self):
        # direction entries have power-of-two magnitudes so that scaling by
        # s is itself lossless; the normalization must then be bit-stable
        model = tiny_model(seed=12)
        local, _ = toy_batches(seed=13)
        fn = self.closure(*local)
        rng = np.random.default_rng(14)
        delta = np.ldexp(rng.choice([-1.0, 1.0], model.num_params),
                         rng.integers(-3, 9, model.num_params))
        base = alg.rectified_gradient(model, delta, 0.5, fn)
        for s in (0.1, 1.0, 10.0, 1e6, 7.3):
            assert np.array_equal(base, alg.rectified_gradient(model, s * delta, 0.5, fn))

    def test_quadratic_closure_closed_form(self):
        # f(theta) = 0.5 theta' A theta, delta = e1, lambda_g = 0.5:
        # the rectified gradient is exactly A (theta + 0.5 e1)
        model = tiny_model(seed=15)
        dim = model.num_params
        rng = np.random.default_rng(16)
        a_mat = rng.standard_normal((dim, dim))
        a_mat = a_mat + a_mat.T

        def quad(m):
            theta = nn.flatten(m)
            return 0.5 * float(theta @ a_mat @ theta), a_mat @ theta

        e1 = np.zeros(dim)
        e1[0] = 1.0
        out = alg.rectified_gradient(model, e1, 0.5, quad)
        expected = a_mat @ (nn.flatten(model) + 0.5 * e1)
        assert np.array_equal(out, expected)

    def test_perturb_restore_bit_exact(self):
        model = tiny_model(seed=17)
        before = nn.flatten(model)
        local, _ = toy_batches(seed=18)
        alg.rectified_gradient(model, np.random.default_rng(19).standard_normal(model.num_params),
                               0.5, self.closure(*local))
        assert np.array_equal(nn.flatten(model), before)


class TestQuadraticOracle:
    def test_identity_and_contraction(self):
        report = quadratic_oracle_report(dim=5, lambda_g=0.5, seed=0)
        assert report["max_identity_err"] <= 1e-10
        assert report["contraction_norm"] < 1.0
        for row in report["rows"]:
            if row["d0"] > 0:
                assert row["d_new"] < row["d0"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lambda_g", [np.inf, -np.inf, 1e308])
    def test_non_finite_values_fail(self, lambda_g):
        report = quadratic_oracle_report(dim=5, lambda_g=lambda_g, seed=0)
        assert not report["passed"]
        assert not np.isfinite([row["identity_err"] for row in report["rows"]]).all()


def run_local(algo_fn, seed=0, **kw):
    ds = dat.gen_blobs(3, 4, 30, 2.0, 0.5, seed=21)
    model = tiny_model(seed=20, classes=3)
    theta = nn.flatten(model)
    client = make_client(np.arange(45), seed=seed)
    return algo_fn(client, model, theta, ds, **kw), theta


@pytest.mark.parametrize("trainer", ["fedavg", "fedprox", "scaffold", "fedgps"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_divergence_names_round_and_client(trainer):
    ds = dat.gen_blobs(3, 4, 30, 2.0, 0.5, seed=21)
    surrogate = dat.gen_surrogate(dat.make_surrogate_spec(3, 4, seed=23, n_per_class=4))
    model = tiny_model(seed=20, classes=3)
    theta = nn.flatten(model)
    client = make_client(np.arange(45), cid=3)
    hyper = alg.FedGpsHyper(eta_l=1e154, batch_size=8)
    zeros = np.zeros_like(theta)
    calls = {
        "fedavg": lambda: alg.fedavg_local_train(client, model, theta, ds, hyper,
                                                 round_index=7),
        "fedprox": lambda: alg.fedprox_local_train(client, model, theta, ds, hyper,
                                                   round_index=7),
        "scaffold": lambda: alg.scaffold_local_train(client, model, theta, ds, hyper,
                                                     zeros, zeros, round_index=7),
        "fedgps": lambda: alg.fedgps_local_train(client, model, theta, None, ds, surrogate,
                                                 np.zeros((3, model.embed_dim)), hyper,
                                                 round_index=7),
    }
    with pytest.raises(alg.DivergedError) as err:
        calls[trainer]()
    assert (err.value.round_index, err.value.client_id) == (7, 3)


class TestBaselines:
    def test_zero_lr_rejected_but_tiny_lr_freezes(self):
        with pytest.raises(ValueError):
            alg.FedGpsHyper(eta_l=0.0)

    def test_every_broken_hyper_rule_named(self):
        with pytest.raises(ValueError) as err:
            alg.FedGpsHyper(lambda2=-1.0, eta_l=0.0, batch_size=0, nsg_sign=2.0)
        for fragment in ("lambda", "eta_l", "batch_size", "nsg_sign"):
            assert fragment in str(err.value)
        assert alg.hyper_problems(alg.FedGpsHyper()) == []

    @pytest.mark.parametrize("field", ["lambda1", "lambda2", "lambda3", "lambda_g", "eta_l",
                                       "momentum", "surrogate_ce", "nsg_sign", "prox_mu"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_hyper_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            alg.FedGpsHyper(**{field: value})

    @pytest.mark.parametrize("weights,on", [((0.0, 0.0, 0.0), False), ((1.0, 0.0, 0.0), True),
                                            ((0.0, 0.1, 0.0), True), ((0.0, 0.0, 0.2), True)])
    def test_uses_surrogate(self, weights, on):
        ce, lam1, lam2 = weights
        hyper = alg.FedGpsHyper(surrogate_ce=ce, lambda1=lam1, lambda2=lam2)
        assert hyper.uses_surrogate is on

    def test_fedgps_zero_lr_limit_gives_zero_delta(self):
        # eta_l must be positive; verify the delta scales to ~0 as lr -> 0
        ds = dat.gen_blobs(2, 4, 10, 2.0, 0.5, seed=22)
        surrogate = dat.gen_surrogate(dat.make_surrogate_spec(2, 4, seed=23, n_per_class=4))
        model = tiny_model(seed=24)
        hyper = alg.FedGpsHyper(eta_l=1e-300, local_epochs=2, batch_size=4)
        delta, _ = alg.fedgps_local_train(make_client(np.arange(20)), model,
                                          nn.flatten(model), None, ds, surrogate,
                                          np.zeros((2, model.embed_dim)), hyper)
        assert np.max(np.abs(delta)) < 1e-290

    def test_fedprox_mu_zero_equals_fedavg(self):
        hyper = alg.FedGpsHyper(local_epochs=2, batch_size=8, prox_mu=0.0)
        (d_prox, _), _ = run_local(
            lambda c, m, t, ds: (alg.fedprox_local_train(c, m, t, ds, hyper), None))
        (d_avg, _), _ = run_local(
            lambda c, m, t, ds: (alg.fedavg_local_train(c, m, t, ds, hyper), None))
        assert np.array_equal(d_prox, d_avg)

    def test_fedprox_pulls_toward_anchor(self):
        tight = alg.FedGpsHyper(local_epochs=3, batch_size=8, prox_mu=10.0)
        loose = alg.FedGpsHyper(local_epochs=3, batch_size=8, prox_mu=0.0)
        (d_tight, _), _ = run_local(
            lambda c, m, t, ds: (alg.fedprox_local_train(c, m, t, ds, tight), None))
        (d_loose, _), _ = run_local(
            lambda c, m, t, ds: (alg.fedprox_local_train(c, m, t, ds, loose), None))
        assert np.linalg.norm(d_tight) < np.linalg.norm(d_loose)

    def test_scaffold_zero_variates_first_step_matches_fedavg(self):
        hyper = alg.FedGpsHyper(local_epochs=1, batch_size=64)  # one full-batch step
        ds = dat.gen_blobs(3, 4, 10, 2.0, 0.5, seed=25)
        model = tiny_model(seed=26, classes=3)
        theta = nn.flatten(model)
        zeros = np.zeros_like(theta)
        d_scaf, _ = alg.scaffold_local_train(make_client(np.arange(30), seed=1), model,
                                             theta, ds, hyper, zeros, zeros)
        d_avg = alg.fedavg_local_train(make_client(np.arange(30), seed=1), model,
                                       theta, ds, hyper)
        assert np.array_equal(d_scaf, d_avg)

    def test_scaffold_control_update_option_ii(self):
        hyper = alg.FedGpsHyper(local_epochs=2, batch_size=16)
        ds = dat.gen_blobs(3, 4, 16, 2.0, 0.5, seed=27)
        model = tiny_model(seed=28, classes=3)
        theta = nn.flatten(model)
        c_server = np.random.default_rng(29).standard_normal(theta.size) * 1e-3
        c_client = np.random.default_rng(30).standard_normal(theta.size) * 1e-3
        delta, c_new = alg.scaffold_local_train(make_client(np.arange(48), seed=2),
                                                model, theta, ds, hyper,
                                                c_server, c_client)
        steps = 2 * int(np.ceil(48 / 16))
        expected = c_client - c_server + (-delta) / (steps * hyper.eta_l)
        assert np.allclose(c_new, expected, atol=1e-12)

    def test_fedavgm_zero_beta_is_plain_aggregation(self):
        deltas = {0: np.ones(4), 1: np.full(4, 3.0)}
        a = proto.ServerState(global_params=np.zeros(4), eta_g=1.0)
        alg.fedavgm_server_update(a, deltas, np.zeros(4), beta=0.0)
        b = proto.ServerState(global_params=np.zeros(4), eta_g=1.0)
        proto.aggregate(b, deltas)
        assert np.array_equal(a.global_params, b.global_params)

    def test_fedavgm_velocity_accumulates(self):
        server = proto.ServerState(global_params=np.zeros(2), eta_g=1.0)
        v = np.zeros(2)
        v = alg.fedavgm_server_update(server, {0: np.ones(2)}, v, beta=0.9)
        v = alg.fedavgm_server_update(server, {0: np.ones(2)}, v, beta=0.9)
        assert np.allclose(v, [1.9, 1.9])
        assert np.allclose(server.global_params, [2.9, 2.9])


class TestFedGpsLocalTrain:
    def test_returns_delta_and_prototypes(self):
        ds = dat.gen_blobs(2, 4, 20, 2.0, 0.5, seed=31)
        surrogate = dat.gen_surrogate(dat.make_surrogate_spec(2, 4, seed=32, n_per_class=6))
        model = tiny_model(seed=33)
        client = make_client(np.arange(40), seed=3)
        hyper = alg.FedGpsHyper(batch_size=8)
        delta, protos = alg.fedgps_local_train(client, model, nn.flatten(model),
                                               None, ds, surrogate,
                                               np.zeros((2, model.embed_dim)),
                                               hyper, round_index=4)
        assert delta.shape == (model.num_params,)
        assert protos.means.shape == (2, model.embed_dim)


class TestProxObjectiveGradient:
    def test_proximal_loss_matches_finite_differences(self):
        # the proximal objective CE + (mu/2)||theta - anchor||^2 must be
        # gradient-consistent like every other assembled loss
        model = tiny_model(seed=40, classes=3)
        anchor = nn.flatten(model) + 0.05
        rng = np.random.default_rng(41)
        x = rng.standard_normal((6, 4))
        y = rng.integers(0, 3, size=6)
        mu = 0.125

        def loss_fn(m, batch):
            loss, grad = alg.ce_loss_and_grad(m, batch[0], batch[1], 1e-5)
            diff = nn.flatten(m) - anchor
            return loss + 0.5 * mu * float(diff @ diff), grad + mu * diff

        err = nn.finite_diff_check(model, (x, y), loss_fn, epsilon=1e-5,
                                   num_coords=64, rng=np.random.default_rng(42))
        assert err < 1e-4
