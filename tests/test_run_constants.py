"""What a run lays out once: the kept class indicators and inference
kernel, the round's rectification shifts, the client scratch models and
the epoch-plan layouts. Each fast path against the simple reference path it
replaced, bit for bit, plus counts that pin the work to once per run."""
import collections
import dataclasses
import json
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from fedsim import algorithms as alg
from fedsim import data as dat
from fedsim import nn
from fedsim import protocol as proto
from fedsim import runner


def class_means(embeddings, labels, num_classes):
    return alg._means_by_class(embeddings, *dat.class_indicator(labels, num_classes))


def make_client(shard, seed=0, cid=0):
    return proto.ClientState(id=cid, shard=np.asarray(shard),
                             data_rng=np.random.default_rng(seed),
                             surrogate_rng=np.random.default_rng(seed + 1000))


def blobs_and_surrogate(classes=4, dim=5, seed=0):
    train = dat.gen_blobs(classes, dim, 30, 2.0, 0.7, seed)
    surrogate = dat.gen_surrogate(dat.make_surrogate_spec(classes, dim, seed + 1, n_per_class=6))
    return train, surrogate


class TestKeptInferenceInputs:
    @pytest.mark.parametrize("hidden", [(), (6,), (7, 5)])
    def test_prototypes_match_class_means_of_embed(self, hidden):
        train, surrogate = blobs_and_surrogate()
        model = nn.init_mlp(5, hidden, 4, np.random.default_rng(1))
        model.inference_kernel(len(train))  # room for more rows than the surrogate
        for step in range(3):
            model.theta += 0.3 * np.random.default_rng(step).standard_normal(model.num_params)
            if step == 1:  # another row count on the same kernel in between
                model.inference_kernel(1).forward(model, train.features[:7])
            got = alg.compute_local_prototypes(model, surrogate)
            means, counts = class_means(nn.forward(model, surrogate.features).embeddings,
                                        surrogate.labels, surrogate.num_classes)
            assert np.array_equal(got.means, means) and np.array_equal(got.counts, counts)

    def test_kept_inputs_equal_their_formulas(self):
        _, surrogate = blobs_and_surrogate()
        assert surrogate.indicator is surrogate.indicator
        onehot, counts = surrogate.indicator
        assert np.array_equal(onehot, np.equal.outer(np.arange(4), surrogate.labels))
        assert np.array_equal(counts, np.bincount(surrogate.labels, minlength=4))

    def test_accuracy_matches_forward(self):
        train, _ = blobs_and_surrogate(seed=3)
        test = train.subset(np.arange(0, len(train), 3))
        template = nn.init_mlp(5, (8, 4), 4, np.random.default_rng(4))
        template.inference_kernel(len(train))
        for seed, ds in enumerate([test, train, test]):
            theta = 2.0 * np.random.default_rng(seed).standard_normal(template.num_params)
            logits = nn.forward(nn.unflatten_like(template, theta), ds.features).logits
            assert runner.accuracy(template, theta, ds) == np.mean(
                logits.argmax(axis=1) == ds.labels)


class TestRoundShift:
    """Clients that sat out the last round share one shift; a re-selected
    client gets its own, as the per-client formulas give."""

    def server(self):
        rng = np.random.default_rng(9)
        server = proto.ServerState(global_params=rng.standard_normal(40), eta_g=0.7)
        for selected in ([0, 1, 2], [1, 3, 4]):
            proto.aggregate(server, {k: rng.standard_normal(40) for k in selected})
        return server

    @pytest.mark.parametrize("algo", ["fedgps", "fedgps_cf"])
    @pytest.mark.parametrize("nsg_sign", [1.0, -1.0])
    def test_shared_shift_matches_per_client(self, algo, nsg_sign):
        cfg = runner.ExperimentConfig(algo=algo, eta_g=0.7, eta_l=0.03, nsg_sign=nsg_sign,
                                      lambda_g=0.4)
        server, shared = self.server(), {}
        seen = {}
        for k in [0, 1, 2, 3, 5]:  # fresh, re-selected, fresh, re-selected, fresh
            shift = runner._round_shift(cfg, server, make_client([0], cid=k), shared)
            if algo == "fedgps":
                want = proto.non_self_gradient(server, k, cfg.eta_g, cfg.eta_l)
            else:
                want = proto.non_self_gradient_cf(server, k, cfg.eta_g)
            assert np.array_equal(shift, alg.rectification_shift(nsg_sign * want, cfg.lambda_g))
            seen[k] = shift
        assert seen[0] is seen[2] is seen[5]
        assert seen[1] is not seen[3] and not np.array_equal(seen[1], seen[3])

    def test_shared_vector_built_once_per_round(self):
        cfg = runner.ExperimentConfig(algo="fedgps")
        server, shared = self.server(), {}
        with mock.patch.object(proto, "non_self_gradient",
                               wraps=proto.non_self_gradient) as spy:
            for k in [0, 2, 5, 6, 7]:
                runner._round_shift(cfg, server, make_client([0], cid=k), shared)
        assert spy.call_count == 1

    @pytest.mark.parametrize("algo", ["fedgps", "fedgps_cf"])
    def test_one_shift_per_absent_round_and_reselected_client(self, algo, tmp_path):
        # 3 of 5 clients a round: rounds with absent clients and re-selected ones
        cfg = runner.ExperimentConfig(
            algo=algo, num_classes=3, input_dim=4, n_per_class=20, num_clients=5,
            sample_rate=0.6, rounds=6, hidden=(6,), surrogate_n_per_class=4,
            lambda_g=0.3, scenario_seeds=(0,), training_seeds=(0,), out_dir=str(tmp_path))
        computed, shift = [], alg.rectification_shift

        def counted(nsg, lambda_g):
            if nsg is not None:  # a step without a shift asks with None
                computed.append(nsg)
            return shift(nsg, lambda_g)

        with mock.patch.object(alg, "rectification_shift", counted):
            result = runner.run_one(cfg, 0, 0)
        rounds = (Path(result.run_dir) / "rounds.jsonl").read_text().splitlines()
        selected = [set(json.loads(line)["selected"]) for line in rounds]
        want = sum(bool(now - last) + len(now & last)
                   for last, now in zip(selected, selected[1:]))
        assert any(len(now - last) > 1 for last, now in zip(selected, selected[1:]))
        assert len(computed) == want

    def test_nsg_sign_flip_changes_trajectory(self, tmp_path):
        cfg = runner.ExperimentConfig(
            algo="fedgps", num_classes=2, input_dim=4, n_per_class=20, num_clients=3,
            sample_rate=1.0, rounds=3, hidden=(6,), surrogate_n_per_class=4,
            scenario_seeds=(0,), training_seeds=(0,))
        theta = {}
        for sign in (1.0, -1.0):
            run = runner.run_one(dataclasses.replace(cfg, nsg_sign=sign,
                                                     out_dir=str(tmp_path / str(sign))), 0, 0)
            theta[sign] = nn.load_checkpoint(Path(run.run_dir) / "checkpoint.bin").theta
        assert not np.array_equal(theta[1.0], theta[-1.0])

    def test_reselected_fedgps_client_with_no_other_delta_is_an_error(self):
        # run_one samples two clients a round for a rectified algorithm, so
        # this state is unreachable there; the non-self gradient refuses it
        server = proto.ServerState(global_params=np.zeros(4))
        proto.aggregate(server, {3: np.ones(4)})
        cfg = runner.ExperimentConfig(algo="fedgps")
        with pytest.raises(proto.ProtocolError, match="client 3"):
            runner._round_shift(cfg, server, make_client([0], cid=3), {})


class TestPlanLayout:
    """Plans laid out from the template's kept layouts, one per key, against
    plans laid out afresh."""

    ARRAYS = ("x", "flat", "ce_weight", "mt", "omega2")

    @pytest.mark.parametrize("n", [5, 45])  # one batch smaller than B; a ragged last batch
    @pytest.mark.parametrize("terms", [(0.3, 0.4, 1.0), (0.0, 0.0, 1.0), (0.3, 0.0, 0.0), None],
                             ids=["all", "surrogate_ce", "lambda1", "no_surrogate"])
    def test_kept_layouts_give_the_fresh_plan(self, n, terms):
        train, surrogate = blobs_and_surrogate(seed=13)
        lambda1, lambda2, surrogate_ce = terms or (0.1, 0.2, 1.0)
        hyper = alg.FedGpsHyper(lambda1=lambda1, lambda2=lambda2, surrogate_ce=surrogate_ce,
                                batch_size=8)
        protos = np.random.default_rng(14).standard_normal((4, 6))
        template = nn.init_mlp(5, (7, 6), 4, np.random.default_rng(15))

        def plan(model, size, seed):
            order = np.random.default_rng(seed)
            rows = order.permutation(len(train))[:size]
            batches = np.array([order.permutation(len(surrogate))[:8]
                                for _ in range(-(-size // min(8, size)))])
            drawn = None if terms is None else (surrogate.features, surrogate.labels, batches,
                                                protos)
            return alg.EpochPlan(model, train.features, train.labels, 8, hyper.lambda3, rows,
                                 surrogate=drawn, hyper=hyper)

        # a shard of this size, another size, then this size twice: the last
        # two reuse the layout kept for the first, each checked against a
        # model that has none
        layouts = template.kept("plan layouts", dict)
        for i, size in enumerate([n, 12, n, n]):
            before = dict(layouts)
            reused = plan(template, size, 17 + i)
            assert len(layouts) == (1 if i == 0 else 2)
            assert (layouts == before) == (i >= 2)
            assert all(layouts[key] is layout for key, layout in before.items())
            fresh = plan(nn.unflatten_like(template, template.theta.copy()), size, 17 + i)
            assert reused.n_local == fresh.n_local
            for name in self.ARRAYS:
                got, want = getattr(reused, name, None), getattr(fresh, name, None)
                assert (got is None) == (want is None) and (
                    got is None or np.array_equal(got, want)), name
            assert (reused.mt is None) == (terms is None or (lambda1 == 0 and lambda2 == 0))
            for step in range(len(reused.n_local)):
                a, b = reused.loss_and_grad(template, step), fresh.loss_and_grad(template, step)
                assert a[0] == b[0] and np.array_equal(a[1], b[1])

    @pytest.mark.parametrize("n", [5, 45])
    def test_layout_without_surrogate_rows_keeps_only_what_a_plan_reads(self, n):
        layout = alg._PlanLayout(n, 8, -(-n // min(8, n)), 0, 4, 0.0)
        plan_length = {name for name, value in vars(layout).items()
                       if isinstance(value, np.ndarray) and len(value) == n}
        assert plan_length <= {"local", "surr_rows", "row_c", "ce_weight"}


class TestClientScratch:
    """After local training the template's kernels keep no epoch rows alive."""

    def setup_method(self):
        self.train, self.surrogate = blobs_and_surrogate(seed=19)
        self.template = nn.init_mlp(5, (7, 6), 4, np.random.default_rng(20))
        self.shard = np.arange(0, 120, 2)

    def plans_freed(self, train):
        """Run `train()` recording a weak reference to each epoch plan's rows."""
        refs, plan = [], alg.EpochPlan

        def recording(*args):
            made = plan(*args)
            refs.append(weakref.ref(made.x))
            return made

        with mock.patch.object(alg, "EpochPlan", recording):
            train()
        assert len(refs) == 2 and all(ref() is None for ref in refs)

    def test_plan_rows_freed_after_fedgps(self):
        hyper = alg.FedGpsHyper(batch_size=16, local_epochs=2)
        shift = alg.rectification_shift(
            np.random.default_rng(21).standard_normal(self.template.num_params), hyper.lambda_g)
        self.plans_freed(lambda: alg.fedgps_local_train(
            make_client(self.shard), self.template, self.template.theta.copy(), shift,
            self.train, self.surrogate, None, hyper))

    def test_epoch_rows_freed_after_fedavg(self):
        hyper = alg.FedGpsHyper(batch_size=16, local_epochs=2)
        self.plans_freed(lambda: alg.fedavg_local_train(
            make_client(self.shard), self.template, self.template.theta.copy(), self.train,
            hyper))

    def test_one_trainee_and_one_shifted_model_per_template(self):
        hyper = alg.FedGpsHyper(batch_size=16)
        shift = alg.rectification_shift(
            np.random.default_rng(22).standard_normal(self.template.num_params), hyper.lambda_g)
        with mock.patch.object(nn, "MlpModel", wraps=nn.MlpModel) as made:
            for k in range(3):
                alg.fedgps_local_train(make_client(self.shard, seed=k), self.template,
                                       self.template.theta.copy(), shift, self.train,
                                       self.surrogate, None, hyper)
        assert made.call_count == 2  # at the first client only


def count_run_constants(config):
    """nn.Kernel constructions and the datasets' kept indicators, as each
    is computed, in one run_one."""
    counts = collections.Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    kept = vars(dat.LabeledDataset)["indicator"]
    with mock.patch.object(nn.Kernel, "__init__", counted("kernel", nn.Kernel.__init__)), \
            mock.patch.object(kept, "func", counted("indicator", kept.func)):
        runner.run_one(config, 0, 0, write_artifacts=False)
    return counts


def test_inputs_and_kernels_made_once_per_run(tmp_path):
    """Counts, unlike times, do not drift with the machine: a fedgps run
    logging its divergence every round makes as many class indicators and
    kernels in 6 rounds as in 2: one shared and one inference kernel."""
    config = runner.ExperimentConfig(
        num_classes=4, input_dim=6, n_per_class=40, separation=2.0, noise_std=0.8,
        num_clients=5, sample_rate=0.6, alpha=0.5, hidden=(12, 6), surrogate_n_per_class=8,
        batch_size=8, lambda_g=0.2, divergence_cadence=1, algo="fedgps",
        out_dir=str(tmp_path))
    short = count_run_constants(dataclasses.replace(config, rounds=2))
    long = count_run_constants(dataclasses.replace(config, rounds=6))
    assert short == long
    # the surrogate's indicator, the only one a run keeps
    assert long == {"kernel": 2, "indicator": 1}
