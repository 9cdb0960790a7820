"""Forward/backward correctness against independent oracles, the flat
parameter buffer (bijection and aliasing), and the checkpoint format."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedsim import nn
from fedsim.algorithms import ce_loss_and_grad


def tiny_model(seed=0, input_dim=4, hidden=(6, 5), classes=3):
    return nn.init_mlp(input_dim, hidden, classes, np.random.default_rng(seed))


class TestForward:
    def test_zero_weights_give_zero_logits(self):
        model = tiny_model()
        for w, b in model._layers():
            w[:] = 0.0
            b[:] = 0.0
        x = np.random.default_rng(1).standard_normal((7, 4))
        trace = nn.forward(model, x)
        assert np.array_equal(trace.logits, np.zeros((7, 3)))

    def test_identity_extractor_passes_input_through(self):
        # single square-identity layer, nonnegative input so the rectifier
        # is the identity too
        model = nn.MlpModel(extractor=[(np.eye(4), np.zeros(4))],
                            classifier=(np.ones((4, 2)), np.zeros(2)))
        x = np.abs(np.random.default_rng(2).standard_normal((5, 4)))
        trace = nn.forward(model, x)
        assert np.array_equal(trace.embeddings, x)

    def test_matches_independent_reimplementation(self):
        # straightforward matrix-multiply oracle, written independently
        model = tiny_model(seed=3)
        x = np.random.default_rng(4).standard_normal((6, 4))
        h = x
        for w, b in model.extractor:
            h = np.maximum(h @ w + b, 0.0)
        expected = h @ model.classifier[0] + model.classifier[1]
        assert np.allclose(nn.forward(model, x).logits, expected, rtol=0, atol=0)

    def test_forward_is_pure(self):
        model = tiny_model(seed=5)
        x = np.random.default_rng(6).standard_normal((3, 4))
        a = nn.forward(model, x)
        b = nn.forward(model, x)
        assert np.array_equal(a.logits, b.logits)
        assert np.array_equal(a.embeddings, b.embeddings)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(nn.ShapeError):
            nn.forward(tiny_model(), np.zeros((3, 5)))


class TestBackward:
    def test_zero_upstream_gives_zero_gradient(self):
        model = tiny_model(seed=7)
        trace = nn.forward(model, np.random.default_rng(8).standard_normal((4, 4)))
        grad = nn.backward(model, trace, np.zeros_like(trace.logits))
        assert np.array_equal(grad, np.zeros(model.num_params))

    def test_quadratic_loss_on_linear_model_is_outer_product(self):
        # no extractor: loss = 0.5*||XW + b||^2, dW = X^T(XW + b), db = col sums
        rng = np.random.default_rng(9)
        w = rng.standard_normal((4, 3))
        b = rng.standard_normal(3)
        model = nn.MlpModel(extractor=[], classifier=(w, b))
        x = rng.standard_normal((5, 4))
        trace = nn.forward(model, x)
        grad = nn.backward(model, trace, trace.logits)
        logits = x @ w + b
        expected = np.concatenate([(x.T @ logits).ravel(), logits.sum(axis=0)])
        assert np.allclose(grad, expected, atol=1e-12)

    def test_matches_central_differences(self):
        model = tiny_model(seed=10)
        x = np.random.default_rng(11).standard_normal((6, 4))
        y = np.array([0, 1, 2, 0, 1, 2])

        def loss_fn(m, batch):
            return ce_loss_and_grad(m, batch[0], batch[1], l2=1e-3)

        err = nn.finite_diff_check(model, (x, y), loss_fn, epsilon=1e-5,
                                   num_coords=64, rng=np.random.default_rng(12))
        assert err < 1e-4

    def test_dembed_routed_through_extractor_only(self):
        model = tiny_model(seed=13)
        x = np.random.default_rng(14).standard_normal((4, 4))
        trace = nn.forward(model, x)
        grad = nn.backward(model, trace, np.zeros_like(trace.logits),
                           dembed=np.ones_like(trace.embeddings))
        clf_size = model.classifier[0].size + model.classifier[1].size
        assert np.array_equal(grad[-clf_size:], np.zeros(clf_size))

    def test_shape_mismatch_rejected(self):
        model = tiny_model()
        trace = nn.forward(model, np.zeros((2, 4)))
        with pytest.raises(nn.ShapeError):
            nn.backward(model, trace, np.zeros((3, 3)))
        with pytest.raises(nn.ShapeError):
            nn.backward(model, trace, np.zeros((2, 3)), dembed=np.zeros((2, 99)))


def reference_forward(model, x):
    """Every layer out of place: a fresh array for each product and sum."""
    pre_acts, acts, h = [], [], x
    for w, b in model.extractor:
        pre_acts.append(h @ w + b)
        h = np.maximum(pre_acts[-1], 0.0)
        acts.append(h)
    return pre_acts, acts, h @ model.classifier[0] + model.classifier[1]


class TestInPlaceLayers:
    @pytest.mark.parametrize("hidden", [(), (6,), (64, 32)])
    @pytest.mark.parametrize("rows", [1, 3, 64, 640])
    def test_forward_bit_identical_to_out_of_place(self, hidden, rows):
        model = nn.init_mlp(16, hidden, 10, np.random.default_rng(rows))
        x = np.random.default_rng(200 + rows).standard_normal((rows, 16))
        trace = nn.forward(model, x)
        pre_acts, acts, logits = reference_forward(model, x)
        for got, want in zip(trace.pre_acts + trace.acts + [trace.logits],
                             pre_acts + acts + [logits]):
            assert got.tobytes() == want.tobytes()
        assert len(trace.pre_acts) == len(pre_acts)

    @pytest.mark.parametrize("hidden", [(), (6,), (64, 32)])
    @pytest.mark.parametrize("rows", [1, 3, 64, 640])
    def test_embed_bit_identical_to_forward(self, hidden, rows):
        # the trace-free inference path rectifies in place
        model = nn.init_mlp(16, hidden, 10, np.random.default_rng(rows))
        x = np.random.default_rng(300 + rows).standard_normal((rows, 16))
        before = x.tobytes()
        assert nn.embed(model, x).tobytes() == nn.forward(model, x).embeddings.tobytes()
        assert x.tobytes() == before
        with pytest.raises(nn.ShapeError):
            nn.embed(model, x[:, :15])

    @pytest.mark.parametrize("with_dembed", [False, True])
    def test_backward_leaves_its_inputs_unchanged(self, with_dembed):
        model = nn.init_mlp(16, (64, 32), 10, np.random.default_rng(30))
        rng = np.random.default_rng(31)
        trace = nn.forward(model, rng.standard_normal((64, 16)))
        dlogits = rng.standard_normal(trace.logits.shape)
        dembed = rng.standard_normal(trace.embeddings.shape) if with_dembed else None
        arrays = [trace.inputs, *trace.pre_acts, *trace.acts, trace.embeddings,
                  trace.logits, dlogits, model.theta] + ([dembed] if with_dembed else [])
        before = [a.tobytes() for a in arrays]
        nn.backward(model, trace, dlogits, dembed)
        assert [a.tobytes() for a in arrays] == before


def reference_backward(model, trace, dlogits, dembed=None):
    """The gradient as separate per-layer arrays concatenated at the end,
    the layout `backward` fills through views of one flat vector."""
    clf_w, _ = model.classifier
    grad_clf = ((trace.embeddings.T @ dlogits).ravel(), dlogits.sum(axis=0))
    dh = dlogits @ clf_w.T
    if dembed is not None:
        dh = dh + dembed
    parts = []
    for i in range(len(model.extractor) - 1, -1, -1):
        dz = dh * (trace.pre_acts[i] > 0)
        prev = trace.inputs if i == 0 else trace.acts[i - 1]
        parts = [(prev.T @ dz).ravel(), dz.sum(axis=0)] + parts
        dh = dz @ model.extractor[i][0].T
    return np.concatenate(parts + list(grad_clf))


class TestFlatBackwardEquivalence:
    @pytest.mark.parametrize("hidden", [(), (6,), (64, 32), (7, 5, 3)])
    @pytest.mark.parametrize("rows", [1, 3, 32, 64])
    @pytest.mark.parametrize("with_dembed", [False, True])
    def test_bit_identical_to_concatenated_parts(self, hidden, rows, with_dembed):
        model = nn.init_mlp(16, hidden, 10, np.random.default_rng(rows))
        rng = np.random.default_rng(100 + rows)
        trace = nn.forward(model, rng.standard_normal((rows, 16)))
        dlogits = rng.standard_normal(trace.logits.shape)
        dembed = rng.standard_normal(trace.embeddings.shape) if with_dembed else None
        grad = nn.backward(model, trace, dlogits, dembed)
        assert np.array_equal(grad, reference_backward(model, trace, dlogits, dembed))

    def test_returns_a_fresh_vector(self):
        model = tiny_model(seed=20)
        trace = nn.forward(model, np.random.default_rng(21).standard_normal((4, 4)))
        dlogits = np.ones_like(trace.logits)
        first = nn.backward(model, trace, dlogits)
        second = nn.backward(model, trace, dlogits)
        assert first is not second and not np.shares_memory(first, model.theta)
        first[:] = 0.0
        assert np.array_equal(second, nn.backward(model, trace, dlogits))


class TestFlatBuffer:
    def test_layers_are_views_of_theta(self):
        model = tiny_model(seed=22)
        for w, b in model._layers():
            assert np.shares_memory(w, model.theta) and np.shares_memory(b, model.theta)
        assert model.theta.flags.c_contiguous and model.theta.dtype == np.float64

    def test_in_place_update_of_theta_moves_the_model(self):
        template = tiny_model(seed=23)
        theta = nn.flatten(template)
        model = nn.unflatten_like(template, theta)
        x = np.random.default_rng(24).standard_normal((5, 4))
        theta -= 0.25 * np.random.default_rng(25).standard_normal(theta.size)
        fresh = nn.unflatten_like(template, theta.copy())
        assert np.array_equal(nn.forward(model, x).logits, nn.forward(fresh, x).logits)
        assert np.array_equal(model.extractor[0][1], theta[24:30])

    def test_writing_a_layer_writes_theta(self):
        model = tiny_model(seed=26)
        model.classifier[1][:] = 7.0
        assert np.array_equal(model.theta[-3:], [7.0, 7.0, 7.0])

    def test_flatten_returns_a_copy(self):
        model = tiny_model(seed=27)
        before = model.theta.copy()
        flat = nn.flatten(model)
        flat[:] = 123.0
        assert np.array_equal(model.theta, before)
        assert np.array_equal(model.extractor[0][0].ravel(), before[:24])

    def test_constructor_copies_the_given_layers(self):
        w, b = np.eye(2), np.zeros(2)
        model = nn.MlpModel(extractor=[], classifier=(w, b))
        w[0, 0] = 5.0
        assert model.classifier[0][0, 0] == 1.0

    def test_non_contiguous_vector_is_copied(self):
        template = tiny_model(seed=28)
        wide = np.repeat(nn.flatten(template), 2)[::2]
        model = nn.unflatten_like(template, wide)
        assert not np.shares_memory(model.theta, wide)
        assert np.array_equal(model.theta, nn.flatten(template))


class TestFiniteDiffCheck:
    def test_exact_for_quadratic_up_to_roundoff(self):
        rng = np.random.default_rng(15)
        model = nn.MlpModel(extractor=[], classifier=(rng.standard_normal((4, 2)),
                                                      rng.standard_normal(2)))
        x = rng.standard_normal((5, 4))

        def loss_fn(m, batch):
            trace = nn.forward(m, batch)
            return 0.5 * float((trace.logits ** 2).sum()), nn.backward(m, trace, trace.logits)

        assert nn.finite_diff_check(model, x, loss_fn, epsilon=1e-5) < 1e-6

    def test_zero_epsilon_rejected(self):
        with pytest.raises(ValueError):
            nn.finite_diff_check(tiny_model(), None, lambda m, b: (0.0, None), epsilon=0.0)


class TestFlattenRoundTrip:
    @given(seed=st.integers(0, 10_000),
           hidden=st.lists(st.integers(1, 9), min_size=0, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_bijection(self, seed, hidden):
        model = nn.init_mlp(5, tuple(hidden), 3, np.random.default_rng(seed))
        rebuilt = nn.unflatten_like(model, nn.flatten(model))
        for (w1, b1), (w2, b2) in zip(model._layers(), rebuilt._layers()):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)

    def test_wrong_length_rejected(self):
        model = tiny_model()
        with pytest.raises(nn.ShapeError):
            nn.unflatten_like(model, np.zeros(model.num_params + 1))


class TestCheckpoint:
    def test_exact_round_trip(self, tmp_path):
        model = tiny_model(seed=16)
        path = tmp_path / "model.bin"
        nn.save_checkpoint(path, model)
        loaded = nn.load_checkpoint(path)
        for (w1, b1), (w2, b2) in zip(model._layers(), loaded._layers()):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)

    def test_layout_matches_per_layer_writer(self, tmp_path):
        # header, then each layer's weights and bias as little-endian f64,
        # written layer by layer as an independent reference
        model = tiny_model(seed=17)
        path = tmp_path / "model.bin"
        nn.save_checkpoint(path, model)
        layers = model._layers()
        ref = b"FGPS" + (1).to_bytes(4, "little") + len(layers).to_bytes(4, "little")
        for w, _ in layers:
            ref += w.shape[0].to_bytes(4, "little") + w.shape[1].to_bytes(4, "little")
        for w, b in layers:
            ref += w.astype("<f8").tobytes() + b.astype("<f8").tobytes()
        assert path.read_bytes() == ref

    def test_loaded_model_owns_a_writable_buffer(self, tmp_path):
        path = tmp_path / "model.bin"
        nn.save_checkpoint(path, tiny_model(seed=18))
        loaded = nn.load_checkpoint(path)
        loaded.theta += 1.0
        assert np.shares_memory(loaded.classifier[0], loaded.theta)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        nn.save_checkpoint(path, tiny_model(seed=19))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(nn.ShapeError):
            nn.load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            nn.load_checkpoint(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"FGPS" + (99).to_bytes(4, "little") + b"\x00" * 8)
        with pytest.raises(ValueError, match="version"):
            nn.load_checkpoint(path)
