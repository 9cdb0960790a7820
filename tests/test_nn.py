"""Forward/backward correctness against independent oracles, the flat
parameter buffer (bijection and aliasing), and the checkpoint format."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedsim import nn
from fedsim.algorithms import ce_loss_and_grad
from layers import layers_of, mlp_from


def tiny_model(seed=0, input_dim=4, hidden=(6, 5), classes=3):
    return nn.init_mlp(input_dim, hidden, classes, np.random.default_rng(seed))


class TestForward:
    def test_zero_weights_give_zero_logits(self):
        model = tiny_model()
        for block in model.blocks:
            block[:] = 0.0
        x = np.random.default_rng(1).standard_normal((7, 4))
        trace = nn.forward(model, x)
        assert np.array_equal(trace.logits, np.zeros((7, 3)))

    def test_identity_extractor_passes_input_through(self):
        # single square-identity layer, nonnegative input so the rectifier
        # is the identity too
        model = mlp_from((np.eye(4), np.zeros(4)), (np.ones((4, 2)), np.zeros(2)))
        x = np.abs(np.random.default_rng(2).standard_normal((5, 4)))
        trace = nn.forward(model, x)
        assert np.array_equal(trace.embeddings, x)

    def test_matches_independent_reimplementation(self):
        # straightforward matrix-multiply oracle, written independently
        model = tiny_model(seed=3)
        x = np.random.default_rng(4).standard_normal((6, 4))
        *hidden, (clf_w, clf_b) = layers_of(model)
        h = x
        for w, b in hidden:
            h = np.maximum(h @ w + b, 0.0)
        expected = h @ clf_w + clf_b
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
        model = mlp_from((w, b))
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
        clf_size = model.blocks[-1].size
        assert np.array_equal(grad[-clf_size:], np.zeros(clf_size))

    def test_shape_mismatch_rejected(self):
        model = tiny_model()
        trace = nn.forward(model, np.zeros((2, 4)))
        with pytest.raises(nn.ShapeError):
            nn.backward(model, trace, np.zeros((3, 3)))
        with pytest.raises(nn.ShapeError):
            nn.backward(model, trace, np.zeros((2, 3)), dembed=np.zeros((2, 99)))


def ones_column(h):
    """`h` with a trailing ones column, as a fresh array."""
    return np.hstack([h, np.ones((len(h), 1))])


def reference_forward(model, x):
    """Every layer out of place on the augmented formula [h, 1] @ [W; b]:
    fresh arrays for the ones column, the stacked block and the product."""
    *hidden, classifier = layers_of(model)
    acts, h = [], x
    for w, b in hidden:
        h = np.maximum(ones_column(h) @ np.vstack([w, b]), 0.0)
        acts.append(h)
    return acts, ones_column(h) @ np.vstack(classifier)


def classical_forward(model, x):
    """The textbook layer h @ W + b, bias added after the product."""
    *hidden, (clf_w, clf_b) = layers_of(model)
    acts, h = [], x
    for w, b in hidden:
        h = np.maximum(h @ w + b, 0.0)
        acts.append(h)
    return acts, h @ clf_w + clf_b


ROWS = [1, 3, 32, 64, 640]


class TestInPlaceLayers:
    @pytest.mark.parametrize("hidden", [(), (6,), (64, 32)])
    @pytest.mark.parametrize("rows", ROWS)
    def test_forward_bit_identical_to_out_of_place(self, hidden, rows):
        model = nn.init_mlp(16, hidden, 10, np.random.default_rng(rows))
        x = np.random.default_rng(200 + rows).standard_normal((rows, 16))
        trace = nn.forward(model, x)
        acts, logits = reference_forward(model, x)
        assert len(trace.acts) == len(acts)
        for got, want in zip(trace.acts + [trace.logits], acts + [logits]):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("hidden", [(), (6,), (64, 32)])
    @pytest.mark.parametrize("rows", ROWS)
    def test_forward_matches_classical_formula(self, hidden, rows):
        # the bias joins the product, so only rounding may differ from h @ W + b
        model = nn.init_mlp(16, hidden, 10, np.random.default_rng(rows))
        model.theta[:] += np.random.default_rng(400 + rows).standard_normal(model.num_params)
        x = np.random.default_rng(500 + rows).standard_normal((rows, 16))
        trace = nn.forward(model, x)
        acts, logits = classical_forward(model, x)
        for got, want in zip(trace.acts + [trace.logits], acts + [logits]):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("hidden", [(), (6,), (64, 32)])
    @pytest.mark.parametrize("rows", [1, 3, 64, 640])
    def test_embed_bit_identical_to_forward(self, hidden, rows):
        # the inference path skips the classifier and rectifies in place
        model = nn.init_mlp(16, hidden, 10, np.random.default_rng(rows))
        x = nn.augment(model, np.random.default_rng(300 + rows).standard_normal((rows, 16)))
        before = x.tobytes()
        embedded = nn.Kernel(model.widths, rows).forward(model, x, classify=False).embeddings
        assert embedded.tobytes() == nn.forward(model, x[:, :-1]).embeddings.tobytes()
        assert x.tobytes() == before

    @pytest.mark.parametrize("with_dembed", [False, True])
    def test_backward_leaves_its_inputs_unchanged(self, with_dembed):
        model = nn.init_mlp(16, (64, 32), 10, np.random.default_rng(30))
        rng = np.random.default_rng(31)
        trace = nn.forward(model, rng.standard_normal((64, 16)))
        dlogits = rng.standard_normal(trace.logits.shape)
        dembed = rng.standard_normal(trace.embeddings.shape) if with_dembed else None
        arrays = [trace.inputs, *trace.acts, trace.embeddings,
                  trace.logits, dlogits, model.theta] + ([dembed] if with_dembed else [])
        before = [a.tobytes() for a in arrays]
        nn.backward(model, trace, dlogits, dembed)
        assert [a.tobytes() for a in arrays] == before


def reference_backward(model, trace, dlogits, dembed=None, classical=False):
    """The gradient as separate per-layer arrays concatenated at the end,
    the layout `backward` fills through views of one flat vector. Each
    layer's [dW; db] is [h, 1]^T @ dz out of place, or with `classical`
    h^T @ dz and the column sums of dz."""
    def layer(prev, dz):
        if classical:
            return [(prev.T @ dz).ravel(), dz.sum(axis=0)]
        return [(ones_column(prev).T @ dz).ravel()]

    *hidden, (clf_w, _) = layers_of(model)
    parts = layer(trace.embeddings, dlogits)
    dh = dlogits @ clf_w.T
    if dembed is not None:
        dh = dh + dembed
    for i in range(len(hidden) - 1, -1, -1):
        dz = dh * (trace.acts[i] > 0)
        prev = trace.inputs if i == 0 else trace.acts[i - 1]
        parts = layer(prev, dz) + parts
        dh = dz @ hidden[i][0].T
    return np.concatenate(parts)


class TestFlatBackwardEquivalence:
    @pytest.mark.parametrize("hidden", [(), (6,), (64, 32), (7, 5, 3)])
    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("with_dembed", [False, True])
    def test_bit_identical_to_concatenated_parts(self, hidden, rows, with_dembed):
        model = nn.init_mlp(16, hidden, 10, np.random.default_rng(rows))
        rng = np.random.default_rng(100 + rows)
        trace = nn.forward(model, rng.standard_normal((rows, 16)))
        dlogits = rng.standard_normal(trace.logits.shape)
        dembed = rng.standard_normal(trace.embeddings.shape) if with_dembed else None
        grad = nn.backward(model, trace, dlogits, dembed)
        assert np.array_equal(grad, reference_backward(model, trace, dlogits, dembed))
        np.testing.assert_allclose(
            grad, reference_backward(model, trace, dlogits, dembed, classical=True),
            rtol=1e-12, atol=1e-12)

    def test_returns_a_fresh_vector(self):
        model = tiny_model(seed=20)
        trace = nn.forward(model, np.random.default_rng(21).standard_normal((4, 4)))
        dlogits = np.ones_like(trace.logits)
        first = nn.backward(model, trace, dlogits)
        second = nn.backward(model, trace, dlogits)
        assert first is not second and not np.shares_memory(first, model.theta)
        first[:] = 0.0
        assert np.array_equal(second, nn.backward(model, trace, dlogits))


class TestKernelReuse:
    """A kernel reused at fewer rows than it holds, as a trainer's short last
    batch uses it, against a fresh kernel made for exactly those rows."""

    @pytest.mark.parametrize("hidden", [(), (6,), (64, 32)])
    @pytest.mark.parametrize("rows", [1, 3, 32, 45])
    def test_fewer_rows_same_bits_as_fresh(self, hidden, rows):
        model = nn.init_mlp(16, hidden, 10, np.random.default_rng(rows))
        rng = np.random.default_rng(600 + rows)
        big, x = nn.augment(model, rng.standard_normal((64, 16))), nn.augment(
            model, rng.standard_normal((rows, 16)))
        dlogits = rng.standard_normal((rows, 10))
        dembed = rng.standard_normal((rows, model.embed_dim))
        reused = nn.Kernel(model.widths, 64)
        reused.forward(model, big)
        reused.backward(model, rng.standard_normal((64, 10)))
        fresh = nn.Kernel(model.widths, rows).forward(model, x)
        reused.forward(model, x)
        assert reused.logits.tobytes() == fresh.logits.tobytes()
        assert reused.embeddings.tobytes() == fresh.embeddings.tobytes()
        assert (reused.backward(model, dlogits, dembed).tobytes()
                == fresh.backward(model, dlogits, dembed).tobytes())

    def test_shared_kernel_grows_and_is_reused(self):
        model = tiny_model(seed=40)
        small = model.shared_kernel(5)
        assert model.shared_kernel(3) is small
        grown = model.shared_kernel(6)
        assert grown is not small and grown.capacity == 6
        assert model.shared_kernel(2) is grown
        assert tiny_model(seed=40).shared_kernel(2) is not grown


class TestFlatBuffer:
    def test_layers_are_views_of_theta(self):
        model = tiny_model(seed=22)
        assert [block.shape for block in model.blocks] == [(5, 6), (7, 5), (6, 3)]
        for block in model.blocks:
            assert block.base is model.theta
        assert model.theta.flags.c_contiguous and model.theta.dtype == np.float64

    def test_in_place_update_of_theta_moves_the_model(self):
        template = tiny_model(seed=23)
        theta = nn.flatten(template)
        model = nn.unflatten_like(template, theta)
        x = np.random.default_rng(24).standard_normal((5, 4))
        theta -= 0.25 * np.random.default_rng(25).standard_normal(theta.size)
        fresh = nn.unflatten_like(template, theta.copy())
        assert np.array_equal(nn.forward(model, x).logits, nn.forward(fresh, x).logits)
        assert np.array_equal(model.blocks[0][-1], theta[24:30])

    def test_writing_a_layer_writes_theta(self):
        model = tiny_model(seed=26)
        model.blocks[-1][-1] = 7.0
        assert np.array_equal(model.theta[-3:], [7.0, 7.0, 7.0])

    def test_flatten_returns_a_copy(self):
        model = tiny_model(seed=27)
        before = model.theta.copy()
        flat = nn.flatten(model)
        flat[:] = 123.0
        assert np.array_equal(model.theta, before)
        assert np.array_equal(model.blocks[0][:-1].ravel(), before[:24])

    def test_constructor_without_a_vector_starts_at_zero(self):
        model = nn.MlpModel((4, 6, 3))
        assert model.widths == (4, 6, 3) and model.num_params == 5 * 6 + 7 * 3
        assert np.array_equal(model.theta, np.zeros(model.num_params))
        assert (model.input_dim, model.embed_dim, model.num_classes) == (4, 6, 3)

    @pytest.mark.parametrize("widths", [(), (4,), (4, 0), (0, 3), (4, 6, 0, 3)])
    def test_constructor_rejects_bad_widths(self, widths):
        with pytest.raises(nn.ShapeError):
            nn.MlpModel(widths)

    def test_non_contiguous_vector_is_copied(self):
        template = tiny_model(seed=28)
        wide = np.repeat(nn.flatten(template), 2)[::2]
        model = nn.unflatten_like(template, wide)
        assert not np.shares_memory(model.theta, wide)
        assert np.array_equal(model.theta, nn.flatten(template))


class TestFiniteDiffCheck:
    def test_exact_for_quadratic_up_to_roundoff(self):
        rng = np.random.default_rng(15)
        model = mlp_from((rng.standard_normal((4, 2)), rng.standard_normal(2)))
        x = rng.standard_normal((5, 4))

        def loss_fn(m, batch):
            trace = nn.forward(m, batch)
            return 0.5 * float((trace.logits ** 2).sum()), nn.backward(m, trace, trace.logits)

        assert nn.finite_diff_check(model, x, loss_fn, epsilon=1e-5) < 1e-6

    def test_zero_epsilon_rejected(self):
        with pytest.raises(ValueError):
            nn.finite_diff_check(tiny_model(), None, lambda m, b: (0.0, None), epsilon=0.0)

    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    def test_non_finite_gradient_fails_every_tolerance(self, poison):
        # NaN compared with max() would keep the last finite error
        rng = np.random.default_rng(16)
        model = nn.init_mlp(4, (5,), 3, rng)
        x, y = rng.standard_normal((6, 4)), rng.integers(0, 3, size=6)

        def loss_fn(m, batch):
            loss, grad = ce_loss_and_grad(m, *batch)
            return loss, grad * poison

        err = nn.finite_diff_check(model, (x, y), loss_fn, epsilon=1e-5)
        assert not err < 1e300


class TestFlattenRoundTrip:
    @given(seed=st.integers(0, 10_000),
           hidden=st.lists(st.integers(1, 9), min_size=0, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_bijection(self, seed, hidden):
        model = nn.init_mlp(5, tuple(hidden), 3, np.random.default_rng(seed))
        rebuilt = nn.unflatten_like(model, nn.flatten(model))
        assert rebuilt.widths == model.widths == (5, *hidden, 3)
        for a, b in zip(model.blocks, rebuilt.blocks, strict=True):
            assert np.array_equal(a, b)

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
        assert loaded.widths == model.widths
        for a, b in zip(model.blocks, loaded.blocks, strict=True):
            assert np.array_equal(a, b)

    def test_layout_matches_per_layer_writer(self, tmp_path):
        # header, then each layer's weights and bias as little-endian f64,
        # sliced from theta by offset and written layer by layer as an
        # independent reference
        model = tiny_model(seed=17)
        path = tmp_path / "model.bin"
        nn.save_checkpoint(path, model)
        shapes = [(4, 6), (6, 5), (5, 3)]
        ref = b"FGPS" + (1).to_bytes(4, "little") + len(shapes).to_bytes(4, "little")
        for fan_in, fan_out in shapes:
            ref += fan_in.to_bytes(4, "little") + fan_out.to_bytes(4, "little")
        offset = 0
        for fan_in, fan_out in shapes:
            w = model.theta[offset:offset + fan_in * fan_out].reshape(fan_in, fan_out)
            b = model.theta[offset + fan_in * fan_out:offset + (fan_in + 1) * fan_out]
            ref += w.astype("<f8").tobytes() + b.astype("<f8").tobytes()
            offset += (fan_in + 1) * fan_out
        assert offset == model.num_params
        assert path.read_bytes() == ref

    def test_loaded_model_owns_a_writable_buffer(self, tmp_path):
        path = tmp_path / "model.bin"
        nn.save_checkpoint(path, tiny_model(seed=18))
        loaded = nn.load_checkpoint(path)
        loaded.theta += 1.0
        assert loaded.blocks[-1].base is loaded.theta

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        nn.save_checkpoint(path, tiny_model(seed=19))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(nn.ShapeError):
            nn.load_checkpoint(path)

    def test_body_cut_inside_a_value_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        nn.save_checkpoint(path, tiny_model(seed=30))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(nn.ShapeError, match="whole f64"):
            nn.load_checkpoint(path)

    @pytest.mark.parametrize("keep", [6, 10, 12, 20])
    def test_header_cut_short_rejected(self, tmp_path, keep):
        # inside the version or the layer count, before the shapes, after the first
        path = tmp_path / "model.bin"
        nn.save_checkpoint(path, tiny_model(seed=31))
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(nn.ShapeError, match="cut short"):
            nn.load_checkpoint(path)

    def test_no_layers_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"FGPS" + (1).to_bytes(4, "little") + (0).to_bytes(4, "little"))
        with pytest.raises(nn.ShapeError, match="no layers"):
            nn.load_checkpoint(path)

    def test_shapes_that_do_not_chain_rejected(self, tmp_path):
        # (4, 6) then (5, 3): a consistent total length, 30 + 18 values
        path = tmp_path / "model.bin"
        header = [1, 2, 4, 6, 5, 3]
        path.write_bytes(b"FGPS" + b"".join(n.to_bytes(4, "little") for n in header)
                         + np.zeros(48).astype("<f8").tobytes())
        with pytest.raises(nn.ShapeError, match="do not chain"):
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
