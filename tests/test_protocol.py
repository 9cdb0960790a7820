"""Round-loop machinery: sampling, aggregation, non-self gradients,
prototype aggregation, and the communication meter."""
import numpy as np
import pytest

from fedsim import protocol as proto


def make_server(dim=6, eta_g=1.0):
    return proto.ServerState(global_params=np.zeros(dim), eta_g=eta_g)


class TestSampleClients:
    def test_full_rate_selects_everyone(self):
        rng = np.random.default_rng(0)
        assert proto.sample_clients(7, 1.0, rng) == list(range(7))

    def test_half_of_ten_is_five(self):
        rng = np.random.default_rng(1)
        assert len(proto.sample_clients(10, 0.5, rng)) == 5

    def test_fixed_rng_reproducible(self):
        seq_a = [proto.sample_clients(10, 0.3, np.random.default_rng(5)) for _ in range(3)]
        seq_b = [proto.sample_clients(10, 0.3, np.random.default_rng(5)) for _ in range(3)]
        assert seq_a == seq_b

    def test_min_size_enforced(self):
        with pytest.raises(proto.ProtocolError):
            proto.sample_clients(10, 0.1, np.random.default_rng(0), min_size=2)

    def test_bad_rate_rejected(self):
        with pytest.raises(proto.ProtocolError):
            proto.sample_clients(10, 0.0, np.random.default_rng(0))


class TestAggregate:
    def test_single_client_identity(self):
        server = make_server()
        delta = np.arange(6.0)
        proto.aggregate(server, {3: delta})
        assert np.array_equal(server.global_params, delta)

    def test_zero_eta_g_freezes_global(self):
        server = make_server(eta_g=0.0)
        before = server.global_params.copy()
        proto.aggregate(server, {0: np.ones(6), 1: np.full(6, -2.0)})
        assert np.array_equal(server.global_params, before)

    def test_opposite_deltas_cancel(self):
        server = make_server()
        d = np.random.default_rng(2).standard_normal(6)
        proto.aggregate(server, {0: d, 1: -d})
        assert np.allclose(server.global_params, 0.0, atol=1e-15)

    def test_empty_map_rejected(self):
        with pytest.raises(proto.ProtocolError):
            proto.aggregate(make_server(), {})

    def test_bookkeeping_rolls_forward(self):
        server = make_server(eta_g=0.5)
        deltas = {2: np.ones(6), 5: np.full(6, 3.0)}
        proto.aggregate(server, deltas)
        assert server.prev_selected == (2, 5)
        assert server.round == 1
        assert np.array_equal(server.prev_global_delta, 0.5 * np.full(6, 2.0))
        # a second round: the applied change is eta_g * mean of the deltas
        # re-summed in ascending client id, bit for bit, whatever the
        # insertion order
        rng = np.random.default_rng(12)
        deltas = {k: rng.standard_normal(6) for k in (7, 1, 4)}
        start = server.global_params
        proto.aggregate(server, deltas)
        total = np.zeros(6)
        for k in sorted(server.prev_deltas):
            total += server.prev_deltas[k]
        assert np.array_equal(server.prev_global_delta, 0.5 * (total / 3))
        assert np.array_equal(server.global_params, start + server.prev_global_delta)
        assert server.prev_selected == (1, 4, 7) and server.round == 2

    def test_order_independence_within_float_noise(self):
        rng = np.random.default_rng(3)
        deltas = {k: rng.standard_normal(64) for k in range(9)}
        a = make_server(64)
        proto.aggregate(a, deltas)
        # feed the same map with reversed insertion order; the canonical
        # ascending reduction must make the result identical
        b = make_server(64)
        proto.aggregate(b, dict(reversed(list(deltas.items()))))
        assert np.array_equal(a.global_params, b.global_params)
        # even a genuinely different summation order stays within 1e-12
        total = sum(deltas[k] for k in sorted(deltas, reverse=True))
        alt = total / len(deltas)
        assert np.max(np.abs(alt - a.global_params)) < 1e-12


def test_ordered_sum_adds_in_ascending_client_id():
    """The protocol's one reduction adds in ascending client id, whatever
    the insertion order; deltas and prototypes are summed through it."""
    values = {1: [1e16], 2: [-1e16], 0: [1.0]}
    assert proto.ordered_sum(values).tolist() == [0.0]
    total = np.zeros(1)
    for v in values.values():  # insertion order: 1 + 1e16 rounds to 1e16
        total += v
    assert total.tolist() == [1.0]
    arrays = {k: np.array(v) for k, v in values.items()}
    assert proto.mean_delta(arrays).tolist() == [0.0]
    assert proto.aggregate_prototypes(make_server(1), arrays).tolist() == [0.0]
    assert (total / len(values)).tolist() == [1.0 / 3.0]  # the insertion-order mean


class TestNonSelfGradient:
    def setup_method(self):
        self.server = make_server(4)
        self.d = {1: np.array([1.0, 0, 0, 0]), 2: np.array([0, 2.0, 0, 0])}
        proto.aggregate(self.server, self.d)

    def test_two_participants_excludes_self(self):
        out = proto.non_self_gradient(self.server, 1, eta_g=1.0, eta_l=0.1)
        assert np.array_equal(out, -0.1 * self.d[2])

    def test_outsider_gets_full_mean(self):
        out = proto.non_self_gradient(self.server, 7, eta_g=1.0, eta_l=1.0)
        assert np.array_equal(out, -(self.d[1] + self.d[2]) / 2.0)

    def test_zero_deltas_give_zero(self):
        server = make_server(4)
        proto.aggregate(server, {0: np.zeros(4), 1: np.zeros(4)})
        assert np.array_equal(proto.non_self_gradient(server, 0, 1.0, 0.01),
                              np.zeros(4))

    def test_no_others_rejected(self):
        server = make_server(4)
        proto.aggregate(server, {3: np.ones(4)})
        with pytest.raises(proto.ProtocolError):
            proto.non_self_gradient(server, 3, 1.0, 0.01)

    def test_exclusion_property(self):
        # perturbing client i's cached delta never changes i's own
        # non-self gradient, but changes everyone else's
        rng = np.random.default_rng(4)
        for _ in range(20):
            server = make_server(8)
            ids = sorted(rng.choice(10, size=rng.integers(2, 6), replace=False))
            deltas = {int(k): rng.standard_normal(8) for k in ids}
            proto.aggregate(server, deltas)
            i = int(rng.choice(ids))
            before = {k: proto.non_self_gradient(server, k, 1.0, 0.01) for k in ids}
            server.prev_deltas[i] = server.prev_deltas[i] + rng.standard_normal(8)
            after = {k: proto.non_self_gradient(server, k, 1.0, 0.01) for k in ids}
            assert np.array_equal(before[i], after[i])
            for k in ids:
                if k != i:
                    assert not np.array_equal(before[k], after[k])


class TestNonSelfGradientCf:
    def test_not_selected_returns_global_delta(self):
        server = make_server(3)
        proto.aggregate(server, {0: np.array([1.0, -2.0, 3.0]), 1: np.array([3.0, 0.0, 1.0])})
        out = proto.non_self_gradient_cf(server, 5, server.eta_g)
        assert np.array_equal(out, server.prev_global_delta)
        assert out is not server.prev_global_delta  # a copy: the caller may not alias it

    def test_sole_participant_cancels_to_zero(self):
        server = make_server(3)
        proto.aggregate(server, {4: np.array([1.0, -2.0, 3.0])})
        out = proto.non_self_gradient_cf(server, 4, server.eta_g)
        assert np.array_equal(out, np.zeros(3))

    def test_zero_global_delta(self):
        server = make_server(3)
        proto.aggregate(server, {0: np.zeros(3)})
        out = proto.non_self_gradient_cf(server, 1, server.eta_g)
        assert np.array_equal(out, np.zeros(3))

    def test_no_global_change_yet_is_an_error(self):
        with pytest.raises(proto.ProtocolError, match="client 2"):
            proto.non_self_gradient_cf(make_server(3), 2, 1.0)

    def test_antiparallel_to_standard_with_two_participants(self):
        # with |S| = 2 and the client's share of the global change removed,
        # the communication-friendly direction is exactly opposite to the
        # literal standard definition (which carries a leading minus)
        server = make_server(5, eta_g=1.0)
        deltas = {0: np.random.default_rng(6).standard_normal(5),
                  1: np.random.default_rng(7).standard_normal(5)}
        proto.aggregate(server, deltas)
        std = proto.non_self_gradient(server, 0, eta_g=1.0, eta_l=0.01)
        cf = proto.non_self_gradient_cf(server, 0, server.eta_g)
        cos = (std @ cf) / (np.linalg.norm(std) * np.linalg.norm(cf))
        assert cos == pytest.approx(-1.0, abs=1e-12)

    def test_matches_the_other_participants_share(self):
        # the definition, summed apart from the code's global-change-less-own
        # arithmetic: eta_g / |S| * sum of the other participants' deltas
        rng = np.random.default_rng(21)
        for size in [2, 3, 4, 5, 6] * 20:
            server = make_server(9, eta_g=float(rng.uniform(0.1, 3.0)))
            ids = sorted(int(k) for k in rng.choice(12, size=size, replace=False))
            deltas = {k: rng.standard_normal(9) * rng.uniform(1e-3, 1e3) for k in ids}
            proto.aggregate(server, deltas)
            for k in ids:
                want = server.eta_g / size * sum(deltas[j] for j in ids if j != k)
                got = proto.non_self_gradient_cf(server, k, server.eta_g)
                np.testing.assert_allclose(got, want, rtol=0,
                                           atol=1e-12 * np.max(np.abs(want)))
            absent = next(k for k in range(13) if k not in deltas)
            out = proto.non_self_gradient_cf(server, absent, server.eta_g)
            assert np.array_equal(out, server.prev_global_delta)
            assert out is not server.prev_global_delta


class TestPrototypeAggregation:
    def test_single_upload_identity(self):
        server = make_server()
        p = np.random.default_rng(8).standard_normal((4, 3))
        out = proto.aggregate_prototypes(server, {2: p})
        assert np.array_equal(out, p)

    def test_opposite_uploads_cancel(self):
        server = make_server()
        p = np.ones((2, 3))
        out = proto.aggregate_prototypes(server, {0: p, 1: -p})
        assert np.array_equal(out, np.zeros((2, 3)))

    def test_mean_is_idempotent_on_identical_uploads(self):
        server = make_server()
        p = np.random.default_rng(9).standard_normal((3, 2))
        out = proto.aggregate_prototypes(server, {0: p, 1: p.copy(), 2: p.copy()})
        assert np.allclose(out, p, atol=1e-15)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(proto.ProtocolError):
            proto.aggregate_prototypes(make_server(), {0: np.ones((2, 2)),
                                                       1: np.ones((3, 2))})


class TestCommMeter:
    def test_table_values(self):
        meter = proto.CommMeter()
        assert proto.meter_round(meter, "fedgps", 1000, 10, 512) == (7120.0, 6120.0)
        assert proto.meter_round(meter, "fedgps_cf", 1000, 10, 512) == (6120.0, 6120.0)
        assert proto.meter_round(meter, "fedavg", 1000, 10, 512) == (1000.0, 1000.0)

    def test_totals_accumulate(self):
        meter = proto.CommMeter()
        proto.meter_round(meter, "fedavg", 100, 5, 8)
        proto.meter_round(meter, "fedgps", 100, 5, 8)
        assert meter.total_down == 100.0 + 240.0
        assert meter.total_up == 100.0 + 140.0

    def test_running_totals_equal_ordered_sum(self):
        # the running totals add each round in order, as sum() over a
        # per-round list would
        rng = np.random.default_rng(13)
        rounds = [(float(d), float(u)) for d, u in rng.uniform(0, 1e4, size=(50, 2))]
        meter = proto.CommMeter()
        for d, u in rounds:
            meter.record(d, u)
        assert meter.total_down == sum(d for d, _ in rounds)
        assert meter.total_up == sum(u for _, u in rounds)

    def test_unknown_algo_rejected(self):
        with pytest.raises(proto.ProtocolError):
            proto.meter_round(proto.CommMeter(), "fedmagic", 10, 2, 2)

    def test_nonpositive_counts_rejected(self):
        with pytest.raises(proto.ProtocolError):
            proto.meter_round(proto.CommMeter(), "fedavg", 0, 2, 2)


class TestPrototypeUploads:
    def test_checked_uploads_aggregate(self):
        server = make_server()
        server.global_prototypes = np.zeros((2, 3))
        a = np.ones((2, 3))
        b = np.full((2, 3), 3.0)
        uploads = {1: proto.upload_prototypes(server, 1, a),
                   0: proto.upload_prototypes(server, 0, b)}
        assert uploads[1] is a and uploads[0] is b  # float64 arrays pass through
        out = proto.aggregate_prototypes(server, uploads)
        assert np.array_equal(out, (a + b) / 2)
        assert server.global_prototypes is out

    def test_upload_converted_to_float64(self):
        server = make_server()
        server.global_prototypes = np.zeros((2, 2))
        out = proto.upload_prototypes(server, 0, [[1, 2], [3, 4]])
        assert out.dtype == np.float64 and np.array_equal(out, [[1.0, 2.0], [3.0, 4.0]])

    def test_no_uploads_rejected(self):
        with pytest.raises(proto.ProtocolError, match="no prototype uploads"):
            proto.aggregate_prototypes(make_server(), {})

    def test_upload_shape_checked_against_global(self):
        server = make_server()
        server.global_prototypes = np.zeros((2, 3))
        with pytest.raises(proto.ProtocolError, match="client 0"):
            proto.upload_prototypes(server, 0, np.ones((3, 3)))
