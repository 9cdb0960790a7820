"""Traced mode: spans around fedsim's public functions, the per-round
phase split, microbenchmarks on the desk shapes, and the checks that
only the traced mode can make.

A wrapper goes on the name where the caller looks it up, so
`fedsim.algorithms.forward` is wrapped as well as `fedsim.nn.forward`.
Spans are kept in memory and written to a file once the pass ends. A
layer's self time is its span minus its child spans; calls are nested
and single-threaded, so children never overlap.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

import checks

# (module, attribute, span name). Names missing from a later fedsim are
# skipped, so the traced mode still runs; their counts then read 0.
TARGETS = [
    ("nn", "forward", "nn.forward"),
    ("algorithms", "forward", "nn.forward"),
    ("nn", "backward", "nn.backward"),
    ("algorithms", "backward", "nn.backward"),
    ("nn", "flatten", "nn.flatten"),
    ("algorithms", "flatten", "nn.flatten"),
    ("nn", "unflatten_like", "nn.unflatten_like"),
    ("algorithms", "unflatten_like", "nn.unflatten_like"),
    ("algorithms", "fedgps_loss_and_grad", "algorithms.fedgps_loss_and_grad"),
    ("algorithms", "ce_loss_and_grad", "algorithms.ce_loss_and_grad"),
    ("algorithms", "rectified_gradient", "algorithms.rectified_gradient"),
    ("algorithms", "compute_local_prototypes", "algorithms.compute_local_prototypes"),
    ("algorithms", "fedgps_local_train", "algorithms.fedgps_local_train"),
    ("algorithms", "fedavg_local_train", "algorithms.fedavg_local_train"),
    ("algorithms", "fedprox_local_train", "algorithms.fedprox_local_train"),
    ("algorithms", "scaffold_local_train", "algorithms.scaffold_local_train"),
    ("algorithms", "fedavgm_server_update", "algorithms.fedavgm_server_update"),
    ("protocol", "sample_clients", "protocol.sample_clients"),
    ("protocol", "aggregate", "protocol.aggregate"),
    ("protocol", "non_self_gradient", "protocol.non_self_gradient"),
    ("protocol", "non_self_gradient_cf", "protocol.non_self_gradient_cf"),
    ("protocol", "upload_prototypes", "protocol.upload_prototypes"),
    ("protocol", "aggregate_prototypes", "protocol.aggregate_prototypes"),
    ("protocol", "meter_round", "protocol.meter_round"),
    ("runner", "accuracy", "runner.accuracy"),
    ("runner", "run_one", "runner.run_one"),
    ("runner", "run", "runner.run"),
    ("runner", "compare", "runner.compare"),
    ("eval", "write_summary_csv", "eval.write_summary_csv"),
    ("eval", "write_nemenyi_csv", "eval.write_nemenyi_csv"),
]

# Direct children of a run_one span that make up each named phase of a
# round; every other child counts toward the round's remainder.
PHASES = {
    "local_train": {"algorithms.fedgps_local_train", "algorithms.fedavg_local_train",
                    "algorithms.fedprox_local_train", "algorithms.scaffold_local_train"},
    "aggregate": {"protocol.aggregate", "algorithms.fedavgm_server_update",
                  "protocol.non_self_gradient", "protocol.non_self_gradient_cf"},
    "proto_agg": {"protocol.upload_prototypes", "protocol.aggregate_prototypes"},
    "eval": {"runner.accuracy"},
}
LOOP_END = "runner.loop_end"


class Tracer:
    """In-memory span recorder: name, start, end and parent per span."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)
        return traced

    def patch(self, module, attr: str, replacement) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self, fedsim) -> None:
        """Wrap every target, and mark where a run's round loop ends: the
        loop is followed at once by building the run's RunResult."""
        for mod_name, attr, name in TARGETS:
            module = getattr(fedsim, mod_name)
            if hasattr(module, attr):
                self.patch(module, attr, self.wrap(getattr(module, attr), name))
        tracer = self

        class MarkedRunResult(fedsim.runner.RunResult):
            def __init__(self, *args, **kwargs):
                tracer._close(tracer._open(LOOP_END))
                super().__init__(*args, **kwargs)

        self.patch(fedsim.runner, "RunResult", MarkedRunResult)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for row in zip(self.names, self.starts, self.ends, self.parents):
                fh.write("%s\t%.9f\t%.9f\t%d\n" % row)


def install_protocol_checks(fedsim, tracer: Tracer, failures: list[str]) -> None:
    """Recompute every aggregation and non-self gradient of the traced pass.

    The aggregate must match eta_g * mean of the deltas, summed in
    ascending client id, bit for bit: that ordered reduction is the
    protocol's determinism contract. The non-self gradient must equal
    -eta_g * eta_l * mean of the other clients' deltas to 1e-12 relative,
    since the formula fixes its value but not its summation order.
    """
    proto = fedsim.protocol
    aggregate = proto.aggregate
    non_self_gradient = proto.non_self_gradient

    def checked_aggregate(server, deltas):
        total = np.zeros_like(server.global_params)
        for k in sorted(deltas):
            total += deltas[k]
        applied = server.eta_g * (total / len(deltas))
        expected = server.global_params + applied
        result = aggregate(server, deltas)
        if not (np.array_equal(result, expected)
                and np.array_equal(server.prev_global_delta, applied)):
            failures.append(f"protocol.aggregate differs from eta_g*mean in round {server.round}")
        return result

    def checked_non_self_gradient(server, client_id, eta_g, eta_l):
        others = sorted(k for k in server.prev_deltas if k != client_id)
        total = np.zeros_like(server.global_params)
        for k in others:
            total += server.prev_deltas[k]
        expected = -eta_g * eta_l * (total / max(len(others), 1))
        result = non_self_gradient(server, client_id, eta_g, eta_l)
        scale = float(np.max(np.abs(expected))) if expected.size else 0.0
        if not np.allclose(result, expected, rtol=1e-12, atol=1e-12 * scale):
            failures.append(f"protocol.non_self_gradient for client {client_id} differs "
                            f"from -eta_g*eta_l*mean of the others")
        return result

    tracer.patch(proto, "aggregate", checked_aggregate)
    tracer.patch(proto, "non_self_gradient", checked_non_self_gradient)


def span_table(tracer: Tracer):
    names = np.array(tracer.names, dtype=object)
    starts = np.array(tracer.starts)
    ends = np.array(tracer.ends)
    parents = np.array(tracer.parents, dtype=np.int64)
    dur = ends - starts
    child = np.zeros(len(dur))
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], dur[has_parent])
    return names, starts, ends, parents, dur, dur - child


def analyse(tracer: Tracer, pass_wall_s: float, monitor_every: int) -> dict:
    """Per-layer totals and the phase split of the traced pass.

    A round runs from its sample_clients call to the next one (the last
    round ends where the loop ends). Within a round, each direct child
    span of run_one is credited to its phase; the rest of the round is
    its remainder. The monitor is what the remainder of a monitor-cadence
    round exceeds the median remainder of plain rounds by. Artifacts are
    the part of run_one after the loop plus the self time of run and
    compare (the sweep summaries). phase.other_s is whatever of the
    pass's wall time the named phases leave.
    """
    names, starts, ends, parents, dur, self_s = span_table(tracer)
    unique, which = np.unique(names.astype(str), return_inverse=True)
    calls, busy, own = (np.bincount(which, weights=w, minlength=len(unique))
                        for w in (None, dur, self_s))
    totals = {str(name): {"calls": int(c), "s": float(s), "self_s": float(o)}
              for name, c, s, o in zip(unique, calls, busy, own)}

    phase = {p: 0.0 for p in PHASES}
    monitor_s = artifacts_s = 0.0
    rounds_ms, monitor_ms, plain_ms = [], [], []
    for run in np.flatnonzero(names == "runner.run_one"):
        kids = np.flatnonzero(parents == run)
        kid_names = names[kids]
        round_starts = starts[kids[kid_names == "protocol.sample_clients"]]
        loop_end = starts[kids[kid_names == LOOP_END]][0]
        bounds = np.append(round_starts, loop_end)
        round_s = np.diff(bounds)
        credited = np.zeros(len(round_s))
        in_loop = (starts[kids] >= bounds[0]) & (starts[kids] < loop_end)
        for p, members in PHASES.items():
            sel = kids[in_loop & np.isin(kid_names, list(members))]
            phase[p] += float(dur[sel].sum())
            np.add.at(credited, np.searchsorted(bounds, starts[sel], side="right") - 1, dur[sel])
        remainder = round_s - credited
        is_monitor = (np.arange(len(round_s)) + 1) % monitor_every == 0
        baseline = float(np.median(remainder[~is_monitor])) if (~is_monitor).any() else 0.0
        monitor_s += float((remainder[is_monitor] - baseline).sum())
        artifacts_s += float(ends[run] - loop_end)
        rounds_ms += list(round_s * 1e3)
        monitor_ms += list(round_s[is_monitor] * 1e3)
        plain_ms += list(round_s[~is_monitor] * 1e3)
    for sweep in ("runner.run", "runner.compare"):
        artifacts_s += totals.get(sweep, {"self_s": 0.0})["self_s"]

    named = sum(phase.values()) + monitor_s + artifacts_s
    out = {f"phase.{p}_s": v for p, v in phase.items()}
    out.update({"phase.monitor_s": monitor_s, "phase.artifacts_s": artifacts_s,
                "phase.other_s": pass_wall_s - named})
    q = statistics.quantiles(rounds_ms, n=10)
    out.update({"runner.round_ms_p50": statistics.median(rounds_ms),
                "runner.round_ms_p90": q[8],
                "runner.monitor_round_ms_p50": statistics.median(monitor_ms),
                "runner.plain_round_ms_p50": statistics.median(plain_ms),
                "trace.rounds_s": sum(rounds_ms) / 1e3})
    return {"totals": totals, "metrics": out}


def per_step_gradient_calls(tracer: Tracer) -> int:
    """Gradient evaluations that start a local step: one rectified
    gradient, or one cross-entropy gradient called by a trainer."""
    names = tracer.names
    trainers = PHASES["local_train"]
    return sum(1 for name, parent in zip(names, tracer.parents)
               if name == "algorithms.rectified_gradient"
               or (name == "algorithms.ce_loss_and_grad" and parent >= 0
                   and names[parent] in trainers))


def per_call_us(fn, target_s: float = 0.02, repeats: int = 5) -> float:
    """Median over repeats of the mean time per call, in microseconds."""
    fn()
    tic = time.perf_counter()
    fn()
    once = max(time.perf_counter() - tic, 1e-7)
    n = max(1, int(target_s / once))
    samples = []
    for _ in range(repeats):
        tic = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - tic) / n)
    return statistics.median(samples) * 1e6


def microbenchmarks(fedsim, inputs, failures: list[str]) -> dict:
    """Per-call cost on the desk shapes: local and surrogate batches of 32,
    the 16-64-32-10 model (M = 3498), 640 surrogate rows, 1000 test rows,
    and five participating clients. The forward and backward passes are
    first checked against a plain numpy forward and central differences."""
    nn, alg, proto, runner = fedsim.nn, fedsim.algorithms, fedsim.protocol, fedsim.runner
    cfg, train, test, surrogate = inputs.config, inputs.train, inputs.test, inputs.surrogate
    rng = np.random.default_rng(12345)
    model = nn.init_mlp(train.input_dim, tuple(cfg.hidden), train.num_classes, rng)
    theta = nn.flatten(model)
    widths = [train.input_dim, *cfg.hidden, train.num_classes]
    rows = rng.choice(len(train), 32, replace=False)
    xb, yb = train.features[rows], train.labels[rows]
    srows = rng.choice(len(surrogate), 32, replace=False)
    xs, ys = surrogate.features[srows], surrogate.labels[srows]
    protos = rng.standard_normal((train.num_classes, model.embed_dim))
    hyper = cfg.hyper()

    trace = nn.forward(model, xb)
    layers = checks.layers_from_flat(widths, theta)
    if not np.allclose(trace.logits, checks.mlp_logits(layers, xb), rtol=1e-12, atol=1e-12):
        failures.append("nn.forward differs from a plain numpy forward")
    dlogits = rng.standard_normal(trace.logits.shape)
    grad = nn.backward(model, trace, dlogits)
    eps = 1e-6
    for i in np.linspace(0, len(theta) - 1, 12).astype(int):
        hi, lo = theta.copy(), theta.copy()
        hi[i] += eps
        lo[i] -= eps
        f_hi = float((checks.mlp_logits(checks.layers_from_flat(widths, hi), xb) * dlogits).sum())
        f_lo = float((checks.mlp_logits(checks.layers_from_flat(widths, lo), xb) * dlogits).sum())
        central = (f_hi - f_lo) / (2 * eps)
        if abs(grad[i] - central) > 1e-6 * (1.0 + abs(central)):
            failures.append(f"nn.backward coordinate {i}: {grad[i]} vs central {central}")

    def composite(m):
        return alg.fedgps_loss_and_grad(m, (xb, yb), (xs, ys), protos, hyper)

    nsg = rng.standard_normal(len(theta))
    clients = range(5)
    deltas = {k: 1e-3 * rng.standard_normal(len(theta)) for k in clients}
    uploads = {k: rng.standard_normal(protos.shape) for k in clients}
    server = proto.ServerState(global_params=theta.copy(), eta_g=cfg.eta_g)
    proto.aggregate(server, deltas)
    aggregating = proto.ServerState(global_params=theta.copy(), eta_g=cfg.eta_g)
    return {
        "nn.forward.us": per_call_us(lambda: nn.forward(model, xb)),
        "nn.backward.us": per_call_us(lambda: nn.backward(model, trace, dlogits)),
        "nn.unflatten_like.us": per_call_us(lambda: nn.unflatten_like(model, theta)),
        "algorithms.ce_loss_and_grad.us": per_call_us(
            lambda: alg.ce_loss_and_grad(model, xb, yb, hyper.lambda3)),
        "algorithms.fedgps_loss_and_grad.us": per_call_us(lambda: composite(model)),
        "algorithms.rectified_gradient.us": per_call_us(
            lambda: alg.rectified_gradient(model, nsg, hyper.lambda_g, composite)),
        "algorithms.compute_local_prototypes.us": per_call_us(
            lambda: alg.compute_local_prototypes(model, surrogate)),
        "protocol.aggregate.us": per_call_us(lambda: proto.aggregate(aggregating, deltas)),
        "protocol.non_self_gradient.us": per_call_us(
            lambda: proto.non_self_gradient(server, 0, cfg.eta_g, cfg.eta_l)),
        "protocol.aggregate_prototypes.us": per_call_us(
            lambda: proto.aggregate_prototypes(server, uploads)),
        "runner.accuracy.us": per_call_us(lambda: runner.accuracy(model, theta, test)),
    }
