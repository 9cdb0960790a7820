"""Server-side round machinery: one `Algorithm` record per algorithm in
`ALGORITHMS` (what it sends each way, whether its steps are rectified),
the server's and clients' state, client sampling, delta aggregation, both
non-self gradients, prototype aggregation, and communication accounting
from the records.

The canonical aggregation order is ascending client id, single-threaded:
`ordered_sum` is that reduction, and every per-client sum of a round
(deltas, prototypes, SCAFFOLD's control changes) goes through it. It is
the bit-exactness contract even though client training itself may run in
any order.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class ProtocolError(Exception):
    """State or configuration violations in the round loop."""


@dataclass(frozen=True)
class Algorithm:
    """`down` and `up` count the (models, prototype matrices) sent that way
    per participant and round. `rectified` local steps take a shift built
    from other clients' deltas, so a round needs two participants."""

    down: tuple[int, int]
    up: tuple[int, int]
    rectified: bool = False


ALGORITHMS: dict[str, Algorithm] = {
    "fedavg": Algorithm(down=(1, 0), up=(1, 0)),
    "fedavgm": Algorithm(down=(1, 0), up=(1, 0)),
    "fedprox": Algorithm(down=(1, 0), up=(1, 0)),
    "scaffold": Algorithm(down=(2, 0), up=(2, 0)),  # the model and a control variate
    "fedgps": Algorithm(down=(2, 1), up=(1, 1), rectified=True),  # + the non-self gradient
    "fedgps_cf": Algorithm(down=(1, 1), up=(1, 1), rectified=True),  # built by the client
}


@dataclass
class ServerState:
    """Global model plus the previous round's bookkeeping.

    `prev_deltas` keeps the last round's per-client deltas, keyed by its
    participants, which is what the non-self gradient is built from;
    `prev_global_delta` is the change actually applied to the global
    parameters in the last aggregation. `velocity` is FedAvgM's server
    momentum and `control` SCAFFOLD's server control variate c; each is
    None under every other algorithm.
    """

    global_params: np.ndarray
    eta_g: float = 1.0
    round: int = 0
    prev_deltas: dict[int, np.ndarray] = field(default_factory=dict)
    prev_global_delta: np.ndarray | None = None
    global_prototypes: np.ndarray | None = None
    velocity: np.ndarray | None = None
    control: np.ndarray | None = None

    @property
    def prev_selected(self) -> tuple[int, ...]:
        """The last round's participants, ascending."""
        return tuple(sorted(self.prev_deltas))


@dataclass
class ClientState:
    """Per-client persistent state across rounds; `control` is SCAFFOLD's
    c_k, which the client's own trainer updates."""

    id: int
    shard: np.ndarray
    data_rng: np.random.Generator
    surrogate_rng: np.random.Generator
    control: np.ndarray | None = None


@dataclass
class CommMeter:
    """Download/upload volume summed over rounds, in abstract parameter units.

    One model is M units and one prototype matrix is C*embed_dim units;
    a bytes view multiplies by 8 (float64).
    """

    total_down: float = 0.0
    total_up: float = 0.0

    def record(self, down: float, up: float) -> None:
        self.total_down += float(down)
        self.total_up += float(up)


def sample_clients(num_clients: int, rate: float, rng: np.random.Generator,
                   min_size: int = 1) -> list[int]:
    """Uniform sample without replacement of round(rate*K) clients.

    `min_size` enforces the caller's floor; path rectification needs at
    least two participants per round to have a non-self signal.
    """
    if not 0 < rate <= 1:
        raise ProtocolError(f"sampling rate must be in (0, 1], got {rate}")
    size = int(round(rate * num_clients))
    size = max(size, 1)
    if size < min_size:
        raise ProtocolError(
            f"round(rate*K) = {size} participants, but at least {min_size} required")
    picked = rng.choice(num_clients, size=size, replace=False)
    return sorted(int(k) for k in picked)


def aggregate(server: ServerState, deltas: dict[int, np.ndarray]) -> np.ndarray:
    """Apply theta <- theta + eta_g * mean(deltas), summing in ascending
    client-id order, and roll the prev_* bookkeeping forward."""
    for k in sorted(deltas):
        if deltas[k].shape != server.global_params.shape:
            raise ProtocolError(f"delta from client {k} has wrong length")
    apply_global_delta(server, deltas, server.eta_g * mean_delta(deltas))
    return server.global_params


def ordered_sum(values: dict[int, np.ndarray]) -> np.ndarray:
    """Sum of the per-client arrays in ascending client-id order, whatever
    order the map was filled in: the protocol's one reduction."""
    order = sorted(values)
    total = np.zeros(np.shape(values[order[0]]))
    for k in order:
        total += values[k]
    return total


def mean_delta(deltas: dict[int, np.ndarray]) -> np.ndarray:
    """Mean of the deltas, summed in ascending client-id order."""
    if not deltas:
        raise ProtocolError("cannot aggregate an empty delta map")
    return ordered_sum(deltas) / len(deltas)


def apply_global_delta(server: ServerState, deltas: dict[int, np.ndarray],
                       applied: np.ndarray) -> None:
    """theta <- theta + applied, rolling the prev_* bookkeeping forward to
    the clients whose `deltas` produced it."""
    server.global_params = server.global_params + applied
    server.prev_deltas = {k: deltas[k] for k in sorted(deltas)}
    server.prev_global_delta = applied
    server.round += 1


def non_self_gradient(server: ServerState, client_id: int, eta_g: float,
                      eta_l: float) -> np.ndarray:
    """Non-self gradient for one client from the previous round's deltas:

        delta_i = -eta_g * eta_l * mean_{k in prev_selected \\ {i}} Delta_k
    """
    others = [k for k in server.prev_selected if k != client_id]
    if not others:
        raise ProtocolError(
            f"no non-self deltas available for client {client_id}")
    return -eta_g * eta_l * mean_delta({k: server.prev_deltas[k] for k in others})


def non_self_gradient_cf(server: ServerState, client_id: int, eta_g: float) -> np.ndarray:
    """Communication-friendly variant, which the client builds from the
    change between two consecutive global models less its own share of it:

        delta_i = prev_global_delta - eta_g * Delta_i / |S_{t-1}|

    or a copy of the whole change when the client sat out the last round.
    The sign convention differs from `non_self_gradient` (no leading
    minus): the two variants are antiparallel.
    """
    if server.prev_global_delta is None:
        raise ProtocolError(f"no global change yet for client {client_id}")
    if client_id not in server.prev_deltas:
        return server.prev_global_delta.copy()
    own = eta_g * server.prev_deltas[client_id] / len(server.prev_deltas)
    return server.prev_global_delta - own


def upload_prototypes(server: ServerState, client_id: int,
                      prototypes: np.ndarray) -> np.ndarray:
    """One client's prototype matrix, checked against the global shape."""
    prototypes = np.asarray(prototypes, dtype=np.float64)
    if server.global_prototypes is not None and \
            prototypes.shape != server.global_prototypes.shape:
        raise ProtocolError(f"prototype upload from client {client_id} has shape "
                            f"{prototypes.shape}, expected "
                            f"{server.global_prototypes.shape}")
    return prototypes


def aggregate_prototypes(server: ServerState, uploads: dict[int, np.ndarray]) -> np.ndarray:
    """The round's global prototypes: the mean of the uploaded matrices,
    summed in ascending client id, which the server keeps and broadcasts."""
    if not uploads:
        raise ProtocolError("no prototype uploads")
    order = sorted(uploads)
    shape = uploads[order[0]].shape
    for k in order:
        if uploads[k].shape != shape:
            raise ProtocolError(f"prototype upload from client {k} has shape "
                                f"{uploads[k].shape}, expected {shape}")
    server.global_prototypes = ordered_sum(uploads) / len(uploads)
    return server.global_prototypes


def meter_round(meter: CommMeter, algo: str, num_params: int, num_classes: int,
                embed_dim: int) -> tuple[float, float]:
    """Per-round per-client units for one algorithm: its record's models
    times M = num_params plus prototype matrices times P = num_classes*embed_dim."""
    if num_params <= 0 or num_classes <= 0 or embed_dim <= 0:
        raise ProtocolError("counts must be positive")
    if algo not in ALGORITHMS:
        raise ProtocolError(f"unknown algorithm tag: {algo!r}")
    m, p = float(num_params), float(num_classes * embed_dim)
    rule = ALGORITHMS[algo]
    down, up = (models * m + prototypes * p for models, prototypes in (rule.down, rule.up))
    meter.record(down, up)
    return down, up
