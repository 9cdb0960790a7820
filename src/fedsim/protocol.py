"""Server-side round machinery: client sampling, delta aggregation,
non-self-gradient material, prototype aggregation, and communication
accounting.

The canonical aggregation order is ascending client id, single-threaded;
that ordered reduction is the bit-exactness contract even though client
training itself may run in any order.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class ProtocolError(Exception):
    """State or configuration violations in the round loop."""


@dataclass
class ServerState:
    """Global model plus the previous round's bookkeeping.

    `prev_deltas` keeps the last round's per-client deltas (keys ==
    `prev_selected`), which is what the non-self gradient is built from;
    `prev_global_delta` is the change actually applied to the global
    parameters in the last aggregation.
    """

    global_params: np.ndarray
    eta_g: float = 1.0
    round: int = 0
    prev_selected: tuple[int, ...] = ()
    prev_deltas: dict[int, np.ndarray] = field(default_factory=dict)
    prev_global_delta: np.ndarray | None = None
    global_prototypes: np.ndarray | None = None
    pending_prototypes: dict[int, np.ndarray] = field(default_factory=dict)

    def check_invariants(self) -> None:
        if set(self.prev_deltas) != set(self.prev_selected):
            raise ProtocolError("prev_deltas keys must equal prev_selected")
        if self.prev_global_delta is not None and self.prev_deltas:
            total = np.zeros_like(self.global_params)
            for k in sorted(self.prev_deltas):
                total += self.prev_deltas[k]
            expected = self.eta_g * (total / len(self.prev_deltas))
            if not np.array_equal(expected, self.prev_global_delta):
                raise ProtocolError(
                    "prev_global_delta != eta_g * mean(prev_deltas)")


@dataclass
class ClientState:
    """Per-client persistent state across rounds."""

    id: int
    shard: np.ndarray
    data_rng: np.random.Generator
    surrogate_rng: np.random.Generator
    last_delta: np.ndarray | None = None

    def __post_init__(self):
        self.shard = np.asarray(self.shard, dtype=np.int64)


@dataclass
class CommMeter:
    """Per-round download/upload volume in abstract parameter units.

    One model is M units and one prototype matrix is C*embed_dim units;
    a bytes view multiplies by 8 (float64).
    """

    rounds: list[tuple[float, float]] = field(default_factory=list)

    def record(self, down: float, up: float) -> None:
        self.rounds.append((float(down), float(up)))

    @property
    def total_down(self) -> float:
        return float(sum(d for d, _ in self.rounds))

    @property
    def total_up(self) -> float:
        return float(sum(u for _, u in self.rounds))


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
    server.check_invariants()
    return server.global_params


def mean_delta(deltas: dict[int, np.ndarray]) -> np.ndarray:
    """Mean of the deltas, summed in ascending client-id order."""
    if not deltas:
        raise ProtocolError("cannot aggregate an empty delta map")
    order = sorted(deltas)
    total = np.zeros_like(deltas[order[0]])
    for k in order:
        total += deltas[k]
    return total / len(order)


def apply_global_delta(server: ServerState, deltas: dict[int, np.ndarray],
                       applied: np.ndarray) -> None:
    """theta <- theta + applied, rolling the prev_* bookkeeping forward to
    the clients whose `deltas` produced it."""
    order = sorted(deltas)
    server.global_params = server.global_params + applied
    server.prev_selected = tuple(order)
    server.prev_deltas = {k: deltas[k] for k in order}
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


def non_self_gradient_cf(global_delta: np.ndarray,
                         own_last_delta: np.ndarray | None,
                         selected_last_round: bool) -> np.ndarray:
    """Communication-friendly client-side variant built from the change
    between two consecutive global models.

    Returns global_delta minus the client's own contribution if it took
    part last round, else global_delta as-is. Note the sign convention
    differs from `non_self_gradient` (no leading minus); with two
    participants the two variants are antiparallel.
    """
    if selected_last_round:
        if own_last_delta is None:
            raise ProtocolError(
                "client marked as selected last round but has no cached delta")
        return global_delta - own_last_delta
    return global_delta.copy()


def upload_prototypes(server: ServerState, client_id: int,
                      prototypes: np.ndarray) -> None:
    """Stage one client's prototype matrix for the next aggregation."""
    prototypes = np.asarray(prototypes, dtype=np.float64)
    if server.global_prototypes is not None and \
            prototypes.shape != server.global_prototypes.shape:
        raise ProtocolError(f"prototype upload from client {client_id} has shape "
                            f"{prototypes.shape}, expected "
                            f"{server.global_prototypes.shape}")
    server.pending_prototypes[client_id] = prototypes


def aggregate_prototypes(server: ServerState,
                         uploads: dict[int, np.ndarray] | None = None,
                         mode: str = "mean") -> np.ndarray:
    """Combine uploaded prototype matrices element-wise in client-id order.

    Consumes the staged `upload_prototypes` material when `uploads` is not
    given. `mode="mean"` is the default; `"sum"` preserves the
    unnormalized variant, whose magnitude grows with the number of
    uploaders.
    """
    if uploads is None:
        uploads, server.pending_prototypes = server.pending_prototypes, {}
    if not uploads:
        raise ProtocolError("no prototype uploads")
    order = sorted(uploads)
    shape = uploads[order[0]].shape
    for k in order:
        if uploads[k].shape != shape:
            raise ProtocolError(f"prototype upload from client {k} has shape "
                                f"{uploads[k].shape}, expected {shape}")
    total = np.zeros(shape)
    for k in order:
        total += uploads[k]
    if mode == "mean":
        total /= len(order)
    elif mode != "sum":
        raise ProtocolError(f"unknown prototype aggregation mode: {mode!r}")
    server.global_prototypes = total
    return total


def meter_round(meter: CommMeter, algo: str, num_params: int, num_classes: int,
                embed_dim: int) -> tuple[float, float]:
    """Per-round per-client communication units for one algorithm.

    Model size M = num_params, prototype block P = num_classes*embed_dim:

        fedavg / fedavgm / fedprox : down M,      up M
        scaffold                   : down 2M,     up 2M   (control variates)
        fedgps                     : down 2M + P, up M + P
        fedgps_cf                  : down M + P,  up M + P
    """
    if num_params <= 0 or num_classes <= 0 or embed_dim <= 0:
        raise ProtocolError("counts must be positive")
    m = float(num_params)
    p = float(num_classes * embed_dim)
    table = {
        "fedavg": (m, m),
        "fedavgm": (m, m),
        "fedprox": (m, m),
        "scaffold": (2 * m, 2 * m),
        "fedgps": (2 * m + p, m + p),
        "fedgps_cf": (m + p, m + p),
    }
    if algo not in table:
        raise ProtocolError(f"unknown algorithm tag: {algo!r}")
    down, up = table[algo]
    meter.record(down, up)
    return down, up
