#!/usr/bin/env python
# One federated round by hand: client sampling, delta aggregation, the
# two non-self-gradient constructions and their sign relation, prototype
# aggregation, and each algorithm's record with its communication meter.
import numpy as np

from fedsim import protocol as proto

rng = np.random.default_rng(0)
DIM = 8

server = proto.ServerState(global_params=np.zeros(DIM), eta_g=1.0)

selected = proto.sample_clients(10, rate=0.5, rng=rng)
print(f"sampled clients (rate 50% of 10): {selected}")

deltas = {k: rng.standard_normal(DIM) * 0.1 for k in selected}
proto.aggregate(server, deltas)
print(f"after aggregation: round={server.round}, "
      f"|global delta|={np.linalg.norm(server.prev_global_delta):.4f}")

# the server-side non-self gradient excludes the querying client
i = selected[0]
nsg = proto.non_self_gradient(server, i, eta_g=1.0, eta_l=0.01)
print(f"\nclient {i}: non-self gradient norm {np.linalg.norm(nsg):.5f}")
outsider = proto.non_self_gradient(server, 99, eta_g=1.0, eta_l=0.01)
print(f"client 99 (not selected last round) gets the full mean, "
      f"norm {np.linalg.norm(outsider):.5f}")

# the communication-friendly variant rebuilds the same direction from the
# change between consecutive global models less the client's own share,
# eta_g * delta_i / |S|; the two constructions are antiparallel
cf = proto.non_self_gradient_cf(server, i, server.eta_g)
cos = (nsg @ cf) / (np.linalg.norm(nsg) * np.linalg.norm(cf))
print(f"cosine(server-side, comm-friendly) = {cos:+.6f}  "
      f"(the definitions differ by a leading sign)")

# prototype aggregation is an element-wise mean in client-id order
uploads = {k: rng.standard_normal((4, 6)) for k in selected}
agg = proto.aggregate_prototypes(server, uploads)
print(f"\nglobal prototypes shape {agg.shape} from {len(uploads)} uploads")

# each algorithm's record: per-client communication units per round, one
# model = M units and one prototype block = C*embed_dim units, and whether
# its local steps are rectified (so a round needs two participants)
print("\nper-client communication (M=1000, C=10, embed_dim=512):")
for algo, rule in proto.ALGORITHMS.items():
    meter = proto.CommMeter()
    down, up = proto.meter_round(meter, algo, 1000, 10, 512)
    print(f"  {algo:<10} down {down:6.0f}  up {up:6.0f}"
          f"{'  rectified' if rule.rectified else ''}")
