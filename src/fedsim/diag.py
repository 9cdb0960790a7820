"""Self-contained diagnostic suites exposed by the `diag` subcommand:
gradient checking over the composite objective, the closed-form quadratic
rectification oracle, the empirical transport-bound monitor, and the
communication audit.

Each suite returns a report dict with a boolean ``passed`` plus the
measured quantities, so callers can print or assert on them.
"""
from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np

from . import algorithms as alg
from . import data as dat
from . import nn
from . import protocol as proto
from . import runner


def _toy_setup(seed: int = 0):
    """Tiny 2-class instance: model, local batch, surrogate batch, protos."""
    rng = np.random.default_rng(seed)
    model = nn.init_mlp(input_dim=4, hidden=(6, 5), num_classes=2, rng=rng)
    x_local = rng.standard_normal((6, 4))
    y_local = np.array([0, 1, 0, 1, 1, 0])
    x_surr = rng.standard_normal((8, 4))
    y_surr = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    protos = rng.standard_normal((2, model.embed_dim))
    return model, (x_local, y_local), (x_surr, y_surr), protos


def grad_check_report(tolerance: float = 1e-4, epsilon: float = 1e-5,
                      num_coords: int = 64, seed: int = 0) -> dict:
    """Finite-difference validation of the composite objective's gradient
    at every (lambda1, lambda2) combination in {0, 0.1}^2."""
    model, local, surr, protos = _toy_setup(seed)
    combos = {}
    for lam1 in (0.0, 0.1):
        for lam2 in (0.0, 0.1):
            hyper = alg.FedGpsHyper(lambda1=lam1, lambda2=lam2, lambda3=1e-4,
                                    surrogate_ce=1.0)

            def loss_fn(m, batch):
                return alg.fedgps_loss_and_grad(m, batch[0], batch[1], batch[2], hyper)

            err = nn.finite_diff_check(model, (local, surr, protos), loss_fn,
                                       epsilon=epsilon, num_coords=num_coords,
                                       rng=np.random.default_rng(seed + 1))
            combos[f"lambda1={lam1},lambda2={lam2}"] = err
    worst = float(np.max(list(combos.values())))  # NaN, and so a failure, if any is NaN
    return {"passed": worst < tolerance, "max_rel_error": worst,
            "tolerance": tolerance, "combos": combos}


@np.errstate(over="ignore", invalid="ignore")
def quadratic_oracle_report(dim: int = 5, num_functions: int = 4,
                            lambda_g: float = 0.5, seed: int = 0,
                            tolerance: float = 1e-10) -> dict:
    """Closed-form rectification check on quadratics with a shared
    positive-definite Hessian H.

    With f_k(theta) = 0.5 (theta - a_k)' H (theta - a_k), a global average
    F, and the unnormalized direction delta_k = grad F - grad f_k, the
    gradient at the shifted point satisfies exactly

        g_new - grad F = (I - lambda_g H) (grad f_k - grad F),

    and the deviation shrinks whenever ||I - lambda_g H||_2 < 1. H is
    symmetric, so that norm is max |1 - lambda_g * eig| over the drawn
    eigenvalues. A non-finite measured value, a non-finite `lambda_g`
    included, fails the suite, without numpy warnings.
    """
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = rng.uniform(0.2, 1.5, size=dim)
    hess = basis @ np.diag(eigs) @ basis.T
    anchors = rng.standard_normal((num_functions, dim))
    theta = rng.standard_normal(dim)

    grad_f = [hess @ (theta - a) for a in anchors]
    grad_global = hess @ (theta - anchors.mean(axis=0))
    contraction = float(np.max(np.abs(1.0 - lambda_g * eigs)))

    all_contract = True
    rows = []
    for k in range(num_functions):
        delta = grad_global - grad_f[k]
        g_new = hess @ (theta + lambda_g * delta - anchors[k])
        lhs = g_new - grad_global
        rhs = (np.eye(dim) - lambda_g * hess) @ (grad_f[k] - grad_global)
        err = float(np.max(np.abs(lhs - rhs)))
        d0 = float(np.linalg.norm(grad_f[k] - grad_global))
        d_new = float(np.linalg.norm(lhs))
        if contraction < 1 and d0 > 0 and not d_new < d0:
            all_contract = False
        rows.append({"client": k, "identity_err": err, "d0": d0, "d_new": d_new})
    measured = [contraction] + [[r["identity_err"], r["d0"], r["d_new"]] for r in rows]
    max_identity_err = float(np.max([r["identity_err"] for r in rows], initial=0.0))
    return {"passed": bool(np.isfinite(np.hstack(measured)).all())
            and max_identity_err <= tolerance and all_contract,
            "max_identity_err": max_identity_err, "tolerance": tolerance,
            "contraction_norm": contraction, "rows": rows}


TRIANGLE_SIDES = ("triangle_lhs", "triangle_rhs", "triangle_kappa")


def triangle_report(rounds: int = 10, seed: int = 0) -> dict:
    """Run a small federation and report the transport-bound monitor at
    every divergence-logging round. Bound violations are reported, not
    failures: the bound is an upper bound under assumptions and serves as
    a sanity monitor; the suite fails only if nothing could be measured
    or a non-finite value appeared."""
    with tempfile.TemporaryDirectory() as tmp:
        config = runner.ExperimentConfig(
            num_classes=4, input_dim=6, n_per_class=60, rounds=rounds,
            num_clients=4, sample_rate=0.5, alpha=0.5,
            scenario_seeds=(seed,), training_seeds=(seed,),
            algo="fedgps", hidden=(16, 8), surrogate_n_per_class=32,
            divergence_cadence=2, out_dir=tmp)
        result = runner.run_one(config, seed, seed)
        records = []
        with open(Path(result.run_dir) / "rounds.jsonl") as fh:
            for line in fh:
                records.append(json.loads(line))
    # rounds.jsonl writes a non-finite side as null: read it back as NaN
    checks = [{"round": r["round"], **{k: np.nan if r[k] is None else r[k] for k in TRIANGLE_SIDES},
               "triangle_holds": r["triangle_holds"]} for r in records if "triangle_lhs" in r]
    finite = all(np.isfinite([c["triangle_lhs"], c["triangle_rhs"]]).all() for c in checks)
    violations = [c["round"] for c in checks if not c["triangle_holds"]]
    return {"passed": bool(checks) and finite and not result.diverged,
            "num_checks": len(checks), "violations": violations, "checks": checks}


COMM_CASES = [(1000, 10, 512), (3498, 10, 32), (25000, 100, 512)]


def comm_audit_report(cases=None) -> dict:
    """Exercise the per-client communication meter against the expected
    closed forms for every algorithm tag."""
    cases = cases or COMM_CASES
    rows = []
    ok = True
    for m, c, d in cases:
        p = c * d
        expected = {
            "fedavg": (m, m),
            "fedavgm": (m, m),
            "fedprox": (m, m),
            "scaffold": (2 * m, 2 * m),
            "fedgps": (2 * m + p, m + p),
            "fedgps_cf": (m + p, m + p),
        }
        for algo, (exp_down, exp_up) in expected.items():
            meter = proto.CommMeter()
            down, up = proto.meter_round(meter, algo, m, c, d)
            match = (down == exp_down) and (up == exp_up)
            ok = ok and match
            rows.append({"algo": algo, "M": m, "C": c, "embed_dim": d,
                         "down": down, "up": up, "match": match})
    return {"passed": ok, "rows": rows}


def format_report(name: str, report: dict) -> str:
    lines = [f"[{'PASS' if report['passed'] else 'FAIL'}] {name}"]
    if name == "grad-check":
        for combo, err in report["combos"].items():
            lines.append(f"  {combo}: max rel error {err:.3e} "
                         f"(tolerance {report['tolerance']:.0e})")
    elif name == "quadratic-oracle":
        lines.append(f"  ||I - lambda_g*H||_2 = {report['contraction_norm']:.4f}")
        for row in report["rows"]:
            lines.append(f"  client {row['client']}: identity err {row['identity_err']:.3e}, "
                         f"deviation {row['d0']:.4f} -> {row['d_new']:.4f}")
    elif name == "triangle":
        lines.append(f"  {report['num_checks']} checks, "
                     f"{len(report['violations'])} bound violations "
                     f"(violations are monitored, not fatal)")
        for c in report["checks"]:
            mark = "ok " if c["triangle_holds"] else "VIOL"
            lines.append(f"  round {c['round']:>4} [{mark}] lhs={c['triangle_lhs']:.4f} "
                         f"rhs={c['triangle_rhs']:.4f} kappa={c['triangle_kappa']:.4f}")
    elif name == "comm-audit":
        for row in report["rows"]:
            mark = "ok " if row["match"] else "FAIL"
            lines.append(f"  [{mark}] {row['algo']:<10} M={row['M']:<6} C={row['C']:<4} "
                         f"d={row['embed_dim']:<4} down={row['down']:.0f} up={row['up']:.0f}")
    return "\n".join(lines)
