"""Command-line front end: load JSON objects, run the decision
procedures, print a report carrying the verdict and its certificate.
Handlers return plain values, and `main` renders each report once
with `serialize`, the one module that knows the JSON form, in both
directions: it also reads every input file.

Exit codes: 0 when the verdict is true, 1 when false, 2 on bad input
(bad JSON, a field of the wrong JSON type, schema mismatches, inexact
numbers in exact objects, violated preconditions), 3 on an internal
error such as a failed self-check.
Reports go to stdout and are byte-identical for fixed inputs and
--seed; timing and errors go to stderr.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
import traceback

from . import linalg as la
from . import serialize as sz
from .exact import HAVE_GMPY2, R0, nonneg, rat
from .measurements import id_degree, is_compatible
from .polysimplex import PolySimplex
from .witnesses import (is_etb, is_witness, maximal_incompatibility_certificate,
                        q_value, square_extremality, trace_pairing,
                        two_outcome_witness_criterion)
from .steering import (is_separable, self_dual_state, square_self_dual_iso,
                       steering_degree, steering_degree_at)
from .bell import (all_chsh_witnesses, bell_id_bound_check, bell_value,
                   chsh_witness, correlator, is_local,
                   square_equality_construction)
from .channels import (box_to_causal_channel, retraction_R, section_S,
                       stochastic_from_point)
from .demo import run_all
from .qubit import (QubitEffect, joint_povm_feasible, mub_pair,
                    qubit_bound_report, qubit_id, tsirelson_box, witness_q)


class CliError(Exception):
    """Reported on stderr with exit code 2."""


class Loader:
    """Tracks input files and their digests for the report."""

    def __init__(self):
        self.digests = {}

    def json(self, path):
        if path is None:
            raise CliError("an input file option is missing; see --help")
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as e:
            raise CliError(str(e)) from None
        self.digests[path] = hashlib.sha256(raw).hexdigest()[:16]
        try:
            return json.loads(raw)
        except json.JSONDecodeError as e:
            raise CliError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None

    def space(self, ref):
        """A builtin label, or a path to a space JSON file."""
        if ref is None:
            return None
        try:
            return sz.builtin_space(ref)
        except ValueError:
            return sz.space_from_json(self.json(ref))

    def measurement(self, path, space=None):
        return sz.measurement_from_json(self.json(path), space=space)

    def witness(self, path, space=None):
        return sz.witness_from_json(self.json(path), space=space)

    def assemblage(self, path, space=None):
        return sz.assemblage_from_json(self.json(path), space=space)

    def box(self, path):
        return sz.box_from_json(self.json(path))

    def channel(self, path):
        return sz.channel_from_json(self.json(path))


def _point_arg(value, shape: PolySimplex):
    """--at: 'barycenter' or comma-separated ambient coordinates."""
    if value is None or value == "barycenter":
        return shape.barycenter()
    coords = tuple(rat(t.strip()) for t in value.split(","))
    if len(coords) != shape.ambient_dim:
        raise CliError(f"--at needs {shape.ambient_dim} coordinates")
    return coords


def _effect_arg(value):
    """--a/--b: 'alpha,x,y,z' floats."""
    parts = [float(t) for t in value.split(",")]
    if len(parts) != 4:
        raise CliError("effect needs four values: alpha,x,y,z")
    return QubitEffect(parts[0], tuple(parts[1:]))


# -- subcommand handlers: each returns (verdict, result, certificate, mode) --

def _cmd_space(args, load: Loader):
    space = load.space(args.space)
    if space is None:
        raise CliError("--space is required")
    checks = {
        "vertices_are_states": all(space.is_state(v) for v in space.vertices),
        "facets_nonnegative_on_vertices": all(
            sum(a * b for a, b in zip(f, v)) >= 0
            for f in space.facets for v in space.vertices),
        "unit_is_one_on_vertices": all(
            sum(a * b for a, b in zip(space.unit, v)) == 1 for v in space.vertices),
    }
    result = {
        "label": space.label,
        "ambient_dim": space.dim,
        "rank": space.rank,
        "n_vertices": len(space.vertices),
        "n_facets": len(space.facets),
    }
    if args.action == "info":
        result["vertices"] = space.vertices
        return True, result, checks, "exact"
    return all(checks.values()), result, checks, "exact"


def _cmd_compat(args, load: Loader):
    F = load.measurement(args.meas, space=load.space(args.space))
    compatible, found = is_compatible(F)
    if compatible:
        cert = {"joint": found.weights}
    else:
        cert = {"witness": found, "trace": trace_pairing(F, found)}
    return compatible, {"compatible": compatible}, cert, "exact"


def _cmd_id(args, load: Loader):
    F = load.measurement(args.meas, space=load.space(args.space))
    if args.search:
        rep = id_degree(F)
        W, trace = rep.witness, rep.q
        result = {"id": rep.value, "at": rep.s, "evaluations": rep.evaluations}
    else:
        s = _point_arg(args.at, F.shape)
        q, W, lam = q_value(F, s)
        trace = trace_pairing(F, W)
        result = {"id": lam, "at": s, "q": q}
    cert = {"witness": W, "trace": trace}
    return True, result, cert, "exact"


def _cmd_witness(args, load: Loader):
    if args.action == "maximal":
        F = load.measurement(args.meas, space=load.space(args.space))
        rep = maximal_incompatibility_certificate(F)
        cert = {"value": rep.value}
        if rep.witness is not None:
            cert["witness"] = rep.witness
            cert["orthogonal"] = rep.orthogonal
        return rep.maximal, {"maximal": rep.maximal}, cert, "exact"
    W = load.witness(args.witness, space=load.space(args.space))
    if args.action == "test":
        d = is_witness(W)
        cert = {"min_trace": d.min_value}
        if d.is_witness:
            cert["violating_collection"] = d.minimizer
        else:
            cert["translation"] = d.translation
            cert["translated_factorization"] = d.translated_etb.psi
        return d.is_witness, {"is_witness": d.is_witness}, cert, "exact"
    if args.action == "etb":
        etb, found = is_etb(W)
        if etb:
            cert = {"factorization": found.psi}
        else:
            cert = {"refutation": found.phi, "pairing": found.pairing(W)}
        return etb, {"is_etb": etb}, cert, "exact"
    if args.action == "extremal":
        ext = square_extremality(W)
        tight = {n: [fi for fi, f in enumerate(W.space.facets)
                     if sum(a * b for a, b in zip(f, img)) == 0]
                 for n, img in W.vertex_images.items()}
        cert = {"two_outcome_criterion": two_outcome_witness_criterion(W),
                "tight_facets": tight}
        return ext, {"extremal": ext}, cert, "exact"
    raise CliError(f"unknown witness action {args.action!r}")


def _functional_cert(mu, tensor):
    """The certificate of a "false" locality or separability verdict: the
    separating functional μ's ambient matrix, already checked ≥ 0 on
    every product of vertices, and its pairing ⟨μ, T⟩ < 0 with the box
    or assemblage tensor T."""
    return {"functional": mu.tensor, "pairing": mu.pair_tensor(tensor)}


def _nonzero_weights(model):
    """{(n, t): w} over the nonzero vertex weights of a
    `ProductDecomposition`: t indexes the vertices of its right factor."""
    return {(n, t): w for n, ws in model.weights.items() for t, w in enumerate(ws) if w}


def _hidden_state_model(model, x):
    """A hidden-state model as weights q(n) = Σ_t w_{n,t} = ⟨1_K, α_n⟩
    (K's vertices have unit value 1) and states α_n/q(n), or the
    average x where q(n) = 0."""
    weights, states = {}, {}
    for n, ws in model.weights.items():
        q = sum(ws, R0)
        weights[n] = q
        states[n] = la.combine([w / q for w in ws], model.space.vertices) if q else x
    return {"weights": weights, "states": states}


def _cmd_steer(args, load: Loader):
    beta = load.assemblage(args.assemblage, space=load.space(args.space))
    if args.action == "separable":
        sep, found = is_separable(beta)
        if sep:
            cert = {"model": _hidden_state_model(found, beta.x)}
        else:
            cert = _functional_cert(found, beta.to_tensor())
        return sep, {"separable": sep}, cert, "exact"
    if args.search:
        rep = steering_degree(beta)
        result = {"sd": rep.value, "at": rep.s, "evaluations": rep.evaluations}
        sd = rep.value
    else:
        s = _point_arg(args.at, beta.shape)
        sd = steering_degree_at(beta, s)
        result = {"sd": sd, "at": s}
    cert = {"separable": sd == 0}
    return True, result, cert, "exact"


def _cmd_bell(args, load: Loader):
    if args.action == "bound":
        F_A = load.measurement(args.meas_a, space=load.space(args.space))
        if args.equality:
            eq = square_equality_construction(F_A)
            result = {"lhs": eq.lhs, "q": eq.q, "holds": eq.holds,
                      "self_dual_route": eq.self_dual_route}
            cert = {"partner_collection": eq.f_b, "witness": eq.witness}
            return eq.holds, result, cert, "exact"
        F_B = load.measurement(args.meas_b, space=load.space(args.space))
        i, j, k = (int(t) for t in args.idx.split(","))
        mu = chsh_witness(i, j, k)
        if args.y_box:
            y = load.box(args.y_box).tensor()
        else:
            y = self_dual_state(F_A.space, square_self_dual_iso())
        s = _point_arg(args.at, F_A.shape)
        rep = bell_id_bound_check(mu, F_A, F_B, y, s)
        result = {"lhs": rep.lhs, "rhs": rep.rhs, "holds": rep.holds}
        cert = {"q": rep.q, "norm_max": rep.norm_max,
                "equality_value": rep.equality_value,
                "equality_holds": rep.equality_holds}
        return rep.holds, result, cert, "exact"
    box = load.box(args.box)
    if args.action == "check":
        local, found = is_local(box)
        if local:
            # S_B's vertices are stored in outcome order
            outs_b = box.shape_b.outcome_list()
            cert = {"lhv_weights": {(na, outs_b[t]): w
                                    for (na, t), w in _nonzero_weights(found).items()}}
        else:
            cert = _functional_cert(found, box.tensor())
        return local, {"local": local}, cert, box.mode
    if args.action == "chsh":
        b = bell_value(box)
        pair = chsh_witness(0, 1, 0).value(box)
        corr = {(x, yb): correlator(box, x, yb) for x in (0, 1) for yb in (0, 1)}
        wvals = {w.idx: w.value(box) for w in all_chsh_witnesses()}
        local_bound = nonneg(2 - b)
        result = {"bell": b, "pairing_010": pair,
                  "correlators": corr, "local_bound_satisfied": local_bound}
        return local_bound, result, {"witness_values": wvals}, box.mode
    raise CliError(f"unknown bell action {args.action!r}")


def _cmd_box(args, load: Loader):
    box = load.box(args.box)
    rep = box_to_causal_channel(box)
    ok = rep.psd and rep.trace_preserving and rep.causal
    # box_to_causal_channel raises unless the channel recovers the box
    result = {"channel": rep.choi,
              "psd": rep.psd, "trace_preserving": rep.trace_preserving,
              "causal": rep.causal, "recovered_exactly": True}
    cert = {"recovered_box": rep.recovered}
    if box.mode == "exact":
        local, found = is_local(box)
        if local:
            cert["local_decomposition_terms"] = len(_nonzero_weights(found))
    return ok, result, cert, box.mode


def _cmd_channel(args, load: Loader):
    if args.action == "retract":
        phi = load.channel(args.channel)
        shape = PolySimplex(tuple(int(t) for t in args.shape.split(","))) \
            if args.shape else None
        s = retraction_R(phi, shape)
        used = shape if shape is not None else PolySimplex(
            (phi.d_ap - 1,) * phi.d_a)
        T = stochastic_from_point(used, s)
        back = section_S(used, s)
        round_trip = retraction_R(back, used) == s
        result = {"point": s, "stochastic_rows": T.rows}
        mode = "exact" if phi.exact else "float"
        return True, result, {"section_round_trip": round_trip}, mode
    if args.action == "section":
        shape = PolySimplex(tuple(int(t) for t in args.shape.split(",")))
        s = _point_arg(args.at, shape)
        phi = section_S(shape, s)
        round_trip = retraction_R(phi, shape) == tuple(s)
        result = {"channel": phi}
        mode = "exact" if phi.exact else "float"
        return round_trip, result, {"retracts_back": round_trip}, mode
    raise CliError(f"unknown channel action {args.action!r}")


def _cmd_qubit(args, load: Loader):
    if args.action == "tsirelson":
        box = tsirelson_box()
        b = bell_value(box)
        rep = qubit_bound_report()
        ok = abs(b - 2.0 * math.sqrt(2.0)) <= 1e-9
        result = {"bell": b, "box": box}
        cert = {"bound_lhs": rep.lhs, "bound_rhs": rep.rhs,
                "q_hat": rep.q_hat, "equality_gap": rep.equality_gap}
        return ok, result, cert, "float"
    if args.mub:
        A, B = mub_pair()
    else:
        if not (args.a and args.b):
            raise CliError("provide --a and --b effects, or --mub")
        A, B = _effect_arg(args.a), _effect_arg(args.b)
    if args.action == "feasible":
        feasible, g = joint_povm_feasible(A, B)
        cert = {}
        if feasible:
            cert["joint_effect"] = g
        else:
            w = witness_q(A, B)
            cert["q_hat"] = w.q_hat
            cert["witness_params"] = _witness_params_json(w.params)
        return feasible, {"feasible": feasible}, cert, "float"
    if args.action == "id":
        rep = qubit_id(A, B)
        result = {"id": rep.value, "q_hat": rep.q_hat,
                  "witness_params": _witness_params_json(rep.params)}
        cert = {"dual_bound": rep.dual_bound, "iterations": rep.iterations}
        return True, result, cert, "float"
    raise CliError(f"unknown qubit action {args.action!r}")


def _witness_params_json(params):
    if params is None:
        return None
    return {"r": params.r, "direction": list(params.direction),
            "u": list(params.u), "v": list(params.v)}


def _cmd_demo(args, load: Loader):
    rows = run_all(seed=args.seed)
    lines = []
    for row in rows:
        mark = "PASS" if row.ok else "FAIL"
        lines.append(f"{row.index:3d}  {mark}  {row.name}")
        lines.append(f"           {row.detail}")
    n_ok = sum(r.ok for r in rows)
    lines.append(f"{n_ok}/{len(rows)} demonstrations passed")
    print("\n".join(lines))
    for row in rows:
        print(f"  row {row.index}: {row.seconds:.2f}s", file=sys.stderr)
    return n_ok == len(rows), None, None, "mixed"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="polybox",
        description="joint measurability, witnesses, steering and Bell "
                    "analysis over polytopic state spaces")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized searches (default 0)")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("space", help="inspect or validate a state space")
    sp.add_argument("action", choices=["info", "validate"])
    sp.add_argument("--space", required=True,
                    help="JSON file or builtin label (square, cube:3, delta:2, poly:2,1)")
    sp.set_defaults(fn=_cmd_space)

    cp = sub.add_parser("compat", help="joint-measurability decision")
    cp.add_argument("action", choices=["check"])
    cp.add_argument("--meas", required=True)
    cp.add_argument("--space")
    cp.set_defaults(fn=_cmd_compat)

    ip = sub.add_parser("id", help="incompatibility degree")
    ip.add_argument("action", choices=["compute"])
    ip.add_argument("--meas", required=True)
    ip.add_argument("--space")
    ip.add_argument("--at", help="'barycenter' or ambient coordinates")
    ip.add_argument("--search", action="store_true",
                    help="minimize over interior base points (exact LP)")
    ip.set_defaults(fn=_cmd_id)

    wp = sub.add_parser("witness", help="witness decisions")
    wp.add_argument("action", choices=["test", "etb", "extremal", "maximal"])
    wp.add_argument("--witness")
    wp.add_argument("--meas")
    wp.add_argument("--space")
    wp.set_defaults(fn=_cmd_witness)

    stp = sub.add_parser("steer", help="assemblage separability and degree")
    stp.add_argument("action", choices=["separable", "sd"])
    stp.add_argument("--assemblage", required=True)
    stp.add_argument("--space")
    stp.add_argument("--at")
    stp.add_argument("--search", action="store_true",
                     help="minimize over interior base points (exact LP)")
    stp.set_defaults(fn=_cmd_steer)

    bp = sub.add_parser("bell", help="box locality, CHSH, and the witness bound")
    bp.add_argument("action", choices=["check", "chsh", "bound"])
    bp.add_argument("--box")
    bp.add_argument("--meas-a")
    bp.add_argument("--meas-b")
    bp.add_argument("--space")
    bp.add_argument("--idx", default="0,1,0", help="CHSH witness index i,j,k")
    bp.add_argument("--y-box", help="box JSON supplying the bipartite state")
    bp.add_argument("--at")
    bp.add_argument("--equality", action="store_true",
                    help="run the square equality construction instead")
    bp.set_defaults(fn=_cmd_bell)

    xp = sub.add_parser("box", help="box to channel")
    xp.add_argument("action", choices=["to-channel"])
    xp.add_argument("--box", required=True)
    xp.set_defaults(fn=_cmd_box)

    chp = sub.add_parser("channel", help="classical retraction and section")
    chp.add_argument("action", choices=["retract", "section"])
    chp.add_argument("--channel")
    chp.add_argument("--shape", help="outcome shape l_0,l_1,…")
    chp.add_argument("--at")
    chp.set_defaults(fn=_cmd_channel)

    qp = sub.add_parser("qubit", help="qubit pair analysis")
    qp.add_argument("action", choices=["id", "feasible", "tsirelson"])
    qp.add_argument("--a", help="effect alpha,x,y,z")
    qp.add_argument("--b", help="effect alpha,x,y,z")
    qp.add_argument("--mub", action="store_true",
                    help="use the sharp mutually unbiased pair")
    qp.set_defaults(fn=_cmd_qubit)

    dp = sub.add_parser("demo", help="run every demonstration row")
    dp.set_defaults(fn=_cmd_demo)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged
    and returns a fresh namespace on every call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    load = Loader()
    start = time.perf_counter()
    try:
        verdict, result, cert, mode = args.fn(args, load)
        seconds = time.perf_counter() - start
        report = None
        if result is not None or cert is not None:
            report = sz.dumps({"command": args.command + " " + getattr(args, "action", ""),
                               "inputs": load.digests,
                               "mode": mode,
                               "backend": "gmpy2" if HAVE_GMPY2 else "fractions",
                               "verdict": verdict,
                               "result": result,
                               "certificate": cert})
    except (CliError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # a crash must not read as a "false" verdict
        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    if report is not None:
        sys.stdout.write(report)
    print(f"{seconds:.3f}s", file=sys.stderr)
    return 0 if verdict else 1


if __name__ == "__main__":
    sys.exit(main())
