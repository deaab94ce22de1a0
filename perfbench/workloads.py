"""The four benchmark workloads.

A workload draws its inputs from a seeded generator, one round at a
time, and knows two things about an item: how to run it (the calls
into polybox that are timed), and how to check its outputs. Checks use
a computation made apart from the method under test (Fine's theorem,
Busch's closed form, the paper's values) or a property the method must
have; none compares against a stored output. `check` returns the list
of failed checks, empty when every check holds, so that the self-test
can feed it perturbed outputs.

Every round holds the same kinds of item in the same order; only the
random draws change from round to round and from seed to seed.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
from fractions import Fraction

from polybox import bell, channels, cli, measurements, qubit, serialize, steering, witnesses
from polybox.exact import rat
from polybox.polysimplex import PolySimplex, square_space

QUBIT_MAX = 1.0 - 1.0 / math.sqrt(2.0)


def _fr(x) -> Fraction:
    """Exact value as a stdlib Fraction, whatever the scalar backend."""
    if isinstance(x, str):
        return Fraction(x)
    return Fraction(int(x.numerator), int(x.denominator))


def id_from_q(q) -> Fraction:
    """ID_s = -q/(1-q) for q <= 0, else 0 (the paper's duality)."""
    q = _fr(q)
    return -q / (1 - q) if q < 0 else Fraction(0)


def fine_local(probs) -> bool:
    """Fine's theorem for two inputs and two outcomes per side: a
    no-signalling box is local iff all eight CHSH expressions are at
    most 2, i.e. 2 - S >= 0 for each sign pattern."""
    corr = {}
    for x, y in itertools.product((0, 1), repeat=2):
        corr[(x, y)] = sum((-1) ** (a + b) * _fr(probs[(x, y, a, b)])
                           for a, b in itertools.product((0, 1), repeat=2))
    total = sum(corr.values())
    values = []
    for xy in corr:
        s = total - 2 * corr[xy]
        values += [2 - s, 2 + s]
    return all(v >= 0 for v in values)


def busch_id(m_a, m_b) -> float:
    """ID at s = (1/2, 1/2) of two unbiased qubit effects 1/2(I + m.sigma)
    (Busch 1986): compatible iff |m_a + m_b| + |m_a - m_b| <= 2, and the
    smearing (1-l)m reaches that boundary at l = 1 - 2/(...)."""
    plus = math.dist(m_a, [-c for c in m_b])
    minus = math.dist(m_a, m_b)
    return max(0.0, 1.0 - 2.0 / (plus + minus))


def _pr_probs(alpha, beta, gamma):
    """PR-box variant a XOR b = xy XOR alpha x XOR beta y XOR gamma."""
    half = rat(1, 2)
    return {(x, y, a, b): half if (a ^ b) == ((x & y) ^ (alpha & x) ^ (beta & y) ^ gamma)
            else rat(0)
            for x, y, a, b in itertools.product((0, 1), repeat=4)}


class SquareSweep:
    """One item is one seeded instance on the gbit square: a collection F,
    a no-signalling box, and (when q < 0) a Bell pair and a witness map."""

    name = "square-sweep"
    round_size = 8

    def __init__(self, seed, workdir=None):
        self.rng = random.Random(seed)
        self.space = square_space()
        self.shape = PolySimplex((1, 1))
        self.space_b = self.shape.as_state_space()
        self.sbar = self.shape.barycenter()
        self.y_sd = steering.self_dual_state(self.space, steering.square_self_dual_iso())
        self.ident = measurements.identity_collection(self.shape)
        self.xbar = self.space.interior_point()
        self.unit_xbar = _fr(sum(a * b for a, b in zip(self.space.unit, self.xbar)))

    def _draw(self, rng):
        sq, P = self.space, self.shape
        # about a quarter compatible, so the median item is an incompatible one
        bias = rng.choice([None, rat(3, 4), rat(7, 8), rat(15, 16)])
        F = measurements.random_collection(sq, P, rng, bias=bias)
        box = bell.random_ns_box(P, P, rng)
        if rng.randrange(2):
            # mix in a PR variant so that both locality verdicts occur
            t = rat(rng.randrange(1, 4), 4)
            pr = _pr_probs(rng.randrange(2), rng.randrange(2), rng.randrange(2))
            box = bell.Box(P, P, {k: (1 - t) * v + t * pr[k] for k, v in box.probs.items()})
        idx = (rng.randrange(2), rng.randrange(2), rng.randrange(2))
        F_B = measurements.random_collection(sq, P, rng)
        y_is_box = bool(rng.randrange(2))
        scale = rat(rng.randrange(1, 9), 4)
        shift = rat(rng.choice([0, 1, 2, 4, 8]), 4)
        return dict(kind="instance", F=F, box=box, idx=idx, F_B=F_B, y_is_box=y_is_box,
                    scale=scale, shift=shift)

    def warmup(self):
        return self._draw(random.Random("square-sweep warm-up"))

    def round(self):
        return [self._draw(self.rng) for _ in range(self.round_size)]

    def run(self, item):
        F, box = item["F"], item["box"]
        compatible, _joint = measurements.is_compatible(F)
        q, W, lam = witnesses.q_value(F, self.sbar)
        tr = witnesses.trace_pairing(F, W)
        beta = steering.assemblage_from(F, self.y_sd, self.space)
        sd = steering.steering_degree_at(beta, self.sbar)
        local, _model = bell.is_local(box)
        sep, _lhs = steering.is_separable(
            steering.assemblage_from(self.ident, box.tensor(), self.space_b))
        chan = channels.box_to_causal_channel(box)
        out = dict(compatible=compatible, q=q, trace=tr, id=lam, sd=sd, local=local,
                   separable=sep, psd=chan.psd, tp=chan.trace_preserving,
                   causal=chan.causal, choi=chan.choi, dims=chan.dims)
        if q < 0:
            mu = bell.chsh_witness(*item["idx"])
            y = box.tensor() if item["y_is_box"] else self.y_sd
            rep = bell.bell_id_bound_check(mu, F, item["F_B"], y, self.sbar)
            W2 = W.scale(item["scale"])
            if item["shift"]:
                W2 = W2.translate(tuple(item["shift"] * c for c in self.xbar))
            dec = witnesses.is_witness(W2)
            crit = witnesses.two_outcome_witness_criterion(W2)
            out.update(mu=mu, bell_lhs=rep.lhs, bell_q=rep.q, bell_norm=rep.norm_max,
                       bell_holds=rep.holds, is_witness=dec.is_witness,
                       witness_min=dec.min_value, criterion=crit)
        return out

    def check(self, item, out):
        bad = []
        q = _fr(out["q"])
        lam = _fr(out["id"])
        if out["compatible"] != (q >= 0):
            bad.append("is_compatible disagrees with the sign of q")
        if _fr(out["trace"]) != q:
            bad.append("trace pairing of the returned witness differs from q")
        if lam != id_from_q(q):
            bad.append("ID_s differs from -q/(1-q)")
        if lam > Fraction(1, 2):
            bad.append("ID_s exceeds 1/2")
        if _fr(out["sd"]) != lam:
            bad.append("steering degree at the self-dual state differs from ID_s")
        box = item["box"]
        if out["local"] != fine_local(box.probs):
            bad.append("is_local disagrees with Fine's CHSH criterion")
        if out["local"] != out["separable"]:
            bad.append("is_local disagrees with is_separable")
        if not (out["psd"] and out["tp"] and out["causal"]):
            bad.append("channel is not PSD, trace preserving and causal")
        _d_a, d_b, _d_ap, d_bp = out["dims"]
        for (ia, ib, ja, jb), p in box.probs.items():
            if _fr(out["choi"].diag_entry(ja * d_bp + jb, ia * d_b + ib)) != _fr(p):
                bad.append("channel does not recover the box")
                break
        if q < 0:
            if out["is_witness"] != out["criterion"]:
                bad.append("two-outcome criterion disagrees with is_witness")
            if out["is_witness"] != (_fr(out["witness_min"]) < 0):
                bad.append("is_witness verdict disagrees with its minimum")
            # Tr F (cW + L_{t xbar}) = c q + t <1, xbar> for the drawn F
            if _fr(item["scale"]) * q + _fr(item["shift"]) * self.unit_xbar < 0 \
                    and not out["is_witness"]:
                bad.append("map with negative trace on F not found to be a witness")
            mu = out["mu"]
            norm = max(_bilinear(mu.tensor, sa, sb)
                       for sa in _vertices(mu.shape_a) for sb in _vertices(mu.shape_b))
            if _fr(out["bell_norm"]) != norm:
                bad.append("Bell witness max norm is wrong")
            if _fr(out["bell_q"]) != q:
                bad.append("Bell bound used another q")
            if not out["bell_holds"] or _fr(out["bell_lhs"]) < norm * q:
                bad.append("Bell bound violated")
        return bad


def _vertices(shape):
    return [shape.vertex(n) for n in shape.outcomes()]


def _bilinear(matrix, left, right) -> Fraction:
    """left^T M right in exact arithmetic."""
    return sum(_fr(a) * _fr(m) * _fr(b) for a, row in zip(left, matrix)
               for m, b in zip(row, right))


class HypercubeLp:
    """One item is one collection on the 3-cube or the 4-cube through
    q_value at the barycenter and is_compatible; identity collections
    also run retraction_check and maximal_incompatibility_certificate,
    and the 3-cube identity the primal cross-check."""

    name = "hypercube-lp"
    # (cube dimension, kind, bias); a round is this list in order. Unbiased
    # 3-cube draws are compatible, biased ones are not.
    ROUND = ((3, "identity", None), (3, "random", None), (3, "random", rat(1, 2)),
             (3, "random", rat(3, 4)), (4, "identity", None), (3, "random", None),
             (3, "random", rat(7, 8)), (3, "random", rat(15, 16)))

    def __init__(self, seed, workdir=None):
        self.rng = random.Random(seed)
        self.shapes = {n: PolySimplex((1,) * n) for n in (3, 4)}

    def _item(self, n, kind, bias, rng):
        P = self.shapes[n]
        if kind == "identity":
            F = measurements.identity_collection(P)
        else:
            F = measurements.random_collection(P.as_state_space(), P, rng, bias=bias)
        return dict(kind=kind, n=n, F=F)

    def warmup(self):
        return self._item(3, "identity", None, None)

    def round(self):
        return [self._item(n, kind, bias, self.rng) for n, kind, bias in self.ROUND]

    def run(self, item):
        F, n = item["F"], item["n"]
        sbar = F.shape.barycenter()
        q, W, lam = witnesses.q_value(F, sbar)
        out = dict(q=q, id=lam, trace=witnesses.trace_pairing(F, W))
        if item["kind"] == "identity":
            if n == 3:
                # is_compatible on the 4-cube identity takes minutes; see README
                out["compatible"] = measurements.is_compatible(F, want_joint=False)[0]
                out["cross_id"] = measurements.id_degree_at(F, sbar, cross_check=True)
            out["retraction"] = witnesses.retraction_check(F).is_retraction
            rep = witnesses.maximal_incompatibility_certificate(F)
            out.update(maximal=rep.maximal, maximal_value=rep.value)
        else:
            out["compatible"] = measurements.is_compatible(F, want_joint=False)[0]
        return out

    def check(self, item, out):
        bad = []
        k = item["n"] - 1
        q = _fr(out["q"])
        lam = _fr(out["id"])
        if _fr(out["trace"]) != q:
            bad.append("trace pairing of the returned witness differs from q")
        if lam != id_from_q(q):
            bad.append("ID_s differs from -q/(1-q)")
        if "compatible" in out and out["compatible"] != (q >= 0):
            bad.append("is_compatible disagrees with the sign of q")
        if item["kind"] == "identity":
            if lam != Fraction(k, k + 1) or q != -k:
                bad.append("identity collection misses ID = k/(k+1), q = -k")
            if "cross_id" in out and _fr(out["cross_id"]) != Fraction(k, k + 1):
                bad.append("primal cross-check misses k/(k+1)")
            if not out["retraction"]:
                bad.append("identity collection has no retraction")
            if not out["maximal"] or _fr(out["maximal_value"]) != -k:
                bad.append("maximal certificate value is not -k")
        elif lam > Fraction(k, k + 1):
            bad.append("ID_s exceeds k/(k+1)")
        return bad


class DegreeSearch:
    """One item is one CLI command run in-process through polybox.cli.main
    on JSON files written at set-up: `id compute --search` on a square
    collection, or `steer sd --search` on its self-dual assemblage."""

    name = "degree-search"

    def __init__(self, seed, workdir):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.space = square_space()
        self.shape = PolySimplex((1, 1))
        self.sbar = self.shape.barycenter()
        self.y_sd = steering.self_dual_state(self.space, steering.square_self_dual_iso())
        self.n_files = 0

    def _pair(self, F, identity):
        """Write F and its self-dual assemblage; return the two items."""
        self.n_files += 1
        key = self.n_files
        meas = os.path.join(self.workdir, f"meas-{key}.json")
        asm = os.path.join(self.workdir, f"asm-{key}.json")
        beta = steering.assemblage_from(F, self.y_sd, self.space)
        with open(meas, "w") as fh:
            fh.write(serialize.dumps(serialize.measurement_to_json(F)))
        with open(asm, "w") as fh:
            fh.write(serialize.dumps(serialize.assemblage_to_json(beta)))
        id_bar = witnesses.q_value(F, self.sbar)[2]
        # `values` is shared by the pair, so that each check sees the other's value
        common = dict(F=F, identity=identity, id_bar=id_bar, values={})
        return [dict(kind="id", argv=["id", "compute", "--meas", meas, "--search"], **common),
                dict(kind="sd", argv=["steer", "sd", "--assemblage", asm, "--search"], **common)]

    def warmup(self):
        return self._pair(measurements.identity_collection(self.shape), True)[0]

    def round(self):
        """The identity ID search, then both searches on a random collection."""
        # bias 15/16 keeps the cost of a search within about 10% across draws
        F = measurements.random_collection(self.space, self.shape, self.rng, bias=rat(15, 16))
        return (self._pair(measurements.identity_collection(self.shape), True)[:1]
                + self._pair(F, False))

    def run(self, item):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(item["argv"])
        return dict(code=code, report=stdout.getvalue())

    def check(self, item, out):
        bad = []
        if out["code"] != 0:
            return [f"exit code {out['code']}"]
        try:
            rep = json.loads(out["report"])
            field = "id" if item["kind"] == "id" else "sd"
            value = Fraction(rep["result"][field])
            at = tuple(rat(c) for c in rep["result"]["at"])
            evaluations = rep["result"]["evaluations"]
            want_command = "id compute" if item["kind"] == "id" else "steer sd"
            if rep["command"] != want_command or rep["verdict"] is not True:
                bad.append("report has the wrong command or verdict")
            if not isinstance(evaluations, int) or evaluations < 1:
                bad.append("report has no evaluation count")
        except (ValueError, KeyError, TypeError) as e:
            return [f"malformed report: {e!r}"]
        if item["identity"] and value != Fraction(1, 2):
            bad.append("square identity pair does not give exactly 1/2")
        if value > _fr(item["id_bar"]):
            bad.append("search value exceeds ID at the barycenter")
        if item["kind"] == "id":
            try:
                at_id = measurements.id_degree_at(item["F"], at)
            except ValueError as e:
                return bad + [f"reported point is not interior: {e}"]
            if value != _fr(at_id):
                bad.append("search value differs from id_degree_at at the reported point")
            if value != id_from_q(Fraction(rep["certificate"]["trace"])):
                bad.append("search value differs from -q/(1-q) of its certificate")
        else:
            if rep["certificate"]["separable"] != (value == 0):
                bad.append("separable flag disagrees with the degree")
        other = item["values"].get("sd" if item["kind"] == "id" else "id")
        if other is not None and other != value:
            bad.append("ID and SD searches disagree on the self-dual assemblage")
        item["values"][item["kind"]] = value
        return bad


class QubitPairs:
    """One item is one qubit_id pair: the MUB pair, or a seeded random
    pair, sharp or unsharp."""

    name = "qubit-pairs"

    def __init__(self, seed, workdir=None):
        self.rng = random.Random(seed)

    def _direction(self, rng):
        z = rng.uniform(-1.0, 1.0)
        ph = rng.uniform(0.0, 2.0 * math.pi)
        r = math.sqrt(1.0 - z * z)
        return (r * math.cos(ph), r * math.sin(ph), z)

    def _sharp(self, rng):
        m_a, m_b = self._direction(rng), self._direction(rng)
        return dict(kind="sharp", pair=(qubit.QubitEffect.sharp(m_a), qubit.QubitEffect.sharp(m_b)),
                    bloch=(m_a, m_b))

    def _unsharp(self, rng):
        return dict(kind="unsharp", pair=(qubit.random_effect(rng), qubit.random_effect(rng)))

    def warmup(self):
        return self._mub()

    def _mub(self):
        return dict(kind="mub", pair=qubit.mub_pair(), bloch=((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)))

    def round(self):
        return [self._mub(), self._sharp(self.rng), self._unsharp(self.rng)]

    def run(self, item):
        rep = qubit.qubit_id(*item["pair"])
        return dict(value=rep.value, dual=rep.dual_bound, iterations=rep.iterations)

    def check(self, item, out):
        bad = []
        value, dual = out["value"], out["dual"]
        if value > QUBIT_MAX + 1e-6:
            bad.append("ID exceeds 1 - 1/sqrt(2)")
        if dual > value + 1e-6:
            bad.append("dual bound exceeds the bisection value")
        if item["kind"] == "mub":
            if abs(value - QUBIT_MAX) > 1e-6 or abs(dual - QUBIT_MAX) > 1e-6:
                bad.append("MUB pair misses 1 - 1/sqrt(2)")
        if "bloch" in item and abs(value - busch_id(*item["bloch"])) > 1e-6:
            bad.append("sharp pair misses Busch's closed form")
        return bad


WORKLOADS = {w.name: w for w in (SquareSweep, HypercubeLp, DegreeSearch, QubitPairs)}
