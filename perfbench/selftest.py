"""Fast self-test of the benchmark, about half a minute.

    python3 perfbench/selftest.py

It runs a handful of items of every workload with all checks on and
requires every check to pass; then it feeds each check a perturbed
output (a value off by 1/1000, a flipped verdict, ...) and requires that
check to fail, so that no check is vacuous. It also runs run.py for one
second on two workloads, traced and untraced, and compares the metric
names it prints with BENCHMARK.json, and it runs run.py in a directory
without the program, where it must fail. Exits 0 when everything holds.
"""
import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as wl  # noqa: E402
from polybox import bell  # noqa: E402
from polybox.polysimplex import PolySimplex  # noqa: E402

D = Fraction(1, 1000)
problems = []


def expect(cond, what):
    if not cond:
        problems.append(what)
        print(f"FAIL  {what}")


def expect_caught(w, item, out, change, message, what):
    """The check must report `message` once `change` is applied to a copy of `out`."""
    bad = copy.copy(out)
    change(bad)
    fails = w.check(item, bad)
    expect(any(message in f for f in fails), f"{w.name}: check misses {what} (got {fails})")


def run_items(w, items):
    outs = []
    for item in items:
        out = w.run(item)
        fails = w.check(item, out)
        expect(not fails, f"{w.name}: {item['kind']} item failed its checks: {fails}")
        outs.append(out)
    return outs


def first(pairs, pred):
    return next((i, o) for i, o in pairs if pred(i, o))


def test_references():
    P = PolySimplex((1, 1))
    expect(not wl.fine_local(bell.pr_box().probs), "Fine: the PR box must be nonlocal")
    det = bell.deterministic_box(P, P, (0, 1), (1, 1))
    expect(wl.fine_local(det.probs), "Fine: a deterministic box must be local")
    expect(abs(wl.busch_id((0, 0, 1), (1, 0, 0)) - wl.QUBIT_MAX) < 1e-12,
           "Busch: the MUB pair must give 1 - 1/sqrt(2)")
    expect(wl.busch_id((0, 0, 1), (0, 0, 1)) == 0.0, "Busch: equal effects are compatible")
    expect(wl.id_from_q(Fraction(-1)) == Fraction(1, 2), "ID from q = -1 must be 1/2")


def test_square_sweep(workdir):
    w = wl.SquareSweep(1, workdir)
    items = w.round() + w.round()
    pairs = list(zip(items, run_items(w, items)))
    qs = [wl._fr(o["q"]) for _, o in pairs]
    expect(any(q < 0 for q in qs) and any(q >= 0 for q in qs),
           "square-sweep: a round should hold both compatible and incompatible F")
    item, out = pairs[0]
    expect_caught(w, item, out, lambda o: o.update(compatible=not o["compatible"]),
                  "sign of q", "a flipped is_compatible")
    expect_caught(w, item, out, lambda o: o.update(trace=o["trace"] + D),
                  "trace pairing", "a trace off by 1/1000")
    expect_caught(w, item, out, lambda o: o.update(id=o["id"] + D), "-q/(1-q)", "ID + 1/1000")
    expect_caught(w, item, out, lambda o: o.update(sd=o["sd"] - D), "steering degree",
                  "SD - 1/1000")
    expect_caught(w, item, out, lambda o: o.update(local=not o["local"]), "Fine",
                  "a flipped locality verdict")
    expect_caught(w, item, out, lambda o: o.update(separable=not o["separable"]),
                  "is_separable", "a flipped separability verdict")
    expect_caught(w, item, out, lambda o: o.update(psd=False), "PSD", "a non-PSD channel")

    class OffChoi:
        def __init__(self, choi):
            self.choi = choi

        def diag_entry(self, j, i):
            return self.choi.diag_entry(j, i) + (D if (j, i) == (0, 0) else 0)
    expect_caught(w, item, out, lambda o: o.update(choi=OffChoi(o["choi"])), "recover",
                  "a Choi diagonal off by 1/1000")

    item, out = first(pairs, lambda i, o: o["q"] < 0)

    def worst(o):  # q = -1 - 1/1000, consistent everywhere, so only the 1/2 bound breaks
        q = Fraction(-1) - D
        o.update(q=q, trace=q, id=wl.id_from_q(q), sd=wl.id_from_q(q), bell_q=q)
    expect_caught(w, item, out, worst, "exceeds 1/2", "ID above 1/2")
    expect_caught(w, item, out, lambda o: o.update(criterion=not o["criterion"]),
                  "two-outcome", "a flipped norm criterion")
    expect_caught(w, item, out,
                  lambda o: o.update(is_witness=not o["is_witness"], criterion=not o["criterion"]),
                  "its minimum", "a witness verdict against the sign of its minimum")
    expect_caught(w, item, out, lambda o: o.update(bell_norm=o["bell_norm"] + D), "max norm",
                  "a Bell witness norm off by 1/1000")
    expect_caught(w, item, out, lambda o: o.update(bell_q=o["bell_q"] + D), "another q",
                  "a Bell bound with another q")
    expect_caught(w, item, out,
                  lambda o: o.update(bell_lhs=wl._fr(o["bell_norm"]) * wl._fr(o["q"]) - D),
                  "Bell bound violated", "a Bell value 1/1000 below the bound")
    item, out = first(pairs, lambda i, o: o["q"] < 0
                      and i["scale"] * o["q"] + i["shift"] * w.unit_xbar < 0)
    expect_caught(w, item, out,
                  lambda o: o.update(is_witness=False, criterion=False, witness_min=D),
                  "negative trace", "a witness with negative trace declared no witness")


def test_hypercube_lp(workdir):
    w = wl.HypercubeLp(1, workdir)
    items = [i for i in w.round() if not (i["n"] == 4 and i["kind"] == "random")]
    pairs = list(zip(items, run_items(w, items)))
    for n in (3, 4):
        item, out = first(pairs, lambda i, o: i["kind"] == "identity" and i["n"] == n)

        def shifted(o):  # q and ID moved together, so only the paper's values break
            q = wl._fr(o["q"]) - D
            o.update(q=q, trace=q, id=wl.id_from_q(q))
        expect_caught(w, item, out, shifted, "k/(k+1)", f"{n}-cube identity q - 1/1000")
        expect_caught(w, item, out, lambda o: o.update(retraction=False), "retraction",
                      f"{n}-cube identity without retraction")
        expect_caught(w, item, out, lambda o: o.update(maximal_value=o["maximal_value"] + D),
                      "maximal certificate", f"{n}-cube maximal value + 1/1000")
    item, out = first(pairs, lambda i, o: i["kind"] == "identity" and i["n"] == 3)
    expect_caught(w, item, out, lambda o: o.update(cross_id=o["cross_id"] + D), "cross-check",
                  "a primal cross-check off by 1/1000")
    item, out = first(pairs, lambda i, o: i["kind"] == "random")
    expect_caught(w, item, out, lambda o: o.update(compatible=not o["compatible"]), "sign of q",
                  "a flipped is_compatible")
    expect_caught(w, item, out, lambda o: o.update(trace=o["trace"] + D), "trace pairing",
                  "a trace off by 1/1000")

    def beyond(o):
        q = Fraction(-3) - D      # ID = (3 + 1/1000)/(4 + 1/1000) > 3/4 > 2/3
        o.update(q=q, trace=q, id=wl.id_from_q(q), compatible=False)
    expect_caught(w, item, out, beyond, "exceeds k/(k+1)", "ID above k/(k+1)")


def _edit_report(field, new):
    def change(o):
        rep = json.loads(o["report"])
        if field == "value":
            key = "id" if "id" in rep["result"] else "sd"
            rep["result"][key] = str(new(Fraction(rep["result"][key])))
        elif field == "trace":
            rep["certificate"]["trace"] = str(Fraction(rep["certificate"]["trace"]) + D)
        else:
            rep[field] = new
        o["report"] = json.dumps(rep)
    return change


def test_degree_search(workdir):
    w = wl.DegreeSearch(1, workdir)
    items = w.round()
    (id_item, id_out), (rand_item, rand_out), (sd_item, sd_out) = zip(items, run_items(w, items))
    expect_caught(w, id_item, id_out, _edit_report("value", lambda v: v - D), "exactly 1/2",
                  "identity ID - 1/1000")
    expect_caught(w, id_item, id_out, _edit_report("value", lambda v: v + D), "barycenter",
                  "a search value above ID at the barycenter")
    expect_caught(w, id_item, id_out, _edit_report("trace", None), "certificate",
                  "a certificate trace off by 1/1000")
    expect_caught(w, id_item, id_out, _edit_report("verdict", False), "verdict",
                  "a false verdict in the report")
    expect_caught(w, id_item, id_out, lambda o: o.update(code=1), "exit code", "exit code 1")
    expect_caught(w, id_item, id_out, lambda o: o.update(report="{"), "malformed",
                  "a malformed report")
    # just below the barycenter value, only id_degree_at and the certificate disagree
    rand_item = dict(rand_item, values={})
    expect_caught(w, rand_item, rand_out, _edit_report("value", lambda v: v - D), "id_degree_at",
                  "a search value off id_degree_at at its point")
    sd_value = sd_item["values"]["sd"]
    sd_item = dict(sd_item, values={"id": sd_value - D})
    expect_caught(w, sd_item, sd_out, lambda o: None, "disagree",
                  "ID and SD searches that disagree")


def test_qubit_pairs(workdir):
    w = wl.QubitPairs(1, workdir)
    items = w.round() + w.round()
    pairs = list(zip(items, run_items(w, items)))
    expect({i["kind"] for i in items} == {"mub", "sharp", "unsharp"},
           "qubit-pairs: a round should hold MUB, sharp and unsharp pairs")
    item, out = pairs[0]
    expect_caught(w, item, out, lambda o: o.update(dual=o["dual"] - 1e-5), "MUB",
                  "a MUB dual bound off by 1e-5")
    expect_caught(w, item, out, lambda o: o.update(value=o["value"] - 1e-5), "MUB",
                  "a MUB value off by 1e-5")
    item, out = first(pairs, lambda i, o: i["kind"] == "sharp")
    expect_caught(w, item, out, lambda o: o.update(value=o["value"] + 1e-5), "Busch",
                  "a sharp pair off Busch's form by 1e-5")
    expect_caught(w, item, out, lambda o: o.update(value=wl.QUBIT_MAX + 2e-6),
                  "exceeds 1 - 1/sqrt(2)", "a value above the qubit maximum")
    expect_caught(w, item, out, lambda o: o.update(dual=o["value"] + 2e-6), "dual bound",
                  "a dual bound above the value")


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"),
                           "--workload", workload, "--seed", "3", "--seconds", "1",
                           "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def test_run_outputs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expect({w["name"] for w in bench["workloads"]} == set(wl.WORKLOADS),
           "BENCHMARK.json names other workloads than workloads.py")
    for workload, trace, key in (("square-sweep", 0, "end_to_end"),
                                 ("square-sweep", 1, "per_layer"),
                                 ("qubit-pairs", 1, "per_layer")):
        proc = run_bench(workload, trace)
        expect(proc.returncode == 0, f"run.py {workload} --trace {trace} exited {proc.returncode}:"
               f" {proc.stderr[-500:]}")
        if proc.returncode:
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        expect(set(res) == {"correct", "attempted", "failed", "metrics"}, "result keys")
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
               f"{workload} --trace {trace}: {res['attempted']} attempted, {res['failed']} failed")
        want = {m["name"]: m["unit"] for m in bench[key]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        expect(got == want, f"{workload} --trace {trace}: metrics differ from BENCHMARK.json")
        if trace:
            m = {k: v["value"] for k, v in res["metrics"].items()}
            expect(m["trace.self_s_sum"] <= m["trace.wall_s"],
                   f"{workload}: self times exceed the traced wall time")
            if workload == "qubit-pairs":
                expect(m["lp.solves"] == 0, "qubit-pairs must run no exact LP")
                expect(m["qubit.qubit_id.calls"] == m["trace.items"], "one qubit_id per item")
            else:
                expect(m["lp.solves"] > 0 and m["linalg.calls"] > 0, "square-sweep runs LPs")
        else:
            expect(all(isinstance(v["value"], float) and v["value"] > 0
                       for v in res["metrics"].values()), "end-to-end metrics must be positive")


def test_without_program():
    """In a directory with only BENCHMARK.json and perfbench/, run.py must fail."""
    tmp = tempfile.mkdtemp(dir=os.path.join(HERE, "out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_bench("square-sweep", 0, cwd=tmp)
        expect(proc.returncode != 0 and "correct" not in proc.stdout,
               "run.py must fail without the program")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main():
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(HERE, "out"))
    try:
        test_references()
        test_square_sweep(workdir)
        test_hypercube_lp(workdir)
        test_degree_search(workdir)
        test_qubit_pairs(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    test_run_outputs()
    test_without_program()
    print("self-test:", "OK" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
