"""Command-line interface: exit codes, report shape, determinism."""

import json
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest

from polybox import cli, steering, witnesses
from polybox import serialize as sz
from polybox.bell import deterministic_box, pr_box
from polybox.channels import StochasticMatrix, cc_channel
from polybox.exact import HAVE_GMPY2, R1, rat
from polybox.measurements import identity_collection
from polybox.polysimplex import PolySimplex, square_space
from polybox.qubit import tsirelson_box
from polybox.steering import (assemblage_from, self_dual_state, square_self_dual_iso,
                              steering_degree_at)
from polybox.witnesses import q_value

from conftest import (MALFORMED_ASSEMBLAGES, ZERO_P, assemblage_functional_separates,
                      box_from_tensor, box_functional_separates, coin_toss, edited,
                      partition_assemblage, three_input_pr_box)

SQ = PolySimplex((1, 1))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")

    def put(name, obj):
        path = d / name
        path.write_text(sz.dumps(obj))
        return str(path)

    out = {"space": put("space.json", sz.space_to_json(square_space()))}
    ident = identity_collection(SQ)
    out["ident"] = put("ident.json", sz.measurement_to_json(ident))
    out["coin"] = put("coin.json",
                      sz.measurement_to_json(coin_toss(SQ, SQ.barycenter())))
    _q, W, _lam = q_value(ident, SQ.barycenter())
    out["witness"] = put("witness.json", sz.witness_to_json(W))
    y = self_dual_state(square_space(), square_self_dual_iso())
    beta = assemblage_from(ident, y, square_space())
    out["assemblage"] = put("assemblage.json", sz.assemblage_to_json(beta))
    out["pr"] = put("pr.json", sz.box_to_json(pr_box()))
    out["pr3"] = put("pr3.json", sz.box_to_json(three_input_pr_box()))
    out["tsirelson"] = put("tsirelson.json", sz.box_to_json(tsirelson_box()))
    out["det"] = put("det.json",
                     sz.box_to_json(deterministic_box(SQ, SQ, (0, 0), (0, 0))))
    out["ybox"] = put("ybox.json", sz.box_to_json(box_from_tensor(SQ, SQ, y)))
    phi = cc_channel(StochasticMatrix([(rat(1, 4), rat(3, 4)), (R1, rat(0))]))
    out["channel"] = put("channel.json", sz.channel_to_json(phi))
    halves = sz.measurement_to_json(ident)
    halves["effects"]["0,0"] = halves["effects"]["0,1"] = [0.5] * 4
    out["float"] = put("float.json", halves)
    bad = d / "malformed.json"
    bad.write_text('{"shape": [1, 1], "effects": {\n  broken\n}')
    out["malformed"] = str(bad)
    out["missing"] = str(d / "no_such_file.json")
    return out


@pytest.fixture
def q_value_calls(monkeypatch):
    """The base points of every `q_value` call, from the CLI or the library."""
    calls = []

    def counted(F, s):
        calls.append(s)
        return q_value(F, s)
    monkeypatch.setattr(witnesses, "q_value", counted)
    monkeypatch.setattr(cli, "q_value", counted)
    return calls


#: each loader's command, its valid input in `files`, and the JSON kinds
#: each of its fields may take
LOADERS = [
    (("space", "validate", "--space"), "space",
     {"label": (str,), "dim": (int,), "vertices": (list,), "unit": (list,),
      "facets": (list,)}),
    (("compat", "check", "--meas"), "ident",
     {"space": (str, dict), "shape": (list,), "effects": (dict,)}),
    (("witness", "extremal", "--witness"), "witness",
     {"shape": (list,), "space": (str, dict), "vertices": (dict,)}),
    (("steer", "separable", "--assemblage"), "assemblage",
     {"shape": (list,), "space": (str, dict), "x": (list,), "p": (dict,),
      "sub_states": (dict,)}),
    (("bell", "check", "--box"), "pr",
     {"shape_a": (list,), "shape_b": (list,), "p": (dict,)}),
    (("channel", "retract", "--channel"), "channel",
     {"d_a": (int,), "d_a_prime": (int,), "choi": (list,)}),
]


def wrong_type_swaps():
    """One case per loader, field and JSON value of another kind."""
    for argv, base, fields in LOADERS:
        for field, kinds in fields.items():
            for value in (5, "x", [1], {"a": 1}, None, True):
                if type(value) not in kinds:
                    shown = json.dumps(value, separators=(",", ":"))
                    yield pytest.param(argv, base, field, value, id=f"{base}-{field}-{shown}")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


class TestSpace:
    def test_info_builtin(self, capsys):
        code, rep, _ = run(capsys, "space", "info", "--space", "square")
        assert code == 0
        assert rep["verdict"] is True
        assert len(rep["result"]["vertices"]) == 4

    def test_runs_as_module(self):
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "polybox", "space", "info",
                               "--space", "square"], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["verdict"] is True

    def test_validate(self, capsys):
        code, rep, _ = run(capsys, "space", "validate", "--space", "cube:3")
        assert code == 0
        assert all(rep["certificate"].values())

    def test_facets_that_do_not_generate_exit_2(self, capsys, tmp_path):
        obj = sz.space_to_json(square_space())
        path = tmp_path / "square-minus-facet.json"
        path.write_text(sz.dumps({**obj, "facets": obj["facets"][1:]}))
        code, rep, err = run(capsys, "space", "validate", "--space", str(path))
        assert code == 2 and rep is None
        assert "do not generate" in err
        path.write_text(sz.dumps(obj))
        code, rep, _ = run(capsys, "space", "validate", "--space", str(path))
        assert code == 0

    def test_unknown_label(self, capsys):
        code, _rep, err = run(capsys, "space", "info", "--space", "dodecahedron")
        assert code == 2
        assert "error:" in err


class TestCompat:
    def test_incompatible(self, capsys, files):
        code, rep, _ = run(capsys, "compat", "check", "--meas", files["ident"])
        assert code == 1
        assert rep["verdict"] is False
        assert set(rep["certificate"]) == {"witness", "trace"}
        assert rep["certificate"]["trace"] == "-1"

    def test_incompatible_solves_one_lp(self, capsys, files, q_value_calls, solved_rows):
        # the witness is read off the joint LP's Farkas multipliers
        code, rep, _ = run(capsys, "compat", "check", "--meas", files["ident"])
        assert code == 1 and rep["certificate"]["trace"] == "-1"
        assert q_value_calls == [] and len(solved_rows) == 1

    def test_compatible(self, capsys, files):
        code, rep, _ = run(capsys, "compat", "check", "--meas", files["coin"])
        assert code == 0
        assert "joint" in rep["certificate"]

    def test_one_vertex_space(self, capsys, tmp_path):
        # K a point (N = 1): the value simplex is Δ_0, which no PolySimplex
        # gives; every collection is compatible and its ID is 0
        point = {"label": "point", "dim": 1, "vertices": [["1"]], "unit": ["1"],
                 "facets": [["1"]]}
        effects = {"0,0": ["1/3"], "0,1": ["2/3"], "1,0": ["1/2"], "1,1": ["1/4"],
                   "1,2": ["1/4"]}
        path = tmp_path / "meas.json"
        path.write_text(json.dumps({"space": point, "shape": [1, 2], "effects": effects}))
        code, rep, err = run(capsys, "compat", "check", "--meas", str(path))
        assert code == 0, err
        joint = {tuple(map(int, k.split(","))): rat(g) for k, (g,) in
                 rep["certificate"]["joint"].items()}
        assert len(joint) == 6 and min(joint.values()) >= 0
        for key, (value,) in effects.items():
            i, j = map(int, key.split(","))
            assert sum(g for n, g in joint.items() if n[i] == j) == rat(value)
        code, rep, err = run(capsys, "id", "compute", "--meas", str(path), "--search")
        assert code == 0 and rep["result"]["id"] == "0", err

    def test_id_compute(self, capsys, files):
        code, rep, _ = run(capsys, "id", "compute", "--meas", files["ident"],
                           "--at", "barycenter")
        assert code == 0
        assert rep["result"]["id"] == "1/2"

    def test_id_search(self, capsys, files):
        code, rep, _ = run(capsys, "id", "compute", "--meas", files["ident"],
                           "--search")
        assert code == 0
        assert rep["result"]["id"] == "1/2"
        assert set(rep["result"]) == {"id", "at", "evaluations"}
        assert rep["result"]["evaluations"] == 1

    def test_id_search_solves_the_certificate_lp_once(self, capsys, files, q_value_calls,
                                                      solved_rows):
        # the witness is read off the search LP's duals: no q_value re-solve
        code, rep, _ = run(capsys, "id", "compute", "--meas", files["ident"], "--search")
        assert code == 0 and rep["certificate"]["trace"] == "-1"
        assert q_value_calls == [] and len(solved_rows) == 1


class TestWitness:
    def test_test(self, capsys, files):
        code, rep, _ = run(capsys, "witness", "test", "--witness", files["witness"])
        assert code == 0
        assert rep["verdict"] is True

    def test_etb(self, capsys, files):
        code, rep, _ = run(capsys, "witness", "etb", "--witness", files["witness"])
        assert code == 1

    def test_etb_refutation_from_one_lp(self, capsys, files, solved_rows):
        # the refutation is read off the ETB LP's Farkas vector: no
        # second solve for the report
        code, rep, _ = run(capsys, "witness", "etb", "--witness", files["witness"])
        assert code == 1 and len(solved_rows) == 1
        cert = rep["certificate"]
        assert set(cert) == {"refutation", "pairing"}
        phi = {tuple(int(t) for t in k.split(",")): tuple(sz.scalar_from_json(v) for v in f)
               for k, f in cert["refutation"].items()}
        refutation = witnesses.EtbRefutation(phi)
        with open(files["witness"]) as fh:
            W = sz.witness_from_json(json.load(fh))
        assert refutation.check(W) and refutation.pairing(W) == sz.scalar_from_json(cert["pairing"])

    def test_maximal(self, capsys, files):
        code, rep, _ = run(capsys, "witness", "maximal", "--meas", files["ident"])
        assert code == 0
        assert rep["result"]["maximal"] is True
        assert rep["certificate"]["value"] == "-1"

    def test_extremal(self, capsys, files):
        code, rep, _ = run(capsys, "witness", "extremal", "--witness",
                           files["witness"])
        assert code == 0


class TestSteerBellBox:
    def test_separable(self, capsys, files, solved_rows):
        # the functional is read off the one separability LP
        code, rep, _ = run(capsys, "steer", "separable", "--assemblage",
                           files["assemblage"])
        assert code == 1
        assert rep["verdict"] is False
        assert len(solved_rows) == 1
        beta = sz.assemblage_from_json(json.loads(pathlib.Path(files["assemblage"]).read_text()))
        mu = [[rat(x) for x in row] for row in rep["certificate"]["functional"]]
        assert assemblage_functional_separates(mu, beta)
        assert rat(rep["certificate"]["pairing"]) < 0

    def test_sd(self, capsys, files):
        code, rep, _ = run(capsys, "steer", "sd", "--assemblage",
                           files["assemblage"], "--at", "barycenter")
        assert code == 0
        assert rep["result"]["sd"] == "1/2"

    def test_sd_search_solves_one_lp(self, capsys, files, monkeypatch, solved_rows):
        # the hidden-state model is read off the search LP's primal: no
        # fixed-s re-solve
        calls = []

        def counted(beta, s):
            calls.append(s)
            return steering_degree_at(beta, s)
        monkeypatch.setattr(steering, "steering_degree_at", counted)
        monkeypatch.setattr(cli, "steering_degree_at", counted)
        code, rep, _ = run(capsys, "steer", "sd", "--assemblage", files["assemblage"],
                           "--search")
        assert code == 0 and rep["result"]["sd"] == "1/2"
        assert calls == [] and len(solved_rows) == 1

    def test_sd_search_on_a_boundary_draw(self, capsys, tmp_path):
        # only a boundary s attains λ* = 1/17 (exit 3 while the search
        # raised for want of an interior s)
        P = PolySimplex((2, 1))
        rng = random.Random(str(("poly:2,1", (2, 1))))
        draws = [partition_assemblage(P, sz.builtin_space("poly:2,1"), rng) for _ in range(2)]
        path = tmp_path / "boundary.json"
        path.write_text(sz.dumps(draws[1]))
        code, rep, _ = run(capsys, "steer", "sd", "--assemblage", str(path), "--search")
        assert code == 0 and rep["result"]["sd"] == "1/17"
        assert "0" in rep["result"]["at"]

    def test_bell_check(self, capsys, files):
        code, rep, _ = run(capsys, "bell", "check", "--box", files["pr"])
        assert code == 1
        assert rep["certificate"]["pairing"] == "-1/2"
        mu = [[rat(x) for x in row] for row in rep["certificate"]["functional"]]
        assert box_functional_separates(mu, pr_box())
        code, rep, _ = run(capsys, "bell", "check", "--box", files["det"])
        assert code == 0
        assert "lhv_weights" in rep["certificate"]

    def test_bell_check_outside_the_chsh_scenario(self, capsys, files):
        # shapes (1,1,1)|(1,1): no CHSH witness applies, the LP's does
        code, rep, _ = run(capsys, "bell", "check", "--box", files["pr3"])
        assert code == 1 and rep["verdict"] is False
        assert rep["certificate"]["pairing"] == "-1/2"
        mu = [[rat(x) for x in row] for row in rep["certificate"]["functional"]]
        assert box_functional_separates(mu, three_input_pr_box())

    def test_bell_chsh(self, capsys, files):
        code, rep, _ = run(capsys, "bell", "chsh", "--box", files["pr"])
        assert code == 1
        assert rep["result"]["bell"] == "4"

    def test_bell_bound(self, capsys, files):
        code, rep, _ = run(capsys, "bell", "bound", "--meas-a", files["ident"],
                           "--meas-b", files["ident"], "--y-box", files["ybox"])
        assert code == 0
        assert rep["result"]["holds"] is True

    def test_bell_bound_equality(self, capsys, files):
        code, rep, _ = run(capsys, "bell", "bound", "--meas-a", files["ident"],
                           "--equality")
        assert code == 0
        assert rep["result"]["lhs"] == "-1/2"

    def test_bound_rejects_compatible(self, capsys, files):
        code, _rep, err = run(capsys, "bell", "bound", "--meas-a", files["coin"],
                              "--meas-b", files["coin"], "--y-box", files["ybox"])
        assert code == 2
        assert "error:" in err

    def test_bell_bound_on_a_three_vertex_space(self, capsys, tmp_path):
        # the square's self-dual iso names vertex 3, which delta:2 lacks
        path = tmp_path / "delta2.json"
        path.write_text(sz.dumps(identity_collection(PolySimplex((2,)))))
        code, rep, err = run(capsys, "bell", "bound", "--meas-a", str(path),
                             "--meas-b", str(path))
        assert code == 2 and rep is None
        assert "error:" in err

    def test_box_to_channel(self, capsys, files):
        code, rep, _ = run(capsys, "box", "to-channel", "--box", files["pr"])
        assert code == 0
        assert rep["result"]["recovered_exactly"] is True

    def test_float_tsirelson_box_to_channel(self, capsys, files):
        # its float marginals differ in the last bits; Box accepts it
        code, rep, _ = run(capsys, "box", "to-channel", "--box", files["tsirelson"])
        assert code == 0 and rep["mode"] == "float"
        assert rep["result"]["causal"] is True


class TestChannelQubit:
    def test_retract(self, capsys, files):
        code, rep, _ = run(capsys, "channel", "retract", "--channel",
                           files["channel"])
        assert code == 0
        assert rep["certificate"]["section_round_trip"] is True

    def test_section(self, capsys):
        code, rep, _ = run(capsys, "channel", "section", "--shape", "1,1",
                           "--at", "barycenter")
        assert code == 0
        assert rep["certificate"]["retracts_back"] is True

    def test_qubit_tsirelson(self, capsys):
        code, rep, _ = run(capsys, "qubit", "tsirelson")
        assert code == 0
        assert abs(rep["result"]["bell"] - 2.8284271247) < 1e-6

    def test_qubit_feasible(self, capsys):
        code, rep, _ = run(capsys, "qubit", "feasible", "--mub")
        assert code == 1
        code, rep, _ = run(capsys, "qubit", "feasible",
                           "--a", "0.5,0,0,0.5", "--b", "0.5,0,0,0.25")
        assert code == 0
        assert "joint_effect" in rep["certificate"]

    def test_qubit_feasible_near_boundary(self, capsys):
        # compatible with a margin of 8e-5; once reported incompatible
        code, rep, _ = run(capsys, "qubit", "feasible",
                           "--a", "0.4768245647467665,-0.14663048544088603,"
                                  "0.3567951667291718,-0.004179718339504759",
                           "--b", "0.2816009058355796,0.07114195206043553,"
                                  "-0.17201185243931785,0.21108745148764524")
        assert code == 0
        assert rep["result"]["feasible"] is True
        assert "joint_effect" in rep["certificate"]

    def test_qubit_id(self, capsys):
        code, rep, _ = run(capsys, "qubit", "id", "--mub")
        assert code == 0
        assert abs(rep["result"]["id"] - 0.2928932188) < 1e-6
        assert set(rep["result"]) == {"id", "q_hat", "witness_params"}

    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_qubit_near_commuting_pair(self, capsys, eps):
        # σz against σz tilted by ε: incompatible, with ID ≈ ε/2
        pair = ("--a", "0.5,0,0,0.5",
                "--b", f"0.5,{0.5 * math.sin(eps)!r},0,{0.5 * math.cos(eps)!r}")
        code, rep, _ = run(capsys, "qubit", "id", *pair)
        assert code == 0
        assert abs(rep["result"]["id"] / (eps / 2.0) - 1.0) <= 2 * eps
        code, rep, _ = run(capsys, "qubit", "feasible", *pair)
        assert code == 1
        assert rep["certificate"]["q_hat"] < 0.0

    def test_qubit_feasible_witness_meets_id(self, capsys):
        # an incompatible sharp×unsharp pair: the refuting witness of
        # `feasible` certifies the degree that `id` reads off its root
        pair = ("--a", "0.500043386903963,-0.1531342671244334,0.32111135187513623,"
                       "-0.14231329434611023",
                "--b", "0.5,0.16743927880173756,0.4668572112118132,0.06331218092817935")
        code, rep, _ = run(capsys, "qubit", "feasible", *pair)
        assert code == 1
        q = rep["certificate"]["q_hat"]
        code, rep, _ = run(capsys, "qubit", "id", *pair)
        assert code == 0
        assert rep["result"]["id"] > 0.1
        assert abs(-q / (1.0 - q) - rep["result"]["id"]) <= 1e-9


class TestErrors:
    def test_malformed_json(self, capsys, files):
        code, _rep, err = run(capsys, "compat", "check", "--meas",
                              files["malformed"])
        assert code == 2
        assert ":2:" in err

    def test_missing_file(self, capsys, files):
        code, _rep, err = run(capsys, "compat", "check", "--meas",
                              files["missing"])
        assert code == 2

    @pytest.mark.parametrize("argv", [("witness", "maximal"), ("witness", "test"),
                                      ("bell", "check"), ("bell", "bound"),
                                      ("channel", "retract")], ids=" ".join)
    def test_missing_input_option(self, capsys, argv):
        code, rep, err = run(capsys, *argv)
        assert code == 2 and rep is None
        assert "error: an input file option is missing" in err

    @pytest.mark.parametrize("argv, base, field, value", wrong_type_swaps())
    def test_field_of_wrong_json_type(self, capsys, files, tmp_path, argv, base, field,
                                      value):
        obj = json.loads(pathlib.Path(files[base]).read_text())
        path = tmp_path / "swapped.json"
        path.write_text(json.dumps({**obj, field: value}))
        code, rep, err = run(capsys, *argv, str(path))
        assert code == 2 and rep is None
        assert "error:" in err

    def test_assemblage_tables_must_match_the_shape(self, capsys, files, tmp_path):
        # one input declared, tables for two; a missing p entry
        obj = json.loads(pathlib.Path(files["assemblage"]).read_text())
        short_p = {k: v for k, v in obj["p"].items() if k != "1,1"}
        path = tmp_path / "assemblage.json"
        for bad in ({**obj, "shape": [1]}, {**obj, "p": short_p}):
            path.write_text(json.dumps(bad))
            code, rep, err = run(capsys, "steer", "separable", "--assemblage", str(path))
            assert code == 2 and rep is None
            assert "error:" in err

    @pytest.mark.parametrize("case", list(MALFORMED_ASSEMBLAGES))
    def test_malformed_assemblage(self, capsys, files, tmp_path, case):
        # exit 2, never 3, whether the loader or the rows' membership test
        # refuses the file
        obj = json.loads(pathlib.Path(files["assemblage"]).read_text())
        path = tmp_path / "assemblage.json"
        path.write_text(json.dumps(edited(obj, **MALFORMED_ASSEMBLAGES[case])))
        code, rep, err = run(capsys, "steer", "separable", "--assemblage", str(path))
        assert code == 2 and rep is None
        assert "error:" in err

    def test_assemblage_with_a_zero_p_loads(self, capsys, files, tmp_path):
        # the control of the p = 0 cases: with a state at p = 0 it loads
        obj = json.loads(pathlib.Path(files["assemblage"]).read_text())
        path = tmp_path / "assemblage.json"
        path.write_text(json.dumps(edited(obj, **ZERO_P)))
        code, rep, err = run(capsys, "steer", "separable", "--assemblage", str(path))
        assert code in (0, 1) and rep is not None, err

    @pytest.mark.parametrize("argv", [("id", "compute", "--meas", "ident"),
                                      ("bell", "bound", "--meas-a", "ident",
                                       "--meas-b", "ident")], ids=lambda a: a[0])
    def test_base_point_that_is_not_a_state(self, capsys, files, argv):
        # every coordinate positive, but each block sums to 2
        argv = [files.get(a, a) for a in argv]
        code, rep, err = run(capsys, *argv, "--at", "1,1,1,1")
        assert code == 2 and rep is None
        assert "error:" in err and "interior state" in err

    @pytest.mark.parametrize("argv", [("id", "compute", "--meas", "ident"),
                                      ("channel", "section", "--shape", "1,1"),
                                      ("steer", "sd", "--assemblage", "assemblage"),
                                      ("bell", "bound", "--meas-a", "ident",
                                       "--meas-b", "ident")], ids=lambda a: a[0])
    def test_base_point_with_a_zero_denominator(self, capsys, files, argv):
        # a "p/q" with q = 0 is bad input (exit 2), not a crash (exit 3)
        argv = [*argv[:2], *(files.get(a, a) for a in argv[2:])]
        code, rep, err = run(capsys, *argv, "--at", "1/0,1,1,1")
        assert code == 2 and rep is None
        assert "error: zero denominator in '1/0'" in err

    def test_effect_that_is_not_finite(self, capsys):
        code, rep, err = run(capsys, "qubit", "feasible", "--a", "nan,0,0,0",
                             "--b", "0.5,0,0,0.5")
        assert code == 2 and rep is None
        assert "error: not an effect: α and the Bloch vector must be finite" in err

    @pytest.mark.parametrize("choi, message", [
        ([[0.5, 0], [float("nan"), 0], [float("nan"), 0], [0.5, 0]], "must be finite"),
        ([[0.5, 0], [1, 0], [1, 0], [0.5, 0]], "not completely positive")],
        ids=["nan", "not-cp"])
    def test_channel_that_is_not_a_channel(self, capsys, tmp_path, choi, message):
        # both once retracted with verdict true
        path = tmp_path / "choi.json"
        path.write_text(json.dumps({"d_a": 1, "d_a_prime": 2, "choi": choi}))
        code, rep, err = run(capsys, "channel", "retract", "--channel", str(path))
        assert code == 2 and rep is None
        assert "error:" in err and message in err

    def test_float_in_exact_input(self, capsys, files):
        code, rep, err = run(capsys, "compat", "check", "--meas", files["float"])
        assert code == 2 and rep is None
        assert "error:" in err and "0.5" in err

    def test_internal_error(self, capsys, files, monkeypatch):
        def fail(*_args, **_kwargs):
            raise AssertionError("simplex strong duality violated")
        monkeypatch.setattr(cli, "is_compatible", fail)
        code, rep, err = run(capsys, "compat", "check", "--meas", files["ident"])
        assert code == 3 and rep is None
        assert "internal error: AssertionError: simplex strong duality violated" in err

    def test_seeded_runs_identical(self, capsys, files):
        code1 = cli.main(["--seed", "7", "id", "compute", "--meas",
                          files["ident"], "--search"])
        out1 = capsys.readouterr().out
        code2 = cli.main(["--seed", "7", "id", "compute", "--meas",
                          files["ident"], "--search"])
        out2 = capsys.readouterr().out
        assert code1 == code2
        assert out1 == out2

    def test_parser_built_once_and_calls_share_no_state(self, capsys, files,
                                                         monkeypatch):
        # main builds its parser once per process; each call must still
        # see only its own arguments and inputs
        built = []
        build = cli.build_parser

        def counting_build():
            built.append(1)
            return build()

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counting_build)
        try:
            code, rep, _ = run(capsys, "--seed", "7", "id", "compute", "--meas",
                               files["ident"], "--search")
            assert code == 0 and "evaluations" in rep["result"]
            assert list(rep["inputs"]) == [files["ident"]]
            assert rep["backend"] == ("gmpy2" if HAVE_GMPY2 else "fractions")
            code, rep, _ = run(capsys, "space", "info", "--space", "square")
            assert code == 0 and rep["command"] == "space info"
            assert rep["inputs"] == {}
            code, rep, _ = run(capsys, "id", "compute", "--meas", files["ident"])
            assert code == 0 and "evaluations" not in rep["result"]
            assert rep["result"]["id"] == "1/2"
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1


#: the inputs of the mutation pass, each with the commands that read it
MUTATED_INPUTS = {
    "space": [("space", "validate", "--space")],
    "ident": [("compat", "check", "--meas"), ("id", "compute", "--search", "--meas")],
    "coin": [("compat", "check", "--meas")],
    "witness": [("witness", "test", "--witness"), ("witness", "etb", "--witness")],
    "assemblage": [("steer", "separable", "--assemblage")],
    "pr": [("bell", "check", "--box")],
    "tsirelson": [("bell", "check", "--box"), ("box", "to-channel", "--box")],
    "channel": [("channel", "retract", "--channel")],
}

#: the values a leaf mutation writes
LEAF_VALUES = [float("nan"), float("inf"), float("-inf"), 1e40, "1/0", "-1/3", "abc",
               5e-324, [], {}]


def json_paths(obj, path=()):
    """(path, value) of every entry below a JSON object, depth first."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from json_paths(value, path + (key,))


def at(obj, path):
    """The entry of obj at a path of `json_paths`."""
    for key in path:
        obj = obj[key]
    return obj


def leaf_mutation(obj, rng):
    """A copy of obj with one or two leaves set to values of LEAF_VALUES."""
    obj = json.loads(json.dumps(obj))
    leaves = [p for p, v in json_paths(obj) if not isinstance(v, (dict, list))]
    for path in rng.sample(leaves, rng.choice((1, 2))):
        at(obj, path[:-1])[path[-1]] = rng.choice(LEAF_VALUES)
    return obj


def structural_edit(obj, rng):
    """A copy of obj with a dropped key, a foreign key, or a list of the
    wrong shape (an entry dropped or repeated, or the list unwrapped or
    wrapped once more)."""
    obj = json.loads(json.dumps(obj))
    dicts = [()] + [p for p, v in json_paths(obj) if isinstance(v, dict) and v]
    lists = [p for p, v in json_paths(obj) if isinstance(v, list) and v]
    kind = rng.choice(("drop", "foreign", "shape"))
    if kind == "shape" and lists:
        path = rng.choice(lists)
        parent, key, value = at(obj, path[:-1]), path[-1], at(obj, path)
        parent[key] = rng.choice((value[:-1], value + value[-1:], value[0], [value]))
        return obj
    target = at(obj, rng.choice(dicts))
    if kind == "drop":
        del target[rng.choice(list(target))]
    else:
        target[rng.choice(("extra", "9,9", "0"))] = target[rng.choice(list(target))]
    return obj


class TestMutations:
    """Seeded value mutations and structural edits of every loader's
    input, run in-process: each run ends with a verdict or a refusal
    (exit 0, 1 or 2), never with an internal error (exit 3)."""

    DRAWS = 60

    def test_no_mutation_crashes(self, capsys, files, tmp_path):
        rng = random.Random("cli mutations")
        path = tmp_path / "mutated.json"
        codes, crashes = {}, []
        for name, commands in MUTATED_INPUTS.items():
            obj = json.loads(pathlib.Path(files[name]).read_text())
            for argv in commands:
                for mutate in (leaf_mutation, structural_edit) * self.DRAWS:
                    text = json.dumps(mutate(obj, rng))
                    path.write_text(text)
                    code = cli.main([*argv, str(path)])
                    err = capsys.readouterr().err
                    codes[code] = codes.get(code, 0) + 1
                    if code not in (0, 1, 2):
                        crashes.append((argv, text, err.splitlines()[-1:]))
        assert not crashes, crashes[:3]
        assert codes.get(2) and codes.get(0, 0) + codes.get(1, 0), codes
