"""Run one corpus of polybox CLI commands on two source trees and list
every difference in exit code or in the sha256 of stdout.

    python3 tools/cli_corpus.py [--base REV]

Run it from the root of a git checkout. The base tree is `git archive
REV` (default HEAD, the parent of uncommitted changes) unpacked into a
temporary directory; the other tree is the working tree. The input files
are written once, by the working tree, with the builders of
`tests/conftest.py` (as the `files` fixture of `tests/test_cli.py`
does), so both trees read the same bytes. Every command runs in a fresh
`python -m polybox` process per tree, one at a time.

The corpus covers every command that reads a collection, a witness, an
assemblage, a box or a channel:
- `compat check`, `id compute` (`--at barycenter`, `--at` with
  coordinates, `--search`) and `witness maximal` on compatible and
  incompatible collections on the square, poly:2,1, the pentagon and a
  one-vertex space, and `compat check` on six malformed collection
  files (a missing key, a short value list, a negative value, an input
  that does not sum to 1, an affinely inconsistent table on the square
  and on cube:3);
- `witness test`, `witness etb` and `witness extremal` on witness maps
  read off collections and on random maps, and `witness test` on a
  random map on the square and on poly:2,1 with one vertex image moved
  inside the cone, off the exchange equations;
- `bell bound` (plain, `--y-box` and `--equality`), `bell check` and
  `box to-channel` on local, nonlocal and float boxes;
- `steer separable`, `steer sd --at barycenter` and `steer sd --search`
  on separable and steering assemblages (the self-dual square, product
  states, partition draws on the square, poly:2,1 and the pentagon),
  and on malformed assemblage files;
- `space info` and `space validate` on built-in and JSON spaces,
  `channel retract` and `channel section`, `qubit id`, `qubit feasible`
  and `qubit tsirelson`, and `demo` at two seeds.

stderr is not compared, as it carries timings. For a command that exits
2 on both trees it holds only the error message, and where that differs
it is listed apart, as a note.

`cli_corpus_exits.json`, next to this script, holds the expected exit
code of every command, keyed by the command as printed (input files by
their names). The working tree's exit code must equal it. A change that
alters a command's exit code on purpose edits its entry, and a change
to the corpus adds or removes entries with its commands.

Exits 0 when no exit code or stdout differs between the trees and every
working-tree exit code is the expected one, 1 otherwise.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
EXITS = pathlib.Path(__file__).with_name("cli_corpus_exits.json")


def write_inputs(d: pathlib.Path):
    """The input files, and the commands that read them, as argv lists."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from polybox import linalg as la
    from polybox import serialize as sz
    from polybox.bell import deterministic_box, pr_box, random_ns_box
    from polybox.channels import StochasticMatrix, cc_channel, section_S
    from polybox.exact import R1, rat
    from polybox.measurements import identity_collection, random_collection
    from polybox.polysimplex import PolySimplex, square_space
    from polybox.qubit import tsirelson_box
    from polybox.steering import assemblage_from, self_dual_state, square_self_dual_iso
    from polybox.witnesses import WitnessMap, q_value, random_witness_map
    from conftest import (MALFORMED_ASSEMBLAGES, ZERO_P, box_from_tensor, coin_toss,
                          edited, partition_assemblage, pentagon_json, random_local_box,
                          three_input_pr_box, unitary_choi)

    def put(name, obj):
        path = d / name
        path.write_text(obj if isinstance(obj, str) else sz.dumps(obj))
        return str(path)

    rng = random.Random(0)
    P, sq = PolySimplex((1, 1)), square_space()
    ident = identity_collection(P)
    y = self_dual_state(sq, square_self_dual_iso())
    assemblages = {"identity": assemblage_from(ident, y, sq)}
    for t in range(4):
        F = random_collection(sq, P, rng, bias=rat(3, 4))
        assemblages[f"self-dual-{t}"] = assemblage_from(F, y, sq)
    for t in range(2):
        F = random_collection(sq, P, rng)
        assemblages[f"product-{t}"] = assemblage_from(
            F, la.outer(sq.interior_point(), sq.vertices[t + 1]), sq)
    spaces = {"square": sq, "poly:2,1": sz.builtin_space("poly:2,1"),
              "pentagon": sz.space_from_json(pentagon_json())}
    for label, space in spaces.items():
        for shape in ((1, 1), (2, 1)):
            draw = random.Random(str(("corpus", label, shape)))
            for t in range(2):
                assemblages[f"{label}-{shape}-{t}"] = partition_assemblage(
                    PolySimplex(shape), space, draw)

    commands = []
    for name, beta in assemblages.items():
        path = put(f"assemblage-{name}.json", beta)
        commands += [["steer", "separable", "--assemblage", path],
                     ["steer", "sd", "--assemblage", path, "--at", "barycenter"],
                     ["steer", "sd", "--assemblage", path, "--search"]]
    base = json.loads(sz.dumps(assemblages["identity"]))
    for name, case in [*MALFORMED_ASSEMBLAGES.items(), ("zero-p", ZERO_P)]:
        path = put(f"assemblage-edit-{name}.json", json.dumps(edited(base, **case)))
        commands.append(["steer", "separable", "--assemblage", path])

    boxes = {"pr": pr_box(), "pr3": three_input_pr_box(), "tsirelson": tsirelson_box(),
             "det": deterministic_box(P, P, (0, 1), (1, 0))}
    for t in range(3):
        boxes[f"ns-{t}"] = random_ns_box(P, P, rng)
        boxes[f"local-{t}"] = random_local_box(P, P, rng)
    A = PolySimplex((2, 1))
    boxes["ns-21"] = random_ns_box(A, P, rng)
    boxes["local-21"] = random_local_box(A, P, rng)
    for name, box in boxes.items():
        path = put(f"box-{name}.json", box)
        commands += [["bell", "check", "--box", path], ["box", "to-channel", "--box", path]]

    point = {"label": "point", "dim": 1, "vertices": [["1"]], "unit": ["1"],
             "facets": [["1"]]}
    for ref in ("square", "cube:3", "delta:2", "poly:2,1", put("space-point.json", point),
                put("space-pentagon.json", pentagon_json())):
        commands += [["space", action, "--space", ref] for action in ("info", "validate")]

    collections = {"identity": ident, "coin": coin_toss(P, P.barycenter())}
    for t in range(4):
        collections[f"random-{t}"] = random_collection(sq, P, rng, bias=rat(t, 4))
    for label in ("poly:2,1", "pentagon"):
        for t in range(2):
            collections[f"{label}-{t}"] = random_collection(spaces[label], A, rng,
                                                            bias=rat(t, 2))
    meas, witnesses = {}, {}
    for name, F in collections.items():
        meas[name] = path = put(f"meas-{name}.json", F)
        commands += [["compat", "check", "--meas", path],
                     ["id", "compute", "--meas", path, "--at", "barycenter"],
                     ["id", "compute", "--meas", path, "--search"],
                     ["witness", "maximal", "--meas", path]]
        witnesses[f"q-{name}"] = q_value(F, F.shape.barycenter())[1]
    commands.append(["id", "compute", "--meas", meas["identity"],
                     "--at", "1/3,2/3,1/4,3/4"])
    point_meas = {"space": point, "shape": [1, 2],
                  "effects": {"0,0": ["1/3"], "0,1": ["2/3"], "1,0": ["1/2"],
                              "1,1": ["1/4"], "1,2": ["1/4"]}}
    path = put("meas-point.json", json.dumps(point_meas))
    commands += [["compat", "check", "--meas", path],
                 ["id", "compute", "--meas", path, "--search"],
                 ["id", "compute", "--meas", path, "--at", "barycenter"]]
    # the square's vertices in outcome order: (0,0), (0,1), (1,0), (1,1)
    base = json.loads(sz.dumps(ident))
    effects = base["effects"]
    malformed = {"missing-key": {k: v for k, v in effects.items() if k != "1,1"},
                 "short-values": {**effects, "0,0": effects["0,0"][:3]},
                 "negative-value": {**effects, "0,0": ["-1/2", "1", "0", "1"],
                                    "0,1": ["3/2", "0", "1", "0"]},
                 "input-sum-not-1": {**effects, "0,0": ["1/2"] * 4, "0,1": ["1/4"] * 4},
                 "not-affine": {**effects, "0,0": ["1", "0", "0", "0"],
                                "0,1": ["0", "1", "1", "1"]}}
    for name, table in malformed.items():
        path = put(f"meas-edit-{name}.json", json.dumps({**base, "effects": table}))
        commands.append(["compat", "check", "--meas", path])
    # cube:3's vertices in outcome order, (0,0,0) first: input 0 reads 1
    # at (0,0,0) alone, a state at every vertex but not affine on K
    cube = json.loads(sz.dumps(identity_collection(PolySimplex((1, 1, 1)))))
    cube["effects"] = {**cube["effects"], "0,0": ["1"] + ["0"] * 7,
                       "0,1": ["0"] + ["1"] * 7}
    commands.append(["compat", "check", "--meas",
                     put("meas-edit-cube-not-affine.json", json.dumps(cube))])

    for t in range(3):
        witnesses[f"random-{t}"] = random_witness_map(P, sq, rng)
    witnesses["random-21"] = random_witness_map(A, spaces["poly:2,1"], rng)
    for name, W in witnesses.items():
        path = put(f"witness-{name}.json", W)
        commands += [["witness", action, "--witness", path]
                     for action in ("test", "etb", "extremal")]
    for name in ("random-0", "random-21"):
        W = witnesses[name]
        top = W.shape.top
        moved = {**W.vertex_images,
                 top: la.vec_add(W.top_image, W.space.interior_point())}
        path = put(f"witness-moved-{name}.json", WitnessMap(W.shape, W.space, moved))
        commands.append(["witness", "test", "--witness", path])

    ybox = put("box-y.json", box_from_tensor(P, P, y))
    pairs = [("identity", "identity"), ("identity", "random-1"), ("coin", "identity"),
             ("random-3", "random-2")]
    prbox = put("box-pr-y.json", pr_box())
    for a, b in pairs:
        pair = ["--meas-a", meas[a], "--meas-b", meas[b]]
        commands += [["bell", "bound", *pair], ["bell", "bound", *pair, "--y-box", ybox],
                     ["bell", "bound", *pair, "--y-box", prbox, "--idx", "1,0,1"]]
    for name in ("identity", "random-3", "coin"):
        commands.append(["bell", "bound", "--meas-a", meas[name], "--equality"])

    channels = {"cc": cc_channel(StochasticMatrix([(rat(1, 4), rat(3, 4)), (R1, rat(0))])),
                "section": section_S(A, A.barycenter()),
                "hadamard": unitary_choi([[2 ** -0.5, 2 ** -0.5], [2 ** -0.5, -2 ** -0.5]])}
    for name, phi in channels.items():
        path = put(f"channel-{name}.json", phi)
        commands.append(["channel", "retract", "--channel", path])
    commands += [["channel", "retract", "--channel", put("channel-section-11.json",
                                                        section_S(P, P.barycenter())),
                  "--shape", "1,1"],
                 ["channel", "section", "--shape", "1,1"],
                 ["channel", "section", "--shape", "2,1", "--at", "1/2,1/4,1/4,1/3,2/3"],
                 ["channel", "section", "--shape", "2"]]

    commands += [["qubit", "tsirelson"], ["qubit", "id", "--mub"],
                 ["qubit", "feasible", "--mub"],
                 ["qubit", "id", "--a", "0.5,0.3,0,0.2", "--b", "0.5,0,0.4,0.1"],
                 ["qubit", "feasible", "--a", "0.5,0.3,0,0.2", "--b", "0.5,0,0.4,0.1"],
                 ["qubit", "feasible", "--a", "0.5,0.1,0,0", "--b", "0.5,0,0.1,0"]]
    commands += [["--seed", "0", "demo"], ["--seed", "1", "demo"]]
    return commands


def run_tree(src: pathlib.Path, argv, cwd):
    """(exit code, sha256 of stdout, stderr) of one command on one tree."""
    proc = subprocess.run([sys.executable, "-m", "polybox", *argv], capture_output=True,
                          cwd=cwd, env={**os.environ, "PYTHONPATH": str(src)},
                          timeout=600)
    return (proc.returncode, hashlib.sha256(proc.stdout).hexdigest(),
            proc.stderr.decode(errors="replace").strip())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git revision of the base tree")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        base, inputs = tmp / "base", tmp / "inputs"
        base.mkdir()
        inputs.mkdir()
        archive = subprocess.run(["git", "archive", args.base], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
        commands = write_inputs(inputs)
        expected = json.loads(EXITS.read_text())
        diffs, notes, wrong, codes = [], [], [], Counter()
        shown_all = []
        for cmd in commands:
            old = run_tree(base / "src", cmd, inputs)
            new = run_tree(ROOT / "src", cmd, inputs)
            codes[old[0]] += 1
            shown = " ".join(pathlib.Path(a).name if a.startswith(str(tmp)) else a
                             for a in cmd)
            shown_all.append(shown)
            if old[:2] != new[:2]:
                diffs.append((shown, old, new))
            elif old[0] == 2 and old[2] != new[2]:
                notes.append((shown, old[2], new[2]))
            if expected.get(shown) != new[0]:
                wrong.append((shown, expected.get(shown), new[0]))
        unused = sorted(set(expected) - set(shown_all))
        print(f"{len(commands)} commands on {args.base} and the working tree; exit codes "
              f"on {args.base}: " + ", ".join(f"{c}: {n}" for c, n in sorted(codes.items())))
        for shown, old, new in diffs:
            print(f"DIFF {shown}: exit {old[0]} -> {new[0]}, "
                  f"stdout {old[1][:12]} -> {new[1][:12]}")
            for side, err in (("base", old[2]), ("work", new[2])):
                if err:
                    print(f"     {side} stderr: {err.splitlines()[-1]}")
        for shown, old, new in notes:
            print(f"note {shown}: exit 2 on both; stderr {old!r} -> {new!r}")
        for shown, want, got in wrong:
            print(f"EXIT {shown}: expected {want}, working tree {got}")
        for shown in unused:
            print(f"UNUSED {shown}: in {EXITS.name} but not in the corpus")
        print(f"{len(diffs)} differ in exit code or stdout; "
              f"{len(notes)} exit 2 on both with another message; "
              f"{len(wrong)} differ from {EXITS.name}, {len(unused)} entries unused")
    return 1 if diffs or wrong or unused else 0


if __name__ == "__main__":
    sys.exit(main())
