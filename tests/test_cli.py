"""Command-line surface: schemas, exit codes, determinism."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import wpimod

from wpimod import (
    Pyramid, RelationSet, gt_module, standard_set, tableau_to_json, yangian_tensor,
)
from wpimod import cli
from wpimod.cli import MAX_BUDGET, MAX_EXPONENT, MAX_INSTANTIATIONS, run
from wpimod.gt_module import MAX_WINDOW_MEMBERS, BasisWindow, enumerate_basis
from wpimod.tableau import TableauDelta

from helpers import (
    GL2,
    GL3,
    bad_pattern_upper,
    fan_gl5,
    gl2_tableau,
    rel,
    spread_seed,
    standard_gl2,
)
from test_gt_module import _window_corpus, reducible_gl3_pair


def write_relations(tmp_path, name, C):
    obj = {"v": 1, "pyramid": C.pyramid.to_json(), **C.to_json()}
    p = tmp_path / name
    p.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return str(p)


def write_tableau(tmp_path, name, l):
    obj = {"v": 1, **tableau_to_json(l)}
    p = tmp_path / name
    p.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return str(p)


def write_weights(tmp_path, name, weights):
    obj = {"v": 1, "weights": [[str(x) for x in w] for w in weights]}
    p = tmp_path / name
    p.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return str(p)


def invoke(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert out.endswith("\n")
    return code, json.loads(out)


def test_check_admissible_standard(tmp_path, capsys):
    path = write_relations(tmp_path, "s.json", standard_gl2())
    code, report = invoke(capsys, ["check-admissible", "--relations", path])
    assert code == 0
    assert report["admissible"] is True
    assert report["v"] == 1


def test_check_admissible_negative(tmp_path, capsys):
    path = write_relations(tmp_path, "bad.json", bad_pattern_upper())
    code, report = invoke(capsys, ["check-admissible", "--relations", path])
    assert code == 3
    assert report["admissible"] is False
    assert report["certificate"]["reason"] == "unbridged"


def test_malformed_json_reports_position(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"v": 1,\n  "edges": [}\n', encoding="utf-8")
    code, report = invoke(capsys, ["check-admissible", "--relations", str(p)])
    assert code == 4
    assert "line 2" in report["error"] and "column" in report["error"]


def test_missing_file_and_bad_version(tmp_path, capsys):
    code, report = invoke(
        capsys, ["check-admissible", "--relations", str(tmp_path / "none.json")]
    )
    assert code == 4 and "not found" in report["error"]
    p = tmp_path / "v0.json"
    p.write_text('{"v": 2, "edges": []}\n', encoding="utf-8")
    code, report = invoke(capsys, ["check-admissible", "--relations", str(p)])
    assert code == 4 and '"v": 1' in report["error"]


def test_a_directory_as_an_input_file_is_input_error(tmp_path, capsys):
    # reading a directory fails with an OSError other than a missing file;
    # each of the three loaders reports it as one line naming the file
    relations = write_relations(tmp_path, "s.json", standard_gl2())
    folder = str(tmp_path)
    for argv in (["check-admissible", "--relations", folder],
                 ["enumerate-basis", "--relations", relations, "--tableau", folder],
                 ["tensor-check", "--weights", folder]):
        code = run(argv)
        out = capsys.readouterr().out
        assert code == 4, argv
        assert out.count("\n") == 1 and out.endswith("\n"), argv
        report = json.loads(out)
        assert set(report) == {"v", "error"} and report["v"] == 1, argv
        assert report["error"].startswith(f"cannot read {folder}: "), argv


def test_reduce_drops_implied_edge(tmp_path, capsys):
    S = standard_gl2()
    from wpimod import RelationSet

    C = RelationSet(GL2, list(S.edges) + [rel((1, 2, 1), (1, 2, 2), False)])
    path = write_relations(tmp_path, "c.json", C)
    code, report = invoke(capsys, ["reduce", "--relations", path])
    assert code == 0
    assert report["edges"] == S.to_json()["edges"]


def test_reduce_rejects_unsatisfiable_set(tmp_path, capsys):
    from wpimod import RelationSet

    C = RelationSet(GL3, [rel((1, 2, 1), (1, 3, 1), True),
                          rel((1, 3, 1), (1, 2, 1), False)])
    path = write_relations(tmp_path, "u.json", C)
    code, report = invoke(capsys, ["reduce", "--relations", path])
    assert code == 4
    assert report == {"v": 1, "error": "relation set is unsatisfiable"}


def test_rr_remove(tmp_path, capsys):
    path = write_relations(tmp_path, "s.json", standard_gl2())
    code, report = invoke(
        capsys, ["rr-remove", "--relations", path, "--triple", "1,2,2"]
    )
    assert code == 0
    assert len(report["edges"]) == 1
    code, report = invoke(
        capsys, ["rr-remove", "--relations", path, "--triple", "1,1,1"]
    )
    assert code == 4  # interior triple is not extremal


def test_enumerate_basis(tmp_path, capsys):
    rels = write_relations(tmp_path, "s.json", standard_gl2())
    tab = write_tableau(tmp_path, "l.json", gl2_tableau(2, -1, 1))
    code, report = invoke(
        capsys,
        ["enumerate-basis", "--relations", rels, "--tableau", tab, "--radius", "2"],
    )
    assert code == 0
    assert report["count"] == 3


def test_enumerate_basis_prints_keys_from_coordinates(tmp_path, capsys, monkeypatch):
    # the gl_4 radius-3 window of the module benchmark pool (800 members):
    # every key is read off the coordinates, no shift is built, and the
    # bytes are the ones recorded when each member was a shift
    built = []
    shift, normal = BasisWindow.shift, TableauDelta._normal
    monkeypatch.setattr(BasisWindow, "shift", lambda self, c: built.append(c) or shift(self, c))
    monkeypatch.setattr(
        TableauDelta, "_normal", classmethod(lambda cls, o: built.append(o) or normal(o))
    )
    S = standard_set(Pyramid((1, 1, 1, 1)))
    rels = write_relations(tmp_path, "s.json", S)
    tab = write_tableau(tmp_path, "t.json", spread_seed(S, 9))
    start = time.perf_counter()
    code = run(["enumerate-basis", "--relations", rels, "--tableau", tab, "--radius", "3"])
    assert time.perf_counter() - start < 10
    out = capsys.readouterr().out
    assert code == 0 and built == []
    assert json.loads(out)["count"] == 800
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8bb97b2233dc19c63cbe9a564229cb8b522b1b54568620620ed4b267f3af2593"
    )


def test_enumerate_basis_seeds_a_top_row_fan(tmp_path, capsys):
    rels = write_relations(tmp_path, "fan.json", fan_gl5())
    code = run(["enumerate-basis", "--relations", rels, "--radius", "0"])
    assert code == 0
    assert capsys.readouterr().out == (
        '{"command":"enumerate-basis","count":1,"members":[[]],"radius":0,"v":1}\n'
    )


def test_enumerate_basis_renders_the_bytes_json_writes_for_the_keys(tmp_path, capsys):
    # radius 0 (the seed alone, `[[]]`), negative offsets and multi-layer
    # pyramids: the members are rendered from coordinates, and the line is
    # json.dumps of the report whose members are the shifts' key tuples.  On
    # the corpus's pyramids `free` lists the triples in `TriIndex` order; on
    # (2, 2, 2) and (2, 2, 3) it does not, and the keys follow `TriIndex`.
    reordered = [standard_set(Pyramid(rows)) for rows in [(2, 2, 2), (2, 2, 3)]]
    extra = [(S, spread_seed(S), radius) for S in reordered for radius in (1, 2)]
    cases = 0
    for C, seed, radius in itertools.chain(_window_corpus(), extra):
        rels = write_relations(tmp_path, "c.json", C)
        tab = write_tableau(tmp_path, "t.json", seed)
        code = run(["enumerate-basis", "--relations", rels, "--tableau", tab,
                    "--radius", str(radius)])
        window = enumerate_basis(C, seed, radius)
        report = {"command": "enumerate-basis", "count": len(window.members),
                  "members": [d.key() for d in window.members], "radius": radius, "v": 1}
        want = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
        assert (code, capsys.readouterr().out) == (0, want), (C, seed, radius)
        cases += 1
    assert cases >= 200


def test_enumerate_basis_at_a_huge_radius_is_instant(tmp_path, capsys):
    # nothing is sized by the radius: a 3-member window at radius 10^9
    rels = write_relations(tmp_path, "s.json", standard_gl2())
    tab = write_tableau(tmp_path, "l.json", gl2_tableau(2, -1, 1))
    start = time.perf_counter()
    code = run(["enumerate-basis", "--relations", rels, "--tableau", tab,
                "--radius", "1000000000"])
    assert time.perf_counter() - start < 1
    assert code == 0 and capsys.readouterr().out == (
        '{"command":"enumerate-basis","count":3,"members":[[],[[[1,1,1],-1]],[[[1,1,1],1]]],'
        '"radius":1000000000,"v":1}\n'
    )


def test_verify_relations_pass_and_overflow(tmp_path, capsys):
    rels = write_relations(tmp_path, "s.json", standard_gl2())
    tab = write_tableau(tmp_path, "l.json", gl2_tableau(2, -1, 1))
    base = ["verify-relations", "--relations", rels, "--tableau", tab,
            "--budget", "2", "--instantiations", "1"]
    code, report = invoke(capsys, base + ["--radius", "2"])
    assert code == 0 and report["passes"] is True
    code, report = invoke(capsys, base + ["--radius", "1"])
    assert code == 5 and "overflow" in report


def test_irreducible_exit_codes(tmp_path, capsys):
    rels = write_relations(tmp_path, "s.json", standard_gl2())
    tab = write_tableau(tmp_path, "l.json", gl2_tableau(2, -1, 0))
    code, report = invoke(capsys, ["irreducible", "--relations", rels, "--tableau", tab])
    assert code == 0 and report["irreducible"] is True
    C, l = reducible_gl3_pair()
    rels = write_relations(tmp_path, "c3.json", C)
    tab = write_tableau(tmp_path, "l3.json", l)
    code, report = invoke(capsys, ["irreducible", "--relations", rels, "--tableau", tab])
    assert code == 3 and report["irreducible"] is False


def test_irreducible_rejects_unsatisfiable_set(tmp_path, capsys):
    from wpimod import RelationSet

    C = RelationSet(GL3, [rel((1, 2, 1), (1, 3, 1), True),
                          rel((1, 3, 1), (1, 2, 1), False)])
    _, l = reducible_gl3_pair()
    rels = write_relations(tmp_path, "u.json", C)
    tab = write_tableau(tmp_path, "l.json", l)
    code, report = invoke(capsys, ["irreducible", "--relations", rels, "--tableau", tab])
    assert code == 4
    assert report == {"v": 1, "error": "relation set is unsatisfiable"}


def test_tensor_check(tmp_path, capsys):
    from fractions import Fraction

    path = write_weights(tmp_path, "w.json", [(1, 0), (1, 0)])
    code, report = invoke(
        capsys, ["tensor-check", "--weights", path, "--depth", "1",
                 "--mode", "integral"]
    )
    assert code == 0
    assert report["conditions"]["integral"] is True
    assert report["only_top_line"] is True
    bad = write_weights(
        tmp_path, "bad.json", [(1, 0), (3, 1)]
    )
    code, report = invoke(
        capsys, ["tensor-check", "--weights", bad, "--depth", "2",
                 "--mode", "integral"]
    )
    assert code == 3
    assert report["conditions"]["integral"] is False
    assert report["singular_dimensions"]["1"] >= 1


def test_tensor_check_integral_condition_reads_the_points(tmp_path, capsys):
    # gl_2 dominant pairs in [-1, 2]^2, the second weight at point b in
    # [-3, 3], in both factor orders, at full depth: a factor of weight w at
    # point a is the factor of weight w - a at 0 up to a scalar series, so
    # an integral condition that holds is a product with only the top line
    weights = [w for w in itertools.product(range(-1, 3), repeat=2) if w[0] >= w[1]]
    claims = 0
    for lam, mu, b in itertools.product(weights, weights, range(-3, 4)):
        depth = lam[0] - lam[1] + mu[0] - mu[1]
        for factors, points in (((lam, mu), (0, b)), ((mu, lam), (b, 0))):
            path = tmp_path / "w.json"
            path.write_text(json.dumps({
                "v": 1, "weights": [[str(x) for x in w] for w in factors],
                "points": [str(p) for p in points],
            }))
            code, report = invoke(capsys, ["tensor-check", "--weights", str(path),
                                           "--depth", str(depth), "--mode", "integral"])
            assert code == (0 if report["only_top_line"] else 3)
            if report["conditions"]["integral"]:
                claims += 1
                assert report["only_top_line"], (factors, points)
    # 1,216 of the 1,400 products; read with no point, the condition claims
    # 1,260, and 68 of them are reducible
    assert claims == 1216


def test_tensor_check_five_generic_gl2_factors_is_clean(tmp_path, capsys):
    # the paper: any number of generic factors gives an irreducible product
    path = write_weights(tmp_path, "five.json", [
        ("1/3", "1/7"), ("2/5", "1/11"), ("1/13", "3/7"), ("5/3", "2/9"), ("1/17", "4/5"),
    ])
    code = run(["tensor-check", "--weights", path, "--depth", "1"])
    assert code == 0
    assert capsys.readouterr().out == (
        '{"command":"tensor-check","conditions":{"generic":true},"depth":1,'
        '"mode":"generic","only_top_line":true,"singular_dimensions":{"0":1,"1":0},"v":1}\n'
    )


def test_reports_are_byte_identical(tmp_path, capsys):
    rels = write_relations(tmp_path, "s.json", standard_gl2())
    tab = write_tableau(tmp_path, "l.json", gl2_tableau(2, -1, 1))
    argv = ["verify-relations", "--relations", rels, "--tableau", tab,
            "--radius", "2", "--budget", "2", "--instantiations", "2",
            "--seed", "7"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    second = capsys.readouterr().out
    assert first == second


def test_non_object_top_level_is_input_error(tmp_path, capsys):
    rels = write_relations(tmp_path, "s.json", standard_gl2())
    p = tmp_path / "list.json"
    p.write_text("[1, 2]\n", encoding="utf-8")
    for argv in (
        ["check-admissible", "--relations", str(p)],
        ["enumerate-basis", "--relations", rels, "--tableau", str(p)],
        ["tensor-check", "--weights", str(p)],
    ):
        code, report = invoke(capsys, argv)
        assert code == 4 and "JSON object" in report["error"]


def _edited_relations(tmp_path, edit):
    obj = {"v": 1, "pyramid": GL2.to_json(), **standard_gl2().to_json()}
    edit(obj)
    p = tmp_path / "edited.json"
    p.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return str(p)


def test_strict_must_be_boolean(tmp_path, capsys):
    path = _edited_relations(tmp_path, lambda o: o["edges"][0].update(strict="false"))
    code, report = invoke(capsys, ["check-admissible", "--relations", path])
    assert code == 4 and "strict" in report["error"]


def test_version_must_be_integer_one(tmp_path, capsys):
    path = _edited_relations(tmp_path, lambda o: o.update(v=True))
    code, report = invoke(capsys, ["check-admissible", "--relations", path])
    assert code == 4 and '"v": 1' in report["error"]


def test_row_lengths_must_be_integers(tmp_path, capsys):
    path = _edited_relations(tmp_path, lambda o: o.update(pyramid={"rows": [1, 1.5]}))
    code, report = invoke(capsys, ["check-admissible", "--relations", path])
    assert code == 4 and "integers" in report["error"]


def test_tensor_check_report_has_no_threads_field(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("WPI_THREADS", "4")
    path = write_weights(tmp_path, "w.json", [(1, 0), (1, 0)])
    code, report = invoke(capsys, ["tensor-check", "--weights", path, "--depth", "1"])
    assert code == 0 and "threads" not in report


@pytest.mark.parametrize("command, option, value", [
    ("verify-relations", "--instantiations", "0"),
    ("verify-relations", "--instantiations", "-1"),
    ("verify-relations", "--budget", "0"),
    ("verify-relations", "--budget", "-1"),
    ("verify-relations", "--budget", "1000000"),
    ("verify-relations", "--instantiations", "1000000"),
    ("verify-relations", "--radius", "-1"),
    ("tensor-check", "--depth", "-1"),
    ("enumerate-basis", "--radius", "-3"),
])
def test_out_of_range_numbers_are_input_errors(tmp_path, capsys, command, option, value):
    if command == "tensor-check":
        inputs = ["--weights", write_weights(tmp_path, "w.json", [(1, 0), (1, 0)])]
    else:
        inputs = ["--relations", write_relations(tmp_path, "s.json", standard_gl2())]
    code, report = invoke(capsys, [command, *inputs, option, value])
    assert code == 4 and set(report) == {"v", "error"}
    assert option in report["error"] and f"{value} is not in the range" in report["error"]


@pytest.mark.parametrize("option, cap", [
    ("--instantiations", MAX_INSTANTIATIONS),
    ("--budget", MAX_BUDGET),
])
def test_verify_relations_input_bounds(tmp_path, capsys, option, cap):
    path = write_relations(tmp_path, "s.json", standard_gl2())
    argv = ["verify-relations", "--relations", path]
    code, report = invoke(capsys, [*argv, option, str(cap + 1)])
    assert code == 4 and set(report) == {"v", "error"}
    assert option in report["error"] and f"<={cap}" in report["error"]
    code, report = invoke(capsys, [*argv, option, str(cap)])
    assert code == 0 and report[option[2:]] == cap


def test_tableau_on_another_pyramid_is_input_error(tmp_path, capsys):
    rel_path = write_relations(tmp_path, "gl3.json", standard_set(GL3))
    tab_path = write_tableau(tmp_path, "gl2.json", gl2_tableau(2, -1, 0))
    for command in ("enumerate-basis", "verify-relations", "irreducible"):
        code, report = invoke(
            capsys, [command, "--relations", rel_path, "--tableau", tab_path]
        )
        assert code == 4, command
        assert set(report) == {"v", "error"}, command


@pytest.mark.parametrize("command", ["enumerate-basis", "verify-relations"])
def test_window_past_member_cap_is_input_error(tmp_path, capsys, command):
    # every shift of the 21^6-point box satisfies the empty set on gl_4
    path = write_relations(tmp_path, "empty.json", RelationSet(Pyramid((1, 1, 1, 1)), []))
    code, report = invoke(capsys, [command, "--relations", path, "--radius", "10"])
    assert code == 4
    assert set(report) == {"v", "error"}
    assert report["error"] == f"basis window has more than {MAX_WINDOW_MEMBERS} members"


@pytest.mark.parametrize("command", ["enumerate-basis", "verify-relations"])
@pytest.mark.parametrize("rows", [(1, 1, 1), (1, 1, 1, 1), (2, 2, 2)], ids=str)
def test_window_past_member_cap_at_a_huge_radius_is_instant(tmp_path, capsys, command, rows):
    # the empty set keeps every box point, so the first interval listed is
    # 2 * 10^9 + 1 values long: it is counted against the cap, never listed
    path = write_relations(tmp_path, "empty.json", RelationSet(Pyramid(rows), []))
    start = time.perf_counter()
    code, report = invoke(capsys, [command, "--relations", path, "--radius", "1000000000"])
    assert time.perf_counter() - start < 1
    assert code == 4
    assert report == {"v": 1, "error": f"basis window has more than {MAX_WINDOW_MEMBERS} members"}


def test_tensor_depth_past_member_cap_is_input_error(tmp_path, capsys, monkeypatch):
    # a generic gl_2 factor is infinite-dimensional: depth 5 has 6 basis shifts,
    # and the tensor product of two such factors has 21 keys of depth <= 5; a
    # factor's window stops at the windows' cap, the tensor basis at its own
    one = write_weights(tmp_path, "one.json", [("1/3", "1/7")])
    two = write_weights(tmp_path, "two.json", [("1/3", "1/7"), ("1/5", "1/2")])
    for path, layer, size, error in ((one, gt_module, 6, "basis window"),
                                     (two, yangian_tensor, 21, "tensor basis")):
        argv = ["tensor-check", "--weights", path, "--depth", "5"]
        with monkeypatch.context() as patch:
            patch.setattr(layer, "MAX_WINDOW_MEMBERS", size)
            code, report = invoke(capsys, argv)
            assert code == 0 and report["only_top_line"] is True
            patch.setattr(layer, "MAX_WINDOW_MEMBERS", size - 1)
            code, report = invoke(capsys, argv)
        assert code == 4
        assert report == {"v": 1, "error": f"{error} has more than {size - 1} members"}


def test_tensor_depth_past_the_tensor_basis_cap_is_input_error_quickly(tmp_path, capsys):
    # four generic gl_2 factors have C(41, 4) = 101,270 keys of depth <= 37,
    # while each factor has 38 shifts: the whole depth's basis is refused
    # before any weight space is probed
    path = write_weights(tmp_path, "w.json", [("1/3", "1/7"), ("1/5", "1/2"),
                                              ("2/9", "0"), ("1/11", "3/4")])
    start = time.perf_counter()
    code, report = invoke(capsys, ["tensor-check", "--weights", path, "--depth", "37"])
    assert time.perf_counter() - start < 5.0
    assert code == 4
    assert report == {"v": 1, "error": f"tensor basis has more than {MAX_WINDOW_MEMBERS} members"}


def test_tensor_depth_past_the_weight_space_cap_is_input_error_quickly(tmp_path, capsys):
    # a finite-dimensional pair never reaches the member caps, so only the
    # count of root offsets, depth + 1 on gl_2, bounds its depth
    path = write_weights(tmp_path, "w.json", [("1", "0"), ("1", "0")])
    start = time.perf_counter()
    code, report = invoke(capsys, ["tensor-check", "--weights", path, "--depth", "1000000000"])
    assert time.perf_counter() - start < 5.0
    assert code == 4 and set(report) == {"v", "error"}
    cap = yangian_tensor.MAX_WEIGHT_SPACES
    assert report["error"] == f"depth 1000000000 has more than {cap} root offsets for gl_2"


@pytest.mark.parametrize("argv, body, error", [
    (["enumerate-basis", "--radius", "0"], {"pyramid": {"rows": [1] * 45}, "edges": []},
     "pyramid has more than 500 triples"),
    (["tensor-check", "--depth", "1"], {"weights": [[f"1/{p}" for p in range(2, 47)]]},
     "pyramid has more than 500 triples"),
    (["tensor-check", "--depth", "1"], {"weights": [["1/3", "1/5"]] * 1200},
     "tensor product has more than 64 factors"),
    (["verify-relations"], {"pyramid": {"rows": [5000]}, "edges": []},
     "pyramid has more than 500 triples"),
    (["verify-relations"], {"pyramid": {"rows": [200000]}, "edges": []},
     "pyramid has more than 500 triples"),
], ids=["gl45-window", "gl45-weight", "1200-factors", "rows-5000", "rows-200000"])
def test_oversized_inputs_are_input_errors_quickly(tmp_path, capsys, argv, body, error):
    # each of these once recursed past the interpreter's limit or ran for minutes
    p = tmp_path / "big.json"
    p.write_text(json.dumps({"v": 1, **body}) + "\n", encoding="utf-8")
    option = "--weights" if argv[0] == "tensor-check" else "--relations"
    start = time.perf_counter()
    code, report = invoke(capsys, argv + [option, str(p)])
    assert time.perf_counter() - start < 10.0
    assert code == 4 and set(report) == {"v", "error"}
    assert report["error"].endswith(error)


def test_tensor_factor_count_is_checked_before_any_factor(tmp_path, capsys, monkeypatch):
    # the count error wins over a weight that no factor can be built from
    # ([0, 1] is critical), and no pair of weights is compared
    def refuse(*args):
        raise AssertionError("an oversized product reached its factors")

    # tensor-check imports both from its layer when it runs
    monkeypatch.setattr(yangian_tensor, "is_generic", refuse)
    monkeypatch.setattr(yangian_tensor, "EvaluationFactor", refuse)
    path = write_weights(tmp_path, "w.json", [("0", "1")] + [("1/3", "1/5")] * 1200)
    code, report = invoke(capsys, ["tensor-check", "--weights", path, "--depth", "1"])
    assert code == 4
    assert report == {"v": 1, "error": "tensor product has more than 64 factors"}


def test_a_critical_weight_is_refused_alike_on_every_run(tmp_path, capsys):
    # a weight whose factor fails is never stored, so each run in one process
    # builds it afresh and prints the same bytes
    path = write_weights(tmp_path, "w.json", [("0", "1"), ("1", "0")])
    for _ in range(3):
        assert run(["tensor-check", "--weights", path]) == 4
        assert capsys.readouterr().out == (
            '{"error":"weight [\'0\', \'1\'] has no factor: tableau is critical","v":1}\n'
        )


def test_a_weight_that_is_not_good_is_refused(tmp_path, capsys):
    # its carrier would break the gl_3 relations, so it is no factor at all
    path = write_weights(tmp_path, "w.json", [("-2", "0", "-1")])
    assert run(["tensor-check", "--weights", path]) == 4
    assert capsys.readouterr().out == (
        '{"error":"weight [\'-2\', \'0\', \'-1\'] is not good","v":1}\n'
    )


@pytest.mark.parametrize("body", [
    {"weights": [["1/0", "0"], ["1", "0"]]},
    {"weights": [["1", "0"], ["1", "0"]], "points": ["0", "1/0"]},
    {"weights": [["1", "0"], ["1", "0"]], "points": "01"},
    {"weights": ["10", ["1", "0"]]},
    {"weights": "10"},
    # Fraction would expand these exponents exactly; "1e100000000" takes minutes
    {"weights": [[f"1e{MAX_EXPONENT + 1}", "0"], ["1", "0"]]},
    {"weights": [["1", "0"], ["1", "0"]], "points": ["0", f"2.5E-{MAX_EXPONENT + 1}"]},
    {"weights": [[f"1e+000{MAX_EXPONENT + 1}", "0"], ["1", "0"]]},
    {"weights": [["1e100000000", "0"], ["1", "0"]]},
], ids=["zero-denominator-weight", "zero-denominator-point", "points-string",
        "weight-string", "weights-string", "exponent-weight", "exponent-point",
        "padded-exponent-weight", "exponent-1e100000000"])
def test_malformed_weights_are_input_errors(tmp_path, capsys, body):
    p = tmp_path / "w.json"
    p.write_text(json.dumps({"v": 1, **body}) + "\n", encoding="utf-8")
    start = time.perf_counter()
    code, report = invoke(capsys, ["tensor-check", "--weights", str(p), "--depth", "1"])
    assert time.perf_counter() - start < 30
    assert code == 4
    assert set(report) == {"v", "error"}


@pytest.mark.parametrize("body, text", [
    ({"weights": [["1/0", "0"], ["1", "0"]]}, "1/0"),
    ({"weights": [["1", "0"], ["1", "0"]], "points": ["0", "-3/00"]}, "-3/00"),
], ids=["weight", "point"])
def test_a_zero_denominator_names_its_text(tmp_path, capsys, body, text):
    p = tmp_path / "w.json"
    p.write_text(json.dumps({"v": 1, **body}) + "\n", encoding="utf-8")
    code, report = invoke(capsys, ["tensor-check", "--weights", str(p), "--depth", "1"])
    assert code == 4
    assert report == {"v": 1, "error": f"{p}: '{text}' has a zero denominator"}


_MIXED_RANKS = {"weights": [["1", "0"], ["1", "0", "0"]]}


@pytest.mark.parametrize("argv, body, error", [
    (["tensor-check"], {"weights": [["1", "0"], ["1", "0"]], "points": ["0"]},
     "{path}: need one evaluation point per weight"),
    (["tensor-check", "--mode", "integral"], {"weights": [["1", "0"]] * 3},
     "integral mode needs exactly two weights"),
    (["tensor-check"], {"weights": []}, "need at least one factor"),
    (["tensor-check"], _MIXED_RANKS, "all factors must share the same rank"),
    (["tensor-check", "--mode", "integral"], _MIXED_RANKS, "weights must have the same length"),
    (["tensor-check"], {"weights": [[]]}, "{path}: weight needs at least one entry"),
    (["check-admissible"],
     {"pyramid": {"rows": [1, 1]},
      "edges": [{"greater": {"k": 1, "i": 9, "j": 1}, "lesser": {"k": 1, "i": 2, "j": 1},
                 "strict": False}]},
     "{path}: relation Relation(greater=TriIndex(k=1, i=9, j=1), lesser=TriIndex(k=1, i=2, "
     "j=1), strict=False) is not an allowed pattern"),
    (["rr-remove", "--triple", "1,2"], {"pyramid": {"rows": [1, 1]}, "edges": []},
     "bad triple '1,2'; expected k,i,j"),
    (["check-admissible"], {"pyramid": {"rows": []}, "edges": []},
     "{path}: pyramid needs at least one row"),
], ids=["fewer-points", "integral-three", "no-weights", "mixed-ranks", "integral-mixed-ranks",
        "empty-weight", "triple-off-the-pyramid", "bad-triple", "no-rows"])
def test_each_input_error_exits_4_with_its_message(tmp_path, capsys, argv, body, error):
    p = tmp_path / "in.json"
    p.write_text(json.dumps({"v": 1, **body}) + "\n", encoding="utf-8")
    option = "--weights" if argv[0] == "tensor-check" else "--relations"
    assert run(argv + [option, str(p)]) == 4
    message = json.dumps(error.format(path=p))
    assert capsys.readouterr().out == f'{{"error":{message},"v":1}}\n'


@pytest.mark.parametrize("kind", ["relations", "tableau", "weights"])
def test_integer_literal_past_the_digit_limit_is_input_error(tmp_path, capsys, kind):
    # json.load raises a plain ValueError, not JSONDecodeError, past 4,300 digits
    p = tmp_path / "huge.json"
    p.write_text('{"v": 1, "n": ' + "9" * 5000 + "}\n", encoding="utf-8")
    rels = write_relations(tmp_path, "s.json", standard_gl2())
    argv = {
        "relations": ["check-admissible", "--relations", str(p)],
        "tableau": ["enumerate-basis", "--relations", rels, "--tableau", str(p)],
        "weights": ["tensor-check", "--weights", str(p)],
    }[kind]
    start = time.perf_counter()
    code, report = invoke(capsys, argv)
    assert time.perf_counter() - start < 30
    assert code == 4
    assert set(report) == {"v", "error"} and "huge.json" in report["error"]


@pytest.mark.parametrize("kind", ["relations", "tableau", "weights"])
def test_deeply_nested_json_is_input_error(tmp_path, capsys, kind):
    # json.load raises RecursionError, which is not a ValueError
    p = tmp_path / "deep.json"
    depth = 100_000
    p.write_text('{"v": 1, "n": ' + "[" * depth + "]" * depth + "}\n", encoding="utf-8")
    rels = write_relations(tmp_path, "s.json", standard_gl2())
    argv = {
        "relations": ["check-admissible", "--relations", str(p)],
        "tableau": ["enumerate-basis", "--relations", rels, "--tableau", str(p)],
        "weights": ["tensor-check", "--weights", str(p)],
    }[kind]
    start = time.perf_counter()
    code, report = invoke(capsys, argv)
    assert time.perf_counter() - start < 30
    assert code == 4
    assert set(report) == {"v", "error"} and "deep.json" in report["error"]


def test_decimal_exponent_at_the_bound_is_accepted(tmp_path, capsys):
    p = tmp_path / "w.json"
    body = {"weights": [[f"1e00{MAX_EXPONENT}", "0"], ["1", "0"]],
            "points": ["0", f"-1e-{MAX_EXPONENT}"]}
    p.write_text(json.dumps({"v": 1, **body}) + "\n", encoding="utf-8")
    code, report = invoke(capsys, ["tensor-check", "--weights", str(p), "--depth", "1"])
    assert code == 0 and report["only_top_line"] is True


def _duplicate_first_entry(obj):
    obj["entries"].append(dict(obj["entries"][0], offset=obj["entries"][0]["offset"] + 1))


def _set_every_class(cls):
    def edit(obj):
        for e in obj["entries"]:
            e["class"] = cls
    return edit


@pytest.mark.parametrize("command", ["enumerate-basis", "verify-relations", "irreducible"])
@pytest.mark.parametrize("edit", [
    # entries[1] is the top-row triple (1, 2, 1) at offset 0; each bad offset
    # below, read leniently, would still give a tableau satisfying the set
    lambda o: o["entries"][1].update(offset=0.5),
    lambda o: o["entries"][1].update(offset="0"),
    lambda o: o["entries"][1].update(offset=True),
    _set_every_class(["a"]),
    _set_every_class({"a": 1}),
    _duplicate_first_entry,
], ids=["float-offset", "string-offset", "bool-offset", "list-class", "object-class",
        "duplicate-triple"])
def test_malformed_tableau_entries_are_input_errors(tmp_path, capsys, command, edit):
    rels = write_relations(tmp_path, "s.json", standard_gl2())
    obj = {"v": 1, **tableau_to_json(gl2_tableau(2, -1, 1))}
    edit(obj)
    p = tmp_path / "l.json"
    p.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    code, report = invoke(capsys, [command, "--relations", rels, "--tableau", str(p)])
    assert code == 4
    assert set(report) == {"v", "error"}


_NON_INTEGER_TRIPLE_FIELDS = [("k", True), ("k", 1.0), ("i", 2.0), ("j", True)]


@pytest.mark.parametrize("side", ["greater", "lesser"])
@pytest.mark.parametrize("field, value", _NON_INTEGER_TRIPLE_FIELDS)
def test_relation_triples_must_be_integers(tmp_path, capsys, side, field, value):
    # read leniently, true and 1.0 would pass as the index 1 and 2.0 as 2
    path = _edited_relations(tmp_path, lambda o: o["edges"][1][side].update({field: value}))
    code, report = invoke(capsys, ["check-admissible", "--relations", path])
    assert code == 4
    assert set(report) == {"v", "error"} and f'"{field}"' in report["error"]


@pytest.mark.parametrize("field, value", _NON_INTEGER_TRIPLE_FIELDS)
def test_triples_must_be_integers_for_enumerate_basis(tmp_path, capsys, field, value):
    rels = write_relations(tmp_path, "s.json", standard_gl2())
    obj = {"v": 1, **tableau_to_json(gl2_tableau(2, -1, 1))}
    obj["entries"][1][field] = value
    p = tmp_path / "l.json"
    p.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    bad_rels = _edited_relations(tmp_path, lambda o: o["edges"][0]["lesser"].update({field: value}))
    for argv in (["--relations", rels, "--tableau", str(p)], ["--relations", bad_rels]):
        code, report = invoke(capsys, ["enumerate-basis", *argv])
        assert code == 4, argv
        assert set(report) == {"v", "error"} and f'"{field}"' in report["error"]


def _inputs(tmp_path, argv):
    """argv with {relations}, {tableau} and {weights} replaced by small input files."""
    files = {
        "{relations}": lambda: write_relations(tmp_path, "s.json", standard_gl2()),
        "{tableau}": lambda: write_tableau(tmp_path, "l.json", gl2_tableau(2, -1, 1)),
        "{weights}": lambda: write_weights(tmp_path, "w.json", [(1, 0), (1, 0)]),
    }
    return [files[a]() if a in files else a for a in argv]


USAGE_ERRORS = [
    ([], "COMMAND"),
    (["frobnicate"], "frobnicate"),
    (["check-admissible"], "--relations"),
    (["check-admissible", "--relations"], "--relations"),
    (["check-admissible", "--relations", "{relations}", "--frobnicate"], "--frobnicate"),
    (["check-admissible", "--rel", "{relations}"], "--rel"),
    (["verify-relations", "--relations", "{relations}", "--inst", "1"], "--inst"),
    (["verify-relations", "--relations", "{relations}", "--radius", "two"], "--radius"),
    (["verify-relations", "--relations", "{relations}", "--seed", "1.5"], "--seed"),
    (["tensor-check", "--weights", "{weights}", "--mode", "exact"], "--mode"),
    (["rr-remove", "--relations", "{relations}"], "--triple"),
    (["irreducible", "--relations", "{relations}"], "--tableau"),
]


@pytest.mark.parametrize("argv, named", USAGE_ERRORS, ids=[
    "no-command", "unknown-command", "missing-relations", "no-value", "unknown-option",
    "abbreviated-relations", "abbreviated-instantiations", "non-integer-radius",
    "non-integer-seed", "bad-mode", "missing-triple", "missing-tableau"])
def test_usage_errors_are_input_errors(tmp_path, capsys, argv, named):
    code, report = invoke(capsys, _inputs(tmp_path, argv))
    assert code == 4 and set(report) == {"v", "error"}
    assert named in report["error"]


@pytest.mark.parametrize("module, name, argv", [
    ("wpimod.cli", "is_admissible", ["check-admissible", "--relations", "{relations}"]),
    ("wpimod.cli", "reduce_set", ["reduce", "--relations", "{relations}"]),
    ("wpimod.cli", "rr_remove", ["rr-remove", "--relations", "{relations}", "--triple", "1,2,2"]),
    ("wpimod.gt_module", "BasisWindow", ["enumerate-basis", "--relations", "{relations}"]),
    ("wpimod.gt_module", "verify_defining_relations",
     ["verify-relations", "--relations", "{relations}"]),
    ("wpimod.gt_module", "is_irreducible",
     ["irreducible", "--relations", "{relations}", "--tableau", "{tableau}"]),
    ("wpimod.yangian_tensor", "is_generic", ["tensor-check", "--weights", "{weights}"]),
], ids=lambda x: x[0] if isinstance(x, list) else None)
def test_a_library_value_error_is_an_input_error(tmp_path, capsys, monkeypatch,
                                                 module, name, argv):
    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(f"{module}.{name}", boom)
    assert run(_inputs(tmp_path, argv)) == 4
    assert capsys.readouterr().out == '{"error":"boom","v":1}\n'


def test_a_repeated_option_keeps_its_last_value(tmp_path, capsys):
    argv = _inputs(tmp_path, ["enumerate-basis", "--relations", "{relations}",
                              "--tableau", "{tableau}", "--radius", "5", "--radius", "2"])
    code, report = invoke(capsys, argv)
    assert code == 0 and report["radius"] == 2 and report["count"] == 3


HELP = [
    ["--help"],
    ["check-admissible", "--help"],
    ["reduce", "--help"],
    ["rr-remove", "--help"],
    ["enumerate-basis", "--help"],
    ["verify-relations", "-h"],
    ["irreducible", "--help"],
    ["tensor-check", "--help"],
]


@pytest.mark.parametrize("argv", HELP)
def test_help_exits_zero(capsys, argv):
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: wpimod")
    if argv[0] == "--help":
        assert "verify-relations" in out and "tensor-check" in out


DEFAULTS = [
    (["check-admissible", "--relations", "{relations}"], []),
    (["reduce", "--relations", "{relations}"], []),
    (["rr-remove", "--relations", "{relations}", "--triple", "1,2,2"], []),
    (["enumerate-basis", "--relations", "{relations}", "--tableau", "{tableau}"],
     ["--radius", "2"]),
    (["verify-relations", "--relations", "{relations}", "--tableau", "{tableau}"],
     ["--radius", "2", "--budget", "2", "--instantiations", "3", "--seed", "1"]),
    (["irreducible", "--relations", "{relations}", "--tableau", "{tableau}"], []),
    (["tensor-check", "--weights", "{weights}"], ["--depth", "3", "--mode", "generic"]),
]


@pytest.mark.parametrize("argv, defaults", DEFAULTS, ids=[
    "check-admissible", "reduce", "rr-remove", "enumerate-basis", "verify-relations",
    "irreducible", "tensor-check"])
def test_defaults_left_out_equal_defaults_given(tmp_path, capsys, argv, defaults):
    argv = _inputs(tmp_path, argv)
    code = run(argv)
    out = capsys.readouterr().out
    assert code in (0, 3) and out.startswith('{"')
    assert run(argv + defaults) == code
    assert capsys.readouterr().out == out


def _parse_outcome(parse, argv, capsys):
    """What parse(argv) gives: its arguments less "command", an InputError's
    text, or a SystemExit's code with the text printed."""
    try:
        args = dict(parse(argv))
    except cli.InputError as exc:
        return "error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, capsys.readouterr().out
    args.pop("command", None)
    return "args", args


@pytest.mark.parametrize("argv", [argv for argv, _ in USAGE_ERRORS] + HELP + [
    argv + extra for argv, defaults in DEFAULTS for extra in ([], defaults)])
def test_direct_dispatch_equals_the_full_parse(tmp_path, capsys, monkeypatch, argv):
    argv = _inputs(tmp_path, argv)
    full = _parse_outcome(lambda a: vars(cli._PARSER.parse_args(a)), argv, capsys)
    if argv and argv[0] in cli._COMMANDS:  # a command's argv skips the full parse
        monkeypatch.setattr(cli._PARSER, "parse_args", None)
    assert _parse_outcome(cli._parse, argv, capsys) == full


def test_run_reads_sys_argv_without_an_argv(tmp_path, capsys, monkeypatch):
    argv = _inputs(tmp_path, ["check-admissible", "--relations", "{relations}"])
    for args in (argv, argv[:1], []):
        code = run(args)
        out = capsys.readouterr().out
        monkeypatch.setattr(sys, "argv", ["wpimod", *args])
        assert run() == code and capsys.readouterr().out == out
    assert out == '{"error":"the following arguments are required: COMMAND","v":1}\n'


@pytest.mark.parametrize("argv", [
    ["check-admissible", "--relations", "{relations}"],
    ["irreducible", "--relations", "{relations}", "--tableau", "{tableau}"],
    ["tensor-check", "--weights", "{weights}"],
], ids=["relations", "tableau", "weights"])
@pytest.mark.parametrize("encode, error", [
    (lambda text: b"\xef\xbb\xbf" + text.encode(),
     "malformed JSON in {path}: line 1 column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    (lambda text: text.encode().replace(b'"v"', b'"\xff"', 1),
     "unreadable JSON in {path}: 'utf-8' codec can't decode byte 0xff in position 2: "
     "invalid start byte"),
    (lambda text: text.encode("utf-16"),
     "unreadable JSON in {path}: 'utf-8' codec can't decode byte 0xff in position 0: "
     "invalid start byte"),
], ids=["utf-8-bom", "invalid-utf-8", "utf-16"])
def test_inputs_are_strict_utf_8(tmp_path, capsys, argv, encode, error):
    # each file is valid JSON of its kind before it is encoded, and
    # json.loads would read the BOM and UTF-16 files if handed their bytes
    argv = _inputs(tmp_path, argv)
    path = tmp_path / "bad.json"  # the last input, encoded
    path.write_bytes(encode(Path(argv[-1]).read_text(encoding="utf-8")))
    assert run(argv[:-1] + [str(path)]) == 4
    assert capsys.readouterr().out == json.dumps({"error": error.format(path=path), "v": 1},
                                                 separators=(",", ":")) + "\n"


def test_importing_the_cli_loads_no_click():
    src = os.path.dirname(os.path.dirname(wpimod.__file__))
    code = "import sys, wpimod.cli; sys.exit('click' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


# The layers that the relation-set commands never use.
LAZY_LAYERS = ("wpimod.gt_module", "wpimod.supports", "wpimod.yangian_tensor")


def _fresh_process(argv):
    """Import `wpimod` and `wpimod.cli` in a fresh interpreter and, given an
    argv, run it; the exit code (None with no argv) and the LAZY_LAYERS that
    are then in `sys.modules`."""
    src = os.path.dirname(os.path.dirname(wpimod.__file__))
    call = "None" if argv is None else f"wpimod.cli.run({argv!r})"
    code = (
        "import json, sys, wpimod, wpimod.cli\n"
        f"code = {call}\n"
        f"loaded = [m for m in {LAZY_LAYERS!r} if m in sys.modules]\n"
        "sys.stderr.write(json.dumps([code, loaded]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    return json.loads(proc.stderr)


@pytest.mark.parametrize("argv, code, loaded", [
    (None, None, []),
    (["check-admissible", "--relations", "{relations}"], 0, []),
    (["reduce", "--relations", "{relations}"], 0, []),
    (["rr-remove", "--relations", "{relations}", "--triple", "1,2,2"], 0, []),
    (["--help"], 0, []),
    (["check-admissible"], 4, []),
    (["enumerate-basis", "--relations", "{relations}"], 0, list(LAZY_LAYERS[:2])),
    (["verify-relations", "--relations", "{relations}"], 0, list(LAZY_LAYERS[:2])),
    (["irreducible", "--relations", "{relations}", "--tableau", "{tableau}"], 0,
     list(LAZY_LAYERS[:2])),
    (["tensor-check", "--weights", "{weights}", "--depth", "1"], 0, list(LAZY_LAYERS)),
], ids=["import", "check-admissible", "reduce", "rr-remove", "help", "usage-error",
        "enumerate-basis", "verify-relations", "irreducible", "tensor-check"])
def test_each_command_loads_only_the_layers_it_runs(tmp_path, argv, code, loaded):
    if argv is not None:
        argv = _inputs(tmp_path, argv)
    assert _fresh_process(argv) == [code, loaded]
