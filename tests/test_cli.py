import json
import os

import pytest

import qlfd.cli
import qlfd.roots
import qlfd.saito
from qlfd.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")


def path(name):
    return os.path.join(DATA, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def test_analyze_a2(capsys):
    code, report = run(capsys, "analyze", path("a2.json"))
    assert code == 0
    assert report["graph_class"] == {"kind": "dynkin", "name": "A2"}
    assert report["q_value"] == 1
    assert report["is_tree"] is True


def test_lfd_a2(capsys):
    code, report = run(capsys, "lfd", path("a2.json"))
    assert code == 0
    assert report["verdict"] == "linear_free"
    assert report["degree"] == 1
    assert report["reduced"]["seed"] == report["provenance"]["seed"]


def test_lfd_cycle_not_a_tree(capsys):
    code, report = run(capsys, "lfd", path("cycle3.json"))
    assert code == 0  # definitive negative
    assert report["verdict"] == "not_linear_free"
    assert any("tree" in r for r in report["reasons"])


def test_tubes_e7(capsys):
    code, report = run(capsys, "tubes", path("e7.json"))
    assert code == 0
    assert report["periods"] == [4, 3, 2]
    assert all(t["sum_is_delta"] for t in report["tubes"])


def test_tubes_ignore_entry_bound(capsys):
    # regular simples lie below delta; a small bound must not hide tubes
    for name, periods in (("e7.json", [4, 3, 2]), ("e8.json", [5, 3, 2])):
        code, report = run(capsys, "--entry-bound", "1", "tubes", path(name))
        assert code == 0
        assert report["periods"] == periods
        assert run(capsys, "tubes", path(name)) == (code, report)


def test_graph_classified_once_per_command(capsys, monkeypatch):
    calls = []
    classify = qlfd.cli.classify_graph

    def counted(q):
        calls.append(q)
        return classify(q)

    for module in (qlfd.cli, qlfd.roots, qlfd.saito):
        monkeypatch.setattr(module, "classify_graph", counted)
    for argv in (["tubes", path("e7.json")], ["analyze", path("e7.json")],
                 ["homogeneity", path("e7.json"), "--parts",
                  "1,1,1,2,1,1,1,1:0,1,1,1,1,1,0,0"]):
        calls.clear()
        assert main(argv) == 0
        capsys.readouterr()
        assert len(calls) == 1, argv


def test_degrees_d4(capsys):
    code, report = run(capsys, "degrees", path("d4.json"))
    assert code == 0
    assert report["certified"] is True
    assert report["degrees"] == [2, 2, 2]


def test_degrees_wild_star_with_many_candidates(tmp_path, capsys):
    # f = x1 ... x5 on a five-arm star, which has 1,038 candidates on the left
    # up to entry bound 12; the search stops at box 1, with 14 of them
    star = tmp_path / "star.json"
    star.write_text(json.dumps({
        "vertices": ["1", "2", "3", "4", "5", "6"],
        "arrows": [["6", "1"], ["6", "2"], ["3", "6"], ["6", "4"], ["5", "6"]],
        "dim": {v: 1 for v in "123456"}}))
    code, report = run(capsys, "degrees", str(star))
    assert code == 0
    assert report["certified"] is True
    assert report["candidates_considered"] == 14
    assert report["search_bound"] == 1
    assert report["degrees"] == [1, 1, 1, 1, 1]


def test_degrees_with_no_component(tmp_path, capsys):
    # d = (1) on one vertex, directly or as the support of (1, 0) on A2: f = 1,
    # and the empty subset of candidates certifies it, as lfd says degree 0
    for data in ({"vertices": ["1", "2"], "arrows": [["1", "2"]], "dim": {"1": 1, "2": 0}},
                 {"vertices": ["1"], "arrows": [], "dim": {"1": 1}}):
        file = tmp_path / "q.json"
        file.write_text(json.dumps(data))
        code, report = run(capsys, "degrees", str(file))
        assert code == 0
        assert {key: report[key] for key in (
            "certified", "side", "degrees", "vectors", "subsets_certified",
            "unique_multiset", "candidates_considered", "search_bound")} == {
            "certified": True, "side": "left", "degrees": [], "vectors": [],
            "subsets_certified": 1, "unique_multiset": True,
            "candidates_considered": 0, "search_bound": 1}
        code, report = run(capsys, "lfd", str(file))
        assert (code, report["verdict"], report["degree"]) == (0, "linear_free", 0)


def test_reflect_and_normal_form(capsys):
    code, report = run(capsys, "reflect", path("a2.json"), "1")
    assert code == 0
    assert report["after"]["arrows"] == [["2", "1"]]
    assert report["after"]["dim"] == {"1": 0, "2": 1}
    code, report = run(capsys, "normal-form", path("e7.json"))
    assert code == 0
    assert report["stage_count"] <= 2


def test_reflect_rejects_a_negative_dimension(tmp_path, capsys):
    cases = (({"vertices": ["1", "2"], "arrows": [], "dim": {"1": 1, "2": 1}},
              "1", "vertex '1' is negative (-1)"),
             ({"vertices": ["1", "2"], "arrows": [["1", "2"]], "dim": {"1": 0, "2": 1}},
              "2", "vertex '2' is negative (-1)"))
    for data, vertex, message in cases:
        file = tmp_path / "q.json"
        file.write_text(json.dumps(data))
        assert main(["reflect", str(file), vertex]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert message in json.loads(captured.err)["error"]


def test_a_quiver_file_holding_a_json_string_is_malformed(tmp_path, capsys):
    # the string is itself valid quiver JSON, but it is not decoded a second time
    inner = {"vertices": ["1"], "arrows": [], "dim": {"1": 1}}
    file = tmp_path / "q.json"
    file.write_text(json.dumps(json.dumps(inner)))
    assert main(["analyze", str(file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert json.loads(captured.err)["error"].startswith("malformed quiver JSON: ")


def test_normal_form_exact_step_budget(capsys):
    # d4 is bipartite already; e7 and e8 need exactly 4 and 11 steps
    for name, steps in (("d4.json", 0), ("e7.json", 4), ("e8.json", 11)):
        default = run(capsys, "normal-form", path(name))
        assert default[0] == 0
        assert len(default[1]["steps"]) == steps
        assert run(capsys, "normal-form", "--max-steps", str(steps), path(name)) == default
        if steps:
            assert main(["normal-form", "--max-steps", str(steps - 1), path(name)]) == 1
            assert "error" in json.loads(capsys.readouterr().err)
    assert main(["normal-form", "--max-steps", "-1", path("d4.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in json.loads(captured.err)


def test_homogeneity_split(capsys):
    code, report = run(capsys, "homogeneity", path("a2.json"),
                       "--split", "1,0:0,1")
    assert code == 0
    assert report["euler_witness"] is True


def test_homogeneity_parts_tube(capsys):
    # two consecutive regular simples of the period-3 tube summing to d
    code, report = run(capsys, "homogeneity", path("e7.json"),
                       "--parts", "1,1,1,2,1,1,1,1:0,1,1,1,1,1,0,0")
    assert code == 0
    assert report["certificate"] == "weakly"
    assert report["route"] == "tube"


def test_homogeneity_rejects_what_it_would_ignore(capsys):
    a2 = path("a2.json")
    for argv, error in (
            (["--split", "1,0:0,1:1,1"], "--split needs the form m1,m2,...:n1,n2,..."),
            (["--split", "1,0"], "--split needs the form m1,m2,...:n1,n2,..."),
            (["--split", ""], "--split needs the form m1,m2,...:n1,n2,..."),
            (["--split", "a,b:1,0"], "bad vector 'a,b'"),
            (["--split", "1,1:0,0"], "both split parts must be positive"),
            (["--parts", "1,1:0,0"], "every part must be positive"),
            (["--parts", "2,1:-1,0"], "every part must be positive"),
            ([], "homogeneity needs --split or --parts"),
            (["--split", "1,0:0,1", "--parts", "1,0:0,1"],
             "qlfd homogeneity: argument --parts: not allowed with argument --split")):
        assert main(["homogeneity", a2] + argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == json.dumps({"error": error}) + "\n", argv


def test_determinism(capsys):
    code1, rep1 = run(capsys, "--seed", "99", "lfd", path("d4.json"))
    code2, rep2 = run(capsys, "--seed", "99", "lfd", path("d4.json"))
    assert code1 == code2 == 0
    assert rep1 == rep2


def test_bad_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["lfd", str(bad)]) == 1
    missing_dim = tmp_path / "nodim.json"
    missing_dim.write_text(json.dumps({"vertices": ["1"], "arrows": []}))
    assert main(["lfd", str(missing_dim)]) == 1
    capsys.readouterr()
    # dim must be an object of JSON integers: no lists, strings, floats or bools
    # vertices must be an array and each arrow a two-element array
    datas = [{"vertices": ["1", "2"], "arrows": [["1", "2"]], "dim": dim}
             for dim in ({"1": [1], "2": 1}, "12", {"1": 1.5, "2": 1},
                         {"1": True, "2": 1})]
    datas += [{"vertices": vertices, "arrows": arrows, "dim": {"1": 1, "2": 1}}
              for vertices, arrows in (("12", [["1", "2"]]), (["1", "2"], ["12"]),
                                       (["1", "2"], [["1", "2", "2"]]))]
    for data in datas:
        bad.write_text(json.dumps(data))
        assert main(["lfd", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "error" in json.loads(captured.err)


def test_prime_at_most_dim_rep_is_a_json_error_before_any_draw(capsys):
    # dt4 is a real root that is not Schur (f = 0), so no line ever finds a
    # brick; the prime is still rejected first, as for every Schur root
    for prime in ("3", "7"):
        assert main(["--prime", prime, "lfd", path("dt4.json")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == json.dumps({"error": f"prime {prime} <= degree 18"}) + "\n"


def test_bad_config_is_a_json_error(capsys):
    for argv in (["--prime", "9", "analyze", path("a2.json")],
                 ["--trials", "0", "lfd", path("a2.json")],
                 ["--prime", "2305843009213693951", "lfd", path("a2.json")],
                 ["--entry-bound", "0", "tubes", path("e7.json")],
                 ["--entry-bound", "-5", "tubes", path("e7.json")]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in json.loads(captured.err)


def test_usage_errors_are_json_errors(capsys):
    # exit code 2 is for inconclusive verdicts; a bad command line is exit 1
    for argv in (["frob", path("a2.json")],
                 ["--prime", "abc", "lfd", path("a2.json")],
                 ["reflect", path("a2.json")],
                 ["--format", "xml", "lfd", path("a2.json")],
                 []):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "error" in json.loads(captured.err)


def test_help_still_exits_zero(capsys):
    for argv in (["-h"], ["degrees", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: qlfd")


def test_text_format(capsys):
    code = main(["--format", "text", "analyze", path("a2.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("analyze:")


def test_every_command_answers_degenerate_quivers_in_json(tmp_path, capsys):
    # bad input never ends in a traceback: each command gives exit 0, 1 or 2
    # and one JSON object, the report on stdout or the error on stderr
    quivers = {
        "empty": {"vertices": [], "arrows": [], "dim": {}},
        "loop": {"vertices": ["1"], "arrows": [["1", "1"]], "dim": {"1": 1}},
        "disconnected": {"vertices": ["1", "2"], "arrows": [],
                         "dim": {"1": 1, "2": 1}},
    }
    commands = (["analyze"], ["lfd"], ["degrees"], ["tubes"], ["normal-form"],
                ["reflect", "1"], ["homogeneity", "--split", "1,0:0,1"],
                ["homogeneity", "--parts", "1"], ["homogeneity", "--parts", "1,0:0,1"])
    for name, data in quivers.items():
        file = tmp_path / f"{name}.json"
        file.write_text(json.dumps(data))
        for command in commands:
            argv = [command[0], str(file)] + command[1:]
            code = main(argv)
            captured = capsys.readouterr()
            assert code in (0, 1, 2), argv
            out = captured.err if code == 1 else captured.out
            assert (captured.out if code == 1 else captured.err) == "", argv
            assert len(out.splitlines()) == 1, argv
            assert isinstance(json.loads(out), dict), argv
    for command in ("analyze", "tubes"):
        assert main([command, str(tmp_path / "empty.json")]) == 1
        assert "non-empty" in json.loads(capsys.readouterr().err)["error"]
