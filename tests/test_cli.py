"""End-to-end tests of the command line front end."""

import json
import math
import re
import tracemalloc
from fractions import Fraction

import pytest

from finitegeo import calculus, cli, connection, groups, gset, invariants
from finitegeo.errors import UsageError


def test_group_info_payload():
    result = cli.run(["group", "info", "S3"])
    assert result.status == 0
    payload = result.payload
    assert payload["schema"] == 1
    assert payload["order"] == 6
    assert payload["abelian"] is False
    assert payload["center"] == ["e"]
    assert payload["classes"] == [["e"], ["b", "a", "c"], ["ab", "ba"]]


def test_group_info_trivial_group():
    result = cli.run(["group", "info", "Z1"])
    assert result.status == 0
    assert result.payload["order"] == 1
    assert result.payload["classes"] == [["e"]]


def test_group_from_json_file(tmp_path):
    doc = {"table": [[0, 1], [1, 0]], "names": ["e", "t"], "label": "flip"}
    path = tmp_path / "group.json"
    path.write_text(json.dumps(doc))
    result = cli.run(["group", "info", f"@{path}"])
    assert result.status == 0
    assert result.payload["label"] == "flip"
    assert result.payload["names"] == ["e", "t"]


def test_calculi_list_counts():
    result = cli.run(["calculi", "list", "--group", "Z3"])
    assert result.status == 0
    assert result.payload["count"] == 4
    result = cli.run(["calculi", "list", "--group", "S3", "--bicovariant"])
    assert result.payload["count"] == 4
    hatgs = [sorted(c["hatG"]) for c in result.payload["calculi"]]
    assert sorted(["a", "b", "c"]) in hatgs
    assert sorted(["ab", "ba"]) in hatgs


def test_calculus_show_with_dot():
    result = cli.run(
        ["calculus", "show", "--group", "Z3", "--hatg", "a", "--dot", "-"]
    )
    assert result.status == 0
    assert result.payload["left_covariant"] is True
    assert result.payload["bicovariant"] is True
    assert ["e", "a2"] in result.payload["edges"]
    assert "-" in result.dots
    assert result.dots["-"].startswith("digraph")


def test_braid_order_matches_documented_example():
    result = cli.run(["braid", "order", "--group", "S3", "--hatg", "all"])
    assert result.status == 0
    assert result.payload == {"schema": 1, "order": 12}


def test_braid_check_and_decompose():
    result = cli.run(["braid", "check", "--group", "S3", "--hatg", "class:(12)"])
    assert result.payload == {"schema": 1, "braid_equation": True}
    result = cli.run(["braid", "decompose", "--group", "S3", "--hatg", "all"])
    assert tuple(result.payload["dims"]) == (11, 14, 4, 21)


def test_connection_solve_family_and_member():
    result = cli.run(
        [
            "connection",
            "solve",
            "--group",
            "S3",
            "--hatg",
            "a,b,c",
            "--bi-invariant",
            "--torsion-free",
            "--params=-2,0,0",
        ]
    )
    assert result.status == 0
    assert result.payload["free_parameters"] == 3
    named = cli.run(
        ["connection", "named", "--group", "S3", "--hatg", "a,b,c", "--name", "c"]
    )
    assert result.payload["member"]["gamma"] == named.payload["gamma"]


def test_connection_solve_wrong_parameter_count_is_a_usage_error():
    result = cli.run(
        [
            "connection",
            "solve",
            "--group",
            "S3",
            "--hatg",
            "a,b,c",
            "--bi-invariant",
            "--torsion-free",
            "--params=1,2",
        ]
    )
    assert result.status == 2
    assert result.payload == {"error": "expected 3 parameters, got 2"}


def test_leading_negative_list_values_need_no_equals_sign():
    base = ["connection", "named", "--group", "S3", "--hatg", "class:b"]
    glued = cli.run(base + ["--name", "family", "--lambdas=-1,1,0"])
    spaced = cli.run(base + ["--name", "family", "--lambdas", "-1,1,0", "--json"])
    assert glued.status == spaced.status == 0
    assert spaced.payload == glued.payload
    base = ["connection", "solve", "--group", "S3", "--hatg", "a,b,c"]
    base += ["--bi-invariant", "--torsion-free"]
    glued = cli.run(base + ["--params=-2,0,0"])
    spaced = cli.run(base + ["--params", "-2,0,0"])
    assert glued.status == spaced.status == 0
    assert spaced.payload == glued.payload


def test_connection_roundtrip_through_json(tmp_path):
    named = cli.run(
        ["connection", "named", "--group", "Z4", "--hatg", "a,a2", "--name", "c"]
    )
    path = tmp_path / "conn.json"
    path.write_text(json.dumps(named.payload))
    result = cli.run(
        [
            "connection",
            "analyze",
            "--group",
            "Z4",
            "--hatg",
            "a,a2",
            "--connection",
            str(path),
        ]
    )
    assert result.status == 0
    assert result.payload["torsion_free"] is True
    assert result.payload["extensible"] is True
    assert result.payload["pointwise_extensible"] is False


def test_connection_analyze_named_sigma():
    result = cli.run(
        [
            "connection",
            "analyze",
            "--group",
            "S3",
            "--hatg",
            "all",
            "--name",
            "sigma",
        ]
    )
    assert result.status == 0
    assert result.payload["curvature_zero"] is True
    assert result.payload["left_invariant"] is True


def test_tensors_invariant_with_pattern():
    argv = [
        "tensors",
        "invariant",
        "--group",
        "S3",
        "--hatg",
        "all",
        "--kind",
        "s-sym",
        "--pattern",
        "--order",
        "a,b,c,ab,ba",
    ]
    result = cli.run(argv)
    assert result.status == 0
    assert result.payload["dimension"] == 11
    pattern = result.payload["pattern"]
    assert pattern["order"] == ["a", "b", "c", "ab", "ba"]
    assert len(pattern["matrix"]) == 5
    assert pattern["matrix"][0] == ["p0", "p1", "p2", "p3", "p4"]
    again = cli.run(argv)
    assert json.dumps(again.payload, sort_keys=True) == json.dumps(
        result.payload, sort_keys=True
    )


def test_metric_check_routes(tmp_path):
    doc = {"schema": 1, "coeffs": {"a|a": "1", "b|b": "1", "c|c": "1"}}
    path = tmp_path / "metric.json"
    path.write_text(json.dumps(doc))
    base = ["metric", "check", "--group", "S3", "--hatg", "a,b,c",
            "--metric", str(path)]
    result = cli.run(base)
    assert result.status == 0
    assert result.payload["compatible"] is True
    assert result.payload["routes_agree"] is True
    assert result.payload["s_symmetric"] is True
    assert result.payload["left_invariant"] is True
    result = cli.run(base + ["--name", "c"])
    assert result.payload["compatible"] is False
    assert result.payload["routes_agree"] is True


def test_documents_for_another_calculus_are_refused(tmp_path):
    named = cli.run(
        ["connection", "named", "--group", "S3", "--hatg", "class:b", "--name", "c"]
    )
    assert named.payload["hatG"] == ["b", "a", "c"]
    path = tmp_path / "conn.json"
    path.write_text(json.dumps(named.payload))
    analyze = ["connection", "analyze", "--group", "S3", "--connection", str(path)]
    assert cli.run(analyze + ["--hatg", "class:b"]).status == 0
    result = cli.run(analyze + ["--hatg", "all"])
    assert result.status == 2
    assert "hatG" in result.payload["error"]
    for field, value in [("schema", 2), ("group", "D3"), ("hatG", "b,a,c")]:
        path.write_text(json.dumps(dict(named.payload, **{field: value})))
        result = cli.run(analyze + ["--hatg", "class:b"])
        assert result.status == 2
        assert "error" in result.payload
    metric = tmp_path / "metric.json"
    metric.write_text(json.dumps({"schema": 1, "group": "Z3", "coeffs": {"a|a": "1"}}))
    check = ["metric", "check", "--group", "S3", "--hatg", "a,b,c", "--metric", str(metric)]
    result = cli.run(check)
    assert result.status == 2
    assert "Z3" in result.payload["error"]


def test_q8_names_the_dicyclic_group_of_order_eight():
    q8 = cli.run(["group", "info", "Q8"])
    assert q8.status == 0
    assert q8.payload == cli.run(["group", "info", "Dic2"]).payload
    assert q8.payload["order"] == 8


def test_action_orbit_listings_use_one_based_points():
    result = cli.run(["action", "orbits", "--set", "3", "--group-generators", "(12)"])
    assert result.status == 0
    assert result.payload["orbits"] == [
        [[1, 2], [2, 1]],
        [[1, 3], [2, 3]],
        [[3, 1], [3, 2]],
    ]
    result = cli.run(["action", "orbits", "--set", "3", "--group-generators", "(123)"])
    assert result.payload["orbits"] == [
        [[1, 2], [2, 3], [3, 1]],
        [[1, 3], [2, 1], [3, 2]],
    ]


def test_action_irreducible_calculi_with_dot():
    result = cli.run(
        [
            "action",
            "calculi",
            "--set",
            "3",
            "--group-generators",
            "(12)",
            "--irreducible",
            "--dot",
            "-",
        ]
    )
    assert result.status == 0
    assert result.payload["count"] == 3
    assert result.payload["calculi"] == [
        [[1, 3], [2, 3], [3, 1], [3, 2]],
        [[1, 2], [2, 1], [3, 1], [3, 2]],
        [[1, 2], [1, 3], [2, 1], [2, 3]],
    ]
    assert result.dots["-"].count("digraph") == 3


def test_usage_errors_exit_with_two(tmp_path):
    assert cli.run(["group", "info", "Q17"]).status == 2
    assert cli.run(["braid", "order", "--group", "Z3", "--hatg", "e"]).status == 2
    result = cli.run(["connection", "analyze", "--group", "Z3", "--hatg", "a"])
    assert result.status == 2
    assert "error" in result.payload
    runs = [["group", "info", spec] for spec in ("Z0", "S0", "A0", "D0", "Dic0")]
    runs.append(["tensors", "invariant", "--group", "S3", "--hatg", "all", "--kind", "foo"])
    groups = [[[0, 1], [1, 0]], {"table": 5}, {"table": [1, 2]},
              {"table": [[0, 1], [1]]}, {"table": [[0, "1"], [1, 0]]}]
    groups += [{"table": [[0, 1], [1, 0]], **extra}
               for extra in ({"names": 5}, {"names": "ab"}, {"names": [1, 2]}, {"label": 7})]
    for k, doc in enumerate(groups):
        path = tmp_path / f"group{k}.json"
        path.write_text(json.dumps(doc))
        runs.append(["group", "info", f"@{path}"])
    for k, value in enumerate([[], "1", 3]):
        conn = tmp_path / f"conn{k}.json"
        conn.write_text(json.dumps({"schema": 1, "gamma": value}))
        runs.append(["connection", "analyze", "--group", "S3", "--hatg", "a,b,c",
                     "--connection", str(conn)])
        metric = tmp_path / f"metric{k}.json"
        metric.write_text(json.dumps({"schema": 1, "coeffs": value}))
        runs.append(["metric", "check", "--group", "S3", "--hatg", "a,b,c",
                     "--metric", str(metric)])
    for argv in runs:
        result = cli.run(argv)
        assert result.status == 2, argv
        assert "error" in result.payload, argv


def test_domain_errors_exit_with_one(monkeypatch):
    monkeypatch.setenv("FINITEGEO_MAX_ORDER", "4")
    result = cli.run(["group", "info", "S4"])
    assert result.status == 1
    assert "error" in result.payload


def test_action_commands_keep_the_size_bound(monkeypatch):
    """The bound that refuses S4 by name also refuses it generated by
    permutations, and --set must lie between 1 and the bound."""
    monkeypatch.setenv("FINITEGEO_MAX_ORDER", "8")
    assert cli.run(["group", "info", "S4"]).payload == {"error": "4! exceeds the bound 8"}
    for act in ("orbits", "calculi"):
        result = cli.run(["action", act, "--set", "4", "--group-generators", "(1234),(12)"])
        assert (result.status, result.payload) == (1, {"error": "closure exceeds the bound 8"})
    result = cli.run(["action", "orbits", "--set", "4", "--group-generators", "(1234),(13)"])
    assert (result.status, result.payload["group_order"]) == (0, 8)
    for size in ("0", "-1", "9"):
        result = cli.run(["action", "orbits", "--set", size, "--group-generators", "(12)"])
        assert result.status == 2
        assert result.payload == {
            "error": f"--set must lie between 1 and the bound 8, got {size}"
        }


def test_an_over_bound_product_is_refused_before_any_factor_is_built(monkeypatch):
    """A product's order is checked from its factors' orders, left to
    right as direct_product checks it, before any factor's table is
    built; a factor over the bound by itself is refused, before any
    builder runs, with its builder's message, and a product within the
    bound builds each factor once."""
    built = []
    for name in ("cyclic", "symmetric", "alternating", "dihedral", "dicyclic"):
        def counted(n, max_order, name=name, build=getattr(groups, name)):
            built.append((name, n))
            return build(n, max_order=max_order)

        monkeypatch.setattr(groups, name, counted)
    monkeypatch.setattr(cli, "factorial", lambda n: n <= 1025 and math.factorial(n)
                        or pytest.fail(f"computed {n}!"))
    for spec, order in (("Z1000xZ1000", 1000000), ("Z1024xZ1024", 1048576),
                        ("Z100xZ100xZ100", 10000), ("S6xA5", 43200), ("Q8xD100xDic100", 1600),
                        ("Z2xS6xZ3", 1440)):
        result = cli.run(["group", "info", spec])
        error = f"order {order} exceeds the bound 1024"
        assert (result.status, result.payload) == (1, {"error": error})
    assert built == []
    for spec, message in (("Z2xS20", "20! exceeds the bound 1024"),
                          ("Z2000xZ2", "order 2000 exceeds the bound 1024"),
                          ("Z2xA1000000000", "1000000000!/2 exceeds the bound 1024"),
                          ("S7xS1000000000", "7! exceeds the bound 1024")):
        result = cli.run(["group", "info", spec])
        assert (result.status, result.payload, built) == (1, {"error": message}, [])
    result = cli.run(["group", "info", "Z2xQ8xA1"])
    assert (result.status, result.payload["order"]) == (0, 16)
    assert built == [("cyclic", 2), ("dicyclic", 2), ("alternating", 1)]


def test_a_group_index_that_is_not_a_decimal_number_is_a_usage_error():
    result = cli.run(["group", "info", "Z\u00b2"])
    assert (result.status, result.payload) == (2, {"error": "cannot parse group token 'Z\u00b2'"})


def test_a_point_beyond_the_set_is_refused_before_the_permutation_is_built():
    result = cli.run(["action", "orbits", "--set", "3", "--group-generators", "(1 40)"])
    assert result.status == 2
    assert result.payload == {"error": "permutation moves point 40 beyond the set size 3"}
    tracemalloc.start()
    try:
        with pytest.raises(UsageError, match="point 100000 beyond the set size 3"):
            cli.parse_permutation("(1 100000)", 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, "a one-line list as long as the point was built"
    assert cli.parse_permutation("(13)", 4) == (2, 1, 0, 3)
    assert cli.parse_permutation("(13)") == (2, 1, 0)


def test_main_prints_json(capsys):
    status = cli.main(["group", "info", "Z2", "--json"])
    assert status == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["order"] == 2


def test_main_quiet_silences_payload(capsys):
    status = cli.main(["group", "info", "Z2", "--quiet"])
    assert status == 0
    assert capsys.readouterr().out == ""


def test_main_reports_errors_on_stderr(capsys):
    status = cli.main(["group", "info", "Q17"])
    assert status == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err


def test_main_prints_errors_as_json_with_json(capsys, tmp_path, monkeypatch):
    """--json puts the error payload on stdout; --quiet hides no error.
    A directory or a file that is not UTF-8, given as a group file, a
    connection or a metric, is a usage error.  Compatibility along
    Gamma^a_{a2,a2} = 1 on Z4 with hatG {a, a2}, which has no twist map,
    is a domain error."""
    bad = tmp_path / "g.json"
    bad.write_text(json.dumps({"table": [[0, 1], [1, 0]], "names": 5}))
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"table": [[0]], "label": "\xe9"}')
    metric = tmp_path / "metric.json"
    metric.write_text(json.dumps({"schema": 1, "coeffs": {"a|a": "1"}}))
    conn = tmp_path / "conn.json"
    conn.write_text(json.dumps({"schema": 1, "gamma": {"a|a2|a2": "1"}}))
    monkeypatch.setenv("FINITEGEO_MAX_ORDER", "4")
    runs = [(["group", "info", "Q17"], 2), (["group", "info", f"@{bad}"], 2),
            (["group", "info", "S4"], 1)]
    calc = ["--group", "Z4", "--hatg", "a,a2"]
    check = ["metric", "check", *calc, "--metric"]
    for path in (str(tmp_path), str(latin1)):
        runs += [(["group", "info", f"@{path}"], 2),
                 (["connection", "analyze", *calc, "--connection", path], 2),
                 (check + [path], 2),
                 (check + [str(metric), "--connection", path], 2)]
    runs.append((check + [str(metric), "--connection", str(conn)], 1))
    for argv, status in runs:
        for quiet in ([], ["--quiet"]):
            assert cli.main(argv + ["--json"] + quiet) == status
            captured = capsys.readouterr()
            assert captured.err == ""
            assert list(json.loads(captured.out)) == ["error"]
            assert cli.main(argv + quiet) == status
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")


def test_argparse_usage_errors_follow_json(capsys):
    """A usage error that argparse finds is JSON on stdout under --json,
    and argparse's usage text on stderr without it; both exit 2."""
    cases = [
        (["group", "info"], "the following arguments are required: spec"),
        (["calculi", "list", "--group", "S3", "--bogus"], "unrecognized arguments: --bogus"),
        (["action", "orbits", "--set", "x", "--group-generators", "(12)"], "argument --set: invalid int value"),
    ]
    for argv, message in cases:
        assert cli.main(argv + ["--json"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        assert list(payload) == ["error"] and message in payload["error"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: finitegeo")
        assert f"error: {message}" in captured.err


def test_help_still_exits_zero(capsys):
    assert cli.main(["group", "info", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: finitegeo group info")
    assert captured.err == ""


def test_main_plain_rendering_lists_rows(capsys):
    status = cli.main(
        [
            "tensors",
            "invariant",
            "--group",
            "S3",
            "--hatg",
            "all",
            "--kind",
            "s-sym",
            "--pattern",
            "--order",
            "a,b,c,ab,ba",
        ]
    )
    assert status == 0
    out = capsys.readouterr().out
    assert "- p0  p1  p2  p3  p4" in out


# ---------------------------------------------------------------------------
# DOT files, and the command paths checked against the library calls.


def _split_dot(out):
    """The JSON payload and the DOT text that follows it on stdout."""
    start = out.index("digraph")
    return json.loads(out[:start]), out[start:]


def test_dot_files_hold_the_library_graphs(tmp_path, capsys):
    s3 = groups.symmetric(3)
    cal = calculus.from_hatG(s3, cli.parse_hatg(s3, "class:(12)"))
    path = tmp_path / "calculus.dot"
    argv = ["calculus", "show", "--group", "S3", "--hatg", "class:(12)", "--dot", str(path)]
    assert cli.main(argv + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out)["hatG"] == ["b", "a", "c"]
    assert path.read_text(encoding="utf-8") == calculus.export_dot(cal)
    gs = gset.gset_from_permutations([(1, 0, 2)], size=3)
    path = tmp_path / "action.dot"
    argv = ["action", "calculi", "--set", "3", "--group-generators", "(12)",
            "--irreducible", "--dot", str(path)]
    assert cli.main(argv) == 0
    assert "count: 3" in capsys.readouterr().out
    expected = [gset.gset_dot(gs, edges) for edges in gset.irreducible_calculi(gs)]
    assert path.read_text(encoding="utf-8") == "\n".join(expected)


def test_dot_to_stdout_follows_the_payload(capsys):
    argv = ["calculus", "show", "--group", "Z3", "--hatg", "a", "--json", "--dot", "-"]
    assert cli.main(argv) == 0
    payload, dot = _split_dot(capsys.readouterr().out)
    assert payload["hatG"] == ["a"]
    z3 = groups.cyclic(3)
    assert dot == calculus.export_dot(calculus.from_hatG(z3, [1])) + "\n"


@pytest.mark.parametrize("command", [
    ["calculus", "show", "--group", "Z3", "--hatg", "a"],
    ["action", "calculi", "--set", "3", "--group-generators", "(12)"],
], ids=["calculus-show", "action-calculi"])
def test_dot_to_a_directory_is_a_usage_error(tmp_path, capsys, command):
    """An unwritable DOT path exits 2 with the error alone: JSON on stdout
    with --json, `error: ...` on stderr without; no payload is printed
    before it."""
    argv = command + ["--dot", str(tmp_path)]
    assert cli.main(argv + ["--json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert list(json.loads(captured.out)) == ["error"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("command", [
    ["calculus", "show", "--group", "Z3", "--hatg", "a"],
    ["action", "calculi", "--set", "3", "--group-generators", "(12)"],
], ids=["calculus-show", "action-calculi"])
def test_empty_dot_path_is_a_usage_error(capsys, command):
    """--dot "" names no file: it exits 2 like any unwritable path."""
    argv = command + ["--dot", ""]
    assert cli.main(argv + ["--json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert list(json.loads(captured.out)) == ["error"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_tensors_invariant_defaults_to_bi_invariant():
    result = cli.run(["tensors", "invariant", "--group", "S3", "--hatg", "all"])
    assert result.status == 0
    space = invariants.solve_bi_invariant(calculus.universal(groups.symmetric(3)))
    assert result.payload == {"schema": 1, "kind": "bi_invariant", "dimension": space.dimension}


def test_action_calculi_lists_every_covariant_calculus():
    result = cli.run(["action", "calculi", "--set", "4", "--group-generators", "(1234),(13)"])
    assert result.status == 0
    gs = gset.gset_from_permutations([(1, 2, 3, 0), (2, 1, 0, 3)], size=4)
    found = gset.covariant_calculi(gs)
    assert result.payload == {
        "schema": 1,
        "set": 4,
        "count": len(found),
        "calculi": [[[x + 1, y + 1] for x, y in edges] for edges in found],
    }


def test_connection_named_sigma_inverse():
    result = cli.run(["connection", "named", "--group", "S3", "--hatg", "all",
                      "--name", "sigma-inverse"])
    assert result.status == 0
    s3 = groups.symmetric(3)
    conn = connection.nabla_sigma_inverse(calculus.universal(s3))
    assert conn != connection.nabla_sigma(conn.calculus)
    name = s3.name
    assert result.payload["gamma"] == {
        f"{name(h)}|{name(g)}|{name(gp)}": str(Fraction(c))
        for (h, g, gp), c in conn.terms.items()
    }


@pytest.mark.parametrize("hatg,order,message", [
    ("all", "a,b", "missing ab, ba, c"),
    ("all", "a,a,b,ab,ba", "missing c; extra a"),
    ("a,b,c", "e,a,b", "missing c; extra e"),
])
def test_pattern_order_must_be_a_permutation_of_hatg(capsys, hatg, order, message):
    """An --order that leaves out, repeats or adds an element is a usage
    error naming them, on stdout as JSON with --json, on stderr without."""
    argv = ["tensors", "invariant", "--group", "S3", "--hatg", hatg, "--kind", "s-sym",
            "--pattern", "--order", order]
    want = f"order must list each element of hatG once: {message}"
    assert cli.main(argv + ["--json"]) == 2
    captured = capsys.readouterr()
    assert (json.loads(captured.out), captured.err) == ({"error": want}, "")
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {want}\n")


def test_unknown_element_message_is_not_quoted_twice(capsys):
    argv = ["braid", "order", "--group", "S3", "--hatg", "zz"]
    assert cli.main(argv + ["--json"]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": "unknown element 'zz' of S3"}
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: unknown element 'zz' of S3\n"


def test_connection_solve_refuses_a_calculus_that_is_not_bicovariant(capsys):
    """Torsion-free solving needs sigma, so a left-invariant solve on a
    reduced set of S3 that is no union of classes exits 1, with and
    without --json."""
    message = "operation needs a bicovariant calculus"
    for hatg in ("a,b", "a"):
        argv = ["connection", "solve", "--group", "S3", "--hatg", hatg,
                "--torsion-free", "--left-invariant"]
        assert cli.main(argv + ["--json"]) == 1
        captured = capsys.readouterr()
        assert (json.loads(captured.out), captured.err) == ({"error": message}, "")
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_bad_documents_get_clear_usage_errors(capsys, tmp_path):
    """A group file without "table", a connection or metric key with a
    leg outside hatG, and a document whose coefficient field is missing
    or misspelled, are usage errors whose message names the problem; an
    unknown element name already was one.  A misspelled field once loaded
    as the zero metric or connection."""
    docs = {
        "group": {"names": ["e"]},
        "metric": {"coeffs": {"a|a2": "1"}},
        "connection": {"gamma": {"a|a|a2": "1"}},
        "unknown": {"coeffs": {"a|zz": "1"}},
        "misspelled": {"schema": 1, "group": "Z3", "metrc": {"a|a": "1"}},
        "no-gamma": {"schema": 1, "group": "Z3", "hatG": ["a"]},
        "extra": {"gamma": {}, "label": "mine"},
    }
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    calc = ["--group", "Z3", "--hatg", "a"]
    cases = [
        (["group", "info", f"@{tmp_path / 'group.json'}"],
         'a group file must hold a JSON object with a "table"'),
        (["metric", "check", *calc, "--metric", str(tmp_path / "metric.json")],
         "coefficient key 'a|a2' names an element outside hatG"),
        (["connection", "analyze", *calc, "--connection", str(tmp_path / "connection.json")],
         "coefficient key 'a|a|a2' names an element outside hatG"),
        (["metric", "check", *calc, "--metric", str(tmp_path / "unknown.json")],
         "unknown element 'zz' of Z3"),
        (["metric", "check", *calc, "--metric", str(tmp_path / "misspelled.json")],
         "a document needs a 'coeffs' field and no other than schema, group and hatG; "
         "it has ['group', 'metrc', 'schema']"),
        (["connection", "analyze", *calc, "--connection", str(tmp_path / "no-gamma.json")],
         "a document needs a 'gamma' field and no other than schema, group and hatG; "
         "it has ['group', 'hatG', 'schema']"),
        (["connection", "analyze", *calc, "--connection", str(tmp_path / "extra.json")],
         "a document needs a 'gamma' field and no other than schema, group and hatG; "
         "it has ['gamma', 'label']"),
    ]
    for argv, message in cases:
        assert cli.main(argv + ["--json"]) == 2
        assert json.loads(capsys.readouterr().out) == {"error": message}
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_exponent_notation_is_a_usage_error(capsys, tmp_path):
    """Fraction("1e5000") builds the power of ten in full, and the 5001
    digits then broke rendering with a ValueError traceback; a document
    value of 1e999999999 would build a billion-digit integer before any
    check ran.  Every parsed rational
    refuses exponent notation: family parameters, torsion-free member
    parameters and document values.  Integers, p/q and plain decimals
    still parse."""
    doc = tmp_path / "metric.json"
    doc.write_text(json.dumps({"schema": 1, "group": "S3", "coeffs": {"a|a": "1e5000"}}))
    calc = ["--group", "S3", "--hatg", "class:a"]
    message = "rational '1e5000' is in exponent notation; write it as p/q or a decimal"
    for argv in (
        ["connection", "named", *calc, "--name", "family", "--lambdas", "1e5000,0,0"],
        ["connection", "solve", *calc, "--torsion-free", "--params", "1e5000,0,0"],
        ["metric", "check", *calc, "--metric", str(doc)],
    ):
        assert cli.main(argv + ["--json"]) == 2
        assert json.loads(capsys.readouterr().out) == {"error": message}
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
    named = ["connection", "named", *calc, "--name", "family", "--json"]
    assert cli.main(named + ["--lambdas", "1/2,0.25,-3"]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert cli.main(named + ["--lambdas", "0.5,1/4,-3.0"]) == 0
    assert json.loads(capsys.readouterr().out) == plain


def _main_json(capsys, argv):
    """The exit status of main and the JSON it prints."""
    status = cli.main([*argv, "--json"])
    return status, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("argv,files,error", [
    (["group", "info", "@{file}"], {"table": [[0, True], [True, 0]]},
     "bad group table: entry True out of range in row 0"),
    (["calculus", "show", "--group", "S3", "--hatg", " , "], None, "empty reduced set from ' , '"),
    (["connection", "named", "--group", "S3", "--hatg", "all", "--name", "family",
      "--lambdas", "1,x,0"], None, "cannot parse rational 'x'"),
    (["connection", "named", "--group", "S3", "--hatg", "all", "--name", "family"], None,
     "--lambdas is required for the family"),
    (["connection", "analyze", "--group", "S3", "--hatg", "a", "--connection", "{file}"],
     {"gamma": {"a|a|a": ["1", "0"]}}, "function value list must have length 6"),
    (["connection", "analyze", "--group", "S3", "--hatg", "a", "--connection", "{file}"],
     [{"gamma": {}}], "a connection or metric document must be a JSON object"),
    (["metric", "check", "--group", "S3", "--hatg", "a", "--metric", "{file}"],
     {"coeffs": {"a|a|a": "1"}}, "bad coefficient key 'a|a|a': expected 2 names joined by |"),
    (["connection", "solve", "--group", "S3", "--hatg", "all"], None,
     "only --torsion-free solving is available"),
    (["action", "orbits", "--set", "3", "--group-generators", ","], None,
     "no permutation in --group-generators ','"),
    (["action", "orbits", "--set", "3", "--group-generators", " "], None,
     "no permutation in --group-generators ' '"),
    (["action", "orbits", "--set", "3", "--group-generators", ", ,"], None,
     "no permutation in --group-generators ', ,'"),
    (["action", "calculi", "--set", "3", "--group-generators", ","], None,
     "no permutation in --group-generators ','"),
    (["connection", "named", "--group", "S3", "--hatg", "class:a", "--name", "family",
      "--lambdas", "1"], None, "expected 3 parameters (the braid operator order), got 1"),
    (["connection", "analyze", "--group", "S3", "--hatg", "class:a", "--name", "family",
      "--lambdas", "1,2,3,4"], None, "expected 3 parameters (the braid operator order), got 4"),
], ids=["boolean-table-entries", "empty-reduced-set", "bad-rational", "family-without-lambdas",
        "short-function-list", "document-not-an-object", "key-of-the-wrong-rank",
        "solve-without-torsion-free", "orbits-without-generators", "orbits-blank-generators",
        "orbits-blank-generator-list", "calculi-without-generators", "named-lambda-count",
        "analyze-lambda-count"])
def test_input_refusals_exit_with_two_and_name_the_input(tmp_path, capsys, argv, files, error):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(files))
    argv = [arg.replace("{file}", str(path)) for arg in argv]
    assert _main_json(capsys, argv) == (2, {"error": error})


def test_refusals_raise_usage_errors(s3):
    cal = calculus.from_hatG(s3, [s3.element_index("a")])
    for call, args, error in [
        (cli.parse_hatg, (s3, ","), "empty reduced set from ','"),
        (cli._parse_fraction, ("1//2",), "cannot parse rational '1//2'"),
        (cli._function_from_json, (s3, ["1"]), "function value list must have length 6"),
        (cli._document_terms, (cal, [], "gamma", 3),
         "a connection or metric document must be a JSON object"),
        (cli._document_terms, (cal, {"gamma": {"a": "1"}}, "gamma", 3),
         "bad coefficient key 'a': expected 3 names joined by |"),
        (cli._named_connection, (cal, "family"), "--lambdas is required for the family"),
    ]:
        with pytest.raises(UsageError) as caught:
            call(*args)
        assert str(caught.value) == error


def test_a_max_order_that_is_not_an_integer_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("FINITEGEO_MAX_ORDER", "1e3")
    error = "FINITEGEO_MAX_ORDER must be an integer, got '1e3'"
    with pytest.raises(UsageError, match=re.escape(error)):
        cli._max_order()
    for argv in (["group", "info", "Z3"],
                 ["action", "orbits", "--set", "3", "--group-generators", "(12)"]):
        assert _main_json(capsys, argv) == (2, {"error": error})
