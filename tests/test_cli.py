"""Command line surface: formats, determinism, exit codes."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import positroids
from positroids import (
    PlabicGraph,
    bridge_graph_from_permutation,
    cli,
    cluster,
    cm,
    face_labels,
    initial_seed,
    numeric,
    quiver_from_graph,
)
from positroids.combinatorics import DecoratedPermutation, necklace_from_permutation, positroid_members


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- necklace -----------------------------------------------------------


def test_necklace_table_golden(capsys):
    code, out, err = run(capsys, "necklace", "(135)(264)")
    assert code == 0 and not err
    assert out == (
        "permutation   (135)(264)   (k=3, n=6)\n"
        "necklace      124 234 346 456 256 126\n"
        "positroid     17 members, complement {123, 156, 345}\n"
        "components    1\n"
        "alignments    3\n"
        "faces         7  (= k(n-k) - alignments + 1)\n"
    )


def test_necklace_json_fields(capsys):
    code, out, _ = run(capsys, "necklace", "(135)(264)", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["k"] == 3 and data["n"] == 6
    assert data["necklace"][0] == [1, 2, 4]
    assert data["complement"] == [[1, 2, 3], [1, 5, 6], [3, 4, 5]]
    assert data["faces"] == 7
    assert DecoratedPermutation.from_json(data["permutation"]).to_cycle_string() == "(135)(264)"


def test_permutation_argument_accepts_json(capsys):
    payload = json.dumps({"image": [3, 6, 5, 2, 1, 4], "colors": {}})
    code, out, _ = run(capsys, "necklace", payload, "--format", "json")
    assert code == 0
    assert json.loads(out)["k"] == 3


# --- positroid ----------------------------------------------------------


def test_positroid_flags_golden(capsys):
    code, out, _ = run(capsys, "positroid", "(12)(34)", "--format", "json")
    assert code == 0
    rows = {tuple(r["set"]): (r["inP"], r["inCMB"], r["inGPB"]) for r in json.loads(out)}
    assert rows[(1, 2)] == (False, False, False)
    assert rows[(1, 3)] == (True, True, True)
    assert rows[(2, 4)] == (True, True, False)
    assert len(rows) == 6


def test_positroid_table_lists_every_k_set(capsys):
    code, out, _ = run(capsys, "positroid", "(12)(34)")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["set", "inP", "inCMB", "inGPB"]
    assert len(lines) == 7


# --- plabic -------------------------------------------------------------


def test_plabic_json_matches_the_library_graph(capsys):
    code, out, _ = run(capsys, "plabic", "(13)(24)", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"boundary", "vertices", "edges", "rotation"}
    expected = bridge_graph_from_permutation(DecoratedPermutation.of((3, 4, 1, 2)))
    assert PlabicGraph.from_json(data) == expected


def test_plabic_dot_is_bit_stable(capsys):
    first = run(capsys, "plabic", "(13)(24)", "--format", "dot")
    second = run(capsys, "plabic", "(13)(24)", "--format", "dot")
    assert first == second
    g = bridge_graph_from_permutation(DecoratedPermutation.of((3, 4, 1, 2)))
    assert first[1] == g.to_dot(face_labels(g)) + "\n"


def test_plabic_table_lists_trips_and_faces(capsys):
    code, out, _ = run(capsys, "plabic", "(13)(24)")
    assert code == 0
    assert "trip" in out and "face" in out


# --- seeds --------------------------------------------------------------


def test_seeds_json_for_the_hexagon_cell(capsys):
    code, out, _ = run(capsys, "seeds", "(135)(264)", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["complete"] is True and data["count"] == 2
    pure = [s for s in data["seeds"] if s["pure"]]
    assert len(pure) == 1
    assert "D246" in pure[0]["cluster"]
    mixed = [s for s in data["seeds"] if not s["pure"]][0]
    assert any(not c.startswith("D") or "*" in c for c in mixed["cluster"])


def test_seeds_json_does_not_depend_on_the_hash_seed():
    src = str(Path(positroids.__file__).resolve().parents[1])
    outs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "positroids.cli", "seeds", "(14)(25)(36)", "--format", "json"],
            env=env,
            capture_output=True,
            check=True,
        )
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert len(json.loads(outs[0])["seeds"]) == 50


def test_seeds_limit_marks_incomplete(capsys):
    code, out, _ = run(capsys, "seeds", "(14)(25)(36)", "--format", "json", "--limit", "3")
    assert code == 0
    data = json.loads(out)
    assert data["complete"] is False and data["count"] == 3


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_seeds_refuses_a_limit_below_one(capsys, limit):
    code, out, err = run(capsys, "seeds", "(14)(25)(36)", "--limit", limit)
    assert code == 2 and out == ""
    assert err == f"error: --limit must be at least 1, got {limit}\n"


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_seeds_renders_each_shared_expansion_once(capsys, monkeypatch, fmt):
    # the 2,056 unlabelled seats of the E6 class hold 30 expansion objects
    rendered = []
    to_text = cluster.LaurentPoly.__str__
    monkeypatch.setattr(cluster.LaurentPoly, "__str__", lambda poly: rendered.append(id(poly)) or to_text(poly))
    code, out, _ = run(capsys, "seeds", "(1473625)", "--format", fmt)
    assert code == 0 and out.startswith("833 seeds\n" if fmt == "table" else "{")
    assert len(rendered) == len(set(rendered)) == 30


def test_seeds_stops_an_infinite_class_at_the_default_limit(capsys):
    args = cli.build_parser().parse_args(["seeds", "(14)(25)(36)"])
    assert args.limit == cluster.SEEDS_LIMIT == 1000
    code, out, _ = run(capsys, "seeds", "(15)(26)(37)(48)", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["complete"] is False and data["count"] == len(data["seeds"]) == 1000


def test_the_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_seeds_dot_emits_the_initial_quiver(capsys):
    code, out, _ = run(capsys, "seeds", "(13)(24)", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")


# --- verify and sample --------------------------------------------------


def test_verify_passes_and_is_deterministic(capsys):
    first = run(capsys, "verify", "(13)(24)", "--points", "4")
    second = run(capsys, "verify", "(13)(24)", "--points", "4")
    assert first == second
    code, out, _ = first
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert all(not e["failures"] for e in report["identities"])


def test_verify_corrupt_control_fails_loudly(capsys):
    code, out, _ = run(capsys, "verify", "(13)(24)", "--points", "2", "--corrupt-seed")
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert any(e["failures"] for e in report["identities"])


@pytest.mark.parametrize("spec", ["(12453)", "(14):+,-"])
def test_verify_corrupt_control_without_an_exchange_relation_exits_2(capsys, spec):
    # the control cannot bite on a cell with no exchange relation: refused, not passed
    assert run(capsys, "verify", spec, "--points", "2")[0] == 0
    code, out, err = run(capsys, "verify", spec, "--points", "2", "--corrupt-seed")
    assert code == 2 and out == ""
    assert err == "error: the negative control needs an exchange relation; this cell has none\n"


def test_verify_on_an_infinite_type_cell_exits_2(capsys):
    # the Gr(4,8) top cell has infinitely many seeds
    code, out, err = run(capsys, "verify", "(15)(26)(37)(48)")
    assert code == 2 and out == ""
    assert err == "error: mutation class exceeded the limit 1000\n"


@pytest.mark.parametrize(
    "spec, counts",
    [
        ("(135)(264)", (2, 24, 1)),
        ("(14)(25)(36)", (200, 0, 1)),
        ("(1357)(2468)", (660, 0, 1)),
        ("(12453)", (0, 5, 1)),
        ("(14)(263):-", (2, 3, 1)),
    ],
)
def test_verify_reports_each_kind_of_entry_a_fixed_number_of_times(capsys, spec, counts):
    # exchange relations, restricted three-term relations (a top cell keeps
    # every product, so has none) and one vanishing profile
    code, out, _ = run(capsys, "verify", spec, "--points", "5")
    assert code == 0
    kinds = [e["name"].split(":")[0] for e in json.loads(out)["identities"]]
    assert tuple(kinds.count(kind) for kind in ("exchange", "restricted", "vanishing-profile")) == counts
    assert len(kinds) == sum(counts)


GOLDEN_SHA256 = {
    ("sample", "(1357)(2468)", "--points", "3", "--rng-seed", "7", "--format", "json"):
        "2f1d4a5971d05dcffdcd715c412fe6b77595d9e5cbfa438062346046b034e552",
    ("verify", "(14)(25)(36)"): "9ff84a54c85f367442f7131dacf8454cb057402ea066bdcd6aa573eb5685fcd9",
    ("verify", "(135)(264)", "--points", "9", "--rng-seed", "5"):
        "e60649d3023171f74135a947cb806ee5b5fa303e94ba174035852a4d9e4e2767",
}


@pytest.mark.parametrize("argv", list(GOLDEN_SHA256))
def test_sampled_outputs_keep_their_bytes(capsys, argv):
    # the same sums are pinned in CI on every supported Python
    code, out, err = run(capsys, *argv)
    assert code == 0 and not err
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[argv]


def test_verify_passes_on_the_833_seeds_of_the_gr37_top_cell(capsys):
    # finite type E6: the whole class fits under the one seed limit
    code, out, err = run(capsys, "verify", "(1473625)", "--points", "5")
    assert code == 0 and not err
    report = json.loads(out)
    assert report["passed"] is True
    exchanges = [e for e in report["identities"] if e["name"].startswith("exchange:")]
    assert len(exchanges) == 833 * 6
    assert exchanges[-1]["name"].endswith("@832")


def test_sample_emits_requested_points(capsys):
    code, out, _ = run(capsys, "sample", "(13)(24)", "--points", "2", "--format", "json")
    assert code == 0
    points = json.loads(out)
    assert len(points) == 2
    assert set(points[0]) == {"matrix", "weights", "sources"}
    assert points[0] != points[1]


@pytest.mark.parametrize("command", ["verify", "sample"])
@pytest.mark.parametrize("points", ["0", "-1"])
def test_verify_and_sample_refuse_points_below_one(capsys, command, points):
    code, out, err = run(capsys, command, "(135)(264)", "--points", points)
    assert code == 2 and out == ""
    assert err == f"error: --points must be at least 1, got {points}\n"


def test_sample_seed_changes_the_draw(capsys):
    base = run(capsys, "sample", "(13)(24)", "--points", "1", "--format", "json")
    redo = run(capsys, "sample", "(13)(24)", "--points", "1", "--format", "json")
    other = run(capsys, "sample", "(13)(24)", "--points", "1", "--format", "json", "--rng-seed", "9")
    assert base == redo
    assert base[1] != other[1]


@pytest.mark.parametrize("spec", ["id:+", "id:+,+,+", "id:-,-"])
def test_verify_and_sample_handle_k0_and_kn_cells(capsys, spec):
    # Gr(0, n) and Gr(n, n) are single points: one minor, the empty or the full set
    code, out, err = run(capsys, "verify", spec, "--points", "3")
    assert code == 0 and not err
    report = json.loads(out)
    assert report["passed"] is True
    assert [e["name"] for e in report["identities"]] == ["vanishing-profile"]
    code, out, err = run(capsys, "sample", spec, "--format", "json")
    assert code == 0 and not err
    (point,) = json.loads(out)
    k = spec.count("-")
    assert len(point["matrix"]) == len(point["sources"]) == k
    # the one frozen vertex keeps its label, the empty set when k = 0
    n = spec.count(",") + 1
    name = "".join(map(str, range(1, n + 1))) if k else "-"
    code, out, err = run(capsys, "seeds", spec, "--format", "json")
    assert code == 0 and not err
    (seed,) = json.loads(out)["seeds"]
    assert seed["pure"] is True and seed["cluster"] == [f"D{name}"]
    assert seed["seed"]["n"] == n
    assert seed["seed"]["vertices"] == [{"id": 0, "frozen": True, "label": list(range(1, n + 1)) if k else []}]
    code, out, err = run(capsys, "seeds", spec, "--format", "dot")
    assert code == 0 and not err
    assert f'v0 [shape=box, label="{name}"];' in out


def test_out_flag_writes_the_file_instead_of_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "necklace", "(13)(24)", "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["k"] == 2


def test_out_flag_to_an_unwritable_path_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "necklace", "(12)", "--out", str(target))
    assert code == 2 and out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"


# --- failure modes ------------------------------------------------------


def test_unparseable_permutation_exits_2(capsys):
    code, out, err = run(capsys, "necklace", "(13)(24")
    assert code == 2 and out == ""
    assert "cannot parse" in err


@pytest.mark.parametrize("spec", ["(1 2)", "(1a)", "(1,x)"])
def test_malformed_cycle_entries_exit_2(capsys, spec):
    code, out, err = run(capsys, "necklace", spec)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "spec, message",
    [
        ('{"image":[2,1],"colors":[1]}', "colors must be an object keyed by fixed point, got [1]"),
        ('{"image":[1],"colors":{"x":1}}', "colors must be keyed by integer fixed points, got ['x']"),
        ('{"image":[2.0,1]}', "image entries and colors must be integers, got 2.0"),
        ('{"image":[true]}', "image entries and colors must be integers, got True"),
        ('{"image":[1],"colors":{"1":true}}', "image entries and colors must be integers, got True"),
        ('{"image":[1],"colors":{"1":1.0}}', "image entries and colors must be integers, got 1.0"),
    ],
)
def test_json_colors_that_are_not_keyed_by_fixed_points_exit_2(capsys, spec, message):
    code, out, err = run(capsys, "necklace", spec)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


# no "," or "{", so every cycle entry is one digit and n stays small
SPEC_TEXT = st.text(alphabet="()123456789:+-id ", max_size=10)


@settings(max_examples=300, deadline=None)
@given(st.one_of(SPEC_TEXT, SPEC_TEXT.map(lambda t: f"({t})")))
def test_arbitrary_permutation_text_exits_0_or_2(text):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(["necklace", text])
        except SystemExit as exc:  # argparse takes a leading "-" for an option
            code = exc.code
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()


def test_size_cap_exits_2_and_can_be_raised(capsys):
    big = "(" + ",".join(str(i) for i in range(1, 14)) + ")"
    code, _, err = run(capsys, "necklace", big)
    assert code == 2 and "cap" in err
    code, out, _ = run(capsys, "necklace", big, "--n-cap", "13", "--format", "json")
    assert code == 0
    assert json.loads(out)["n"] == 13


SUBCOMMANDS = ["necklace", "positroid", "plabic", "seeds", "verify", "sample"]


@pytest.mark.parametrize("command", SUBCOMMANDS)
@pytest.mark.parametrize("spec", ["(1,999999999)", "(2,1_000_000_000)(3,4)"])
def test_huge_cycle_entries_are_refused_before_parsing(monkeypatch, capsys, command, spec):
    # parsing would build the permutation of [n] first: several GiB here
    monkeypatch.setattr(
        DecoratedPermutation, "from_cycle_string", lambda *_: pytest.fail("parsed before the cap check")
    )
    code, out, err = run(capsys, command, spec)
    assert code == 2 and out == ""
    assert err.startswith("error: entry ") and "exceeds --n-cap 12" in err


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_n_cap_bounds_every_subcommand(monkeypatch, capsys, command):
    # every handler enters the library through one of these two builders
    for name in ("bridge_graph_from_permutation", "necklace_from_permutation"):
        monkeypatch.setattr(cli, name, lambda *_: pytest.fail("reached the library before the cap check"))
    payload = json.dumps({"image": [2, 1] + list(range(3, 14)), "colors": {str(i): 1 for i in range(3, 14)}})
    for spec, message in (
        ("(1,13)", "entry 13 exceeds --n-cap 12"),
        (payload, "n=13 exceeds --n-cap 12"),
        ("(12):" + ",".join("+" * 11), "n=13 exceeds --n-cap 12"),
    ):
        code, out, err = run(capsys, command, spec)
        assert (code, out, err) == (2, "", f"error: {message}\n")
    # a cap below 1 is refused as such before the spec is read: "(12)" has no
    # digit runs, so its largest entry would read as 0
    for cap in ("-1", "0"):
        code, out, err = run(capsys, command, "(12)", "--n-cap", cap)
        assert (code, out, err) == (2, "", f"error: --n-cap must be at least 1, got {cap}\n")
    monkeypatch.undo()
    code, out, err = run(capsys, "plabic", "(1,13)", "--n-cap", "13", "--format", "json")
    assert code == 0 and not err
    assert json.loads(out)["boundary"] == 13
    # past the default cap every subcommand runs on n = 13, comma labels and all
    code, out, err = run(capsys, command, "(1,13)(2,12)", "--n-cap", "13")
    assert code == 0 and out and not err


def test_the_library_takes_no_cap_and_matches_the_cli_past_it(capsys):
    # the CLI's --n-cap is the only size guard: called directly, the library
    # runs on n = 13 and gives what the CLI prints once the cap is raised
    spec = "(1,13)(2,12)"
    sigma = DecoratedPermutation.from_cycle_string(spec)
    necklace = necklace_from_permutation(sigma)
    graph = bridge_graph_from_permutation(sigma)

    def cli_json(command, *flags):
        code, out, err = run(capsys, command, spec, "--n-cap", "13", *flags)
        assert code == 0 and not err
        return json.loads(out)

    positroid = positroid_members(necklace)
    summary = cli_json("necklace", "--format", "json")
    assert summary["positroid_size"] == len(positroid.members) > 0
    assert summary["complement"] == sorted(s.to_json() for s in positroid.complement())
    rows = cli_json("positroid", "--format", "json")
    assert {tuple(row["set"]) for row in rows if row["inGPB"]} == {s.elements for s in cm.gp_b_rank_one_list(necklace)}
    rng = random.Random(0)  # the CLI's default --rng-seed, drawn in the CLI's order
    points = [numeric.sample_cell_point(graph, rng_seed=rng.randrange(2**63)) for _ in range(2)]
    assert cli_json("sample", "--points", "2", "--format", "json") == [p.to_json() for p in points]
    generic = [numeric.sample_generic_matrix(sigma.k, sigma.n, rng) for _ in range(2)]
    report = numeric.verify_identities(necklace, initial_seed(quiver_from_graph(graph)), points, generic)
    assert report["passed"] and cli_json("verify", "--points", "2") == report


@pytest.mark.parametrize(
    "argv",
    [
        ["necklace", "(13)(24)", "--format", "dot"],
        ["positroid", "(13)(24)", "--format", "dot"],
        ["sample", "(13)(24)", "--format", "dot"],
        ["verify", "(13)(24)", "--format", "dot"],
        ["verify", "(13)(24)", "--format", "table"],
    ],
)
def test_formats_a_subcommand_does_not_write_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid choice" in captured.err


def test_verify_writes_json_by_default_and_on_request(capsys):
    assert run(capsys, "verify", "(13)(24)", "--points", "2") == run(
        capsys, "verify", "(13)(24)", "--points", "2", "--format", "json"
    )


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 2
