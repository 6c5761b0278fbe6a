import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxlat import cli
from coxlat.cli import MAX_BERKOWITZ_RANK, MAX_GRAM_RANK, MAX_ORDER, MAX_RANDOM, MAX_RANK, main
from coxlat.lattice import Lattice, char_poly, coxeter_matrix
from coxlat.star import build, fuchsian_invariants

from oracles import star_deltas
from strategies import valid_stars


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_quiet(*argv):
    """Exit code and standard output, for tests that hypothesis repeats."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


class TestBuild:
    def test_kleinian_235_ranks(self, capsys):
        code, out, _ = run_cli(capsys, "build", "--kleinian", "2,3,5")
        assert code == 0
        assert "V_minus  (rank 8)" in out
        assert "V_zero  (rank 9)" in out
        assert "V_plus  (rank 10)" in out

    def test_fuchsian_237_ranks(self, capsys):
        # arms of lengths 1, 2, 6 plus the center, so 10/11/12
        code, out, _ = run_cli(capsys, "build", "--fuchsian", "2,3,7")
        assert code == 0
        assert "(rank 10)" in out and "(rank 11)" in out and "(rank 12)" in out

    def test_name_a1(self, capsys):
        code, out, _ = run_cli(capsys, "build", "--name", "A1")
        assert code == 0
        assert "(rank 1)" in out and "(rank 2)" in out and "(rank 3)" in out

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "build", "--kleinian", "2,2", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert set(obj) == {"minus", "zero", "plus"}
        assert obj["minus"]["gram"] == [[-2, 0, 1], [0, -2, 1], [1, 1, -2]]
        assert obj["zero"]["labels"][-1] == "E-u"


class TestCharpoly:
    def test_kleinian_235(self, capsys):
        code, out, _ = run_cli(capsys, "charpoly", "--kleinian", "2,3,5")
        assert code == 0
        assert "minus: t^8 + t^7 - t^5 - t^4 - t^3 + t + 1" in out

    def test_a1(self, capsys):
        code, out, _ = run_cli(capsys, "charpoly", "--name", "A1")
        assert code == 0
        assert "minus: t + 1" in out
        assert "zero : t^2 - 2*t + 1" in out

    def test_non_root_gram_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"labels": ["a"], "gram": [[-4]]}))
        code, _, err = run_cli(capsys, "charpoly", "--gram", str(path))
        assert code == 2
        assert "NotARoot" in err

    @settings(max_examples=25, deadline=None)
    @given(valid_stars(max_zero_rank=24))
    def test_json_round_trip(self, inv):
        # build --format json re-ingested via --gram reproduces the char polys.
        # Both commands eliminate the chains of a star, so each polynomial is
        # also checked against Berkowitz on tau.
        with tempfile.TemporaryDirectory() as tmp:
            source = Path(tmp) / "invariants.json"
            source.write_text(json.dumps(inv.to_json()))
            code, out = run_quiet("build", "--invariants", str(source), "--format", "json")
            assert code == 0
            built = json.loads(out)
            code, out = run_quiet("charpoly", "--invariants", str(source), "--format", "json")
            assert code == 0
            expected = json.loads(out)
            for which in ("minus", "zero", "plus"):
                assert expected[which] == char_poly(coxeter_matrix(Lattice.from_json(built[which])))
                path = Path(tmp) / f"{which}.json"
                path.write_text(json.dumps(built[which]))
                code, out = run_quiet("charpoly", "--gram", str(path), "--format", "json")
                assert code == 0
                assert json.loads(out)["charpoly"] == expected[which]

    @settings(max_examples=60, deadline=None)
    @given(valid_stars(max_zero_rank=20), st.sampled_from(["minus", "zero", "plus"]), st.data())
    def test_gram_matches_berkowitz(self, inv, which, data):
        """charpoly --gram on a star Gram of each shape, or on one with an
        off-diagonal entry flipped between 0 and 1, is Berkowitz on tau.  Half
        of the flips pair a vertex with the core, the last three vertices, so
        that an arm end often pairs with the core off the other ends' line."""
        lat = getattr(build(inv), which)
        gram = lat.gram_rows()
        if lat.rank > 1 and data.draw(st.booleans()):
            j = data.draw(st.integers(1, lat.rank - 1) | st.integers(max(1, lat.rank - 3), lat.rank - 1))
            i = data.draw(st.integers(0, j - 1))
            gram[i][j] = gram[j][i] = 1 - gram[i][j]
        lat = Lattice(lat.labels, tuple(map(tuple, gram)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "gram.json"
            path.write_text(json.dumps(lat.to_json()))
            code, out = run_quiet("charpoly", "--gram", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["charpoly"] == char_poly(coxeter_matrix(lat))


class TestPoincare:
    def test_routes_agree_237(self, capsys):
        code, out, _ = run_cli(
            capsys, "poincare", "--fuchsian", "2,3,7", "--order", "14", "--route", "both"
        )
        assert code == 0
        lines = [line for line in out.splitlines() if line]
        row = "[1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 1]"
        assert lines[0].endswith(row)
        assert lines[1].endswith(row)

    def test_direct_235(self, capsys):
        code, out, _ = run_cli(
            capsys, "poincare", "--kleinian", "2,3,5", "--route", "direct", "--order", "12"
        )
        assert code == 0
        assert out.strip().endswith("[1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1]")

    def test_a3(self, capsys):
        code, out, _ = run_cli(capsys, "poincare", "--name", "A3", "--order", "5",
                               "--route", "direct")
        assert code == 0
        assert out.strip().endswith("[1, 1, 3, 3, 5, 5]")

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "poincare", "--name", "E8", "--order", "6",
                               "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["direct"] == {"order": 6, "coeffs": [1, 0, 0, 0, 0, 0, 1]}
        assert obj["quotient"] == obj["direct"]


class TestHilbert:
    def test_armless_series(self, capsys):
        code, out, _ = run_cli(capsys, "hilbert", "--name", "A1", "--order", "5")
        assert code == 0
        assert "P: [1, -1, -3, -5, -7, -9]" in out
        assert "Q: [1, 3, 5, 7, 9, 11]" in out

    def test_only_q(self, capsys):
        code, out, _ = run_cli(capsys, "hilbert", "--name", "E8", "--order", "12",
                               "--series", "Q")
        assert code == 0
        assert "P:" not in out
        assert "Q: [1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1]" in out

    @pytest.mark.parametrize("series", ["P", "Q", "both"])
    def test_non_root_gram_names_highest_non_root(self, capsys, tmp_path, series):
        # the root (the last vector) is fine; e1 and e3 are not roots, and the
        # one walk behind every --series checks from the top index down
        path = tmp_path / "two-non-roots.json"
        path.write_text(json.dumps({"gram": [[-4, 1, 0, 0], [1, -2, 1, 0],
                                             [0, 1, -3, 1], [0, 0, 1, -2]]}))
        code, out, err = run_cli(capsys, "hilbert", "--gram", str(path), "--series", series)
        assert (code, out) == (2, "")
        assert err == "error: NotARoot: basis vector 'e3' has self-pairing -3, not -2\n"


    def test_non_root_gram_names_highest_of_several(self, capsys, tmp_path):
        # three non-roots, none of them next to the root at the last index
        path = tmp_path / "three-non-roots.json"
        path.write_text(json.dumps({"gram": [[-3, 1, 0, 0, 0], [1, -4, 0, 0, 0], [0, 0, -2, 1, 0],
                                             [0, 0, 1, -1, 0], [0, 0, 0, 0, -2]]}))
        code, out, err = run_cli(capsys, "hilbert", "--gram", str(path))
        assert (code, out) == (2, "")
        assert err == "error: NotARoot: basis vector 'e4' has self-pairing -1, not -2\n"

    def test_root_that_is_not_a_root_exits_2(self, capsys, tmp_path):
        path = tmp_path / "gram.json"
        path.write_text(json.dumps({"gram": [[-2, 1], [1, -3]]}))
        code, out, err = run_cli(capsys, "hilbert", "--gram", str(path), "--root", "1")
        assert (code, out) == (2, "")
        assert err == "error: NotARoot: basis vector 'e2' has self-pairing -3, not -2\n"


class TestVerify:
    def test_single_input_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--fuchsian", "2,3,7", "--order", "60")
        assert code == 0
        assert "all 4 checks passed" in out

    def test_boundary_input_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--fuchsian", "2,3,6")
        assert code == 2
        assert "NeitherKind" in err

    def test_bad_gram_fails_with_witness(self, capsys, tmp_path):
        from coxlat.star import build, kleinian_invariants

        lats = build(kleinian_invariants((2, 3, 5)))
        gram = lats.minus.gram_rows()
        gram[4][5] = gram[5][4] = 0  # delete one arm edge
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"labels": list(lats.minus.labels), "gram": gram}))
        code, out, _ = run_cli(capsys, "verify", "--gram", str(path))
        assert code == 1
        assert "star-structure" in out
        assert "FAIL" in out
        assert "index=" in out

    def test_good_gram_passes(self, capsys, tmp_path):
        from coxlat.star import build, fuchsian_invariants

        lats = build(fuchsian_invariants((2, 3, 7)))
        path = tmp_path / "good.json"
        path.write_text(json.dumps(lats.minus.to_json()))
        code, out, _ = run_cli(capsys, "verify", "--gram", str(path), "--order", "40")
        assert code == 0
        assert "all 4 checks passed" in out

    def test_all_small(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--all", "--order", "20",
                               "--random", "2", "--seed", "5")
        assert code == 0
        assert "all" in out and "passed" in out

    def test_all_json_records_seed(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--all", "--order", "10",
                               "--random", "1", "--seed", "5", "--format", "json")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines() if line]
        assert lines[0]["check"] == "suite-config"
        assert lines[0]["seed"] == 5
        assert all(obj["status"] == "pass" for obj in lines[1:])


BAD_INPUTS = [
    ("verify", "--gram", {"gram": 5}),
    ("charpoly", "--gram", {"gram": []}),
    ("verify", "--gram", {"gram": [[-2.7]]}),
    ("charpoly", "--gram", {"gram": [[-2, True], [True, -2]]}),
    ("verify", "--invariants", {"kind": "fuchsian", "alpha": [2, 3, 7.9]}),
    ("verify", "--fuchsian", "2,3,7", "--order", "-1"),
    ("verify", "--all", "--random", "-2"),
    ("hilbert", "--name", "A1", "--order", "3", "--root", "7"),
    ("hilbert", "--gram", {"gram": [[-2, 1], [1, -2]]}, "--root", "-1"),
    ("hilbert", "--gram", {"gram": [[-2, 1], [1, -2]]}, "--root", "2"),
    ("build", "--kleinian", ""),
    ("verify", "--fuchsian", ""),
    ("poincare", "--name", ""),
    ("charpoly", "--invariants", ""),
]


@pytest.mark.parametrize("argv", BAD_INPUTS, ids=[
    "gram-not-a-list", "gram-empty", "gram-float", "gram-bool", "alpha-float", "negative-order",
    "negative-random", "root-without-gram", "root-negative", "root-at-rank", "kleinian-empty",
    "fuchsian-empty", "name-empty", "invariants-empty",
])
def test_malformed_input_exits_2(capsys, tmp_path, argv):
    argv = list(argv)
    for i, arg in enumerate(argv):
        if isinstance(arg, dict):
            path = tmp_path / "input.json"
            path.write_text(json.dumps(arg))
            argv[i] = str(path)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the value before any handler runs
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in captured.err and "Traceback" not in captured.err
    assert "error: internal" not in captured.err
    assert "passed" not in captured.out


class TestCatalog:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "catalog")
        assert code == 0
        assert "E8" in out and "E12" in out and "D4" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "--format", "json")
        assert code == 0
        entries = {e["name"]: e for e in json.loads(out)["entries"]}
        assert entries["E8"]["pairs"] == [[2, 1], [3, 2], [5, 4]]
        assert entries["E12"]["kind"] == "fuchsian"

    def test_unknown_name_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "poincare", "--name", "Z3")
        assert code == 2
        assert "UnknownName" in err


# Every input here is refused before a matrix is built: the rank of V_plus
# is read off the indices or the Gram row count, the order off argv.
@pytest.mark.parametrize("argv", [
    ("build", "--kleinian", "2,2,100000"),
    ("charpoly", "--fuchsian", f"2,3,{MAX_RANK}"),
    ("verify", "--name", "D100000"),
    ("poincare", "--invariants", {"kind": "kleinian", "alpha": [2, 2, MAX_RANK]}),
    ("hilbert", "--gram", {"gram": [[0]] * (MAX_RANK - 1)}),
    ("verify", "--all", "--order", str(MAX_ORDER + 1)),
    ("verify", "--all", "--random", str(MAX_RANDOM + 1)),
    ("hilbert", "--name", "E8", "--order", str(MAX_ORDER + 1)),
    ("charpoly", "--gram", {"gram": [[0]] * (MAX_GRAM_RANK - 1)}),
    ("charpoly", "--gram", {"gram": [[-2] * (MAX_BERKOWITZ_RANK + 1)] * (MAX_BERKOWITZ_RANK + 1)}),
])
def test_over_size_limit_exits_2(capsys, tmp_path, argv):
    argv = list(argv)
    if isinstance(argv[-1], dict):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(argv[-1]))
        argv[-1] = str(path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: TooLarge:") and "limit" in err
    assert out == ""


@pytest.mark.parametrize("command", ["hilbert", "charpoly", "poincare", "verify"])
def test_gram_limit_names_the_gram_rank(capsys, tmp_path, command):
    """A Gram of rank MAX_GRAM_RANK - 2 is the largest accepted: one row more
    is refused by its own rank, whatever lattice the command builds."""
    rank = MAX_GRAM_RANK - 2
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"gram": [[0]] * (rank + 1)}))
    code, out, err = run_cli(capsys, command, "--gram", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: TooLarge: a --gram input has rank {rank + 1}, above the limit {rank}")
    if command == "hilbert":
        path.write_text(json.dumps({"gram": [[-2 * (i == j) for j in range(rank)] for i in range(rank)]}))
        code, out, _ = run_cli(capsys, command, "--gram", str(path), "--order", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["P"]["coeffs"] == [1, -1]


def test_berkowitz_limit_refuses_only_non_star_grams(capsys, tmp_path):
    """A star Gram above MAX_BERKOWITZ_RANK is still eliminated; the same Gram
    with an interior arm vertex joined to E takes Berkowitz, and is refused
    before tau is built."""
    alphas = [3] * (MAX_BERKOWITZ_RANK // 2) + [4]
    lats = build(fuchsian_invariants(alphas))
    assert lats.minus.rank > MAX_BERKOWITZ_RANK
    path = tmp_path / "minus.json"
    path.write_text(json.dumps(lats.minus.to_json()))
    code, out, _ = run_cli(capsys, "charpoly", "--gram", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["charpoly"] == star_deltas(alphas)["minus"]
    gram = lats.minus.gram_rows()
    gram[0][lats.center] = gram[lats.center][0] = 1
    path.write_text(json.dumps({"gram": gram}))
    code, out, err = run_cli(capsys, "charpoly", "--gram", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: TooLarge:") and f"limit {MAX_BERKOWITZ_RANK}" in err


def test_hilbert_stops_at_a_coefficient_too_long_to_print(capsys, tmp_path):
    """On an indefinite Gram P grows exponentially; the walk stops at the
    first coefficient Python will not convert to a string."""
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"gram": [[-2, 3], [3, -2]]}))
    code, out, err = run_cli(capsys, "hilbert", "--gram", str(path), "--order", str(MAX_ORDER))
    assert (code, out) == (2, "")
    assert err.startswith("error: TooLarge: P coefficient ")


@pytest.mark.parametrize("doc, message", [
    ({"gram": [[-2, 1], [1]]}, "Gram matrix is not square"),
    ({"gram": [[-2, 1], [0, -2]]}, "Gram matrix not symmetric at (1,0)"),
    ({"labels": ["a"], "gram": [[-2, 1], [1, -2]]}, "label count does not match Gram size"),
    ([[-2]], "expected an object with a 'gram' field"),
], ids=["not-square", "not-symmetric", "label-count", "no-gram-field"])
def test_gram_shape_faults_are_bad_gram(capsys, tmp_path, doc, message):
    path = tmp_path / "gram.json"
    path.write_text(json.dumps(doc))
    assert run_cli(capsys, "charpoly", "--gram", str(path)) == (2, "", f"error: BadGram: {message}\n")


def test_shorthand_without_alpha_exits_2(capsys, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"kind": "fuchsian", "alphas": [2, 3, 7]}))
    code, out, err = run_cli(capsys, "verify", "--invariants", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: CoxlatError:") and "'alpha'" in err


def test_internal_error_exits_2(capsys, monkeypatch):
    def broken():
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "catalog_names", broken)
    code, out, err = run_cli(capsys, "catalog")
    assert code == 2
    assert err == "error: internal: RuntimeError: boom\n"
    assert out == ""


# No integer drawn here is -2 or lies in 2..10**6, so no Gram row holds a
# root's self-pairing, no b or beta fits a star, and every ramification
# index is over the size limit: each document is malformed or too large.
_FUZZ_INTS = st.integers(max_value=1).filter(lambda x: x != -2) | st.integers(min_value=10**6)
_FUZZ_KEYS = st.sampled_from(["gram", "labels", "kind", "alpha", "g", "b", "pairs"]) | st.text(max_size=4)
FUZZ_JSON = st.recursive(
    st.none() | st.booleans() | _FUZZ_INTS | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_FUZZ_KEYS, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(doc=FUZZ_JSON, command=st.sampled_from(["charpoly", "poincare", "hilbert", "verify"]),
       route=st.sampled_from(["--gram", "--invariants"]))
def test_fuzzed_json_exits_2(doc, command, route):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, route, str(path)])
    assert code == 2, (doc, out.getvalue())
    assert err.getvalue().startswith("error: ") and "error: internal" not in err.getvalue()
