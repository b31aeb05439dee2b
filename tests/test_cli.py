"""The command-line surface: verbs, piping, exit codes."""

import contextlib
import io
import json
import math

import pytest

from greedy_spectra import (
    Tree,
    build_greedy_tree,
    build_volkmann_tree,
    canonical_code,
    estrada_index,
    from_json,
    is_isomorphic,
    spectral_moments_up_to,
    to_json,
)
from greedy_spectra import cli
from oracles import char_poly_from_moments, moments_by_matrix_power

SPIDER_221 = Tree(6, ((0, 1), (0, 2), (0, 3), (1, 4), (2, 5)))


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_greedy_prints_the_spider(capsys):
    code, out, err = run(capsys, "greedy", "3,2,2,1,1,1")
    assert code == 0 and err == ""
    assert is_isomorphic(from_json(out), SPIDER_221, ignore_roots=True)


def test_moments_of_inline_degree_sequence(capsys):
    code, out, _ = run(capsys, "moments", "--degseq", "2,2,1,1", "--k", "4")
    assert code == 0
    assert json.loads(out) == ["4", "0", "6", "0", "14"]


def test_volkmann_piped_into_moments(capsys, monkeypatch):
    code, out, _ = run(capsys, "volkmann", "15", "3")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, _ = run(capsys, "moments", "--k", "2")
    assert code == 0
    assert json.loads(out) == ["15", "0", "28"]


def test_greedy_pipe_matches_library_exactly(capsys, monkeypatch):
    code, out, _ = run(capsys, "greedy", "4,3,2,2,2,1,1,1,1,1")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, _ = run(capsys, "moments", "--k", "12")
    assert code == 0
    direct = spectral_moments_up_to(
        build_greedy_tree((4, 3, 2, 2, 2, 1, 1, 1, 1, 1)), 12
    )
    assert out.strip() == direct.to_json()


def test_tree_argument_accepts_files_and_inline_sequences(capsys, tmp_path):
    path = tmp_path / "tree.json"
    path.write_text(to_json(SPIDER_221))
    code, from_file, _ = run(capsys, "moments", str(path), "--k", "6")
    assert code == 0
    code, inline, _ = run(capsys, "moments", "3,2,2,1,1,1", "--k", "6")
    assert code == 0
    assert json.loads(from_file) == json.loads(inline)
    assert json.loads(inline)[6] == "106"


def test_estrada_and_spectrum(capsys):
    code, out, _ = run(capsys, "estrada", "--degseq", "3,1,1,1")
    assert code == 0
    want = 2.0 * math.cosh(math.sqrt(3.0)) + 2.0
    assert abs(float(out) - want) <= 1e-8
    code, out, _ = run(capsys, "spectrum", "--degseq", "3,1,1,1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["tol"] == 1e-10
    root3 = math.sqrt(3.0)
    for got, ref in zip(payload["eigenvalues"], (root3, 0.0, 0.0, -root3)):
        assert abs(got - ref) <= 1e-10


def test_charpoly(capsys):
    code, out, _ = run(capsys, "charpoly", "--degseq", "2,2,1,1")
    assert code == 0
    assert json.loads(out) == ["1", "0", "-3", "0", "1"]
    code, out, _ = run(capsys, "charpoly", "--degseq", "2,2,1,1", "--json")
    assert json.loads(out) == {
        "coefficients_constant_first": ["1", "0", "-3", "0", "1"]
    }


def test_export_formats(capsys):
    code, out, _ = run(capsys, "export", "--degseq", "3,2,2,1,1,1")
    assert code == 0
    assert is_isomorphic(from_json(out), SPIDER_221, ignore_roots=True)
    code, out, _ = run(capsys, "export", "--degseq", "3,2,2,1,1,1", "--format", "dot")
    assert code == 0
    assert out.startswith("graph") and "rank=same" in out


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "3,2,2,1,1,1")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 2 and all("edges" in t for t in payload)
    code, out, _ = run(capsys, "enumerate", "3,2,2,1,1,1", "--count-only")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "enumerate", "3,2,2,1,1,1", "--count-only", "--json")
    assert json.loads(out) == {"count": 2}


def test_remark_pair(capsys):
    code, out, _ = run(capsys, "remark-pair", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["greedy"]["n"] == payload["partner"]["n"] == 8


def test_verify_exit_codes(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify", "maximality", "3,2,2,1,1,1", "--k", "12")
    assert code == 0
    assert json.loads(out)["status"] == "pass"
    code, out, _ = run(
        capsys, "verify", "majorization", "2,2,1,1", "3,1,1,1", "--k", "12"
    )
    assert code == 0
    code, out, _ = run(capsys, "verify", "volkmann", "7", "3", "--k", "8")
    assert code == 0
    code, out, _ = run(capsys, "verify", "corollaries", "3,2,2,1,1,1")
    assert code == 0
    assert json.loads(out)["claim"] == "greedy_tree_dominates_radius_estrada_charpoly"

    # a failing sweep exits 1 and still prints the full report
    from greedy_spectra import VerificationReport

    def fake(*a, **k):
        return VerificationReport(
            claim="greedy_tree_maximizes_moments",
            instance={},
            status="fail",
            counterexample={"k": 4},
        )

    monkeypatch.setattr(cli, "verify_greedy_maximality", fake)
    code, out, _ = run(capsys, "verify", "maximality", "2,1,1", "--k", "4")
    assert code == 1
    assert json.loads(out)["counterexample"] == {"k": 4}


def test_invalid_input_exits_2(capsys, monkeypatch, tmp_path):
    code, out, err = run(capsys, "greedy", "3,3,3")
    assert code == 2 and out == "" and "error:" in err
    for root in (
        '"root_edge": [0]',
        '"root_edge": 5',
        '"root_vertex": "x"',
        '"root_vertex": true',
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"n": 2, "edges": [[0, 1]], %s}' % root))
        code, out, err = run(capsys, "export")
        assert code == 2 and out == "" and "error:" in err
    code, _, err = run(capsys, "moments", "no-such-file.json", "--k", "4")
    assert code == 2 and "error:" in err
    code, _, err = run(
        capsys,
        "verify", "majorization", "4,2,2,2,1,1,1,1", "3,3,3,1,1,1,1,1", "--k", "8",
    )
    assert code == 2 and "majorize" in err
    for tol in ("nan", "inf", "-1"):
        code, out, err = run(capsys, "verify", "corollaries", "3,2,2,1,1,1", "--tol", tol)
        assert code == 2 and out == "" and "error:" in err
    # JSON nested past the recursion limit, bytes that are not UTF-8, and an
    # integer past the digit limit
    for name, content in (
        ("deep.json", b"[" * 100000),
        ("latin1.json", b"\x80"),
        ("bigint.json", b'{"n": ' + b"1" * 5000 + b', "edges": []}'),
    ):
        path = tmp_path / name
        path.write_bytes(content)
        code, out, err = run(capsys, "export", str(path))
        assert code == 2 and out == "" and "error:" in err
    huge = "99999999999999999999"
    for argv in (
        ("moments", "--degseq", "2,1,1", "--k", huge),
        ("volkmann", huge, "3"),
        ("remark-pair", huge),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "error:" in err
    # moments past Python's int-to-str digit limit: M_30000 of P_3 is
    # 2^15001, M_7400 of the star K_1,15 is 2 * 15^3700
    for argv in (
        ("moments", "--degseq", "2,1,1", "--k", "30000"),
        ("moments", "--degseq", "15,1^15", "--k", "7400", "--json"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "digits" in err


def test_out_of_memory_exits_2(capsys, monkeypatch):
    def exhausted(t, k_max):
        raise MemoryError

    monkeypatch.setattr(cli, "spectral_moments_up_to", exhausted)
    code, out, err = run(capsys, "moments", "--degseq", "2,1,1", "--k", "400000000")
    assert code == 2 and out == "" and "error:" in err and "Traceback" not in err


def _tree_files(st, *extra):
    """Tree files: tree-shaped JSON with junk values, any JSON, any bytes.

    ``extra`` strategies add more JSON values to the mix.
    """
    junk = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
        lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
        max_leaves=10,
    )
    vertex = st.integers(-1, 6)
    pair = st.lists(vertex, min_size=2, max_size=2)
    tree = st.fixed_dictionaries(
        {},
        optional={
            "n": vertex | junk,
            "edges": st.lists(pair, max_size=6) | junk,
            "root_vertex": vertex | junk,
            "root_edge": pair | junk,
        },
    )
    values = st.one_of(tree, junk, *extra)
    return values.map(lambda value: json.dumps(value).encode()) | st.binary()


def test_export_of_arbitrary_input_exits_0_or_2(tmp_path_factory):
    hypothesis = pytest.importorskip("hypothesis")
    path = tmp_path_factory.mktemp("fuzz") / "tree.json"

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(_tree_files(hypothesis.strategies))
    def check(content):
        path.write_bytes(content)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["export", str(path)]) in (0, 2)

    check()


def _valid_trees(st):
    """Valid tree JSON, some past n = 12: vertex v > 0 hangs from a random earlier vertex."""
    return st.integers(1, 14).flatmap(
        lambda n: st.tuples(*(st.integers(0, v - 1) for v in range(1, n))).map(
            lambda parents: {"n": n, "edges": [[p, v] for v, p in enumerate(parents, 1)]}
        )
    )


def test_moments_of_arbitrary_input_exits_0_or_2(tmp_path_factory):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    path = tmp_path_factory.mktemp("fuzz") / "tree.json"

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(_tree_files(st, _valid_trees(st)), st.integers(-3, 60))
    def check(content, k):
        path.write_bytes(content)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["moments", str(path), "--k", str(k)])
        assert code in (0, 2) and "Traceback" not in err.getvalue()
        if code == 0:
            tree = from_json(content.decode())
            if tree.n <= 12:
                want = [str(c) for c in moments_by_matrix_power(tree, k)]
                assert json.loads(out.getvalue()) == want

    check()


def test_charpoly_of_arbitrary_input_exits_0_or_2(tmp_path_factory):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    path = tmp_path_factory.mktemp("fuzz") / "tree.json"

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(_tree_files(st, _valid_trees(st)))
    def check(content):
        path.write_bytes(content)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["charpoly", str(path)])
        assert code in (0, 2) and "Traceback" not in err.getvalue()
        if code == 0:
            tree = from_json(content.decode())
            if tree.n <= 12:
                want = char_poly_from_moments(moments_by_matrix_power(tree, tree.n))
                assert json.loads(out.getvalue()) == [str(c) for c in want]

    check()


def test_cap_exit_3(capsys, monkeypatch):
    monkeypatch.delenv("GREEDY_SPECTRA_CAP", raising=False)
    long_path = ",".join(["2"] * 11 + ["1", "1"])
    code, _, err = run(capsys, "enumerate", long_path)
    assert code == 3 and "cap" in err
    monkeypatch.setenv("GREEDY_SPECTRA_CAP", "13")
    code, out, _ = run(capsys, "enumerate", long_path, "--count-only")
    assert code == 0 and out.strip() == "1"
    code, _, err = run(capsys, "enumerate", long_path, "--cap", "5")
    assert code == 3


def test_volkmann_verb_matches_library(capsys):
    code, out, _ = run(capsys, "volkmann", "15", "3")
    assert code == 0
    assert canonical_code(from_json(out)) == canonical_code(build_volkmann_tree(15, 3))


def test_estrada_json_payload(capsys):
    code, out, _ = run(capsys, "estrada", "--degseq", "2,2,1,1", "--json", "--tol", "1e-9")
    assert code == 0
    payload = json.loads(out)
    assert payload["tol"] == 1e-9
    assert abs(payload["estrada_index"] - estrada_index(SPIDER_221)) > 1.0  # different tree
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    want = 2.0 * math.cosh(phi) + 2.0 * math.cosh(phi - 1.0)
    assert abs(payload["estrada_index"] - want) <= 1e-8
