"""Isomorphism-free enumeration and the claim verifiers built on it."""

import json

import pytest

from greedy_spectra import (
    CAP_ENV_VAR,
    CapExceededError,
    DegreeSequence,
    GreedySpectraError,
    InvalidBoundsError,
    NotMajorizedError,
    Tree,
    VerificationReport,
    build_greedy_tree,
    build_remark_pair,
    build_volkmann_tree,
    canonical_code,
    enumerate_trees,
    first_strict_difference,
    is_isomorphic,
    resolve_cap,
    spectral_moments_up_to,
    tree_degree_sequences,
    tree_from_dict,
    verify_greedy_maximality,
    verify_majorization_monotonicity,
    verify_spectral_corollaries,
    verify_volkmann_conjecture,
)
from greedy_spectra import cli, enumeration
from oracles import canonical_form, classes_by_prufer

SPIDER_221 = Tree(6, ((0, 1), (0, 2), (0, 3), (1, 4), (2, 5)))
SPIDER_311 = Tree(6, ((0, 1), (1, 2), (2, 3), (0, 4), (0, 5)))

# unlabeled trees on 1, 2, 3, ... vertices
TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]


# ---------------------------------------------------------------------------
# caps


def test_resolve_cap(monkeypatch):
    monkeypatch.delenv(CAP_ENV_VAR, raising=False)
    assert resolve_cap() == 12
    assert resolve_cap(5) == 5
    monkeypatch.setenv(CAP_ENV_VAR, "14")
    assert resolve_cap() == 14
    assert resolve_cap(9) == 9  # explicit beats the environment
    monkeypatch.setenv(CAP_ENV_VAR, "many")
    with pytest.raises(InvalidBoundsError):
        resolve_cap()
    with pytest.raises(InvalidBoundsError):
        resolve_cap(0)


def test_cap_stops_large_sequences(monkeypatch):
    monkeypatch.delenv(CAP_ENV_VAR, raising=False)
    long_path = (2,) * 11 + (1, 1)
    with pytest.raises(CapExceededError):
        enumerate_trees(long_path)
    monkeypatch.setenv(CAP_ENV_VAR, "13")
    assert len(list(enumerate_trees(long_path))) == 1
    with pytest.raises(CapExceededError):
        enumerate_trees(long_path, cap=5)


# ---------------------------------------------------------------------------
# degree sequences of trees


def test_tree_degree_sequences_small():
    assert [d.degrees for d in tree_degree_sequences(1)] == [(0,)]
    assert [d.degrees for d in tree_degree_sequences(2)] == [(1, 1)]
    assert [d.degrees for d in tree_degree_sequences(5)] == [
        (4, 1, 1, 1, 1),
        (3, 2, 1, 1, 1),
        (2, 2, 2, 1, 1),
    ]
    assert [d.degrees for d in tree_degree_sequences(5, max_degree=2)] == [
        (2, 2, 2, 1, 1)
    ]
    assert tree_degree_sequences(6, max_degree=1) == []
    with pytest.raises(InvalidBoundsError):
        tree_degree_sequences(0)


def test_tree_degree_sequence_counts_are_partition_numbers():
    # partitions of n-2 (shift every degree down by one)
    assert [len(tree_degree_sequences(n)) for n in range(3, 10)] == [
        1, 2, 3, 5, 7, 11, 15,
    ]


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_smallest_classes():
    assert [t.edges for t in enumerate_trees((0,))] == [()]
    assert [t.edges for t in enumerate_trees((1, 1))] == [((0, 1),)]
    assert len(list(enumerate_trees((2, 2, 1, 1)))) == 1
    assert len(list(enumerate_trees((5, 1, 1, 1, 1, 1)))) == 1


def test_enumerate_spider_class():
    trees = list(enumerate_trees((3, 2, 2, 1, 1, 1)))
    assert len(trees) == 2
    assert any(is_isomorphic(t, SPIDER_221, ignore_roots=True) for t in trees)
    assert any(is_isomorphic(t, SPIDER_311, ignore_roots=True) for t in trees)


def test_enumerate_is_deterministic_and_respects_degrees():
    d = (3, 3, 2, 1, 1, 1, 1)
    first = [canonical_code(t) for t in enumerate_trees(d)]
    second = [canonical_code(t) for t in enumerate_trees(d)]
    assert first == second == sorted(first)
    for t in enumerate_trees(d):
        assert tuple(sorted(t.degrees, reverse=True)) == d


def test_class_totals_match_the_tree_series():
    for n in range(1, 13):
        total = sum(
            len(list(enumerate_trees(d))) for d in tree_degree_sequences(n)
        )
        assert total == TREE_COUNTS[n - 1], n


def test_enumeration_agrees_with_prufer_classes():
    for n in range(3, 9):
        for d in tree_degree_sequences(n):
            ours = {canonical_form(t.n, t.edges) for t in enumerate_trees(d)}
            ref = classes_by_prufer(d)
            assert ours == set(ref), d


# ---------------------------------------------------------------------------
# verification reports


def test_report_validation():
    ok = VerificationReport(claim="c", instance={}, status="pass")
    assert ok.to_dict()["status"] == "pass"
    with pytest.raises(InvalidBoundsError):
        VerificationReport(claim="c", instance={}, status="maybe")
    with pytest.raises(InvalidBoundsError):
        VerificationReport(claim="c", instance={}, status="fail")
    with pytest.raises(InvalidBoundsError):
        VerificationReport(
            claim="c", instance={}, status="pass", counterexample={"k": 4}
        )


def test_report_json_is_stable_without_timing():
    def report(elapsed):
        return VerificationReport(
            claim="c",
            instance={"degree_sequence": "2^3,1^2"},
            status="pass",
            witness="w",
            stats={"trees_enumerated": 3, "elapsed_s": elapsed},
        )

    assert report(0.2).to_json() == report(0.9).to_json()
    assert report(0.2).to_json(include_timing=True) != report(0.9).to_json(
        include_timing=True
    )
    assert "elapsed_s" not in report(0.2).to_dict()
    assert report(0.2).to_dict(include_timing=True)["stats"]["elapsed_s"] == 0.2


def test_verify_greedy_maximality_passes_on_spiders():
    report = verify_greedy_maximality((3, 2, 2, 1, 1, 1), k_max=12)
    assert report.status == "pass"
    assert report.stats["trees_enumerated"] == 2
    assert report.stats["ties"] == 0
    assert report.stats["first_strict_k"] == {"6": 1}
    greedy = build_greedy_tree((3, 2, 2, 1, 1, 1))
    assert report.witness == canonical_code(greedy, ignore_root=True).decode()


def test_verify_greedy_maximality_reports_ties_below_the_horizon():
    # the remark pair agrees through k = 7, so k_max = 6 cannot separate it
    report = verify_greedy_maximality((3, 3, 2, 2, 1, 1, 1, 1), k_max=6)
    assert report.status == "pass-with-ties"
    assert report.stats["ties"] >= 1
    report = verify_greedy_maximality((3, 3, 2, 2, 1, 1, 1, 1), k_max=8)
    assert report.status == "pass"


def test_verify_majorization_monotonicity():
    report = verify_majorization_monotonicity((2, 2, 1, 1), (3, 1, 1, 1), 12)
    assert report.status == "pass"
    assert report.stats["first_strict_k"] == 4
    assert report.stats["equal_sequences"] is False
    same = verify_majorization_monotonicity((2, 2, 1, 1), (2, 2, 1, 1), 12)
    assert same.status == "pass" and same.stats["equal_sequences"] is True
    with pytest.raises(NotMajorizedError):
        verify_majorization_monotonicity(
            (3, 3, 3, 1, 1, 1, 1, 1), (4, 2, 2, 2, 1, 1, 1, 1), 12
        )


def test_verify_volkmann_conjecture():
    report = verify_volkmann_conjecture(7, 3, k_max=12)
    assert report.status == "pass"
    assert report.stats["reading_at_most"] == "pass"
    assert report.stats["reading_exactly"] == "pass"
    assert report.stats["sequences"] == 3
    volkmann = build_volkmann_tree(7, 3)
    assert report.witness == canonical_code(volkmann, ignore_root=True).decode()


def test_verify_spectral_corollaries():
    report = verify_spectral_corollaries((3, 2, 2, 1, 1, 1))
    assert report.status == "pass"
    assert report.stats["trees_enumerated"] == 2
    assert report.stats["min_radius_gap"] > 0
    assert report.stats["min_estrada_gap"] > 0
    assert report.stats["min_charpoly_gap"] > 0
    lonely = verify_spectral_corollaries((4, 1, 1, 1, 1))
    assert lonely.status == "pass"
    assert lonely.stats["min_radius_gap"] is None

    nan, inf = float("nan"), float("inf")
    for bad in (
        {"tol": nan}, {"tol": inf}, {"tol": -1.0}, {"tol": 0.0},
        {"strict_tol": nan}, {"strict_tol": inf}, {"strict_tol": 0.0},
        {"x_margin": nan}, {"x_margin": inf}, {"x_margin": -1.0},
    ):
        with pytest.raises(InvalidBoundsError):
            verify_spectral_corollaries((3, 2, 2, 1, 1, 1), **bad)
    assert verify_spectral_corollaries((3, 2, 2, 1, 1, 1), x_margin=0.0).status == "pass"


def test_verifiers_report_real_failures(monkeypatch, capsys):
    """Stand-in extremal trees drive every verifier down its fail path."""

    def cli_exit(*argv):
        code = cli.main(list(argv))
        out = capsys.readouterr().out
        assert json.loads(out)["status"] == "fail"
        return code

    # the class member with the least moments stands in for the greedy tree
    d = (3, 2, 2, 2, 1, 1, 1)
    least = min(enumerate_trees(d), key=lambda t: tuple(spectral_moments_up_to(t, 12)))
    monkeypatch.setattr(enumeration, "build_greedy_tree", lambda ds: least)
    report = verify_greedy_maximality(d, k_max=12)
    assert report.status == "fail"
    assert report.witness == canonical_code(least, ignore_root=True).decode()
    cx = report.counterexample
    assert list(cx) == ["tree", "k", "moment", "greedy_moment"]
    assert not is_isomorphic(tree_from_dict(cx["tree"]), least, ignore_roots=True)
    assert (cx["k"], cx["moment"], cx["greedy_moment"]) == (6, "126", "120")
    assert report.to_dict()["stats"] == {"trees_enumerated": 2, "ties": 0, "first_strict_k": {}}
    assert cli_exit("verify", "maximality", "3,2^3,1^3", "--k", "12") == 1

    report = verify_spectral_corollaries(d)
    assert report.status == "fail"
    cx = report.counterexample
    assert list(cx) == ["tree", "quantity", "gap", "floor"]
    assert cx["quantity"] == "spectral_radius" and cx["floor"] == -1e-9
    assert -0.04 < cx["gap"] < -0.03
    assert report.to_dict()["stats"] == {
        "trees_enumerated": 2,
        "min_radius_gap": None,
        "min_estrada_gap": None,
        "min_charpoly_gap": None,
    }
    assert cli_exit("verify", "corollaries", "3,2^3,1^3") == 1

    # a path stands in for the Volkmann tree; the sweep goes on after the
    # first failure to decide the "exactly Delta" reading
    path = Tree(7, tuple((i, i + 1) for i in range(6)))
    monkeypatch.setattr(enumeration, "build_volkmann_tree", lambda n, max_degree: path)
    report = verify_volkmann_conjecture(7, 3, k_max=12)
    assert report.status == "fail"
    cx = report.counterexample
    assert list(cx) == ["tree", "degree_sequence", "k", "moment", "volkmann_moment"]
    assert (cx["degree_sequence"], cx["k"], cx["moment"], cx["volkmann_moment"]) == (
        "3^2,2,1^4", 4, "40", "32"
    )
    assert report.to_dict()["stats"] == {
        "reading_at_most": "fail",
        "reading_exactly": "fail",
        "sequences": 3,
        "trees_enumerated": 6,
    }
    assert cli_exit("verify", "volkmann", "7", "3", "--k", "12") == 1

    # d = 3,2^2,1^3 gets the non-greedy spider, b = 2^4,1^2 the greedy one
    greedy = build_greedy_tree((3, 2, 2, 1, 1, 1))
    swapped = {(3, 2, 2, 1, 1, 1): SPIDER_311, (2, 2, 2, 2, 1, 1): greedy}
    monkeypatch.setattr(enumeration, "build_greedy_tree", lambda ds: swapped[ds.degrees])
    report = verify_majorization_monotonicity((2, 2, 2, 2, 1, 1), (3, 2, 2, 1, 1, 1), 12)
    assert report.counterexample == {
        "k": 4, "moment_b": "30", "moment_d": "30", "violated": "strictness"
    }
    assert report.to_dict()["stats"] == {"equal_sequences": False, "first_strict_k": None}
    assert cli_exit("verify", "majorization", "2^4,1^2", "3,2^2,1^3", "--k", "12") == 1

    # b = 2^2,1^2 gets the star, d = 3,1^3 the path
    star = Tree(4, ((0, 1), (0, 2), (0, 3)))
    swapped = {(2, 2, 1, 1): star, (3, 1, 1, 1): Tree(4, ((0, 1), (1, 2), (2, 3)))}
    report = verify_majorization_monotonicity((2, 2, 1, 1), (3, 1, 1, 1), 12)
    assert report.status == "fail"
    assert report.counterexample == {
        "k": 4, "moment_b": "18", "moment_d": "14", "violated": "inequality"
    }
    assert report.to_dict()["stats"] == {"equal_sequences": False, "first_strict_k": None}
    assert cli_exit("verify", "majorization", "2,2,1,1", "3,1,1,1", "--k", "12") == 1


# ---------------------------------------------------------------------------
# the equal-moments pair


def test_remark_pair_r1():
    greedy, partner = build_remark_pair(1)
    assert greedy.n == partner.n == 8
    want = (3, 3, 2, 2, 1, 1, 1, 1)
    assert tuple(sorted(greedy.degrees, reverse=True)) == want
    assert tuple(sorted(partner.degrees, reverse=True)) == want
    assert not is_isomorphic(greedy, partner, ignore_roots=True)
    assert first_strict_difference(greedy, partner, 16) == 8


def test_remark_pair_r2():
    greedy, partner = build_remark_pair(2)
    assert greedy.n == partner.n == 12
    assert not is_isomorphic(greedy, partner, ignore_roots=True)
    assert first_strict_difference(greedy, partner, 16) == 12


def test_remark_pair_needs_positive_r():
    with pytest.raises(InvalidBoundsError):
        build_remark_pair(0)


def test_cap_error_is_a_library_error():
    assert issubclass(CapExceededError, GreedySpectraError)
    assert issubclass(NotMajorizedError, GreedySpectraError)
