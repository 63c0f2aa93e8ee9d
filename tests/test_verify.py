"""The verify battery's table, driver and report, with every check stubbed."""

import json

import pytest

from equihom import verify, zz2
from equihom.cli import main
from equihom.errors import InvariantViolationError

ALL = ["hom-complex-K4-sphere", "cycle-circle-isomorphism",
       "structure-colouring-search", "band-boundary-identity",
       "two-torus-exhaustive-battery", "degree-patterns-realized",
       "minion-minor-compatibility", "lax-minor-inequality",
       "generalized-diagonal-invariants", "equivariant-torus-table",
       "quotient-projection-check", "odd-vector-count",
       "chain-alternation-ceiling"]


def stub_checks(monkeypatch, outcomes=()):
    """Swap every check for a stub, keeping each row's suite and name.

    A stub passes with detail "ok" unless ``outcomes`` names it: then it
    returns that pair, or raises it if it is an exception.  Returns the
    list of ``(name, seed)`` calls.
    """
    outcomes = dict(outcomes)
    calls = []

    def stub(name):
        def check(seed):
            calls.append((name, seed))
            outcome = outcomes.get(name, (True, "ok"))
            if isinstance(outcome, Exception):
                raise outcome
            return outcome
        return check

    monkeypatch.setattr(verify, "CHECKS", tuple(
        (suite, name, stub(name)) for suite, name, _ in verify.CHECKS))
    return calls


def printed_names(out):
    return [line.split()[1] for line in out.splitlines()]


def test_all_runs_every_check_in_report_order(monkeypatch, capsys):
    calls = stub_checks(monkeypatch)
    assert main(["verify", "--seed", "5"]) == 0
    assert printed_names(capsys.readouterr().out) == ALL
    assert calls == [(name, 5) for name in ALL]


@pytest.mark.parametrize("suite, names", [
    ("complexes", ["hom-complex-K4-sphere", "cycle-circle-isomorphism",
                   "structure-colouring-search"]),
    ("degrees", ["band-boundary-identity", "two-torus-exhaustive-battery",
                 "degree-patterns-realized", "minion-minor-compatibility",
                 "lax-minor-inequality"]),
    ("slices", ["generalized-diagonal-invariants", "chain-alternation-ceiling"]),
    ("bredon", ["equivariant-torus-table", "quotient-projection-check",
                "odd-vector-count"]),
    ("bredon-large", ["equivariant-torus-table-n4", "equivariant-torus-table-n5",
                      "equivariant-torus-table-n6", "quotient-projection-check-n4",
                      "quotient-projection-check-n5", "equivariant-torus-table-n8",
                      "quotient-projection-check-n7"])])
def test_each_suite_runs_its_own_checks_in_order(monkeypatch, capsys, suite, names):
    calls = stub_checks(monkeypatch)
    assert main(["verify", "--suite", suite]) == 0
    assert printed_names(capsys.readouterr().out) == names
    assert calls == [(name, 0) for name in names]


def test_failing_check_fails_the_run_and_the_rest_still_run(tmp_path, monkeypatch,
                                                            capsys):
    stub_checks(monkeypatch, {"band-boundary-identity": (False, "x")})
    out = tmp_path / "verify.json"
    assert main(["verify", "--suite", "degrees", "--out", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "FAIL  " + "band-boundary-identity".ljust(34) + "  x"
    assert len(lines) == 5 and all(line.startswith("PASS") for line in lines[1:])
    rows = json.loads(out.read_text())["results"]
    assert rows[0] == {"check": "band-boundary-identity", "pass": False, "detail": "x"}
    assert [row["pass"] for row in rows[1:]] == [True] * 4


def test_raising_check_becomes_a_failed_row(tmp_path, monkeypatch, capsys):
    stub_checks(monkeypatch, {"equivariant-torus-table":
                              InvariantViolationError("boom")})
    out = tmp_path / "verify.json"
    assert main(["verify", "--suite", "bredon", "--out", str(out)]) == 1
    printed = capsys.readouterr()
    assert printed.err == ""
    assert printed_names(printed.out) == ["equivariant-torus-table",
                                          "quotient-projection-check",
                                          "odd-vector-count"]
    row = json.loads(out.read_text())["results"][0]
    assert row == {"check": "equivariant-torus-table", "pass": False,
                   "detail": "InvariantViolationError: boom"}


@pytest.mark.parametrize("expected, outcome", [
    (verify.expected_bredon, (True, "ok")),
    (lambda n, d: None, (False, "mismatch at n=1, L=4, d=1: Z/2")),
], ids=["passing", "mismatch"])
def test_a_bredon_table_empties_the_torus_caches(monkeypatch, expected, outcome):
    # the Smith forms of one table must not stay alive through the next one;
    # bredon-large runs n = 4, then (n, L) = (5, 4) and (6, 4)
    monkeypatch.setattr(verify, "expected_bredon", expected)
    assert verify._bredon_table((1, 2), (4, 8), "ok")(0) == outcome
    assert zz2._torus_coboundaries.cache_info().currsize == 0


@pytest.mark.parametrize("matches, outcome", [
    (True, (True, "ok")), (False, (False, "projection check failed at d=1")),
], ids=["passing", "mismatch"])
def test_a_quotient_check_row_empties_its_caches(monkeypatch, matches, outcome):
    # the quotient checks at (4, 8) and (5, 4) run one after the other
    real_check = verify.quotient_pstar_check

    def check(n, L, d):
        return dict(real_check(n, L, d), matches_expected=matches)

    check.cache_clear = real_check.cache_clear
    monkeypatch.setattr(verify, "quotient_pstar_check", check)
    assert verify._quotient_projection(2, 8, (1, 2), "ok")(0) == outcome
    assert zz2._quotient_complexes.cache_info().currsize == 0
    assert zz2._torus_coboundaries.cache_info().currsize == 0
