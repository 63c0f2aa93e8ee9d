import contextlib
import hashlib
import io
import json
import os
import time
import tracemalloc
from itertools import product as iproduct

import pytest

from equihom import cli, zz2
from equihom.cli import main
from equihom.errors import EquihomError
from equihom.graphs import hom_to_json
from equihom.homcomplexes import search_t_colouring

from oracles import add_at, simplicial_set_from_json


def run(args):
    return main(args)


def read_lines(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def test_enumerate_counts_and_trailer(tmp_path):
    out = tmp_path / "polys.jsonl"
    assert run(["enumerate", "--ell", "3", "--arity", "1", "--out", str(out)]) == 0
    lines = read_lines(out)
    records = [obj for obj in lines if not obj.get("trailer")]
    trailer = lines[-1]
    assert len(records) == 24
    assert trailer["trailer"] and trailer["count"] == 24 and not trailer["truncated"]
    assert trailer["version"] and "seed" in trailer


def test_enumerate_limit_trailer(tmp_path):
    out = tmp_path / "polys.jsonl"
    assert run(["enumerate", "--ell", "3", "--arity", "2", "--limit", "10",
                "--out", str(out)]) == 0
    lines = read_lines(out)
    assert len(lines) == 11
    assert lines[-1]["truncated"] is True


def test_enumerate_streams_into_place_and_a_failed_run_keeps_the_old_file(
        tmp_path, monkeypatch, capsys):
    """The records go to a temporary file beside --out, moved into place
    after the trailer with the mode a plain open gives; a run that fails
    part way leaves the old file as it was, and no temporary file."""
    out = tmp_path / "polys.jsonl"
    assert run(["enumerate", "--ell", "3", "--arity", "2", "--limit", "10"]) == 0
    printed = capsys.readouterr().out
    assert run(["enumerate", "--ell", "3", "--arity", "2", "--limit", "10",
                "--out", str(out)]) == 0
    assert out.read_text() == printed and printed.count("\n") == 11
    umask = os.umask(0)
    os.umask(umask)
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask
    written = []

    def failing(f):
        if len(written) == 5:
            raise OSError("no space left on device")
        written.append(f)
        return hom_to_json(f)

    monkeypatch.setattr(cli, "hom_to_json", failing)
    assert run(["enumerate", "--ell", "3", "--arity", "2", "--out", str(out)]) == 2
    assert "no space left on device" in capsys.readouterr().err
    assert len(written) == 5 and out.read_text() == printed
    assert list(tmp_path.iterdir()) == [out]


def test_enumerate_rejects_even_cycle():
    assert run(["enumerate", "--ell", "4", "--arity", "1"]) == 2


def test_enumerate_rejects_negative_limit(tmp_path, capsys):
    out = tmp_path / "polys.jsonl"
    assert run(["enumerate", "--ell", "3", "--arity", "2", "--limit", "-1",
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: limit must be >= 0, got -1\n"
    assert not out.exists()


def test_phi_on_unary_file(tmp_path):
    polys = tmp_path / "polys.jsonl"
    out = tmp_path / "phi.jsonl"
    run(["enumerate", "--ell", "3", "--arity", "1", "--out", str(polys)])
    assert run(["phi", "--in", str(polys), "--out", str(out)]) == 0
    lines = read_lines(out)
    records = [obj for obj in lines if not obj.get("trailer")]
    assert len(records) == 24
    assert all(obj["alpha"] == [1] for obj in records)
    fp = records[0]["t_fingerprint"]
    assert all(obj["t_fingerprint"] == fp for obj in records)


def _phi_report_elsewhere(tmp_path, monkeypatch, enumerate_args):
    """The SHA-256 of the `phi` report on the file that `enumerate` writes
    with ``enumerate_args`` into one directory, with `phi` run from another."""
    inputs, elsewhere = tmp_path / "inputs", tmp_path / "elsewhere"
    inputs.mkdir()
    elsewhere.mkdir()
    assert run(["enumerate", *enumerate_args, "--out", str(inputs / "polys.jsonl")]) == 0
    monkeypatch.chdir(elsewhere)
    assert run(["phi", "--in", "../inputs/polys.jsonl", "--out", "phi.jsonl"]) == 0
    return hashlib.sha256((elsewhere / "phi.jsonl").read_bytes()).hexdigest()


# SHA-256 of the `phi` report on the file that `enumerate --ell 3 --arity 2`
# writes; the report names that file by the SHA-256 of its bytes
BINARY_PHI_SHA256 = "9699e1ebec0a96a6a836ca7eb214672c290e73ed3d0cd0987dbd4902fadb90b6"


def test_binary_phi_report_is_pinned(tmp_path, monkeypatch):
    digest = _phi_report_elsewhere(tmp_path, monkeypatch,
                                   ["--ell", "3", "--arity", "2"])
    assert digest == BINARY_PHI_SHA256


# SHA-256 of the `phi` report on the file that `enumerate --ell 5 --arity 2
# --limit 500` writes
ELL5_PHI_SHA256 = "86fda20ebe55bdd2d5b993b659b4e81f8420d5dfee618d2c562a5c81efa483b0"


def test_ell5_phi_report_is_pinned(tmp_path, monkeypatch):
    digest = _phi_report_elsewhere(tmp_path, monkeypatch,
                                   ["--ell", "5", "--arity", "2", "--limit", "500"])
    assert digest == ELL5_PHI_SHA256


# SHA-256 of the `phi` report on the file that `enumerate --ell 3 --arity 4
# --limit 20` writes
ARITY4_PHI_SHA256 = "fe35a824d0e57268ea30e54743e6eb7926b08e9c0c49be066b9c70905c83ca78"


def test_arity4_phi_report_is_pinned(tmp_path, monkeypatch):
    digest = _phi_report_elsewhere(tmp_path, monkeypatch,
                                   ["--ell", "3", "--arity", "4", "--limit", "20"])
    assert digest == ARITY4_PHI_SHA256


def test_phi_on_a_long_cycle_stays_small(tmp_path):
    """The two projections of C_41^2: one byte per slice cell for each of
    the 1 681 domain vertices would be about 180 MB, so phi reads them side
    by side, in a few MB and well under a second untraced."""
    ell = 41
    colours = [k % 2 for k in range(ell - 1)] + [2]
    polys = tmp_path / "polys.jsonl"
    polys.write_text("".join(
        json.dumps({"domain_base": ell, "arity": 2, "codomain": 4,
                    "values": [colours[x // ell ** (1 - i) % ell] for x in range(ell ** 2)]})
        + "\n" for i in range(2)))
    out = tmp_path / "phi.jsonl"
    start = time.perf_counter()
    tracemalloc.start()
    try:
        assert run(["phi", "--in", str(polys), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 10
    assert peak < 48 << 20
    assert [obj["alpha"] for obj in read_lines(out)[:-1]] == [[1, 0], [0, 1]]


PHI_RECORD = {"domain_base": 3, "arity": 1, "codomain": 4, "values": [0, 1, 2]}


@pytest.mark.parametrize("record", [
    {k: v for k, v in PHI_RECORD.items() if k != "domain_base"},
    [3, 1, 4, [0, 1, 2]],
    dict(PHI_RECORD, arity="1"),
    dict(PHI_RECORD, codomain=None),
    dict(PHI_RECORD, values=7),
    dict(PHI_RECORD, values=[0.0, 1, 2]),
    dict(PHI_RECORD, values=[True, 1, 2]),
    dict(PHI_RECORD, values=[7, 1, 2]),
    dict(PHI_RECORD, values=["a", 1, 2]),
    dict(PHI_RECORD, arity=10000),
    dict(PHI_RECORD, codomain=2000),
    dict(PHI_RECORD, domain_base=2000001),
], ids=["missing-domain-base", "list-line", "string-arity", "null-codomain",
        "non-list-values", "float-value", "bool-value", "out-of-range-value",
        "string-value", "huge-arity", "huge-codomain", "huge-domain-base"])
def test_phi_malformed_record_is_a_usage_error(tmp_path, monkeypatch, capsys, record):
    # every record is checked before the first one's graphs are built, so an
    # oversized record costs neither time nor memory
    def no_graphs(obj):
        raise AssertionError(f"graphs built for {obj}")

    monkeypatch.setattr(cli, "hom_from_json", no_graphs)
    polys = tmp_path / "polys.jsonl"
    polys.write_text(json.dumps(PHI_RECORD) + "\n" + json.dumps(record) + "\n")
    assert run(["phi", "--in", str(polys)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("verb, flag", [
    (["phi"], "--in"),
    (["degree"], "--colouring"),
    (["swap-stats", "--i", "1"], "--colouring"),
], ids=["phi", "degree", "swap-stats"])
def test_non_utf8_input_file_is_a_usage_error(tmp_path, capsys, verb, flag):
    path = tmp_path / "input.json"
    path.write_bytes(b"\xff\xfe{}\n")
    assert run(verb + [flag, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_fuzzed_inputs_never_escape_main(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    polys, col = tmp_path / "polys.jsonl", tmp_path / "col.json"
    # integral floats and bools compare equal to the ints they stand for
    scalars = st.one_of(st.integers(-2, 6), st.integers(-2, 6).map(float),
                        st.floats(), st.booleans(), st.text(max_size=3), st.none())
    fields = st.one_of(scalars, st.lists(scalars, max_size=4))

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(
        overrides=st.dictionaries(st.sampled_from(sorted(PHI_RECORD)), fields,
                                  max_size=2),
        entry=st.none() | st.tuples(st.integers(0, 2), scalars),
        colouring=st.binary(max_size=24),
        colouring_verb=st.sampled_from([["degree"], ["swap-stats", "--i", "1"]]))
    def check(overrides, entry, colouring, colouring_verb):
        record = dict(PHI_RECORD, values=list(PHI_RECORD["values"]))
        if entry is not None:
            record["values"][entry[0]] = entry[1]
        record.update(overrides)
        polys.write_text(json.dumps(record) + "\n")
        col.write_bytes(colouring)
        for argv in (["phi", "--in", str(polys)],
                     colouring_verb + ["--colouring", str(col)]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = run(argv)
            assert code in (0, 1, 2), (argv, record, colouring)
            assert "Traceback" not in err.getvalue()

    check()


def test_reports_byte_identical(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run(["enumerate", "--ell", "3", "--arity", "1", "--out", str(a)])
    run(["enumerate", "--ell", "3", "--arity", "1", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def _write_colouring(path, L, n, bit_fn):
    verts = list(range(L)) if n == 1 else list(iproduct(range(L), repeat=n))
    path.write_text(json.dumps(
        {"L": L, "n": n, "colours": [bit_fn(v) for v in verts]}))


def test_degree_verb(tmp_path, capsys):
    col = tmp_path / "col.json"
    _write_colouring(col, 4, 2, lambda v: 1 if v[0] < 2 else 0)
    out = tmp_path / "deg.json"
    assert run(["degree", "--colouring", str(col), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["alpha"] == [1, 0]


def test_degree_verb_rejects_non_equivariant(tmp_path):
    col = tmp_path / "col.json"
    _write_colouring(col, 4, 2, lambda v: 1)
    assert run(["degree", "--colouring", str(col)]) == 2


@pytest.mark.parametrize("verb, content", [
    (["degree"], {"L": "8", "n": 1, "colours": [1, 1, 1, 1, 0, 0, 0, 0]}),
    (["degree"], {"L": 4, "n": 2}),
    (["swap-stats", "--i", "1"], {"L": 4, "n": 2, "colours": 7}),
    (["swap-stats", "--i", "1"], {"L": 6, "n": 2, "colours": [1, 0] * 18}),
    (["degree"], {"L": 4, "n": 8000, "colours": [0, 1]}),
    (["swap-stats", "--i", "1"], {"L": 4, "n": 8000, "colours": [0, 1]}),
    (["degree"], {"L": 12, "n": 10 ** 7, "colours": [0, 1]}),  # 12^(10^7) takes seconds
    (["degree"], {"L": 4, "n": 1, "colours": [True, True, False, False]}),
    (["swap-stats", "--i", "1"], {"L": 4, "n": 1, "colours": [1.0, 1.0, 0.0, 0.0]}),
], ids=["string-L", "missing-colours", "non-list-colours", "L-not-multiple-of-4",
        "degree-huge-n", "swap-stats-huge-n", "degree-n-1e7", "bool-colours",
        "float-colours"])
def test_malformed_colouring_file_is_a_usage_error(tmp_path, capsys, verb, content):
    col = tmp_path / "col.json"
    col.write_text(json.dumps(content))
    start = time.perf_counter()
    assert run(verb + ["--colouring", str(col)]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


# an integer past the interpreter's 4300-digit conversion limit
LONG_INTEGER = "4" + "0" * 5000


@pytest.mark.parametrize("verb, flag, text", [
    (["degree"], "--colouring", f'{{"L": {LONG_INTEGER}, "n": 1, "colours": [0, 1]}}'),
    (["swap-stats", "--i", "1"], "--colouring",
     f'{{"L": 4, "n": 1, "colours": [0, 1, {LONG_INTEGER}, 1]}}'),
    (["phi"], "--in", json.dumps(PHI_RECORD) + "\n"
     + f'{{"domain_base": 3, "arity": 1, "codomain": 4, "values": [0, 1, {LONG_INTEGER}]}}\n'),
], ids=["degree", "swap-stats", "phi"])
def test_long_integer_input_is_a_usage_error(tmp_path, capsys, verb, flag, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    start = time.perf_counter()
    assert run(verb + [flag, str(path)]) == 2
    assert time.perf_counter() - start < 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_hom_complex_verb(tmp_path):
    out = tmp_path / "complex.json"
    assert run(["hom-complex", "--graph", "complete:4", "--out", str(out)]) == 0
    x = simplicial_set_from_json(json.loads(out.read_text()))
    assert len(x.vertices) == 50
    assert run(["hom-complex", "--graph", "wedge:9"]) == 2


HOM_COMPLEX_SHA256 = {
    "complete:4": "f4a6ac55ca1e7863ff7197f87629a2e73e76f7b0cce7a094233b61e5660153ba",
    "complete:5": "9677e78b9630faa2e0392b20e062c902380df1f6f053245a9f113a647ef375f3",
    "cycle:5": "2501988b5fb1d6969f5c64a172be5417017c5ac7d3d43546ce55d04550f25723",
}


@pytest.mark.parametrize("graph", sorted(HOM_COMPLEX_SHA256))
def test_hom_complex_report_is_pinned(tmp_path, graph):
    out = tmp_path / "complex.json"
    assert run(["hom-complex", "--graph", graph, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == HOM_COMPLEX_SHA256[graph]


# SHA-256 of the canonical JSON of the structure colouring t
T_FINGERPRINT = "8c85a9cddcd545231ac25224cccd26fb6f2c4752da7db81388dddfb5d9562e55"


def test_search_t_verb(tmp_path):
    """search-t prints the canonical t and writes no other file."""
    out = tmp_path / "t.json"
    assert run(["search-t", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["colours"] == list(search_t_colouring().colours)
    assert report["t_fingerprint"] == T_FINGERPRINT
    assert report["params"] == {}
    assert list(tmp_path.iterdir()) == [out]


def test_zeta0_verb(tmp_path):
    out = tmp_path / "z.json"
    assert run(["zeta0", "--n", "5", "--h", "1", "--L", "4", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["period"] == 12 and report["validated"]
    assert run(["zeta0", "--n", "4", "--h", "2", "--L", "4"]) == 2


def test_swap_stats_verb(tmp_path):
    col = tmp_path / "col.json"
    _write_colouring(col, 4, 2, lambda v: 1 if v[0] < 2 else 0)
    out = tmp_path / "stats.json"
    assert run(["swap-stats", "--colouring", str(col), "--i", "1",
                "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["swap_fractions"]["0"]["fraction"] == "1/2"


def test_bredon_verb(tmp_path):
    out = tmp_path / "bredon.json"
    assert run(["bredon", "--n", "2", "--L", "4", "--d", "1",
                "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["coefficients"] == "Zminus"
    assert report["free_rank"] == 0 and report["torsion"] == [2]


@pytest.mark.parametrize("argv", [
    ["bredon", "--n", "1000", "--L", "4", "--d", "1"],
    ["bredon", "--n", "11", "--L", "4", "--d", "1"],
    ["bredon", "--n", "1", "--L", "40000000000", "--d", "1"],
    ["enumerate", "--ell", "3", "--arity", "10000"],
    ["zeta0", "--n", "100000000", "--h", "1", "--L", "4"],
    ["enumerate", "--ell", "3", "--arity", "9", "--limit", "1"],
    ["enumerate", "--ell", "9", "--arity", "5", "--limit", "2"],
    ["hom-complex", "--graph", "complete:40"],
], ids=["bredon-n1000", "bredon-n11", "bredon-huge-L", "enumerate-arity10000", "zeta0-n1e8",
        "enumerate-arity9-edges", "enumerate-ell9-arity5-edges", "hom-complex-complete40"])
def test_oversized_torus_or_power_is_refused_at_once(argv, capsys):
    start = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - start < 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert len(captured.err) < 200, captured.err


@pytest.mark.parametrize("n, L, d", [(2, 5, 3), (2, 0, 3), (1000, 4, 1001)],
                         ids=["side-5", "side-0", "n1000"])
def test_bredon_above_the_dimension_checks_the_torus_first(n, L, d, capsys):
    """A degree above the torus dimension reads the zero group only of a
    torus that can be built: a bad side or a torus over the cell limit
    exits 2 with the message a degree within the dimension gets."""
    refusals = []
    for degree in (d, 1):
        assert run(["bredon", "--n", str(n), "--L", str(L), "--d", str(degree)]) == 2
        refusals.append(capsys.readouterr())
    assert refusals[0] == refusals[1]
    assert refusals[0].out == "" and refusals[0].err.startswith("error: ")


def test_bredon_reads_c2_to_the_model_cell_limit(capsys):
    """C(2)^10 is the largest model: n = 10 is read off it, while n = 11,
    whose C(2)^11 has CELL_LIMIT cells, and a circle C(L) of more than
    CELL_LIMIT cells are refused, each named by its own limit."""
    assert zz2.CUBE_CELL_LIMIT == 4 ** 10
    for argv, message in [
            (["--n", "11", "--L", "4"], "torus C(2)^11 has more cells than the cell limit 1048576"),
            (["--n", "1", "--L", "2097156"],
             "torus C(2097156) has more cells than the cell limit 4194304")]:
        assert run(["bredon", *argv, "--d", "1"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_bredon_past_the_old_cell_limit(tmp_path):
    """(2L)^n passed the cell limit at (7, 4); the model C(2)^7 does not."""
    out = tmp_path / "bredon.json"
    assert run(["bredon", "--n", "7", "--L", "4", "--d", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert (report["free_rank"], report["torsion"]) == (0, [2] * 15)


def test_bredon_on_a_corrupted_contraction_is_a_verification_failure(
        tmp_path, capsys, monkeypatch):
    """A homotopy that skips an edge fails the contraction check, exit 1,
    before any orbit complex is built."""
    real = zz2._circle_contraction
    monkeypatch.setattr(zz2, "_circle_contraction", lambda L: (
        lambda f, g, step: (f, g, lambda i: {} if i == 2 else step(i)))(*real(L)))
    built = []
    monkeypatch.setattr(zz2, "equivariant_complex", lambda *args: built.append(args))
    zz2._check_contraction.cache_clear()  # a cached pass at L = 8 would hide it
    out = tmp_path / "bredon.json"
    for extra in ([], ["--quotient-check"]):
        assert run(["bredon", "--n", "2", "--L", "8", "--d", "1", "--out", str(out), *extra]) == 1
        assert capsys.readouterr().err == ("verification failure: C(8) does not contract onto "
                                           "C(2): id - gf != dh + hd at code 3\n")
    assert not out.exists() and built == []


def test_quotient_check_checks_the_contraction_once(tmp_path, monkeypatch):
    """bredon_torus and quotient_pstar_check both rest on the contraction of
    C(L) onto C(2), and one --quotient-check run checks it once."""
    real = zz2._circle_contraction
    checked = []
    monkeypatch.setattr(zz2, "_circle_contraction", lambda L: checked.append(L) or real(L))
    zz2._check_contraction.cache_clear()
    out = tmp_path / "quotient.json"
    assert run(["bredon", "--n", "2", "--L", "12", "--d", "1", "--quotient-check",
                "--out", str(out)]) == 0
    assert checked == [12]
    assert json.loads(out.read_text())["quotient_check"]["matches_expected"]


def test_bredon_on_a_corrupted_orbit_complex_is_a_verification_failure(
        tmp_path, capsys, monkeypatch):
    real_complex = zz2.equivariant_complex

    def corrupted(L, n, coefficients, moved=None):
        cx = real_complex(L, n, coefficients, moved)
        delta = cx.coboundaries[1]
        j = next(j for j, row in enumerate(delta.rows) if row)
        add_at(delta, j, next(iter(delta.rows[j])), 1)
        return cx

    monkeypatch.setattr(zz2, "equivariant_complex", corrupted)
    zz2.bredon_torus.cache_clear()
    try:
        out = tmp_path / "bredon.json"
        assert run(["bredon", "--n", "3", "--L", "4", "--d", "3",
                    "--out", str(out)]) == 1
    finally:
        zz2.bredon_torus.cache_clear()
    err = capsys.readouterr().err
    assert err == ("verification failure: coboundaries do not compose to zero: "
                   "delta_1 delta_0 != 0\n")
    assert not out.exists()


BREDON = ["bredon", "--n", "2", "--L", "4", "--d", "1"]
VERB_LIST = ", ".join(cli.VERBS)


@pytest.mark.parametrize("argv, message", [
    ([], f"a verb is required: {VERB_LIST}"),
    (["frobnicate"], f"unknown verb 'frobnicate': choose from {VERB_LIST}"),
    (["--seed", "3", *BREDON], f"unknown verb '--seed': choose from {VERB_LIST}"),
    ([*BREDON, "--k", "1"], "bredon: unrecognized argument '--k'"),
    (["search-t", "--n", "2"], "search-t: unrecognized argument '--n'"),
    ([*BREDON, "--coef", "ZZ2"], "bredon: unrecognized argument '--coef'"),
    ([*BREDON, "stray"], "bredon: unrecognized argument 'stray'"),
    ([*BREDON, "--"], "bredon: unrecognized argument '--'"),
    ([*BREDON, "--quotient-check=yes"], "bredon: unrecognized argument '--quotient-check=yes'"),
    (BREDON[:-1], "argument --d needs a value"),
    ([*BREDON, "--out"], "argument --out needs a value"),
    (["bredon", "--out", *BREDON[1:]], "argument --out needs a value"),
    (["bredon", "--n", "two", "--L", "4", "--d", "1"], "argument --n: invalid int value: 'two'"),
    (["bredon", "--n=", "--L", "4", "--d", "1"], "argument --n: invalid int value: ''"),
    (["bredon", "--n", "2.0", "--L", "4", "--d", "1"], "argument --n: invalid int value: '2.0'"),
    ([*BREDON, "--n", LONG_INTEGER], f"argument --n: invalid int value: '{LONG_INTEGER}'"),
    ([*BREDON, "--seed", "x"], "argument --seed: invalid int value: 'x'"),
    ([*BREDON, "--coefficients", "Z"],
     "argument --coefficients: invalid choice: 'Z' (choose from Zminus, Zplus, ZZ2)"),
    (["verify", "--suite=every"], "argument --suite: invalid choice: 'every' (choose from "
     "complexes, degrees, slices, bredon, bredon-large, all)"),
    (["bredon", "--n", "2", "--L", "4"], "bredon needs --d"),
    (["bredon", "--d", "1"], "bredon needs --n"),
    (["phi", "--out", "phi.jsonl"], "phi needs --in"),
], ids=["no-verb", "unknown-verb", "option-before-verb", "unknown-option",
        "option-of-another-verb", "abbreviation", "stray-positional", "double-dash",
        "flag-with-value", "missing-value", "missing-last-value", "option-as-value",
        "bad-int", "empty-int", "float-int", "5000-digit-int", "bad-seed", "bad-choice",
        "bad-suite", "missing-required", "missing-two-required", "missing-in"])
def test_malformed_argv_is_a_one_line_usage_error(argv, message, capsys, tmp_path,
                                                  monkeypatch):
    """Exit 2 with one line on standard error, no usage banner and nothing
    on standard output; a SystemExit would fail the test."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, options", [
    (["bredon", "--n=2", "--L=4", "--d=1"], {"n": 2, "L": 4, "d": 1}),
    (["bredon", "--d", "1", "--n", "3", "--L", "4", "--n", "2"], {"n": 2, "L": 4, "d": 1}),
    ([*BREDON, "--quotient-check", "--coefficients", "ZZ2", "--seed=-7", "--out=a=b"],
     {"n": 2, "L": 4, "d": 1, "quotient_check": True, "coefficients": "ZZ2", "seed": -7,
      "out": "a=b"}),
    (["enumerate", "--ell", "3", "--arity", "2", "--limit", "-1", "--out", "-"],
     {"ell": 3, "arity": 2, "limit": -1, "out": "-"}),
    (["phi", "--in", "polys.jsonl"], {"infile": "polys.jsonl"}),
    (["swap-stats", "--colouring", "c.json", "--i", "1"],
     {"colouring": "c.json", "i": 1, "h": None}),
    (["experiment", "--n-max", " 2 ", "--chain-samples", "+50"],
     {"ell": 3, "n_max": 2, "chain_samples": 50}),
    (["verify"], {"suite": "all"}),
    (["search-t"], {}),
], ids=["equals", "last-wins", "flag-choice-negative-seed", "negative-limit", "infile",
        "unset-h", "defaults-and-int-spelling", "default-suite", "common-only"])
def test_parse_args_accepts_the_argparse_syntax(argv, options):
    """``--opt value`` and ``--opt=value``, a value starting with ``-``, the
    last of a repeated option, flags, and the defaults and namespace names
    the commands read."""
    defaults = {"out": None, "seed": 0}
    defaults.update({"bredon": {"coefficients": "Zminus", "quotient_check": False},
                     "enumerate": {"limit": None}}.get(argv[0], {}))
    assert vars(cli.parse_args(argv)) == {"command": argv[0], **defaults, **options}


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["-h", "bredon"]]
                         + [[verb, "-h"] for verb in cli.VERBS]
                         + [["bredon", "--n", "2", "--help"], ["bredon", "--n", "two", "-h"]])
def test_help_names_every_verb_and_option(argv, capsys):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    usage, *rest = captured.out.splitlines()
    if argv[0] not in cli.VERBS:
        assert usage.startswith("usage: equihom VERB ")
        assert [row.split()[0] for row in rest] == list(cli.VERBS)
    else:
        verb = argv[0]
        assert usage.startswith(f"usage: equihom {verb} ") and rest == [cli.VERBS[verb][1]]
        words = [word.strip("[]") for word in usage.split()[3:]]
        assert [word for word in words if word.startswith("--")] == [*cli.VERBS[verb][2],
                                                                    *cli.COMMON]


def test_parse_args_returns_a_namespace_or_help_or_raises_a_usage_error():
    """Over token lists drawn from verb names, option names and junk, the
    parser alone returns a namespace holding every option of its verb with a
    value of the option's kind, or the help text, or raises EquihomError
    with a one-line message; the same list gives the same outcome twice."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    flags = sorted({flag for _, _, options in cli.VERBS.values() for flag in options})
    junk = ["", "-", "--", "=", "-1", "2", "4", " 8", "0x10", "two", "1e3", "Zplus", "all",
            "--n=", "--n=-3", "--seed=5", "-h", "--help", "--coef", LONG_INTEGER, "a\nb"]
    token = st.sampled_from([*cli.VERBS, *flags, *cli.COMMON, *junk]) | st.text(max_size=4)
    value = st.sampled_from(["1", "2", "-1", "4", "two", "ZZ2", "all", "slices", "p.json"])

    def after(verb):  # the verb's own options with values, spaced or joined by =, and junk
        pair = st.tuples(st.sampled_from([*cli.VERBS[verb][2], *cli.COMMON]), value)
        piece = st.one_of(pair.map(list), pair.map(list), pair.map(lambda p: ["=".join(p)]),
                          token.map(lambda t: [t]))
        return st.lists(piece, max_size=8).map(lambda pieces: [verb, *sum(pieces, [])])

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(token, max_size=9) | st.sampled_from(list(cli.VERBS)).flatmap(after))
    def check(argv):
        def outcome():
            try:
                return cli.parse_args(argv)
            except EquihomError as exc:
                return exc
        result = outcome()
        if isinstance(result, EquihomError):
            (message,) = result.args
            assert "\n" not in message and str(outcome()) == message
        elif isinstance(result, str):
            assert result.startswith("usage: equihom ") and outcome() == result
        else:
            assert outcome() == result
            options = {**cli.VERBS[result.command][2], **cli.COMMON}
            names = {"infile" if f == "--in" else f[2:].replace("-", "_"): kind_default
                     for f, kind_default in options.items()}
            values = vars(result)
            assert values.pop("command") in cli.VERBS and values.keys() == names.keys()
            for name, got in values.items():
                kind, default = names[name]
                if isinstance(kind, tuple):
                    assert got in kind
                else:
                    assert type(got) is kind or got is default is None

    check()


def test_experiment_verb(tmp_path):
    out = tmp_path / "exp.json"
    assert run(["experiment", "--ell", "3", "--n-max", "1", "--chain-samples",
                "50", "--seed", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["seed"] == 3
    assert report["t_fingerprint"]
    assert report["per_n"][0]["max_weight"] == 1


def test_experiment_on_a_long_cycle_is_quick(tmp_path):
    # hom_complex(C_41) has 164 vertices; the multihomomorphisms behind it
    # are found without trying each of the 2^41 vertex subsets, and the
    # degree plane of gamma(404) is written down, not built
    for ell, seconds in ((41, 5), (101, 2)):
        out = tmp_path / f"exp{ell}.json"
        start = time.perf_counter()
        assert run(["experiment", "--ell", str(ell), "--n-max", "1", "--chain-samples",
                    "10", "--out", str(out)]) == 0
        assert time.perf_counter() - start < seconds
        row = json.loads(out.read_text())["per_n"][0]
        assert row["mode"] == "sampled" and row["max_weight"] == 1


# SHA-256 of the report of `experiment --ell 3 --n-max 3 --chain-samples 4000
# --seed 3`: arities 1 and 2 enumerated, 3 sampled fail-first.  Pinned on
# Python 3.11; the sampler draws through getrandbits, randrange and shuffle,
# which are the same on 3.10 to 3.12
SURVEY_REPORT_SHA256 = "be26f65bd13af7afe6eb1df82042b934f19ca0ed72c91146a614b5fbad00e913"


def test_experiment_report_is_pinned(tmp_path):
    out = tmp_path / "survey.json"
    assert run(["experiment", "--ell", "3", "--n-max", "3", "--chain-samples", "4000",
                "--seed", "3", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SURVEY_REPORT_SHA256


# SHA-256 of the report of `experiment --ell 3 --n-max 4 --chain-samples 500
# --seed 3`: arities 1 and 2 enumerated, 3 and 4 sampled
ARITY4_SURVEY_REPORT_SHA256 = "f180de4bde3f400962b61f09ebc79062608bffa9944c3d093147e13cd36fb995"


def test_arity4_experiment_report_is_pinned(tmp_path):
    out = tmp_path / "survey4.json"
    assert run(["experiment", "--ell", "3", "--n-max", "4", "--chain-samples", "500",
                "--seed", "3", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ARITY4_SURVEY_REPORT_SHA256


# SHA-256 of the report of `verify --suite all --out`
VERIFY_REPORT_SHA256 = "8631bdecb15d3c9a1c37cb38917dcfc176bf4f36a082924f08e6948dfd3b4e0f"


def test_verify_report_is_pinned(tmp_path):
    out = tmp_path / "verify.json"
    assert run(["verify", "--suite", "all", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_REPORT_SHA256


# SHA-256 of the report of `degree --colouring colouring-<n>.json`, run from
# a directory other than the one that holds the file (the report names it by
# the SHA-256 of its bytes), on the colouring of gamma(8)^n with colour 1
# where the first coordinate is below 4
DEGREE_REPORT_SHA256 = {
    1: "7cfd27a7368b96071841711e0697ffde2203a520d4b6ee738a1b46e0fef22b44",
    3: "244c1edc12a333fb97e7635300120153e4528dd779238ad7ba0ff5feddf61ae1",
}


@pytest.mark.parametrize("n", [1, 3])
def test_degree_report_is_pinned(tmp_path, monkeypatch, n):
    inputs, elsewhere = tmp_path / "inputs", tmp_path / "elsewhere"
    inputs.mkdir()
    elsewhere.mkdir()
    bits = [int(v[0] < 4) for v in iproduct(range(8), repeat=n)]
    name = f"colouring-{n}.json"
    (inputs / name).write_text(json.dumps({"L": 8, "n": n, "colours": bits}))
    monkeypatch.chdir(elsewhere)
    assert run(["degree", "--colouring", f"../inputs/{name}", "--out", "degree.json"]) == 0
    digest = hashlib.sha256((elsewhere / "degree.json").read_bytes()).hexdigest()
    assert digest == DEGREE_REPORT_SHA256[n]


@pytest.mark.parametrize("verb, flag, key", [
    (["phi"], "--in", "in_sha256"),
    (["degree"], "--colouring", "colouring_sha256"),
    (["swap-stats", "--i", "1"], "--colouring", "colouring_sha256"),
], ids=["phi", "degree", "swap-stats"])
def test_reports_name_their_input_by_content(tmp_path, monkeypatch, verb, flag, key):
    """The same bytes under two paths, each read from its own directory,
    give the same report, and it names the input by the SHA-256 of its
    bytes."""
    if verb == ["phi"]:
        data = (json.dumps(PHI_RECORD) + "\n").encode()
    else:
        data = json.dumps({"L": 4, "n": 2, "colours": [int(a < 2) for a in range(4)
                                                      for _ in range(4)]}).encode()
    reports = []
    for where in ("a", "b/c"):
        (tmp_path / where).mkdir(parents=True)
        (tmp_path / where / f"input-{len(reports)}.json").write_bytes(data)
        monkeypatch.chdir(tmp_path / where)
        assert run(verb + [flag, f"input-{len(reports)}.json", "--out", "report.json"]) == 0
        reports.append((tmp_path / where / "report.json").read_bytes())
    assert reports[0] == reports[1]
    params = json.loads(reports[0].splitlines()[-1])["params"]
    assert params[key] == hashlib.sha256(data).hexdigest()
    assert str(tmp_path) not in reports[0].decode()


def test_experiment_without_chain_samples_walks_no_chain(tmp_path):
    out = tmp_path / "survey.json"
    assert run(["experiment", "--ell", "3", "--n-max", "3", "--chain-samples", "0",
                "--seed", "3", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["per_n"]
    assert [row["n"] for row in rows] == [1, 2, 3]
    for row in rows:
        assert row["chains_sampled"] == 0
        assert row["max_chain_alternations"] == 0
        assert row["alternation_violations"] == 0


@pytest.mark.parametrize("flags, message", [
    (["--n-max", "0"], "n_max must be >= 1, got 0"),
    (["--n-max", "-2"], "n_max must be >= 1, got -2"),
    (["--chain-samples", "-5"], "chain_samples must be >= 0, got -5")])
def test_experiment_rejects_bad_parameters(tmp_path, capsys, flags, message):
    out = tmp_path / "exp.json"
    assert run(["experiment", "--ell", "3", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_verify_complexes_suite(tmp_path, capsys):
    assert run(["verify", "--suite", "complexes"]) == 0
    printed = capsys.readouterr().out
    assert printed.count("PASS") == 3 and "FAIL" not in printed


def test_verify_slices_suite_with_report(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert run(["verify", "--suite", "slices", "--seed", "5",
                "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["seed"] == 5
    assert all(row["pass"] for row in report["results"])
    names = {row["check"] for row in report["results"]}
    assert "chain-alternation-ceiling" in names
