"""One repetition of one workload, in a fresh interpreter.

Run by ``run.py`` as ``python -I perfbench/worker.py ...``; it imports
``equihom`` from the checkout's ``src``, sets up, runs the workload, checks
every output against expectations computed here, and writes one JSON result
file.  Library calls go through module attributes (``degrees.phi``) so that
the tracer's rebinding reaches them.

Set-up is imports plus the one-off construction a workload needs before its
first timed call; the inputs the benchmark generates for itself are timed
apart and left out of it.
"""

import argparse
import hashlib
import json
import random
import resource
import sys
import time
from itertools import product
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Every (n, L, d) of the Bredon table, and the cases that add the quotient check.
BREDON_CASES = tuple((n, L, d) for n in (1, 2, 3) for L in (4, 8)
                     for d in range(1, n + 1))
QUOTIENT_CASES = frozenset({(2, 8, 1), (2, 8, 2)})

BINARY_COUNT = 1056
TERNARY_SAMPLE = 40
CHAIN_SAMPLES = 4000
SURVEY_N_MAX = 3


class Tally:
    """Operations attempted and failed, with the first few failure notes."""

    MAX_NOTES = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def record(self, label, problem):
        """Count one operation; ``problem`` is None when it passed."""
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.notes) < self.MAX_NOTES:
                self.notes.append(f"{label}: {problem}")


def attempt(fn):
    """(value, None) from ``fn()``, or (None, description) if it raised."""
    try:
        return fn(), None
    except Exception as exc:  # a raising operation is a failed operation
        return None, f"raised {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# bredon: equivariant cohomology table and quotient checks through the CLI


def bredon_group_problem(report, n, d):
    want = [2] * comb(n - 1, d - 1)
    got = (report.get("free_rank"), report.get("torsion"))
    if got != (0, want):
        return f"group (free_rank, torsion) = {got}, expected (0, {want})"
    return None


def quotient_problem(report, n, d):
    check = report.get("quotient_check") or {}
    want = sorted([1] * comb(n - 1, d) + [2] * comb(n - 1, d - 1))
    got = sorted(check.get("pstar_invariant_factors", []))
    if check.get("matches_expected") is not True:
        return "quotient check does not report matches_expected"
    if got != want:
        return f"invariant factors {got}, expected {want}"
    return None


def bredon_inputs(seed):
    cases = list(BREDON_CASES)
    random.Random(seed).shuffle(cases)
    return cases


def run_bredon(lib, cases, seed, tmp, tally):
    out = tmp / "bredon.json"
    for n, L, d in cases:
        argv = ["bredon", "--n", str(n), "--L", str(L), "--d", str(d),
                "--coefficients", "Zminus", "--seed", str(seed),
                "--out", str(out)]
        quotient = (n, L, d) in QUOTIENT_CASES
        if quotient:
            argv.append("--quotient-check")

        def call():
            code = lib.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"exit code {code}")
            return json.loads(out.read_text())

        report, problem = attempt(call)
        label = f"bredon n={n} L={L} d={d}"
        tally.record(label, problem or bredon_group_problem(report, n, d))
        if quotient:
            tally.record(label + " quotient",
                         problem or quotient_problem(report, n, d))


# ---------------------------------------------------------------------------
# minion: phi(f^pi) == phi(f)^pi on all binary and sampled ternary maps


def k4_colourings(arity, rng=None):
    """Value arrays of homomorphisms C_3^arity -> K_4, row-major.

    Vertices of C_3^arity are adjacent when every coordinate differs.  With
    ``rng`` the colour order is shuffled at each vertex and only the first
    colouring found is returned; without it, all of them in order.
    """
    verts = list(product(range(3), repeat=arity))
    earlier = [[j for j in range(i)
                if all(a != b for a, b in zip(verts[i], verts[j]))]
               for i in range(len(verts))]
    values = [None] * len(verts)
    found = []

    def extend(i):
        if i == len(verts):
            found.append(tuple(values))
            return rng is not None
        colours = [0, 1, 2, 3]
        if rng is not None:
            rng.shuffle(colours)
        for c in colours:
            if all(values[j] != c for j in earlier[i]):
                values[i] = c
                if extend(i + 1):
                    return True
        values[i] = None
        return False

    extend(0)
    return found


def minion_inputs(seed):
    rng = random.Random(seed)
    ternary = {}
    while len(ternary) < TERNARY_SAMPLE:
        values = k4_colourings(3, rng)[0]
        ternary.setdefault(values, None)
    return {"binary": k4_colourings(2), "ternary": list(ternary)}


# The five binary minors of the acceptance check: collapse to arity 1, the
# identity, the swap and the two constant maps into [2].
BINARY_MINORS = ((1, (1, 1)), (2, (1, 2)), (2, (2, 1)), (2, (1, 1)), (2, (2, 2)))


def minor_specs(n):
    """(m, mapping) of the minors checked at arity n, mappings 1-based."""
    if n == 2:
        return list(BINARY_MINORS)
    return [(2, m) for m in product((1, 2), repeat=n)] + [(1, (1,) * n)]


def block_sums(bits, m, mapping):
    """The minor of an odd vector: coordinate j sums the bits mapped to j."""
    return tuple(sum(b for b, j in zip(bits, mapping) if j == target) % 2
                 for target in range(1, m + 1))


def run_minion(lib, inputs, pipeline, tally):
    graphs, degrees = lib.graphs, lib.degrees
    tally.record("binary count",
                 None if len(inputs["binary"]) == BINARY_COUNT
                 else f"{len(inputs['binary'])} binary maps, expected {BINARY_COUNT}")
    k4 = graphs.complete_graph(4)
    for n, key in ((2, "binary"), (3, "ternary")):
        dom = graphs.power(graphs.cycle_graph(3), n)
        specs = [(m, mapping, graphs.MinorSpec(n, m, mapping))
                 for m, mapping in minor_specs(n)]
        for values in inputs[key]:
            f = graphs.GraphHom(dom, k4, values)
            alpha, problem = attempt(lambda: degrees.phi(f, pipeline).bits)
            if problem is None and (len(alpha) != n or sum(alpha) % 2 != 1):
                problem = f"phi(f) = {alpha} is not an odd vector of arity {n}"
            label = f"f={values}"
            tally.record(label, problem)
            for m, mapping, spec in specs:
                if problem is not None:
                    tally.record(f"{label} pi={mapping}", "phi(f) failed")
                    continue
                got, err = attempt(
                    lambda: degrees.phi(graphs.minor(f, spec), pipeline).bits)
                want = block_sums(alpha, m, mapping)
                tally.record(f"{label} pi={mapping}",
                             err or (None if got == want
                                     else f"phi(f^pi) = {got}, expected {want}"))


# ---------------------------------------------------------------------------
# survey: the arity experiment through the CLI


def survey_problem(report):
    rows = report.get("per_n", [])
    if [row.get("n") for row in rows] != list(range(1, SURVEY_N_MAX + 1)):
        return "per_n rows do not cover n = 1..3"
    chains = sum(row.get("chains_sampled", 0) for row in rows)
    if chains != SURVEY_N_MAX * CHAIN_SAMPLES:
        return f"{chains} chains sampled, expected {SURVEY_N_MAX * CHAIN_SAMPLES}"
    for row in rows:
        if row.get("alternation_violations") != 0:
            return f"alternation violations at n={row['n']}"
        weights = [int(w) for w in row.get("weight_histogram", {})]
        if not weights or any(w % 2 == 0 for w in weights):
            return f"weights {weights} at n={row['n']} are not all odd"
    return None


def run_survey(lib, seed, tmp, tally):
    out = tmp / "survey.json"
    argv = ["experiment", "--ell", "3", "--n-max", str(SURVEY_N_MAX),
            "--chain-samples", str(CHAIN_SAMPLES), "--seed", str(seed),
            "--out", str(out)]

    def call():
        code = lib.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        return out.read_bytes()

    data, problem = attempt(call)
    if problem is None:
        problem = survey_problem(json.loads(data))
    tally.record("experiment report", problem)
    return hashlib.sha256(data).hexdigest() if data is not None else None


# ---------------------------------------------------------------------------


class Library:
    """The imported ``equihom`` modules, by short name."""

    def __init__(self):
        sys.path.insert(0, str(ROOT / "src"))
        import equihom
        from spans import library_modules
        if Path(equihom.__file__).resolve().parent != ROOT / "src" / "equihom":
            raise SystemExit(f"imported equihom from {equihom.__file__}, "
                             "not from this checkout")
        self.modules = library_modules(equihom)
        self.__dict__.update(self.modules)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=("bredon", "minion", "survey"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() just before the process started")
    parser.add_argument("--tmp", required=True, help="directory for files")
    args = parser.parse_args(argv)
    tmp = Path(args.tmp)

    sys.path.insert(0, str(HERE))
    from spans import Tracer, leftover_wrappers

    lib = Library()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(lib.modules)
    tally = Tally()
    digest = None
    try:
        started = time.monotonic()
        inputs = {"bredon": bredon_inputs, "minion": minion_inputs,
                  "survey": lambda seed: None}[args.workload](args.seed)
        input_s = time.monotonic() - started
        pipeline = None
        if args.workload == "minion":
            pipeline = lib.homcomplexes.CyclePipeline(3)
        first_call = time.monotonic()
        first_cpu = time.process_time()
        if not args.setup_only:
            if args.workload == "bredon":
                run_bredon(lib, inputs, args.seed, tmp, tally)
            elif args.workload == "minion":
                run_minion(lib, inputs, pipeline, tally)
            else:
                digest = run_survey(lib, args.seed, tmp, tally)
        done = time.monotonic()
        cpu_s = time.process_time() - first_cpu
    finally:
        if tracer is not None:
            tracer.uninstall()
    left = leftover_wrappers(lib.modules)
    if left:
        tally.record("unwrap", f"still wrapped after the traced run: {left}")

    result = {
        "setup_s": first_call - args.spawned_at - input_s,
        "wall_s": done - first_call,
        "cpu_s": cpu_s,
        "input_s": input_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "notes": tally.notes,
        "digest": digest,
        "trace": tracer.snapshot() if tracer is not None else None,
    }
    (tmp / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
