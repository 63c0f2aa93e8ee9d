"""Command-line front end: reproducible batch verbs with JSON input and output.

Streams are JSON-lines with a trailing metadata record; summary reports are
single JSON objects.  Every report embeds the tool version, the seed, the
fingerprint of the structure colouring where one is involved, and an echo of
the parameters, so identical invocations produce byte-identical files.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product
from pathlib import Path

from . import __version__
from .errors import EquihomError, InvariantViolationError
from .graphs import (MinorSpec, complete_graph, cycle_graph, enumerate_homs,
                     hom_from_json, hom_to_json, minor, power)
from .homcomplexes import (CyclePipeline, default_cache_dir, hom_complex,
                           mu_prime, multihoms, search_t_colouring)
from .degrees import (TorusComplex, deg_vector, find_colour_swapping_edge,
                      monomial_colouring, phi, torus_complex, winding_colouring)
from .simplicial import (BLUE, YELLOW, equivariant_colourings, gamma_power,
                         map_from_colouring, mod2_homology_ranks)
from .slices import (arity_experiment, swap_fraction, zeta0)
from .zz2 import (bredon_torus, expected_bredon, quotient_pstar_check)


def _dump(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _write_lines(lines, out):
    text = "".join(_dump(line) + "\n" for line in lines)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _write_report(obj, out):
    text = _dump(obj) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _meta(args, **extra):
    meta = {"tool": "equihom", "version": __version__,
            "seed": getattr(args, "seed", 0)}
    meta.update(extra)
    return meta


def _load_colouring(path):
    obj = json.loads(Path(path).read_text())
    if not isinstance(obj, dict) or not {"L", "n", "colours"} <= obj.keys():
        raise EquihomError("a colouring file needs the keys L, n and colours")
    L, n, bits = obj["L"], obj["n"], obj["colours"]
    for name, value in (("L", L), ("n", n)):
        if type(value) is not int or value < 1:
            raise EquihomError(f"{name} must be a positive integer, got {value!r}")
    if L % 4:
        raise EquihomError(f"L must be a multiple of 4, got {L}")
    if not isinstance(bits, list) or any(b not in (0, 1) for b in bits):
        raise EquihomError("colours must be a list of 0/1 bits")
    if len(bits) != L ** n:
        raise EquihomError(f"expected {L ** n} colour bits, got {len(bits)}")
    verts = list(range(L)) if n == 1 else list(iter_product(range(L), repeat=n))
    colours = {v: (BLUE if b else YELLOW) for v, b in zip(verts, bits)}
    return L, n, colours


def _resolve_cache(args):
    if getattr(args, "cache", None):
        return Path(args.cache)
    return default_cache_dir()


def cmd_enumerate(args):
    if args.ell < 3 or args.ell % 2 == 0:
        raise EquihomError("--ell must be odd and >= 3")
    if args.arity < 1:
        raise EquihomError("--arity must be >= 1")
    stream = enumerate_homs(power(cycle_graph(args.ell), args.arity),
                            complete_graph(4), limit=args.limit)
    records = [hom_to_json(f) for f in stream]
    trailer = _meta(args, trailer=True, count=len(records), truncated=stream.truncated,
                    params={"ell": args.ell, "arity": args.arity, "limit": args.limit})
    _write_lines(records + [trailer], args.out)
    return 0


def _check_hom_record(obj):
    """Reject a polymorphism record that does not match the stream format."""
    if not isinstance(obj, dict):
        raise EquihomError("a polymorphism record must be a JSON object, "
                           f"got {type(obj).__name__}")
    for key in ("domain_base", "codomain", "arity"):
        value = obj.get(key)
        if type(value) is not int or value < 1:
            raise EquihomError(f"{key} must be a positive integer, got {value!r}")
    values = obj.get("values")
    if not isinstance(values, list):
        raise EquihomError("values must be a list")
    for v in values:
        if type(v) is not int or not 0 <= v < obj["codomain"]:
            raise EquihomError("values must be integers in [0, codomain), "
                               f"got {v!r}")


def cmd_phi(args):
    lines = [json.loads(line) for line in Path(args.infile).read_text().splitlines()
             if line.strip()]
    records = [obj for obj in lines
               if not (isinstance(obj, dict) and obj.get("trailer"))]
    for obj in records:
        _check_hom_record(obj)
    t = search_t_colouring(_resolve_cache(args))
    pipelines = {}
    out = []
    for obj in records:
        f = hom_from_json(obj)
        ell = obj["domain_base"]
        if ell not in pipelines:
            pipelines[ell] = CyclePipeline(ell, t=t)
        alpha = phi(f, pipelines[ell])
        out.append({"ell": ell, "arity": obj["arity"], "f": list(f.values),
                    "alpha": list(alpha.bits), "t_fingerprint": t.fingerprint()})
    trailer = _meta(args, trailer=True, count=len(out),
                    t_fingerprint=t.fingerprint(), params={"in": str(args.infile)})
    _write_lines(out + [trailer], args.out)
    return 0


def cmd_degree(args):
    L, n, colours = _load_colouring(args.colouring)
    gmap = map_from_colouring(gamma_power(L, n), colours, check_equivariance=True)
    alpha = deg_vector(gmap, L=L, n=n)
    report = _meta(args, params={"colouring": str(args.colouring), "L": L, "n": n},
                   alpha=list(alpha.bits), weight=alpha.weight)
    _write_report(report, args.out)
    return 0


def _parse_graph(spec):
    kind, _, size = spec.partition(":")
    if kind not in ("cycle", "complete") or not size.isdigit():
        raise EquihomError("graph spec must look like cycle:5 or complete:4")
    return (cycle_graph if kind == "cycle" else complete_graph)(int(size))


def cmd_hom_complex(args):
    g = _parse_graph(args.graph)
    x = hom_complex(g)
    _write_report(x.to_json(), args.out)
    return 0


def cmd_search_t(args):
    cache = _resolve_cache(args)
    t = search_t_colouring(cache)
    report = _meta(args, t_fingerprint=t.fingerprint(), colours=list(t.colours),
                   params={"cache": str(cache) if cache else None})
    _write_report(report, args.out)
    return 0


def cmd_zeta0(args):
    z = zeta0(args.n, args.h, args.L)
    report = _meta(args, params={"n": args.n, "h": args.h, "L": args.L},
                   period=z.period, low_height=z.low_height,
                   path=[list(v) for v in z.path], validated=True)
    _write_report(report, args.out)
    return 0


def cmd_swap_stats(args):
    L, n, colours = _load_colouring(args.colouring)
    heights = [args.h] if args.h is not None else list(range(n))
    stats = {}
    for h in heights:
        frac = swap_fraction(colours, L, n, args.i, h)
        stats[str(h)] = {"fraction": str(frac),
                         "at_least_one_in_3LL": frac >= Fraction(1, 3 * L * L)}
    report = _meta(args, params={"colouring": str(args.colouring), "i": args.i,
                                 "h": args.h, "L": L, "n": n},
                   swap_fractions=stats)
    _write_report(report, args.out)
    return 0


def cmd_bredon(args):
    group = bredon_torus(args.n, args.L, args.d, coefficients=args.coefficients)
    report = _meta(args, n=args.n, L=args.L, d=args.d,
                   coefficients=args.coefficients,
                   free_rank=group.free_rank, torsion=list(group.torsion),
                   params={"n": args.n, "L": args.L, "d": args.d,
                           "coefficients": args.coefficients})
    if args.quotient_check:
        report["quotient_check"] = quotient_pstar_check(args.n, args.L, args.d)
    _write_report(report, args.out)
    return 0


def cmd_experiment(args):
    report = arity_experiment(args.ell, args.n_max, seed=args.seed,
                              chain_samples=args.chain_samples)
    _write_report(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# verification suites


def _check_hom_complex_sphere():
    x = hom_complex(complete_graph(4))
    ok = (len(x.vertices) == 50 and x.euler_characteristic() == 2
          and mod2_homology_ranks(x, top=2) == (1, 0, 1))
    return ok, "50 vertices, Euler 2, mod-2 ranks (1,0,1)"


def _check_cycle_isomorphism():
    from .homcomplexes import canonical_cycle_iso
    for ell in (3, 5, 7):
        iso = canonical_cycle_iso(ell)
        if len(iso.codomain.vertices) != 4 * ell:
            return False, f"ell={ell} vertex count off"
    return True, "equivariant circle isomorphism for ell in {3,5,7}"


def _check_t_search():
    t = search_t_colouring(default_cache_dir())
    gmap = map_from_colouring(hom_complex(complete_graph(4)), t.as_vertex_map(),
                              check_equivariance=True)
    return gmap.is_equivariant(), f"fingerprint {t.fingerprint()[:16]}"


def _check_band_identity():
    for L in (4, 8, 12):
        for Lp in (4, 8, 12):
            TorusComplex(L, Lp)  # raises if the boundary identity fails
    return True, "band boundary = cycle + antipodal cycle for L, L' in {4,8,12}"


def _check_two_torus_battery():
    torus = torus_complex(4, 4)
    bound = Fraction(1, 3 * 16)
    count = 0
    for col in equivariant_colourings(gamma_power(4, 2)):
        gmap = map_from_colouring(gamma_power(4, 2), col, check_equivariance=True)
        alpha = deg_vector(gmap, L=4, n=2)  # odd weight enforced internally
        for i in (1, 2):
            if alpha.bits[i - 1] == 1:
                if swap_fraction(col, 4, 2, i, 0) < bound:
                    return False, f"swap fraction below 1/48 for {col}"
        if alpha.bits[0] == 1:
            find_colour_swapping_edge(gmap, torus)
        count += 1
    return count == 256, f"{count} equivariant colourings, all valid with odd weight"


def _check_degree_patterns():
    realized = {}
    for n in (1, 2, 3):
        for j in range(1, n + 1):
            col = winding_colouring(8, n, j)
            gmap = map_from_colouring(gamma_power(8, n), col, check_equivariance=True)
            alpha = deg_vector(gmap, L=8, n=n)
            realized[(n, ("unit", j))] = alpha.bits
            if alpha.bits != tuple(1 if i == j else 0 for i in range(1, n + 1)):
                return False, f"unit pattern failed at n={n}, j={j}"
    col = monomial_colouring(8, 3, (1, 2, 3))
    gmap = map_from_colouring(gamma_power(8, 3), col, check_equivariance=True)
    alpha = deg_vector(gmap, L=8, n=3)
    realized[(3, "full")] = alpha.bits
    if alpha.bits != (1, 1, 1):
        return False, "weight-3 pattern failed"
    per_arity = {}
    for (n, _), bits in realized.items():
        per_arity.setdefault(n, []).append(bits)
    for n, vectors in per_arity.items():
        if len(set(vectors)) != len(vectors):
            return False, f"degree vectors collide at arity {n}"
    return True, "all odd patterns at n <= 3 realized, pairwise distinct"


def _binary_minor_specs():
    specs = [MinorSpec(2, 1, (1, 1))]
    for a in (1, 2):
        for b in (1, 2):
            specs.append(MinorSpec(2, 2, (a, b)))
    return specs


def _check_minion_compatibility():
    pipe = CyclePipeline(3)
    specs = _binary_minor_specs()
    checked = 0
    for f in enumerate_homs(power(cycle_graph(3), 2), complete_graph(4)):
        alpha = phi(f, pipe)
        for pi in specs:
            lhs = phi(minor(f, pi), pipe)
            rhs = alpha.minor(pi)
            if lhs != rhs:
                return False, f"minor mismatch for f={f.values}, pi={pi}"
        checked += 1
    return True, f"{checked} binary polymorphisms x {len(specs)} minors agree"


def _check_lax_inequality(sample=40):
    c3 = cycle_graph(3)
    mh = multihoms(c3)
    pairs = [(m1, m2) for m1 in mh for m2 in mh]
    pi = MinorSpec(2, 1, (1, 1))
    polys = list(enumerate_homs(power(c3, 2), complete_graph(4)))
    step = max(1, len(polys) // sample)
    for f in polys[::step]:
        fpi = minor(f, pi)
        for m in mh:
            small = mu_prime(fpi, (m,))
            big = mu_prime(f, (m, m))
            if not small.le(big):
                return False, f"lax inequality fails for f={f.values}"
        for (m1, m2) in pairs:
            swap = MinorSpec(2, 2, (2, 1))
            fsw = minor(f, swap)
            lhs = mu_prime(fsw, (m1, m2))
            rhs = mu_prime(f, (m2, m1))
            if not lhs.le(rhs):
                return False, "lax inequality fails for the swap minor"
    return True, f"lax inequality over {len(pairs)} multihom pairs, sampled maps"


def _check_generalized_diagonals():
    count = 0
    for n in range(2, 11):
        for L in (4, 8):
            h = 0
            while 3 * h <= n - 1 and 2 * h < n - 1:
                zeta0(n, h, L)  # validates all invariants on construction
                h += 1
                count += 1
    return True, f"{count} diagonals pass edge, antipodality and height checks"


def _check_alternation_ceiling(seed):
    report = arity_experiment(3, 3, seed=seed, chain_samples=4000)
    total = sum(row["chains_sampled"] for row in report["per_n"])
    bad = sum(row["alternation_violations"] for row in report["per_n"])
    odd_weights = all(all(int(w) % 2 == 1 for w in row["weight_histogram"])
                      for row in report["per_n"])
    ok = total >= 10000 and bad == 0 and odd_weights
    return ok, f"{total} chains sampled, {bad} violations, weights all odd"


def _check_bredon_table():
    for n in (1, 2, 3):
        for L in (4, 8):
            for d in range(1, n + 1):
                got = bredon_torus(n, L, d)
                if got != expected_bredon(n, d):
                    return False, f"mismatch at n={n}, L={L}, d={d}: {got}"
    return True, "Z2^C(n-1,d-1) for all 1 <= d <= n <= 3, L in {4,8}"


def _check_quotient_projection():
    for d in (1, 2):
        rec = quotient_pstar_check(2, 8, d)
        if not rec["matches_expected"]:
            return False, f"projection check failed at d={d}"
    return True, "pullback injective with Z2^C(n-1,d-1) cokernel at n=2"


def _check_odd_vector_count():
    for n in (1, 2, 3):
        odd = sum(1 for bits in iter_product((0, 1), repeat=n) if sum(bits) % 2)
        group = bredon_torus(n, 4, 2)
        if group.free_rank:
            return False, f"degree-2 group unexpectedly infinite at n={n}"
        classes = 2 ** len(group.torsion)
        if odd != 2 ** (n - 1) or classes != odd:
            return False, f"counts disagree at n={n}: {odd} vs {classes}"
    return True, "odd vectors and degree-2 classes both number 2^(n-1), n <= 3"


SUITES = {
    "complexes": [
        ("hom-complex-K4-sphere", _check_hom_complex_sphere),
        ("cycle-circle-isomorphism", _check_cycle_isomorphism),
        ("structure-colouring-search", _check_t_search),
    ],
    "degrees": [
        ("band-boundary-identity", _check_band_identity),
        ("two-torus-exhaustive-battery", _check_two_torus_battery),
        ("degree-patterns-realized", _check_degree_patterns),
        ("minion-minor-compatibility", _check_minion_compatibility),
        ("lax-minor-inequality", _check_lax_inequality),
    ],
    "slices": [
        ("generalized-diagonal-invariants", _check_generalized_diagonals),
    ],
    "bredon": [
        ("equivariant-torus-table", _check_bredon_table),
        ("quotient-projection-check", _check_quotient_projection),
        ("odd-vector-count", _check_odd_vector_count),
    ],
}


def cmd_verify(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks = []
    for name in names:
        checks.extend(SUITES[name])
    if args.suite in ("slices", "all"):
        checks.append(("chain-alternation-ceiling",
                       lambda: _check_alternation_ceiling(args.seed)))
    failures = 0
    rows = []
    for name, fn in checks:
        try:
            ok, detail = fn()
        except EquihomError as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        rows.append({"check": name, "pass": bool(ok), "detail": detail})
        print(f"{'PASS' if ok else 'FAIL':4}  {name:34}  {detail}")
        if not ok:
            failures += 1
    if args.out:
        report = _meta(args, params={"suite": args.suite}, results=rows)
        _write_report(report, args.out)
    return 1 if failures else 0


@lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="equihom",
        description="homomorphism complexes, degree invariants, torus cohomology")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list polymorphisms of (C_ell, K_4)")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("phi", help="degree vectors of polymorphisms from a file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--cache", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_phi)

    p = sub.add_parser("degree", help="degree vector of a torus colouring file")
    p.add_argument("--colouring", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_degree)

    p = sub.add_parser("hom-complex", help="write a homomorphism complex as JSON")
    p.add_argument("--graph", required=True, help="cycle:L or complete:K")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_hom_complex)

    p = sub.add_parser("search-t", help="find and persist the structure colouring")
    p.add_argument("--cache", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_search_t)

    p = sub.add_parser("zeta0", help="construct a generalized diagonal")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_zeta0)

    p = sub.add_parser("swap-stats", help="colour-swapping fractions by height")
    p.add_argument("--colouring", required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--h", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_swap_stats)

    p = sub.add_parser("bredon", help="equivariant cohomology of a torus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--coefficients", default="Zminus",
                   choices=("Zminus", "Zplus", "ZZ2"))
    p.add_argument("--quotient-check", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_bredon)

    p = sub.add_parser("experiment", help="arity survey: weights, chains, swaps")
    p.add_argument("--ell", type=int, default=3)
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--chain-samples", type=int, default=4000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all",
                   choices=("complexes", "degrees", "slices", "bredon", "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
    except InvariantViolationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (EquihomError, OSError, json.JSONDecodeError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.verbose and getattr(args, "out", None):
        print(f"wrote {args.out}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
