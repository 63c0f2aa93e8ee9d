"""Command-line front end: reproducible batch verbs with JSON input and output.

Streams are JSON-lines with a trailing metadata record; summary reports are
single JSON objects.  Every report embeds the tool version, the seed, the
fingerprint of the structure colouring where one is involved, and an echo of
the parameters, each input file named by the SHA-256 of its bytes, so
identical invocations produce byte-identical files from any directory.
Exit codes: 0 success, 1 verification failure, 2 usage error, told in one line.
"""

import hashlib
import json
import os
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from . import __version__, verify
from .errors import EquihomError, InvariantViolationError
from .graphs import (complete_graph, cycle_graph, enumerate_homs, hom_from_json,
                     hom_to_json, power)
from .homcomplexes import CyclePipeline, hom_complex, search_t_colouring
from .degrees import deg_vector, phi
from .simplicial import map_from_colouring, torus
from .slices import arity_experiment, swap_fraction, zeta0
from .zz2 import bredon_torus, quotient_pstar_check


def _dump(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _write_lines(lines, out):
    text = "".join(_dump(line) + "\n" for line in lines)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _stream_lines(lines, out):
    """Write each record of ``lines`` as one JSON line as it comes, for a
    stream too long to hold: to standard output, or to a temporary file
    beside ``out`` that replaces ``out`` once the last line is written, so
    a failed run leaves no half-written file."""
    if not out:
        for line in lines:
            sys.stdout.write(_dump(line) + "\n")
        return
    path = Path(out)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)  # the mode a plain open gives
            fh.writelines(_dump(line) + "\n" for line in lines)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _meta(args, **extra):
    meta = {"tool": "equihom", "version": __version__, "seed": args.seed}
    meta.update(extra)
    return meta


def _loads(text):
    """``json.loads``, with a number it cannot convert (a ValueError such as
    an integer over the interpreter's digit limit) raised as a usage error."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise EquihomError(str(exc)) from exc


def _read_input(path):
    """The text of an input file and the SHA-256 of its bytes, read once, so
    a report names its input by content and not by where it lies."""
    data = Path(path).read_bytes()
    return data.decode(), hashlib.sha256(data).hexdigest()


def _load_colouring(path):
    """L, n and the blue bits, in row-major order, of a colouring file, and
    the SHA-256 of its bytes."""
    text, digest = _read_input(path)
    obj = _loads(text)
    if not isinstance(obj, dict) or not {"L", "n", "colours"} <= obj.keys():
        raise EquihomError("a colouring file needs the keys L, n and colours")
    L, n, bits = obj["L"], obj["n"], obj["colours"]
    for name, value in (("L", L), ("n", n)):
        if type(value) is not int or value < 1:
            raise EquihomError(f"{name} must be a positive integer, got {value!r}")
    if L % 4:
        raise EquihomError(f"L must be a multiple of 4, got {L}")
    if not isinstance(bits, list) or any(type(b) is not int or b not in (0, 1) for b in bits):
        raise EquihomError("colours must be a list of 0/1 bits")
    # L^n >= 2^n passes the bit count once n passes its bit length, so a
    # large n is refused before the power is taken
    if n > len(bits).bit_length() or len(bits) != L ** n:
        raise EquihomError(f"expected {L}^{n} colour bits, got {len(bits)}")
    return L, n, bytes(bits), digest


def cmd_enumerate(args):
    if args.ell < 3 or args.ell % 2 == 0:
        raise EquihomError("--ell must be odd and >= 3")
    if args.arity < 1:
        raise EquihomError("--arity must be >= 1")
    stream = enumerate_homs(power(cycle_graph(args.ell), args.arity),
                            complete_graph(4), limit=args.limit)

    def lines():  # each record as the search finds it, then the trailer
        count = 0
        for f in stream:
            count += 1
            yield hom_to_json(f)
        yield _meta(args, trailer=True, count=count, truncated=stream.truncated,
                    params={"ell": args.ell, "arity": args.arity, "limit": args.limit})

    _stream_lines(lines(), args.out)
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
    base, arity, codomain = obj["domain_base"], obj["arity"], obj["codomain"]
    if codomain != 4:
        raise EquihomError(f"codomain must be 4 (K_4), got {codomain}")
    values = obj.get("values")
    if not isinstance(values, list):
        raise EquihomError("values must be a list")
    # base^arity >= 2^arity passes the value count once the arity passes its
    # bit length, so a large arity is refused before the power is taken
    if base > 1 and arity > len(values).bit_length() or len(values) != base ** arity:
        raise EquihomError(f"expected {base}^{arity} values, got {len(values)}")
    for v in values:
        if type(v) is not int or not 0 <= v < codomain:
            raise EquihomError("values must be integers in [0, codomain), "
                               f"got {v!r}")


def cmd_phi(args):
    text, digest = _read_input(args.infile)

    def records():  # parsed afresh on each pass, so no pass holds them all
        # the non-blank lines that str.splitlines gives, found one at a time
        for match in re.finditer("[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]+", text):
            if not match[0].isspace():
                obj = _loads(match[0])
                if not (isinstance(obj, dict) and obj.get("trailer")):
                    yield obj

    count = 0
    for count, obj in enumerate(records(), 1):  # every record checked before any phi
        _check_hom_record(obj)
    t = search_t_colouring()
    fingerprint = t.fingerprint()
    pipelines = {}

    def lines():
        for obj in records():
            f = hom_from_json(obj)
            ell = obj["domain_base"]
            if ell not in pipelines:
                pipelines[ell] = CyclePipeline(ell, t=t)
            yield {"ell": ell, "arity": obj["arity"], "f": list(f.values),
                   "alpha": list(phi(f, pipelines[ell]).bits), "t_fingerprint": fingerprint}
        yield _meta(args, trailer=True, count=count,
                    t_fingerprint=fingerprint, params={"in_sha256": digest})

    _stream_lines(lines(), args.out)
    return 0


def cmd_degree(args):
    L, n, bits, digest = _load_colouring(args.colouring)
    map_from_colouring(torus(L, n), bits)
    alpha = deg_vector(bits, L, n)
    report = _meta(args, params={"colouring_sha256": digest, "L": L, "n": n},
                   alpha=list(alpha.bits), weight=alpha.weight)
    _write_lines([report], args.out)
    return 0


def _parse_graph(spec):
    kind, _, size = spec.partition(":")
    if kind not in ("cycle", "complete") or not size.isdigit():
        raise EquihomError("graph spec must look like cycle:5 or complete:4")
    return (cycle_graph if kind == "cycle" else complete_graph)(int(size))


def cmd_hom_complex(args):
    g = _parse_graph(args.graph)
    x = hom_complex(g)
    _write_lines([x.to_json()], args.out)
    return 0


def cmd_search_t(args):
    t = search_t_colouring()
    report = _meta(args, t_fingerprint=t.fingerprint(), colours=list(t.colours),
                   params={})
    _write_lines([report], args.out)
    return 0


def cmd_zeta0(args):
    z = zeta0(args.n, args.h, args.L)
    report = _meta(args, params={"n": args.n, "h": args.h, "L": args.L},
                   period=z.period, low_height=z.low_height,
                   path=[list(v) for v in z.path], validated=True)
    _write_lines([report], args.out)
    return 0


def cmd_swap_stats(args):
    L, n, bits, digest = _load_colouring(args.colouring)
    heights = [args.h] if args.h is not None else list(range(n))
    stats = {}
    for h in heights:
        frac = swap_fraction(bits, L, n, args.i, h)
        stats[str(h)] = {"fraction": str(frac),
                         "at_least_one_in_3LL": frac >= Fraction(1, 3 * L * L)}
    report = _meta(args, params={"colouring_sha256": digest, "i": args.i,
                                 "h": args.h, "L": L, "n": n},
                   swap_fractions=stats)
    _write_lines([report], args.out)
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
    _write_lines([report], args.out)
    return 0


def cmd_experiment(args):
    report = arity_experiment(args.ell, args.n_max, seed=args.seed,
                              chain_samples=args.chain_samples)
    _write_lines([report], args.out)
    return 0


def cmd_verify(args):
    rows = []
    for row in verify.run(args.suite, args.seed):
        status = "PASS" if row["pass"] else "FAIL"
        print(f"{status:4}  {row['check']:34}  {row['detail']}")
        rows.append(row)
    if args.out:
        _write_lines([_meta(args, params={"suite": args.suite}, results=rows)], args.out)
    return 0 if all(row["pass"] for row in rows) else 1


# Each verb: its command function, summary and options, flag ->
# (kind, default); a kind is int, str, bool (a flag storing True) or a tuple
# of choices.  Namespace names: `--n-max` is `n_max`, but `--in` is `infile`.
REQUIRED = object()  # the default of an option that must be given
COMMON = {"--out": (str, None), "--seed": (int, 0)}  # taken by every verb
VERBS = {
    "enumerate": (cmd_enumerate, "list polymorphisms of (C_ell, K_4)", {
        "--ell": (int, REQUIRED), "--arity": (int, REQUIRED), "--limit": (int, None)}),
    "phi": (cmd_phi, "degree vectors of polymorphisms from a file",
            {"--in": (str, REQUIRED)}),
    "degree": (cmd_degree, "degree vector of a torus colouring file",
               {"--colouring": (str, REQUIRED)}),
    "hom-complex": (cmd_hom_complex, "write Hom(K_2, G) as JSON, G cycle:L or complete:K",
                    {"--graph": (str, REQUIRED)}),
    "search-t": (cmd_search_t, "print the structure colouring", {}),
    "zeta0": (cmd_zeta0, "construct a generalized diagonal", {
        "--n": (int, REQUIRED), "--h": (int, REQUIRED), "--L": (int, REQUIRED)}),
    "swap-stats": (cmd_swap_stats, "colour-swapping fractions by height", {
        "--colouring": (str, REQUIRED), "--i": (int, REQUIRED), "--h": (int, None)}),
    "bredon": (cmd_bredon, "equivariant cohomology of a torus", {
        "--n": (int, REQUIRED), "--L": (int, REQUIRED), "--d": (int, REQUIRED),
        "--coefficients": (("Zminus", "Zplus", "ZZ2"), "Zminus"),
        "--quotient-check": (bool, False)}),
    "experiment": (cmd_experiment, "arity survey: weights, chains, swaps", {
        "--ell": (int, 3), "--n-max": (int, 3), "--chain-samples": (int, 4000)}),
    "verify": (cmd_verify, "run a verification suite",
               {"--suite": (verify.SUITE_NAMES, "all")}),
}


def _help(verb=None):
    """The help text of the command, or of one verb, read off ``VERBS``."""
    if verb is None:
        text = "usage: equihom VERB [--option value ...]; equihom VERB -h for its options\n"
        for name, (_, summary, _) in VERBS.items():
            text += f"  {name:12} {summary}\n"
        return text
    words = []
    for flag, (kind, default) in {**VERBS[verb][2], **COMMON}.items():
        if isinstance(kind, tuple):
            flag += " {%s}" % ",".join(kind)
        elif kind is not bool:
            flag += " " + flag[2:].upper()
        words.append(flag if default is REQUIRED else f"[{flag}]")
    return f"usage: equihom {verb} {' '.join(words)}\n{VERBS[verb][1]}\n"


def parse_args(argv):
    """The namespace of ``argv`` (the verb as ``command``, then each option of
    the verb by name), or the help text if ``-h`` or ``--help`` is given.  An
    option is ``--opt value``, ``--opt=value`` or a flag, and its last use
    wins; anything else raises EquihomError."""
    if not argv:
        raise EquihomError(f"a verb is required: {', '.join(VERBS)}")
    verb, *tokens = argv
    if verb in ("-h", "--help") or verb in VERBS and {"-h", "--help"} & set(tokens):
        return _help(verb if verb in VERBS else None)
    if verb not in VERBS:
        raise EquihomError(f"unknown verb {verb!r}: choose from {', '.join(VERBS)}")
    options, given, tokens = {**VERBS[verb][2], **COMMON}, {}, iter(tokens)
    for token in tokens:
        flag, eq, text = token.partition("=")
        kind = options[flag][0] if flag in options else None
        if kind is None or kind is bool and eq:
            raise EquihomError(f"{verb}: unrecognized argument {token!r}")
        if kind is bool:
            text = True
        elif not eq:
            text = next(tokens, None)  # as it is, even one like -1
            if text is None or text in options:
                raise EquihomError(f"argument {flag} needs a value")
        if kind is int:
            try:
                text = int(text)
            except ValueError:  # not an integer, or past the digit limit
                raise EquihomError(f"argument {flag}: invalid int value: {text!r}") from None
        elif isinstance(kind, tuple) and text not in kind:
            raise EquihomError(f"argument {flag}: invalid choice: {text!r} "
                               f"(choose from {', '.join(kind)})")
        given[flag] = text
    args = SimpleNamespace(command=verb)
    for flag, (_, default) in options.items():
        if default is REQUIRED and flag not in given:
            raise EquihomError(f"{verb} needs {flag}")
        setattr(args, "infile" if flag == "--in" else flag[2:].replace("-", "_"),
                given.get(flag, default))
    return args


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):  # the help text
            sys.stdout.write(args)
            return 0
        # called by name through the module, so a rebinding of a cmd_* reaches it
        return globals()[VERBS[args.command][0].__name__](args)
    except InvariantViolationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (EquihomError, OSError, json.JSONDecodeError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
