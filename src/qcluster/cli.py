"""Command-line interface: seed files in, deterministic reports out.

Seed files are JSON with 1-based vertex labels:
    {"n": 2, "unfrozen": [1, 2], "B": [[0,-1],[1,0]],
     "Lambda": [[0,-1],[1,0]], "D": [1, 1]}
B is row-major with one column per unfrozen vertex; every number is a
JSON integer (a float or a boolean is refused, never truncated). Lambda
and D are optional. Without either, both are synthesized; a D given
without Lambda is honored (Lambda is solved for exactly that D); a
Lambda given without D determines D, the diagonal of B^T Lambda, and
the pair is incompatible when that is not positive.

leclerc --json writes the bytes json.dump(doc, indent=2, sort_keys=True)
would, without building doc: each pair is encoded as the sweep makes it
(encode_verdict) onto a spool, copied into the file after the sweep
(sweep_to_json).

Exit codes: 0 success, 1 check failure, 2 usage or input error,
3 internal assertion failure or out of memory.
"""
from __future__ import annotations

import argparse
import errno
import json
import os
import random
import shutil
import sys
import tempfile

from . import expansion, leclerc, tropical
from .expansion import apply_word, build_exchange_graph, emit_dot, initial_tracked
from .seed import IncompatiblePair, NoCompatibleLambda, make_seed, mutate_seed


class UsageError(Exception):
    pass


class IncompatibleFile(UsageError):
    """The file's pair fails B^T Lambda = (D 0): exit 1 from check, 2 elsewhere."""


def _integer(x):
    """A JSON integer: an int that is not a bool; no float is truncated."""
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {json.dumps(x)}")
    return x


def load_seed(path):
    """Parse a seed file into (seed, Lambda synthesized?) via make_seed."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read seed file: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"seed file is not valid JSON: {exc}")
    try:
        n = _integer(data["n"])
        b = tuple(tuple(_integer(x) for x in row) for row in data["B"])
        if len(b) != n:
            # before the default unfrozen range, which n alone would size
            raise UsageError(f"B has {len(b)} rows, expected n = {n}")
        unfrozen = tuple(_integer(k) - 1 for k in data.get("unfrozen", range(1, n + 1)))
        lam = data.get("Lambda")
        lam = None if lam is None else tuple(tuple(_integer(x) for x in row) for row in lam)
        d = data.get("D")
        d = None if d is None else tuple(_integer(x) for x in d)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"seed file field error: {exc}")
    try:
        return make_seed(b, lam, unfrozen, d), lam is None
    except IncompatiblePair as exc:
        raise IncompatibleFile(f"seed file is not a compatible pair: {exc}") from exc
    except (ValueError, NoCompatibleLambda) as exc:
        raise UsageError(f"bad seed data: {exc}")


def parse_word(text, seed):
    if not text:
        return ()
    try:
        word = tuple(int(x) - 1 for x in text.split(","))
    except ValueError:
        raise UsageError(f"bad mutation word: {text!r}")
    for k in word:
        if k not in seed.unfrozen:
            raise UsageError(f"vertex {k + 1} is not unfrozen")
    return word


def write_file(path, write):
    """Write an output file through write(fh); a path that cannot be
    written is a usage error."""
    try:
        with open(path, "w") as fh:
            write(fh)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}")


def check_writable(path):
    """Raise write_file's usage error before a long computation, for a
    path that could not be written after it; nothing is created. The
    empty path names no file, as open("") finds."""
    parent = os.path.dirname(path) or "."
    if not path:
        err = errno.ENOENT
    elif os.path.isdir(path):
        err = errno.EISDIR
    elif os.path.exists(path):
        err = None if os.access(path, os.W_OK) else errno.EACCES
    elif not os.path.isdir(parent):
        err = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    else:
        err = None if os.access(parent, os.W_OK | os.X_OK) else errno.EACCES
    if err is not None:
        raise UsageError(f"cannot write {path}: {os.strerror(err)}")


def require_at_least(flag, value, low):
    """A numeric option below its least meaningful value is a usage error."""
    if value < low:
        raise UsageError(f"{flag} must be >= {low}, got {value}")


def print_seed(seed):
    print(f"n={seed.n} unfrozen={[k + 1 for k in seed.unfrozen]}")
    print("B=" + json.dumps(seed.B))
    print("Lambda=" + json.dumps(seed.Lambda))
    print("D=" + json.dumps(seed.D))


def cmd_check(args):
    try:
        seed, synthesized = load_seed(args.seed_file)
    except IncompatibleFile as exc:
        print(f"incompatible: {exc.__cause__}")
        return 1
    if synthesized:
        print("Lambda synthesized:")
        print_seed(seed)
    print("compatible")
    return 0


def cmd_mutate(args):
    seed, _ = load_seed(args.seed_file)
    for k in parse_word(args.word, seed):
        seed = mutate_seed(seed, k)
    print_seed(seed)
    return 0


def cmd_expand(args):
    seed, _ = load_seed(args.seed_file)
    var = args.var - 1
    if not 0 <= var < seed.n:
        raise UsageError(f"variable index {args.var} out of range")
    ts = apply_word(initial_tracked(seed), parse_word(args.word, seed))
    print(ts.vars[var].expand(seed))
    return 0


def not_finite_type(graph, outcome):
    """Print why a graph that failed the 2-finite test is infinite, and
    True; False for any other graph."""
    if graph.witness is None:
        return False
    path, i, j, prod = graph.witness
    at = f"after mutation word {','.join(str(k + 1) for k in path)}" if path else "itself"
    print(f"not finite type: b_{i + 1},{j + 1} * b_{j + 1},{i + 1} = {prod} < -3 "
          f"in the seed {at}; {outcome}")
    return True


def cmd_graph(args):
    seed, _ = load_seed(args.seed_file)
    if args.dot is not None and args.dot != "-":
        check_writable(args.dot)  # fail now, not after the build
    graph = build_exchange_graph(seed)
    if not_finite_type(graph, "no graph written"):
        return 1
    nvars = len(graph.distinct_variables())
    edges = graph.undirected_edges()
    # DOT on stdout stays valid DOT: the summary goes to stderr then
    print(f"{len(graph.order)} nodes, {len(edges)} edges, "
          f"{nvars} distinct cluster variables"
          + (" (truncated)" if graph.truncated else ""),
          file=sys.stderr if args.dot == "-" else sys.stdout)
    if args.dot is not None:
        text = emit_dot(graph, edges)
        if args.dot == "-":
            sys.stdout.write(text)
        else:
            write_file(args.dot, lambda fh: fh.write(text))
    return 0


def cmd_shift(args):
    seed, _ = load_seed(args.seed_file)
    graph = build_exchange_graph(seed)
    if not_finite_type(graph, f"no {args.direction:+d} shift found"):
        return 1
    try:
        sd = tropical.detect_shift(graph, graph.order[0], args.direction)
    except tropical.ShiftNotFound:
        if not graph.truncated:
            raise
        print(f"not finite type within cap {expansion.NODE_CAP}; "
              f"no {args.direction:+d} shift found")
        return 1
    out = {
        "direction": sd.direction,
        "word": [k + 1 for k in sd.word],
        "sigma": {str(k + 1): sd.sigma[k] + 1 for k in sorted(sd.sigma)},
        "u": {str(k + 1): sd.u[k] for k in sorted(sd.u)},
    }
    print(json.dumps(out, sort_keys=True))
    return 0


# Line starts of the --json report by depth (two spaces a level): the
# top-level keys sit at depth 1, pairs at 2, a pair's keys at 3.
_PAD = tuple("\n" + "  " * depth for depth in range(7))
_string = json.encoder.encode_basestring_ascii


def _ints(xs, depth):
    """An int list at depth, as json.dump(indent=2) writes it."""
    if not xs:
        return "[]"
    pad = _PAD[depth + 1]
    return "[" + pad + ("," + pad).join(map(str, xs)) + _PAD[depth] + "]"


def encode_verdict(v, node):
    """One pair of the --json report, R's home given as node, its index in
    graph order, as json.dump(doc, indent=2, sort_keys=True) writes it in
    doc's pairs: the verdict's fields as they are, keys sorted, an
    optional one only when set, checks as booleans, and each middle
    coefficient as its text; strings escaped as json escapes them."""
    p3, p4, p5 = _PAD[3], _PAD[4], _PAD[5]
    items = [] if v.H is None else ['"H": ' + _ints(v.H, 3)]
    items.append(f'"R": {{{p4}"m": {_ints(v.r_spec[1], 4)},{p4}"node": {node}{p3}}}')
    if v.S is not None:
        items.append('"S": ' + _ints(v.S, 3))
    items.append('"V": ' + _ints(v.v_degree, 3))
    checks = ",".join(p4 + _string(k) + (": true" if ok else ": false")
                      for k, ok in sorted(v.checks.items()))
    items.append(f'"checks": {{{checks}{p3}}}' if checks else '"checks": {}')
    if v.h is not None:
        items.append(f'"h": {v.h}')
    if v.middle:
        terms = ",".join(f"{p4}[{p5}{_ints(g, 5)},{p5}{_string(str(c))}{p4}]"
                         for g, c in v.middle)
        items.append(f'"middle": [{terms}{p3}]')
    if v.reason is not None:
        items.append('"reason": ' + _string(v.reason))
    if v.s is not None:
        items.append(f'"s": {v.s}')
    items.append('"verdict": ' + _string(v.case))
    return "{" + p3 + ("," + p3).join(items) + _PAD[2] + "}"


def sweep_to_json(path, graph, basis, r_specs):
    """Run the sweep and write its --json report to path: the bytes of
    json.dump(doc, fh, indent=2, sort_keys=True) and a newline, where doc
    has the keys basis_size, conflicts, counts, nodes, pairs (one per
    verdict, in the report's order) and variables. Neither doc nor the
    report's text is built. Each pair is encoded as the sweep makes it
    (encode_verdict) onto an anonymous spool file; the keys before pairs
    need the finished sweep, so path is opened after it: the head, the
    spool's pairs, then variables. A sweep that raises leaves no file,
    the spool vanishing as it is closed; an OSError of the spool or the
    file is write_file's usage error."""
    node_ids = {key: i for i, key in enumerate(graph.order)}
    try:
        with tempfile.TemporaryFile("w+") as spool:
            report = leclerc.verify_theorem(basis, r_specs, lambda v: spool.write(
                "," + _PAD[2] + encode_verdict(v, node_ids[v.r_spec[0]])))
            head = json.dumps({"basis_size": len(basis.by_degree),
                               "conflicts": [str(c) for c in report.conflicts],
                               "counts": report.counts(), "nodes": len(graph.order)},
                              indent=2, sort_keys=True)
            variables = len(graph.distinct_variables())
            with open(path, "w") as fh:
                fh.write(head[:-2] + ',\n  "pairs": ')
                spool.seek(0)
                if spool.read(1):  # the first pair's comma
                    fh.write("[")
                    shutil.copyfileobj(spool, fh)
                    fh.write(_PAD[1] + "]")
                else:
                    fh.write("[]")
                fh.write(f',\n  "variables": {variables}\n}}\n')
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}")
    return report


def parse_scope(text):
    """'all' -> None, 'sample:N' -> N (an int), 'i,j,...' -> set of indices."""
    if text == "all":
        return None
    sample = text.startswith("sample:")
    try:
        if sample:
            value = int(text.split(":", 1)[1])
        else:
            value = {int(x) for x in text.split(",")}
    except ValueError:
        raise UsageError(f"bad --scope {text!r}: expected 'all', 'sample:N' or R indices")
    if sample and value < 1:
        raise UsageError(f"bad --scope {text!r}: sample size must be positive")
    return value


def select_r_specs(r_specs, scope, rng_seed):
    """The R specs a parsed --scope asks for; every index must exist."""
    if scope is None:
        return r_specs
    if isinstance(scope, int):
        rng = random.Random(rng_seed)
        return rng.sample(r_specs, min(scope, len(r_specs)))
    bad = sorted(i for i in scope if not 0 <= i < len(r_specs))
    if bad:
        raise UsageError(f"R index {bad[0]} out of range: there are {len(r_specs)} R specs "
                         f"(0..{len(r_specs) - 1})")
    return [rs for i, rs in enumerate(r_specs) if i in scope]


def cmd_leclerc(args):
    require_at_least("--cap", args.cap, 0)
    require_at_least("--frozen-window", args.frozen_window, 0)
    scope = parse_scope(args.scope)
    seed, _ = load_seed(args.seed_file)
    graph = build_exchange_graph(seed)
    if not_finite_type(graph, "no report written"):
        return 1
    if graph.truncated:
        print(f"not finite type within cap {expansion.NODE_CAP}; no report written")
        return 1
    r_specs = select_r_specs(leclerc.default_r_specs(graph), scope, args.rng_seed)
    try:
        basis = leclerc.CandidateBasis(graph, unfrozen_cap=args.cap,
                                       frozen_window=args.frozen_window)
    except leclerc.EnumerationTooLarge as exc:
        raise UsageError(f"--cap {args.cap} with --frozen-window {args.frozen_window} keys "
                         f"{exc.size} (node, m) pairs, over {leclerc.ENUMERATION_LIMIT}")
    if args.json_out is None:
        report = leclerc.verify_theorem(basis, r_specs=r_specs)
    else:
        check_writable(args.json_out)  # fail now, not after the sweep
        report = sweep_to_json(args.json_out, graph, basis, r_specs)
    tally = ", ".join(f"{case} {count}" for case, count in report.counts().items())
    print(f"basis {len(basis.by_degree)} elements; {tally}, conflicts {len(report.conflicts)}")
    for v in report.failures:
        if v.case == "indeterminate":
            print(f"INDETERMINATE R={v.r_spec[1]} V@{v.v_degree}: {v.reason}")
        else:
            bad = [k for k, b in v.checks.items() if not b]
            print(f"FAIL R={v.r_spec[1]} V@{v.v_degree}: {bad}")
    return 0 if report.ok else 1


def build_parser():
    ap = argparse.ArgumentParser(prog="qcluster")
    ap.add_argument("--seed", dest="rng_seed", type=int, default=0,
                    help="RNG seed for sampled scopes")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a seed file's compatible pair")
    p.add_argument("seed_file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("mutate", help="print the seed after a mutation word")
    p.add_argument("seed_file")
    p.add_argument("--word", default="", help="comma-separated 1-based vertices")
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("expand", help="print one variable's Laurent expansion")
    p.add_argument("seed_file")
    p.add_argument("--word", default="")
    p.add_argument("--var", type=int, required=True, help="1-based variable index")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("graph", help="enumerate the exchange graph")
    p.add_argument("seed_file")
    p.add_argument("--dot", default=None, help="write DOT here ('-' for stdout)")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("shift", help="detect the shifted seed of the initial node")
    p.add_argument("seed_file")
    p.add_argument("--direction", type=int, choices=(1, -1), default=1)
    p.set_defaults(func=cmd_shift)

    p = sub.add_parser("leclerc", help="run the product-structure verification")
    p.add_argument("seed_file")
    p.add_argument("--cap", type=int, default=3, help="unfrozen exponent cap")
    p.add_argument("--frozen-window", type=int, default=0)
    p.add_argument("--scope", default="all",
                   help="'all', comma-separated R indices, or 'sample:N'")
    p.add_argument("--json", dest="json_out", default=None,
                   help="write the full JSON report here")
    p.set_defaults(func=cmd_leclerc)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, LookupError, ValueError, ArithmeticError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
