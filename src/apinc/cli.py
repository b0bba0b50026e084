"""Command-line front door.

Subcommands: count, gowers, partition-phase, partition-nil, verify,
roth.  All structured failures print a machine-readable error JSON on
stderr and exit nonzero: 2 verification failure, 3 budget exceeded,
4 invalid input.  APINC_BUDGET overrides work budgets.

File formats: sets are JSON {"N": .., "members": [..]}; functions are
JSON {"M": .., "re": [..], "im": [..]}; phases use the mini-grammar
"c0 + c1 n + c2 C(n,2)" with rational ("p/q") or decimal coefficients;
nil sequences are semicolon-separated phase specs, one per coordinate.
"""

import argparse
import json
import math
import re
import sys

from .errors import (
    ApincError,
    BudgetExceededError,
    CertificateError,
    InvalidArgumentError,
    charge,
)
from .polyphase import PolyPhase, lift
from .progressions import Progression

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_BUDGET = 3
EXIT_INVALID = 4

_TERM = re.compile(
    r"^\s*([+-]?[0-9][0-9_]*(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?(?:/[0-9]+)?)"
    r"\s*\*?\s*(?:(n)|C\(\s*n\s*,\s*([0-9]+)\s*\))?\s*$"
)


def parse_coeff(text):
    if "/" in text:
        return lift(text.replace("_", ""))  # InvalidArgumentError on a zero denominator
    if "." in text or "e" in text or "E" in text:
        x = float(text)
        if not math.isfinite(x):
            raise InvalidArgumentError(f"coefficient {text!r} is not finite")
        return x
    return int(text)


def parse_phase(spec):
    """Phase from "c0 + c1 n + c2 C(n,2)" (binomial basis)."""
    coeffs = {}
    for term in spec.split("+"):
        if not term.strip():
            continue
        m = _TERM.match(term)
        if not m:
            raise InvalidArgumentError(f"cannot parse phase term {term.strip()!r}")
        try:  # int() refuses more digits than sys.get_int_max_str_digits()
            c = parse_coeff(m.group(1))
            j = 1 if m.group(2) else int(m.group(3)) if m.group(3) else 0
        except ValueError as e:
            raise InvalidArgumentError(f"cannot read phase term: {e}") from None
        coeffs[j] = coeffs.get(j, 0) + c
    top = max(coeffs, default=0)
    # every partition costs at least (top + 1)^2 per point
    charge((top + 1) ** 2, f"a phase of declared degree {top}")
    return PolyPhase.binomial([coeffs.get(j, 0) for j in range(top + 1)])


def parse_range(spec):
    try:
        a, b = spec.split("..")
        return Progression.interval(int(a), int(b))
    except ValueError as e:
        raise InvalidArgumentError(f"range must look like A..B, got {spec!r}") from e


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise InvalidArgumentError(f"cannot read JSON file {path}: {e}") from e


def emit(obj, out=None):
    write_text(json.dumps(obj, indent=2, sort_keys=True), out)


def write_text(text, out):
    """Write text and a newline to the file `out`, or to stdout."""
    if out:
        with open(out, "w") as fh:
            print(text, file=fh)
    else:
        print(text)


def emit_partition(cert, out):
    """Write a partition certificate, in `emit`'s bytes, and its summary
    on stderr: part count, shortest part, largest witness and, when the
    payload records one, the reduction depth."""
    write_text(cert.to_json_text(), out)
    summary = {"num_parts": cert.num_parts, "min_len": cert.min_len, "max_diam": max(cert.diam_witness)}
    if "depth" in cert.payload:
        summary["depth"] = cert.payload["depth"]
    print(json.dumps(summary), file=sys.stderr)


# ---------------------------------------------------------------------
# Subcommands


def cmd_count(args):
    from .gowers import DenseSet, ap_count

    A = DenseSet.from_json(load_json(args.set))
    emit({"count": ap_count(A, args.k, nontrivial=args.nontrivial)})


def cmd_gowers(args):
    from .gowers import GroupFunction, gowers_norm
    from .oracle import brute_gowers

    f = GroupFunction.from_json(load_json(args.fn))
    if args.method == "direct":
        norm = brute_gowers(f, args.k)
    else:
        norm = gowers_norm(f, args.k)
    emit({"norm": float(norm), "k": args.k, "M": f.M, "method": args.method})


def cmd_partition_phase(args):
    from .polyphase import partition_polyphase

    phi = parse_phase(args.phase)
    P = parse_range(args.range)
    emit_partition(partition_polyphase(phi, P, args.eps), args.out)


def cmd_partition_nil(args):
    from .nil import (
        Nilmanifold,
        PolySequence,
        lipschitz_catalog,
        partition_nilsequence,
    )

    if args.manifold == "heisenberg":
        Mf = Nilmanifold.heisenberg()
    elif args.manifold.startswith("torus:"):
        dim = args.manifold.split(":", 1)[1]
        try:
            Mf = Nilmanifold.torus(int(dim))
        except ValueError as e:
            raise InvalidArgumentError(f"torus dimension must be an integer, got {dim!r}") from e
    else:
        raise InvalidArgumentError(f"unknown manifold {args.manifold!r}")
    coords = [parse_phase(s) for s in args.seq.split(";")]
    g = PolySequence(coords)
    F = lipschitz_catalog(args.fn)
    P = parse_range(args.range)
    emit_partition(partition_nilsequence(Mf, g, F, P, args.eps), args.out)


def cmd_verify(args):
    from .oracle import verify_certificate

    report = verify_certificate(load_json(args.cert))
    emit(report)


def cmd_roth(args):
    from .engine import ORACLES, szemeredi_search
    from .gowers import DenseSet

    A = DenseSet.from_json(load_json(args.set))
    oracle = ORACLES[args.oracle]()
    outcome, trace = szemeredi_search(A, args.k, floor_n0=args.floor, oracle=oracle)
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(trace.to_json_lines())
    emit(outcome.to_json())


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are invalid input (exit 4),
    not argparse's exit 2, which is a failed verification here.
    Subparsers inherit the class."""

    def error(self, message):
        raise InvalidArgumentError(f"{self.prog}: {message}")


def build_parser():
    ap = _Parser(
        prog="apinc",
        description="arithmetic-progression partitions, Gowers norms, density increments",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count k-term APs in a set")
    p.add_argument("--set", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--nontrivial", action="store_true")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("gowers", help="Gowers U^k norm of a function file")
    p.add_argument("--fn", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=("direct", "fft"), default="fft")
    p.set_defaults(func=cmd_gowers)

    p = sub.add_parser("partition-phase", help="certificate partition for a phase")
    p.add_argument("--phase", required=True)
    p.add_argument("--range", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_partition_phase)

    p = sub.add_parser("partition-nil", help="certificate partition for a nilsequence")
    p.add_argument("--manifold", required=True, help="torus:d or heisenberg")
    p.add_argument("--seq", required=True, help="semicolon-separated coordinate phases")
    p.add_argument("--fn", required=True, help="catalog function name")
    p.add_argument("--range", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_partition_nil)

    p = sub.add_parser("verify", help="independently re-verify a certificate")
    p.add_argument("--cert", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("roth", help="density-increment run")
    p.add_argument("--set", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--floor", type=int, default=8)
    p.add_argument("--oracle", choices=("fft", "catalog"), default="fft")
    p.add_argument("--trace")
    p.set_defaults(func=cmd_roth)
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
        return EXIT_OK
    except CertificateError as e:
        print(json.dumps(e.payload()), file=sys.stderr)
        return EXIT_VERIFY
    except BudgetExceededError as e:
        print(json.dumps(e.payload()), file=sys.stderr)
        return EXIT_BUDGET
    except ApincError as e:
        print(json.dumps(e.payload()), file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
