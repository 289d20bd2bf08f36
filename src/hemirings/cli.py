"""Command-line surface.

Exit codes: 0 success/confirmed, 1 counterexample found, 2 input error,
3 size guard.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

from .core import SizeGuardExceeded, check_hemiring_axioms, fingerprint
from .lattices import FiniteSemilattice, _distributive_lattice, build_E_M, build_F_M, \
    semilattice_violation
from .simpleness import all_congruences, all_ideals
from .constructions import corner, enumerate_hemirings, enumerate_semilattices, \
    is_full_idempotent, matrix_semiring
from .io import ParseError, _read_tables, format_algebra, parse_algebra_file, write_algebra
from .verify import SUITES, classify, run_suite, suite_names

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INPUT = 2
EXIT_SIZE = 3


class _InputError(Exception):
    """Input a command cannot run on; ``main`` prints the message and exits 2."""


def _hemiring_file(args, command: str):
    """The hemiring in ``args.file``; a semilattice file is an input error."""
    alg = parse_algebra_file(args.file)
    if isinstance(alg, FiniteSemilattice):
        raise _InputError(f"{command} needs a hemiring file")
    return alg


def _emit_fields(fields, fmt: str) -> str:
    if fmt == "structured":
        return "\n".join(f"{k}: {v}" for k, v in fields) + "\n"
    return ", ".join(f"{k}={v}" for k, v in fields) + "\n"


def cmd_check(args) -> int:
    """Print the law report of a table file; an algebra that fails a law
    exits 1, a malformed file 2.  The file's tables are scanned once."""
    kind, _, zero, one, add, mul = _read_tables(Path(args.file).read_text(encoding="utf-8"))
    if kind == "semilattice":
        bad = semilattice_violation(add, zero)
        fields = [("kind", "semilattice"), ("order", str(len(add)))]
        if bad is not None:
            fields.append((bad[0], f"fail {bad[1]}"))
        fields.append(("valid", str(bad is None).lower()))
        sys.stdout.write(_emit_fields(fields, args.format))
        return EXIT_OK if bad is None else EXIT_COUNTEREXAMPLE
    report = check_hemiring_axioms(add, mul, zero, one)
    if args.format == "structured":
        sys.stdout.write(f"order: {report.order}\n")
        for c in report.checks:
            w = "pass" if c.ok else f"fail {c.witness}"
            sys.stdout.write(f"{c.axiom}: {w}\n")
        sys.stdout.write(f"valid: {str(report.ok).lower()}\n")
    else:
        sys.stdout.write(report.summary() + "\n")
    return EXIT_OK if report.ok else EXIT_COUNTEREXAMPLE


def cmd_classify(args) -> int:
    alg = parse_algebra_file(args.file)
    fields = classify(alg)
    sys.stdout.write(_emit_fields(fields, args.format))
    return EXIT_OK


def cmd_endo(args) -> int:
    alg = parse_algebra_file(args.file)
    if not isinstance(alg, FiniteSemilattice):
        raise _InputError("endo needs a semilattice file (kind semilattice)")
    E = build_E_M(alg)
    F = build_F_M(alg)
    out = Path(args.out) if args.out else Path(args.file).parent
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(args.file).stem
    e_path = out / f"{stem}_EM.alg"
    f_path = out / f"{stem}_FM.alg"
    write_algebra(E.hemiring, e_path)
    write_algebra(F.hemiring, f_path)
    fields = [("endo-order", str(E.order)), ("generated-order", str(F.order)),
              ("full-equals-generated", str(E.order == F.order).lower()),
              ("distributive", str(_distributive_lattice(alg)).lower()),
              ("endo-file", str(e_path)), ("generated-file", str(f_path))]
    sys.stdout.write(_emit_fields(fields, args.format))
    return EXIT_OK


def cmd_congruences(args) -> int:
    alg = _hemiring_file(args, "congruences")
    congs = all_congruences(alg)
    sys.stdout.write(f"count: {len(congs)}\n")
    for c in congs:
        blocks = " ".join("{" + ",".join(map(str, b)) + "}" for b in c.blocks())
        sys.stdout.write(f"congruence: {blocks}\n")
    return EXIT_OK


def cmd_ideals(args) -> int:
    alg = _hemiring_file(args, "ideals")
    ideals = all_ideals(alg, args.sidedness)
    sys.stdout.write(f"count: {len(ideals)}\n")
    for I in ideals:
        sys.stdout.write("ideal: {" + ",".join(map(str, sorted(I.members))) + "}\n")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    if args.kind == "semilattices":
        algebras = enumerate_semilattices(args.order)
    else:
        algebras = enumerate_hemirings(args.order,
                                       additively_idempotent=args.additively_idempotent)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    index_lines = []
    for alg in algebras:
        text = format_algebra(alg)
        digest = hashlib.sha256(text.encode()).hexdigest()[:12]
        name = f"{alg.name}.alg"
        (out / name).write_text(text, encoding="utf-8")
        if isinstance(alg, FiniteSemilattice):
            fp = f"distributive={str(_distributive_lattice(alg)).lower()}"
        else:
            fp = (f"semiring={str(alg.is_semiring).lower()}"
                  f" ring={str(alg.is_ring).lower()}"
                  f" fingerprint={fingerprint(alg)}")
        index_lines.append(f"{name}  {digest}  {fp}")
    (out / "index.txt").write_text("\n".join(index_lines) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(algebras)} algebras to {out}\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    report = run_suite(args.suite, args.max_order)
    text = report.render(args.format)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if report.verdict == "confirmed":
        return EXIT_OK
    if report.verdict.startswith("skipped"):
        sys.stderr.write(f"size guard: suite {args.suite} is bounded at max-order "
                         f"{SUITES[args.suite].bound}; asked for {args.max_order}\n")
        return EXIT_SIZE
    return EXIT_COUNTEREXAMPLE


def cmd_matrix(args) -> int:
    alg = _hemiring_file(args, "matrix")
    M = matrix_semiring(alg, args.n)
    if args.out:
        write_algebra(M.hemiring, args.out)
        sys.stdout.write(f"wrote order-{M.order} matrix semiring to {args.out}\n")
    else:
        sys.stdout.write(format_algebra(M.hemiring))
    return EXIT_OK


def cmd_morita_corner(args) -> int:
    alg = _hemiring_file(args, "corner")
    e = args.idempotent
    if not 0 <= e < alg.order or alg.mul[e, e] != e:
        raise _InputError(f"element {e} is not an idempotent of the algebra")
    c = corner(alg, e)
    full = is_full_idempotent(alg, e)
    sys.stdout.write(f"corner-order: {c.order}\n")
    sys.stdout.write(f"members: {' '.join(map(str, c.members))}\n")
    sys.stdout.write(f"full: {str(full).lower()}\n")
    if args.out:
        write_algebra(c.hemiring, args.out)
        sys.stdout.write(f"corner-file: {args.out}\n")
    else:
        sys.stdout.write(format_algebra(c.hemiring))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hemirings",
        description="Finite hemiring workbench: axiom checks, endomorphism "
                    "semirings, simpleness deciders, catalogs, verification suites.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_format(sp):
        sp.add_argument("--format", choices=("text", "structured"),
                        default="text")

    sp = sub.add_parser("check", help="validate an algebra table file")
    sp.add_argument("file")
    add_format(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("classify", help="structural summary of an algebra")
    sp.add_argument("file")
    add_format(sp)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("endo", help="emit E_M and F_M of a semilattice")
    sp.add_argument("file")
    sp.add_argument("--out")
    add_format(sp)
    sp.set_defaults(fn=cmd_endo)

    sp = sub.add_parser("congruences", help="dump the congruence lattice")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_congruences)

    sp = sub.add_parser("ideals", help="dump all ideals")
    sp.add_argument("file")
    sp.add_argument("--sidedness", choices=("left", "right", "two-sided"),
                    default="two-sided")
    sp.set_defaults(fn=cmd_ideals)

    sp = sub.add_parser("enumerate", help="write a catalog to disk")
    sp.add_argument("kind", choices=("semilattices", "hemirings"))
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--additively-idempotent", action="store_true")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_enumerate)

    sp = sub.add_parser("verify", help="run a classification suite")
    sp.add_argument("suite", choices=suite_names())
    sp.add_argument("--max-order", type=int, default=None)
    sp.add_argument("--out")
    add_format(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("matrix", help="build a matrix semiring over the input")
    sp.add_argument("file")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_matrix)

    sp = sub.add_parser("morita", help="Morita-style constructions")
    msub = sp.add_subparsers(dest="morita_command", required=True)
    csp = msub.add_parser("corner", help="corner semiring at an idempotent")
    csp.add_argument("file")
    csp.add_argument("--idempotent", type=int, required=True)
    csp.add_argument("--out")
    csp.set_defaults(fn=cmd_morita_corner)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # a reader that closed the pipe (``| head``) is not an input error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except _InputError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_INPUT
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_INPUT
    except SizeGuardExceeded as exc:
        sys.stderr.write(f"size guard: {exc}\n")
        return EXIT_SIZE
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
