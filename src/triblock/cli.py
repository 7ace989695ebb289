"""Command line interface.

Every command reads JSON documents, writes a single JSON document to
stdout, and reports domain failures as {"error": code, "detail": ...}
with exit status 1. A file that cannot be read or written gives the
OSError's class name without "Error" as its code (``FileNotFound``,
``IsADirectory``); one that is not UTF-8 text gives ``FormatError``.
Usage problems (unknown commands, malformed flags, unknown kind tokens)
exit with status 2 via argparse. A reader that closes stdout early ends
the process with status 1 and no traceback. Identical inputs and seeds
always produce byte-identical output. Each verb is declared once, in
``build_parser``, with the function from its arguments to its output.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import tensorio
from .blocked import BlockKind, Partition, diagonal_blocks, is_blocked
from .core import Tensor
from .errors import FormatError, TriblockError
from .inverse import left_k_inverse, right_k_inverse, verify_inverse
from .mtensor import m_tensor_report
from .product import general_product
from .spectra import (det_blocked, hypergraph_radii, singularity_oracle, spectral_radius,
                      spectrum_blocked)
from .structure import exists_first_type_normal_form, normal_form_2nd, normal_form_3rd

KIND_TOKENS = [k.token for k in BlockKind]


def _partition_arg(text: str) -> Partition:
    try:
        return Partition.from_string(text)
    except TriblockError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _checked(convert, test, word: str):
    """An argparse type: ``convert`` the text, then refuse values that fail ``test``."""
    def parse(text: str):
        value = convert(text)
        if not test(value):
            raise argparse.ArgumentTypeError(f"must be {word}, got {text!r}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


def _positive(convert):
    return _checked(convert, lambda value: value > 0, "positive")


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from None


def _read_tensor(path: str) -> Tensor:
    return tensorio.loads_tensor(_read(path))


def _rho(tensor: Tensor, args: argparse.Namespace) -> str:
    result = spectral_radius(tensor, tol=args.tol, max_iter=args.max_iter)
    eigvec = None if result.eigvec is None else [float(v) for v in result.eigvec]
    return tensorio.dumps({"rho": result.rho, "iterations": result.iterations,
                           "residual": result.residual, "eigvec": eigvec})


def _oracle(tensor: Tensor, args: argparse.Namespace) -> str:
    report = singularity_oracle(tensor, restarts=args.restarts, iters=args.iters, seed=args.seed)
    return tensorio.dumps({
        "min_norm": report.min_norm,
        "witness": {"re": [float(v.real) for v in report.witness],
                    "im": [float(v.imag) for v in report.witness]},
        "restarts_used": report.restarts_used,
    })


def _first_type(tensor: Tensor, args: argparse.Namespace) -> str:
    witness = exists_first_type_normal_form(tensor)
    return tensorio.dumps("none" if witness is None else {
        "sigma": list(witness[0].image), "partition": list(witness[1].parts)})


def _hypergraph_rho(args: argparse.Namespace) -> str:
    graph = tensorio.hypergraph_from_obj(tensorio.loads(_read(args.edges)))
    rhos = hypergraph_radii(graph, tol=args.tol, max_iter=args.max_iter)
    return tensorio.dumps({"rho": max(rhos), "component_rhos": rhos})


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every verb, built once: parsing leaves it as it was. Each verb sets
    ``run``, the function from its parsed arguments to its output text."""
    parser = argparse.ArgumentParser(
        prog="triblock",
        description="Structure, products, determinants, spectra, inverses and "
                    "normal forms of triangular blocked tensors.")
    sub = parser.add_subparsers(dest="command", required=True)

    def on_tensor(name: str, text: str, run) -> argparse.ArgumentParser:
        """A verb on the tensor at --tensor, its output text ``run(tensor, args)``."""
        p = sub.add_parser(name, help=text)
        p.add_argument("--tensor", required=True, help="path to a tensor JSON document")
        p.set_defaults(run=lambda args: run(_read_tensor(args.tensor), args))
        return p

    def on_structure(name: str, text: str, run) -> None:
        """A verb on a tensor and a block structure, its output text ``run(tensor, p, kind)``."""
        p = on_tensor(name, text, lambda tensor, args: run(
            tensor, args.partition, BlockKind.from_token(args.kind)))
        p.add_argument("--partition", required=True, type=_partition_arg)
        p.add_argument("--kind", required=True, choices=KIND_TOKENS)

    on_structure("classify", "test a block structure",
                 lambda *structure: tensorio.dumps({"result": is_blocked(*structure)}))

    p = on_tensor("blocks", "extract diagonal blocks", lambda tensor, args:
                  tensorio.dumps_blocks(diagonal_blocks(tensor, args.partition)))
    p.add_argument("--partition", required=True, type=_partition_arg)

    p = sub.add_parser("product", help="general tensor product A * B")
    p.add_argument("left", help="path to the order-m factor")
    p.add_argument("right", help="path to the order-k factor")
    p.add_argument("-o", "--output", help="also write the result here")
    p.set_defaults(run=lambda args: tensorio.dumps_tensor(
        general_product(_read_tensor(args.left), _read_tensor(args.right))))

    on_structure("det", "determinant through the block formula",
                 lambda *structure: tensorio.dumps({"det": det_blocked(*structure)}))
    on_structure("spectrum", "factored spectrum over a block structure",
                 lambda *structure: tensorio.dumps_spectrum(spectrum_blocked(*structure)))

    p = on_tensor("rho", "spectral radius of a nonnegative tensor", _rho)
    p.add_argument("--tol", type=_positive(float), default=1e-10)
    p.add_argument("--max-iter", type=_positive(int), default=10000)

    p = on_tensor("oracle", "numerical singularity probe", _oracle)
    p.add_argument("--restarts", type=_positive(int), default=64)
    p.add_argument("--iters", type=_positive(int), default=200)
    p.add_argument("--seed", type=_checked(int, lambda value: value >= 0, "nonnegative"),
                   default=7)

    for p in (on_tensor("left-inverse", "unique left k-inverse", lambda tensor, args:
                        tensorio.dumps_tensor(left_k_inverse(tensor, args.k))),
              on_tensor("right-inverse", "canonical right k-inverse", lambda tensor, args:
                        tensorio.dumps_tensor(right_k_inverse(tensor, args.k)))):
        p.add_argument("-k", type=int, required=True)
        p.add_argument("-o", "--output")

    p = sub.add_parser("verify", help="check an inverse candidate")
    side = p.add_mutually_exclusive_group(required=True)
    side.add_argument("--left", action="store_true",
                      help="candidate multiplies from the left")
    side.add_argument("--right", action="store_true",
                      help="candidate multiplies from the right")
    p.add_argument("candidate", help="path to the inverse candidate")
    p.add_argument("tensor", help="path to the tensor")
    p.add_argument("--tol", type=_positive(float), default=1e-10)
    p.set_defaults(run=lambda args: tensorio.dumps({"result": verify_inverse(
        _read_tensor(args.candidate), _read_tensor(args.tensor),
        "left" if args.left else "right", tol=args.tol)}))

    p = on_tensor("mtensor", "Z / M / nonsingular-M classification", lambda tensor, args:
                  tensorio.dumps(m_tensor_report(tensor, tol=args.tol)))
    p.add_argument("--tol", type=_positive(float), default=1e-9)

    p = on_tensor("normal-form", "block triangular normal form", lambda tensor, args:
                  tensorio.dumps_normal_form((normal_form_3rd if args.form_type == "3rd"
                                              else normal_form_2nd)(tensor)))
    p.add_argument("--type", required=True, choices=["2nd", "3rd"], dest="form_type")
    p.add_argument("-o", "--output")

    on_tensor("first-type-normal", "search for a first-type normal similarity", _first_type)

    p = sub.add_parser("hypergraph-rho",
                       help="adjacency spectral radius of a uniform hypergraph")
    p.add_argument("--edges", required=True, help="path to a hypergraph JSON document")
    p.add_argument("--tol", type=_positive(float), default=1e-10)
    p.add_argument("--max-iter", type=_positive(int), default=10000)
    p.set_defaults(run=_hypergraph_rho)

    return parser


def run(argv: list[str]) -> int:
    """Parse and execute; returns the process exit status."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text, status = args.run(args), 0
        if getattr(args, "output", None):
            Path(args.output).write_text(text + "\n")
    except OSError as exc:  # a path that cannot be read, or an -o one that cannot be written
        code, detail = type(exc).__name__.removesuffix("Error"), str(exc)
        text, status = tensorio.dumps({"error": code, "detail": detail}), 1
    except TriblockError as exc:
        text, status = tensorio.dumps({"error": type(exc).__name__, "detail": str(exc)}), 1
    print(text)
    return status


def main() -> int:
    """``run`` on the process's arguments; a closed stdout gives status 1, no traceback."""
    try:
        status = run(sys.argv[1:])
        sys.stdout.flush()  # inside the try, so a closed pipe is met here and not at exit
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
