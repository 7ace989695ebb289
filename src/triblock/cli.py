"""Command line interface.

Every command reads JSON documents, writes a single JSON document to
stdout, and reports domain failures as {"error": code, "detail": ...}
with exit status 1. Usage problems (unknown commands, malformed flags,
unknown kind tokens) exit with status 2 via argparse. Identical inputs
and seeds always produce byte-identical output.
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import spectra, structure, tensorio
from .blocked import BlockKind, Partition, diagonal_blocks, is_blocked
from .core import Tensor
from .errors import TriblockError
from .inverse import left_k_inverse, right_k_inverse, verify_inverse
from .mtensor import m_tensor_report
from .product import general_product
from .spectra import det_blocked, singularity_oracle, spectral_radius, spectrum_blocked
from .structure import (
    adjacency_tensor,
    exists_first_type_normal_form,
    normal_form_2nd,
    normal_form_3rd,
)

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


def _read_tensor(path: str) -> Tensor:
    return tensorio.loads_tensor(Path(path).read_text())


def _emit(text: str, out_path: str | None = None) -> None:
    if out_path:
        Path(out_path).write_text(text + "\n")
    print(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every verb, built once: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="triblock",
        description="Structure, products, determinants, spectra, inverses and "
                    "normal forms of triangular blocked tensors.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tensor_flag(p):
        p.add_argument("--tensor", required=True, help="path to a tensor JSON document")

    p = sub.add_parser("classify", help="test a block structure")
    add_tensor_flag(p)
    p.add_argument("--partition", required=True, type=_partition_arg)
    p.add_argument("--kind", required=True, choices=KIND_TOKENS)

    p = sub.add_parser("blocks", help="extract diagonal blocks")
    add_tensor_flag(p)
    p.add_argument("--partition", required=True, type=_partition_arg)

    p = sub.add_parser("product", help="general tensor product A * B")
    p.add_argument("left", help="path to the order-m factor")
    p.add_argument("right", help="path to the order-k factor")
    p.add_argument("-o", "--output", help="also write the result here")

    for name, text in (("det", "determinant through the block formula"),
                       ("spectrum", "factored spectrum over a block structure")):
        p = sub.add_parser(name, help=text)
        add_tensor_flag(p)
        p.add_argument("--partition", required=True, type=_partition_arg)
        p.add_argument("--kind", required=True, choices=KIND_TOKENS)

    p = sub.add_parser("rho", help="spectral radius of a nonnegative tensor")
    add_tensor_flag(p)
    p.add_argument("--tol", type=_positive(float), default=1e-10)
    p.add_argument("--max-iter", type=_positive(int), default=10000)

    p = sub.add_parser("oracle", help="numerical singularity probe")
    add_tensor_flag(p)
    p.add_argument("--restarts", type=_positive(int), default=64)
    p.add_argument("--iters", type=_positive(int), default=200)
    p.add_argument("--seed", type=_checked(int, lambda value: value >= 0, "nonnegative"),
                   default=7)

    for name, text in (("left-inverse", "unique left k-inverse"),
                       ("right-inverse", "canonical right k-inverse")):
        p = sub.add_parser(name, help=text)
        add_tensor_flag(p)
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

    p = sub.add_parser("mtensor", help="Z / M / nonsingular-M classification")
    add_tensor_flag(p)
    p.add_argument("--tol", type=_positive(float), default=1e-9)

    p = sub.add_parser("normal-form", help="block triangular normal form")
    add_tensor_flag(p)
    p.add_argument("--type", required=True, choices=["2nd", "3rd"], dest="form_type")
    p.add_argument("-o", "--output")

    p = sub.add_parser("first-type-normal",
                       help="search for a first-type normal similarity")
    add_tensor_flag(p)

    p = sub.add_parser("hypergraph-rho",
                       help="adjacency spectral radius of a uniform hypergraph")
    p.add_argument("--edges", required=True, help="path to a hypergraph JSON document")
    p.add_argument("--tol", type=_positive(float), default=1e-10)
    p.add_argument("--max-iter", type=_positive(int), default=10000)

    return parser


def _dispatch(args: argparse.Namespace) -> None:
    cmd = args.command
    if cmd == "classify":
        tensor = _read_tensor(args.tensor)
        ok = is_blocked(tensor, args.partition, BlockKind.from_token(args.kind))
        _emit(tensorio.dumps({"result": ok}))
    elif cmd == "blocks":
        tensor = _read_tensor(args.tensor)
        blocks = diagonal_blocks(tensor, args.partition)
        _emit(tensorio.dumps_blocks(blocks))
    elif cmd == "product":
        result = general_product(_read_tensor(args.left), _read_tensor(args.right))
        _emit(tensorio.dumps_tensor(result), args.output)
    elif cmd == "det":
        tensor = _read_tensor(args.tensor)
        value = det_blocked(tensor, args.partition, BlockKind.from_token(args.kind))
        _emit(tensorio.dumps({"det": value}))
    elif cmd == "spectrum":
        tensor = _read_tensor(args.tensor)
        spec = spectrum_blocked(tensor, args.partition, BlockKind.from_token(args.kind))
        _emit(tensorio.dumps_spectrum(spec))
    elif cmd == "rho":
        result = spectral_radius(_read_tensor(args.tensor), tol=args.tol,
                                 max_iter=args.max_iter)
        _emit(tensorio.dumps({
            "rho": result.rho,
            "iterations": result.iterations,
            "residual": result.residual,
            "eigvec": None if result.eigvec is None else [float(v) for v in result.eigvec],
        }))
    elif cmd == "oracle":
        report = singularity_oracle(_read_tensor(args.tensor), restarts=args.restarts,
                                    iters=args.iters, seed=args.seed)
        _emit(tensorio.dumps({
            "min_norm": report.min_norm,
            "witness": {"re": [float(v.real) for v in report.witness],
                        "im": [float(v.imag) for v in report.witness]},
            "restarts_used": report.restarts_used,
        }))
    elif cmd == "left-inverse":
        result = left_k_inverse(_read_tensor(args.tensor), args.k)
        _emit(tensorio.dumps_tensor(result), args.output)
    elif cmd == "right-inverse":
        result = right_k_inverse(_read_tensor(args.tensor), args.k)
        _emit(tensorio.dumps_tensor(result), args.output)
    elif cmd == "verify":
        side = "left" if args.left else "right"
        ok = verify_inverse(_read_tensor(args.candidate), _read_tensor(args.tensor),
                            side, tol=args.tol)
        _emit(tensorio.dumps({"result": ok}))
    elif cmd == "mtensor":
        _emit(tensorio.dumps(m_tensor_report(_read_tensor(args.tensor), tol=args.tol)))
    elif cmd == "normal-form":
        tensor = _read_tensor(args.tensor)
        nf = normal_form_3rd(tensor) if args.form_type == "3rd" else normal_form_2nd(tensor)
        _emit(tensorio.dumps_normal_form(nf), args.output)
    elif cmd == "first-type-normal":
        witness = exists_first_type_normal_form(_read_tensor(args.tensor))
        if witness is None:
            _emit(tensorio.dumps("none"))
        else:
            sigma, partition = witness
            _emit(tensorio.dumps({"sigma": list(sigma.image), "partition": list(partition.parts)}))
    elif cmd == "hypergraph-rho":
        graph = tensorio.hypergraph_from_obj(
            tensorio.loads(Path(args.edges).read_text()))
        # a connected hypergraph's adjacency tensor is weakly irreducible
        rhos = spectra._block_radii(adjacency_tensor(graph), structure._component_blocks(graph),
                                    args.tol, args.max_iter)[0].tolist()
        _emit(tensorio.dumps({"rho": max(rhos), "component_rhos": rhos}))
    else:  # pragma: no cover - argparse enforces the choices
        raise AssertionError(f"unhandled command {cmd!r}")


def run(argv: list[str]) -> int:
    """Parse and execute; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _dispatch(args)
    except FileNotFoundError as exc:
        print(tensorio.dumps({"error": "FileNotFound", "detail": str(exc)}))
        return 1
    except TriblockError as exc:
        print(tensorio.dumps({"error": type(exc).__name__, "detail": str(exc)}))
        return 1
    return 0


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
