"""Command-line front end.

Subcommands
-----------
decompose     block-decompose an algebra fixture
ideal         projection generator + certificate for an ideal fixture
tro-classify  block classification of a TRO fixture
verify-dz     sampled maximal-ideal certificates for an algebra fixture
selftest      deterministic smoke suite
random        emit a random fixture with ground truth

Reports are deterministic JSON (sorted keys, no timestamps), written to
``--json PATH`` or standard output.  Seeds come from ``--seed`` or the
``CSTAR_SEED`` environment variable.  Exit codes: 0 success, 1 bad
input/usage, 2 a verified invariant failed.
"""

import argparse
import functools
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .algebra import _compress
from .config import DEFAULT_TOL
from .errors import CStarError, INPUT_ERRORS, ParamError, ParseError
from .ideals import projection_generator
from .instances import planted_block_algebra, planted_block_tro, random_ideal_generators
from .jsonio import (
    certificate_report,
    decode_fixture,
    dumps_report,
    encode_algebra_fixture,
    encode_ideal_fixture,
    encode_tro_fixture,
)
from .linalg import gram_sum, hs_norm, support_projection_of_psd
from .selftest import run_selftest
from .structure import decompose_generators, verify_dales_zelazko
from .tro import classify_tro, generate_tro


def _resolve_seed(args):
    seed = args.seed
    if seed is None:
        env = os.environ.get("CSTAR_SEED", "0")
        try:
            seed = int(env)
        except ValueError as exc:
            raise ParamError(f"CSTAR_SEED must be an integer, got {env!r}") from exc
    if seed < 0:
        raise ParamError(f"the seed must be non-negative, got {seed}")
    return seed


def _resolve_tol(args):
    tol = DEFAULT_TOL
    for name in ("member", "spec"):
        value = getattr(args, f"tol_{name}", None)
        if value is None:
            continue
        # nan and inf would make every check against the bound vacuous
        if not (np.isfinite(value) and value > 0):
            raise ParamError(f"--tol-{name} must be finite and positive, got {value!r}")
        tol = replace(tol, **{name: value})
    return tol


def _load_fixture(path, want):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    fix = decode_fixture(raw)
    if fix["kind"] not in want:
        raise ParseError(f"expected a {'/'.join(want)} fixture, got {fix['kind']!r}")
    return fix


def _emit(report, args):
    text = dumps_report(report)
    if getattr(args, "json", None):
        try:
            with open(args.json, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParamError(f"cannot write {args.json}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _finish(report, args, ok, failure):
    """Write the report with its verdict ``ok``; exit code 0, or 2 with
    ``verification failed: <failure>`` on stderr."""
    report["ok"] = ok
    _emit(report, args)
    if not ok:
        sys.stderr.write(f"verification failed: {failure}\n")
        return 2
    return 0


def _cmd_decompose(args):
    tol = _resolve_tol(args)
    fix = _load_fixture(args.fixture, ("algebra",))
    dec = decompose_generators(
        fix["ambient"], fix["generators"], seed=_resolve_seed(args), tol=tol)
    # dim A is the certified sum n_k^2, and the residual is over the generators
    dim = sum(n * n for n in dec.block_sizes)
    report = {
        "command": "decompose",
        "ambient": fix["ambient"],
        "algebra_dim": dim,
        "blocks": [
            {"size": n, "multiplicity": m}
            for n, m in zip(dec.block_sizes, dec.multiplicities)
        ],
        "dimension_identity_ok": True,
        "block_form_residual": dec.residuals["block_form"],
    }
    gt = fix.get("ground_truth")
    if gt is not None:
        expected = sorted(zip(gt[0], gt[1]), reverse=True)
        report["ground_truth_match"] = dec.block_signature() == expected
    return _finish(report, args, report.get("ground_truth_match", True), "block structure mismatch")


def _ideal_report(alg, ideal_generators, tol):
    """The ``ideal`` report of the certificate ``J = pA`` for the right
    ideal the generators generate in the algebra ``alg``, and its verdict."""
    cert = projection_generator(alg, ideal_generators, tol=tol)
    p = cert.projection
    # p's block compressions check p in A and give dim pA = sum_k n_k rank P_k;
    # over the matrix units b_i, sum_i (p b_i)(p b_i)* = p (sum_k (n_k/m_k) c_k) p for
    # c_k = sum_i v_i v_i*; its support, by an eigendecomposition of its own, is checked against p
    ranges, _ = _compress(alg, p, tol)
    weight = sum(((len(v) / v.shape[2]) * gram_sum(v) for v in alg.blocks), np.zeros_like(p))
    agreement = hs_norm(p - support_projection_of_psd(p @ weight @ p, tol=tol))
    report = {
        "command": "ideal",
        "ambient": alg.ambient_dim,
        "algebra_dim": alg.dim,
        "ideal_dim": sum(len(v) * len(r) for v, r in zip(alg.blocks, ranges)),
        "certificate": certificate_report(cert),
        "support_agreement": agreement,
    }
    ok = agreement <= tol.member and (
        cert.is_trivial or max(cert.residuals.values()) <= tol.member
    )
    return report, ok


def _cmd_ideal(args):
    tol = _resolve_tol(args)
    fix = _load_fixture(args.fixture, ("ideal",))
    # A is its certified decomposition's blocks
    alg = decompose_generators(fix["ambient"], fix["algebra_generators"],
                               seed=_resolve_seed(args), tol=tol).algebra
    report, ok = _ideal_report(alg, fix["ideal_generators"], tol)
    return _finish(report, args, ok, "projection certificate residuals")


def _cmd_tro_classify(args):
    tol = _resolve_tol(args)
    fix = _load_fixture(args.fixture, ("tro",))
    rows, cols = fix["ambient"]
    tro = generate_tro(rows, cols, fix["generators"], tol=tol)
    cls = classify_tro(tro, seed=_resolve_seed(args), tol=tol)
    report = {
        "command": "tro-classify",
        "ambient": [rows, cols],
        "tro_dim": tro.dim,
        "left_algebra_dim": tro.left_algebra.dim,
        "right_algebra_dim": tro.right_algebra.dim,
        "blocks": [{"rows": m, "cols": n} for m, n in cls.blocks],
        "dimension_identity_ok": cls.total_dim() == tro.dim,
        # an upper bound on the defect over all basis triples
        "ternary_morphism_residual": cls.residuals["ternary_morphism"],
    }
    gt = fix.get("ground_truth")
    if gt is not None:
        report["ground_truth_match"] = sorted(cls.blocks, reverse=True) == sorted(
            gt, reverse=True
        )
    ok = report["dimension_identity_ok"] and report.get("ground_truth_match", True)
    return _finish(report, args, ok, "TRO block structure mismatch")


def _cmd_verify_dz(args):
    tol = _resolve_tol(args)
    fix = _load_fixture(args.fixture, ("algebra",))
    seed = _resolve_seed(args)
    alg = decompose_generators(fix["ambient"], fix["generators"], seed=seed, tol=tol).algebra
    result = verify_dales_zelazko(alg, trials=args.trials, seed=seed, tol=tol)
    report = {
        "command": "verify-dz",
        "ambient": alg.ambient_dim,
        "algebra_dim": alg.dim,
        "block_sizes": result.block_sizes,
        "multiplicities": result.multiplicities,
        "dimension_identity_ok": result.dimension_identity_ok,
        "trials": [
            {
                "block": t.block_index,
                "is_maximal": t.is_maximal,
                "support_agreement": t.support_agreement,
                "certificate": certificate_report(t.certificate),
            }
            for t in result.trials
        ],
    }
    return _finish(report, args, result.all_ok, "maximal ideal certificates")


def _cmd_selftest(args):
    tol = _resolve_tol(args)
    report = run_selftest(seed=_resolve_seed(args), tol=tol)
    failed = ", ".join(c["name"] for c in report["checks"] if not c["ok"])
    return _finish(report, args, report["ok"], failed)


def _parse_blocks(text):
    """'2,1' -> [2, 1]; '2x3,1x1' -> [(2, 3), (1, 1)]."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        lhs, x, rhs = part.partition("x")
        try:
            out.append((int(lhs), int(rhs)) if x else int(part))
        except ValueError as exc:
            raise ParamError(f"cannot parse block list {text!r}: {exc}") from exc
    if not out:
        raise ParamError("empty block list")
    return out


def _cmd_random(args):
    seed = _resolve_seed(args)
    tol = _resolve_tol(args)
    blocks = _parse_blocks(args.blocks)
    if args.kind == "tro":
        if not all(isinstance(b, tuple) for b in blocks):
            raise ParamError("TRO blocks must be ROWSxCOLS pairs, e.g. 2x3,1x1")
        planted = planted_block_tro(blocks, seed=seed, tol=tol)
        fixture = encode_tro_fixture(
            planted.tro.rows,
            planted.tro.cols,
            list(planted.tro.basis.matrices),
            ground_truth=planted.signature(),
        )
    else:
        if not all(isinstance(b, int) for b in blocks):
            raise ParamError("algebra blocks must be plain sizes, e.g. 2,1")
        if args.mults is not None:
            mults = _parse_blocks(args.mults)
            if not all(isinstance(m, int) for m in mults) or len(mults) != len(blocks):
                raise ParamError("--mults must list one integer per block")
        else:
            mults = [1] * len(blocks)
        planted = planted_block_algebra(
            blocks, mults, ambient_dim=args.ambient, seed=seed
        )
        generators = list(planted.algebra.basis.matrices)
        if args.kind == "algebra":
            fixture = encode_algebra_fixture(
                planted.algebra.ambient_dim,
                generators,
                ground_truth=(planted.block_sizes, planted.multiplicities),
            )
        else:  # ideal
            rng = np.random.default_rng([seed, 0x1DEA1])
            gens = random_ideal_generators(planted.algebra, args.gens, rng, tol=tol)
            fixture = encode_ideal_fixture(
                planted.algebra.ambient_dim, generators, gens
            )
    _emit(fixture, args)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with code 1, the code of every other input error
    (argparse's own is 2, the code of a failed verification).  The
    subcommand parsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser():
    """The command-line parser, built once per process on first use:
    parsing keeps no state between calls, and each subcommand's function
    reads the module's names when it runs."""
    parser = _Parser(
        prog="cstarlab",
        description="structure computations for finite-dimensional matrix *-algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fixture=True):
        if fixture:
            p.add_argument("fixture", help="path to a JSON fixture")
        p.add_argument("--seed", type=int, default=None,
                       help="random seed (default: $CSTAR_SEED or 0)")
        p.add_argument("--tol-member", type=float, default=None,
                       help="membership tolerance override")
        p.add_argument("--tol-spec", type=float, default=None,
                       help="spectral tolerance override")
        p.add_argument("--json", default=None, metavar="PATH",
                       help="write the report here instead of stdout")

    p = sub.add_parser("decompose", help="block-decompose an algebra fixture")
    common(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("ideal", help="projection generator for an ideal fixture")
    common(p)
    p.set_defaults(func=_cmd_ideal)

    p = sub.add_parser("tro-classify", help="classify a TRO fixture")
    common(p)
    p.set_defaults(func=_cmd_tro_classify)

    p = sub.add_parser("verify-dz", help="sampled maximal-ideal certificates")
    common(p)
    p.add_argument("--trials", type=int, default=10)
    p.set_defaults(func=_cmd_verify_dz)

    p = sub.add_parser("selftest", help="deterministic smoke suite")
    common(p, fixture=False)
    p.set_defaults(func=_cmd_selftest)

    p = sub.add_parser("random", help="emit a random fixture with ground truth")
    p.add_argument("kind", choices=("algebra", "tro", "ideal"))
    p.add_argument("--blocks", required=True,
                   help="block sizes: '2,1' for algebras, '2x3,1x1' for TROs")
    p.add_argument("--mults", default=None, help="multiplicities, one per block")
    p.add_argument("--ambient", type=int, default=None,
                   help="ambient dimension (algebra kinds; default: occupied rank)")
    p.add_argument("--gens", type=int, default=2,
                   help="ideal generator count (ideal kind)")
    common(p, fixture=False)
    p.set_defaults(func=_cmd_random)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # Extreme-scale inputs overflow or underflow in unscaled first passes
        # (safe_norm) that detect it and rescale, or end in a typed error;
        # numpy's warnings about them would only precede that outcome.
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            return args.func(args)
    except INPUT_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except CStarError as exc:
        sys.stderr.write(f"verification failed: {exc}\n")
        return 2


def entry():  # console_scripts hook
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
