"""Seeded fixture pools, instance runners and correctness checks.

Each workload's ``build`` yields a pool of fixtures, smallest strata
first; the benchmark makes whole passes over the pool in a closed loop,
at least ``min_passes`` of them, so every fixture weighs the same in every
run however many passes fit.  Instance cost is driven by the block
structure, so the pool is stratified and its
structures are fixed: one structure per stratum, at evenly spaced
quantiles of the dimension under the workload's distribution, drawn once
with :data:`DESIGN_SEED`.  The run's seed draws everything else: the Haar
rotations, the ideal generators and every seed the library receives.
Runs with different seeds then do the same mix of work on different
numbers, which keeps throughput and latency comparable across seeds.

The library is always reached through module attributes looked up at call
time (``cli.main``, ``tro.generate_tro``), so the wrappers that the traced
run installs see every call.
"""

import contextlib
import io
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from cstarlab import cli, instances, jsonio, structure
from cstarlab import tro as tro_mod
from cstarlab.config import DEFAULT_TOL

TOL = DEFAULT_TOL

# Workload parameters.  decompose: ambient N=20, 1-3 blocks, sizes up to 5,
# multiplicities up to 3, occupied rank 16-20.  ideal: the same block family
# at N=16 and N=20 (occupied rank N-4..N), 1-4 generators.  tro: the
# distribution of acceptance criterion 4 (1-3 blocks, sides 1-4).
DECOMPOSE_N = 20
DECOMPOSE_STRATA = 13
# (N, strata): an odd number of algebras in all, so the median falls inside
# one algebra's group of fixtures (see Ideal.build).
IDEAL_STRATA = ((16, 2), (20, 3))
IDEAL_GENERATORS = (1, 2, 3, 4)
# The TRO strata cover the dimension quantiles TRO_BAND of the distribution.
# Below the band, an instance takes at most a few hundredths of a second: its
# time is mostly interpreter overhead and, on a shared host, jumps by up to 2x
# with the neighbours' load, so a median over such instances jumps too.  Above it,
# one instance takes seconds (a TRO of the maximal dimension 48 over 10 s
# and 1.2 GB in generate_tro alone), and at dimension 25 the library fails
# on some run seeds: classify_tro or the submodule/ideal roundtrip raises
# VerificationFailure (a rank decision at the 1e-9 tolerance; see
# perfbench/README.md).
TRO_STRATA = 15
TRO_BAND = (0.4, 0.9)
TRO_SUBMODULES = 3
DESIGN_SEED = 20140218


class InstanceFailure(Exception):
    """An instance ran but its output failed a check."""


@dataclass
class Fixture:
    label: str
    dim: int
    payload: dict
    expected: dict = field(default_factory=dict)


def _algebra_structures(lo, hi):
    """Ordered (sizes, mults) draws with occupied rank in [lo, hi] and
    their probabilities: k uniform in 1..3, sizes uniform in 1..5 and
    multiplicities uniform in 1..3, conditioned on the rank."""
    out = []
    for k in (1, 2, 3):
        for sizes in itertools.product(range(1, 6), repeat=k):
            for mults in itertools.product(range(1, 4), repeat=k):
                if lo <= sum(n * m for n, m in zip(sizes, mults)) <= hi:
                    dim = sum(n * n for n in sizes)
                    out.append((dim, (sizes, mults), (1 / 3) * (1 / 15) ** k))
    return out


def _tro_structures():
    """Ordered block lists of the criterion-4 distribution: k uniform in
    1..3, each side uniform in 1..4."""
    out = []
    for k in (1, 2, 3):
        for blocks in itertools.product(itertools.product(range(1, 5), repeat=2), repeat=k):
            dim = sum(m * n for m, n in blocks)
            out.append((dim, blocks, (1 / 3) * (1 / 16) ** k))
    return out


def _stratified_draw(rng, structures, strata, band=(0.0, 1.0)):
    """One structure per stratum: the dimension at quantile
    lo + (hi - lo) * (k + 1/2)/strata of the distribution, for the quantile
    band (lo, hi), then a weighted draw among the structures of exactly
    that dimension."""
    weight = {}
    for dim, _, w in structures:
        weight[dim] = weight.get(dim, 0.0) + w
    dims = sorted(weight)
    cdf = np.cumsum([weight[d] for d in dims])
    cdf /= cdf[-1]
    lo, hi = band
    picks = []
    for k in range(strata):
        dim = dims[int(np.searchsorted(cdf, lo + (hi - lo) * (k + 0.5) / strata))]
        candidates = [(s, w) for d, s, w in structures if d == dim]
        probs = np.array([w for _, w in candidates])
        choice = int(rng.choice(len(candidates), p=probs / probs.sum()))
        picks.append((dim, candidates[choice][0]))
    return picks


def _seed(rng):
    return int(rng.integers(2**31))


def _write(workdir, name, obj):
    path = workdir / name
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_cli(code, text, err):
    if code != 0:
        raise InstanceFailure(f"exit code {code}: {err.strip()}")
    report = json.loads(text)
    if report.get("ok") is not True:
        raise InstanceFailure("report says ok=false")
    return report


class Decompose:
    """CLI ``decompose`` over planted algebras with ground truth."""

    name = "decompose"
    min_passes = 2

    def build(self, rng, workdir):
        picks = _stratified_draw(
            np.random.default_rng(DESIGN_SEED),
            _algebra_structures(DECOMPOSE_N - 4, DECOMPOSE_N),
            DECOMPOSE_STRATA,
        )
        for k, (dim, (sizes, mults)) in enumerate(picks):
            planted = instances.planted_block_algebra(
                sizes, mults, ambient_dim=DECOMPOSE_N, seed=_seed(rng)
            )
            fixture = jsonio.encode_algebra_fixture(
                DECOMPOSE_N,
                planted.algebra.basis.matrices,
                ground_truth=(sizes, mults),
            )
            path = _write(workdir, f"decompose-{k}.json", fixture)
            yield Fixture(
                label=f"N={DECOMPOSE_N} blocks={planted.signature()}",
                dim=dim,
                payload={"argv": ["decompose", path, "--seed", str(_seed(rng))]},
                expected={"algebra_dim": dim},
            )

    def run(self, fx):
        return _run_cli(fx.payload["argv"])

    def check(self, fx, out):
        report = _check_cli(*out)
        if report.get("ground_truth_match") is not True:
            raise InstanceFailure("blocks differ from the planted ground truth")
        if report["algebra_dim"] != fx.expected["algebra_dim"]:
            raise InstanceFailure("algebra dimension differs from the planted one")
        return out[1]


class Ideal:
    """CLI ``ideal`` over planted right ideals of planted algebras."""

    name = "ideal"
    min_passes = 3  # keeps at least 12 samples in the most expensive group

    def build(self, rng, workdir):
        # Each planted algebra carries one ideal per generator count.  The
        # algebra closure dominates an instance, so the four fixtures of one
        # algebra cost about the same, and the median and the tail fall inside
        # such groups rather than between fixtures of unlike cost.
        count = itertools.count()
        design = np.random.default_rng(DESIGN_SEED)
        for n_amb, strata in IDEAL_STRATA:
            structures = _algebra_structures(n_amb - 4, n_amb)
            for dim, (sizes, mults) in _stratified_draw(design, structures, strata):
                planted = instances.planted_block_algebra(
                    sizes, mults, ambient_dim=n_amb, seed=_seed(rng)
                )
                for gens in IDEAL_GENERATORS:
                    ideal = instances.random_right_ideal(
                        planted.algebra, gens, np.random.default_rng(_seed(rng)), tol=TOL
                    )
                    fixture = jsonio.encode_ideal_fixture(
                        n_amb, planted.algebra.basis.matrices, ideal.generators
                    )
                    path = _write(workdir, f"ideal-{next(count)}.json", fixture)
                    yield Fixture(
                        label=f"N={n_amb} gens={gens} blocks={planted.signature()}",
                        dim=dim,
                        payload={"argv": ["ideal", path, "--seed", str(_seed(rng))]},
                        expected={"algebra_dim": dim, "ideal_dim": ideal.dim},
                    )

    def run(self, fx):
        return _run_cli(fx.payload["argv"])

    def check(self, fx, out):
        report = _check_cli(*out)
        for key in ("algebra_dim", "ideal_dim"):
            if report[key] != fx.expected[key]:
                raise InstanceFailure(f"{key} differs from the planted one")
        return out[1]


class Tro:
    """TRO closure, classification and three seeded maximal submodules."""

    name = "tro"
    min_passes = 3

    def build(self, rng, workdir):
        del workdir  # the steps start from in-memory generators
        design = np.random.default_rng(DESIGN_SEED)
        for dim, blocks in _stratified_draw(
            design, _tro_structures(), TRO_STRATA, TRO_BAND
        ):
            planted = instances.planted_block_tro(blocks, seed=_seed(rng), tol=TOL)
            yield Fixture(
                label=f"blocks={planted.signature()}",
                dim=dim,
                payload={
                    "shape": (planted.tro.rows, planted.tro.cols),
                    "generators": list(planted.tro.basis.matrices),
                    "classify_seed": _seed(rng),
                    "submodule_seeds": [_seed(rng) for _ in range(TRO_SUBMODULES)],
                },
                expected={"blocks": planted.signature()},
            )

    def run(self, fx):
        rows, cols = fx.payload["shape"]
        z = tro_mod.generate_tro(rows, cols, fx.payload["generators"], tol=TOL)
        cls = tro_mod.classify_tro(z, seed=fx.payload["classify_seed"], tol=TOL)
        left = z.left_algebra
        subs = []
        for s in fx.payload["submodule_seeds"]:
            e = structure.minimal_projection_below(left, left.unit, seed=s, tol=TOL)
            gen = left.unit - e
            if np.linalg.norm(gen) <= TOL.member:
                gens = []  # the left algebra is the scalars: 0 is the maximal submodule
            else:
                gens = [gen @ x for x in z.basis.matrices]
            w = tro_mod.generate_submodule(z, gens, tol=TOL)
            maximal = tro_mod.is_maximal_submodule(z, w, tol=TOL)
            _, roundtrip = tro_mod.submodule_ideal_roundtrip(z, w, tol=TOL)
            cert = tro_mod.finite_generation_certificate(w, tol=TOL) if w.dim else None
            subs.append((w, maximal, roundtrip, cert))
        return z, cls, subs

    def check(self, fx, out):
        z, cls, subs = out
        blocks = sorted(cls.blocks, reverse=True)
        if blocks != fx.expected["blocks"]:
            raise InstanceFailure(f"classified blocks {blocks} != planted {fx.expected['blocks']}")
        if cls.total_dim() != z.dim:
            raise InstanceFailure("block dimensions do not add up to the TRO dimension")
        report = {
            "blocks": blocks,
            "tro_dim": z.dim,
            "left_algebra_dim": z.left_algebra.dim,
            "right_algebra_dim": z.right_algebra.dim,
            "residuals": cls.residuals,
            "submodules": [],
        }
        for w, maximal, roundtrip, cert in subs:
            if maximal is not True:
                raise InstanceFailure("sampled submodule is not maximal")
            worst = max(roundtrip["module_roundtrip"], roundtrip["ideal_roundtrip"])
            if worst > TOL.member:
                raise InstanceFailure(f"submodule/ideal roundtrip residual {worst:.3e}")
            entry = {"dim": w.dim, "roundtrip": roundtrip}
            if cert is not None:
                ws = w.basis.matrices
                e = cert.projection
                reproduce = float(np.max(np.linalg.norm(e @ ws - ws, axis=(1, 2))))
                idempotent = float(np.linalg.norm(e @ e - e))
                if max(reproduce, idempotent) > TOL.member:
                    raise InstanceFailure(
                        f"generation certificate residual {max(reproduce, idempotent):.3e}"
                    )
                entry["certificate"] = cert.residuals
            report["submodules"].append(entry)
        return json.dumps(report, sort_keys=True, default=_numpy_scalar)


def _numpy_scalar(value):
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"cannot serialize {type(value).__name__}")


WORKLOADS = {w.name: w for w in (Decompose(), Ideal(), Tro())}
