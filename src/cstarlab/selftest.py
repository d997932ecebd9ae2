"""Deterministic end-to-end smoke suite for the command-line front end.

Small seeded instances of every pipeline: spectral round trips, ideal
projection generators, planted block recovery, maximal-ideal
certificates, TRO classification with the submodule correspondence.
Given the same seed the report is identical byte for byte.
"""

import numpy as np

from .config import DEFAULT_TOL
from .algebra import sample_element
from .ideals import RightIdeal, projection_generator, right_module_span, support_projection
from .instances import (
    planted_block_algebra,
    planted_block_tro,
    random_block_structure,
    random_ideal_generators,
    random_tro_blocks,
)
from .linalg import hermitian_eig, hs_norm
from .structure import unit_partition_certificate, verify_dales_zelazko, wedderburn_decompose
from .tro import (
    classify_tro,
    finite_generation_certificate,
    generate_submodule,
    submodule_ideal_roundtrip,
)


def _check_spectral(seed, tol):
    rng = np.random.default_rng([seed, 1])
    worst = 0.0
    count = 8
    for i in range(count):
        n = int(rng.integers(2, 11))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = 0.5 * (g + g.conj().T)
        dec = hermitian_eig(h, tol=tol)
        worst = max(worst, hs_norm(dec.reconstruct() - h) / max(1.0, hs_norm(h)))
    return {"name": "spectral_roundtrip", "instances": count,
            "worst_residual": worst, "ok": worst <= tol.spec}


def _check_projection_generator(seed, tol):
    rng = np.random.default_rng([seed, 2])
    worst = 0.0
    ok = True
    count = 12
    for i in range(count):
        sizes, mults = random_block_structure(rng, max_ambient=8, max_size=3)
        planted = planted_block_algebra(
            sizes, mults, ambient_dim=sum(n * m for n, m in zip(sizes, mults)) + int(rng.integers(0, 3)),
            seed=int(rng.integers(2**32)),
        )
        alg = planted.algebra
        gens = random_ideal_generators(alg, int(rng.integers(1, 4)), rng, tol=tol)
        # J as the span of g A^1, which does not go through p
        ideal = RightIdeal(alg, gens, right_module_span(alg, gens, alg.ambient_dim, tol=tol))
        cert = projection_generator(alg, gens, tol=tol)
        if cert.is_trivial:
            continue
        agree = hs_norm(cert.projection - support_projection(alg, ideal, tol=tol))
        worst = max(worst, agree, max(cert.residuals.values()))
        ok = ok and cert.min_positive_eigenvalue >= cert.threshold - tol.member
    return {"name": "projection_generator", "instances": count,
            "worst_residual": worst, "ok": bool(ok and worst <= tol.member)}


def _check_block_recovery(seed, tol):
    rng = np.random.default_rng([seed, 3])
    worst = 0.0
    ok = True
    count = 8
    for i in range(count):
        sizes, mults = random_block_structure(rng, max_ambient=10)
        planted = planted_block_algebra(sizes, mults, seed=int(rng.integers(2**32)))
        dec = wedderburn_decompose(planted.algebra, seed=int(rng.integers(2**32)), tol=tol)
        ok = ok and dec.block_signature() == planted.signature()
        part = unit_partition_certificate(planted.algebra, decomposition=dec, tol=tol)
        worst = max(worst, dec.residuals["block_form"], part.residual)
    return {"name": "block_recovery", "instances": count,
            "worst_residual": worst, "ok": bool(ok and worst <= tol.composite)}


def _check_maximal_ideals(seed, tol):
    rng = np.random.default_rng([seed, 4])
    ok = True
    worst = 0.0
    count = 4
    for i in range(count):
        sizes, mults = random_block_structure(rng, max_ambient=8, max_size=3)
        planted = planted_block_algebra(sizes, mults, seed=int(rng.integers(2**32)))
        report = verify_dales_zelazko(
            planted.algebra, trials=3, seed=int(rng.integers(2**32)), tol=tol
        )
        ok = ok and report.all_ok
        worst = max(worst, max(t.support_agreement for t in report.trials))
    return {"name": "maximal_ideal_certificates", "instances": count,
            "worst_residual": worst, "ok": bool(ok)}


def _check_tro(seed, tol):
    rng = np.random.default_rng([seed, 5])
    ok = True
    worst = 0.0
    count = 6
    for i in range(count):
        blocks = random_tro_blocks(rng, max_size=3, max_total=12)
        planted = planted_block_tro(blocks, seed=int(rng.integers(2**32)), tol=tol)
        tro = planted.tro
        cls = classify_tro(tro, seed=int(rng.integers(2**32)), tol=tol)
        ok = ok and sorted(cls.blocks, reverse=True) == planted.signature()
        worst = max(worst, cls.residuals["ternary_morphism"])
        gens = [sample_element(tro, rng) for _ in range(2)]
        sub = generate_submodule(tro, gens, tol=tol)
        if sub.dim:
            _, round_report = submodule_ideal_roundtrip(tro, sub, tol=tol)
            worst = max(
                worst, round_report["module_roundtrip"], round_report["ideal_roundtrip"]
            )
            cert = finite_generation_certificate(sub, tol=tol)
            worst = max(worst, max(cert.residuals.values()))
    return {"name": "tro_classification", "instances": count,
            "worst_residual": worst, "ok": bool(ok and worst <= tol.composite)}


def run_selftest(seed=0, tol=DEFAULT_TOL):
    """Run all checks; returns a JSON-ready deterministic report."""
    checks = [
        _check_spectral(seed, tol),
        _check_projection_generator(seed, tol),
        _check_block_recovery(seed, tol),
        _check_maximal_ideals(seed, tol),
        _check_tro(seed, tol),
    ]
    return {
        "command": "selftest",
        "seed": int(seed),
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
    }
