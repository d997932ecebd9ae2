"""Invariance of the ``decompose``, ``verify-dz`` and ``tro-classify``
reports.

Each command analyses the algebra or TRO a fixture generates, so its
report must not depend on how the generators are written down.  Under a
unitary rotation of the generator family, a reversal of its order, or a
scaling by 1e-6 to 1e6, the whole report must match (floats to 1e-12, as
in ``test_golden``).  Under a unitary conjugation of the ambient space
(on both sides, independently, for a TRO) the same object sits
elsewhere, so every non-float field must match.
"""

import json
import pathlib
import tempfile
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cstarlab import cli
from cstarlab.instances import haar_unitary
from cstarlab.jsonio import decode_fixture, encode_matrix
from test_golden import FIXTURES, assert_matches

COMMANDS = ["decompose", "verify-dz", "tro-classify"]
SEEDS = st.integers(min_value=1, max_value=2**16)
SETTINGS = settings(max_examples=4, derandomize=True, deadline=None)


def run(command, fixture, seed):
    """The report of ``command`` on a fixture dict, as parsed JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        src = pathlib.Path(tmp) / "fixture.json"
        out = pathlib.Path(tmp) / "report.json"
        src.write_text(json.dumps(fixture))
        assert cli.main([command, str(src), "--seed", str(seed), "--json", str(out)]) == 0
        return json.loads(out.read_text())


@lru_cache(maxsize=None)
def fixture(command, seed):
    """The ``cstarlab random`` fixture ``test_golden`` uses for the command."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "fixture.json"
        argv = ["random", *FIXTURES[command], "--seed", str(seed), "--json", str(path)]
        assert cli.main(argv) == 0
        return path.read_text()


@lru_cache(maxsize=None)
def reference(command, seed):
    return run(command, json.loads(fixture(command, seed)), seed)


def transformed(command, seed, transform):
    """The seed's fixture with its generator stack replaced by
    ``transform(stack)``."""
    raw = json.loads(fixture(command, seed))
    gens = transform(np.array(decode_fixture(raw)["generators"]))
    raw["generators"] = [encode_matrix(g) for g in gens]
    return raw


def skeleton(report):
    """The report with every float replaced by None."""
    if isinstance(report, float):
        return None
    if isinstance(report, dict):
        return {key: skeleton(value) for key, value in report.items()}
    if isinstance(report, list):
        return [skeleton(value) for value in report]
    return report


@pytest.mark.parametrize("command", COMMANDS)
@SETTINGS
@given(seed=SEEDS, rotation=SEEDS)
def test_report_ignores_a_rotation_of_the_generators(command, seed, rotation):
    def rotate(gens):
        q = haar_unitary(len(gens), np.random.default_rng(rotation))
        return np.einsum("ab,bij->aij", q, gens)

    assert_matches(run(command, transformed(command, seed, rotate), seed), reference(command, seed))


@pytest.mark.parametrize("command", COMMANDS)
@SETTINGS
@given(seed=SEEDS)
def test_report_ignores_the_order_of_the_generators(command, seed):
    reverse = transformed(command, seed, lambda gens: gens[::-1])
    assert_matches(run(command, reverse, seed), reference(command, seed))


@pytest.mark.parametrize("command", COMMANDS)
@SETTINGS
@given(seed=SEEDS, exponent=st.floats(min_value=-6.0, max_value=6.0))
def test_report_ignores_the_scale_of_the_generators(command, seed, exponent):
    scaled = transformed(command, seed, lambda gens: gens * 10.0 ** exponent)
    assert_matches(run(command, scaled, seed), reference(command, seed))


@pytest.mark.parametrize("command", COMMANDS)
@SETTINGS
@given(seed=SEEDS, rotation=SEEDS)
def test_report_structure_survives_ambient_conjugation(command, seed, rotation):
    def conjugate(gens):
        rng = np.random.default_rng(rotation)
        left = haar_unitary(gens.shape[1], rng)
        right = haar_unitary(gens.shape[2], rng) if command == "tro-classify" else left
        return left @ gens @ right.conj().T

    moved = run(command, transformed(command, seed, conjugate), seed)
    assert_matches(skeleton(moved), skeleton(reference(command, seed)))
