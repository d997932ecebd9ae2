"""Invariance of the ``decompose`` and ``verify-dz`` reports.

Both commands analyse the algebra a fixture generates, so their reports
must not depend on how its generators are written down.  Under a unitary
rotation of the generator family, a reversal of its order, or a scaling
by 1e-6 to 1e6, the whole report must match (floats to 1e-12, as in
``test_golden``).  Under a unitary conjugation of the ambient space the
same algebra sits elsewhere, so every non-float field must match.
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
from cstarlab.jsonio import decode_fixture, encode_algebra_fixture
from test_golden import assert_matches

COMMANDS = ["decompose", "verify-dz"]
FIXTURE = ["random", "algebra", "--blocks", "3,2,1", "--mults", "2,1,2"]
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
def fixture(seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "fixture.json"
        assert cli.main([*FIXTURE, "--seed", str(seed), "--json", str(path)]) == 0
        return path.read_text()


@lru_cache(maxsize=None)
def reference(command, seed):
    return run(command, json.loads(fixture(seed)), seed)


def transformed(seed, transform):
    """The seed's fixture with its generator stack replaced by
    ``transform(stack)``."""
    fix = decode_fixture(json.loads(fixture(seed)))
    gens = transform(np.array(fix["generators"]))
    return encode_algebra_fixture(fix["ambient"], list(gens), fix["ground_truth"])


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

    assert_matches(run(command, transformed(seed, rotate), seed), reference(command, seed))


@pytest.mark.parametrize("command", COMMANDS)
@SETTINGS
@given(seed=SEEDS)
def test_report_ignores_the_order_of_the_generators(command, seed):
    reverse = transformed(seed, lambda gens: gens[::-1])
    assert_matches(run(command, reverse, seed), reference(command, seed))


@pytest.mark.parametrize("command", COMMANDS)
@SETTINGS
@given(seed=SEEDS, exponent=st.floats(min_value=-6.0, max_value=6.0))
def test_report_ignores_the_scale_of_the_generators(command, seed, exponent):
    scaled = transformed(seed, lambda gens: gens * 10.0 ** exponent)
    assert_matches(run(command, scaled, seed), reference(command, seed))


@pytest.mark.parametrize("command", COMMANDS)
@SETTINGS
@given(seed=SEEDS, rotation=SEEDS)
def test_report_structure_survives_ambient_conjugation(command, seed, rotation):
    def conjugate(gens):
        w = haar_unitary(gens.shape[1], np.random.default_rng(rotation))
        return w @ gens @ w.conj().T

    moved = run(command, transformed(seed, conjugate), seed)
    assert_matches(skeleton(moved), skeleton(reference(command, seed)))
