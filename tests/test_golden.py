"""Golden structural reports.

Fixed-seed CLI reports are compared with the reports committed under
``tests/golden/``: ``selftest --seed 7``, and ``decompose``, ``verify-dz``,
``ideal`` and ``tro-classify`` on ``cstarlab random`` fixtures for seeds
1-3.  Every non-float field (block lists, dimensions, ``ok`` flags, counts)
must match exactly; floats (residuals, spectra, projection entries) may
move by roundoff, at most 1e-12 absolute.  A refactor that changes a rank
decision, a block signature or a verdict fails here.

``verify-dz`` samples its maximal ideals off the block decomposition of
the fixture's generators (``decompose_generators``): each trial reads its
minimal projection ``e`` off the coordinates ``tr(v_i* g v_j)`` of a seeded
Gaussian matrix ``g`` against one block's transporters ``v_i``.  A change of
transporters conjugates those coordinates, and ``e`` with them, so the
sampled projections are pinned to roundoff like every other float
(``test_invariance`` checks the same under changes of the generators).

The fixtures are regenerated by ``cstarlab random`` on each run (they are
written down directly from the seed, without closure or rank decisions).
To rewrite the committed reports, when a change is meant to alter them,
run ``PYTHONPATH=src python tests/test_golden.py``; to rewrite only some,
name them, as in ``PYTHONPATH=src python tests/test_golden.py
ideal-seed1 verify-dz-seed2``.  An unknown name rewrites nothing and exits
with the list of ``CASES``.
"""

import json
import pathlib
import sys

import pytest

from cstarlab import cli

GOLDEN = pathlib.Path(__file__).with_name("golden")
ABS_TOL = 1e-12

FIXTURES = {
    "decompose": ["algebra", "--blocks", "3,2,1", "--mults", "2,1,2"],
    "verify-dz": ["algebra", "--blocks", "3,2,1", "--mults", "2,1,2"],
    "ideal": ["ideal", "--blocks", "3,2", "--gens", "2"],
    "tro-classify": ["tro", "--blocks", "3x4,2x2,1x3"],
}

CASES = ["selftest-seed7"] + [
    f"{command}-seed{seed}" for command in FIXTURES for seed in (1, 2, 3)
]


def produce(case, workdir):
    """Run one case through the CLI and return its report text."""
    command, _, seed = case.rpartition("-seed")
    out = pathlib.Path(workdir) / f"{case}.json"
    if command == "selftest":
        argv = ["selftest"]
    else:
        fixture = pathlib.Path(workdir) / f"{case}.fixture.json"
        rc = cli.main(["random", *FIXTURES[command], "--seed", seed, "--json", str(fixture)])
        assert rc == 0
        argv = [command, str(fixture)]
    assert cli.main([*argv, "--seed", seed, "--json", str(out)]) == 0
    return out.read_text()


def assert_matches(new, ref, path="$"):
    if isinstance(ref, float) and isinstance(new, float):
        assert new == ref or abs(new - ref) <= ABS_TOL, f"{path}: {new!r} != {ref!r}"
    elif isinstance(ref, dict):
        assert isinstance(new, dict) and sorted(new) == sorted(ref), path
        for key in ref:
            assert_matches(new[key], ref[key], f"{path}.{key}")
    elif isinstance(ref, list):
        assert isinstance(new, list) and len(new) == len(ref), path
        for i, (a, b) in enumerate(zip(new, ref)):
            assert_matches(a, b, f"{path}[{i}]")
    else:
        assert type(new) is type(ref) and new == ref, f"{path}: {new!r} != {ref!r}"


@pytest.mark.parametrize("case", CASES)
def test_report_matches_golden(case, tmp_path):
    ref = json.loads((GOLDEN / f"{case}.json").read_text())
    assert_matches(json.loads(produce(case, tmp_path)), ref)


def test_comparison_catches_structural_change():
    ref = {"blocks": [{"size": 3, "multiplicity": 2}], "ok": True, "residual": 1e-14}
    assert_matches({"blocks": [{"size": 3, "multiplicity": 2}], "ok": True,
                    "residual": 5e-13}, ref)
    for bad in (
        {"blocks": [{"size": 2, "multiplicity": 2}], "ok": True, "residual": 1e-14},
        {"blocks": [{"size": 3, "multiplicity": 2}], "ok": False, "residual": 1e-14},
        {"blocks": [{"size": 3, "multiplicity": 2}], "ok": True, "residual": 2e-12},
        {"blocks": [], "ok": True, "residual": 1e-14},
    ):
        with pytest.raises(AssertionError):
            assert_matches(bad, ref)


if __name__ == "__main__":
    import tempfile

    names = sys.argv[1:] or CASES
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"unknown golden cases {unknown}; the cases are: {' '.join(CASES)}")
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            (GOLDEN / f"{name}.json").write_text(produce(name, tmp))
