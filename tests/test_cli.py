"""End-to-end command line tests: fixture generation, analysis commands,
exit codes, and byte-level determinism of the JSON reports."""

import base64
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from cstarlab import (
    algebra,
    cli,
    generate_algebra,
    ideals,
    instances,
    jsonio,
    linalg,
    projection_generator,
    structure,
    tro,
)
from cstarlab.config import DEFAULT_TOL
from cstarlab.errors import GapNotFound, VerificationFailure
from cstarlab.instances import planted_block_algebra, random_ideal_generators
from cstarlab.jsonio import (
    decode_matrix,
    dumps_report,
    encode_algebra_fixture,
    encode_ideal_fixture,
)
from test_golden import assert_matches

CLI = [sys.executable, "-m", "cstarlab.cli"]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("CSTAR_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + [str(a) for a in args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def matrix(m):
    m = np.asarray(m, dtype=complex)
    return {"rows": m.shape[0], "cols": m.shape[1],
            "entries": [[z.real, z.imag] for z in m.ravel()]}


E12 = [[0.0, 1.0], [0.0, 0.0]]


def test_selftest_passes():
    r = run_cli("selftest", "--seed", 7)
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert report["ok"]
    assert all(check["ok"] for check in report["checks"])


def test_random_algebra_then_decompose(tmp_path):
    fix = tmp_path / "alg.json"
    r = run_cli("random", "algebra", "--blocks", "3,1", "--mults", "2,1",
                "--seed", 11, "--json", fix)
    assert r.returncode == 0, r.stderr
    obj = json.loads(fix.read_text())
    assert obj["kind"] == "algebra"
    r2 = run_cli("decompose", fix)
    assert r2.returncode == 0, r2.stderr
    report = json.loads(r2.stdout)
    assert report["ok"]
    assert report["ground_truth_match"]
    assert report["dimension_identity_ok"]
    assert {(b["size"], b["multiplicity"]) for b in report["blocks"]} == {(3, 2), (1, 1)}


def test_random_ideal_then_certificate(tmp_path):
    fix = tmp_path / "ideal.json"
    r = run_cli("random", "ideal", "--blocks", "2,2", "--gens", 2,
                "--seed", 9, "--json", fix)
    assert r.returncode == 0, r.stderr
    r2 = run_cli("ideal", fix)
    assert r2.returncode == 0, r2.stderr
    report = json.loads(r2.stdout)
    assert report["ok"]
    assert report["certificate"]["threshold"] > 0.0


def test_random_tro_then_classify(tmp_path):
    fix = tmp_path / "tro.json"
    r = run_cli("random", "tro", "--blocks", "2x3,1x1", "--seed", 3,
                "--json", fix)
    assert r.returncode == 0, r.stderr
    r2 = run_cli("tro-classify", fix)
    assert r2.returncode == 0, r2.stderr
    report = json.loads(r2.stdout)
    assert report["ok"]
    assert report["ground_truth_match"]
    assert {(b["rows"], b["cols"]) for b in report["blocks"]} == {(2, 3), (1, 1)}


def test_verify_dz_subcommand(tmp_path):
    fix = tmp_path / "alg.json"
    run_cli("random", "algebra", "--blocks", "2", "--seed", 5, "--json", fix)
    r = run_cli("verify-dz", fix, "--trials", 3)
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert report["ok"]
    assert len(report["trials"]) == 3


# ---------------------------------------------------------------------------
# exit codes


def test_unreadable_fixture_is_input_error(tmp_path):
    bad = tmp_path / "garbage.json"
    bad.write_text("not json at all")
    r = run_cli("decompose", bad)
    assert r.returncode == 1
    assert "error:" in r.stderr


def test_wrong_fixture_kind_is_input_error(tmp_path):
    bad = tmp_path / "wrong.json"
    bad.write_text(json.dumps({"kind": "bogus"}))
    r = run_cli("decompose", bad)
    assert r.returncode == 1


def test_malformed_blocks_argument_is_input_error():
    for flags in (["--blocks", "2,,x"], ["--blocks", "2,1", "--mults", "a,b"]):
        r = run_cli("random", "algebra", *flags, "--seed", 1)
        assert r.returncode == 1
        assert "error:" in r.stderr
        assert "Traceback" not in r.stderr


def test_unwritable_report_path_is_input_error(tmp_path):
    """A ``--json`` path in a missing directory ends in ``error:``, both
    for a report and for a fixture."""
    fix = tmp_path / "tro.json"
    run_cli("random", "tro", "--blocks", "2x1", "--seed", 1, "--json", fix)
    out = tmp_path / "missing" / "out.json"
    for args in (["tro-classify", fix], ["random", "tro", "--blocks", "2x1"]):
        r = run_cli(*args, "--json", out)
        assert r.returncode == 1
        assert "error: cannot write" in r.stderr
        assert "Traceback" not in r.stderr
    assert not out.parent.exists()


@pytest.mark.parametrize("argv", [
    ["decompose"],  # no fixture
    ["frobnicate"],  # no such command
    ["verify-dz", "x", "--trials", "abc"],  # not an integer
])
def test_usage_error_is_input_error(argv):
    """A malformed command line exits 1, like every other input error,
    not with argparse's 2, which is the code of a failed verification."""
    r = run_cli(*argv)
    assert r.returncode == 1
    assert "error:" in r.stderr
    assert "Traceback" not in r.stderr
    assert r.stdout == ""


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["decompose", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: cstarlab decompose")


@pytest.mark.parametrize("trials", [0, -1])
def test_verify_dz_without_trials_is_input_error(tmp_path, trials):
    """A sweep of no trials certifies nothing, so it is refused."""
    fix = tmp_path / "alg.json"
    run_cli("random", "algebra", "--blocks", "2", "--seed", 5, "--json", fix)
    r = run_cli("verify-dz", fix, "--trials", trials)
    assert r.returncode == 1
    assert "error:" in r.stderr
    assert r.stdout == ""


def test_random_ideal_with_negative_generator_count_is_input_error(tmp_path):
    """``--gens 0`` is the zero ideal; a negative count is refused and
    writes no fixture."""
    fix = tmp_path / "ideal.json"
    r = run_cli("random", "ideal", "--blocks", "2", "--gens", -1, "--json", fix)
    assert r.returncode == 1
    assert "error:" in r.stderr
    assert not fix.exists()
    r = run_cli("random", "ideal", "--blocks", "2", "--gens", 0, "--json", fix)
    assert r.returncode == 0, r.stderr
    assert json.loads(fix.read_text())["ideal_generators"] == []


@pytest.mark.parametrize("command, kind, flag, value", [
    ("decompose", "algebra", "--tol-member", "nan"),
    ("ideal", "ideal", "--tol-spec", "inf"),
])
def test_non_finite_tolerance_is_input_error(tmp_path, command, kind, flag, value):
    """A nan or infinite bound would make every check against it vacuous."""
    fix = tmp_path / "fixture.json"
    run_cli("random", kind, "--blocks", "2", "--seed", 5, "--json", fix)
    r = run_cli(command, fix, flag, value)
    assert r.returncode == 1
    assert "error:" in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("replacement", [
    [[1.0, 0.0, 2.0]],  # a triple
    [1.0],  # a single number
    [["one", 0.0]],  # a string
    [None],
    [[None, 0.0]],
    [],  # one entry short
])
def test_malformed_matrix_entries_are_input_errors(tmp_path, replacement):
    """The ``[re, im]`` pairs form, which fixtures written before the dense
    form use."""
    gen = matrix(E12)
    gen["entries"][1:2] = replacement
    assert_input_error(tmp_path, gen)


def with_bytes(raw):
    return base64.b64encode(raw).decode("ascii")


def dense(m):
    """The dense form of a matrix: base64 of its little-endian complex128
    bytes."""
    m = np.asarray(m, dtype="<c16")
    return {"rows": m.shape[0], "cols": m.shape[1], "data": with_bytes(m.tobytes())}


ENTRY = 16  # bytes of one complex128 entry
E12_BYTES = np.asarray(E12, dtype="<c16").tobytes()


@pytest.mark.parametrize("field, value", [
    ("data", "!!!!" + dense(E12)["data"][4:]),  # not base64
    ("data", dense(E12)["data"].rstrip("=")),  # padding missing
    ("data", with_bytes(E12_BYTES[:-ENTRY])),  # one entry short
    ("data", with_bytes(E12_BYTES + bytes(ENTRY))),  # one entry long
    ("data", with_bytes(np.array([np.nan, 0, 0, 0], "<c16").tobytes())),
    ("data", with_bytes(np.array([0, np.inf, 0, 0], "<c16").tobytes())),
    ("data", 5),  # not a string
    ("data", [[0.0, 1.0]]),
    ("entries", matrix(E12)["entries"]),  # both forms at once
    ("rows", -2),
    ("cols", -2),
], ids=["non-base64", "bad-padding", "entry-short", "entry-long", "nan", "inf",
        "number", "list", "data-and-entries", "negative-rows", "negative-cols"])
def test_malformed_dense_matrix_is_input_error(tmp_path, field, value):
    gen = dense(E12)
    gen[field] = value
    assert_input_error(tmp_path, gen)


def assert_input_error(tmp_path, generator, **fields):
    """``decompose`` of the algebra the one generator gives, with the
    top-level ``fields`` set, ends in exit 1."""
    fix = tmp_path / "alg.json"
    fix.write_text(json.dumps({"kind": "algebra", "ambient": 2,
                               "generators": [generator], **fields}))
    r = run_cli("decompose", fix)
    assert r.returncode == 1
    assert "error:" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("form", [matrix, dense])
@pytest.mark.parametrize("field, value", [
    ("rows", 2.9),
    ("rows", "2"),
    ("cols", 2.0),
    ("ambient", 2.7),
    ("block_sizes", [1.5]),
], ids=["float-rows", "string-rows", "float-cols", "float-ambient", "float-block-size"])
def test_sizes_that_are_not_json_integers_are_input_errors(tmp_path, form, field, value):
    """``int()`` read these as 2, 2, 2, 2 and 1."""
    gen = form(E12)
    if field in gen:
        gen[field] = value
        assert_input_error(tmp_path, gen)
    elif field == "ambient":
        assert_input_error(tmp_path, gen, ambient=value)
    else:
        truth = {"block_sizes": [2], "multiplicities": [1], field: value}
        assert_input_error(tmp_path, gen, ground_truth=truth)


@pytest.mark.parametrize("seed_args, env", [
    (["--seed", -1], None),
    ([], {"CSTAR_SEED": "-2"}),
])
def test_negative_seed_is_input_error(tmp_path, seed_args, env):
    fix, ideal = tmp_path / "alg.json", tmp_path / "ideal.json"
    run_cli("random", "algebra", "--blocks", "2", "--seed", 5, "--json", fix)
    run_cli("random", "ideal", "--blocks", "2", "--seed", 5, "--json", ideal)
    for argv in (["random", "algebra", "--blocks", "2"], ["decompose", fix], ["ideal", ideal]):
        r = run_cli(*argv, *seed_args, env_extra=env)
        assert r.returncode == 1
        assert "error:" in r.stderr
        assert "Traceback" not in r.stderr


def test_tampered_ground_truth_fails_verification(tmp_path):
    fix = tmp_path / "alg.json"
    run_cli("random", "algebra", "--blocks", "2,1", "--seed", 3, "--json", fix)
    obj = json.loads(fix.read_text())
    obj["ground_truth"] = {"block_sizes": [3], "multiplicities": [1]}
    fix.write_text(json.dumps(obj))
    r = run_cli("decompose", fix)
    assert r.returncode == 2
    report = json.loads(r.stdout)
    assert not report["ok"]
    assert not report["ground_truth_match"]


def test_ground_truth_of_unequal_lengths_is_input_error(tmp_path):
    """Pairing [2, 1] with [1] would compare only the first block."""
    fix = tmp_path / "alg.json"
    run_cli("random", "algebra", "--blocks", "2", "--seed", 3, "--json", fix)
    obj = json.loads(fix.read_text())
    obj["ground_truth"] = {"block_sizes": [2, 1], "multiplicities": [1]}
    fix.write_text(json.dumps(obj))
    r = run_cli("decompose", fix)
    assert r.returncode == 1
    assert r.stderr.startswith("error:")
    assert r.stdout == ""


def test_fixture_that_is_not_utf8_is_input_error(tmp_path):
    fix = tmp_path / "utf16.json"
    fix.write_bytes(b"\xff\xfe" + json.dumps({"kind": "algebra"}).encode("utf-16-le"))
    r = run_cli("decompose", fix)
    assert r.returncode == 1
    assert r.stderr.startswith("error:")
    assert r.stdout == ""


# ---------------------------------------------------------------------------
# determinism and seeding


def test_reports_are_byte_identical_across_runs(tmp_path):
    fix = tmp_path / "alg.json"
    run_cli("random", "algebra", "--blocks", "2,1", "--mults", "1,2",
            "--seed", 21, "--json", fix)
    r1 = run_cli("decompose", fix, "--seed", 4)
    r2 = run_cli("decompose", fix, "--seed", 4)
    assert r1.stdout == r2.stdout
    assert r1.returncode == r2.returncode == 0


def test_seed_environment_variable(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli("random", "algebra", "--blocks", "2,1", "--seed", 3, "--json", a)
    run_cli("random", "algebra", "--blocks", "2,1", "--json", b,
            env_extra={"CSTAR_SEED": "3"})
    assert a.read_text() == b.read_text()


def test_json_flag_matches_stdout(tmp_path):
    fix = tmp_path / "alg.json"
    out = tmp_path / "report.json"
    run_cli("random", "algebra", "--blocks", "2", "--seed", 13, "--json", fix)
    r_stdout = run_cli("decompose", fix)
    r_file = run_cli("decompose", fix, "--json", out)
    assert r_file.returncode == 0
    assert out.read_text() == r_stdout.stdout


def test_calls_in_one_process_share_the_parser_and_nothing_else(tmp_path, capsys, monkeypatch):
    """``cli.main`` builds its parser once per process; flags and defaults
    of one call do not reach the next, and each report is the report of a
    fresh process."""
    monkeypatch.delenv("CSTAR_SEED", raising=False)
    alg, ideal = tmp_path / "alg.json", tmp_path / "ideal.json"
    run_cli("random", "algebra", "--blocks", "3,1", "--mults", "2,1", "--seed", 11, "--json", alg)
    run_cli("random", "ideal", "--blocks", "2,2", "--gens", 2, "--seed", 9, "--json", ideal)
    parser = cli.build_parser()

    first = tmp_path / "first.json"
    flagged = ["decompose", str(alg), "--tol-member", "1e-7", "--json", str(first)]
    assert cli.main(flagged) == 0
    assert capsys.readouterr().out == ""
    fresh = tmp_path / "fresh.json"
    assert run_cli(*flagged[:-1], fresh).returncode == 0
    assert first.read_bytes() == fresh.read_bytes()

    assert cli.main(["ideal", str(ideal)]) == 0
    assert capsys.readouterr().out == run_cli("ideal", ideal).stdout

    with pytest.raises(SystemExit) as exc:
        cli.main(["decompose"])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err

    assert cli.main(["decompose", str(alg)]) == 0
    assert capsys.readouterr().out == run_cli("decompose", alg).stdout

    args = cli.build_parser().parse_args(["decompose", str(alg)])
    assert (args.tol_member, args.json, args.seed) == (None, None, None)
    assert cli.build_parser() is parser


# ---------------------------------------------------------------------------
# degenerate and extreme-scale fixtures


@pytest.mark.parametrize("generators", [[], [np.zeros((2, 3))]])
def test_zero_tro_classifies(tmp_path, generators):
    fix = tmp_path / "tro.json"
    fix.write_text(json.dumps({"kind": "tro", "ambient": [2, 3],
                               "generators": [matrix(g) for g in generators]}))
    r = run_cli("tro-classify", fix)
    assert r.returncode == 0, r.stderr
    assert "Traceback" not in r.stderr
    report = json.loads(r.stdout)
    assert report["blocks"] == [] and report["tro_dim"] == 0
    assert report["ternary_morphism_residual"] == 0.0


@pytest.mark.parametrize("algebra_generators, ideal_generators", [
    ([], []),
    ([np.zeros((2, 2))], [np.zeros((2, 2))]),
])
def test_ideal_over_the_zero_algebra_is_the_zero_ideal(tmp_path, algebra_generators,
                                                      ideal_generators):
    """No algebra generator, or only zero ones, gives the zero algebra; its
    only ideal is 0, reported without a traceback (the Gram rank step
    reshaped an empty stack)."""
    fix = tmp_path / "ideal.json"
    fix.write_text(json.dumps(encode_ideal_fixture(2, algebra_generators, ideal_generators)))
    r = run_cli("ideal", fix)
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert report["ok"] and report["algebra_dim"] == 0 and report["ideal_dim"] == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decompose_of_a_thin_family_is_m7_or_refused(tmp_path, seed):
    """``E_i7`` (i = 1..6) generate M7, but the Horner words of the draws
    all share their left factor, a combination of rank-one members, so the
    draw leaves one eigenvalue on several rows: ``decompose`` ends in
    ``DegenerateRandomness`` (exit 2) on every seed.  It must never report
    another signature."""
    gens = []
    for i in range(6):
        e = np.zeros((7, 7))
        e[i, 6] = 1.0
        gens.append(e)
    fix = tmp_path / "alg.json"
    fix.write_text(json.dumps(encode_algebra_fixture(7, gens)))
    r = run_cli("decompose", fix, "--seed", seed)
    if r.returncode == 0:
        assert json.loads(r.stdout)["blocks"] == [{"size": 7, "multiplicity": 1}]
    else:
        assert r.returncode == 2 and "random elements failed" in r.stderr, r.stderr
        assert "Traceback" not in r.stderr


def test_decompose_of_a_huge_generator(tmp_path):
    """1e300 E12 generates M2, whose squares overflow: the report is M2's."""
    fix = tmp_path / "alg.json"
    fix.write_text(json.dumps({"kind": "algebra", "ambient": 2,
                               "generators": [matrix(1e300 * np.array(E12))]}))
    r = run_cli("decompose", fix)
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""  # no numpy overflow warnings either
    report = json.loads(r.stdout)
    assert report["algebra_dim"] == 4
    assert report["blocks"] == [{"size": 2, "multiplicity": 1}]


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_ideal_of_an_extreme_generator_is_certified(tmp_path, scale):
    """The ideal is two-dimensional and generated by ``p = E11`` at any
    scale: the certificate is formed from the generator divided by its
    norm, and only the reported Gram spectrum leaves the doubles."""
    fix = tmp_path / "ideal.json"
    fix.write_text(json.dumps({"kind": "ideal", "ambient": 2,
                               "algebra_generators": [matrix(E12)],
                               "ideal_generators": [matrix(scale * np.array(E12))]}))
    r = run_cli("ideal", fix)
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""
    report = json.loads(r.stdout)
    assert report["ok"] and report["ideal_dim"] == 2
    p = decode_matrix(report["certificate"]["projection"])
    assert np.abs(p - np.diag([1.0, 0.0])).max() <= 1e-12


# ---------------------------------------------------------------------------
# the ideal certificate is read off the generators


def planted_ideal_fixture(path, seed):
    """Three seeded generators of a right ideal of the planted algebra with
    blocks 2, 4, 3 and multiplicities 2, 2, 1 in M16 (dimension 29)."""
    planted = planted_block_algebra([2, 4, 3], [2, 2, 1], ambient_dim=16, seed=seed)
    gens = random_ideal_generators(planted.algebra, 3, np.random.default_rng(seed))
    path.write_text(json.dumps(encode_ideal_fixture(16, planted.algebra.basis.matrices, gens)))
    return planted.algebra, gens


@pytest.mark.parametrize("seed", [363, 1132])
def test_ideal_whose_span_drifts_out_of_the_algebra_is_certified(tmp_path, seed):
    """These ideals are all of the 29-dimensional algebra.  Spanned by
    saturation, roundoff carried them past it to all of M16, and the
    certificate failed ``ideal_equals_pA`` against that span; read off the
    generators, ``J = pA`` is certified."""
    fix = tmp_path / "ideal.json"
    planted_ideal_fixture(fix, seed)
    r = run_cli("ideal", fix)
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert report["ok"]
    assert report["algebra_dim"] == report["ideal_dim"] == 29


def test_near_degenerate_ideal_ends_in_gap_not_found(tmp_path):
    """The Gram element of these generators has an eigenvalue near 6.6e-8,
    inside the band where zero and positive spectrum cannot be told apart:
    a typed refusal with exit code 2, never a wrong ``ideal_dim``."""
    fix = tmp_path / "ideal.json"
    algebra, gens = planted_ideal_fixture(fix, 585)
    with pytest.raises(GapNotFound, match="too narrow"):
        projection_generator(generate_algebra(16, list(algebra.basis.matrices)), gens)
    r = run_cli("ideal", fix)
    assert r.returncode == 2
    assert r.stdout == "" and "too narrow" in r.stderr and "Traceback" not in r.stderr


E11, E22 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])


@pytest.mark.parametrize("gens, code, ideal_dim", [
    ([E11, 5e-9 * E22], 2, None),
    ([E11 + 5e-9 * E22], 2, None),
    ([E11 + 5e-10 * E22], 0, 1),
], ids=["two-generators", "one-generator", "below-rank"])
def test_generator_part_outside_p_above_rank_cutoff_is_refused(tmp_path, gens, code, ideal_dim):
    """Ideals of the diagonal D2 whose ``E22`` part, relative to the largest
    generator, lies between ``tol.rank`` and ``tol.member``: it leaves ``b``
    an eigenvalue near 2.5e-17, in the zero cluster, so ``p = E11``, and the
    certificate must be refused rather than claim ``ideal_dim`` 1 for an
    ideal that is all of D2.  Below ``tol.rank`` the part counts as zero,
    as it does in the span of J."""
    fix = tmp_path / "ideal.json"
    fix.write_text(json.dumps(encode_ideal_fixture(2, [E11, E22], gens)))
    r = run_cli("ideal", fix)
    assert r.returncode == code, r.stderr
    if ideal_dim is None:
        with pytest.raises(VerificationFailure, match="ideal_equals_pA"):
            projection_generator(generate_algebra(2, [E11, E22]), gens)
        assert r.stdout == "" and "ideal_equals_pA" in r.stderr and "Traceback" not in r.stderr
    else:
        report = json.loads(r.stdout)
        assert report["ok"] and report["ideal_dim"] == ideal_dim


def test_ideal_commands_span_no_right_ideal(tmp_path, capsys, monkeypatch):
    """``random ideal``, ``ideal`` and ``verify-dz`` neither build a
    :class:`RightIdeal` nor saturate a right-module span."""
    calls = []
    for module in (ideals, instances, structure, tro):
        for name in ("generate_right_ideal", "right_module_span"):
            if hasattr(module, name):
                def counted(*args, _name=name, _inner=getattr(module, name), **kwargs):
                    calls.append(_name)
                    return _inner(*args, **kwargs)
                monkeypatch.setattr(module, name, counted)
    monkeypatch.delenv("CSTAR_SEED", raising=False)
    alg, ideal = tmp_path / "alg.json", tmp_path / "ideal.json"
    assert cli.main(["random", "algebra", "--blocks", "3,1", "--mults", "2,1",
                     "--json", str(alg)]) == 0
    assert cli.main(["random", "ideal", "--blocks", "3,2,1", "--mults", "2,1,2",
                     "--gens", "3", "--json", str(ideal)]) == 0
    assert cli.main(["ideal", str(ideal)]) == 0
    assert cli.main(["verify-dz", str(alg), "--trials", "4"]) == 0
    capsys.readouterr()
    assert calls == []


@pytest.mark.parametrize("command", ["decompose", "ideal", "verify-dz", "tro-classify"])
def test_command_closes_no_span(tmp_path, capsys, monkeypatch, command):
    """``decompose``, ``ideal`` and ``verify-dz`` take A from its
    decomposition, read off the fixture's generators, and ``tro-classify``
    takes Z, L and R from that of the linking algebra: none of them
    generates the algebra, grows a span, takes a corner trace over A's
    basis (``verify-dz`` took one per trial) or writes the dense basis of an
    algebra or a TRO (``StarAlgebra.basis`` and ``TRO.basis`` raise here),
    and no eigendecomposition is larger than the ambient 10 x 10, or the
    13 x 13 linking algebra (``ideal`` took one of the 14 x 14 Gram matrix
    of the products ``p b_i``): dimensions and minimality are read off the
    compressions of ``p`` against the blocks, and membership off the block
    projection."""
    kind = {"ideal": "ideal", "tro-classify": "tro"}.get(command, "algebra")
    fix = tmp_path / f"{kind}.json"
    blocks = ["3x2,2x2,1x3"] if kind == "tro" else ["3,2,1", "--mults", "2,1,2"]
    assert cli.main(["random", kind, "--blocks", *blocks,
                     "--seed", "1", "--json", str(fix)]) == 0
    calls, sizes = [], []
    for module in (algebra, cli, ideals, instances, linalg, structure, tro):
        for name in ("generate_algebra", "grow_span", "_corner_space"):
            if hasattr(module, name):
                def counted(*args, _name=name, _inner=getattr(module, name), **kwargs):
                    calls.append(_name)
                    return _inner(*args, **kwargs)
                monkeypatch.setattr(module, name, counted)

    def eigh(a, *args, _inner=np.linalg.eigh, **kwargs):
        sizes.append(np.shape(a)[-1])
        return _inner(a, *args, **kwargs)

    def dense(space):
        raise AssertionError("a command wrote a dense basis")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    monkeypatch.setattr(algebra.StarAlgebra, "basis", property(dense))
    monkeypatch.setattr(tro.TRO, "basis", property(dense))
    assert cli.main([command, str(fix), "--seed", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert calls == []
    if kind == "tro":
        assert report["ok"] and report["tro_dim"] == 13
        assert sizes and max(sizes) <= sum(report["ambient"]) == 13
    else:
        assert report["ok"] and report["algebra_dim"] == 14
        assert sizes and max(sizes) <= report["ambient"] == 10


def integer_fields(report):
    """The report's integer and boolean fields, its certificate's included."""
    flat = {**report, **{f"certificate.{k}": v for k, v in report["certificate"].items()}}
    return {k: v for k, v in flat.items() if isinstance(v, (bool, int))}


def test_ideal_generator_off_the_block_form_is_refused(tmp_path, capsys):
    """At N=48 an ideal generator moved 1e-6 of its norm along a direction
    orthogonal to A is refused by the block projection's membership rule
    (exit code 1, naming the generator); moved 1e-10, below
    ``tol.member``, it keeps every integer field of the unmoved report."""
    planted = planted_block_algebra([8, 6, 4, 4, 2], [2] * 5, seed=2)
    alg = planted.algebra
    rng = np.random.default_rng(2)
    gens = [algebra.sample_element(alg, rng) for _ in range(2)]
    # (u - e) x for the minimal projection e = v v* of the first block
    v = alg.blocks[0][0]
    g = (alg.unit - v @ v.conj().T) @ gens[0]
    away = (rng.standard_normal((1, 48 * 48)) + 1j * rng.standard_normal((1, 48 * 48)))
    away = (away - linalg.project(alg.basis.stack, away)).reshape(48, 48)
    away *= linalg.hs_norm(g) / linalg.hs_norm(away)
    reports = []
    for offset in (0.0, 1e-10, 1e-6):
        fix = tmp_path / f"ideal-{offset}.json"
        fix.write_text(json.dumps(encode_ideal_fixture(48, gens, [g + offset * away])))
        code = cli.main(["ideal", str(fix), "--seed", "1"])
        out, err = capsys.readouterr()
        if offset == 1e-6:
            assert code == 1 and out == ""
            assert "ideal generator is not in the algebra" in err
        else:
            assert code == 0, err
            reports.append(json.loads(out))
    assert reports[0]["ok"] and (reports[0]["algebra_dim"], reports[0]["ideal_dim"]) == (136, 128)
    assert integer_fields(reports[1]) == integer_fields(reports[0])


def direct_sum(*blocks):
    n = sum(len(b) for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    at = 0
    for b in blocks:
        out[at : at + len(b), at : at + len(b)] = b
        at += len(b)
    return out


@pytest.mark.parametrize("doubled, scale, rotated", [
    (False, 1e-2, False),
    (True, 1e-2, False),
    (True, 1e-2, True),
    (True, 1e-5, True),
], ids=["x+sy", "doubled", "rotated-1e-2", "rotated-1e-5"])
def test_blocks_far_apart_in_scale_are_not_closed_past(tmp_path, capsys, doubled, scale, rotated):
    """Two generators ``x (+) s y`` generate M3 (+) M3 (dimension 18) at
    every scale ``s``; doubled, ``x (+) x (+) s y (+) s y``, the same blocks
    at multiplicity 2.  Closing their span reached past the algebra to
    dimension 27 (doubled: 54; rotated by a Haar unitary: all of M12), so
    ``ideal`` reported ``algebra_dim`` 27 and ``ideal_dim`` 18 for the
    generator ``g (+) 0``, and ``verify-dz`` failed its dimension identity;
    the library's ``generate_algebra`` closed to 27, 36, 54 and 144.
    Read off the decomposition, A and the ideal ``M3 (+) 0`` keep their
    dimensions 18 and 9, in the commands and in ``generate_algebra``."""
    rng = np.random.default_rng(0)
    gaussian = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                for _ in range(5)]
    pairs, g = [gaussian[0:2], gaussian[2:4]], gaussian[4]
    copies = 2 if doubled else 1
    gens = [direct_sum(*[x] * copies, *[scale * y] * copies) for x, y in pairs]
    ideal_gen = direct_sum(*[g] * copies, *[np.zeros((3, 3))] * copies)
    n = 6 * copies
    if rotated:
        q = instances.haar_unitary(n, np.random.default_rng(1))
        gens, ideal_gen = [q @ x @ q.conj().T for x in gens], q @ ideal_gen @ q.conj().T
    assert generate_algebra(n, gens).dim == 18
    ideal_fix, alg_fix = tmp_path / "ideal.json", tmp_path / "alg.json"
    ideal_fix.write_text(json.dumps(encode_ideal_fixture(n, gens, [ideal_gen])))
    alg_fix.write_text(json.dumps(encode_algebra_fixture(n, gens)))
    assert cli.main(["ideal", str(ideal_fix)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and (report["algebra_dim"], report["ideal_dim"]) == (18, 9)
    assert cli.main(["verify-dz", str(alg_fix), "--trials", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and report["algebra_dim"] == 18
    assert report["block_sizes"] == [3, 3]
    assert report["multiplicities"] == [copies, copies]


IDEAL_SWEEP = [
    (16, [2, 4, 3], [2, 2, 1]),
    (16, [3, 2, 1], [2, 3, 1]),
    (20, [5, 4, 1], [2, 2, 2]),
    (20, [3, 3, 2], [2, 3, 1]),
    (24, [4, 2, 1], [3, 2, 4]),
]


def gram_route_report(alg, ideal_generators, tol):
    """The ``ideal`` report as it was read off A's dense basis: ``dim pA``
    is the rank of the ``dim A`` products ``p b_i``, which span ``pA``, and
    the support of their Gram sum is checked against ``p``."""
    cert = projection_generator(alg, ideal_generators, tol=tol)
    pb = cert.projection @ alg.basis.matrices
    dec, cut, _ = linalg.psd_cut(
        linalg.gram_sum(pb.reshape(1, alg.dim, alg.ambient_dim ** 2)), tol=tol)
    agreement = linalg.hs_norm(
        cert.projection - linalg.support_projection_of_psd(linalg.gram_sum(pb), tol=tol))
    report = {
        "command": "ideal",
        "ambient": alg.ambient_dim,
        "algebra_dim": alg.dim,
        "ideal_dim": 0 if cut is None else int(np.count_nonzero(dec.eigenvalues > cut)),
        "certificate": jsonio.certificate_report(cert),
        "support_agreement": agreement,
    }
    ok = agreement <= tol.member and (
        cert.is_trivial or max(cert.residuals.values()) <= tol.member)
    return report, ok


def assert_matches_the_closure_route(tmp_path, capsys, ambient, algebra_gens, ideal_gens):
    """Oracle: the algebra closed from the generators, the same certificate,
    the Gram-rank report of :func:`gram_route_report` and the dimension of
    the right ideal spanned in one round over A's basis.  Read off the
    block decomposition's compressions instead, the report keeps every
    integer field and verdict, and its floats to 1e-12; with A's basis from
    the decomposition, it is the same under every ``--seed``."""
    fix = tmp_path / "ideal.json"
    fix.write_text(json.dumps(encode_ideal_fixture(ambient, algebra_gens, ideal_gens)))
    closed = generate_algebra(ambient, algebra_gens)
    report, ok = gram_route_report(closed, ideal_gens, DEFAULT_TOL)
    assert report["ideal_dim"] == ideals.right_module_span(closed, ideal_gens, ambient).dim
    oracle = json.loads(dumps_report({**report, "ok": ok}))
    for run_seed in range(4):
        assert cli.main(["ideal", str(fix), "--seed", str(run_seed)]) == (0 if ok else 2)
        assert_matches(json.loads(capsys.readouterr().out), oracle)


@pytest.mark.parametrize("corner", [False, True], ids=["mixed", "corner"])
@pytest.mark.parametrize("gens", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("ambient, sizes, mults", IDEAL_SWEEP)
def test_ideal_report_matches_the_closure_route(tmp_path, capsys, ambient, sizes, mults,
                                                gens, corner):
    """Planted algebras with multiplicities up to 4 and kernels padded up to
    4, against :func:`assert_matches_the_closure_route`.  The ideal
    generators are those of ``random ideal`` (mostly all of A) or elements
    ``q x`` for one random projection ``q`` (proper ideals ``qA``); no
    generator gives the zero ideal."""
    seed = 100 * ambient + 10 * len(sizes) + gens
    planted = planted_block_algebra(sizes, mults, ambient_dim=ambient, seed=seed)
    rng = np.random.default_rng(seed)
    if corner:
        q = instances.random_projection(planted.algebra, rng)
        ideal_gens = [q @ algebra.sample_element(planted.algebra, rng) for _ in range(gens)]
    else:
        ideal_gens = random_ideal_generators(planted.algebra, gens, rng)
    assert_matches_the_closure_route(tmp_path, capsys, ambient,
                                     list(planted.algebra.basis.matrices), ideal_gens)


@pytest.mark.parametrize("algebra_gens", [[], [np.zeros((3, 3))]], ids=["none", "zero"])
def test_ideal_report_of_the_zero_algebra_matches_the_closure_route(tmp_path, capsys,
                                                                   algebra_gens):
    """The zero algebra has no blocks to compress ``p`` against: its zero
    ideal keeps ``ideal_dim`` 0 on both routes, with no traceback."""
    assert_matches_the_closure_route(tmp_path, capsys, 3, algebra_gens, [])
