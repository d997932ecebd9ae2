"""Matrix encodings: the dense base64 form the fixture writers use and the
``[re, im]`` pairs form of reports and older fixtures.

Both must decode to the encoded bits exactly, and a fixture must give the
same report bytes whichever form it is written in.  The report writer must
write the bytes ``json.dumps`` writes.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from cstarlab import cli
from cstarlab.errors import ParseError
from cstarlab.jsonio import (
    certificate_report,
    decode_fixture,
    decode_matrix,
    dumps_report,
    encode_dense_matrix,
    encode_matrix,
)
from test_golden import CASES, FIXTURES, produce

TINY = np.nextafter(0.0, 1.0)  # the smallest subnormal
SPECIAL = np.array(
    [[-0.0 + 0.0j, complex(0.0, -0.0), TINY - 1j * TINY],
     [2.5e-310 + 1e300j, -1e300 - 4.9e-324j, 1 / 3 + 1j * np.pi]]
)


def bits(m):
    return np.ascontiguousarray(m, dtype=np.complex128).view(np.uint8)


def through_text(obj):
    return json.loads(json.dumps(obj))


def inputs():
    """Special values as given, non-contiguous, big-endian and empty."""
    rng = np.random.default_rng(5)
    wide = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    return [
        SPECIAL,
        SPECIAL.T,  # Fortran order
        wide[::2, ::3],  # strided
        SPECIAL.astype(">c16"),  # big-endian
        np.zeros((0, 3)),
        np.array([[1, 2], [3, 4]]),  # integers
    ]


@pytest.mark.parametrize("encode", [encode_dense_matrix, encode_matrix])
@pytest.mark.parametrize("m", inputs(), ids=["special", "transposed", "strided",
                                              "big-endian", "empty", "integer"])
def test_encoding_round_trips_bit_for_bit(encode, m):
    out = decode_matrix(through_text(encode(m)))
    assert out.shape == m.shape
    assert out.dtype == np.complex128 and out.dtype.isnative
    assert out.flags.writeable
    np.testing.assert_array_equal(bits(out), bits(m))


def test_dense_data_is_little_endian_row_major():
    m = np.array([[1.0, 2j]])
    data = encode_dense_matrix(m)["data"]
    assert data == "AAAAAAAA8D8AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAEA="


def test_pairs_match_the_per_entry_loop():
    """The vectorized report encoder writes the floats the per-entry
    ``float()`` loop wrote, in the same order."""
    for m in inputs():
        loop = [[float(z.real), float(z.imag)] for z in np.asarray(m, complex).ravel()]
        assert json.dumps(encode_matrix(m)["entries"]) == json.dumps(loop)


def legacy(raw):
    """A fixture dict with every matrix rewritten in the pairs form."""
    return {
        key: [encode_matrix(g) for g in decode_fixture(raw)[key]]
        if key.endswith("generators") else value
        for key, value in raw.items()
    }


@pytest.mark.parametrize("command", sorted(FIXTURES))
def test_report_bytes_do_not_depend_on_the_fixture_form(tmp_path, command):
    fixture = tmp_path / "dense.json"
    argv = ["random", *FIXTURES[command], "--seed", "2", "--json", str(fixture)]
    assert cli.main(argv) == 0
    raw = json.loads(fixture.read_text())
    assert all("data" in g and "entries" not in g
               for key in raw if key.endswith("generators") for g in raw[key])
    old = tmp_path / "legacy.json"
    old.write_text(json.dumps(legacy(raw)))
    reports = []
    for path in (fixture, old):
        out = tmp_path / f"{path.stem}.report.json"
        assert cli.main([command, str(path), "--seed", "2", "--json", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def pairs_first_certificate_report(cert):
    """The earlier route: the projection encoded as ``[re, im]`` pairs
    before the report reaches ``dumps_report``, which then walks every
    float as a generic list."""
    report = certificate_report(cert)
    report["projection"] = encode_matrix(cert.projection)
    return report


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("command", ["ideal", "verify-dz"])
def test_certificate_projection_encoded_once_keeps_the_report_bytes(tmp_path, command, seed):
    fixture = tmp_path / "fixture.json"
    argv = ["random", *FIXTURES[command], "--seed", str(seed), "--json", str(fixture)]
    assert cli.main(argv) == 0
    reports = []
    for route in (certificate_report, pairs_first_certificate_report):
        out = tmp_path / f"{route.__name__}.json"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "certificate_report", route)
            assert cli.main([command, str(fixture), "--seed", str(seed), "--json", str(out)]) == 0
        reports.append(out.read_bytes())
    assert b'"projection"' in reports[0]
    assert reports[0] == reports[1]


def plain(value):
    """The earlier report conversion, kept as the reference: numpy values
    to JSON-safe Python, which ``json.dumps`` then wrote."""
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, np.ndarray):
        if value.ndim == 2:
            return encode_matrix(value)
        return [plain(v) for v in value.tolist()]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, complex):
        return [float(value.real), float(value.imag)]
    return value


def json_report(report):
    return json.dumps(plain(report), sort_keys=True, indent=2) + "\n"


FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, math.nan, math.inf, -math.inf])
COMPLEX = st.builds(complex, FLOATS, FLOATS)
TEXT = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é☃\U0001d11e", "\u2028"])
DTYPES = st.sampled_from([np.complex128, np.float64, np.int64, np.bool_])
MATRIX_SHAPES = st.one_of(
    st.sampled_from([(0, 0), (0, 3), (3, 0)]),
    st.tuples(st.just(1), st.integers(1, 4)),
    st.tuples(st.integers(1, 4), st.just(1)),
    hnp.array_shapes(min_dims=2, max_dims=2, max_side=4),
)
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), FLOATS, COMPLEX, TEXT,
    st.booleans().map(np.bool_),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    hnp.arrays(DTYPES, MATRIX_SHAPES),
    hnp.arrays(DTYPES, hnp.array_shapes(min_dims=1, max_dims=1, min_side=0, max_side=4)),
    hnp.arrays(DTYPES, hnp.array_shapes(min_dims=3, max_dims=3, min_side=0, max_side=3)),
)
KEYS = TEXT | st.integers(-3, 3)
TREES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(KEYS, children, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(KEYS, TREES, max_size=5))
def test_report_writer_matches_json(report):
    assert dumps_report(report) == json_report(report)


@pytest.mark.parametrize("case", CASES)
def test_live_reports_match_json(tmp_path, monkeypatch, case):
    """Every report and fixture a golden case writes, the ``cstarlab
    random`` fixture included, is the text ``json.dumps`` writes."""
    written = []

    def checked(report):
        text = dumps_report(report)
        assert text == json_report(report)
        written.append(report)
        return text

    monkeypatch.setattr(cli, "dumps_report", checked)
    produce(case, tmp_path)
    assert len(written) == (1 if case.startswith("selftest") else 2)


E12 = np.array([[0.0, 1.0], [0.0, 0.0]])
NOT_INTEGERS = [2.9, "2", 2.0, True, None]


@pytest.mark.parametrize("encode", [encode_dense_matrix, encode_matrix])
@pytest.mark.parametrize("field", ["rows", "cols"])
@pytest.mark.parametrize("value", NOT_INTEGERS)
def test_matrix_shape_must_be_a_json_integer(encode, field, value):
    """``int()`` would read 2.9 and "2" as 2, and True as 1."""
    obj = through_text(encode(E12))
    obj[field] = value
    with pytest.raises(ParseError):
        decode_matrix(obj)


def fixtures(encode):
    """One fixture of each kind around E12, with ground truth."""
    gens = [encode(E12)]
    return {
        "algebra": {"kind": "algebra", "ambient": 2, "generators": gens,
                    "ground_truth": {"block_sizes": [2], "multiplicities": [1]}},
        "tro": {"kind": "tro", "ambient": [2, 2], "generators": gens,
                "ground_truth": {"blocks": [[1, 1]]}},
        "ideal": {"kind": "ideal", "ambient": 2, "algebra_generators": gens,
                  "ideal_generators": gens},
    }


BAD_FIELDS = [
    ("algebra", ["ambient"], 2.7),
    ("algebra", ["ambient"], "2"),
    ("algebra", ["ground_truth", "block_sizes"], [1.5]),
    ("algebra", ["ground_truth", "multiplicities"], [True]),
    ("tro", ["ambient"], [2, 2.5]),
    ("tro", ["ground_truth", "blocks"], [[1, 1.0]]),
    ("ideal", ["ambient"], 2.7),
]


@pytest.mark.parametrize("encode", [encode_dense_matrix, encode_matrix])
@pytest.mark.parametrize("kind, path, value", BAD_FIELDS)
def test_fixture_sizes_must_be_json_integers(encode, kind, path, value):
    fixture = through_text(fixtures(encode)[kind])
    assert decode_fixture(fixture)["kind"] == kind
    *parents, last = path
    target = fixture
    for key in parents:
        target = target[key]
    target[last] = value
    with pytest.raises(ParseError):
        decode_fixture(fixture)
