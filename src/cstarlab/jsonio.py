"""JSON encoding of matrices, problem fixtures and result reports.

A matrix is a JSON object in one of two forms, both with entries in
row-major order:

- dense: ``{"rows": m, "cols": n, "data": "<base64>"}``, where ``data`` is
  the standard padded base64 of the matrix's little-endian complex128
  bytes (``'<c16'``, 16 bytes an entry);
- pairs: ``{"rows": m, "cols": n, "entries": [[re, im], ...]}``.

Fixtures carry a ``kind`` tag (``algebra``, ``tro`` or ``ideal``) plus
generator lists and optional ground truth.  The fixture writers use the
dense form; every reader accepts both, so fixtures in the ``entries`` form
still load.  Both forms decode bit for bit (a float's repr round-trips), so
a report does not depend on its fixture's form.  Reports keep the
``[re, im]`` pairs, are dumped with sorted keys and hold no volatile
fields, so identical runs produce byte-identical output.

:func:`dumps_report` writes a report as ``json.dumps`` with ``indent=2``
and sorted keys writes it, byte for byte, without going through
``json``'s pure-Python indenting encoder: it walks the report once, and
writes each 2-d array from one ``float.__repr__`` pass over its floats
joined with the fixed separators of the array's indentation.
"""

import base64
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ParseError

__all__ = [
    "encode_matrix",
    "encode_dense_matrix",
    "decode_matrix",
    "decode_fixture",
    "dumps_report",
]

_DENSE = np.dtype("<c16")


def encode_matrix(m):
    """The ``[re, im]`` pairs form of a matrix, as reports carry it."""
    m = np.ascontiguousarray(m, dtype=np.complex128)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "entries": m.view(float).reshape(-1, 2).tolist(),
    }


def encode_dense_matrix(m):
    """The dense form of a matrix: base64 of its ``'<c16'`` bytes."""
    m = np.asarray(m, dtype=_DENSE)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": base64.b64encode(m.tobytes()).decode("ascii"),
    }


def _integer(value, what):
    """``value`` when it is a JSON integer; :class:`ParseError` for a float,
    a string or a bool, which ``int()`` would truncate, parse or accept."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def decode_matrix(obj):
    """The matrix of an encoded object in either form, as a native,
    writable complex128 array equal bit for bit to the encoded one."""
    try:
        rows, cols = _integer(obj["rows"], "matrix rows"), _integer(obj["cols"], "matrix cols")
        dense, pairs = "data" in obj, "entries" in obj
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed matrix object: {exc}") from exc
    if rows < 0 or cols < 0:
        raise ParseError(f"matrix shape ({rows}, {cols}) is negative")
    if dense == pairs:
        raise ParseError("a matrix object holds exactly one of 'data' and 'entries'")
    if dense:
        m = _decode_dense(obj["data"], rows, cols)
    else:
        m = _decode_pairs(obj["entries"], rows, cols)
    # numpy reads a JSON null as nan
    if not np.all(np.isfinite(m)):
        raise ParseError("matrix has a null or non-finite entry")
    return m


def _decode_dense(data, rows, cols):
    if not isinstance(data, str):
        raise ParseError(f"matrix data must be a base64 string, got {type(data).__name__}")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise ParseError(f"matrix data is not valid base64: {exc}") from exc
    if len(raw) != rows * cols * _DENSE.itemsize:
        raise ParseError(
            f"matrix data holds {len(raw)} bytes, expected "
            f"{rows * cols * _DENSE.itemsize} for a {rows}x{cols} complex128 matrix"
        )
    return np.frombuffer(raw, dtype=_DENSE).astype(np.complex128).reshape(rows, cols)


def _decode_pairs(entries, rows, cols):
    """The ``[re, im]`` entries converted as one float array and
    reinterpreted bit for bit as complex128."""
    try:
        pairs = np.asarray(entries, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed matrix object: {exc}") from exc
    if pairs.shape == (0,):  # the empty matrix
        pairs = pairs.reshape(0, 2)
    if pairs.shape != (rows * cols, 2):
        raise ParseError(
            f"matrix entries have shape {pairs.shape}, expected "
            f"({rows * cols}, 2) [re, im] pairs"
        )
    return pairs.view(np.complex128).reshape(rows, cols)


def encode_algebra_fixture(ambient_dim, generators, ground_truth=None):
    out = {
        "kind": "algebra",
        "ambient": int(ambient_dim),
        "generators": [encode_dense_matrix(g) for g in generators],
    }
    if ground_truth is not None:
        out["ground_truth"] = {
            "block_sizes": [int(n) for n in ground_truth[0]],
            "multiplicities": [int(m) for m in ground_truth[1]],
        }
    return out


def encode_tro_fixture(rows, cols, generators, ground_truth=None):
    out = {
        "kind": "tro",
        "ambient": [int(rows), int(cols)],
        "generators": [encode_dense_matrix(g) for g in generators],
    }
    if ground_truth is not None:
        out["ground_truth"] = {"blocks": [[int(m), int(n)] for m, n in ground_truth]}
    return out


def encode_ideal_fixture(ambient_dim, algebra_generators, ideal_generators):
    return {
        "kind": "ideal",
        "ambient": int(ambient_dim),
        "algebra_generators": [encode_dense_matrix(g) for g in algebra_generators],
        "ideal_generators": [encode_dense_matrix(g) for g in ideal_generators],
    }


def decode_fixture(obj):
    """Validate and normalize a fixture dict into plain python + arrays.

    Returns a dict with the same keys but matrices decoded; raises
    :class:`ParseError` on anything malformed.
    """
    if not isinstance(obj, dict):
        raise ParseError("fixture must be a JSON object")
    kind = obj.get("kind")
    try:
        if kind == "algebra":
            n = _integer(obj["ambient"], "ambient")
            out = {
                "kind": kind,
                "ambient": n,
                "generators": [decode_matrix(g) for g in obj["generators"]],
            }
            gt = obj.get("ground_truth")
            if gt is not None:
                sizes = [_integer(x, "a block size") for x in gt["block_sizes"]]
                mults = [_integer(x, "a multiplicity") for x in gt["multiplicities"]]
                if len(sizes) != len(mults):
                    raise ParseError(
                        f"ground truth lists {len(sizes)} block sizes but "
                        f"{len(mults)} multiplicities"
                    )
                out["ground_truth"] = (sizes, mults)
            return out
        if kind == "tro":
            rows, cols = (_integer(x, "ambient") for x in obj["ambient"])
            out = {
                "kind": kind,
                "ambient": (rows, cols),
                "generators": [decode_matrix(g) for g in obj["generators"]],
            }
            gt = obj.get("ground_truth")
            if gt is not None:
                out["ground_truth"] = [
                    (_integer(m, "a block size"), _integer(n, "a block size"))
                    for m, n in gt["blocks"]
                ]
            return out
        if kind == "ideal":
            n = _integer(obj["ambient"], "ambient")
            return {
                "kind": kind,
                "ambient": n,
                "algebra_generators": [
                    decode_matrix(g) for g in obj["algebra_generators"]
                ],
                "ideal_generators": [decode_matrix(g) for g in obj["ideal_generators"]],
            }
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed {kind!r} fixture: {exc}") from exc
    raise ParseError(f"unknown fixture kind {kind!r}")


def dumps_report(report):
    """Deterministic JSON text for a report dict (sorted keys, trailing
    newline, no timestamps or other volatile content).

    The text is ``json.dumps(report, sort_keys=True, indent=2) + "\n"``
    after keys become strings, numpy scalars Python numbers, complex
    numbers ``[re, im]`` pairs, 2-d arrays the pairs form of
    :func:`encode_matrix` and other arrays nested lists; it is written
    here in one walk (:func:`_write`)."""
    out = []
    _write(report, "\n", out)
    out.append("\n")
    return "".join(out)


# json's spelling of the floats that float.__repr__ writes nan, inf and -inf
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _write(value, indent, out):
    """Append to ``out`` the JSON text of ``value`` as ``json.dumps`` with
    ``indent=2`` and sorted keys writes it at the line start ``indent``
    (a newline and the value's indentation)."""
    if isinstance(value, (dict, list, tuple)):
        if isinstance(value, dict):
            value = {str(k): v for k, v in value.items()}
            items = [(encode_basestring_ascii(k) + ": ", value[k]) for k in sorted(value)]
            brackets = "{}"
        else:
            items = [("", v) for v in value]
            brackets = "[]"
        if not items:
            out.append(brackets)
            return
        inner = indent + "  "
        sep = brackets[0] + inner
        for prefix, item in items:
            out.append(sep + prefix)
            _write(item, inner, out)
            sep = "," + inner
        out.append(indent + brackets[1])
    elif isinstance(value, np.ndarray):
        if value.ndim == 2:
            out.append(_matrix_text(value, indent))
        else:
            _write(value.tolist(), indent, out)
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif isinstance(value, (bool, np.bool_)):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(repr(int(value)))
    elif isinstance(value, (float, np.floating)):
        text = repr(float(value))
        out.append(_NON_FINITE.get(text, text))
    elif isinstance(value, complex):
        _write([float(value.real), float(value.imag)], indent, out)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _matrix_text(m, indent):
    """The JSON text of :func:`encode_matrix` of ``m`` at ``indent``, from
    one pass over its floats: ``re`` and ``im`` are joined by the
    separator inside a pair, and the pairs by the separator between two."""
    m = np.ascontiguousarray(m, dtype=np.complex128)
    keys = indent + "  "
    pairs = keys + "  "
    floats = pairs + "  "
    texts = list(map(float.__repr__, m.view(float).ravel().tolist()))
    entries = "[]"
    if texts:
        it = iter(map(_NON_FINITE.get, texts, texts))
        body = (pairs + "]," + pairs + "[" + floats).join(map(("," + floats).join, zip(it, it)))
        entries = "[" + pairs + "[" + floats + body + pairs + "]" + keys + "]"
    return (f'{{{keys}"cols": {m.shape[1]},{keys}"entries": {entries},'
            f'{keys}"rows": {m.shape[0]}{indent}}}')


def certificate_report(cert):
    """JSON-ready view of a :class:`ProjectionCertificate`; the projection
    stays an array, which :func:`dumps_report` writes in the pairs form
    of :func:`encode_matrix`."""
    return {
        "projection": cert.projection,
        "generator_count": cert.generator_count,
        "coefficient_bound": cert.coefficient_bound,
        "threshold": cert.threshold,
        "min_positive_eigenvalue": cert.min_positive_eigenvalue,
        "spectrum": [float(x) for x in np.asarray(cert.spectrum).ravel()],
        "cut": cert.cut,
        "solve_residual": cert.solve_residual,
        "residuals": {k: float(v) for k, v in cert.residuals.items()},
        "trivial": bool(cert.is_trivial),
    }
