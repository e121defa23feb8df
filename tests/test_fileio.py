import copy
import errno
import json
import math
import os

import numpy as np
import pytest

from conftest import random_ensemble, random_povm
from povmlab.ensemble import EnsembleValidationError, symmetric_qubit_pair
from povmlab.fileio import (
    FileFormatError,
    dumps_json,
    float_repr,
    load_ensemble,
    load_povm,
    matrix_to_pairs,
    save_ensemble,
    save_povm,
)

# RFC 8259 lets a JSON file be UTF-8, -16 or -32; the reader detects which
ENCODINGS = ("utf-8-sig", "utf-16", "utf-16-be", "utf-32", "utf-32-le")


def test_ensemble_round_trip_exact(tmp_path):
    rng = np.random.default_rng(61)
    e = random_ensemble(rng, 3, 3)
    path = tmp_path / "e.json"
    save_ensemble(path, e)
    back = load_ensemble(path)
    assert back.dim == 3 and back.n_states == 3
    assert np.array_equal(back.priors, e.priors)
    for a, b in zip(back.states, e.states):
        assert np.array_equal(a, b)
    text = path.read_text()
    for encoding in ENCODINGS:
        path.write_bytes(text.encode(encoding))
        again = load_ensemble(path)
        assert np.array_equal(again.priors, e.priors)
        assert np.array_equal(again.states, e.states)


def test_povm_round_trip_exact(tmp_path):
    povm = random_povm(np.random.default_rng(62), 2, 3)
    path = tmp_path / "m.json"
    save_povm(path, povm)
    back = load_povm(path)
    for a, b in zip(back.elements, povm.elements):
        assert np.array_equal(a, b)
    text = path.read_text()
    for encoding in ENCODINGS:
        path.write_bytes(text.encode(encoding))
        assert np.array_equal(load_povm(path).elements, povm.elements)


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_reader_matches_complex_per_entry(tmp_path, dim):
    # the one numpy conversion is bit for bit complex(re, im) per entry
    rng = np.random.default_rng(64 + dim)
    specials = [0, 7, -3, -0.0, 5e-324, 2.2250738585072014e-308 / 3,
                2 ** 53 + 1, 10 ** 20, -(10 ** 20) - 1, 1e308, -1e308]
    n = 3
    leaves = rng.standard_normal(n * dim * dim * 2).tolist()
    ints = rng.choice(len(leaves), size=len(leaves) // 4, replace=False)
    for k in ints:
        leaves[k] = int(rng.integers(-9, 10))
    for k, x in zip(rng.permutation(len(leaves)), specials):
        leaves[k] = x
    mats = np.array(leaves, dtype=object).reshape(n, dim, dim, 2).tolist()
    expected = np.array([[[complex(re, im) for re, im in row] for row in m]
                         for m in mats], dtype=np.complex128)
    path = tmp_path / "stack.json"
    path.write_text(json.dumps({"dim": dim, "priors": [1, 1, 1], "states": mats}))
    assert load_ensemble(path, validate=False).states.tobytes() == expected.tobytes()
    path.write_text(json.dumps({"dim": dim, "elements": mats}))
    assert load_povm(path).elements.tobytes() == expected.tobytes()


GOOD_MATRIX = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]


def _with_entry(value, r=1, c=0):
    """GOOD_MATRIX with ``value`` at (r, c) and a later bad entry at (1,1)."""
    m = copy.deepcopy(GOOD_MATRIX)
    m[1][1] = [True, 0.0]
    m[r][c] = value
    return m


@pytest.mark.parametrize("bad, fault", [
    (_with_entry([True, 0.0]), "entry (1,0) is not a two-element [re, im] array"),
    (_with_entry([0.0, "1.5"]), "entry (1,0) is not a two-element [re, im] array"),
    (_with_entry([None, 0.0]), "entry (1,0) is not a two-element [re, im] array"),
    (_with_entry({}), "entry (1,0) is not a two-element [re, im] array"),
    (_with_entry([{}, 0.0]), "entry (1,0) is not a two-element [re, im] array"),
    (_with_entry([0.5]), "entry (1,0) is not a two-element [re, im] array"),
    (_with_entry([0.5, 0.0, 0.0]), "entry (1,0) is not a two-element [re, im] array"),
    (_with_entry("0.5", 0, 1), "entry (0,1) is not a two-element [re, im] array"),
    (_with_entry([10 ** 400, 0]), "entry (1,0) is too large for a float"),
    ([GOOD_MATRIX[0], GOOD_MATRIX[1][:1]], "row 1 is not a list of 2 entries"),
    ([GOOD_MATRIX[0]], "expected 2 rows"),
    # a number where a list belongs has no length at all
    (_with_entry(0.5), "entry (1,0) is not a two-element [re, im] array"),
    ([GOOD_MATRIX[0], None], "row 1 is not a list of 2 entries"),
    (7, "expected 2 rows"),
    # each of these has the length a flat count over the level would expect
    (_with_entry("ab"), "entry (1,0) is not a two-element [re, im] array"),
    (_with_entry({"re": 0.5, "im": 0.0}), "entry (1,0) is not a two-element [re, im] array"),
    (_with_entry([[1, 2], [3, 4]]), "entry (1,0) is not a two-element [re, im] array"),
    ([GOOD_MATRIX[0], "ab"], "row 1 is not a list of 2 entries"),
    ({"r0": GOOD_MATRIX[0], "r1": GOOD_MATRIX[1]}, "expected 2 rows"),
])
def test_load_names_the_first_bad_entry(tmp_path, bad, fault):
    # matrix 1 holds the fault; matrix 2 is bad too, so the walk must stop at 1
    mats = [GOOD_MATRIX, bad, _with_entry([10 ** 400, 0], 0, 0)]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2, "priors": [1, 1, 1], "states": mats}))
    with pytest.raises(FileFormatError) as exc_info:
        load_ensemble(path, validate=False)
    assert str(exc_info.value) == f"{path}: state 1: {fault}"
    path.write_text(json.dumps({"dim": 2, "elements": mats}))
    with pytest.raises(FileFormatError) as exc_info:
        load_povm(path)
    assert str(exc_info.value) == f"{path}: element 1: {fault}"


def test_load_rejects_missing_file(tmp_path):
    # a missing file and a directory, named as str or as Path, give the OS's message
    missing, folder = tmp_path / "nope.json", tmp_path / "folder.json"
    folder.mkdir()
    for path, code in ((missing, errno.ENOENT), (folder, errno.EISDIR)):
        text = f"cannot read {path}: [Errno {code}] {os.strerror(code)}: {str(path)!r}"
        for arg in (path, str(path)):
            with pytest.raises(FileFormatError) as exc_info:
                load_ensemble(arg)
            assert str(exc_info.value) == text
            with pytest.raises(FileFormatError) as exc_info:
                load_povm(arg)
            assert str(exc_info.value) == text


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FileFormatError):
        load_ensemble(path)
    with pytest.raises(FileFormatError):
        load_povm(path)


def test_load_rejects_structural_problems(tmp_path):
    path = tmp_path / "bad.json"
    good_state = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]

    path.write_text(json.dumps([1, 2]))
    with pytest.raises(FileFormatError):
        load_ensemble(path)

    path.write_text(json.dumps({"dim": 0, "priors": [1.0], "states": [good_state]}))
    with pytest.raises(FileFormatError):
        load_ensemble(path)

    path.write_text(json.dumps({"dim": 2, "priors": [0.5, 0.5],
                                "states": [good_state]}))
    with pytest.raises(FileFormatError):
        load_ensemble(path)

    ragged = [[[1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    path.write_text(json.dumps({"dim": 2, "priors": [1.0], "states": [ragged]}))
    with pytest.raises(FileFormatError):
        load_ensemble(path)

    entry_not_pair = [[[1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    path.write_text(json.dumps({"dim": 2, "priors": [1.0],
                                "states": [entry_not_pair]}))
    with pytest.raises(FileFormatError):
        load_ensemble(path)

    path.write_text(json.dumps({"dim": 2, "elements": [good_state]}))
    with pytest.raises(FileFormatError):
        load_povm(path)

    # bool is an int subclass, but no dimension
    path.write_text(json.dumps({"dim": True, "priors": [1.0], "states": [[[[1.0, 0.0]]]]}))
    with pytest.raises(FileFormatError, match='"dim" must be a positive integer'):
        load_ensemble(path)
    path.write_text(json.dumps({"dim": True,
                                "elements": [[[[1.0, 0.0]]], [[[0.0, 0.0]]]]}))
    with pytest.raises(FileFormatError, match='"dim" must be a positive integer'):
        load_povm(path)


def test_load_rejects_integers_too_large_for_a_float(tmp_path):
    # JSON integers are exact; one of 400 digits has no float value
    huge = 10 ** 400
    path = tmp_path / "huge.json"
    state = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
    big = [[[1, 0], [0, 0]], [[0, 0], [huge, 0]]]

    path.write_text(json.dumps({"dim": 2, "priors": [1], "states": [big]}))
    with pytest.raises(FileFormatError, match=r"state 0: entry \(1,1\) is too large"):
        load_ensemble(path)

    path.write_text(json.dumps({"dim": 2, "priors": [huge], "states": [state]}))
    with pytest.raises(FileFormatError, match="a prior is too large for a float"):
        load_ensemble(path, validate=False)

    path.write_text(json.dumps({"dim": 2, "elements": [state, big]}))
    with pytest.raises(FileFormatError, match=r"element 1: entry \(1,1\) is too large"):
        load_povm(path)

    # past the interpreter's limit on integer digits, JSON parsing itself fails
    path.write_text('{"dim": 1, "priors": [1' + "0" * 5000 + '], "states": [[[[1, 0]]]]}')
    with pytest.raises(FileFormatError):
        load_ensemble(path)


def test_load_separates_physics_validation(tmp_path):
    # well-formed file describing a physically invalid ensemble
    bad_priors = {
        "dim": 2,
        "priors": [0.5, 0.6],
        "states": [
            [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        ],
    }
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(bad_priors))
    with pytest.raises(EnsembleValidationError):
        load_ensemble(path)
    e = load_ensemble(path, validate=False)
    assert e.n_states == 2


def test_complex_entries_survive(tmp_path):
    e = symmetric_qubit_pair(0.9, math.pi / 3)
    rot = np.array([[1.0, 0.0], [0.0, np.exp(1j * 0.7)]])
    states = tuple(rot @ s @ rot.conj().T for s in e.states)
    from povmlab.ensemble import StateEnsemble
    e_rot = StateEnsemble(states, e.priors)
    path = tmp_path / "c.json"
    save_ensemble(path, e_rot)
    back = load_ensemble(path)
    assert np.array_equal(back.states[0], e_rot.states[0])
    assert back.states[0][0, 1].imag != 0.0
    # the writer keeps the sign of a zero and reads a transposed (strided) view
    m = e_rot.states[0].copy()
    m[1, 1] = complex(-0.0, -0.0)
    for view in (m, m.T, e_rot.states):
        per_entry = [[float(x.real), float(x.imag)] for x in view.flat]
        assert dumps_json(matrix_to_pairs(view)) == dumps_json(
            np.array(per_entry).reshape(view.shape + (2,)).tolist())


def test_dumps_json_formatting():
    text = dumps_json({"x": 1.0 / 3.0, "flag": True, "none": None,
                       "nan": math.nan, "list": [1, 2.5], "s": "a\"b"})
    parsed = json.loads(text)
    assert parsed["x"] == 1.0 / 3.0  # 17 significant digits round-trip
    assert "0.33333333333333331" in text
    assert parsed["flag"] is True
    assert parsed["nan"] is None
    assert parsed["list"] == [1, 2.5]
    assert parsed["s"] == 'a"b'
    assert text.endswith("\n")


def test_dumps_json_golden_bytes():
    record = {
        "empty": [[], {}, [[]], {"k": {}}],
        "floats": [-0.0, 0.1, 1e-300, math.nan, math.inf, -math.inf],
        "numpy": [np.float64(2.0 / 3.0), np.int64(-7), np.float32(0.5), np.int32(3)],
        "tuple": (1, True, None),
        "text": "caf\u00e9 \"q\"\n",
        "\u03c1": "key",
    }
    assert dumps_json(record) == (
        '{\n'
        '  "empty": [\n'
        '    [],\n'
        '    {},\n'
        '    [\n'
        '      []\n'
        '    ],\n'
        '    {\n'
        '      "k": {}\n'
        '    }\n'
        '  ],\n'
        '  "floats": [\n'
        '    -0,\n'
        '    0.10000000000000001,\n'
        '    1e-300,\n'
        '    null,\n'
        '    null,\n'
        '    null\n'
        '  ],\n'
        '  "numpy": [\n'
        '    0.66666666666666663,\n'
        '    -7,\n'
        '    0.5,\n'
        '    3\n'
        '  ],\n'
        '  "tuple": [\n'
        '    1,\n'
        '    true,\n'
        '    null\n'
        '  ],\n'
        '  "text": "caf\\u00e9 \\"q\\"\\n",\n'
        '  "\\u03c1": "key"\n'
        '}\n')
    assert dumps_json([]) == "[]\n" and dumps_json({}) == "{}\n"
    assert dumps_json(-0.0) == "-0\n" and dumps_json("\u00e9") == '"\\u00e9"\n'


def test_dumps_json_is_deterministic():
    payload = {"b": [0.1, 0.2], "a": {"k": 3.0}}
    assert dumps_json(payload) == dumps_json(payload)


def test_dumps_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps_json({"z": complex(1, 2)})
    with pytest.raises(TypeError):
        dumps_json({1: "non-string key"})
    with pytest.raises(TypeError):
        dumps_json([np.bool_(True)])


def test_float_repr_is_lossless():
    rng = np.random.default_rng(63)
    for _ in range(100):
        x = float(rng.standard_normal() * 10.0 ** rng.integers(-8, 8))
        assert float(float_repr(x)) == x
