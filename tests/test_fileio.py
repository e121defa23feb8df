import json
import math

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
    save_ensemble,
    save_povm,
)


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


def test_povm_round_trip_exact(tmp_path):
    povm = random_povm(np.random.default_rng(62), 2, 3)
    path = tmp_path / "m.json"
    save_povm(path, povm)
    back = load_povm(path)
    for a, b in zip(back.elements, povm.elements):
        assert np.array_equal(a, b)


def test_load_rejects_missing_file(tmp_path):
    with pytest.raises(FileFormatError):
        load_ensemble(tmp_path / "nope.json")


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


def test_dumps_json_is_deterministic():
    payload = {"b": [0.1, 0.2], "a": {"k": 3.0}}
    assert dumps_json(payload) == dumps_json(payload)


def test_dumps_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps_json({"z": complex(1, 2)})
    with pytest.raises(TypeError):
        dumps_json({1: "non-string key"})


def test_float_repr_is_lossless():
    rng = np.random.default_rng(63)
    for _ in range(100):
        x = float(rng.standard_normal() * 10.0 ** rng.integers(-8, 8))
        assert float(float_repr(x)) == x
