"""Bad input is reported through one typed error, InvalidParameter."""

import ast
import pickle
from pathlib import Path

import pytest

import mqcsim
from mqcsim import AllToAll, DdConfig, InvalidParameter, MqcRun, MqcsimError, build_system
from mqcsim.evolution import EigenBasis, _spectral_bound, program_from_json

_SYSTEM = build_system(AllToAll(d0=1.0), 2)


def test_no_bare_value_or_type_error_raised():
    # an InvalidParameter names the parameter, which lets the CLI name the
    # config field behind it; a bare ValueError names nothing
    found = []
    for path in sorted(Path(mqcsim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in ("ValueError", "TypeError"):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"raise InvalidParameter(name, ...) at {found}"


@pytest.mark.parametrize("make, name", [
    (lambda: DdConfig(tau=0.1, theta=1.0, n_cycles=8, rng_seed=-1), "rng_seed"),
    (lambda: MqcRun(_SYSTEM, 1, 0.1, [0.0], mode="x"), "mode"),
    # enum conversions, which no raise statement shows
    (lambda: program_from_json('{"steps": [{"pulse": {"axis": "Q", "angle": 1.0}}]}'),
     "axis"),
    (lambda: EigenBasis.compute(_SYSTEM, "q"), "kind"),
    (lambda: _spectral_bound(_SYSTEM, "q"), "kind"),
], ids=["negative-seed", "unknown-mode", "unknown-axis", "eigenbasis-kind", "bound-kind"])
def test_invalid_parameter_names_the_parameter(make, name):
    with pytest.raises(InvalidParameter) as exc:
        make()
    assert exc.value.name == name
    assert isinstance(exc.value, MqcsimError)
    assert isinstance(exc.value, ValueError)


def test_invalid_parameter_survives_pickling():
    # a process pool hands a worker's error back pickled
    err = pickle.loads(pickle.dumps(InvalidParameter("t", "evolution time must be finite")))
    assert type(err) is InvalidParameter
    assert err.name == "t"
    assert str(err) == "evolution time must be finite"
