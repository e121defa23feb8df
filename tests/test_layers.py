import ast
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

import povmlab
from povmlab import ensemble, solver
from povmlab.solver import initial_povm

PACKAGE = Path(povmlab.__file__).parent


def _imported_modules(tree: ast.AST) -> set[str]:
    """The povmlab modules a module's source imports, wherever the import
    statement sits: at module level, in a function or under TYPE_CHECKING."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            found.add(base)
            # "from . import solver" and "from povmlab import solver" name it as an attribute
            found.update(f"{base}.{alias.name}" for alias in node.names)
    modules = {name.removeprefix("povmlab").lstrip(".").split(".")[0]
               for name in found if name.startswith((".", "povmlab"))}
    return modules - {""}


@pytest.mark.parametrize("module", ["hermitian", "ensemble", "bounds", "certificate", "fileio"])
def test_data_layer_does_not_import_the_solver_or_cli(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    assert not _imported_modules(tree) & {"solver", "cli"}


def test_povm_has_one_class():
    assert povmlab.Povm is ensemble.Povm is solver.Povm


def test_pickle_naming_the_solver_module_loads_a_read_only_povm():
    # pickles written while Povm lived in povmlab.solver name it there
    povm = initial_povm(ensemble.symmetric_qubit_pair(0.9, math.pi / 4), 0.2)
    data = pickle.dumps(povm, protocol=0)
    old = data.replace(b"cpovmlab.ensemble\nPovm", b"cpovmlab.solver\nPovm")
    assert old != data
    twin = pickle.loads(old)
    assert type(twin) is ensemble.Povm
    assert np.array_equal(twin.elements, povm.elements)
    assert not twin.elements.flags.writeable
    with pytest.raises(AttributeError):
        twin.elements = povm.elements
