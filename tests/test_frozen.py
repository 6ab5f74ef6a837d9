"""Every value class refuses change after construction, to assignment and
to deletion alike, through the one frozen base in scalars."""

import pytest

from mosva.correlators import correlate
from mosva.expansion import RationalFn
from mosva.factory import build_heisenberg
from mosva.graded import DualVec, Vec, basis_dual
from mosva.laurent import LaurentPoly


@pytest.fixture(scope="module")
def values():
    """One instance of each value class, with an attribute it holds."""
    alg, fock = build_heisenberg(level=1, cutoff=3)
    a1 = alg.basis_vec("a1")
    z = LaurentPoly.variable("z")
    series = correlate(alg, basis_dual(alg.space, "a2"), [(a1, "z1"), (a1, "z2")],
                       alg.basis_vec("vac"))
    return {
        "GradedSpace": (alg.space, "cutoff"),
        "_Entries": (a1, "entries"),
        "GradedOp": (alg.D, "action"),
        "VertexMap": (alg.Y, "absent"),
        "AlgebraInstance": (alg, "Y"),
        "ModuleInstance": (fock, "YL"),
        "LaurentPoly": (z, "terms"),
        "CorrelationSeries": (series, "coefficients"),
        "RationalFn": (RationalFn(("z",), z), "numerator"),
    }


CLASSES = ["GradedSpace", "_Entries", "GradedOp", "VertexMap", "AlgebraInstance",
           "ModuleInstance", "LaurentPoly", "CorrelationSeries", "RationalFn"]


@pytest.mark.parametrize("name", CLASSES)
def test_a_value_refuses_assignment_and_deletion(values, name):
    obj, attr = values[name]
    held = getattr(obj, attr)
    message = f"{type(obj).__name__} is immutable"
    with pytest.raises(AttributeError, match=message):
        setattr(obj, attr, held)
    with pytest.raises(AttributeError, match=message):
        delattr(obj, attr)
    with pytest.raises(AttributeError, match=message):
        obj.stray = 1
    assert getattr(obj, attr) is held


@pytest.mark.parametrize("cls", [Vec, DualVec])
def test_vectors_carry_slots_alone(values, cls):
    space = values["GradedSpace"][0]
    v = cls(space, {"a1": 1})
    assert not hasattr(v, "__dict__") and not hasattr(v, "__weakref__")
    with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
        del v.space
