"""The records that every IR is built of (`qbc.record`)."""

import math

import pytest

from qbc.ast_nodes import Num, PipeNode, Pos, VarNode
from qbc.bases import BasisVector, Prim
from qbc.qwir import QwOp
from qbc.record import replace


def test_records_compare_hash_assign_and_build_as_declared():
    # Source positions, `pos` and `bars`, take no part in equality or hash.
    a = PipeNode(VarNode("x", pos=Pos(1, 1)), (VarNode("f"),), (Pos(1, 3),))
    b = PipeNode(VarNode("x", pos=Pos(2, 5)), (VarNode("f"),), (Pos(2, 7),))
    assert a == b and hash(a) == hash(b)
    assert a != PipeNode(VarNode("y"), (VarNode("f"),), (Pos(1, 3),))
    assert Num(1, Pos(1, 1)) == Num(1) and Num(1) != Num(2)
    # A frozen record refuses assignment and deletion.
    with pytest.raises(AttributeError):
        a.value = VarNode("y")
    with pytest.raises(AttributeError):
        del a.fns
    # Each instance gets its own default list; a mutable record is
    # unhashable.
    first, second = QwOp("x"), QwOp("x")
    first.operands.append(0)
    assert second.operands == [] and first != second
    with pytest.raises(TypeError):
        hash(first)
    # replace keeps the fields it is not given, `pos` included.
    n = Num(3, Pos(4, 2))
    m = replace(n, value=5)
    assert (m.value, m.pos) == (5, Pos(4, 2)) and n.value == 3
    # repr shows the compared fields and leaves out positions.
    assert repr(Num(3, Pos(4, 2))) == "Num(value=3)"
    assert repr(a) == ("PipeNode(value=VarNode(name='x'), "
                       "fns=(VarNode(name='f'),))")
    # __post_init__ runs: a zero phase is stored as +0.0.
    v = BasisVector(Prim.STD, "01", -0.0)
    assert math.copysign(1.0, v.phase) == 1.0
    assert math.copysign(1.0, replace(v, eigenbits="10").phase) == 1.0
