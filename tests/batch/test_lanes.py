"""Lane-vector engine tests: the pure engine is exact by construction
and the NumPy fast path is exactly the pure engine, or it must not
fire at all."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.batch.lanes import (
    MASK64,
    NumpyOps,
    PurePythonOps,
    _all_of_type,
    _all_u64,
    make_ops,
)

np = pytest.importorskip("numpy")

BINOPS = ["add", "sub", "and", "or", "xor", "shl", "shr", "mul",
          "div"]
IMMOPS = ["addi", "subi", "andi", "ori", "xori", "shli", "shri"]

#: Values the scalar core can actually put in an int register:
#: anything ``li`` loads (arbitrary Python ints) plus every masked
#: ALU result.
_ints = st.one_of(
    st.integers(min_value=0, max_value=MASK64),
    st.integers(min_value=-(1 << 70), max_value=1 << 70),
    st.sampled_from([0, 1, MASK64, 1 << 64, -1, 1 << 63]),
)


def _scalar_binop(op, x, y):
    """The scalar core's own expression (core._execute_alu)."""
    if op == "add":
        return (x + y) & MASK64
    if op == "sub":
        return (x - y) & MASK64
    if op == "and":
        return x & y
    if op == "or":
        return x | y
    if op == "xor":
        return x ^ y
    if op == "shl":
        return (x << (y & 63)) & MASK64
    if op == "shr":
        return (x & MASK64) >> (y & 63)
    if op == "mul":
        return (x * y) & MASK64
    assert op == "div"
    return (x // y) & MASK64 if y else 0


@pytest.fixture(params=["pure", "numpy"])
def ops(request):
    return make_ops(request.param)


@given(op=st.sampled_from(BINOPS),
       pairs=st.lists(st.tuples(_ints, _ints), min_size=1,
                      max_size=12))
def test_binop_matches_scalar_expression(op, pairs):
    for ops in (PurePythonOps(), NumpyOps(np)):
        a = [x for x, _ in pairs]
        b = [y for _, y in pairs]
        expected = [_scalar_binop(op, x, y) for x, y in pairs]
        assert ops.binop(op, a, b) == expected


@given(op=st.sampled_from(IMMOPS),
       vec=st.lists(_ints, min_size=1, max_size=12),
       imm=st.integers(min_value=-(1 << 20), max_value=1 << 65))
def test_immop_matches_scalar_expression(op, vec, imm):
    base = {"addi": "add", "subi": "sub", "andi": "and",
            "ori": "or", "xori": "xor", "shli": "shl",
            "shri": "shr"}[op]
    expected = [_scalar_binop(base, x, imm) for x in vec]
    for ops in (PurePythonOps(), NumpyOps(np)):
        assert ops.immop(op, vec, imm) == expected


def test_fdiv_zero_convention(ops):
    out = ops.binop("fdiv", [1.0, -2.0, 0.0, 6.0],
                    [0.0, 0.0, 0.0, 3.0])
    assert out == [math.inf, -math.inf, 0.0, 2.0]


def test_float_ops_stay_on_pure_path(ops):
    a, b = [1.5, 2.5, 3.5, 4.5], [0.5] * 4
    assert ops.binop("fadd", a, b) == [2.0, 3.0, 4.0, 5.0]
    assert ops.binop("fmul", a, b) == [0.75, 1.25, 1.75, 2.25]


def test_unknown_op_raises(ops):
    with pytest.raises(ValueError):
        ops.binop("nope", [1], [2])
    with pytest.raises(ValueError):
        ops.immop("nope", [1], 2)


class _TrappingNumpyOps(NumpyOps):
    """NumpyOps that records whether the fast path fired."""

    def __init__(self, np_module, min_lanes=4):
        super().__init__(np_module, min_lanes)
        self.fast_calls = 0

    def _u64_binop(self, op, av, bv):
        self.fast_calls += 1
        return super()._u64_binop(op, av, bv)

    def _u64_immop(self, op, av, imm):
        self.fast_calls += 1
        return super()._u64_immop(op, av, imm)


def test_numpy_guard_rejects_out_of_range_elements():
    ops = _TrappingNumpyOps(np)
    bignum = [1 << 64, 1, 2, 3]
    negative = [-1, 1, 2, 3]
    bools = [True, False, True, False]
    in_range = [1, 2, 3, 4]
    # Floats never qualify for the uint64 path (they would silently
    # truncate); the guard rejects them before any arithmetic runs.
    assert ops._as_u64([1.0, 2.0, 3.0, 4.0]) is None
    for bad in (bignum, negative, bools):
        assert (ops.binop("add", bad, in_range)
                == PurePythonOps().binop("add", bad, in_range))
        assert (ops.immop("addi", bad, 1)
                == PurePythonOps().immop("addi", bad, 1))
    assert ops.fast_calls == 0
    ops.binop("add", in_range, in_range)
    assert ops.fast_calls == 1


@given(st.lists(st.one_of(_ints, st.booleans(), st.floats()),
                min_size=1, max_size=8))
def test_whole_vector_checks_match_the_per_lane_loop(vec):
    """The C-speed checks behind the fleet's identity fast paths agree
    with the per-element predicates they replace (bools are not
    ints)."""
    assert _all_u64(vec) == all(type(x) is int and 0 <= x <= MASK64
                                for x in vec)
    for cls in (int, float):
        assert _all_of_type(vec, cls) == all(type(x) is cls for x in vec)


def test_numpy_guard_rejects_short_vectors_and_fp_ops():
    ops = _TrappingNumpyOps(np, min_lanes=4)
    ops.binop("add", [1, 2], [3, 4])          # too short
    ops.binop("div", [8, 8, 8, 8], [2, 0, 2, 2])   # excluded op
    ops.binop("fadd", [1.0] * 4, [2.0] * 4)   # fp op
    ops.immop("andi", [1, 2, 3, 4], -5)       # out-of-range imm
    assert ops.fast_calls == 0
    ops.immop("addi", [1, 2, 3, 4], -5)       # wraparound-safe imm
    assert ops.fast_calls == 1


def test_make_ops_selection(monkeypatch):
    monkeypatch.delenv("REPRO_NO_NUMPY", raising=False)
    assert make_ops("pure").name == "pure"
    assert make_ops("numpy").name == "numpy"
    assert make_ops().name == "numpy"
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    assert make_ops().name == "pure"
    # Explicit request still overrides the environment knob.
    assert make_ops("numpy").name == "numpy"
    with pytest.raises(ValueError):
        make_ops("simd")
