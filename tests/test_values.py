"""The value classes and the report records.

``Multiset`` and ``BlockVector`` are immutable, equal and hashed by value,
unordered and not tuples; the eight report records are immutable named
tuples. None of them needs ``dataclasses``, so a CLI run imports neither it
nor the ``inspect`` machinery behind it.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import pomsetblock as pb
from pomsetblock import Multiset, antichain_space, chain_space

SRC = Path(__file__).resolve().parent.parent / "src"


def test_the_cli_imports_no_dataclasses_inspect_or_typing():
    code = ("import sys, pomsetblock.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-S", "-c", code],
                         env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


SPACE = chain_space(5, (1, 1))
VALUES = {
    "multiset": (lambda: Multiset(2, 2, (1, 2)), lambda: Multiset(2, 2, (2, 1)),
                 "Multiset('1/1 2/2', n=2, height=2)", ("n", "height", "counts")),
    "vector": (lambda: SPACE.vector((7, 1)), lambda: SPACE.vector((1, 2)),
               "BlockVector('2 1')", ("space", "coords")),
}


@pytest.mark.parametrize("make, make_other, text, fields", VALUES.values(),
                         ids=VALUES.keys())
class TestValueClass:
    def test_fields_cannot_be_set_or_deleted(self, make, make_other, text, fields):
        value = make()
        for name in fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
        for name in fields:
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert value == make()

    def test_unordered(self, make, make_other, text, fields):
        with pytest.raises(TypeError):
            make() < make_other()

    def test_equal_values_hash_alike(self, make, make_other, text, fields):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != make_other()
        assert len({a, b, make_other()}) == 2

    def test_not_a_tuple(self, make, make_other, text, fields):
        value = make()
        assert not isinstance(value, tuple)
        assert value != tuple(getattr(value, name) for name in fields)

    def test_repr(self, make, make_other, text, fields):
        assert repr(make()) == text

    def test_pickles(self, make, make_other, text, fields):
        assert pickle.loads(pickle.dumps(make())) == make()


IDEAL = SPACE.pomset.ideals_of_cardinality(2)[0]
RECORDS = [
    (pb.FullCountBallReport,
     dict(coordinate_form=True, perp_equals_dual_ball=False), "ok", False),
    (pb.PerfectnessCertificate,
     dict(disjoint=True, covering=True, overlap=None, uncovered=None),
     "is_perfect", True),
    (pb.PerpDualityReport, dict(code_perfect=False, dual_perfect=False),
     "holds", True),
    (pb.SingletonReport, dict(d=3, r=1, prefix_len=1, rhs=1), "is_mds", True),
    (pb.MetricComparisonReport,
     dict(pomset_mds=True, poset_mds=False, floor_inequality=True),
     "implication_holds", False),
    (pb.PerfectMdsBridge, dict(ideal=IDEAL, mds=True, i_perfect=False),
     "mds_implies_perfect", False),
    (pb.DualityReport,
     dict(mds_primal=True, perfect_primal=True, perfect_dual=True, mds_dual=False),
     "all_equal", False),
    (pb.WeightDistribution,
     dict(space=antichain_space(5, (1,)), shells=(1, 2, 2)), None, None),
]


@pytest.mark.parametrize("cls, fields, prop, expected", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record(cls, fields, prop, expected):
    record = cls(**fields)
    assert record._fields == tuple(fields)
    assert record == tuple(fields.values()) == cls(*fields.values())
    for name, value in fields.items():
        assert getattr(record, name) is value
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.extra = 0
    if prop is not None:
        assert getattr(record, prop) is expected
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in fields.items()) + ")"
