"""The record classes are immutable values: a field can be neither set nor
deleted, records of one class with equal fields are equal and hash alike,
a record never equals an object of another class with the same fields,
construction by keyword and the defaults work, and repr names the class
and its fields."""

from types import SimpleNamespace

import pytest

from midconv.checks import CheckResult
from midconv.datum import Block, Datum, MomentValue
from midconv.exactalg import Matrix, gr
from midconv.functors import OkuboTriple
from midconv.normalform import NormalForm, SpectralBlock
from midconv.rigidity import ReductionStep, ReductionTrace
from midconv.systems import PrincipalPart, System, TruncatedGauge


def one(x) -> Matrix:
    return Matrix.from_rows([[x]])


def fields() -> dict:
    """Each record class -> the fields of one instance, by keyword in order."""
    part = PrincipalPart(gr(1), (one(2),))
    sys_ = System(1, one(0), (part,))
    block = Block(gr(0), Matrix.zeros(1, 1), one(1), one(3))
    step = ReductionStep(alpha=sys_, lam=gr(1), rank_before=2, rank_after=1, result=sys_)
    spectral = SpectralBlock(tail=(gr(1),), gamma=one(2))
    return {
        PrincipalPart: {"point": gr(1), "coefficients": (one(2),)},
        System: {"dimension": 1, "constant": one(0), "parts": (part,), "declaration": None},
        TruncatedGauge: {"point": gr(1), "coefficients": (one(1), one(5))},
        Block: {"point": gr(0), "nilpotent": Matrix.zeros(1, 1), "q": one(1), "p": one(3)},
        Datum: {"dim_v": 1, "blocks": (block,), "s_matrix": one(0)},
        MomentValue: {"entries": ((gr(0), one(-3), (gr(-3),)),)},
        OkuboTriple: {"t_matrix": one(1), "r_matrix": one(2)},
        SpectralBlock: {"tail": (gr(1),), "gamma": one(2)},
        NormalForm: {"k": 2, "blocks": (spectral,)},
        ReductionStep: {"alpha": sys_, "lam": gr(1), "rank_before": 2, "rank_after": 1, "result": sys_},
        ReductionTrace: {"steps": (step,)},
        CheckResult: {"name": "moment", "passed": True, "trials": 3, "detail": "ok"},
    }


RECORDS = list(fields())


def test_every_record_class_is_covered():
    assert len(RECORDS) == 12


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_fields_can_be_neither_set_nor_deleted(cls):
    kwargs = fields()[cls]
    record = cls(**kwargs)
    for name in (*kwargs, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for name in kwargs:
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == kwargs[name]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_equal_fields_give_equal_records_with_equal_hashes(cls):
    # two independent builds: the fields are equal, not identical
    a, b = cls(**fields()[cls]), cls(**fields()[cls])
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_a_record_never_equals_another_class_with_the_same_fields(cls):
    kwargs = fields()[cls]
    record = cls(**kwargs)
    for other in (SimpleNamespace(**kwargs), tuple(kwargs.values()), kwargs):
        assert record != other and other != record
        assert not record == other


def test_records_with_the_same_fields_of_two_classes_differ():
    # a principal part and a gauge element both have (point, coefficients)
    coeffs = (one(1), one(5))
    assert PrincipalPart(gr(1), coeffs) != TruncatedGauge(gr(1), coeffs)
    assert TruncatedGauge(gr(1), coeffs) != PrincipalPart(gr(1), coeffs)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_positional_and_keyword_construction_agree(cls):
    kwargs = fields()[cls]
    assert cls(*kwargs.values()) == cls(**kwargs)


def test_defaults():
    sys_ = System(2, Matrix.zeros(2, 2))
    assert (sys_.parts, sys_.declaration) == ((), None)
    datum = Datum(2)
    assert (datum.blocks, datum.s_matrix) == ((), Matrix.zeros(2, 2))
    assert CheckResult("moment", False, 1).detail == ""


def test_fields_are_stored_normalized():
    part = PrincipalPart(1, [one(2)])
    assert part.point == gr(1) and part.coefficients == (one(2),)
    sys_ = System(1, one(0), [PrincipalPart(2, (one(1),)), part], [(0, 1)])
    assert [p.point for p in sys_.parts] == [gr(1), gr(2)]
    assert sys_.parts == (part, PrincipalPart(2, (one(1),))) and sys_.declaration == ((gr(0), 1),)
    assert Block(0, Matrix.zeros(1, 1), one(1), one(3)).point == gr(0)
    assert NormalForm(1, [SpectralBlock((), one(2))]).blocks == (SpectralBlock((), one(2)),)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_repr_names_the_class_and_its_fields(cls):
    kwargs = fields()[cls]
    text = repr(cls(**kwargs))
    assert text.startswith(f"{cls.__name__}(") and text.endswith(")")
    positions = [text.index(f"{', ' if i else '('}{name}=") for i, name in enumerate(kwargs)]
    assert positions == sorted(positions)
    assert repr(cls(**kwargs)) == text
