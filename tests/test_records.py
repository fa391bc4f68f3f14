"""The value and result types are immutable named tuples: the repr of the
old frozen dataclasses, the hash of the field tuple, read-only fields and
no instance dict, keyword construction with defaults, and validation in
the constructor."""

import pytest

from symdepth import (
    BettiTable,
    CharacteristicPoset,
    CheckResult,
    DegreePair,
    DepthWitness,
    HomologyProfile,
    Interval,
    IntervalPartition,
    MatroidReport,
    MonomialIdeal,
    SdepthResult,
    SequenceReport,
    SimplicialComplex,
    StabilityReport,
)

PARTITION = IntervalPartition((1, 1), (Interval((0, 1), (1, 1)),))

# (record, field names in order); the fields the program fills with dicts
# hold strings here, so that every record is hashable
RECORDS = [
    (MonomialIdeal(2, ((1, 1),)), "n gens"),
    (HomologyProfile(((1, 1),), 2), "dims char"),
    (SimplicialComplex(3, (3, 5, 6)), "n facets"),
    (DegreePair((0, 1), frozenset({0})), "alpha_plus cosupport"),
    (DepthWitness(1, "cross_check", 2, (0, 1), (0,), 0, 1, (1, 1)),
     "depth engine char alpha_plus cosupport homology_index betti_index "
     "betti_degree"),
    (BettiTable(2, ((0, (0, 0), 1), (1, (1, 1), 1))), "n entries"),
    (CharacteristicPoset(2, (1, 1), ((1, 1),), "ideal"), "n g points kind"),
    (Interval((0, 1), (1, 1)), "a b"),
    (PARTITION, "g intervals"),
    (SdepthResult("ideal", 2, (1, 1), PARTITION), "kind value g witness"),
    (SequenceReport("depth", 2, (1, 1), 0, "takayama"),
     "quantity kmax values char engine"),
    (StabilityReport("depth", 3, (2, 1, 1), 1, 2, 2, "tail", True, "matroid",
                     2, 12.5, 3),
     "quantity kmax values window_min first_attainment square_bound "
     "tail_guarantee certified certification_rule ell_s_estimate bight_bound "
     "char"),
    (CheckResult("depsym", False, ("k=1",), "k=2"),
     "name passed comparisons counterexample"),
    (MatroidReport(3, 1, 2, ("k=1",), True, True, 5),
     "n dim ell_s rows all_claims_hold degenerate char"),
]
IDS = [type(record).__name__ for record, _ in RECORDS]


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_repr_is_the_dataclass_form(record, fields):
    names = fields.split()
    assert record._fields == tuple(names)
    expected = ", ".join(f"{name}={getattr(record, name)!r}" for name in names)
    assert repr(record) == f"{type(record).__name__}({expected})"


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_hash_and_equality_are_the_field_tuple(record, fields):
    values = tuple(getattr(record, name) for name in fields.split())
    assert tuple(record) == values
    assert hash(record) == hash(values)
    assert record == values
    assert type(record)(*values) == record


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_read_only(record, fields):
    with pytest.raises(AttributeError):
        setattr(record, fields.split()[0], None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert not hasattr(record, "__dict__")


def test_keyword_construction_with_defaults():
    witness = DepthWitness(depth=1, engine="takayama", char=0)
    assert witness == (1, "takayama", 0, None, None, None, None, None)
    assert witness.to_dict() == {"depth": 1, "engine": "takayama", "char": 0}
    assert SdepthResult("quotient", 0).to_dict() == {
        "kind": "quotient", "value": 0}
    report = StabilityReport(
        quantity="depth", kmax=1, values=(1,), window_min=1,
        first_attainment=1, square_bound=1, tail_guarantee="t",
        certified=False, certification_rule="r")
    assert (report.ell_s_estimate, report.bight_bound, report.char) == (
        None, None, 0)
    assert CheckResult(name="c", passed=True, comparisons=()).counterexample \
        is None
    matroid = MatroidReport(n=1, dim=0, ell_s=0, rows=(), all_claims_hold=True)
    assert (matroid.degenerate, matroid.char) == (False, 0)


def test_constructors_validate():
    with pytest.raises(ValueError, match="disjoint"):
        DegreePair((1, 0), frozenset({0}))
    with pytest.raises(ValueError, match="disjoint"):
        DegreePair(alpha_plus=(0, 2), cosupport=frozenset({1}))
    for index in (7, 3, -1, "0", 1.0):
        with pytest.raises(ValueError, match="cosupport indices"):
            DegreePair((0, 0, 0), frozenset({index}))
    assert DegreePair((0, 0, 0), frozenset({0, 2})).cosupport == {0, 2}
    with pytest.raises(ValueError, match="out of order"):
        Interval((1, 0), (0, 1))
    with pytest.raises(ValueError, match="out of order"):
        Interval(a=(0, 2), b=(0, 1))
    pair = DegreePair(alpha_plus=(0, 1), cosupport=frozenset({0}))
    assert pair == DegreePair((0, 1), frozenset({0}))
    assert pair == ((0, 1), frozenset({0}))


def test_degree_pair_fields_are_canonical_and_hashable():
    # any iterable cosupport is stored as a frozenset, alpha_plus as a tuple
    for cosupport in ((0, 2), [0, 2], {0, 2}, frozenset({0, 2})):
        pair = DegreePair((0, 1, 0), cosupport)
        assert type(pair.cosupport) is frozenset
        assert pair == ((0, 1, 0), frozenset({0, 2}))
        assert hash(pair) == hash(((0, 1, 0), frozenset({0, 2})))
    pair = DegreePair([0, 1, 0], {0})
    assert type(pair.alpha_plus) is tuple and hash(pair) == hash(
        ((0, 1, 0), frozenset({0})))
    # booleans are not indices, as in formats._json_int
    for index in (True, False):
        with pytest.raises(ValueError, match="cosupport indices"):
            DegreePair((0, 0, 0), frozenset({index}))
    # negative or non-integer exponents fail here, not later
    for alpha_plus in ((0, -1, 0), (0, 1.0, 0), (0, "1", 0), (True, 0, 0),
                       (0, False, 0)):
        with pytest.raises(ValueError, match="nonnegative integers"):
            DegreePair(alpha_plus, frozenset())
    with pytest.raises(ValueError, match="nonnegative integers"):
        DegreePair((True, 0, 0), {1})
