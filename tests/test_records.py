"""burnkit's 14 record types behave as frozen dataclasses of the same fields.

Each type is compared with a ``dataclasses.make_dataclass(..., frozen=True)``
twin built here from the field names and defaults listed below, which are
the records' public shape.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from burnkit import (
    ApproxResult,
    BurnOutcome,
    BurnSchedule,
    D3PInstance,
    DiskArrangement,
    ExactResult,
    FirefightRun,
    GadgetCertificate,
    Graph,
    IntervalSet,
    PercolationRun,
    PermutationPair,
    SplitPartition,
    SubpathSpec,
    from_edge_list,
)

SCHEDULE = BurnSchedule(sources=(0,), burn_step=(1, 2), labels=("a", "b"))
EDGE = Graph(2, ((1,), (0,)))

# type: (valid field values in order, one field changed to another valid value)
SAMPLES = {
    ApproxResult: (
        {"sequence": (0, 2), "k": 2, "implied_lower": 1, "trace": ((1, 1, 1),)},
        ("k", 3),
    ),
    BurnSchedule: (
        {"sources": (0,), "burn_step": (1, 2), "labels": ("a", "b")},
        ("labels", ("a", None)),
    ),
    BurnOutcome: (
        {"valid": True, "complete": True, "schedule": SCHEDULE, "first_violation": None},
        ("first_violation", (1, "placed on a burned vertex")),
    ),
    ExactResult: ({"k": 2, "witness": SCHEDULE, "nodes_explored": 3}, ("nodes_explored", 4)),
    SplitPartition: (
        {"clique": frozenset({0, 1}), "independent": frozenset({2})},
        ("independent", frozenset({2, 3})),
    ),
    Graph: ({"n": 2, "adjacency": ((1,), (0,))}, ("adjacency", ((), ()))),
    IntervalSet: (
        {"intervals": ((Fraction(0), Fraction(1, 2)),)},
        ("intervals", ((Fraction(0), Fraction(1)),)),
    ),
    PermutationPair: ({"perm": (2, 1)}, ("perm", (1, 2))),
    DiskArrangement: (
        {"disks": ((Fraction(0), Fraction(0), Fraction(1)),)},
        ("disks", ((Fraction(0), Fraction(0), Fraction(2)),)),
    ),
    D3PInstance: (
        {"x": (7, 8, 9), "n": 1, "m": 9, "b": 24, "k": 6, "x_prime": (13, 15, 17),
         "b_prime": 45, "y": (1, 3, 5, 7, 9, 11)},
        ("k", 5),
    ),
    SubpathSpec: ({"label": "P1", "vertices": (0, 1)}, ("label", "P2")),
    GadgetCertificate: (
        {"kind": "ig", "graph": EDGE, "params": {"x": [7, 8, 9]}, "name_table": {"a": 0},
         "spine": (0, 1), "decomposition": (SubpathSpec("P1", (0, 1)),), "combs": None,
         "canonical_sequence": (0,), "claimed_k": 2,
         "intervals": IntervalSet(((Fraction(0), Fraction(1)),))},
        ("claimed_k", 3),
    ),
    FirefightRun: (
        {"origin": 0, "placements": (1,), "burned_steps": (frozenset({0}),),
         "protected": frozenset({1}), "saved": 1, "valid": True, "violation": None},
        ("saved", 2),
    ),
    PercolationRun: (
        {"seed": frozenset({0}), "threshold": 2, "timeline": (frozenset({0}),),
         "percolates": False},
        ("percolates", True),
    ),
}
DEFAULTS = {GadgetCertificate: {"intervals": None}}


def _twin(cls):
    defaults = DEFAULTS.get(cls, {})
    fields = [
        (name, object, dataclasses.field(default=defaults[name])) if name in defaults
        else (name, object)
        for name in SAMPLES[cls][0]
    ]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def _outcome(call):
    """What ``call()`` gives, as comparable data: its value or its exception type."""
    try:
        return call()
    except Exception as exc:  # the comparison is the test
        return type(exc)


@pytest.fixture(params=list(SAMPLES), ids=lambda cls: cls.__name__)
def pair(request):
    """A record type, its dataclass twin, the sample fields and the changed field."""
    cls = request.param
    return cls, _twin(cls), *SAMPLES[cls]


def test_repr_and_match_args(pair):
    cls, twin, values, _ = pair
    assert repr(cls(**values)) == repr(twin(**values))
    assert cls.__match_args__ == twin.__match_args__


def test_construction_by_position_keyword_or_both(pair):
    cls, _, values, _ = pair
    ordered = list(values.values())
    record = cls(*ordered)
    assert cls(**values) == record
    assert cls(*ordered[:1], **dict(list(values.items())[1:])) == record
    assert [getattr(record, name) for name in values] == ordered


def test_pickle_and_copy_round_trip(pair):
    cls, _, values, _ = pair
    record = cls(**values)
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.copy(record) == record and copy.deepcopy(record) == record


def test_equality_and_hash(pair):
    cls, twin, values, (name, changed) = pair
    other_cls = SubpathSpec if cls is not SubpathSpec else PermutationPair
    other_values = SAMPLES[other_cls][0]
    record, mirror = cls(**values), twin(**values)
    others = [
        (cls(**values), twin(**values)),
        (cls(**{**values, name: changed}), twin(**{**values, name: changed})),
        (other_cls(**other_values), _twin(other_cls)(**other_values)),
    ]
    for other, other_mirror in others:
        assert (record == other) == (mirror == other_mirror)
        assert (record != other) == (mirror != other_mirror)
    assert _outcome(lambda: hash(record)) == _outcome(lambda: hash(mirror))
    if cls is not GadgetCertificate:  # its dict fields make it unhashable, as its twin
        assert hash(record) == hash(cls(**values))


def test_assignment_and_deletion_raise(pair):
    cls, twin, values, (name, changed) = pair
    for record in (cls(**values), twin(**values)):
        for field in (name, "unrelated"):
            with pytest.raises(AttributeError):
                setattr(record, field, changed)
            with pytest.raises(AttributeError):
                delattr(record, field)
        assert getattr(record, name) == values[name]


def test_bad_arguments_raise_type_error(pair):
    cls, twin, values, _ = pair
    first, *rest = values
    calls = [
        lambda kind: kind(**{key: values[key] for key in rest}),  # missing
        lambda kind: kind(**values, unknown=0),
        lambda kind: kind(values[first], **values),  # repeated
        lambda kind: kind(*values.values(), 0),  # one too many
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call(cls)
        with pytest.raises(TypeError):
            call(twin)


def test_defaults():
    values = dict(SAMPLES[GadgetCertificate][0])
    del values["intervals"]
    twin = _twin(GadgetCertificate)
    assert GadgetCertificate(**values).intervals is None
    assert repr(GadgetCertificate(**values)) == repr(twin(**values))
    assert GadgetCertificate.intervals is twin.intervals is None


def test_match_by_position():
    match SCHEDULE:
        case BurnSchedule(sources, burn_step, labels):
            assert (sources, burn_step, labels) == ((0,), (1, 2), ("a", "b"))
        case _:
            pytest.fail("BurnSchedule did not match by position")


def test_graph_built_without_init_compares_and_caches():
    built = from_edge_list(2, [(0, 1)])
    assert built == EDGE and hash(built) == hash(EDGE)
    assert built._components == (frozenset({0, 1}),)
    assert built._components is built._components  # cached on first use
    assert built == EDGE and repr(built) == repr(EDGE)
