"""The precomputed event flattener equals ``dataclasses.asdict``.

``event_payload`` replaced ``asdict`` on every record path (JSONL
export, bus frames, flight dumps), so the byte-identity guarantees of
those paths rest on one property: for an instance of every class in
``EVENT_TYPES`` the flattener returns the same values, of the same
types, with the same JSON text — and fresh copies of every mutable
part, as ``asdict`` does.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import types
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.events import (
    EVENT_TYPES,
    FaultInjected,
    Holder,
    event_payload,
    event_record,
)

_SCALARS = {
    int: st.integers(),
    float: st.floats(allow_nan=False),
    str: st.text(max_size=6),
    bool: st.booleans(),
    type(None): st.none(),
}

#: ``FaultInjected.detail``: nested JSON-ready dicts and lists.
_DETAIL = st.dictionaries(
    st.text(max_size=4),
    st.recursive(
        st.none() | st.integers() | st.floats(allow_nan=False)
        | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=8,
    ),
    max_size=3,
)


def _strategy(hint):
    origin = typing.get_origin(hint)
    if origin in (types.UnionType, typing.Union):
        args = typing.get_args(hint)
        return st.one_of(*(_strategy(arg) for arg in args))
    if origin is tuple:
        element = typing.get_args(hint)[0]
        return st.lists(_strategy(element), max_size=4).map(tuple)
    if hint is dict:
        return _DETAIL
    if dataclasses.is_dataclass(hint):
        return _instances(hint)
    return _SCALARS[hint]


def _instances(cls):
    """Every field drawn, defaulted ones included."""
    hints = typing.get_type_hints(cls)
    return st.builds(
        cls,
        **{
            f.name: _strategy(hints[f.name])
            for f in dataclasses.fields(cls)
        },
    )


def _same_types(left, right) -> bool:
    if type(left) is not type(right):
        return False
    if isinstance(left, dict):
        return list(left) == list(right) and all(
            _same_types(left[k], right[k]) for k in left
        )
    if isinstance(left, (tuple, list)):
        return all(_same_types(a, b) for a, b in zip(left, right))
    return True


@pytest.mark.parametrize("kind", sorted(EVENT_TYPES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_payload_equals_asdict(kind, data):
    event = data.draw(_instances(EVENT_TYPES[kind]))
    payload = event_payload(event)
    expected = dataclasses.asdict(event)
    assert payload == expected
    assert _same_types(payload, expected)
    assert json.dumps(payload, sort_keys=True) == json.dumps(
        expected, sort_keys=True
    )
    # Key order too: JSONL lines are written without sort_keys.
    assert json.dumps(payload) == json.dumps(expected)


@pytest.mark.parametrize("kind", sorted(EVENT_TYPES))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_record_is_stamp_then_payload(kind, data):
    event = data.draw(_instances(EVENT_TYPES[kind]))
    seq = data.draw(st.integers(min_value=0))
    t = data.draw(st.floats(allow_nan=False))
    record = event_record(seq, t, event)
    expected = {"seq": seq, "t": t, "kind": kind}
    expected.update(dataclasses.asdict(event))
    assert json.dumps(record) == json.dumps(expected)


def test_holder_tuples_and_int_tuples_flatten_like_asdict():
    cases = [
        EVENT_TYPES["lock.defer"](
            pid=1, incarnation=0, timestamp=2, request="regular",
            activity=None, uid=None, mode=None, reason="r", rule="x",
            blockers=(Holder(3, 4, "CP"), Holder(5, 6)),
        ),
        EVENT_TYPES["lock.cascade"](
            pid=1, incarnation=0, timestamp=2, request="commit",
            activity=None, uid=None, mode=None,
            victims=(Holder(7, 1),),
        ),
        EVENT_TYPES["wait.edge"](
            op="insert", waiter=1, blockers=(2, 3), seq=0,
            request="regular", activity="a", reason="r",
        ),
        EVENT_TYPES["deadlock.victim"](pid=2, cycle=(2, 3, 2)),
    ]
    for event in cases:
        payload = event_payload(event)
        assert payload == dataclasses.asdict(event)
        assert _same_types(payload, dataclasses.asdict(event))


@settings(max_examples=60, deadline=None)
@given(detail=_DETAIL)
def test_mutating_payload_detail_leaves_event_alone(detail):
    event = FaultInjected(channel="failure", detail=detail)
    before = copy.deepcopy(event.detail)
    payload = event_payload(event)
    assert payload["detail"] == before
    payload["detail"]["__added__"] = [1]
    for value in payload["detail"].values():
        if isinstance(value, dict):
            value["__nested__"] = 0
        elif isinstance(value, list):
            value.append(0)
    assert event.detail == before
