"""The wire protocol: framing, value documents, and structured errors.

Pure codec tests — no sockets.  The load-bearing properties: any byte
split decodes identically (the stream owes the decoder nothing), malformed
input raises typed :class:`ProtocolError` and poisons the decoder, and the
error taxonomy round-trips **structurally** (``retry_after`` and meter
readings survive as fields, not message prose).
"""

from __future__ import annotations

import json
import struct
import zlib

import pytest

from repro.db.values import DBTuple, RelationId, TupleSet
from repro.errors import (
    BudgetExceeded,
    Cancelled,
    CheckabilityError,
    CircuitOpen,
    ConstraintViolation,
    EvaluationError,
    ExecutabilityError,
    Overloaded,
    ParseError,
    ProtocolError,
    ReproError,
    ResourceError,
    RetryExhausted,
    SchedulerClosed,
    SchemaError,
    SessionClosed,
    SortError,
    TransactionConflict,
)
from repro.server.protocol import (
    FRAME_MAGIC,
    MAX_FRAME_PAYLOAD,
    PROTOCOL_VERSION,
    FrameDecoder,
    encode_message,
    error_from_doc,
    error_to_doc,
    value_from_doc,
    value_to_doc,
)


def frame_of(payload: bytes) -> bytes:
    """A hand-rolled frame around arbitrary payload bytes."""
    return (
        FRAME_MAGIC
        + struct.pack(">I", len(payload))
        + struct.pack(">I", zlib.crc32(payload) & 0xFFFFFFFF)
        + payload
    )


class TestFraming:
    def test_round_trip_one_frame(self):
        doc = {"type": "EXECUTE", "id": 3, "program": "hire", "args": [1, "a"]}
        assert FrameDecoder().feed(encode_message(doc)) == [doc]

    def test_any_byte_split_decodes_identically(self):
        doc = {"type": "QUERY", "id": 9, "program": "headcount", "args": []}
        data = encode_message(doc)
        for cut in range(len(data) + 1):
            decoder = FrameDecoder()
            messages = decoder.feed(data[:cut])
            messages += decoder.feed(data[cut:])
            assert messages == [doc], f"split at {cut}"

    def test_byte_at_a_time(self):
        doc = {"type": "CLOSE", "id": 1}
        decoder = FrameDecoder()
        messages: list = []
        for i in range(len(encode_message(doc))):
            messages += decoder.feed(encode_message(doc)[i : i + 1])
        assert messages == [doc]

    def test_many_frames_in_one_feed(self):
        docs = [{"type": "EXECUTE", "id": i} for i in range(5)]
        blob = b"".join(encode_message(d) for d in docs)
        assert FrameDecoder().feed(blob) == docs

    def test_trailing_partial_frame_is_held_back(self):
        a = encode_message({"type": "HELLO", "id": 1})
        b = encode_message({"type": "CLOSE", "id": 2})
        decoder = FrameDecoder()
        assert decoder.feed(a + b[:4]) == [{"type": "HELLO", "id": 1}]
        assert decoder.feed(b[4:]) == [{"type": "CLOSE", "id": 2}]

    def test_version_constant_is_wire_visible(self):
        assert isinstance(PROTOCOL_VERSION, int) and PROTOCOL_VERSION >= 1


class TestMalformedFrames:
    def test_bad_marker(self):
        with pytest.raises(ProtocolError, match="marker"):
            FrameDecoder().feed(b"XXxxxxxxxxxx")

    def test_crc_mismatch(self):
        data = bytearray(encode_message({"type": "CLOSE", "id": 1}))
        data[-1] ^= 0xFF
        with pytest.raises(ProtocolError, match="CRC"):
            FrameDecoder().feed(bytes(data))

    def test_implausible_length(self):
        header = FRAME_MAGIC + struct.pack(">I", MAX_FRAME_PAYLOAD + 1)
        header += struct.pack(">I", 0)
        with pytest.raises(ProtocolError, match="length"):
            FrameDecoder().feed(header)

    def test_undecodable_payload(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            FrameDecoder().feed(frame_of(b"\xff\xfe not json"))

    def test_untyped_message(self):
        with pytest.raises(ProtocolError, match="typed"):
            FrameDecoder().feed(frame_of(json.dumps([1, 2, 3]).encode()))
        with pytest.raises(ProtocolError, match="typed"):
            FrameDecoder().feed(frame_of(json.dumps({"id": 1}).encode()))

    def test_poisoned_decoder_stays_poisoned(self):
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(b"XX garbage")
        with pytest.raises(ProtocolError, match="poisoned"):
            decoder.feed(encode_message({"type": "CLOSE", "id": 1}))

    def test_oversized_message_refused_at_encode_time(self):
        with pytest.raises(ProtocolError, match="frame limit"):
            encode_message({"type": "BATCH", "blob": "x" * (MAX_FRAME_PAYLOAD + 1)})

    def test_decoder_honors_a_smaller_limit(self):
        frame = encode_message({"type": "HELLO", "pad": "y" * 128})
        with pytest.raises(ProtocolError, match="length"):
            FrameDecoder(max_payload=64).feed(frame)


class TestValueDocuments:
    def test_atoms_round_trip(self):
        for atom in (0, -3, 120, "alice", ""):
            assert value_from_doc(value_to_doc(atom)) == atom

    def test_tuple_keeps_its_identifier(self):
        t = DBTuple(41, ("alice", "cs", 120))
        back = value_from_doc(value_to_doc(t))
        assert back == t and back.tid == 41

    def test_tuple_set_round_trips_with_tids(self):
        ts = TupleSet.of(
            2, [DBTuple(5, ("a", 1)), DBTuple(3, ("b", 2))]
        )
        back = value_from_doc(value_to_doc(ts))
        assert isinstance(back, TupleSet)
        assert back.arity == 2
        assert {t.tid for t in back} == {3, 5}
        key = lambda t: t.tid
        assert sorted(back, key=key) == sorted(ts, key=key)

    def test_single_row_projection_round_trips(self):
        """A projection's rows are fresh tuples: no identifier."""
        ts = TupleSet.of(1, [DBTuple(None, ("alice",))])
        doc = value_to_doc(ts)
        assert doc["rows"] == [[None, ["alice"]]]
        back = value_from_doc(json.loads(json.dumps(doc)))
        assert back == ts
        assert [t.tid for t in back] == [None]

    def test_multi_row_projection_round_trips(self):
        ts = TupleSet.of(
            2,
            [
                DBTuple(None, ("b", 2)),
                DBTuple(None, ("a", 9)),
                DBTuple(None, ("a", 1)),
            ],
        )
        doc = value_to_doc(ts)
        # Deterministic order: by value among unidentified rows.
        assert [row[1] for row in doc["rows"]] == [["a", 1], ["a", 9], ["b", 2]]
        back = value_from_doc(json.loads(json.dumps(doc)))
        assert back.elements == ts.elements
        assert all(t.tid is None for t in back)

    def test_mixed_identified_and_fresh_rows(self):
        ts = TupleSet.of(1, [DBTuple(None, ("z",)), DBTuple(4, ("y",))])
        doc = value_to_doc(ts)
        assert doc["rows"] == [[4, ["y"]], [None, ["z"]]]
        back = value_from_doc(doc)
        assert {(t.tid, t.values) for t in back} == {(4, ("y",)), (None, ("z",))}

    def test_fresh_tuple_round_trips(self):
        t = DBTuple(None, ("alice", 3))
        back = value_from_doc(value_to_doc(t))
        assert back == t and back.tid is None

    def test_relation_id_round_trips_with_arity(self):
        rid = RelationId("EMP", 5)
        back = value_from_doc(value_to_doc(rid))
        assert back == rid and back.arity == 5

    def test_bool_has_no_wire_encoding(self):
        with pytest.raises(ProtocolError):
            value_to_doc(True)

    def test_unknown_kind_raises(self):
        with pytest.raises(ProtocolError, match="unknown value kind"):
            value_from_doc({"k": "frobnicator"})

    def test_malformed_document_raises(self):
        with pytest.raises(ProtocolError, match="malformed"):
            value_from_doc({"k": "tuple"})  # missing tid/values


class TestErrorDocuments:
    def round_trip(self, err: ReproError) -> ReproError:
        doc = error_to_doc(err)
        # Errors must survive the actual wire, not just the dict.
        [frame] = FrameDecoder().feed(
            encode_message({"type": "ERROR", "id": 1, "error": doc})
        )
        return error_from_doc(frame["error"])

    def test_overloaded_keeps_its_governance_fields(self):
        back = self.round_trip(Overloaded(depth=65, limit=64, retry_after=0.125))
        assert isinstance(back, Overloaded)
        assert (back.depth, back.limit) == (65, 64)
        assert back.retry_after == pytest.approx(0.125)

    def test_circuit_open_keeps_retry_after(self):
        back = self.round_trip(CircuitOpen(retry_after=0.25, detail="storm"))
        assert isinstance(back, CircuitOpen)
        assert back.retry_after == pytest.approx(0.25)

    def test_budget_exceeded_keeps_the_meter_reading(self):
        back = self.round_trip(BudgetExceeded("foreach", 100, 101))
        assert isinstance(back, BudgetExceeded)
        assert (back.resource, back.limit, back.used) == ("foreach", 100, 101)

    def test_cancelled_keeps_the_reason(self):
        back = self.round_trip(Cancelled("cancelled by client"))
        assert isinstance(back, Cancelled)
        assert back.reason == "cancelled by client"

    def test_session_and_scheduler_closed(self):
        assert isinstance(
            self.round_trip(SessionClosed("gone")), SessionClosed
        )
        assert isinstance(self.round_trip(SchedulerClosed()), SchedulerClosed)

    def test_constraint_violation_names_the_constraint(self):
        back = self.round_trip(
            ConstraintViolation("salary-cap", "overpaid")
        )
        assert isinstance(back, ConstraintViolation)
        assert back.constraint_name == "salary-cap"

    def test_conflict_family(self):
        back = self.round_trip(RetryExhausted("hire", {"EMP"}, 5))
        assert isinstance(back, RetryExhausted)
        assert back.attempts == 5 and "EMP" in back.relations
        back = self.round_trip(TransactionConflict("hire", {"EMP"}, "beaten"))
        assert isinstance(back, TransactionConflict)

    def test_protocol_error_round_trips(self):
        back = self.round_trip(ProtocolError("bad frame marker"))
        assert isinstance(back, ProtocolError)
        assert "marker" in str(back)

    @pytest.mark.parametrize(
        "cls",
        [
            ExecutabilityError,
            CheckabilityError,
            ParseError,
            SchemaError,
            SortError,
            EvaluationError,
            ResourceError,
        ],
    )
    def test_simple_kinds_keep_their_class(self, cls):
        back = self.round_trip(cls("the message"))
        assert type(back) is cls
        assert "the message" in str(back)

    def test_unknown_kind_degrades_to_repro_error(self):
        back = error_from_doc({"kind": "from-the-future", "message": "hm"})
        assert type(back) is ReproError and "hm" in str(back)

    def test_malformed_error_frame_degrades_to_protocol_error(self):
        back = error_from_doc({"kind": "overloaded"})  # fields missing
        assert isinstance(back, ProtocolError)
