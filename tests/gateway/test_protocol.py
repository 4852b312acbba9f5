"""Wire framing: pack/parse round trips, chunking, malformed frames."""

import json
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.rpc import MAX_FRAME_BYTES
from repro.gateway.protocol import FrameError, FrameParser, pack_frame


def read_all(data: bytes):
    """Every frame of a whole stream, then a clean EOF."""
    parser = FrameParser()
    frames = parser.feed(data)
    parser.eof()
    return frames


class TestRoundTrip:
    def test_single_frame(self):
        doc = {"id": 1, "op": "query", "view": "v", "lo": None, "hi": 9}
        assert read_all(pack_frame(doc)) == [doc]

    def test_back_to_back_frames(self):
        docs = [{"id": i, "op": "ping"} for i in range(5)]
        data = b"".join(pack_frame(d) for d in docs)
        assert read_all(data) == docs

    def test_unicode_payload(self):
        doc = {"id": 1, "client": "héloïse", "op": "ping"}
        assert read_all(pack_frame(doc)) == [doc]

    def test_clean_eof_is_none(self):
        assert read_all(b"") == []


class TestMalformedFrames:
    def run_expecting_error(self, data: bytes):
        with pytest.raises(FrameError):
            read_all(data)

    def test_truncated_header(self):
        self.run_expecting_error(b"\x00\x00")

    def test_truncated_payload(self):
        frame = pack_frame({"id": 1, "op": "ping"})
        self.run_expecting_error(frame[:-3])

    def test_oversized_length(self):
        self.run_expecting_error(struct.pack("!I", MAX_FRAME_BYTES + 1))

    def test_non_json_payload(self):
        payload = b"not json"
        self.run_expecting_error(struct.pack("!I", len(payload)) + payload)

    def test_non_object_payload(self):
        payload = json.dumps([1, 2, 3]).encode()
        self.run_expecting_error(struct.pack("!I", len(payload)) + payload)

    def test_pack_rejects_oversized_doc(self):
        with pytest.raises(FrameError):
            pack_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})

    def test_a_poisoned_parser_stays_poisoned(self):
        parser = FrameParser()
        with pytest.raises(FrameError):
            parser.feed(struct.pack("!I", 2) + b"[]")
        with pytest.raises(FrameError):
            parser.feed(pack_frame({"id": 1}))
        with pytest.raises(FrameError):
            parser.eof()


documents = st.dictionaries(
    st.text(max_size=8),
    st.none() | st.booleans() | st.integers() | st.text(max_size=40)
    | st.lists(st.integers(), max_size=4),
    max_size=5,
)
#: Frames no parser may accept: not JSON, not an object, over the cap.
garbage = st.sampled_from([
    struct.pack("!I", 8) + b"not json",
    struct.pack("!I", 2) + b"\xff\xfe",
    struct.pack("!I", 7) + b"[1,2,3]",
    struct.pack("!I", MAX_FRAME_BYTES + 1),
])


def chunked(stream: bytes, cuts: list[int]) -> list[bytes]:
    edges = [0, *sorted(cut % (len(stream) + 1) for cut in cuts), len(stream)]
    return [stream[a:b] for a, b in zip(edges, edges[1:])]


def parse_chunks(chunks: list[bytes]):
    """(documents handed out, the last error raised or None).

    Keeps feeding after an error, as a careless caller might: what a
    poisoned parser hands out from then on is part of the result.
    """
    parser, seen, error = FrameParser(), [], None
    for chunk in chunks:
        try:
            seen.extend(parser.feed(chunk))
        except FrameError as exc:
            error = exc
    try:
        parser.eof()
    except FrameError as exc:
        error = exc
    return seen, error


class TestAnyChunking:
    @settings(max_examples=200, deadline=None)
    @given(docs=st.lists(documents, max_size=6),
           cuts=st.lists(st.integers(min_value=0), max_size=12))
    def test_chunking_never_changes_the_documents(self, docs, cuts):
        stream = b"".join(pack_frame(doc) for doc in docs)
        assert parse_chunks(chunked(stream, cuts)) == (docs, None)
        assert parse_chunks([stream]) == (docs, None)
        assert parse_chunks([bytes([b]) for b in stream]) == (docs, None)

    @settings(max_examples=200, deadline=None)
    @given(before=st.lists(documents, max_size=4), bad=garbage,
           after=st.lists(documents, min_size=1, max_size=3),
           cuts=st.lists(st.integers(min_value=0), max_size=12))
    def test_nothing_after_a_bad_frame_is_dispatched(
        self, before, bad, after, cuts
    ):
        stream = (b"".join(pack_frame(doc) for doc in before) + bad
                  + b"".join(pack_frame(doc) for doc in after))
        for chunks in (chunked(stream, cuts), [stream],
                       [bytes([b]) for b in stream]):
            seen, error = parse_chunks(chunks)
            assert seen == before
            assert isinstance(error, FrameError)
