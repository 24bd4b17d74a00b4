"""Tests for the template-based NetFlow v9 codec."""

import struct

import pytest

from repro.errors import DataError
from repro.netflow.records import FlowKey, NetFlowRecord, PROTO_TCP
from repro.netflow.v9 import (
    STANDARD_TEMPLATE_ID,
    TEMPLATE_FLOWSET_ID,
    V9Decoder,
    V9Encoder,
)


def record(i=0, octets=1000, sampling=1, router_hint=0):
    del router_hint
    return NetFlowRecord(
        key=FlowKey(f"10.1.0.{i + 1}", "198.51.100.7", 30000 + i, 443, PROTO_TCP),
        octets=octets,
        packets=max(1, octets // 800),
        first_ms=100,
        last_ms=900,
        router="R1",
        input_if=3,
        output_if=4,
        sampling_interval=sampling,
    )


@pytest.fixture
def encoder():
    return V9Encoder(source_id=7)


@pytest.fixture
def decoder():
    return V9Decoder({7: "R1", 8: "R2"})


class TestRoundtrip:
    def test_basic_roundtrip(self, encoder, decoder):
        original = [record(i) for i in range(5)]
        packets = encoder.encode(original)
        decoded = decoder.decode_all(packets)
        assert decoded == original

    def test_sampling_interval_carried(self, encoder, decoder):
        decoded = decoder.decode_all(encoder.encode([record(0, sampling=512)]))
        assert decoded[0].sampling_interval == 512

    def test_large_batches_split(self, decoder):
        encoder = V9Encoder(source_id=7, max_records_per_packet=10)
        original = [record(i % 200, octets=1000 + i) for i in range(55)]
        packets = encoder.encode(original)
        assert len(packets) == 6
        assert decoder.decode_all(packets) == original

    def test_data_flowsets_are_padded(self, encoder):
        packet = encoder.encode([record(0)])[0]
        assert len(packet) % 4 == 0

    def test_empty_rejected(self, encoder):
        with pytest.raises(DataError):
            encoder.encode([])

    def test_counter_width_enforced(self, encoder):
        with pytest.raises(DataError, match="32-bit"):
            encoder.encode([record(0, octets=1 << 32)])


class TestTemplateStatefulness:
    def test_template_announced_in_first_packet_only(self, decoder):
        encoder = V9Encoder(
            source_id=7, max_records_per_packet=2, template_refresh=100
        )
        packets = encoder.encode([record(i) for i in range(6)])
        assert len(packets) == 3
        # Only the first packet carries the template FlowSet.
        def has_template(packet):
            flowset_id = struct.unpack_from(">H", packet, 20)[0]
            return flowset_id == TEMPLATE_FLOWSET_ID

        assert has_template(packets[0])
        assert not has_template(packets[1])
        assert not has_template(packets[2])
        assert len(decoder.decode_all(packets)) == 6

    def test_data_before_template_is_buffered_then_drained(self, decoder):
        encoder = V9Encoder(
            source_id=7, max_records_per_packet=2, template_refresh=100
        )
        packets = encoder.encode([record(i) for i in range(4)])
        # Deliver out of order: data-only packet first.
        early = decoder.decode(packets[1])
        assert early == []
        assert decoder.pending_bytes() > 0
        drained = decoder.decode(packets[0])
        assert decoder.pending_bytes() == 0
        # The drained batch contains both the buffered and in-packet data.
        assert {r.key.src_port for r in drained} == {30000, 30001, 30002, 30003}

    def test_template_refresh_interval(self, decoder):
        encoder = V9Encoder(
            source_id=7, max_records_per_packet=1, template_refresh=2
        )
        packets = encoder.encode([record(i) for i in range(4)])

        def has_template(packet):
            return struct.unpack_from(">H", packet, 20)[0] == TEMPLATE_FLOWSET_ID

        assert [has_template(p) for p in packets] == [True, False, True, False]

    def test_templates_are_per_source(self):
        encoder_a = V9Encoder(source_id=7)
        encoder_b = V9Encoder(source_id=8)
        decoder = V9Decoder({7: "R1", 8: "R2"})
        packets_a = encoder_a.encode([record(0)])
        packets_b = encoder_b.encode([record(1)])
        # Deliver B's data; its template came with it, so it decodes, but
        # the state for source 7 is untouched.
        out_b = decoder.decode_all(packets_b)
        assert out_b[0].router == "R2"
        out_a = decoder.decode_all(packets_a)
        assert out_a[0].router == "R1"


class TestDecoderValidation:
    def test_unknown_source(self, encoder):
        decoder = V9Decoder({99: "R9"})
        with pytest.raises(DataError, match="source_id"):
            decoder.decode(encoder.encode([record(0)])[0])

    def test_wrong_version(self, encoder, decoder):
        packet = bytearray(encoder.encode([record(0)])[0])
        packet[1] = 5
        with pytest.raises(DataError, match="version"):
            decoder.decode(bytes(packet))

    def test_truncated_packet(self, decoder):
        with pytest.raises(DataError, match="short"):
            decoder.decode(b"\x00\x09\x00")

    def test_malformed_flowset_length(self, encoder, decoder):
        packet = bytearray(encoder.encode([record(0)])[0])
        # Overwrite the first FlowSet's length with something absurd.
        struct.pack_into(">H", packet, 22, 60000)
        with pytest.raises(DataError, match="length"):
            decoder.decode(bytes(packet))

    def test_address_field_wider_than_four_bytes(self, decoder):
        # A template may declare any field width; a 5-byte source address
        # with a nonzero high byte cannot be an IPv4 address.
        template = struct.pack(">HH", 300, 3) + struct.pack(
            ">HHHHHH", 8, 5, 12, 4, 1, 4
        )
        data = bytes([1, 10, 1, 0, 1]) + bytes([198, 51, 100, 7])
        data += struct.pack(">I", 1000) + b"\x00" * 3
        packet = (
            struct.pack(">HHIIII", 9, 2, 0, 0, 0, 7)
            + struct.pack(">HH", TEMPLATE_FLOWSET_ID, 4 + len(template))
            + template
            + struct.pack(">HH", 300, 4 + len(data))
            + data
        )
        with pytest.raises(DataError, match="wider than a 4-byte IPv4"):
            decoder.decode(packet)

    def test_needs_source_mapping(self):
        with pytest.raises(DataError):
            V9Decoder({})

    def test_encoder_validation(self):
        with pytest.raises(DataError):
            V9Encoder(source_id=-1)
        with pytest.raises(DataError):
            V9Encoder(source_id=1, max_records_per_packet=0)
        with pytest.raises(DataError):
            V9Encoder(source_id=1, template_refresh=0)


class TestInteroperability:
    def test_v9_feeds_the_collector(self, decoder):
        """v9-decoded records drive the same dedup pipeline as v5 ones."""
        from repro.netflow.collector import FlowCollector

        encoder = V9Encoder(source_id=7)
        records = [record(i, octets=5000) for i in range(3)]
        decoded = decoder.decode_all(encoder.encode(records))
        collector = FlowCollector()
        collector.ingest_many(decoded)
        assert len(collector) == 3
        assert all(
            volume == 5000 for volume in collector.deduplicated_octets().values()
        )

    def test_trace_records_roundtrip_via_v9(self):
        from repro.synth.trace import generate_network_trace

        trace = generate_network_trace("internet2", n_flows=20, seed=3)
        routers = trace.topology.pop_codes
        source_of_router = {code: 100 + i for i, code in enumerate(routers)}
        decoder = V9Decoder({v: k for k, v in source_of_router.items()})
        decoded = []
        for router in routers:
            mine = [r for r in trace.records if r.router == router]
            if not mine:
                continue
            encoder = V9Encoder(source_id=source_of_router[router])
            decoded.extend(decoder.decode_all(encoder.encode(mine)))
        assert sorted(r.key.src_addr for r in decoded) == sorted(
            r.key.src_addr for r in trace.records
        )
