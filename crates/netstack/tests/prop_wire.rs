//! Hostile-wire properties of the QUIC and TLS decoders: encodings
//! round-trip, `wire_len` matches the encoder, arbitrary bytes and
//! single-byte mutations of valid encodings never panic, and a QUIC
//! packet with a malformed frame is dropped whole.

use doqlab_netstack::quic::{
    Frame, PacketType, QuicConfig, QuicConnection, QuicPacket, QuicServer, VersionNegotiation,
    QUIC_V1,
};
use doqlab_netstack::tls::{
    HandshakeMessage, HandshakePayload, SessionTicket, TlsConfig, TlsRecord, TlsVersion,
};
use doqlab_simnet::{Duration, Ipv4Addr, SimRng, SimTime, SocketAddr};
use proptest::prelude::*;
use proptest::strategy::Just;

/// Largest QUIC varint.
const VARINT_MAX: u64 = (1 << 62) - 1;

fn bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..max)
}

/// Varints across all four encoded sizes.
fn varint() -> impl Strategy<Value = u64> {
    prop_oneof![
        0..64u64,
        64..16_384u64,
        16_384..(1u64 << 30),
        (1u64 << 30)..VARINT_MAX
    ]
}

/// Descending, disjoint, inclusive ACK ranges.
fn ack_ranges() -> impl Strategy<Value = Vec<(u64, u64)>> {
    (
        0..1_000_000u64,
        proptest::collection::vec((0..300u64, 0..300u64), 1..12),
    )
        .prop_map(|(base, steps)| {
            // Build from the bottom up so every gap is at least one.
            let mut lo = base;
            let mut ranges = Vec::new();
            for (gap, len) in steps {
                let hi = lo + len;
                ranges.push((hi, lo));
                lo = hi + gap + 2;
            }
            ranges.reverse();
            ranges
        })
}

/// Any frame but PADDING (adjacent PADDING frames merge on decode).
fn frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        Just(Frame::Ping),
        (ack_ranges(), varint()).prop_map(|(ranges, delay)| Frame::Ack { ranges, delay }),
        (varint(), bytes(200)).prop_map(|(offset, data)| Frame::Crypto { offset, data }),
        bytes(64).prop_map(|token| Frame::NewToken { token }),
        (varint(), varint(), bytes(200), any::<bool>()).prop_map(|(id, offset, data, fin)| {
            Frame::Stream {
                id,
                offset,
                data,
                fin,
            }
        }),
        any::<[u8; 8]>().prop_map(Frame::PathChallenge),
        any::<[u8; 8]>().prop_map(Frame::PathResponse),
        (varint(), bytes(40))
            .prop_map(|(error_code, reason)| Frame::ConnectionClose { error_code, reason }),
        Just(Frame::HandshakeDone),
    ]
}

fn encode_frames(frames: &[Frame]) -> Vec<u8> {
    let mut out = Vec::new();
    for f in frames {
        f.encode(&mut out);
    }
    out
}

fn packet() -> impl Strategy<Value = QuicPacket> {
    (
        (0..5u8, any::<u32>()),
        any::<[u8; 8]>(),
        any::<[u8; 8]>(),
        bytes(48),
        any::<u32>(),
        bytes(300),
    )
        .prop_map(|((kind, version), dcid, scid, token, pn, payload)| {
            let ptype = [
                PacketType::Initial,
                PacketType::ZeroRtt,
                PacketType::Handshake,
                PacketType::Retry,
                PacketType::OneRtt,
            ][kind as usize];
            let mut p = QuicPacket::new(ptype, version, dcid, scid, pn as u64, payload);
            // Fields a packet type does not carry decode to defaults.
            match ptype {
                PacketType::Initial => p.token = token,
                PacketType::Retry => {
                    p.token = token;
                    p.packet_number = 0;
                    p.payload.clear();
                }
                PacketType::OneRtt => {
                    p.version = 0;
                    p.scid = [0; 8];
                }
                _ => {}
            }
            p
        })
}

fn ticket() -> impl Strategy<Value = SessionTicket> {
    (
        (any::<u64>(), any::<bool>()),
        bytes(20),
        0..1u64 << 40,
        0..1u64 << 30,
        any::<bool>(),
        0..400u16,
    )
        .prop_map(
            |((server_id, tls13), alpn, issued, lifetime, allows_early_data, opaque_len)| {
                SessionTicket {
                    server_id,
                    version: if tls13 {
                        TlsVersion::Tls13
                    } else {
                        TlsVersion::Tls12
                    },
                    alpn,
                    issued_at: SimTime::from_nanos(issued),
                    lifetime: Duration::from_secs(lifetime),
                    allows_early_data,
                    opaque_len,
                }
            },
        )
}

fn version() -> impl Strategy<Value = TlsVersion> {
    any::<bool>().prop_map(|b| {
        if b {
            TlsVersion::Tls13
        } else {
            TlsVersion::Tls12
        }
    })
}

fn handshake() -> impl Strategy<Value = HandshakePayload> {
    prop_oneof![
        (
            proptest::collection::vec(version(), 0..4),
            proptest::collection::vec(bytes(12), 0..14),
            ticket(),
            any::<bool>(),
            any::<bool>(),
            0..600u16,
        )
            .prop_map(|(versions, alpn, t, with_psk, early_data, pad)| {
                HandshakePayload::ClientHello {
                    versions,
                    alpn,
                    psk: with_psk.then_some(t),
                    early_data,
                    pad,
                }
            }),
        (version(), any::<bool>())
            .prop_map(|(version, resumed)| HandshakePayload::ServerHello { version, resumed }),
        (bytes(12), any::<bool>(), any::<bool>()).prop_map(|(a, some, early)| {
            HandshakePayload::EncryptedExtensions {
                alpn: some.then_some(a),
                early_data_accepted: early,
            }
        }),
        (0..5000u16).prop_map(|chain_len| HandshakePayload::Certificate { chain_len }),
        Just(HandshakePayload::CertificateVerify),
        Just(HandshakePayload::Finished),
        ticket().prop_map(|ticket| HandshakePayload::NewSessionTicket { ticket }),
        Just(HandshakePayload::ServerHelloDone),
        Just(HandshakePayload::ClientKeyExchange),
    ]
}

fn record() -> impl Strategy<Value = TlsRecord> {
    prop_oneof![
        bytes(300).prop_map(TlsRecord::PlainHandshake),
        Just(TlsRecord::ChangeCipherSpec),
        (any::<bool>(), any::<u8>()).prop_map(|(fatal, code)| TlsRecord::Alert { fatal, code }),
        (any::<u8>(), bytes(300)).prop_map(|(inner_type, plaintext)| TlsRecord::Encrypted {
            inner_type,
            plaintext
        }),
    ]
}

/// Every decoder, fed the same bytes; none may panic.
fn decode_everything(buf: &[u8]) {
    let mut pos = 0;
    while pos < buf.len() {
        if QuicPacket::decode(buf, &mut pos).is_none() {
            break;
        }
    }
    let _ = Frame::decode_all(buf);
    let _ = VersionNegotiation::decode(buf);
    let _ = QuicPacket::peek_long_header_version(buf);
    let _ = TlsRecord::decode(buf);
    let _ = HandshakeMessage::decode(buf);
    let _ = SessionTicket::decode(buf);
}

/// Replace one byte of `wire`.
fn mutate(mut wire: Vec<u8>, at: usize, byte: u8) -> Vec<u8> {
    if !wire.is_empty() {
        let at = at % wire.len();
        wire[at] = byte;
    }
    wire
}

fn sa(h: u8, port: u16) -> SocketAddr {
    SocketAddr::new(Ipv4Addr::new(10, 0, 0, h), port)
}

/// A client and server that completed a handshake without loss.
fn established_pair() -> (QuicConnection, QuicServer) {
    let cfg = QuicConfig {
        tls: TlsConfig {
            server_id: 7,
            alpn: vec![b"doq".to_vec()],
            ..TlsConfig::default()
        },
        ..QuicConfig::default()
    };
    let mut rng = SimRng::new(1);
    let (local, remote) = (sa(1, 40000), sa(2, 853));
    let mut client = QuicConnection::client(
        cfg.clone(),
        local,
        remote,
        QUIC_V1,
        None,
        None,
        &mut rng,
        SimTime::ZERO,
    );
    let mut server = QuicServer::new(remote, cfg);
    for _ in 0..8 {
        for d in client.poll_transmit(SimTime::ZERO) {
            server.handle_datagram(SimTime::ZERO, local, &d);
        }
        for (_, d) in server.poll_transmit(SimTime::ZERO) {
            client.handle_datagram(SimTime::ZERO, &d);
        }
    }
    assert!(client.is_established());
    (client, server)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn frames_roundtrip(frames in proptest::collection::vec(frame(), 0..8)) {
        let wire = encode_frames(&frames);
        prop_assert_eq!(Frame::decode_all(&wire), Some(frames));
    }

    #[test]
    fn frame_wire_len_matches_the_encoding(f in frame(), pad in 1..64usize) {
        for f in [f, Frame::Padding(pad)] {
            let mut out = Vec::new();
            f.encode(&mut out);
            prop_assert!(f.wire_len() == out.len(), "wire_len of {:?}", f);
        }
    }

    #[test]
    fn packets_roundtrip(p in packet()) {
        let mut wire = Vec::new();
        p.encode(&mut wire);
        prop_assert_eq!(wire.len(), p.wire_len());
        let mut pos = 0;
        let back = QuicPacket::decode(&wire, &mut pos);
        prop_assert_eq!(pos, wire.len());
        prop_assert_eq!(back, Some(p));
    }

    #[test]
    fn session_tickets_roundtrip(t in ticket()) {
        prop_assert_eq!(SessionTicket::decode(&t.encode()), Some(t));
    }

    #[test]
    fn handshake_messages_roundtrip(payload in handshake()) {
        let msg = HandshakeMessage::new(payload);
        let mut wire = Vec::new();
        msg.encode(&mut wire);
        prop_assert_eq!(HandshakeMessage::decode(&wire), Some((msg, wire.len())));
    }

    #[test]
    fn records_roundtrip(rec in record()) {
        let mut wire = Vec::new();
        rec.encode(&mut wire);
        prop_assert_eq!(TlsRecord::decode(&wire), Some((rec, wire.len())));
    }

    #[test]
    fn decoders_never_panic_on_garbage(buf in bytes(400)) {
        decode_everything(&buf);
    }

    #[test]
    fn decoders_never_panic_on_mutated_encodings(
        frames in proptest::collection::vec(frame(), 1..6),
        p in packet(),
        payload in handshake(),
        rec in record(),
        t in ticket(),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let mut packet_wire = Vec::new();
        p.encode(&mut packet_wire);
        let mut hs_wire = Vec::new();
        HandshakeMessage::new(payload).encode(&mut hs_wire);
        let mut rec_wire = Vec::new();
        rec.encode(&mut rec_wire);
        for wire in [encode_frames(&frames), packet_wire, hs_wire, rec_wire, t.encode()] {
            decode_everything(&mutate(wire, at, byte));
        }
    }

    #[test]
    fn a_malformed_frame_drops_the_whole_packet(
        frames in proptest::collection::vec(frame(), 0..4),
        bad_type in prop_oneof![Just(0x04u8), Just(0x05), Just(0x1F), 0x20..0x40u8],
        pn in 100..1_000_000u32,
    ) {
        // A new peer stream ahead of an undecodable frame type.
        let (client, mut server) = established_pair();
        let mut payload = Vec::new();
        Frame::Stream { id: 400, offset: 0, data: b"query".to_vec(), fin: true }
            .encode(&mut payload);
        payload.extend(encode_frames(&frames));
        let good = payload.clone();
        payload.push(bad_type);
        let send = |server: &mut QuicServer, payload: Vec<u8>, pn: u32| {
            let pkt = QuicPacket::new(PacketType::OneRtt, 0, [0; 8], [0; 8], pn as u64, payload);
            let mut d = Vec::new();
            pkt.encode(&mut d);
            server.handle_datagram(SimTime::ZERO, client.local, &d);
        };
        send(&mut server, payload, pn);
        let conn = server.connection(client.local).expect("live connection");
        prop_assert!(conn.take_new_peer_streams().is_empty());
        prop_assert_eq!(conn.stream_recv(400), (Vec::new(), false));
        // Without the bad frame the same packet is applied.
        if !conn.is_closed() {
            send(&mut server, good, pn + 1);
            let conn = server.connection(client.local).expect("live connection");
            if !conn.is_closed() {
                prop_assert!(conn.take_new_peer_streams().contains(&400));
            }
        }
    }
}
