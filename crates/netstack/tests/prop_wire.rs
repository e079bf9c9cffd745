//! Hostile-wire properties of the QUIC, TLS, TCP, HTTP/2 and HPACK
//! decoders: encodings round-trip (owned and borrowed views alike),
//! `wire_len` matches the encoder, arbitrary bytes and single-byte
//! mutations of valid encodings never panic, a QUIC packet with a
//! malformed frame is dropped whole, and an HTTP/2 byte stream yields
//! the same messages however it is split.

use doqlab_netstack::http2::{
    H2Connection, H2Frame, H2FrameRef, H2Message, HpackDecoder, HpackEncoder,
};
use doqlab_netstack::quic::{
    Frame, PacketType, QuicConfig, QuicConnection, QuicPacket, QuicServer, VersionNegotiation,
    QUIC_V1,
};
use doqlab_netstack::tcp::{SegmentRef, TcpFlags, TcpOption, TcpSegment};
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

/// A TCP segment with each option kind present or not, listed in wire
/// order (the owned form's canonical order).
fn segment() -> impl Strategy<Value = TcpSegment> {
    (
        (any::<u16>(), any::<u16>(), any::<u32>(), any::<u32>()),
        (0..32u8, any::<u16>()),
        (any::<bool>(), any::<u16>(), any::<bool>()),
        (any::<bool>(), any::<u32>(), any::<u32>()),
        (any::<bool>(), any::<u8>(), any::<bool>(), bytes(17)),
        bytes(300),
    )
        .prop_map(
            |((src_port, dst_port, seq, ack), (bits, window), mss, ts, wscale_tfo, payload)| {
                let (with_mss, mss, sack) = mss;
                let (with_ts, value, echo) = ts;
                let (with_ws, ws, with_tfo, cookie) = wscale_tfo;
                let options = [
                    with_mss.then_some(TcpOption::Mss(mss)),
                    sack.then_some(TcpOption::SackPermitted),
                    with_ts.then_some(TcpOption::Timestamps { value, echo }),
                    with_ws.then_some(TcpOption::WindowScale(ws)),
                    with_tfo.then_some(TcpOption::FastOpenCookie(cookie)),
                ];
                TcpSegment {
                    src_port,
                    dst_port,
                    seq,
                    ack,
                    flags: TcpFlags {
                        fin: bits & 1 != 0,
                        syn: bits & 2 != 0,
                        rst: bits & 4 != 0,
                        psh: bits & 8 != 0,
                        ack: bits & 16 != 0,
                    },
                    window,
                    options: options.into_iter().flatten().collect(),
                    payload,
                }
            },
        )
}

fn h2_frame() -> impl Strategy<Value = H2Frame> {
    (any::<u8>(), any::<u8>(), 0..1u32 << 31, bytes(300)).prop_map(
        |(ftype, flags, stream_id, payload)| {
            // The type as a frame header carrying `ftype` decodes it.
            let header = [0, 0, 0, ftype, 0, 0, 0, 0, 0];
            let (frame, _) = H2FrameRef::decode(&header).expect("a header");
            H2Frame {
                ftype: frame.ftype,
                flags,
                stream_id,
                payload,
            }
        },
    )
}

/// Header names: static-table names (indexed by HPACK) and fresh ones.
fn header_name() -> impl Strategy<Value = String> {
    prop_oneof![
        (0..6usize).prop_map(|i| {
            [
                ":authority",
                ":path",
                "content-type",
                "content-length",
                "accept",
                "x-custom",
            ][i]
                .to_string()
        }),
        proptest::string::string_regex("[a-z-]{1,16}").unwrap(),
    ]
}

/// A header list: (name, value) pairs, values drawn from a few repeats
/// (so the dynamic table is hit) and fresh strings.
fn header_list() -> impl Strategy<Value = Vec<(String, String)>> {
    proptest::collection::vec(
        (
            header_name(),
            prop_oneof![
                (0..3usize).prop_map(|i| ["POST", "application/dns-message", "47"][i].to_string()),
                proptest::string::string_regex("[ -~]{0,40}").unwrap(),
            ],
        ),
        0..9,
    )
}

fn refs(headers: &[(String, String)]) -> Vec<(&str, &str)> {
    headers
        .iter()
        .map(|(n, v)| (n.as_str(), v.as_str()))
        .collect()
}

/// A request: its header list and body.
type Request = (Vec<(String, String)>, Vec<u8>);

/// A client's request byte stream and the messages it carries.
fn h2_requests(requests: &[Request]) -> (Vec<u8>, Vec<H2Message>) {
    let mut client = H2Connection::client();
    let mut sent = Vec::new();
    for (headers, body) in requests {
        let stream_id = client.send_request(&refs(headers), body);
        sent.push(H2Message {
            stream_id,
            headers: headers.clone(),
            body: body.clone(),
        });
    }
    (client.take_output(), sent)
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
    let _ = TcpSegment::decode(buf);
    let _ = H2Frame::decode(buf);
    let _ = HpackDecoder::new().decode(buf);
    // A server expects the preface first; a client reads frames at once.
    for mut conn in [H2Connection::server(), H2Connection::client()] {
        conn.read_wire(buf);
        let _ = conn.take_messages();
    }
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
    fn tcp_segments_roundtrip(seg in segment()) {
        let wire = seg.encode();
        let view = seg.view();
        prop_assert_eq!(wire.len(), view.wire_len());
        prop_assert_eq!(SegmentRef::decode(&wire), Some(view));
        prop_assert_eq!(TcpSegment::decode(&wire), Some(seg.clone()));
        // The header writer plus the payload is the whole encoding.
        let mut split = Vec::new();
        view.write_header(&mut split);
        prop_assert_eq!(split.len(), view.header_len());
        split.extend_from_slice(&seg.payload);
        prop_assert_eq!(split, wire);
    }

    #[test]
    fn h2_frames_roundtrip(frame in h2_frame()) {
        let wire = frame.encode();
        prop_assert_eq!(wire.len(), 9 + frame.payload.len());
        prop_assert_eq!(H2FrameRef::decode(&wire), Some((frame.view(), wire.len())));
        prop_assert_eq!(H2Frame::decode(&wire), Some((frame.clone(), wire.len())));
        // Any proper prefix is incomplete, not an error.
        for cut in [0, 8, wire.len() - 1] {
            prop_assert!(H2FrameRef::decode(&wire[..cut]).is_none());
        }
    }

    #[test]
    fn hpack_blocks_roundtrip(lists in proptest::collection::vec(header_list(), 1..6)) {
        // One encoder and decoder across blocks, so later blocks index
        // the dynamic table the earlier ones filled (and evicted).
        let mut enc = HpackEncoder::new();
        let mut dec = HpackDecoder::new();
        for headers in &lists {
            let block = enc.encode(&refs(headers));
            prop_assert_eq!(dec.decode(&block), Some(headers.clone()));
        }
    }

    #[test]
    fn wire_decoders_never_panic_on_mutated_encodings(
        seg in segment(),
        frame in h2_frame(),
        headers in header_list(),
        requests in proptest::collection::vec((header_list(), bytes(64)), 1..4),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let block = HpackEncoder::new().encode(&refs(&headers));
        let (stream, _) = h2_requests(&requests);
        for wire in [seg.encode(), frame.encode(), block, stream] {
            decode_everything(&mutate(wire, at, byte));
        }
    }

    #[test]
    fn h2_read_wire_is_split_invariant(
        requests in proptest::collection::vec((header_list(), bytes(100)), 1..5),
        cuts in proptest::collection::vec(any::<usize>(), 0..12),
    ) {
        let (stream, sent) = h2_requests(&requests);
        let mut whole = H2Connection::server();
        whole.read_wire(&stream);
        let expected = whole.take_messages();
        prop_assert_eq!(&expected, &sent);
        // The same bytes, split at arbitrary points.
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (stream.len() + 1)).collect();
        cuts.push(stream.len());
        cuts.sort_unstable();
        let mut split = H2Connection::server();
        let mut got = Vec::new();
        let mut from = 0;
        for cut in cuts {
            split.read_wire(&stream[from..cut]);
            got.extend(split.take_messages());
            from = cut;
        }
        prop_assert_eq!(got, expected);
        prop_assert_eq!(split.take_output(), whole.take_output());
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
