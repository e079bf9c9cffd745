//! The QUIC connection state machine and server endpoint.
//!
//! One [`QuicConnection`] is one 4-tuple. The embedded handshake reuses
//! the TLS 1.3 message model from [`crate::tls`] but carries the
//! messages in CRYPTO frames across the Initial/Handshake/1-RTT packet
//! number spaces, exactly like RFC 9001. Loss recovery is PTO-based
//! with a packet-reordering threshold, per RFC 9002, with the 1 s
//! initial timeout the paper cites.
//!
//! The wire path works in place. A datagram is planned as frame
//! metadata ([`SentFrame`]), sized exactly, then encoded header first
//! straight into one [`PayloadBuf`] of that size; CRYPTO and STREAM bytes are
//! copied once, from the send buffers. Received datagrams are decoded
//! by borrowing ([`PacketRef`], [`FrameRef`]), and a packet's frames
//! are all checked before any of them is applied. Sent packets keep
//! only frame metadata: lost data is re-read from the send buffers,
//! which retain every byte.

use super::frame::{
    self, write_ack, write_connection_close, write_crypto_header, write_handshake_done,
    write_new_token, write_path_challenge, write_path_response, write_ping, write_stream_header,
    AckRef, FrameIter, FrameRef, FrameSink, WireLen,
};
use super::packet::{
    packet_len, write_header, write_tag, Packet, PacketRef, PacketType, VersionNegotiation, CID_LEN,
};
use super::range_set::RangeSet;
use super::{draft_version, AMPLIFICATION_FACTOR, MIN_INITIAL_SIZE, PACKET_TAG_LEN, QUIC_V1};
use crate::tls::messages::{Alpns, HandshakeRef, Versions};
use crate::tls::session::SessionTicketRef;
use crate::tls::{SessionTicket, TlsConfig, TlsVersion};
use doqlab_simnet::{Duration, PayloadBuf, SimRng, SimTime, SocketAddr};
use doqlab_telemetry::metrics::{self, Counter};
use doqlab_telemetry::{sink, Event};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// qlog packet-type label.
fn ptype_str(ptype: PacketType) -> &'static str {
    match ptype {
        PacketType::Initial => "initial",
        PacketType::Handshake => "handshake",
        PacketType::ZeroRtt => "0RTT",
        PacketType::OneRtt => "1RTT",
        PacketType::Retry => "retry",
    }
}

/// qlog packet-number-space label for an epoch index.
fn epoch_str(epoch: usize) -> &'static str {
    match epoch {
        EPOCH_INITIAL => "initial",
        EPOCH_HANDSHAKE => "handshake",
        _ => "application_data",
    }
}

/// Connection parameters. Endpoints hold them behind an `Arc`: a
/// server shares one configuration with every connection it accepts.
#[derive(Debug, Clone)]
pub struct QuicConfig {
    /// Supported versions, preference order. Servers negotiate; clients
    /// dial with `initial_version`.
    pub versions: Vec<u32>,
    pub tls: TlsConfig,
    /// Initial probe timeout (RFC 9002: ~3x initial RTT ≈ 1 s).
    pub initial_pto: Duration,
    /// Idle timeout.
    pub max_idle: Duration,
    /// Server sends Retry to unvalidated clients (address validation
    /// before any state; costs 1 RTT).
    pub retry_required: bool,
    /// Server hands out a NEW_TOKEN after the handshake (the mechanism
    /// the paper's client reuses together with Session Resumption).
    pub issue_new_token: bool,
    /// Maximum UDP datagram size.
    pub max_datagram: usize,
}

impl Default for QuicConfig {
    fn default() -> Self {
        QuicConfig {
            versions: vec![
                QUIC_V1,
                draft_version(34),
                draft_version(32),
                draft_version(29),
            ],
            tls: TlsConfig::default(),
            initial_pto: Duration::from_secs(1),
            max_idle: Duration::from_secs(30),
            retry_required: false,
            issue_new_token: true,
            max_datagram: 1200,
        }
    }
}

/// Terminal connection errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuicError {
    NoCommonVersion,
    NoCommonAlpn,
    HandshakeFailed(&'static str),
    IdleTimeout,
    PeerClosed(u64),
    TooManyRetries,
    /// Path validation (RFC 9000 §8.2) exhausted its probe retries:
    /// the new path never echoed our PATH_CHALLENGE.
    PathValidationFailed,
}

const EPOCH_INITIAL: usize = 0;
const EPOCH_HANDSHAKE: usize = 1;
const EPOCH_APP: usize = 2;

/// Probe retransmissions before a path validation attempt is abandoned.
const PATH_PROBE_MAX_RETRIES: u32 = 5;

/// Offset-indexed send buffer with loss retransmission. `data` keeps
/// every byte ever queued, so a lost range is re-sent from it.
#[derive(Debug, Default)]
struct SendBuf {
    data: Vec<u8>,
    next: u64,
    /// Lost ranges to resend first: offset -> length.
    retx: BTreeMap<u64, usize>,
}

impl SendBuf {
    /// Next range to transmit (retransmissions first), at most `max`
    /// bytes: `(offset, length)`.
    fn next_chunk(&mut self, max: usize) -> Option<(u64, usize)> {
        if max == 0 {
            return None;
        }
        if let Some((off, len)) = self.retx.pop_first() {
            if len > max {
                self.retx.insert(off + max as u64, len - max);
                return Some((off, max));
            }
            return Some((off, len));
        }
        let avail = self.data.len() as u64 - self.next;
        if avail == 0 {
            return None;
        }
        let n = (avail as usize).min(max);
        let off = self.next;
        self.next += n as u64;
        Some((off, n))
    }

    fn on_lost(&mut self, offset: u64, len: usize) {
        self.retx.entry(offset).or_insert(len);
    }

    fn slice(&self, offset: u64, len: usize) -> &[u8] {
        let start = offset as usize;
        &self.data[start..start + len]
    }
}

/// Offset-indexed receive buffer with overlap trimming.
#[derive(Debug, Default)]
struct RecvBuf {
    segments: BTreeMap<u64, Vec<u8>>,
    next: u64,
    assembled: Vec<u8>,
}

impl RecvBuf {
    fn insert(&mut self, offset: u64, data: &[u8]) {
        if data.is_empty() || offset + data.len() as u64 <= self.next {
            return;
        }
        let (offset, data) = if offset < self.next {
            let skip = (self.next - offset) as usize;
            (self.next, &data[skip..])
        } else {
            (offset, data)
        };
        if offset == self.next {
            self.assembled.extend_from_slice(data);
            self.next += data.len() as u64;
            while let Some((&off, _)) = self.segments.first_key_value() {
                if off > self.next {
                    break;
                }
                let (off, seg) = self.segments.pop_first().expect("peeked");
                let skip = (self.next - off) as usize;
                if skip < seg.len() {
                    self.assembled.extend_from_slice(&seg[skip..]);
                    self.next += (seg.len() - skip) as u64;
                }
            }
        } else {
            self.segments.entry(offset).or_insert_with(|| data.to_vec());
        }
    }
}

/// A bidirectional stream.
#[derive(Debug, Default)]
struct Stream {
    send: SendBuf,
    /// FIN requested by the application.
    fin_queued: bool,
    fin_sent: bool,
    recv: RecvBuf,
    /// Final size signalled by the peer's FIN.
    rx_fin: Option<u64>,
    rx_fin_delivered: bool,
}

impl Stream {
    fn rx_complete(&self) -> bool {
        self.rx_fin.is_some_and(|f| self.recv.next >= f)
    }
}

/// A frame as planned and sent: metadata only. CRYPTO and STREAM
/// frames name a range of their send buffer, which still holds the
/// bytes when the frame is encoded or lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SentFrame {
    Ping,
    /// An ACK of the space's `ranges` newest received ranges, `len`
    /// bytes on the wire.
    Ack {
        ranges: usize,
        len: usize,
    },
    Crypto {
        offset: u64,
        len: usize,
    },
    /// A NEW_TOKEN bound to the peer's current address.
    NewToken,
    Stream {
        id: u64,
        offset: u64,
        len: usize,
        fin: bool,
    },
    PathChallenge([u8; 8]),
    PathResponse([u8; 8]),
    ConnectionClose {
        error_code: u64,
    },
    HandshakeDone,
}

impl SentFrame {
    fn is_ack_eliciting(&self) -> bool {
        !matches!(
            self,
            SentFrame::Ack { .. } | SentFrame::ConnectionClose { .. }
        )
    }

    /// Encoded size; the same encoder writes the frame.
    fn wire_len(&self) -> usize {
        let mut n = WireLen(0);
        match *self {
            SentFrame::Ping => write_ping(&mut n),
            SentFrame::Ack { len, .. } => n.0 = len,
            SentFrame::Crypto { offset, len } => {
                write_crypto_header(&mut n, offset, len);
                n.0 += len;
            }
            SentFrame::NewToken => write_new_token(&mut n, &[0; TOKEN_LEN]),
            SentFrame::Stream {
                id,
                offset,
                len,
                fin,
            } => {
                write_stream_header(&mut n, id, offset, len, fin);
                n.0 += len;
            }
            SentFrame::PathChallenge(data) => write_path_challenge(&mut n, &data),
            SentFrame::PathResponse(data) => write_path_response(&mut n, &data),
            SentFrame::ConnectionClose { error_code } => {
                write_connection_close(&mut n, error_code, &[])
            }
            SentFrame::HandshakeDone => write_handshake_done(&mut n),
        }
        n.0
    }
}

#[derive(Debug)]
struct SentPacket {
    time: SimTime,
    ack_eliciting: bool,
    frames: Vec<SentFrame>,
}

/// Frame lists of acknowledged or lost packets kept for reuse; a
/// connection rarely has more than a few packets in flight.
const FRAME_LIST_POOL: usize = 8;

/// Return a sent packet's frame list to the pool.
fn recycle(pool: &mut Vec<Vec<SentFrame>>, mut frames: Vec<SentFrame>) {
    if pool.len() < FRAME_LIST_POOL {
        frames.clear();
        pool.push(frames);
    }
}

#[derive(Debug, Default)]
struct Space {
    next_pn: u64,
    sent: BTreeMap<u64, SentPacket>,
    /// Every pn we have received (for ACK frames and dedup).
    received: RangeSet,
    ack_owed: bool,
    crypto_tx: SendBuf,
    /// In-order CRYPTO bytes; a partial handshake message stays at the
    /// front until the rest arrives.
    crypto_rx: RecvBuf,
}

/// One packet of a planned datagram: its frames are
/// `plan[start..end]`, and an Initial may end in `pad` PADDING bytes.
#[derive(Debug, Clone, Copy)]
struct Part {
    ptype: PacketType,
    start: usize,
    end: usize,
    pad: usize,
}

fn epoch_of(ptype: PacketType) -> usize {
    match ptype {
        PacketType::Initial => EPOCH_INITIAL,
        PacketType::Handshake => EPOCH_HANDSHAKE,
        _ => EPOCH_APP,
    }
}

/// Whether stream `id` was opened by the peer of `role`: bit 0 of a
/// stream id names its initiator (RFC 9000 §2.1).
fn peer_initiated(role: Role, id: u64) -> bool {
    let server_initiated = id & 0x01 == 1;
    server_initiated == (role == Role::Client)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Client,
    Server,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HsState {
    /// Client: CH sent. Server: waiting for CH.
    Initial,
    /// Server flight sent / being received.
    WaitFinished,
    Done,
    Failed,
}

/// A QUIC connection endpoint.
#[derive(Debug)]
pub struct QuicConnection {
    cfg: Arc<QuicConfig>,
    role: Role,
    pub local: SocketAddr,
    pub remote: SocketAddr,
    version: u32,
    dcid: [u8; CID_LEN],
    scid: [u8; CID_LEN],
    spaces: [Space; 3],
    streams: BTreeMap<u64, Stream>,
    next_stream_id: u64,
    next_uni_stream_id: u64,
    /// Streams opened by the peer not yet handed to the application.
    new_peer_streams: VecDeque<u64>,
    hs: HsState,
    established_at: Option<SimTime>,
    handshake_confirmed: bool,
    error: Option<QuicError>,
    close_queued: Option<u64>,
    close_sent: bool,
    draining: bool,

    // TLS-equivalent negotiation state.
    ticket: Option<SessionTicket>,
    alpn: Option<Vec<u8>>,
    tickets_rx: Vec<SessionTicket>,
    early_permitted: bool,
    early_accepted: Option<bool>,
    /// 0-RTT STREAM frames sent: (id, offset, length, fin), replayed in
    /// 1-RTT if the server rejects early data.
    early_stream_frames: Vec<(u64, u64, usize, bool)>,
    resumed: bool,

    // Address validation / amplification (server).
    validated: bool,
    bytes_received: usize,
    bytes_sent: usize,
    /// Token to include in our Initials (client).
    token: Option<Vec<u8>>,
    /// NEW_TOKEN received for *future* connections (client).
    new_token_rx: Option<Vec<u8>>,
    new_token_queued: bool,
    handshake_done_queued: bool,
    ping_queued: bool,

    // Path validation (RFC 9000 §8.2 / §9): state of the probe on the
    // current path after a rebind (client) or peer migration (server).
    /// Challenge data the peer must echo; `Some` while validating.
    path_challenge_pending: Option<[u8; 8]>,
    /// A PATH_CHALLENGE frame should go out in the next datagram.
    path_challenge_queued: bool,
    /// Echo owed for a PATH_CHALLENGE we received.
    path_response_queued: Option<[u8; 8]>,
    /// When to retransmit (or give up on) the outstanding probe.
    path_probe_deadline: Option<SimTime>,
    /// Probe retransmissions for the current validation attempt.
    path_probe_retries: u32,
    /// Monotonic count of paths this end has validated on; feeds the
    /// deterministic challenge data so successive probes differ.
    path_seq: u64,

    // Recovery.
    pto_backoff: u32,
    srtt: Option<Duration>,
    vn_done: bool,
    /// Client received Retry and restarted (at most once).
    retried: bool,
    last_activity: SimTime,
    idle_deadline: Option<SimTime>,
    pto_deadline: Option<SimTime>,
    /// Statistics: version negotiation round trips observed.
    pub vn_round_trips: u32,

    // Output scratch: the frames of the datagram being built, and
    // frame lists of settled packets for reuse.
    plan: Vec<SentFrame>,
    frame_lists: Vec<Vec<SentFrame>>,
}

impl QuicConnection {
    /// Dial: the caller picks the initial version (e.g. a remembered one
    /// from a previous connection) and may supply a session ticket and
    /// address-validation token from a previous connection.
    #[allow(clippy::too_many_arguments)]
    pub fn client(
        cfg: impl Into<Arc<QuicConfig>>,
        local: SocketAddr,
        remote: SocketAddr,
        initial_version: u32,
        ticket: Option<SessionTicket>,
        token: Option<Vec<u8>>,
        rng: &mut SimRng,
        now: SimTime,
    ) -> Self {
        let mut c = QuicConnection::new(
            cfg.into(),
            Role::Client,
            local,
            remote,
            initial_version,
            now,
        );
        c.dcid = rng.next_u64().to_be_bytes();
        c.scid = rng.next_u64().to_be_bytes();
        c.ticket = ticket;
        c.token = token;
        c.start_handshake(now);
        c
    }

    fn server(
        cfg: Arc<QuicConfig>,
        local: SocketAddr,
        remote: SocketAddr,
        version: u32,
        scid: [u8; CID_LEN],
        dcid: [u8; CID_LEN],
        now: SimTime,
    ) -> Self {
        let mut c = QuicConnection::new(cfg, Role::Server, local, remote, version, now);
        c.scid = scid;
        c.dcid = dcid;
        c
    }

    fn new(
        cfg: Arc<QuicConfig>,
        role: Role,
        local: SocketAddr,
        remote: SocketAddr,
        version: u32,
        now: SimTime,
    ) -> Self {
        let max_idle = cfg.max_idle;
        QuicConnection {
            cfg,
            role,
            local,
            remote,
            version,
            dcid: [0; CID_LEN],
            scid: [0; CID_LEN],
            spaces: Default::default(),
            streams: BTreeMap::new(),
            next_stream_id: 0,
            next_uni_stream_id: 0,
            new_peer_streams: VecDeque::new(),
            hs: HsState::Initial,
            established_at: None,
            handshake_confirmed: false,
            error: None,
            close_queued: None,
            close_sent: false,
            draining: false,
            ticket: None,
            alpn: None,
            tickets_rx: Vec::new(),
            early_permitted: false,
            early_accepted: None,
            early_stream_frames: Vec::new(),
            resumed: false,
            validated: role == Role::Client,
            bytes_received: 0,
            bytes_sent: 0,
            token: None,
            new_token_rx: None,
            new_token_queued: false,
            handshake_done_queued: false,
            ping_queued: false,
            path_challenge_pending: None,
            path_challenge_queued: false,
            path_response_queued: None,
            path_probe_deadline: None,
            path_probe_retries: 0,
            path_seq: 0,
            pto_backoff: 0,
            srtt: None,
            vn_done: false,
            retried: false,
            last_activity: now,
            idle_deadline: Some(now + max_idle),
            pto_deadline: None,
            vn_round_trips: 0,
            plan: Vec::new(),
            frame_lists: Vec::new(),
        }
    }

    fn start_handshake(&mut self, now: SimTime) {
        let psk = self
            .ticket
            .as_ref()
            .filter(|t| t.is_valid_at(now) && t.version == TlsVersion::Tls13);
        self.early_permitted = self.cfg.tls.enable_0rtt && psk.is_some_and(|t| t.allows_early_data);
        // The ClientHello is encoded from the configuration by
        // reference, straight into the Initial send buffer.
        let tx = &mut self.spaces[EPOCH_INITIAL].crypto_tx.data;
        let before = tx.len();
        HandshakeRef::ClientHello {
            versions: Versions::List(&[TlsVersion::Tls13]),
            alpn: Alpns::List(&self.cfg.tls.alpn),
            psk: psk.map(SessionTicket::view),
            early_data: self.early_permitted,
            // ~100 bytes of QUIC transport parameters.
            pad: 100 + self.cfg.tls.extra_client_hello_pad,
        }
        .encode(tx);
        let flight_len = tx.len() - before;
        sink::emit(now.as_nanos(), || Event::TlsFlightSent {
            flight: "client_hello",
            bytes: flight_len,
        });
    }

    // ---- public state ----------------------------------------------------

    pub fn is_established(&self) -> bool {
        self.hs == HsState::Done
    }

    pub fn established_at(&self) -> Option<SimTime> {
        self.established_at
    }

    pub fn error(&self) -> Option<&QuicError> {
        self.error.as_ref()
    }

    pub fn is_closed(&self) -> bool {
        self.draining
    }

    pub fn version(&self) -> u32 {
        self.version
    }

    pub fn negotiated_alpn(&self) -> Option<&[u8]> {
        self.alpn.as_deref()
    }

    /// The handshake resumed a TLS session (no certificate flight).
    pub fn is_resumption(&self) -> bool {
        self.resumed
    }

    pub fn early_data_accepted(&self) -> Option<bool> {
        self.early_accepted
    }

    /// Session tickets received from the server (drained).
    pub fn take_tickets(&mut self) -> Vec<SessionTicket> {
        std::mem::take(&mut self.tickets_rx)
    }

    /// Address-validation token for future connections (drained).
    pub fn take_new_token(&mut self) -> Option<Vec<u8>> {
        self.new_token_rx.take()
    }

    // ---- streams ----------------------------------------------------------

    /// Open a bidirectional stream (client ids 0, 4, 8, ...; server ids
    /// 1, 5, 9, ...).
    pub fn open_bi(&mut self) -> u64 {
        let base = if self.role == Role::Client { 0 } else { 1 };
        let id = self.next_stream_id * 4 + base;
        self.next_stream_id += 1;
        self.streams.entry(id).or_default();
        id
    }

    /// Open a unidirectional stream (client ids 2, 6, ...; server ids
    /// 3, 7, ...) — HTTP/3 control streams ride on these.
    pub fn open_uni(&mut self) -> u64 {
        let base = if self.role == Role::Client { 2 } else { 3 };
        let id = self.next_uni_stream_id * 4 + base;
        self.next_uni_stream_id += 1;
        self.streams.entry(id).or_default();
        id
    }

    /// Queue stream data. Before the handshake completes this is only
    /// transmitted when 0-RTT is permitted (otherwise it waits).
    pub fn stream_send(&mut self, id: u64, data: &[u8], fin: bool) {
        let stream = self.streams.entry(id).or_default();
        stream.send.data.extend_from_slice(data);
        if fin {
            stream.fin_queued = true;
        }
    }

    /// Read assembled stream data; `bool` reports whether the peer
    /// finished the stream and everything has been delivered.
    pub fn stream_recv(&mut self, id: u64) -> (Vec<u8>, bool) {
        let mut data = Vec::new();
        let complete = self.stream_recv_into(id, &mut data);
        (data, complete)
    }

    /// [`Self::stream_recv`] that appends to `out` (handing over the
    /// stream's buffer when `out` is empty) and returns the `bool`.
    pub fn stream_recv_into(&mut self, id: u64, out: &mut Vec<u8>) -> bool {
        let Some(s) = self.streams.get_mut(&id) else {
            return false;
        };
        let complete = s.rx_complete();
        if complete {
            s.rx_fin_delivered = true;
        }
        if out.is_empty() {
            std::mem::swap(out, &mut s.recv.assembled);
        } else {
            out.extend_from_slice(&s.recv.assembled);
            s.recv.assembled.clear();
        }
        complete
    }

    /// Streams the peer opened since the last call.
    pub fn take_new_peer_streams(&mut self) -> Vec<u64> {
        self.new_peer_streams.drain(..).collect()
    }

    /// The oldest stream the peer opened that is not yet handed out.
    pub fn next_new_peer_stream(&mut self) -> Option<u64> {
        self.new_peer_streams.pop_front()
    }

    /// Begin closing with an application error code.
    pub fn close(&mut self, code: u64) {
        if self.close_queued.is_none() && !self.draining {
            self.close_queued = Some(code);
        }
    }

    // ---- connection migration (RFC 9000 §9) --------------------------------

    /// The client's local address changed (wifi→cellular style rebind):
    /// adopt the new address and start validating the new path. RTT and
    /// PTO state are reset because the old path's estimates say nothing
    /// about the new one (§9.4).
    pub fn rebind(&mut self, now: SimTime, new_local: SocketAddr) {
        self.local = new_local;
        sink::emit(now.as_nanos(), || Event::QuicStateUpdated {
            state: "local_rebind",
        });
        self.begin_path_validation(now);
    }

    /// Server side of a migration: packets from an established
    /// connection arrived from a new 4-tuple. Adopt the new peer
    /// address, drop to the pre-validation amplification budget
    /// (§9.3.1: at most 3x received bytes until the path validates),
    /// and probe the new path.
    fn migrate_to(&mut self, now: SimTime, peer: SocketAddr) {
        self.remote = peer;
        self.validated = false;
        self.bytes_received = 0;
        self.bytes_sent = 0;
        sink::emit(now.as_nanos(), || Event::QuicStateUpdated {
            state: "peer_migrated",
        });
        self.begin_path_validation(now);
    }

    fn begin_path_validation(&mut self, now: SimTime) {
        // Fresh path, fresh estimates (§9.4).
        self.srtt = None;
        self.pto_backoff = 0;
        self.path_seq += 1;
        // Deterministic challenge data — no RNG so runs that never
        // migrate stay byte-identical; successive probes still differ
        // via the path sequence number.
        let data = (u64::from_be_bytes(self.scid)
            ^ self.path_seq.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .to_be_bytes();
        self.path_challenge_pending = Some(data);
        self.path_challenge_queued = true;
        self.path_probe_retries = 0;
        self.path_probe_deadline = Some(now + self.pto_base());
    }

    /// Outstanding path probe, if any: `(challenge, retries, deadline)`.
    /// Test/observability accessor.
    pub fn path_probe(&self) -> Option<([u8; 8], u32, SimTime)> {
        match (self.path_challenge_pending, self.path_probe_deadline) {
            (Some(data), Some(deadline)) => Some((data, self.path_probe_retries, deadline)),
            _ => None,
        }
    }

    // ---- datagram input ----------------------------------------------------

    pub fn handle_datagram(&mut self, now: SimTime, data: &[u8]) {
        if self.draining {
            return;
        }
        self.last_activity = now;
        self.idle_deadline = Some(now + self.cfg.max_idle);
        self.bytes_received += data.len();

        // Version negotiation (client only, once, before any other
        // packet from the server).
        if self.role == Role::Client && !self.vn_done {
            if let Some(vn) = VersionNegotiation::decode(data) {
                self.vn_done = true;
                self.vn_round_trips += 1;
                sink::emit(now.as_nanos(), || Event::QuicStateUpdated {
                    state: "version_negotiation_received",
                });
                match self.cfg.versions.iter().find(|v| vn.supported.contains(v)) {
                    Some(&v) => self.restart_with_version(now, v),
                    None => {
                        self.error = Some(QuicError::NoCommonVersion);
                        self.draining = true;
                    }
                }
                return;
            }
        }
        let mut pos = 0;
        while pos < data.len() {
            let Some(pkt) = PacketRef::decode(data, &mut pos) else {
                break;
            };
            self.on_packet(now, pkt);
            if self.draining {
                return;
            }
        }
    }

    fn restart_with_version(&mut self, now: SimTime, version: u32) {
        self.version = version;
        self.spaces = Default::default();
        self.hs = HsState::Initial;
        self.pto_backoff = 0;
        self.pto_deadline = None;
        self.start_handshake(now);
    }

    fn on_packet(&mut self, now: SimTime, pkt: PacketRef<'_>) {
        let (ptype, size) = (ptype_str(pkt.ptype), pkt.payload.len());
        sink::emit(now.as_nanos(), || Event::QuicPacketReceived { ptype, size });
        metrics::count(Counter::QuicPacketsReceived, 1);
        // Retry (client): restart with the server's token.
        if pkt.ptype == PacketType::Retry {
            if self.role == Role::Client && !self.retried && self.hs == HsState::Initial {
                self.retried = true;
                sink::emit(now.as_nanos(), || Event::QuicStateUpdated {
                    state: "retry_received",
                });
                self.token = Some(pkt.token.to_vec());
                let v = self.version;
                self.restart_with_version(now, v);
            }
            return;
        }
        let epoch = epoch_of(pkt.ptype);
        // A Handshake packet from the client proves address ownership.
        if self.role == Role::Server && pkt.ptype == PacketType::Handshake {
            self.validated = true;
        }
        // Learn the peer's source CID from its first long-header packet.
        if self.role == Role::Client
            && matches!(pkt.ptype, PacketType::Initial | PacketType::Handshake)
        {
            self.dcid = pkt.scid;
        }
        if !self.spaces[epoch].received.insert(pkt.packet_number) {
            return; // duplicate
        }
        // A packet with any malformed frame is dropped whole: check
        // every frame before applying the first.
        let Some(ack_eliciting) = frame::validate(pkt.payload) else {
            return;
        };
        let zero_rtt = pkt.ptype == PacketType::ZeroRtt;
        for frame in FrameIter::new(pkt.payload) {
            self.on_frame(now, epoch, zero_rtt, frame);
            if self.draining {
                return;
            }
        }
        if ack_eliciting {
            self.spaces[epoch].ack_owed = true;
        }
    }

    fn on_frame(&mut self, now: SimTime, epoch: usize, zero_rtt: bool, frame: FrameRef<'_>) {
        match frame {
            FrameRef::Padding(_) | FrameRef::Ping => {}
            FrameRef::Ack(ack) => self.on_ack(now, epoch, ack),
            FrameRef::Crypto { offset, data } => {
                self.spaces[epoch].crypto_rx.insert(offset, data);
                self.process_crypto(now, epoch);
            }
            FrameRef::NewToken { token } => {
                if self.role == Role::Client {
                    self.new_token_rx = Some(token.to_vec());
                }
            }
            FrameRef::Stream {
                id,
                offset,
                data,
                fin,
            } => {
                // 0-RTT stream data is dropped unless accepted.
                if zero_rtt && self.role == Role::Server && self.early_accepted != Some(true) {
                    return;
                }
                let known = self.streams.contains_key(&id);
                let stream = self.streams.entry(id).or_default();
                stream.recv.insert(offset, data);
                if fin {
                    stream.rx_fin = Some(offset + data.len() as u64);
                }
                if !known && peer_initiated(self.role, id) {
                    self.new_peer_streams.push_back(id);
                }
            }
            FrameRef::ConnectionClose { error_code, .. } => {
                self.error.get_or_insert(QuicError::PeerClosed(error_code));
                self.draining = true;
            }
            FrameRef::HandshakeDone => {
                if self.role == Role::Client {
                    self.handshake_confirmed = true;
                    sink::emit(now.as_nanos(), || Event::QuicStateUpdated {
                        state: "handshake_confirmed",
                    });
                }
            }
            FrameRef::PathChallenge(data) => {
                // Echo on the active path (§8.2.2). If a second
                // challenge arrives before the first echo leaves, only
                // the latest matters — the peer only tracks one probe.
                self.path_response_queued = Some(data);
            }
            FrameRef::PathResponse(data) => {
                // Only the exact outstanding challenge validates the
                // path; stale or corrupted echoes are ignored (§8.2.3).
                if self.path_challenge_pending == Some(data) {
                    let retries = self.path_probe_retries;
                    self.path_challenge_pending = None;
                    self.path_challenge_queued = false;
                    self.path_probe_deadline = None;
                    self.path_probe_retries = 0;
                    if self.role == Role::Server {
                        self.validated = true;
                    }
                    sink::emit(now.as_nanos(), || Event::QuicPathValidated { retries });
                    metrics::count(Counter::QuicPathValidated, 1);
                }
            }
        }
    }

    fn on_ack(&mut self, now: SimTime, epoch: usize, ack: AckRef<'_>) {
        let largest = ack.largest;
        let mut newly_acked = false;
        let mut rtt_sample = None;
        let space = &mut self.spaces[epoch];
        for (hi, lo) in ack.ranges() {
            while let Some((&pn, _)) = space.sent.range(lo..=hi).next() {
                let sp = space.sent.remove(&pn).expect("ranged");
                newly_acked = true;
                if pn == largest && sp.ack_eliciting {
                    // RTT sample from the largest newly acked packet.
                    rtt_sample = Some(now - sp.time);
                }
                recycle(&mut self.frame_lists, sp.frames);
            }
        }
        if let Some(rtt) = rtt_sample {
            let srtt = match self.srtt {
                None => rtt,
                Some(s) => (s * 7 + rtt) / 8,
            };
            self.srtt = Some(srtt);
            sink::emit(now.as_nanos(), || Event::CcMetricsUpdated {
                cwnd: None,
                ssthresh: None,
                srtt_ns: Some(srtt.as_nanos() as u64),
            });
        }
        if newly_acked {
            self.pto_backoff = 0;
        }
        // Packet-threshold loss detection: anything 3 packets below the
        // largest acked is lost.
        let threshold = largest.saturating_sub(2);
        while let Some(entry) = self.spaces[epoch].sent.first_entry() {
            if *entry.key() >= threshold {
                break;
            }
            let (pn, sp) = entry.remove_entry();
            sink::emit(now.as_nanos(), || Event::QuicPacketLost {
                ptype: epoch_str(epoch),
                pn,
            });
            metrics::count(Counter::QuicPacketsLost, 1);
            self.requeue_lost_frames(epoch, &sp.frames);
            recycle(&mut self.frame_lists, sp.frames);
        }
        self.rearm_pto(now);
    }

    fn requeue_lost_frames(&mut self, epoch: usize, frames: &[SentFrame]) {
        for &f in frames {
            match f {
                SentFrame::Crypto { offset, len } => {
                    self.spaces[epoch].crypto_tx.on_lost(offset, len)
                }
                SentFrame::Stream {
                    id,
                    offset,
                    len,
                    fin,
                } => {
                    if let Some(s) = self.streams.get_mut(&id) {
                        s.send.on_lost(offset, len);
                        if fin {
                            s.fin_sent = false;
                        }
                    }
                }
                SentFrame::NewToken => self.new_token_queued = true,
                SentFrame::HandshakeDone => self.handshake_done_queued = true,
                SentFrame::PathChallenge(_) => {
                    // Re-queue only while the validation attempt is
                    // still live (not answered or abandoned since).
                    if self.path_challenge_pending.is_some() {
                        self.path_challenge_queued = true;
                    }
                }
                SentFrame::PathResponse(data) => self.path_response_queued = Some(data),
                SentFrame::Ping | SentFrame::Ack { .. } => {}
                SentFrame::ConnectionClose { .. } => self.close_sent = false,
            }
        }
    }

    // ---- handshake --------------------------------------------------------

    fn process_crypto(&mut self, now: SimTime, epoch: usize) {
        // Decode messages in place from the reassembled bytes; a partial
        // message stays buffered until more CRYPTO data arrives.
        let buf = std::mem::take(&mut self.spaces[epoch].crypto_rx.assembled);
        let mut pos = 0;
        while let Some((msg, used)) = HandshakeRef::decode(&buf[pos..]) {
            pos += used;
            self.on_handshake_message(now, msg);
            if self.hs == HsState::Failed || self.draining {
                break;
            }
        }
        let mut buf = buf;
        buf.drain(..pos);
        self.spaces[epoch].crypto_rx.assembled = buf;
    }

    fn on_handshake_message(&mut self, now: SimTime, msg: HandshakeRef<'_>) {
        match (self.role, msg) {
            (
                Role::Server,
                HandshakeRef::ClientHello {
                    versions,
                    alpn,
                    psk,
                    early_data,
                    ..
                },
            ) => {
                if self.hs != HsState::Initial {
                    return;
                }
                if !versions.contains(TlsVersion::Tls13) {
                    return self.hs_fail("QUIC requires TLS 1.3");
                }
                // The offered list is scanned in place.
                let chosen = alpn
                    .iter()
                    .find(|a| self.cfg.tls.alpn.iter().any(|ours| ours == a));
                if chosen.is_none() {
                    self.error = Some(QuicError::NoCommonAlpn);
                    self.close_queued = Some(0x178); // crypto error: no_application_protocol
                    self.hs = HsState::Failed;
                    return;
                }
                self.alpn = chosen.map(<[u8]>::to_vec);
                let psk_ok = psk.is_some_and(|t| {
                    t.server_id == self.cfg.tls.server_id
                        && t.is_valid_at(now)
                        && t.version == TlsVersion::Tls13
                        && chosen == Some(t.alpn)
                });
                self.resumed = psk_ok;
                let early = psk_ok
                    && early_data
                    && self.cfg.tls.enable_0rtt
                    && psk.is_some_and(|t| t.allows_early_data);
                self.early_accepted = Some(early);
                // SH in Initial; EE(+Cert+CV)+Fin in Handshake.
                self.queue_hs(
                    EPOCH_INITIAL,
                    HandshakeRef::ServerHello {
                        version: TlsVersion::Tls13,
                        resumed: psk_ok,
                    },
                );
                self.queue_hs(
                    EPOCH_HANDSHAKE,
                    HandshakeRef::EncryptedExtensions {
                        alpn: chosen,
                        early_data_accepted: early,
                    },
                );
                if !psk_ok {
                    self.queue_hs(
                        EPOCH_HANDSHAKE,
                        HandshakeRef::Certificate {
                            chain_len: self.cfg.tls.cert_chain_len,
                        },
                    );
                    self.queue_hs(EPOCH_HANDSHAKE, HandshakeRef::CertificateVerify);
                }
                self.queue_hs(EPOCH_HANDSHAKE, HandshakeRef::Finished);
                self.hs = HsState::WaitFinished;
            }
            (Role::Client, HandshakeRef::ServerHello { resumed, .. }) => {
                self.resumed = resumed;
            }
            (
                Role::Client,
                HandshakeRef::EncryptedExtensions {
                    alpn,
                    early_data_accepted,
                },
            ) => {
                self.alpn = alpn.map(<[u8]>::to_vec);
                if self.early_permitted {
                    self.early_accepted = Some(early_data_accepted);
                    sink::emit(now.as_nanos(), || Event::TlsEarlyData {
                        accepted: early_data_accepted,
                    });
                    metrics::count(
                        if early_data_accepted {
                            Counter::TlsEarlyDataAccepted
                        } else {
                            Counter::TlsEarlyDataRejected
                        },
                        1,
                    );
                    if !early_data_accepted {
                        // Replay 0-RTT stream data in 1-RTT.
                        for (id, offset, len, fin) in std::mem::take(&mut self.early_stream_frames)
                        {
                            if let Some(s) = self.streams.get_mut(&id) {
                                s.send.on_lost(offset, len);
                                if fin {
                                    s.fin_sent = false;
                                }
                            }
                        }
                    }
                }
            }
            (Role::Client, HandshakeRef::Certificate { .. })
            | (Role::Client, HandshakeRef::CertificateVerify) => {}
            (Role::Client, HandshakeRef::Finished) => {
                if self.hs != HsState::Initial {
                    return;
                }
                self.queue_hs(EPOCH_HANDSHAKE, HandshakeRef::Finished);
                self.hs = HsState::Done;
                self.established_at = Some(now);
                sink::emit(now.as_nanos(), || Event::QuicStateUpdated {
                    state: "handshake_complete",
                });
                let resumed = self.resumed;
                sink::emit(now.as_nanos(), || Event::TlsHandshakeCompleted { resumed });
                metrics::count(Counter::QuicHandshakesCompleted, 1);
                metrics::count(Counter::TlsHandshakesCompleted, 1);
                if resumed {
                    metrics::count(Counter::TlsResumedHandshakes, 1);
                }
            }
            (Role::Server, HandshakeRef::Finished) => {
                if self.hs != HsState::WaitFinished {
                    return;
                }
                self.hs = HsState::Done;
                self.established_at = Some(now);
                self.validated = true;
                sink::emit(now.as_nanos(), || Event::QuicStateUpdated {
                    state: "handshake_complete",
                });
                let resumed = self.resumed;
                sink::emit(now.as_nanos(), || Event::TlsHandshakeCompleted { resumed });
                self.handshake_done_queued = true;
                if self.cfg.issue_new_token {
                    self.new_token_queued = true;
                }
                // Session ticket over 1-RTT CRYPTO.
                let ticket = SessionTicketRef {
                    server_id: self.cfg.tls.server_id,
                    version: TlsVersion::Tls13,
                    alpn: self.alpn.as_deref().unwrap_or_default(),
                    issued_at: now,
                    lifetime: self.cfg.tls.ticket_lifetime,
                    allows_early_data: self.cfg.tls.enable_0rtt,
                    opaque_len: 120,
                };
                HandshakeRef::NewSessionTicket { ticket }
                    .encode(&mut self.spaces[EPOCH_APP].crypto_tx.data);
            }
            (Role::Client, HandshakeRef::NewSessionTicket { ticket }) => {
                self.tickets_rx.push(ticket.to_owned());
            }
            _ => self.hs_fail("unexpected handshake message"),
        }
    }

    fn hs_fail(&mut self, what: &'static str) {
        self.error = Some(QuicError::HandshakeFailed(what));
        self.hs = HsState::Failed;
        self.close_queued = Some(0x100);
    }

    /// Encode a handshake message straight into `epoch`'s send buffer.
    fn queue_hs(&mut self, epoch: usize, msg: HandshakeRef<'_>) {
        msg.encode(&mut self.spaces[epoch].crypto_tx.data);
    }

    // ---- timers -----------------------------------------------------------

    pub fn next_timeout(&self) -> Option<SimTime> {
        if self.draining {
            return None;
        }
        [
            self.pto_deadline,
            self.idle_deadline,
            self.path_probe_deadline,
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// PTO before exponential backoff — also the path-probe interval
    /// (a fixed interval keeps abandonment well inside the idle
    /// timeout; with the PTO backoff applied the fifth retry would
    /// land past `max_idle` and idle-close would mask the verdict).
    fn pto_base(&self) -> Duration {
        match self.srtt {
            Some(srtt) => srtt * 3,
            None => self.cfg.initial_pto,
        }
        .max(Duration::from_millis(10))
    }

    fn pto_duration(&self) -> Duration {
        self.pto_base() * 2u32.saturating_pow(self.pto_backoff).min(64)
    }

    fn rearm_pto(&mut self, now: SimTime) {
        let oldest = self
            .spaces
            .iter()
            .flat_map(|s| s.sent.values())
            .filter(|sp| sp.ack_eliciting)
            .map(|sp| sp.time)
            .min();
        self.pto_deadline = match oldest {
            Some(t) => Some((t + self.pto_duration()).max(now)),
            // RFC 9002 §6.2.2.1: a client keeps a PTO armed until the
            // handshake completes even with nothing ack-eliciting in
            // flight. Its ACK-only flights elicit no response, and the
            // server may be amplification-blocked after losing its
            // flight — without a client probe the handshake deadlocks.
            None if self.role == Role::Client && self.hs != HsState::Done => {
                Some(now + self.pto_duration())
            }
            None => None,
        };
    }

    /// Fire expired timers. Called from `poll_transmit`.
    fn handle_timers(&mut self, now: SimTime) {
        if let Some(idle) = self.idle_deadline {
            if now >= idle {
                self.error.get_or_insert(QuicError::IdleTimeout);
                self.draining = true;
                return;
            }
        }
        if let Some(pto) = self.pto_deadline {
            if now >= pto {
                self.pto_backoff += 1;
                let backoff = self.pto_backoff;
                sink::emit(now.as_nanos(), || Event::QuicPtoFired {
                    epoch: "all",
                    count: backoff,
                });
                metrics::count(Counter::QuicPtoFired, 1);
                if self.pto_backoff > 7 {
                    self.error.get_or_insert(QuicError::TooManyRetries);
                    self.draining = true;
                    return;
                }
                // Treat the oldest ack-eliciting packet in each armed
                // space as lost and resend its frames.
                for epoch in 0..3 {
                    let oldest = self.spaces[epoch]
                        .sent
                        .iter()
                        .find(|(_, sp)| sp.ack_eliciting)
                        .map(|(pn, _)| *pn);
                    if let Some(pn) = oldest {
                        let sp = self.spaces[epoch].sent.remove(&pn).expect("found");
                        self.requeue_lost_frames(epoch, &sp.frames);
                        recycle(&mut self.frame_lists, sp.frames);
                    }
                }
                // A client with nothing ack-eliciting in flight still
                // probes: ACK-only packets sit in `sent` without ever
                // eliciting a response, so an emptiness check alone
                // would leave the handshake stuck.
                let eliciting_in_flight = self
                    .spaces
                    .iter()
                    .flat_map(|s| s.sent.values())
                    .any(|sp| sp.ack_eliciting);
                if !eliciting_in_flight && self.role == Role::Client && self.hs != HsState::Done {
                    self.ping_queued = true;
                }
                self.pto_deadline = Some(now + self.pto_duration());
            }
        }
        // Path-probe retransmission / abandonment (§8.2.4).
        if let Some(probe) = self.path_probe_deadline {
            if now >= probe && self.path_challenge_pending.is_some() {
                self.path_probe_retries += 1;
                if self.path_probe_retries > PATH_PROBE_MAX_RETRIES {
                    let retries = self.path_probe_retries;
                    self.path_challenge_pending = None;
                    self.path_challenge_queued = false;
                    self.path_probe_deadline = None;
                    sink::emit(now.as_nanos(), || Event::QuicPathAbandoned { retries });
                    metrics::count(Counter::QuicPathAbandoned, 1);
                    // The probed path is the only one we have (the old
                    // 4-tuple is gone), so abandoning it ends the
                    // connection.
                    self.error.get_or_insert(QuicError::PathValidationFailed);
                    self.draining = true;
                    return;
                }
                self.path_challenge_queued = true;
                self.path_probe_deadline = Some(now + self.pto_base());
            }
        }
    }

    // ---- output -----------------------------------------------------------

    /// Build all datagrams that should be transmitted now.
    pub fn poll_transmit(&mut self, now: SimTime) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        self.poll_transmit_with(now, |dgram| out.push(dgram.into_vec()));
        out
    }

    /// Build all datagrams that should be transmitted now, handing each
    /// to `emit` in a pooled buffer.
    pub fn poll_transmit_with(&mut self, now: SimTime, mut emit: impl FnMut(PayloadBuf)) {
        if self.draining {
            return;
        }
        self.handle_timers(now);
        if self.draining {
            return;
        }
        // Amplification budget (servers, pre-validation).
        let mut budget = if self.validated {
            usize::MAX
        } else {
            AMPLIFICATION_FACTOR
                .saturating_mul(self.bytes_received)
                .saturating_sub(self.bytes_sent)
        };
        for _ in 0..64 {
            if budget < 64 {
                break; // not even room for a minimal packet
            }
            let Some(dgram) = self.build_datagram(now, budget.min(self.cfg.max_datagram)) else {
                break;
            };
            budget = budget.saturating_sub(dgram.len());
            self.bytes_sent += dgram.len();
            emit(dgram);
        }
        self.rearm_pto(now);
    }

    /// Assemble one datagram of at most `budget` bytes; `None` if there
    /// is nothing to send.
    fn build_datagram(&mut self, now: SimTime, budget: usize) -> Option<PayloadBuf> {
        let mut plan = std::mem::take(&mut self.plan);
        plan.clear();
        let mut parts = [Part {
            ptype: PacketType::Initial,
            start: 0,
            end: 0,
            pad: 0,
        }; 3];
        let n = self.plan_datagram(now, budget, &mut plan, &mut parts);
        let dgram = (n > 0).then(|| self.encode_datagram(now, &parts[..n], &plan));
        self.plan = plan;
        dgram
    }

    /// An ACK of as many of `epoch`'s received ranges as fit in `room`
    /// bytes, newest first (RFC 9000 §13.2.4 lets an ACK omit old
    /// ranges). `None` if nothing was received or not even the newest
    /// range fits.
    fn plan_ack(&self, epoch: usize, room: usize) -> Option<SentFrame> {
        let received = &self.spaces[epoch].received;
        let len_of = |ranges: usize| {
            let mut len = WireLen(0);
            write_ack(&mut len, 0, ranges, received.iter_desc());
            len.0
        };
        // The length grows with the range count: binary-search the most
        // ranges that fit (usually all of them, and there is one).
        let (mut lo, mut hi) = (0, received.iter_desc().count());
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if len_of(mid) <= room {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        (lo > 0).then(|| SentFrame::Ack {
            ranges: lo,
            len: len_of(lo),
        })
    }

    /// Plan the frames of one datagram of at most `budget` bytes into
    /// `plan` and its packets into `parts`; returns the packet count.
    fn plan_datagram(
        &mut self,
        now: SimTime,
        budget: usize,
        plan: &mut Vec<SentFrame>,
        parts: &mut [Part; 3],
    ) -> usize {
        // Per-epoch long-header overhead (header + pn + tag), generous.
        const LONG_OVERHEAD: usize = 1 + 4 + 2 + 2 * CID_LEN + 8 + 4 + PACKET_TAG_LEN;
        const SHORT_OVERHEAD: usize = 1 + CID_LEN + 4 + PACKET_TAG_LEN;
        let mut nparts = 0;
        let mut remaining = budget;
        let mut contains_initial = false;
        let mut initial_ack_eliciting = false;
        let frames_len =
            |frames: &[SentFrame]| frames.iter().map(SentFrame::wire_len).sum::<usize>();

        // CONNECTION_CLOSE preempts everything.
        if let Some(error_code) = self.close_queued {
            if self.close_sent {
                return 0;
            }
            self.close_sent = true;
            self.draining = true;
            plan.push(SentFrame::ConnectionClose { error_code });
            parts[0] = Part {
                ptype: if self.is_established() {
                    PacketType::OneRtt
                } else {
                    PacketType::Initial
                },
                start: 0,
                end: 1,
                pad: 0,
            };
            return 1;
        }

        // Initial + Handshake epochs: ACKs then CRYPTO.
        for (epoch, ptype) in [
            (EPOCH_INITIAL, PacketType::Initial),
            (EPOCH_HANDSHAKE, PacketType::Handshake),
        ] {
            if remaining < LONG_OVERHEAD + 8 {
                break;
            }
            let start = plan.len();
            let mut frame_budget = remaining - LONG_OVERHEAD;
            if self.spaces[epoch].ack_owed {
                if let Some(ack) = self.plan_ack(epoch, frame_budget) {
                    frame_budget -= ack.wire_len();
                    plan.push(ack);
                    self.spaces[epoch].ack_owed = false;
                }
            }
            while frame_budget > 8 {
                let max_chunk = frame_budget - 8; // frame header slack
                let Some((offset, len)) = self.spaces[epoch].crypto_tx.next_chunk(max_chunk) else {
                    break;
                };
                let f = SentFrame::Crypto { offset, len };
                frame_budget -= f.wire_len().min(frame_budget);
                plan.push(f);
            }
            if self.ping_queued && epoch == EPOCH_INITIAL && plan.len() == start {
                self.ping_queued = false;
                plan.push(SentFrame::Ping);
            }
            if plan.len() > start {
                let frames = &plan[start..];
                if ptype == PacketType::Initial {
                    contains_initial = true;
                    initial_ack_eliciting |= frames.iter().any(SentFrame::is_ack_eliciting);
                }
                remaining = remaining.saturating_sub(LONG_OVERHEAD + frames_len(frames));
                parts[nparts] = Part {
                    ptype,
                    start,
                    end: plan.len(),
                    pad: 0,
                };
                nparts += 1;
            }
        }

        // Application epoch: 1-RTT once keys exist — for a server that
        // is right after sending its Finished (0.5-RTT data, which is
        // what lets a 0-RTT DNS query be answered in the server's first
        // flight) — and 0-RTT for a resuming client before that.
        let can_send_1rtt = match self.role {
            Role::Client => self.is_established(),
            Role::Server => matches!(self.hs, HsState::WaitFinished | HsState::Done),
        };
        let app_ptype = if nparts > 0 {
            // Keep 1-RTT/0-RTT data out of datagrams carrying
            // Initial/Handshake packets: those are the handshake phase
            // on the wire (client Initials are padded to 1200 bytes),
            // and application data follows in the next datagram of this
            // same poll — matching how deployed stacks flush flights.
            None
        } else if can_send_1rtt {
            Some(PacketType::OneRtt)
        } else if self.role == Role::Client && self.early_permitted && self.early_accepted.is_none()
        {
            Some(PacketType::ZeroRtt)
        } else {
            None
        };
        if let Some(ptype) = app_ptype {
            let overhead = if ptype == PacketType::OneRtt {
                SHORT_OVERHEAD
            } else {
                LONG_OVERHEAD
            };
            if remaining >= overhead + 8 {
                let start = plan.len();
                let mut frame_budget = remaining - overhead;
                // Control frames go in only if they fit; otherwise they
                // stay queued for the next datagram.
                let fit = |plan: &mut Vec<SentFrame>, budget: &mut usize, f: SentFrame| {
                    let len = f.wire_len();
                    let fits = len <= *budget;
                    if fits {
                        *budget -= len;
                        plan.push(f);
                    }
                    fits
                };
                if ptype == PacketType::OneRtt {
                    if self.spaces[EPOCH_APP].ack_owed {
                        if let Some(ack) = self.plan_ack(EPOCH_APP, frame_budget) {
                            fit(plan, &mut frame_budget, ack);
                            self.spaces[EPOCH_APP].ack_owed = false;
                        }
                    }
                    if self.handshake_done_queued
                        && fit(plan, &mut frame_budget, SentFrame::HandshakeDone)
                    {
                        self.handshake_done_queued = false;
                    }
                    if self.new_token_queued
                        && self.role == Role::Server
                        && fit(plan, &mut frame_budget, SentFrame::NewToken)
                    {
                        self.new_token_queued = false;
                    }
                    if let Some(data) = self.path_response_queued {
                        if fit(plan, &mut frame_budget, SentFrame::PathResponse(data)) {
                            self.path_response_queued = None;
                        }
                    }
                    if self.path_challenge_queued {
                        let data = self.path_challenge_pending.expect("queued implies pending");
                        if fit(plan, &mut frame_budget, SentFrame::PathChallenge(data)) {
                            self.path_challenge_queued = false;
                            let retry = self.path_probe_retries;
                            sink::emit(now.as_nanos(), || Event::QuicPathChallenge { retry });
                            metrics::count(Counter::QuicPathChallenges, 1);
                        }
                    }
                    // Post-handshake CRYPTO (session tickets).
                    while frame_budget > 8 {
                        let Some((offset, len)) = self.spaces[EPOCH_APP]
                            .crypto_tx
                            .next_chunk(frame_budget - 8)
                        else {
                            break;
                        };
                        let f = SentFrame::Crypto { offset, len };
                        frame_budget = frame_budget.saturating_sub(f.wire_len());
                        plan.push(f);
                    }
                }
                // Stream data, in stream id order.
                let mut next_id = 0;
                while frame_budget > 12 {
                    let Some((&id, stream)) = self.streams.range_mut(next_id..).next() else {
                        break;
                    };
                    next_id = id + 1;
                    while frame_budget > 12 {
                        match stream.send.next_chunk(frame_budget - 12) {
                            Some((offset, len)) => {
                                let end = offset + len as u64;
                                let fin = stream.fin_queued && end == stream.send.data.len() as u64;
                                if fin {
                                    stream.fin_sent = true;
                                }
                                let f = SentFrame::Stream {
                                    id,
                                    offset,
                                    len,
                                    fin,
                                };
                                frame_budget = frame_budget.saturating_sub(f.wire_len());
                                if ptype == PacketType::ZeroRtt {
                                    self.early_stream_frames.push((id, offset, len, fin));
                                }
                                plan.push(f);
                            }
                            None => {
                                // A bare FIN (no data left to carry it).
                                if stream.fin_queued && !stream.fin_sent {
                                    stream.fin_sent = true;
                                    let f = SentFrame::Stream {
                                        id,
                                        offset: stream.send.data.len() as u64,
                                        len: 0,
                                        fin: true,
                                    };
                                    frame_budget = frame_budget.saturating_sub(f.wire_len());
                                    plan.push(f);
                                }
                                break;
                            }
                        }
                    }
                }
                if plan.len() > start {
                    parts[nparts] = Part {
                        ptype,
                        start,
                        end: plan.len(),
                        pad: 0,
                    };
                    nparts += 1;
                }
            }
        }

        // Datagrams with client Initials, or ack-eliciting Initials
        // from either role, are padded to 1200 bytes (§14.1).
        if nparts > 0 && contains_initial && (self.role == Role::Client || initial_ack_eliciting) {
            let token_len = self.token.as_ref().map_or(0, |t| t.len());
            let size = |parts: &[Part]| -> usize {
                parts
                    .iter()
                    .map(|p| {
                        let tl = if p.ptype == PacketType::Initial {
                            token_len
                        } else {
                            0
                        };
                        packet_len(p.ptype, tl, frames_len(&plan[p.start..p.end]) + p.pad)
                    })
                    .sum()
            };
            let target = MIN_INITIAL_SIZE.min(budget);
            let unpadded = size(&parts[..nparts]);
            if unpadded < target {
                // Pad at the end of the Initial packet; adding padding
                // can grow the length varint, so add then shrink to hit
                // the target exactly.
                let initial = parts[..nparts]
                    .iter()
                    .position(|p| p.ptype == PacketType::Initial)
                    .expect("contains an Initial");
                parts[initial].pad = target - unpadded;
                let current = size(&parts[..nparts]);
                if current > target {
                    parts[initial].pad = parts[initial].pad.saturating_sub(current - target);
                }
            }
        }
        nparts
    }

    /// Encode planned packets into one datagram buffer allocated at
    /// its exact size. It joins simnet's payload pool when the packet is
    /// dropped; it is not drawn from the pool, because growing pooled
    /// buffers (mostly small DNS messages and TCP segments) to datagram
    /// size would leave the pool holding thousands of them per thread.
    fn encode_datagram(&mut self, now: SimTime, parts: &[Part], plan: &[SentFrame]) -> PayloadBuf {
        let token_len = self.token.as_ref().map_or(0, |t| t.len());
        let payload_len = |p: &Part| {
            plan[p.start..p.end]
                .iter()
                .map(SentFrame::wire_len)
                .sum::<usize>()
                + p.pad
        };
        let total: usize = parts
            .iter()
            .map(|p| {
                let tl = if p.ptype == PacketType::Initial {
                    token_len
                } else {
                    0
                };
                packet_len(p.ptype, tl, payload_len(p))
            })
            .sum();
        let mut out = PayloadBuf::from(Vec::with_capacity(total));
        for p in parts {
            self.encode_packet(now, &mut out, p, &plan[p.start..p.end], payload_len(p));
        }
        debug_assert_eq!(out.len(), total);
        out
    }

    /// Write one packet — header, frames, padding, tag — and track it
    /// for loss recovery if it elicits an ACK.
    fn encode_packet(
        &mut self,
        now: SimTime,
        out: &mut Vec<u8>,
        part: &Part,
        frames: &[SentFrame],
        payload_len: usize,
    ) {
        let ptype = part.ptype;
        let epoch = epoch_of(ptype);
        let pn = self.spaces[epoch].next_pn;
        self.spaces[epoch].next_pn += 1;
        let before = out.len();
        let token = match (&self.token, ptype) {
            (Some(token), PacketType::Initial) => &token[..],
            _ => &[],
        };
        write_header(
            out,
            ptype,
            self.version,
            &self.dcid,
            &self.scid,
            token,
            pn,
            payload_len,
        );
        for f in frames {
            self.write_frame(out, epoch, f);
        }
        out.put_zeros(part.pad);
        write_tag(out);
        let size = out.len() - before;
        sink::emit(now.as_nanos(), || Event::QuicPacketSent {
            ptype: ptype_str(ptype),
            pn,
            size,
        });
        metrics::count(Counter::QuicPacketsSent, 1);
        let ack_eliciting = frames.iter().any(SentFrame::is_ack_eliciting);
        if ack_eliciting {
            let mut kept = self.frame_lists.pop().unwrap_or_default();
            kept.extend_from_slice(frames);
            self.spaces[epoch].sent.insert(
                pn,
                SentPacket {
                    time: now,
                    ack_eliciting,
                    frames: kept,
                },
            );
            if self.pto_deadline.is_none() {
                self.pto_deadline = Some(now + self.pto_duration());
            }
        }
    }

    /// Encode one planned frame; CRYPTO and STREAM data come from the
    /// send buffers.
    fn write_frame(&self, out: &mut Vec<u8>, epoch: usize, f: &SentFrame) {
        match *f {
            SentFrame::Ping => write_ping(out),
            SentFrame::Ack { ranges, .. } => {
                write_ack(out, 0, ranges, self.spaces[epoch].received.iter_desc())
            }
            SentFrame::Crypto { offset, len } => {
                write_crypto_header(out, offset, len);
                out.extend_from_slice(self.spaces[epoch].crypto_tx.slice(offset, len));
            }
            SentFrame::NewToken => {
                write_new_token(out, &token_bytes(self.cfg.tls.server_id, self.remote))
            }
            SentFrame::Stream {
                id,
                offset,
                len,
                fin,
            } => {
                write_stream_header(out, id, offset, len, fin);
                let stream = self.streams.get(&id).expect("planned from this stream");
                out.extend_from_slice(stream.send.slice(offset, len));
            }
            SentFrame::PathChallenge(data) => write_path_challenge(out, &data),
            SentFrame::PathResponse(data) => write_path_response(out, &data),
            SentFrame::ConnectionClose { error_code } => {
                write_connection_close(out, error_code, &[])
            }
            SentFrame::HandshakeDone => write_handshake_done(out),
        }
    }
}

/// Length of an address-validation token.
const TOKEN_LEN: usize = 32;

/// An address-validation token bound to a server identity and client
/// IP.
fn token_bytes(server_id: u64, client: SocketAddr) -> [u8; TOKEN_LEN] {
    let mut t = [0u8; TOKEN_LEN]; // the last 16 bytes: modelled integrity tag
    t[0..4].copy_from_slice(&[0x54, 0x4F, 0x4B, 0x31]); // "TOK1"
    t[4..12].copy_from_slice(&server_id.to_be_bytes());
    t[12..16].copy_from_slice(&client.ip.0.to_be_bytes());
    t
}

fn token_valid(token: &[u8], server_id: u64, client: SocketAddr) -> bool {
    token.len() == TOKEN_LEN && token[..16] == token_bytes(server_id, client)[..16]
}

/// A QUIC server endpoint: demultiplexes datagrams by source address,
/// answers unsupported versions (including the version-0 scan probe)
/// with Version Negotiation, and optionally enforces Retry-based
/// address validation.
#[derive(Debug)]
pub struct QuicServer {
    /// Shared with every accepted connection.
    cfg: Arc<QuicConfig>,
    pub local: SocketAddr,
    conns: BTreeMap<SocketAddr, QuicConnection>,
}

impl QuicServer {
    pub fn new(local: SocketAddr, cfg: impl Into<Arc<QuicConfig>>) -> Self {
        QuicServer {
            local,
            cfg: cfg.into(),
            conns: BTreeMap::new(),
        }
    }

    /// Handle a datagram from `src`; immediate stateless responses
    /// (Version Negotiation, Retry) are returned directly.
    pub fn handle_datagram(
        &mut self,
        now: SimTime,
        src: SocketAddr,
        data: &[u8],
    ) -> Vec<(SocketAddr, Vec<u8>)> {
        if let Some(conn) = self.conns.get_mut(&src) {
            conn.handle_datagram(now, data);
            return Vec::new();
        }
        // New 4-tuple carrying a short-header packet: an established
        // connection's peer migrated (RFC 9000 §9). Match it to a
        // connection by destination CID and rebind the 4-tuple.
        let Some(version) = Packet::peek_long_header_version(data) else {
            self.migrate(now, src, data);
            return Vec::new();
        };
        if !self.cfg.versions.contains(&version) {
            // Version Negotiation — stateless, no connection created.
            // This is also the response to the paper's version-0 probe.
            let mut pos = 0;
            let (dcid, scid) = match PacketRef::decode(data, &mut pos) {
                Some(p) => (p.dcid, p.scid),
                None => ([0u8; CID_LEN], [0u8; CID_LEN]),
            };
            let vn = VersionNegotiation {
                dcid: scid,
                scid: dcid,
                supported: self.cfg.versions.clone(),
            };
            return vec![(src, vn.encode())];
        }
        let mut pos = 0;
        let Some(pkt) = PacketRef::decode(data, &mut pos) else {
            return Vec::new();
        };
        if pkt.ptype != PacketType::Initial {
            return Vec::new();
        }
        let has_valid_token = token_valid(pkt.token, self.cfg.tls.server_id, src);
        if self.cfg.retry_required && !has_valid_token {
            let mut retry = Packet::new(
                PacketType::Retry,
                version,
                pkt.scid,
                pkt.dcid,
                0,
                Vec::new(),
            );
            retry.token = token_bytes(self.cfg.tls.server_id, src).to_vec();
            let mut out = Vec::new();
            retry.encode(&mut out);
            return vec![(src, out)];
        }
        let mut conn = QuicConnection::server(
            Arc::clone(&self.cfg),
            self.local,
            src,
            version,
            // Server chooses its own CID; we derive it from the client's.
            {
                let mut scid = pkt.dcid;
                scid[0] ^= 0xFF;
                scid
            },
            pkt.scid,
            now,
        );
        conn.validated = has_valid_token;
        conn.handle_datagram(now, data);
        self.conns.insert(src, conn);
        Vec::new()
    }

    /// A short-header datagram arrived from an unknown 4-tuple: if its
    /// destination CID names a live connection, the peer migrated —
    /// rekey the connection to the new address, reset its amplification
    /// budget, and start path validation. Otherwise drop the datagram
    /// (stateless reset territory, which we do not model).
    fn migrate(&mut self, now: SimTime, src: SocketAddr, data: &[u8]) {
        if data.len() < 1 + CID_LEN || data[0] & 0xC0 != 0x40 {
            return;
        }
        let mut dcid = [0u8; CID_LEN];
        dcid.copy_from_slice(&data[1..1 + CID_LEN]);
        // CIDs are unique per connection, so at most one entry matches
        // and the HashMap scan order cannot affect the outcome.
        let Some(old) = self
            .conns
            .iter()
            .find(|(_, c)| c.scid == dcid && !c.is_closed())
            .map(|(peer, _)| *peer)
        else {
            return;
        };
        let mut conn = self.conns.remove(&old).expect("peer listed");
        conn.migrate_to(now, src);
        conn.handle_datagram(now, data);
        self.conns.insert(src, conn);
    }

    /// Poll every connection for outbound datagrams.
    pub fn poll_transmit(&mut self, now: SimTime) -> Vec<(SocketAddr, Vec<u8>)> {
        let mut out = Vec::new();
        self.poll_transmit_with(now, |peer, dgram| out.push((peer, dgram.into_vec())));
        out
    }

    /// Poll every connection, handing each datagram and its peer to
    /// `emit` in a pooled buffer.
    pub fn poll_transmit_with(
        &mut self,
        now: SimTime,
        mut emit: impl FnMut(SocketAddr, PayloadBuf),
    ) {
        for (&peer, conn) in self.conns.iter_mut() {
            conn.poll_transmit_with(now, |dgram| emit(peer, dgram));
        }
    }

    pub fn next_timeout(&self) -> Option<SimTime> {
        self.conns.values().filter_map(|c| c.next_timeout()).min()
    }

    pub fn connection(&mut self, peer: SocketAddr) -> Option<&mut QuicConnection> {
        self.conns.get_mut(&peer)
    }

    pub fn connections(&mut self) -> impl Iterator<Item = (&SocketAddr, &mut QuicConnection)> {
        self.conns.iter_mut()
    }

    /// Drop drained connections.
    pub fn reap(&mut self) {
        self.conns.retain(|_, c| !c.is_closed());
    }

    pub fn len(&self) -> usize {
        self.conns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }
}
