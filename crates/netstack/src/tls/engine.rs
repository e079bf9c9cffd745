//! The TLS client and server state machines.
//!
//! Transport-agnostic: callers feed received bytes with `read_wire` and
//! drain bytes to transmit with `take_output_with` (or `take_output`).
//! Over TCP the bytes are written straight into a
//! [`crate::tcp::TcpSocket`]'s send buffer; QUIC instead embeds the
//! handshake *messages* (not records) in CRYPTO frames.
//!
//! Records and handshake messages are decoded by borrowing from the
//! received bytes (only an incomplete tail is buffered) and encoded
//! straight into the output buffer.
//!
//! Flights implemented:
//!
//! * TLS 1.3 full: CH -> SH, EE, Cert, CV, Fin -> Fin           (1 RTT)
//! * TLS 1.3 resumption (PSK): CH -> SH, EE, Fin -> Fin         (1 RTT,
//!   no certificate — this is what keeps DoQ under the QUIC
//!   amplification limit in the paper's measurements)
//! * TLS 1.3 0-RTT: CH + early data -> ... (accepted or replayed)
//! * TLS 1.2 full: CH -> SH, Cert, SHD -> CKE, CCS, Fin -> CCS, Fin
//!   (2 RTT)
//! * TLS 1.2 abbreviated: CH -> SH, CCS, Fin -> CCS, Fin        (1 RTT)
//!
//! Servers issue NewSessionTicket after the handshake (7-day lifetime,
//! like every resolver the paper measured).

use crate::tls::messages::{
    reassemble, write_app_data, write_handshake_record, Alpns, HandshakeRef, RecordRef, TlsVersion,
    Versions, CT_APPLICATION_DATA, CT_HANDSHAKE,
};
use crate::tls::session::{SessionTicket, SessionTicketRef};
use doqlab_simnet::{Duration, SimTime};
use doqlab_telemetry::metrics::{self, Counter};
use doqlab_telemetry::{sink, Event};
use std::sync::Arc;

/// Shared client/server configuration. Endpoints hold it behind an
/// `Arc`, so one configuration serves every connection of an endpoint.
#[derive(Debug, Clone)]
pub struct TlsConfig {
    /// Server identity for ticket validation (servers only).
    pub server_id: u64,
    /// Supported versions, most preferred first.
    pub versions: Vec<TlsVersion>,
    /// ALPN: offered (client) / supported (server).
    pub alpn: Vec<Vec<u8>>,
    /// Certificate chain size on the wire (servers only).
    pub cert_chain_len: u16,
    /// Accept / request 0-RTT early data.
    pub enable_0rtt: bool,
    /// Lifetime of issued tickets (servers only).
    pub ticket_lifetime: Duration,
    /// Extra ClientHello padding (e.g. QUIC transport parameters).
    pub extra_client_hello_pad: u16,
}

impl Default for TlsConfig {
    fn default() -> Self {
        TlsConfig {
            server_id: 0,
            versions: vec![TlsVersion::Tls13, TlsVersion::Tls12],
            alpn: Vec::new(),
            cert_chain_len: 2400,
            enable_0rtt: false,
            ticket_lifetime: crate::tls::session::MAX_TICKET_LIFETIME,
            extra_client_hello_pad: 0,
        }
    }
}

/// Fatal handshake failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TlsError {
    NoCommonVersion,
    NoCommonAlpn,
    UnexpectedMessage(&'static str),
    PeerAlert(u8),
}

impl std::fmt::Display for TlsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TlsError::NoCommonVersion => write!(f, "no common TLS version"),
            TlsError::NoCommonAlpn => write!(f, "no common ALPN protocol"),
            TlsError::UnexpectedMessage(m) => write!(f, "unexpected message: {m}"),
            TlsError::PeerAlert(c) => write!(f, "peer sent fatal alert {c}"),
        }
    }
}

impl std::error::Error for TlsError {}

/// Hand a non-empty buffer's bytes to `f`, then clear it.
fn drain_with(buf: &mut Vec<u8>, f: impl FnOnce(&[u8])) {
    if !buf.is_empty() {
        f(buf);
        buf.clear();
    }
}

/// Append a fatal alert record.
fn write_alert(out: &mut Vec<u8>, code: u8) {
    RecordRef::Alert { fatal: true, code }.encode(out);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClientState {
    Start,
    WaitServerHello,
    /// TLS 1.3: waiting for EE/Cert/CV/Finished.
    WaitServerFlight13,
    /// TLS 1.2 full: waiting for Certificate / ServerHelloDone.
    WaitServerFlight12,
    /// TLS 1.2: waiting for the server Finished.
    WaitServerFinished12,
    Connected,
    Failed,
}

/// Client endpoint.
#[derive(Debug)]
pub struct TlsClient {
    cfg: Arc<TlsConfig>,
    state: ClientState,
    ticket: Option<SessionTicket>,
    out: Vec<u8>,
    /// Incomplete handshake message carried over between records.
    hs_in: Vec<u8>,
    /// Incomplete record carried over between reads.
    rec_buf: Vec<u8>,
    app_rx: Vec<u8>,
    app_tx_pending: Vec<u8>,
    early_sent: Vec<u8>,
    attempted_early: bool,
    early_accepted: Option<bool>,
    version: Option<TlsVersion>,
    alpn: Option<Vec<u8>>,
    tickets: Vec<SessionTicket>,
    connected_at: Option<SimTime>,
    error: Option<TlsError>,
    resumed_12: bool,
    resumed_13: bool,
    seen_ee: bool,
}

impl TlsClient {
    pub fn new(cfg: impl Into<Arc<TlsConfig>>, ticket: Option<SessionTicket>) -> Self {
        TlsClient {
            cfg: cfg.into(),
            state: ClientState::Start,
            ticket,
            out: Vec::new(),
            hs_in: Vec::new(),
            rec_buf: Vec::new(),
            app_rx: Vec::new(),
            app_tx_pending: Vec::new(),
            early_sent: Vec::new(),
            attempted_early: false,
            early_accepted: None,
            version: None,
            alpn: None,
            tickets: Vec::new(),
            connected_at: None,
            error: None,
            resumed_12: false,
            resumed_13: false,
            seen_ee: false,
        }
    }

    /// Begin the handshake: emits the ClientHello (plus 0-RTT data if
    /// queued, permitted, and the ticket allows it).
    pub fn start(&mut self, now: SimTime) {
        assert_eq!(self.state, ClientState::Start, "start() twice");
        let psk = self
            .ticket
            .as_ref()
            .filter(|t| t.is_valid_at(now) && self.cfg.versions.contains(&t.version));
        let early_data = self.cfg.enable_0rtt
            && psk.is_some_and(|t| t.allows_early_data)
            && !self.app_tx_pending.is_empty();
        self.attempted_early = early_data;
        write_handshake_record(
            &mut self.out,
            true,
            HandshakeRef::ClientHello {
                versions: Versions::List(&self.cfg.versions),
                alpn: Alpns::List(&self.cfg.alpn),
                psk: psk.map(SessionTicket::view),
                early_data,
                pad: self.cfg.extra_client_hello_pad,
            },
        );
        if early_data {
            let data = std::mem::take(&mut self.app_tx_pending);
            write_app_data(&mut self.out, &data);
            self.early_sent = data;
        }
        let flight_len = self.out.len();
        sink::emit(now.as_nanos(), || Event::TlsFlightSent {
            flight: "client_hello",
            bytes: flight_len,
        });
        self.state = ClientState::WaitServerHello;
    }

    /// Feed bytes received from the transport.
    pub fn read_wire(&mut self, now: SimTime, data: &[u8]) {
        if self.state == ClientState::Failed {
            return;
        }
        let mut pending = std::mem::take(&mut self.rec_buf);
        reassemble(&mut pending, data, |rest| {
            let (rec, used) = RecordRef::decode(rest)?;
            self.on_record(now, rec);
            (self.state != ClientState::Failed).then_some(used)
        });
        self.rec_buf = pending;
    }

    fn on_record(&mut self, now: SimTime, rec: RecordRef<'_>) {
        match rec {
            RecordRef::Alert { fatal, code } => {
                if fatal {
                    self.error.get_or_insert(TlsError::PeerAlert(code));
                    self.state = ClientState::Failed;
                }
            }
            RecordRef::ChangeCipherSpec => {}
            RecordRef::PlainHandshake(bytes)
            | RecordRef::Encrypted {
                inner_type: CT_HANDSHAKE,
                plaintext: bytes,
            } => {
                let mut pending = std::mem::take(&mut self.hs_in);
                reassemble(&mut pending, bytes, |rest| {
                    let (msg, used) = HandshakeRef::decode(rest)?;
                    self.on_handshake(now, msg);
                    (self.state != ClientState::Failed).then_some(used)
                });
                self.hs_in = pending;
            }
            RecordRef::Encrypted {
                inner_type: CT_APPLICATION_DATA,
                plaintext,
            } => {
                self.app_rx.extend_from_slice(plaintext);
            }
            RecordRef::Encrypted { .. } => {}
        }
    }

    fn on_handshake(&mut self, now: SimTime, msg: HandshakeRef<'_>) {
        match (self.state, msg) {
            (ClientState::WaitServerHello, HandshakeRef::ServerHello { version, resumed }) => {
                self.version = Some(version);
                match version {
                    TlsVersion::Tls13 => {
                        self.resumed_13 = resumed;
                        self.state = ClientState::WaitServerFlight13;
                    }
                    TlsVersion::Tls12 => {
                        self.resumed_12 = resumed;
                        if self.attempted_early {
                            // A 1.2 server never reads 0-RTT records:
                            // treat the downgrade as a rejection and
                            // re-queue the early data for the
                            // post-handshake flight.
                            self.early_accepted = Some(false);
                            sink::emit(now.as_nanos(), || Event::TlsEarlyData { accepted: false });
                            metrics::count(Counter::TlsEarlyDataRejected, 1);
                            let replay = std::mem::take(&mut self.early_sent);
                            self.app_tx_pending.splice(0..0, replay);
                        }
                        // 1.2 has no EE; a plain-1.2 server ignores the
                        // offered ALPN extension detail — assume first
                        // offered protocol.
                        self.alpn = self.cfg.alpn.first().cloned();
                        if resumed {
                            self.state = ClientState::WaitServerFinished12;
                        } else {
                            self.state = ClientState::WaitServerFlight12;
                        }
                    }
                }
            }
            (
                ClientState::WaitServerFlight13,
                HandshakeRef::EncryptedExtensions {
                    alpn,
                    early_data_accepted,
                },
            ) => {
                self.alpn = alpn.map(<[u8]>::to_vec);
                self.seen_ee = true;
                if self.attempted_early {
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
                        // Rejected: re-queue for after the handshake.
                        let replay = std::mem::take(&mut self.early_sent);
                        self.app_tx_pending.splice(0..0, replay);
                    }
                }
            }
            (ClientState::WaitServerFlight13, HandshakeRef::Certificate { .. })
            | (ClientState::WaitServerFlight13, HandshakeRef::CertificateVerify) => {}
            (ClientState::WaitServerFlight13, HandshakeRef::Finished) => {
                if !self.seen_ee {
                    return self.fail(TlsError::UnexpectedMessage("Finished before EE"));
                }
                let before = self.out.len();
                write_handshake_record(&mut self.out, false, HandshakeRef::Finished);
                let flight_len = self.out.len() - before;
                sink::emit(now.as_nanos(), || Event::TlsFlightSent {
                    flight: "finished",
                    bytes: flight_len,
                });
                self.complete(now);
            }
            (ClientState::WaitServerFlight12, HandshakeRef::Certificate { .. }) => {}
            (ClientState::WaitServerFlight12, HandshakeRef::ServerHelloDone) => {
                write_handshake_record(&mut self.out, true, HandshakeRef::ClientKeyExchange);
                RecordRef::ChangeCipherSpec.encode(&mut self.out);
                write_handshake_record(&mut self.out, false, HandshakeRef::Finished);
                self.state = ClientState::WaitServerFinished12;
            }
            (ClientState::WaitServerFinished12, HandshakeRef::Finished) => {
                if self.resumed_12 {
                    // Abbreviated: the client's CCS+Finished go second.
                    RecordRef::ChangeCipherSpec.encode(&mut self.out);
                    write_handshake_record(&mut self.out, false, HandshakeRef::Finished);
                }
                self.complete(now);
            }
            (_, HandshakeRef::NewSessionTicket { ticket }) => {
                self.tickets.push(ticket.to_owned());
            }
            (_, _other) => self.fail(TlsError::UnexpectedMessage("client state machine")),
        }
    }

    fn complete(&mut self, now: SimTime) {
        self.state = ClientState::Connected;
        self.connected_at = Some(now);
        let resumed = self.resumed_12 || self.resumed_13;
        sink::emit(now.as_nanos(), || Event::TlsHandshakeCompleted { resumed });
        metrics::count(Counter::TlsHandshakesCompleted, 1);
        if resumed {
            metrics::count(Counter::TlsResumedHandshakes, 1);
        }
        write_app_data(&mut self.out, &self.app_tx_pending);
        self.app_tx_pending.clear();
    }

    fn fail(&mut self, e: TlsError) {
        write_alert(&mut self.out, 40);
        self.error = Some(e);
        self.state = ClientState::Failed;
    }

    /// Queue application data (sent as 0-RTT if possible, else after
    /// the handshake).
    pub fn write_app(&mut self, data: &[u8]) {
        if self.state == ClientState::Connected {
            write_app_data(&mut self.out, data);
        } else {
            self.app_tx_pending.extend_from_slice(data);
        }
    }

    /// Take decrypted application bytes.
    pub fn read_app(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.app_rx)
    }

    /// Hand decrypted application bytes to `read`, then drop them; the
    /// buffer keeps its capacity.
    pub fn read_app_with(&mut self, read: impl FnOnce(&[u8])) {
        drain_with(&mut self.app_rx, read);
    }

    /// Take bytes to hand to the transport.
    pub fn take_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.out)
    }

    /// Hand the bytes to transmit to `write` (e.g. a TCP send buffer),
    /// then drop them; the buffer keeps its capacity.
    pub fn take_output_with(&mut self, write: impl FnOnce(&[u8])) {
        drain_with(&mut self.out, write);
    }

    pub fn is_connected(&self) -> bool {
        self.state == ClientState::Connected
    }

    pub fn connected_at(&self) -> Option<SimTime> {
        self.connected_at
    }

    pub fn error(&self) -> Option<&TlsError> {
        self.error.as_ref()
    }

    pub fn negotiated_version(&self) -> Option<TlsVersion> {
        self.version
    }

    pub fn negotiated_alpn(&self) -> Option<&[u8]> {
        self.alpn.as_deref()
    }

    /// Was the 0-RTT attempt accepted? `None` until known / not tried.
    pub fn early_data_accepted(&self) -> Option<bool> {
        self.early_accepted
    }

    /// Tickets received so far (drained).
    pub fn take_tickets(&mut self) -> Vec<SessionTicket> {
        std::mem::take(&mut self.tickets)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ServerState {
    WaitClientHello,
    /// TLS 1.3: flight sent, waiting for client Finished.
    WaitClientFinished13,
    /// TLS 1.2 full: waiting for CKE.
    WaitClientKeyExchange,
    /// TLS 1.2: waiting for client Finished.
    WaitClientFinished12,
    Connected,
    Failed,
}

/// Server endpoint.
#[derive(Debug)]
pub struct TlsServer {
    cfg: Arc<TlsConfig>,
    state: ServerState,
    out: Vec<u8>,
    /// Incomplete handshake message carried over between records.
    hs_in: Vec<u8>,
    /// Incomplete record carried over between reads.
    rec_buf: Vec<u8>,
    app_rx: Vec<u8>,
    /// Early-data records arriving before the handshake completes.
    early_rx: Vec<u8>,
    early_accepted: bool,
    version: Option<TlsVersion>,
    alpn: Option<Vec<u8>>,
    connected_at: Option<SimTime>,
    error: Option<TlsError>,
    resumed: bool,
    /// PSK accepted on either version — observational only (the 1.3
    /// path does not feed [`Self::is_resumption`]).
    psk_accepted: bool,
    tickets_to_send: u32,
}

impl TlsServer {
    pub fn new(cfg: impl Into<Arc<TlsConfig>>) -> Self {
        TlsServer {
            cfg: cfg.into(),
            state: ServerState::WaitClientHello,
            out: Vec::new(),
            hs_in: Vec::new(),
            rec_buf: Vec::new(),
            app_rx: Vec::new(),
            early_rx: Vec::new(),
            early_accepted: false,
            version: None,
            alpn: None,
            connected_at: None,
            error: None,
            resumed: false,
            psk_accepted: false,
            tickets_to_send: 1,
        }
    }

    pub fn read_wire(&mut self, now: SimTime, data: &[u8]) {
        if self.state == ServerState::Failed {
            return;
        }
        let mut pending = std::mem::take(&mut self.rec_buf);
        reassemble(&mut pending, data, |rest| {
            let (rec, used) = RecordRef::decode(rest)?;
            self.on_record(now, rec);
            (self.state != ServerState::Failed).then_some(used)
        });
        self.rec_buf = pending;
    }

    fn on_record(&mut self, now: SimTime, rec: RecordRef<'_>) {
        match rec {
            RecordRef::Alert { fatal, code } => {
                if fatal {
                    self.error.get_or_insert(TlsError::PeerAlert(code));
                    self.state = ServerState::Failed;
                }
            }
            RecordRef::ChangeCipherSpec => {}
            RecordRef::PlainHandshake(bytes)
            | RecordRef::Encrypted {
                inner_type: CT_HANDSHAKE,
                plaintext: bytes,
            } => {
                let mut pending = std::mem::take(&mut self.hs_in);
                reassemble(&mut pending, bytes, |rest| {
                    let (msg, used) = HandshakeRef::decode(rest)?;
                    self.on_handshake(now, msg);
                    (self.state != ServerState::Failed).then_some(used)
                });
                self.hs_in = pending;
            }
            RecordRef::Encrypted {
                inner_type: CT_APPLICATION_DATA,
                plaintext,
            } => {
                if self.state == ServerState::Connected {
                    self.app_rx.extend_from_slice(plaintext);
                } else if self.early_accepted {
                    self.early_rx.extend_from_slice(plaintext);
                }
                // Otherwise: early data we did not accept — in real TLS
                // it is undecryptable and skipped; the client replays.
            }
            RecordRef::Encrypted { .. } => {}
        }
    }

    fn on_handshake(&mut self, now: SimTime, msg: HandshakeRef<'_>) {
        match (self.state, msg) {
            (
                ServerState::WaitClientHello,
                HandshakeRef::ClientHello {
                    versions,
                    alpn,
                    psk,
                    early_data,
                    ..
                },
            ) => self.on_client_hello(now, versions, alpn, psk, early_data),
            (ServerState::WaitClientFinished13, HandshakeRef::Finished) => {
                self.complete(now);
            }
            (ServerState::WaitClientKeyExchange, HandshakeRef::ClientKeyExchange) => {
                self.state = ServerState::WaitClientFinished12;
            }
            (ServerState::WaitClientFinished12, HandshakeRef::Finished) => {
                if !self.resumed {
                    RecordRef::ChangeCipherSpec.encode(&mut self.out);
                    write_handshake_record(&mut self.out, false, HandshakeRef::Finished);
                }
                self.complete(now);
            }
            (_, _other) => {
                self.error = Some(TlsError::UnexpectedMessage("server state machine"));
                self.state = ServerState::Failed;
            }
        }
    }

    fn on_client_hello(
        &mut self,
        now: SimTime,
        versions: Versions<'_>,
        alpn: Alpns<'_>,
        psk: Option<SessionTicketRef<'_>>,
        early_data: bool,
    ) {
        // Version: server preference order.
        let Some(version) = self
            .cfg
            .versions
            .iter()
            .copied()
            .find(|v| versions.contains(*v))
        else {
            write_alert(&mut self.out, 70);
            self.error = Some(TlsError::NoCommonVersion);
            self.state = ServerState::Failed;
            return;
        };
        // ALPN: first client protocol the server supports.
        let chosen_alpn = alpn
            .iter()
            .find(|a| self.cfg.alpn.iter().any(|ours| ours == a));
        if chosen_alpn.is_none() && !self.cfg.alpn.is_empty() && alpn.len() > 0 {
            write_alert(&mut self.out, 120);
            self.error = Some(TlsError::NoCommonAlpn);
            self.state = ServerState::Failed;
            return;
        }
        self.version = Some(version);
        self.alpn = chosen_alpn.map(<[u8]>::to_vec);
        // PSK validation: our ticket, still valid, same version+ALPN.
        let psk_ok = psk.is_some_and(|t| {
            t.server_id == self.cfg.server_id
                && t.is_valid_at(now)
                && t.version == version
                && chosen_alpn == Some(t.alpn)
        });
        let flight_start = self.out.len();
        self.psk_accepted = psk_ok;
        let out = &mut self.out;
        match version {
            TlsVersion::Tls13 => {
                self.early_accepted = psk_ok
                    && early_data
                    && self.cfg.enable_0rtt
                    && psk.is_some_and(|t| t.allows_early_data);
                write_handshake_record(
                    out,
                    true,
                    HandshakeRef::ServerHello {
                        version,
                        resumed: psk_ok,
                    },
                );
                write_handshake_record(
                    out,
                    false,
                    HandshakeRef::EncryptedExtensions {
                        alpn: chosen_alpn,
                        early_data_accepted: self.early_accepted,
                    },
                );
                if !psk_ok {
                    write_handshake_record(
                        out,
                        false,
                        HandshakeRef::Certificate {
                            chain_len: self.cfg.cert_chain_len,
                        },
                    );
                    write_handshake_record(out, false, HandshakeRef::CertificateVerify);
                }
                write_handshake_record(out, false, HandshakeRef::Finished);
                self.state = ServerState::WaitClientFinished13;
            }
            TlsVersion::Tls12 => {
                self.resumed = psk_ok;
                write_handshake_record(
                    out,
                    true,
                    HandshakeRef::ServerHello {
                        version,
                        resumed: psk_ok,
                    },
                );
                if psk_ok {
                    RecordRef::ChangeCipherSpec.encode(out);
                    write_handshake_record(out, false, HandshakeRef::Finished);
                    self.state = ServerState::WaitClientFinished12;
                } else {
                    write_handshake_record(
                        out,
                        true,
                        HandshakeRef::Certificate {
                            chain_len: self.cfg.cert_chain_len,
                        },
                    );
                    write_handshake_record(out, true, HandshakeRef::ServerHelloDone);
                    self.state = ServerState::WaitClientKeyExchange;
                }
            }
        }
        let flight_len = self.out.len() - flight_start;
        sink::emit(now.as_nanos(), || Event::TlsFlightSent {
            flight: "server_hello",
            bytes: flight_len,
        });
    }

    fn complete(&mut self, now: SimTime) {
        self.state = ServerState::Connected;
        self.connected_at = Some(now);
        // Client-side counts the handshake metrics; only the trace
        // event is mirrored here.
        let resumed = self.psk_accepted;
        sink::emit(now.as_nanos(), || Event::TlsHandshakeCompleted { resumed });
        // Promote early data and issue tickets.
        self.app_rx.splice(0..0, std::mem::take(&mut self.early_rx));
        let version = self.version.expect("set in CH");
        for _ in 0..self.tickets_to_send {
            let ticket = SessionTicketRef {
                server_id: self.cfg.server_id,
                version,
                alpn: self.alpn.as_deref().unwrap_or_default(),
                issued_at: now,
                lifetime: self.cfg.ticket_lifetime,
                // Early data is a TLS 1.3 mechanism (RFC 8446 §4.2.10):
                // a ticket from a 1.2 handshake must never advertise it,
                // or the next connection sends 0-RTT records a 1.2
                // server silently drops.
                allows_early_data: self.cfg.enable_0rtt && version == TlsVersion::Tls13,
                opaque_len: 120,
            };
            write_handshake_record(
                &mut self.out,
                false,
                HandshakeRef::NewSessionTicket { ticket },
            );
        }
    }

    pub fn write_app(&mut self, data: &[u8]) {
        write_app_data(&mut self.out, data);
    }
    pub fn read_app(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.app_rx)
    }

    /// Early data readable before the handshake finishes (only when
    /// 0-RTT was accepted).
    pub fn read_early(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.early_rx)
    }

    /// Hand everything readable to `read` in stream order, then drop
    /// it: accepted early data first, then application data (the same
    /// bytes as [`Self::read_early`] followed by [`Self::read_app`]).
    /// Both buffers keep their capacity.
    pub fn read_app_with(&mut self, mut read: impl FnMut(&[u8])) {
        drain_with(&mut self.early_rx, &mut read);
        drain_with(&mut self.app_rx, read);
    }

    pub fn take_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.out)
    }

    /// Hand the bytes to transmit to `write` (e.g. a TCP send buffer),
    /// then drop them; the buffer keeps its capacity.
    pub fn take_output_with(&mut self, write: impl FnOnce(&[u8])) {
        drain_with(&mut self.out, write);
    }

    pub fn is_connected(&self) -> bool {
        self.state == ServerState::Connected
    }

    pub fn connected_at(&self) -> Option<SimTime> {
        self.connected_at
    }

    pub fn error(&self) -> Option<&TlsError> {
        self.error.as_ref()
    }

    pub fn negotiated_version(&self) -> Option<TlsVersion> {
        self.version
    }

    pub fn negotiated_alpn(&self) -> Option<&[u8]> {
        self.alpn.as_deref()
    }

    pub fn early_data_was_accepted(&self) -> bool {
        self.early_accepted
    }

    /// The handshake resumed a previous session (PSK / session ID).
    pub fn is_resumption(&self) -> bool {
        self.resumed
            || self.early_accepted
            || (self.version == Some(TlsVersion::Tls13) && {
                // For 1.3 the `resumed` field is reused via SH echo; track
                // it through the certificate-skip: connected without a
                // certificate having been sent.
                false
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_server(alpn: &[&str]) -> TlsConfig {
        TlsConfig {
            server_id: 7,
            alpn: alpn.iter().map(|a| a.as_bytes().to_vec()).collect(),
            ..TlsConfig::default()
        }
    }

    fn cfg_client(alpn: &[&str]) -> TlsConfig {
        TlsConfig {
            alpn: alpn.iter().map(|a| a.as_bytes().to_vec()).collect(),
            ..TlsConfig::default()
        }
    }

    /// Shuttle bytes between the endpoints until both go quiet.
    /// Each shuttle direction counts as half a round trip; returns the
    /// number of *flights* the client sent.
    fn run(client: &mut TlsClient, server: &mut TlsServer) -> usize {
        let mut client_flights = 0;
        for _ in 0..20 {
            let c_out = client.take_output();
            if !c_out.is_empty() {
                client_flights += 1;
                server.read_wire(SimTime::ZERO, &c_out);
            }
            let s_out = server.take_output();
            if !s_out.is_empty() {
                client.read_wire(SimTime::ZERO, &s_out);
            }
            if c_out.is_empty() && s_out.is_empty() {
                break;
            }
        }
        client_flights
    }

    #[test]
    fn full_13_handshake_connects_with_one_client_flight_before_fin() {
        let mut c = TlsClient::new(cfg_client(&["dot"]), None);
        let mut s = TlsServer::new(cfg_server(&["dot"]));
        c.start(SimTime::ZERO);
        run(&mut c, &mut s);
        assert!(c.is_connected());
        assert!(s.is_connected());
        assert_eq!(c.negotiated_version(), Some(TlsVersion::Tls13));
        assert_eq!(c.negotiated_alpn(), Some(&b"dot"[..]));
        assert_eq!(s.negotiated_alpn(), Some(&b"dot"[..]));
    }

    #[test]
    fn app_data_flows_after_handshake() {
        let mut c = TlsClient::new(cfg_client(&["dot"]), None);
        let mut s = TlsServer::new(cfg_server(&["dot"]));
        c.start(SimTime::ZERO);
        run(&mut c, &mut s);
        c.write_app(b"query");
        run(&mut c, &mut s);
        assert_eq!(s.read_app(), b"query");
        s.write_app(b"answer");
        run(&mut c, &mut s);
        assert_eq!(c.read_app(), b"answer");
    }

    #[test]
    fn app_data_queued_before_connect_is_flushed_at_connect() {
        let mut c = TlsClient::new(cfg_client(&["dot"]), None);
        let mut s = TlsServer::new(cfg_server(&["dot"]));
        c.write_app(b"early-queued");
        c.start(SimTime::ZERO);
        run(&mut c, &mut s);
        assert!(c.is_connected());
        assert_eq!(s.read_app(), b"early-queued");
    }

    #[test]
    fn client_receives_a_7day_ticket() {
        let mut c = TlsClient::new(cfg_client(&["dot"]), None);
        let mut s = TlsServer::new(cfg_server(&["dot"]));
        c.start(SimTime::ZERO);
        run(&mut c, &mut s);
        let tickets = c.take_tickets();
        assert_eq!(tickets.len(), 1);
        assert_eq!(tickets[0].lifetime, Duration::from_secs(7 * 24 * 3600));
        assert_eq!(tickets[0].server_id, 7);
    }

    fn obtain_ticket(server_cfg: &TlsConfig, client_cfg: &TlsConfig) -> SessionTicket {
        let mut c = TlsClient::new(client_cfg.clone(), None);
        let mut s = TlsServer::new(server_cfg.clone());
        c.start(SimTime::ZERO);
        run(&mut c, &mut s);
        c.take_tickets().remove(0)
    }

    #[test]
    fn resumption_skips_certificate() {
        let s_cfg = cfg_server(&["dot"]);
        let c_cfg = cfg_client(&["dot"]);
        let ticket = obtain_ticket(&s_cfg, &c_cfg);

        // Full handshake server flight includes the ~2.4 KB chain.
        let mut c1 = TlsClient::new(c_cfg.clone(), None);
        let mut s1 = TlsServer::new(s_cfg.clone());
        c1.start(SimTime::ZERO);
        s1.read_wire(SimTime::ZERO, &c1.take_output());
        let full_flight = s1.take_output().len();

        let mut c2 = TlsClient::new(c_cfg, Some(ticket));
        let mut s2 = TlsServer::new(s_cfg);
        c2.start(SimTime::ZERO);
        s2.read_wire(SimTime::ZERO, &c2.take_output());
        let resumed_flight = s2.take_output();

        assert!(
            full_flight > resumed_flight.len() + 2000,
            "full {full_flight} vs resumed {}",
            resumed_flight.len()
        );
        // Finish the resumed handshake.
        c2.read_wire(SimTime::ZERO, &resumed_flight);
        run(&mut c2, &mut s2);
        assert!(c2.is_connected() && s2.is_connected());
    }

    #[test]
    fn expired_ticket_falls_back_to_full_handshake() {
        let s_cfg = cfg_server(&["dot"]);
        let c_cfg = cfg_client(&["dot"]);
        let ticket = obtain_ticket(&s_cfg, &c_cfg);
        let after_expiry = SimTime::ZERO + ticket.lifetime + Duration::from_secs(1);
        let mut c = TlsClient::new(c_cfg, Some(ticket));
        let mut s = TlsServer::new(s_cfg);
        c.start(after_expiry);
        s.read_wire(after_expiry, &c.take_output());
        // Server sent a certificate: flight is large.
        assert!(s.take_output().len() > 2000);
    }

    #[test]
    fn wrong_server_ticket_is_rejected_not_fatal() {
        let s_cfg = cfg_server(&["dot"]);
        let c_cfg = cfg_client(&["dot"]);
        let mut ticket = obtain_ticket(&s_cfg, &c_cfg);
        ticket.server_id = 999; // some other resolver's ticket
        let mut c = TlsClient::new(c_cfg, Some(ticket));
        let mut s = TlsServer::new(s_cfg);
        c.start(SimTime::ZERO);
        run(&mut c, &mut s);
        assert!(c.is_connected(), "falls back to a full handshake");
    }

    #[test]
    fn zero_rtt_accepted_delivers_before_client_finished() {
        let s_cfg = TlsConfig {
            enable_0rtt: true,
            ..cfg_server(&["doq"])
        };
        let c_cfg = TlsConfig {
            enable_0rtt: true,
            ..cfg_client(&["doq"])
        };
        let ticket = obtain_ticket(&s_cfg, &c_cfg);
        assert!(ticket.allows_early_data);
        let mut c = TlsClient::new(c_cfg, Some(ticket));
        let mut s = TlsServer::new(s_cfg);
        c.write_app(b"0rtt-query");
        c.start(SimTime::ZERO);
        // First client flight only.
        s.read_wire(SimTime::ZERO, &c.take_output());
        assert!(s.early_data_was_accepted());
        assert_eq!(s.read_early(), b"0rtt-query");
        run(&mut c, &mut s);
        assert_eq!(c.early_data_accepted(), Some(true));
    }

    #[test]
    fn zero_rtt_rejected_replays_after_handshake() {
        // Server does not enable 0-RTT (like every resolver the paper
        // measured); ticket therefore forbids early data, client with
        // 0-RTT enabled cannot attempt it, and the data flows 1-RTT.
        let s_cfg = cfg_server(&["doq"]);
        let c_cfg = TlsConfig {
            enable_0rtt: true,
            ..cfg_client(&["doq"])
        };
        let ticket = obtain_ticket(&s_cfg, &c_cfg);
        assert!(!ticket.allows_early_data);
        let mut c = TlsClient::new(c_cfg, Some(ticket));
        let mut s = TlsServer::new(s_cfg);
        c.write_app(b"query");
        c.start(SimTime::ZERO);
        run(&mut c, &mut s);
        assert!(c.is_connected());
        assert_eq!(c.early_data_accepted(), None, "never attempted");
        assert_eq!(s.read_app(), b"query");
    }

    #[test]
    fn tls12_full_handshake_takes_two_client_flights() {
        let s_cfg = TlsConfig {
            versions: vec![TlsVersion::Tls12],
            ..cfg_server(&["dot"])
        };
        let mut c = TlsClient::new(cfg_client(&["dot"]), None);
        let mut s = TlsServer::new(s_cfg);
        c.start(SimTime::ZERO);
        let flights = run(&mut c, &mut s);
        assert!(c.is_connected() && s.is_connected());
        assert_eq!(c.negotiated_version(), Some(TlsVersion::Tls12));
        assert_eq!(flights, 2, "CH, then CKE+CCS+Fin");
    }

    #[test]
    fn tls12_resumption_takes_one_round_less() {
        let s_cfg = TlsConfig {
            versions: vec![TlsVersion::Tls12],
            ..cfg_server(&["dot"])
        };
        let c_cfg = cfg_client(&["dot"]);
        let ticket = obtain_ticket(&s_cfg, &c_cfg);
        assert_eq!(ticket.version, TlsVersion::Tls12);
        let mut c = TlsClient::new(c_cfg, Some(ticket));
        let mut s = TlsServer::new(s_cfg);
        c.start(SimTime::ZERO);
        // CH -> SH+CCS+Fin: after one server flight the client finishes.
        s.read_wire(SimTime::ZERO, &c.take_output());
        c.read_wire(SimTime::ZERO, &s.take_output());
        assert!(
            c.is_connected(),
            "client connects after first server flight"
        );
    }

    #[test]
    fn no_common_version_fails_cleanly() {
        let s_cfg = TlsConfig {
            versions: vec![TlsVersion::Tls12],
            ..cfg_server(&["dot"])
        };
        let c_cfg = TlsConfig {
            versions: vec![TlsVersion::Tls13],
            ..cfg_client(&["dot"])
        };
        let mut c = TlsClient::new(c_cfg, None);
        let mut s = TlsServer::new(s_cfg);
        c.start(SimTime::ZERO);
        run(&mut c, &mut s);
        assert_eq!(s.error(), Some(&TlsError::NoCommonVersion));
        assert!(!c.is_connected());
        assert!(matches!(c.error(), Some(TlsError::PeerAlert(_))));
    }

    #[test]
    fn no_common_alpn_fails_cleanly() {
        let mut c = TlsClient::new(cfg_client(&["doq"]), None);
        let mut s = TlsServer::new(cfg_server(&["dot"]));
        c.start(SimTime::ZERO);
        run(&mut c, &mut s);
        assert_eq!(s.error(), Some(&TlsError::NoCommonAlpn));
        assert!(!c.is_connected());
    }

    #[test]
    fn bytes_survive_arbitrary_chunking() {
        let mut c = TlsClient::new(cfg_client(&["dot"]), None);
        let mut s = TlsServer::new(cfg_server(&["dot"]));
        c.start(SimTime::ZERO);
        // Deliver the handshake one byte at a time.
        for _ in 0..10 {
            let out = c.take_output();
            for b in out {
                s.read_wire(SimTime::ZERO, &[b]);
            }
            let out = s.take_output();
            for b in out {
                c.read_wire(SimTime::ZERO, &[b]);
            }
            if c.is_connected() && s.is_connected() {
                break;
            }
        }
        assert!(c.is_connected() && s.is_connected());
    }
}
