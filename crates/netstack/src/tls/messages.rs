//! TLS handshake messages and the record layer.
//!
//! Handshake messages use the real TLS framing — a 1-byte type and a
//! 24-bit length — but their bodies are a structured simulation payload
//! padded to the byte sizes a real implementation produces (a
//! ClientHello with a PSK extension is ~380 bytes, a certificate chain
//! ~2.4 KB, ...). This keeps every size-sensitive behaviour honest: the
//! QUIC amplification limit, Table 1's byte accounting, and TCP
//! segmentation of the certificate flight.

use crate::tls::session::{SessionTicket, SessionTicketRef};
#[cfg(test)]
use doqlab_simnet::Duration;
#[cfg(test)]
use doqlab_simnet::SimTime;

/// Negotiable protocol versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TlsVersion {
    Tls12,
    Tls13,
}

impl TlsVersion {
    pub fn wire(self) -> u16 {
        match self {
            TlsVersion::Tls12 => 0x0303,
            TlsVersion::Tls13 => 0x0304,
        }
    }

    pub fn from_wire(v: u16) -> Option<Self> {
        match v {
            0x0303 => Some(TlsVersion::Tls12),
            0x0304 => Some(TlsVersion::Tls13),
            _ => None,
        }
    }
}

/// Byte overhead of an "encrypted" record beyond its plaintext: the
/// TLS 1.3 inner content-type byte plus a 16-byte AEAD tag.
pub const RECORD_OVERHEAD: usize = 17;

/// Maximum plaintext per record (RFC 8446 §5.1: 2^14 bytes).
pub const MAX_RECORD_PLAINTEXT: usize = 16_384;

/// Record-layer content types.
const CT_CHANGE_CIPHER_SPEC: u8 = 20;
const CT_ALERT: u8 = 21;
pub(crate) const CT_HANDSHAKE: u8 = 22;
pub(crate) const CT_APPLICATION_DATA: u8 = 23;

/// A record-layer record. `Encrypted` wraps an inner content type and
/// carries the AEAD overhead on the wire (outer type 23), mirroring how
/// TLS 1.3 protects everything after the ServerHello.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TlsRecord {
    PlainHandshake(Vec<u8>),
    ChangeCipherSpec,
    Alert {
        fatal: bool,
        code: u8,
    },
    /// Encrypted content: (inner content type, plaintext bytes).
    Encrypted {
        inner_type: u8,
        plaintext: Vec<u8>,
    },
}

/// A record borrowed from received bytes (or viewed from a
/// [`TlsRecord`] for encoding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RecordRef<'a> {
    PlainHandshake(&'a [u8]),
    ChangeCipherSpec,
    Alert { fatal: bool, code: u8 },
    Encrypted { inner_type: u8, plaintext: &'a [u8] },
}

/// How a record's body is protected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RecordKind {
    /// Cleartext of this content type.
    Plain(u8),
    /// Encrypted (outer type 23) around this inner content type.
    Encrypted(u8),
}

/// Append one record whose body `body` writes straight into `out`:
/// the 5-byte header goes first with a placeholder length that is
/// patched once the body (and, when encrypted, the inner type and AEAD
/// tag) is in place.
pub(crate) fn write_record(out: &mut Vec<u8>, kind: RecordKind, body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    let ctype = match kind {
        RecordKind::Plain(ctype) => ctype,
        RecordKind::Encrypted(_) => CT_APPLICATION_DATA,
    };
    out.push(ctype);
    out.extend_from_slice(&0x0303u16.to_be_bytes()); // legacy version
    out.extend_from_slice(&[0, 0]);
    body(out);
    if let RecordKind::Encrypted(inner_type) = kind {
        out.push(inner_type);
        out.resize(out.len() + RECORD_OVERHEAD - 1, 0); // AEAD tag
    }
    let len = out.len() - start - 5;
    assert!(
        len <= MAX_RECORD_PLAINTEXT + RECORD_OVERHEAD,
        "record exceeds RFC 8446 size limit; chunk before encoding"
    );
    out[start + 3..start + 5].copy_from_slice(&(len as u16).to_be_bytes());
}

/// Append `data` as encrypted application-data records of at most
/// [`MAX_RECORD_PLAINTEXT`] bytes each.
pub(crate) fn write_app_data(out: &mut Vec<u8>, data: &[u8]) {
    let records = data.len().div_ceil(MAX_RECORD_PLAINTEXT);
    out.reserve(data.len() + records * (5 + RECORD_OVERHEAD));
    for chunk in data.chunks(MAX_RECORD_PLAINTEXT) {
        write_record(out, RecordKind::Encrypted(CT_APPLICATION_DATA), |o| {
            o.extend_from_slice(chunk)
        });
    }
}

/// Append handshake message `msg` in its own record.
pub(crate) fn write_handshake_record(
    out: &mut Vec<u8>,
    plaintext_epoch: bool,
    msg: HandshakeRef<'_>,
) {
    let kind = if plaintext_epoch {
        RecordKind::Plain(CT_HANDSHAKE)
    } else {
        RecordKind::Encrypted(CT_HANDSHAKE)
    };
    // Room for the record: header, AEAD overhead, the message header,
    // its size model and a structural body, which is short for every
    // message but a ClientHello with many ALPN ids.
    out.reserve(5 + RECORD_OVERHEAD + 4 + msg.size_model() + 64);
    write_record(out, kind, |o| msg.encode(o));
}

impl TlsRecord {
    pub fn encrypted_handshake(plaintext: Vec<u8>) -> TlsRecord {
        TlsRecord::Encrypted {
            inner_type: CT_HANDSHAKE,
            plaintext,
        }
    }

    pub fn app_data(plaintext: Vec<u8>) -> TlsRecord {
        TlsRecord::Encrypted {
            inner_type: CT_APPLICATION_DATA,
            plaintext,
        }
    }

    fn view(&self) -> RecordRef<'_> {
        match self {
            TlsRecord::PlainHandshake(p) => RecordRef::PlainHandshake(p),
            TlsRecord::ChangeCipherSpec => RecordRef::ChangeCipherSpec,
            TlsRecord::Alert { fatal, code } => RecordRef::Alert {
                fatal: *fatal,
                code: *code,
            },
            TlsRecord::Encrypted {
                inner_type,
                plaintext,
            } => RecordRef::Encrypted {
                inner_type: *inner_type,
                plaintext,
            },
        }
    }

    /// Serialize with the 5-byte record header.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.view().encode(out);
    }

    /// Parse one record from the front of `buf`; returns the record and
    /// bytes consumed, or `None` if incomplete.
    pub fn decode(buf: &[u8]) -> Option<(TlsRecord, usize)> {
        let (rec, used) = RecordRef::decode(buf)?;
        let owned = match rec {
            RecordRef::PlainHandshake(p) => TlsRecord::PlainHandshake(p.to_vec()),
            RecordRef::ChangeCipherSpec => TlsRecord::ChangeCipherSpec,
            RecordRef::Alert { fatal, code } => TlsRecord::Alert { fatal, code },
            RecordRef::Encrypted {
                inner_type,
                plaintext,
            } => TlsRecord::Encrypted {
                inner_type,
                plaintext: plaintext.to_vec(),
            },
        };
        Some((owned, used))
    }
}

impl<'a> RecordRef<'a> {
    pub fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            RecordRef::PlainHandshake(p) => {
                write_record(out, RecordKind::Plain(CT_HANDSHAKE), |o| {
                    o.extend_from_slice(p)
                })
            }
            RecordRef::ChangeCipherSpec => {
                write_record(out, RecordKind::Plain(CT_CHANGE_CIPHER_SPEC), |o| o.push(1))
            }
            RecordRef::Alert { fatal, code } => {
                write_record(out, RecordKind::Plain(CT_ALERT), |o| {
                    o.extend_from_slice(&[if fatal { 2 } else { 1 }, code])
                })
            }
            RecordRef::Encrypted {
                inner_type,
                plaintext,
            } => write_record(out, RecordKind::Encrypted(inner_type), |o| {
                o.extend_from_slice(plaintext)
            }),
        }
    }

    /// Parse one record from the front of `buf`; returns the record and
    /// bytes consumed, or `None` if incomplete or malformed.
    pub fn decode(buf: &'a [u8]) -> Option<(RecordRef<'a>, usize)> {
        if buf.len() < 5 {
            return None;
        }
        let ctype = buf[0];
        let len = u16::from_be_bytes([buf[3], buf[4]]) as usize;
        let payload = buf.get(5..5 + len)?;
        let rec = match ctype {
            CT_HANDSHAKE => RecordRef::PlainHandshake(payload),
            CT_CHANGE_CIPHER_SPEC => RecordRef::ChangeCipherSpec,
            CT_ALERT => RecordRef::Alert {
                fatal: payload.first() == Some(&2),
                code: payload.get(1).copied().unwrap_or(0),
            },
            CT_APPLICATION_DATA => {
                let plaintext_end = payload.len().checked_sub(RECORD_OVERHEAD)?;
                RecordRef::Encrypted {
                    inner_type: payload[plaintext_end],
                    plaintext: &payload[..plaintext_end],
                }
            }
            _ => return None,
        };
        Some((rec, 5 + len))
    }
}

/// Decode items from a byte stream that arrives in chunks. `pending`
/// holds an incomplete tail between calls. `each` decodes and handles
/// one item from the front of its argument and returns the bytes it
/// used, or `None` to stop (incomplete, or the caller failed). When
/// nothing is pending, items are decoded from `data` in place and only
/// the tail is copied.
pub(crate) fn reassemble(
    pending: &mut Vec<u8>,
    data: &[u8],
    mut each: impl FnMut(&[u8]) -> Option<usize>,
) {
    let mut run = |buf: &[u8]| {
        let mut pos = 0;
        while pos < buf.len() {
            match each(&buf[pos..]) {
                Some(used) => pos += used,
                None => break,
            }
        }
        pos
    };
    if pending.is_empty() {
        let used = run(data);
        pending.extend_from_slice(&data[used..]);
    } else {
        pending.extend_from_slice(data);
        let used = run(pending);
        pending.drain(..used);
    }
}

/// Typed handshake payloads. Sizes are controlled by per-message
/// padding so the wire image matches real TLS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakePayload {
    ClientHello {
        /// Versions the client offers, most preferred first.
        versions: Vec<TlsVersion>,
        alpn: Vec<Vec<u8>>,
        /// Resumption ticket (the PSK extension).
        psk: Option<SessionTicket>,
        /// The client intends to send 0-RTT data under the PSK.
        early_data: bool,
        /// Extra bytes modelling additional extensions (QUIC transport
        /// parameters when carried over QUIC, SNI length, ...).
        pad: u16,
    },
    ServerHello {
        version: TlsVersion,
        /// Echoed in TLS 1.2 abbreviated handshakes.
        resumed: bool,
    },
    EncryptedExtensions {
        alpn: Option<Vec<u8>>,
        early_data_accepted: bool,
    },
    Certificate {
        chain_len: u16,
    },
    CertificateVerify,
    Finished,
    NewSessionTicket {
        ticket: SessionTicket,
    },
    /// TLS 1.2 only.
    ServerHelloDone,
    /// TLS 1.2 only.
    ClientKeyExchange,
}

impl HandshakePayload {
    pub(crate) fn view(&self) -> HandshakeRef<'_> {
        match self {
            HandshakePayload::ClientHello {
                versions,
                alpn,
                psk,
                early_data,
                pad,
            } => HandshakeRef::ClientHello {
                versions: Versions::List(versions),
                alpn: Alpns::List(alpn),
                psk: psk.as_ref().map(SessionTicket::view),
                early_data: *early_data,
                pad: *pad,
            },
            HandshakePayload::ServerHello { version, resumed } => HandshakeRef::ServerHello {
                version: *version,
                resumed: *resumed,
            },
            HandshakePayload::EncryptedExtensions {
                alpn,
                early_data_accepted,
            } => HandshakeRef::EncryptedExtensions {
                alpn: alpn.as_deref(),
                early_data_accepted: *early_data_accepted,
            },
            HandshakePayload::Certificate { chain_len } => HandshakeRef::Certificate {
                chain_len: *chain_len,
            },
            HandshakePayload::CertificateVerify => HandshakeRef::CertificateVerify,
            HandshakePayload::Finished => HandshakeRef::Finished,
            HandshakePayload::NewSessionTicket { ticket } => HandshakeRef::NewSessionTicket {
                ticket: ticket.view(),
            },
            HandshakePayload::ServerHelloDone => HandshakeRef::ServerHelloDone,
            HandshakePayload::ClientKeyExchange => HandshakeRef::ClientKeyExchange,
        }
    }
}

/// A ClientHello's version list: the sender's typed list, or the
/// received (already checked) wire form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Versions<'a> {
    List(&'a [TlsVersion]),
    Wire(&'a [u8]),
}

impl<'a> Versions<'a> {
    pub fn len(&self) -> usize {
        match self {
            Versions::List(l) => l.len(),
            Versions::Wire(w) => w.len() / 2,
        }
    }

    pub fn iter(self) -> impl Iterator<Item = TlsVersion> + 'a {
        (0..self.len()).map(move |i| match self {
            Versions::List(l) => l[i],
            Versions::Wire(w) => {
                TlsVersion::from_wire(u16::from_be_bytes([w[2 * i], w[2 * i + 1]]))
                    .expect("checked on decode")
            }
        })
    }

    pub fn contains(self, v: TlsVersion) -> bool {
        self.iter().any(|x| x == v)
    }
}

/// A ClientHello's ALPN list: the sender's configured list, or the
/// received (already checked) wire form, scanned in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Alpns<'a> {
    List(&'a [Vec<u8>]),
    /// `count` u16-length-prefixed identifiers, back to back.
    Wire {
        count: u8,
        bytes: &'a [u8],
    },
}

impl<'a> Alpns<'a> {
    pub fn len(&self) -> usize {
        match self {
            Alpns::List(l) => l.len(),
            Alpns::Wire { count, .. } => *count as usize,
        }
    }

    pub fn iter(self) -> AlpnIter<'a> {
        match self {
            Alpns::List(l) => AlpnIter {
                list: l.iter(),
                wire: &[],
            },
            Alpns::Wire { bytes, .. } => AlpnIter {
                list: [].iter(),
                wire: bytes,
            },
        }
    }
}

/// Iterator over [`Alpns`].
pub(crate) struct AlpnIter<'a> {
    list: std::slice::Iter<'a, Vec<u8>>,
    wire: &'a [u8],
}

impl<'a> Iterator for AlpnIter<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if let Some(a) = self.list.next() {
            return Some(a);
        }
        let (len, rest) = self.wire.split_first_chunk::<2>()?;
        let (a, rest) = rest.split_at(u16::from_be_bytes(*len) as usize);
        self.wire = rest;
        Some(a)
    }
}

/// A handshake message borrowed from received bytes, or viewed in
/// place for encoding. It is the only encoder and decoder of handshake
/// messages; [`HandshakeMessage`] wraps it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HandshakeRef<'a> {
    ClientHello {
        versions: Versions<'a>,
        alpn: Alpns<'a>,
        psk: Option<SessionTicketRef<'a>>,
        early_data: bool,
        pad: u16,
    },
    ServerHello {
        version: TlsVersion,
        resumed: bool,
    },
    EncryptedExtensions {
        alpn: Option<&'a [u8]>,
        early_data_accepted: bool,
    },
    Certificate {
        chain_len: u16,
    },
    CertificateVerify,
    Finished,
    NewSessionTicket {
        ticket: SessionTicketRef<'a>,
    },
    ServerHelloDone,
    ClientKeyExchange,
}

/// Big-endian reader over a message body.
struct Reader<'a>(&'a [u8], usize);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.0.get(self.1..self.1.checked_add(n)?)?;
        self.1 += n;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_be_bytes(self.take(2)?.try_into().ok()?))
    }
    /// A u16-length-prefixed byte string.
    fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u16()? as usize;
        self.take(len)
    }
}

/// Append a u16-length-prefixed byte string.
fn put_bytes(b: &mut Vec<u8>, s: &[u8]) {
    b.extend_from_slice(&(s.len() as u16).to_be_bytes());
    b.extend_from_slice(s);
}

impl<'a> HandshakeRef<'a> {
    /// Handshake message type codes (RFC 8446 §4 / RFC 5246 §7.4).
    fn type_code(&self) -> u8 {
        match self {
            HandshakeRef::ClientHello { .. } => 1,
            HandshakeRef::ServerHello { .. } => 2,
            HandshakeRef::NewSessionTicket { .. } => 4,
            HandshakeRef::EncryptedExtensions { .. } => 8,
            HandshakeRef::Certificate { .. } => 11,
            HandshakeRef::ServerHelloDone => 14,
            HandshakeRef::ClientKeyExchange => 16,
            HandshakeRef::CertificateVerify => 15,
            HandshakeRef::Finished => 20,
        }
    }

    /// Bytes a real implementation would need for this message beyond
    /// our structural encoding; appended as padding.
    fn size_model(&self) -> usize {
        match self {
            // random + cipher suites + key_share + SNI + misc exts.
            HandshakeRef::ClientHello { psk, pad, .. } => {
                200 + *pad as usize + if psk.is_some() { 110 } else { 0 }
            }
            // random + key_share.
            HandshakeRef::ServerHello { .. } => 76,
            HandshakeRef::EncryptedExtensions { .. } => 6,
            HandshakeRef::Certificate { chain_len } => *chain_len as usize,
            HandshakeRef::CertificateVerify => 260,
            HandshakeRef::Finished => 32,
            HandshakeRef::NewSessionTicket { .. } => 30,
            HandshakeRef::ServerHelloDone => 0,
            HandshakeRef::ClientKeyExchange => 66,
        }
    }

    /// Append: 1-byte type, 24-bit length, structured body + padding.
    /// The body is written in place behind a length placeholder that is
    /// patched at the end.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.push(self.type_code());
        out.extend_from_slice(&[0; 3]);
        self.encode_body(out);
        out.resize(out.len() + self.size_model(), 0);
        let len = out.len() - start - 4;
        assert!(len < 1 << 24, "handshake message exceeds 2^24 bytes");
        out[start + 1..start + 4].copy_from_slice(&(len as u32).to_be_bytes()[1..]);
    }

    fn encode_body(&self, b: &mut Vec<u8>) {
        match self {
            HandshakeRef::ClientHello {
                versions,
                alpn,
                psk,
                early_data,
                pad,
            } => {
                b.push(versions.len() as u8);
                for v in versions.iter() {
                    b.extend_from_slice(&v.wire().to_be_bytes());
                }
                b.push(alpn.len() as u8);
                for a in alpn.iter() {
                    put_bytes(b, a);
                }
                match psk {
                    None => b.push(0),
                    Some(t) => {
                        b.push(1);
                        b.extend_from_slice(&(t.wire_len() as u16).to_be_bytes());
                        t.write(b);
                    }
                }
                b.push(*early_data as u8);
                b.extend_from_slice(&pad.to_be_bytes());
            }
            HandshakeRef::ServerHello { version, resumed } => {
                b.extend_from_slice(&version.wire().to_be_bytes());
                b.push(*resumed as u8);
            }
            HandshakeRef::EncryptedExtensions {
                alpn,
                early_data_accepted,
            } => {
                match alpn {
                    None => b.push(0),
                    Some(a) => {
                        b.push(1);
                        put_bytes(b, a);
                    }
                }
                b.push(*early_data_accepted as u8);
            }
            HandshakeRef::Certificate { chain_len } => {
                b.extend_from_slice(&chain_len.to_be_bytes());
            }
            HandshakeRef::NewSessionTicket { ticket } => {
                b.extend_from_slice(&(ticket.wire_len() as u16).to_be_bytes());
                ticket.write(b);
            }
            HandshakeRef::CertificateVerify
            | HandshakeRef::Finished
            | HandshakeRef::ServerHelloDone
            | HandshakeRef::ClientKeyExchange => {}
        }
    }

    /// Parse one message from the front of `buf`; `None` if incomplete
    /// or malformed.
    pub fn decode(buf: &'a [u8]) -> Option<(HandshakeRef<'a>, usize)> {
        if buf.len() < 4 {
            return None;
        }
        let typ = buf[0];
        let len = u32::from_be_bytes([0, buf[1], buf[2], buf[3]]) as usize;
        let body = buf.get(4..4 + len)?;
        let msg = Self::decode_body(typ, body)?;
        Some((msg, 4 + len))
    }

    fn decode_body(typ: u8, b: &'a [u8]) -> Option<HandshakeRef<'a>> {
        let mut r = Reader(b, 0);
        Some(match typ {
            1 => {
                let nv = r.u8()? as usize;
                let versions = r.take(2 * nv)?;
                for v in versions.chunks_exact(2) {
                    TlsVersion::from_wire(u16::from_be_bytes([v[0], v[1]]))?;
                }
                let count = r.u8()?;
                let start = r.1;
                for _ in 0..count {
                    r.bytes()?;
                }
                let alpn = Alpns::Wire {
                    count,
                    bytes: &b[start..r.1],
                };
                let psk = if r.u8()? == 1 {
                    Some(SessionTicketRef::decode(r.bytes()?)?)
                } else {
                    None
                };
                HandshakeRef::ClientHello {
                    versions: Versions::Wire(versions),
                    alpn,
                    psk,
                    early_data: r.u8()? == 1,
                    pad: r.u16()?,
                }
            }
            2 => HandshakeRef::ServerHello {
                version: TlsVersion::from_wire(r.u16()?)?,
                resumed: r.u8()? == 1,
            },
            4 => HandshakeRef::NewSessionTicket {
                ticket: SessionTicketRef::decode(r.bytes()?)?,
            },
            8 => {
                let alpn = if r.u8()? == 1 { Some(r.bytes()?) } else { None };
                HandshakeRef::EncryptedExtensions {
                    alpn,
                    early_data_accepted: r.u8()? == 1,
                }
            }
            11 => HandshakeRef::Certificate {
                chain_len: r.u16()?,
            },
            14 => HandshakeRef::ServerHelloDone,
            15 => HandshakeRef::CertificateVerify,
            16 => HandshakeRef::ClientKeyExchange,
            20 => HandshakeRef::Finished,
            _ => return None,
        })
    }

    pub fn to_owned(self) -> HandshakePayload {
        match self {
            HandshakeRef::ClientHello {
                versions,
                alpn,
                psk,
                early_data,
                pad,
            } => HandshakePayload::ClientHello {
                versions: versions.iter().collect(),
                alpn: alpn.iter().map(<[u8]>::to_vec).collect(),
                psk: psk.map(SessionTicketRef::to_owned),
                early_data,
                pad,
            },
            HandshakeRef::ServerHello { version, resumed } => {
                HandshakePayload::ServerHello { version, resumed }
            }
            HandshakeRef::EncryptedExtensions {
                alpn,
                early_data_accepted,
            } => HandshakePayload::EncryptedExtensions {
                alpn: alpn.map(<[u8]>::to_vec),
                early_data_accepted,
            },
            HandshakeRef::Certificate { chain_len } => HandshakePayload::Certificate { chain_len },
            HandshakeRef::CertificateVerify => HandshakePayload::CertificateVerify,
            HandshakeRef::Finished => HandshakePayload::Finished,
            HandshakeRef::NewSessionTicket { ticket } => HandshakePayload::NewSessionTicket {
                ticket: ticket.to_owned(),
            },
            HandshakeRef::ServerHelloDone => HandshakePayload::ServerHelloDone,
            HandshakeRef::ClientKeyExchange => HandshakePayload::ClientKeyExchange,
        }
    }
}

/// A framed handshake message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandshakeMessage {
    pub payload: HandshakePayload,
}

impl HandshakeMessage {
    pub fn new(payload: HandshakePayload) -> Self {
        HandshakeMessage { payload }
    }

    /// Encode: 1-byte type, 24-bit length, structured body + padding.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.payload.view().encode(out);
    }

    /// Parse one message from the front of `buf`; `None` if incomplete.
    pub fn decode(buf: &[u8]) -> Option<(HandshakeMessage, usize)> {
        let (msg, used) = HandshakeRef::decode(buf)?;
        Some((HandshakeMessage::new(msg.to_owned()), used))
    }
}

/// Convenience: standard ticket for tests in this module tree.
#[cfg(test)]
pub fn test_ticket(now: SimTime) -> SessionTicket {
    SessionTicket {
        server_id: 42,
        version: TlsVersion::Tls13,
        alpn: b"doq".to_vec(),
        issued_at: now,
        lifetime: Duration::from_secs(7 * 24 * 3600),
        allows_early_data: false,
        opaque_len: 120,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: HandshakeMessage) -> HandshakeMessage {
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        let (out, used) = HandshakeMessage::decode(&buf).expect("decodes");
        assert_eq!(used, buf.len());
        out
    }

    #[test]
    fn client_hello_roundtrip_and_size() {
        let ch = HandshakeMessage::new(HandshakePayload::ClientHello {
            versions: vec![TlsVersion::Tls13, TlsVersion::Tls12],
            alpn: vec![b"dot".to_vec()],
            psk: None,
            early_data: false,
            pad: 0,
        });
        assert_eq!(roundtrip(ch.clone()), ch);
        let mut buf = Vec::new();
        ch.encode(&mut buf);
        // A full ClientHello should be in the 200-300 byte range.
        assert!((200..320).contains(&buf.len()), "CH = {}", buf.len());
    }

    #[test]
    fn psk_client_hello_is_bigger() {
        let plain = HandshakeMessage::new(HandshakePayload::ClientHello {
            versions: vec![TlsVersion::Tls13],
            alpn: vec![b"dot".to_vec()],
            psk: None,
            early_data: false,
            pad: 0,
        });
        let psk = HandshakeMessage::new(HandshakePayload::ClientHello {
            versions: vec![TlsVersion::Tls13],
            alpn: vec![b"dot".to_vec()],
            psk: Some(test_ticket(SimTime::ZERO)),
            early_data: true,
            pad: 0,
        });
        let len = |m: &HandshakeMessage| {
            let mut b = Vec::new();
            m.encode(&mut b);
            b.len()
        };
        assert!(
            len(&psk) > len(&plain) + 150,
            "{} vs {}",
            len(&psk),
            len(&plain)
        );
        assert_eq!(roundtrip(psk.clone()), psk);
    }

    #[test]
    fn certificate_size_follows_chain_len() {
        let cert = HandshakeMessage::new(HandshakePayload::Certificate { chain_len: 2400 });
        let mut buf = Vec::new();
        cert.encode(&mut buf);
        assert!(buf.len() >= 2400);
        assert!(buf.len() < 2450);
        assert_eq!(roundtrip(cert.clone()), cert);
    }

    #[test]
    fn all_message_types_roundtrip() {
        let msgs = vec![
            HandshakePayload::ServerHello {
                version: TlsVersion::Tls13,
                resumed: true,
            },
            HandshakePayload::EncryptedExtensions {
                alpn: Some(b"h2".to_vec()),
                early_data_accepted: true,
            },
            HandshakePayload::CertificateVerify,
            HandshakePayload::Finished,
            HandshakePayload::NewSessionTicket {
                ticket: test_ticket(SimTime::ZERO),
            },
            HandshakePayload::ServerHelloDone,
            HandshakePayload::ClientKeyExchange,
        ];
        for p in msgs {
            let m = HandshakeMessage::new(p);
            assert_eq!(roundtrip(m.clone()), m);
        }
    }

    #[test]
    fn record_roundtrip_plain_and_encrypted() {
        for rec in [
            TlsRecord::PlainHandshake(vec![1, 2, 3]),
            TlsRecord::ChangeCipherSpec,
            TlsRecord::Alert {
                fatal: true,
                code: 40,
            },
            TlsRecord::encrypted_handshake(vec![9; 50]),
            TlsRecord::app_data(b"dns".to_vec()),
        ] {
            let mut buf = Vec::new();
            rec.encode(&mut buf);
            let (out, used) = TlsRecord::decode(&buf).expect("decodes");
            assert_eq!(used, buf.len());
            assert_eq!(out, rec);
        }
    }

    #[test]
    fn encrypted_record_carries_aead_overhead() {
        let rec = TlsRecord::app_data(vec![0; 100]);
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        assert_eq!(buf.len(), 5 + 100 + RECORD_OVERHEAD);
    }

    #[test]
    fn record_decode_incomplete_returns_none() {
        let rec = TlsRecord::app_data(vec![0; 100]);
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        for cut in [0, 3, 50, buf.len() - 1] {
            assert!(TlsRecord::decode(&buf[..cut]).is_none(), "cut = {cut}");
        }
    }

    #[test]
    fn handshake_reader_reassembles_split_messages() {
        let mut wire = Vec::new();
        HandshakeMessage::new(HandshakePayload::Finished).encode(&mut wire);
        HandshakeMessage::new(HandshakePayload::ServerHelloDone).encode(&mut wire);
        let mut pending = Vec::new();
        let mut got = Vec::new();
        let mid = wire.len() / 2;
        for chunk in [&wire[..mid], &wire[mid..]] {
            reassemble(&mut pending, chunk, |rest| {
                let (msg, used) = HandshakeRef::decode(rest)?;
                got.push(msg.to_owned());
                Some(used)
            });
        }
        assert!(pending.is_empty());
        assert_eq!(
            got,
            [
                HandshakePayload::Finished,
                HandshakePayload::ServerHelloDone
            ]
        );
    }

    #[test]
    fn garbage_decodes_to_none_not_panic() {
        assert!(HandshakeMessage::decode(&[255, 0, 0, 1, 7]).is_none());
        assert!(TlsRecord::decode(&[99, 3, 3, 0, 1, 0]).is_none());
    }
}
