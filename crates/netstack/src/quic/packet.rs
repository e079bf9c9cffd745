//! QUIC packet headers (RFC 9000 §17): long headers for
//! Initial/0-RTT/Handshake/Retry, the short header for 1-RTT, and the
//! Version Negotiation packet — including its use as the stateless
//! response to the version-0 probe the paper's scanner sends.

use super::varint::{read_varint, varint_len, write_varint};
use super::PACKET_TAG_LEN;

/// Connection IDs are fixed at 8 bytes in this implementation.
pub const CID_LEN: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketType {
    Initial,
    ZeroRtt,
    Handshake,
    Retry,
    /// Short header.
    OneRtt,
}

/// A parsed packet. Protected packet payloads carry a modelled 16-byte
/// AEAD tag on the wire which is stripped on decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    pub ptype: PacketType,
    pub version: u32,
    pub dcid: [u8; CID_LEN],
    pub scid: [u8; CID_LEN],
    /// Initial only.
    pub token: Vec<u8>,
    pub packet_number: u64,
    /// Frame bytes (plaintext).
    pub payload: Vec<u8>,
}

/// A packet borrowed from a received datagram: the token and the frame
/// bytes point into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PacketRef<'a> {
    pub ptype: PacketType,
    pub version: u32,
    pub dcid: [u8; CID_LEN],
    pub scid: [u8; CID_LEN],
    pub token: &'a [u8],
    pub packet_number: u64,
    pub payload: &'a [u8],
}

fn type_bits(ptype: PacketType) -> u8 {
    match ptype {
        PacketType::Initial => 0,
        PacketType::ZeroRtt => 1,
        PacketType::Handshake => 2,
        PacketType::Retry => 3,
        PacketType::OneRtt => unreachable!("short header"),
    }
}

/// Long header fields up to the destination and source CIDs.
fn write_long_prefix(
    out: &mut Vec<u8>,
    ptype: PacketType,
    version: u32,
    dcid: &[u8; CID_LEN],
    scid: &[u8; CID_LEN],
) {
    out.push(0xC0 | (type_bits(ptype) << 4));
    out.extend_from_slice(&version.to_be_bytes());
    out.push(CID_LEN as u8);
    out.extend_from_slice(dcid);
    out.push(CID_LEN as u8);
    out.extend_from_slice(scid);
}

/// Write the header of a protected (non-Retry) packet whose frames
/// take `payload_len` bytes; the frames and then [`write_tag`] follow.
#[allow(clippy::too_many_arguments)]
pub(crate) fn write_header(
    out: &mut Vec<u8>,
    ptype: PacketType,
    version: u32,
    dcid: &[u8; CID_LEN],
    scid: &[u8; CID_LEN],
    token: &[u8],
    packet_number: u64,
    payload_len: usize,
) {
    debug_assert!(ptype != PacketType::Retry, "Retry has no payload");
    if ptype == PacketType::OneRtt {
        out.push(0x40); // short header: form=0, fixed=1
        out.extend_from_slice(dcid);
    } else {
        write_long_prefix(out, ptype, version, dcid, scid);
        if ptype == PacketType::Initial {
            write_varint(out, token.len() as u64);
            out.extend_from_slice(token);
        }
        // Length covers packet number (4 bytes) + payload + tag.
        write_varint(out, (4 + payload_len + PACKET_TAG_LEN) as u64);
    }
    out.extend_from_slice(&(packet_number as u32).to_be_bytes());
}

/// The modelled AEAD tag that ends every protected packet.
pub(crate) fn write_tag(out: &mut Vec<u8>) {
    out.resize(out.len() + PACKET_TAG_LEN, 0);
}

/// Wire size of a packet of type `ptype` carrying `payload_len` frame
/// bytes (a Retry carries the `token_len`-byte token instead).
pub(crate) fn packet_len(ptype: PacketType, token_len: usize, payload_len: usize) -> usize {
    const LONG_PREFIX: usize = 1 + 4 + 1 + CID_LEN + 1 + CID_LEN;
    match ptype {
        PacketType::OneRtt => 1 + CID_LEN + 4 + payload_len + PACKET_TAG_LEN,
        PacketType::Retry => LONG_PREFIX + token_len + PACKET_TAG_LEN,
        _ => {
            let token = if ptype == PacketType::Initial {
                varint_len(token_len as u64) + token_len
            } else {
                0
            };
            let length = 4 + payload_len + PACKET_TAG_LEN;
            LONG_PREFIX + token + varint_len(length as u64) + length
        }
    }
}

impl Packet {
    pub fn new(
        ptype: PacketType,
        version: u32,
        dcid: [u8; CID_LEN],
        scid: [u8; CID_LEN],
        packet_number: u64,
        payload: Vec<u8>,
    ) -> Self {
        Packet {
            ptype,
            version,
            dcid,
            scid,
            token: Vec::new(),
            packet_number,
            payload,
        }
    }

    /// Size this packet will occupy on the wire.
    pub fn wire_len(&self) -> usize {
        packet_len(self.ptype, self.token.len(), self.payload.len())
    }

    /// Append the encoded packet.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.reserve(self.wire_len());
        if self.ptype == PacketType::Retry {
            // Retry: token runs to the end (plus integrity tag).
            write_long_prefix(out, self.ptype, self.version, &self.dcid, &self.scid);
            out.extend_from_slice(&self.token);
        } else {
            write_header(
                out,
                self.ptype,
                self.version,
                &self.dcid,
                &self.scid,
                &self.token,
                self.packet_number,
                self.payload.len(),
            );
            out.extend_from_slice(&self.payload);
        }
        write_tag(out);
    }

    /// Parse the packet at `buf[*pos..]`, advancing `pos` past it.
    /// Short-header packets consume the rest of the datagram.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Option<Packet> {
        PacketRef::decode(buf, pos).map(|p| Packet {
            ptype: p.ptype,
            version: p.version,
            dcid: p.dcid,
            scid: p.scid,
            token: p.token.to_vec(),
            packet_number: p.packet_number,
            payload: p.payload.to_vec(),
        })
    }

    /// Peek the version field of a long-header packet without full
    /// parsing (what a server does to decide on Version Negotiation).
    pub fn peek_long_header_version(buf: &[u8]) -> Option<u32> {
        if buf.len() < 5 || buf[0] & 0x80 == 0 {
            return None;
        }
        Some(u32::from_be_bytes(buf[1..5].try_into().ok()?))
    }
}

/// `len` bytes at `buf[*pos..]`, advancing `pos`.
fn take<'a>(buf: &'a [u8], pos: &mut usize, len: usize) -> Option<&'a [u8]> {
    let end = pos.checked_add(len)?;
    let s = buf.get(*pos..end)?;
    *pos = end;
    Some(s)
}

fn take_cid(buf: &[u8], pos: &mut usize) -> Option<[u8; CID_LEN]> {
    take(buf, pos, CID_LEN)?.try_into().ok()
}

fn take_pn(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let pn: [u8; 4] = take(buf, pos, 4)?.try_into().ok()?;
    Some(u32::from_be_bytes(pn) as u64)
}

impl<'a> PacketRef<'a> {
    /// Parse the packet at `buf[*pos..]`, advancing `pos` past it.
    /// Short-header packets consume the rest of the datagram.
    pub fn decode(buf: &'a [u8], pos: &mut usize) -> Option<PacketRef<'a>> {
        let first = *buf.get(*pos)?;
        *pos += 1;
        if first & 0x80 == 0 {
            // Short header.
            let dcid = take_cid(buf, pos)?;
            let packet_number = take_pn(buf, pos)?;
            let rest = buf.len() - *pos;
            let payload = take(buf, pos, rest.checked_sub(PACKET_TAG_LEN)?)?;
            *pos = buf.len();
            return Some(PacketRef {
                ptype: PacketType::OneRtt,
                version: 0,
                dcid,
                scid: [0; CID_LEN],
                token: &[],
                packet_number,
                payload,
            });
        }
        // Long header.
        let version = u32::from_be_bytes(take(buf, pos, 4)?.try_into().ok()?);
        if *take(buf, pos, 1)?.first()? as usize != CID_LEN {
            return None;
        }
        let dcid = take_cid(buf, pos)?;
        if *take(buf, pos, 1)?.first()? as usize != CID_LEN {
            return None;
        }
        let scid = take_cid(buf, pos)?;
        let ptype = match (first >> 4) & 0x03 {
            0 => PacketType::Initial,
            1 => PacketType::ZeroRtt,
            2 => PacketType::Handshake,
            _ => PacketType::Retry,
        };
        let mut token: &[u8] = &[];
        if ptype == PacketType::Initial {
            let tlen = usize::try_from(read_varint(buf, pos)?).ok()?;
            token = take(buf, pos, tlen)?;
        }
        if ptype == PacketType::Retry {
            let rest = buf.len() - *pos;
            let token = take(buf, pos, rest.checked_sub(PACKET_TAG_LEN)?)?;
            *pos = buf.len();
            return Some(PacketRef {
                ptype,
                version,
                dcid,
                scid,
                token,
                packet_number: 0,
                payload: &[],
            });
        }
        let length = usize::try_from(read_varint(buf, pos)?).ok()?;
        if length < 4 + PACKET_TAG_LEN {
            return None;
        }
        let body = take(buf, pos, length)?;
        let mut at = 0;
        let packet_number = take_pn(body, &mut at)?;
        Some(PacketRef {
            ptype,
            version,
            dcid,
            scid,
            token,
            packet_number,
            payload: &body[4..length - PACKET_TAG_LEN],
        })
    }
}

/// A Version Negotiation packet (version field = 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionNegotiation {
    pub dcid: [u8; CID_LEN],
    pub scid: [u8; CID_LEN],
    pub supported: Vec<u32>,
}

impl VersionNegotiation {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![0x80];
        out.extend_from_slice(&0u32.to_be_bytes());
        out.push(CID_LEN as u8);
        out.extend_from_slice(&self.dcid);
        out.push(CID_LEN as u8);
        out.extend_from_slice(&self.scid);
        for v in &self.supported {
            out.extend_from_slice(&v.to_be_bytes());
        }
        out
    }

    /// Parse a datagram as Version Negotiation. Returns `None` unless
    /// the version field is zero.
    pub fn decode(buf: &[u8]) -> Option<VersionNegotiation> {
        if buf.len() < 5 || buf[0] & 0x80 == 0 {
            return None;
        }
        if u32::from_be_bytes(buf[1..5].try_into().ok()?) != 0 {
            return None;
        }
        let mut pos = 5usize;
        let dcid_len = *buf.get(pos)? as usize;
        pos += 1;
        if dcid_len != CID_LEN {
            return None;
        }
        let mut dcid = [0u8; CID_LEN];
        dcid.copy_from_slice(buf.get(pos..pos + CID_LEN)?);
        pos += CID_LEN;
        let scid_len = *buf.get(pos)? as usize;
        pos += 1;
        if scid_len != CID_LEN {
            return None;
        }
        let mut scid = [0u8; CID_LEN];
        scid.copy_from_slice(buf.get(pos..pos + CID_LEN)?);
        pos += CID_LEN;
        let mut supported = Vec::new();
        while pos + 4 <= buf.len() {
            supported.push(u32::from_be_bytes(buf[pos..pos + 4].try_into().ok()?));
            pos += 4;
        }
        Some(VersionNegotiation {
            dcid,
            scid,
            supported,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quic::QUIC_V1;

    fn cid(b: u8) -> [u8; CID_LEN] {
        [b; CID_LEN]
    }

    #[test]
    fn initial_roundtrip_with_token() {
        let mut p = Packet::new(
            PacketType::Initial,
            QUIC_V1,
            cid(1),
            cid(2),
            7,
            vec![6, 0, 5, 1, 2, 3, 4, 9],
        );
        p.token = vec![0xAA; 24];
        let mut buf = Vec::new();
        p.encode(&mut buf);
        assert_eq!(buf.len(), p.wire_len());
        let mut pos = 0;
        let back = Packet::decode(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(back, p);
    }

    #[test]
    fn handshake_and_zero_rtt_roundtrip() {
        for ptype in [PacketType::Handshake, PacketType::ZeroRtt] {
            let p = Packet::new(ptype, QUIC_V1, cid(3), cid(4), 0, vec![1; 100]);
            let mut buf = Vec::new();
            p.encode(&mut buf);
            let mut pos = 0;
            assert_eq!(Packet::decode(&buf, &mut pos).unwrap(), p);
        }
    }

    #[test]
    fn short_header_roundtrip() {
        let p = Packet::new(
            PacketType::OneRtt,
            0,
            cid(5),
            cid(0),
            42,
            b"stream".to_vec(),
        );
        let mut buf = Vec::new();
        p.encode(&mut buf);
        let mut pos = 0;
        let back = Packet::decode(&buf, &mut pos).unwrap();
        assert_eq!(back.ptype, PacketType::OneRtt);
        assert_eq!(back.packet_number, 42);
        assert_eq!(back.payload, b"stream");
        assert_eq!(back.dcid, cid(5));
    }

    #[test]
    fn coalesced_packets_parse_sequentially() {
        // Initial + Handshake + 1-RTT in one datagram, like a server's
        // first flight.
        let mut buf = Vec::new();
        Packet::new(PacketType::Initial, QUIC_V1, cid(1), cid(2), 0, vec![2; 10]).encode(&mut buf);
        Packet::new(
            PacketType::Handshake,
            QUIC_V1,
            cid(1),
            cid(2),
            0,
            vec![3; 20],
        )
        .encode(&mut buf);
        Packet::new(PacketType::OneRtt, 0, cid(1), cid(0), 0, vec![4; 30]).encode(&mut buf);
        let mut pos = 0;
        let a = Packet::decode(&buf, &mut pos).unwrap();
        let b = Packet::decode(&buf, &mut pos).unwrap();
        let c = Packet::decode(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(
            (a.ptype, b.ptype, c.ptype),
            (
                PacketType::Initial,
                PacketType::Handshake,
                PacketType::OneRtt
            )
        );
        assert_eq!(c.payload.len(), 30);
    }

    #[test]
    fn protected_packets_carry_tag_overhead() {
        let p = Packet::new(PacketType::OneRtt, 0, cid(1), cid(0), 0, vec![0; 10]);
        // 1 first byte + 8 dcid + 4 pn + 10 payload + 16 tag.
        assert_eq!(p.wire_len(), 1 + 8 + 4 + 10 + 16);
    }

    #[test]
    fn retry_roundtrip() {
        let mut p = Packet::new(PacketType::Retry, QUIC_V1, cid(1), cid(2), 0, Vec::new());
        p.token = vec![7; 40];
        let mut buf = Vec::new();
        p.encode(&mut buf);
        let mut pos = 0;
        let back = Packet::decode(&buf, &mut pos).unwrap();
        assert_eq!(back.ptype, PacketType::Retry);
        assert_eq!(back.token, vec![7; 40]);
    }

    #[test]
    fn version_negotiation_roundtrip() {
        let vn = VersionNegotiation {
            dcid: cid(9),
            scid: cid(8),
            supported: vec![QUIC_V1, crate::quic::draft_version(29)],
        };
        let buf = vn.encode();
        assert_eq!(VersionNegotiation::decode(&buf), Some(vn));
        // A version-1 packet is not VN.
        let p = Packet::new(PacketType::Initial, QUIC_V1, cid(1), cid(2), 0, vec![1; 30]);
        let mut pbuf = Vec::new();
        p.encode(&mut pbuf);
        assert_eq!(VersionNegotiation::decode(&pbuf), None);
    }

    #[test]
    fn peek_version() {
        let p = Packet::new(
            PacketType::Initial,
            0xff00_0022,
            cid(1),
            cid(2),
            0,
            vec![1; 30],
        );
        let mut buf = Vec::new();
        p.encode(&mut buf);
        assert_eq!(Packet::peek_long_header_version(&buf), Some(0xff00_0022));
        let short = Packet::new(PacketType::OneRtt, 0, cid(1), cid(0), 0, vec![]);
        let mut sbuf = Vec::new();
        short.encode(&mut sbuf);
        assert_eq!(Packet::peek_long_header_version(&sbuf), None);
    }

    #[test]
    fn truncated_packets_rejected() {
        let p = Packet::new(PacketType::Initial, QUIC_V1, cid(1), cid(2), 0, vec![1; 30]);
        let mut buf = Vec::new();
        p.encode(&mut buf);
        for cut in [1, 5, 10, buf.len() - 1] {
            let mut pos = 0;
            assert!(
                Packet::decode(&buf[..cut], &mut pos).is_none(),
                "cut = {cut}"
            );
        }
    }
}
