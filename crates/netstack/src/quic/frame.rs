//! QUIC frames (RFC 9000 §19). The subset a DoQ connection exercises:
//! PADDING, PING, ACK (with ranges), CRYPTO, NEW_TOKEN, STREAM,
//! PATH_CHALLENGE, PATH_RESPONSE, CONNECTION_CLOSE and HANDSHAKE_DONE.
//!
//! There is one encoder and one decoder. The encoder is the `write_*`
//! family, generic over a [`FrameSink`]: writing into a `Vec<u8>` emits
//! the bytes, writing into a [`WireLen`] counts them, so a frame's size
//! can never disagree with its encoding. The decoder is
//! [`FrameRef::decode`], which borrows CRYPTO/STREAM data, tokens and
//! close reasons from the received payload. The owned [`Frame`] is a
//! thin wrapper over both, for tests and tools.

use super::varint::{read_varint, varint_len, write_varint};

/// A decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// `n` bytes of padding (run-length encoded here; one byte each on
    /// the wire).
    Padding(usize),
    Ping,
    /// Acknowledged packet-number ranges, descending, inclusive.
    Ack {
        ranges: Vec<(u64, u64)>,
        delay: u64,
    },
    Crypto {
        offset: u64,
        data: Vec<u8>,
    },
    NewToken {
        token: Vec<u8>,
    },
    Stream {
        id: u64,
        offset: u64,
        data: Vec<u8>,
        fin: bool,
    },
    /// Path validation probe (RFC 9000 §19.17): 8 opaque bytes the
    /// peer must echo in a PATH_RESPONSE on the same path.
    PathChallenge([u8; 8]),
    /// Echo of a received PATH_CHALLENGE (RFC 9000 §19.18).
    PathResponse([u8; 8]),
    ConnectionClose {
        error_code: u64,
        reason: Vec<u8>,
    },
    HandshakeDone,
}

impl Frame {
    pub fn is_ack_eliciting(&self) -> bool {
        !matches!(
            self,
            Frame::Padding(_) | Frame::Ack { .. } | Frame::ConnectionClose { .. }
        )
    }

    /// Encoded size in bytes.
    pub fn wire_len(&self) -> usize {
        let mut len = WireLen(0);
        self.write(&mut len);
        len.0
    }

    pub fn encode(&self, out: &mut Vec<u8>) {
        self.write(out);
    }

    fn write<S: FrameSink>(&self, s: &mut S) {
        match self {
            Frame::Padding(n) => s.put_zeros(*n),
            Frame::Ping => write_ping(s),
            Frame::Ack { ranges, delay } => {
                assert!(!ranges.is_empty(), "ACK needs at least one range");
                write_ack(s, *delay, ranges.len(), ranges.iter().copied());
            }
            Frame::Crypto { offset, data } => {
                write_crypto_header(s, *offset, data.len());
                s.put_slice(data);
            }
            Frame::NewToken { token } => write_new_token(s, token),
            Frame::Stream {
                id,
                offset,
                data,
                fin,
            } => {
                write_stream_header(s, *id, *offset, data.len(), *fin);
                s.put_slice(data);
            }
            Frame::PathChallenge(data) => write_path_challenge(s, data),
            Frame::PathResponse(data) => write_path_response(s, data),
            Frame::ConnectionClose { error_code, reason } => {
                write_connection_close(s, *error_code, reason)
            }
            Frame::HandshakeDone => write_handshake_done(s),
        }
    }

    /// Decode every frame in a packet payload. Returns `None` on any
    /// malformed frame. Consecutive PADDING bytes are merged.
    pub fn decode_all(buf: &[u8]) -> Option<Vec<Frame>> {
        let mut frames = FrameIter::new(buf);
        let out = frames.by_ref().map(FrameRef::to_owned).collect();
        (!frames.malformed()).then_some(out)
    }
}

/// Where the frame encoder writes: a byte buffer, or a length counter.
pub(crate) trait FrameSink {
    fn put_u8(&mut self, b: u8);
    fn put_varint(&mut self, v: u64);
    fn put_slice(&mut self, s: &[u8]);
    fn put_zeros(&mut self, n: usize);
}

impl FrameSink for Vec<u8> {
    fn put_u8(&mut self, b: u8) {
        self.push(b);
    }
    fn put_varint(&mut self, v: u64) {
        write_varint(self, v);
    }
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
    fn put_zeros(&mut self, n: usize) {
        self.resize(self.len() + n, 0);
    }
}

/// A [`FrameSink`] that only counts bytes.
pub(crate) struct WireLen(pub usize);

impl FrameSink for WireLen {
    fn put_u8(&mut self, _: u8) {
        self.0 += 1;
    }
    fn put_varint(&mut self, v: u64) {
        self.0 += varint_len(v);
    }
    fn put_slice(&mut self, s: &[u8]) {
        self.0 += s.len();
    }
    fn put_zeros(&mut self, n: usize) {
        self.0 += n;
    }
}

pub(crate) fn write_ping<S: FrameSink>(s: &mut S) {
    s.put_u8(0x01);
}

/// An ACK frame over `count` descending, inclusive `(hi, lo)` ranges.
pub(crate) fn write_ack<S: FrameSink>(
    s: &mut S,
    delay: u64,
    count: usize,
    mut ranges: impl Iterator<Item = (u64, u64)>,
) {
    let (largest, first_lo) = ranges.next().expect("ACK needs at least one range");
    s.put_u8(0x02);
    s.put_varint(largest);
    s.put_varint(delay);
    s.put_varint(count as u64 - 1);
    s.put_varint(largest - first_lo);
    let mut prev_lo = first_lo;
    for (hi, lo) in ranges.take(count - 1) {
        // gap = number of unacked packets between ranges - 1
        s.put_varint(prev_lo - hi - 2);
        s.put_varint(hi - lo);
        prev_lo = lo;
    }
}

/// A CRYPTO frame's header; `len` data bytes follow it.
pub(crate) fn write_crypto_header<S: FrameSink>(s: &mut S, offset: u64, len: usize) {
    s.put_u8(0x06);
    s.put_varint(offset);
    s.put_varint(len as u64);
}

pub(crate) fn write_new_token<S: FrameSink>(s: &mut S, token: &[u8]) {
    s.put_u8(0x07);
    s.put_varint(token.len() as u64);
    s.put_slice(token);
}

/// A STREAM frame's header; `len` data bytes follow it.
pub(crate) fn write_stream_header<S: FrameSink>(
    s: &mut S,
    id: u64,
    offset: u64,
    len: usize,
    fin: bool,
) {
    // 0x08 | OFF(0x04) | LEN(0x02) | FIN(0x01); we always set OFF and
    // LEN for a self-delimiting encoding.
    s.put_u8(0x08 | 0x04 | 0x02 | (fin as u8));
    s.put_varint(id);
    s.put_varint(offset);
    s.put_varint(len as u64);
}

pub(crate) fn write_path_challenge<S: FrameSink>(s: &mut S, data: &[u8; 8]) {
    s.put_u8(0x1A);
    s.put_slice(data);
}

pub(crate) fn write_path_response<S: FrameSink>(s: &mut S, data: &[u8; 8]) {
    s.put_u8(0x1B);
    s.put_slice(data);
}

pub(crate) fn write_connection_close<S: FrameSink>(s: &mut S, error_code: u64, reason: &[u8]) {
    s.put_u8(0x1C);
    s.put_varint(error_code);
    s.put_varint(0); // offending frame type
    s.put_varint(reason.len() as u64);
    s.put_slice(reason);
}

pub(crate) fn write_handshake_done<S: FrameSink>(s: &mut S) {
    s.put_u8(0x1E);
}

/// A frame borrowed from a received payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameRef<'a> {
    Padding(usize),
    Ping,
    Ack(AckRef<'a>),
    Crypto {
        offset: u64,
        data: &'a [u8],
    },
    NewToken {
        token: &'a [u8],
    },
    Stream {
        id: u64,
        offset: u64,
        data: &'a [u8],
        fin: bool,
    },
    PathChallenge([u8; 8]),
    PathResponse([u8; 8]),
    ConnectionClose {
        error_code: u64,
        reason: &'a [u8],
    },
    HandshakeDone,
}

/// An ACK frame whose additional ranges stay in wire form. Decoding
/// checks every range, so [`AckRef::ranges`] cannot fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AckRef<'a> {
    pub largest: u64,
    pub delay: u64,
    first: u64,
    /// The gap/length varint pairs after the first range.
    rest: &'a [u8],
}

impl<'a> AckRef<'a> {
    /// Acknowledged `(hi, lo)` ranges, descending, inclusive.
    pub fn ranges(&self) -> AckRanges<'a> {
        AckRanges {
            next: Some((self.largest, self.largest - self.first)),
            rest: self.rest,
            pos: 0,
        }
    }
}

/// Iterator over an [`AckRef`]'s ranges.
pub(crate) struct AckRanges<'a> {
    next: Option<(u64, u64)>,
    rest: &'a [u8],
    pos: usize,
}

impl Iterator for AckRanges<'_> {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        let current = self.next?;
        self.next = if self.pos < self.rest.len() {
            next_ack_range(self.rest, &mut self.pos, current.1)
        } else {
            None
        };
        Some(current)
    }
}

/// The range below one whose low end is `lo`, read from `buf[*pos..]`.
fn next_ack_range(buf: &[u8], pos: &mut usize, lo: u64) -> Option<(u64, u64)> {
    let gap = read_varint(buf, pos)?;
    let len = read_varint(buf, pos)?;
    let hi = lo.checked_sub(gap + 2)?;
    Some((hi, hi.checked_sub(len)?))
}

/// `len` bytes at `buf[*pos..]`, advancing `pos`.
fn take<'a>(buf: &'a [u8], pos: &mut usize, len: u64) -> Option<&'a [u8]> {
    let end = pos.checked_add(usize::try_from(len).ok()?)?;
    let s = buf.get(*pos..end)?;
    *pos = end;
    Some(s)
}

impl<'a> FrameRef<'a> {
    pub fn is_ack_eliciting(&self) -> bool {
        !matches!(
            self,
            FrameRef::Padding(_) | FrameRef::Ack(_) | FrameRef::ConnectionClose { .. }
        )
    }

    /// Decode the frame at `buf[*pos..]`, advancing `pos`; `None` if it
    /// is malformed. A run of PADDING bytes is one frame.
    pub fn decode(buf: &'a [u8], pos: &mut usize) -> Option<FrameRef<'a>> {
        let ftype = *buf.get(*pos)?;
        *pos += 1;
        Some(match ftype {
            0x00 => {
                let start = *pos - 1;
                while buf.get(*pos) == Some(&0) {
                    *pos += 1;
                }
                FrameRef::Padding(*pos - start)
            }
            0x01 => FrameRef::Ping,
            0x02 | 0x03 => {
                let largest = read_varint(buf, pos)?;
                let delay = read_varint(buf, pos)?;
                let range_count = read_varint(buf, pos)?;
                let first = read_varint(buf, pos)?;
                let mut lo = largest.checked_sub(first)?;
                let start = *pos;
                for _ in 0..range_count {
                    lo = next_ack_range(buf, pos, lo)?.1;
                }
                FrameRef::Ack(AckRef {
                    largest,
                    delay,
                    first,
                    rest: &buf[start..*pos],
                })
            }
            0x06 => {
                let offset = read_varint(buf, pos)?;
                let len = read_varint(buf, pos)?;
                FrameRef::Crypto {
                    offset,
                    data: take(buf, pos, len)?,
                }
            }
            0x07 => {
                let len = read_varint(buf, pos)?;
                FrameRef::NewToken {
                    token: take(buf, pos, len)?,
                }
            }
            0x08..=0x0F => {
                let fin = ftype & 0x01 != 0;
                let has_len = ftype & 0x02 != 0;
                let has_off = ftype & 0x04 != 0;
                let id = read_varint(buf, pos)?;
                let offset = if has_off { read_varint(buf, pos)? } else { 0 };
                let len = if has_len {
                    read_varint(buf, pos)?
                } else {
                    buf.len().checked_sub(*pos)? as u64
                };
                FrameRef::Stream {
                    id,
                    offset,
                    data: take(buf, pos, len)?,
                    fin,
                }
            }
            0x1A | 0x1B => {
                let data: [u8; 8] = take(buf, pos, 8)?.try_into().ok()?;
                if ftype == 0x1A {
                    FrameRef::PathChallenge(data)
                } else {
                    FrameRef::PathResponse(data)
                }
            }
            0x1C | 0x1D => {
                let error_code = read_varint(buf, pos)?;
                if ftype == 0x1C {
                    let _frame_type = read_varint(buf, pos)?;
                }
                let len = read_varint(buf, pos)?;
                FrameRef::ConnectionClose {
                    error_code,
                    reason: take(buf, pos, len)?,
                }
            }
            0x1E => FrameRef::HandshakeDone,
            _ => return None,
        })
    }

    pub fn to_owned(self) -> Frame {
        match self {
            FrameRef::Padding(n) => Frame::Padding(n),
            FrameRef::Ping => Frame::Ping,
            FrameRef::Ack(ack) => Frame::Ack {
                ranges: ack.ranges().collect(),
                delay: ack.delay,
            },
            FrameRef::Crypto { offset, data } => Frame::Crypto {
                offset,
                data: data.to_vec(),
            },
            FrameRef::NewToken { token } => Frame::NewToken {
                token: token.to_vec(),
            },
            FrameRef::Stream {
                id,
                offset,
                data,
                fin,
            } => Frame::Stream {
                id,
                offset,
                data: data.to_vec(),
                fin,
            },
            FrameRef::PathChallenge(d) => Frame::PathChallenge(d),
            FrameRef::PathResponse(d) => Frame::PathResponse(d),
            FrameRef::ConnectionClose { error_code, reason } => Frame::ConnectionClose {
                error_code,
                reason: reason.to_vec(),
            },
            FrameRef::HandshakeDone => Frame::HandshakeDone,
        }
    }
}

/// The frames of a payload, borrowed. Iteration stops at the first
/// malformed frame, which [`FrameIter::malformed`] then reports.
pub(crate) struct FrameIter<'a> {
    buf: &'a [u8],
    pos: usize,
    malformed: bool,
}

impl<'a> FrameIter<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        FrameIter {
            buf,
            pos: 0,
            malformed: false,
        }
    }

    pub fn malformed(&self) -> bool {
        self.malformed
    }
}

impl<'a> Iterator for FrameIter<'a> {
    type Item = FrameRef<'a>;

    fn next(&mut self) -> Option<FrameRef<'a>> {
        if self.malformed || self.pos >= self.buf.len() {
            return None;
        }
        let frame = FrameRef::decode(self.buf, &mut self.pos);
        self.malformed = frame.is_none();
        frame
    }
}

/// Check a whole payload before any of it is applied: `Some(ack
/// eliciting)` if every frame is well formed, `None` if any is not.
pub(crate) fn validate(payload: &[u8]) -> Option<bool> {
    let mut frames = FrameIter::new(payload);
    let eliciting = frames.by_ref().fold(false, |e, f| e | f.is_ack_eliciting());
    (!frames.malformed()).then_some(eliciting)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frames: Vec<Frame>) {
        let mut buf = Vec::new();
        for f in &frames {
            let before = buf.len();
            f.encode(&mut buf);
            assert_eq!(buf.len() - before, f.wire_len(), "wire_len of {f:?}");
        }
        assert_eq!(Frame::decode_all(&buf), Some(frames));
    }

    #[test]
    fn simple_frames_roundtrip() {
        roundtrip(vec![
            Frame::Ping,
            Frame::Crypto {
                offset: 0,
                data: vec![1, 2, 3],
            },
            Frame::NewToken { token: vec![9; 32] },
            Frame::HandshakeDone,
            Frame::ConnectionClose {
                error_code: 0,
                reason: b"bye".to_vec(),
            },
        ]);
    }

    #[test]
    fn padding_merges() {
        roundtrip(vec![Frame::Padding(100)]);
        let mut buf = vec![0u8; 10];
        buf.push(0x01);
        assert_eq!(
            Frame::decode_all(&buf),
            Some(vec![Frame::Padding(10), Frame::Ping])
        );
    }

    #[test]
    fn single_range_ack() {
        roundtrip(vec![Frame::Ack {
            ranges: vec![(7, 3)],
            delay: 25,
        }]);
        roundtrip(vec![Frame::Ack {
            ranges: vec![(0, 0)],
            delay: 0,
        }]);
    }

    #[test]
    fn ack_wire_len_counts_the_real_delay() {
        // A delay past one varint byte used to be counted as one byte.
        roundtrip(vec![Frame::Ack {
            ranges: vec![(7, 3)],
            delay: 1_000_000,
        }]);
    }

    #[test]
    fn multi_range_ack() {
        // Acked: 10-8, 5-5, 2-0.
        roundtrip(vec![Frame::Ack {
            ranges: vec![(10, 8), (5, 5), (2, 0)],
            delay: 0,
        }]);
    }

    #[test]
    fn stream_frames_with_fin() {
        roundtrip(vec![
            Frame::Stream {
                id: 0,
                offset: 0,
                data: b"query".to_vec(),
                fin: true,
            },
            Frame::Stream {
                id: 4,
                offset: 100,
                data: vec![],
                fin: true,
            },
            Frame::Stream {
                id: 8,
                offset: 5,
                data: vec![7; 50],
                fin: false,
            },
        ]);
    }

    #[test]
    fn stream_without_length_takes_rest() {
        // Type 0x0C = OFF, no LEN: extends to end of payload.
        let mut buf = vec![0x0C];
        write_varint(&mut buf, 4); // id
        write_varint(&mut buf, 0); // offset
        buf.extend_from_slice(b"rest");
        assert_eq!(
            Frame::decode_all(&buf),
            Some(vec![Frame::Stream {
                id: 4,
                offset: 0,
                data: b"rest".to_vec(),
                fin: false
            }])
        );
    }

    #[test]
    fn malformed_frames_rejected() {
        assert_eq!(Frame::decode_all(&[0xFF]), None); // unknown type
        assert_eq!(Frame::decode_all(&[0x06, 0x00]), None); // truncated crypto
        let mut buf = vec![0x06];
        write_varint(&mut buf, 0);
        write_varint(&mut buf, 100); // claims 100 bytes, has none
        assert_eq!(Frame::decode_all(&buf), None);
        // A good frame ahead of a bad one does not save the payload.
        assert_eq!(validate(&[0x01, 0xFF]), None);
        assert_eq!(validate(&[0x01, 0x00]), Some(true));
    }

    #[test]
    fn path_frames_roundtrip() {
        roundtrip(vec![
            Frame::PathChallenge([1, 2, 3, 4, 5, 6, 7, 8]),
            Frame::PathResponse([1, 2, 3, 4, 5, 6, 7, 8]),
            Frame::PathChallenge([0; 8]),
        ]);
        // Truncated probe data is malformed.
        assert_eq!(Frame::decode_all(&[0x1A, 1, 2, 3]), None);
        assert_eq!(Frame::decode_all(&[0x1B]), None);
    }

    #[test]
    fn ack_eliciting_classification() {
        assert!(Frame::Ping.is_ack_eliciting());
        // Path probes must elicit ACKs (RFC 9000 §9.3 probing packets).
        assert!(Frame::PathChallenge([0; 8]).is_ack_eliciting());
        assert!(Frame::PathResponse([0; 8]).is_ack_eliciting());
        assert!(Frame::Crypto {
            offset: 0,
            data: vec![]
        }
        .is_ack_eliciting());
        assert!(!Frame::Padding(1).is_ack_eliciting());
        assert!(!Frame::Ack {
            ranges: vec![(0, 0)],
            delay: 0
        }
        .is_ack_eliciting());
        assert!(!Frame::ConnectionClose {
            error_code: 0,
            reason: vec![]
        }
        .is_ack_eliciting());
    }
}
