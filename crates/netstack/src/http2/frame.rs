//! HTTP/2 frame layer (RFC 9113 §4): 9-byte header — 24-bit length,
//! type, flags, 31-bit stream id — followed by the payload.

use super::hpack::MAX_TABLE_SIZE;

pub(crate) const FLAG_ACK: u8 = 0x01; // SETTINGS / PING
const FLAG_END_STREAM: u8 = 0x01; // HEADERS / DATA
const FLAG_END_HEADERS: u8 = 0x04;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum H2FrameType {
    Data,
    Headers,
    RstStream,
    Settings,
    Ping,
    GoAway,
    WindowUpdate,
    Other(u8),
}

impl H2FrameType {
    fn to_u8(self) -> u8 {
        match self {
            H2FrameType::Data => 0x0,
            H2FrameType::Headers => 0x1,
            H2FrameType::RstStream => 0x3,
            H2FrameType::Settings => 0x4,
            H2FrameType::Ping => 0x6,
            H2FrameType::GoAway => 0x7,
            H2FrameType::WindowUpdate => 0x8,
            H2FrameType::Other(v) => v,
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            0x0 => H2FrameType::Data,
            0x1 => H2FrameType::Headers,
            0x3 => H2FrameType::RstStream,
            0x4 => H2FrameType::Settings,
            0x6 => H2FrameType::Ping,
            0x7 => H2FrameType::GoAway,
            0x8 => H2FrameType::WindowUpdate,
            other => H2FrameType::Other(other),
        }
    }
}

/// Frame header length.
pub(crate) const FRAME_HEADER_LEN: usize = 9;

/// The six settings a non-ACK SETTINGS frame carries, as common
/// implementations send them (36 bytes): header table size, enable
/// push, max concurrent streams, initial window, max frame size, max
/// header list size.
const SETTINGS: [(u16, u32); 6] = [
    (0x1, MAX_TABLE_SIZE as u32),
    (0x2, 0),
    (0x3, 100),
    (0x4, 1 << 20),
    (0x5, 16_384),
    (0x6, 65_536),
];

/// The GOAWAY payload: last stream id (4) + error code (4).
const GOAWAY_PAYLOAD: [u8; 8] = [0; 8];

/// Append a frame header announcing a `len`-byte payload.
pub(crate) fn write_frame_header(
    out: &mut Vec<u8>,
    len: usize,
    ftype: H2FrameType,
    flags: u8,
    stream_id: u32,
) {
    out.extend_from_slice(&(len as u32).to_be_bytes()[1..]);
    out.push(ftype.to_u8());
    out.push(flags);
    out.extend_from_slice(&(stream_id & 0x7FFF_FFFF).to_be_bytes());
}

/// Append a whole frame.
pub(crate) fn write_frame(
    out: &mut Vec<u8>,
    ftype: H2FrameType,
    flags: u8,
    stream_id: u32,
    payload: &[u8],
) {
    out.reserve(FRAME_HEADER_LEN + payload.len());
    write_frame_header(out, payload.len(), ftype, flags, stream_id);
    out.extend_from_slice(payload);
}

/// Length of a non-ACK SETTINGS frame.
pub(crate) const SETTINGS_FRAME_LEN: usize = FRAME_HEADER_LEN + 6 * SETTINGS.len();

/// Append a SETTINGS frame (or its ACK).
pub(crate) fn write_settings(out: &mut Vec<u8>, ack: bool) {
    if ack {
        return write_frame_header(out, 0, H2FrameType::Settings, FLAG_ACK, 0);
    }
    out.reserve(SETTINGS_FRAME_LEN);
    write_frame_header(out, 6 * SETTINGS.len(), H2FrameType::Settings, 0, 0);
    for (id, value) in SETTINGS {
        out.extend_from_slice(&id.to_be_bytes());
        out.extend_from_slice(&value.to_be_bytes());
    }
}

/// Append a HEADERS frame around a header block the caller writes in
/// place: `block` appends the block to the buffer it is given.
pub(crate) fn write_headers(
    out: &mut Vec<u8>,
    stream_id: u32,
    end_stream: bool,
    block: impl FnOnce(&mut Vec<u8>),
) {
    let start = out.len();
    let flags = FLAG_END_HEADERS | if end_stream { FLAG_END_STREAM } else { 0 };
    write_frame_header(out, 0, H2FrameType::Headers, flags, stream_id);
    block(out);
    let len = (out.len() - start - FRAME_HEADER_LEN) as u32;
    out[start..start + 3].copy_from_slice(&len.to_be_bytes()[1..]);
}

/// Append DATA frames carrying `body`, at most 16 KiB each (the default
/// max frame size); the last one ends the stream.
pub(crate) fn write_data(out: &mut Vec<u8>, stream_id: u32, body: &[u8]) {
    let mut chunks = body.chunks(16_384).peekable();
    while let Some(chunk) = chunks.next() {
        let flags = if chunks.peek().is_none() {
            FLAG_END_STREAM
        } else {
            0
        };
        write_frame(out, H2FrameType::Data, flags, stream_id, chunk);
    }
}

/// Append a GOAWAY frame.
pub(crate) fn write_goaway(out: &mut Vec<u8>) {
    write_frame(out, H2FrameType::GoAway, 0, 0, &GOAWAY_PAYLOAD);
}

/// One HTTP/2 frame borrowed from the byte stream: the one decoder of
/// the frame layer ([`H2Frame::decode`] converts through it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct H2FrameRef<'a> {
    pub ftype: H2FrameType,
    pub flags: u8,
    pub stream_id: u32,
    pub payload: &'a [u8],
}

impl<'a> H2FrameRef<'a> {
    /// Parse one frame from the front of `buf`; `None` if incomplete.
    pub fn decode(buf: &'a [u8]) -> Option<(H2FrameRef<'a>, usize)> {
        let header = buf.get(..FRAME_HEADER_LEN)?;
        let len = u32::from_be_bytes([0, header[0], header[1], header[2]]) as usize;
        let payload = buf.get(FRAME_HEADER_LEN..FRAME_HEADER_LEN + len)?;
        let frame = H2FrameRef {
            ftype: H2FrameType::from_u8(header[3]),
            flags: header[4],
            stream_id: u32::from_be_bytes([header[5], header[6], header[7], header[8]])
                & 0x7FFF_FFFF,
            payload,
        };
        Some((frame, FRAME_HEADER_LEN + len))
    }

    pub fn flags_ack(&self) -> bool {
        self.flags & FLAG_ACK != 0
    }

    pub fn flags_end_stream(&self) -> bool {
        matches!(self.ftype, H2FrameType::Data | H2FrameType::Headers)
            && self.flags & FLAG_END_STREAM != 0
    }

    /// Append this frame to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        write_frame(out, self.ftype, self.flags, self.stream_id, self.payload);
    }

    pub fn to_owned(self) -> H2Frame {
        H2Frame {
            ftype: self.ftype,
            flags: self.flags,
            stream_id: self.stream_id,
            payload: self.payload.to_vec(),
        }
    }
}

/// One owned HTTP/2 frame: a convenience over [`H2FrameRef`] and the
/// `write_*` encoders for tests and tools.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct H2Frame {
    pub ftype: H2FrameType,
    pub flags: u8,
    pub stream_id: u32,
    pub payload: Vec<u8>,
}

impl H2Frame {
    /// A SETTINGS frame. Non-ACK carries a realistic set of six
    /// settings (36 bytes), like common implementations send.
    pub fn settings(ack: bool) -> H2Frame {
        let mut wire = Vec::new();
        write_settings(&mut wire, ack);
        H2Frame::decode(&wire).expect("a whole frame").0
    }

    pub fn headers(stream_id: u32, block: Vec<u8>, end_stream: bool) -> H2Frame {
        H2Frame {
            ftype: H2FrameType::Headers,
            flags: FLAG_END_HEADERS | if end_stream { FLAG_END_STREAM } else { 0 },
            stream_id,
            payload: block,
        }
    }

    pub fn data(stream_id: u32, payload: Vec<u8>, end_stream: bool) -> H2Frame {
        H2Frame {
            ftype: H2FrameType::Data,
            flags: if end_stream { FLAG_END_STREAM } else { 0 },
            stream_id,
            payload,
        }
    }

    pub fn ping_ack(payload: Vec<u8>) -> H2Frame {
        H2Frame {
            ftype: H2FrameType::Ping,
            flags: FLAG_ACK,
            stream_id: 0,
            payload,
        }
    }

    pub fn goaway() -> H2Frame {
        H2Frame {
            ftype: H2FrameType::GoAway,
            flags: 0,
            stream_id: 0,
            payload: GOAWAY_PAYLOAD.to_vec(),
        }
    }

    /// The borrowed view.
    pub fn view(&self) -> H2FrameRef<'_> {
        H2FrameRef {
            ftype: self.ftype,
            flags: self.flags,
            stream_id: self.stream_id,
            payload: &self.payload,
        }
    }

    pub fn flags_ack(&self) -> bool {
        self.view().flags_ack()
    }

    pub fn flags_end_stream(&self) -> bool {
        self.view().flags_end_stream()
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_HEADER_LEN + self.payload.len());
        self.view().encode_into(&mut out);
        out
    }

    /// Parse one frame from the front of `buf`; `None` if incomplete.
    pub fn decode(buf: &[u8]) -> Option<(H2Frame, usize)> {
        H2FrameRef::decode(buf).map(|(frame, used)| (frame.to_owned(), used))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_constructors() {
        for frame in [
            H2Frame::settings(false),
            H2Frame::settings(true),
            H2Frame::headers(1, vec![1, 2, 3], true),
            H2Frame::headers(3, vec![], false),
            H2Frame::data(1, b"body".to_vec(), true),
            H2Frame::ping_ack(vec![0; 8]),
            H2Frame::goaway(),
        ] {
            let wire = frame.encode();
            let (back, used) = H2Frame::decode(&wire).unwrap();
            assert_eq!(used, wire.len());
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn in_place_writers_match_the_owned_frames() {
        let mut wire = Vec::new();
        write_headers(&mut wire, 3, false, |out| out.extend_from_slice(&[1, 2, 3]));
        assert_eq!(wire, H2Frame::headers(3, vec![1, 2, 3], false).encode());
        let mut wire = Vec::new();
        let body = vec![5u8; 40_000];
        write_data(&mut wire, 1, &body);
        let mut expected = Vec::new();
        for (i, chunk) in body.chunks(16_384).enumerate() {
            expected.extend(H2Frame::data(1, chunk.to_vec(), i == 2).encode());
        }
        assert_eq!(wire, expected);
        let mut wire = Vec::new();
        write_goaway(&mut wire);
        assert_eq!(wire, H2Frame::goaway().encode());
    }

    #[test]
    fn settings_frame_is_realistic_size() {
        assert_eq!(H2Frame::settings(false).encode().len(), 9 + 36);
        assert_eq!(H2Frame::settings(true).encode().len(), 9);
    }

    #[test]
    fn end_stream_flag_only_on_data_and_headers() {
        let mut s = H2Frame::settings(true);
        s.flags = 0x01;
        assert!(!s.flags_end_stream());
        assert!(s.flags_ack());
        let d = H2Frame::data(1, vec![], true);
        assert!(d.flags_end_stream());
    }

    #[test]
    fn incomplete_frames_wait() {
        let wire = H2Frame::data(1, vec![9; 100], false).encode();
        for cut in [0, 5, 9, 50] {
            assert!(H2Frame::decode(&wire[..cut]).is_none());
        }
    }

    #[test]
    fn reserved_bit_is_masked() {
        let mut wire = H2Frame::data(1, vec![], false).encode();
        wire[5] |= 0x80; // set the reserved bit
        let (frame, _) = H2Frame::decode(&wire).unwrap();
        assert_eq!(frame.stream_id, 1);
    }
}
