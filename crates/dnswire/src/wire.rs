//! Low-level wire reading and writing.
//!
//! [`WireWriter`] appends big-endian integers and byte slices to a
//! growable buffer and remembers where names start, for compression.
//! [`WireReader`] is a bounds-checked cursor over received bytes; all
//! failures surface as [`WireError`] — malformed input can never panic.

/// Decoding / encoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the structure was complete.
    Truncated,
    /// A label exceeded 63 bytes or a name exceeded 255 bytes.
    NameTooLong,
    /// A compression pointer pointed forward or formed a loop.
    BadPointer,
    /// A label length byte used the reserved 0x40/0x80 prefixes.
    BadLabelType,
    /// A count field disagreed with the message contents.
    BadCount,
    /// Any other structural violation, with a short description.
    Invalid(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::NameTooLong => write!(f, "name or label too long"),
            WireError::BadPointer => write!(f, "bad compression pointer"),
            WireError::BadLabelType => write!(f, "reserved label type"),
            WireError::BadCount => write!(f, "section count mismatch"),
            WireError::Invalid(what) => write!(f, "invalid message: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// How many name offsets a writer remembers before it allocates.
const INLINE_OFFSETS: usize = 32;

/// Growable output buffer that remembers where name suffixes start,
/// for compression.
///
/// Offsets of every name suffix written with compression are kept in
/// writing order; a suffix is found again by comparing it against the
/// output itself, so no per-suffix key is ever built. The first 32
/// live inline, so a typical message compresses without allocating. Only offsets < 0x4000 are usable as pointer
/// targets.
#[derive(Debug)]
pub struct WireWriter {
    buf: Vec<u8>,
    inline_offsets: [u16; INLINE_OFFSETS],
    inline_len: usize,
    more_offsets: Vec<u16>,
}

impl Default for WireWriter {
    fn default() -> Self {
        WireWriter::with_capacity(0)
    }
}

impl WireWriter {
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// A writer whose buffer holds `capacity` bytes before it grows.
    pub fn with_capacity(capacity: usize) -> Self {
        WireWriter {
            buf: Vec::with_capacity(capacity),
            inline_offsets: [0; INLINE_OFFSETS],
            inline_len: 0,
            more_offsets: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub fn put_slice(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Overwrite two bytes at `at` (used to patch RDLENGTH after the
    /// RDATA, whose compressed size is not known in advance).
    pub fn patch_u16(&mut self, at: usize, v: u16) {
        self.buf[at..at + 2].copy_from_slice(&v.to_be_bytes());
    }

    /// The first remembered offset whose name spells `suffix` — a flat
    /// sequence of length-prefixed labels without the root byte —
    /// case-insensitively.
    pub fn compression_offset(&self, suffix: &[u8]) -> Option<u16> {
        self.inline_offsets[..self.inline_len]
            .iter()
            .chain(&self.more_offsets)
            .copied()
            .find(|&at| self.name_at_eq(at as usize, suffix))
    }

    /// Remember that a name suffix starts at `offset`.
    pub fn remember_name(&mut self, offset: usize) {
        // Pointers can only address the first 16 KiB minus the two
        // pointer tag bits.
        if offset >= 0x4000 {
            return;
        }
        if self.inline_len < INLINE_OFFSETS {
            self.inline_offsets[self.inline_len] = offset as u16;
            self.inline_len += 1;
        } else {
            self.more_offsets.push(offset as u16);
        }
    }

    /// Whether the name written at `at` (following pointers, which
    /// `Name::encode` only ever writes backwards) equals `want`
    /// case-insensitively. A name still being written runs into the end
    /// of the buffer; it is longer than any suffix of itself, so that is
    /// a mismatch.
    fn name_at_eq(&self, mut at: usize, mut want: &[u8]) -> bool {
        loop {
            let Some(&len) = self.buf.get(at) else {
                return false;
            };
            if len & 0xC0 == 0xC0 {
                let Some(&lo) = self.buf.get(at + 1) else {
                    return false;
                };
                let target = (((len & 0x3F) as usize) << 8) | lo as usize;
                if target >= at {
                    return false;
                }
                at = target;
                continue;
            }
            if len == 0 {
                return want.is_empty();
            }
            // The length byte and the label; length bytes are never
            // ASCII letters, so folding them is harmless.
            let n = 1 + len as usize;
            if want.len() < n || !self.buf[at..at + n].eq_ignore_ascii_case(&want[..n]) {
                return false;
            }
            at += n;
            want = &want[n..];
        }
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Bounds-checked cursor over an input buffer.
///
/// The reader always retains a view of the *whole* message so that
/// compression pointers can jump backwards.
#[derive(Debug, Clone, Copy)]
pub struct WireReader<'a> {
    full: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { full: buf, pos: 0 }
    }

    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Jump to an absolute offset (used for compression pointers).
    pub fn seek(&mut self, pos: usize) -> Result<(), WireError> {
        if pos > self.full.len() {
            return Err(WireError::Truncated);
        }
        self.pos = pos;
        Ok(())
    }

    pub fn remaining(&self) -> usize {
        self.full.len() - self.pos
    }

    pub fn is_at_end(&self) -> bool {
        self.remaining() == 0
    }

    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        let b = *self.full.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        let s = self.get_slice(2)?;
        Ok(u16::from_be_bytes([s[0], s[1]]))
    }

    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        let s = self.get_slice(4)?;
        Ok(u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
    }

    pub fn get_slice(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < len {
            return Err(WireError::Truncated);
        }
        let s = &self.full[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }

    /// The full message buffer (for pointer resolution).
    pub fn full_message(&self) -> &'a [u8] {
        self.full
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_primitives() {
        let mut w = WireWriter::new();
        w.put_u8(0xAB);
        w.put_u16(0x1234);
        w.put_u32(0xDEADBEEF);
        w.put_slice(&[1, 2]);
        assert_eq!(
            w.finish(),
            vec![0xAB, 0x12, 0x34, 0xDE, 0xAD, 0xBE, 0xEF, 1, 2]
        );
    }

    #[test]
    fn patch_u16_overwrites_in_place() {
        let mut w = WireWriter::new();
        w.put_u16(0);
        w.put_u8(9);
        w.patch_u16(0, 0xBEEF);
        assert_eq!(w.finish(), vec![0xBE, 0xEF, 9]);
    }

    #[test]
    fn reader_primitives_roundtrip() {
        let buf = [0xAB, 0x12, 0x34, 0xDE, 0xAD, 0xBE, 0xEF, 1, 2];
        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u16().unwrap(), 0x1234);
        assert_eq!(r.get_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.get_slice(2).unwrap(), &[1, 2]);
        assert!(r.is_at_end());
    }

    #[test]
    fn reader_rejects_overrun() {
        let mut r = WireReader::new(&[1]);
        assert_eq!(r.get_u16(), Err(WireError::Truncated));
        assert_eq!(r.get_u8().unwrap(), 1);
        assert_eq!(r.get_u8(), Err(WireError::Truncated));
    }

    #[test]
    fn seek_bounds() {
        let mut r = WireReader::new(&[1, 2, 3]);
        assert!(r.seek(3).is_ok());
        assert!(r.is_at_end());
        assert_eq!(r.seek(4), Err(WireError::Truncated));
    }

    #[test]
    fn compression_lookup_first_offset_wins() {
        let mut w = WireWriter::new();
        for at in [0, 13] {
            assert_eq!(w.len(), at);
            w.remember_name(at);
            w.put_slice(b"\x07example\x03com\x00");
        }
        assert_eq!(w.compression_offset(b"\x07EXAMPLE\x03com"), Some(0));
        assert_eq!(w.compression_offset(b"\x07example"), None);
        assert_eq!(w.compression_offset(b"\x03com"), None);
    }

    #[test]
    fn compression_lookup_follows_pointers() {
        let mut w = WireWriter::new();
        w.remember_name(0);
        w.put_slice(b"\x03com\x00");
        w.remember_name(w.len());
        w.put_slice(b"\x01a\xC0\x00");
        assert_eq!(w.compression_offset(b"\x01A\x03com"), Some(5));
        assert_eq!(w.compression_offset(b"\x01a"), None);
    }

    #[test]
    fn compression_lookup_spills_past_the_inline_offsets() {
        let mut w = WireWriter::new();
        for i in 0..INLINE_OFFSETS as u8 + 8 {
            w.remember_name(w.len());
            w.put_slice(&[1, b'a' + i % 26, 1, i, 0]);
        }
        let last = INLINE_OFFSETS as u8 + 7;
        let want = [1, b'a' + last % 26, 1, last];
        assert_eq!(w.compression_offset(&want), Some(5 * last as u16));
    }

    #[test]
    fn compression_lookup_ignores_unreachable_offsets() {
        let mut w = WireWriter::new();
        w.put_slice(&[0; 0x4000]);
        w.remember_name(0x4000);
        w.put_slice(b"\x01x\x00");
        assert_eq!(w.compression_offset(b"\x01x"), None);
    }
}
