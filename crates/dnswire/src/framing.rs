//! Two-byte length-prefixed framing for DNS over stream transports
//! (RFC 1035 §4.2.2; used by DoTCP, DoT, and the `doq-i03`+ / RFC 9250
//! DoQ stream mapping).

/// Prefix `msg` with its big-endian 16-bit length.
pub fn frame(msg: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + msg.len());
    out.extend_from_slice(&prefix(msg));
    out.extend_from_slice(msg);
    out
}

/// The length prefix of `msg`, for writers that send it ahead of the
/// message instead of building the framed copy.
pub fn prefix(msg: &[u8]) -> [u8; 2] {
    assert!(
        msg.len() <= u16::MAX as usize,
        "DNS message too large to frame"
    );
    (msg.len() as u16).to_be_bytes()
}

/// Incremental de-framer: feed arbitrary byte chunks, take out complete
/// messages. Stream transports deliver bytes with no message alignment,
/// so a reader must tolerate split length prefixes and coalesced
/// messages.
#[derive(Debug, Default)]
pub struct LengthPrefixedReader {
    buf: Vec<u8>,
}

impl LengthPrefixedReader {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append received bytes.
    pub fn push(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Take the next complete message, if one is buffered.
    pub fn next_message(&mut self) -> Option<Vec<u8>> {
        let mut msg = None;
        self.messages_with(|m| {
            msg = Some(m.to_vec());
            false
        });
        msg
    }

    /// Hand each complete buffered message to `each` by borrowing, in
    /// order, consuming it; `each` returns whether to go on to the next
    /// one. The buffer keeps its capacity.
    pub fn messages_with(&mut self, mut each: impl FnMut(&[u8]) -> bool) {
        let mut pos = 0;
        while let Some(prefix) = self.buf.get(pos..pos + 2) {
            let len = u16::from_be_bytes([prefix[0], prefix[1]]) as usize;
            let Some(msg) = self.buf.get(pos + 2..pos + 2 + len) else {
                break;
            };
            pos += 2 + len;
            if !each(msg) {
                break;
            }
        }
        self.buf.drain(..pos);
    }

    /// Bytes buffered but not yet forming a complete message.
    pub fn pending_len(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_prepends_length() {
        assert_eq!(frame(&[1, 2, 3]), vec![0, 3, 1, 2, 3]);
        assert_eq!(frame(&[]), vec![0, 0]);
    }

    #[test]
    fn single_message_roundtrip() {
        let mut r = LengthPrefixedReader::new();
        r.push(&frame(b"hello"));
        assert_eq!(r.next_message(), Some(b"hello".to_vec()));
        assert_eq!(r.next_message(), None);
        assert_eq!(r.pending_len(), 0);
    }

    #[test]
    fn split_across_arbitrary_chunks() {
        let wire = frame(b"abcdef");
        for split in 0..wire.len() {
            let mut r = LengthPrefixedReader::new();
            r.push(&wire[..split]);
            assert_eq!(r.next_message(), None, "split at {split}");
            r.push(&wire[split..]);
            assert_eq!(r.next_message(), Some(b"abcdef".to_vec()));
        }
    }

    #[test]
    fn coalesced_messages() {
        let mut wire = frame(b"one");
        wire.extend(frame(b"two"));
        wire.extend(frame(b""));
        let mut r = LengthPrefixedReader::new();
        r.push(&wire);
        assert_eq!(r.next_message(), Some(b"one".to_vec()));
        assert_eq!(r.next_message(), Some(b"two".to_vec()));
        assert_eq!(r.next_message(), Some(vec![]));
        assert_eq!(r.next_message(), None);
    }

    #[test]
    fn messages_are_lent_in_order_and_consumed() {
        let mut wire = frame(b"one");
        wire.extend(frame(b"two"));
        wire.extend(&frame(b"three")[..4]);
        let mut r = LengthPrefixedReader::new();
        r.push(&wire);
        let mut seen = Vec::new();
        r.messages_with(|m| {
            seen.push(m.to_vec());
            true
        });
        assert_eq!(seen, vec![b"one".to_vec(), b"two".to_vec()]);
        assert_eq!(r.pending_len(), 4);
        r.push(b"ree");
        assert_eq!(r.next_message(), Some(b"three".to_vec()));
        assert_eq!(r.pending_len(), 0);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_message_panics() {
        frame(&vec![0; 70_000]);
    }
}
