//! The slice of HTTP/2 (RFC 7540/9113) that DoH exercises: connection
//! preface, SETTINGS exchange, HPACK-compressed HEADERS and DATA frames
//! on client-initiated streams. Flow control runs with effectively
//! unlimited windows (DoH messages are far below the 64 KiB default);
//! server push, priorities and CONTINUATION are not modelled.
//!
//! The first request on a connection carries full literal headers and
//! populates the HPACK dynamic tables; subsequent requests compress to
//! a few bytes — which is exactly why the paper observes that re-using
//! a DoH connection amortizes slower than re-using a DoQ one (Table 1's
//! DoH query/response sizes embed the HTTP/2 framing and header
//! overhead).

mod frame;
mod hpack;

pub use frame::{H2Frame, H2FrameRef, H2FrameType};
pub use hpack::{HpackDecoder, HpackEncoder};

use crate::tls::messages::reassemble;
use frame::{
    write_data, write_frame, write_goaway, write_headers, write_settings, FLAG_ACK,
    FRAME_HEADER_LEN, SETTINGS_FRAME_LEN,
};

/// The 24-byte client connection preface.
pub const PREFACE: &[u8] = b"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n";

/// A decoded header list stored flat: the names and values back to back
/// in one string, with the end offset of each.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeaderList {
    text: String,
    /// (end of name, end of value) per field, in order.
    ends: Vec<(usize, usize)>,
}

impl HeaderList {
    pub(crate) fn push(&mut self, name: &str, value: &str) {
        if self.ends.is_empty() {
            // Size a fresh list for a typical message at once.
            self.text.reserve(256);
            self.ends.reserve(8);
        }
        self.text.push_str(name);
        let name_end = self.text.len();
        self.text.push_str(value);
        self.ends.push((name_end, self.text.len()));
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        let starts = std::iter::once(0).chain(self.ends.iter().map(|&(_, v)| v));
        starts.zip(&self.ends).map(|(start, &(name_end, end))| {
            (&self.text[start..name_end], &self.text[name_end..end])
        })
    }

    /// The first value of header `name` (case-insensitive).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    pub(crate) fn clear(&mut self) {
        self.text.clear();
        self.ends.clear();
    }
}

/// One HTTP message (request or response) assembled from frames,
/// borrowed from the connection that received it.
#[derive(Debug, Clone, Copy)]
pub struct H2MessageRef<'a> {
    pub stream_id: u32,
    pub headers: &'a HeaderList,
    pub body: &'a [u8],
}

impl<'a> H2MessageRef<'a> {
    pub fn header(&self, name: &str) -> Option<&'a str> {
        self.headers.get(name)
    }

    pub fn to_owned(self) -> H2Message {
        H2Message {
            stream_id: self.stream_id,
            headers: self
                .headers
                .iter()
                .map(|(n, v)| (n.to_string(), v.to_string()))
                .collect(),
            body: self.body.to_vec(),
        }
    }
}

/// One owned HTTP message: a convenience over [`H2MessageRef`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct H2Message {
    pub stream_id: u32,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl H2Message {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Client,
    Server,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Slot {
    /// Free for the next stream.
    #[default]
    Free,
    /// Receiving.
    Open,
    /// Complete; the number orders completions.
    Done(u64),
}

#[derive(Debug, Default)]
struct StreamAssembly {
    slot: Slot,
    stream_id: u32,
    headers: HeaderList,
    body: Vec<u8>,
}

/// An HTTP/2 connection endpoint (sans-I/O byte-stream interface).
/// Frames are written in place into the output buffer and parsed by
/// borrowing from the received bytes; a stream's header list and body
/// are reused by a later stream once its message is handed out.
#[derive(Debug)]
pub struct H2Connection {
    role: Role,
    out: Vec<u8>,
    /// Incomplete frame carried over between reads.
    in_buf: Vec<u8>,
    preface_seen: bool,
    settings_acked: bool,
    next_stream_id: u32,
    encoder: HpackEncoder,
    decoder: HpackDecoder,
    /// Open, complete and free stream assemblies.
    streams: Vec<StreamAssembly>,
    completed: u64,
    goaway: bool,
}

impl H2Connection {
    pub fn client() -> Self {
        let mut c = Self::new(Role::Client);
        c.out.reserve(PREFACE.len() + SETTINGS_FRAME_LEN);
        c.out.extend_from_slice(PREFACE);
        write_settings(&mut c.out, false);
        c
    }

    pub fn server() -> Self {
        let mut s = Self::new(Role::Server);
        write_settings(&mut s.out, false);
        s
    }

    fn new(role: Role) -> Self {
        H2Connection {
            role,
            out: Vec::new(),
            in_buf: Vec::new(),
            preface_seen: role == Role::Client, // clients don't expect one
            settings_acked: false,
            next_stream_id: 1,
            encoder: HpackEncoder::new(),
            decoder: HpackDecoder::new(),
            streams: Vec::new(),
            completed: 0,
            goaway: false,
        }
    }

    /// Send a request; returns the stream id. (Client only.)
    pub fn send_request(&mut self, headers: &[(&str, &str)], body: &[u8]) -> u32 {
        assert_eq!(self.role, Role::Client);
        let id = self.next_stream_id;
        self.next_stream_id += 2;
        self.send_message(id, headers, body);
        id
    }

    /// Send a response on `stream_id`. (Server only.)
    pub fn send_response(&mut self, stream_id: u32, headers: &[(&str, &str)], body: &[u8]) {
        assert_eq!(self.role, Role::Server);
        self.send_message(stream_id, headers, body);
    }

    fn send_message(&mut self, id: u32, headers: &[(&str, &str)], body: &[u8]) {
        // One reservation for the whole message: the header block is at
        // most its literal size plus a few prefix bytes per field.
        let block: usize = headers.iter().map(|(n, v)| n.len() + v.len() + 8).sum();
        let data_frames = body.len().div_ceil(16_384);
        self.out
            .reserve(FRAME_HEADER_LEN * (1 + data_frames) + block + body.len());
        let encoder = &mut self.encoder;
        write_headers(&mut self.out, id, body.is_empty(), |out| {
            encoder.encode_into(headers, out)
        });
        write_data(&mut self.out, id, body);
    }

    /// Feed received bytes; complete messages appear via
    /// [`H2Connection::messages_with`] or [`H2Connection::take_messages`].
    pub fn read_wire(&mut self, data: &[u8]) {
        let mut pending = std::mem::take(&mut self.in_buf);
        reassemble(&mut pending, data, |rest| {
            if !self.preface_seen {
                // Tolerant: any 24 bytes are accepted as the preface (we
                // never interoperate with non-doqlab peers).
                if rest.len() < PREFACE.len() {
                    return None;
                }
                self.preface_seen = true;
                return Some(PREFACE.len());
            }
            let (frame, used) = H2FrameRef::decode(rest)?;
            self.on_frame(frame);
            Some(used)
        });
        self.in_buf = pending;
    }

    /// The assembly for `stream_id` in `streams`, opened if new.
    fn stream(streams: &mut Vec<StreamAssembly>, stream_id: u32) -> &mut StreamAssembly {
        let i = match streams
            .iter()
            .position(|a| a.slot == Slot::Open && a.stream_id == stream_id)
        {
            Some(i) => i,
            None => match streams.iter().position(|a| a.slot == Slot::Free) {
                Some(i) => i,
                None => {
                    streams.push(StreamAssembly::default());
                    streams.len() - 1
                }
            },
        };
        let asm = &mut streams[i];
        asm.slot = Slot::Open;
        asm.stream_id = stream_id;
        asm
    }

    fn on_frame(&mut self, frame: H2FrameRef<'_>) {
        match frame.ftype {
            H2FrameType::Settings => {
                if !frame.flags_ack() {
                    write_settings(&mut self.out, true);
                } else {
                    self.settings_acked = true;
                }
            }
            H2FrameType::Headers => {
                let headers = &mut Self::stream(&mut self.streams, frame.stream_id).headers;
                headers.clear();
                if self
                    .decoder
                    .decode_with(frame.payload, |n, v| headers.push(n, v))
                    .is_none()
                {
                    headers.clear();
                }
                if frame.flags_end_stream() {
                    self.finish_stream(frame.stream_id);
                }
            }
            H2FrameType::Data => {
                Self::stream(&mut self.streams, frame.stream_id)
                    .body
                    .extend_from_slice(frame.payload);
                if frame.flags_end_stream() {
                    self.finish_stream(frame.stream_id);
                }
            }
            H2FrameType::GoAway => self.goaway = true,
            H2FrameType::Ping => {
                if !frame.flags_ack() {
                    write_frame(&mut self.out, H2FrameType::Ping, FLAG_ACK, 0, frame.payload);
                }
            }
            H2FrameType::WindowUpdate | H2FrameType::RstStream | H2FrameType::Other(_) => {}
        }
    }

    fn finish_stream(&mut self, stream_id: u32) {
        Self::stream(&mut self.streams, stream_id).slot = Slot::Done(self.completed);
        self.completed += 1;
    }

    /// Hand each completed request (server) or response (client) to
    /// `each`, in completion order; their buffers are then reused.
    pub fn messages_with(&mut self, mut each: impl FnMut(H2MessageRef<'_>)) {
        loop {
            let next = self
                .streams
                .iter_mut()
                .filter_map(|a| match a.slot {
                    Slot::Done(n) => Some((n, a)),
                    _ => None,
                })
                .min_by_key(|(n, _)| *n);
            let Some((_, asm)) = next else { return };
            each(H2MessageRef {
                stream_id: asm.stream_id,
                headers: &asm.headers,
                body: &asm.body,
            });
            asm.headers.clear();
            asm.body.clear();
            asm.slot = Slot::Free;
        }
    }

    /// Completed requests (server) or responses (client).
    pub fn take_messages(&mut self) -> Vec<H2Message> {
        let mut out = Vec::new();
        self.messages_with(|m| out.push(m.to_owned()));
        out
    }

    /// Bytes to hand to the transport.
    pub fn take_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.out)
    }

    /// Hand the bytes to transmit to `write` (e.g. a TLS engine's
    /// `write_app`), then drop them; the buffer keeps its capacity.
    pub fn take_output_with(&mut self, write: impl FnOnce(&[u8])) {
        if !self.out.is_empty() {
            write(&self.out);
            self.out.clear();
        }
    }

    pub fn received_goaway(&self) -> bool {
        self.goaway
    }

    /// Send GOAWAY (graceful shutdown).
    pub fn go_away(&mut self) {
        write_goaway(&mut self.out);
    }
}

/// A `usize` formatted in decimal on the stack, for `content-length`.
#[derive(Debug, Clone, Copy)]
pub struct DecimalStr {
    buf: [u8; 20],
    start: usize,
}

impl DecimalStr {
    pub fn new(mut n: usize) -> Self {
        let mut buf = [0u8; 20];
        let mut start = buf.len();
        loop {
            start -= 1;
            buf[start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        DecimalStr { buf, start }
    }

    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[self.start..]).expect("ASCII digits")
    }
}

/// The standard DoH request headers (RFC 8484 §4.1, POST style);
/// `content_length` is the body length in decimal ([`DecimalStr`]).
pub fn doh_request_headers<'a>(
    authority: &'a str,
    content_length: &'a str,
) -> [(&'a str, &'a str); 7] {
    [
        (":method", "POST"),
        (":scheme", "https"),
        (":authority", authority),
        (":path", "/dns-query"),
        ("accept", "application/dns-message"),
        ("content-type", "application/dns-message"),
        ("content-length", content_length),
    ]
}

/// The standard DoH response headers.
pub fn doh_response_headers(content_length: &str) -> [(&str, &str); 4] {
    [
        (":status", "200"),
        ("content-type", "application/dns-message"),
        ("content-length", content_length),
        ("cache-control", "max-age=300"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shuttle(c: &mut H2Connection, s: &mut H2Connection) {
        for _ in 0..10 {
            let co = c.take_output();
            let so = s.take_output();
            if co.is_empty() && so.is_empty() {
                break;
            }
            s.read_wire(&co);
            c.read_wire(&so);
        }
    }

    #[test]
    fn request_response_roundtrip() {
        let mut c = H2Connection::client();
        let mut s = H2Connection::server();
        let id = c.send_request(&doh_request_headers("dns.example", "5"), b"query");
        assert_eq!(id, 1);
        shuttle(&mut c, &mut s);
        let reqs = s.take_messages();
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].stream_id, 1);
        assert_eq!(reqs[0].body, b"query");
        assert_eq!(reqs[0].header(":method"), Some("POST"));
        assert_eq!(reqs[0].header(":path"), Some("/dns-query"));
        assert_eq!(
            reqs[0].header("content-type"),
            Some("application/dns-message")
        );

        s.send_response(1, &doh_response_headers("6"), b"answer");
        shuttle(&mut c, &mut s);
        let resps = c.take_messages();
        assert_eq!(resps.len(), 1);
        assert_eq!(resps[0].body, b"answer");
        assert_eq!(resps[0].header(":status"), Some("200"));
    }

    #[test]
    fn multiple_requests_use_odd_stream_ids() {
        let mut c = H2Connection::client();
        let mut s = H2Connection::server();
        let h = doh_request_headers("dns.example", "1");
        let a = c.send_request(&h, b"a");
        let b = c.send_request(&h, b"b");
        assert_eq!((a, b), (1, 3));
        shuttle(&mut c, &mut s);
        let reqs = s.take_messages();
        assert_eq!(reqs.len(), 2);
    }

    #[test]
    fn second_request_is_smaller_thanks_to_hpack() {
        let mut c = H2Connection::client();
        let h = doh_request_headers("dns.example", "40");
        c.send_request(&h, &[0; 40]);
        let first = c.take_output().len();
        c.send_request(&h, &[0; 40]);
        let second = c.take_output().len();
        // First request includes preface+settings and literal headers;
        // the repeat compresses to table references.
        assert!(second < first / 2, "first {first}, second {second}");
        assert!(second < 80, "second request should be tiny, was {second}");
    }

    #[test]
    fn empty_body_request_ends_stream_on_headers() {
        let mut c = H2Connection::client();
        let mut s = H2Connection::server();
        c.send_request(&[(":method", "GET")], b"");
        shuttle(&mut c, &mut s);
        let reqs = s.take_messages();
        assert_eq!(reqs.len(), 1);
        assert!(reqs[0].body.is_empty());
    }

    #[test]
    fn large_body_spans_data_frames() {
        let mut c = H2Connection::client();
        let mut s = H2Connection::server();
        let body = vec![7u8; 100_000];
        let len = DecimalStr::new(body.len());
        c.send_request(&doh_request_headers("dns.example", len.as_str()), &body);
        shuttle(&mut c, &mut s);
        let reqs = s.take_messages();
        assert_eq!(reqs[0].body, body);
    }

    #[test]
    fn settings_are_acked() {
        let mut c = H2Connection::client();
        let mut s = H2Connection::server();
        shuttle(&mut c, &mut s);
        assert!(c.settings_acked);
        assert!(s.settings_acked);
    }

    #[test]
    fn byte_at_a_time_delivery() {
        let mut c = H2Connection::client();
        let mut s = H2Connection::server();
        c.send_request(&doh_request_headers("dns.example", "3"), b"abc");
        for b in c.take_output() {
            s.read_wire(&[b]);
        }
        let reqs = s.take_messages();
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].body, b"abc");
    }

    #[test]
    fn decimal_str_formats_like_to_string() {
        for n in [0, 7, 10, 47, 999, 1_000_000, usize::MAX] {
            assert_eq!(DecimalStr::new(n).as_str(), n.to_string());
        }
    }

    #[test]
    fn messages_are_lent_then_recycled() {
        let mut c = H2Connection::client();
        let mut s = H2Connection::server();
        for round in 0..3 {
            let body = vec![round as u8; 10 + round];
            c.send_request(&doh_request_headers("dns.example", "x"), &body);
            shuttle(&mut c, &mut s);
            let mut seen = Vec::new();
            s.messages_with(|m| {
                assert_eq!(m.header(":path"), Some("/dns-query"));
                assert_eq!(m.headers.len(), 7);
                seen.push((m.stream_id, m.body.to_vec()));
            });
            assert_eq!(seen, vec![(1 + 2 * round as u32, body)]);
            assert_eq!(s.streams.len(), 1);
        }
    }

    #[test]
    fn goaway_is_visible() {
        let mut c = H2Connection::client();
        let mut s = H2Connection::server();
        shuttle(&mut c, &mut s);
        s.go_away();
        shuttle(&mut c, &mut s);
        assert!(c.received_goaway());
    }
}
