//! TCP segment wire format (RFC 793 §3.1) with the option kinds a
//! modern stack emits, so that on-wire sizes match what the paper's
//! Table 1 measures (a SYN with MSS + SACK-permitted + timestamps +
//! window scale is 40 bytes; a data/ACK segment with timestamps is 32).

/// TCP header flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    pub syn: bool,
    pub ack: bool,
    pub fin: bool,
    pub rst: bool,
    pub psh: bool,
}

impl TcpFlags {
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        ack: false,
        fin: false,
        rst: false,
        psh: false,
    };
    pub const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
    };
    pub const ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
    };
    pub const FIN_ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: true,
        rst: false,
        psh: false,
    };
    pub const RST: TcpFlags = TcpFlags {
        syn: false,
        ack: false,
        fin: false,
        rst: true,
        psh: false,
    };

    fn to_bits(self) -> u8 {
        (self.fin as u8)
            | (self.syn as u8) << 1
            | (self.rst as u8) << 2
            | (self.psh as u8) << 3
            | (self.ack as u8) << 4
    }

    fn from_bits(b: u8) -> Self {
        TcpFlags {
            fin: b & 0x01 != 0,
            syn: b & 0x02 != 0,
            rst: b & 0x04 != 0,
            psh: b & 0x08 != 0,
            ack: b & 0x10 != 0,
        }
    }
}

/// TCP options. Only the kinds that affect size or behaviour in this
/// workspace are given structure; SACK blocks are not modelled (loss
/// recovery uses duplicate-ACK counting). The owned segment keeps them
/// as a list; on the wire each kind appears at most once, in the order
/// of [`TcpOptions`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpOption {
    /// Kind 2, 4 bytes.
    Mss(u16),
    /// Kind 4, 2 bytes ("SACK permitted").
    SackPermitted,
    /// Kind 8, 10 bytes.
    Timestamps { value: u32, echo: u32 },
    /// Kind 3, 3 bytes.
    WindowScale(u8),
    /// Kind 34 (TCP Fast Open, RFC 7413). An empty cookie is a request.
    FastOpenCookie(Vec<u8>),
}

/// The options of one segment, parsed without allocating. The writer
/// emits them in field order, then NOP-pads to a 4-byte boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpOptions<'a> {
    pub mss: Option<u16>,
    pub sack_permitted: bool,
    /// (value, echo).
    pub timestamps: Option<(u32, u32)>,
    pub window_scale: Option<u8>,
    /// TCP Fast Open cookie; empty is a cookie request.
    pub fast_open: Option<&'a [u8]>,
}

impl<'a> TcpOptions<'a> {
    /// Encoded length before NOP padding.
    fn unpadded_len(&self) -> usize {
        self.mss.map_or(0, |_| 4)
            + if self.sack_permitted { 2 } else { 0 }
            + self.timestamps.map_or(0, |_| 10)
            + self.window_scale.map_or(0, |_| 3)
            + self.fast_open.map_or(0, |c| 2 + c.len())
    }

    /// Encoded length including NOP padding to a 4-byte boundary.
    pub fn wire_len(&self) -> usize {
        (self.unpadded_len() + 3) & !3
    }

    fn write(&self, out: &mut Vec<u8>) {
        if let Some(v) = self.mss {
            out.extend_from_slice(&[2, 4]);
            out.extend_from_slice(&v.to_be_bytes());
        }
        if self.sack_permitted {
            out.extend_from_slice(&[4, 2]);
        }
        if let Some((value, echo)) = self.timestamps {
            out.extend_from_slice(&[8, 10]);
            out.extend_from_slice(&value.to_be_bytes());
            out.extend_from_slice(&echo.to_be_bytes());
        }
        if let Some(s) = self.window_scale {
            out.extend_from_slice(&[3, 3, s]);
        }
        if let Some(c) = self.fast_open {
            out.push(34);
            out.push(2 + c.len() as u8);
            out.extend_from_slice(c);
        }
        let pad = self.wire_len() - self.unpadded_len();
        out.extend_from_slice(&[1, 1, 1][..pad]); // NOP padding
    }

    /// Parse the option area of a header; unknown kinds are skipped.
    fn parse(mut buf: &'a [u8]) -> Option<TcpOptions<'a>> {
        let mut opts = TcpOptions::default();
        while let Some((&kind, rest)) = buf.split_first() {
            match kind {
                0 => break, // end of options
                1 => buf = rest,
                _ => {
                    let len = *rest.first()? as usize;
                    if len < 2 || len > buf.len() {
                        return None;
                    }
                    let body = &buf[2..len];
                    // A kind repeated on the wire keeps its first value.
                    match (kind, body.len()) {
                        (2, 2) => {
                            opts.mss
                                .get_or_insert(u16::from_be_bytes([body[0], body[1]]));
                        }
                        (4, 0) => opts.sack_permitted = true,
                        (8, 8) => {
                            opts.timestamps.get_or_insert((
                                u32::from_be_bytes([body[0], body[1], body[2], body[3]]),
                                u32::from_be_bytes([body[4], body[5], body[6], body[7]]),
                            ));
                        }
                        (3, 1) => {
                            opts.window_scale.get_or_insert(body[0]);
                        }
                        (34, _) => {
                            opts.fast_open.get_or_insert(body);
                        }
                        _ => {}
                    }
                    buf = &buf[len..];
                }
            }
        }
        Some(opts)
    }
}

/// A TCP segment borrowed from the wire (or built over a send buffer):
/// header fields, options and a payload slice. This is the one decoder
/// and, through [`SegmentRef::write_header`], the one encoder of the
/// segment format; [`TcpSegment`] converts through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentRef<'a> {
    pub src_port: u16,
    pub dst_port: u16,
    pub seq: u32,
    pub ack: u32,
    pub flags: TcpFlags,
    pub window: u16,
    pub options: TcpOptions<'a>,
    pub payload: &'a [u8],
}

/// Base TCP header length.
pub const TCP_HEADER_LEN: usize = 20;

impl<'a> SegmentRef<'a> {
    /// Sequence space consumed: payload bytes, plus one for SYN and one
    /// for FIN.
    pub fn seq_len(&self) -> u32 {
        self.payload.len() as u32 + self.flags.syn as u32 + self.flags.fin as u32
    }

    /// Header and options length.
    pub fn header_len(&self) -> usize {
        TCP_HEADER_LEN + self.options.wire_len()
    }

    /// Full encoded length.
    pub fn wire_len(&self) -> usize {
        self.header_len() + self.payload.len()
    }

    /// Append the header and options; the payload is the caller's to
    /// append (it may live in more than one slice).
    pub fn write_header(&self, out: &mut Vec<u8>) {
        let data_offset_words = self.header_len() / 4;
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.ack.to_be_bytes());
        out.push((data_offset_words as u8) << 4);
        out.push(self.flags.to_bits());
        out.extend_from_slice(&self.window.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum (not modelled)
        out.extend_from_slice(&[0, 0]); // urgent pointer
        self.options.write(out);
    }

    /// Append the whole segment to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.wire_len());
        self.write_header(out);
        out.extend_from_slice(self.payload);
    }

    /// Parse a segment; `None` if the header is short or inconsistent.
    pub fn decode(buf: &'a [u8]) -> Option<SegmentRef<'a>> {
        if buf.len() < TCP_HEADER_LEN {
            return None;
        }
        let header_len = ((buf[12] >> 4) as usize) * 4;
        if header_len < TCP_HEADER_LEN || header_len > buf.len() {
            return None;
        }
        Some(SegmentRef {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            seq: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
            ack: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
            flags: TcpFlags::from_bits(buf[13]),
            window: u16::from_be_bytes([buf[14], buf[15]]),
            options: TcpOptions::parse(&buf[TCP_HEADER_LEN..header_len])?,
            payload: &buf[header_len..],
        })
    }

    /// An owned copy, options listed in wire order.
    pub fn into_owned(self) -> TcpSegment {
        let o = self.options;
        let options = [
            o.mss.map(TcpOption::Mss),
            o.sack_permitted.then_some(TcpOption::SackPermitted),
            o.timestamps
                .map(|(value, echo)| TcpOption::Timestamps { value, echo }),
            o.window_scale.map(TcpOption::WindowScale),
            o.fast_open.map(|c| TcpOption::FastOpenCookie(c.to_vec())),
        ];
        TcpSegment {
            src_port: self.src_port,
            dst_port: self.dst_port,
            seq: self.seq,
            ack: self.ack,
            flags: self.flags,
            window: self.window,
            options: options.into_iter().flatten().collect(),
            payload: self.payload.to_vec(),
        }
    }
}

/// An owned TCP segment: a convenience over [`SegmentRef`] for tests and
/// tools. `encode` produces the full header + options + payload so that
/// `Packet::ip_payload_len` is exactly the segment size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment {
    pub src_port: u16,
    pub dst_port: u16,
    pub seq: u32,
    pub ack: u32,
    pub flags: TcpFlags,
    pub window: u16,
    pub options: Vec<TcpOption>,
    pub payload: Vec<u8>,
}

impl TcpSegment {
    /// Sequence space consumed: payload bytes, plus one for SYN and one
    /// for FIN.
    pub fn seq_len(&self) -> u32 {
        self.view().seq_len()
    }

    /// The borrowed view. A kind listed twice keeps its first value,
    /// as on the wire.
    pub fn view(&self) -> SegmentRef<'_> {
        let mut o = TcpOptions::default();
        for opt in &self.options {
            match opt {
                TcpOption::Mss(v) => o.mss = o.mss.or(Some(*v)),
                TcpOption::SackPermitted => o.sack_permitted = true,
                TcpOption::Timestamps { value, echo } => {
                    o.timestamps = o.timestamps.or(Some((*value, *echo)))
                }
                TcpOption::WindowScale(s) => o.window_scale = o.window_scale.or(Some(*s)),
                TcpOption::FastOpenCookie(c) => o.fast_open = o.fast_open.or(Some(c)),
            }
        }
        SegmentRef {
            src_port: self.src_port,
            dst_port: self.dst_port,
            seq: self.seq,
            ack: self.ack,
            flags: self.flags,
            window: self.window,
            options: o,
            payload: &self.payload,
        }
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.view().encode_into(&mut out);
        out
    }

    pub fn decode(buf: &[u8]) -> Option<TcpSegment> {
        SegmentRef::decode(buf).map(SegmentRef::into_owned)
    }
}

impl<'a> From<&'a TcpSegment> for SegmentRef<'a> {
    fn from(seg: &'a TcpSegment) -> Self {
        seg.view()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syn() -> TcpSegment {
        TcpSegment {
            src_port: 40000,
            dst_port: 853,
            seq: 1000,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 65535,
            options: vec![
                TcpOption::Mss(1460),
                TcpOption::SackPermitted,
                TcpOption::Timestamps { value: 1, echo: 0 },
                TcpOption::WindowScale(7),
            ],
            payload: vec![],
        }
    }

    #[test]
    fn syn_is_40_bytes() {
        // 20 header + 4+2+10+3=19 options padded to 20.
        assert_eq!(syn().encode().len(), 40);
    }

    #[test]
    fn data_segment_with_timestamps_is_32_plus_payload() {
        let seg = TcpSegment {
            src_port: 1,
            dst_port: 2,
            seq: 5,
            ack: 6,
            flags: TcpFlags::ACK,
            window: 65535,
            options: vec![TcpOption::Timestamps { value: 9, echo: 8 }],
            payload: vec![0; 100],
        };
        assert_eq!(seg.encode().len(), 132);
    }

    #[test]
    fn roundtrip() {
        let seg = syn();
        let decoded = TcpSegment::decode(&seg.encode()).unwrap();
        assert_eq!(decoded, seg);
    }

    #[test]
    fn roundtrip_with_payload_and_fin() {
        let seg = TcpSegment {
            src_port: 9,
            dst_port: 10,
            seq: 0xFFFF_FFF0,
            ack: 77,
            flags: TcpFlags {
                fin: true,
                ack: true,
                psh: true,
                ..TcpFlags::default()
            },
            window: 1024,
            options: vec![TcpOption::Timestamps { value: 3, echo: 4 }],
            payload: b"data".to_vec(),
        };
        assert_eq!(TcpSegment::decode(&seg.encode()).unwrap(), seg);
    }

    #[test]
    fn tfo_cookie_roundtrip() {
        let seg = TcpSegment {
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 65535,
            options: vec![TcpOption::FastOpenCookie(vec![1, 2, 3, 4, 5, 6, 7, 8])],
            payload: b"early".to_vec(),
        };
        let back = TcpSegment::decode(&seg.encode()).unwrap();
        assert_eq!(back.options, seg.options);
        assert_eq!(back.payload, seg.payload);
    }

    #[test]
    fn seq_len_counts_syn_and_fin() {
        let mut seg = syn();
        assert_eq!(seg.seq_len(), 1);
        seg.flags = TcpFlags::ACK;
        seg.payload = vec![0; 10];
        assert_eq!(seg.seq_len(), 10);
        seg.flags = TcpFlags::FIN_ACK;
        assert_eq!(seg.seq_len(), 11);
    }

    #[test]
    fn decode_rejects_short_or_corrupt() {
        assert!(TcpSegment::decode(&[0; 10]).is_none());
        let mut buf = syn().encode();
        buf[12] = 0x20; // header length 8 < 20
        assert!(TcpSegment::decode(&buf).is_none());
        let mut buf2 = syn().encode();
        buf2[12] = 0xF0; // header length 60 > buffer
        assert!(TcpSegment::decode(&buf2).is_none());
    }

    #[test]
    fn decode_skips_unknown_options() {
        // kind 99, len 4.
        let mut raw = TcpSegment {
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            flags: TcpFlags::ACK,
            window: 100,
            options: vec![],
            payload: vec![],
        }
        .encode();
        raw[12] = 0x60; // 24-byte header
        raw.extend_from_slice(&[99, 4, 0, 0]);
        let seg = TcpSegment::decode(&raw).unwrap();
        assert!(seg.options.is_empty());
        assert!(seg.payload.is_empty());
    }
}
