//! Resource records and typed RDATA.

use crate::name::Name;
use crate::types::{RecordClass, RecordType};
use crate::wire::{WireError, WireReader, WireWriter};

/// A service-binding parameter (RFC 9460), as carried by SVCB/HTTPS
/// records. The `Alpn` parameter is how resolvers advertise DoH3
/// support (paper §4 future work).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SvcParam {
    /// Key 1: list of ALPN protocol identifiers.
    Alpn(Vec<Vec<u8>>),
    /// Key 3: alternative port.
    Port(u16),
    /// Anything else, raw.
    Unknown(u16, Vec<u8>),
}

impl SvcParam {
    fn key(&self) -> u16 {
        match self {
            SvcParam::Alpn(_) => 1,
            SvcParam::Port(_) => 3,
            SvcParam::Unknown(k, _) => *k,
        }
    }

    fn value_len(&self) -> usize {
        match self {
            SvcParam::Alpn(protos) => protos.iter().map(|p| 1 + p.len()).sum(),
            SvcParam::Port(_) => 2,
            SvcParam::Unknown(_, v) => v.len(),
        }
    }

    fn encode_value(&self, w: &mut WireWriter) {
        match self {
            SvcParam::Alpn(protos) => {
                for p in protos {
                    w.put_u8(p.len() as u8);
                    w.put_slice(p);
                }
            }
            SvcParam::Port(p) => w.put_u16(*p),
            SvcParam::Unknown(_, v) => w.put_slice(v),
        }
    }

    fn decode(key: u16, value: &[u8]) -> Result<SvcParam, WireError> {
        match key {
            1 => {
                let mut protos = Vec::new();
                let mut r = WireReader::new(value);
                while !r.is_at_end() {
                    let len = r.get_u8()? as usize;
                    protos.push(r.get_slice(len)?.to_vec());
                }
                Ok(SvcParam::Alpn(protos))
            }
            3 => {
                if value.len() != 2 {
                    return Err(WireError::Invalid("svcb port length"));
                }
                Ok(SvcParam::Port(u16::from_be_bytes([value[0], value[1]])))
            }
            k => Ok(SvcParam::Unknown(k, value.to_vec())),
        }
    }
}

/// Typed record data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RData {
    /// IPv4 address.
    A([u8; 4]),
    /// IPv6 address.
    Aaaa([u8; 16]),
    Ns(Name),
    Cname(Name),
    Ptr(Name),
    Mx {
        preference: u16,
        exchange: Name,
    },
    /// One or more character-strings.
    Txt(Vec<Vec<u8>>),
    Soa {
        mname: Name,
        rname: Name,
        serial: u32,
        refresh: u32,
        retry: u32,
        expire: u32,
        minimum: u32,
    },
    /// SVCB (priority 0 = alias mode) / HTTPS share a format.
    Svcb {
        priority: u16,
        target: Name,
        params: Vec<SvcParam>,
    },
    /// OPT RDATA is handled by [`crate::edns`]; at this layer it is raw.
    Opt(Vec<u8>),
    /// Unrecognized types, kept verbatim.
    Unknown(Vec<u8>),
}

impl RData {
    /// The record type this RDATA corresponds to (Unknown/Opt need the
    /// caller to track the numeric type).
    pub fn natural_type(&self) -> Option<RecordType> {
        Some(match self {
            RData::A(_) => RecordType::A,
            RData::Aaaa(_) => RecordType::Aaaa,
            RData::Ns(_) => RecordType::Ns,
            RData::Cname(_) => RecordType::Cname,
            RData::Ptr(_) => RecordType::Ptr,
            RData::Mx { .. } => RecordType::Mx,
            RData::Txt(_) => RecordType::Txt,
            RData::Soa { .. } => RecordType::Soa,
            RData::Svcb { .. } => RecordType::Svcb,
            RData::Opt(_) | RData::Unknown(_) => return None,
        })
    }

    /// The RDATA's length with every name written uncompressed: an
    /// upper bound on what [`RData::encode`] writes.
    pub(crate) fn uncompressed_len(&self) -> usize {
        match self {
            RData::A(_) => 4,
            RData::Aaaa(_) => 16,
            RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => n.wire_len(),
            RData::Mx { exchange, .. } => 2 + exchange.wire_len(),
            RData::Txt(strings) => strings.iter().map(|s| 1 + s.len()).sum(),
            RData::Soa { mname, rname, .. } => mname.wire_len() + rname.wire_len() + 20,
            RData::Svcb { target, params, .. } => {
                2 + target.wire_len() + params.iter().map(|p| 4 + p.value_len()).sum::<usize>()
            }
            RData::Opt(raw) | RData::Unknown(raw) => raw.len(),
        }
    }

    /// Encode the RDATA body. Names inside RDATA that RFC 1035 §3.3
    /// allows to be compressed (NS, CNAME, PTR, MX, SOA) use the shared
    /// dictionary; newer types (SVCB) are written uncompressed per
    /// RFC 9460 §2.2.
    pub fn encode(&self, w: &mut WireWriter) {
        match self {
            RData::A(a) => w.put_slice(a),
            RData::Aaaa(a) => w.put_slice(a),
            RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => n.encode(w),
            RData::Mx {
                preference,
                exchange,
            } => {
                w.put_u16(*preference);
                exchange.encode(w);
            }
            RData::Txt(strings) => {
                for s in strings {
                    w.put_u8(s.len() as u8);
                    w.put_slice(s);
                }
            }
            RData::Soa {
                mname,
                rname,
                serial,
                refresh,
                retry,
                expire,
                minimum,
            } => {
                mname.encode(w);
                rname.encode(w);
                w.put_u32(*serial);
                w.put_u32(*refresh);
                w.put_u32(*retry);
                w.put_u32(*expire);
                w.put_u32(*minimum);
            }
            RData::Svcb {
                priority,
                target,
                params,
            } => {
                w.put_u16(*priority);
                target.encode_uncompressed(w);
                for p in params {
                    w.put_u16(p.key());
                    let len_at = w.len();
                    w.put_u16(0);
                    let before = w.len();
                    p.encode_value(w);
                    w.patch_u16(len_at, (w.len() - before) as u16);
                }
            }
            RData::Opt(raw) | RData::Unknown(raw) => w.put_slice(raw),
        }
    }

    /// Decode an RDATA body of `rdlen` bytes of type `rtype`.
    pub fn decode(
        rtype: RecordType,
        rdlen: usize,
        r: &mut WireReader<'_>,
    ) -> Result<RData, WireError> {
        let end = r.pos() + rdlen;
        if r.remaining() < rdlen {
            return Err(WireError::Truncated);
        }
        let rdata = match rtype {
            RecordType::A => {
                let s = r.get_slice(4)?;
                RData::A([s[0], s[1], s[2], s[3]])
            }
            RecordType::Aaaa => {
                let s = r.get_slice(16)?;
                let mut a = [0u8; 16];
                a.copy_from_slice(s);
                RData::Aaaa(a)
            }
            RecordType::Ns => RData::Ns(Name::decode(r)?),
            RecordType::Cname => RData::Cname(Name::decode(r)?),
            RecordType::Ptr => RData::Ptr(Name::decode(r)?),
            RecordType::Mx => {
                let preference = r.get_u16()?;
                RData::Mx {
                    preference,
                    exchange: Name::decode(r)?,
                }
            }
            RecordType::Txt => {
                let mut strings = Vec::new();
                while r.pos() < end {
                    let len = r.get_u8()? as usize;
                    if r.pos() + len > end {
                        return Err(WireError::Truncated);
                    }
                    strings.push(r.get_slice(len)?.to_vec());
                }
                RData::Txt(strings)
            }
            RecordType::Soa => RData::Soa {
                mname: Name::decode(r)?,
                rname: Name::decode(r)?,
                serial: r.get_u32()?,
                refresh: r.get_u32()?,
                retry: r.get_u32()?,
                expire: r.get_u32()?,
                minimum: r.get_u32()?,
            },
            RecordType::Svcb | RecordType::Https => {
                let priority = r.get_u16()?;
                let target = Name::decode(r)?;
                let mut params = Vec::new();
                while r.pos() < end {
                    let key = r.get_u16()?;
                    let len = r.get_u16()? as usize;
                    if r.pos() + len > end {
                        return Err(WireError::Truncated);
                    }
                    let value = r.get_slice(len)?;
                    params.push(SvcParam::decode(key, value)?);
                }
                RData::Svcb {
                    priority,
                    target,
                    params,
                }
            }
            RecordType::Opt => RData::Opt(r.get_slice(rdlen)?.to_vec()),
            _ => RData::Unknown(r.get_slice(rdlen)?.to_vec()),
        };
        if r.pos() != end {
            return Err(WireError::Invalid("rdata length mismatch"));
        }
        Ok(rdata)
    }
}

/// A resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceRecord {
    pub name: Name,
    pub rtype: RecordType,
    pub class: RecordClass,
    pub ttl: u32,
    pub rdata: RData,
}

impl ResourceRecord {
    /// Convenience constructor for an IN-class record whose type is
    /// implied by the RDATA.
    pub fn new(name: Name, ttl: u32, rdata: RData) -> Self {
        let rtype = rdata.natural_type().expect("use new_raw for OPT/unknown");
        ResourceRecord {
            name,
            rtype,
            class: RecordClass::In,
            ttl,
            rdata,
        }
    }

    /// The record's length with every name written uncompressed.
    pub(crate) fn uncompressed_len(&self) -> usize {
        self.name.wire_len() + 10 + self.rdata.uncompressed_len()
    }

    pub fn encode(&self, w: &mut WireWriter) {
        self.name.encode(w);
        w.put_u16(self.rtype.to_u16());
        w.put_u16(self.class.to_u16());
        w.put_u32(self.ttl);
        let len_at = w.len();
        w.put_u16(0);
        let before = w.len();
        self.rdata.encode(w);
        w.patch_u16(len_at, (w.len() - before) as u16);
    }

    pub fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let name = Name::decode(r)?;
        let rtype = RecordType::from_u16(r.get_u16()?);
        let class = RecordClass::from_u16(r.get_u16()?);
        let ttl = r.get_u32()?;
        let rdlen = r.get_u16()? as usize;
        let rdata = RData::decode(rtype, rdlen, r)?;
        Ok(ResourceRecord {
            name,
            rtype,
            class,
            ttl,
            rdata,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rr: &ResourceRecord) -> ResourceRecord {
        let mut w = WireWriter::new();
        rr.encode(&mut w);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        let out = ResourceRecord::decode(&mut r).unwrap();
        assert!(r.is_at_end());
        out
    }

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn a_record_roundtrip() {
        let rr = ResourceRecord::new(name("google.com"), 300, RData::A([142, 250, 1, 1]));
        assert_eq!(roundtrip(&rr), rr);
        assert_eq!(rr.rtype, RecordType::A);
    }

    #[test]
    fn aaaa_roundtrip() {
        let rr = ResourceRecord::new(name("google.com"), 60, RData::Aaaa([1; 16]));
        assert_eq!(roundtrip(&rr), rr);
    }

    #[test]
    fn cname_ns_ptr_roundtrip() {
        for rdata in [
            RData::Cname(name("www.example.org")),
            RData::Ns(name("ns1.example.org")),
            RData::Ptr(name("host.example.org")),
        ] {
            let rr = ResourceRecord::new(name("example.org"), 3600, rdata);
            assert_eq!(roundtrip(&rr), rr);
        }
    }

    #[test]
    fn mx_roundtrip() {
        let rr = ResourceRecord::new(
            name("example.org"),
            3600,
            RData::Mx {
                preference: 10,
                exchange: name("mail.example.org"),
            },
        );
        assert_eq!(roundtrip(&rr), rr);
    }

    #[test]
    fn txt_roundtrip_multiple_strings() {
        let rr = ResourceRecord::new(
            name("example.org"),
            60,
            RData::Txt(vec![b"v=spf1".to_vec(), b"include:x".to_vec(), vec![]]),
        );
        assert_eq!(roundtrip(&rr), rr);
    }

    #[test]
    fn soa_roundtrip() {
        let rr = ResourceRecord::new(
            name("example.org"),
            86400,
            RData::Soa {
                mname: name("ns1.example.org"),
                rname: name("hostmaster.example.org"),
                serial: 2022041200,
                refresh: 7200,
                retry: 3600,
                expire: 1209600,
                minimum: 300,
            },
        );
        assert_eq!(roundtrip(&rr), rr);
    }

    #[test]
    fn https_svcb_roundtrip_with_alpn() {
        // The SVCB/HTTPS shape Cloudflare uses to advertise DoH3 (§4).
        let rr = ResourceRecord {
            name: name("cloudflare-dns.com"),
            rtype: RecordType::Https,
            class: RecordClass::In,
            ttl: 300,
            rdata: RData::Svcb {
                priority: 1,
                target: Name::root(),
                params: vec![
                    SvcParam::Alpn(vec![b"h3".to_vec(), b"h2".to_vec()]),
                    SvcParam::Port(443),
                    SvcParam::Unknown(9, vec![1, 2, 3]),
                ],
            },
        };
        assert_eq!(roundtrip(&rr), rr);
    }

    #[test]
    fn rdata_names_are_compressed_against_owner() {
        let rr = ResourceRecord::new(
            name("example.org"),
            60,
            RData::Cname(name("www.example.org")),
        );
        let mut w = WireWriter::new();
        rr.encode(&mut w);
        let plain = name("example.org").wire_len() + 10 + name("www.example.org").wire_len();
        assert!(w.len() < plain, "compression should shrink the record");
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(ResourceRecord::decode(&mut r).unwrap(), rr);
    }

    #[test]
    fn unknown_type_raw_roundtrip() {
        let rr = ResourceRecord {
            name: name("example.org"),
            rtype: RecordType::Unknown(4242),
            class: RecordClass::In,
            ttl: 1,
            rdata: RData::Unknown(vec![9, 9, 9]),
        };
        assert_eq!(roundtrip(&rr), rr);
    }

    #[test]
    fn rdlen_mismatch_rejected() {
        // CNAME whose RDLENGTH claims more bytes than the name uses.
        let mut w = WireWriter::new();
        name("a.b").encode(&mut w);
        w.put_u16(RecordType::Cname.to_u16());
        w.put_u16(1);
        w.put_u32(0);
        w.put_u16(9); // wrong: actual encoded name is shorter
        name("c.d").encode(&mut w);
        w.put_u8(0xFF); // pad so the reader has the claimed bytes
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert!(ResourceRecord::decode(&mut r).is_err());
    }

    #[test]
    fn truncated_rdata_rejected() {
        let mut w = WireWriter::new();
        name("a.b").encode(&mut w);
        w.put_u16(RecordType::A.to_u16());
        w.put_u16(1);
        w.put_u32(0);
        w.put_u16(4);
        w.put_slice(&[1, 2]); // only half the address
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(ResourceRecord::decode(&mut r), Err(WireError::Truncated));
    }
}
