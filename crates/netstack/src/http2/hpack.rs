//! HPACK header compression (RFC 7541) without Huffman coding: integer
//! prefix encoding, the full 61-entry static table, and a dynamic table
//! with incremental indexing. Huffman would shave ~25% off literal
//! strings; we account headers at their literal size, which keeps the
//! DoH byte numbers honest to within a few percent while keeping the
//! codec transparent.

/// The RFC 7541 Appendix A static table.
pub const STATIC_TABLE: &[(&str, &str)] = &[
    (":authority", ""),
    (":method", "GET"),
    (":method", "POST"),
    (":path", "/"),
    (":path", "/index.html"),
    (":scheme", "http"),
    (":scheme", "https"),
    (":status", "200"),
    (":status", "204"),
    (":status", "206"),
    (":status", "304"),
    (":status", "400"),
    (":status", "404"),
    (":status", "500"),
    ("accept-charset", ""),
    ("accept-encoding", "gzip, deflate"),
    ("accept-language", ""),
    ("accept-ranges", ""),
    ("accept", ""),
    ("access-control-allow-origin", ""),
    ("age", ""),
    ("allow", ""),
    ("authorization", ""),
    ("cache-control", ""),
    ("content-disposition", ""),
    ("content-encoding", ""),
    ("content-language", ""),
    ("content-length", ""),
    ("content-location", ""),
    ("content-range", ""),
    ("content-type", ""),
    ("cookie", ""),
    ("date", ""),
    ("etag", ""),
    ("expect", ""),
    ("expires", ""),
    ("from", ""),
    ("host", ""),
    ("if-match", ""),
    ("if-modified-since", ""),
    ("if-none-match", ""),
    ("if-range", ""),
    ("if-unmodified-since", ""),
    ("last-modified", ""),
    ("link", ""),
    ("location", ""),
    ("max-forwards", ""),
    ("proxy-authenticate", ""),
    ("proxy-authorization", ""),
    ("range", ""),
    ("referer", ""),
    ("refresh", ""),
    ("retry-after", ""),
    ("server", ""),
    ("set-cookie", ""),
    ("strict-transport-security", ""),
    ("transfer-encoding", ""),
    ("user-agent", ""),
    ("vary", ""),
    ("via", ""),
    ("www-authenticate", ""),
];

/// Encode an integer with an `n`-bit prefix into `out`, OR-ing the
/// prefix bits of the first byte with `first`.
fn encode_int(out: &mut Vec<u8>, first: u8, n: u8, mut value: u64) {
    let max = (1u64 << n) - 1;
    if value < max {
        out.push(first | value as u8);
        return;
    }
    out.push(first | max as u8);
    value -= max;
    while value >= 128 {
        out.push((value % 128) as u8 | 0x80);
        value /= 128;
    }
    out.push(value as u8);
}

fn decode_int(buf: &[u8], pos: &mut usize, n: u8) -> Option<u64> {
    let max = (1u64 << n) - 1;
    let first = (*buf.get(*pos)? & (max as u8)) as u64;
    *pos += 1;
    if first < max {
        return Some(first);
    }
    let mut value = max;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos)?;
        *pos += 1;
        value += ((b & 0x7F) as u64) << shift;
        shift += 7;
        if b & 0x80 == 0 {
            return Some(value);
        }
        if shift > 56 {
            return None;
        }
    }
}

fn encode_string(out: &mut Vec<u8>, s: &str) {
    encode_int(out, 0, 7, s.len() as u64); // H bit = 0 (no Huffman)
    out.extend_from_slice(s.as_bytes());
}

fn decode_string<'a>(buf: &'a [u8], pos: &mut usize) -> Option<&'a str> {
    let huffman = buf.get(*pos)? & 0x80 != 0;
    let len = usize::try_from(decode_int(buf, pos, 7)?).ok()?;
    if huffman {
        return None; // we never emit Huffman
    }
    let bytes = buf.get(*pos..pos.checked_add(len)?)?;
    *pos += len;
    std::str::from_utf8(bytes).ok()
}

/// Per-entry overhead in the table size (RFC 7541 §4.1).
const ENTRY_OVERHEAD: usize = 32;

/// The header table size we advertise in SETTINGS
/// (SETTINGS_HEADER_TABLE_SIZE); a peer may not ask the decoder for a
/// larger dynamic table (RFC 7541 §6.3).
pub(crate) const MAX_TABLE_SIZE: usize = 4096;

/// Where a field name comes from: a string that outlives the table
/// update (static table or header block), or a dynamic-table entry.
#[derive(Clone, Copy)]
enum NameRef<'a> {
    Str(&'a str),
    Dynamic(usize),
}

/// The dynamic table, stored flat: every name and value back to back in
/// one string, and per entry its offset and lengths. Evicted entries
/// leave their bytes behind until the dead prefix is compacted away, so
/// a new entry may reuse the name of an entry it evicts (RFC 7541
/// §4.4) and steady-state inserts do not allocate.
#[derive(Debug)]
struct DynamicTable {
    text: String,
    /// Leading bytes of `text` that belong to evicted entries.
    dead: usize,
    /// (offset into `text`, name length, value length), newest first.
    entries: std::collections::VecDeque<(usize, usize, usize)>,
    size: usize,
    max_size: usize,
}

impl DynamicTable {
    fn new() -> Self {
        DynamicTable {
            text: String::new(),
            dead: 0,
            entries: std::collections::VecDeque::new(),
            size: 0,
            max_size: MAX_TABLE_SIZE,
        }
    }

    /// Entry `i`, 0 being the newest.
    fn entry(&self, i: usize) -> Option<(&str, &str)> {
        let &(at, name_len, value_len) = self.entries.get(i)?;
        let name = &self.text[at..at + name_len];
        Some((name, &self.text[at + name_len..at + name_len + value_len]))
    }

    fn entries(&self) -> impl Iterator<Item = (&str, &str)> {
        (0..self.entries.len()).filter_map(|i| self.entry(i))
    }

    /// Entry at absolute HPACK index `index`.
    fn get(&self, index: usize) -> Option<(&str, &str)> {
        self.entry(index.checked_sub(STATIC_TABLE.len() + 1)?)
    }

    fn name<'a>(&'a self, name: NameRef<'a>) -> Option<&'a str> {
        match name {
            NameRef::Str(s) => Some(s),
            NameRef::Dynamic(index) => Some(self.get(index)?.0),
        }
    }

    fn insert(&mut self, name: NameRef<'_>, value: &str) {
        if self.entries.is_empty() {
            // Size a fresh table for a typical message's fields at once.
            self.text.reserve(256);
            self.entries.reserve(8);
        }
        let at = self.text.len();
        match name {
            NameRef::Str(s) => self.text.push_str(s),
            NameRef::Dynamic(index) => {
                let Some(&(from, len, _)) = self.entries.get(index - STATIC_TABLE.len() - 1) else {
                    return;
                };
                self.text.extend_from_within(from..from + len);
            }
        }
        let name_len = self.text.len() - at;
        self.text.push_str(value);
        self.size += name_len + value.len() + ENTRY_OVERHEAD;
        self.entries.push_front((at, name_len, value.len()));
        self.evict();
    }

    /// Drop the oldest entries until the table fits `max_size`, and
    /// compact the text once the evicted bytes outweigh the live ones.
    fn evict(&mut self) {
        while self.size > self.max_size {
            let Some((at, name_len, value_len)) = self.entries.pop_back() else {
                break;
            };
            self.size -= name_len + value_len + ENTRY_OVERHEAD;
            self.dead = at + name_len + value_len;
        }
        if self.entries.is_empty() {
            self.text.clear();
            self.dead = 0;
        } else if self.dead > self.text.len() / 2 {
            self.text.drain(..self.dead);
            for entry in &mut self.entries {
                entry.0 -= self.dead;
            }
            self.dead = 0;
        }
    }

    /// Absolute HPACK index of an exact (name, value) match.
    fn find(&self, name: &str, value: &str) -> Option<usize> {
        self.entries()
            .position(|(n, v)| n == name && v == value)
            .map(|i| STATIC_TABLE.len() + 1 + i)
    }

    fn find_name(&self, name: &str) -> Option<usize> {
        self.entries()
            .position(|(n, _)| n == name)
            .map(|i| STATIC_TABLE.len() + 1 + i)
    }
}

fn static_find(name: &str, value: &str) -> Option<usize> {
    STATIC_TABLE
        .iter()
        .position(|(n, v)| *n == name && *v == value)
        .map(|i| i + 1)
}

fn static_find_name(name: &str) -> Option<usize> {
    STATIC_TABLE
        .iter()
        .position(|(n, _)| *n == name)
        .map(|i| i + 1)
}

/// The field at absolute HPACK index `index`; static hits borrow the
/// static table.
fn table_get(dynamic: &DynamicTable, index: usize) -> Option<(&str, &str)> {
    match index {
        0 => None,
        i if i <= STATIC_TABLE.len() => Some(STATIC_TABLE[i - 1]),
        i => dynamic.get(i),
    }
}

/// The name at absolute HPACK index `index`, as a reference that stays
/// valid across an insert.
fn name_ref(dynamic: &DynamicTable, index: usize) -> Option<NameRef<'static>> {
    match index {
        0 => None,
        i if i <= STATIC_TABLE.len() => Some(NameRef::Str(STATIC_TABLE[i - 1].0)),
        i => dynamic.get(i).map(|_| NameRef::Dynamic(i)),
    }
}

/// Header-block encoder with a dynamic table.
#[derive(Debug)]
pub struct HpackEncoder {
    dynamic: DynamicTable,
}

impl Default for HpackEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl HpackEncoder {
    pub fn new() -> Self {
        HpackEncoder {
            dynamic: DynamicTable::new(),
        }
    }

    pub fn encode(&mut self, headers: &[(&str, &str)]) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(headers, &mut out);
        out
    }

    /// Append the header block for `headers` to `out`.
    pub fn encode_into(&mut self, headers: &[(&str, &str)], out: &mut Vec<u8>) {
        for &(name, value) in headers {
            // Fully indexed?
            if let Some(idx) = static_find(name, value).or_else(|| self.dynamic.find(name, value)) {
                encode_int(out, 0x80, 7, idx as u64);
                continue;
            }
            // Literal with incremental indexing; name indexed if known.
            let name_idx = static_find_name(name).or_else(|| self.dynamic.find_name(name));
            match name_idx {
                Some(idx) => encode_int(out, 0x40, 6, idx as u64),
                None => {
                    encode_int(out, 0x40, 6, 0);
                    encode_string(out, name);
                }
            }
            encode_string(out, value);
            self.dynamic.insert(NameRef::Str(name), value);
        }
    }
}

/// Header-block decoder with a dynamic table.
#[derive(Debug)]
pub struct HpackDecoder {
    dynamic: DynamicTable,
}

impl Default for HpackDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl HpackDecoder {
    pub fn new() -> Self {
        HpackDecoder {
            dynamic: DynamicTable::new(),
        }
    }

    pub fn decode(&mut self, block: &[u8]) -> Option<Vec<(String, String)>> {
        let mut headers = Vec::new();
        self.decode_with(block, |n, v| headers.push((n.to_string(), v.to_string())))?;
        Some(headers)
    }

    /// Decode `block`, handing each field to `field` as it is decoded;
    /// `None` on a malformed block (fields before the fault were
    /// already handed out). Names and values borrow the static table,
    /// the dynamic table or the block.
    pub fn decode_with(&mut self, block: &[u8], mut field: impl FnMut(&str, &str)) -> Option<()> {
        let mut pos = 0;
        while let Some(&b) = block.get(pos) {
            if b & 0x80 != 0 {
                // Indexed header field.
                let idx = usize::try_from(decode_int(block, &mut pos, 7)?).ok()?;
                let (name, value) = table_get(&self.dynamic, idx)?;
                field(name, value);
            } else if b & 0x20 != 0 && b & 0x40 == 0 {
                // Dynamic table size update: evict down to the new size
                // now; more than we advertised is a decoding error.
                let size = usize::try_from(decode_int(block, &mut pos, 5)?).ok()?;
                if size > MAX_TABLE_SIZE {
                    return None;
                }
                self.dynamic.max_size = size;
                self.dynamic.evict();
            } else {
                // Literal: with incremental indexing (6-bit prefix), or
                // without indexing / never indexed (4-bit prefix).
                let indexing = b & 0x40 != 0;
                let prefix = if indexing { 6 } else { 4 };
                let idx = usize::try_from(decode_int(block, &mut pos, prefix)?).ok()?;
                let name = if idx == 0 {
                    NameRef::Str(decode_string(block, &mut pos)?)
                } else {
                    name_ref(&self.dynamic, idx)?
                };
                let value = decode_string(block, &mut pos)?;
                field(self.dynamic.name(name)?, value);
                if indexing {
                    self.dynamic.insert(name, value);
                }
            }
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(headers: &[(&str, &str)]) -> (usize, Vec<(String, String)>) {
        let mut enc = HpackEncoder::new();
        let mut dec = HpackDecoder::new();
        let block = enc.encode(headers);
        let out = dec.decode(&block).expect("decodes");
        (block.len(), out)
    }

    fn to_owned(headers: &[(&str, &str)]) -> Vec<(String, String)> {
        headers
            .iter()
            .map(|(n, v)| (n.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn static_table_has_61_entries() {
        assert_eq!(STATIC_TABLE.len(), 61);
        assert_eq!(STATIC_TABLE[1], (":method", "GET"));
        assert_eq!(STATIC_TABLE[2], (":method", "POST"));
        assert_eq!(STATIC_TABLE[7], (":status", "200"));
    }

    #[test]
    fn fully_indexed_static_pairs_are_one_byte() {
        let mut enc = HpackEncoder::new();
        let block = enc.encode(&[
            (":method", "POST"),
            (":scheme", "https"),
            (":status", "200"),
        ]);
        assert_eq!(block.len(), 3);
    }

    #[test]
    fn roundtrip_doh_headers() {
        let headers = [
            (":method", "POST"),
            (":scheme", "https"),
            (":authority", "dns.example.net"),
            (":path", "/dns-query"),
            ("accept", "application/dns-message"),
            ("content-type", "application/dns-message"),
            ("content-length", "47"),
        ];
        let (_, out) = roundtrip(&headers);
        assert_eq!(out, to_owned(&headers));
    }

    #[test]
    fn repeat_encoding_uses_dynamic_table() {
        let headers = [
            (":authority", "dns.example.net"),
            ("content-type", "application/dns-message"),
        ];
        let mut enc = HpackEncoder::new();
        let mut dec = HpackDecoder::new();
        let first = enc.encode(&headers);
        let second = enc.encode(&headers);
        assert!(
            second.len() < first.len() / 3,
            "{} vs {}",
            second.len(),
            first.len()
        );
        assert_eq!(dec.decode(&first).unwrap(), to_owned(&headers));
        assert_eq!(dec.decode(&second).unwrap(), to_owned(&headers));
    }

    #[test]
    fn unknown_names_roundtrip() {
        let headers = [("x-custom-header", "some value"), ("x-another", "")];
        let (_, out) = roundtrip(&headers);
        assert_eq!(out, to_owned(&headers));
    }

    #[test]
    fn integer_encoding_rfc_example() {
        // RFC 7541 C.1.1: encoding 10 with a 5-bit prefix -> 0b01010.
        let mut out = Vec::new();
        encode_int(&mut out, 0, 5, 10);
        assert_eq!(out, vec![0x0A]);
        // C.1.2: 1337 with 5-bit prefix -> 1F 9A 0A.
        let mut out = Vec::new();
        encode_int(&mut out, 0, 5, 1337);
        assert_eq!(out, vec![0x1F, 0x9A, 0x0A]);
        let mut pos = 0;
        assert_eq!(decode_int(&[0x1F, 0x9A, 0x0A], &mut pos, 5), Some(1337));
    }

    #[test]
    fn eviction_keeps_table_bounded() {
        let mut enc = HpackEncoder::new();
        let mut dec = HpackDecoder::new();
        for i in 0..200 {
            let name = format!("x-header-{i}");
            let value = "v".repeat(100);
            let headers = [(name.as_str(), value.as_str())];
            let block = enc.encode(&headers);
            assert_eq!(dec.decode(&block).unwrap(), to_owned(&headers));
        }
        assert!(enc.dynamic.size <= enc.dynamic.max_size);
        assert!(dec.dynamic.size <= dec.dynamic.max_size);
    }

    #[test]
    fn truncated_blocks_fail_gracefully() {
        let mut enc = HpackEncoder::new();
        let block = enc.encode(&[(":authority", "dns.example.net")]);
        let mut dec = HpackDecoder::new();
        assert!(dec.decode(&block[..block.len() - 1]).is_none());
    }

    /// A size-update instruction (RFC 7541 §6.3) for `size`.
    fn size_update(size: u64) -> Vec<u8> {
        let mut block = Vec::new();
        encode_int(&mut block, 0x20, 5, size);
        block
    }

    #[test]
    fn size_update_to_zero_evicts_at_once() {
        let mut enc = HpackEncoder::new();
        let mut dec = HpackDecoder::new();
        let first = enc.encode(&[("x-entry", "value")]);
        assert_eq!(
            dec.decode(&first).unwrap(),
            to_owned(&[("x-entry", "value")])
        );
        // Index 62 is the entry just inserted ...
        let mut indexed = Vec::new();
        encode_int(&mut indexed, 0x80, 7, 62);
        assert!(dec.decode(&indexed).is_some());
        // ... until a size update to 0 empties the table.
        let mut block = size_update(0);
        block.extend_from_slice(&indexed);
        assert!(dec.decode(&block).is_none());
        assert_eq!(dec.dynamic.size, 0);
        assert!(dec.decode(&indexed).is_none());
    }

    #[test]
    fn size_update_above_the_advertised_size_is_rejected() {
        let mut dec = HpackDecoder::new();
        assert!(dec.decode(&size_update(1_000_000)).is_none());
        assert!(dec
            .decode(&size_update(MAX_TABLE_SIZE as u64 + 1))
            .is_none());
        assert_eq!(
            dec.decode(&size_update(MAX_TABLE_SIZE as u64)),
            Some(vec![])
        );
        assert_eq!(dec.dynamic.max_size, MAX_TABLE_SIZE);
    }

    #[test]
    fn a_shrunk_table_keeps_only_what_fits() {
        let mut enc = HpackEncoder::new();
        let mut dec = HpackDecoder::new();
        let headers = [("x-a", "1"), ("x-b", "2"), ("x-c", "3")];
        dec.decode(&enc.encode(&headers)).unwrap();
        // Each entry is 3 + 1 + 32 = 36 bytes: room for the newest one.
        dec.decode(&size_update(40)).unwrap();
        let mut block = Vec::new();
        encode_int(&mut block, 0x80, 7, 62);
        assert_eq!(dec.decode(&block).unwrap(), to_owned(&[("x-c", "3")]));
        encode_int(&mut block, 0x80, 7, 63);
        assert!(dec.decode(&block).is_none());
    }

    #[test]
    fn a_new_entry_may_name_the_entry_it_evicts() {
        // Table room for one 40-byte entry: inserting a literal whose
        // name is indexed from the entry being evicted must still work
        // (RFC 7541 §4.4).
        let mut dec = HpackDecoder::new();
        dec.decode(&size_update(45)).unwrap();
        let mut block = Vec::new();
        encode_int(&mut block, 0x40, 6, 0);
        encode_string(&mut block, "x-name");
        encode_string(&mut block, "a");
        encode_int(&mut block, 0x40, 6, 62);
        encode_string(&mut block, "b");
        encode_int(&mut block, 0x80, 7, 62);
        assert_eq!(
            dec.decode(&block).unwrap(),
            to_owned(&[("x-name", "a"), ("x-name", "b"), ("x-name", "b")])
        );
    }

    #[test]
    fn invalid_index_fails() {
        let mut dec = HpackDecoder::new();
        // Indexed field 100 with an empty dynamic table.
        let mut block = Vec::new();
        encode_int(&mut block, 0x80, 7, 100);
        assert!(dec.decode(&block).is_none());
    }
}
