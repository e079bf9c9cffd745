//! Domain names: parsing, formatting, and wire encoding with
//! compression.
//!
//! A name is one flat buffer of length-prefixed labels in their
//! original case — its uncompressed wire form minus the root byte — so
//! it costs at most one heap allocation. Comparison and compression are
//! case-insensitive per RFC 1035 §2.3.3. Encoding writes compression
//! pointers to earlier occurrences of any suffix; decoding follows
//! pointers with strict backwards-only and loop-count protection.

use crate::wire::{WireError, WireReader, WireWriter};

/// Maximum length of a single label.
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum total wire length of a name (including length bytes and the
/// root label).
pub const MAX_NAME_LEN: usize = 255;

/// A fully-qualified domain name, e.g. `google.com.`
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Name {
    /// Each label as a length byte followed by its bytes; no
    /// terminating root byte, so the root name is empty.
    wire: Box<[u8]>,
}

/// Iterator over a name's labels, leftmost first.
#[derive(Debug, Clone)]
pub struct Labels<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Labels<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (&len, tail) = self.rest.split_first()?;
        let (label, rest) = tail.split_at(len as usize);
        self.rest = rest;
        Some(label)
    }
}

impl Name {
    /// The root name (`.`).
    pub fn root() -> Self {
        Name {
            wire: Box::default(),
        }
    }

    /// Parse from presentation format (`"www.google.com"`, trailing dot
    /// optional). Empty labels are rejected except for the pure root
    /// `"."` or `""`.
    pub fn parse(s: &str) -> Result<Self, WireError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(Name::root());
        }
        for part in s.split('.') {
            if part.is_empty() {
                return Err(WireError::Invalid("empty label"));
            }
            if part.len() > MAX_LABEL_LEN {
                return Err(WireError::NameTooLong);
            }
        }
        // One length byte per label replaces its dot, plus the first.
        if s.len() + 2 > MAX_NAME_LEN {
            return Err(WireError::NameTooLong);
        }
        let mut wire = Vec::with_capacity(s.len() + 1);
        for part in s.split('.') {
            wire.push(part.len() as u8);
            wire.extend_from_slice(part.as_bytes());
        }
        Ok(Name { wire: wire.into() })
    }

    pub fn labels(&self) -> Labels<'_> {
        Labels { rest: &self.wire }
    }

    pub fn is_root(&self) -> bool {
        self.wire.is_empty()
    }

    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// Uncompressed wire length: one length byte per label + label bytes
    /// + the terminating root byte.
    pub fn wire_len(&self) -> usize {
        self.wire.len() + 1
    }

    /// Case-insensitive equality per RFC 1035. Length bytes never fall
    /// in the ASCII letter range, so folding the flat form is exact.
    pub fn eq_ignore_case(&self, other: &Name) -> bool {
        self.wire.eq_ignore_ascii_case(&other.wire)
    }

    /// The name minus its first label (`www.google.com` -> `google.com`).
    pub fn parent(&self) -> Option<Name> {
        let first = *self.wire.first()? as usize;
        Some(Name {
            wire: self.wire[1 + first..].into(),
        })
    }

    /// True if `self` equals `zone` or is beneath it (case-insensitive).
    pub fn is_subdomain_of(&self, zone: &Name) -> bool {
        let mut rest: &[u8] = &self.wire;
        while rest.len() > zone.wire.len() {
            rest = &rest[1 + rest[0] as usize..];
        }
        rest.eq_ignore_ascii_case(&zone.wire)
    }

    /// Append the case-normalised (lowercased) uncompressed wire form to
    /// `out`: one length byte per label followed by lowercased label
    /// bytes, no terminating root byte. Two names append the same bytes
    /// iff they are [`eq_ignore_case`](Name::eq_ignore_case)-equal, so
    /// this is the canonical case-insensitive map key for a name.
    pub fn append_lower_wire(&self, out: &mut Vec<u8>) {
        out.extend(self.wire.iter().map(u8::to_ascii_lowercase));
    }

    /// Encode with compression: at each label boundary, emit a pointer
    /// if this suffix was written before; otherwise write the label and
    /// remember where the suffix starts.
    pub fn encode(&self, w: &mut WireWriter) {
        let mut rest: &[u8] = &self.wire;
        while let Some(&len) = rest.first() {
            if let Some(off) = w.compression_offset(rest) {
                w.put_u16(0xC000 | off);
                return;
            }
            w.remember_name(w.len());
            let (label, tail) = rest.split_at(1 + len as usize);
            w.put_slice(label);
            rest = tail;
        }
        w.put_u8(0); // root
    }

    /// Encode without compression (used inside RDATA types where
    /// compression is forbidden, e.g. SVCB targets per RFC 9460).
    pub fn encode_uncompressed(&self, w: &mut WireWriter) {
        w.put_slice(&self.wire);
        w.put_u8(0);
    }

    /// Decode a (possibly compressed) name.
    pub fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        // Assembled on the stack, so the name allocates exactly once.
        let mut flat = [0u8; MAX_NAME_LEN];
        let mut len = 0usize;
        // After following the first pointer, the reader must be restored
        // to the position just past the pointer.
        let mut resume: Option<usize> = None;
        // Pointers must strictly decrease to rule out loops.
        let mut last_pointer = usize::MAX;
        loop {
            let byte = r.get_u8()?;
            match byte {
                0 => break,
                l if l & 0xC0 == 0xC0 => {
                    let lo = r.get_u8()? as usize;
                    let target = (((l & 0x3F) as usize) << 8) | lo;
                    if target >= last_pointer || target >= r.pos() {
                        return Err(WireError::BadPointer);
                    }
                    if resume.is_none() {
                        resume = Some(r.pos());
                    }
                    last_pointer = target;
                    r.seek(target)?;
                }
                l if l & 0xC0 != 0 => return Err(WireError::BadLabelType),
                l => {
                    let label = r.get_slice(l as usize)?;
                    // The label, its length byte and the root byte.
                    if len + label.len() + 2 > MAX_NAME_LEN {
                        return Err(WireError::NameTooLong);
                    }
                    flat[len] = l;
                    flat[len + 1..len + 1 + label.len()].copy_from_slice(label);
                    len += 1 + label.len();
                }
            }
        }
        if let Some(pos) = resume {
            r.seek(pos)?;
        }
        Ok(Name {
            wire: flat[..len].into(),
        })
    }
}

/// Label-wise order, as if the name were a list of byte-string labels.
impl Ord for Name {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.labels().cmp(other.labels())
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Prints the label list, e.g. `Name { labels: [[97], [98]] }` for `a.b.`
impl std::fmt::Debug for Name {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        struct List<'a>(&'a Name);
        impl std::fmt::Debug for List<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_list().entries(self.0.labels()).finish()
            }
        }
        f.debug_struct("Name").field("labels", &List(self)).finish()
    }
}

impl std::fmt::Display for Name {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_root() {
            return f.write_str(".");
        }
        for label in self.labels() {
            for &b in label {
                if b.is_ascii_graphic() && b != b'.' && b != b'\\' {
                    write!(f, "{}", b as char)?;
                } else {
                    write!(f, "\\{b:03}")?;
                }
            }
            f.write_str(".")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for Name {
    type Err = WireError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::parse(s)
    }
}

/// A copy-cheap handle to a name interned in a [`NameInterner`].
///
/// Ids are only meaningful against the interner that issued them; they
/// are dense (`0..interner.len()`), assigned in first-intern order, and
/// case-insensitive — `WWW.Example.COM` and `www.example.com` intern to
/// the same id. Hot paths (workload tables, cache keys, in-flight
/// coalescing) compare and hash the 4-byte id instead of walking heap
/// label vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameId(u32);

impl NameId {
    /// The dense index this id maps to (`0..interner.len()`), usable as
    /// a direct index into caller-side side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A case-insensitive name interner: deduplicates [`Name`]s and issues
/// dense [`NameId`] handles for allocation-free comparison and hashing.
///
/// The canonical spelling stored is the **first** one interned; later
/// interns of case-variants return the same id without replacing it
/// (matching how DNS caches treat 0x20 case randomisation).
#[derive(Debug, Clone, Default)]
pub struct NameInterner {
    names: Vec<Name>,
    /// Lowercased uncompressed wire form -> index into `names`.
    ids: std::collections::HashMap<Vec<u8>, u32>,
}

impl NameInterner {
    pub fn new() -> Self {
        NameInterner::default()
    }

    /// Intern `name`, returning its id — existing if a case-equal name
    /// was interned before, freshly assigned otherwise.
    pub fn intern(&mut self, name: &Name) -> NameId {
        let mut buf = [0u8; MAX_NAME_LEN];
        let key = lower_key(name, &mut buf);
        if let Some(&id) = self.ids.get(key) {
            return NameId(id);
        }
        let id = self.names.len() as u32;
        self.ids.insert(key.to_vec(), id);
        self.names.push(name.clone());
        NameId(id)
    }

    /// The id of a previously interned name, without interning.
    pub fn get(&self, name: &Name) -> Option<NameId> {
        let mut buf = [0u8; MAX_NAME_LEN];
        self.ids
            .get(lower_key(name, &mut buf))
            .map(|&id| NameId(id))
    }

    /// The canonical (first-interned) spelling behind an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was issued by a different interner and is out of
    /// range here.
    pub fn resolve(&self, id: NameId) -> &Name {
        &self.names[id.0 as usize]
    }

    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// `name`'s case-normalised map key (see [`Name::append_lower_wire`]),
/// built in `buf` rather than on the heap.
fn lower_key<'a>(name: &Name, buf: &'a mut [u8; MAX_NAME_LEN]) -> &'a [u8] {
    let key = &mut buf[..name.wire.len()];
    for (k, b) in key.iter_mut().zip(name.wire.iter()) {
        *k = b.to_ascii_lowercase();
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode_one(name: &Name) -> Vec<u8> {
        let mut w = WireWriter::new();
        name.encode(&mut w);
        w.finish()
    }

    #[test]
    fn interner_is_case_insensitive_and_dense() {
        let mut it = NameInterner::new();
        let a = it.intern(&Name::parse("www.Example.COM").unwrap());
        let b = it.intern(&Name::parse("www.example.com").unwrap());
        let c = it.intern(&Name::parse("mail.example.com").unwrap());
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(it.len(), 2);
        assert_eq!(a.index(), 0);
        assert_eq!(c.index(), 1);
        // Canonical spelling is the first-interned one.
        assert_eq!(it.resolve(a).to_string(), "www.Example.COM.");
        assert_eq!(it.get(&Name::parse("WWW.EXAMPLE.COM").unwrap()), Some(a));
        assert_eq!(it.get(&Name::parse("other.example").unwrap()), None);
    }

    #[test]
    fn interner_distinguishes_label_boundaries() {
        // "ab.c" and "a.bc" must not collide: the length bytes in the
        // lowercased wire key keep boundaries distinct.
        let mut it = NameInterner::new();
        let a = it.intern(&Name::parse("ab.c").unwrap());
        let b = it.intern(&Name::parse("a.bc").unwrap());
        assert_ne!(a, b);
        // Root interns fine (empty key).
        let r = it.intern(&Name::root());
        assert_eq!(it.resolve(r), &Name::root());
    }

    #[test]
    fn lower_wire_key_matches_case_equality() {
        let a = Name::parse("GoOgle.Com").unwrap();
        let b = Name::parse("google.com").unwrap();
        let (mut ka, mut kb) = (Vec::new(), Vec::new());
        a.append_lower_wire(&mut ka);
        b.append_lower_wire(&mut kb);
        assert_eq!(ka, kb);
        assert_eq!(ka, b"\x06google\x03com".to_vec());
    }

    #[test]
    fn parse_and_display() {
        let n = Name::parse("www.Google.com").unwrap();
        assert_eq!(n.label_count(), 3);
        assert_eq!(n.to_string(), "www.Google.com.");
        assert_eq!(
            Name::parse("google.com.").unwrap().to_string(),
            "google.com."
        );
        assert_eq!(Name::root().to_string(), ".");
        assert_eq!(Name::parse("").unwrap(), Name::root());
        assert_eq!(Name::parse(".").unwrap(), Name::root());
    }

    #[test]
    fn parse_rejects_bad_names() {
        assert!(Name::parse("a..b").is_err());
        assert!(Name::parse(&"x".repeat(64)).is_err());
        // 255-byte total limit: four 63-byte labels = 4*64+1 = 257.
        let long = [&"x".repeat(63)[..]; 4].join(".");
        assert!(Name::parse(&long).is_err());
    }

    #[test]
    fn simple_encode() {
        let n = Name::parse("google.com").unwrap();
        assert_eq!(encode_one(&n), b"\x06google\x03com\x00".to_vec());
        assert_eq!(n.wire_len(), 12);
    }

    #[test]
    fn roundtrip_uncompressed() {
        for s in ["google.com", "a.b.c.d.e.example", "x.y"] {
            let n = Name::parse(s).unwrap();
            let buf = encode_one(&n);
            let mut r = WireReader::new(&buf);
            let m = Name::decode(&mut r).unwrap();
            assert_eq!(n, m);
            assert!(r.is_at_end());
        }
    }

    #[test]
    fn compression_pointer_emitted_and_decoded() {
        let mut w = WireWriter::new();
        let a = Name::parse("www.google.com").unwrap();
        let b = Name::parse("mail.google.com").unwrap();
        a.encode(&mut w);
        let len_after_first = w.len();
        b.encode(&mut w);
        let buf = w.finish();
        // Second name should use a pointer to "google.com" (offset 4).
        assert_eq!(&buf[len_after_first..], b"\x04mail\xC0\x04");
        let mut r = WireReader::new(&buf);
        assert_eq!(Name::decode(&mut r).unwrap(), a);
        assert_eq!(Name::decode(&mut r).unwrap(), b);
        assert!(r.is_at_end());
    }

    #[test]
    fn whole_name_pointer() {
        let mut w = WireWriter::new();
        let a = Name::parse("google.com").unwrap();
        a.encode(&mut w);
        a.encode(&mut w);
        let buf = w.finish();
        assert_eq!(&buf[12..], b"\xC0\x00");
        let mut r = WireReader::new(&buf);
        assert_eq!(Name::decode(&mut r).unwrap(), a);
        assert_eq!(Name::decode(&mut r).unwrap(), a);
    }

    #[test]
    fn compression_is_case_insensitive() {
        let mut w = WireWriter::new();
        Name::parse("GOOGLE.COM").unwrap().encode(&mut w);
        let before = w.len();
        Name::parse("google.com").unwrap().encode(&mut w);
        assert_eq!(w.len() - before, 2, "expected a bare pointer");
    }

    #[test]
    fn pointer_loop_rejected() {
        // A name at offset 0 that points to itself.
        let buf = [0xC0, 0x00];
        let mut r = WireReader::new(&buf);
        assert_eq!(Name::decode(&mut r), Err(WireError::BadPointer));
    }

    #[test]
    fn forward_pointer_rejected() {
        let buf = [0xC0, 0x05, 0, 0, 0, 0x01, b'a', 0x00];
        let mut r = WireReader::new(&buf);
        assert_eq!(Name::decode(&mut r), Err(WireError::BadPointer));
    }

    #[test]
    fn mutual_pointer_loop_rejected() {
        // Two pointers pointing at each other: 0 -> 2, 2 -> 0.
        let buf = [0xC0, 0x02, 0xC0, 0x00];
        let mut r = WireReader::new(&buf);
        r.seek(2).unwrap();
        assert_eq!(Name::decode(&mut r), Err(WireError::BadPointer));
    }

    #[test]
    fn reserved_label_types_rejected() {
        let buf = [0x40, 0x00];
        let mut r = WireReader::new(&buf);
        assert_eq!(Name::decode(&mut r), Err(WireError::BadLabelType));
        let buf = [0x80, 0x00];
        let mut r = WireReader::new(&buf);
        assert_eq!(Name::decode(&mut r), Err(WireError::BadLabelType));
    }

    #[test]
    fn truncated_name_rejected() {
        let mut r = WireReader::new(b"\x06goog");
        assert_eq!(Name::decode(&mut r), Err(WireError::Truncated));
        let mut r = WireReader::new(b"\x03com");
        assert_eq!(Name::decode(&mut r), Err(WireError::Truncated));
    }

    #[test]
    fn eq_ignore_case_and_subdomain() {
        let a = Name::parse("WWW.Google.Com").unwrap();
        let b = Name::parse("www.google.com").unwrap();
        let zone = Name::parse("google.com").unwrap();
        assert!(a.eq_ignore_case(&b));
        assert_ne!(a, b); // exact equality is case-sensitive
        assert!(a.is_subdomain_of(&zone));
        assert!(zone.is_subdomain_of(&zone));
        assert!(!zone.is_subdomain_of(&a));
        assert!(a.is_subdomain_of(&Name::root()));
    }

    #[test]
    fn parent_chain() {
        let n = Name::parse("a.b.c").unwrap();
        let p = n.parent().unwrap();
        assert_eq!(p.to_string(), "b.c.");
        assert_eq!(Name::root().parent(), None);
    }

    #[test]
    fn display_escapes_non_printable() {
        let n = Name {
            wire: vec![2, 0x07, b'.'].into(),
        };
        assert_eq!(n.to_string(), "\\007\\046.");
    }
}
