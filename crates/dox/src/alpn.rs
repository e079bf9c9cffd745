//! DoQ ALPN identifiers and their stream mappings.
//!
//! The paper's tooling supports `doq` (RFC 9250) plus the draft
//! versions `doq-i00` … `doq-i11`, and observes `doq-i02` in 87.4% of
//! measurements, `doq-i03` in 10.8% and `doq-i00` in 1.8%. The relevant
//! behavioural difference: from `doq-i03` on, messages on a stream are
//! prefixed with a 2-byte length so one query can have several
//! responses (e.g. XFR); earlier drafts put the bare DNS message on the
//! stream and close it.

/// A DoQ ALPN identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DoqAlpn {
    /// RFC 9250 (`doq`).
    Rfc9250,
    /// `doq-iNN` draft.
    Draft(u8),
}

impl DoqAlpn {
    /// Every identifier the tooling supports, newest first (the order a
    /// client offers them).
    pub fn all_supported() -> Vec<DoqAlpn> {
        let mut v = vec![DoqAlpn::Rfc9250];
        for n in (0..=11).rev() {
            v.push(DoqAlpn::Draft(n));
        }
        v
    }

    /// The wire bytes of the identifier. Drafts run from `doq-i00` to
    /// `doq-i11`, the range the tooling supports.
    pub fn wire(&self) -> &'static [u8] {
        const DRAFTS: [&[u8]; 12] = [
            b"doq-i00", b"doq-i01", b"doq-i02", b"doq-i03", b"doq-i04", b"doq-i05", b"doq-i06",
            b"doq-i07", b"doq-i08", b"doq-i09", b"doq-i10", b"doq-i11",
        ];
        match self {
            DoqAlpn::Rfc9250 => b"doq",
            DoqAlpn::Draft(n) => DRAFTS
                .get(*n as usize)
                .expect("DoQ drafts run from doq-i00 to doq-i11"),
        }
    }

    pub fn from_wire(bytes: &[u8]) -> Option<DoqAlpn> {
        if bytes == b"doq" {
            return Some(DoqAlpn::Rfc9250);
        }
        let s = std::str::from_utf8(bytes).ok()?;
        let n = s.strip_prefix("doq-i")?.parse::<u8>().ok()?;
        (n <= 11).then_some(DoqAlpn::Draft(n))
    }

    /// Whether stream messages carry the 2-byte length prefix
    /// (introduced in draft -03 and kept by RFC 9250).
    pub fn uses_length_prefix(&self) -> bool {
        match self {
            DoqAlpn::Rfc9250 => true,
            DoqAlpn::Draft(n) => *n >= 3,
        }
    }
}

impl std::fmt::Display for DoqAlpn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DoqAlpn::Rfc9250 => f.write_str("doq"),
            DoqAlpn::Draft(n) => write!(f, "doq-i{n:02}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_roundtrip() {
        for alpn in DoqAlpn::all_supported() {
            assert_eq!(DoqAlpn::from_wire(alpn.wire()), Some(alpn));
        }
        assert_eq!(DoqAlpn::from_wire(b"doq-i02"), Some(DoqAlpn::Draft(2)));
        assert_eq!(DoqAlpn::from_wire(b"doq"), Some(DoqAlpn::Rfc9250));
        assert_eq!(DoqAlpn::from_wire(b"h3"), None);
        assert_eq!(DoqAlpn::from_wire(b"doq-i12"), None);
    }

    #[test]
    fn all_supported_covers_paper_tooling() {
        // "doq for the standard, as well as doq-i00 to doq-i11".
        let all = DoqAlpn::all_supported();
        assert_eq!(all.len(), 13);
        assert_eq!(all[0], DoqAlpn::Rfc9250);
    }

    #[test]
    fn length_prefix_rule_matches_drafts() {
        assert!(!DoqAlpn::Draft(0).uses_length_prefix());
        assert!(!DoqAlpn::Draft(2).uses_length_prefix());
        assert!(DoqAlpn::Draft(3).uses_length_prefix());
        assert!(DoqAlpn::Draft(11).uses_length_prefix());
        assert!(DoqAlpn::Rfc9250.uses_length_prefix());
    }

    #[test]
    fn display_matches_wire() {
        for alpn in DoqAlpn::all_supported() {
            assert_eq!(alpn.to_string().into_bytes(), alpn.wire());
        }
    }
}
