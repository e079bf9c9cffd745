//! A TTL-bounded DNS record cache, keyed case-insensitively by
//! (name, type) like a real resolver cache.
//!
//! Besides positive record sets, the cache stores RFC 2308 **negative
//! entries** (NXDOMAIN / NODATA verdicts bounded by the zone SOA's
//! MINIMUM field): a stub or resolver that has just learned a name does
//! not exist must not re-ask until the negative TTL lapses. Without
//! them, population-scale cache-hit ratios are inflated for miss-heavy
//! Zipf tails, since every repeat NXDOMAIN would count as a fresh miss.

use doqlab_dnswire::{Name, NameId, Rcode, RecordType, ResourceRecord};
use doqlab_simnet::{Duration, SimTime};
use doqlab_telemetry::metrics::{self, Counter};
use std::collections::HashMap;

/// Cache key: either the case-normalised wire form of a name (general
/// path) or an interned [`NameId`] (hot path — hashes 6 bytes instead
/// of a heap label vector). The two variants never collide; a cache
/// fed through the id API must be queried through it too, since the
/// cache cannot map one form onto the other.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Wire { name_lower: Vec<u8>, rtype: u16 },
    Interned { id: NameId, rtype: u16 },
}

impl Key {
    fn wire(name: &Name, rtype: RecordType) -> Self {
        let mut name_lower = Vec::with_capacity(name.wire_len());
        name.append_lower_wire(&mut name_lower);
        Key::Wire {
            name_lower,
            rtype: rtype.to_u16(),
        }
    }

    fn interned(id: NameId, rtype: RecordType) -> Self {
        Key::Interned {
            id,
            rtype: rtype.to_u16(),
        }
    }
}

/// What a cache lookup yields: a positive record set (TTLs decayed to
/// the remaining lifetime) or an RFC 2308 negative verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CachedAnswer {
    Records(Vec<ResourceRecord>),
    /// NXDOMAIN ([`Rcode::NxDomain`]) or NODATA ([`Rcode::NoError`]
    /// with an empty answer section).
    Negative(Rcode),
}

/// What a cache hit holds, without copying out its records: see
/// [`DnsCache::probe_id`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheHit {
    Records,
    Negative(Rcode),
}

#[derive(Debug, Clone)]
enum Payload {
    Records(Vec<ResourceRecord>),
    Negative(Rcode),
}

#[derive(Debug, Clone)]
struct Entry {
    payload: Payload,
    expires_at: SimTime,
}

/// The cache.
#[derive(Debug, Default)]
pub struct DnsCache {
    entries: HashMap<Key, Entry>,
    hits: u64,
    misses: u64,
    negative_hits: u64,
    expired: u64,
}

impl DnsCache {
    pub fn new() -> Self {
        DnsCache::default()
    }

    /// Look up records; expired entries count as misses and are
    /// evicted. A live negative entry is reported as `None` (the legacy
    /// interface cannot express it) but still counts as a hit — use
    /// [`DnsCache::get_answer`] to observe negatives.
    pub fn get(
        &mut self,
        now: SimTime,
        name: &Name,
        rtype: RecordType,
    ) -> Option<Vec<ResourceRecord>> {
        match self.get_answer(now, name, rtype) {
            Some(CachedAnswer::Records(records)) => Some(records),
            _ => None,
        }
    }

    /// Look up an answer — positive or negative; expired entries count
    /// as misses and are evicted.
    pub fn get_answer(
        &mut self,
        now: SimTime,
        name: &Name,
        rtype: RecordType,
    ) -> Option<CachedAnswer> {
        let key = Key::wire(name, rtype);
        self.get_answer_key(now, key)
    }

    /// [`get_answer`](DnsCache::get_answer) keyed by an interned
    /// [`NameId`] — no allocation, no label hashing. Only finds entries
    /// inserted through [`put_id`](DnsCache::put_id) /
    /// [`put_negative_id`](DnsCache::put_negative_id).
    pub fn get_answer_id(
        &mut self,
        now: SimTime,
        id: NameId,
        rtype: RecordType,
    ) -> Option<CachedAnswer> {
        self.get_answer_key(now, Key::interned(id, rtype))
    }

    /// Whether a live entry answers `(id, rtype)`, counted exactly
    /// like [`get_answer_id`](DnsCache::get_answer_id) but without
    /// copying out the records.
    pub fn probe_id(&mut self, now: SimTime, id: NameId, rtype: RecordType) -> Option<CacheHit> {
        self.lookup(now, &Key::interned(id, rtype), |payload, _| match payload {
            Payload::Records(_) => CacheHit::Records,
            Payload::Negative(rcode) => CacheHit::Negative(*rcode),
        })
    }

    fn get_answer_key(&mut self, now: SimTime, key: Key) -> Option<CachedAnswer> {
        self.lookup(now, &key, |payload, expires_at| match payload {
            Payload::Records(records) => {
                // Remaining TTL decreases as the entry ages.
                let remaining = (expires_at - now).as_secs() as u32;
                CachedAnswer::Records(
                    records
                        .iter()
                        .cloned()
                        .map(|mut rr| {
                            rr.ttl = rr.ttl.min(remaining);
                            rr
                        })
                        .collect(),
                )
            }
            Payload::Negative(rcode) => CachedAnswer::Negative(*rcode),
        })
    }

    /// Count a lookup as a hit or a miss, evict an expired entry, and
    /// `read` a live one's payload and expiry.
    fn lookup<R>(
        &mut self,
        now: SimTime,
        key: &Key,
        read: impl FnOnce(&Payload, SimTime) -> R,
    ) -> Option<R> {
        match self.entries.get(key) {
            Some(e) if e.expires_at > now => {
                self.hits += 1;
                metrics::count(Counter::CacheHits, 1);
                if let Payload::Negative(_) = e.payload {
                    self.negative_hits += 1;
                }
                Some(read(&e.payload, e.expires_at))
            }
            Some(_) => {
                self.entries.remove(key);
                self.misses += 1;
                self.expired += 1;
                metrics::count(Counter::CacheMisses, 1);
                None
            }
            None => {
                self.misses += 1;
                metrics::count(Counter::CacheMisses, 1);
                None
            }
        }
    }

    /// Insert records under the minimum TTL among them.
    pub fn put(
        &mut self,
        now: SimTime,
        name: &Name,
        rtype: RecordType,
        records: Vec<ResourceRecord>,
    ) {
        self.put_key(now, Key::wire(name, rtype), records);
    }

    /// [`put`](DnsCache::put) keyed by an interned [`NameId`].
    pub fn put_id(
        &mut self,
        now: SimTime,
        id: NameId,
        rtype: RecordType,
        records: Vec<ResourceRecord>,
    ) {
        self.put_key(now, Key::interned(id, rtype), records);
    }

    fn put_key(&mut self, now: SimTime, key: Key, records: Vec<ResourceRecord>) {
        // Expiry boundary contract (pinned by tests): a lookup strictly
        // before `expires_at` serves, a lookup at or after it expires.
        // A TTL-0 record set (RFC 1035: use for this transaction only)
        // would get `expires_at == now` — already expired by that rule —
        // so it is never cached; any stale entry under the key goes too,
        // rather than shadowing the fresher TTL-0 answer.
        let ttl = records.iter().map(|r| r.ttl).min().unwrap_or(0);
        if ttl == 0 {
            self.entries.remove(&key);
            return;
        }
        self.entries.insert(
            key,
            Entry {
                payload: Payload::Records(records),
                expires_at: now + Duration::from_secs(ttl as u64),
            },
        );
    }

    /// Insert an RFC 2308 negative entry. `ttl` is the negative TTL the
    /// caller derived from the zone SOA (`min(SOA TTL, SOA MINIMUM)`).
    pub fn put_negative(
        &mut self,
        now: SimTime,
        name: &Name,
        rtype: RecordType,
        rcode: Rcode,
        ttl: u32,
    ) {
        self.put_negative_key(now, Key::wire(name, rtype), rcode, ttl);
    }

    /// [`put_negative`](DnsCache::put_negative) keyed by an interned
    /// [`NameId`].
    pub fn put_negative_id(
        &mut self,
        now: SimTime,
        id: NameId,
        rtype: RecordType,
        rcode: Rcode,
        ttl: u32,
    ) {
        self.put_negative_key(now, Key::interned(id, rtype), rcode, ttl);
    }

    fn put_negative_key(&mut self, now: SimTime, key: Key, rcode: Rcode, ttl: u32) {
        // Same boundary contract as put_key: TTL 0 is never cached.
        if ttl == 0 {
            self.entries.remove(&key);
            return;
        }
        self.entries.insert(
            key,
            Entry {
                payload: Payload::Negative(rcode),
                expires_at: now + Duration::from_secs(ttl as u64),
            },
        );
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn clear(&mut self) {
        self.entries.clear();
    }

    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Hits answered from a negative entry (subset of the hit count).
    pub fn negative_hits(&self) -> u64 {
        self.negative_hits
    }

    /// Entries evicted because a lookup found them expired (subset of
    /// the miss count).
    pub fn expired(&self) -> u64 {
        self.expired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doqlab_dnswire::RData;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn a_record(s: &str, ttl: u32) -> ResourceRecord {
        ResourceRecord::new(name(s), ttl, RData::A([1, 2, 3, 4]))
    }

    #[test]
    fn hit_after_put() {
        let mut c = DnsCache::new();
        let t0 = SimTime::ZERO;
        assert!(c.get(t0, &name("a.b"), RecordType::A).is_none());
        c.put(t0, &name("a.b"), RecordType::A, vec![a_record("a.b", 300)]);
        let got = c.get(t0 + Duration::from_secs(10), &name("a.b"), RecordType::A);
        assert_eq!(got.unwrap().len(), 1);
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let mut c = DnsCache::new();
        c.put(
            SimTime::ZERO,
            &name("Google.COM"),
            RecordType::A,
            vec![a_record("google.com", 300)],
        );
        assert!(c
            .get(SimTime::ZERO, &name("google.com"), RecordType::A)
            .is_some());
    }

    #[test]
    fn expiry_evicts() {
        let mut c = DnsCache::new();
        c.put(
            SimTime::ZERO,
            &name("a.b"),
            RecordType::A,
            vec![a_record("a.b", 60)],
        );
        assert!(c
            .get(SimTime::from_secs(59), &name("a.b"), RecordType::A)
            .is_some());
        assert!(c
            .get(SimTime::from_secs(60), &name("a.b"), RecordType::A)
            .is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn expiry_boundary_strictly_before_serves_at_or_after_expires() {
        // The boundary contract, positive and negative: `expires_at` is
        // `put time + ttl`; a lookup one instant before serves, a
        // lookup exactly at (or after) it misses and evicts.
        let just_before = SimTime::from_secs(60) - Duration::from_nanos(1);
        let mut c = DnsCache::new();
        c.put(
            SimTime::ZERO,
            &name("a.b"),
            RecordType::A,
            vec![a_record("a.b", 60)],
        );
        assert!(c.get(just_before, &name("a.b"), RecordType::A).is_some());
        assert!(c
            .get(SimTime::from_secs(60), &name("a.b"), RecordType::A)
            .is_none());
        assert!(c.is_empty());

        let n = name("gone.example");
        c.put_negative(SimTime::ZERO, &n, RecordType::A, Rcode::NxDomain, 60);
        assert_eq!(
            c.get_answer(just_before, &n, RecordType::A),
            Some(CachedAnswer::Negative(Rcode::NxDomain))
        );
        assert!(c
            .get_answer(SimTime::from_secs(60), &n, RecordType::A)
            .is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn ttl_zero_is_never_cached() {
        // RFC 1035 §3.2.1: TTL 0 means "this transaction only". Under
        // the boundary contract `expires_at == now` is already expired,
        // so the entry must not go in at all — otherwise a same-instant
        // lookup would serve it (expired) or, worse, a decremented
        // stale copy.
        let mut c = DnsCache::new();
        let t0 = SimTime::from_secs(5);
        c.put(t0, &name("a.b"), RecordType::A, vec![a_record("a.b", 0)]);
        assert!(c.is_empty(), "TTL-0 positive entry cached");
        assert!(c.get(t0, &name("a.b"), RecordType::A).is_none());

        // Mixed record set: the minimum TTL (0) governs.
        c.put(
            t0,
            &name("a.b"),
            RecordType::A,
            vec![a_record("a.b", 300), a_record("a.b", 0)],
        );
        assert!(c.is_empty(), "min-TTL-0 record set cached");

        // Negative entries follow the same rule.
        c.put_negative(t0, &name("a.b"), RecordType::A, Rcode::NxDomain, 0);
        assert!(c.is_empty(), "TTL-0 negative entry cached");
        assert!(c.get_answer(t0, &name("a.b"), RecordType::A).is_none());

        // A TTL-0 answer also evicts whatever stale entry it shadows.
        c.put(t0, &name("a.b"), RecordType::A, vec![a_record("a.b", 300)]);
        assert_eq!(c.len(), 1);
        c.put(
            t0 + Duration::from_secs(1),
            &name("a.b"),
            RecordType::A,
            vec![a_record("a.b", 0)],
        );
        assert!(c.is_empty(), "stale entry survived a TTL-0 refresh");
    }

    #[test]
    fn ttl_decays_with_age() {
        let mut c = DnsCache::new();
        c.put(
            SimTime::ZERO,
            &name("a.b"),
            RecordType::A,
            vec![a_record("a.b", 300)],
        );
        let got = c
            .get(SimTime::from_secs(100), &name("a.b"), RecordType::A)
            .unwrap();
        assert_eq!(got[0].ttl, 200);
    }

    #[test]
    fn types_are_distinct() {
        let mut c = DnsCache::new();
        c.put(
            SimTime::ZERO,
            &name("a.b"),
            RecordType::A,
            vec![a_record("a.b", 300)],
        );
        assert!(c
            .get(SimTime::ZERO, &name("a.b"), RecordType::Aaaa)
            .is_none());
    }

    #[test]
    fn negative_entries_hit_until_their_ttl() {
        let mut c = DnsCache::new();
        let n = name("gone.example");
        assert!(c.get_answer(SimTime::ZERO, &n, RecordType::A).is_none());
        c.put_negative(SimTime::ZERO, &n, RecordType::A, Rcode::NxDomain, 60);
        assert_eq!(
            c.get_answer(SimTime::from_secs(59), &n, RecordType::A),
            Some(CachedAnswer::Negative(Rcode::NxDomain))
        );
        // The legacy interface reports a live negative as None, but it
        // still counts as a (negative) hit.
        assert!(c.get(SimTime::from_secs(59), &n, RecordType::A).is_none());
        assert_eq!(c.stats(), (2, 1));
        assert_eq!(c.negative_hits(), 2);
        // Past the SOA-minimum TTL the verdict expires like any entry.
        assert!(c
            .get_answer(SimTime::from_secs(60), &n, RecordType::A)
            .is_none());
        assert_eq!(c.expired(), 1);
        assert!(c.is_empty());
    }

    #[test]
    fn nodata_and_nxdomain_are_distinct_verdicts() {
        let mut c = DnsCache::new();
        c.put_negative(
            SimTime::ZERO,
            &name("a.b"),
            RecordType::Txt,
            Rcode::NoError,
            30,
        );
        assert_eq!(
            c.get_answer(SimTime::ZERO, &name("a.b"), RecordType::Txt),
            Some(CachedAnswer::Negative(Rcode::NoError))
        );
    }

    #[test]
    fn expired_positive_lookup_is_counted() {
        let mut c = DnsCache::new();
        c.put(
            SimTime::ZERO,
            &name("a.b"),
            RecordType::A,
            vec![a_record("a.b", 5)],
        );
        assert!(c
            .get(SimTime::from_secs(10), &name("a.b"), RecordType::A)
            .is_none());
        assert_eq!(c.expired(), 1);
        assert_eq!(c.negative_hits(), 0);
    }

    #[test]
    fn interned_id_path_mirrors_the_name_path() {
        use doqlab_dnswire::NameInterner;
        let mut it = NameInterner::new();
        let id = it.intern(&name("d0.pop.doqlab.test"));
        let other = it.intern(&name("d1.pop.doqlab.test"));
        let mut c = DnsCache::new();
        let t0 = SimTime::ZERO;
        assert!(c.get_answer_id(t0, id, RecordType::A).is_none());
        c.put_id(
            t0,
            id,
            RecordType::A,
            vec![a_record("d0.pop.doqlab.test", 300)],
        );
        // Hit with TTL decay, distinct ids and types stay distinct.
        match c.get_answer_id(SimTime::from_secs(100), id, RecordType::A) {
            Some(CachedAnswer::Records(rrs)) => assert_eq!(rrs[0].ttl, 200),
            got => panic!("unexpected {got:?}"),
        }
        assert!(c.get_answer_id(t0, other, RecordType::A).is_none());
        assert!(c.get_answer_id(t0, id, RecordType::Aaaa).is_none());
        // Negative verdicts round-trip and expire.
        c.put_negative_id(t0, other, RecordType::A, Rcode::NxDomain, 60);
        assert_eq!(
            c.get_answer_id(SimTime::from_secs(59), other, RecordType::A),
            Some(CachedAnswer::Negative(Rcode::NxDomain))
        );
        assert!(c
            .get_answer_id(SimTime::from_secs(60), other, RecordType::A)
            .is_none());
        // Hit/miss accounting is shared with the name-keyed path.
        assert_eq!(c.stats(), (2, 4));
        assert_eq!(c.negative_hits(), 1);
        assert_eq!(c.expired(), 1);
    }

    #[test]
    fn clear_empties() {
        let mut c = DnsCache::new();
        c.put(
            SimTime::ZERO,
            &name("a.b"),
            RecordType::A,
            vec![a_record("a.b", 300)],
        );
        c.clear();
        assert!(c.is_empty());
    }
}
