//! Differential property test for name compression: the writer's
//! offset-scan suffix lookup must produce exactly the bytes of the
//! original dictionary encoder, kept here as the reference — a
//! `HashMap` from every case-normalised suffix to the offset of its
//! first occurrence, with one key vector per suffix.
//!
//! Random messages mix shared suffixes, case variants, the root name,
//! NS/MX/SOA/CNAME/PTR RDATA names (compressed), SVCB targets (never
//! compressed), and filler records that push later names past the
//! 0x3FFF pointer limit.

use doqlab_dnswire::*;
use proptest::prelude::*;
use proptest::strategy::Just;

mod reference {
    use doqlab_dnswire::{Message, Name, RData, ResourceRecord, SvcParam};
    use std::collections::HashMap;

    #[derive(Default)]
    struct Writer {
        buf: Vec<u8>,
        dict: HashMap<Vec<u8>, u16>,
    }

    impl Writer {
        fn u16(&mut self, v: u16) {
            self.buf.extend_from_slice(&v.to_be_bytes());
        }

        fn u32(&mut self, v: u32) {
            self.buf.extend_from_slice(&v.to_be_bytes());
        }

        fn name(&mut self, name: &Name) {
            let labels: Vec<&[u8]> = name.labels().collect();
            for i in 0..labels.len() {
                let mut key = Vec::new();
                for label in &labels[i..] {
                    key.push(label.len() as u8);
                    key.extend(label.iter().map(u8::to_ascii_lowercase));
                }
                if let Some(&off) = self.dict.get(&key) {
                    self.u16(0xC000 | off);
                    return;
                }
                if self.buf.len() < 0x4000 {
                    let at = self.buf.len() as u16;
                    self.dict.entry(key).or_insert(at);
                }
                self.buf.push(labels[i].len() as u8);
                self.buf.extend_from_slice(labels[i]);
            }
            self.buf.push(0);
        }

        fn name_uncompressed(&mut self, name: &Name) {
            for label in name.labels() {
                self.buf.push(label.len() as u8);
                self.buf.extend_from_slice(label);
            }
            self.buf.push(0);
        }

        fn rdata(&mut self, rdata: &RData) {
            match rdata {
                RData::A(a) => self.buf.extend_from_slice(a),
                RData::Aaaa(a) => self.buf.extend_from_slice(a),
                RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => self.name(n),
                RData::Mx {
                    preference,
                    exchange,
                } => {
                    self.u16(*preference);
                    self.name(exchange);
                }
                RData::Txt(strings) => {
                    for s in strings {
                        self.buf.push(s.len() as u8);
                        self.buf.extend_from_slice(s);
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
                    self.name(mname);
                    self.name(rname);
                    for v in [serial, refresh, retry, expire, minimum] {
                        self.u32(*v);
                    }
                }
                RData::Svcb {
                    priority,
                    target,
                    params,
                } => {
                    self.u16(*priority);
                    self.name_uncompressed(target);
                    for p in params {
                        let mut value = Vec::new();
                        let key = match p {
                            SvcParam::Alpn(protos) => {
                                for proto in protos {
                                    value.push(proto.len() as u8);
                                    value.extend_from_slice(proto);
                                }
                                1
                            }
                            SvcParam::Port(port) => {
                                value.extend_from_slice(&port.to_be_bytes());
                                3
                            }
                            SvcParam::Unknown(k, v) => {
                                value.extend_from_slice(v);
                                *k
                            }
                        };
                        self.u16(key);
                        self.u16(value.len() as u16);
                        self.buf.extend_from_slice(&value);
                    }
                }
                RData::Opt(raw) | RData::Unknown(raw) => self.buf.extend_from_slice(raw),
            }
        }

        fn record(&mut self, rr: &ResourceRecord) {
            self.name(&rr.name);
            self.u16(rr.rtype.to_u16());
            self.u16(rr.class.to_u16());
            self.u32(rr.ttl);
            let len_at = self.buf.len();
            self.u16(0);
            self.rdata(&rr.rdata);
            let len = (self.buf.len() - len_at - 2) as u16;
            self.buf[len_at..len_at + 2].copy_from_slice(&len.to_be_bytes());
        }
    }

    fn flags(msg: &Message) -> u16 {
        let h = &msg.header;
        let bit = |on: bool, mask: u16| if on { mask } else { 0 };
        bit(h.response, 0x8000)
            | (h.opcode.to_u8() as u16) << 11
            | bit(h.authoritative, 0x0400)
            | bit(h.truncated, 0x0200)
            | bit(h.recursion_desired, 0x0100)
            | bit(h.recursion_available, 0x0080)
            | bit(h.authentic_data, 0x0020)
            | bit(h.checking_disabled, 0x0010)
            | h.rcode.to_u8() as u16
    }

    /// The reference encoding of `msg`.
    pub fn encode(msg: &Message) -> Vec<u8> {
        let mut w = Writer::default();
        w.u16(msg.header.id);
        w.u16(flags(msg));
        for n in [
            msg.questions.len(),
            msg.answers.len(),
            msg.authorities.len(),
            msg.additionals.len(),
        ] {
            w.u16(n as u16);
        }
        for q in &msg.questions {
            w.name(&q.name);
            w.u16(q.rtype.to_u16());
            w.u16(q.class.to_u16());
        }
        for rr in msg
            .answers
            .iter()
            .chain(&msg.authorities)
            .chain(&msg.additionals)
        {
            w.record(rr);
        }
        w.buf
    }
}

/// Labels from a small pool, so suffixes are shared often, each in a
/// random case.
fn arb_label() -> impl Strategy<Value = String> {
    let pool = prop_oneof![
        Just("www".to_string()),
        Just("mail".to_string()),
        Just("example".to_string()),
        Just("com".to_string()),
        Just("org".to_string()),
        Just("a".to_string()),
        Just("x".repeat(63)),
        proptest::string::string_regex("[a-zA-Z0-9-]{1,12}").unwrap(),
    ];
    (pool, any::<u64>()).prop_map(|(label, case)| {
        label
            .chars()
            .enumerate()
            .map(|(i, c)| {
                if case >> (i % 64) & 1 == 1 {
                    c.to_ascii_uppercase()
                } else {
                    c
                }
            })
            .collect()
    })
}

/// Root included: zero labels.
fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 0..4)
        .prop_map(|labels| Name::parse(&labels.join(".")).unwrap())
}

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(RData::A),
        any::<[u8; 16]>().prop_map(RData::Aaaa),
        arb_name().prop_map(RData::Cname),
        arb_name().prop_map(RData::Ns),
        arb_name().prop_map(RData::Ptr),
        (any::<u16>(), arb_name()).prop_map(|(preference, exchange)| RData::Mx {
            preference,
            exchange
        }),
        (arb_name(), arb_name(), any::<u32>()).prop_map(|(mname, rname, serial)| RData::Soa {
            mname,
            rname,
            serial,
            refresh: 7200,
            retry: 3600,
            expire: 1_209_600,
            minimum: 300,
        }),
        (any::<u16>(), arb_name()).prop_map(|(priority, target)| RData::Svcb {
            priority,
            target,
            params: vec![
                SvcParam::Alpn(vec![b"doq".to_vec(), b"h3".to_vec()]),
                SvcParam::Port(853),
                SvcParam::Unknown(9, vec![1, 2]),
            ],
        }),
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..20), 0..3)
            .prop_map(RData::Txt),
    ]
}

fn arb_record() -> impl Strategy<Value = ResourceRecord> {
    (arb_name(), any::<u32>(), arb_rdata())
        .prop_map(|(name, ttl, rdata)| ResourceRecord::new(name, ttl, rdata))
}

/// A TXT record of `len` bytes of character-strings, to move every
/// later name toward or past the 0x3FFF pointer limit.
fn filler(len: usize) -> ResourceRecord {
    let strings = (0..len / 256)
        .map(|_| vec![b'f'; 255])
        .chain(std::iter::once(vec![b'f'; len % 256 / 2]))
        .collect();
    ResourceRecord::new(Name::parse("fill").unwrap(), 60, RData::Txt(strings))
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        (any::<u16>(), proptest::collection::vec(arb_name(), 0..3)),
        proptest::collection::vec(arb_record(), 0..6),
        proptest::collection::vec(arb_record(), 0..3),
        proptest::collection::vec(arb_record(), 0..3),
        prop_oneof![Just(None), (0x3E00usize..0x4080).prop_map(Some)],
        any::<usize>(),
    )
        .prop_map(
            |((id, qnames), mut answers, authorities, additionals, fill, at)| {
                if let Some(len) = fill {
                    answers.insert(at % (answers.len() + 1), filler(len));
                }
                let mut m = Message {
                    questions: qnames
                        .into_iter()
                        .map(|n| Question::new(n, RecordType::A))
                        .collect(),
                    answers,
                    authorities,
                    additionals,
                    ..Message::default()
                };
                m.header.id = id;
                m.additionals.push(OptRecord::default().to_record());
                m
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn offset_scan_compression_matches_the_dictionary(msg in arb_message()) {
        let wire = msg.encode();
        prop_assert_eq!(&wire, &reference::encode(&msg));
        prop_assert!(wire.len() <= msg.uncompressed_len());
        // A pointer to a case variant decodes in the variant's case, so
        // the decoded message is compared by its encoding.
        let back = Message::decode(&wire).expect("own encoding decodes");
        prop_assert_eq!(back.encode(), wire);
    }

    #[test]
    fn encode_with_opt_matches_the_dictionary(msg in arb_message(), timeout in any::<u16>()) {
        let opt = OptRecord {
            options: vec![EdnsOption::TcpKeepalive(Some(timeout))],
            ..OptRecord::default()
        }
        .to_record();
        let mut clone = msg.clone();
        clone.additionals.retain(|rr| rr.rtype != RecordType::Opt);
        clone.additionals.push(opt.clone());
        prop_assert_eq!(msg.encode_with_opt(&opt), reference::encode(&clone));
    }
}

#[test]
fn filler_pushes_names_past_the_pointer_limit() {
    // A name that first appears past 0x3FFF is never remembered, so its
    // repeat is written in full; a name remembered before the limit is
    // still pointed to from beyond it.
    let early = Name::parse("early.example").unwrap();
    let late = Name::parse("late.example").unwrap();
    let mut msg = Message::query(1, early.clone(), RecordType::A);
    msg.answers = vec![
        filler(0x4000),
        ResourceRecord::new(late.clone(), 60, RData::A([1; 4])),
        ResourceRecord::new(late.clone(), 60, RData::A([2; 4])),
        ResourceRecord::new(early, 60, RData::A([3; 4])),
    ];
    let wire = msg.encode();
    assert_eq!(wire, reference::encode(&msg));
    let full = b"\x04late\xC0";
    let repeats = wire.windows(full.len()).filter(|w| w == full).count();
    assert_eq!(repeats, 2, "the late name is spelled out both times");
    assert_eq!(Message::decode(&wire).unwrap(), msg);
}
