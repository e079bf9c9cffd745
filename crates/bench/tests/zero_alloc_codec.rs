//! Pins the allocation budget of the DNS message codec: encoding and
//! decoding a padded EDNS query and the A+AAAA response a resolver gives
//! it. The counts are exact — flat names cost one allocation each, the
//! encoder presizes its output and compresses by scanning its own
//! output, so any new per-label, per-suffix or regrowth allocation
//! shows up here first.
//!
//! Only built under the `count-allocs` feature (which installs the
//! counting global allocator). Run with:
//!
//! ```text
//! cargo test --release -p doqlab-bench --features count-allocs --test zero_alloc_codec
//! ```
#![cfg(feature = "count-allocs")]

use doqlab_dnswire::{EdnsOption, Message, Name, OptRecord, RData, RecordType, ResourceRecord};
use doqlab_simnet::alloc_count::thread_allocations;
use std::hint::black_box;

/// The whole round trip of both messages may not exceed this.
const ROUNDTRIP_BUDGET: u64 = 16;

/// Allocations on this thread while `f` runs.
fn allocs_of<R>(f: impl FnOnce() -> R) -> u64 {
    let before = thread_allocations();
    black_box(f());
    thread_allocations() - before
}

/// RFC 8467 block-length padding: pad the message to a multiple of
/// `block` bytes.
fn padded(mut msg: Message, block: usize) -> Message {
    let len = msg.encode().len() + 4; // the padding option's own header
    let pad = (block - len % block) % block;
    let opt = OptRecord {
        options: vec![EdnsOption::Padding(pad as u16)],
        ..OptRecord::default()
    };
    msg.additionals.retain(|rr| rr.rtype != RecordType::Opt);
    msg.additionals.push(opt.to_record());
    msg
}

fn messages() -> (Message, Message) {
    let name = Name::parse("www.example.com").unwrap();
    let query = padded(Message::query(0x5151, name.clone(), RecordType::A), 128);
    let answers = vec![
        ResourceRecord::new(name.clone(), 300, RData::A([93, 184, 215, 14])),
        ResourceRecord::new(name, 300, RData::Aaaa([0x26; 16])),
    ];
    let response = padded(Message::response_to(&query, answers), 468);
    (query, response)
}

#[test]
fn codec_allocations_are_pinned() {
    let (query, response) = messages();
    let (qwire, rwire) = (query.encode(), response.encode());
    assert_eq!((qwire.len(), rwire.len()), (128, 468));

    // One presized output buffer per encode.
    assert_eq!(allocs_of(|| query.encode()), 1);
    assert_eq!(allocs_of(|| response.encode()), 1);
    // Query: the question and additional vectors, the name, the OPT
    // RDATA. Response: the same plus the answer vector and two owner
    // names.
    assert_eq!(allocs_of(|| Message::decode(&qwire).unwrap()), 4);
    assert_eq!(allocs_of(|| Message::decode(&rwire).unwrap()), 7);

    let roundtrip = allocs_of(|| {
        let q = Message::decode(&query.encode()).unwrap();
        let r = Message::decode(&response.encode()).unwrap();
        (q, r)
    });
    assert_eq!(roundtrip, 13);
    assert!(roundtrip <= ROUNDTRIP_BUDGET);
}

#[test]
fn encode_variants_allocate_once() {
    let (query, response) = messages();
    let keepalive = OptRecord {
        options: vec![EdnsOption::TcpKeepalive(Some(300))],
        ..OptRecord::default()
    }
    .to_record();
    assert_eq!(allocs_of(|| response.encode_with_id(0)), 1);
    assert_eq!(allocs_of(|| query.encode_with_opt(&keepalive)), 1);
}
