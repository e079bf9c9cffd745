//! Micro-timings of layer APIs, fed with workload-shaped inputs.
//!
//! The inputs depend on the seed only, not on the workload, so a run
//! measures them once. [`timings`] runs in `perfbench`, with the system
//! allocator: each timing is the median over [`BATCHES`] batches of the
//! time per call, so one slow batch (a page fault, a preempted core)
//! does not move it. [`allocs`] runs in `perfbench_counts`: it counts
//! allocations with the per-thread counter of simnet's counting
//! allocator, and its counts repeat exactly.

use crate::{finish, median, Metric, Tally};
use doqlab_core::dnswire::{EdnsOption, Message, Name, NameInterner, OptRecord};
use doqlab_core::dnswire::{RData, RecordType, ResourceRecord};
use doqlab_core::dox::{ClientConfig, DnsClientHost, DnsTransport};
use doqlab_core::measure::populations::{POPULATION_TRANSPORTS, POPULATION_VPS};
use doqlab_core::measure::vantage_points;
use doqlab_core::netstack::http2::{HpackDecoder, HpackEncoder};
use doqlab_core::netstack::quic::{Frame, QuicConfig, QuicConnection, QuicServer, QUIC_V1};
use doqlab_core::netstack::tcp::{TcpConfig, TcpSocket};
use doqlab_core::netstack::tls::{SessionTicket, TlsClient, TlsConfig, TlsServer};
use doqlab_core::resolver::{DnsCache, RecursionModel, ResolverHost, WorkloadGen, WorkloadSpec};
use doqlab_core::simnet::path::GeoPathParams;
use doqlab_core::simnet::SocketAddr;
use doqlab_core::simnet::{GeoPathModel, Ipv4Addr, SimRng, SimTime, Simulator};
use doqlab_core::webperf::{run_page_load_in, PageLoadConfig};
use doqlab_core::Study;
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 9;

/// Median over [`BATCHES`] of the ns per operation: `setup` builds a
/// batch's inputs untimed, `run` consumes them and returns how many
/// operations it performed.
fn ns_per_op<T>(mut setup: impl FnMut() -> T, mut run: impl FnMut(T) -> usize) -> f64 {
    let mut per_op: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let input = setup();
            let t = Instant::now();
            let ops = run(input).max(1);
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&mut per_op)
}

/// Allocations on this thread while `f` runs.
#[cfg(feature = "count-allocs")]
fn allocs_of<R>(f: impl FnOnce() -> R) -> u64 {
    use doqlab_core::simnet::alloc_count::thread_allocations;
    let before = thread_allocations();
    black_box(f());
    thread_allocations() - before
}

/// Report a micro pass's metrics; every one counts as an attempted
/// operation (a failed one panics). Returns the process exit code.
pub fn report(metrics: &[Metric]) -> i32 {
    let tally = Tally {
        attempted: metrics.len(),
        failed: 0,
    };
    finish("micro", None, &tally, metrics)
}

/// Every micro-timed layer metric.
pub fn timings(study: &Study) -> Vec<Metric> {
    let mut out = vec![simnet_reset(study)];
    out.extend(dnswire(study.seed));
    out.extend(netstack());
    out.extend(resolver(study.seed));
    out.extend(webperf(study));
    out
}

/// Every micro-benchmark allocation count.
#[cfg(feature = "count-allocs")]
pub fn allocs() -> Vec<Metric> {
    let (query, response) = dns_messages();
    let roundtrip = allocs_of(|| {
        let q = Message::decode(&query.encode()).expect("decodes");
        let r = Message::decode(&response.encode()).expect("decodes");
        (q, r)
    });
    let mut out = vec![Metric::new(
        "dnswire.allocs.roundtrip",
        roundtrip as f64,
        "allocs",
    )];
    for (name, handshake) in handshakes() {
        out.push(Metric::new(
            format!("netstack.handshake_allocs.{name}"),
            allocs_of(handshake) as f64,
            "allocs",
        ));
    }
    out
}

/// `Simulator::reset` plus the hosts a single-query unit adds.
fn simnet_reset(study: &Study) -> Metric {
    // The resolver and the warming and measured clients.
    let population = study.population();
    let profile = &population[0];
    let vp = &vantage_points()[0];
    let warm_ip = Ipv4Addr::new(10, 10, 1, 2);
    let meas_ip = Ipv4Addr::new(10, 10, 1, 3);
    let remote = SocketAddr::new(profile.ip, 853);
    let mut sim = Simulator::arena();
    let reset_ns = ns_per_op(
        || (),
        |()| {
            for i in 0..200u64 {
                let mut path = GeoPathModel::new(GeoPathParams::default());
                path.place(warm_ip, vp.location);
                path.place(meas_ip, vp.location);
                path.place(profile.ip, profile.location);
                sim.reset(study.seed ^ i, Box::new(path));
                let resolver =
                    ResolverHost::new(profile.server_config(), RecursionModel::default());
                sim.add_host(Box::new(resolver), &[profile.ip]);
                for ip in [warm_ip, meas_ip] {
                    let local = SocketAddr::new(ip, 40_000);
                    let client = DnsClientHost::new(
                        DnsTransport::DoQ,
                        local,
                        remote,
                        &ClientConfig::default(),
                    );
                    sim.add_host(Box::new(client), &[ip]);
                }
            }
            200
        },
    );

    Metric::new("simnet.reset_us", reset_ns / 1e3, "us")
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

/// A padded EDNS query and the A+AAAA response a resolver gives it.
fn dns_messages() -> (Message, Message) {
    let name = Name::parse("www.example.com").expect("valid name");
    let query = padded(Message::query(0x5151, name.clone(), RecordType::A), 128);
    let answers = vec![
        ResourceRecord::new(name.clone(), 300, RData::A([93, 184, 215, 14])),
        ResourceRecord::new(name, 300, RData::Aaaa([0x26; 16])),
    ];
    let response = padded(Message::response_to(&query, answers), 468);
    (query, response)
}

fn dnswire(seed: u64) -> Vec<Metric> {
    let (query, response) = dns_messages();
    let (qwire, rwire) = (query.encode(), response.encode());
    assert_eq!(Message::decode(&rwire).expect("decodes"), response);

    let codec = |msg: &Message, wire: &[u8]| {
        let enc = ns_per_op(
            || (),
            |()| {
                for _ in 0..2000 {
                    black_box(black_box(msg).encode());
                }
                2000
            },
        );
        let dec = ns_per_op(
            || (),
            |()| {
                for _ in 0..2000 {
                    black_box(Message::decode(black_box(wire)).expect("decodes"));
                }
                2000
            },
        );
        (enc, dec)
    };
    let (q_enc, q_dec) = codec(&query, &qwire);
    let (r_enc, r_dec) = codec(&response, &rwire);

    let gen = cohort_workload();
    let mut rng = SimRng::new(seed);
    let names: Vec<Name> = (0..4096)
        .map(|_| {
            let (id, _) = gen.query_id_for_rank(gen.sample_rank(&mut rng));
            gen.name_of(id).clone()
        })
        .collect();
    let intern = ns_per_op(NameInterner::new, |mut interner| {
        for n in &names {
            black_box(interner.intern(n));
        }
        names.len()
    });
    vec![
        Metric::new("dnswire.encode_ns.query", q_enc, "ns"),
        Metric::new("dnswire.decode_ns.query", q_dec, "ns"),
        Metric::new("dnswire.encode_ns.response", r_enc, "ns"),
        Metric::new("dnswire.decode_ns.response", r_dec, "ns"),
        Metric::new("dnswire.intern_ns", intern, "ns"),
    ]
}

/// One population cohort's workload generator, anchored at zero.
fn cohort_workload() -> WorkloadGen {
    let cohorts = (POPULATION_VPS * POPULATION_TRANSPORTS.len()) as u64;
    let mut gen = WorkloadGen::new(WorkloadSpec {
        clients: crate::POPULATION_CLIENTS / cohorts,
        ..WorkloadSpec::default()
    });
    gen.anchor(SimTime::ZERO);
    gen
}

fn sa(h: u8, port: u16) -> SocketAddr {
    SocketAddr::new(Ipv4Addr::new(10, 0, 0, h), port)
}

fn tcp_handshake() {
    let mut a = TcpSocket::client(sa(1, 1000), sa(2, 53), 1, TcpConfig::default());
    let mut s = TcpSocket::server(sa(2, 53), sa(1, 1000), 2, TcpConfig::default());
    a.open(SimTime::ZERO);
    a.send(b"request");
    for _ in 0..12 {
        for seg in a.poll(SimTime::ZERO) {
            s.on_segment(SimTime::ZERO, &seg);
        }
        black_box(s.recv());
        for seg in s.poll(SimTime::ZERO) {
            a.on_segment(SimTime::ZERO, &seg);
        }
        if a.is_established() && s.is_established() {
            break;
        }
    }
    assert!(a.is_established(), "TCP handshake did not complete");
}

fn tls_config() -> TlsConfig {
    TlsConfig {
        server_id: 7,
        alpn: vec![b"dot".to_vec()],
        ..TlsConfig::default()
    }
}

/// A TLS 1.3 handshake, resumed when given a ticket; returns the
/// tickets the server issued.
fn tls_handshake(ticket: Option<SessionTicket>) -> Vec<SessionTicket> {
    let resuming = ticket.is_some();
    let mut client = TlsClient::new(tls_config(), ticket);
    let mut server = TlsServer::new(tls_config());
    client.start(SimTime::ZERO);
    let mut server_bytes = 0;
    for _ in 0..8 {
        let out = client.take_output();
        if !out.is_empty() {
            server.read_wire(SimTime::ZERO, &out);
        }
        let out = server.take_output();
        if out.is_empty() && client.is_connected() && server.is_connected() {
            break;
        }
        server_bytes += out.len();
        if !out.is_empty() {
            client.read_wire(SimTime::ZERO, &out);
        }
    }
    assert!(client.is_connected(), "TLS handshake did not complete");
    // A resumed handshake skips the certificate chain.
    let cert_sent = server_bytes > tls_config().cert_chain_len as usize;
    assert_eq!(cert_sent, !resuming, "TLS resumption mismatch");
    client.take_tickets()
}

fn quic_config() -> QuicConfig {
    QuicConfig {
        tls: TlsConfig {
            alpn: vec![b"doq".to_vec()],
            ..tls_config()
        },
        ..QuicConfig::default()
    }
}

/// A QUIC handshake carrying one DoQ-sized query and answer, resumed
/// when given a ticket; returns the tickets the server issued.
fn quic_handshake(ticket: Option<SessionTicket>) -> Vec<SessionTicket> {
    let resuming = ticket.is_some();
    let mut rng = SimRng::new(1);
    let (local, remote) = (sa(1, 40000), sa(2, 853));
    let cfg = quic_config();
    let mut client = QuicConnection::client(
        cfg.clone(),
        local,
        remote,
        QUIC_V1,
        ticket,
        None,
        &mut rng,
        SimTime::ZERO,
    );
    let mut server = QuicServer::new(remote, cfg);
    let stream = client.open_bi();
    client.stream_send(stream, b"query", true);
    let mut answered = false;
    for _ in 0..12 {
        for d in client.poll_transmit(SimTime::ZERO) {
            server.handle_datagram(SimTime::ZERO, local, &d);
        }
        for (_, d) in server.poll_transmit(SimTime::ZERO) {
            client.handle_datagram(SimTime::ZERO, &d);
        }
        if let Some(conn) = server.connection(local) {
            for s in conn.take_new_peer_streams() {
                let (data, _) = conn.stream_recv(s);
                if !data.is_empty() {
                    conn.stream_send(s, b"answer", true);
                }
            }
        }
        let (resp, fin) = client.stream_recv(stream);
        answered |= fin && !resp.is_empty();
        if answered && client.is_established() {
            break;
        }
    }
    assert!(answered, "QUIC exchange did not complete");
    assert_eq!(client.is_resumption(), resuming, "QUIC resumption mismatch");
    client.take_tickets()
}

/// A named handshake to measure.
type Handshake = (&'static str, Box<dyn Fn()>);

/// The five handshakes; the resumed ones hold a ticket from a full one.
fn handshakes() -> [Handshake; 5] {
    let tls_ticket = tls_handshake(None)
        .pop()
        .expect("the server issues a ticket");
    let quic_ticket = quic_handshake(None)
        .pop()
        .expect("the server issues a ticket");
    [
        ("tcp", Box::new(tcp_handshake)),
        ("tls13_full", Box::new(|| drop(tls_handshake(None)))),
        (
            "tls13_resumed",
            Box::new(move || drop(tls_handshake(Some(tls_ticket.clone())))),
        ),
        ("quic_full", Box::new(|| drop(quic_handshake(None)))),
        (
            "quic_resumed",
            Box::new(move || drop(quic_handshake(Some(quic_ticket.clone())))),
        ),
    ]
}

fn netstack() -> Vec<Metric> {
    let mut out = Vec::new();
    for (name, handshake) in handshakes() {
        let ns = ns_per_op(
            || (),
            |()| {
                for _ in 0..40 {
                    handshake();
                }
                40
            },
        );
        out.push(Metric::new(
            format!("netstack.handshake_us.{name}"),
            ns / 1e3,
            "us",
        ));
    }

    // The DoH request the proxy sends, first on a connection and then
    // against a warm dynamic table.
    let headers = [
        (":method", "POST"),
        (":scheme", "https"),
        (":authority", "dns.resolver.example"),
        (":path", "/dns-query"),
        ("accept", "application/dns-message"),
        ("content-type", "application/dns-message"),
        ("content-length", "47"),
    ];
    let first = ns_per_op(
        || (),
        |()| {
            for _ in 0..2000 {
                let mut enc = HpackEncoder::new();
                let mut dec = HpackDecoder::new();
                let block = enc.encode(black_box(&headers));
                black_box(dec.decode(&block).expect("decodes"));
            }
            2000
        },
    );
    let repeat = ns_per_op(
        || {
            let mut enc = HpackEncoder::new();
            let mut dec = HpackDecoder::new();
            dec.decode(&enc.encode(&headers)).expect("decodes");
            (enc, dec)
        },
        |(mut enc, mut dec)| {
            for _ in 0..2000 {
                let block = enc.encode(black_box(&headers));
                black_box(dec.decode(&block).expect("decodes"));
            }
            2000
        },
    );

    // A handshake flight's frames: CRYPTO, ACK, a DoQ STREAM, padding.
    let frames = [
        Frame::Crypto {
            offset: 0,
            data: vec![0; 900],
        },
        Frame::Ack {
            ranges: vec![(9, 7), (4, 0)],
            delay: 0,
        },
        Frame::Stream {
            id: 0,
            offset: 0,
            data: vec![0; 120],
            fin: true,
        },
        Frame::Padding(100),
    ];
    let mut payload = Vec::new();
    for f in &frames {
        f.encode(&mut payload);
    }
    let frame_decode = ns_per_op(
        || (),
        |()| {
            for _ in 0..2000 {
                black_box(Frame::decode_all(black_box(&payload)).expect("decodes"));
            }
            2000
        },
    );
    out.extend([
        Metric::new("netstack.hpack_ns.first", first, "ns"),
        Metric::new("netstack.hpack_ns.repeat", repeat, "ns"),
        Metric::new("netstack.quic_frame_decode_ns", frame_decode, "ns"),
    ]);
    out
}

fn resolver(seed: u64) -> Vec<Metric> {
    let gen = cohort_workload();
    let mut rng = SimRng::new(seed);
    let stream: Vec<_> = (0..4096)
        .map(|_| gen.query_id_for_rank(gen.sample_rank(&mut rng)).0)
        .collect();
    let record = |id| {
        vec![ResourceRecord::new(
            gen.name_of(id).clone(),
            300,
            RData::A([10, 0, 0, 1]),
        )]
    };
    let now = SimTime::from_secs(1);
    let put = ns_per_op(
        || {
            let records: Vec<_> = stream.iter().map(|&id| (id, record(id))).collect();
            (DnsCache::new(), records)
        },
        |(mut cache, records)| {
            let n = records.len();
            for (id, rrs) in records {
                cache.put_id(now, id, RecordType::A, rrs);
            }
            black_box(cache.len());
            n
        },
    );
    // The stub caches what it fetched: fill with the first half of the
    // stream, then look up all of it (hits and misses in Zipf shares).
    let get = ns_per_op(
        || {
            let mut cache = DnsCache::new();
            for &id in &stream[..stream.len() / 2] {
                cache.put_id(now, id, RecordType::A, record(id));
            }
            cache
        },
        |mut cache| {
            for &id in &stream {
                black_box(cache.get_answer_id(now, id, RecordType::A));
            }
            stream.len()
        },
    );
    let next = ns_per_op(
        || SimRng::new(seed),
        |mut rng| {
            let mut t = SimTime::ZERO;
            for _ in 0..4096 {
                t = gen.next_arrival(t, &mut rng).unwrap_or(SimTime::ZERO);
                black_box(gen.query_id_for_rank(gen.sample_rank(&mut rng)));
            }
            4096
        },
    );
    vec![
        Metric::new("resolver.cache_get_ns", get, "ns"),
        Metric::new("resolver.cache_put_ns", put, "ns"),
        Metric::new("resolver.workload_next_ns", next, "ns"),
    ]
}

fn webperf(study: &Study) -> Vec<Metric> {
    let population = study.population();
    let profile = &population[0];
    let vp = &vantage_points()[0];
    let mut pages = study.pages();
    pages.sort_by_key(|p| p.total_bytes());
    let mut sim = Simulator::arena();
    let mut page_ms = |page: &doqlab_core::webperf::PageProfile| {
        let mut cfg = PageLoadConfig::new(page.clone(), DnsTransport::DoQ);
        cfg.seed = study.seed;
        cfg.resolver = profile.server_config();
        cfg.vp_location = vp.location;
        cfg.resolver_location = profile.location;
        let mut ms: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                black_box(run_page_load_in(&mut sim, &cfg));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&mut ms)
    };
    let light = page_ms(pages.first().expect("ten pages"));
    let heavy = page_ms(pages.last().expect("ten pages"));
    vec![
        Metric::new("webperf.page_load_ms.light", light, "ms"),
        Metric::new("webperf.page_load_ms.heavy", heavy, "ms"),
    ]
}
