//! Pins the allocation budget of the stream-transport path: a TCP
//! handshake plus one DoTCP query and answer through a `TcpListener`, a
//! full and a resumed DoT exchange, and a DoH exchange on a fresh
//! connection, each driven the way the DNS hosts drive them: segments
//! written into pooled payloads and decoded by borrowing, TCP bytes
//! handed to TLS, TLS plaintext to HTTP/2 and back without intermediate
//! buffers. Each count is taken after a warm-up run, so it is the
//! steady-state cost; any new per-segment, per-record, per-frame or
//! per-header allocation shows up here first. One more DoH exchange on
//! an established connection is held to a small bound.
//!
//! Only built under the `count-allocs` feature (which installs the
//! counting global allocator). Run with:
//!
//! ```text
//! cargo test --release -p doqlab-bench --features count-allocs --test zero_alloc_stream
//! ```
#![cfg(feature = "count-allocs")]

use doqlab_netstack::http2::{doh_request_headers, doh_response_headers, H2Connection};
use doqlab_netstack::tcp::{SegmentRef, TcpConfig, TcpListener, TcpSocket};
use doqlab_netstack::tls::{SessionTicket, TlsClient, TlsConfig, TlsServer};
use doqlab_simnet::alloc_count::thread_allocations;
use doqlab_simnet::{Ipv4Addr, SimTime, SocketAddr};
use std::hint::black_box;
use std::sync::Arc;

/// One more DoH query and answer on an established connection may not
/// allocate more than this.
const DOH_EXCHANGE_BUDGET: u64 = 4;

/// A 47-byte DNS query and a 95-byte answer (DoH bodies), and the
/// same length-prefixed for DoTCP and DoT.
const QUERY: &[u8] = FRAMED_QUERY.split_at(2).1;
const ANSWER: &[u8] = FRAMED_ANSWER.split_at(2).1;
const FRAMED_QUERY: [u8; 49] = framed(0x2f);
const FRAMED_ANSWER: [u8; 97] = framed(0x5f);

const fn framed<const N: usize>(fill: u8) -> [u8; N] {
    let mut out = [fill; N];
    out[0] = 0;
    out[1] = (N - 2) as u8;
    out
}

/// Allocations on this thread while `f` runs.
fn allocs_of<R>(f: impl FnOnce() -> R) -> u64 {
    let before = thread_allocations();
    black_box(f());
    thread_allocations() - before
}

fn sa(h: u8, port: u16) -> SocketAddr {
    SocketAddr::new(Ipv4Addr::new(10, 0, 0, h), port)
}

fn tls_config(alpn: &[u8]) -> Arc<TlsConfig> {
    Arc::new(TlsConfig {
        server_id: 7,
        alpn: vec![alpn.to_vec()],
        ..TlsConfig::default()
    })
}

/// Which application protocol rides the TCP connection.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Proto {
    DoTcp,
    DoT,
    DoH,
}

/// The client end: a TCP socket with TLS and HTTP/2 on top as `proto`
/// needs, pumped like `doqlab-dox`'s clients pump theirs.
struct Client {
    tcp: TcpSocket,
    tls: Option<TlsClient>,
    tls_started: bool,
    h2: Option<H2Connection>,
    /// Application bytes (DoTCP, DoT) or response bodies (DoH) received.
    got: Vec<u8>,
}

impl Client {
    fn pump(&mut self) {
        let now = SimTime::ZERO;
        let got = &mut self.got;
        let Some(tls) = &mut self.tls else {
            self.tcp.recv_with(|data| got.extend_from_slice(data));
            return;
        };
        if self.tcp.is_established() && !self.tls_started {
            self.tls_started = true;
            tls.start(now);
        }
        self.tcp.recv_with(|data| tls.read_wire(now, data));
        match &mut self.h2 {
            None => tls.read_app_with(|plain| got.extend_from_slice(plain)),
            Some(h2) => {
                tls.read_app_with(|plain| h2.read_wire(plain));
                h2.messages_with(|m| got.extend_from_slice(m.body));
                h2.take_output_with(|out| tls.write_app(out));
            }
        }
        let tcp = &mut self.tcp;
        tls.take_output_with(|wire| tcp.send(wire));
    }

    /// Send one query (DoTCP and DoT frame it; DoH posts it).
    fn query(&mut self) {
        match (&mut self.tls, &mut self.h2) {
            (None, _) => self.tcp.send(&FRAMED_QUERY),
            (Some(tls), None) => tls.write_app(&FRAMED_QUERY),
            (Some(_), Some(h2)) => {
                h2.send_request(&doh_request_headers("dns.example", "47"), QUERY);
            }
        }
    }
}

/// The server end: a listener with one TLS engine and HTTP/2 endpoint
/// for its single peer, answering every query.
struct Server {
    listener: TcpListener,
    proto: Proto,
    tls: Option<TlsServer>,
    h2: Option<H2Connection>,
    got: Vec<u8>,
}

impl Server {
    fn pump(&mut self, peer: SocketAddr) {
        let now = SimTime::ZERO;
        let Some(sock) = self.listener.connection(peer) else {
            return;
        };
        let got = &mut self.got;
        let Some(tls) = &mut self.tls else {
            sock.recv_with(|data| got.extend_from_slice(data));
            if got.len() == FRAMED_QUERY.len() {
                got.clear();
                sock.send(&FRAMED_ANSWER);
            }
            return;
        };
        sock.recv_with(|data| tls.read_wire(now, data));
        match &mut self.h2 {
            None => {
                tls.read_app_with(|plain| got.extend_from_slice(plain));
                if got.len() == FRAMED_QUERY.len() {
                    got.clear();
                    tls.write_app(&FRAMED_ANSWER);
                }
            }
            Some(h2) => {
                tls.read_app_with(|plain| h2.read_wire(plain));
                let mut streams = [0u32; 4];
                let mut n = 0;
                h2.messages_with(|m| {
                    streams[n] = m.stream_id;
                    n += 1;
                });
                for &stream in &streams[..n] {
                    h2.send_response(stream, &doh_response_headers("95"), ANSWER);
                }
                h2.take_output_with(|out| tls.write_app(out));
            }
        }
        tls.take_output_with(|wire| sock.send(wire));
    }
}

/// A connected pair for `proto`, the TLS client resuming `ticket`.
fn pair(proto: Proto, ticket: Option<SessionTicket>) -> (Client, Server) {
    let alpn: &[u8] = if proto == Proto::DoH { b"h2" } else { b"dot" };
    let tls = proto != Proto::DoTcp;
    let h2 = proto == Proto::DoH;
    let mut tcp = TcpSocket::client(sa(1, 40000), sa(2, 853), 1, TcpConfig::default());
    tcp.open(SimTime::ZERO);
    let client = Client {
        tcp,
        tls: tls.then(|| TlsClient::new(tls_config(alpn), ticket)),
        tls_started: false,
        h2: h2.then(H2Connection::client),
        got: Vec::new(),
    };
    let server = Server {
        listener: TcpListener::new(sa(2, 853), TcpConfig::default()),
        proto,
        tls: tls.then(|| TlsServer::new(tls_config(alpn))),
        h2: h2.then(H2Connection::server),
        got: Vec::new(),
    };
    (client, server)
}

/// Carry segments both ways until the client has the answer.
fn exchange(client: &mut Client, server: &mut Server) {
    let now = SimTime::ZERO;
    let peer = client.tcp.local;
    let want = match server.proto {
        Proto::DoH => ANSWER.len(),
        _ => FRAMED_ANSWER.len(),
    };
    client.got.clear();
    client.query();
    for _ in 0..16 {
        client.pump();
        let listener = &mut server.listener;
        client.tcp.poll_transmit_with(now, |seg| {
            listener.on_segment(now, peer, SegmentRef::decode(&seg).expect("a segment"));
        });
        server.pump(peer);
        let tcp = &mut client.tcp;
        server.listener.poll_transmit_with(now, |_, seg| {
            tcp.on_segment(now, SegmentRef::decode(&seg).expect("a segment"));
        });
        client.pump();
        if client.got.len() == want {
            return;
        }
    }
    panic!("the exchange did not complete");
}

/// A fresh connection carrying one query and answer; returns the pair
/// and any ticket the client was issued.
fn fresh(proto: Proto, ticket: Option<SessionTicket>) -> (Client, Server, Option<SessionTicket>) {
    let (mut client, mut server) = pair(proto, ticket);
    exchange(&mut client, &mut server);
    let ticket = client.tls.as_mut().and_then(|t| t.take_tickets().pop());
    (client, server, ticket)
}

#[test]
fn dotcp_exchange_allocations_are_pinned() {
    drop(fresh(Proto::DoTcp, None));
    // The listener's connection slot, both sockets' send rings and
    // receive buffers, and the two buffers the test collects bytes in.
    // Segments are pooled payloads; nothing is allocated per segment.
    let n = allocs_of(|| fresh(Proto::DoTcp, None));
    assert_eq!(n, 7);
}

#[test]
fn dot_exchange_allocations_are_pinned() {
    let (_, _, ticket) = fresh(Proto::DoT, None);
    let ticket = ticket.expect("the server issues a ticket");
    drop(fresh(Proto::DoT, Some(ticket.clone())));
    // The DoTCP costs plus both TLS engines' output, plaintext and
    // reassembly buffers, the negotiated ALPN and the issued ticket.
    let full = allocs_of(|| fresh(Proto::DoT, None));
    let resumed = allocs_of(|| fresh(Proto::DoT, Some(ticket.clone())));
    assert_eq!((full, resumed), (28, 29));
}

#[test]
fn doh_exchange_allocations_are_pinned() {
    drop(fresh(Proto::DoH, None));
    // The DoT costs plus, per HTTP/2 endpoint, its output, one stream's
    // header list and body, and the HPACK tables on both sides.
    let n = allocs_of(|| fresh(Proto::DoH, None));
    assert_eq!(n, 55);
}

#[test]
fn a_doh_exchange_on_an_established_connection_stays_small() {
    let (mut client, mut server, _) = fresh(Proto::DoH, None);
    // Warm-up: the first exchanges size the connection's buffers.
    for _ in 0..3 {
        exchange(&mut client, &mut server);
    }
    // Every buffer on the path keeps its capacity and the stream's
    // assembly is reused.
    let one = allocs_of(|| exchange(&mut client, &mut server));
    assert_eq!(one, 0);
    assert!(one <= DOH_EXCHANGE_BUDGET);
}
