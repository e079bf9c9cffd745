//! Pins the allocation budget of the QUIC and TLS wire path: a full and
//! a resumed QUIC handshake that carry one DoQ query and its answer
//! through a `QuicServer`, a full and a resumed TLS 1.3 handshake, and
//! one more DoQ exchange on an established connection. Each datagram is
//! one allocation of its exact size, dropped after delivery the way the
//! simulator moves it, and each count is taken after a warm-up run, so
//! it is the steady-state cost. The counts are exact: any new
//! per-packet, per-frame or per-message allocation shows up here first.
//!
//! Only built under the `count-allocs` feature (which installs the
//! counting global allocator). Run with:
//!
//! ```text
//! cargo test --release -p doqlab-bench --features count-allocs --test zero_alloc_transport
//! ```
#![cfg(feature = "count-allocs")]

use doqlab_netstack::quic::{QuicConfig, QuicConnection, QuicServer, QUIC_V1};
use doqlab_netstack::tls::{SessionTicket, TlsClient, TlsConfig, TlsServer};
use doqlab_simnet::alloc_count::thread_allocations;
use doqlab_simnet::{Ipv4Addr, SimRng, SimTime, SocketAddr};
use std::hint::black_box;
use std::sync::Arc;

/// One more query and answer on an established DoQ connection may not
/// allocate more than this.
const EXCHANGE_BUDGET: u64 = 12;

/// Allocations on this thread while `f` runs.
fn allocs_of<R>(f: impl FnOnce() -> R) -> u64 {
    let before = thread_allocations();
    black_box(f());
    thread_allocations() - before
}

fn sa(h: u8, port: u16) -> SocketAddr {
    SocketAddr::new(Ipv4Addr::new(10, 0, 0, h), port)
}

fn tls_config() -> Arc<TlsConfig> {
    Arc::new(TlsConfig {
        server_id: 7,
        alpn: vec![b"dot".to_vec()],
        ..TlsConfig::default()
    })
}

/// A TLS 1.3 handshake, resumed when given a ticket; returns the
/// tickets the server issued.
fn tls_handshake(cfg: &Arc<TlsConfig>, ticket: Option<SessionTicket>) -> Vec<SessionTicket> {
    let mut client = TlsClient::new(Arc::clone(cfg), ticket);
    let mut server = TlsServer::new(Arc::clone(cfg));
    client.start(SimTime::ZERO);
    for _ in 0..8 {
        let out = client.take_output();
        if !out.is_empty() {
            server.read_wire(SimTime::ZERO, &out);
        }
        let out = server.take_output();
        if out.is_empty() && client.is_connected() && server.is_connected() {
            break;
        }
        if !out.is_empty() {
            client.read_wire(SimTime::ZERO, &out);
        }
    }
    assert!(client.is_connected(), "TLS handshake did not complete");
    client.take_tickets()
}

fn quic_config() -> Arc<QuicConfig> {
    Arc::new(QuicConfig {
        tls: TlsConfig {
            server_id: 7,
            alpn: vec![b"doq".to_vec()],
            ..TlsConfig::default()
        },
        ..QuicConfig::default()
    })
}

/// Carry datagrams both ways until `done` holds.
fn shuttle(
    client: &mut QuicConnection,
    server: &mut QuicServer,
    mut done: impl FnMut(&mut QuicConnection, &mut QuicServer) -> bool,
) {
    let local = client.local;
    for _ in 0..12 {
        let mut to_server = Vec::new();
        client.poll_transmit_with(SimTime::ZERO, |d| to_server.push(d));
        for d in to_server {
            server.handle_datagram(SimTime::ZERO, local, &d);
        }
        let mut to_client = Vec::new();
        server.poll_transmit_with(SimTime::ZERO, |_, d| to_client.push(d));
        for d in to_client {
            client.handle_datagram(SimTime::ZERO, &d);
        }
        if done(client, server) {
            return;
        }
    }
    panic!("QUIC exchange did not complete");
}

/// Send one query on a new stream and wait for the answer.
fn exchange(client: &mut QuicConnection, server: &mut QuicServer, scratch: &mut Vec<u8>) {
    let stream = client.open_bi();
    client.stream_send(stream, b"query", true);
    let local = client.local;
    shuttle(client, server, |client, server| {
        if let Some(conn) = server.connection(local) {
            while let Some(s) = conn.next_new_peer_stream() {
                scratch.clear();
                conn.stream_recv_into(s, scratch);
                if !scratch.is_empty() {
                    conn.stream_send(s, b"answer", true);
                }
            }
        }
        scratch.clear();
        client.stream_recv_into(stream, scratch) && !scratch.is_empty()
    });
}

/// A QUIC handshake carrying one DoQ-sized query and answer, resumed
/// when given a ticket; returns the connection pair.
fn quic_handshake(
    cfg: &Arc<QuicConfig>,
    ticket: Option<SessionTicket>,
) -> (QuicConnection, QuicServer) {
    let mut rng = SimRng::new(1);
    let (local, remote) = (sa(1, 40000), sa(2, 853));
    let mut client = QuicConnection::client(
        Arc::clone(cfg),
        local,
        remote,
        QUIC_V1,
        ticket,
        None,
        &mut rng,
        SimTime::ZERO,
    );
    let mut server = QuicServer::new(remote, Arc::clone(cfg));
    let mut scratch = Vec::new();
    exchange(&mut client, &mut server, &mut scratch);
    assert!(client.is_established());
    (client, server)
}

#[test]
fn quic_handshake_allocations_are_pinned() {
    let cfg = quic_config();
    // Warm-up, which also yields the ticket: per-thread state set up on
    // first use stays out of the counts.
    let (mut c, _) = quic_handshake(&cfg, None);
    let ticket = c.take_tickets().pop().expect("the server issues a ticket");
    drop(quic_handshake(&cfg, Some(ticket.clone())));

    // One allocation per datagram; the rest is connection state on both
    // ends (stream and packet-number maps, send and receive buffers, the
    // negotiated ALPN, the ticket and token the client keeps).
    let full = allocs_of(|| quic_handshake(&cfg, None));
    let resumed = allocs_of(|| quic_handshake(&cfg, Some(ticket.clone())));
    assert_eq!((full, resumed), (76, 74));
}

#[test]
fn tls_handshake_allocations_are_pinned() {
    let cfg = tls_config();
    let ticket = tls_handshake(&cfg, None).pop().expect("a ticket");
    // Output buffers handed to the caller, reassembly tails, the
    // negotiated ALPN and the issued ticket; records and messages are
    // encoded in place (each record reserves its room first) and
    // decoded by borrowing.
    let full = allocs_of(|| tls_handshake(&cfg, None));
    let resumed = allocs_of(|| tls_handshake(&cfg, Some(ticket.clone())));
    assert_eq!((full, resumed), (12, 12));
}

#[test]
fn an_exchange_on_an_established_connection_stays_small() {
    let cfg = quic_config();
    let (mut client, mut server) = quic_handshake(&cfg, None);
    let mut scratch = Vec::new();
    // Warm-up: the first exchanges grow the scratch buffer.
    for _ in 0..3 {
        exchange(&mut client, &mut server, &mut scratch);
    }
    // Three datagrams and the new stream's state on both ends.
    let one = allocs_of(|| exchange(&mut client, &mut server, &mut scratch));
    assert_eq!(one, 9);
    assert!(one <= EXCHANGE_BUDGET);
}
