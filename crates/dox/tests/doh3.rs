//! End-to-end DoH3 tests (§4 future work): DNS over HTTP/3 against the
//! full server set, compared with DoQ and DoH on the same topology.

use doqlab_dnswire::{Message, Name, RData, RecordType, ResourceRecord};
use doqlab_dox::server::ConnKey;
use doqlab_dox::*;
use doqlab_simnet::path::FixedPathModel;
use doqlab_simnet::*;
use std::any::Any;

fn client_ip() -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, 1)
}

fn resolver_ip() -> Ipv4Addr {
    Ipv4Addr::new(192, 0, 2, 1)
}

struct EchoResolver {
    set: DnsServerSet,
}

impl EchoResolver {
    fn answer(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        for ev in self.set.take_queries() {
            let answer = ResourceRecord::new(
                ev.query.question().unwrap().name.clone(),
                300,
                RData::A([9, 9, 9, 9]),
            );
            let resp = Message::response_to(&ev.query, vec![answer]);
            self.set.respond(now, ev.key, &resp);
        }
        self.set.poll(now, out);
    }
}

impl Host for EchoResolver {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let mut out = Vec::new();
        self.set.on_packet(ctx.now, &pkt, &mut out);
        self.answer(ctx.now, &mut out);
        for p in out {
            ctx.send(p);
        }
    }
    fn on_wakeup(&mut self, ctx: &mut Ctx<'_>) {
        let mut out = Vec::new();
        self.set.poll(ctx.now, &mut out);
        self.answer(ctx.now, &mut out);
        for p in out {
            ctx.send(p);
        }
    }
    fn next_wakeup(&self) -> Option<SimTime> {
        self.set.next_timeout()
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn run_query(
    transport: DnsTransport,
    server_cfg: ServerConfig,
    client_cfg: ClientConfig,
) -> (Option<f64>, f64, SessionState, usize) {
    let mut sim = Simulator::new(11, Box::new(FixedPathModel::new(Duration::from_millis(25))));
    sim.enable_trace();
    let resolver = EchoResolver {
        set: DnsServerSet::new(server_cfg),
    };
    sim.add_host(Box::new(resolver), &[resolver_ip()]);
    let local = SocketAddr::new(client_ip(), 40_000);
    let remote = SocketAddr::new(resolver_ip(), transport.port());
    let client = DnsClientHost::new(transport, local, remote, &client_cfg);
    let cid = sim.add_host(Box::new(client), &[client_ip()]);
    let q = Message::query(0x0D0A, Name::parse("google.com").unwrap(), RecordType::A);
    sim.with_host::<DnsClientHost, _>(cid, |c, ctx| c.start_with_query(ctx, q.clone()));
    sim.run_until(SimTime::from_secs(10));
    let total_bytes = {
        let t = sim.trace().unwrap();
        t.total_bytes(local, remote) + t.total_bytes(remote, local)
    };
    let client = sim.host_mut::<DnsClientHost>(cid);
    assert!(!client.responses.is_empty(), "{transport}: no response");
    let (at, msg) = client.responses[0].clone();
    assert_eq!(msg.header.id, 0x0D0A);
    assert_eq!(msg.answers.len(), 1);
    let hs = client.handshake_time().map(|d| d.as_secs_f64() * 1000.0);
    let session = client.session_state();
    (hs, at.as_millis_f64(), session, total_bytes)
}

fn doh3_server() -> ServerConfig {
    ServerConfig {
        supports_doh3: true,
        ..ServerConfig::default()
    }
}

#[test]
fn doh3_resolves_like_doq_round_trips() {
    let (hs, at, session, _) =
        run_query(DnsTransport::DoH3, doh3_server(), ClientConfig::default());
    // QUIC handshake 1 RTT, request/response 1 RTT.
    assert!((hs.unwrap() - 50.0).abs() < 1.0, "handshake {hs:?}");
    assert!((at - 100.0).abs() < 1.0, "resolve at {at}");
    assert!(session.tls_ticket.is_some());
    assert!(session.quic_token.is_some());
}

#[test]
fn doh3_matches_doq_and_beats_doh_on_time() {
    let (_, doh3_at, _, _) = run_query(DnsTransport::DoH3, doh3_server(), ClientConfig::default());
    let (_, doq_at, _, _) = run_query(DnsTransport::DoQ, doh3_server(), ClientConfig::default());
    let (_, doh_at, _, _) = run_query(DnsTransport::DoH, doh3_server(), ClientConfig::default());
    assert!(
        (doh3_at - doq_at).abs() < 1.0,
        "DoH3 {doh3_at} vs DoQ {doq_at}"
    );
    assert!(
        (doh_at - doh3_at - 50.0).abs() < 1.0,
        "DoH {doh_at} vs DoH3 {doh3_at}"
    );
}

#[test]
fn doh3_costs_more_bytes_than_doq() {
    // Same transport, but HTTP framing + QPACK headers per query.
    let (_, _, _, doh3_bytes) =
        run_query(DnsTransport::DoH3, doh3_server(), ClientConfig::default());
    let (_, _, _, doq_bytes) = run_query(DnsTransport::DoQ, doh3_server(), ClientConfig::default());
    assert!(
        doh3_bytes > doq_bytes + 100,
        "DoH3 {doh3_bytes} vs DoQ {doq_bytes}"
    );
}

#[test]
fn doh3_resumption_and_0rtt() {
    // Capture a ticket, resume with 0-RTT on an upgraded resolver:
    // the query rides the first flight, 1 RTT total like DoUDP.
    let server = ServerConfig {
        enable_0rtt: true,
        ..doh3_server()
    };
    let (_, _, session, _) = run_query(DnsTransport::DoH3, server.clone(), ClientConfig::default());
    assert!(session.tls_ticket.as_ref().unwrap().allows_early_data);
    let cfg = ClientConfig {
        session,
        enable_0rtt: true,
        ..ClientConfig::default()
    };
    let (_, at, _, _) = run_query(DnsTransport::DoH3, server, cfg);
    assert!((at - 50.0).abs() < 1.0, "0-RTT DoH3 resolve at {at}");
}

#[test]
fn default_resolvers_do_not_speak_doh3() {
    // The study-era population: UDP 443 is silent (only Cloudflare had
    // deployed DoH3) — the client times out and fails.
    let mut sim = Simulator::new(3, Box::new(FixedPathModel::new(Duration::from_millis(25))));
    let resolver = EchoResolver {
        set: DnsServerSet::new(ServerConfig::default()),
    };
    sim.add_host(Box::new(resolver), &[resolver_ip()]);
    let client = DnsClientHost::new(
        DnsTransport::DoH3,
        SocketAddr::new(client_ip(), 40_000),
        SocketAddr::new(resolver_ip(), 443),
        &ClientConfig::default(),
    );
    let cid = sim.add_host(Box::new(client), &[client_ip()]);
    let q = Message::query(1, Name::parse("x.y").unwrap(), RecordType::A);
    sim.with_host::<DnsClientHost, _>(cid, |c, ctx| c.start_with_query(ctx, q.clone()));
    sim.run_until(SimTime::from_secs(40));
    assert!(sim.host::<DnsClientHost>(cid).responses.is_empty());
}

#[test]
fn doh3_and_doq_coexist_on_one_resolver() {
    let server = doh3_server();
    let (_, _, _, _) = run_query(DnsTransport::DoQ, server.clone(), ClientConfig::default());
    let (_, _, _, _) = run_query(DnsTransport::DoH3, server.clone(), ClientConfig::default());
    let (_, _, _, _) = run_query(DnsTransport::DoH, server, ClientConfig::default());
}

#[test]
fn doh3_key_is_distinct_conn_key() {
    // Sanity: the ConnKey variants stay disjoint for routing.
    let a = ConnKey::Doh3 {
        peer: SocketAddr::new(client_ip(), 1),
        stream: 0,
    };
    let b = ConnKey::Doq {
        peer: SocketAddr::new(client_ip(), 1),
        port: 443,
        stream: 0,
    };
    assert_ne!(a, b);
}
