//! Mobility and failover: client hosts crossing a wifi→cellular address
//! change mid-query, and the cross-transport happy-eyeballs ladder
//! ([`FailoverPolicy`]) racing fallback transports against a primary
//! that cannot deliver.

use doqlab_dnswire::{Message, Name, RData, RecordType, ResourceRecord};
use doqlab_dox::*;
use doqlab_simnet::path::FixedPathModel;
use doqlab_simnet::*;
use std::any::Any;

const ONE_WAY_MS: u64 = 25;

fn wifi_ip() -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, 1)
}

fn cellular_ip() -> Ipv4Addr {
    Ipv4Addr::new(10, 99, 0, 1)
}

fn resolver_ip() -> Ipv4Addr {
    Ipv4Addr::new(192, 0, 2, 1)
}

/// A resolver host answering every query instantly from "cache".
struct EchoResolver {
    set: DnsServerSet,
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

impl EchoResolver {
    fn answer(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        for ev in self.set.take_queries() {
            let answer = ResourceRecord::new(
                ev.query.question().unwrap().name.clone(),
                300,
                RData::A([93, 184, 216, 34]),
            );
            let resp = Message::response_to(&ev.query, vec![answer]);
            self.set.respond(now, ev.key, &resp);
        }
        self.set.poll(now, out);
    }
}

fn query() -> Message {
    Message::query(0x1234, Name::parse("google.com").unwrap(), RecordType::A)
}

/// Simulator + resolver + one client host on the wifi address.
fn setup(
    transport: DnsTransport,
    server_cfg: ServerConfig,
    client_cfg: &ClientConfig,
) -> (Simulator, HostId) {
    let mut sim = Simulator::new(
        7,
        Box::new(FixedPathModel::new(Duration::from_millis(ONE_WAY_MS))),
    );
    let resolver = EchoResolver {
        set: DnsServerSet::new(server_cfg),
    };
    sim.add_host(Box::new(resolver), &[resolver_ip()]);
    let local = SocketAddr::new(wifi_ip(), 40_000);
    let remote = SocketAddr::new(resolver_ip(), transport.port());
    let client = DnsClientHost::new(transport, local, remote, client_cfg);
    let cid = sim.add_host(Box::new(client), &[wifi_ip()]);
    sim.with_host::<DnsClientHost, _>(cid, |c, ctx| c.start_with_query(ctx, query()));
    (sim, cid)
}

/// Move the client from wifi to cellular: simulator address map first,
/// then the endpoint itself.
fn rebind(sim: &mut Simulator, cid: HostId, profile: PathProfile) {
    sim.rebind_host(cid, wifi_ip(), cellular_ip(), profile);
    sim.with_host::<DnsClientHost, _>(cid, |c, ctx| c.rebind_local(ctx, cellular_ip()));
}

#[test]
fn doq_survives_mid_query_rebind() {
    let (mut sim, cid) = setup(
        DnsTransport::DoQ,
        ServerConfig::default(),
        &ClientConfig::default(),
    );
    // Handshake completes at 50 ms, query goes out, answer lands at
    // 100 ms. Rebind at 60 ms: the answer is already in flight to the
    // wifi address and is lost with it.
    sim.run_until(SimTime::from_millis(60));
    rebind(&mut sim, cid, PathProfile::default());
    sim.run_until(SimTime::from_secs(10));
    let c = sim.host_mut::<DnsClientHost>(cid);
    assert!(
        !c.responses.is_empty(),
        "DoQ must migrate and recover the lost answer"
    );
    assert_eq!(c.responses[0].1.header.id, 0x1234);
    assert!(c.failure().is_none());
    assert_eq!(c.reconnects(), 0, "migration, not reconnection");
}

#[test]
fn doq_survives_rebind_onto_slower_path() {
    let (mut sim, cid) = setup(
        DnsTransport::DoQ,
        ServerConfig::default(),
        &ClientConfig::default(),
    );
    sim.run_until(SimTime::from_millis(60));
    rebind(
        &mut sim,
        cid,
        PathProfile {
            extra_delay: Duration::from_millis(30),
            loss: None,
        },
    );
    sim.run_until(SimTime::from_secs(10));
    let c = sim.host_mut::<DnsClientHost>(cid);
    assert!(!c.responses.is_empty(), "survives onto the cellular path");
    assert!(c.failure().is_none());
}

#[test]
fn doudp_and_dot_are_stranded_by_rebind() {
    for transport in [DnsTransport::DoUdp, DnsTransport::DoT] {
        let cfg = ClientConfig {
            query_deadline: Some(Duration::from_secs(8)),
            ..ClientConfig::default()
        };
        let (mut sim, cid) = setup(transport, ServerConfig::default(), &cfg);
        // For DoT the handshake is done at 100 ms and the answer lands
        // at 150 ms; rebind at 110 ms catches it in flight. For DoUDP
        // the answer would land at 50 ms, so rebind at 40 ms.
        let at = if transport == DnsTransport::DoUdp {
            40
        } else {
            110
        };
        sim.run_until(SimTime::from_millis(at));
        rebind(&mut sim, cid, PathProfile::default());
        sim.run_until(SimTime::from_secs(20));
        let c = sim.host_mut::<DnsClientHost>(cid);
        assert!(
            c.responses.is_empty(),
            "{transport}: socket is stranded on the wifi address"
        );
        assert!(c.failure().is_some(), "{transport}: classified as failed");
    }
}

#[test]
fn failover_ladder_rescues_a_stranded_primary() {
    // DoT primary, stranded by the rebind; the ladder's DoUDP rung
    // dials from the *new* address at the stagger and wins.
    let cfg = ClientConfig {
        failover: Some(FailoverPolicy {
            ladder: vec![DnsTransport::DoUdp],
            stagger: std::time::Duration::from_millis(300),
        }),
        ..ClientConfig::default()
    };
    let (mut sim, cid) = setup(DnsTransport::DoT, ServerConfig::default(), &cfg);
    sim.run_until(SimTime::from_millis(110));
    rebind(&mut sim, cid, PathProfile::default());
    sim.run_until(SimTime::from_secs(20));
    let c = sim.host_mut::<DnsClientHost>(cid);
    assert!(!c.responses.is_empty(), "the fallback rung must answer");
    assert_eq!(c.winner(), Some(DnsTransport::DoUdp));
    assert_eq!(c.rungs_dialed(), 1);
    assert!(
        c.wasted_bytes() > 0,
        "the stranded DoT connection's bytes are waste"
    );
    assert!(c.failure().is_none());
    // DoUDP resolves one RTT after the 300 ms stagger.
    let at = c.responses[0].0.as_millis_f64();
    assert!((at - 350.0).abs() < 1.0, "rescued at {at} ms");
}

#[test]
fn failover_stays_quiet_when_the_primary_wins() {
    let cfg = ClientConfig {
        failover: Some(FailoverPolicy::doq_ladder(
            std::time::Duration::from_millis(500),
        )),
        ..ClientConfig::default()
    };
    let (mut sim, cid) = setup(DnsTransport::DoQ, ServerConfig::default(), &cfg);
    sim.run_until(SimTime::from_secs(5));
    let c = sim.host_mut::<DnsClientHost>(cid);
    assert!(!c.responses.is_empty());
    assert_eq!(c.winner(), Some(DnsTransport::DoQ));
    assert_eq!(c.rungs_dialed(), 0, "no rung dialed before the stagger");
    assert_eq!(c.wasted_bytes(), 0);
}

#[test]
fn failover_races_past_an_unsupported_primary() {
    // The resolver speaks no DoQ: the primary's handshake can never
    // complete, and the DoT rung dialed at the stagger answers.
    let server = ServerConfig {
        supports_doq: false,
        ..ServerConfig::default()
    };
    let cfg = ClientConfig {
        failover: Some(FailoverPolicy::doq_ladder(
            std::time::Duration::from_millis(250),
        )),
        ..ClientConfig::default()
    };
    let (mut sim, cid) = setup(DnsTransport::DoQ, server, &cfg);
    sim.run_until(SimTime::from_secs(20));
    let c = sim.host_mut::<DnsClientHost>(cid);
    assert!(!c.responses.is_empty(), "a fallback rung must answer");
    assert_eq!(c.winner(), Some(DnsTransport::DoT));
    assert!(c.wasted_bytes() > 0, "the DoQ attempt's bytes are waste");
    assert!(c.failure().is_none());
    // DoT from a standing start: 250 ms stagger + 2 RTT handshake +
    // 1 RTT query.
    let at = c.responses[0].0.as_millis_f64();
    assert!((at - 400.0).abs() < 1.0, "rescued at {at} ms");
}

#[test]
fn exhausted_ladder_reports_the_primary_failure() {
    // Nothing at all listens: the primary and every rung fail, and the
    // host reports a terminal failure instead of hanging.
    let server = ServerConfig {
        supports_udp: false,
        supports_dot: false,
        supports_doq: false,
        ..ServerConfig::default()
    };
    let cfg = ClientConfig {
        failover: Some(FailoverPolicy::doq_ladder(
            std::time::Duration::from_millis(250),
        )),
        query_deadline: Some(Duration::from_secs(30)),
        ..ClientConfig::default()
    };
    let (mut sim, cid) = setup(DnsTransport::DoQ, server, &cfg);
    sim.run_until(SimTime::from_secs(120));
    let c = sim.host_mut::<DnsClientHost>(cid);
    assert!(c.responses.is_empty());
    assert!(c.failure().is_some(), "the race must reach a verdict");
    assert_eq!(c.winner(), None);
    assert_eq!(c.rungs_dialed(), 2, "every rung was tried");
    assert!(c.wasted_bytes() > 0, "everything sent was waste");
}
