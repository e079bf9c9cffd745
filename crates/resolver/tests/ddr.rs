//! DDR (RFC 9462) tests: resolvers advertise their encrypted
//! transports via `_dns.resolver.arpa`/SVCB — the upgrade-discovery
//! path §4 of the paper describes for DoH3.

use doqlab_dnswire::{Message, Name, RData, RecordType, SvcParam};
use doqlab_dox::{ClientConfig, DnsClientHost, DnsTransport, ServerConfig};
use doqlab_resolver::{RecursionModel, ResolverHost};
use doqlab_simnet::path::FixedPathModel;
use doqlab_simnet::{Duration, Ipv4Addr, SimTime, Simulator, SocketAddr};

fn ddr_alpns(server: ServerConfig) -> Vec<String> {
    let resolver_ip = server.ip;
    let client_ip = Ipv4Addr::new(10, 0, 0, 1);
    let mut sim = Simulator::new(5, Box::new(FixedPathModel::new(Duration::from_millis(10))));
    sim.add_host(
        Box::new(ResolverHost::new(server, RecursionModel::default())),
        &[resolver_ip],
    );
    let client = DnsClientHost::new(
        DnsTransport::DoUdp,
        SocketAddr::new(client_ip, 40_000),
        SocketAddr::new(resolver_ip, 53),
        &ClientConfig::default(),
    );
    let cid = sim.add_host(Box::new(client), &[client_ip]);
    let q = Message::query(
        1,
        Name::parse("_dns.resolver.arpa").unwrap(),
        RecordType::Svcb,
    );
    sim.with_host::<DnsClientHost, _>(cid, |c, ctx| c.start_with_query(ctx, q.clone()));
    sim.run_until(SimTime::from_secs(5));
    let client = sim.host::<DnsClientHost>(cid);
    let (_, resp) = client.responses.first().expect("DDR answered").clone();
    let mut alpns = Vec::new();
    for rr in &resp.answers {
        if let RData::Svcb { params, .. } = &rr.rdata {
            for p in params {
                if let SvcParam::Alpn(list) = p {
                    for a in list {
                        alpns.push(String::from_utf8(a.clone()).unwrap());
                    }
                }
            }
        }
    }
    alpns
}

#[test]
fn study_era_resolver_advertises_doq_doh_dot_but_not_h3() {
    let alpns = ddr_alpns(ServerConfig::default());
    assert!(alpns.contains(&"doq".to_string()));
    assert!(alpns.contains(&"h2".to_string()));
    assert!(alpns.contains(&"dot".to_string()));
    assert!(
        !alpns.contains(&"h3".to_string()),
        "DoH3 not deployed yet: {alpns:?}"
    );
}

#[test]
fn doh3_resolver_includes_h3_like_cloudflare() {
    let alpns = ddr_alpns(ServerConfig {
        supports_doh3: true,
        ..ServerConfig::default()
    });
    assert!(alpns.contains(&"h3".to_string()), "{alpns:?}");
    assert!(alpns.contains(&"doq".to_string()));
}

#[test]
fn doq_only_resolver_advertises_only_doq() {
    let server = ServerConfig {
        supports_doh: false,
        supports_dot: false,
        ..ServerConfig::default()
    };
    let alpns = ddr_alpns(server);
    assert_eq!(alpns, vec!["doq".to_string()]);
}
