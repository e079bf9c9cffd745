//! # doqlab-resolver — the recursive resolver substrate
//!
//! The paper measures 313 public resolvers that support all five DNS
//! transports ("verified DoX resolvers"). This crate provides:
//!
//! * [`cache`] — a TTL-bounded record cache. The study's methodology
//!   warms it with an identical query so that the measured query is
//!   answered without recursion; reproducing that warm/measure split
//!   requires a real cache, not a stub.
//! * [`host`] — [`host::ResolverHost`]: a simulator host that terminates
//!   all five transports (via [`doqlab_dox::DnsServerSet`]), answers
//!   from cache, and models recursive lookups to authoritative servers
//!   as a sampled delay.
//! * [`population`] — synthesis of the study's resolver population:
//!   313 DoX resolvers with the paper's continent, AS, TLS-version,
//!   QUIC-version and DoQ-ALPN distributions, plus the wider scan
//!   population behind the discovery funnel (1,216 DoQ resolvers with
//!   partial protocol support, and QUIC hosts that are not DoQ), and
//!   [`population::ClientPopulation`] — the client side: how many
//!   stub-fronted clients a population campaign spreads across its
//!   vantage cohorts.
//! * [`workload`] — deterministic population workloads: Zipf-popularity
//!   query mix over a diurnal non-homogeneous Poisson arrival process.
//! * [`stub`] — [`stub::StubResolverHost`]: the shared stub/forwarder a
//!   client cohort sits behind — one cache (positive + RFC 2308
//!   negative entries), query coalescing, and a pooled upstream
//!   connection.

pub mod cache;
pub mod host;
pub mod population;
pub mod stub;
pub mod workload;

pub use cache::{CacheHit, CachedAnswer, DnsCache};
pub use host::{authoritative_answer, ip_for_domain, ip_for_name, RecursionModel, ResolverHost};
pub use population::{
    synthesize_dox_population, synthesize_scan_population, ClientPopulation, ResolverProfile,
    ScannedHost,
};
pub use stub::{StubResolverHost, StubStats};
pub use workload::{WorkloadGen, WorkloadSpec};
