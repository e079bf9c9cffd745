//! Unit spans and exact counts: the per-layer numbers of a workload.
//!
//! [`replica`] re-runs a workload's campaign through the engine with the
//! public `run_*_unit` functions wrapped in per-unit spans (start,
//! duration, worker, transport), so time can be attributed to units,
//! transports and idle workers. The replica must produce the CLI's
//! samples bit for bit; the digest check enforces it.
//!
//! [`run_spans`] takes every time in `perfbench`, with the system
//! allocator. It interleaves CLI iterations with metrics on and off and
//! traced iterations, so the tracing and telemetry overheads compare
//! rates taken side by side. [`run_counts`] runs in `perfbench_counts`
//! under the counting allocator and times nothing: one replica on one
//! worker, where arena reuse follows one fixed unit order, so events,
//! protocol counters and allocations repeat exactly.

use crate::{
    finish, median, quantile, timed_cli, warm_up, workers, Args, Metric, Output, Tally, Workload,
    MIN_ITERATIONS,
};
use doqlab_core::dox::DnsTransport;
use doqlab_core::measure::engine::{self, UnitGrid};
use doqlab_core::measure::impairments::run_impairment_unit;
use doqlab_core::measure::mobility::run_mobility_unit;
use doqlab_core::measure::populations::{
    cohort_resolver, run_population_unit, PopulationsCampaign, POPULATION_TRANSPORTS,
    POPULATION_VPS,
};
use doqlab_core::measure::single_query::{run_unit_custom, SingleQueryCampaign, UnitOptions};
use doqlab_core::measure::whatif::run_whatif_unit;
use doqlab_core::measure::{vantage_points, ImpairmentsCampaign, MobilityCampaign, WhatifCampaign};
use doqlab_core::simnet::Simulator;
use doqlab_core::telemetry::metrics::{self, Counter};
use doqlab_core::Study;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Allocations on the calling thread so far; always 0 without the
/// counting allocator, which only `perfbench_counts` links.
fn thread_allocations() -> u64 {
    #[cfg(feature = "count-allocs")]
    return doqlab_core::simnet::alloc_count::thread_allocations();
    #[cfg(not(feature = "count-allocs"))]
    0
}

/// One unit's span. Every span's parent is the engine call that ran it
/// (`engine` numbers the calls of one replica).
#[derive(Debug, Clone, Copy)]
pub struct UnitSpan {
    pub engine: u8,
    pub worker: u32,
    pub transport: DnsTransport,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// A worker's state: its simulator arena and its id for the spans.
struct Worker {
    sim: Simulator,
    id: u32,
}

/// What one replica iteration produced.
pub struct Replica {
    pub output: Output,
    pub spans: Vec<UnitSpan>,
    /// Wall time inside the engine calls (what workers could be busy).
    pub engine_wall: Duration,
    /// Allocations inside the unit calls (0 without the counting
    /// allocator).
    pub allocs: u64,
    /// Units whose missing resolve time carries no failure verdict.
    pub unclassified: usize,
}

/// Drives engine calls for one replica, stamping spans against one
/// epoch.
struct Tracer {
    epoch: Instant,
    threads: usize,
    spans: Vec<UnitSpan>,
    engine_wall: Duration,
    allocs: AtomicU64,
    calls: u8,
}

impl Tracer {
    fn new(threads: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            threads,
            spans: Vec::new(),
            engine_wall: Duration::ZERO,
            allocs: AtomicU64::new(0),
            calls: 0,
        }
    }

    /// `engine::run_units` over `grid` with every unit call wrapped in a
    /// span; `unit` returns the sample and the unit's transport.
    fn run<S: Send>(
        &mut self,
        grid: UnitGrid,
        unit: impl Fn(&mut Simulator, &engine::GridUnit) -> (S, DnsTransport) + Sync,
    ) -> Vec<S> {
        let units = grid.units();
        let next_id = AtomicU32::new(0);
        let (epoch, allocs) = (self.epoch, &self.allocs);
        let engine = self.calls;
        self.calls += 1;
        let start = Instant::now();
        let results = engine::run_units(
            self.threads,
            &units,
            || Worker {
                sim: Simulator::arena(),
                id: next_id.fetch_add(1, Ordering::Relaxed),
            },
            |w, u, _| {
                let before = thread_allocations();
                let t = Instant::now();
                let (sample, transport) = unit(&mut w.sim, u);
                let dur_ns = t.elapsed().as_nanos() as u64;
                allocs.fetch_add(thread_allocations() - before, Ordering::Relaxed);
                let span = UnitSpan {
                    engine,
                    worker: w.id,
                    transport,
                    start_ns: t.duration_since(epoch).as_nanos() as u64,
                    dur_ns,
                };
                (sample, span)
            },
        );
        self.engine_wall += start.elapsed();
        let (samples, spans): (Vec<S>, Vec<UnitSpan>) = results.into_iter().unzip();
        self.spans.extend(spans);
        samples
    }
}

fn sweep_grid(study: &Study, resolvers: usize, regimes: usize) -> UnitGrid {
    UnitGrid {
        vps: vantage_points().len(),
        resolvers,
        pages: regimes,
        transports: DnsTransport::ALL.len(),
        reps: study.scale.repetitions,
    }
}

/// Run `workload`'s campaign as its `Study::run_*` does, unit by unit
/// through the public unit runners, at `threads` workers.
pub fn replica(workload: Workload, study: &Study, threads: usize) -> Replica {
    let scale = &study.scale;
    let population = study.population();
    let resolvers = scale.sample_resolvers(&population);
    let vps = vantage_points();
    let all = DnsTransport::ALL;
    let mut tracer = Tracer::new(threads);
    let mut unclassified = 0;
    let output = match workload {
        Workload::SingleQuery => {
            let mut c = SingleQueryCampaign::new(scale.clone());
            c.seed = study.seed;
            c.use_resumption = study.use_resumption;
            c.enable_0rtt_resolvers = study.zero_rtt_resolvers;
            let outcomes = tracer.run(sweep_grid(study, resolvers.len(), 1), |sim, u| {
                let t = all[u.transport];
                let opts = UnitOptions::default();
                let o =
                    run_unit_custom(sim, &c, &vps[u.vp], resolvers[u.resolver], t, u.rep, &opts);
                (o, t)
            });
            unclassified = outcomes
                .iter()
                .filter(|o| o.sample.resolve_ms.is_none() && o.failure.is_none())
                .count();
            Output::SingleQuery(outcomes.into_iter().map(|o| o.sample).collect())
        }
        Workload::Scenarios => {
            let mut ic = ImpairmentsCampaign::new(scale.clone());
            ic.seed = study.seed;
            ic.use_resumption = study.use_resumption;
            ic.enable_0rtt_resolvers = study.zero_rtt_resolvers;
            let grid = sweep_grid(study, resolvers.len(), ic.regimes.len());
            let impairments = tracer.run(grid, |sim, u| {
                let t = all[u.transport];
                let s =
                    run_impairment_unit(sim, &ic, u.vp, resolvers[u.resolver], u.page, t, u.rep);
                (s, t)
            });
            let mut mc = MobilityCampaign::new(scale.clone());
            mc.seed = study.seed;
            mc.use_resumption = study.use_resumption;
            mc.enable_0rtt_resolvers = study.zero_rtt_resolvers;
            let grid = sweep_grid(study, resolvers.len(), mc.regimes.len());
            let mobility = tracer.run(grid, |sim, u| {
                let t = all[u.transport];
                let s = run_mobility_unit(sim, &mc, u.vp, resolvers[u.resolver], u.page, t, u.rep);
                (s, t)
            });
            let mut wc = WhatifCampaign::new(scale.clone());
            wc.seed = study.seed;
            let grid = sweep_grid(study, resolvers.len(), wc.regimes.len());
            let whatif = tracer.run(grid, |sim, u| {
                let t = all[u.transport];
                let s = run_whatif_unit(sim, &wc, u.vp, resolvers[u.resolver], u.page, t, u.rep);
                (s, t)
            });
            Output::Scenarios(impairments, mobility, whatif)
        }
        Workload::Populations => {
            let mut c = PopulationsCampaign::new(scale.clone());
            c.seed = study.seed;
            let vps = &vps[..POPULATION_VPS.min(vps.len())];
            let grid = UnitGrid {
                vps: vps.len(),
                resolvers: 1,
                pages: c.alphas.len(),
                transports: POPULATION_TRANSPORTS.len(),
                reps: 1,
            };
            let samples = tracer.run(grid, |sim, u| {
                let t = POPULATION_TRANSPORTS[u.transport];
                let vp = &vps[u.vp];
                let r = cohort_resolver(vp, &population);
                (run_population_unit(sim, &c, vp, r, u.page, t, u.rep), t)
            });
            Output::Populations(samples)
        }
    };
    Replica {
        output,
        spans: tracer.spans,
        engine_wall: tracer.engine_wall,
        allocs: tracer.allocs.into_inner(),
        unclassified,
    }
}

/// The highest of p50/p90/p99/p99.9 with at least ten samples beyond
/// it, as a fraction.
pub fn tail_quantile(samples: usize) -> f64 {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|q| samples as f64 * (1.0 - q) >= 10.0)
        .unwrap_or(0.5)
}

/// The spans pass, in `perfbench`. Returns the process exit code.
pub fn run_spans(args: &Args) -> i32 {
    let workload = args.workload();
    let threads = workers();
    let study = workload.study(args.seed, threads);
    let expected = workload.expected_units(&study);
    metrics::set_enabled(true);
    let mut tally = Tally::default();
    metrics::reset();
    let reference = warm_up(workload, &study, expected, &mut tally);

    let mut metrics_on = Vec::new();
    let mut metrics_off = Vec::new();
    let mut traced = Vec::new();
    let mut report_ms = Vec::new();
    let mut idle = Vec::new();
    let mut ns_per_event = Vec::new();
    let mut unit_us = Vec::new();
    let mut by_transport: Vec<Vec<f64>> = vec![Vec::new(); DnsTransport::ALL.len()];
    let mut last_spans = Vec::new();
    let started = Instant::now();
    let mut rounds = 0;
    // A round is one iteration of each kind, in an order that rotates
    // from round to round: untraced with metrics on, untraced with
    // metrics off, traced with metrics on.
    while rounds < MIN_ITERATIONS || started.elapsed().as_secs_f64() < args.seconds {
        for kind in (0..3).map(|k| (rounds + k) % 3) {
            metrics::set_enabled(kind != 1);
            if kind < 2 {
                let rate = timed_cli(workload, &study, expected, reference, &mut tally);
                if kind == 0 {
                    metrics_on.extend(rate);
                } else {
                    metrics_off.extend(rate);
                }
                continue;
            }
            metrics::reset();
            let t = Instant::now();
            let run = catch_unwind(AssertUnwindSafe(|| {
                let r = replica(workload, &study, threads);
                let t_report = Instant::now();
                let text = r.output.render();
                (r, text, t_report.elapsed())
            }));
            let elapsed = t.elapsed().as_secs_f64();
            let Ok((r, text, report)) = run else {
                tally.add_panicked(expected);
                continue;
            };
            std::hint::black_box(text);
            tally.add(&r.output, expected, reference);
            tally.failed += r.unclassified;
            traced.push(r.output.units() as f64 / elapsed);
            report_ms.push(report.as_secs_f64() * 1e3);
            let busy_ns: u64 = r.spans.iter().map(|s| s.dur_ns).sum();
            let events = metrics::snapshot().counter(Counter::SimEvents).max(1);
            ns_per_event.push(busy_ns as f64 / events as f64);
            let capacity = threads as f64 * r.engine_wall.as_nanos() as f64;
            idle.push((1.0 - busy_ns as f64 / capacity).max(0.0));
            for s in &r.spans {
                let us = s.dur_ns as f64 / 1e3;
                unit_us.push(us);
                if let Some(i) = DnsTransport::ALL.iter().position(|t| *t == s.transport) {
                    by_transport[i].push(us);
                }
            }
            last_spans = r.spans;
        }
        rounds += 1;
    }
    metrics::set_enabled(true);

    let tail = tail_quantile(unit_us.len());
    let (on, off, traced) = (
        median(&mut metrics_on),
        median(&mut metrics_off),
        median(&mut traced),
    );
    let mut out = vec![Metric::new(
        "simnet.host_ns_per_event",
        median(&mut ns_per_event),
        "ns",
    )];
    // 0 where the workload runs no unit of the transport.
    out.extend(
        DnsTransport::ALL
            .iter()
            .zip(&mut by_transport)
            .map(|(t, v)| {
                let name = format!("dox.unit_us_p50.{}", t.to_string().to_lowercase());
                Metric::new(name, median(v), "us")
            }),
    );
    out.extend([
        Metric::new("measure.unit_us_p50", median(&mut unit_us), "us"),
        Metric::new("measure.unit_us_tail", quantile(&mut unit_us, tail), "us"),
        Metric::new("measure.unit_us_tail_pct", tail * 100.0, "%"),
        Metric::new("measure.worker_idle_share", median(&mut idle), "ratio"),
        Metric::new("measure.report_ms", median(&mut report_ms), "ms"),
        Metric::new("telemetry.metrics_overhead_share", 1.0 - on / off, "ratio"),
        Metric::new("tracing.units_per_s_traced", traced, "units/s"),
        Metric::new("tracing.units_per_s_untraced", on, "units/s"),
        Metric::new("tracing.overhead_share", 1.0 - traced / on, "ratio"),
    ]);

    if let Some(path) = &args.spans_out {
        if let Err(e) = write_spans(path, &last_spans) {
            eprintln!("perfbench: cannot write spans to {path}: {e}");
            tally.failed += 1;
        }
    }
    eprintln!(
        "{}: {rounds} rounds at {threads} workers, {} unit spans, tail = p{}",
        workload.name(),
        unit_us.len(),
        tail * 100.0
    );
    finish(workload.name(), Some(reference), &tally, &out)
}

/// The counts pass, in `perfbench_counts`: one replica on one worker.
/// Returns the process exit code.
#[cfg(feature = "count-allocs")]
pub fn run_counts(args: &Args) -> i32 {
    let workload = args.workload();
    let study = workload.study(args.seed, 1);
    let expected = workload.expected_units(&study);
    metrics::set_enabled(true);
    metrics::reset();
    let one = replica(workload, &study, 1);
    let digest = one.output.digest();
    let mut tally = Tally::default();
    tally.add(&one.output, expected, digest);
    tally.failed += one.unclassified;
    let snap = metrics::snapshot();
    let c = |counter| snap.counter(counter) as f64;
    let units = one.output.units().max(1) as f64;
    let lookups = c(Counter::CacheHits) + c(Counter::CacheMisses);
    let failures = c(Counter::FailTimeout)
        + c(Counter::FailReset)
        + c(Counter::FailHandshake)
        + c(Counter::FailDeadline);
    let out = [
        Metric::new("simnet.events", c(Counter::SimEvents), "count"),
        Metric::new(
            "simnet.events_per_unit",
            c(Counter::SimEvents) / units,
            "events/unit",
        ),
        Metric::new(
            "netstack.quic_packets_sent",
            c(Counter::QuicPacketsSent),
            "count",
        ),
        Metric::new("netstack.quic_pto_fired", c(Counter::QuicPtoFired), "count"),
        Metric::new(
            "netstack.tcp_rto_retransmits",
            c(Counter::TcpRtoRetransmits),
            "count",
        ),
        Metric::new(
            "netstack.tls_resumed",
            c(Counter::TlsResumedHandshakes),
            "count",
        ),
        Metric::new(
            "netstack.retransmit_share",
            c(Counter::QuicPacketsLost) / c(Counter::QuicPacketsSent).max(1.0),
            "ratio",
        ),
        Metric::new("dox.reconnects", c(Counter::Reconnects), "count"),
        Metric::new("dox.failures", failures, "count"),
        Metric::new("dox.failover_raced", c(Counter::FailoverRaced), "count"),
        Metric::new(
            "resolver.cache_hit_ratio",
            c(Counter::CacheHits) / lookups.max(1.0),
            "ratio",
        ),
        Metric::new("resolver.pool_reuse", c(Counter::PoolReuse), "count"),
        Metric::new(
            "resolver.pool_evict_idle",
            c(Counter::PoolEvictIdle),
            "count",
        ),
        Metric::new(
            "webperf.http_requests",
            c(Counter::HttpRequestsSent),
            "count",
        ),
        Metric::new(
            "measure.allocs_per_unit",
            one.allocs as f64 / units,
            "allocs",
        ),
    ];
    finish(workload.name(), Some(digest), &tally, &out)
}

/// One line per unit span of the last traced iteration: engine call
/// (the parent span), worker, transport, start and duration in ns.
fn write_spans(path: &str, spans: &[UnitSpan]) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "engine\tworker\ttransport\tstart_ns\tdur_ns")?;
    for s in spans {
        writeln!(
            f,
            "{}\t{}\t{}\t{}\t{}",
            s.engine, s.worker, s.transport, s.start_ns, s.dur_ns
        )?;
    }
    f.flush()
}
