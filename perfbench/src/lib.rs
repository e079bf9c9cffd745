//! The doqlab benchmark.
//!
//! Each workload runs a campaign exactly as `doqlab measure <campaign>`
//! does: `Study::run_*`, then the report reduction and rendering and
//! the telemetry section, with metrics on and the system allocator. The
//! benchmark owns the seed, worker count and client count, so nothing
//! in the environment can resize a workload under it.
//!
//! Every run checks its output: all iterations of a run must produce
//! the same sample digest, and the samples must satisfy the structural
//! invariants in [`Output::check`]. A unit that panics or fails a check
//! counts as failed, and any failure makes the command exit non-zero.
//! The end-to-end times are scaled to a reference host speed by a probe
//! run around every iteration ([`probe`]), because the shared host's
//! own speed drifts by more than the bounds.
//!
//! The per-layer numbers come from the benchmark's own files. Every
//! time is taken in `perfbench`, with the system allocator: per-unit
//! spans around the public `run_*_unit` functions ([`spans`]) and
//! micro-timings of layer APIs ([`micro`]). Exact counts and
//! allocations come from `perfbench_counts`, built with simnet's
//! counting allocator (`count-allocs`), which times nothing. Why each
//! workload and metric exists is in `perfbench/README.md`.

pub mod micro;
pub mod probe;
pub mod spans;

use doqlab_core::dox::{DnsTransport, FailureKind};
use doqlab_core::measure::impairments::{standard_sweep, ImpairmentSample};
use doqlab_core::measure::mobility::{standard_mobility_sweep, MobilitySample};
use doqlab_core::measure::populations::{
    PopulationSample, PopulationsCampaign, POPULATION_TRANSPORTS, POPULATION_VPS,
};
use doqlab_core::measure::single_query::{SingleQueryCampaign, SingleQuerySample};
use doqlab_core::measure::whatif::{standard_whatif_sweep, WhatifSample};
use doqlab_core::measure::{engine, report, vantage_points};
use doqlab_core::measure::{ImpairmentsCampaign, MobilityCampaign, WhatifCampaign};
use doqlab_core::simnet::Simulator;
use doqlab_core::telemetry::metrics;
use doqlab_core::Study;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// A seed kept out of development: use it only to confirm a claim made
/// on other seeds.
pub const HELD_OUT_SEED: u64 = 20_221_025;

/// Simulated clients in the populations workload: 32 behind each of the
/// 16 vantage-point x transport stubs, under each of three Zipf exponents.
pub const POPULATION_CLIENTS: u64 = 512;

/// Set-up is measured this many times before each iteration, spreading
/// the samples over the run; the median of all of them is reported.
const SETUP_REPS: usize = 5;

/// A run always times at least this many iterations, however long
/// each takes.
pub const MIN_ITERATIONS: usize = 3;

/// Environment variables that would silently change a workload: the
/// engine reads the first three (`engine::env_*`), mobility the rest.
const REFUSED_ENV: [&str; 5] = [
    engine::THREADS_ENV,
    engine::SEED_ENV,
    engine::CLIENTS_ENV,
    "DOQLAB_REBIND_MS",
    "DOQLAB_STAGGER_MS",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// §3.1 over all 313 resolvers, 6 vantage points, 5 transports.
    SingleQuery,
    /// The impairments, mobility and what-if sweeps on the same units.
    Scenarios,
    /// Zipf cohorts behind shared stubs over a simulated day.
    Populations,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SingleQuery,
        Workload::Scenarios,
        Workload::Populations,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SingleQuery => "single-query",
            Workload::Scenarios => "scenarios",
            Workload::Populations => "populations",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The study the CLI would run for this workload, at `workers`
    /// worker threads.
    pub fn study(self, seed: u64, workers: usize) -> Study {
        let mut study = Study::quick(seed);
        study.scale.threads = workers;
        match self {
            Workload::SingleQuery => {
                study.scale.resolvers = None;
                study.scale.repetitions = 1;
            }
            // Quick scale: 12 resolvers.
            Workload::Scenarios => {}
            Workload::Populations => study.scale.clients = Some(POPULATION_CLIENTS),
        }
        study
    }

    /// The unit-grid size the workload's output must have.
    pub fn expected_units(self, study: &Study) -> usize {
        let scale = &study.scale;
        let population = study.population();
        let vps = vantage_points().len();
        let resolvers = scale.sample_resolvers(&population).len();
        let transports = DnsTransport::ALL.len();
        let sweep = vps * resolvers * transports * scale.repetitions;
        match self {
            Workload::SingleQuery => sweep,
            Workload::Scenarios => {
                sweep
                    * (standard_sweep().len()
                        + standard_mobility_sweep().len()
                        + standard_whatif_sweep().len())
            }
            Workload::Populations => {
                let alphas = PopulationsCampaign::new(scale.clone()).alphas.len();
                POPULATION_VPS.min(vps) * alphas * POPULATION_TRANSPORTS.len()
            }
        }
    }

    /// Set-up as the CLI pays it before the first unit: population
    /// synthesis, page profiles, campaign construction and one
    /// simulator arena per worker.
    pub fn setup_once(self, study: &Study) -> Duration {
        let start = Instant::now();
        let population = black_box(study.population());
        let pages = black_box(study.pages());
        let scale = study.scale.clone();
        match self {
            Workload::SingleQuery => {
                black_box(SingleQueryCampaign::new(scale));
            }
            Workload::Scenarios => {
                black_box(ImpairmentsCampaign::new(scale.clone()));
                black_box(MobilityCampaign::new(scale.clone()));
                black_box(WhatifCampaign::new(scale));
            }
            Workload::Populations => {
                let c = PopulationsCampaign::new(scale);
                black_box(c.population());
            }
        }
        let arenas: Vec<Simulator> = (0..study.scale.threads)
            .map(|_| Simulator::arena())
            .collect();
        black_box((&population, &pages, &arenas));
        start.elapsed()
    }

    /// Append [`SETUP_REPS`] set-up times, in seconds, to `times`.
    pub fn time_setup(self, study: &Study, times: &mut Vec<f64>) {
        times.extend((0..SETUP_REPS).map(|_| self.setup_once(study).as_secs_f64()));
    }

    /// One iteration exactly as `doqlab measure <campaign>` runs it.
    pub fn run_cli(self, study: &Study) -> (Output, String) {
        let output = match self {
            Workload::SingleQuery => Output::SingleQuery(study.run_single_query()),
            Workload::Scenarios => Output::Scenarios(
                study.run_impairments(),
                study.run_mobility(),
                study.run_whatif(),
            ),
            Workload::Populations => Output::Populations(study.run_populations()),
        };
        let text = output.render();
        (output, text)
    }
}

/// The samples one iteration of a workload produced.
pub enum Output {
    SingleQuery(Vec<SingleQuerySample>),
    Scenarios(
        Vec<ImpairmentSample>,
        Vec<MobilitySample>,
        Vec<WhatifSample>,
    ),
    Populations(Vec<PopulationSample>),
}

impl Output {
    pub fn units(&self) -> usize {
        match self {
            Output::SingleQuery(s) => s.len(),
            Output::Scenarios(i, m, w) => i.len() + m.len() + w.len(),
            Output::Populations(s) => s.len(),
        }
    }

    /// FNV-1a over the samples' `Debug` rendering, which prints every
    /// field (floats in full): equal digests mean identical samples.
    pub fn digest(&self) -> u64 {
        use std::fmt::Write as _;
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        let written = match self {
            Output::SingleQuery(s) => write!(h, "{s:?}"),
            Output::Scenarios(i, m, w) => write!(h, "{i:?}{m:?}{w:?}"),
            Output::Populations(s) => write!(h, "{s:?}"),
        };
        written.expect("hashing never fails");
        h.0
    }

    /// Units that break a structural invariant, plus every missing or
    /// surplus unit when the output is not the size of the grid.
    pub fn check(&self, expected_units: usize) -> usize {
        let broken = match self {
            // A measured query either has a resolve time or failed.
            Output::SingleQuery(s) => s
                .iter()
                .filter(|s| s.resolve_ms.is_none() && !s.failed)
                .count(),
            // In the sweeps a missing resolve time must be classified.
            Output::Scenarios(i, m, w) => {
                let unclassified = |resolve: Option<f64>, failure: Option<FailureKind>| {
                    resolve.is_none() && failure.is_none()
                };
                i.iter()
                    .filter(|s| unclassified(s.sample.resolve_ms, s.failure))
                    .count()
                    + m.iter()
                        .filter(|s| unclassified(s.sample.resolve_ms, s.failure))
                        .count()
                    + w.iter()
                        .filter(|s| unclassified(s.sample.resolve_ms, s.failure))
                        .count()
            }
            // Every client query was a hit, a coalesced join or sent
            // upstream.
            Output::Populations(s) => s
                .iter()
                .filter(|s| {
                    let st = &s.stats;
                    st.cache_hits + st.coalesced + st.upstream_queries != st.queries
                })
                .count(),
        };
        broken + self.units().abs_diff(expected_units)
    }

    /// The CLI's report: reduction and rendering of the campaign tables
    /// plus the telemetry section.
    pub fn render(&self) -> String {
        let mut out = match self {
            Output::SingleQuery(s) => format!(
                "{}\n{}\n",
                report::render_table1(&report::table1(s)),
                report::render_fig2(&report::fig2(s))
            ),
            Output::Scenarios(i, m, w) => format!(
                "{}\n{}\n{}\n",
                report::render_impairments(&report::impairment_rows(i)),
                report::render_mobility(&report::mobility_rows(m)),
                report::render_whatif(&report::whatif_rows(w))
            ),
            Output::Populations(s) => format!(
                "{}\n",
                report::render_populations(&report::population_rows(s))
            ),
        };
        out.push_str(&report::render_telemetry(&report::telemetry_section()));
        out
    }
}

struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// What one invocation of a benchmark binary measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// `perfbench`: the end-to-end metrics.
    EndToEnd,
    /// `perfbench`: unit spans and the tracing and telemetry overheads.
    Spans,
    /// `perfbench_counts`: exact counts from a one-worker pass.
    Counts,
    /// Layer micro-benchmarks, independent of the workload: timings in
    /// `perfbench`, allocation counts in `perfbench_counts`.
    Micro,
}

impl Pass {
    fn parse(s: &str) -> Option<Pass> {
        Some(match s {
            "end-to-end" => Pass::EndToEnd,
            "spans" => Pass::Spans,
            "counts" => Pass::Counts,
            "micro" => Pass::Micro,
            _ => return None,
        })
    }
}

/// Parsed command line: `--pass <end-to-end|spans|counts|micro>
/// --seed <n>`, plus `--workload <name>` for every pass but `micro`,
/// `--seconds <s>` for the timed passes and, for `spans`, an optional
/// `--spans-out <path>` that receives the last traced iteration's unit
/// spans.
pub struct Args {
    pub pass: Pass,
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub spans_out: Option<String>,
}

impl Args {
    pub fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut pass = None;
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut spans_out = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--pass" => {
                    pass = Some(Pass::parse(value).ok_or_else(|| format!("unknown pass {value}"))?)
                }
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                    if !(s > 0.0 && s <= 120.0) {
                        return Err("--seconds must be in (0, 120]".into());
                    }
                    seconds = Some(s);
                }
                "--spans-out" => spans_out = Some(value.clone()),
                _ => return Err(format!("unknown argument {flag} {value}")),
            }
        }
        for var in REFUSED_ENV {
            if std::env::var_os(var).is_some() {
                return Err(format!(
                    "{var} is set; it would change the workload, so the benchmark refuses to run"
                ));
            }
        }
        let pass = pass.ok_or("--pass is required")?;
        if pass != Pass::Micro && workload.is_none() {
            return Err("--workload is required".into());
        }
        let timed = matches!(pass, Pass::EndToEnd | Pass::Spans);
        if timed && seconds.is_none() {
            return Err("--seconds is required".into());
        }
        Ok(Args {
            pass,
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(0.0),
            spans_out,
        })
    }

    /// The workload of a pass that needs one (checked by [`Args::parse`]).
    pub fn workload(&self) -> Workload {
        self.workload
            .expect("every pass but micro names a workload")
    }
}

/// Worker threads: one per available core.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Median of `values` (sorted in place); 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` of `values` (sorted in place).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Attempted and failed units over a run.
#[derive(Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
}

impl Tally {
    /// Count one iteration: its units, the ones failing a check, and all
    /// of them when its digest differs from the run's reference.
    pub fn add(&mut self, output: &Output, expected: usize, reference: u64) {
        let units = output.units().max(expected);
        self.attempted += units;
        self.failed += if output.digest() == reference {
            output.check(expected).min(units)
        } else {
            units
        };
    }

    /// Count an iteration that panicked: every unit failed.
    pub fn add_panicked(&mut self, expected: usize) {
        self.attempted += expected;
        self.failed += expected;
    }
}

/// Print the human-readable lines and then, as the last line, the
/// result object. `label` names the workload or pass; `digest` is the
/// samples' digest, when the pass produced samples. Returns the process
/// exit code. JSON has no NaN, so a non-finite value (a bug) prints as
/// 0 and fails the run.
pub fn finish(label: &str, digest: Option<u64>, tally: &Tally, metrics: &[Metric]) -> i32 {
    let correct = tally.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    println!("workload {label}");
    if let Some(digest) = digest {
        println!("digest {digest:016x}");
    }
    for m in metrics {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "units attempted {} failed {} (failed share {})",
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    if correct {
        0
    } else {
        1
    }
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in kB");
    kb / 1024.0
}

/// Run the warm-up iteration as the CLI does and count it; its digest
/// is the run's reference. If it panics, no iteration can match.
pub fn warm_up(workload: Workload, study: &Study, expected: usize, tally: &mut Tally) -> u64 {
    match catch_unwind(AssertUnwindSafe(|| workload.run_cli(study))) {
        Ok((warm, _)) => {
            let digest = warm.digest();
            tally.add(&warm, expected, digest);
            digest
        }
        Err(_) => {
            tally.add_panicked(expected);
            0
        }
    }
}

/// One CLI iteration, counted against `reference`; returns its units
/// per second, or `None` if it panicked.
pub fn timed_cli(
    workload: Workload,
    study: &Study,
    expected: usize,
    reference: u64,
    tally: &mut Tally,
) -> Option<f64> {
    metrics::reset();
    let t = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| workload.run_cli(study)));
    let elapsed = t.elapsed().as_secs_f64();
    match run {
        Ok((output, text)) => {
            black_box(text);
            tally.add(&output, expected, reference);
            Some(output.units() as f64 / elapsed)
        }
        Err(_) => {
            tally.add_panicked(expected);
            None
        }
    }
}

/// The end-to-end run: one warm-up iteration that fixes the reference
/// digest, then set-up and CLI iterations for `args.seconds`. Each
/// iteration's times are scaled to the reference host speed by the
/// probes taken right before and after it ([`probe`]).
pub fn run_end_to_end(args: &Args) -> i32 {
    let workload = args.workload();
    let threads = workers();
    let study = workload.study(args.seed, threads);
    let expected = workload.expected_units(&study);
    metrics::set_enabled(true);

    let mut tally = Tally::default();
    metrics::reset();
    let warm = Instant::now();
    let reference = warm_up(workload, &study, expected, &mut tally);
    let reps = probe::reps_for(warm.elapsed().as_secs_f64());

    let mut setup_s = Vec::new();
    let mut rates = Vec::new();
    let mut host_rates = Vec::new();
    let mut probes = vec![probe::time(threads, reps)];
    let mut setup = Vec::new();
    let started = Instant::now();
    let mut iteration = 0usize;
    while iteration < MIN_ITERATIONS || started.elapsed().as_secs_f64() < args.seconds {
        iteration += 1;
        setup.clear();
        workload.time_setup(&study, &mut setup);
        let rate = timed_cli(workload, &study, expected, reference, &mut tally);
        probes.push(probe::time(threads, reps));
        let speed = probe::Speed::around(probes[iteration - 1], probes[iteration]);
        setup_s.extend(setup.iter().map(|&s| speed.seconds(s)));
        if let Some(rate) = rate {
            host_rates.push(rate);
            rates.push(speed.rate(rate));
        }
    }

    let shown: Vec<String> = host_rates.iter().map(|r| format!("{r:.1}")).collect();
    eprintln!("units/s by iteration, as measured: {}", shown.join(" "));
    eprintln!(
        "as measured: units/s median {:.1}; probe median {:.6} s over {reps} jobs (reference {} s)",
        median(&mut host_rates),
        median(&mut probes),
        probe::REFERENCE_S
    );
    let out = [
        Metric::new("units_per_s", median(&mut rates), "units/s"),
        Metric::new("setup_s", median(&mut setup_s), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    eprintln!(
        "{}: {} timed iterations at {} workers, seed {} (held-out seed {HELD_OUT_SEED})",
        workload.name(),
        iteration,
        study.scale.threads,
        args.seed
    );
    finish(workload.name(), Some(reference), &tally, &out)
}

/// Entry point shared by both binaries: parse the arguments, then
/// `run` them.
pub fn main_with(run: fn(&Args) -> i32) -> ! {
    let code = match Args::parse() {
        Ok(args) => run(&args),
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code)
}
