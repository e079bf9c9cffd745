//! Determinism guarantees of the shared campaign engine (DESIGN.md §7):
//! for a fixed seed, campaign outputs are byte-identical regardless of
//! how many worker threads execute the unit grid. Samples carry floats,
//! so the comparison goes through their `Debug` rendering — identical
//! strings mean identical bits.

use doqlab_measure::impairments::run_impairments_campaign;
use doqlab_measure::mobility::run_mobility_campaign;
use doqlab_measure::single_query::run_single_query_campaign;
use doqlab_measure::webperf::run_webperf_campaign;
use doqlab_measure::whatif::run_whatif_campaign;
use doqlab_measure::{
    trace_single_query, ImpairmentsCampaign, MobilityCampaign, Scale, SingleQueryCampaign,
    WebperfCampaign, WhatifCampaign,
};
use doqlab_resolver::synthesize_dox_population;
use doqlab_telemetry::metrics::{self, Counter};
use doqlab_webperf::tranco_top10;

fn single_query_scale(threads: usize) -> Scale {
    Scale {
        resolvers: Some(3),
        repetitions: 2,
        threads,
        ..Scale::quick()
    }
}

fn webperf_scale(threads: usize) -> Scale {
    Scale {
        resolvers: Some(2),
        pages: Some(2),
        rounds: 1,
        loads_per_round: 1,
        threads,
        ..Scale::quick()
    }
}

#[test]
fn single_query_campaign_is_thread_count_invariant() {
    let pop = synthesize_dox_population(1);
    let mut renderings = Vec::new();
    for threads in [1, 4, 8] {
        let campaign = SingleQueryCampaign::new(single_query_scale(threads));
        let samples = run_single_query_campaign(&campaign, &pop);
        assert!(!samples.is_empty());
        renderings.push(format!("{samples:?}"));
    }
    assert_eq!(renderings[0], renderings[1], "1 thread vs 4 threads");
    assert_eq!(renderings[0], renderings[2], "1 thread vs 8 threads");
}

#[test]
fn webperf_campaign_is_thread_count_invariant() {
    let pop = synthesize_dox_population(1);
    let pages = tranco_top10();
    let mut renderings = Vec::new();
    for threads in [1, 4, 8] {
        let campaign = WebperfCampaign::new(webperf_scale(threads));
        let samples = run_webperf_campaign(&campaign, &pop, &pages);
        assert!(!samples.is_empty());
        renderings.push(format!("{samples:?}"));
    }
    assert_eq!(renderings[0], renderings[1], "1 thread vs 4 threads");
    assert_eq!(renderings[0], renderings[2], "1 thread vs 8 threads");
}

#[test]
fn webperf_campaign_is_rerun_invariant() {
    // Quick scale, seed 1: enough pages and resolvers that several
    // origin connections complete in the same event. Reruns in one
    // process must match exactly, on one worker and on two.
    let pop = synthesize_dox_population(1);
    let pages = tranco_top10();
    for threads in [1, 2] {
        let mut campaign = WebperfCampaign::new(Scale {
            threads,
            ..Scale::quick()
        });
        campaign.seed = 1;
        let first = format!("{:?}", run_webperf_campaign(&campaign, &pop, &pages));
        let second = format!("{:?}", run_webperf_campaign(&campaign, &pop, &pages));
        assert!(first == second, "{threads} worker(s): rerun differs");
    }
}

fn impairments_scale(threads: usize) -> Scale {
    Scale {
        resolvers: Some(2),
        repetitions: 1,
        threads,
        ..Scale::quick()
    }
}

#[test]
fn impairments_campaign_is_thread_count_invariant() {
    // The fault-injection sweep must be bit-identical across thread
    // counts and across repeated runs at a fixed seed: every stochastic
    // impairment decision flows through the unit's seeded RNG.
    let pop = synthesize_dox_population(1);
    let mut renderings = Vec::new();
    for threads in [1, 4, 8, 4] {
        let campaign = ImpairmentsCampaign::new(impairments_scale(threads));
        let samples = run_impairments_campaign(&campaign, &pop);
        assert!(!samples.is_empty());
        renderings.push(format!("{samples:?}"));
    }
    assert_eq!(renderings[0], renderings[1], "1 thread vs 4 threads");
    assert_eq!(renderings[0], renderings[2], "1 thread vs 8 threads");
    assert_eq!(renderings[1], renderings[3], "repeated 4-thread runs");
}

#[test]
fn mobility_campaign_is_thread_count_invariant() {
    // The mobility sweep drives rebinds mid-run and races failover
    // ladders, but must stay bit-identical across thread counts and
    // repeated runs at a fixed seed.
    let pop = synthesize_dox_population(1);
    let mut renderings = Vec::new();
    for threads in [1, 4, 8, 4] {
        let campaign = MobilityCampaign::new(impairments_scale(threads));
        let samples = run_mobility_campaign(&campaign, &pop);
        assert!(!samples.is_empty());
        renderings.push(format!("{samples:?}"));
    }
    assert_eq!(renderings[0], renderings[1], "1 thread vs 4 threads");
    assert_eq!(renderings[0], renderings[2], "1 thread vs 8 threads");
    assert_eq!(renderings[1], renderings[3], "repeated 4-thread runs");
}

#[test]
fn whatif_campaign_is_thread_count_invariant() {
    // The counterfactual sweep flips feature flags (0-RTT, TFO,
    // keepalive, DoH3) per regime but must stay bit-identical across
    // thread counts and repeated runs at a fixed seed.
    let pop = synthesize_dox_population(1);
    let mut renderings = Vec::new();
    for threads in [1, 4, 8, 4] {
        let campaign = WhatifCampaign::new(impairments_scale(threads));
        let samples = run_whatif_campaign(&campaign, &pop);
        assert!(!samples.is_empty());
        renderings.push(format!("{samples:?}"));
    }
    assert_eq!(renderings[0], renderings[1], "1 thread vs 4 threads");
    assert_eq!(renderings[0], renderings[2], "1 thread vs 8 threads");
    assert_eq!(renderings[1], renderings[3], "repeated 4-thread runs");
}

#[test]
fn whatif_telemetry_is_inert() {
    // The new 0-RTT / TFO / keepalive counters ride telemetry;
    // collecting them must not perturb the counterfactual samples.
    let pop = synthesize_dox_population(1);
    let campaign = WhatifCampaign::new(impairments_scale(4));
    metrics::set_enabled(false);
    let baseline = format!("{:?}", run_whatif_campaign(&campaign, &pop));

    metrics::set_enabled(true);
    metrics::reset();
    let with_metrics = format!("{:?}", run_whatif_campaign(&campaign, &pop));
    let snapshot = metrics::snapshot();
    metrics::set_enabled(false);

    assert_eq!(
        baseline, with_metrics,
        "metrics collection perturbed what-if samples"
    );
    // The sweep's regimes actually exercised the dormant capabilities.
    assert!(snapshot.counter(Counter::ZeroRttAccepted) > 0);
    assert!(snapshot.counter(Counter::TfoSynData) > 0);
    assert!(snapshot.counter(Counter::KeepaliveHonored) > 0);
}

#[test]
fn mobility_telemetry_is_inert() {
    // Path/migration events and failover counters ride telemetry;
    // collecting them must not perturb the mobile samples (qlog path
    // events stay observational).
    let pop = synthesize_dox_population(1);
    let campaign = MobilityCampaign::new(impairments_scale(4));
    metrics::set_enabled(false);
    let baseline = format!("{:?}", run_mobility_campaign(&campaign, &pop));

    metrics::set_enabled(true);
    metrics::reset();
    let with_metrics = format!("{:?}", run_mobility_campaign(&campaign, &pop));
    let snapshot = metrics::snapshot();
    metrics::set_enabled(false);

    assert_eq!(
        baseline, with_metrics,
        "metrics collection perturbed mobile samples"
    );
    let units = (campaign.scale.resolvers.unwrap() * campaign.regimes.len() * 5 * 6) as u64;
    assert_eq!(snapshot.counter(Counter::UnitsRun), units);
    // The sweep's failover regime actually raced rungs.
    assert!(snapshot.counter(Counter::FailoverRaced) > 0);
}

#[test]
fn impairments_telemetry_is_inert() {
    // Failure-taxonomy counters and reconnect counts ride telemetry;
    // collecting them must not perturb the samples.
    let pop = synthesize_dox_population(1);
    let campaign = ImpairmentsCampaign::new(impairments_scale(4));
    metrics::set_enabled(false);
    let baseline = format!("{:?}", run_impairments_campaign(&campaign, &pop));

    metrics::set_enabled(true);
    metrics::reset();
    let with_metrics = format!("{:?}", run_impairments_campaign(&campaign, &pop));
    let snapshot = metrics::snapshot();
    metrics::set_enabled(false);

    assert_eq!(
        baseline, with_metrics,
        "metrics collection perturbed impaired samples"
    );
    let units = (campaign.scale.resolvers.unwrap() * campaign.regimes.len() * 5 * 6) as u64;
    assert_eq!(snapshot.counter(Counter::UnitsRun), units);
}

#[test]
fn telemetry_does_not_change_campaign_output() {
    // The "provably inert" contract: with metrics collection on, a
    // campaign's samples are byte-identical to a run with telemetry
    // fully disabled, and the registry actually observed the units.
    let pop = synthesize_dox_population(1);
    let campaign = SingleQueryCampaign::new(single_query_scale(4));
    metrics::set_enabled(false);
    let baseline = format!("{:?}", run_single_query_campaign(&campaign, &pop));

    metrics::set_enabled(true);
    metrics::reset();
    let with_metrics = format!("{:?}", run_single_query_campaign(&campaign, &pop));
    let snapshot = metrics::snapshot();
    metrics::set_enabled(false);

    assert_eq!(
        baseline, with_metrics,
        "metrics collection perturbed samples"
    );
    let units = (campaign.scale.resolvers.unwrap() * campaign.scale.repetitions * 5 * 6) as u64;
    assert_eq!(snapshot.counter(Counter::UnitsRun), units);
}

#[test]
fn event_tracing_does_not_change_campaign_output() {
    // Event tracing captures one unit per transport; those traced
    // units must reproduce exactly the samples the untraced campaign
    // produced at the same coordinates (vp 0, resolver slot 0, rep 0).
    let pop = synthesize_dox_population(1);
    let campaign = SingleQueryCampaign::new(single_query_scale(1));
    let samples = run_single_query_campaign(&campaign, &pop);
    let run = trace_single_query(&campaign, &pop);
    for (transport, traced) in &run.samples {
        let plain = samples
            .iter()
            .find(|s| {
                s.vp == traced.vp && s.resolver == traced.resolver && s.transport == *transport
            })
            .expect("traced unit exists in the campaign grid");
        assert_eq!(
            format!("{traced:?}"),
            format!("{plain:?}"),
            "tracing perturbed the {transport:?} unit"
        );
    }
}

#[test]
fn seed_changes_campaign_output() {
    let pop = synthesize_dox_population(1);
    let base = SingleQueryCampaign::new(single_query_scale(4));
    let reseeded = SingleQueryCampaign {
        seed: base.seed ^ 1,
        ..base.clone()
    };
    let a = run_single_query_campaign(&base, &pop);
    let b = run_single_query_campaign(&reseeded, &pop);
    assert_ne!(format!("{a:?}"), format!("{b:?}"));
}
