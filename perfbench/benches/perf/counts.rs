//! Simulated counts read from the middleware's public getters. They are
//! exact functions of the seed, so they double as the determinism
//! fingerprint of a run.

use std::collections::BTreeMap;

use mdagent_core::Middleware;
use mdagent_simnet::Simulator;

/// Named counts; every workload reports the keys it has.
pub type Counts = BTreeMap<&'static str, u64>;

/// Counts of a middleware world. Migration quantiles cover the
/// migrations logged from index `log_start` on (the timed phase).
pub fn world_counts(world: &Middleware, sim: &Simulator<Middleware>, log_start: usize) -> Counts {
    let metrics = world.metrics();
    let log = world.migration_log();
    let timed = log.get(log_start..).unwrap_or_default();
    let mut sim_us: Vec<f64> = timed
        .iter()
        .map(|r| r.phases.total().as_micros() as f64)
        .collect();
    sim_us.sort_by(f64::total_cmp);
    let quantile_us = |q: f64| mdagent_perfbench::quantile(&sim_us, q).map_or(0, |us| us as u64);
    Counts::from([
        ("sim.events", sim.executed()),
        ("sim.now_us", sim.now().as_micros()),
        ("acl.delivered", metrics.counter("acl.delivered")),
        ("platform.moves", metrics.counter("platform.moves")),
        ("context.published", world.kernel.bus.published_count()),
        ("core.migrations", log.len() as u64),
        (
            "core.shipped_bytes",
            log.iter().map(|r| r.shipped_bytes).sum(),
        ),
        ("core.sim_migration_p50_us", quantile_us(0.5)),
        ("core.sim_migration_p90_us", quantile_us(0.9)),
        ("telemetry.spans", world.telemetry().spans().len() as u64),
        ("trace.entries", world.trace().entries().len() as u64),
        (
            "metrics.samples",
            metrics
                .duration_series()
                .map(|(_, stats)| stats.count() as u64)
                .sum(),
        ),
        ("in_flight", world.in_flight_count() as u64),
    ])
}
