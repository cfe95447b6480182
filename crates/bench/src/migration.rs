//! Migration data-path benchmark: shipped bytes and time under static
//! binding, adaptive binding, and adaptive binding with the
//! content-addressed component cache + delta snapshots, plus the chunked
//! pipelined transfer against plain store-and-forward on a multi-hop path,
//! plus the host (wall-clock) cost of a static trip.

use std::hint::black_box;
use std::time::Instant;

use mdagent_context::UserId;
use mdagent_core::{
    AppId, AppState, BindingPolicy, Component, ComponentKind, ComponentSet, DataPathOptions,
    DeviceProfile, Middleware, MobilityMode, UserProfile,
};
use mdagent_simnet::{CpuFactor, HostId, SimDuration, Simulator, Topology, DEFAULT_CHUNK_BYTES};
use mdagent_wire::{digest_of, from_blob, from_bytes, to_bytes, Blob};

/// Round trips of the shuttle scenario (app migrates back and forth, so
/// repeat visits exercise the cache and delta mechanisms).
pub const SHUTTLE_TRIPS: usize = 6;

/// Music file size of the shuttle scenario: the paper's 4.3 MB midpoint.
pub const SHUTTLE_FILE_BYTES: usize = 4_300_000;

/// Aggregate outcome of one shuttle run under one configuration.
#[derive(Debug, Clone)]
pub struct ShuttleRun {
    /// Human label, e.g. `"adaptive+cache+delta"`.
    pub label: String,
    /// Completed migrations (must equal the requested trips).
    pub trips: usize,
    /// Total bytes carried by the mobile agent across all trips.
    pub total_shipped_bytes: u64,
    /// Total simulated migration time (suspend + migrate + resume).
    pub total_ms: f64,
    /// Bytes elided because the destination already held the content.
    pub bytes_saved_cache: u64,
    /// Bytes elided by shipping snapshot deltas instead of full snapshots.
    pub bytes_saved_delta: u64,
    /// Component cache hits across all wraps.
    pub cache_hits: u64,
    /// Component cache misses across all wraps.
    pub cache_misses: u64,
}

/// Pipelined vs. store-and-forward on a two-hop path (LAN then gateway).
#[derive(Debug, Clone)]
pub struct PipelineComparison {
    /// Hops on the measured route.
    pub hops: usize,
    /// Payload size.
    pub bytes: u64,
    /// Plain per-link store-and-forward time.
    pub store_and_forward_ms: f64,
    /// Chunked cut-through time at the default chunk size.
    pub pipelined_ms: f64,
    /// Bottleneck (most utilized) link's busy fraction, 0..=1.
    pub bottleneck_utilization: f64,
}

/// Everything `BENCH_migration.json` reports.
#[derive(Debug, Clone)]
pub struct MigrationBench {
    /// One shuttle run per configuration, in comparison order.
    pub runs: Vec<ShuttleRun>,
    /// The multi-hop transfer comparison.
    pub pipeline: PipelineComparison,
}

/// Timed static trips of the host-cost measurement, after
/// [`HOST_WARM_UP_TRIPS`] untimed ones.
pub const HOST_TRIPS: usize = 30;

/// Untimed trips before the host-cost measurement.
pub const HOST_WARM_UP_TRIPS: usize = 2;

/// Host time of one static 4.3 MB trip at the commit before payloads
/// became shared `Blob`s (7d3f66f): [`host_trip_cost`]'s trip loop built
/// against that commit and run on the same shared 2-vCPU VM as the
/// committed artifact, `(best, median)` µs over [`HOST_TRIPS`] trips (the
/// middle of three runs, interleaved with runs of this commit's loop).
pub const HOST_TRIP_US_BEFORE: (f64, f64) = (5647.4, 9591.9);

/// Host (wall-clock) cost of the static 4.3 MB trip and of the wire
/// operations it performs on its payload. Not deterministic: it depends on
/// the machine and its load.
#[derive(Debug, Clone)]
pub struct HostCost {
    /// Fastest timed trip (`migrate_now` until the queue drains), µs.
    pub trip_us_best: f64,
    /// Median timed trip, µs.
    pub trip_us_median: f64,
    /// Best of [`HOST_TRIPS`] runs of each wire stage over the landed
    /// component set, µs: encode, decode from a shared image (views),
    /// decode from a plain slice (copies), digest, clone.
    pub stages_us: Vec<(&'static str, f64)>,
}

/// Wall time of `f` in µs, best of [`HOST_TRIPS`] runs.
fn best_us<R>(mut f: impl FnMut() -> R) -> f64 {
    (0..HOST_TRIPS)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64() * 1e6
        })
        .fold(f64::INFINITY, f64::min)
}

/// Measures [`HostCost`] on the static-binding shuttle.
///
/// # Panics
///
/// Panics on scenario construction failures, or if a trip does not land.
pub fn host_trip_cost() -> HostCost {
    let (mut world, mut sim, hosts, app) = shuttle_world(None, 1);
    let mut trips_us = Vec::with_capacity(HOST_TRIPS);
    for trip in 0..HOST_WARM_UP_TRIPS + HOST_TRIPS {
        let start = Instant::now();
        shuttle_trip(
            &mut world,
            &mut sim,
            app,
            hosts[(trip + 1) % 2],
            trip,
            BindingPolicy::Static,
        );
        if trip >= HOST_WARM_UP_TRIPS {
            trips_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    trips_us.sort_by(f64::total_cmp);
    let components: ComponentSet = world.app(app).expect("app").components.clone();
    let image = Blob::from(to_bytes(&components));
    let stages_us = vec![
        ("encode", best_us(|| drop(black_box(to_bytes(&components))))),
        (
            "decode_shared",
            best_us(|| drop(black_box(from_blob::<ComponentSet>(&image)))),
        ),
        (
            "decode_copy",
            best_us(|| drop(black_box(from_bytes::<ComponentSet>(&image)))),
        ),
        (
            "digest",
            best_us(|| black_box(digest_of(&components)).as_u64()),
        ),
        ("clone", best_us(|| drop(black_box(components.clone())))),
    ];
    HostCost {
        trip_us_best: trips_us.first().copied().unwrap_or(f64::NAN),
        trip_us_median: trips_us
            .get(trips_us.len() / 2)
            .copied()
            .unwrap_or(f64::NAN),
        stages_us,
    }
}

/// Runs the paper's Fig. 8 testbed as a shuttle: the media player migrates
/// p4 → pm → p4 → … for [`SHUTTLE_TRIPS`] trips. Repeat visits make the
/// destination hold earlier content, which the cache and delta mechanisms
/// (when enabled) turn into elided bytes.
///
/// # Panics
///
/// Panics on scenario construction failures (the topology is static).
pub fn run_shuttle(
    label: &str,
    policy: BindingPolicy,
    data_path: Option<DataPathOptions>,
    seed: u64,
) -> ShuttleRun {
    let (mut world, mut sim, [p4, pm], app) = shuttle_world(data_path, seed);
    for trip in 0..SHUTTLE_TRIPS {
        let dest = if trip % 2 == 0 { pm } else { p4 };
        shuttle_trip(&mut world, &mut sim, app, dest, trip, policy);
    }

    let total_shipped_bytes = world.migration_log().iter().map(|r| r.shipped_bytes).sum();
    let total_ms = world
        .migration_log()
        .iter()
        .map(|r| r.phases.total().as_millis_f64())
        .sum();
    ShuttleRun {
        label: label.to_owned(),
        trips: world.migration_log().len(),
        total_shipped_bytes,
        total_ms,
        bytes_saved_cache: world.metrics().counter("migration.bytes_saved_cache"),
        bytes_saved_delta: world.metrics().counter("migration.bytes_saved_delta"),
        cache_hits: world.metrics().counter("migration.cache_hits"),
        cache_misses: world.metrics().counter("migration.cache_misses"),
    }
}

/// The Fig. 8 testbed with the media player deployed on the first PC, its
/// UI preinstalled on the second, and a 64-entry playlist in its state.
fn shuttle_world(
    data_path: Option<DataPathOptions>,
    seed: u64,
) -> (Middleware, Simulator<Middleware>, [HostId; 2], AppId) {
    let mut b = Middleware::builder();
    let room_a = b.space("room-a");
    let room_b = b.space("room-b");
    let p4 = b.host("p4-1.7ghz", room_a, CpuFactor::REFERENCE, DeviceProfile::pc);
    let pm = b.host("pm-1.6ghz", room_b, CpuFactor::new(0.94), DeviceProfile::pc);
    b.link(p4, pm, SimDuration::from_millis(1), 10_000_000, 0.8, true)
        .expect("link");
    b.seed(seed);
    if let Some(options) = data_path {
        b.data_path(options);
    }
    let (mut world, mut sim) = b.build();

    let app = Middleware::deploy_app(
        &mut world,
        &mut sim,
        "smart-media-player",
        p4,
        [
            Component::synthetic("codec", ComponentKind::Logic, 180_000),
            Component::synthetic("player-ui", ComponentKind::Presentation, 60_000),
            Component::synthetic("music-file", ComponentKind::Data, SHUTTLE_FILE_BYTES),
        ]
        .into_iter()
        .collect(),
        UserProfile::new(UserId(0)),
    )
    .expect("deploy");
    world
        .provision(
            pm,
            "smart-media-player",
            [Component::synthetic(
                "player-ui",
                ComponentKind::Presentation,
                60_000,
            )]
            .into_iter()
            .collect(),
        )
        .expect("provision");
    sim.run(&mut world);

    // Realistic application state: a playlist that stays put and a playback
    // position that advances between trips. The delta encoder should ship
    // only the moving parts on repeat visits.
    {
        let coordinator = &mut world.app_mut(app).expect("app").coordinator;
        for i in 0..64 {
            coordinator.set_state(format!("playlist-{i:02}"), format!("track-{i:02}.mp3"));
        }
    }
    (world, sim, [p4, pm], app)
}

/// One follow-me trip of the shuttle: advances the playback position, then
/// migrates to `dest` and runs the simulation until the queue drains.
fn shuttle_trip(
    world: &mut Middleware,
    sim: &mut Simulator<Middleware>,
    app: AppId,
    dest: HostId,
    trip: usize,
    policy: BindingPolicy,
) {
    world
        .app_mut(app)
        .expect("app")
        .coordinator
        .set_state("position-ms", format!("{}", trip * 184_000));
    Middleware::migrate_now(world, sim, app, dest, MobilityMode::FollowMe, policy)
        .expect("migrate");
    sim.run(world);
    assert_eq!(
        world.app(app).expect("app").state,
        AppState::Running,
        "trip {trip} must complete"
    );
}

/// Measures store-and-forward vs. chunked pipelined transfer of the
/// shuttle payload over a two-hop path: 10 Mbps LAN into a 10 Mbps
/// gateway (the slide-show dispatch shape — office LAN, then a gateway
/// into the overflow room).
///
/// # Panics
///
/// Panics on topology construction failures.
pub fn compare_pipeline() -> PipelineComparison {
    let mut topo = Topology::new();
    let office = topo.add_space("office");
    let overflow = topo.add_space("overflow");
    let src = topo.add_host("speaker-pc", office, CpuFactor::REFERENCE);
    let gw = topo.add_host("office-gw", office, CpuFactor::REFERENCE);
    let dst = topo.add_host("room-pc", overflow, CpuFactor::REFERENCE);
    topo.add_lan_link(src, gw, SimDuration::from_millis(1), 10_000_000, 0.8)
        .expect("lan");
    topo.add_gateway_link(gw, dst, SimDuration::from_millis(5), 10_000_000, 0.7)
        .expect("gateway");

    let bytes = SHUTTLE_FILE_BYTES as u64;
    let saf = topo.transfer_time(src, dst, bytes).expect("route");
    let pipe = topo
        .pipelined_transfer(src, dst, bytes, DEFAULT_CHUNK_BYTES)
        .expect("route");
    let bottleneck = pipe
        .links
        .iter()
        .map(|l| l.utilization)
        .fold(0.0_f64, f64::max);
    PipelineComparison {
        hops: pipe.links.len(),
        bytes,
        store_and_forward_ms: saf.as_millis_f64(),
        pipelined_ms: pipe.elapsed.as_millis_f64(),
        bottleneck_utilization: bottleneck,
    }
}

/// Runs the three shuttle configurations plus the pipeline comparison.
pub fn bench_migration() -> MigrationBench {
    let runs = vec![
        run_shuttle("static", BindingPolicy::Static, None, 1),
        run_shuttle("adaptive", BindingPolicy::Adaptive, None, 1),
        run_shuttle(
            "adaptive+cache+delta",
            BindingPolicy::Adaptive,
            Some(DataPathOptions::all()),
            1,
        ),
    ];
    MigrationBench {
        runs,
        pipeline: compare_pipeline(),
    }
}

/// Renders [`bench_migration`] and [`host_trip_cost`] as the
/// machine-readable `BENCH_migration.json` document. Every field but
/// `host` is deterministic.
pub fn bench_migration_json() -> String {
    let bench = bench_migration();
    let host = host_trip_cost();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"mdagent-bench/migration/v2\",\n");
    out.push_str(
        "  \"command\": \"cargo run --release -p mdagent-bench --bin figures -- bench-migration\",\n",
    );
    out.push_str(&format!(
        "  \"note\": \"Fig. 8 testbed shuttled {} trips at {:.1} MB; bytes are the mobile \
         agent's wire payload; the pipeline section transfers the same file over a two-hop \
         LAN+gateway path\",\n",
        SHUTTLE_TRIPS,
        SHUTTLE_FILE_BYTES as f64 / 1e6,
    ));
    out.push_str(&format!("  \"trips\": {},\n", SHUTTLE_TRIPS));
    out.push_str(&format!("  \"file_bytes\": {},\n", SHUTTLE_FILE_BYTES));
    let stages: Vec<String> = host
        .stages_us
        .iter()
        .map(|(name, us)| format!("\"{name}\": {us:.1}"))
        .collect();
    out.push_str(&format!(
        "  \"host\": {{\"clock\": \"wall, static 4.3 MB trip, {} trips after {} warm-up; \
         stages best of {}\", \"trip_us_best\": {:.1}, \"trip_us_median\": {:.1}, \
         \"stages_us\": {{{}}}, \"before\": {{\"commit\": \"7d3f66f\", \
         \"trip_us_best\": {:.1}, \"trip_us_median\": {:.1}}}}},\n",
        HOST_TRIPS,
        HOST_WARM_UP_TRIPS,
        HOST_TRIPS,
        host.trip_us_best,
        host.trip_us_median,
        stages.join(", "),
        HOST_TRIP_US_BEFORE.0,
        HOST_TRIP_US_BEFORE.1,
    ));
    out.push_str("  \"configurations\": [\n");
    for (i, r) in bench.runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"trips\": {}, \"total_shipped_bytes\": {}, \
             \"total_ms\": {:.3}, \"bytes_saved_cache\": {}, \"bytes_saved_delta\": {}, \
             \"cache_hits\": {}, \"cache_misses\": {}}}{}\n",
            r.label,
            r.trips,
            r.total_shipped_bytes,
            r.total_ms,
            r.bytes_saved_cache,
            r.bytes_saved_delta,
            r.cache_hits,
            r.cache_misses,
            if i + 1 == bench.runs.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    let p = &bench.pipeline;
    out.push_str(&format!(
        "  \"pipeline\": {{\"hops\": {}, \"bytes\": {}, \"store_and_forward_ms\": {:.3}, \
         \"pipelined_ms\": {:.3}, \"speedup\": {:.3}, \"bottleneck_utilization\": {:.3}}}\n",
        p.hops,
        p.bytes,
        p.store_and_forward_ms,
        p.pipelined_ms,
        p.store_and_forward_ms / p.pipelined_ms,
        p.bottleneck_utilization,
    ));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_cost_is_measured_and_views_beat_copies() {
        let host = host_trip_cost();
        assert!(host.trip_us_best > 0.0 && host.trip_us_best <= host.trip_us_median);
        let stage = |name: &str| {
            host.stages_us
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, us)| *us)
                .unwrap()
        };
        assert_eq!(host.stages_us.len(), 5);
        // Views touch no payload bytes; copies touch all 4.5 MB.
        assert!(stage("decode_shared") < stage("decode_copy"));
        assert!(stage("clone") < stage("encode"));
    }

    #[test]
    fn cache_and_delta_strictly_beat_plain_adaptive() {
        let adaptive = run_shuttle("adaptive", BindingPolicy::Adaptive, None, 1);
        let optimized = run_shuttle(
            "adaptive+cache+delta",
            BindingPolicy::Adaptive,
            Some(DataPathOptions::all()),
            1,
        );
        assert_eq!(adaptive.trips, SHUTTLE_TRIPS);
        assert_eq!(optimized.trips, SHUTTLE_TRIPS);
        assert!(
            optimized.total_shipped_bytes < adaptive.total_shipped_bytes,
            "cache+delta must ship strictly fewer bytes: {} vs {}",
            optimized.total_shipped_bytes,
            adaptive.total_shipped_bytes
        );
        assert!(optimized.bytes_saved_cache > 0, "cache must save bytes");
        assert!(optimized.bytes_saved_delta > 0, "delta must save bytes");
        assert!(optimized.cache_hits > 0);
        // Optimized time does not regress either (fewer bytes, same path).
        assert!(optimized.total_ms <= adaptive.total_ms);
    }

    #[test]
    fn static_binding_ships_the_most() {
        let bench = bench_migration();
        let bytes: Vec<u64> = bench.runs.iter().map(|r| r.total_shipped_bytes).collect();
        assert!(bytes[0] > bytes[1], "static must exceed adaptive");
        assert!(bytes[1] > bytes[2], "adaptive must exceed cache+delta");
    }

    #[test]
    fn pipelined_beats_store_and_forward_on_two_hops() {
        let p = compare_pipeline();
        assert_eq!(p.hops, 2);
        assert!(
            p.pipelined_ms < p.store_and_forward_ms,
            "pipelining must win on a multi-hop path: {} vs {}",
            p.pipelined_ms,
            p.store_and_forward_ms
        );
        assert!(p.bottleneck_utilization > 0.9, "bottleneck stays busy");
    }

    #[test]
    fn cache_behavior_is_deterministic_across_seeds() {
        // The shuttle is event-driven, so the sensing seed must not change
        // what the cache does.
        let a = run_shuttle(
            "a",
            BindingPolicy::Adaptive,
            Some(DataPathOptions::all()),
            1,
        );
        let b = run_shuttle(
            "b",
            BindingPolicy::Adaptive,
            Some(DataPathOptions::all()),
            99,
        );
        assert_eq!(a.cache_hits, b.cache_hits);
        assert_eq!(a.cache_misses, b.cache_misses);
        assert_eq!(a.total_shipped_bytes, b.total_shipped_bytes);
        assert_eq!(a.bytes_saved_delta, b.bytes_saved_delta);
    }
}
