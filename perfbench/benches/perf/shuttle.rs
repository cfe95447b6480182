//! `cargo-shuttle`: the paper's Fig. 8/9 testbed. Two PCs on a 10 Mbps
//! link shuttle the smart media player (180 KB codec, 60 KB UI, 4.3 MB
//! music file) back and forth under static binding, so every trip wraps,
//! encodes, ships and checks in the whole 4.5 MB.

use mdagent_apps::MediaPlayer;
use mdagent_context::UserId;
use mdagent_core::{
    AppId, AppState, BindingPolicy, ComponentSet, DeviceProfile, Middleware, MobilityMode,
    UserProfile,
};
use mdagent_simnet::{CpuFactor, HostId, SimDuration, SimRng, Simulator};

use crate::counts::{world_counts, Counts};
use crate::trace::Tracer;
use crate::Workload;

/// The paper's 4.3 MB music file.
const MUSIC_BYTES: usize = 4_300_000;
/// Playlist entries held in the coordinator; they must survive every trip.
const PLAYLIST: usize = 64;
/// Simulated time a trip may take before it counts as failed.
const TRIP_CAP: SimDuration = SimDuration::from_secs(60);
/// Upper bound on what a trip ships beyond the components' own encoding.
const SNAPSHOT_BYTES_MAX: u64 = 4_096;
/// Round trips run as warm-up before the timed phase.
const WARM_UP_TRIPS: u64 = 2;

/// The two-host testbed with the player on one of them.
pub struct Shuttle {
    world: Middleware,
    sim: Simulator<Middleware>,
    hosts: [HostId; 2],
    app: AppId,
    rng: SimRng,
    trips: u64,
    /// Playback position set before the last trip, for its check.
    position: String,
    /// The component set as deployed; every trip must land it intact.
    deployed: ComponentSet,
    log_start: usize,
}

impl Shuttle {
    fn trip(&mut self, tr: &mut Tracer) -> Result<bool, String> {
        // Fixed width, so allocation sizes and thus memory use do not
        // depend on the seed.
        self.position = format!("{:07}", self.rng.uniform_u64(0, 3_600_000));
        let dest = self.hosts[((self.trips + 1) % 2) as usize];
        self.trips += 1;

        let span = tr.open("core.set_state");
        self.world
            .app_mut(self.app)
            .map_err(|e| e.to_string())?
            .coordinator
            .set_state("position-ms", self.position.as_str());
        tr.close(span);

        let span = tr.open("core.migrate_now");
        let started = Middleware::migrate_now(
            &mut self.world,
            &mut self.sim,
            self.app,
            dest,
            MobilityMode::FollowMe,
            BindingPolicy::Static,
        );
        tr.close(span);
        started.map_err(|e| e.to_string())?;

        // Nothing else is scheduled, so the queue drains once the trip
        // (check-in, resume, acknowledgements) is over.
        let cap = self.sim.now() + TRIP_CAP;
        let span = tr.open("simnet.run");
        let mut hit_cap = false;
        while self.sim.step(&mut self.world) {
            if self.sim.now() > cap {
                hit_cap = true;
                break;
            }
        }
        tr.close(span);
        Ok(hit_cap)
    }
}

impl Workload for Shuttle {
    const STEPS_PER_SECOND: u64 = 140;
    const SETUP_REPEATS: usize = 80;

    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let span = tr.open("core.build");
        let mut b = Middleware::builder();
        let room_a = b.space("room-a");
        let room_b = b.space("room-b");
        let p4 = b.host("p4-1.7ghz", room_a, CpuFactor::REFERENCE, DeviceProfile::pc);
        let pm = b.host("pm-1.6ghz", room_b, CpuFactor::new(0.94), DeviceProfile::pc);
        b.link(p4, pm, SimDuration::from_millis(1), 10_000_000, 0.8, true)
            .map_err(|e| e.to_string())?;
        b.seed(seed);
        let (mut world, mut sim) = b.build();
        tr.close(span);

        let span = tr.open("core.deploy");
        let deployed = MediaPlayer::components(MUSIC_BYTES);
        let app = Middleware::deploy_app(
            &mut world,
            &mut sim,
            MediaPlayer::NAME,
            p4,
            deployed.clone(),
            UserProfile::new(UserId(0)),
        )
        .map_err(|e| e.to_string())?;
        // The destination host already holds the player's UI.
        let ui = deployed.subset(&["player-ui".to_owned()]);
        world
            .provision(pm, MediaPlayer::NAME, ui)
            .map_err(|e| e.to_string())?;
        {
            let coordinator = &mut world.app_mut(app).map_err(|e| e.to_string())?.coordinator;
            for i in 0..PLAYLIST {
                coordinator.set_state(format!("playlist-{i:02}"), format!("track-{i:02}.mp3"));
            }
        }
        sim.run(&mut world);
        tr.close(span);

        let mut shuttle = Shuttle {
            world,
            sim,
            hosts: [p4, pm],
            app,
            rng: SimRng::seed_from(seed ^ 0x5417),
            trips: 0,
            position: String::new(),
            deployed,
            log_start: 0,
        };
        for _ in 0..2 * WARM_UP_TRIPS {
            if shuttle.trip(tr)? || !shuttle.check() {
                return Err("warm-up trip did not land".into());
            }
        }
        shuttle.log_start = shuttle.world.migration_log().len();
        Ok(shuttle)
    }

    fn step(&mut self, tr: &mut Tracer) -> Result<bool, String> {
        self.trip(tr)
    }

    fn check(&mut self) -> bool {
        let dest = self.hosts[(self.trips % 2) as usize];
        let Ok(app) = self.world.app(self.app) else {
            return false;
        };
        let state = &app.coordinator;
        let playlist_intact = (0..PLAYLIST).all(|i| {
            state.state(&format!("playlist-{i:02}")) == Some(format!("track-{i:02}.mp3").as_str())
        });
        // The cargo is the components plus the snapshot and plan, a few
        // hundred bytes to a few KiB on top of the 4.5 MB.
        let overhead = self
            .world
            .migration_log()
            .last()
            .and_then(|r| r.shipped_bytes.checked_sub(self.deployed.wire_len()));
        app.host == dest
            && app.state == AppState::Running
            && app.components == self.deployed
            && overhead.is_some_and(|b| b < SNAPSHOT_BYTES_MAX)
            && playlist_intact
            && state.state("position-ms") == Some(self.position.as_str())
    }

    fn finish(&mut self) -> bool {
        self.world.in_flight_count() == 0
    }

    fn probe(&mut self, tr: &mut Tracer) -> u64 {
        match self.world.app(self.app) {
            Ok(app) => crate::probe_wire(&app.components, tr),
            Err(_) => 0,
        }
    }

    fn counts(&self) -> Counts {
        world_counts(&self.world, &self.sim, self.log_start)
    }
}
