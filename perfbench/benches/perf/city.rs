//! `city-follow-me`: the paper's whole pipeline at city size. A user
//! walks to an adjacent smart space; sensing notices, the user's AA
//! decides, the registry is consulted, the MA moves the messenger and it
//! resumes on the new space's PC.

use mdagent_apps::Messenger;
use mdagent_context::{BadgeId, UserId};
use mdagent_core::{
    AppId, AppState, AutonomousAgent, BindingPolicy, ComponentSet, DeviceProfile, Middleware,
    UserProfile,
};
use mdagent_simnet::{CpuFactor, HostId, SimDuration, SimRng, Simulator, SpaceId};

use crate::counts::{world_counts, Counts};
use crate::trace::Tracer;
use crate::Workload;

/// Grid side: 16 × 16 smart spaces.
const SIDE: usize = 16;
/// One user (badge, messenger, AA) per space on average.
const USERS: usize = 256;
/// Chat history carried by each messenger.
const HISTORY_BYTES: usize = 20_000;
/// Simulated time a move may take before it counts as failed.
const MOVE_CAP: SimDuration = SimDuration::from_secs(30);
/// Simulated warm-up after set-up: a few sensing rounds settle fusion.
const WARM_UP: SimDuration = SimDuration::from_secs(2);

struct User {
    badge: BadgeId,
    app: AppId,
    cell: usize,
}

/// The city world and the benchmark's view of where every user is.
pub struct City {
    world: Middleware,
    sim: Simulator<Middleware>,
    spaces: Vec<SpaceId>,
    hosts: Vec<HostId>,
    users: Vec<User>,
    rng: SimRng,
    /// `(user, cell)` of the last step, for its output check.
    last: Option<(usize, usize)>,
    /// A messenger's components as deployed, for the wire probes.
    deployed: ComponentSet,
}

fn neighbours(cell: usize) -> Vec<usize> {
    let (r, c) = (cell / SIDE, cell % SIDE);
    let mut out = Vec::with_capacity(4);
    if r > 0 {
        out.push(cell - SIDE);
    }
    if r + 1 < SIDE {
        out.push(cell + SIDE);
    }
    if c > 0 {
        out.push(cell - 1);
    }
    if c + 1 < SIDE {
        out.push(cell + 1);
    }
    out
}

impl Workload for City {
    const STEPS_PER_SECOND: u64 = 1_200;
    const SETUP_REPEATS: usize = 24;

    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let span = tr.open("core.build");
        let mut b = Middleware::builder();
        let mut spaces = Vec::with_capacity(SIDE * SIDE);
        let mut hosts = Vec::with_capacity(SIDE * SIDE);
        for cell in 0..SIDE * SIDE {
            let (r, c) = (cell / SIDE, cell % SIDE);
            let space = b.space(&format!("space-{r}-{c}"));
            hosts.push(b.host(
                &format!("pc-{r}-{c}"),
                space,
                CpuFactor::REFERENCE,
                DeviceProfile::pc,
            ));
            spaces.push(space);
        }
        for cell in 0..SIDE * SIDE {
            for n in neighbours(cell) {
                if n > cell {
                    b.gateway(hosts[cell], hosts[n])
                        .map_err(|e| e.to_string())?;
                }
            }
        }
        b.seed(seed);
        let (mut world, mut sim) = b.build();
        tr.close(span);

        let mut rng = SimRng::seed_from(seed ^ 0xC17F);
        let span = tr.open("core.deploy");
        let mut users = Vec::with_capacity(USERS);
        for u in 0..USERS {
            let cell = rng.uniform_u64(0, (SIDE * SIDE - 1) as u64) as usize;
            let profile = UserProfile::new(UserId(u as u32));
            world.attach_user(profile.clone(), BadgeId(u as u32), spaces[cell], 2.0);
            let messenger =
                Messenger::deploy(&mut world, &mut sim, hosts[cell], profile, HISTORY_BYTES)
                    .map_err(|e| e.to_string())?;
            users.push(User {
                badge: BadgeId(u as u32),
                app: messenger.app,
                cell,
            });
        }
        tr.close(span);

        let span = tr.open("core.spawn_aa");
        for (u, user) in users.iter().enumerate() {
            Middleware::spawn_autonomous_agent(
                &mut world,
                &mut sim,
                hosts[user.cell],
                AutonomousAgent::new(UserId(u as u32), user.app, BindingPolicy::Adaptive),
            )
            .map_err(|e| e.to_string())?;
        }
        tr.close(span);

        let span = tr.open("simnet.run");
        Middleware::start_sensing(&mut world, &mut sim);
        let until = sim.now() + WARM_UP;
        sim.run_until(&mut world, until);
        tr.close(span);
        Ok(City {
            world,
            sim,
            spaces,
            hosts,
            users,
            rng,
            last: None,
            deployed: Messenger::components(HISTORY_BYTES),
        })
    }

    fn step(&mut self, tr: &mut Tracer) -> Result<bool, String> {
        let u = self.rng.uniform_u64(0, (USERS - 1) as u64) as usize;
        let options = neighbours(self.users[u].cell);
        let to = *self
            .rng
            .pick(&options)
            .ok_or("a grid cell has no neighbour")?;
        self.last = Some((u, to));
        let (badge, app, dest) = (self.users[u].badge, self.users[u].app, self.hosts[to]);

        let span = tr.open("core.move_user");
        self.world.move_user(badge, self.spaces[to], 2.0);
        tr.close(span);

        let cap = self.sim.now() + MOVE_CAP;
        let span = tr.open("simnet.run");
        let mut hit_cap = false;
        loop {
            if !self.sim.step(&mut self.world) {
                hit_cap = true;
                break;
            }
            if matches!(self.world.app(app), Ok(a) if a.host == dest && a.state == AppState::Running)
            {
                break;
            }
            if self.sim.now() > cap {
                hit_cap = true;
                break;
            }
        }
        tr.close(span);
        self.users[u].cell = to;
        Ok(hit_cap)
    }

    fn check(&mut self) -> bool {
        let Some((u, cell)) = self.last else {
            return false;
        };
        let Ok(primary) = self.world.primary_host(self.spaces[cell]) else {
            return false;
        };
        matches!(self.world.app(self.users[u].app), Ok(a) if a.host == primary && a.state == AppState::Running)
    }

    fn finish(&mut self) -> bool {
        // Let trailing acknowledgements land, then nothing may be in flight.
        let until = self.sim.now() + SimDuration::from_secs(5);
        self.sim.run_until(&mut self.world, until);
        self.world.in_flight_count() == 0
    }

    fn probe(&mut self, tr: &mut Tracer) -> u64 {
        crate::probe_wire(&self.deployed, tr)
    }

    fn counts(&self) -> Counts {
        world_counts(&self.world, &self.sim, 0)
    }
}
