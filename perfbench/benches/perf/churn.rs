//! `registry-churn`: one space's registry center under leased-resource
//! churn. Each step writes (register with a lease, deregister, expire),
//! flushes the ontology deltas, then looks up classes from every depth of
//! the class tree and checks each match set against a reference the
//! benchmark computes from its own bookkeeping.

use mdagent_registry::{RegistryCenter, ResourceRecord};
use mdagent_simnet::{HostId, SimRng, SpaceId};

use crate::counts::Counts;
use crate::trace::Tracer;
use crate::Workload;

/// Children per class; with [`DEPTH`] levels below the root the tree has
/// 1 + 4 + 16 + 64 + 256 = 341 classes.
const FANOUT: usize = 4;
/// Levels below the root.
const DEPTH: usize = 4;
/// Resources registered at set-up: the steady-state population of the
/// churn below, so the timed phase starts stationary.
const INITIAL: usize = 3_600;

// The traffic mix below is a chosen design point, not a measured one: no
// source in the repository or the paper gives registry traffic rates. It
// stands for a busy space whose devices come and go between lookups. Per
// step, 12 registrations arrive and as many leave in the steady state: 4
// by explicit deregistration and about 8 by lease expiry, so every flush
// carries both additions and retractions and DRed runs on each step. That
// is 16 writes and one expiry sweep against 5 lookups, about 3:1 by call
// count. By time the lookups dominate: on a 2-vCPU VM a step is about
// 4 ms, of which the lookups take about three quarters, the flush a fifth
// and the writes the rest (`registry.lookup_us`, `ontology.flush_ms` and
// `registry.write_us` in the traced run give the split). The sizes were
// picked to reach a few thousand live resources and a step of a few ms.
/// Registrations per step.
const REGISTERS: usize = 12;
/// Deregistrations per step.
const DEREGISTERS: usize = 4;
/// Lookups per step: one at each depth, root included.
const LOOKUPS: usize = DEPTH + 1;
/// Lease lifetime range of a registration, in steps.
const LEASE_STEPS: (u64, u64) = (150, 600);
/// Benchmark clock advance per step, µs.
const TICK_US: u64 = 1_000;
/// Share of resources declared substitutable.
const SUBSTITUTABLE: f64 = 0.1;

struct Class {
    name: String,
    parent: Option<usize>,
    depth: usize,
}

struct Live {
    /// Number in the resource's name, `res:<id>`.
    id: u64,
    class: usize,
    substitutable: bool,
    expiry: u64,
}

/// One step's inputs, generated before the step is timed.
#[derive(Default)]
struct Batch {
    registers: Vec<ResourceRecord>,
    deregisters: Vec<String>,
    /// Leases the registry must expire this step.
    expiries: usize,
    lookups: Vec<usize>,
}

/// The registry under churn plus the benchmark's reference bookkeeping.
pub struct Churn {
    center: RegistryCenter,
    classes: Vec<Class>,
    /// Class indices per depth, for drawing lookups.
    by_depth: Vec<Vec<usize>>,
    live: Vec<Live>,
    rng: SimRng,
    now: u64,
    next_id: u64,
    batch: Batch,
    /// `(class, matched names)` of the last step's lookups.
    results: Vec<(usize, Vec<String>)>,
    lookups: u64,
    overdeleted: u64,
    rederived: u64,
}

fn class_tree() -> Vec<Class> {
    let mut classes = vec![Class {
        name: "cls:Resource".to_owned(),
        parent: None,
        depth: 0,
    }];
    let mut level = vec![0];
    for depth in 1..=DEPTH {
        let mut next = Vec::new();
        for &parent in &level {
            for k in 0..FANOUT {
                next.push(classes.len());
                let name = format!("{}-{k}", classes[parent].name);
                classes.push(Class {
                    name,
                    parent: Some(parent),
                    depth,
                });
            }
        }
        level = next;
    }
    classes
}

fn name_of(id: u64) -> String {
    format!("res:{id}")
}

/// The id in a name [`name_of`] made; `None` for any other name.
fn id_of(name: &str) -> Option<u64> {
    name.strip_prefix("res:")?.parse().ok()
}

impl Churn {
    /// Whether class `sub` is `sup` or lies below it.
    fn within(&self, mut sub: usize, sup: usize) -> bool {
        loop {
            if sub == sup {
                return true;
            }
            match self.classes[sub].parent {
                Some(p) => sub = p,
                None => return false,
            }
        }
    }

    /// The ids `find_resources(class)` must return, sorted: exact and
    /// subsumed matches, plus substitutable resources of a superclass.
    /// Ids rather than names keep the untimed check short, so more of a
    /// run's wall time is timed steps.
    fn reference(&self, class: usize) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .live
            .iter()
            .filter(|r| {
                self.within(r.class, class) || (r.substitutable && self.within(class, r.class))
            })
            .map(|r| r.id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Draws a new leased resource, records it as live and returns its
    /// registration.
    fn new_resource(&mut self, lifetime_steps: u64) -> ResourceRecord {
        let class = self.rng.uniform_u64(0, self.classes.len() as u64 - 1) as usize;
        let live = Live {
            id: self.next_id,
            class,
            substitutable: self.rng.chance(SUBSTITUTABLE),
            expiry: self.now + lifetime_steps * TICK_US,
        };
        self.next_id += 1;
        let record = ResourceRecord::new(
            name_of(live.id),
            &self.classes[class].name,
            SpaceId(0),
            HostId(0),
        )
        .substitutable(live.substitutable)
        .address(format!("host-0:{}", 9000 + self.next_id % 1000))
        .lease_until(live.expiry);
        self.live.push(live);
        record
    }

    /// The remaining lease, in steps, of a resource already registered
    /// when the run starts: a length-biased lifetime with a uniform
    /// position in it, the equilibrium of the lease renewal process.
    fn residual_lease(&mut self) -> u64 {
        loop {
            let lifetime = self.rng.uniform_u64(LEASE_STEPS.0, LEASE_STEPS.1);
            if self.rng.unit_f64() < lifetime as f64 / LEASE_STEPS.1 as f64 {
                return self.rng.uniform_u64(1, lifetime);
            }
        }
    }

    /// Flushes pending deltas and accumulates the DRed work it did.
    fn flush(&mut self, tr: &mut Tracer) {
        let before = self.center.retraction_flushes();
        let span = tr.open("ontology.flush");
        self.center.flush_deltas();
        tr.close(span);
        if self.center.retraction_flushes() > before {
            let stats = self.center.last_retract_stats();
            self.overdeleted += stats.overdeleted as u64;
            self.rederived += stats.rederived as u64;
        }
    }
}

impl Workload for Churn {
    const STEPS_PER_SECOND: u64 = 220;
    const SETUP_REPEATS: usize = 20;

    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let span = tr.open("registry.build");
        let classes = class_tree();
        let mut by_depth = vec![Vec::new(); DEPTH + 1];
        let mut center = RegistryCenter::new(SpaceId(0));
        for (i, class) in classes.iter().enumerate() {
            by_depth[class.depth].push(i);
            if let Some(parent) = class.parent {
                center.declare_subclass(&class.name, &classes[parent].name);
            }
        }
        tr.close(span);
        let mut churn = Churn {
            center,
            classes,
            by_depth,
            live: Vec::with_capacity(INITIAL * 2),
            rng: SimRng::seed_from(seed ^ 0xC4A2),
            now: 0,
            next_id: 0,
            batch: Batch::default(),
            results: Vec::new(),
            lookups: 0,
            overdeleted: 0,
            rederived: 0,
        };
        for _ in 0..INITIAL {
            let lifetime = churn.residual_lease();
            let record = churn.new_resource(lifetime);
            let span = tr.open("registry.write");
            churn.center.register_resource(record);
            tr.close(span);
        }
        churn.flush(tr);
        // Warm-up: one lookup per class fills the subclass closure cache
        // and every allocation the lookups need.
        let span = tr.open("registry.lookup");
        for class in &churn.classes {
            std::hint::black_box(churn.center.find_resources(&class.name));
        }
        tr.close(span);
        Ok(churn)
    }

    fn prepare(&mut self) {
        self.now += TICK_US;
        let mut batch = Batch::default();
        for _ in 0..REGISTERS {
            let lifetime = self.rng.uniform_u64(LEASE_STEPS.0, LEASE_STEPS.1);
            batch.registers.push(self.new_resource(lifetime));
        }
        for _ in 0..DEREGISTERS {
            let victim = self.rng.uniform_u64(0, self.live.len() as u64 - 1) as usize;
            batch
                .deregisters
                .push(name_of(self.live.swap_remove(victim).id));
        }
        let before = self.live.len();
        let now = self.now;
        self.live.retain(|r| r.expiry > now);
        batch.expiries = before - self.live.len();
        for pool in &self.by_depth {
            batch
                .lookups
                .push(pool[self.rng.uniform_u64(0, pool.len() as u64 - 1) as usize]);
        }
        self.batch = batch;
    }

    fn step(&mut self, tr: &mut Tracer) -> Result<bool, String> {
        let batch = std::mem::take(&mut self.batch);
        for record in batch.registers {
            let span = tr.open("registry.write");
            self.center.register_resource(record);
            tr.close(span);
        }
        for name in &batch.deregisters {
            let span = tr.open("registry.write");
            let removed = self.center.deregister_resource(name);
            tr.close(span);
            if !removed {
                return Err(format!("{name} was not registered"));
            }
        }
        let span = tr.open("registry.write");
        let expired = self.center.expire_leases(self.now);
        tr.close(span);
        if expired != batch.expiries {
            return Err(format!(
                "expired {expired} leases, expected {}",
                batch.expiries
            ));
        }

        self.flush(tr);

        self.results.clear();
        for class in batch.lookups {
            let span = tr.open("registry.lookup");
            let names: Vec<String> = self
                .center
                .find_resources(&self.classes[class].name)
                .into_iter()
                .map(|m| m.resource.name)
                .collect();
            tr.close(span);
            self.lookups += 1;
            self.results.push((class, names));
        }
        Ok(false)
    }

    fn check(&mut self) -> bool {
        let results = std::mem::take(&mut self.results);
        results.len() == LOOKUPS
            && results.into_iter().all(|(class, names)| {
                let ids: Option<Vec<u64>> = names.iter().map(|n| id_of(n)).collect();
                ids.is_some_and(|mut ids| {
                    ids.sort_unstable();
                    ids == self.reference(class)
                })
            })
    }

    fn finish(&mut self) -> bool {
        self.center.resources().count() == self.live.len()
    }

    fn counts(&self) -> Counts {
        let lookups = self.center.total_lookups();
        Counts::from([
            ("registry.live", self.live.len() as u64),
            ("registry.lookups", self.lookups),
            ("registry.candidates", lookups.candidates as u64),
            ("registry.hits", lookups.hits as u64),
            (
                "ontology.incremental_runs",
                self.center.incremental_materializations() as u64,
            ),
            (
                "ontology.retraction_flushes",
                self.center.retraction_flushes() as u64,
            ),
            (
                "ontology.full_materializations",
                self.center.full_materializations() as u64,
            ),
            (
                "ontology.retracted_facts",
                self.center.retracted_facts() as u64,
            ),
            ("ontology.overdeleted", self.overdeleted),
            ("ontology.rederived", self.rederived),
            ("ontology.triples", self.center.graph().store().len() as u64),
        ])
    }
}
