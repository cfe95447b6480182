//! Payload ownership along a migration: the components that land at the
//! destination are views into the wire image the mobile agent travelled
//! as, not deep copies, and they still equal what was deployed.

use mdagent_context::UserId;
use mdagent_core::{
    AppId, AppState, BindingPolicy, Component, ComponentKind, ComponentSet, DeviceProfile,
    Middleware, MobilityMode, UserProfile,
};
use mdagent_simnet::{CpuFactor, HostId, SimDuration, Simulator};

/// Bytes the mobile agent's own state adds around the cargo in its
/// snapshot: the app id varint and the cargo's `Option` tag.
const MA_STATE_BYTES: usize = 8;

/// The Fig. 8 testbed: two PCs on a 10 Mbps link, the media player
/// deployed on the first.
fn testbed() -> (
    Middleware,
    Simulator<Middleware>,
    [HostId; 2],
    AppId,
    ComponentSet,
) {
    let mut b = Middleware::builder();
    let room_a = b.space("room-a");
    let room_b = b.space("room-b");
    let p4 = b.host("p4", room_a, CpuFactor::REFERENCE, DeviceProfile::pc);
    let pm = b.host("pm", room_b, CpuFactor::new(0.94), DeviceProfile::pc);
    b.link(p4, pm, SimDuration::from_millis(1), 10_000_000, 0.8, true)
        .unwrap();
    b.seed(3);
    let (mut world, mut sim) = b.build();
    let deployed: ComponentSet = [
        Component::synthetic("codec", ComponentKind::Logic, 180_000),
        Component::synthetic("player-ui", ComponentKind::Presentation, 60_000),
        Component::synthetic("music-file", ComponentKind::Data, 430_000),
    ]
    .into_iter()
    .collect();
    let app = Middleware::deploy_app(
        &mut world,
        &mut sim,
        "smart-media-player",
        p4,
        deployed.clone(),
        UserProfile::new(UserId(0)),
    )
    .unwrap();
    sim.run(&mut world);
    (world, sim, [p4, pm], app, deployed)
}

/// Every landed payload views one shared image slightly larger than the
/// shipped cargo (the mobile agent's snapshot), none is an owned copy, and
/// none shares the deployed set's storage.
fn assert_views_of_one_image(landed: &ComponentSet, deployed: &ComponentSet, shipped: u64) {
    assert_eq!(landed, deployed, "landed components equal the deployed set");
    let first = landed.iter().next().unwrap();
    for c in landed.iter() {
        let image = c.payload.retained_len();
        assert!(
            c.payload.shares_storage_with(&first.payload),
            "{} is not a view of the common image",
            c.name
        );
        assert!(
            image > c.payload.len(),
            "{} owns its bytes ({image} retained)",
            c.name
        );
        let shipped = usize::try_from(shipped).unwrap();
        assert!(
            (shipped..=shipped + MA_STATE_BYTES).contains(&image),
            "{} retains {image} bytes, the cargo image is {shipped}",
            c.name
        );
        let source = deployed.get(&c.name).unwrap();
        assert!(!c.payload.shares_storage_with(&source.payload));
    }
}

#[test]
fn static_follow_me_lands_views_of_the_wire_image() {
    let (mut world, mut sim, [_, pm], app, deployed) = testbed();
    Middleware::migrate_now(
        &mut world,
        &mut sim,
        app,
        pm,
        MobilityMode::FollowMe,
        BindingPolicy::Static,
    )
    .unwrap();
    sim.run(&mut world);
    let landed = world.app(app).unwrap();
    assert_eq!((landed.host, landed.state), (pm, AppState::Running));
    let shipped = world.migration_log().last().unwrap().shipped_bytes;
    assert!(shipped > deployed.wire_len());
    assert_views_of_one_image(&landed.components, &deployed, shipped);
}

#[test]
fn clone_dispatch_lands_views_of_the_wire_image() {
    let (mut world, mut sim, [p4, pm], app, deployed) = testbed();
    Middleware::migrate_now(
        &mut world,
        &mut sim,
        app,
        pm,
        MobilityMode::CloneDispatch,
        BindingPolicy::Static,
    )
    .unwrap();
    sim.run(&mut world);
    // The original keeps its own storage, untouched by the clone.
    let original = world.app(app).unwrap();
    assert_eq!((original.host, original.state), (p4, AppState::Running));
    for c in original.components.iter() {
        let source = deployed.get(&c.name).unwrap();
        assert!(c.payload.shares_storage_with(&source.payload));
    }
    let replica = world
        .apps()
        .find(|a| a.cloned_from == Some(app))
        .expect("a replica landed");
    assert_eq!((replica.host, replica.state), (pm, AppState::Running));
    let shipped = world.migration_log().last().unwrap().shipped_bytes;
    assert_views_of_one_image(&replica.components, &deployed, shipped);
}
