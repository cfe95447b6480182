//! `encoded_len` is exact for every hand-written `Wire` impl on the
//! migration path: whatever a type computes structurally must equal the
//! length of the bytes it actually encodes, since transfer cost is billed
//! from `encoded_len` while the wire carries `to_bytes`.

use std::collections::BTreeMap;

use mdagent_agent::ContainerId;
use mdagent_core::{
    BindingPolicy, BindingTarget, Cargo, Component, ComponentKind, ComponentSet, Coordinator,
    DataStrategy, MigrationPlan, MobilityMode, Snapshot, SnapshotDelta, TraceContext,
};
use mdagent_fx::FxHashMap;
use mdagent_wire::{from_blob, to_bytes, Blob, Digest, Wire};
use proptest::prelude::*;

fn assert_len_exact<T: Wire>(value: &T) {
    assert_eq!(value.encoded_len(), to_bytes(value).len());
}

fn words() -> impl Strategy<Value = Vec<(String, String)>> {
    proptest::collection::vec((".{0,10}", ".{0,20}"), 0..8).prop_map(|v| {
        v.into_iter()
            .map(|(k, w)| (k.to_string(), w.to_string()))
            .collect()
    })
}

fn cargo() -> impl Strategy<Value = Cargo> {
    (
        (any::<u32>(), any::<u32>(), any::<u64>(), 0usize..5_000),
        words(),
        proptest::option::of((any::<u64>(), any::<u64>())),
        proptest::option::of(proptest::collection::vec(any::<u8>(), 0..40)),
    )
        .prop_map(|((app_raw, dest, remote, payload), state, ctx, delta)| {
            let mut coordinator = Coordinator::new();
            for (k, v) in &state {
                coordinator.set_state(k.as_str(), v.as_str());
            }
            let mut components = ComponentSet::new();
            components.insert(Component::synthetic("codec", ComponentKind::Logic, payload));
            components.insert(Component::synthetic("ui", ComponentKind::Presentation, 0));
            Cargo {
                plan: MigrationPlan {
                    app_raw,
                    mode: MobilityMode::FollowMe,
                    policy: BindingPolicy::Static,
                    dest_host_raw: dest,
                    ship_components: state.iter().map(|(k, _)| k.clone()).collect(),
                    data_strategy: DataStrategy::Carry,
                    inter_space: app_raw % 2 == 0,
                },
                snapshot: Snapshot {
                    app_name: "player".into(),
                    coordinator,
                    profile_bytes: vec![7; payload % 64],
                    sequence: remote,
                },
                components,
                remote_bytes: remote,
                elided: state.iter().map(|(k, _)| (k.clone(), remote)).collect(),
                snapshot_delta: delta.map(|middle| SnapshotDelta {
                    app_name: "player".into(),
                    base_sequence: 1,
                    base_digest: remote,
                    sequence: 2,
                    prefix_len: 3,
                    suffix_len: 4,
                    middle,
                }),
                trace_ctx: ctx.map(|(trace_id, parent_span)| TraceContext {
                    trace_id,
                    parent_span,
                }),
            }
        })
}

fn binding_target() -> impl Strategy<Value = BindingTarget> {
    (0u8..3, ".{0,16}", any::<u64>()).prop_map(|(tag, s, n)| match tag {
        0 => BindingTarget::LocalFile {
            path: s.to_string(),
            bytes: n,
        },
        1 => BindingTarget::RemoteUrl {
            url: s.to_string(),
            host_raw: n as u32,
        },
        _ => BindingTarget::RegistryResource {
            name: s.to_string(),
        },
    })
}

proptest! {
    #[test]
    fn cargo_len_is_exact(cargo in cargo()) {
        assert_len_exact(&cargo);
        let plain = Cargo { trace_ctx: None, ..cargo.clone() };
        assert_len_exact(&plain);
        prop_assert_eq!(
            cargo.wire_len() - plain.wire_len(),
            cargo.trace_ctx.map_or(0, |ctx| ctx.encoded_len() as u64)
        );
    }

    #[test]
    fn binding_target_len_is_exact(target in binding_target()) {
        assert_len_exact(&target);
    }

    #[test]
    fn map_lens_are_exact(entries in words(), numbers in proptest::collection::vec((any::<u16>(), any::<u64>()), 0..16)) {
        let tree: BTreeMap<String, String> = entries.iter().cloned().collect();
        assert_len_exact(&tree);
        let hashed: FxHashMap<String, String> = entries.into_iter().collect();
        assert_len_exact(&hashed);
        let numeric: FxHashMap<u16, u64> = numbers.into_iter().collect();
        assert_len_exact(&numeric);
    }

    #[test]
    fn small_id_lens_are_exact(raw in any::<u64>()) {
        assert_len_exact(&Digest(raw));
        assert_len_exact(&ContainerId(raw as u32));
    }

    #[test]
    fn blob_view_lens_are_exact(len in 0usize..5_000, cut in any::<u16>()) {
        let image = Blob::from(to_bytes(&(String::from("x"), Blob::zeroed(len))));
        let (_, view): (String, Blob) = from_blob(&image).unwrap();
        assert_len_exact(&view);
        let offset = usize::from(cut) % (len + 1);
        let sub = view.slice(offset, len - offset).unwrap();
        assert_len_exact(&sub);
    }
}
