//! Wire payloads of the ACL conversations between middleware parts.

use mdagent_wire::bytes::BufMut;
use mdagent_wire::{impl_wire_struct, Reader, Wire, WireError};

use crate::component::ComponentSet;
use crate::mobility::MigrationPlan;
use crate::snapshot::{Snapshot, SnapshotDelta};

/// Ontology slot values used by MDAgent conversations.
pub mod ontologies {
    /// Context event notification (kernel → AA).
    pub const CONTEXT: &str = "mdagent.context";
    /// Migration request (AA → MA), payload [`MigrationPlan`].
    ///
    /// [`MigrationPlan`]: crate::MigrationPlan
    pub const MIGRATE: &str = "mdagent.migrate";
    /// Clone-dispatch request (AA → MA), payload [`MigrationPlan`].
    ///
    /// [`MigrationPlan`]: crate::MigrationPlan
    pub const CLONE: &str = "mdagent.clone";
    /// Wrapped cargo hand-off (middleware → MA), payload [`Cargo`].
    ///
    /// [`Cargo`]: super::Cargo
    pub const CARGO: &str = "mdagent.cargo";
    /// State synchronization between replicas, payload [`SyncUpdate`].
    ///
    /// [`SyncUpdate`]: super::SyncUpdate
    pub const SYNC: &str = "mdagent.sync";
    /// Migration retry nudge (middleware → MA) after a transfer timed out,
    /// payload [`RetryNotice`].
    ///
    /// [`RetryNotice`]: super::RetryNotice
    pub const RETRY: &str = "mdagent.retry";
}

/// Flattened context event, as delivered to autonomous agents.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ContextNotice {
    /// Topic string (see [`mdagent_context::topics`]).
    pub topic: String,
    /// User id (when applicable).
    pub user_raw: u32,
    /// Space id (when applicable).
    pub space_raw: u32,
    /// Command verb (user indications).
    pub command: String,
    /// Command arguments (user indications).
    pub args: Vec<String>,
    /// Milliseconds value (response-time events).
    pub millis: f64,
}

impl_wire_struct!(ContextNotice {
    topic,
    user_raw,
    space_raw,
    command,
    args,
    millis
});

impl ContextNotice {
    /// Builds a notice from a context event.
    pub fn from_event(event: &mdagent_context::ContextEvent) -> Self {
        use mdagent_context::ContextData as D;
        let mut notice = ContextNotice {
            topic: event.topic().to_owned(),
            ..Default::default()
        };
        match &event.data {
            D::Location { user, space } => {
                notice.user_raw = user.0;
                notice.space_raw = space.0;
            }
            D::UserIndication {
                user,
                command,
                args,
            } => {
                notice.user_raw = user.0;
                notice.command = command.clone();
                notice.args = args.clone();
            }
            D::ResponseTime { millis, .. } => {
                notice.millis = *millis;
            }
            D::Preference { user, key, value } => {
                notice.user_raw = user.0;
                notice.command = key.clone();
                notice.args = vec![value.clone()];
            }
            D::RawDistance { badge, meters, .. } => {
                notice.user_raw = badge.0;
                notice.millis = *meters;
            }
        }
        notice
    }
}

/// Compact trace context carried on the wire so a migration's
/// destination-side spans join the trace the source host started.
///
/// `trace_id` is the raw id of the migration's root span in the sending
/// collector; `parent_span` is the raw id of the in-transit
/// (`migration.migrate`) span the destination should parent its
/// check-in spans to. Both are plain raw span ids widened to `u64` so
/// the encoding stays a pair of varints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// Root span id of the sending side's trace.
    pub trace_id: u64,
    /// Span the receiving side should parent to.
    pub parent_span: u64,
}

impl_wire_struct!(TraceContext {
    trace_id,
    parent_span
});

/// The wrapped bundle a mobile agent carries: plan, snapshot and the
/// component payloads being shipped. Its wire size *is* the migration
/// payload the platform bills for.
#[derive(Debug, Clone, PartialEq)]
pub struct Cargo {
    /// The plan being executed.
    pub plan: MigrationPlan,
    /// Application snapshot (states).
    pub snapshot: Snapshot,
    /// Wrapped components.
    pub components: ComponentSet,
    /// Bytes of data left at the source for remote streaming.
    pub remote_bytes: u64,
    /// Components elided from the payload because the destination already
    /// holds their bytes, listed as `(name, content digest)`.
    pub elided: Vec<(String, u64)>,
    /// Snapshot state encoded as a delta against a base the destination
    /// holds; when set, [`Cargo::snapshot`] is a header-only stub.
    pub snapshot_delta: Option<SnapshotDelta>,
    /// Trace context stamped by the source when trace propagation is on.
    /// Encoded as a *trailing optional*: `None` appends nothing, so the
    /// byte stream of a defaults-OFF run is identical to the pre-context
    /// format (and old captures decode as `None`).
    pub trace_ctx: Option<TraceContext>,
}

// Hand-written (not `impl_wire_struct!`) because of the trailing-optional
// `trace_ctx`: the six base fields encode exactly as the macro would, and
// the context is present iff bytes remain after them — an `Option` tag
// byte would change the defaults-OFF encoding.
impl Wire for Cargo {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.plan.encode(buf);
        self.snapshot.encode(buf);
        self.components.encode(buf);
        self.remote_bytes.encode(buf);
        self.elided.encode(buf);
        self.snapshot_delta.encode(buf);
        if let Some(ctx) = &self.trace_ctx {
            ctx.encode(buf);
        }
    }

    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Cargo {
            plan: Wire::decode(reader)?,
            snapshot: Wire::decode(reader)?,
            components: Wire::decode(reader)?,
            remote_bytes: Wire::decode(reader)?,
            elided: Wire::decode(reader)?,
            snapshot_delta: Wire::decode(reader)?,
            trace_ctx: if reader.is_exhausted() {
                None
            } else {
                Some(Wire::decode(reader)?)
            },
        })
    }

    fn encoded_len(&self) -> usize {
        self.plan.encoded_len()
            + self.snapshot.encoded_len()
            + self.components.encoded_len()
            + self.remote_bytes.encoded_len()
            + self.elided.encoded_len()
            + self.snapshot_delta.encoded_len()
            + self.trace_ctx.as_ref().map_or(0, Wire::encoded_len)
    }
}

impl Cargo {
    /// Exact wire size.
    pub fn wire_len(&self) -> u64 {
        self.encoded_len() as u64
    }
}

/// A replica state synchronization message.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncUpdate {
    /// Target application (raw id) on the receiving side.
    pub app_raw: u32,
    /// State key.
    pub key: String,
    /// State value.
    pub value: String,
    /// Source coordinator version.
    pub version: u64,
}

impl_wire_struct!(SyncUpdate {
    app_raw,
    key,
    value,
    version
});

/// A retry nudge from the migration watchdog: the MA should re-dispatch
/// the cargo it still holds (unless it already arrived).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetryNotice {
    /// The attempt number this retry starts (1-based; the initial transfer
    /// is attempt 1).
    pub attempt: u32,
}

impl_wire_struct!(RetryNotice { attempt });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{Component, ComponentKind};
    use crate::mobility::{BindingPolicy, DataStrategy, MobilityMode};
    use mdagent_context::{ContextData, ContextEvent, UserId};
    use mdagent_simnet::{SimTime, SpaceId};
    use mdagent_wire::{from_bytes, to_bytes};

    #[test]
    fn notice_from_location_event() {
        let e = ContextEvent::new(
            SimTime::ZERO,
            ContextData::Location {
                user: UserId(4),
                space: SpaceId(2),
            },
        );
        let n = ContextNotice::from_event(&e);
        assert_eq!(n.topic, "context.location");
        assert_eq!(n.user_raw, 4);
        assert_eq!(n.space_raw, 2);
        let back: ContextNotice = from_bytes(&to_bytes(&n)).unwrap();
        assert_eq!(back, n);
    }

    #[test]
    fn notice_from_indication_event() {
        let e = ContextEvent::new(
            SimTime::ZERO,
            ContextData::UserIndication {
                user: UserId(1),
                command: "dispatch-slides".into(),
                args: vec!["2".into(), "3".into()],
            },
        );
        let n = ContextNotice::from_event(&e);
        assert_eq!(n.command, "dispatch-slides");
        assert_eq!(n.args, ["2", "3"]);
    }

    #[test]
    fn cargo_wire_size_tracks_components() {
        let plan = MigrationPlan {
            app_raw: 0,
            mode: MobilityMode::FollowMe,
            policy: BindingPolicy::Adaptive,
            dest_host_raw: 1,
            ship_components: vec!["codec".into()],
            data_strategy: DataStrategy::RemoteStream,
            inter_space: false,
        };
        let mut components = ComponentSet::new();
        components.insert(Component::synthetic("codec", ComponentKind::Logic, 180_000));
        let cargo = Cargo {
            plan,
            snapshot: Snapshot {
                app_name: "player".into(),
                coordinator: Default::default(),
                profile_bytes: Vec::new(),
                sequence: 1,
            },
            components,
            remote_bytes: 2_000_000,
            elided: Vec::new(),
            snapshot_delta: None,
            trace_ctx: None,
        };
        let bytes = to_bytes(&cargo);
        assert_eq!(bytes.len() as u64, cargo.wire_len());
        assert!(cargo.wire_len() > 180_000, "payload dominates");
        assert!(cargo.wire_len() < 181_000, "overhead is small");
        let back: Cargo = from_bytes(&bytes).unwrap();
        assert_eq!(back, cargo);
    }

    #[test]
    fn cargo_trace_ctx_is_trailing_optional() {
        let base = Cargo {
            plan: MigrationPlan {
                app_raw: 3,
                mode: MobilityMode::FollowMe,
                policy: BindingPolicy::Adaptive,
                dest_host_raw: 1,
                ship_components: Vec::new(),
                data_strategy: DataStrategy::RemoteStream,
                inter_space: true,
            },
            snapshot: Snapshot {
                app_name: "player".into(),
                coordinator: Default::default(),
                profile_bytes: Vec::new(),
                sequence: 9,
            },
            components: ComponentSet::new(),
            remote_bytes: 42,
            elided: vec![("codec".into(), 0xDEAD)],
            snapshot_delta: None,
            trace_ctx: None,
        };
        let plain = to_bytes(&base);
        // None appends nothing: the ctx field is invisible on the wire,
        // so defaults-OFF runs keep the pre-context byte stream.
        let ctx = TraceContext {
            trace_id: 7,
            parent_span: 300,
        };
        let stamped = Cargo {
            trace_ctx: Some(ctx),
            ..base.clone()
        };
        let stamped_bytes = to_bytes(&stamped);
        assert_eq!(stamped_bytes.len(), plain.len() + ctx.encoded_len());
        assert_eq!(&stamped_bytes[..plain.len()], &plain[..]);
        // Old captures (no trailing bytes) decode with ctx = None.
        let back_plain: Cargo = from_bytes(&plain).unwrap();
        assert_eq!(back_plain.trace_ctx, None);
        // Stamped cargo roundtrips, ctx intact.
        let back: Cargo = from_bytes(&stamped_bytes).unwrap();
        assert_eq!(back, stamped);
        assert_eq!(back.trace_ctx, Some(ctx));
    }

    #[test]
    fn sync_update_roundtrip() {
        let s = SyncUpdate {
            app_raw: 7,
            key: "slide".into(),
            value: "13".into(),
            version: 42,
        };
        let back: SyncUpdate = from_bytes(&to_bytes(&s)).unwrap();
        assert_eq!(back, s);
    }
}
