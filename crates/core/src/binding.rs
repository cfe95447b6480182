//! Resource bindings and the rebinding policy (paper §3.3).
//!
//! "If the network is busy and destination machine has the required
//! resources, then the local resource can be used without the need to
//! transfer resources from the remote source host."

use mdagent_wire::{impl_wire_enum, impl_wire_struct};

/// How a binding is currently satisfied.
#[derive(Debug, Clone, PartialEq)]
pub enum BindingTarget {
    /// A file present on the local host.
    LocalFile {
        /// Path-ish identifier.
        path: String,
        /// Size in bytes.
        bytes: u64,
    },
    /// A resource streamed from a remote host by URL (the paper's
    /// "played remotely through URL in the original host").
    RemoteUrl {
        /// The URL.
        url: String,
        /// Raw id of the host serving it.
        host_raw: u32,
    },
    /// A device resolved through the registry (printer, projector).
    RegistryResource {
        /// The resource individual name.
        name: String,
    },
}

// Wire for BindingTarget is hand-written (enum with payloads).
impl mdagent_wire::Wire for BindingTarget {
    fn encode<B: mdagent_wire::bytes::BufMut>(&self, buf: &mut B) {
        match self {
            BindingTarget::LocalFile { path, bytes } => {
                0u32.encode(buf);
                path.encode(buf);
                bytes.encode(buf);
            }
            BindingTarget::RemoteUrl { url, host_raw } => {
                1u32.encode(buf);
                url.encode(buf);
                host_raw.encode(buf);
            }
            BindingTarget::RegistryResource { name } => {
                2u32.encode(buf);
                name.encode(buf);
            }
        }
    }

    fn decode(reader: &mut mdagent_wire::Reader<'_>) -> Result<Self, mdagent_wire::WireError> {
        match u32::decode(reader)? {
            0 => Ok(BindingTarget::LocalFile {
                path: String::decode(reader)?,
                bytes: u64::decode(reader)?,
            }),
            1 => Ok(BindingTarget::RemoteUrl {
                url: String::decode(reader)?,
                host_raw: u32::decode(reader)?,
            }),
            2 => Ok(BindingTarget::RegistryResource {
                name: String::decode(reader)?,
            }),
            tag => Err(mdagent_wire::WireError::InvalidTag {
                tag,
                type_name: "BindingTarget",
            }),
        }
    }

    fn encoded_len(&self) -> usize {
        match self {
            BindingTarget::LocalFile { path, bytes } => {
                0u32.encoded_len() + path.encoded_len() + bytes.encoded_len()
            }
            BindingTarget::RemoteUrl { url, host_raw } => {
                1u32.encoded_len() + url.encoded_len() + host_raw.encoded_len()
            }
            BindingTarget::RegistryResource { name } => 2u32.encoded_len() + name.encoded_len(),
        }
    }
}

/// A named binding from the application to a required resource class.
#[derive(Debug, Clone, PartialEq)]
pub struct Binding {
    /// Binding name ("playlist-data", "output-printer").
    pub name: String,
    /// The ontology class of resource required, e.g. `"imcl:MusicData"`.
    pub required_class: String,
    /// How it is currently satisfied.
    pub target: BindingTarget,
}

impl_wire_struct!(Binding {
    name,
    required_class,
    target
});

/// The decision taken for one binding when the application lands on a new
/// host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RebindOutcome {
    /// A compatible local resource exists; rebind to it.
    RebindLocal,
    /// Keep (or establish) a remote URL back to the source host.
    StreamRemote,
    /// The bytes were carried along inside the mobile agent.
    Carried,
}

impl_wire_enum!(RebindOutcome {
    RebindLocal = 0,
    StreamRemote = 1,
    Carried = 2,
});

/// Decides how a binding should be satisfied at the destination.
///
/// * A compatible resource at the destination always wins (no transfer).
/// * Otherwise, if the payload was shipped with the agent, it is local now.
/// * Otherwise the binding degrades to remote streaming from the source.
pub fn rebind(destination_has_compatible: bool, carried_with_agent: bool) -> RebindOutcome {
    if destination_has_compatible {
        RebindOutcome::RebindLocal
    } else if carried_with_agent {
        RebindOutcome::Carried
    } else {
        RebindOutcome::StreamRemote
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdagent_wire::{from_bytes, to_bytes};

    #[test]
    fn rebind_policy_table() {
        assert_eq!(rebind(true, false), RebindOutcome::RebindLocal);
        assert_eq!(rebind(true, true), RebindOutcome::RebindLocal);
        assert_eq!(rebind(false, true), RebindOutcome::Carried);
        assert_eq!(rebind(false, false), RebindOutcome::StreamRemote);
    }

    #[test]
    fn binding_wire_roundtrip() {
        for target in [
            BindingTarget::LocalFile {
                path: "/music/prelude.mp3".into(),
                bytes: 2_000_000,
            },
            BindingTarget::RemoteUrl {
                url: "mdagent://host-0/music/prelude.mp3".into(),
                host_raw: 0,
            },
            BindingTarget::RegistryResource {
                name: "imcl:prn-821".into(),
            },
        ] {
            let b = Binding {
                name: "data".into(),
                required_class: "imcl:MusicData".into(),
                target: target.clone(),
            };
            let back: Binding = from_bytes(&to_bytes(&b)).unwrap();
            assert_eq!(back, b);
        }
    }

    #[test]
    fn bad_target_tag_rejected() {
        let bytes = to_bytes(&9u32);
        let res: Result<BindingTarget, _> = from_bytes(&bytes);
        assert!(res.is_err());
    }
}
