//! Macros that derive [`Wire`](crate::Wire) for user types.

/// Implements [`Wire`](crate::Wire) for a struct by listing its fields.
///
/// Fields encode in the order given. The struct itself is declared
/// separately; the macro only writes the impl, so it composes with any
/// derives on the type.
///
/// # Examples
///
/// ```
/// use mdagent_wire::{impl_wire_struct, to_bytes, from_bytes};
///
/// #[derive(Debug, Clone, PartialEq)]
/// struct PlayerState {
///     track: String,
///     position_ms: u64,
///     volume: u8,
/// }
/// impl_wire_struct!(PlayerState { track, position_ms, volume });
///
/// let state = PlayerState { track: "prelude".into(), position_ms: 92_000, volume: 7 };
/// let back: PlayerState = from_bytes(&to_bytes(&state))?;
/// assert_eq!(back, state);
/// # Ok::<(), mdagent_wire::WireError>(())
/// ```
/// The `skip { ... }` form lists fields that do not travel on the wire
/// (caches, memos): they are omitted from encoding and re-created with
/// [`Default::default`] on decode.
#[macro_export]
macro_rules! impl_wire_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        $crate::impl_wire_struct!($ty { $($field),+ } skip {});
    };
    ($ty:ident { $($field:ident),+ $(,)? } skip { $($cache:ident),* $(,)? }) => {
        impl $crate::Wire for $ty {
            fn encode<B: $crate::bytes::BufMut>(&self, buf: &mut B) {
                $( $crate::Wire::encode(&self.$field, buf); )+
            }
            fn decode(reader: &mut $crate::Reader<'_>) -> ::std::result::Result<Self, $crate::WireError> {
                Ok($ty {
                    $( $field: $crate::Wire::decode(reader)?, )+
                    $( $cache: ::std::default::Default::default(), )*
                })
            }
            fn encoded_len(&self) -> usize {
                0 $( + $crate::Wire::encoded_len(&self.$field) )+
            }
        }
    };
}

/// Implements [`Wire`](crate::Wire) for a field-less enum with explicit
/// discriminants.
///
/// # Examples
///
/// ```
/// use mdagent_wire::{impl_wire_enum, to_bytes, from_bytes};
///
/// #[derive(Debug, Clone, Copy, PartialEq, Eq)]
/// enum Mode { FollowMe, CloneDispatch }
/// impl_wire_enum!(Mode { FollowMe = 0, CloneDispatch = 1 });
///
/// let back: Mode = from_bytes(&to_bytes(&Mode::CloneDispatch))?;
/// assert_eq!(back, Mode::CloneDispatch);
/// # Ok::<(), mdagent_wire::WireError>(())
/// ```
#[macro_export]
macro_rules! impl_wire_enum {
    ($ty:ident { $($variant:ident = $tag:literal),+ $(,)? }) => {
        impl $crate::Wire for $ty {
            fn encode<B: $crate::bytes::BufMut>(&self, buf: &mut B) {
                let tag: u32 = match self {
                    $( $ty::$variant => $tag, )+
                };
                $crate::Wire::encode(&tag, buf);
            }
            fn decode(reader: &mut $crate::Reader<'_>) -> ::std::result::Result<Self, $crate::WireError> {
                let tag = <u32 as $crate::Wire>::decode(reader)?;
                match tag {
                    $( $tag => Ok($ty::$variant), )+
                    other => Err($crate::WireError::InvalidTag {
                        tag: other,
                        type_name: stringify!($ty),
                    }),
                }
            }
            fn encoded_len(&self) -> usize {
                let tag: u32 = match self {
                    $( $ty::$variant => $tag, )+
                };
                $crate::Wire::encoded_len(&tag)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::{from_bytes, to_bytes, WireError};

    #[derive(Debug, Clone, PartialEq)]
    struct Nested {
        inner: Vec<String>,
        flag: bool,
    }
    impl_wire_struct!(Nested { inner, flag });

    #[derive(Debug, Clone, PartialEq)]
    struct Outer {
        id: u32,
        nested: Nested,
        maybe: Option<i64>,
    }
    impl_wire_struct!(Outer { id, nested, maybe });

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Colour {
        Red,
        Green,
        Blue,
    }
    impl_wire_enum!(Colour { Red = 0, Green = 1, Blue = 7 });

    #[test]
    fn nested_struct_roundtrip() {
        let value = Outer {
            id: 9,
            nested: Nested {
                inner: vec!["a".into(), "b".into()],
                flag: true,
            },
            maybe: Some(-5),
        };
        let bytes = to_bytes(&value);
        assert_eq!(bytes.len(), crate::Wire::encoded_len(&value));
        let back: Outer = from_bytes(&bytes).unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn enum_roundtrip_and_bad_tag() {
        for c in [Colour::Red, Colour::Green, Colour::Blue] {
            let back: Colour = from_bytes(&to_bytes(&c)).unwrap();
            assert_eq!(back, c);
        }
        let res: Result<Colour, _> = from_bytes(&to_bytes(&3u32));
        assert!(matches!(res, Err(WireError::InvalidTag { tag: 3, .. })));
    }

    #[test]
    fn macros_work_in_function_scope() {
        #[derive(Debug, PartialEq)]
        struct Local {
            x: u8,
        }
        impl_wire_struct!(Local { x });
        let back: Local = from_bytes(&to_bytes(&Local { x: 3 })).unwrap();
        assert_eq!(back, Local { x: 3 });
    }
}
