//! Property tests: every encodable value decodes back to itself, and
//! `encoded_len` always tells the truth.

use std::collections::{BTreeMap, HashMap};

use mdagent_wire::{digest_of, from_blob, from_bytes, to_bytes, Blob, Digest, Envelope, Wire};
use proptest::prelude::*;

/// A blob length: empty, tiny, small, around [`Blob::PACK_MAX`], or tens
/// of KiB, so payloads and the images holding them fall on both sides of
/// the size at which blobs switch from packed copies to shared views.
fn blob_len() -> impl Strategy<Value = usize> {
    (0u8..5, 0usize..300).prop_map(|(class, n)| match class {
        0 => 0,
        1 => n % 8,
        2 => n,
        3 => Blob::PACK_MAX - 150 + n,
        _ => 16_384 + n * 131,
    })
}

fn blob() -> impl Strategy<Value = Blob> {
    (blob_len(), any::<u8>())
        .prop_map(|(len, seed)| Blob::from((0..len).map(|i| seed ^ i as u8).collect::<Vec<u8>>()))
}

/// Blobs nested inside strings, options, vectors and maps.
type Nested = (
    Vec<(String, Blob, Option<Blob>)>,
    BTreeMap<u16, Blob>,
    Option<Vec<Blob>>,
);

fn nested() -> impl Strategy<Value = Nested> {
    (
        proptest::collection::vec((".{0,8}", blob(), proptest::option::of(blob())), 0..4),
        proptest::collection::vec((any::<u16>(), blob()), 0..3),
        proptest::option::of(proptest::collection::vec(blob(), 0..3)),
    )
        .prop_map(|(items, map, tail)| {
            let items = items
                .into_iter()
                .map(|(s, b, o)| (s.to_string(), b, o))
                .collect();
            (items, map.into_iter().collect(), tail)
        })
}

fn nested_blobs(value: &Nested) -> Vec<&Blob> {
    let mut out = Vec::new();
    for (_, b, o) in &value.0 {
        out.push(b);
        out.extend(o.iter());
    }
    out.extend(value.1.values());
    out.extend(value.2.iter().flatten());
    out
}

fn assert_roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: &T) {
    let bytes = to_bytes(value);
    assert_eq!(bytes.len(), value.encoded_len(), "encoded_len lied");
    let back: T = from_bytes(&bytes).expect("decode");
    assert_eq!(&back, value);
}

proptest! {
    #[test]
    fn u64_roundtrip(v in any::<u64>()) {
        assert_roundtrip(&v);
    }

    #[test]
    fn i64_roundtrip(v in any::<i64>()) {
        assert_roundtrip(&v);
    }

    #[test]
    fn string_roundtrip(v in ".*") {
        assert_roundtrip(&v.to_string());
    }

    #[test]
    fn vec_of_pairs_roundtrip(v in proptest::collection::vec((any::<u32>(), ".{0,16}"), 0..32)) {
        let v: Vec<(u32, String)> = v.into_iter().map(|(a, b)| (a, b.to_string())).collect();
        assert_roundtrip(&v);
    }

    #[test]
    fn hashmap_roundtrip(v in proptest::collection::hash_map(any::<u16>(), any::<i32>(), 0..32)) {
        let v: HashMap<u16, i32> = v;
        assert_roundtrip(&v);
    }

    #[test]
    fn option_roundtrip(v in proptest::option::of(any::<u32>())) {
        assert_roundtrip(&v);
    }

    #[test]
    fn blob_roundtrip(v in proptest::collection::vec(any::<u8>(), 0..512)) {
        assert_roundtrip(&Blob::from(v));
    }

    #[test]
    fn shared_decode_equals_copying_decode(value in nested()) {
        let bytes = to_bytes(&value);
        prop_assert_eq!(bytes.len(), value.encoded_len());
        let image = Blob::from(bytes.clone());
        let shared: Nested = from_blob(&image).unwrap();
        let copied: Nested = from_bytes(&bytes).unwrap();
        prop_assert_eq!(&shared, &value);
        prop_assert_eq!(&copied, &value);
        // Re-encoding either decode reproduces the image byte for byte.
        prop_assert_eq!(to_bytes(&shared), bytes.clone());
        prop_assert_eq!(to_bytes(&copied), bytes);
        // Shared decode views a large image (and copies out of a small
        // one, pinning nothing); copying decode never views.
        let large = image.len() > Blob::PACK_MAX;
        for blob in nested_blobs(&shared) {
            let view = large && !blob.is_empty();
            prop_assert_eq!(blob.shares_storage_with(&image), view);
            let own = if blob.len() <= Blob::INLINE_MAX { 0 } else { blob.len() };
            prop_assert_eq!(blob.retained_len(), if view { image.len() } else { own });
        }
        for blob in nested_blobs(&copied) {
            prop_assert!(!blob.shares_storage_with(&image));
        }
    }

    #[test]
    fn views_of_views_encode_their_own_bytes(b in blob(), cut in any::<u16>(), keep in any::<u16>()) {
        let offset = usize::from(cut) % (b.len() + 1);
        let len = usize::from(keep) % (b.len() - offset + 1);
        let view = b.slice(offset, len).unwrap();
        prop_assert_eq!(&*view, &b[offset..offset + len]);
        prop_assert_eq!(to_bytes(&view), to_bytes(&Blob::from(b[offset..offset + len].to_vec())));
        prop_assert_eq!(view.encoded_len(), to_bytes(&view).len());
        prop_assert!(b.slice(offset, b.len() - offset + 1).is_none());
    }

    #[test]
    fn streaming_digest_equals_buffer_digest(value in nested()) {
        prop_assert_eq!(digest_of(&value), Digest::of_bytes(&to_bytes(&value)));
    }

    #[test]
    fn streaming_digest_of_scalars(v in proptest::collection::vec((any::<u64>(), ".{0,12}"), 0..16)) {
        let v: Vec<(u64, String)> = v.into_iter().map(|(a, b)| (a, b.to_string())).collect();
        prop_assert_eq!(digest_of(&v), Digest::of_bytes(&to_bytes(&v)));
    }

    #[test]
    fn f64_roundtrip_bits(v in any::<f64>()) {
        let bytes = to_bytes(&v);
        let back: f64 = from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.to_bits(), v.to_bits());
    }

    #[test]
    fn envelope_frame_roundtrip(v in proptest::collection::vec(any::<u8>(), 0..256)) {
        let env = Envelope::from_payload(v);
        let frame = env.to_frame();
        prop_assert_eq!(frame.len(), env.frame_len());
        let back = Envelope::from_frame(&frame).unwrap();
        prop_assert_eq!(back, env);
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        // Any of these may fail, but none may panic.
        let _ = from_bytes::<u64>(&bytes);
        let _ = from_bytes::<String>(&bytes);
        let _ = from_bytes::<Vec<u32>>(&bytes);
        let _ = from_bytes::<Option<Blob>>(&bytes);
        let _ = Envelope::from_frame(&bytes);
    }

    #[test]
    fn corrupt_frames_never_open_cleanly_as_original(
        payload in proptest::collection::vec(any::<u8>(), 1..64),
        flip in any::<u8>(),
    ) {
        let env = Envelope::from_payload(payload);
        let mut frame = env.to_frame();
        let idx = (flip as usize) % frame.len();
        frame[idx] ^= 0x55;
        // Whatever happens, a successfully parsed frame must carry the
        // right checksum for its own payload (self-consistency); it can
        // only equal the original if the flip hit redundant varint bits,
        // which our encoding never produces.
        if let Ok(parsed) = Envelope::from_frame(&frame) {
            prop_assert_ne!(parsed.to_frame()[idx], env.to_frame()[idx]);
        }
    }
}
