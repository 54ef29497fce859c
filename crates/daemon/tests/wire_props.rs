//! Property tests for the `slj-wire/1` codec.
//!
//! The contract under test: every message round-trips byte-exactly
//! through encode → decode; the incremental [`Decoder`] produces the
//! same message sequence however the byte stream is split (including
//! torn length prefixes and mid-frame boundaries); oversized frames
//! are rejected at the 4-byte prefix *before* any body is buffered;
//! and truncated or corrupted input never panics — it is either
//! "wait for more bytes" or a typed [`WireError`]. The streaming
//! receive path ([`Decoder::next_part`], which hands an `OPEN_CLIP`'s
//! clip to the caller instead of buffering it) yields the same
//! messages under the same splits.

use proptest::prelude::*;
use slj_daemon::wire::{decode_body, encode_open_clip_head, encode_to_vec, Decoder, Part};
use slj_daemon::{AckStatus, WireError, WireMsg, DEFAULT_MAX_FRAME};

/// Arbitrary-ish strings, including multi-byte UTF-8 (the lossy
/// conversion maps stray bytes to U+FFFD, which is three bytes).
fn string_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 0..40)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// Wire-consistent frame payloads: `rgb` resized to `3 * w * h`.
fn frame_parts() -> impl Strategy<Value = (u32, u32, Vec<u8>)> {
    (
        0u32..6,
        0u32..5,
        proptest::collection::vec(any::<u8>(), 0..96),
    )
        .prop_map(|(w, h, mut rgb)| {
            rgb.resize(3 * (w as usize) * (h as usize), 7);
            (w, h, rgb)
        })
}

/// One arbitrary message of any of the 17 wire types.
fn msg_strategy() -> impl Strategy<Value = WireMsg> {
    (
        0usize..17,
        any::<(u64, u64, u32, u16)>(),
        string_strategy(),
        string_strategy(),
        frame_parts(),
        any::<bool>(),
    )
        .prop_map(
            |(variant, (a, b, depth, code), s1, s2, (width, height, rgb), flag)| match variant {
                0 => WireMsg::Hello { proto: s1 },
                1 => WireMsg::HelloOk { proto: s1 },
                2 => WireMsg::Open { config_json: s1 },
                3 => WireMsg::Opened { session: a },
                4 => WireMsg::Rejected { reason: s1 },
                5 => WireMsg::Frame {
                    session: a,
                    width,
                    height,
                    rgb,
                },
                6 => WireMsg::FrameAck {
                    session: a,
                    ordinal: b,
                    status: if flag {
                        AckStatus::Accepted
                    } else {
                        AckStatus::Overloaded
                    },
                    depth,
                },
                7 => WireMsg::Flush { session: a },
                8 => WireMsg::Event {
                    session: a,
                    line: s1,
                },
                9 => WireMsg::Analysis {
                    session: a,
                    summary_json: s1,
                    trace_jsonl: s2,
                },
                10 => WireMsg::Failed {
                    session: a,
                    error: s1,
                },
                11 => WireMsg::Retire { session: a },
                12 => WireMsg::Error { code, message: s1 },
                13 => WireMsg::Drain,
                14 => WireMsg::Draining { in_flight: a },
                // OPEN_CLIP's payload is opaque bytes (PPM decoding
                // happens above the codec), so any byte soup must
                // round-trip — reuse the frame strategy's buffer.
                15 => WireMsg::OpenClip {
                    config_json: s1,
                    ppm: rgb,
                },
                _ => WireMsg::Bye,
            },
        )
}

proptest! {
    #[test]
    fn every_message_round_trips(msg in msg_strategy()) {
        let bytes = encode_to_vec(&msg);
        // The frame is its 4-byte length prefix plus exactly the body.
        let declared = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        prop_assert_eq!(declared, bytes.len() - 4);
        prop_assert_eq!(decode_body(&bytes[4..]).unwrap(), msg.clone());
        // And through the incremental decoder in one piece.
        let mut d = Decoder::new(DEFAULT_MAX_FRAME);
        d.push(&bytes);
        prop_assert_eq!(d.next_msg().unwrap(), Some(msg));
        prop_assert_eq!(d.next_msg().unwrap(), None);
    }

    #[test]
    fn arbitrary_split_points_do_not_change_the_stream(
        msgs in proptest::collection::vec(msg_strategy(), 1..5),
        chunk_sizes in proptest::collection::vec(1usize..23, 1..40),
    ) {
        let mut stream = Vec::new();
        for msg in &msgs {
            stream.extend_from_slice(&encode_to_vec(msg));
        }
        // Feed the concatenated stream in arbitrary chunks (cycling the
        // generated sizes), draining after every push — torn length
        // prefixes and mid-body boundaries included.
        let mut d = Decoder::new(DEFAULT_MAX_FRAME);
        let mut decoded = Vec::new();
        let mut offset = 0;
        let mut k = 0;
        while offset < stream.len() {
            let size = chunk_sizes[k % chunk_sizes.len()].min(stream.len() - offset);
            k += 1;
            d.push(&stream[offset..offset + size]);
            offset += size;
            while let Some(msg) = d.next_msg().unwrap() {
                decoded.push(msg);
            }
        }
        prop_assert_eq!(decoded, msgs);
        prop_assert_eq!(d.next_msg().unwrap(), None);
        prop_assert_eq!(d.buffered(), 0, "a fully-consumed stream leaves no residue");
    }

    #[test]
    fn streamed_open_clips_match_the_buffered_decode(
        msgs in proptest::collection::vec(msg_strategy(), 1..5),
        chunk_sizes in proptest::collection::vec(1usize..23, 1..40),
    ) {
        let mut stream = Vec::new();
        for msg in &msgs {
            let bytes = encode_to_vec(msg);
            // A sender may write the head and then the clip it holds.
            if let WireMsg::OpenClip { config_json, ppm } = msg {
                let mut head = Vec::new();
                encode_open_clip_head(config_json, ppm.len(), &mut head).unwrap();
                head.extend_from_slice(ppm);
                prop_assert_eq!(&head, &bytes);
            }
            stream.extend_from_slice(&bytes);
        }
        // Receive as the daemon's reader does: an OPEN_CLIP's clip is
        // taken from the decoder's buffer, then from the stream itself,
        // never pushed into the decoder.
        let mut d = Decoder::new(DEFAULT_MAX_FRAME);
        let mut rebuilt = Vec::new();
        let mut owed: Option<(String, usize, Vec<u8>)> = None;
        let mut offset = 0;
        let mut k = 0;
        while offset < stream.len() {
            let size = chunk_sizes[k % chunk_sizes.len()].min(stream.len() - offset);
            k += 1;
            let mut piece = &stream[offset..offset + size];
            offset += size;
            if let Some((config_json, len, mut clip)) = owed.take() {
                let take = (len - clip.len()).min(piece.len());
                clip.extend_from_slice(&piece[..take]);
                piece = &piece[take..];
                if clip.len() == len {
                    rebuilt.push(WireMsg::OpenClip { config_json, ppm: clip });
                } else {
                    owed = Some((config_json, len, clip));
                }
            }
            d.push(piece);
            while owed.is_none() {
                match d.next_part().unwrap() {
                    Some(Part::Msg(msg)) => rebuilt.push(msg),
                    Some(Part::ClipHead { config_json, clip_len }) => {
                        let clip = d.take_buffered(clip_len).to_vec();
                        if clip.len() == clip_len {
                            rebuilt.push(WireMsg::OpenClip { config_json, ppm: clip });
                        } else {
                            owed = Some((config_json, clip_len, clip));
                        }
                    }
                    None => break,
                }
            }
        }
        prop_assert!(owed.is_none());
        prop_assert_eq!(rebuilt, msgs);
        prop_assert_eq!(d.buffered(), 0);
    }

    #[test]
    fn streamed_and_buffered_receives_refuse_the_same_frames(
        msg in msg_strategy(),
        flip in any::<(u64, u8)>(),
    ) {
        let mut bytes = encode_to_vec(&msg);
        let at = (flip.0 as usize) % bytes.len();
        bytes[at] ^= flip.1 | 1;
        let mut buffered = Decoder::new(DEFAULT_MAX_FRAME);
        buffered.push(&bytes);
        let mut streamed = Decoder::new(DEFAULT_MAX_FRAME);
        streamed.push(&bytes);
        match (buffered.next_msg(), streamed.next_part()) {
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (Ok(Some(a)), Ok(Some(Part::Msg(b)))) => prop_assert_eq!(a, b),
            (
                Ok(Some(WireMsg::OpenClip { config_json, ppm })),
                Ok(Some(Part::ClipHead { config_json: head_json, clip_len })),
            ) => {
                prop_assert_eq!(config_json, head_json);
                prop_assert_eq!(streamed.take_buffered(clip_len), &ppm[..]);
            }
            (Ok(None), Ok(None)) => {}
            // A streamed head needs only itself; the buffered decode
            // waits for a whole body that a corrupted prefix declared
            // longer than what was sent.
            (Ok(None), Ok(Some(Part::ClipHead { .. }))) => {}
            (a, b) => prop_assert!(false, "buffered {:?} but streamed {:?}", a, b),
        }
    }

    #[test]
    fn truncation_never_panics_and_never_yields(
        msg in msg_strategy(),
        cut in any::<u64>(),
    ) {
        let bytes = encode_to_vec(&msg);
        // Cut at least one byte off the end: an incomplete frame is
        // always "wait for more", never an error or a message.
        let keep = (cut as usize) % bytes.len();
        let mut d = Decoder::new(DEFAULT_MAX_FRAME);
        d.push(&bytes[..keep]);
        prop_assert_eq!(d.next_msg().unwrap(), None);
    }

    #[test]
    fn oversized_is_rejected_at_the_prefix_without_buffering(
        msg in msg_strategy(),
        extra in 1u32..1000,
    ) {
        // A declared length past the decoder's cap must fail from the
        // 4 prefix bytes alone — no body bytes are retained.
        let bytes = encode_to_vec(&msg);
        let declared = bytes.len() - 4;
        prop_assume!(declared >= 2); // a 1-byte body admits no smaller cap
        let cap = 1 + (extra as usize) % (declared - 1); // 1..=declared-1
        let mut d = Decoder::new(cap);
        d.push(&bytes[..4]);
        let verdict = d.next_msg();
        let rejected_at_prefix = match &verdict {
            Err(WireError::Oversized { declared: got, max }) => {
                *got == declared && *max == cap
            }
            _ => false,
        };
        prop_assert!(
            rejected_at_prefix,
            "declared {} over cap {} must be Oversized, got {:?}",
            declared, cap, verdict
        );
    }

    #[test]
    fn corrupt_bodies_are_typed_errors_not_panics(
        msg in msg_strategy(),
        flip in any::<(u64, u8)>(),
    ) {
        // Flip one body byte: the decode must return *something* typed
        // — the original message, a different valid message, or a
        // Malformed error — but never panic and never read past the
        // frame.
        let mut bytes = encode_to_vec(&msg);
        if bytes.len() > 4 {
            let at = 4 + (flip.0 as usize) % (bytes.len() - 4);
            bytes[at] ^= flip.1 | 1;
            let _ = decode_body(&bytes[4..]);
        }
        // Unknown tags specifically are Malformed.
        let body = [0xEEu8];
        prop_assert!(matches!(
            decode_body(&body),
            Err(WireError::Malformed { .. })
        ));
    }
}
