//! Property tests for the clip-stream PPM decoder, the parser the
//! daemon runs on untrusted `OPEN_CLIP` bytes.
//!
//! The contract under test: [`PpmStreamDecoder`] gives the same answer
//! as the one-shot [`frames_from_ppm_stream`] however the stream is
//! split, errors included; a stream cut anywhere but a frame boundary
//! is a typed error naming the frame it cut; a header declaring more
//! pixel bytes than the stream has left is refused before any buffer
//! for that frame exists, and a frame's buffer grows only with the
//! pixel bytes that arrived; comment and whitespace variants of the
//! header decode alike; and bad magic, a maxval other than 255,
//! overflowing dimensions, an empty stream and trailing bytes are each
//! refused.
//!
//! Allocation sizes come from the shared counting allocator
//! (`tests/support/counting_alloc.rs`), read per thread.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::largest_during;
use proptest::prelude::*;
use slj_imgproc::{ImageBuffer, Rgb};
use slj_video::io::{frames_from_ppm_stream, PpmStreamDecoder};
use slj_video::Frame;

/// The bytes PPM headers may use as whitespace.
const WS: [u8; 5] = [b' ', b'\t', b'\n', b'\r', 0x0c];

/// 1–4 frames of up to 6×5 random pixels.
fn frames_strategy() -> impl Strategy<Value = Vec<Frame>> {
    proptest::collection::vec(
        (
            1usize..7,
            1usize..6,
            proptest::collection::vec(any::<u8>(), 90),
        ),
        1..5,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .map(|(w, h, bytes)| {
                ImageBuffer::from_fn(w, h, |x, y| {
                    let i = 3 * (y * w + x);
                    Rgb::new(bytes[i], bytes[i + 1], bytes[i + 2])
                })
            })
            .collect()
    })
}

/// One header separator: a whitespace byte, maybe a `#` comment line
/// (any bytes but a newline), then more whitespace.
fn separator_strategy() -> impl Strategy<Value = Vec<u8>> {
    (
        0usize..WS.len(),
        any::<bool>(),
        proptest::collection::vec(any::<u8>(), 0..12),
        proptest::collection::vec(0usize..WS.len(), 0..3),
    )
        .prop_map(|(first, commented, text, more)| {
            let mut sep = vec![WS[first]];
            if commented {
                sep.push(b'#');
                sep.extend(text.into_iter().filter(|&b| b != b'\n'));
                sep.push(b'\n');
            }
            sep.extend(more.into_iter().map(|i| WS[i]));
            sep
        })
}

fn pixel_bytes(frame: &Frame) -> Vec<u8> {
    frame
        .as_slice()
        .iter()
        .flat_map(|p| [p.r, p.g, p.b])
        .collect()
}

/// The canonical stream, `P6\n{w} {h}\n255\n` per frame, and the byte
/// offset where each frame ends.
fn canonical(frames: &[Frame]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut ends = Vec::new();
    for frame in frames {
        let (w, h) = frame.dims();
        bytes.extend_from_slice(format!("P6\n{w} {h}\n255\n").as_bytes());
        bytes.extend_from_slice(&pixel_bytes(frame));
        ends.push(bytes.len());
    }
    (bytes, ends)
}

/// The same frames with every header separator drawn from `seps` (in
/// turn), a separator before each magic when `lead` says so, and the
/// one whitespace byte after each maxval chosen by `last`.
fn styled(frames: &[Frame], seps: &[Vec<u8>], lead: &[bool], last: &[usize]) -> Vec<u8> {
    let mut next = seps.iter().cycle();
    let mut bytes = Vec::new();
    for (k, frame) in frames.iter().enumerate() {
        let (w, h) = frame.dims();
        if lead[k % lead.len()] {
            bytes.extend_from_slice(next.next().unwrap());
        }
        for token in ["P6".to_owned(), w.to_string(), h.to_string()] {
            bytes.extend_from_slice(token.as_bytes());
            bytes.extend_from_slice(next.next().unwrap());
        }
        bytes.extend_from_slice(b"255");
        bytes.push(WS[last[k % last.len()] % WS.len()]);
        bytes.extend_from_slice(&pixel_bytes(frame));
    }
    bytes
}

/// `bytes` pushed in pieces cycling through `sizes`.
fn decode_in_pieces(bytes: &[u8], sizes: &[usize]) -> Result<Vec<Frame>, String> {
    let mut decoder = PpmStreamDecoder::new(bytes.len());
    let mut offset = 0;
    for &size in sizes.iter().cycle() {
        if offset == bytes.len() {
            break;
        }
        let end = (offset + size).min(bytes.len());
        decoder.push(&bytes[offset..end]);
        offset = end;
    }
    assert_eq!(decoder.remaining(), 0);
    decoder.finish().map_err(|e| e.to_string())
}

fn one_shot(bytes: &[u8]) -> Result<Vec<Frame>, String> {
    frames_from_ppm_stream(bytes).map_err(|e| e.to_string())
}

fn assert_names_frame(result: Result<Vec<Frame>, String>, k: usize, what: &str) {
    match result {
        Ok(frames) => panic!("{what}: decoded {} frames", frames.len()),
        Err(e) => assert!(
            e.contains(&format!("clip frame {k}:")),
            "{what}: error must name frame {k}: {e}"
        ),
    }
}

proptest! {
    #[test]
    fn comment_and_whitespace_variants_decode_alike(
        frames in frames_strategy(),
        seps in proptest::collection::vec(separator_strategy(), 1..6),
        lead in proptest::collection::vec(any::<bool>(), 1..4),
        last in proptest::collection::vec(0usize..WS.len(), 1..4),
    ) {
        let (plain, _) = canonical(&frames);
        prop_assert_eq!(one_shot(&plain), Ok(frames.clone()));
        let fancy = styled(&frames, &seps, &lead, &last);
        prop_assert_eq!(one_shot(&fancy), Ok(frames));
    }

    #[test]
    fn any_split_matches_the_one_shot_decode(
        frames in frames_strategy(),
        seps in proptest::collection::vec(separator_strategy(), 1..6),
        lead in proptest::collection::vec(any::<bool>(), 1..4),
        sizes in proptest::collection::vec(1usize..200, 1..12),
        flip in any::<(u64, u8, bool)>(),
    ) {
        let mut bytes = styled(&frames, &seps, &lead, &[0, 1, 2]);
        // Half the cases corrupt one byte, so the error paths are split
        // too.
        if flip.2 {
            let at = (flip.0 as usize) % bytes.len();
            bytes[at] ^= flip.1 | 1;
        }
        prop_assert_eq!(decode_in_pieces(&bytes, &sizes), one_shot(&bytes));
        // Byte at a time and whole at once are the extremes.
        prop_assert_eq!(decode_in_pieces(&bytes, &[1]), one_shot(&bytes));
        prop_assert_eq!(decode_in_pieces(&bytes, &[bytes.len()]), one_shot(&bytes));
    }

    #[test]
    fn truncation_is_a_typed_error_naming_the_frame(
        frames in frames_strategy(),
        cut in any::<u64>(),
    ) {
        let (bytes, ends) = canonical(&frames);
        let keep = (cut as usize) % bytes.len();
        let result = one_shot(&bytes[..keep]);
        let whole = ends.iter().filter(|&&end| end <= keep).count();
        if keep == 0 {
            prop_assert_eq!(result, Err("decode error: empty clip stream".to_owned()));
        } else if ends.contains(&keep) {
            // A cut on a frame boundary is a shorter, valid clip.
            prop_assert_eq!(result, Ok(frames[..whole].to_vec()));
        } else {
            assert_names_frame(result, whole, "truncated stream");
        }
    }

    #[test]
    fn a_header_declaring_more_than_remains_is_refused_before_any_buffer(
        prefix in frames_strategy(),
        dims in (600usize..3000, 600usize..3000),
        extra in 0usize..64,
    ) {
        let (mut bytes, _) = canonical(&prefix);
        bytes.extend_from_slice(format!("P6\n{} {}\n255\n", dims.0, dims.1).as_bytes());
        bytes.extend(std::iter::repeat_n(7u8, extra));
        let mut decoder = PpmStreamDecoder::new(bytes.len());
        let ((), largest) = largest_during(|| decoder.push(&bytes));
        // The prefix frames are at most 90 pixel bytes each; a buffer for
        // the declared frame would be over a megabyte.
        prop_assert!(largest < 4096, "the refused header allocated {} bytes", largest);
        let err = decoder.finish().unwrap_err().to_string();
        prop_assert!(
            err.contains(&format!("clip frame {}: truncated pixel data", prefix.len())),
            "{}", err
        );
    }

    #[test]
    fn a_frame_buffer_grows_only_with_the_bytes_that_arrived(
        dims in (100usize..300, 100usize..300),
        sizes in proptest::collection::vec(1usize..20_000, 1..8),
    ) {
        let (w, h) = dims;
        let header = format!("P6\n{w} {h}\n255\n").into_bytes();
        let pixels: Vec<u8> = (0..w * h * 3).map(|i| (i % 251) as u8).collect();
        let mut decoder = PpmStreamDecoder::new(header.len() + pixels.len());
        let ((), largest) = largest_during(|| decoder.push(&header));
        prop_assert!(largest < 1024, "the header alone allocated {} bytes", largest);
        let mut pushed = 0;
        for &size in sizes.iter().cycle() {
            if pushed == pixels.len() {
                break;
            }
            let end = (pushed + size).min(pixels.len());
            let ((), largest) = largest_during(|| decoder.push(&pixels[pushed..end]));
            pushed = end;
            prop_assert!(
                largest <= 2 * pushed,
                "{} bytes allocated with {} pixel bytes pushed", largest, pushed
            );
        }
        let frames = decoder.finish().unwrap();
        prop_assert_eq!(frames.len(), 1);
        prop_assert_eq!(pixel_bytes(&frames[0]), pixels);
    }

    #[test]
    fn malformed_streams_are_refused_naming_the_frame(
        frames in frames_strategy(),
        pick in any::<(usize, u64, u64)>(),
        trailing in proptest::collection::vec(0usize..12, 1..16),
    ) {
        let k = pick.0 % frames.len();
        let (head, _) = canonical(&frames[..k]);
        let (tail, _) = canonical(&frames[k + 1..]);
        let (w, h) = frames[k].dims();
        let pixels = pixel_bytes(&frames[k]);
        let with_frame_k = |header: String| {
            let mut bytes = head.clone();
            bytes.extend_from_slice(header.as_bytes());
            bytes.extend_from_slice(&pixels);
            bytes.extend_from_slice(&tail);
            bytes
        };

        let magic = ["P5", "P3", "p6", "P7", "Q6", "P66"][(pick.1 % 6) as usize];
        let bad_magic = with_frame_k(format!("{magic}\n{w} {h}\n255\n"));
        assert_names_frame(one_shot(&bad_magic), k, "bad magic");

        let maxval = match pick.1 % 70_000 {
            255 => 256,
            other => other,
        };
        let bad_maxval = with_frame_k(format!("P6\n{w} {h}\n{maxval}\n"));
        let result = one_shot(&bad_maxval);
        prop_assert!(
            result.as_ref().is_err_and(|e| e.contains("maxval")),
            "maxval {}: {:?}", maxval, result.map(|f| f.len())
        );
        assert_names_frame(result, k, "bad maxval");

        // Each side fits a usize; their product with 3 does not.
        let huge = (1usize << 40) + (pick.2 as usize % 1000);
        let overflow = with_frame_k(format!("P6\n{huge} {huge}\n255\n"));
        let result = one_shot(&overflow);
        prop_assert!(
            result.as_ref().is_err_and(|e| e.contains("overflow")),
            "{:?}", result.map(|f| f.len())
        );
        assert_names_frame(result, k, "overflowing dimensions");

        prop_assert_eq!(one_shot(b""), Err("decode error: empty clip stream".to_owned()));

        // Bytes after the last frame that are not a frame: whitespace,
        // digits and letters other than the magic's `P`.
        let (mut bytes, _) = canonical(&frames);
        bytes.extend(trailing.iter().map(|&i| b" \n\t09aZ#xy.-"[i]));
        assert_names_frame(one_shot(&bytes), frames.len(), "trailing bytes");
    }
}
