//! Clip persistence: a video is a directory of numbered PPM frames plus
//! a small JSON metadata file.
//!
//! The paper's future work imagines users uploading "a video sequence of
//! a standing long jump"; this module is the ingestion path for that —
//! any tool that can emit PPM frames can feed the analyzer.
//!
//! Uploads carry the same frames as one stream, the files laid end to
//! end ([`ppm_stream`]). [`PpmStreamDecoder`] decodes such a stream
//! incrementally as it arrives, which is how the daemon ingests a clip
//! without ever holding its encoded bytes whole.

use crate::video::{Frame, Video};
use serde::{Deserialize, Serialize};
use slj_imgproc::pixel::unpack_rgb;
use slj_imgproc::{io as img_io, ImageBuffer, ImgError, Rgb};
use std::path::Path;

/// Sidecar metadata stored next to the frames.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ClipMeta {
    fps: f64,
    frames: usize,
}

const META_FILE: &str = "clip.json";

/// Saves a video as `frame_0000.ppm … frame_NNNN.ppm` plus `clip.json`
/// in `dir` (created if missing).
///
/// # Errors
///
/// Returns [`ImgError::Io`] on any filesystem failure.
pub fn save_video<P: AsRef<Path>>(video: &Video, dir: P) -> Result<(), ImgError> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    for (k, frame) in video.iter().enumerate() {
        img_io::save_ppm(frame, dir.join(format!("frame_{k:04}.ppm")))?;
    }
    let meta = ClipMeta {
        fps: video.fps(),
        frames: video.len(),
    };
    let json = serde_json::to_string_pretty(&meta)
        .map_err(|e| ImgError::Decode(format!("metadata encode: {e}")))?;
    std::fs::write(dir.join(META_FILE), json)?;
    Ok(())
}

/// Loads a video saved by [`save_video`].
///
/// # Errors
///
/// Returns [`ImgError::Io`] on filesystem failure and
/// [`ImgError::Decode`] when the metadata or any frame is malformed or
/// missing.
pub fn load_video<P: AsRef<Path>>(dir: P) -> Result<Video, ImgError> {
    let dir = dir.as_ref();
    let meta_raw = std::fs::read_to_string(dir.join(META_FILE))?;
    let meta: ClipMeta = serde_json::from_str(&meta_raw)
        .map_err(|e| ImgError::Decode(format!("metadata decode: {e}")))?;
    let mut frames: Vec<Frame> = Vec::with_capacity(meta.frames);
    for k in 0..meta.frames {
        let path = dir.join(format!("frame_{k:04}.ppm"));
        let file = std::fs::File::open(&path)
            .map_err(|e| ImgError::Decode(format!("missing frame {k}: {e}")))?;
        frames.push(img_io::read_ppm(file)?);
    }
    Ok(Video::new(frames, meta.fps))
}

/// Renders a video as one byte stream of concatenated binary P6 PPM
/// frames — exactly the bytes of the on-disk clip format's
/// `frame_*.ppm` files laid end to end, in order. This is the wire
/// shape of a clip for `OPEN_CLIP` ingestion (the frame rate travels
/// separately in the open request).
pub fn ppm_stream(video: &Video) -> Vec<u8> {
    let mut out = Vec::new();
    for frame in video.iter() {
        img_io::write_ppm(frame, &mut out).expect("writing to a Vec cannot fail");
    }
    out
}

/// Incremental decoder for a [`ppm_stream`] of known length. Push the
/// bytes in whatever pieces the transport delivers, then
/// [`finish`](PpmStreamDecoder::finish) for the frames. The daemon
/// decodes an `OPEN_CLIP` clip with it straight off the socket, so no
/// copy of the encoded clip is ever held; [`frames_from_ppm_stream`] is
/// the one-shot case.
///
/// Headers go through [`img_io::HeaderParser`], and nothing is
/// allocated ahead of the input:
///
/// * a frame header that declares more pixel bytes than the stream has
///   left is refused before any buffer for that frame exists;
/// * a frame's pixel buffer grows only as its bytes arrive, doubling up
///   to the frame's size, so it never holds more than twice what was
///   pushed. A whole frame pushed at once is one allocation.
///
/// Errors name the frame and are sticky: after the first, later bytes
/// are counted but not decoded, so a caller can keep reading the
/// transport to the end of its message and report the error then.
#[derive(Debug)]
pub struct PpmStreamDecoder {
    /// Declared stream bytes not pushed yet.
    unpushed: usize,
    header: img_io::HeaderParser,
    /// The frame whose pixels are arriving, once its header is parsed.
    body: Option<FrameBody>,
    frames: Vec<Frame>,
    error: Option<ImgError>,
}

/// One frame's pixels as they arrive.
#[derive(Debug)]
struct FrameBody {
    width: usize,
    height: usize,
    pixels: Vec<Rgb>,
    /// The bytes of a pixel split across two pushes.
    partial: [u8; 3],
    partial_len: usize,
}

impl FrameBody {
    fn is_complete(&self) -> bool {
        self.pixels.len() == self.width * self.height
    }

    /// Takes pixel bytes from the front of `bytes`, up to the end of the
    /// frame, and returns how many it took.
    fn take(&mut self, bytes: &[u8]) -> usize {
        let missing = (self.width * self.height - self.pixels.len()) * 3 - self.partial_len;
        let taken = bytes.len().min(missing);
        let mut rest = &bytes[..taken];
        if self.partial_len > 0 {
            let fill = (3 - self.partial_len).min(rest.len());
            self.partial[self.partial_len..self.partial_len + fill].copy_from_slice(&rest[..fill]);
            self.partial_len += fill;
            rest = &rest[fill..];
            if self.partial_len < 3 {
                return taken;
            }
            let [r, g, b] = self.partial;
            self.grow(1);
            self.pixels.push(Rgb::new(r, g, b));
            self.partial_len = 0;
        }
        let whole = rest.len() / 3;
        self.grow(whole);
        self.pixels.extend(unpack_rgb(&rest[..whole * 3]));
        let tail = &rest[whole * 3..];
        self.partial[..tail.len()].copy_from_slice(tail);
        self.partial_len = tail.len();
        taken
    }

    /// Makes room for `more` pixels that have arrived: capacity at least
    /// doubles, capped at the frame's size.
    fn grow(&mut self, more: usize) {
        let need = self.pixels.len() + more;
        if need > self.pixels.capacity() {
            let target = need
                .max(2 * self.pixels.capacity())
                .min(self.width * self.height);
            self.pixels.reserve_exact(target - self.pixels.len());
        }
    }
}

impl PpmStreamDecoder {
    /// A decoder for a stream of exactly `len` bytes.
    pub fn new(len: usize) -> Self {
        PpmStreamDecoder {
            unpushed: len,
            header: img_io::HeaderParser::new("P6"),
            body: None,
            frames: Vec::new(),
            error: None,
        }
    }

    /// Declared stream bytes not pushed yet.
    pub fn remaining(&self) -> usize {
        self.unpushed
    }

    /// Decodes the next piece of the stream. Pushing more bytes than
    /// remain is an error, reported by [`finish`](Self::finish) like
    /// any other.
    pub fn push(&mut self, mut bytes: &[u8]) {
        if self.error.is_some() {
            self.unpushed = self.unpushed.saturating_sub(bytes.len());
            return;
        }
        if bytes.len() > self.unpushed {
            let excess = bytes.len() - self.unpushed;
            self.unpushed = 0;
            return self.fail(format!(
                "{excess} bytes past the declared end of the stream"
            ));
        }
        self.unpushed -= bytes.len();
        while !bytes.is_empty() {
            let Some(body) = self.body.as_mut() else {
                let (used, dims) = match self.header.feed(bytes) {
                    Ok(parsed) => parsed,
                    Err(ImgError::Decode(detail)) => return self.fail(detail),
                    Err(other) => return self.fail(other.to_string()),
                };
                bytes = &bytes[used..];
                if let Some((width, height)) = dims {
                    if let Err(detail) = self.start_frame(width, height, bytes.len()) {
                        return self.fail(detail);
                    }
                }
                continue;
            };
            let used = body.take(bytes);
            bytes = &bytes[used..];
            self.complete_frame();
        }
    }

    /// Opens the frame whose header just ended, with `in_hand` bytes of
    /// the current push after it. The declared pixel payload must fit
    /// in what the stream has left; this check comes before any buffer
    /// for the frame is allocated.
    fn start_frame(&mut self, width: usize, height: usize, in_hand: usize) -> Result<(), String> {
        let declared = width
            .checked_mul(height)
            .and_then(|px| px.checked_mul(3))
            .ok_or_else(|| "frame dimensions overflow".to_owned())?;
        let left = in_hand + self.unpushed;
        if declared > left {
            return Err(format!(
                "truncated pixel data: {declared} bytes declared, {left} left"
            ));
        }
        self.header = img_io::HeaderParser::new("P6");
        self.body = Some(FrameBody {
            width,
            height,
            pixels: Vec::new(),
            partial: [0; 3],
            partial_len: 0,
        });
        // A frame with no pixels is complete at its header.
        self.complete_frame();
        Ok(())
    }

    /// Moves the current frame to the output once all its pixels are in.
    fn complete_frame(&mut self) {
        if !self.body.as_ref().is_some_and(FrameBody::is_complete) {
            return;
        }
        let body = self.body.take().expect("checked above");
        let frame = ImageBuffer::from_vec(body.width, body.height, body.pixels)
            .expect("a complete body holds width * height pixels");
        self.frames.push(frame);
    }

    /// Records the first error, naming the frame it hit.
    fn fail(&mut self, detail: String) {
        let k = self.frames.len();
        self.error = Some(ImgError::Decode(format!("clip frame {k}: {detail}")));
        self.body = None;
    }

    /// The decoded frames.
    ///
    /// # Errors
    ///
    /// [`ImgError::Decode`] naming the failing frame on a malformed
    /// header, a frame declaring more pixel bytes than the stream holds,
    /// a stream that ends inside a frame or before its declared length,
    /// bytes past that length, or an empty stream.
    pub fn finish(self) -> Result<Vec<Frame>, ImgError> {
        if let Some(error) = self.error {
            return Err(error);
        }
        let k = self.frames.len();
        let ends_inside = if self.body.is_some() {
            Some("truncated pixel data")
        } else if self.header.is_started() {
            Some("truncated header")
        } else if self.unpushed > 0 {
            Some("stream ends before its declared length")
        } else {
            None
        };
        if let Some(detail) = ends_inside {
            return Err(ImgError::Decode(format!("clip frame {k}: {detail}")));
        }
        if self.frames.is_empty() {
            return Err(ImgError::Decode("empty clip stream".into()));
        }
        Ok(self.frames)
    }
}

/// Decodes a [`ppm_stream`] back into frames: the one-shot case of
/// [`PpmStreamDecoder`]. The inverse is not byte-exact in general
/// (comments and whitespace variants are accepted) but
/// `frames_from_ppm_stream(&ppm_stream(v))` reproduces `v`'s frames
/// exactly.
///
/// # Errors
///
/// [`ImgError::Decode`] naming the failing frame on any malformed
/// header, truncated pixel data, trailing bytes, or an empty stream.
pub fn frames_from_ppm_stream(bytes: &[u8]) -> Result<Vec<Frame>, ImgError> {
    let mut decoder = PpmStreamDecoder::new(bytes.len());
    decoder.push(bytes);
    decoder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::SceneConfig;
    use crate::synthjump::SyntheticJump;
    use slj_motion::JumpConfig;

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("slj_video_io_{name}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn roundtrip_preserves_clip() {
        let dir = temp_dir("roundtrip");
        let scene = SceneConfig {
            camera: crate::Camera::compact(),
            ..SceneConfig::default()
        };
        let jump = SyntheticJump::generate(
            &scene,
            &JumpConfig {
                frames: 4,
                ..JumpConfig::default()
            },
            3,
        );
        save_video(&jump.video, &dir).unwrap();
        let back = load_video(&dir).unwrap();
        assert_eq!(back, jump.video);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_metadata_errors() {
        let dir = temp_dir("missing_meta");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(load_video(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_frame_errors() {
        let dir = temp_dir("missing_frame");
        let scene = SceneConfig {
            camera: crate::Camera::compact(),
            ..SceneConfig::default()
        };
        let jump = SyntheticJump::generate(
            &scene,
            &JumpConfig {
                frames: 3,
                ..JumpConfig::default()
            },
            4,
        );
        save_video(&jump.video, &dir).unwrap();
        std::fs::remove_file(dir.join("frame_0001.ppm")).unwrap();
        let err = load_video(&dir).unwrap_err();
        assert!(err.to_string().contains("frame 1"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ppm_stream_round_trips_frames() {
        let scene = SceneConfig {
            camera: crate::Camera::compact(),
            ..SceneConfig::default()
        };
        let jump = SyntheticJump::generate(
            &scene,
            &JumpConfig {
                frames: 4,
                ..JumpConfig::default()
            },
            6,
        );
        let bytes = ppm_stream(&jump.video);
        let frames = frames_from_ppm_stream(&bytes).unwrap();
        assert_eq!(frames, jump.video.frames());
    }

    #[test]
    fn ppm_stream_decode_rejects_malformed_input() {
        // Empty stream.
        assert!(frames_from_ppm_stream(b"").is_err());
        // Wrong magic.
        assert!(frames_from_ppm_stream(b"P5\n1 1\n255\n\x00").is_err());
        // Declared pixels past the bytes present — rejected before any
        // allocation, naming the frame.
        let err = frames_from_ppm_stream(b"P6\n9999 9999\n255\nxy").unwrap_err();
        assert!(err.to_string().contains("clip frame 0"), "{err}");
        assert!(err.to_string().contains("truncated"), "{err}");
        // A valid frame followed by a torn one names frame 1.
        let mut bytes = b"P6\n1 1\n255\nabc".to_vec();
        bytes.extend_from_slice(b"P6\n1 1\n255\na");
        let err = frames_from_ppm_stream(&bytes).unwrap_err();
        assert!(err.to_string().contains("clip frame 1"), "{err}");
        // Trailing garbage after the last frame is a malformed header.
        let mut bytes = b"P6\n1 1\n255\nabc".to_vec();
        bytes.extend_from_slice(b"junk");
        assert!(frames_from_ppm_stream(&bytes).is_err());
    }

    #[test]
    fn corrupt_metadata_errors() {
        let dir = temp_dir("corrupt_meta");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(META_FILE), "not json").unwrap();
        let err = load_video(&dir).unwrap_err();
        assert!(matches!(err, ImgError::Decode(_)));
        std::fs::remove_dir_all(&dir).ok();
    }
}
