//! Binary PGM (P5) and PPM (P6) image I/O.
//!
//! The experiment binaries dump the reproduction's counterparts of the
//! paper's Figures 1–3 and 6–7 as portable anymap files, which every image
//! viewer opens and which need no external encoder crate.

use crate::error::ImgError;
use crate::image::ImageBuffer;
use crate::mask::Mask;
use crate::pixel::{Gray, Rgb};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Writes an RGB image as binary PPM (P6).
///
/// # Errors
///
/// Returns [`ImgError::Io`] on any write failure.
pub fn write_ppm<W: Write>(img: &ImageBuffer<Rgb>, mut w: W) -> Result<(), ImgError> {
    write!(w, "P6\n{} {}\n255\n", img.width(), img.height())?;
    let mut buf = Vec::with_capacity(img.len() * 3);
    for &p in img.as_slice() {
        buf.extend_from_slice(&[p.r, p.g, p.b]);
    }
    w.write_all(&buf)?;
    Ok(())
}

/// Writes a grayscale image as binary PGM (P5).
///
/// # Errors
///
/// Returns [`ImgError::Io`] on any write failure.
pub fn write_pgm<W: Write>(img: &ImageBuffer<Gray>, mut w: W) -> Result<(), ImgError> {
    write!(w, "P5\n{} {}\n255\n", img.width(), img.height())?;
    let buf: Vec<u8> = img.as_slice().iter().map(|p| p.0).collect();
    w.write_all(&buf)?;
    Ok(())
}

/// Writes a mask as a black-and-white PGM (foreground = white).
///
/// # Errors
///
/// Returns [`ImgError::Io`] on any write failure.
pub fn write_mask_pgm<W: Write>(mask: &Mask, w: W) -> Result<(), ImgError> {
    let img = ImageBuffer::from_fn(mask.width(), mask.height(), |x, y| {
        Gray(if mask.get(x, y) { 255 } else { 0 })
    });
    write_pgm(&img, w)
}

/// Saves an RGB image to a PPM file, creating parent directories.
///
/// # Errors
///
/// Returns [`ImgError::Io`] on any filesystem failure.
pub fn save_ppm<P: AsRef<Path>>(img: &ImageBuffer<Rgb>, path: P) -> Result<(), ImgError> {
    if let Some(parent) = path.as_ref().parent() {
        std::fs::create_dir_all(parent)?;
    }
    let f = std::fs::File::create(path)?;
    write_ppm(img, std::io::BufWriter::new(f))
}

/// Saves a grayscale image to a PGM file, creating parent directories.
///
/// # Errors
///
/// Returns [`ImgError::Io`] on any filesystem failure.
pub fn save_pgm<P: AsRef<Path>>(img: &ImageBuffer<Gray>, path: P) -> Result<(), ImgError> {
    if let Some(parent) = path.as_ref().parent() {
        std::fs::create_dir_all(parent)?;
    }
    let f = std::fs::File::create(path)?;
    write_pgm(img, std::io::BufWriter::new(f))
}

/// Saves a mask to a PGM file, creating parent directories.
///
/// # Errors
///
/// Returns [`ImgError::Io`] on any filesystem failure.
pub fn save_mask_pgm<P: AsRef<Path>>(mask: &Mask, path: P) -> Result<(), ImgError> {
    if let Some(parent) = path.as_ref().parent() {
        std::fs::create_dir_all(parent)?;
    }
    let f = std::fs::File::create(path)?;
    write_mask_pgm(mask, std::io::BufWriter::new(f))
}

/// Longest header token accepted: a `usize` has at most 20 decimal
/// digits, so no valid field is longer.
const MAX_TOKEN: usize = 20;

/// An incremental parser for the header of one binary PNM image: the
/// magic (`P5` or `P6`), width, height and a maxval of 255, separated
/// by whitespace and `#` comments, ending with the one whitespace byte
/// after the maxval. Bytes go in as they arrive, in pieces of any size,
/// and the parser holds at most one token, so it never buffers: a token
/// longer than any valid field is refused.
///
/// It is the one PNM header parser in the workspace. [`read_ppm`] and
/// [`read_pgm`] run it over a buffered reader, and `slj-video`'s clip
/// stream decoder runs it over a socket's bytes.
#[derive(Debug, Clone)]
pub struct HeaderParser {
    magic: &'static str,
    /// Fields completed so far: magic, width, height, maxval.
    fields: usize,
    dims: (usize, usize),
    token: [u8; MAX_TOKEN],
    token_len: usize,
    in_comment: bool,
    started: bool,
}

impl HeaderParser {
    /// A parser expecting `magic` (`"P5"` or `"P6"`).
    pub fn new(magic: &'static str) -> Self {
        HeaderParser {
            magic,
            fields: 0,
            dims: (0, 0),
            token: [0; MAX_TOKEN],
            token_len: 0,
            in_comment: false,
            started: false,
        }
    }

    /// Whether any byte of the header has been consumed.
    pub fn is_started(&self) -> bool {
        self.started
    }

    /// Consumes header bytes from the front of `bytes`. Returns how
    /// many it consumed and, once the header is complete,
    /// `Some((width, height))`: the pixel data starts right after the
    /// consumed bytes. Until then every byte is consumed and the result
    /// is `None`.
    ///
    /// # Errors
    ///
    /// [`ImgError::Decode`] on a wrong magic, a width, height or maxval
    /// that is not a number, a maxval other than 255, or an overlong
    /// token.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<(usize, Option<(usize, usize)>), ImgError> {
        if !bytes.is_empty() {
            self.started = true;
        }
        for (i, &b) in bytes.iter().enumerate() {
            if self.in_comment {
                self.in_comment = b != b'\n';
            } else if b.is_ascii_whitespace() {
                if self.token_len > 0 {
                    self.end_token()?;
                    if self.fields == 4 {
                        return Ok((i + 1, Some(self.dims)));
                    }
                }
            } else if b == b'#' && self.token_len == 0 {
                self.in_comment = true;
            } else if self.token_len == MAX_TOKEN {
                return Err(ImgError::Decode(format!(
                    "header token longer than {MAX_TOKEN} bytes"
                )));
            } else {
                self.token[self.token_len] = b;
                self.token_len += 1;
            }
        }
        Ok((bytes.len(), None))
    }

    fn end_token(&mut self) -> Result<(), ImgError> {
        let token = String::from_utf8_lossy(&self.token[..self.token_len]).into_owned();
        self.token_len = 0;
        let number = |field: &str| {
            token
                .parse::<usize>()
                .map_err(|e| ImgError::Decode(format!("bad {field}: {e}")))
        };
        match self.fields {
            0 if token != self.magic => {
                return Err(ImgError::Decode(format!(
                    "expected magic {}, got {token}",
                    self.magic
                )))
            }
            0 => {}
            1 => self.dims.0 = number("width")?,
            2 => self.dims.1 = number("height")?,
            _ => {
                let maxval = number("maxval")?;
                if maxval != 255 {
                    return Err(ImgError::Decode(format!(
                        "only maxval 255 supported, got {maxval}"
                    )));
                }
            }
        }
        self.fields += 1;
        Ok(())
    }
}

fn parse_header<R: BufRead>(r: &mut R, magic: &'static str) -> Result<(usize, usize), ImgError> {
    let mut parser = HeaderParser::new(magic);
    loop {
        let buf = r.fill_buf()?;
        if buf.is_empty() {
            return Err(ImgError::Decode("unexpected end of stream".into()));
        }
        let (used, dims) = parser.feed(buf)?;
        r.consume(used);
        if let Some(dims) = dims {
            return Ok(dims);
        }
    }
}

/// Reads a binary PPM (P6) image.
///
/// # Errors
///
/// Returns [`ImgError::Decode`] on malformed input and [`ImgError::Io`] on
/// read failure.
pub fn read_ppm<R: Read>(r: R) -> Result<ImageBuffer<Rgb>, ImgError> {
    let mut r = BufReader::new(r);
    let (w, h) = parse_header(&mut r, "P6")?;
    let mut buf = vec![0u8; w * h * 3];
    r.read_exact(&mut buf)
        .map_err(|e| ImgError::Decode(format!("truncated pixel data: {e}")))?;
    let pixels: Vec<Rgb> = buf
        .chunks_exact(3)
        .map(|c| Rgb::new(c[0], c[1], c[2]))
        .collect();
    ImageBuffer::from_vec(w, h, pixels)
}

/// Reads a binary PGM (P5) image.
///
/// # Errors
///
/// Returns [`ImgError::Decode`] on malformed input and [`ImgError::Io`] on
/// read failure.
pub fn read_pgm<R: Read>(r: R) -> Result<ImageBuffer<Gray>, ImgError> {
    let mut r = BufReader::new(r);
    let (w, h) = parse_header(&mut r, "P5")?;
    let mut buf = vec![0u8; w * h];
    r.read_exact(&mut buf)
        .map_err(|e| ImgError::Decode(format!("truncated pixel data: {e}")))?;
    ImageBuffer::from_vec(w, h, buf.into_iter().map(Gray).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ppm_roundtrip() {
        let img = ImageBuffer::from_fn(7, 5, |x, y| Rgb::new(x as u8 * 30, y as u8 * 40, 200));
        let mut buf = Vec::new();
        write_ppm(&img, &mut buf).unwrap();
        let back = read_ppm(&buf[..]).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn pgm_roundtrip() {
        let img = ImageBuffer::from_fn(4, 6, |x, y| Gray((x * 10 + y) as u8));
        let mut buf = Vec::new();
        write_pgm(&img, &mut buf).unwrap();
        let back = read_pgm(&buf[..]).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn header_format_is_canonical() {
        let img: ImageBuffer<Gray> = ImageBuffer::new(3, 2);
        let mut buf = Vec::new();
        write_pgm(&img, &mut buf).unwrap();
        assert!(buf.starts_with(b"P5\n3 2\n255\n"));
        assert_eq!(buf.len(), b"P5\n3 2\n255\n".len() + 6);
    }

    #[test]
    fn mask_pgm_black_and_white() {
        let mut m = Mask::new(2, 1);
        m.set(0, 0, true);
        let mut buf = Vec::new();
        write_mask_pgm(&m, &mut buf).unwrap();
        let img = read_pgm(&buf[..]).unwrap();
        assert_eq!(img.get(0, 0), Gray(255));
        assert_eq!(img.get(1, 0), Gray(0));
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let err = read_pgm(&b"P4\n2 2\n255\n...."[..]).unwrap_err();
        assert!(matches!(err, ImgError::Decode(_)));
    }

    #[test]
    fn decode_rejects_truncated_data() {
        let err = read_pgm(&b"P5\n4 4\n255\nab"[..]).unwrap_err();
        assert!(matches!(err, ImgError::Decode(_)));
    }

    #[test]
    fn decode_rejects_nonnumeric_dims() {
        let err = read_pgm(&b"P5\nxx 4\n255\n"[..]).unwrap_err();
        assert!(matches!(err, ImgError::Decode(_)));
    }

    #[test]
    fn decode_skips_comments() {
        let mut data = b"P5\n# a comment line\n2 1\n255\n".to_vec();
        data.extend_from_slice(&[7, 9]);
        let img = read_pgm(&data[..]).unwrap();
        assert_eq!(img.get(0, 0), Gray(7));
        assert_eq!(img.get(1, 0), Gray(9));
    }

    #[test]
    fn decode_rejects_unsupported_maxval() {
        let err = read_pgm(&b"P5\n2 1\n65535\n"[..]).unwrap_err();
        assert!(matches!(err, ImgError::Decode(_)));
    }

    #[test]
    fn header_parser_gives_the_same_header_at_any_split() {
        let header = b"P6\n# made by hand\n 12\t7 # trailing\n255\nRGB";
        for split in 0..header.len() {
            let mut parser = HeaderParser::new("P6");
            let (used_a, dims_a) = parser.feed(&header[..split]).unwrap();
            let (dims, used) = match dims_a {
                Some(dims) => (dims, used_a),
                None => {
                    let (used_b, dims_b) = parser.feed(&header[split..]).unwrap();
                    (dims_b.unwrap(), split + used_b)
                }
            };
            assert_eq!(dims, (12, 7), "split at {split}");
            assert_eq!(&header[used..], b"RGB", "split at {split}");
        }
    }

    #[test]
    fn header_parser_refuses_an_overlong_token_without_buffering_it() {
        let mut parser = HeaderParser::new("P6");
        let err = parser.feed(&[b'9'; 64]).unwrap_err();
        assert!(err.to_string().contains("longer than"), "{err}");
    }

    #[test]
    fn save_and_reload_via_files() {
        let dir = std::env::temp_dir().join("slj_imgproc_io_test");
        let img = ImageBuffer::from_fn(3, 3, |x, y| Rgb::new(x as u8, y as u8, 0));
        let path = dir.join("sub/test.ppm");
        save_ppm(&img, &path).unwrap();
        let back = read_ppm(std::fs::File::open(&path).unwrap()).unwrap();
        assert_eq!(back, img);
        std::fs::remove_dir_all(&dir).ok();
    }
}
