//! Minimal PPM (P3/P6) and PGM (P2/P5) codecs.
//!
//! The paper used ImageMagick purely for image I/O and color-space
//! conversion; this module is the workspace's substitute. Netpbm formats are
//! trivially parseable without external dependencies, which keeps the
//! reproduction self-contained.
//!
//! Writers clamp to `[0, 1]` and quantize to 8 bits; readers rescale by the
//! declared `maxval`. RGB images round-trip within one quantization step.

use crate::color::ColorSpace;
use crate::image::{Channel, Image};
use crate::{ImageError, Result};
use std::io::{Read, Write};
use std::path::Path;

/// Encodes an RGB image as binary PPM (P6).
pub fn write_ppm<W: Write>(img: &Image, mut out: W) -> Result<()> {
    let rgb = img.to_space(ColorSpace::Rgb)?;
    let header = format!("P6\n{} {}\n255\n", rgb.width(), rgb.height());
    let mut buf = Vec::with_capacity(header.len() + rgb.area() * 3);
    buf.extend_from_slice(header.as_bytes());
    for y in 0..rgb.height() {
        for x in 0..rgb.width() {
            for c in 0..3 {
                buf.push(quantize(rgb.channel(c).get(x, y)));
            }
        }
    }
    out.write_all(&buf).map_err(|e| ImageError::Codec(e.to_string()))
}

/// Encodes a grayscale view of the image as binary PGM (P5).
pub fn write_pgm<W: Write>(img: &Image, mut out: W) -> Result<()> {
    let gray = img.to_space(ColorSpace::Gray)?;
    let header = format!("P5\n{} {}\n255\n", gray.width(), gray.height());
    let mut buf = Vec::with_capacity(header.len() + gray.area());
    buf.extend_from_slice(header.as_bytes());
    for y in 0..gray.height() {
        for x in 0..gray.width() {
            buf.push(quantize(gray.channel(0).get(x, y)));
        }
    }
    out.write_all(&buf).map_err(|e| ImageError::Codec(e.to_string()))
}

/// Writes a P6 PPM file at `path`.
pub fn save_ppm(img: &Image, path: impl AsRef<Path>) -> Result<()> {
    let file = std::fs::File::create(path).map_err(|e| ImageError::Codec(e.to_string()))?;
    write_ppm(img, std::io::BufWriter::new(file))
}

/// Reads any of P2/P3/P5/P6 from a byte stream. P2/P5 produce grayscale
/// images; P3/P6 produce RGB.
pub fn read_netpbm<R: Read>(mut input: R) -> Result<Image> {
    let mut bytes = Vec::new();
    input.read_to_end(&mut bytes).map_err(|e| ImageError::Codec(e.to_string()))?;
    parse_netpbm(&bytes)
}

/// Loads a PPM/PGM file from `path`.
pub fn load_netpbm(path: impl AsRef<Path>) -> Result<Image> {
    load_netpbm_limited(path, usize::MAX)
}

/// [`load_netpbm`] with a pixel budget (see [`parse_netpbm_limited`]).
pub fn load_netpbm_limited(path: impl AsRef<Path>, max_pixels: usize) -> Result<Image> {
    let bytes = std::fs::read(path).map_err(|e| ImageError::Codec(e.to_string()))?;
    parse_netpbm_limited(&bytes, max_pixels)
}

/// Parses an in-memory PPM/PGM byte buffer.
pub fn parse_netpbm(bytes: &[u8]) -> Result<Image> {
    parse_netpbm_limited(bytes, usize::MAX)
}

/// [`parse_netpbm`] with a pixel budget: headers declaring more than
/// `max_pixels` pixels — or whose width×height×channels product overflows —
/// are rejected with [`ImageError::TooLarge`] **before any allocation**, and
/// the declared raster size is validated against the actual input length
/// (also before allocation), so a small hostile file cannot demand a huge
/// buffer.
pub fn parse_netpbm_limited(bytes: &[u8], max_pixels: usize) -> Result<Image> {
    parse_netpbm_limited_prefix(bytes, max_pixels).map(|(image, _)| image)
}

/// Parses one PPM/PGM image from the **front** of `bytes` and returns it
/// together with the number of bytes consumed. Netpbm rasters are
/// self-delimiting (the header declares exactly how long the raster is), so
/// several images can be concatenated into one buffer — the batch-ingest wire
/// format — and peeled off one at a time:
///
/// ```ignore
/// let mut rest = body;
/// while !rest.is_empty() {
///     let (image, used) = parse_netpbm_limited_prefix(rest, max_pixels)?;
///     rest = &rest[used..];
/// }
/// ```
///
/// Trailing whitespace after an ASCII raster is *not* consumed; the next
/// parse skips leading whitespace, so concatenation still composes. All
/// validation (overflow, pixel budget, raster length before allocation) is
/// identical to [`parse_netpbm_limited`].
pub fn parse_netpbm_limited_prefix(bytes: &[u8], max_pixels: usize) -> Result<(Image, usize)> {
    let mut cursor = Cursor { bytes, pos: 0 };
    let magic = cursor.token()?;
    let (channels, binary) = match magic.as_str() {
        "P2" => (1usize, false),
        "P3" => (3, false),
        "P5" => (1, true),
        "P6" => (3, true),
        other => return Err(ImageError::Codec(format!("unsupported magic {other:?}"))),
    };
    let width: usize = cursor.token()?.parse().map_err(|_| bad("width"))?;
    let height: usize = cursor.token()?.parse().map_err(|_| bad("height"))?;
    let maxval: u32 = cursor.token()?.parse().map_err(|_| bad("maxval"))?;
    if width == 0 || height == 0 {
        return Err(ImageError::InvalidDimensions { width, height, buffer_len: None });
    }
    if maxval == 0 || maxval > 65535 {
        return Err(ImageError::Codec(format!("maxval {maxval} out of range")));
    }
    let too_large = ImageError::TooLarge { width, height, max_pixels };
    let pixels = width.checked_mul(height).ok_or_else(|| too_large.clone())?;
    if pixels > max_pixels {
        return Err(too_large);
    }
    let count = pixels.checked_mul(channels).ok_or(too_large)?;
    let scale = 1.0 / maxval as f32;
    // Samples go straight into their channel planes.
    let planes: Vec<Vec<f32>> = if binary {
        // One whitespace byte separates the header from raster data.
        cursor.pos += 1;
        let wide = maxval > 255;
        let bytes_per = if wide { 2 } else { 1 };
        // Validate the declared raster against the real input length before
        // allocating anything: a 20-byte file must not be able to request a
        // multi-gigabyte buffer.
        let raster_len = count.checked_mul(bytes_per).ok_or_else(|| bad("raster size"))?;
        let raster_end = cursor.pos.checked_add(raster_len).ok_or_else(|| bad("raster size"))?;
        if cursor.bytes.len() < raster_end {
            return Err(ImageError::Codec("truncated raster".into()));
        }
        let raster = &cursor.bytes[cursor.pos..raster_end];
        cursor.pos = raster_end;
        let plane = |c: usize| -> Vec<f32> {
            let pixels = raster.chunks_exact(bytes_per * channels);
            if wide {
                pixels
                    .map(|px| (((px[2 * c] as u32) << 8) | px[2 * c + 1] as u32) as f32 * scale)
                    .collect()
            } else {
                pixels.map(|px| px[c] as f32 * scale).collect()
            }
        };
        (0..channels).map(plane).collect()
    } else {
        // ASCII samples are at least one digit plus a separator each, so
        // `count` samples need at least `2·count − 1` remaining bytes; check
        // before allocating for the same allocation-bomb reason as above.
        let remaining = cursor.bytes.len().saturating_sub(cursor.pos);
        if remaining < count.saturating_mul(2).saturating_sub(1) {
            return Err(ImageError::Codec("truncated raster".into()));
        }
        let mut planes = vec![Vec::with_capacity(pixels); channels];
        for i in 0..count {
            let v: u32 = cursor.token()?.parse().map_err(|_| bad("sample"))?;
            planes[i % channels].push(v.min(maxval) as f32 * scale);
        }
        planes
    };
    let chans = planes
        .into_iter()
        .map(|p| Channel::from_vec(width, height, p))
        .collect::<Result<Vec<_>>>()?;
    let space = if channels == 1 { ColorSpace::Gray } else { ColorSpace::Rgb };
    Image::from_channels(chans, space).map(|image| (image, cursor.pos))
}

#[inline]
fn quantize(v: f32) -> u8 {
    (v.clamp(0.0, 1.0) * 255.0).round() as u8
}

fn bad(what: &str) -> ImageError {
    ImageError::Codec(format!("malformed {what}"))
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    /// Next whitespace-delimited token, skipping `#` comments.
    fn token(&mut self) -> Result<String> {
        loop {
            while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
            if self.pos < self.bytes.len() && self.bytes[self.pos] == b'#' {
                while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
                    self.pos += 1;
                }
                continue;
            }
            break;
        }
        let start = self.pos;
        while self.pos < self.bytes.len() && !self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(ImageError::Codec("unexpected end of header".into()));
        }
        String::from_utf8(self.bytes[start..self.pos].to_vec())
            .map_err(|_| ImageError::Codec("non-UTF8 header token".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_image() -> Image {
        Image::from_fn(5, 4, ColorSpace::Rgb, |x, y, c| {
            ((x * 13 + y * 7 + c * 29) % 32) as f32 / 31.0
        })
        .unwrap()
    }

    #[test]
    fn p6_round_trip_within_quantization() {
        let img = test_image();
        let mut buf = Vec::new();
        write_ppm(&img, &mut buf).unwrap();
        let back = parse_netpbm(&buf).unwrap();
        assert_eq!(back.width(), 5);
        assert_eq!(back.height(), 4);
        assert_eq!(back.space(), ColorSpace::Rgb);
        for c in 0..3 {
            for (a, b) in back.channel(c).as_slice().iter().zip(img.channel(c).as_slice()) {
                assert!((a - b).abs() <= 1.0 / 255.0 + 1e-6, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn p5_round_trip_of_gray() {
        let img = test_image();
        let mut buf = Vec::new();
        write_pgm(&img, &mut buf).unwrap();
        let back = parse_netpbm(&buf).unwrap();
        assert_eq!(back.space(), ColorSpace::Gray);
        let gray = img.to_space(ColorSpace::Gray).unwrap();
        for (a, b) in back.channel(0).as_slice().iter().zip(gray.channel(0).as_slice()) {
            assert!((a - b).abs() <= 1.0 / 255.0 + 1e-6);
        }
    }

    #[test]
    fn parses_ascii_p3_with_comments() {
        let text = b"P3\n# a comment\n2 1\n# another\n255\n255 0 0  0 255 0\n";
        let img = parse_netpbm(text).unwrap();
        assert_eq!(img.pixel(0, 0), vec![1.0, 0.0, 0.0]);
        assert_eq!(img.pixel(1, 0), vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn parses_ascii_p2() {
        let text = b"P2\n3 1\n10\n0 5 10\n";
        let img = parse_netpbm(text).unwrap();
        assert_eq!(img.space(), ColorSpace::Gray);
        assert!((img.channel(0).get(1, 0) - 0.5).abs() < 1e-6);
        assert_eq!(img.channel(0).get(2, 0), 1.0);
    }

    #[test]
    fn sixteen_bit_p5() {
        // 2x1, maxval 65535, big-endian samples 0 and 65535.
        let mut bytes = b"P5\n2 1\n65535\n".to_vec();
        bytes.extend_from_slice(&[0, 0, 0xFF, 0xFF]);
        let img = parse_netpbm(&bytes).unwrap();
        assert_eq!(img.channel(0).get(0, 0), 0.0);
        assert_eq!(img.channel(0).get(1, 0), 1.0);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_netpbm(b"PX\n1 1\n255\n0").is_err());
        assert!(parse_netpbm(b"P6\n0 4\n255\n").is_err());
        assert!(parse_netpbm(b"P6\n2 2\n255\nxx").is_err()); // truncated raster
        assert!(parse_netpbm(b"P3\n1 1\n255\n12 bogus 3").is_err());
        assert!(parse_netpbm(b"").is_err());
    }

    #[test]
    fn rejects_hostile_headers_before_allocation() {
        // width × height overflows usize: must be rejected, not wrapped.
        let huge = format!("P5\n{} {}\n255\n", usize::MAX, 2);
        assert!(matches!(
            parse_netpbm(huge.as_bytes()),
            Err(ImageError::TooLarge { .. })
        ));
        // width × height × channels overflows even when pixels does not.
        let huge = format!("P6\n{} {}\n255\n", usize::MAX / 2, 2);
        assert!(matches!(
            parse_netpbm(huge.as_bytes()),
            Err(ImageError::TooLarge { .. })
        ));
        // Non-overflowing but absurd size with a tiny raster: the length
        // check fires before any allocation.
        assert!(parse_netpbm(b"P6\n1000000 1000000\n255\nxx").is_err());
        assert!(parse_netpbm(b"P2\n1000000 1000000\n255\n0 1 2").is_err());
        // Pixel budget enforced on otherwise valid declarations.
        let img = test_image();
        let mut buf = Vec::new();
        write_ppm(&img, &mut buf).unwrap();
        assert!(parse_netpbm_limited(&buf, 5 * 4).is_ok());
        assert!(matches!(
            parse_netpbm_limited(&buf, 5 * 4 - 1),
            Err(ImageError::TooLarge { max_pixels: 19, .. })
        ));
    }

    #[test]
    fn prefix_parse_peels_concatenated_images() {
        // Binary P6 + ASCII P2 + binary P5 back to back in one buffer.
        let mut buf = Vec::new();
        write_ppm(&test_image(), &mut buf).unwrap();
        let first_len = buf.len();
        buf.extend_from_slice(b"P2\n3 1\n10\n0 5 10\n");
        write_pgm(&test_image(), &mut buf).unwrap();

        let (a, used_a) = parse_netpbm_limited_prefix(&buf, usize::MAX).unwrap();
        assert_eq!(used_a, first_len);
        assert_eq!((a.width(), a.height()), (5, 4));

        let rest = &buf[used_a..];
        let (b, used_b) = parse_netpbm_limited_prefix(rest, usize::MAX).unwrap();
        assert_eq!((b.width(), b.height()), (3, 1));
        assert_eq!(b.space(), ColorSpace::Gray);

        let rest = &rest[used_b..];
        let (c, used_c) = parse_netpbm_limited_prefix(rest, usize::MAX).unwrap();
        assert_eq!((c.width(), c.height()), (5, 4));
        // Only inter-image whitespace may remain.
        assert!(rest[used_c..].iter().all(|b| b.is_ascii_whitespace()));

        // The pixel budget applies per image, not to the whole buffer.
        assert!(parse_netpbm_limited_prefix(&buf, 2).is_err());
    }

    #[test]
    fn rejects_bad_maxval() {
        assert!(parse_netpbm(b"P5\n1 1\n0\n\x00").is_err());
        assert!(parse_netpbm(b"P5\n1 1\n65536\n\x00\x00").is_err());
        assert!(parse_netpbm(b"P5\n1 1\n-1\n\x00").is_err());
    }

    #[test]
    fn writer_clamps_out_of_range_values() {
        let img = Image::from_fn(2, 1, ColorSpace::Rgb, |x, _, _| if x == 0 { -3.0 } else { 7.0 }).unwrap();
        let mut buf = Vec::new();
        write_ppm(&img, &mut buf).unwrap();
        let back = parse_netpbm(&buf).unwrap();
        assert_eq!(back.pixel(0, 0), vec![0.0, 0.0, 0.0]);
        assert_eq!(back.pixel(1, 0), vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn save_and_load_from_disk() {
        let dir = std::env::temp_dir().join("walrus_ppm_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rt.ppm");
        let img = test_image();
        save_ppm(&img, &path).unwrap();
        let back = load_netpbm(&path).unwrap();
        assert_eq!(back.width(), img.width());
        assert_eq!(back.height(), img.height());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_rasters_deinterleave_sample_exact() {
        // 3×2 P6, 8-bit: every sample lands in its own channel plane, in
        // raster order, as exactly `byte · (1 / maxval)`.
        let raster: Vec<u8> = (0..18).map(|i| (i * 13 + 5) as u8).collect();
        let mut bytes = b"P6\n3 2\n255\n".to_vec();
        bytes.extend_from_slice(&raster);
        let img = parse_netpbm(&bytes).unwrap();
        let scale = 1.0 / 255.0f32;
        for c in 0..3 {
            let want: Vec<f32> = (0..6).map(|px| raster[px * 3 + c] as f32 * scale).collect();
            assert_eq!(img.channel(c).as_slice(), &want[..]);
        }
    }

    #[test]
    fn sixteen_bit_color_deinterleaves_big_endian_pairs() {
        // 2×1 P6, maxval 1000: six big-endian u16 samples.
        let samples = [0u16, 1000, 500, 250, 1, 999];
        let mut bytes = b"P6\n2 1\n1000\n".to_vec();
        for v in samples {
            bytes.extend_from_slice(&v.to_be_bytes());
        }
        let (img, used) = parse_netpbm_limited_prefix(&bytes, usize::MAX).unwrap();
        assert_eq!(used, bytes.len());
        let scale = 1.0 / 1000.0f32;
        for c in 0..3 {
            let want = [samples[c] as f32 * scale, samples[3 + c] as f32 * scale];
            assert_eq!(img.channel(c).as_slice(), &want[..]);
        }
        // One byte short of the declared raster is rejected, not padded.
        assert!(parse_netpbm(&bytes[..bytes.len() - 1]).is_err());
    }
}
