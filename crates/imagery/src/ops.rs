//! Whole-image operations: orientation changes, photometric perturbations,
//! dithering and blurring.
//!
//! Paper §1.1 lists the perturbations a retrieval system should tolerate:
//! "resolution changes, dithering effects, color shifts, orientation, size,
//! and location". This module implements those perturbations so the test
//! suite can *apply* them and measure whether retrieval survives —
//! `resize_*` (resolution/size) already lives on [`Image`]; here are the
//! rest.

use crate::color::ColorSpace;
use crate::image::{Channel, Image};
use crate::Result;

/// Mirrors the image left–right.
pub fn flip_horizontal(img: &Image) -> Image {
    map_geometry(img, img.width(), img.height(), |x, y, w, _| (w - 1 - x, y))
}

/// Mirrors the image top–bottom.
pub fn flip_vertical(img: &Image) -> Image {
    map_geometry(img, img.width(), img.height(), |x, y, _, h| (x, h - 1 - y))
}

/// Rotates 90° clockwise (width and height swap).
pub fn rotate90(img: &Image) -> Image {
    // Output pixel (x, y) comes from input (y, H_out−1−x) where the output
    // is h×w.
    map_geometry(img, img.height(), img.width(), |x, y, _, _| (y, img.height() - 1 - x))
}

/// Rotates 180°.
pub fn rotate180(img: &Image) -> Image {
    map_geometry(img, img.width(), img.height(), |x, y, w, h| (w - 1 - x, h - 1 - y))
}

/// Rotates 270° clockwise (= 90° counter-clockwise).
pub fn rotate270(img: &Image) -> Image {
    map_geometry(img, img.height(), img.width(), |x, y, _, _| (img.width() - 1 - y, x))
}

fn map_geometry(
    img: &Image,
    out_w: usize,
    out_h: usize,
    src: impl Fn(usize, usize, usize, usize) -> (usize, usize),
) -> Image {
    Image::from_fn(out_w, out_h, img.space(), |x, y, c| {
        let (sx, sy) = src(x, y, out_w, out_h);
        img.channel(c).get(sx, sy)
    })
    .expect("geometry transforms preserve valid dimensions")
}

/// Adds `(dr, dg, db)` to every pixel (converting through RGB when
/// necessary), clamped to `[0, 1]` — the global color-shift perturbation.
pub fn color_shift(img: &Image, dr: f32, dg: f32, db: f32) -> Result<Image> {
    let original_space = img.space();
    let mut rgb = img.to_space(ColorSpace::Rgb)?;
    for (c, delta) in [(0usize, dr), (1, dg), (2, db)] {
        rgb.channel_mut(c).map_in_place(|v| (v + delta).clamp(0.0, 1.0));
    }
    rgb.to_space(original_space)
}

/// Floyd–Steinberg error-diffusion dithering to `levels` values per RGB
/// channel (≥ 2) — the "dithering effects" perturbation. The output looks
/// grainy up close but preserves local averages, which is exactly why
/// wavelet lowest-band signatures shrug it off.
pub fn dither(img: &Image, levels: u32) -> Result<Image> {
    assert!(levels >= 2, "dithering needs at least 2 levels");
    let rgb = img.to_space(ColorSpace::Rgb)?;
    let (w, h) = (rgb.width(), rgb.height());
    let q = (levels - 1) as f32;
    let mut channels = Vec::with_capacity(3);
    for c in 0..3 {
        let mut data: Vec<f32> = rgb.channel(c).as_slice().to_vec();
        for y in 0..h {
            for x in 0..w {
                let old = data[y * w + x];
                let new = (old.clamp(0.0, 1.0) * q).round() / q;
                data[y * w + x] = new;
                let err = old - new;
                // Diffuse the error to unvisited neighbours (FS weights).
                let mut push = |dx: isize, dy: isize, weight: f32| {
                    let nx = x as isize + dx;
                    let ny = y as isize + dy;
                    if nx >= 0 && (nx as usize) < w && (ny as usize) < h {
                        data[ny as usize * w + nx as usize] += err * weight;
                    }
                };
                push(1, 0, 7.0 / 16.0);
                push(-1, 1, 3.0 / 16.0);
                push(0, 1, 5.0 / 16.0);
                push(1, 1, 1.0 / 16.0);
            }
        }
        channels.push(Channel::from_vec(w, h, data)?);
    }
    Image::from_channels(channels, ColorSpace::Rgb)?.to_space(img.space())
}

/// Box blur with the given radius (`radius = 0` is a copy). Separable two-
/// pass implementation, `O(pixels)` per pass via running sums.
pub fn box_blur(img: &Image, radius: usize) -> Image {
    if radius == 0 {
        return img.clone();
    }
    let (w, h) = (img.width(), img.height());
    let channels = img
        .channels()
        .iter()
        .map(|ch| {
            let horiz = blur_axis(ch.as_slice(), w, h, radius, true);
            let both = blur_axis(&horiz, w, h, radius, false);
            Channel::from_vec(w, h, both).expect("blur preserves dimensions")
        })
        .collect();
    Image::from_channels(channels, img.space()).expect("blur preserves channel count")
}

fn blur_axis(data: &[f32], w: usize, h: usize, radius: usize, horizontal: bool) -> Vec<f32> {
    let (outer, inner) = if horizontal { (h, w) } else { (w, h) };
    let idx = |o: usize, i: usize| if horizontal { o * w + i } else { i * w + o };
    let mut out = vec![0.0f32; w * h];
    for o in 0..outer {
        // Running-sum sliding window along the inner axis.
        let mut sum = 0.0f32;
        let mut count = 0usize;
        let upto = radius.min(inner - 1);
        for i in 0..=upto {
            sum += data[idx(o, i)];
            count += 1;
        }
        for i in 0..inner {
            out[idx(o, i)] = sum / count as f32;
            // Slide: add i + radius + 1, drop i − radius.
            let add = i + radius + 1;
            if add < inner {
                sum += data[idx(o, add)];
                count += 1;
            }
            if i >= radius {
                sum -= data[idx(o, i - radius)];
                count -= 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Image {
        Image::from_fn(6, 4, ColorSpace::Rgb, |x, y, c| {
            ((x * 5 + y * 7 + c * 3) % 11) as f32 / 11.0
        })
        .unwrap()
    }

    #[test]
    fn flips_are_involutions() {
        let img = demo();
        assert_eq!(flip_horizontal(&flip_horizontal(&img)), img);
        assert_eq!(flip_vertical(&flip_vertical(&img)), img);
    }

    #[test]
    fn flip_moves_the_right_pixel() {
        let img = demo();
        let fh = flip_horizontal(&img);
        assert_eq!(fh.pixel(0, 0), img.pixel(5, 0));
        let fv = flip_vertical(&img);
        assert_eq!(fv.pixel(0, 0), img.pixel(0, 3));
    }

    #[test]
    fn four_quarter_rotations_are_identity() {
        let img = demo();
        let once = rotate90(&img);
        assert_eq!(once.width(), img.height());
        assert_eq!(once.height(), img.width());
        let back = rotate90(&rotate90(&rotate90(&once)));
        assert_eq!(back, img);
    }

    #[test]
    fn rotate180_equals_double_flip() {
        let img = demo();
        assert_eq!(rotate180(&img), flip_horizontal(&flip_vertical(&img)));
    }

    #[test]
    fn rotate90_then_270_is_identity() {
        let img = demo();
        assert_eq!(rotate270(&rotate90(&img)), img);
    }

    #[test]
    fn rotate90_maps_a_known_pixel() {
        let img = demo();
        // (x, y) in the 90°-cw output comes from (y, H−1−x).
        let r = rotate90(&img);
        assert_eq!(r.pixel(0, 0), img.pixel(0, 3));
        assert_eq!(r.pixel(3, 0), img.pixel(0, 0));
    }

    #[test]
    fn color_shift_moves_means_and_clamps() {
        let img = demo();
        let shifted = color_shift(&img, 0.2, 0.0, -0.2).unwrap();
        assert!(shifted.channel(0).mean() > img.channel(0).mean());
        assert!(shifted.channel(2).mean() < img.channel(2).mean());
        let maxed = color_shift(&img, 5.0, 5.0, 5.0).unwrap();
        assert!(maxed.channels().iter().all(|c| c.as_slice().iter().all(|&v| v <= 1.0 + 1e-6)));
    }

    #[test]
    fn color_shift_round_trips_through_nonrgb_spaces() {
        let ycc = demo().to_space(ColorSpace::Ycc).unwrap();
        let shifted = color_shift(&ycc, 0.1, 0.0, 0.0).unwrap();
        assert_eq!(shifted.space(), ColorSpace::Ycc);
    }

    #[test]
    fn dither_quantizes_but_preserves_local_mean() {
        let img = Image::from_fn(32, 32, ColorSpace::Rgb, |_, _, _| 0.37).unwrap();
        let d = dither(&img, 2).unwrap();
        // Every output value is 0 or 1…
        for &v in d.channel(0).as_slice() {
            assert!(v.abs() < 1e-6 || (v - 1.0).abs() < 1e-6, "non-binary value {v}");
        }
        // …but the global mean stays close to 0.37.
        assert!((d.channel(0).mean() - 0.37).abs() < 0.03, "mean {}", d.channel(0).mean());
    }

    #[test]
    fn dither_with_many_levels_is_nearly_lossless() {
        let img = demo();
        let d = dither(&img, 256).unwrap();
        for c in 0..3 {
            for (a, b) in d.channel(c).as_slice().iter().zip(img.channel(c).as_slice()) {
                assert!((a - b).abs() < 0.01);
            }
        }
    }

    #[test]
    fn blur_preserves_constant_images_and_mean() {
        let flat = Image::from_fn(8, 8, ColorSpace::Rgb, |_, _, _| 0.6).unwrap();
        let b = box_blur(&flat, 2);
        for &v in b.channel(0).as_slice() {
            assert!((v - 0.6).abs() < 1e-5);
        }
        let img = demo();
        let b = box_blur(&img, 1);
        assert!((b.channel(0).mean() - img.channel(0).mean()).abs() < 0.03);
    }

    #[test]
    fn blur_reduces_variance() {
        let img = Image::from_fn(16, 16, ColorSpace::Rgb, |x, y, _| ((x + y) % 2) as f32).unwrap();
        let b = box_blur(&img, 2);
        assert!(b.channel(0).variance() < img.channel(0).variance() * 0.5);
    }

    #[test]
    fn blur_radius_zero_is_copy() {
        let img = demo();
        assert_eq!(box_blur(&img, 0), img);
    }
}
