//! Region visualization: render what WALRUS "sees" in an image.
//!
//! Produces overlay images where each region's coarse bitmap is tinted in a
//! distinct palette color over a dimmed copy of the source — the quickest
//! way to sanity-check a parameter choice (`ε_c` too loose? windows too
//! big?) with human eyes. Used by the `region_explorer` example and handy
//! in downstream debugging.

use crate::region::Region;
use crate::Result;
use walrus_imagery::{ColorSpace, Image};

/// A fixed, high-contrast palette for painting regions (cycled when there
/// are more regions than entries).
pub const PALETTE: [(f32, f32, f32); 8] = [
    (0.90, 0.10, 0.10),
    (0.10, 0.40, 0.90),
    (0.95, 0.75, 0.10),
    (0.55, 0.10, 0.75),
    (0.10, 0.75, 0.70),
    (0.95, 0.45, 0.10),
    (0.35, 0.70, 0.15),
    (0.80, 0.15, 0.55),
];

/// Rendering options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlayOptions {
    /// How much of the original image survives in uncovered areas.
    pub background_dim: f32,
    /// Opacity of the region tint over covered areas.
    pub tint_alpha: f32,
}

impl Default for OverlayOptions {
    fn default() -> Self {
        Self { background_dim: 0.25, tint_alpha: 0.5 }
    }
}

/// Renders all `regions` of `image` as a tinted overlay. Regions are
/// painted in order, so later (usually smaller) regions appear on top where
/// they overlap.
pub fn region_overlay(image: &Image, regions: &[Region], opts: OverlayOptions) -> Result<Image> {
    let rgb = image.to_space(ColorSpace::Rgb)?;
    let mut out = Image::zeros(rgb.width(), rgb.height(), ColorSpace::Rgb)?;
    let dim = opts.background_dim.clamp(0.0, 1.0);
    for y in 0..rgb.height() {
        for x in 0..rgb.width() {
            let p = rgb.pixel(x, y);
            out.set_pixel(x, y, &[p[0] * dim, p[1] * dim, p[2] * dim]);
        }
    }
    let alpha = opts.tint_alpha.clamp(0.0, 1.0);
    for (i, region) in regions.iter().enumerate() {
        let (cr, cg, cb) = PALETTE[i % PALETTE.len()];
        paint_bitmap(&mut out, region, cr, cg, cb, alpha);
    }
    Ok(out)
}

fn paint_bitmap(out: &mut Image, region: &Region, cr: f32, cg: f32, cb: f32, alpha: f32) {
    let bm = &region.bitmap;
    for cy in 0..bm.grid_height() {
        for cx in 0..bm.grid_width() {
            if !bm.get_cell(cx, cy) {
                continue;
            }
            let (x0, y0, w, h) = bm.cell_pixels(cx, cy);
            for y in y0..(y0 + h).min(out.height()) {
                for x in x0..(x0 + w).min(out.width()) {
                    let p = out.pixel(x, y);
                    out.set_pixel(x, y, &[
                        p[0] * (1.0 - alpha) + cr * alpha,
                        p[1] * (1.0 - alpha) + cg * alpha,
                        p[2] * (1.0 - alpha) + cb * alpha,
                    ]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmap::RegionBitmap;

    fn region_covering(x: usize, y: usize, w: usize, h: usize) -> Region {
        let mut bitmap = RegionBitmap::new(64, 64, 16);
        bitmap.mark_window(x, y, w, h);
        Region::new(vec![0.0; 4], vec![0.0; 4], vec![0.0; 4], bitmap, 1)
    }

    fn base_image() -> Image {
        Image::from_fn(64, 64, ColorSpace::Rgb, |_, _, _| 1.0).unwrap()
    }

    #[test]
    fn overlay_dims_uncovered_and_tints_covered() {
        let img = base_image();
        let regions = [region_covering(0, 0, 16, 16)];
        let out = region_overlay(&img, &regions, OverlayOptions::default()).unwrap();
        // Covered pixel (8,8): blend of dimmed white and palette red.
        let covered = out.pixel(8, 8);
        let (cr, _, _) = PALETTE[0];
        assert!((covered[0] - (1.0 * 0.25 * 0.5 + cr * 0.5)).abs() < 1e-5);
        // Uncovered pixel (40,40): just dimmed.
        let uncovered = out.pixel(40, 40);
        assert!((uncovered[0] - 0.25).abs() < 1e-5);
        assert_eq!(uncovered[0], uncovered[1]);
    }

    #[test]
    fn overlay_cycles_palette() {
        let img = base_image();
        let regions: Vec<Region> =
            (0..10).map(|i| region_covering((i * 6) % 48, 0, 4, 4)).collect();
        // 10 regions with an 8-color palette must not panic.
        region_overlay(&img, &regions, OverlayOptions::default()).unwrap();
    }

    #[test]
    fn later_regions_paint_on_top() {
        let img = base_image();
        let regions = [region_covering(0, 0, 32, 32), region_covering(0, 0, 16, 16)];
        let out = region_overlay(&img, &regions, OverlayOptions { background_dim: 0.0, tint_alpha: 1.0 }).unwrap();
        let (_, c1g, _) = PALETTE[1];
        // Pixel inside both: second region's color wins.
        assert!((out.pixel(8, 8)[1] - c1g).abs() < 1e-5);
        let (c0r, _, _) = PALETTE[0];
        // Pixel only in the first region.
        assert!((out.pixel(24, 24)[0] - c0r).abs() < 1e-5);
    }

    #[test]
    fn empty_region_list_gives_pure_dim() {
        let img = base_image();
        let out = region_overlay(&img, &[], OverlayOptions::default()).unwrap();
        assert!(out.channel(0).as_slice().iter().all(|&v| (v - 0.25).abs() < 1e-5));
    }
}
