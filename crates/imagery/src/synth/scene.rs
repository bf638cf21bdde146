//! Scene composition: textured shapes over a textured background.
//!
//! A [`Scene`] is the unit the dataset generator manipulates. Its objects can
//! be translated, scaled and color-shifted *individually*, which is exactly
//! the family of intra-image transformations the WALRUS similarity model is
//! designed to tolerate (paper §1.1, Figure 1).

use crate::color::ColorSpace;
use crate::image::Image;
use crate::synth::shapes::Shape;
use crate::synth::texture::{Rgb, Texture};
use crate::Result;

/// One textured shape placed in an image.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneObject {
    /// The shape, in local coordinates `[-1, 1]²`.
    pub shape: Shape,
    /// Fill for the shape's interior.
    pub texture: Texture,
    /// Centre position as a fraction of image width/height (`0.5, 0.5` is
    /// the image centre). Fractions may fall outside `[0,1]` for partially
    /// visible objects.
    pub center: (f32, f32),
    /// Scale: local unit `1.0` maps to `scale * min(width, height) / 2`
    /// pixels, so `scale = 1.0` makes the shape span roughly the image.
    pub scale: f32,
    /// Whether the object's texture is anchored to the object (`true`, so it
    /// travels with translation) or to the image (`false`).
    pub local_texture: bool,
}

impl SceneObject {
    /// Convenience constructor with object-anchored texture.
    pub fn new(shape: Shape, texture: Texture, center: (f32, f32), scale: f32) -> Self {
        Self { shape, texture, center, scale, local_texture: true }
    }

    /// Returns a copy translated by `(dx, dy)` in image fractions.
    pub fn translated(&self, dx: f32, dy: f32) -> Self {
        let mut o = self.clone();
        o.center = (o.center.0 + dx, o.center.1 + dy);
        o
    }

    /// Returns a copy scaled by `factor` about its own centre.
    pub fn scaled(&self, factor: f32) -> Self {
        let mut o = self.clone();
        o.scale *= factor;
        o
    }

    /// Returns a copy with the texture color-shifted by `(dr, dg, db)`.
    pub fn color_shifted(&self, dr: f32, dg: f32, db: f32) -> Self {
        let mut o = self.clone();
        o.texture = o.texture.color_shifted(dr, dg, db);
        o
    }
}

/// A background plus an ordered list of objects (later objects composite on
/// top of earlier ones).
#[derive(Debug, Clone, PartialEq)]
pub struct Scene {
    /// Background fill evaluated over the whole image.
    pub background: Texture,
    /// Foreground objects, painter's order.
    pub objects: Vec<SceneObject>,
}

impl Scene {
    /// Creates a scene with the given background and no objects.
    pub fn new(background: Texture) -> Self {
        Self { background, objects: Vec::new() }
    }

    /// Adds an object on top of the current stack (builder style).
    pub fn with(mut self, object: SceneObject) -> Self {
        self.objects.push(object);
        self
    }

    /// Renders the scene to a `width × height` RGB image.
    pub fn render(&self, width: usize, height: usize) -> Result<Image> {
        let mut img = Image::zeros(width, height, ColorSpace::Rgb)?;
        let (fw, fh) = (width as f32, height as f32);
        // Paint the background.
        for y in 0..height {
            for x in 0..width {
                let c = self.background.eval(x as f32, y as f32, fw, fh);
                img.set_pixel(x, y, &[c.0, c.1, c.2]);
            }
        }
        // Composite each object with per-pixel coverage alpha.
        for obj in &self.objects {
            let px_scale = obj.scale * fw.min(fh) / 2.0;
            if px_scale <= 0.0 {
                continue;
            }
            let cx = obj.center.0 * fw;
            let cy = obj.center.1 * fh;
            let ext = obj.shape.bounding_half_extent() * px_scale + 2.0;
            let x0 = ((cx - ext).floor().max(0.0)) as usize;
            let y0 = ((cy - ext).floor().max(0.0)) as usize;
            let x1 = ((cx + ext).ceil().min(fw - 1.0)).max(0.0) as usize;
            let y1 = ((cy + ext).ceil().min(fh - 1.0)).max(0.0) as usize;
            if x0 > x1 || y0 > y1 {
                continue;
            }
            let feather = 1.0 / px_scale; // ~1 pixel soft edge in local units
            for y in y0..=y1 {
                for x in x0..=x1 {
                    let lx = (x as f32 + 0.5 - cx) / px_scale;
                    let ly = (y as f32 + 0.5 - cy) / px_scale;
                    let alpha = obj.shape.coverage(lx, ly, feather);
                    if alpha <= 0.0 {
                        continue;
                    }
                    let c = if obj.local_texture {
                        // Texture coordinates anchored to the object so the
                        // pattern travels with it under translation/scale.
                        let ox = (lx + 1.0) * px_scale;
                        let oy = (ly + 1.0) * px_scale;
                        obj.texture.eval(ox, oy, 2.0 * px_scale, 2.0 * px_scale)
                    } else {
                        obj.texture.eval(x as f32, y as f32, fw, fh)
                    };
                    let under = img.pixel(x, y);
                    let blended = Rgb(under[0], under[1], under[2]).lerp(c, alpha);
                    img.set_pixel(x, y, &[blended.0, blended.1, blended.2]);
                }
            }
        }
        Ok(img)
    }

    /// Fraction of the image covered by object `idx` (hard-edged estimate on
    /// an integer grid), by which the tests check object scaling.
    #[cfg(test)]
    fn object_coverage(&self, idx: usize, width: usize, height: usize) -> f32 {
        let obj = &self.objects[idx];
        let (fw, fh) = (width as f32, height as f32);
        let px_scale = obj.scale * fw.min(fh) / 2.0;
        if px_scale <= 0.0 {
            return 0.0;
        }
        let cx = obj.center.0 * fw;
        let cy = obj.center.1 * fh;
        let mut covered = 0usize;
        for y in 0..height {
            for x in 0..width {
                let lx = (x as f32 + 0.5 - cx) / px_scale;
                let ly = (y as f32 + 0.5 - cy) / px_scale;
                if obj.shape.inside_depth(lx, ly) >= 0.0 {
                    covered += 1;
                }
            }
        }
        covered as f32 / (width * height) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RED: Rgb = Rgb(0.9, 0.1, 0.1);
    const GREEN: Rgb = Rgb(0.1, 0.6, 0.15);

    fn flower_scene() -> Scene {
        Scene::new(Texture::Noise { a: GREEN, b: Rgb(0.05, 0.4, 0.1), scale: 6, seed: 3 }).with(
            SceneObject::new(
                Shape::Flower { petals: 6, core_radius: 0.25, petal_len: 0.9, petal_width: 0.2 },
                Texture::Solid(RED),
                (0.5, 0.5),
                0.5,
            ),
        )
    }

    #[test]
    fn render_has_requested_dimensions() {
        let img = flower_scene().render(64, 48).unwrap();
        assert_eq!(img.width(), 64);
        assert_eq!(img.height(), 48);
        assert_eq!(img.space(), ColorSpace::Rgb);
    }

    #[test]
    fn object_paints_over_background() {
        let img = flower_scene().render(64, 64).unwrap();
        // Image centre is inside the flower core: red dominates.
        let p = img.pixel(32, 32);
        assert!(p[0] > 0.7 && p[1] < 0.3, "centre should be red, got {p:?}");
        // Far corner is background: green dominates.
        let q = img.pixel(2, 2);
        assert!(q[1] > q[0], "corner should be green, got {q:?}");
    }

    #[test]
    fn translation_moves_the_object() {
        let base = flower_scene();
        let mut moved = base.clone();
        moved.objects[0] = moved.objects[0].translated(0.25, 0.0);
        let a = base.render(64, 64).unwrap();
        let b = moved.render(64, 64).unwrap();
        // Original centre is red in `a` but background in `b`.
        assert!(a.pixel(32, 32)[0] > 0.7);
        assert!(b.pixel(32, 32)[0] < 0.5);
        // New centre (x + 16px) is red in `b`.
        assert!(b.pixel(48, 32)[0] > 0.7);
    }

    #[test]
    fn scaling_changes_coverage_quadratically() {
        let base = flower_scene();
        let mut big = base.clone();
        big.objects[0] = big.objects[0].scaled(1.6);
        let c1 = base.object_coverage(0, 64, 64);
        let c2 = big.object_coverage(0, 64, 64);
        assert!(c1 > 0.02, "flower should cover some area, got {c1}");
        let ratio = c2 / c1;
        assert!((1.8..3.5).contains(&ratio), "expected ≈2.56x coverage, got {ratio}");
    }

    #[test]
    fn color_shift_changes_object_pixels_only() {
        let base = flower_scene();
        let mut shifted = base.clone();
        shifted.objects[0] = shifted.objects[0].color_shifted(-0.4, 0.3, 0.0);
        let a = base.render(64, 64).unwrap();
        let b = shifted.render(64, 64).unwrap();
        // Background pixel unchanged.
        assert_eq!(a.pixel(2, 2), b.pixel(2, 2));
        // Flower pixel changed.
        assert_ne!(a.pixel(32, 32), b.pixel(32, 32));
    }

    #[test]
    fn painter_order_composites_later_on_top() {
        let scene = Scene::new(Texture::Solid(Rgb(0.0, 0.0, 0.0)))
            .with(SceneObject::new(
                Shape::Rect { hx: 0.9, hy: 0.9 },
                Texture::Solid(Rgb(1.0, 0.0, 0.0)),
                (0.5, 0.5),
                0.8,
            ))
            .with(SceneObject::new(
                Shape::Rect { hx: 0.5, hy: 0.5 },
                Texture::Solid(Rgb(0.0, 0.0, 1.0)),
                (0.5, 0.5),
                0.8,
            ));
        let img = scene.render(32, 32).unwrap();
        let centre = img.pixel(16, 16);
        assert!(centre[2] > 0.9 && centre[0] < 0.1, "blue rect should win at centre");
    }

    #[test]
    fn offscreen_object_renders_nothing() {
        let scene = Scene::new(Texture::Solid(Rgb(0.2, 0.2, 0.2))).with(SceneObject::new(
            Shape::Ellipse { rx: 0.5, ry: 0.5 },
            Texture::Solid(Rgb(1.0, 1.0, 1.0)),
            (5.0, 5.0), // far outside
            0.3,
        ));
        let img = scene.render(16, 16).unwrap();
        for y in 0..16 {
            for x in 0..16 {
                assert!((img.pixel(x, y)[0] - 0.2).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn local_texture_travels_with_translation() {
        let obj = SceneObject::new(
            Shape::Rect { hx: 1.0, hy: 1.0 },
            Texture::Checker { a: Rgb(1.0, 1.0, 1.0), b: Rgb(0.0, 0.0, 0.0), cell: 4 },
            (0.25, 0.5),
            0.4,
        );
        let s1 = Scene::new(Texture::Solid(Rgb(0.5, 0.5, 0.5))).with(obj.clone());
        // Translate by exactly 16px on a 64px image: 0.25 fraction.
        let s2 = Scene::new(Texture::Solid(Rgb(0.5, 0.5, 0.5))).with(obj.translated(0.25, 0.0));
        let a = s1.render(64, 64).unwrap();
        let b = s2.render(64, 64).unwrap();
        // Pattern at the object's centre should be identical after the move.
        assert_eq!(a.pixel(16, 32), b.pixel(32, 32));
    }

    #[test]
    fn zero_scale_object_is_skipped() {
        let scene = Scene::new(Texture::Solid(Rgb(0.3, 0.3, 0.3))).with(SceneObject::new(
            Shape::Ellipse { rx: 0.5, ry: 0.5 },
            Texture::Solid(Rgb(1.0, 0.0, 0.0)),
            (0.5, 0.5),
            0.0,
        ));
        let img = scene.render(8, 8).unwrap();
        assert!((img.pixel(4, 4)[0] - 0.3).abs() < 1e-6);
    }
}
