//! Querying by **user-specified scene** — the "US" in WALRUS.
//!
//! The paper's title promises retrieval of *user-specified scenes*: the
//! user cares about one part of the query image (the flowers, not the sky)
//! and wants images containing *that*, anywhere, at any size. This module
//! provides that workflow on top of the engine:
//!
//! 1. the caller marks a rectangle of interest in the query image;
//! 2. regions are extracted from the cropped scene only (windows that fit
//!    inside it), so background outside the marked area contributes no
//!    regions;
//! 3. matching uses the [`crate::params::SimilarityKind::QueryFraction`]
//!    denominator — "fraction of the query image covered by matching
//!    regions" — which §4 singles out as the natural variant for partial
//!    queries (a small scene can be fully present in a big target without
//!    the target's extra content diluting the score).
//!
//! The workflow is one field of [`QueryOptions`] — `scene` — so it runs
//! through the same query procedure as every other query, on the in-memory
//! [`ImageDatabase`] and on the sharded store alike; the two methods below
//! are shorthand for it.

use crate::database::{ImageDatabase, QueryOptions, QueryOutcome};
use crate::{Result, WalrusError};
use walrus_guard::Guard;
use walrus_imagery::Image;

/// A rectangle of interest within a query image (pixel coordinates,
/// half-open on the right/bottom).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SceneRect {
    /// Left edge.
    pub x: usize,
    /// Top edge.
    pub y: usize,
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
}

impl SceneRect {
    /// The whole image as a scene.
    pub fn full(image: &Image) -> Self {
        Self { x: 0, y: 0, width: image.width(), height: image.height() }
    }

    /// The scene cut out of `image`, once it is known to lie inside it and
    /// to fit at least one window of the engine's minimum size.
    pub(crate) fn crop(&self, image: &Image, omega_min: usize) -> Result<Image> {
        if self.width == 0 || self.height == 0 {
            return Err(WalrusError::BadParams("empty scene rectangle".into()));
        }
        if self.x.saturating_add(self.width) > image.width()
            || self.y.saturating_add(self.height) > image.height()
        {
            return Err(WalrusError::BadParams(format!(
                "scene {:?} exceeds image {}x{}",
                self,
                image.width(),
                image.height()
            )));
        }
        if self.width < omega_min || self.height < omega_min {
            return Err(WalrusError::BadParams(format!(
                "scene {}x{} smaller than the minimum window size {omega_min}",
                self.width, self.height
            )));
        }
        Ok(image.crop(self.x, self.y, self.width, self.height)?)
    }
}

impl ImageDatabase {
    /// Queries for images containing the marked scene of `query`, ranked by
    /// the fraction of the *scene* covered by matching regions. Returns
    /// images whose scene-coverage reaches `min_coverage ∈ [0, 1]`.
    pub fn query_scene(
        &self,
        query: &Image,
        scene: SceneRect,
        min_coverage: f64,
    ) -> Result<QueryOutcome> {
        let opts = QueryOptions {
            scene: Some(scene),
            min_similarity: Some(min_coverage),
            ..QueryOptions::default()
        };
        self.query_with_options_guarded(query, &opts, &Guard::none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::WalrusParams;
    use walrus_imagery::synth::scene::{Scene, SceneObject};
    use walrus_imagery::synth::shapes::Shape;
    use walrus_imagery::synth::texture::{Rgb, Texture};
    use walrus_wavelet::SlidingParams;

    fn params() -> WalrusParams {
        WalrusParams {
            sliding: SlidingParams { s: 2, omega_min: 8, omega_max: 16, stride: 4 },
            ..WalrusParams::paper_defaults()
        }
    }

    /// A two-part scene: a large red disc on the left, blue sky elsewhere.
    /// The disc (centre ≈ (32, 32), radius ≈ 18 px) fully contains the
    /// 32×32 scene rectangle used by the tests.
    fn query_image() -> Image {
        Scene::new(Texture::Solid(Rgb(0.3, 0.5, 0.9)))
            .with(SceneObject::new(
                Shape::Ellipse { rx: 0.8, ry: 0.8 },
                Texture::Solid(Rgb(0.9, 0.15, 0.1)),
                (0.25, 0.5),
                0.7,
            ))
            .render(128, 64)
            .unwrap()
    }

    /// Target containing only the red disc (over green), at a new position.
    fn disc_target() -> Image {
        Scene::new(Texture::Solid(Rgb(0.1, 0.55, 0.2)))
            .with(SceneObject::new(
                Shape::Ellipse { rx: 0.8, ry: 0.8 },
                Texture::Solid(Rgb(0.9, 0.15, 0.1)),
                (0.7, 0.45),
                0.75,
            ))
            .render(128, 64)
            .unwrap()
    }

    /// Target containing only blue sky.
    fn sky_target() -> Image {
        Scene::new(Texture::Solid(Rgb(0.3, 0.5, 0.9))).render(128, 64).unwrap()
    }

    fn db() -> ImageDatabase {
        let mut db = ImageDatabase::new(params()).unwrap();
        db.insert_image("disc", &disc_target()).unwrap();
        db.insert_image("sky", &sky_target()).unwrap();
        db
    }

    #[test]
    fn scene_query_targets_the_marked_object() {
        let db = db();
        let query = query_image();
        // Mark a rectangle inside the red disc.
        let scene = SceneRect { x: 16, y: 16, width: 32, height: 32 };
        let out = db.query_scene(&query, scene, 0.3).unwrap();
        assert!(!out.matches.is_empty());
        assert_eq!(out.matches[0].name, "disc", "scene query should find the disc image");
        // The sky image must not outrank the disc image.
        if let Some(sky) = out.matches.iter().find(|m| m.name == "sky") {
            assert!(sky.similarity < out.matches[0].similarity);
        }
    }

    #[test]
    fn opposite_scene_flips_the_ranking() {
        let db = db();
        let query = query_image();
        // Mark the blue half instead.
        let scene = SceneRect { x: 72, y: 8, width: 48, height: 48 };
        let out = db.query_scene(&query, scene, 0.3).unwrap();
        assert!(!out.matches.is_empty());
        assert_eq!(out.matches[0].name, "sky", "marking the sky should retrieve the sky image");
    }

    #[test]
    fn full_scene_equals_whole_image_region_set() {
        let db = db();
        let query = query_image();
        let out = db.query_scene(&query, SceneRect::full(&query), 0.0).unwrap();
        let direct = db.query(&query).unwrap();
        assert_eq!(out.stats.query_regions, direct.stats.query_regions);
    }

    #[test]
    fn coverage_threshold_filters() {
        let db = db();
        let query = query_image();
        let scene = SceneRect { x: 16, y: 16, width: 32, height: 32 };
        let strict = db.query_scene(&query, scene, 0.98).unwrap();
        let loose = db.query_scene(&query, scene, 0.0).unwrap();
        assert!(strict.matches.len() <= loose.matches.len());
        for m in &strict.matches {
            assert!(m.similarity >= 0.98);
        }
    }

    #[test]
    fn invalid_scenes_rejected() {
        let db = db();
        let query = query_image();
        // Empty.
        assert!(db
            .query_scene(&query, SceneRect { x: 0, y: 0, width: 0, height: 10 }, 0.5)
            .is_err());
        // Out of bounds.
        assert!(db
            .query_scene(&query, SceneRect { x: 100, y: 0, width: 64, height: 32 }, 0.5)
            .is_err());
        // Smaller than the minimum window.
        assert!(db
            .query_scene(&query, SceneRect { x: 0, y: 0, width: 4, height: 4 }, 0.5)
            .is_err());
        // Bad coverage threshold.
        assert!(db.query_scene(&query, SceneRect::full(&query), 1.5).is_err());
        assert!(db.query_scene(&query, SceneRect::full(&query), f64::NAN).is_err());
    }
}
