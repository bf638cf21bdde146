//! Labeled synthetic datasets.
//!
//! Mirrors the semantics of the paper's retrieval-quality experiment
//! (Figures 7 and 8): a *flower* class whose members all contain the same
//! kind of red-flower object — but at different positions, scales, counts and
//! slight color shifts — plus distractor classes deliberately chosen to share
//! *global* color composition with flower images:
//!
//! * [`ImageClass::BrickWall`] — red/orange overall, like Figure 7(d);
//! * [`ImageClass::Sunset`] — red/orange centre over dark water, Figure 7(g);
//! * [`ImageClass::Lawn`] — green-dominated with a yellow-brown blob
//!   (the dog of Figure 7(k));
//! * [`ImageClass::Ocean`] — blue scenes with an occasional red sail, like
//!   the windsurfer of Figure 8(m);
//! * [`ImageClass::Abstract`] — high-frequency checker/stripe patterns, easy
//!   negatives.
//!
//! A single-signature retriever (WBIIS-style) confuses the red/green
//! distractors with flower queries; a region-based retriever should not.
//! Because classes are constructed, precision can be *measured*, which the
//! paper could only argue visually.

use crate::image::Image;
use crate::synth::scene::{Scene, SceneObject};
use crate::synth::shapes::Shape;
use crate::synth::texture::{Rgb, Texture};
use crate::Result;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Semantic class of a synthetic image; doubles as retrieval ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImageClass {
    /// Red/pink flowers over green foliage — the query class.
    Flowers,
    /// Brick wall filling the frame.
    BrickWall,
    /// Sun disc over a dark sea with a gradient sky.
    Sunset,
    /// Green lawn with a tan animal-ish blob.
    Lawn,
    /// Blue water/sky, sometimes with a sailboat.
    Ocean,
    /// Abstract high-frequency pattern.
    Abstract,
}

impl ImageClass {
    /// All classes, in a stable order.
    pub const ALL: [ImageClass; 6] = [
        ImageClass::Flowers,
        ImageClass::BrickWall,
        ImageClass::Sunset,
        ImageClass::Lawn,
        ImageClass::Ocean,
        ImageClass::Abstract,
    ];

    /// Short lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            ImageClass::Flowers => "flowers",
            ImageClass::BrickWall => "brickwall",
            ImageClass::Sunset => "sunset",
            ImageClass::Lawn => "lawn",
            ImageClass::Ocean => "ocean",
            ImageClass::Abstract => "abstract",
        }
    }
}

/// A rendered image plus its ground-truth label.
#[derive(Debug, Clone)]
pub struct LabeledImage {
    /// Position in the dataset (stable across runs for a fixed spec).
    pub id: usize,
    /// Human-readable name, e.g. `flowers_0007`.
    pub name: String,
    /// Ground-truth class.
    pub class: ImageClass,
    /// The rendered RGB image.
    pub image: Image,
}

/// Parameters for dataset generation.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Number of images generated for each class in `classes`.
    pub images_per_class: usize,
    /// Image width in pixels (the paper's `misc` images are 85–128 px).
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Master RNG seed; the same spec always yields the same dataset.
    pub seed: u64,
    /// Which classes to include.
    pub classes: Vec<ImageClass>,
}

impl Default for DatasetSpec {
    fn default() -> Self {
        Self {
            images_per_class: 20,
            width: 128,
            height: 96,
            seed: 0x5EED,
            classes: ImageClass::ALL.to_vec(),
        }
    }
}

/// A generated, labeled image collection.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    /// All images, ordered class-by-class then index.
    pub images: Vec<LabeledImage>,
    /// The spec used to generate them.
    pub spec: DatasetSpec,
}

impl SyntheticDataset {
    /// Generates the dataset described by `spec` (uniform class sizes).
    pub fn generate(spec: DatasetSpec) -> Result<Self> {
        let counts: Vec<(ImageClass, usize)> =
            spec.classes.iter().map(|&c| (c, spec.images_per_class)).collect();
        Self::generate_mixed(spec, &counts)
    }

    /// Generates a dataset with explicit per-class counts — e.g. a *rare*
    /// query class among abundant distractors, the regime of the paper's
    /// 10,000-image collection where flower photos were a small minority.
    /// `spec.images_per_class` and `spec.classes` are ignored in favour of
    /// `counts`; everything else (sizes, seed) applies. A class may appear
    /// in several entries: its images are numbered on across them, so every
    /// name is unique.
    pub fn generate_mixed(spec: DatasetSpec, counts: &[(ImageClass, usize)]) -> Result<Self> {
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let total: usize = counts.iter().map(|(_, n)| n).sum();
        let mut images = Vec::with_capacity(total);
        let mut numbered = HashMap::new();
        for &(class, n) in counts {
            for _ in 0..n {
                let next: &mut usize = numbered.entry(class).or_default();
                let i = std::mem::replace(next, *next + 1);
                let scene = scene_for_class(class, &mut rng);
                let image = scene.render(spec.width, spec.height)?;
                images.push(LabeledImage {
                    id: images.len(),
                    name: format!("{}_{:04}", class.name(), i),
                    class,
                    image,
                });
            }
        }
        Ok(Self { images, spec })
    }

    /// Number of images in the dataset.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Images belonging to `class`.
    pub fn of_class(&self, class: ImageClass) -> impl Iterator<Item = &LabeledImage> {
        self.images.iter().filter(move |img| img.class == class)
    }
}

/// Builds a random scene of the given class.
pub fn scene_for_class(class: ImageClass, rng: &mut StdRng) -> Scene {
    match class {
        ImageClass::Flowers => flower_scene(rng),
        ImageClass::BrickWall => brick_scene(rng),
        ImageClass::Sunset => sunset_scene(rng),
        ImageClass::Lawn => lawn_scene(rng),
        ImageClass::Ocean => ocean_scene(rng),
        ImageClass::Abstract => abstract_scene(rng),
    }
}

/// The canonical flower object: red petals in a deliberately *tight* color
/// band, used by every flower image so that the class genuinely shares a
/// region up to position/scale/shift. Everything else about flower images
/// (background, flower count, size, placement) varies widely — that is the
/// regime where single-signature retrieval breaks and region matching does
/// not (paper §1.1).
fn flower_object(rng: &mut StdRng) -> SceneObject {
    let red = Rgb(
        0.85 + rng.gen_range(-0.03..0.03),
        0.12 + rng.gen_range(-0.03..0.03),
        0.18 + rng.gen_range(-0.03..0.03),
    );
    // A large solid core so that small sliding windows fall entirely inside
    // the flower — those windows carry the translation/scale-invariant
    // region signature the whole experiment turns on.
    SceneObject::new(
        Shape::Flower { petals: 6, core_radius: 0.5, petal_len: 0.95, petal_width: 0.25 },
        Texture::Solid(red),
        (rng.gen_range(0.15..0.85), rng.gen_range(0.15..0.85)),
        rng.gen_range(0.35..0.8),
    )
}

/// Green foliage background for flower scenes — moderately diverse (dark to
/// mid green): diverse enough that a whole-image signature moves around
/// within the class, similar enough that flower images often share
/// background regions too, as the paper's same-series flower matches did.
fn foliage(rng: &mut StdRng) -> Texture {
    let darkness = rng.gen_range(0.2..0.8f32);
    let a = Rgb(
        0.05 + 0.1 * darkness,
        0.28 + 0.35 * darkness,
        0.07 + 0.08 * rng.gen_range(0.0..1.0f32),
    );
    let b = Rgb(a.0 + 0.06, a.1 + rng.gen_range(0.12..0.22), a.2 + 0.04);
    Texture::Noise { a, b, scale: rng.gen_range(4..10), seed: rng.gen() }
}

/// Dry lawn grass for the lawn distractor class — still "green lawn" to a
/// human (and to a coarse global signature) but a distinctly yellower,
/// brighter family than [`foliage`], so lawn backgrounds do not fall within
/// the region-matching epsilon of flower foliage.
fn lawn_grass(rng: &mut StdRng) -> Texture {
    let dryness = rng.gen_range(0.0..1.0f32);
    let a = Rgb(0.4 + 0.18 * dryness, 0.42 + 0.12 * dryness, 0.12 + 0.06 * dryness);
    let b = Rgb(a.0 + 0.1, a.1 + 0.12, a.2 + 0.05);
    Texture::Noise { a, b, scale: rng.gen_range(2..6), seed: rng.gen() }
}

fn flower_scene(rng: &mut StdRng) -> Scene {
    let mut scene = Scene::new(foliage(rng));
    let count = rng.gen_range(1..=4);
    for _ in 0..count {
        scene.objects.push(flower_object(rng));
    }
    scene
}

fn brick_scene(rng: &mut StdRng) -> Scene {
    // Deliberately close to the flower red in *global* color budget (the
    // paper's Figure 7(d) confusion case: "a wall with orange and dark
    // brown bricks") while texturally distinct at region granularity.
    Scene::new(Texture::Bricks {
        brick: Rgb(
            0.72 + rng.gen_range(-0.06..0.1),
            0.2 + rng.gen_range(-0.05..0.08),
            0.14 + rng.gen_range(-0.04..0.04),
        ),
        mortar: Rgb(0.38, 0.28, 0.22),
        w: rng.gen_range(14..24),
        h: rng.gen_range(6..10),
    })
}

fn sunset_scene(rng: &mut StdRng) -> Scene {
    let sky = Texture::VerticalGradient {
        top: Rgb(0.85, 0.45 + rng.gen_range(-0.1..0.1), 0.2),
        bottom: Rgb(0.5, 0.15, 0.25),
    };
    let sun = SceneObject::new(
        Shape::Ellipse { rx: 0.6, ry: 0.6 },
        Texture::Solid(Rgb(0.98, 0.7, 0.25)),
        (rng.gen_range(0.35..0.65), rng.gen_range(0.3..0.45)),
        rng.gen_range(0.15..0.3),
    );
    let sea = SceneObject::new(
        Shape::Rect { hx: 1.0, hy: 1.0 },
        Texture::Noise { a: Rgb(0.15, 0.1, 0.3), b: Rgb(0.3, 0.15, 0.3), scale: 5, seed: rng.gen() },
        (0.5, 1.3),
        1.4,
    );
    Scene::new(sky).with(sun).with(sea)
}

fn lawn_scene(rng: &mut StdRng) -> Scene {
    let dog = SceneObject::new(
        Shape::Ellipse { rx: 0.8, ry: 0.55 },
        Texture::Noise { a: Rgb(0.65, 0.5, 0.25), b: Rgb(0.8, 0.65, 0.35), scale: 4, seed: rng.gen() },
        (rng.gen_range(0.3..0.7), rng.gen_range(0.4..0.7)),
        rng.gen_range(0.3..0.55),
    );
    Scene::new(lawn_grass(rng)).with(dog)
}

fn ocean_scene(rng: &mut StdRng) -> Scene {
    let water = Texture::VerticalGradient {
        top: Rgb(0.35, 0.55, 0.85),
        bottom: Rgb(0.1, 0.25, 0.55 + rng.gen_range(-0.1..0.1)),
    };
    let mut scene = Scene::new(water);
    if rng.gen_bool(0.5) {
        // A red sail (the windsurfer of Figure 8(m)).
        scene.objects.push(SceneObject::new(
            Shape::Triangle { half_base: 0.6, height: 1.2 },
            Texture::Solid(Rgb(0.85, 0.15, 0.2)),
            (rng.gen_range(0.3..0.7), rng.gen_range(0.4..0.6)),
            rng.gen_range(0.2..0.4),
        ));
    }
    scene
}

fn abstract_scene(rng: &mut StdRng) -> Scene {
    if rng.gen_bool(0.5) {
        Scene::new(Texture::Checker {
            a: Rgb(rng.gen(), rng.gen(), rng.gen()),
            b: Rgb(rng.gen(), rng.gen(), rng.gen()),
            cell: rng.gen_range(3..9),
        })
    } else {
        Scene::new(Texture::Stripes {
            a: Rgb(rng.gen(), rng.gen(), rng.gen()),
            b: Rgb(rng.gen(), rng.gen(), rng.gen()),
            period: rng.gen_range(4..12),
            duty: rng.gen_range(0.3..0.7),
        })
    }
}

/// Builds the Figure-7/8 style query scenario: one query image plus `n`
/// *relevant* variants that contain the same flower object translated,
/// scaled and mildly color-shifted. Returns `(query, variants)`.
///
/// This is the sharpest test of WALRUS's claim: every variant shares a region
/// with the query up to the transformations the similarity model is supposed
/// to absorb, while global signatures differ substantially.
pub fn flower_query_scenario(
    seed: u64,
    width: usize,
    height: usize,
    n: usize,
) -> Result<(Image, Vec<Image>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let base_flower = SceneObject::new(
        Shape::Flower { petals: 6, core_radius: 0.5, petal_len: 0.95, petal_width: 0.25 },
        Texture::Solid(Rgb(0.85, 0.12, 0.18)),
        (0.45, 0.5),
        0.55,
    );
    let background = foliage(&mut rng);
    let query = Scene::new(background.clone()).with(base_flower.clone()).render(width, height)?;
    let mut variants = Vec::with_capacity(n);
    for _ in 0..n {
        let obj = base_flower
            .translated(rng.gen_range(-0.3..0.3), rng.gen_range(-0.3..0.3))
            .scaled(rng.gen_range(0.6..1.5))
            .color_shifted(rng.gen_range(-0.05..0.05), 0.0, rng.gen_range(-0.03..0.03));
        variants.push(Scene::new(background.clone()).with(obj).render(width, height)?);
    }
    Ok((query, variants))
}

/// Renders a single deterministic "timing" image of the given size: a busy
/// multi-object scene used by the Figure 6 / Table 1 harnesses where pixel
/// content only needs to be non-degenerate.
pub fn timing_image(width: usize, height: usize, seed: u64) -> Result<Image> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scene = flower_scene(&mut rng);
    scene.objects.push(SceneObject::new(
        Shape::Rect { hx: 0.8, hy: 0.4 },
        Texture::Bricks { brick: Rgb(0.6, 0.3, 0.15), mortar: Rgb(0.4, 0.35, 0.3), w: 12, h: 6 },
        (0.7, 0.8),
        0.5,
    ));
    scene.render(width, height)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> DatasetSpec {
        DatasetSpec { images_per_class: 3, width: 48, height: 36, seed: 42, classes: ImageClass::ALL.to_vec() }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticDataset::generate(small_spec()).unwrap();
        let b = SyntheticDataset::generate(small_spec()).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.images.iter().zip(&b.images) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.image, y.image);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticDataset::generate(small_spec()).unwrap();
        let mut spec = small_spec();
        spec.seed = 43;
        let b = SyntheticDataset::generate(spec).unwrap();
        assert!(a.images.iter().zip(&b.images).any(|(x, y)| x.image != y.image));
    }

    #[test]
    fn class_counts_and_ids() {
        let d = SyntheticDataset::generate(small_spec()).unwrap();
        assert_eq!(d.len(), 18);
        assert_eq!(d.of_class(ImageClass::Flowers).count(), 3);
        for (i, img) in d.images.iter().enumerate() {
            assert_eq!(img.id, i);
        }
    }

    #[test]
    fn flower_images_contain_red_over_green() {
        let d = SyntheticDataset::generate(small_spec()).unwrap();
        for img in d.of_class(ImageClass::Flowers) {
            let im = &img.image;
            let r_mean = im.channel(0).mean();
            let g_mean = im.channel(1).mean();
            // Green background with red flowers: both channels present.
            assert!(g_mean > 0.15, "{}: green too weak ({g_mean})", img.name);
            assert!(r_mean > 0.1, "{}: red too weak ({r_mean})", img.name);
        }
    }

    #[test]
    fn query_scenario_shapes() {
        let (query, variants) = flower_query_scenario(7, 64, 48, 5).unwrap();
        assert_eq!(query.width(), 64);
        assert_eq!(variants.len(), 5);
        for v in &variants {
            assert_eq!(v.height(), 48);
            assert_ne!(*v, query, "variant should differ from the query image");
        }
    }

    #[test]
    fn query_scenario_is_deterministic() {
        let (q1, v1) = flower_query_scenario(9, 32, 32, 3).unwrap();
        let (q2, v2) = flower_query_scenario(9, 32, 32, 3).unwrap();
        assert_eq!(q1, q2);
        assert_eq!(v1, v2);
    }

    #[test]
    fn timing_image_nondegenerate() {
        let img = timing_image(64, 64, 1).unwrap();
        // The timing image must have spatial structure, not a flat field.
        assert!(img.channel(0).variance() > 1e-3);
    }
}
