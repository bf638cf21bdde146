//! "Same regions" as a tier-1 fact: region extraction over seeded synthetic
//! scenes is pinned to constants captured by running this same test at the
//! commit before the sweep wrote a flat signature matrix and the CF-tree
//! became an arena (fe92441, per-window `Vec`s and a boxed tree). Any change
//! to an f32/f64 operation, its operand order or a tie rule anywhere between
//! the DP sweep and the region bitmaps moves at least one of these numbers.

use walrus_core::{extract_regions, WalrusParams};
use walrus_imagery::synth::{DatasetSpec, ImageClass, SyntheticDataset};
use walrus_imagery::Image;
use walrus_wavelet::sliding::compute_signatures_with_threads;

/// What one scene set extracts to, summed over its images.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    regions: usize,
    window_count: usize,
    clusters: usize,
    splits: usize,
    rebuilds: usize,
    /// FNV-1a over every region's centroid / bounding-box bits, bitmap words
    /// and window count, in extraction order.
    fnv: u64,
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn scenes(width: usize, height: usize, per_class: usize, classes: &[ImageClass]) -> Vec<Image> {
    let spec = DatasetSpec {
        images_per_class: per_class,
        width,
        height,
        seed: 0x00E1_6E16,
        classes: classes.to_vec(),
    };
    SyntheticDataset::generate(spec).unwrap().images.into_iter().map(|l| l.image).collect()
}

fn measure(images: &[Image], params: &WalrusParams) -> Pin {
    let mut pin =
        Pin { regions: 0, window_count: 0, clusters: 0, splits: 0, rebuilds: 0, fnv: 0xcbf2_9ce4_8422_2325 };
    for image in images {
        let regions = extract_regions(image, params).unwrap();
        pin.regions += regions.len();
        for r in &regions {
            pin.window_count += r.window_count;
            for v in r.centroid.iter().chain(&r.bbox_min).chain(&r.bbox_max) {
                fnv1a(&mut pin.fnv, &v.to_bits().to_le_bytes());
            }
            for w in r.bitmap.words() {
                fnv1a(&mut pin.fnv, &w.to_le_bytes());
            }
            fnv1a(&mut pin.fnv, &(r.window_count as u64).to_le_bytes());
        }

        // The tree's own counters, through the public two-step path.
        let converted = image.to_space(params.color_space).unwrap();
        let planes: Vec<&[f32]> = converted.channels().iter().map(|c| c.as_slice()).collect();
        let signatures = compute_signatures_with_threads(
            &planes,
            converted.width(),
            converted.height(),
            &params.sliding,
            1,
        )
        .unwrap();
        let points: Vec<Vec<f32>> = signatures.iter().map(|s| s.coeffs.clone()).collect();
        let clustering =
            walrus_birch::precluster(&points, params.cluster_epsilon, params.max_regions_per_image)
                .unwrap();
        assert_eq!(clustering.clusters.len(), regions.len());
        pin.clusters += clustering.clusters.len();
        pin.splits += clustering.splits;
        pin.rebuilds += clustering.rebuilds;
    }
    pin
}

#[test]
fn six_classes_at_128x96_are_pinned() {
    let images = scenes(128, 96, 2, &ImageClass::ALL);
    let got = measure(&images, &WalrusParams::small_image_defaults());
    assert_eq!(got.window_count, 12 * 1747);
    assert_eq!(
        got,
        Pin {
            regions: 315,
            window_count: 20964,
            clusters: 315,
            splits: 53,
            rebuilds: 0,
            fnv: 4_578_867_545_792_241_400,
        }
    );
}

#[test]
fn non_dividing_geometry_is_pinned() {
    // 100×75: the last window of a row/column stops short of the edge and
    // the bitmap grid does not divide the image.
    let images = scenes(100, 75, 1, &[ImageClass::Flowers, ImageClass::Sunset]);
    let got = measure(&images, &WalrusParams::small_image_defaults());
    assert_eq!(
        got,
        Pin {
            regions: 120,
            window_count: 1872,
            clusters: 120,
            splits: 20,
            rebuilds: 0,
            fnv: 3_786_132_057_751_633_074,
        }
    );
}

#[test]
fn rebuild_path_is_pinned() {
    // A cluster budget of 8 forces threshold escalation + reinsertion of
    // weighted CFs — the path the benchmark never enters.
    let images = scenes(128, 96, 1, &ImageClass::ALL);
    let params = WalrusParams {
        max_regions_per_image: Some(8),
        ..WalrusParams::small_image_defaults()
    };
    let got = measure(&images, &params);
    assert!(got.rebuilds > 0, "the budget must force at least one rebuild");
    assert_eq!(
        got,
        Pin {
            regions: 10,
            window_count: 10482,
            clusters: 10,
            splits: 3,
            rebuilds: 3,
            fnv: 16_881_209_274_928_169_325,
        }
    );
}
