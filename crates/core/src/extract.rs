//! Region extraction: image → sliding-window signatures → BIRCH clusters →
//! regions with bitmaps (paper §5.1 steps 1–2).

use crate::params::WalrusParams;
use crate::region::Region;
use crate::{bitmap::RegionBitmap, Result, WalrusError};
use walrus_guard::Guard;
use walrus_imagery::Image;
use walrus_parallel::{resolve_threads, try_parallel_map_guarded};
use walrus_wavelet::sliding;

/// Extracts the regions of `image` under `params`.
///
/// The image is converted to `params.color_space`, swept with the
/// dynamic-programming sliding-window algorithm, and the window signatures
/// are pre-clustered with radius threshold `ε_c`. Each non-empty cluster
/// becomes a [`Region`] whose bitmap marks the pixels covered by the
/// cluster's member windows.
///
/// The number of regions "typically increases with image complexity"
/// (paper §5.3) and decreases with `ε_c` (§6.6) — both verified in tests.
pub fn extract_regions(image: &Image, params: &WalrusParams) -> Result<Vec<Region>> {
    extract_regions_guarded(image, params, &Guard::none())
}

/// [`extract_regions`] under a lifecycle [`Guard`]: the sweep and the
/// clustering poll the guard cooperatively (stopping mid-image on
/// cancellation or deadline expiry), and the request budgets of
/// `params.budgets` are enforced — the pixel budget before any per-window
/// work, the region budget after clustering. Extraction runs on the calling
/// thread; callers fan out across images instead.
pub fn extract_regions_guarded(
    image: &Image,
    params: &WalrusParams,
    guard: &Guard,
) -> Result<Vec<Region>> {
    params.validate()?;
    let pixels = image.width().saturating_mul(image.height());
    if pixels > params.budgets.max_decoded_pixels {
        return Err(WalrusError::BudgetExceeded {
            what: "decoded pixels",
            used: pixels,
            limit: params.budgets.max_decoded_pixels,
        });
    }
    let decode_span = guard.span("decode");
    let converted = image.to_space(params.color_space)?;
    if let Some(s) = &decode_span {
        s.add("pixels", pixels as u64);
        s.add("channels", converted.channels().len() as u64);
    }
    drop(decode_span);

    let wavelet_span = guard.span("wavelet");
    let planes: Vec<&[f32]> = converted.channels().iter().map(|c| c.as_slice()).collect();
    let signatures = sliding::compute_signature_matrix(
        &planes,
        converted.width(),
        converted.height(),
        &params.sliding,
        guard,
    )?;
    if let Some(s) = &wavelet_span {
        s.add("windows", signatures.len() as u64);
    }
    drop(wavelet_span);
    if signatures.is_empty() {
        return Err(WalrusError::Wavelet(walrus_wavelet::WaveletError::ImageTooSmall {
            width: image.width(),
            height: image.height(),
            omega_min: params.sliding.omega_min,
        }));
    }

    let birch_span = guard.span("birch");
    let clustering = walrus_birch::precluster_flat(
        &signatures.coeffs,
        signatures.dims,
        params.cluster_epsilon,
        params.max_regions_per_image,
        guard,
    )?;
    if let Some(s) = &birch_span {
        s.add("clusters", clustering.clusters.len() as u64);
        s.add("cf_splits", clustering.splits as u64);
        s.add("cf_rebuilds", clustering.rebuilds as u64);
        s.add("assign_distances", clustering.assign_distances as u64);
    }
    drop(birch_span);
    if clustering.clusters.len() > params.budgets.max_regions_per_image {
        return Err(WalrusError::BudgetExceeded {
            what: "regions per image",
            used: clustering.clusters.len(),
            limit: params.budgets.max_regions_per_image,
        });
    }

    let mut regions = Vec::with_capacity(clustering.clusters.len());
    for cluster in clustering.clusters {
        let mut bitmap = RegionBitmap::new(image.width(), image.height(), params.bitmap_grid);
        for &m in &cluster.members {
            let (x, y, omega) = signatures.windows[m];
            bitmap.mark_window(x, y, omega, omega);
        }
        regions.push(Region::new(
            cluster.centroid(),
            cluster.bbox_min,
            cluster.bbox_max,
            bitmap,
            cluster.members.len(),
        ));
    }
    Ok(regions)
}

/// The extraction half of a batch ingest: the regions of every image, one
/// worker per image (`params.threads` of them). All-or-nothing: the first
/// failing image (lowest index) or an interrupt fails the whole batch, and
/// one last poll follows the fan-out — a caller that gets `Ok` has not been
/// interrupted and may start mutating. Workers poll the guard's interrupt
/// sources but carry no trace: the `extract` span is opened here, on the
/// orchestrating thread, so the span tree is the same at every thread count.
pub(crate) fn extract_batch_guarded(
    items: &[(&str, &Image)],
    params: &WalrusParams,
    guard: &Guard,
) -> Result<Vec<Vec<Region>>> {
    let extract_span = guard.span("extract");
    let worker_guard = guard.without_trace();
    let threads = resolve_threads(params.threads);
    let extracted: Vec<Vec<Region>> =
        try_parallel_map_guarded(threads, guard, items, |_, (_, image)| {
            extract_regions_guarded(image, params, &worker_guard)
        })?;
    if let Some(s) = &extract_span {
        s.add("regions", extracted.iter().map(Vec::len).sum::<usize>() as u64);
    }
    drop(extract_span);
    guard.poll()?;
    Ok(extracted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use walrus_imagery::synth::scene::{Scene, SceneObject};
    use walrus_imagery::synth::shapes::Shape;
    use walrus_imagery::synth::texture::{Rgb, Texture};
    use walrus_imagery::ColorSpace;

    fn small_params() -> WalrusParams {
        WalrusParams {
            sliding: walrus_wavelet::SlidingParams { s: 2, omega_min: 8, omega_max: 16, stride: 4 },
            ..WalrusParams::paper_defaults()
        }
    }

    fn two_tone_image() -> Image {
        // Left half red, right half blue: two clearly separable regions.
        Scene::new(Texture::Solid(Rgb(0.9, 0.1, 0.1)))
            .with(SceneObject::new(
                Shape::Rect { hx: 1.0, hy: 1.0 },
                Texture::Solid(Rgb(0.1, 0.1, 0.9)),
                (0.75, 0.5),
                0.55,
            ))
            .render(64, 64)
            .unwrap()
    }

    #[test]
    fn uniform_image_yields_one_region() {
        let img = Image::from_fn(64, 64, ColorSpace::Rgb, |_, _, _| 0.5).unwrap();
        let regions = extract_regions(&img, &small_params()).unwrap();
        assert_eq!(regions.len(), 1);
        // The single region covers the whole image.
        assert_eq!(regions[0].area(), 64 * 64);
        assert!(regions[0].window_count > 0);
    }

    #[test]
    fn two_tone_image_yields_multiple_regions() {
        let regions = extract_regions(&two_tone_image(), &small_params()).unwrap();
        assert!(regions.len() >= 2, "expected >= 2 regions, got {}", regions.len());
        // Every region has a sane signature and non-empty bitmap.
        for r in &regions {
            assert_eq!(r.dims(), 12);
            assert!(!r.bitmap.is_empty());
            assert!(r.window_count >= 1);
            for d in 0..r.dims() {
                assert!(r.bbox_min[d] <= r.centroid[d] + 1e-6);
                assert!(r.centroid[d] <= r.bbox_max[d] + 1e-6);
            }
        }
    }

    #[test]
    fn window_counts_conserve_total() {
        let params = small_params();
        let img = two_tone_image();
        let regions = extract_regions(&img, &params).unwrap();
        let total: usize = regions.iter().map(|r| r.window_count).sum();
        assert_eq!(total, params.sliding.total_windows(64, 64));
    }

    #[test]
    fn regions_decrease_with_cluster_epsilon() {
        // §6.6's monotone trend.
        let img = two_tone_image();
        let mut tight = small_params();
        tight.cluster_epsilon = 0.01;
        let mut loose = small_params();
        loose.cluster_epsilon = 0.5;
        let n_tight = extract_regions(&img, &tight).unwrap().len();
        let n_loose = extract_regions(&img, &loose).unwrap().len();
        assert!(
            n_tight >= n_loose,
            "tight ε_c gave {n_tight} regions, loose gave {n_loose}"
        );
        assert_eq!(n_loose, 1, "ε_c = 0.5 should merge everything");
    }

    #[test]
    fn max_regions_budget_respected() {
        let img = two_tone_image();
        let mut p = small_params();
        p.cluster_epsilon = 0.0; // would explode without a budget
        p.max_regions_per_image = Some(8);
        let regions = extract_regions(&img, &p).unwrap();
        assert!(regions.len() <= 8, "got {} regions", regions.len());
    }

    #[test]
    fn too_small_image_rejected() {
        let img = Image::zeros(4, 4, ColorSpace::Rgb).unwrap();
        assert!(extract_regions(&img, &small_params()).is_err());
    }

    #[test]
    fn extraction_is_deterministic() {
        let img = two_tone_image();
        let a = extract_regions(&img, &small_params()).unwrap();
        let b = extract_regions(&img, &small_params()).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.centroid, y.centroid);
            assert_eq!(x.bitmap, y.bitmap);
        }
    }

    #[test]
    fn pixel_budget_enforced_before_extraction() {
        let img = two_tone_image();
        let mut p = small_params();
        p.budgets.max_decoded_pixels = 64 * 64 - 1;
        match extract_regions(&img, &p) {
            Err(WalrusError::BudgetExceeded { what, used, limit }) => {
                assert_eq!(what, "decoded pixels");
                assert_eq!(used, 64 * 64);
                assert_eq!(limit, 64 * 64 - 1);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        p.budgets.max_decoded_pixels = 64 * 64;
        extract_regions(&img, &p).unwrap();
    }

    #[test]
    fn region_budget_enforced_after_clustering() {
        let img = two_tone_image();
        let mut p = small_params();
        let n = extract_regions(&img, &p).unwrap().len();
        assert!(n >= 2);
        p.budgets.max_regions_per_image = n - 1;
        match extract_regions(&img, &p) {
            Err(WalrusError::BudgetExceeded { what, used, limit }) => {
                assert_eq!(what, "regions per image");
                assert_eq!(used, n);
                assert_eq!(limit, n - 1);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn guarded_extraction_matches_and_interrupts() {
        let img = two_tone_image();
        let p = small_params();
        let plain = extract_regions(&img, &p).unwrap();
        let guarded = extract_regions_guarded(&img, &p, &Guard::none()).unwrap();
        assert_eq!(plain.len(), guarded.len());
        for (a, b) in plain.iter().zip(&guarded) {
            assert_eq!(a.centroid, b.centroid);
            assert_eq!(a.bitmap, b.bitmap);
        }

        // A pre-tripped cancel token stops extraction with the interrupt
        // surfaced as the core-level error, not a wrapped wavelet error.
        let token = walrus_guard::CancelToken::new();
        token.cancel();
        let guard = Guard::with_token(token);
        match extract_regions_guarded(&img, &p, &guard) {
            Err(WalrusError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn union_of_region_bitmaps_covers_image() {
        // Every window lands in some cluster, and windows tile the image
        // (stride ≤ ω), so the union of region bitmaps is full coverage.
        let img = two_tone_image();
        let regions = extract_regions(&img, &small_params()).unwrap();
        let mut acc = RegionBitmap::new(64, 64, 16);
        for r in &regions {
            acc.union_in_place(&r.bitmap);
        }
        assert_eq!(acc.area(), 64 * 64);
    }
}
