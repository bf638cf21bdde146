//! Failure-injection and edge-case tests across the workspace: degenerate
//! inputs, hostile parameters, and boundary geometry must produce clean
//! errors or sensible no-ops — never panics or corrupt state. Every case
//! that builds a database runs at each worker-thread count of the matrix.

use walrus_core::{ImageDatabase, WalrusError, WalrusParams};
use walrus_imagery::synth::scene::Scene;
use walrus_imagery::synth::texture::{Rgb, Texture};
use walrus_imagery::{ColorSpace, Image};
use walrus_integration_tests::THREAD_COUNTS;
use walrus_wavelet::SlidingParams;

fn tiny_params(threads: usize) -> WalrusParams {
    WalrusParams {
        sliding: SlidingParams { s: 2, omega_min: 8, omega_max: 16, stride: 4 },
        threads,
        ..WalrusParams::paper_defaults()
    }
}

fn flat_image(w: usize, h: usize) -> Image {
    Scene::new(Texture::Solid(Rgb(0.5, 0.5, 0.5))).render(w, h).unwrap()
}

#[test]
fn image_smaller_than_window_is_a_clean_error() {
    for threads in THREAD_COUNTS {
        let mut db = ImageDatabase::new(tiny_params(threads)).unwrap();
        let tiny = flat_image(4, 4);
        match db.insert_image("tiny", &tiny) {
            Err(WalrusError::Wavelet(walrus_wavelet::WaveletError::ImageTooSmall { .. })) => {}
            other => panic!("expected ImageTooSmall, got {other:?}"),
        }
        // The failed insertion must not leave partial state behind.
        assert_eq!(db.len(), 0);
        assert_eq!(db.num_regions(), 0);
    }
}

#[test]
fn image_exactly_window_sized_works() {
    for threads in THREAD_COUNTS {
        let mut db = ImageDatabase::new(tiny_params(threads)).unwrap();
        let exact = flat_image(16, 16);
        db.insert_image("exact", &exact).unwrap();
        let top = db.top_k(&exact, 1).unwrap();
        assert_eq!(top[0].name, "exact");
        assert!(top[0].similarity > 0.99);
    }
}

#[test]
fn flat_images_cluster_to_one_region_and_match_each_other() {
    for threads in THREAD_COUNTS {
        let mut db = ImageDatabase::new(tiny_params(threads)).unwrap();
        db.insert_image("flat1", &flat_image(64, 64)).unwrap();
        let img = db.image(0).unwrap();
        assert_eq!(img.regions.len(), 1, "a constant image is one region");
        let out = db.query(&flat_image(64, 64)).unwrap();
        assert_eq!(out.matches.len(), 1);
        assert!(out.matches[0].similarity > 0.99);
    }
}

#[test]
fn enormous_epsilon_matches_everything_but_stays_bounded() {
    for threads in THREAD_COUNTS {
        let mut db = ImageDatabase::new(tiny_params(threads)).unwrap();
        db.insert_image("a", &flat_image(64, 64)).unwrap();
        let red = Scene::new(Texture::Solid(Rgb(0.9, 0.1, 0.1))).render(64, 64).unwrap();
        db.insert_image("b", &red).unwrap();
        let out = db.query_with_epsilon(&flat_image(64, 64), 1e6).unwrap();
        assert_eq!(out.stats.distinct_images, 2);
        for m in &out.matches {
            assert!((0.0..=1.0).contains(&m.similarity));
        }
    }
}

#[test]
fn zero_epsilon_still_matches_identical_images() {
    for threads in THREAD_COUNTS {
        let mut db = ImageDatabase::new(tiny_params(threads)).unwrap();
        let img = flat_image(64, 64);
        db.insert_image("same", &img).unwrap();
        let out = db.query_with_epsilon(&img, 0.0).unwrap();
        assert_eq!(out.stats.distinct_images, 1);
    }
}

#[test]
fn invalid_query_epsilon_rejected() {
    for threads in THREAD_COUNTS {
        let mut db = ImageDatabase::new(tiny_params(threads)).unwrap();
        db.insert_image("a", &flat_image(64, 64)).unwrap();
        assert!(db.query_with_epsilon(&flat_image(64, 64), f32::NAN).is_err());
        assert!(db.query_with_epsilon(&flat_image(64, 64), -0.1).is_err());
    }
}

#[test]
fn invalid_params_rejected_at_construction() {
    for threads in THREAD_COUNTS {
        let mut p = tiny_params(threads);
        p.sliding.stride = 3; // not a power of two
        assert!(ImageDatabase::new(p).is_err());
        let mut p = tiny_params(threads);
        p.cluster_epsilon = f64::INFINITY;
        assert!(ImageDatabase::new(p).is_err());
    }
}

#[test]
fn non_square_and_odd_sized_images_are_fine() {
    for threads in THREAD_COUNTS {
        // The paper's images are 85×128 etc. — odd sizes must work (windows
        // just don't reach the last pixels).
        let mut db = ImageDatabase::new(tiny_params(threads)).unwrap();
        for (w, h) in [(85usize, 128usize), (128, 85), (97, 33)] {
            let img = flat_image(w, h);
            db.insert_image(&format!("{w}x{h}"), &img).unwrap();
        }
        assert_eq!(db.len(), 3);
        let out = db.query(&flat_image(85, 128)).unwrap();
        assert!(!out.matches.is_empty());
    }
}

#[test]
fn ppm_codec_survives_hostile_inputs() {
    use walrus_imagery::ppm::parse_netpbm;
    for bytes in [
        &b"P6"[..],
        &b"P6\n-1 5\n255\n"[..],
        &b"P6\n99999999999999999999 1\n255\n"[..],
        &b"P3\n1 1\n0\n0 0 0"[..],
        &b"P5\n2 2\n255\nab"[..], // truncated
        &[0xFF, 0xFE, 0x00][..],
    ] {
        assert!(parse_netpbm(bytes).is_err(), "should reject {bytes:?}");
    }
}

#[test]
fn gray_database_rejects_nothing_but_reduces_dims() {
    for threads in THREAD_COUNTS {
        let mut p = tiny_params(threads);
        p.color_space = ColorSpace::Gray;
        let mut db = ImageDatabase::new(p).unwrap();
        db.insert_image("g", &flat_image(32, 32)).unwrap();
        assert_eq!(db.params().signature_dims(), 4);
        let out = db.query(&flat_image(32, 32)).unwrap();
        assert_eq!(out.matches.len(), 1);
    }
}

#[test]
fn unknown_image_operations_error_cleanly() {
    for threads in THREAD_COUNTS {
        let mut db = ImageDatabase::new(tiny_params(threads)).unwrap();
        assert!(matches!(db.remove_image(0), Err(WalrusError::UnknownImage(0))));
        assert!(db.image(42).is_none());
    }
}

#[test]
fn many_identical_images_do_not_break_ranking() {
    for threads in THREAD_COUNTS {
        let mut db = ImageDatabase::new(tiny_params(threads)).unwrap();
        let img = flat_image(64, 64);
        for i in 0..20 {
            db.insert_image(&format!("dup{i}"), &img).unwrap();
        }
        let top = db.top_k(&img, 20).unwrap();
        assert_eq!(top.len(), 20);
        // All tie at full similarity; ordering must be deterministic (by id).
        for (i, r) in top.iter().enumerate() {
            assert!(r.similarity > 0.99);
            assert_eq!(r.image_id, i);
        }
    }
}
