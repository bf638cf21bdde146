//! Retrieval quality as exact numbers. WALRUS (serving parameters) and the
//! WBIIS baseline rank one 224-image corpus, and `walrus_baselines::eval`
//! scores the rankings on two tasks:
//!
//! * the *class* task: one query per class, drawn from `SyntheticDataset`
//!   seed 77; relevant means the query's class (the instance variants below
//!   are flowers). MAP and P@10.
//! * the *instance* task: the query of `flower_query_scenario(1000 + j, ..)`,
//!   j in 0..8; relevant means that query's own four variants — the same
//!   flower translated, scaled and colour-shifted on the same foliage. MAP
//!   and P@4.
//!
//! The corpus is seven groups of 32 images at 128×96, interleaved so that
//! image `i` belongs to group `i % 7`: the six classes of `SyntheticDataset`
//! seed 1, then the 32 instance variants in query order. WALRUS orders
//! images of equal similarity by id, so spreading the groups keeps that tie
//! order from favouring any one of them.
//!
//! Bit-identity across threads, shards and the cache is pinned elsewhere;
//! these pins say how *good* the answers are.

use std::sync::OnceLock;
use walrus_baselines::eval::{mean_average_precision, precision_at_k};
use walrus_baselines::{Retriever, WbiisRetriever};
use walrus_core::{ImageDatabase, WalrusParams};
use walrus_imagery::synth::dataset::flower_query_scenario;
use walrus_imagery::synth::{DatasetSpec, ImageClass, SyntheticDataset};
use walrus_imagery::Image;

const WIDTH: usize = 128;
const HEIGHT: usize = 96;
const PER_GROUP: usize = 32;
const INSTANCES: usize = 8;
const VARIANTS: usize = 4;

/// One corpus image and the labels both tasks judge it by.
struct Entry {
    image: Image,
    class: ImageClass,
    /// The instance query whose variant this is.
    instance: Option<usize>,
}

struct Corpus {
    entries: Vec<Entry>,
    /// The class task's queries, one per class.
    class_queries: Vec<(ImageClass, Image)>,
    /// The instance task's queries, in `j` order.
    instance_queries: Vec<Image>,
}

fn dataset(seed: u64, per_class: usize) -> Vec<Entry> {
    let spec = DatasetSpec {
        images_per_class: per_class,
        width: WIDTH,
        height: HEIGHT,
        seed,
        classes: ImageClass::ALL.to_vec(),
    };
    let images = SyntheticDataset::generate(spec).unwrap().images;
    images.into_iter().map(|l| Entry { image: l.image, class: l.class, instance: None }).collect()
}

/// The corpus, built once for both systems.
fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        // `generate` writes its images class by class: six groups.
        let mut seeded = dataset(1, PER_GROUP).into_iter();
        let mut groups: Vec<Vec<Entry>> =
            ImageClass::ALL.iter().map(|_| seeded.by_ref().take(PER_GROUP).collect()).collect();
        let (mut instance_queries, mut variants) = (Vec::new(), Vec::new());
        for j in 0..INSTANCES {
            let (query, images) =
                flower_query_scenario(1000 + j as u64, WIDTH, HEIGHT, VARIANTS).unwrap();
            instance_queries.push(query);
            variants.extend(images.into_iter().map(|image| Entry {
                image,
                class: ImageClass::Flowers,
                instance: Some(j),
            }));
        }
        groups.push(variants);
        let mut groups: Vec<_> = groups.into_iter().map(Vec::into_iter).collect();
        let count = groups.len();
        let entries = (0..count * PER_GROUP).map(|i| groups[i % count].next().unwrap()).collect();
        let class_queries = dataset(77, 1).into_iter().map(|e| (e.class, e.image)).collect();
        Corpus { entries, class_queries, instance_queries }
    })
}

/// Mean AP and mean P@k of `rank` over `queries`, each paired with its
/// relevance predicate.
fn score<'a>(
    queries: impl Iterator<Item = (&'a Image, Box<dyn Fn(&Entry) -> bool + 'a>)>,
    k: usize,
    rank: &dyn Fn(&Image) -> Vec<usize>,
) -> (f64, f64) {
    let entries = &corpus().entries;
    let (queries, relevant): (Vec<_>, Vec<_>) = queries.unzip();
    let runs: Vec<(Vec<usize>, usize)> = queries
        .iter()
        .zip(&relevant)
        .map(|(query, relevant)| (rank(query), entries.iter().filter(|e| relevant(e)).count()))
        .collect();
    let is_relevant = |run: usize, id: usize| relevant[run](&entries[id]);
    let precision: f64 = runs
        .iter()
        .enumerate()
        .map(|(run, (ranked, _))| precision_at_k(ranked, |id| is_relevant(run, id), k))
        .sum();
    (mean_average_precision(&runs, is_relevant), precision / runs.len() as f64)
}

/// `[class MAP, class P@10, instance MAP, instance P@4]` of one system,
/// given how it ranks the whole corpus (ids are corpus positions).
fn both_tasks(rank: &dyn Fn(&Image) -> Vec<usize>) -> [f64; 4] {
    let corpus = corpus();
    let class = corpus.class_queries.iter().map(|(class, query)| {
        let class = *class;
        let relevant: Box<dyn Fn(&Entry) -> bool> = Box::new(move |e| e.class == class);
        (query, relevant)
    });
    let (class_map, class_p) = score(class, 10, rank);
    let instance = corpus.instance_queries.iter().enumerate().map(|(j, query)| {
        let relevant: Box<dyn Fn(&Entry) -> bool> = Box::new(move |e| e.instance == Some(j));
        (query, relevant)
    });
    let (instance_map, instance_p) = score(instance, VARIANTS, rank);
    [class_map, class_p, instance_map, instance_p]
}

#[test]
fn walrus_quality_is_pinned() {
    let entries = &corpus().entries;
    let mut db = ImageDatabase::new(WalrusParams::small_image_defaults()).unwrap();
    for (i, entry) in entries.iter().enumerate() {
        assert_eq!(db.insert_image(&format!("c{i}"), &entry.image).unwrap(), i);
    }
    let got = both_tasks(&|q| {
        db.top_k(q, entries.len()).unwrap().into_iter().map(|r| r.image_id).collect()
    });
    // A change that moves a rank re-pins these and says why in CHANGES.md.
    assert_eq!(got, [0.821486122474082, 1.0, 0.22396206702113622, 0.125]);
}

#[test]
fn wbiis_quality_is_pinned() {
    let entries = &corpus().entries;
    let mut wbiis = WbiisRetriever::new();
    for (i, entry) in entries.iter().enumerate() {
        assert_eq!(wbiis.insert(&format!("c{i}"), &entry.image).unwrap(), i);
    }
    let got =
        both_tasks(&|q| wbiis.top_k(q, entries.len()).unwrap().into_iter().map(|r| r.id).collect());
    // A change that moves a rank re-pins these and says why in CHANGES.md.
    assert_eq!(got, [0.8330277658109594, 0.9, 0.22896468991790386, 0.1875]);
}
