//! Crash-consistency sweep: exhaustively inject a fault at *every* I/O
//! operation index a workload performs, under every crash mode, and assert
//! that recovery always lands in a committed state — the state after the
//! last operation that returned `Ok`, or (when the in-flight operation's
//! WAL record reached stable storage before the crash) one operation past
//! it. Never anything older, never a panic, never silent corruption.
//!
//! Three sweeps:
//! 1. `Error` / `ShortWrite` at every op of an open+insert+remove+
//!    checkpoint workload × every [`CrashMode`];
//! 2. silent `BitFlip` at every op — recovery must either reject the
//!    store (`Corrupt`) or land in a committed state;
//! 3. faults at every op of *recovery itself* (replaying a WAL with a
//!    torn tail), crash, recover again — still the committed state.
//!
//! Each sweep runs at every worker-thread count of the matrix.

use std::path::Path;
use std::sync::Arc;
use walrus_core::recovery::{DurableDatabase, SNAPSHOT_FILE, WAL_FILE};
use walrus_core::storage::{CrashMode, Fault, FaultIo, FaultKind, ALL_CRASH_MODES};
use walrus_core::{extract_regions, Region, Result, StorageIo, WalrusError, WalrusParams};
use walrus_imagery::synth::scene::{Scene, SceneObject};
use walrus_imagery::synth::shapes::Shape;
use walrus_imagery::synth::texture::{Rgb, Texture};
use walrus_imagery::Image;
use walrus_integration_tests::THREAD_COUNTS;
use walrus_wavelet::SlidingParams;

fn params(threads: usize) -> WalrusParams {
    WalrusParams {
        sliding: SlidingParams { s: 2, omega_min: 8, omega_max: 16, stride: 4 },
        threads,
        ..WalrusParams::paper_defaults()
    }
}

fn scene(hue: f32) -> Image {
    Scene::new(Texture::Solid(Rgb(hue, 0.4, 0.3)))
        .with(SceneObject::new(
            Shape::Ellipse { rx: 0.5, ry: 0.5 },
            Texture::Solid(Rgb(0.9, 0.2, 0.2)),
            (0.5, 0.5),
            0.4,
        ))
        .render(32, 32)
        .unwrap()
}

/// Pre-extracted regions for the four workload images, so each of the
/// hundreds of sweep iterations skips the (deterministic) wavelet work.
struct Fixtures {
    regions: Vec<(&'static str, Vec<Region>)>,
}

impl Fixtures {
    fn new() -> Self {
        let p = params(1);
        let names = ["a", "b", "c", "d"];
        let regions = names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                (*name, extract_regions(&scene(0.15 + 0.2 * i as f32), &p).unwrap())
            })
            .collect();
        Self { regions }
    }

    fn insert(&self, store: &mut DurableDatabase, name: &str) -> Result<()> {
        let regions =
            self.regions.iter().find(|(n, _)| *n == name).expect("fixture").1.clone();
        store.insert_regions(name, 32, 32, regions)?;
        Ok(())
    }
}

/// The workload: each step mutates the store and is a commit point.
/// Returns the step list; `apply(store, k)` runs step `k`.
const STEPS: usize = 6;

fn apply(fx: &Fixtures, store: &mut DurableDatabase, step: usize) -> Result<()> {
    match step {
        0 => fx.insert(store, "a"),
        1 => fx.insert(store, "b"),
        2 => store.remove_image(0),
        3 => store.checkpoint(),
        4 => fx.insert(store, "c"),
        5 => fx.insert(store, "d"),
        _ => unreachable!(),
    }
}

/// Live image names, sorted — the observable state the oracle compares.
fn live_names(store: &DurableDatabase) -> Vec<String> {
    let mut names: Vec<String> =
        store.db().image_slots().iter().flatten().map(|i| i.name.clone()).collect();
    names.sort();
    names
}

/// Runs the workload fault-free and records the state after `k` completed
/// steps, for k = 0..=STEPS.
fn committed_states(fx: &Fixtures, p: WalrusParams) -> Vec<Vec<String>> {
    let io = Arc::new(FaultIo::new());
    let (mut store, _) = DurableDatabase::open_with(io, "db", p).unwrap();
    let mut states = vec![live_names(&store)];
    for step in 0..STEPS {
        apply(fx, &mut store, step).unwrap();
        states.push(live_names(&store));
    }
    states
}

/// Runs open + workload with `fault` armed. Returns `(completed_steps,
/// fault_fired)`; `completed_steps` is `None` if the open itself failed.
fn faulted_run(
    fx: &Fixtures,
    p: WalrusParams,
    io: &Arc<FaultIo>,
    fault: Fault,
) -> (Option<usize>, bool) {
    io.set_fault(Some(fault));
    let opened = DurableDatabase::open_with(io.clone(), "db", p);
    let completed = match opened {
        Err(_) => None,
        Ok((mut store, _)) => {
            let mut done = 0;
            for step in 0..STEPS {
                match apply(fx, &mut store, step) {
                    Ok(()) => done += 1,
                    Err(_) => break,
                }
            }
            Some(done)
        }
    };
    // `op_count` advanced past `at_op` iff the fault actually fired.
    let fired = io.op_count() > fault.at_op || io.is_halted();
    (completed, fired)
}

#[test]
fn every_fault_point_recovers_to_a_committed_state() {
    let fx = Fixtures::new();
    for threads in THREAD_COUNTS {
        every_fault_point_recovers_to_a_committed_state_at(&fx, params(threads));
    }
}

fn every_fault_point_recovers_to_a_committed_state_at(fx: &Fixtures, p: WalrusParams) {
    let states = committed_states(fx, p);
    let mut swept = 0;

    for kind in [FaultKind::Error, FaultKind::ShortWrite] {
        for mode in ALL_CRASH_MODES {
            let mut at_op = 0;
            loop {
                let io = Arc::new(FaultIo::new());
                let (completed, fired) = faulted_run(fx, p, &io, Fault { at_op, kind });
                if !fired {
                    // The workload uses fewer ops than `at_op`: sweep done.
                    assert_eq!(completed, Some(STEPS));
                    break;
                }
                swept += 1;

                // Machine dies; disk contents meet their fate; restart.
                io.crash(mode);
                let (store, _report) = DurableDatabase::open_with(io.clone(), "db", p)
                    .unwrap_or_else(|e| {
                        panic!(
                            "recovery failed ({kind:?} at op {at_op}, {mode:?}, {} thread(s)): {e}",
                            p.threads
                        )
                    });

                let got = live_names(&store);
                let completed = completed.unwrap_or(0);
                let old = &states[completed];
                let new = states.get(completed + 1);
                assert!(
                    got == *old || Some(&got) == new,
                    "{kind:?} at op {at_op}, {mode:?}, {} thread(s): recovered {got:?}, \
                     expected {old:?} or {new:?}",
                    p.threads
                );

                // The recovered store accepts new writes.
                drop(store);
                at_op += 1;
            }
            assert!(at_op > 10, "sweep must cover a real span of ops, got {at_op}");
        }
    }
    // Sanity: the sweep exercised a substantial matrix.
    assert!(swept > 100, "only {swept} fault points swept");
}

#[test]
fn silent_bit_flips_are_detected_or_harmless() {
    let fx = Fixtures::new();
    for threads in THREAD_COUNTS {
        silent_bit_flips_are_detected_or_harmless_at(&fx, params(threads));
    }
}

fn silent_bit_flips_are_detected_or_harmless_at(fx: &Fixtures, p: WalrusParams) {
    let states = committed_states(fx, p);

    let mut at_op = 0;
    loop {
        let io = Arc::new(FaultIo::new());
        let (completed, fired) = faulted_run(fx, p, &io, Fault { at_op, kind: FaultKind::BitFlip });
        if !fired {
            break;
        }
        // BitFlip never halts: the workload itself must have finished
        // (flips corrupt data in flight, they do not fail operations).
        assert_eq!(completed, Some(STEPS), "bit flip at op {at_op} broke the run");

        io.crash(CrashMode::KeepAll);
        match DurableDatabase::open_with(io.clone(), "db", p) {
            Ok((store, _)) => {
                let got = live_names(&store);
                assert!(
                    states.contains(&got),
                    "bit flip at op {at_op}: recovered to uncommitted state {got:?}"
                );
            }
            Err(WalrusError::Corrupt(_)) => {} // detected — the point of the checksums
            Err(other) => panic!("bit flip at op {at_op}: unexpected error {other}"),
        }
        at_op += 1;
    }
    assert!(at_op > 10, "bit-flip sweep ended after only {at_op} ops");
}

#[test]
fn faults_during_recovery_itself_are_survivable() {
    let fx = Fixtures::new();
    for threads in THREAD_COUNTS {
        faults_during_recovery_itself_are_survivable_at(&fx, params(threads));
    }
}

fn faults_during_recovery_itself_are_survivable_at(fx: &Fixtures, p: WalrusParams) {

    // Expected surviving state: snapshot {a} + committed wal record {b}.
    let build = |io: &Arc<FaultIo>| {
        let (mut store, _) = DurableDatabase::open_with(io.clone(), "db", p).unwrap();
        fx.insert(&mut store, "a").unwrap();
        store.checkpoint().unwrap();
        fx.insert(&mut store, "b").unwrap();
        let committed = store.wal_len() as usize;
        drop(store);
        // A torn record trails the log, as a crash mid-append would leave.
        let wal = io.file_bytes(Path::new("db/wal.log")).unwrap();
        let mut torn = wal.clone();
        torn.extend_from_slice(&wal[committed / 2..]);
        io.write(Path::new("db/wal.log"), &torn).unwrap();
        io.fsync(Path::new("db/wal.log")).unwrap();
    };

    for mode in ALL_CRASH_MODES {
        let mut at_op = 0;
        loop {
            let io = Arc::new(FaultIo::new());
            build(&io);
            io.crash(CrashMode::KeepAll); // reset op counter, keep the torn file
            io.set_fault(Some(Fault { at_op, kind: FaultKind::Error }));
            let first = DurableDatabase::open_with(io.clone(), "db", p);
            let fired = io.op_count() > at_op || io.is_halted();

            if let Ok((store, report)) = &first {
                assert_eq!(live_names(store), ["a", "b"]);
                assert!(report.torn_tail_truncated);
                if !fired {
                    break; // recovery used fewer than `at_op` ops: done
                }
            } else {
                // Recovery died mid-repair; crash and recover again, clean.
                io.crash(mode);
                let (store, _) = DurableDatabase::open_with(io.clone(), "db", p)
                    .unwrap_or_else(|e| {
                        panic!("second recovery failed (op {at_op}, {mode:?}): {e}")
                    });
                assert_eq!(
                    live_names(&store),
                    ["a", "b"],
                    "fault at recovery op {at_op}, {mode:?}, {} thread(s)",
                    p.threads
                );
            }
            at_op += 1;
        }
        assert!(at_op >= 3, "recovery sweep too short: {at_op} ops");
    }
}

#[test]
fn snapshot_and_wal_files_have_the_documented_names() {
    // The store layout is part of the public contract (ops tooling relies
    // on it); pin the names.
    let io = Arc::new(FaultIo::new());
    let (mut store, _) = DurableDatabase::open_with(io.clone(), "db", params(1)).unwrap();
    Fixtures::new().insert(&mut store, "a").unwrap();
    assert_eq!(SNAPSHOT_FILE, "snapshot.walrus");
    assert_eq!(WAL_FILE, "wal.log");
    let names = io.file_names();
    assert!(names.contains(&Path::new("db/snapshot.walrus").to_path_buf()));
    assert!(names.contains(&Path::new("db/wal.log").to_path_buf()));
}
