//! A placement is a pure function of (input, config, seed): the ILP
//! detailed placer's branch and bound is bounded by node count only, so
//! neither host load nor the placer thread count may change a single bit
//! of ePlace-A's output. VCO1 is the circuit whose MILPs used to stop at a
//! wall-clock cap, which is where load dependence showed.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use analog_netlist::testcases;
use eplace::{EPlaceA, Placer, PlacerConfig, RunBudget};

/// ePlace-A on VCO1, as the exact bits of every coordinate and flip.
fn vco1_bits() -> Vec<u64> {
    let circuit = testcases::vco1();
    let outcome = EPlaceA::new(PlacerConfig::default())
        .place(&circuit, &RunBudget::unlimited())
        .expect("ePlace-A places VCO1");
    let p = &outcome.solution().expect("complete").placement;
    p.positions
        .iter()
        .flat_map(|&(x, y)| [x.to_bits(), y.to_bits()])
        .chain(
            p.flips
                .iter()
                .map(|&(fx, fy)| u64::from(fx) << 1 | u64::from(fy)),
        )
        .collect()
}

#[test]
fn vco1_is_identical_quiet_and_under_load() {
    let quiet = vco1_bits();
    let stop = Arc::new(AtomicBool::new(false));
    let hogs: Vec<_> = (0..2)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut x = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
                }
                x
            })
        })
        .collect();
    let loaded = vco1_bits();
    stop.store(true, Ordering::Relaxed);
    for h in hogs {
        h.join().unwrap();
    }
    assert_eq!(quiet, loaded, "host load changed the VCO1 placement");
}

#[test]
fn vco1_is_identical_across_thread_counts() {
    placer_parallel::set_max_threads(1);
    let one = vco1_bits();
    placer_parallel::set_max_threads(4);
    let four = vco1_bits();
    placer_parallel::set_max_threads(0);
    assert_eq!(one, four, "thread count changed the VCO1 placement");
}

/// The placer crates must not read a clock outside the few sites that
/// are allowed to: the `RunBudget` deadline and the stage timings the
/// placers report. A wall-clock read anywhere else (a time limit in the
/// MILP, the detailed placer, GP or the annealer) would make placements
/// depend on host speed again.
#[test]
fn mathopt_reads_no_clock() {
    const CRATES: [&str; 8] = [
        "core", "sa", "xu19", "numeric", "gnn", "netlist", "simd", "mathopt",
    ];
    const ALLOWED: [&str; 5] = [
        "core/src/budget.rs",
        "core/src/pipeline.rs",
        "core/src/placer.rs",
        "sa/src/pipeline.rs",
        "xu19/src/pipeline.rs",
    ];
    fn sources(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("crate sources") {
            let path = entry.unwrap().path();
            if path.is_dir() {
                sources(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    for name in CRATES {
        sources(&root.join(name).join("src"), &mut files);
    }
    for path in &files {
        let rel = path.strip_prefix(&root).unwrap().to_string_lossy();
        if ALLOWED.iter().any(|a| rel == *a) {
            continue;
        }
        let text = std::fs::read_to_string(path).unwrap();
        for needle in ["Instant", "elapsed()", "SystemTime"] {
            assert!(!text.contains(needle), "{rel} mentions `{needle}`");
        }
    }
    assert!(
        files.len() >= 60,
        "expected the placer crates' sources, found {}",
        files.len()
    );
}
