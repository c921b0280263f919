//! Figure 2: area-term ablation — post-detailed-placement area and HPWL
//! with and without the η·Area(v) term in the global placement objective.
//!
//! Paper shape: dropping the area term costs >20% in both area and HPWL.

use analog_netlist::Circuit;
use eplace::{EPlaceA, PlaceOutcome, Placer, PlacerConfig, RunBudget};
use placer_bench::trace::{require_tracing_or_exit, trace_flag, with_trace};
use placer_bench::{paper_circuits, print_row};

/// `--trace[=CIRCUIT]`: one circuit (smallest by default), the ablation's
/// two ePlace-A settings traced into separate files, then exit. The traces
/// carry per-Nesterov-iteration `gp_iter` events (overflow, HPWL, step, λ).
fn traced_run(filter: Option<String>) {
    require_tracing_or_exit();
    let circuits = paper_circuits();
    let circuit = match &filter {
        Some(name) => circuits
            .iter()
            .find(|c| c.name() == name)
            .unwrap_or_else(|| panic!("--trace={name}: no such paper circuit")),
        None => circuits
            .iter()
            .min_by_key(|c| c.num_devices())
            .expect("paper circuits exist"),
    };
    let eta = PlacerConfig::default().global.eta_scale;
    for (placer, eta) in [("eplace_a", eta), ("eplace_a_noarea", 0.0)] {
        let seed = PlacerConfig::default().global.seed;
        let (area, hpwl) = with_trace(circuit.name(), placer, seed, || averaged(circuit, eta));
        println!(
            "{} {placer}: area {area:.1}, hpwl {hpwl:.1}",
            circuit.name()
        );
    }
}

/// 5-seed average with single restarts and structure-preserving DP, so the
/// GP-level area term is what's actually measured.
fn averaged(circuit: &Circuit, eta: f64) -> (f64, f64) {
    let mut area = 0.0;
    let mut hpwl = 0.0;
    let mut ok = 0.0;
    for seed in 1..=5u64 {
        let mut config = PlacerConfig::default();
        config.global.eta_scale = eta;
        config.global.seed = seed;
        config.restarts = 1;
        config.preserve_gp = true;
        if let Ok(PlaceOutcome::Complete(r)) =
            EPlaceA::new(config).place(circuit, &RunBudget::unlimited())
        {
            area += r.area;
            hpwl += r.hpwl;
            ok += 1.0;
        }
    }
    (area / ok, hpwl / ok)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(filter) = trace_flag(&args) {
        traced_run(filter);
        return;
    }
    let widths = [8usize, 10, 12, 9, 10, 12, 9];
    print_row(
        &[
            "Design".into(),
            "Area".into(),
            "Area(η=0)".into(),
            "ratio".into(),
            "HPWL".into(),
            "HPWL(η=0)".into(),
            "ratio".into(),
        ],
        &widths,
    );
    let mut area_ratios = Vec::new();
    let mut hpwl_ratios = Vec::new();
    // Each circuit needs 10 full placements (5 seeds x 2 settings);
    // fan circuits out and print in order.
    let circuits = paper_circuits();
    let pairs = placer_parallel::par_map(circuits.len(), |i| {
        let circuit = &circuits[i];
        (
            averaged(circuit, PlacerConfig::default().global.eta_scale),
            averaged(circuit, 0.0),
        )
    });
    for (circuit, (with_area, without_area)) in circuits.iter().zip(pairs) {
        let ar = without_area.0 / with_area.0;
        let hr = without_area.1 / with_area.1;
        area_ratios.push(ar);
        hpwl_ratios.push(hr);
        print_row(
            &[
                circuit.name().to_string(),
                format!("{:.1}", with_area.0),
                format!("{:.1}", without_area.0),
                format!("{:.2}", ar),
                format!("{:.1}", with_area.1),
                format!("{:.1}", without_area.1),
                format!("{:.2}", hr),
            ],
            &widths,
        );
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "\nmean ratios without/with area term: area {:.2}, HPWL {:.2}",
        mean(&area_ratios),
        mean(&hpwl_ratios)
    );
    println!("(paper: >1.20 on both when the area term is removed)");
}
