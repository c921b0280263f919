//! Table VII: area, wirelength and runtime among the three
//! performance-driven methods (perf-SA \[19\], Perf* extension of \[11\],
//! ePlace-AP).
//!
//! Paper shape: ePlace-AP smaller area than perf-SA (≈1.09×) and ≈3×
//! faster; the \[11\] extension is worse on both area and HPWL; the runtime
//! advantage of analytical methods shrinks versus the conventional case
//! because the GNN gradient dominates.

use placer_bench::{
    geomean_ratio, paper_circuits, print_row, run_placer, run_sa_perf, run_xu19_perf, train_model,
};

fn main() {
    let widths = [8usize, 9, 9, 9, 9, 9, 9, 9, 9, 9];
    print_row(
        &[
            "Design".into(),
            "SA area".into(),
            "SA hpwl".into(),
            "SA s".into(),
            "[11]area".into(),
            "[11]hpwl".into(),
            "[11] s".into(),
            "AP area".into(),
            "AP hpwl".into(),
            "AP s".into(),
        ],
        &widths,
    );
    let mut sa = (Vec::new(), Vec::new(), Vec::new());
    let mut xu = (Vec::new(), Vec::new(), Vec::new());
    let mut ap = (Vec::new(), Vec::new(), Vec::new());
    // Per-circuit training and the three perf-driven runs fan out in
    // parallel; rows still print in the paper's order.
    let circuits = paper_circuits();
    let runs = placer_parallel::par_map(circuits.len(), |i| {
        let circuit = &circuits[i];
        let model = train_model(circuit);
        (
            run_sa_perf(circuit, &model),
            run_xu19_perf(circuit, &model),
            run_placer(&model.eplace_ap(), circuit),
        )
    });
    for (circuit, (s, x, a)) in circuits.iter().zip(runs) {
        print_row(
            &[
                circuit.name().to_string(),
                format!("{:.1}", s.area),
                format!("{:.1}", s.hpwl),
                format!("{:.2}", s.seconds),
                format!("{:.1}", x.area),
                format!("{:.1}", x.hpwl),
                format!("{:.2}", x.seconds),
                format!("{:.1}", a.area),
                format!("{:.1}", a.hpwl),
                format!("{:.2}", a.seconds),
            ],
            &widths,
        );
        sa.0.push(s.area);
        sa.1.push(s.hpwl);
        sa.2.push(s.seconds.max(1e-4));
        xu.0.push(x.area);
        xu.1.push(x.hpwl);
        xu.2.push(x.seconds.max(1e-4));
        ap.0.push(a.area);
        ap.1.push(a.hpwl);
        ap.2.push(a.seconds.max(1e-4));
    }
    println!();
    print_row(
        &[
            "Avg(X)".into(),
            format!("{:.2}", geomean_ratio(&sa.0, &ap.0)),
            format!("{:.2}", geomean_ratio(&sa.1, &ap.1)),
            format!("{:.2}", geomean_ratio(&sa.2, &ap.2)),
            format!("{:.2}", geomean_ratio(&xu.0, &ap.0)),
            format!("{:.2}", geomean_ratio(&xu.1, &ap.1)),
            format!("{:.2}", geomean_ratio(&xu.2, &ap.2)),
            "1.00".into(),
            "1.00".into(),
            "1.00".into(),
        ],
        &widths,
    );
    println!("\n(paper: SA 1.09/1.02/3.09 vs AP; [11] ext 1.14/1.13/1.01)");
}
