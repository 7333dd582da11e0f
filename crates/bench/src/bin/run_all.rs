#![forbid(unsafe_code)]
//! Runs every table/figure reproduction in sequence (the full Sec. VI
//! evaluation). Equivalent to invoking each `tableN_*`/`figN_*` binary.

use std::process::Command;

fn main() {
    let bins = [
        "table2_bases",
        "fig1_zfp_bases",
        "table3_base_overhead",
        "table4_strict_bound",
        "fig2_compression_ratio",
        "fig3_throughput",
        "fig4_multiprecision",
        "fig5_angle_skew",
        "fig6_parallel",
        // Ablations beyond the paper (design-choice studies from DESIGN.md).
        "ablation_roundoff",
        "ablation_pwr_block",
        "ablation_capacity",
        "ablation_zfp_modes",
        "ablation_signs",
    ];
    let exe = std::env::current_exe().expect("current exe path");
    let dir = exe.parent().expect("bin dir");
    let mut failures = Vec::new();
    for bin in bins {
        println!("\n========================= {bin} =========================\n");
        let status = Command::new(dir.join(bin))
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        if !status.success() {
            failures.push(bin);
        }
    }
    if failures.is_empty() {
        println!("\nall experiments completed");
    } else {
        eprintln!("\nFAILED: {failures:?}");
        std::process::exit(1);
    }
}
