#![forbid(unsafe_code)]
//! Emits `BENCH_transform.json`: f64 base-2 forward + inverse transform
//! throughput for the fast batched kernels vs the scalar libm baseline.
//!
//! The recorded `speedup_fwd_plus_inv` is the acceptance metric for the
//! kernel work (target ≥ 1.5×). Every timing is reported as the best rep
//! (`*_s`, which the speedups use) and the median rep (`*_median_s`),
//! beside the host's core count. Honours `PWREL_SCALE` and writes the
//! JSON next to the current directory so a repo-root invocation lands it
//! at `/BENCH_transform.json`.

use pwrel_bench::{scale_from_env, timed, Reps};
use pwrel_core::{transform, Kernel, LogBase};
use pwrel_data::nyx;

/// One kernel's per-rep forward and inverse seconds.
#[derive(Default)]
struct Phase {
    fwd: Reps,
    inv: Reps,
}

/// One timed forward + inverse pass, recorded into `phase`.
fn one_pass(data: &[f64], kernel: Kernel, phase: &mut Phase) {
    let base = LogBase::Two;
    let br = 1e-3;
    let (t, fwd_s) = timed(|| transform::forward(data, base, br, 2.0, kernel).unwrap());
    let (back, inv_s) = timed(|| {
        transform::inverse(
            &t.mapped,
            base,
            t.zero_threshold,
            t.sign_section.as_deref(),
            kernel,
        )
        .unwrap()
    });
    assert_eq!(back.len(), data.len());
    phase.fwd.push(fwd_s);
    phase.inv.push(inv_s);
}

/// `reps` passes per kernel, with the two kernels interleaved within
/// every rep so frequency drift and scheduler noise land on both sides
/// equally.
fn measure(data: &[f64], reps: usize) -> (Phase, Phase) {
    let mut fast = Phase::default();
    let mut libm = Phase::default();
    one_pass(data, Kernel::Fast, &mut Phase::default()); // warm-up: page in the dataset
    for _ in 0..reps {
        one_pass(data, Kernel::Fast, &mut fast);
        one_pass(data, Kernel::Libm, &mut libm);
    }
    (fast, libm)
}

fn main() {
    let scale = scale_from_env();
    let field = nyx::dark_matter_density(scale);
    let data: Vec<f64> = field.data.iter().map(|&x| x as f64).collect();
    let nbytes = data.len() * 8;
    let reps = 15;
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    let (fast, libm) = measure(&data, reps);

    let gibs = |s: f64| nbytes as f64 / s / (1u64 << 30) as f64;
    let speedup = (libm.fwd.best() + libm.inv.best()) / (fast.fwd.best() + fast.inv.best());
    let kernel_json = |p: &Phase| {
        format!(
            concat!(
                "{{\"forward_s\": {:.6}, \"forward_median_s\": {:.6}, ",
                "\"inverse_s\": {:.6}, \"inverse_median_s\": {:.6}, ",
                "\"forward_gib_s\": {:.3}, \"inverse_gib_s\": {:.3}}}",
            ),
            p.fwd.best(),
            p.fwd.median(),
            p.inv.best(),
            p.inv.median(),
            gibs(p.fwd.best()),
            gibs(p.inv.best()),
        )
    };

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"transform_kernels\",\n",
            "  \"dataset\": \"{}\",\n",
            "  \"scale\": \"{:?}\",\n",
            "  \"elements\": {},\n",
            "  \"dtype\": \"f64\",\n",
            "  \"base\": \"Two\",\n",
            "  \"rel_bound\": 1e-3,\n",
            "  \"host_cpus\": {},\n",
            "  \"reps\": {},\n",
            "  \"fast\": {},\n",
            "  \"libm\": {},\n",
            "  \"speedup_fwd\": {:.3},\n",
            "  \"speedup_inv\": {:.3},\n",
            "  \"speedup_fwd_plus_inv\": {:.3}\n",
            "}}\n",
        ),
        field.name,
        scale,
        data.len(),
        host_cpus,
        reps,
        kernel_json(&fast),
        kernel_json(&libm),
        libm.fwd.best() / fast.fwd.best(),
        libm.inv.best() / fast.inv.best(),
        speedup,
    );
    print!("{json}");
    std::fs::write("BENCH_transform.json", &json).expect("write BENCH_transform.json");
    eprintln!("wrote BENCH_transform.json (speedup fwd+inv: {speedup:.2}x)");
}
