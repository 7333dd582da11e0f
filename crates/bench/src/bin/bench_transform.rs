#![forbid(unsafe_code)]
//! Emits `BENCH_transform.json`: f64 base-2 forward + inverse transform
//! throughput for the fast batched kernels vs the scalar libm baseline.
//!
//! The recorded `speedup_fwd_plus_inv` is the acceptance metric for the
//! kernel work (target ≥ 1.5×). Honours `PWREL_SCALE` and writes the JSON
//! next to the current directory so a repo-root invocation lands it at
//! `/BENCH_transform.json`.

use pwrel_bench::{scale_from_env, timed};
use pwrel_core::{transform, Kernel, LogBase};
use pwrel_data::nyx;

#[derive(Clone, Copy)]
struct Phase {
    fwd_s: f64,
    inv_s: f64,
}

/// One timed forward + inverse pass.
fn one_pass(data: &[f64], kernel: Kernel) -> Phase {
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
    Phase { fwd_s, inv_s }
}

/// Best-of-`reps`, with the two kernels interleaved within every rep so
/// frequency drift and scheduler noise land on both sides equally.
fn measure(data: &[f64], reps: usize) -> (Phase, Phase) {
    let mut fast = Phase {
        fwd_s: f64::INFINITY,
        inv_s: f64::INFINITY,
    };
    let mut libm = fast;
    one_pass(data, Kernel::Fast); // warm-up: page in the dataset
    for _ in 0..reps {
        let f = one_pass(data, Kernel::Fast);
        let l = one_pass(data, Kernel::Libm);
        fast.fwd_s = fast.fwd_s.min(f.fwd_s);
        fast.inv_s = fast.inv_s.min(f.inv_s);
        libm.fwd_s = libm.fwd_s.min(l.fwd_s);
        libm.inv_s = libm.inv_s.min(l.inv_s);
    }
    (fast, libm)
}

fn main() {
    let scale = scale_from_env();
    let field = nyx::dark_matter_density(scale);
    let data: Vec<f64> = field.data.iter().map(|&x| x as f64).collect();
    let nbytes = data.len() * 8;
    let reps = 15;

    let (fast, libm) = measure(&data, reps);

    let gibs = |s: f64| nbytes as f64 / s / (1u64 << 30) as f64;
    let speedup = (libm.fwd_s + libm.inv_s) / (fast.fwd_s + fast.inv_s);

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
            "  \"reps\": {},\n",
            "  \"fast\": {{\"forward_s\": {:.6}, \"inverse_s\": {:.6}, ",
            "\"forward_gib_s\": {:.3}, \"inverse_gib_s\": {:.3}}},\n",
            "  \"libm\": {{\"forward_s\": {:.6}, \"inverse_s\": {:.6}, ",
            "\"forward_gib_s\": {:.3}, \"inverse_gib_s\": {:.3}}},\n",
            "  \"speedup_fwd\": {:.3},\n",
            "  \"speedup_inv\": {:.3},\n",
            "  \"speedup_fwd_plus_inv\": {:.3}\n",
            "}}\n",
        ),
        field.name,
        scale,
        data.len(),
        reps,
        fast.fwd_s,
        fast.inv_s,
        gibs(fast.fwd_s),
        gibs(fast.inv_s),
        libm.fwd_s,
        libm.inv_s,
        gibs(libm.fwd_s),
        gibs(libm.inv_s),
        libm.fwd_s / fast.fwd_s,
        libm.inv_s / fast.inv_s,
        speedup,
    );
    print!("{json}");
    std::fs::write("BENCH_transform.json", &json).expect("write BENCH_transform.json");
    eprintln!("wrote BENCH_transform.json (speedup fwd+inv: {speedup:.2}x)");
}
