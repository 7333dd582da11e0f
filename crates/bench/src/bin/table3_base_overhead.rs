#![forbid(unsafe_code)]
//! Table III: pre-/post-processing time of the transform under different
//! logarithm bases, once per kernel.
//!
//! Paper finding: base 10 post-processing is slow (no fast `10^x`), base e
//! is fastest forward but slower backward than base 2 — hence base 2. The
//! `Libm` rows run the exact scalar kernels, the paper's setting, and
//! reproduce that ranking. The `Fast` rows run the kernel the codecs
//! ship, which routes every base through `log2`/`exp2` and so flattens it.

use pwrel_bench::{scale_from_env, timed, Table};
use pwrel_core::{transform, Kernel, LogBase};
use pwrel_data::nyx;

fn main() {
    let scale = scale_from_env();
    let fields = [nyx::dark_matter_density(scale), nyx::velocity_x(scale)];
    let bases = [LogBase::Two, LogBase::E, LogBase::Ten];
    let br = 1e-3;
    const REPS: usize = 5;

    println!("Table III: transform (pre/post-processing) time per base, {REPS} reps");
    println!("(dims {} per field, scale {scale:?})\n", fields[0].dims);

    let mut table = Table::new(&[
        "field",
        "kernel",
        "phase",
        "base 2 (s)",
        "base e (s)",
        "base 10 (s)",
    ]);
    for field in &fields {
        for kernel in [Kernel::Libm, Kernel::Fast] {
            let mut pre = Vec::new();
            let mut post = Vec::new();
            for &base in &bases {
                let mut t_pre = 0.0;
                let mut t_post = 0.0;
                let mut sink = 0usize;
                for _ in 0..REPS {
                    let (t, dt) =
                        timed(|| transform::forward(&field.data, base, br, 2.0, kernel).unwrap());
                    t_pre += dt;
                    let (back, dt2) = timed(|| {
                        transform::inverse(
                            &t.mapped,
                            base,
                            t.zero_threshold,
                            t.sign_section.as_deref(),
                            kernel,
                        )
                        .unwrap()
                    });
                    t_post += dt2;
                    sink += back.len();
                }
                assert_eq!(sink, REPS * field.data.len());
                pre.push(t_pre);
                post.push(t_post);
            }
            for (phase, times) in [("pre-processing", &pre), ("post-processing", &post)] {
                table.row(
                    [field.name.clone(), format!("{kernel:?}"), phase.into()]
                        .into_iter()
                        .chain(times.iter().map(|t| format!("{t:.3}")))
                        .collect(),
                );
            }
        }
    }
    table.print();
    println!("\n(paper Table III: base 10 post-processing ~3-4x slower; base 2 chosen)");
}
