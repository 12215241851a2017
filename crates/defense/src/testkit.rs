//! Seeded upload rounds for the pairwise-defense equivalence tests.

use fedrec_linalg::{SeededRng, SparseGrad};

/// `n` uploads of dimension `k` over a small, skewed item range, so most
/// pairs share items. Mixed in: empty uploads, all-zero rows, exact
/// duplicates of an earlier upload and scaled copies of one (cosine 1).
pub(crate) fn round(seed: u64, n: usize, k: usize) -> Vec<SparseGrad> {
    let mut rng = SeededRng::new(seed);
    let mut out: Vec<SparseGrad> = Vec::with_capacity(n);
    for _ in 0..n {
        let g = match rng.below(8) {
            0 => SparseGrad::new(k),
            1 if !out.is_empty() => out[rng.below(out.len())].clone(),
            2 if !out.is_empty() => {
                let mut g = out[rng.below(out.len())].clone();
                g.scale(1.0 + rng.uniform());
                g
            }
            3 => {
                let mut g = SparseGrad::new(k);
                g.accumulate(rng.below(4) as u32, 1.0, &vec![0.0; k]);
                g
            }
            _ => {
                let mut g = SparseGrad::new(k);
                for _ in 0..1 + rng.below(10) {
                    let u = rng.uniform();
                    let item = (u * u * 24.0) as u32;
                    let row: Vec<f32> = (0..k).map(|_| rng.normal(0.0, 1.0)).collect();
                    g.accumulate(item, 1.0, &row);
                }
                g
            }
        };
        out.push(g);
    }
    out
}
