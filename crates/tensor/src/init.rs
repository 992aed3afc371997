//! Weight initialization schemes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::matrix::Matrix;

/// Deterministic RNG for reproducible experiments.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Uniform in `[-bound, bound]`.
pub fn uniform(rng: &mut StdRng, rows: usize, cols: usize, bound: f32) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-bound..=bound))
}

/// Xavier/Glorot uniform: `bound = sqrt(6 / (fan_in + fan_out))`.
pub fn xavier(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    let bound = (6.0 / (rows + cols) as f32).sqrt();
    uniform(rng, rows, cols, bound)
}

/// Approximate standard normal via the sum of 12 uniforms (Irwin–Hall),
/// scaled by `std`. Accurate enough for initialization and avoids pulling
/// in a dedicated distributions crate.
pub fn normal(rng: &mut StdRng, rows: usize, cols: usize, std: f32) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        let s: f32 = (0..12).map(|_| rng.gen_range(0.0..1.0f32)).sum::<f32>() - 6.0;
        s * std
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = seeded_rng(7);
        let mut b = seeded_rng(7);
        assert_eq!(xavier(&mut a, 4, 4), xavier(&mut b, 4, 4));
    }

    #[test]
    fn xavier_within_bound() {
        let mut rng = seeded_rng(1);
        let m = xavier(&mut rng, 100, 50);
        let bound = (6.0 / 150.0f32).sqrt();
        assert!(m.as_slice().iter().all(|v| v.abs() <= bound + 1e-6));
    }

    #[test]
    fn normal_roughly_centered() {
        let mut rng = seeded_rng(2);
        let m = normal(&mut rng, 50, 50, 1.0);
        assert!(m.mean().abs() < 0.05, "mean {}", m.mean());
        let var: f32 = m.as_slice().iter().map(|v| v * v).sum::<f32>() / m.len() as f32;
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn uniform_respects_bound() {
        let mut rng = seeded_rng(3);
        let m = uniform(&mut rng, 10, 10, 0.25);
        assert!(m.as_slice().iter().all(|v| v.abs() <= 0.25));
    }
}
