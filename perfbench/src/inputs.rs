//! Seeded inputs: images, kernels and the open-loop arrival schedule.
//!
//! The data the program receives — images and the arrival schedule — is
//! derived from the `--seed` argument through independent streams, so one
//! seed always gives the same inputs and changing one stream leaves the
//! others alone. The model weights are fixed, like a trained network's:
//! they come from [`MODEL_SEED`], so the seed varies the data a fixed
//! model sees, and accuracy figures compare like with like across seeds.

use wino_rng::{splitmix64, Rng};
use wino_tensor::{SimpleImage, SimpleKernels};

/// Seed of the fixed model weights.
pub const MODEL_SEED: u64 = 0x5EED;

/// Independent generator for `(seed, stream)`.
pub fn stream(seed: u64, stream: u64) -> Rng {
    let mut s = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    Rng::seed_from_u64(splitmix64(&mut s))
}

/// Activations uniform in `[-1, 1)`.
pub fn image(rng: &mut Rng, batch: usize, channels: usize, dims: &[usize]) -> SimpleImage {
    let mut img = SimpleImage::zeros(batch, channels, dims);
    rng.fill_f32(&mut img.data, -1.0, 1.0);
    img
}

/// Kernels uniform in `±sqrt(6 / fan_in)`, so activations keep their
/// scale through a ReLU stack instead of growing or vanishing.
pub fn kernels(rng: &mut Rng, out_ch: usize, in_ch: usize, dims: &[usize]) -> SimpleKernels {
    let mut k = SimpleKernels::zeros(out_ch, in_ch, dims);
    let fan_in = (in_ch * dims.iter().product::<usize>()) as f32;
    let a = (6.0 / fan_in).sqrt();
    rng.fill_f32(&mut k.data, -a, a);
    k
}

/// Poisson arrivals at `rate_rps` over `duration_s`: due times in
/// seconds from the phase start, strictly increasing.
pub fn arrivals(rng: &mut Rng, rate_rps: f64, duration_s: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity((rate_rps * duration_s * 1.1) as usize + 8);
    let mut t = 0.0;
    loop {
        // 1 - u is in (0, 1], so the logarithm is finite.
        t += -(1.0 - rng.next_f64()).ln() / rate_rps;
        if t >= duration_s {
            return out;
        }
        out.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = image(&mut stream(7, 1), 2, 16, &[5, 6]);
        let b = image(&mut stream(7, 1), 2, 16, &[5, 6]);
        assert_eq!(a.data, b.data);
        let c = image(&mut stream(8, 1), 2, 16, &[5, 6]);
        assert_ne!(a.data, c.data);
        let d = image(&mut stream(7, 2), 2, 16, &[5, 6]);
        assert_ne!(a.data, d.data);
        let k1 = kernels(&mut stream(7, 3), 16, 16, &[3, 3]);
        let k2 = kernels(&mut stream(7, 3), 16, 16, &[3, 3]);
        assert_eq!(k1.data, k2.data);
        let bound = (6.0f32 / 144.0).sqrt();
        assert!(k1.data.iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn arrival_schedule_is_seeded_and_has_the_rate() {
        let a = arrivals(&mut stream(3, 9), 200.0, 20.0);
        let b = arrivals(&mut stream(3, 9), 200.0, 20.0);
        assert_eq!(a, b);
        assert_ne!(a, arrivals(&mut stream(4, 9), 200.0, 20.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..20.0).contains(&t)));
        // 4000 expected arrivals; Poisson sd ≈ 63.
        assert!((3700..4300).contains(&a.len()), "{}", a.len());
    }
}
