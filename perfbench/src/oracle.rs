//! The f64 ground truth (`wino-baseline`'s direct convolution), run in
//! parallel over output-channel chunks so a full-size check fits in a
//! run, and the error measure outputs are judged by.

use wino_baseline::direct_f64_geo;
use wino_tensor::{ConvGeometry, SimpleImage, SimpleKernels};

/// One oracle layer: the direct f64 convolution of `img` under `geo`
/// (grouped kernel convention), optionally followed by a ReLU, split by
/// output channel across one scoped thread per CPU in `cpus`, each
/// pinned to its CPU.
pub fn layer(
    img: &SimpleImage,
    ker: &SimpleKernels,
    padding: &[usize],
    geo: &ConvGeometry,
    relu: bool,
    cpus: &[usize],
) -> SimpleImage {
    let threads = cpus.len();
    let g = geo.groups;
    let (c_pg, k_pg) = (img.channels / g, ker.out_channels / g);
    // Chunks of output channels, never straddling a group boundary.
    let per = ker.out_channels.div_ceil(threads.max(1)).max(1);
    let mut chunks = Vec::new();
    let mut lo = 0;
    while lo < ker.out_channels {
        let hi = (lo + per).min((lo / k_pg + 1) * k_pg);
        chunks.push((lo, hi));
        lo = hi;
    }
    let dense = ConvGeometry {
        groups: 1,
        ..geo.clone()
    };
    let parts: Vec<SimpleImage> = std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .iter()
            .enumerate()
            .map(|(i, &(lo, hi))| {
                let dense = &dense;
                let cpu = cpus.get(i % threads.max(1)).copied();
                s.spawn(move || {
                    if let Some(cpu) = cpu {
                        crate::machine::pin_self(cpu);
                    }
                    let gi = lo / k_pg;
                    let sub_img = channel_slice(img, gi * c_pg, c_pg);
                    let sub_ker = out_channel_slice(ker, lo, hi);
                    direct_f64_geo(&sub_img, &sub_ker, padding, dense)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    let dims = parts[0].dims.clone();
    let vol: usize = dims.iter().product();
    let mut out = SimpleImage::zeros(img.batch, ker.out_channels, &dims);
    for (&(lo, hi), part) in chunks.iter().zip(&parts) {
        for b in 0..img.batch {
            for c in lo..hi {
                let src = &part.data[(b * (hi - lo) + c - lo) * vol..][..vol];
                out.data[(b * ker.out_channels + c) * vol..][..vol].copy_from_slice(src);
            }
        }
    }
    if relu {
        for v in &mut out.data {
            *v = v.max(0.0);
        }
    }
    out
}

fn channel_slice(img: &SimpleImage, c0: usize, count: usize) -> SimpleImage {
    if c0 == 0 && count == img.channels {
        return img.clone();
    }
    let vol: usize = img.dims.iter().product();
    let mut out = SimpleImage::zeros(img.batch, count, &img.dims);
    for b in 0..img.batch {
        let src = &img.data[(b * img.channels + c0) * vol..][..count * vol];
        out.data[b * count * vol..][..count * vol].copy_from_slice(src);
    }
    out
}

fn out_channel_slice(ker: &SimpleKernels, lo: usize, hi: usize) -> SimpleKernels {
    let per = ker.in_channels * ker.dims.iter().product::<usize>();
    let mut out = SimpleKernels::zeros(hi - lo, ker.in_channels, &ker.dims);
    out.data.copy_from_slice(&ker.data[lo * per..hi * per]);
    out
}

/// Normwise relative error: the largest absolute element error over the
/// largest reference magnitude.
pub fn rel_err(got: &SimpleImage, truth: &SimpleImage) -> f64 {
    assert_eq!(got.dims, truth.dims, "output extent mismatch");
    assert_eq!(got.data.len(), truth.data.len(), "output size mismatch");
    let mut max_err = 0.0f64;
    let mut max_ref = 0.0f64;
    for (&g, &t) in got.data.iter().zip(&truth.data) {
        max_err = max_err.max((f64::from(g) - f64::from(t)).abs());
        max_ref = max_ref.max(f64::from(t).abs());
    }
    if !max_err.is_finite() {
        return f64::INFINITY;
    }
    max_err / max_ref.max(f64::MIN_POSITIVE)
}

/// Root-mean-square relative error, `‖got − truth‖₂ / ‖truth‖₂`, summed
/// over every output of every pair: an average over all elements, so it
/// moves with the arithmetic rather than with one extreme element.
pub fn rms_rel_err<'a>(pairs: impl IntoIterator<Item = (&'a SimpleImage, &'a SimpleImage)>) -> f64 {
    let (mut err2, mut ref2) = (0.0f64, 0.0f64);
    for (got, truth) in pairs {
        assert_eq!(got.data.len(), truth.data.len(), "output size mismatch");
        for (&g, &t) in got.data.iter().zip(&truth.data) {
            let d = f64::from(g) - f64::from(t);
            err2 += d * d;
            ref2 += f64::from(t) * f64::from(t);
        }
    }
    (err2 / ref2.max(f64::MIN_POSITIVE)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_baseline::direct_f64;

    #[test]
    fn chunked_oracle_matches_the_single_call() {
        let mut rng = crate::inputs::stream(1, 1);
        let img = crate::inputs::image(&mut rng, 2, 8, &[5, 4]);
        let ker = crate::inputs::kernels(&mut rng, 6, 8, &[3, 3]);
        let one = direct_f64(&img, &ker, &[1, 1]);
        let par = layer(
            &img,
            &ker,
            &[1, 1],
            &ConvGeometry::identity(2),
            false,
            &[0, 0, 0, 0],
        );
        assert_eq!(one.data, par.data);

        // Grouped + strided: chunks split at group boundaries.
        let gk = crate::inputs::kernels(&mut rng, 6, 4, &[3, 3]);
        let geo = ConvGeometry {
            stride: vec![2, 2],
            dilation: vec![1, 1],
            groups: 2,
        };
        let one = direct_f64_geo(&img, &gk, &[1, 1], &geo);
        let par = layer(&img, &gk, &[1, 1], &geo, false, &[0, 0, 0, 0]);
        assert_eq!(one.data, par.data);
        assert_eq!(rel_err(&one, &par), 0.0);
        assert_eq!(rms_rel_err([(&one, &par)]), 0.0);
        let mut off = par.clone();
        off.data[0] += 1.0;
        assert!(rms_rel_err([(&one, &off)]) > 0.0);
        assert!(
            rms_rel_err([(&one, &off)]) <= rel_err(&one, &off) * (off.data.len() as f64).sqrt()
        );
    }
}
