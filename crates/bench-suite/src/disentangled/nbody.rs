//! `nbody` — one all-pairs force step over `n` bodies in fixed-point
//! integer arithmetic. Quadratic compute over shared read-only position
//! arrays; each task sums the forces on its own range of bodies.
//! Compute-dominated and disentangled (the other end of the suite's
//! allocation-intensity spectrum from `msort`/`dedup`).

use mpl_baselines::{SeqRuntime, SeqValue};
use mpl_runtime::{Handle, Mutator, Value};

use crate::util;
use crate::Benchmark;

const GRAIN: usize = 64;

/// The benchmark.
pub struct Nbody;

/// Deterministic body positions on a grid-with-jitter (fixed-point).
fn positions(n: usize) -> (Vec<i64>, Vec<i64>) {
    let jitter = util::random_small_ints(2 * n, 53);
    let side = (n as f64).sqrt().ceil() as i64;
    let mut px = Vec::with_capacity(n);
    let mut py = Vec::with_capacity(n);
    for i in 0..n as i64 {
        px.push((i % side) * 1000 + jitter[2 * i as usize]);
        py.push((i / side) * 1000 + jitter[2 * i as usize + 1]);
    }
    (px, py)
}

/// Integer force of body `j` on body `i` (quantized inverse-square).
fn force(px: &[i64], py: &[i64], i: usize, j: usize) -> (i64, i64) {
    let dx = px[j] - px[i];
    let dy = py[j] - py[i];
    let d2 = dx * dx + dy * dy + 1;
    // Scale up before dividing so small distances still contribute.
    (dx * 1_000_000 / d2, dy * 1_000_000 / d2)
}

fn accel_checksum(px: &[i64], py: &[i64], lo: usize, hi: usize) -> i64 {
    let n = px.len();
    let mut sum = 0i64;
    for i in lo..hi {
        let (mut ax, mut ay) = (0i64, 0i64);
        for j in 0..n {
            if j != i {
                let (fx, fy) = force(px, py, i, j);
                ax += fx;
                ay += fy;
            }
        }
        sum = sum.wrapping_add(ax.abs() + ay.abs());
    }
    sum
}

// ---- mpl -----------------------------------------------------------------

fn go_mpl(m: &mut Mutator<'_>, hx: &Handle, hy: &Handle, n: usize, lo: usize, hi: usize) -> i64 {
    if hi - lo <= GRAIN {
        m.work(((hi - lo) * n) as u64);
        let (px, py) = (m.get(hx), m.get(hy));
        return m.with_raw([px, py], |[px, py]| {
            let mut sum = 0i64;
            for i in lo..hi {
                let (xi, yi) = (px.get(i) as i64, py.get(i) as i64);
                let (mut ax, mut ay) = (0i64, 0i64);
                for j in 0..n {
                    if j != i {
                        let dx = px.get(j) as i64 - xi;
                        let dy = py.get(j) as i64 - yi;
                        let d2 = dx * dx + dy * dy + 1;
                        ax += dx * 1_000_000 / d2;
                        ay += dy * 1_000_000 / d2;
                    }
                }
                sum = sum.wrapping_add(ax.abs() + ay.abs());
            }
            sum
        });
    }
    let mid = lo + (hi - lo) / 2;
    let (l, r) = m.fork(
        |m| Value::Int(go_mpl(m, hx, hy, n, lo, mid)),
        |m| Value::Int(go_mpl(m, hx, hy, n, mid, hi)),
    );
    l.expect_int().wrapping_add(r.expect_int())
}

// ---- seq -----------------------------------------------------------------

fn go_seq(rt: &mut SeqRuntime, px: SeqValue, py: SeqValue, n: usize) -> i64 {
    rt.work((n * n) as u64);
    rt.with_raw([px, py], |[px, py]| {
        let mut sum = 0i64;
        for i in 0..n {
            let (xi, yi) = (px.get(i) as i64, py.get(i) as i64);
            let (mut ax, mut ay) = (0i64, 0i64);
            for j in 0..n {
                if j != i {
                    let dx = px.get(j) as i64 - xi;
                    let dy = py.get(j) as i64 - yi;
                    let d2 = dx * dx + dy * dy + 1;
                    ax += dx * 1_000_000 / d2;
                    ay += dy * 1_000_000 / d2;
                }
            }
            sum = sum.wrapping_add(ax.abs() + ay.abs());
        }
        sum
    })
}

impl Benchmark for Nbody {
    fn name(&self) -> &'static str {
        "nbody"
    }

    fn entangled(&self) -> bool {
        false
    }

    fn default_n(&self) -> usize {
        1500
    }

    /// Quadratic cost: scale by the square root of the percentage.
    fn scaled_n(&self, pct: usize) -> usize {
        let scaled = (self.default_n() as f64 * (pct as f64 / 100.0).sqrt()) as usize;
        scaled.max(self.small_n().min(self.default_n()))
    }

    fn run_mpl(&self, m: &mut Mutator<'_>, n: usize) -> i64 {
        // Reinterpreted in place (same element size): the input is held
        // once, as in `run_seq`.
        let (px, py) = positions(n);
        let xw: Vec<u64> = px.into_iter().map(|v| v as u64).collect();
        let yw: Vec<u64> = py.into_iter().map(|v| v as u64).collect();
        let hx = crate::mplutil::alloc_filled_raw(m, &xw);
        let hy = crate::mplutil::alloc_filled_raw(m, &yw);
        go_mpl(m, &hx, &hy, n, 0, n)
    }

    fn run_seq(&self, rt: &mut SeqRuntime, n: usize) -> i64 {
        let (pxv, pyv) = positions(n);
        let px = rt.alloc_raw(n);
        let hx = rt.root(px);
        let py = rt.alloc_raw(n);
        let hy = rt.root(py);
        rt.with_raw([rt.get(hx), rt.get(hy)], |[px, py]| {
            for i in 0..n {
                px.set(i, pxv[i] as u64);
                py.set(i, pyv[i] as u64);
            }
        });
        go_seq(rt, rt.get(hx), rt.get(hy), n)
    }

    fn run_native(&self, n: usize) -> i64 {
        let (px, py) = positions(n);
        accel_checksum(&px, &py, 0, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_runtime::{Runtime, RuntimeConfig};

    #[test]
    fn forces_are_antisymmetric() {
        let (px, py) = positions(16);
        for i in 0..16 {
            for j in 0..16 {
                if i != j {
                    let (fx, fy) = force(&px, &py, i, j);
                    let (gx, gy) = force(&px, &py, j, i);
                    // Integer division truncates toward zero, so the
                    // magnitudes may differ by at most one quantum.
                    assert!((fx + gx).abs() <= 1, "x antisymmetry");
                    assert!((fy + gy).abs() <= 1, "y antisymmetry");
                }
            }
        }
    }

    #[test]
    fn checksums_agree() {
        let b = Nbody;
        let n = b.small_n();
        let native = b.run_native(n);
        assert!(native > 0);
        let rt = Runtime::new(RuntimeConfig::managed());
        let mpl = rt.run(|m| Value::Int(b.run_mpl(m, n))).expect_int();
        let mut seq = SeqRuntime::default();
        assert_eq!(mpl, native);
        assert_eq!(b.run_seq(&mut seq, n), native);
        assert_eq!(rt.stats().pins, 0, "disentangled");
    }
}
