//! The simulator's deterministic random streams.
//!
//! Everything random in a simulation flows through [`SimRng`], a
//! splitmix64 generator (`podium_core::engine::splitmix64`, the kernel
//! `podium-service`'s WAL, client and chaos modules share). Each
//! stochastic process (arrival, drift, churn, sessions) derives its own
//! stream with [`SimRng::derive`] so that adding draws to one process
//! never perturbs another — the key to keeping event traces
//! byte-identical across refactors of a single process.

use podium_core::engine::splitmix64;

/// A splitmix64 pseudo-random stream.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: u64,
}

/// splitmix64's additive constant (the 64-bit golden ratio).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

impl SimRng {
    /// A stream seeded directly from `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// A child stream keyed by `stream`: independent per key, stable
    /// across runs. The parent is not advanced.
    pub fn derive(&self, stream: u64) -> Self {
        // Mix the key through one splitmix round so adjacent keys land
        // far apart in the parent's sequence space.
        let mut s = self.state ^ stream.wrapping_mul(GOLDEN);
        let mixed = splitmix64(&mut s);
        Self { state: mixed }
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// A uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        // podium-lint: allow(as-cast) — u64 >> 11 fits f64's 53-bit mantissa exactly
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw in `[0, n)`; returns 0 when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        self.next_u64() % n
    }

    /// An exponential inter-arrival gap for a Poisson process of
    /// `rate_hz` events per virtual second, in virtual microseconds.
    /// Clamped to at least 1µs so time always advances; a non-positive
    /// rate means "never" and returns `u64::MAX`.
    pub fn exp_gap_us(&mut self, rate_hz: f64) -> u64 {
        if rate_hz.is_nan() || rate_hz <= 0.0 {
            return u64::MAX;
        }
        let u = self.unit();
        let seconds = -(1.0 - u).ln() / rate_hz;
        let us = seconds * 1_000_000.0;
        if us >= 9.0e18 {
            return u64::MAX;
        }
        // podium-lint: allow(as-cast) — bounded above by the 9e18 guard and below by 0 (exp draw)
        (us as u64).max(1)
    }

    /// Walks a cumulative step along `row` (a probability row summing to
    /// ~1) and returns the chosen index. Falls back to the last index on
    /// rounding shortfall; returns 0 for an empty row.
    pub fn pick_row(&mut self, row: &[f64]) -> usize {
        let draw = self.unit();
        let mut acc = 0.0;
        for (i, p) in row.iter().enumerate() {
            acc += *p;
            if draw < acc {
                return i;
            }
        }
        row.len().saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn derived_streams_are_independent() {
        let root = SimRng::new(42);
        let mut a = root.derive(1);
        let mut b = root.derive(2);
        assert_ne!(a.next_u64(), b.next_u64());
        // Deriving does not advance the parent.
        let mut c = root.derive(1);
        let mut d = root.derive(1);
        assert_eq!(c.next_u64(), d.next_u64());
    }

    #[test]
    fn unit_is_in_range() {
        let mut r = SimRng::new(3);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn exp_gap_mean_tracks_rate() {
        let mut r = SimRng::new(11);
        let n = 20_000u64;
        let total: u64 = (0..n).map(|_| r.exp_gap_us(100.0)).sum();
        let mean = total / n; // expect ~10_000µs at 100 Hz
        assert!((8_000..12_000).contains(&mean), "mean {mean}");
    }

    #[test]
    fn exp_gap_zero_rate_means_never() {
        let mut r = SimRng::new(1);
        assert_eq!(r.exp_gap_us(0.0), u64::MAX);
        assert_eq!(r.exp_gap_us(-1.0), u64::MAX);
        assert_eq!(r.exp_gap_us(f64::NAN), u64::MAX);
    }

    #[test]
    fn pick_row_respects_cumulative_bounds() {
        let mut r = SimRng::new(5);
        let row = [0.0, 1.0, 0.0];
        for _ in 0..100 {
            assert_eq!(r.pick_row(&row), 1);
        }
        assert_eq!(r.pick_row(&[]), 0);
    }
}
