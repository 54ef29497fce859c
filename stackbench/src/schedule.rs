//! Seeded arrival schedules for the open-loop workload.

/// Equal-probability bands of the exponential gap distribution. Every
/// run of this many consecutive arrivals holds one gap from each band.
const BANDS: usize = 10;

/// SplitMix64: a tiny, well-mixed generator. The schedule must repeat
/// exactly for a seed on any build, so it depends on nothing outside
/// this file.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    fn shuffle(&mut self, values: &mut [f64]) {
        for i in (1..values.len()).rev() {
            values.swap(i, self.below(i + 1));
        }
    }
}

/// Arrival offsets (seconds from the window start) of `count` jobs at
/// `rate` per second, with exponentially distributed gaps.
///
/// The gaps are stratified. Every schedule uses the same `count`
/// exponential quantiles, `-ln(1 - (i + ½)/count) / rate`, so every run
/// offers the same load with the same gaps. The seed deals them out so
/// that each block of [`BANDS`] consecutive arrivals holds one gap from
/// each tenth of the distribution, in shuffled order (a remainder of
/// fewer than [`BANDS`] gaps, the longest, closes the schedule).
/// Short gaps still cluster inside a block, but no run can draw a burst
/// much longer than one. With independent draws, how long the worst
/// burst ran differed from seed to seed, and the servers' memory and
/// tail latency followed it.
pub fn exponential_arrivals(seed: u64, rate: f64, count: usize) -> Vec<f64> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let quantiles: Vec<f64> = (0..count)
        .map(|i| -(1.0 - (i as f64 + 0.5) / count as f64).ln() / rate)
        .collect();
    let mut rng = SplitMix64::new(seed);
    let per_band = count / BANDS;
    let mut bands: Vec<Vec<f64>> = (0..BANDS)
        .map(|b| quantiles[b * per_band..(b + 1) * per_band].to_vec())
        .collect();
    for band in &mut bands {
        rng.shuffle(band);
    }
    let mut gaps = Vec::with_capacity(count);
    for k in 0..per_band {
        let block = gaps.len();
        gaps.extend(bands.iter().map(|band| band[k]));
        rng.shuffle(&mut gaps[block..]);
    }
    let block = gaps.len();
    gaps.extend_from_slice(&quantiles[BANDS * per_band..]);
    rng.shuffle(&mut gaps[block..]);
    let mut t = 0.0;
    gaps.iter()
        .map(|gap| {
            t += gap;
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|t| t.to_bits()).collect()
    }

    fn gaps(arrivals: &[f64]) -> Vec<f64> {
        std::iter::once(arrivals[0])
            .chain(arrivals.windows(2).map(|w| w[1] - w[0]))
            .collect()
    }

    #[test]
    fn schedule_repeats_for_a_seed_and_differs_across_seeds() {
        let a = exponential_arrivals(5, 6.0, 120);
        assert_eq!(bits(&a), bits(&exponential_arrivals(5, 6.0, 120)));
        assert_ne!(bits(&a), bits(&exponential_arrivals(6, 6.0, 120)));
        assert!(a.windows(2).all(|w| w[0] < w[1]), "arrivals ascend");
        assert_eq!(exponential_arrivals(5, 6.0, 7).len(), 7);
    }

    #[test]
    fn every_seed_offers_the_same_exponential_gaps() {
        let sorted_gaps = |seed| {
            let mut g = gaps(&exponential_arrivals(seed, 6.0, 1000));
            g.sort_by(f64::total_cmp);
            g
        };
        let (a, b) = (sorted_gaps(1), sorted_gaps(2));
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9);
        }
        // Exponential at rate 6: mean gap 1/6, and 1 - 1/e of the gaps
        // fall under it.
        let mean = a.iter().sum::<f64>() / a.len() as f64;
        assert!((mean - 1.0 / 6.0).abs() < 0.005, "mean gap {mean}");
        let short = a.iter().filter(|&&g| g < 1.0 / 6.0).count() as f64 / a.len() as f64;
        assert!((short - (1.0 - (-1.0f64).exp())).abs() < 0.01, "{short}");
    }

    #[test]
    fn each_block_holds_one_gap_from_every_band() {
        let count = 120;
        let g = gaps(&exponential_arrivals(9, 6.0, count));
        let mut sorted = g.clone();
        sorted.sort_by(f64::total_cmp);
        let band = |gap: f64| {
            let rank = sorted.iter().position(|&s| s == gap).expect("gap present");
            rank / (count / BANDS)
        };
        for block in g.chunks(BANDS) {
            let mut bands: Vec<usize> = block.iter().map(|&x| band(x)).collect();
            bands.sort_unstable();
            assert_eq!(bands, (0..BANDS).collect::<Vec<_>>());
        }
    }
}
