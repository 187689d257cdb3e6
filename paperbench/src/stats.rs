//! Small numeric helpers: order statistics, the seeded shuffle, input
//! digests and the `/proc` memory readout.

/// FNV-1a, 64-bit: the input fingerprint and the output digests.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}

/// SplitMix64: the benchmark's own generator, so request order and
/// sketch indices do not change when the simulator's generator does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// The median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 0 {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The nearest-rank `p`-th percentile, or `None` unless at least ten
/// samples lie beyond it: a tail percentile resting on fewer samples
/// is mostly noise.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n < rank + 10 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// `VmHWM` (peak resident set) in KiB from a `/proc/<pid>/status` text.
pub fn parse_vmhwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail_percentile(&ten, 90.0), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 90 leaves exactly ten samples beyond it.
        assert_eq!(tail_percentile(&hundred, 90.0), Some(90.0));
        assert_eq!(tail_percentile(&hundred, 91.0), None);
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&ninety_nine, 90.0), None);
        assert_eq!(tail_percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn seeded_shuffle_is_deterministic() {
        let order = |seed| {
            let mut v: Vec<u32> = (0..50).collect();
            Rng::new(seed).shuffle(&mut v);
            v
        };
        assert_eq!(order(42), order(42));
        assert_ne!(order(42), order(7));
        let mut sorted = order(42);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        // Pinned so a change to the generator shows as workload drift here
        // first, not as a silent change of request order.
        assert_eq!(Rng::new(42).next_u64(), 0xbdd7_3226_2feb_6e95);
    }

    #[test]
    fn vmhwm_is_parsed_from_status() {
        let status = "Name:\tx\nVmPeak:\t  20000 kB\nVmHWM:\t    1424 kB\nVmRSS:\t  1000 kB\n";
        assert_eq!(parse_vmhwm_kib(status), Some(1424));
        assert_eq!(parse_vmhwm_kib("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\t12 MB\n"), None);
        let live = std::fs::read_to_string("/proc/self/status").expect("procfs");
        assert!(parse_vmhwm_kib(&live).is_some_and(|k| k > 0));
    }

    #[test]
    fn digests_are_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
        let mut split = Fnv::new();
        split.write(b"foo");
        split.write(b"bar");
        assert_eq!(split.finish(), fnv1a(b"foobar"));
    }
}
