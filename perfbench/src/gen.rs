//! Seeded input generation. Every input a workload sends is a pure
//! function of `--seed`, so a rung of the traced ladder can replay the
//! exact op stream of the end-to-end run it decomposes.

/// SplitMix64: small, fast, and good enough to drive a load mix.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x5eed))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Zipf-like rank sampler over `0..n` with exponent 1: rank 0 is the
/// hottest key.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Length of an attribute value header: `kkkk.vvvvvvvvvv.`
pub const HEADER: usize = 16;

/// Seeded length of version `ver` of key `key`: mostly 16–256 bytes,
/// about 5% at 1–16 KiB (past the wire pool's 256-byte fresh buffers).
pub fn value_len(seed: u64, key: usize, ver: u64) -> usize {
    let h = mix(seed ^ mix((key as u64) << 40 ^ ver));
    if h % 100 < 5 {
        1024 + (h >> 8) as usize % (15 * 1024 + 1)
    } else {
        HEADER + (h >> 8) as usize % (256 - HEADER + 1)
    }
}

fn filler(key: usize, ver: u64) -> u8 {
    b'a' + ((key as u64 + ver) % 26) as u8
}

/// Write version `ver` of key `key` into `buf`, reusing its capacity.
pub fn fill_value(buf: &mut String, seed: u64, key: usize, ver: u64) {
    use std::fmt::Write;
    buf.clear();
    write!(buf, "{key:04}.{ver:010}.").expect("write to String");
    let len = value_len(seed, key, ver);
    let c = filler(key, ver) as char;
    buf.extend(std::iter::repeat_n(c, len - HEADER));
}

/// Is `value` well formed, written for `key`, and of its seeded length?
pub fn check_value(value: &str, seed: u64, key: usize) -> bool {
    let b = value.as_bytes();
    if b.len() < HEADER || b[4] != b'.' || b[15] != b'.' {
        return false;
    }
    let (Ok(k), Ok(ver)) = (value[..4].parse::<usize>(), value[5..15].parse::<u64>()) else {
        return false;
    };
    let c = filler(key, ver);
    k == key && b.len() == value_len(seed, key, ver) && b[HEADER..].iter().all(|&x| x == c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b, mut c) = (Rng::new(7, 1), Rng::new(7, 1), Rng::new(7, 2));
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1024);
        let mut rng = Rng::new(1, 0);
        let mut hits = vec![0u32; 1024];
        for _ in 0..100_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > 10 * hits[100]);
        assert!(hits[1023] < hits[0]);
    }

    #[test]
    fn values_round_trip_and_reject_forgeries() {
        let mut buf = String::new();
        let mut large = 0;
        for ver in 0..2000 {
            fill_value(&mut buf, 3, 42, ver);
            assert!(check_value(&buf, 3, 42));
            assert!(!check_value(&buf, 3, 43), "wrong key accepted");
            assert!(!check_value(&buf, 4, 42) || value_len(3, 42, ver) == value_len(4, 42, ver));
            assert!(
                !check_value(&buf[..buf.len() - 1], 3, 42),
                "short value accepted"
            );
            if buf.len() > 1024 {
                large += 1;
            }
        }
        assert!((50..200).contains(&large), "{large} large values of 2000");
    }
}
