//! Seeded input generation: the random stream, the bounded Zipf sampler,
//! and the self-describing key/value encodings every answer is checked
//! against.
//!
//! Everything a workload feeds the program is a pure function of the
//! `--seed` argument and the client index; the tests at the bottom pin
//! that down.

/// SplitMix64 step: a full-period 64-bit generator, used directly as the
/// stream and as a mixer for deriving per-client seeds.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic random stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream of client `client` of workload `tag` under `seed`.
    pub fn new(seed: u64, tag: u64, client: u64) -> Rng {
        let mut s = seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407);
        let a = splitmix64(&mut s);
        let mut t = a ^ client.wrapping_mul(0x9FB2_1C65_1E98_DF25);
        Rng(splitmix64(&mut t))
    }

    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A fixed bijection of `0..n`: `i ↦ i · stride mod n`, with the stride
/// the first number from `hint` up that is coprime with `n`.
#[derive(Debug, Clone, Copy)]
pub struct Permutation {
    n: u64,
    stride: u64,
}

impl Permutation {
    pub fn new(n: u64, hint: u64) -> Permutation {
        let mut stride = hint % n;
        while stride < 2 || gcd(stride, n) != 1 {
            stride += 1;
        }
        Permutation { n, stride }
    }

    pub fn at(&self, i: u64) -> u64 {
        ((i as u128 * self.stride as u128) % self.n as u128) as u64
    }
}

/// Bounded Zipf(θ) over ranks `0..n` (Gray et al., "Quickly generating
/// billion-record synthetic databases", the YCSB generator), with the
/// ranks spread over the key space by a fixed bijection so the hot keys
/// are not adjacent.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    spread: Permutation,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n >= 2 && theta > 0.0 && theta < 1.0);
        let zeta = |m: u64| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let zeta2 = zeta(2);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
            spread: Permutation::new(n, 0x9E37_79B9),
        }
    }

    /// A Zipf-distributed rank in `0..n` (0 is the most popular).
    pub fn rank(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }

    /// A Zipf-popular key in `0..n`.
    pub fn key(&self, rng: &mut Rng) -> u64 {
        self.spread.at(self.rank(rng))
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Bytes of every value the benchmark writes.
pub const VALUE_LEN: usize = 100;

pub fn key_bytes(k: u64) -> [u8; 8] {
    k.to_be_bytes()
}

/// A value that names what it is: the key (or point) it belongs to, the
/// writer's stamp, and a filler derived from both, so a value returned
/// for the wrong key, torn, or mixed up with another write is detected.
pub fn value(subject: &[u8], stamp: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(VALUE_LEN);
    v.extend_from_slice(subject);
    v.extend_from_slice(&stamp.to_be_bytes());
    let mut s = fold(subject) ^ stamp;
    while v.len() < VALUE_LEN {
        let w = splitmix64(&mut s).to_le_bytes();
        let take = (VALUE_LEN - v.len()).min(8);
        v.extend_from_slice(&w[..take]);
    }
    v
}

/// The stamp of `v` if it is a well-formed value of `subject`.
pub fn stamp_of(subject: &[u8], v: &[u8]) -> Option<u64> {
    let n = subject.len();
    if v.len() != VALUE_LEN || &v[..n] != subject {
        return None;
    }
    let stamp = u64::from_be_bytes(v[n..n + 8].try_into().ok()?);
    (value(subject, stamp) == v).then_some(stamp)
}

fn fold(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{family, read_cold, storm_hot, update_cold};

    #[test]
    fn streams_are_a_pure_function_of_the_seed() {
        for seed in [1u64, 7, 0xDEAD_BEEF] {
            for client in 0..2 {
                assert_eq!(
                    read_cold::op_stream(seed, client, 500),
                    read_cold::op_stream(seed, client, 500)
                );
                assert_eq!(
                    update_cold::op_stream(seed, client, 500),
                    update_cold::op_stream(seed, client, 500)
                );
                assert_eq!(
                    storm_hot::op_stream(seed, client, 500),
                    storm_hot::op_stream(seed, client, 500)
                );
                assert_eq!(
                    family::op_stream(seed, client, 500),
                    family::op_stream(seed, client, 500)
                );
            }
        }
        assert_ne!(
            read_cold::op_stream(1, 0, 200),
            read_cold::op_stream(2, 0, 200)
        );
        assert_ne!(
            read_cold::op_stream(1, 0, 200),
            read_cold::op_stream(1, 1, 200)
        );
        assert_ne!(
            update_cold::op_stream(1, 0, 200),
            update_cold::op_stream(2, 0, 200)
        );
        assert_ne!(
            storm_hot::op_stream(1, 0, 200),
            storm_hot::op_stream(2, 0, 200)
        );
        assert_ne!(family::op_stream(1, 0, 200), family::op_stream(2, 0, 200));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(10_000, 0.99);
        let mut rng = Rng::new(3, 0, 0);
        let mut hits0 = 0;
        for _ in 0..20_000 {
            let r = z.rank(&mut rng);
            assert!(r < 10_000);
            hits0 += (r == 0) as u32;
            assert!(z.key(&mut rng) < 10_000);
        }
        // Rank 0 carries about 1/zeta(n) ≈ 10% of the mass at θ = 0.99.
        assert!(hits0 > 1_000, "rank 0 drawn {hits0} times");
    }

    #[test]
    fn values_name_their_subject() {
        let v = value(&key_bytes(42), 7);
        assert_eq!(stamp_of(&key_bytes(42), &v), Some(7));
        assert_eq!(stamp_of(&key_bytes(43), &v), None);
        let mut torn = v.clone();
        torn[VALUE_LEN - 1] ^= 1;
        assert_eq!(stamp_of(&key_bytes(42), &torn), None);
    }
}
