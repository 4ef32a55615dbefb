//! Seeded generation, bit-exact store comparison, process CPU time and
//! memory.

use partir::dpl::region::{FieldData, FieldId, Store};

/// splitmix64 of `(seed, i)`: a pure function, so inputs depend only on
/// the seed and the op index.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded stream of values.
pub struct Rng {
    seed: u64,
    i: u64,
}

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng { seed, i: 0 }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.i += 1;
        mix(self.seed, self.i)
    }

    /// Uniform in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// True when every field of `a` equals `b` bit for bit.
pub fn identical(a: &Store, b: &Store) -> bool {
    let n = a.schema().num_fields();
    n == b.schema().num_fields()
        && (0..n).all(|f| {
            let f = FieldId(f as u32);
            match (a.field_data(f), b.field_data(f)) {
                (FieldData::F64(x), FieldData::F64(y)) => {
                    x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
                }
                (x, y) => x == y,
            }
        })
}

/// CPU time of the whole process so far, every thread included, in
/// seconds. Unlike wall time it leaves out the time a hypervisor takes
/// from the virtual machine (steal), so it stays steady on a shared host.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a valid, writable `struct timespec` (64-bit fields on
    // 64-bit Linux) and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    t.sec as f64 + t.nsec as f64 * 1e-9
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir::dpl::region::{FieldKind, Schema};

    #[test]
    fn streams_repeat_per_seed() {
        let a: Vec<u64> = (0..4).map(|i| mix(7, i)).collect();
        let b: Vec<u64> = (0..4).map(|i| mix(7, i)).collect();
        assert_eq!(a, b);
        assert_ne!(mix(7, 1), mix(8, 1));
        let mut r = Rng::new(3);
        assert!((0..1000).map(|_| r.f64_in(1.0, 2.0)).all(|v| (1.0..2.0).contains(&v)));
    }

    #[test]
    fn process_cpu_time_advances_with_work() {
        let t0 = process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        let t1 = process_cpu_s();
        assert!(t1 > t0, "{t0} -> {t1} after {x}");
    }

    #[test]
    fn identical_compares_bits() {
        let mut schema = Schema::new();
        let r = schema.add_region("R", 2);
        let x = schema.add_field(r, "x", FieldKind::F64);
        let a = Store::new(schema);
        let mut b = a.clone();
        assert!(identical(&a, &b));
        b.f64s_mut(x)[1] = -0.0;
        assert!(!identical(&a, &b), "0.0 and -0.0 differ in bits");
    }
}
