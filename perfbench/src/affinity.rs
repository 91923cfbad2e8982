//! CPU affinity of the calling thread.
//!
//! On a shared machine one CPU can run slower than another for minutes:
//! on the machine the benchmark was built on, a 2-tenant run took ≈17 ms
//! on one vCPU and ≈12 ms on the other, back to back, while an hour
//! earlier both ran it in ≈12 ms. The timed runs put successive
//! repetitions on successive CPUs and keep each step's fastest
//! repetition (`stats::Steps`), so a run measures the CPU that was least
//! disturbed while it ran.

/// Mask width in words: 1024 CPUs, the kernel's historical `cpu_set_t`.
const WORDS: usize = 16;

// std links against libc already; two declarations spare a dependency.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on; empty if the kernel does not
/// say.
fn allowed() -> Vec<usize> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restrict the calling thread to `cpus`, best effort: a refusal leaves
/// it where it was, which only costs steadiness.
fn set(cpus: &[usize]) {
    let mut mask = [0u64; WORDS];
    for &c in cpus {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

/// Run `f` with the calling thread on the `rep`-th of the CPUs it may
/// use (round robin), then give it back all of them. Threads and
/// processes that `f` starts keep the one CPU.
pub fn on_cpu<T>(rep: usize, f: impl FnOnce() -> T) -> T {
    let cpus = allowed();
    if cpus.is_empty() {
        return f();
    }
    set(&[cpus[rep % cpus.len()]]);
    let v = f();
    set(&cpus);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_round_robin_and_restores() {
        let cpus = allowed();
        assert!(!cpus.is_empty());
        for rep in 0..cpus.len() + 1 {
            let inside = on_cpu(rep, allowed);
            assert_eq!(inside, vec![cpus[rep % cpus.len()]]);
        }
        assert_eq!(allowed(), cpus);
    }
}
