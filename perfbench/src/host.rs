//! Host fingerprint and the process's peak resident memory.

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size of the last-level (L3) cache in KiB, from CPUID leaf 4; 0 when the
/// processor does not report one.
#[cfg(target_arch = "x86_64")]
pub fn l3_kib() -> u64 {
    use std::arch::x86_64::__cpuid_count;
    // Leaf 4 reports one cache per subleaf and a null type past the last.
    let max_leaf = __cpuid_count(0, 0).eax;
    if max_leaf < 4 {
        return 0;
    }
    for sub in 0..16 {
        let r = __cpuid_count(4, sub);
        let kind = r.eax & 0x1f;
        if kind == 0 {
            break;
        }
        let level = (r.eax >> 5) & 0x7;
        if level == 3 {
            let ways = u64::from((r.ebx >> 22) & 0x3ff) + 1;
            let partitions = u64::from((r.ebx >> 12) & 0x3ff) + 1;
            let line = u64::from(r.ebx & 0xfff) + 1;
            let sets = u64::from(r.ecx) + 1;
            return ways * partitions * line * sets / 1024;
        }
    }
    0
}

/// Size of the last-level (L3) cache in KiB; not probed on this
/// architecture.
#[cfg(not(target_arch = "x86_64"))]
pub fn l3_kib() -> u64 {
    0
}

/// Fixes glibc malloc's large-block policy for the whole process: blocks
/// up to 32 MiB come from the heap, and freed memory is kept instead of
/// being returned to the kernel. With glibc's adaptive defaults, whether a
/// per-op temporary is served from fresh zero pages depends on heap
/// layout, and the same op ran 8 ms in one process and 20 ms in the next.
/// Returns whether both settings took effect.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn pin_allocator() -> bool {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: mallopt only changes allocator tunables; it is called before
    // the benchmark starts any thread.
    unsafe { mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1 }
}

/// Fixes the allocator's large-block policy; not available here.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn pin_allocator() -> bool {
    false
}

#[cfg(target_os = "linux")]
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    rest: [i64; 9],
}

#[cfg(target_os = "linux")]
extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

#[cfg(target_os = "linux")]
fn rusage() -> Option<Rusage> {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        ixrss: 0,
        idrss: 0,
        isrss: 0,
        minflt: 0,
        rest: [0; 9],
    };
    // SAFETY: `Rusage` matches the C `struct rusage` layout on 64-bit Linux
    // (two timevals and fourteen longs) and `usage` is a valid, writable
    // value of that type for the duration of the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    (rc == 0).then_some(usage)
}

/// Peak resident set size of this process so far, in MiB (0 when the
/// platform does not report it).
#[cfg(target_os = "linux")]
pub fn peak_rss_mb() -> f64 {
    rusage().map_or(0.0, |u| u.maxrss as f64 / 1024.0) // kilobytes on Linux
}

/// Minor page faults of this process so far (0 when not reported).
#[cfg(target_os = "linux")]
pub fn minor_faults() -> u64 {
    rusage().map_or(0, |u| u.minflt.max(0) as u64)
}

/// Peak resident set size; not probed on this platform.
#[cfg(not(target_os = "linux"))]
pub fn peak_rss_mb() -> f64 {
    0.0
}

/// Minor page faults; not probed on this platform.
#[cfg(not(target_os = "linux"))]
pub fn minor_faults() -> u64 {
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_reads_are_sane() {
        assert!(nproc() >= 1);
        let faults = minor_faults();
        let before = peak_rss_mb();
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() >= before.max(64.0));
            assert!(minor_faults() > faults);
        }
    }
}
