//! What the benchmark asks of the host so that a number is a property of
//! the program: one CPU, and memory that stays with the process.
//!
//! Both came out of measurements on a 2-core VM (README, "Rules"):
//!
//! * The caller, the session worker and the engine never work at the same
//!   time (closed loop, one caller, one engine worker), yet on two CPUs the
//!   scheduler spreads them, and every request then pays two cross-CPU
//!   wake-ups of an idle (halted) virtual CPU: 21 % of `lat_p50_us` on
//!   `ejoin_served`, and how long such a wake-up takes is the hypervisor's
//!   business. Pinned to one CPU the threads hand over on a busy CPU.
//! * glibc gives every freed block above 128 KiB straight back to the
//!   kernel and trims the heap top, so a link join that clones `g_L` faults
//!   its 3 MiB in again on every query: 150 k page faults per second, 20 %
//!   of `lat_p50_us`/`lat_p90_us` on `ljoin_served`, at whatever a page
//!   fault costs on the host that day. With the two thresholds raised the
//!   heap grows to its peak once, during warm-up.
//!
//! glibc on Linux only; elsewhere both calls do nothing and say so.

/// A CPU set as the kernel takes it: 1024 bits.
type CpuSet = [u64; 16];

#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod sys {
    use super::CpuSet;

    pub const M_TRIM_THRESHOLD: i32 = -1;
    pub const M_MMAP_THRESHOLD: i32 = -3;

    extern "C" {
        pub fn mallopt(param: i32, value: i32) -> i32;
        // pid 0 is the calling thread; threads started later inherit its set.
        pub fn sched_getaffinity(pid: i32, size: usize, set: *mut CpuSet) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, set: *const CpuSet) -> i32;
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn allowed() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a valid, writable buffer of the size passed.
    let rc = unsafe { sys::sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    (rc == 0).then_some(set)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn restrict(set: &CpuSet) -> bool {
    // SAFETY: `set` is a valid buffer of the size passed.
    unsafe { sys::sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn allowed() -> Option<CpuSet> {
    None
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn restrict(_: &CpuSet) -> bool {
    false
}

/// Highest CPU of `set`: CPU 0 takes most of a small VM's interrupts.
fn last_cpu(set: &CpuSet) -> Option<usize> {
    (0..set.len() * 64)
        .rev()
        .find(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
}

fn only(cpu: usize) -> CpuSet {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    set
}

/// The CPUs the process may use and the one it was pinned to.
#[derive(Debug, Clone, Copy)]
pub struct Pin {
    all: CpuSet,
    pub cpu: usize,
}

/// Pin the calling thread, and with it every thread it starts from now on,
/// to one of the CPUs it is allowed. Call before anything spawns a thread.
/// `None` when the host cannot say or will not do it.
pub fn pin_to_one_cpu() -> Option<Pin> {
    let all = allowed()?;
    let cpu = last_cpu(&all)?;
    restrict(&only(cpu)).then_some(Pin { all, cpu })
}

impl Pin {
    /// Run `f` on every CPU the process was given: for the probes that ask
    /// what a second worker buys. Threads `f` starts run unpinned.
    pub fn lifted<T>(&self, f: impl FnOnce() -> T) -> T {
        restrict(&self.all);
        let out = f();
        restrict(&only(self.cpu));
        out
    }
}

/// Keep freed memory in the process: no `mmap` per large block, no trimming
/// of the heap top. Returns whether the allocator took both settings.
pub fn keep_freed_memory() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const ONE_GIB: i32 = 1 << 30;
        // SAFETY: `mallopt` only stores the two thresholds.
        unsafe {
            sys::mallopt(sys::M_MMAP_THRESHOLD, ONE_GIB) == 1
                && sys::mallopt(sys::M_TRIM_THRESHOLD, ONE_GIB) == 1
        }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_the_highest_allowed_cpu() {
        let mut set: CpuSet = [0; 16];
        assert_eq!(last_cpu(&set), None);
        set[0] = 0b0110;
        assert_eq!(last_cpu(&set), Some(2));
        set[1] = 1;
        assert_eq!(last_cpu(&set), Some(64));
        assert_eq!(only(64)[1], 1);
        assert_eq!(only(2)[0], 0b100);
    }

    #[test]
    fn pinning_holds_for_spawned_threads_and_lifts() {
        let Some(pin) = pin_to_one_cpu() else {
            return; // not a glibc Linux host
        };
        let seen = std::thread::spawn(allowed).join().unwrap().unwrap();
        assert_eq!(seen, only(pin.cpu));
        let lifted = pin.lifted(|| allowed().unwrap());
        assert_eq!(lifted, pin.all);
        assert_eq!(allowed().unwrap(), only(pin.cpu));
        // Leave the test thread as it was found.
        restrict(&pin.all);
    }
}
