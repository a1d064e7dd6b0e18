//! CPU pinning of the load generator and, through inheritance, of every
//! daemon it starts.
//!
//! On a small virtual machine a lock-step round trip that hops between
//! cores waits on the hypervisor to wake each idle core, and that wait
//! changes with the neighbours' load. With the generator and a daemon on
//! one core every hand-off is a local wake-up, so the figures measure the
//! serving stack rather than the host.

use std::io;

/// Bits in the kernel's `cpu_set_t`.
const SET_BITS: usize = 1024;
const WORDS: usize = SET_BITS / 64;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A set of CPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSet([u64; WORDS]);

impl CpuSet {
    /// The CPUs the calling thread may run on.
    ///
    /// # Errors
    ///
    /// The kernel refuses the query.
    pub fn current() -> io::Result<Self> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed,
        // and the kernel writes at most that many bytes into it.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc == 0 {
            Ok(CpuSet(mask))
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// The CPUs in the set, ascending.
    pub fn cpus(&self) -> Vec<usize> {
        (0..SET_BITS)
            .filter(|&cpu| self.0[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }

    /// The highest-numbered CPU in the set.
    pub fn last(&self) -> Option<usize> {
        self.cpus().last().copied()
    }

    /// The set holding `cpu` alone.
    pub fn only(cpu: usize) -> Self {
        let mut mask = [0u64; WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        CpuSet(mask)
    }

    /// Restricts the calling thread to this set. Threads and processes it
    /// starts afterwards inherit the set.
    ///
    /// # Errors
    ///
    /// The kernel refuses the set.
    pub fn apply(&self) -> io::Result<()> {
        // SAFETY: the mask is a readable buffer of exactly the size passed.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cpu_sets() {
        let s = CpuSet::only(70);
        assert_eq!(s.last(), Some(70));
        assert_eq!(s.cpus(), vec![70]);
        assert_eq!(CpuSet([0; WORDS]).last(), None);
    }

    #[test]
    fn the_current_set_round_trips() {
        let now = CpuSet::current().unwrap();
        assert!(now.last().is_some());
        now.apply().unwrap();
        assert_eq!(CpuSet::current().unwrap(), now);
    }
}
