//! Pin the calling thread, and every thread it spawns afterwards, to one
//! CPU (Linux `sched_setaffinity`).
//!
//! The serving workloads run their client and the server on one core. In a
//! closed loop over one connection only one of them runs at a time, so
//! they do not compete; what pinning removes is the cross-core wake-up at
//! every hand-off (client → connection worker → query pool and back),
//! whose latency jumps by milliseconds whenever the host preempts the
//! other core.

const MASK_WORDS: usize = 16; // 1024 CPUs, glibc's cpu_set_t

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

fn get() -> Option<[u64; MASK_WORDS]> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

fn set(mask: &[u64; MASK_WORDS]) -> bool {
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}

/// The calling thread's affinity before [`pin_to_one_cpu`]; restores it
/// on drop (threads spawned while pinned stay pinned).
pub struct Pinned {
    before: [u64; MASK_WORDS],
    pub cpu: usize,
}

impl Drop for Pinned {
    fn drop(&mut self) {
        set(&self.before);
    }
}

/// Pin the calling thread to the lowest CPU it may run on. `None` when
/// the affinity calls fail (the run then proceeds unpinned).
pub fn pin_to_one_cpu() -> Option<Pinned> {
    let before = get()?;
    let word = before.iter().position(|&w| w != 0)?;
    let cpu = word * 64 + before[word].trailing_zeros() as usize;
    let mut one = [0u64; MASK_WORDS];
    one[word] = 1 << (cpu % 64);
    set(&one).then_some(Pinned { before, cpu })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_applies_to_spawned_threads_and_is_undone() {
        let before = get().unwrap();
        let pin = pin_to_one_cpu().expect("pin");
        let inner = std::thread::spawn(get).join().unwrap().unwrap();
        assert_eq!(inner.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        assert_ne!(inner[pin.cpu / 64] & (1 << (pin.cpu % 64)), 0);
        drop(pin);
        assert_eq!(get().unwrap(), before);
    }
}
