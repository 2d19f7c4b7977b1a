//! A memory node costs what it touches: a pool's capacity is address space,
//! and only the pages the index writes become resident — also for a node
//! built after another of its size was freed. One test in its own binary,
//! so no sibling test perturbs the process's RSS.

#![cfg(target_os = "linux")]

use dmem::Pool;

const MIB: usize = 1 << 20;

/// Resident set size of this process in bytes (`VmRSS`; the kernel keeps it
/// in per-CPU batches, so a reading is good to a fraction of a MiB).
fn rss() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).expect("VmRSS line");
    let kb: usize = line.split_whitespace().nth(1).expect("VmRSS value").parse().expect("VmRSS kB");
    kb << 10
}

#[test]
fn capacity_is_not_resident_until_written() {
    let capacity = 4usize << 30;
    let data = vec![0xA5u8; MIB];

    let before = rss();
    let pool = Pool::with_defaults(1, capacity);
    let built = rss().saturating_sub(before);
    assert!(built < 32 * MIB, "a 4 GiB pool made {} MiB resident before its first write", built / MIB);

    // Fresh memory reads zero, and a read of a never-written line returns at
    // all: the seqlock words start even, or it would spin forever.
    let region = pool.mn(0).region();
    assert_eq!(region.len(), capacity);
    for off in [0, capacity - 64, 4096 - 32, capacity / 2] {
        let mut line = [0xFFu8; 64];
        region.read(off, &mut line);
        assert_eq!(line, [0u8; 64], "fresh region is not zero at {off}");
    }

    let before = rss();
    region.write(capacity / 2, &data);
    let grew = rss().saturating_sub(before);
    // The written MiB and its 64 KiB of seqlock words, rounded out to huge
    // pages where the kernel backs the mapping with them.
    assert!((MIB / 2..8 * MIB).contains(&grew), "writing 1 MiB made {} KiB resident", grew >> 10);

    let mut back = vec![0u8; MIB];
    region.read(capacity / 2, &mut back);
    assert_eq!(back, data);
    drop(pool);

    // A benchmark runs one deployment after another in a process: a
    // 256 MiB node, and the index's and clients' heap blocks beside it.
    // Every node's 16 MiB of seqlock words must start untouched. Allocator
    // memory would not: once the free of a node raised glibc's mmap
    // threshold past that size, the next node's `calloc` comes from heap
    // pages an earlier deployment used, and is zeroed by hand.
    let capacity = 256 * MIB;
    for deployment in 0..3 {
        let before = rss();
        let pool = Pool::with_defaults(1, capacity);
        let built = rss().saturating_sub(before);
        assert!(
            built < 4 * MIB,
            "the 256 MiB pool of deployment {deployment} made {} KiB resident before its first write",
            built >> 10
        );
        let region = pool.mn(0).region();
        let mut line = [0xFFu8; 64];
        region.read(capacity / 2, &mut line);
        assert_eq!(line, [0u8; 64], "the pool of deployment {deployment} is not zero");
        region.write(capacity / 2, &data);
        let heap: Vec<Vec<u8>> = (0..128).map(|_| vec![0x5A; 256 << 10]).collect();
        drop(heap);
    }
}
