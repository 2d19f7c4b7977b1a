//! Property tests for the substrate: region access, versioned-layout
//! mapping, masked-CAS algebra and the network model.

use dmem::node::RESERVED_BYTES;
use dmem::versioned::{Layout, LINE, LINE_PAYLOAD};
use dmem::{Endpoint, GlobalAddr, NetConfig, Pool, RunAccounting};
use proptest::prelude::*;

proptest! {
    /// Any write followed by a read returns the written bytes, and so does
    /// a read of a sub-range whose start and length are not multiples of 8
    /// (the region copies 8-byte words and single bytes at the ends).
    #[test]
    fn region_read_after_write(
        off in 0usize..4000,
        data in proptest::collection::vec(any::<u8>(), 1..300),
        skip in 0usize..300,
        take in 1usize..300,
    ) {
        let pool = Pool::with_defaults(1, 1 << 20);
        let mut ep = Endpoint::new(pool);
        let addr = GlobalAddr::new(0, RESERVED_BYTES + off as u64);
        ep.write(addr, &data);
        let mut out = vec![0u8; data.len()];
        ep.read(addr, &mut out);
        prop_assert_eq!(&out, &data);
        // Off the word grid: an odd start, and a length of 8k + 1..7.
        let start = (RESERVED_BYTES as usize + off + skip % data.len()) | 1;
        let end = RESERVED_BYTES as usize + off + data.len();
        if start < end {
            let len = (take % (end - start)).max(1);
            let len = if len.is_multiple_of(8) { len - 1 } else { len };
            if len > 0 {
                let mut sub = vec![0u8; len];
                ep.read(GlobalAddr::new(0, start as u64), &mut sub);
                let at = start - RESERVED_BYTES as usize - off;
                prop_assert_eq!(&sub[..], &data[at..at + len]);
            }
        }
    }

    /// The logical->physical map is injective, skips every line-version
    /// byte, and is monotone.
    #[test]
    fn layout_mapping_bijective(payload in 1usize..2000) {
        let l = Layout::new(payload);
        let mut prev = 0usize;
        for i in 0..payload {
            let p = l.phys_of(i);
            prop_assert_ne!(p % LINE, 0, "logical byte on a version slot");
            if i > 0 {
                prop_assert!(p > prev);
            }
            prev = p;
            prop_assert_eq!((p / LINE) * LINE_PAYLOAD + (p % LINE) - 1, i);
        }
        prop_assert!(l.versioned_size() >= payload);
        prop_assert_eq!(l.lock_offset() % 8, 0);
    }

    /// Versioned write/fetch round-trips arbitrary ranges.
    #[test]
    fn versioned_roundtrip(
        start in 0usize..500,
        data in proptest::collection::vec(any::<u8>(), 1..400),
    ) {
        let payload = start + data.len() + 1;
        let l = Layout::new(payload.max(8));
        let pool = Pool::with_defaults(1, 1 << 20);
        let mut ep = Endpoint::new(pool);
        let node = GlobalAddr::new(0, RESERVED_BYTES);
        l.write(&mut ep, node, start, &data, |_| 0x42);
        let f = l.fetch(&mut ep, node, start, start + data.len());
        prop_assert_eq!(f.copy(start, data.len()), data);
    }

    /// Masked-CAS only compares/swaps the masked bits.
    #[test]
    fn masked_cas_respects_masks(
        initial in any::<u64>(),
        compare in any::<u64>(),
        cmask in any::<u64>(),
        swap in any::<u64>(),
        smask in any::<u64>(),
    ) {
        let pool = Pool::with_defaults(1, 1 << 20);
        let mut ep = Endpoint::new(pool);
        let addr = GlobalAddr::new(0, RESERVED_BYTES);
        ep.write(addr, &initial.to_le_bytes());
        #[allow(clippy::disallowed_methods, reason = "the verb's own algebra")]
        let old = ep.masked_cas(addr, compare, cmask, swap, smask);
        prop_assert_eq!(old, initial);
        let mut b = [0u8; 8];
        ep.read(addr, &mut b);
        let now = u64::from_le_bytes(b);
        if initial & cmask == compare & cmask {
            prop_assert_eq!(now, (initial & !smask) | (swap & smask));
        } else {
            prop_assert_eq!(now, initial);
        }
    }

    /// The model never exceeds any cap and inflation is consistent.
    #[test]
    fn net_model_respects_caps(
        clients in 1u64..5000,
        msgs_per_op in 1u64..10,
        bytes_per_op in 60u64..10_000,
        lat in 2_000u64..50_000,
        mns in 1u64..10,
    ) {
        let n = NetConfig::default();
        let acc = RunAccounting {
            ops: 1000,
            clients,
            mns,
            total_msgs: 1000 * msgs_per_op,
            total_wire_bytes: 1000 * bytes_per_op,
            sum_latency_ns: 1000 * lat,
            sum_busy_ns: 0,
            max_mn_msgs: 0,
            max_mn_wire_bytes: 0,
        };
        let e = n.model(&acc);
        let cap = mns as f64;
        prop_assert!(e.mops * 1e6 <= n.iops * cap / msgs_per_op as f64 + 1.0);
        prop_assert!(e.mops * 1e6 * bytes_per_op as f64 <= n.bandwidth_bps * cap * 1.0001);
        prop_assert!(e.inflation >= 1.0);
        prop_assert!(e.avg_latency_ns >= lat as f64 * 0.999);
    }
}
