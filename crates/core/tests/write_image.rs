//! Golden remote images of the write path.
//!
//! Every locked insert / update / delete ends in one write batch: the dirty
//! hop range (entries, the replicas between them, the cache-line version
//! bytes they cover) plus the lock word. This test drives a seeded mix of
//! those operations under each leaf geometry the figures exercise and pins
//! an FNV-1a hash over every allocated memory-node byte, together with the
//! client's verb totals, to constants recorded before the write-side leaf
//! codec was unified (the totals, not the hashes, moved again when updates
//! and deletes, and then inserts, began posting their window READ in the
//! lock's doorbell: fewer READs, round trips and bytes). A change that
//! moves one remote byte, one version nibble or one verb on any branch —
//! hop writes, wrap-around windows with two cyclic segments, the argmax
//! piggyback, the whole-node fallback, splits, merges, synonym chains —
//! changes a constant below.

use std::sync::Arc;

use chime::internal::InternalOps;
use chime::layout::InternalLayout;
use chime::{Chime, ChimeConfig};
use dmem::node::RESERVED_BYTES;
use dmem::{Endpoint, GlobalAddr, Pool, RangeIndex};
use rolex::{ChimeLearned, Rolex, RolexConfig};
use sherman::{Sherman, ShermanConfig};
use smart::{Smart, SmartConfig};

const OPS: u64 = 6_000;
const KEYSPACE: u64 = 1_500;

/// Xorshift64*: the op stream of the test.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

fn value(rng: &mut Rng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next() as u8).collect()
}

/// Runs the seeded mix: a growth third (mostly inserts: hops, then splits),
/// a drain third (mostly deletes: argmax recomputation, underflow, merges)
/// and a mixed third. Every result is checked against a shadow map.
fn drive(c: &mut impl RangeIndex, shadow: &mut std::collections::BTreeMap<u64, Vec<u8>>, value_size: usize, seed: u64) {
    let mut rng = Rng(seed * 2 + 1);
    for i in 0..OPS {
        let key = 1 + rng.next() % KEYSPACE;
        let (ins, upd) = match i * 3 / OPS {
            0 => (70, 20),
            1 => (15, 15),
            _ => (40, 30),
        };
        let roll = rng.next() % 100;
        if roll < ins {
            let v = value(&mut rng, value_size);
            c.insert(key, &v).unwrap();
            shadow.insert(key, v);
        } else if roll < ins + upd {
            let v = value(&mut rng, value_size);
            let hit = c.update(key, &v).unwrap();
            assert_eq!(hit, shadow.contains_key(&key), "update of {key} at op {i}");
            if hit {
                shadow.insert(key, v);
            }
        } else {
            let hit = c.delete(key).unwrap();
            assert_eq!(hit, shadow.remove(&key).is_some(), "delete of {key} at op {i}");
        }
    }
    for (k, v) in shadow.iter() {
        assert_eq!(c.search(*k).as_deref(), Some(&v[..]), "key {k} after the mix");
    }
}

/// FNV-1a over the reserved prefix and every allocated byte of every MN.
fn pool_hash(pool: &Pool) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut buf = vec![0u8; 1 << 16];
    for mn in 0..pool.num_mns() {
        let node = pool.mn(mn);
        let end = (RESERVED_BYTES + node.allocated_bytes()) as usize;
        let mut off = 0;
        while off < end {
            let n = buf.len().min(end - off);
            node.region().read(off, &mut buf[..n]);
            for &b in &buf[..n] {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
            off += n;
        }
    }
    h
}

/// `hash reads/writes/atomics/rpcs/rtts/wire_bytes` of one finished run.
fn summary(pool: &Pool, c: &impl RangeIndex) -> String {
    let s = c.stats();
    format!(
        "{:016x} {}r/{}w/{}a/{}rpc/{}rtt/{}B",
        pool_hash(pool),
        s.reads,
        s.writes,
        s.atomics,
        s.rpcs,
        s.rtts,
        s.wire_bytes
    )
}

fn small(base: ChimeConfig) -> ChimeConfig {
    ChimeConfig {
        span: 16,
        internal_span: 8,
        neighborhood: 4,
        cache_bytes: 1 << 20,
        ..base
    }
}

/// One CHIME run; returns the summary and `(splits, merges)`.
fn chime_run(cfg: ChimeConfig, seed: u64) -> (String, (u64, u64)) {
    let pool = Pool::with_defaults(1, 64 << 20);
    let tree = Chime::create(&pool, cfg, 0);
    let mut c = tree.client(&tree.new_cn());
    let mut shadow = std::collections::BTreeMap::new();
    drive(&mut c, &mut shadow, cfg.value_size, seed);
    if cfg.vacancy_piggyback {
        // Without piggybacking the lock word's argmax is not maintained.
        assert_eq!(c.check_integrity().unwrap(), shadow.len() as u64);
    }
    (summary(&pool, &c), (c.counters.splits, c.counters.merges))
}

#[rustfmt::skip]
#[test]
fn chime_write_images_match_the_recorded_constants() {
    let base = ChimeConfig::baseline();
    let piggyback = ChimeConfig { vacancy_piggyback: true, ..base };
    let replicated = ChimeConfig { metadata_replication: true, sibling_validation: true, ..piggyback };
    let runs = [
        ("baseline", small(base), "1e1db3c3513aa0e9 15233r/10537w/6253a/1rpc/14105rtt/3536237B"),
        ("+vacancy piggyback", small(piggyback), "54943fe211c121fc 17592r/10811w/6365a/1rpc/15431rtt/3184448B"),
        ("+metadata replication", small(replicated), "577d1e5f359bc959 10318r/10948w/6406a/1rpc/15639rtt/2844187B"),
        ("default", small(ChimeConfig::default()), "994c4e3dab305ebf 10303r/10871w/6404a/1rpc/15639rtt/2834600B"),
        ("indirect values", ChimeConfig { indirect_values: true, value_size: 32, ..small(ChimeConfig::default()) }, "570989ea25aa670b 11022r/14827w/6386a/1rpc/20140rtt/3271182B"),
        // The paper's geometry with entries wider than a cache line: every
        // entry covers one or two line versions.
        ("span 64, 64-byte values", ChimeConfig { value_size: 64, cache_bytes: 1 << 20, ..ChimeConfig::default() }, "9c8cfa1dbb03d296 8281r/10198w/6066a/1rpc/13505rtt/7943346B"),
    ];
    let mut bad = false;
    for (i, (name, cfg, want)) in runs.into_iter().enumerate() {
        let (got, (splits, merges)) = chime_run(cfg, 0xC41E + i as u64);
        assert!(splits > 0, "[{name}] the mix must split leaves");
        if cfg.sibling_validation && cfg.span == 16 {
            assert!(merges > 0, "[{name}] the mix must merge leaves");
        }
        if got != want {
            eprintln!("[{name}]\n   got  \"{got}\"\n   want \"{want}\"");
            bad = true;
        }
    }
    assert!(!bad, "remote image or verb totals moved");
}

/// The bulk load of the learned indexes: every third key of the keyspace,
/// each key's own bytes as its value.
fn learned_preload() -> std::collections::BTreeMap<u64, Vec<u8>> {
    (1..=KEYSPACE / 3).map(|k| (k * 3, (k * 3).to_le_bytes().to_vec())).collect()
}

/// CHIME-Learned: fence-mode leaves, synonym chains, all eight write-back
/// sites of `rolex::learned_hop`.
#[test]
fn chime_learned_write_image_matches_the_recorded_constant() {
    let pool = Pool::with_defaults(1, 64 << 20);
    let cfg = RolexConfig {
        hopscotch_leaves: true,
        ..RolexConfig::default()
    };
    let mut shadow = learned_preload();
    let items: Vec<(u64, Vec<u8>)> = shadow.iter().map(|(k, v)| (*k, v.clone())).collect();
    let index = ChimeLearned::create(&pool, cfg, &items);
    let mut c = index.client();
    drive(&mut c, &mut shadow, cfg.value_size, 0x1EA2);
    assert_eq!(summary(&pool, &c), "3e98064a07e0a325 37781r/9765w/4156a/1rpc/33247rtt/8191302B");
}

/// ROLEX: sorted leaves in one contiguous array, the model's candidate
/// window, owner-leaf edits and synonym chains grown under the owner's
/// lock; with values inline and out of line (the blocks are part of the
/// image).
#[rustfmt::skip]
#[test]
fn rolex_write_images_match_the_recorded_constants() {
    let runs = [
        ("inline", RolexConfig::default(), "e6b24d81d79f368a 31280r/11784w/4176a/1rpc/27601rtt/12325383B 71557106ns"),
        ("indirect values", RolexConfig { indirect_values: true, value_size: 32, ..RolexConfig::default() }, "c5b22c969199a447 32368r/15420w/4122a/1rpc/32370rtt/12883650B 83513273ns"),
    ];
    let mut bad = false;
    for (i, (name, cfg, want)) in runs.into_iter().enumerate() {
        let pool = Pool::with_defaults(1, 64 << 20);
        let mut shadow = learned_preload();
        let items: Vec<(u64, Vec<u8>)> = shadow.iter().map(|(k, v)| (*k, v.clone())).collect();
        let index = Rolex::create(&pool, cfg, &items);
        let mut c = index.client();
        drive(&mut c, &mut shadow, cfg.value_size, 0x201E + i as u64);
        let got = format!("{} {}ns", summary(&pool, &c), c.clock_ns());
        if got != want {
            eprintln!("[{name}]\n   got  \"{got}\"\n   want \"{want}\"");
            bad = true;
        }
    }
    assert!(!bad, "remote image or verb totals moved");
}

/// SMART: one leaf per key, copy-on-write node growth, prefix splits and
/// in-place value updates, through the CN node cache. The READ count pins
/// every cache hit; with a budget of a few dozen nodes it also pins the
/// order of LRU eviction.
#[rustfmt::skip]
#[test]
fn smart_write_images_match_the_recorded_constants() {
    let runs = [
        ("ample cache", SmartConfig::default(), "828787c104a2e707 14580r/8235w/2520a/1rpc/23484rtt/19988413B 60455106ns 6843B cached"),
        ("4 KiB cache", SmartConfig { cache_bytes: 4 << 10, ..SmartConfig::default() }, "7d5b24b1b1a3b7c0 15144r/8282w/2524a/1rpc/24125rtt/21231559B 62154599ns 3135B cached"),
    ];
    let mut bad = false;
    for (i, (name, cfg, want)) in runs.into_iter().enumerate() {
        let pool = Pool::with_defaults(1, 64 << 20);
        let tree = Smart::create(&pool, cfg, 0);
        let mut c = tree.client(&tree.new_cn());
        let mut shadow = std::collections::BTreeMap::new();
        drive(&mut c, &mut shadow, cfg.value_size, 0x5A47 + i as u64);
        let got = format!("{} {}ns {}B cached", summary(&pool, &c), c.clock_ns(), c.cache_bytes());
        if got != want {
            eprintln!("[{name}]\n   got  \"{got}\"\n   want \"{want}\"");
            bad = true;
        }
    }
    assert!(!bad, "remote image or verb totals moved");
}

/// Sherman: sorted leaves under the B+-tree internal levels. A fan-out of
/// four splits internal nodes and grows the root more than once, so the
/// constant also pins pivot up-propagation, internal splits and root
/// growth, and the virtual clock pins every charged round trip.
#[test]
fn sherman_write_image_matches_the_recorded_constant() {
    let pool = Pool::with_defaults(1, 64 << 20);
    let cfg = ShermanConfig {
        span: 8,
        internal_span: 4,
        value_size: 8,
        cache_bytes: 1 << 20,
        indirect_values: false,
    };
    let tree = Sherman::create(&pool, cfg, 0);
    let mut c = tree.client(&tree.new_cn());
    let mut shadow = std::collections::BTreeMap::new();
    drive(&mut c, &mut shadow, cfg.value_size, 0x5E4A);
    let got = format!("{} {}ns", summary(&pool, &c), c.clock_ns());
    let mut ep = Endpoint::new(Arc::clone(&pool));
    let mut slot = [0u8; 8];
    ep.read(dmem::root_slot(0), &mut slot);
    let internal = InternalOps {
        layout: InternalLayout { span: cfg.internal_span },
    };
    let root = internal.read(&mut ep, GlobalAddr::from_raw(u64::from_le_bytes(slot)));
    assert!(root.level >= 3, "the root grew only to level {}", root.level);
    assert_eq!(got, "dc602ccca5a0dc13 8721r/13118w/6322a/1rpc/21611rtt/3201032B 54808453ns");
}
