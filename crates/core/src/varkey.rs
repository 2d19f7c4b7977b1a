//! Variable-length key support (§4.5).
//!
//! CHIME stores the first 8 bytes of a variable-length key in the leaf as a
//! *fingerprint*; the full key and value live in an indirect block linked
//! from the leaf entry. On (rare) fingerprint collisions the blocks chain,
//! and a lookup fetches every linked block matching the partial key.
//!
//! [`VarKeyTree`] wraps a [`Chime`] tree configured with 8-byte indirect
//! entries: the fingerprint is the tree key, the tree value is the head
//! pointer of the block chain.
//!
//! Block layout: `[next ptr: 8][key len: 4][val len: 4][key bytes][val bytes]`.

use std::sync::Arc;

use dmem::{ChunkAlloc, GlobalAddr, IndexError, Pool, RangeIndex};

use crate::config::ChimeConfig;
use crate::tree::{Chime, ChimeClient, CnState};

/// A CHIME tree over variable-length byte-string keys.
#[derive(Clone)]
pub struct VarKeyTree {
    inner: Chime,
}

/// One client of a [`VarKeyTree`]. Its block verbs run on the tree
/// client's endpoint, so one clock and one set of counters see the whole
/// operation.
pub struct VarKeyClient {
    inner: ChimeClient,
    alloc: ChunkAlloc,
}

/// Derives the 8-byte fingerprint of a variable-length key: its first 8
/// bytes, big-endian (preserving lexicographic order for scans), with the
/// key length folded into the low bits for very short keys. Never 0.
pub fn fingerprint(key: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    let n = key.len().min(8);
    b[..n].copy_from_slice(&key[..n]);
    let fp = u64::from_be_bytes(b);
    if fp == 0 {
        1
    } else {
        fp
    }
}

impl VarKeyTree {
    /// Creates a variable-length-key tree rooted at slot `slot`.
    ///
    /// `cfg.indirect_values` is forced *off* and `cfg.value_size` to 8: the
    /// inline leaf value is the pointer to the key's block chain, which
    /// this wrapper (not the tree) reads and writes.
    pub fn create(pool: &Arc<Pool>, mut cfg: ChimeConfig, slot: u64) -> Self {
        cfg.indirect_values = false;
        cfg.value_size = 8; // the stored "value" is the chain-head pointer
        VarKeyTree {
            inner: Chime::create(pool, cfg, slot),
        }
    }

    /// Creates the shared per-CN state.
    pub fn new_cn(&self) -> Arc<CnState> {
        self.inner.new_cn()
    }

    /// Creates a client.
    pub fn client(&self, cn: &Arc<CnState>) -> VarKeyClient {
        VarKeyClient {
            inner: self.inner.client(cn),
            alloc: ChunkAlloc::sim_scaled(),
        }
    }
}

const BLOCK_HDR: usize = 16;

impl VarKeyClient {
    fn write_block(
        &mut self,
        key: &[u8],
        value: &[u8],
        next: GlobalAddr,
    ) -> Result<GlobalAddr, IndexError> {
        let len = BLOCK_HDR + key.len() + value.len();
        let ep = self.inner.endpoint_mut();
        let addr = self.alloc.alloc(ep, len as u64)?;
        let mut b = Vec::with_capacity(len);
        b.extend_from_slice(&next.raw().to_le_bytes());
        b.extend_from_slice(&(key.len() as u32).to_le_bytes());
        b.extend_from_slice(&(value.len() as u32).to_le_bytes());
        b.extend_from_slice(key);
        b.extend_from_slice(value);
        ep.write(addr, &b);
        Ok(addr)
    }

    /// Reads a block: `(next, key, value)`.
    fn read_block(&mut self, addr: GlobalAddr) -> (GlobalAddr, Vec<u8>, Vec<u8>) {
        let ep = self.inner.endpoint_mut();
        let mut hdr = [0u8; BLOCK_HDR];
        ep.read(addr, &mut hdr);
        let next = GlobalAddr::from_raw(u64::from_le_bytes(hdr[0..8].try_into().unwrap()));
        let klen = u32::from_le_bytes(hdr[8..12].try_into().unwrap()) as usize;
        let vlen = u32::from_le_bytes(hdr[12..16].try_into().unwrap()) as usize;
        let mut body = vec![0u8; klen + vlen];
        ep.read(addr.add(BLOCK_HDR as u64), &mut body);
        let value = body.split_off(klen);
        (next, body, value)
    }

    fn chain_head(&mut self, fp: u64) -> Option<GlobalAddr> {
        let stored = self.inner.search(fp)?;
        Some(GlobalAddr::from_raw(u64::from_le_bytes(
            stored[..8].try_into().unwrap(),
        )))
    }

    /// Inserts (or overwrites) a variable-length key.
    pub fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<(), IndexError> {
        assert!(!key.is_empty());
        let fp = fingerprint(key);
        // Walk the existing chain; rewrite it with the key replaced or
        // prepended (blocks are immutable once published, so readers racing
        // us keep a consistent view of the old chain).
        let mut items: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        if let Some(mut cur) = self.chain_head(fp) {
            while !cur.is_null() {
                let (next, k, v) = self.read_block(cur);
                if k != key {
                    items.push((k, v));
                }
                cur = next;
            }
        } else {
            // Fresh fingerprint: single block, one tree insert.
            let head = self.write_block(key, value, GlobalAddr::NULL)?;
            return self.inner.insert(fp, &head.raw().to_le_bytes());
        }
        items.push((key.to_vec(), value.to_vec()));
        let mut next = GlobalAddr::NULL;
        for (k, v) in items.iter().rev() {
            next = self.write_block(k, v, next)?;
        }
        self.inner.insert(fp, &next.raw().to_le_bytes())
    }

    /// Looks up a variable-length key.
    pub fn search(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        let fp = fingerprint(key);
        let mut cur = self.chain_head(fp)?;
        // Fingerprint collisions are rare; the chain is almost always one
        // block (the paper fetches all matching blocks).
        while !cur.is_null() {
            let (next, k, v) = self.read_block(cur);
            if k == key {
                return Some(v);
            }
            cur = next;
        }
        None
    }

    /// Deletes a variable-length key; returns whether it was present.
    pub fn delete(&mut self, key: &[u8]) -> Result<bool, IndexError> {
        let fp = fingerprint(key);
        let Some(head) = self.chain_head(fp) else {
            return Ok(false);
        };
        let mut items: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut found = false;
        let mut cur = head;
        while !cur.is_null() {
            let (next, k, v) = self.read_block(cur);
            if k == key {
                found = true;
            } else {
                items.push((k, v));
            }
            cur = next;
        }
        if !found {
            return Ok(false);
        }
        if items.is_empty() {
            self.inner.delete(fp)?;
            return Ok(true);
        }
        let mut next = GlobalAddr::NULL;
        for (k, v) in items.iter().rev() {
            next = self.write_block(k, v, next)?;
        }
        self.inner.insert(fp, &next.raw().to_le_bytes())?;
        Ok(true)
    }

    /// Scans up to `count` keys lexicographically from `start` (inclusive).
    ///
    /// Fingerprints preserve the order of the first 8 key bytes; ties are
    /// resolved by fetching the blocks and sorting the full keys.
    pub fn scan(&mut self, start: &[u8], count: usize, out: &mut Vec<(Vec<u8>, Vec<u8>)>) {
        if count == 0 {
            return;
        }
        let fp = fingerprint(start);
        let mut heads = Vec::new();
        self.inner.scan(fp, count + 8, &mut heads);
        let mut collected: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for (_, stored) in heads {
            let mut cur =
                GlobalAddr::from_raw(u64::from_le_bytes(stored[..8].try_into().unwrap()));
            while !cur.is_null() {
                let (next, k, v) = self.read_block(cur);
                if k.as_slice() >= start {
                    collected.push((k, v));
                }
                cur = next;
            }
        }
        collected.sort();
        collected.truncate(count);
        out.extend(collected);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmem::ClientStats;

    fn mk() -> (VarKeyTree, VarKeyClient) {
        let pool = Pool::with_defaults(1, 256 << 20);
        let t = VarKeyTree::create(&pool, ChimeConfig::default(), 0);
        let cn = t.new_cn();
        let c = t.client(&cn);
        (t, c)
    }

    /// What `op` adds to the tree client's endpoint: counters and clock.
    fn cost(c: &mut VarKeyClient, op: impl FnOnce(&mut VarKeyClient)) -> (ClientStats, u64) {
        let (stats, clock) = (c.inner.stats().clone(), c.inner.clock_ns());
        op(c);
        (c.inner.stats().since(&stats), c.inner.clock_ns() - clock)
    }

    #[test]
    fn block_verbs_run_on_the_tree_clients_endpoint() {
        // `twin` runs only the tree half of each operation. `c`'s tree
        // client must also count and clock the block WRITE of a fresh-key
        // insert and the block READs (header, body) of its search.
        let (_t, mut c) = mk();
        let (_u, mut twin) = mk();
        let (key, value) = (b"fresh/key".as_slice(), vec![0x5Au8; 1_000]);
        let fp = fingerprint(key);

        let (tree, tree_ns) = cost(&mut twin, |t| t.inner.insert(fp, &[0u8; 8]).unwrap());
        let (ins, ins_ns) = cost(&mut c, |c| c.insert(key, &value).unwrap());
        assert_eq!(ins.writes, tree.writes + 1, "the block WRITE");
        assert!(ins.wire_bytes > tree.wire_bytes + value.len() as u64);
        assert!(ins_ns > tree_ns);

        let (tree, tree_ns) = cost(&mut twin, |t| assert!(t.inner.search(fp).is_some()));
        let (get, get_ns) = cost(&mut c, |c| assert_eq!(c.search(key), Some(value.clone())));
        assert_eq!(get.reads, tree.reads + 2, "the block header and body READs");
        assert!(get.wire_bytes > tree.wire_bytes + value.len() as u64);
        assert!(get_ns > tree_ns);
    }

    #[test]
    fn insert_search_string_keys() {
        let (_t, mut c) = mk();
        for i in 0..500u32 {
            let k = format!("user{i:06}/profile");
            c.insert(k.as_bytes(), format!("value-{i}").as_bytes())
                .unwrap();
        }
        for i in 0..500u32 {
            let k = format!("user{i:06}/profile");
            assert_eq!(
                c.search(k.as_bytes()),
                Some(format!("value-{i}").into_bytes()),
                "{k}"
            );
        }
        assert_eq!(c.search(b"missing"), None);
    }

    #[test]
    fn fingerprint_collisions_chain() {
        let (_t, mut c) = mk();
        // Keys sharing the same first 8 bytes collide on the fingerprint.
        let keys: Vec<Vec<u8>> = (0..20u8)
            .map(|i| {
                let mut k = b"SAMEPREF".to_vec();
                k.push(i);
                k
            })
            .collect();
        for (i, k) in keys.iter().enumerate() {
            c.insert(k, &[i as u8; 4]).unwrap();
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(c.search(k), Some(vec![i as u8; 4]), "collision {i}");
        }
        // Overwrite one colliding key; the others survive.
        c.insert(&keys[7], b"new").unwrap();
        assert_eq!(c.search(&keys[7]), Some(b"new".to_vec()));
        assert_eq!(c.search(&keys[8]), Some(vec![8u8; 4]));
    }

    #[test]
    fn delete_from_chain() {
        let (_t, mut c) = mk();
        let keys: Vec<Vec<u8>> = (0..5u8)
            .map(|i| {
                let mut k = b"COLLIDE!".to_vec();
                k.push(i);
                k
            })
            .collect();
        for k in &keys {
            c.insert(k, b"v").unwrap();
        }
        assert!(c.delete(&keys[2]).unwrap());
        assert!(!c.delete(&keys[2]).unwrap());
        assert_eq!(c.search(&keys[2]), None);
        for (i, k) in keys.iter().enumerate() {
            if i != 2 {
                assert_eq!(c.search(k), Some(b"v".to_vec()), "survivor {i}");
            }
        }
        // Deleting the rest empties the fingerprint entirely.
        for (i, k) in keys.iter().enumerate() {
            if i != 2 {
                assert!(c.delete(k).unwrap());
            }
        }
        assert_eq!(c.search(&keys[0]), None);
    }

    #[test]
    fn lexicographic_scan() {
        let (_t, mut c) = mk();
        let names = ["alice", "bob", "carol", "dave", "erin", "frank"];
        for (i, n) in names.iter().enumerate() {
            c.insert(n.as_bytes(), &[i as u8]).unwrap();
        }
        let mut out = Vec::new();
        c.scan(b"bob", 3, &mut out);
        let got: Vec<&[u8]> = out.iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(got, vec![b"bob".as_slice(), b"carol", b"dave"]);
    }

    #[test]
    fn long_keys_and_values() {
        let (_t, mut c) = mk();
        let key = vec![0xABu8; 300];
        let val = vec![0xCDu8; 4_000];
        c.insert(&key, &val).unwrap();
        assert_eq!(c.search(&key), Some(val));
    }
}
