//! The partition router: a [`RangeIndex`] facade over one tree per range.
//!
//! A [`Cluster`] owns `P` pinned CHIME trees, one per partition, and the
//! remote routing table ([`crate::layout`]). Each [`RouterClient`] drives a
//! single [`chime::ChimeClient`] — one endpoint, one virtual clock, one
//! phase profile — and swaps per-partition [`chime::TreeBinding`]s through
//! it as keys route, so the cost of serving the whole key space lands on
//! one honest timeline.
//!
//! Routing state is epoch-versioned: partition *bounds* are static (lookup
//! is pure CN-side arithmetic), only *homes* change. Every `check_every`
//! operations a client reads the remote epoch word ([`obs::Phase::Route`]
//! time); on a mismatch it re-reads the home words in one contiguous read
//! and re-pins its allocators. A client running between a migration's
//! publish and its own refresh keeps allocating on the old home — that is
//! the modeled cost of stale routing, not a correctness hazard: reads and
//! writes follow the live root slot and forwarding tombstones regardless.
//! Scans concatenate across partition boundaries in key order.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use chime::{Chime, ChimeClient, ChimeConfig, CnState, TreeBinding};
use dmem::{Endpoint, IndexError, Pool, RangeIndex, Rows};
use obs::Phase;

use crate::layout;
use crate::map::PartitionMap;
use crate::migrate::{self, MigrateError};

/// Scale-out deployment knobs.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of range partitions (each a pinned tree).
    pub parts: usize,
    /// Per-tree CHIME geometry and budgets. Deployments dividing a fixed
    /// CN cache budget over partitions scale `cache_bytes` down by `parts`.
    pub chime: ChimeConfig,
    /// Operations between remote routing-epoch checks.
    pub check_every: u64,
    /// Hotspot migration policy; `None` disables the migrator.
    pub migrate: Option<MigrateConfig>,
}

/// When and how aggressively the rebalancer moves partitions.
#[derive(Debug, Clone, Copy)]
pub struct MigrateConfig {
    /// Operations between rebalance evaluations (rebalancer-local).
    pub check_every: u64,
    /// Minimum routed operations in the traffic window before any verdict.
    pub min_window: u64,
    /// Trigger: hottest MN's window share must exceed `imbalance / mns`.
    pub imbalance: f64,
}

/// Shared routing and migration counters, mirrored into the metrics
/// snapshot by the bench layer.
#[derive(Debug)]
pub struct RouterStats {
    /// Routed operations (every op resolves through the table).
    pub route_hits: AtomicU64,
    /// Epoch checks that found the local table stale.
    pub route_stale_epoch: AtomicU64,
    /// Full home-word refreshes performed.
    pub route_refreshes: AtomicU64,
    /// Completed migrations.
    pub migrations: AtomicU64,
    /// Leaves moved by completed migrations.
    pub migrate_leaves_moved: AtomicU64,
    /// Items moved by completed migrations.
    pub migrate_items_moved: AtomicU64,
    /// Lifetime routed operations per partition.
    pub part_ops: Vec<AtomicU64>,
    /// Windowed per-partition traffic, reset after each migration.
    window_ops: Vec<AtomicU64>,
}

impl RouterStats {
    fn new(parts: usize) -> Self {
        RouterStats {
            route_hits: AtomicU64::new(0),
            route_stale_epoch: AtomicU64::new(0),
            route_refreshes: AtomicU64::new(0),
            migrations: AtomicU64::new(0),
            migrate_leaves_moved: AtomicU64::new(0),
            migrate_items_moved: AtomicU64::new(0),
            part_ops: (0..parts).map(|_| AtomicU64::new(0)).collect(),
            window_ops: (0..parts).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Snapshot of the migration traffic window, in partition order.
    pub fn window(&self) -> Vec<u64> {
        self.window_ops
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Clears the migration traffic window. The rebalancer resets it after
    /// every migration; harnesses reset it after preload so the measured
    /// phase starts with a clean traffic profile.
    pub fn reset_window(&self) {
        for c in &self.window_ops {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// A partitioned CHIME deployment: `P` pinned trees plus the remote
/// routing table that lets any CN find them.
pub struct Cluster {
    pool: Arc<Pool>,
    cfg: ClusterConfig,
    map: PartitionMap,
    trees: Vec<Chime>,
    stats: Arc<RouterStats>,
    rebalancer_claimed: AtomicBool,
}

impl Cluster {
    /// Creates the partitioned deployment: bootstraps one pinned tree per
    /// partition (round-robin homes) and publishes the routing table —
    /// epoch 1, the home words, a free migration lock and a zeroed
    /// journal — to MN 0's reserved region.
    pub fn create(pool: &Arc<Pool>, cfg: ClusterConfig) -> Arc<Cluster> {
        assert!(cfg.parts >= 1 && cfg.parts <= layout::MAX_PARTS);
        assert!(cfg.check_every >= 1);
        let map = PartitionMap::new_even(cfg.parts, pool.num_mns());
        let trees: Vec<Chime> = (0..cfg.parts)
            .map(|i| Chime::create_pinned(pool, cfg.chime, layout::tree_slot(i), map.home(i)))
            .collect();
        let mut ctl = Endpoint::new(Arc::clone(pool));
        // Table contents first (lock word, journal, homes), the epoch word
        // last, as `publish_routing` does under `part_lock`: nothing may
        // observe a live epoch over unwritten home words. No CN exists yet,
        // so this bootstrap write needs no lock.
        ctl.write(layout::part_lock_addr(), &0u64.to_le_bytes());
        ctl.write(layout::journal_addr(), &[0u8; 32]);
        ctl.write(layout::scratch_addr(), &0u64.to_le_bytes());
        let homes: Vec<u8> = map
            .homes()
            .iter()
            .flat_map(|&mn| (mn as u64).to_le_bytes())
            .collect();
        ctl.write(layout::home_addr(0), &homes);
        ctl.write(layout::route_epoch_addr(), &1u64.to_le_bytes());
        let stats = Arc::new(RouterStats::new(cfg.parts));
        Arc::new(Cluster {
            pool: Arc::clone(pool),
            cfg,
            map,
            trees,
            stats,
            rebalancer_claimed: AtomicBool::new(false),
        })
    }

    /// The deployment's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The static partition map as created (bounds are authoritative;
    /// homes reflect the *initial* placement — live homes are the remote
    /// words).
    pub fn map(&self) -> &PartitionMap {
        &self.map
    }

    /// Partition `p`'s tree handle.
    pub fn tree(&self, p: usize) -> &Chime {
        &self.trees[p]
    }

    /// The backing pool.
    pub fn pool(&self) -> &Arc<Pool> {
        &self.pool
    }

    /// Shared routing/migration counters.
    pub fn stats(&self) -> &Arc<RouterStats> {
        &self.stats
    }

    /// Creates the per-compute-node state: one CHIME CN state (cache,
    /// hotspot buffer, lock table) per partition.
    pub fn new_cn(&self) -> PartCn {
        PartCn {
            states: self.trees.iter().map(|t| t.new_cn()).collect(),
        }
    }

    /// Creates a routed client on compute node `cn`. With migration
    /// enabled, the first client created cluster-wide becomes the
    /// rebalancer: it evaluates traffic windows and runs migrations
    /// synchronously inside its own operation stream (so migration cost
    /// is charged to a real client's timeline, not hidden).
    pub fn client(self: &Arc<Cluster>, cn: &PartCn) -> RouterClient {
        assert_eq!(cn.states.len(), self.cfg.parts);
        let client = self.trees[0].client_pinned(&cn.states[0], self.map.home(0));
        let bindings = (0..self.cfg.parts)
            .map(|p| {
                (p != 0).then(|| self.trees[p].binding(&cn.states[p], Some(self.map.home(p))))
            })
            .collect();
        let rebalancer = self.cfg.migrate.is_some()
            && !self.rebalancer_claimed.swap(true, Ordering::Relaxed);
        RouterClient {
            cluster: Arc::clone(self),
            cns: cn.states.clone(),
            client,
            bindings,
            mounted: 0,
            epoch: 1,
            homes: self.map.homes().to_vec(),
            ops: 0,
            ctl: rebalancer.then(|| Endpoint::new(Arc::clone(&self.pool))),
        }
    }
}

/// Per-compute-node state of a partitioned deployment.
pub struct PartCn {
    states: Vec<Arc<CnState>>,
}

impl PartCn {
    /// The per-partition CHIME CN states (cache/hotspot probes).
    pub fn states(&self) -> &[Arc<CnState>] {
        &self.states
    }
}

/// One logical client of a partitioned deployment; implements
/// [`RangeIndex`] by routing each operation to its partition's tree.
pub struct RouterClient {
    cluster: Arc<Cluster>,
    cns: Vec<Arc<CnState>>,
    client: ChimeClient,
    /// Detached bindings; `None` exactly at `mounted`.
    bindings: Vec<Option<TreeBinding>>,
    mounted: usize,
    /// CN-cached routing epoch and home words.
    epoch: u64,
    homes: Vec<u16>,
    /// Routed operations issued by this client.
    ops: u64,
    /// The rebalancer's control endpoint; `None` for ordinary clients.
    ctl: Option<Endpoint>,
}

impl RouterClient {
    /// True for the one client that runs migrations.
    pub fn is_rebalancer(&self) -> bool {
        self.ctl.is_some()
    }

    /// This client's cached routing table (epoch, homes).
    pub fn routing_table(&self) -> (u64, &[u16]) {
        (self.epoch, &self.homes)
    }

    /// Swaps partition `p`'s tree binding into the operating client.
    fn mount(&mut self, p: usize) {
        if p != self.mounted {
            let b = self.bindings[p].take().expect("binding parked");
            let prev = self.client.rebind(b);
            self.bindings[self.mounted] = Some(prev);
            self.mounted = p;
        }
        self.client.retarget_alloc(self.homes[p]);
    }

    /// Checks the remote routing epoch every `check_every` ops; on a
    /// mismatch, refreshes the home words in one contiguous read.
    fn maybe_refresh(&mut self) {
        if !self.ops.is_multiple_of(self.cluster.cfg.check_every) {
            return;
        }
        let mut word = [0u8; 8];
        self.client.read_raw(layout::route_epoch_addr(), &mut word, Phase::Route);
        let remote = u64::from_le_bytes(word);
        if remote == self.epoch {
            return;
        }
        self.cluster.stats.route_stale_epoch.fetch_add(1, Ordering::Relaxed);
        let mut buf = vec![0u8; self.cluster.cfg.parts * 8];
        self.client.read_raw(layout::home_addr(0), &mut buf, Phase::Route);
        for (p, w) in buf.chunks_exact(8).enumerate() {
            self.homes[p] = u64::from_le_bytes(w.try_into().unwrap()) as u16;
        }
        self.epoch = remote;
        self.cluster.stats.route_refreshes.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one routed operation on the partition of `key`, refreshing
    /// the routing table when due; returns the partition.
    fn route(&mut self, key: u64) -> usize {
        self.ops += 1;
        self.maybe_refresh();
        let p = self.cluster.map.lookup(key);
        let stats = &self.cluster.stats;
        stats.route_hits.fetch_add(1, Ordering::Relaxed);
        stats.part_ops[p].fetch_add(1, Ordering::Relaxed);
        stats.window_ops[p].fetch_add(1, Ordering::Relaxed);
        p
    }

    /// Routes one point operation: resolve key → partition, account the
    /// hit, mount the partition's binding, run, then (rebalancer only)
    /// evaluate the migration policy.
    fn routed<R>(&mut self, key: u64, f: impl FnOnce(&mut ChimeClient) -> R) -> R {
        let p = self.route(key);
        self.mount(p);
        let r = f(&mut self.client);
        if self.ctl.is_some() {
            self.maybe_rebalance();
        }
        r
    }

    /// The rebalancer's policy: every `check_every` of its ops, find the
    /// hottest MN in the traffic window. If its share exceeds the
    /// configured imbalance over the uniform share and it homes more than
    /// one partition, off-load the *coldest* partition it homes onto the
    /// least-loaded MN — peeling cold ranges away isolates the hot keys
    /// over successive windows without ping-ponging the hot range itself.
    fn maybe_rebalance(&mut self) {
        let mig = self.cluster.cfg.migrate.expect("rebalancer without policy");
        if !self.ops.is_multiple_of(mig.check_every) {
            return;
        }
        let window = self.cluster.stats.window();
        let total: u64 = window.iter().sum();
        if total < mig.min_window {
            return;
        }
        // The rebalancer publishes migrations itself, so its table is
        // authoritative once refreshed; refresh cheaply from local state.
        let mns = self.cluster.pool.num_mns() as usize;
        let mut load = vec![0u64; mns];
        for (p, &w) in window.iter().enumerate() {
            load[self.homes[p] as usize] += w;
        }
        let hot = (0..mns).max_by_key(|&m| (load[m], m)).unwrap();
        let cold = (0..mns).min_by_key(|&m| (load[m], m)).unwrap();
        if hot == cold {
            return;
        }
        let mean = total as f64 / mns as f64;
        if (load[hot] as f64) < mig.imbalance * mean {
            return;
        }
        let victim = (0..window.len())
            .filter(|&p| self.homes[p] as usize == hot)
            .min_by_key(|&p| (window[p], p));
        let Some(victim) = victim else { return };
        let on_hot = self
            .homes
            .iter()
            .filter(|&&h| h as usize == hot)
            .count();
        if on_hot <= 1 {
            // Moving the only partition just moves the hotspot; splitting
            // ranges is future work (bounds are static in this design).
            return;
        }
        self.run_migration(victim, cold as u16);
    }

    /// Runs one migration synchronously on this client's timeline.
    fn run_migration(&mut self, victim: usize, target: u16) {
        self.mount(victim);
        let mut ctl = self.ctl.take().expect("rebalancer endpoint");
        // One timeline: the control endpoint joins the client's clock, and
        // the client later absorbs the migration's elapsed virtual time.
        let now = self.client.clock_ns();
        if now > ctl.clock_ns() {
            ctl.advance_clock(now - ctl.clock_ns());
        }
        let r = migrate::migrate(&self.cluster, victim, target, &mut ctl, &mut self.client);
        self.client.sync_clock_to(ctl.clock_ns());
        self.ctl = Some(ctl);
        match r {
            Ok(report) => {
                self.homes[victim] = target;
                self.epoch += 1;
                let stats = &self.cluster.stats;
                stats.migrations.fetch_add(1, Ordering::Relaxed);
                stats
                    .migrate_leaves_moved
                    .fetch_add(report.leaves, Ordering::Relaxed);
                stats
                    .migrate_items_moved
                    .fetch_add(report.items, Ordering::Relaxed);
                stats.reset_window();
            }
            Err(MigrateError::Busy) => {}
            Err(MigrateError::Index(e)) => {
                panic!("migration of partition {victim} failed: {e}")
            }
        }
    }

    /// Scans forward across partition boundaries: partitions are ranges,
    /// so the per-tree scans concatenate in key order.
    fn scan_routed(&mut self, start: u64, count: usize, rows: &mut Rows) {
        let mut p = self.route(start);
        let (mut from, base) = (start, rows.len());
        loop {
            self.mount(p);
            self.client
                .scan_rows(from, count - (rows.len() - base), rows);
            if rows.len() - base >= count || p + 1 >= self.cluster.cfg.parts {
                break;
            }
            let (_, hi) = self.cluster.map.bounds(p);
            if hi == u64::MAX {
                break;
            }
            p += 1;
            from = hi + 1;
        }
    }
}

impl RangeIndex for RouterClient {
    fn insert(&mut self, key: u64, value: &[u8]) -> Result<(), IndexError> {
        self.routed(key, |c| c.insert(key, value))
    }

    fn search_into(&mut self, key: u64, value: &mut Vec<u8>) -> bool {
        self.routed(key, |c| c.search_into(key, value))
    }

    fn update(&mut self, key: u64, value: &[u8]) -> Result<bool, IndexError> {
        self.routed(key, |c| c.update(key, value))
    }

    fn delete(&mut self, key: u64) -> Result<bool, IndexError> {
        self.routed(key, |c| c.delete(key))
    }

    fn scan_rows(&mut self, start: u64, count: usize, rows: &mut Rows) {
        self.scan_routed(start, count, rows)
    }

    fn endpoint(&self) -> &dmem::Endpoint {
        self.client.endpoint()
    }

    fn endpoint_mut(&mut self) -> &mut dmem::Endpoint {
        self.client.endpoint_mut()
    }

    fn cache_bytes(&self) -> u64 {
        self.cns.iter().map(|cn| cn.cache_bytes()).sum()
    }
}
