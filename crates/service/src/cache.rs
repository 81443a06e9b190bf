//! Sharded LRU result cache with single-flight deduplication and
//! revalidation across weight updates.
//!
//! A completed entry is keyed by the *normalized* query `(algorithm,
//! sources, targets, k)` — timeouts are intentionally not part of the
//! key: a cached answer is the full answer, valid whatever deadline the
//! asker had in mind. The graph epoch is **not** part of the key. Each
//! entry instead carries `valid_at`, the newest epoch it is known to be a
//! correct top-k on, and a request pinned at epoch `e` decides on read:
//!
//! * `valid_at == e` is a plain hit;
//! * `valid_at < e`, at most [`RING_BATCHES`] batches back: the caller's
//!   revalidation closure judges the update batches in between
//!   (`KpjService` checks them against the answer's arcs and the pinned
//!   epoch's lower bounds). A [`Verdict::Kept`] entry is re-stamped to
//!   `e` and served; any other verdict removes it and the request misses;
//! * anything else — a gap wider than the ring ([`Verdict::TooOld`]) or a
//!   request pinned *older* than `valid_at` — is a miss that leaves the
//!   entry alone. A request is never served an answer from a newer epoch
//!   than the one it pinned.
//!
//! The closure runs with no shard lock held. [`ResultCache::purge_stale`]
//! reaps entries more than [`RING_BATCHES`] behind the serving epoch: no
//! request can revalidate them any more, so the ring also bounds how long
//! an unread answer stays resident.
//!
//! Single-flight: the first miss for a query *on an epoch* installs a
//! [`Flight`] slot keyed by `(epoch, query)` and gets back an
//! [`InFlight`] token obligating it to compute and publish. Concurrent
//! requests for the same query pinned at the same epoch block on the
//! flight instead of duplicating the (potentially expensive)
//! k-shortest-path computation; a request pinned at another epoch never
//! shares it. If the owner fails — deadline, overload, panic — the error
//! is broadcast to the waiters and the slot is removed, so the *next*
//! request retries fresh rather than caching a failure. A completed
//! flight becomes the query's entry unless a newer-epoch entry is
//! already resident.
//!
//! Eviction is approximate LRU per shard: each shard keeps a monotonically
//! increasing tick, stamps entries on touch, and when over budget evicts
//! the lowest-stamped entries (in-flight slots are never evicted; they are
//! bounded by pool admission control).

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use kpj_core::Algorithm;
use kpj_graph::NodeId;

use crate::metrics::{gauge, Metrics};
use crate::service::Answer;
use crate::ServiceError;

/// Number of independently locked shards (power of two).
const SHARDS: usize = 16;

/// Update batches a cached answer can be revalidated across, and so the
/// most batches an unread entry outlives. The service keeps the deltas of
/// exactly this many published batches.
pub const RING_BATCHES: u64 = 32;

/// Normalized query key. Construct via [`CacheKey::new`] so that the
/// source/target sets are deduplicated and order-insensitive.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    algorithm: Algorithm,
    sources: Vec<NodeId>,
    targets: Vec<NodeId>,
    k: usize,
}

impl CacheKey {
    /// Build a key; sorts and dedups the node sets so `{1,2}` and
    /// `{2,1,2}` address the same entry.
    pub fn new(algorithm: Algorithm, sources: &[NodeId], targets: &[NodeId], k: usize) -> CacheKey {
        let mut sources = sources.to_vec();
        sources.sort_unstable();
        sources.dedup();
        let mut targets = targets.to_vec();
        targets.sort_unstable();
        targets.dedup();
        CacheKey {
            algorithm,
            sources,
            targets,
            k,
        }
    }

    /// The normalized source set.
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// The normalized target set.
    pub fn targets(&self) -> &[NodeId] {
        &self.targets
    }

    /// The number of paths asked for.
    pub fn k(&self) -> usize {
        self.k
    }
}

/// How the revalidation of an entry from an older epoch ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every batch in between passed: the entry is re-stamped and served.
    Kept,
    /// A changed arc lies on one of the answer's paths.
    OnPath,
    /// A cheaper arc might carry a path shorter than the k-th length.
    Decrease,
    /// The entry is more than [`RING_BATCHES`] batches behind.
    TooOld,
}

impl Verdict {
    /// Every verdict, in metrics-label order.
    pub const ALL: [Verdict; 4] = [
        Verdict::Kept,
        Verdict::OnPath,
        Verdict::Decrease,
        Verdict::TooOld,
    ];

    /// The metrics label.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Kept => "kept",
            Verdict::OnPath => "on_path",
            Verdict::Decrease => "decrease",
            Verdict::TooOld => "too_old",
        }
    }
}

/// A computation other requests can wait on.
struct Flight {
    outcome: Mutex<Option<Result<Arc<Answer>, ServiceError>>>,
    done: Condvar,
}

impl Flight {
    fn wait(&self) -> Result<Arc<Answer>, ServiceError> {
        let mut guard = self.outcome.lock().unwrap();
        loop {
            if let Some(outcome) = guard.as_ref() {
                return outcome.clone();
            }
            guard = self.done.wait(guard).unwrap();
        }
    }

    fn publish(&self, outcome: Result<Arc<Answer>, ServiceError>) {
        let mut guard = self.outcome.lock().unwrap();
        if guard.is_none() {
            *guard = Some(outcome);
            self.done.notify_all();
        }
    }
}

/// A completed entry.
struct Ready {
    value: Arc<Answer>,
    /// The newest epoch `value` is known to be a correct answer on.
    valid_at: u64,
    stamp: u64,
}

struct Shard {
    ready: HashMap<CacheKey, Ready>,
    flights: HashMap<(u64, CacheKey), Arc<Flight>>,
    tick: u64,
}

/// Outcome of a cache lookup.
pub enum Lookup {
    /// Completed entry valid on the request's epoch — serve immediately.
    Hit(Arc<Answer>),
    /// Nobody is computing this query on this epoch; the caller now owns
    /// the flight and MUST resolve the returned [`InFlight`] token.
    Miss(InFlight),
    /// Someone else is computing; block on [`SharedFlight::wait`].
    Shared(SharedFlight),
}

/// A flight owned by another request.
pub struct SharedFlight {
    flight: Arc<Flight>,
}

impl SharedFlight {
    /// Block until the owning request publishes its outcome.
    pub fn wait(self) -> Result<Arc<Answer>, ServiceError> {
        self.flight.wait()
    }
}

/// Obligation token for the single request that must compute a query on
/// its epoch.
///
/// Resolve with [`complete`](InFlight::complete) or
/// [`fail`](InFlight::fail); dropping it unresolved (e.g. on panic in the
/// caller) broadcasts an internal error so waiters never hang.
pub struct InFlight {
    cache: Arc<CacheInner>,
    key: (u64, CacheKey),
    flight: Arc<Flight>,
    resolved: bool,
}

impl InFlight {
    /// Publish a successful result: waiters are woken and the entry
    /// becomes a [`Lookup::Hit`] for future requests on the flight's
    /// epoch.
    pub fn complete(mut self, value: Arc<Answer>) {
        self.resolved = true;
        self.cache
            .finish(&self.key, Ok(Arc::clone(&value)), &self.flight);
    }

    /// Broadcast a failure and drop the slot; the next request for this
    /// key will recompute.
    pub fn fail(mut self, error: ServiceError) {
        self.resolved = true;
        self.cache.finish(&self.key, Err(error), &self.flight);
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        if !self.resolved {
            self.cache.finish(
                &self.key,
                Err(ServiceError::Internal(
                    "in-flight query abandoned".to_string(),
                )),
                &self.flight,
            );
        }
    }
}

struct CacheInner {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    /// Sink for eviction accounting (`cache_evictions` only ever climbs,
    /// making the gauge a cumulative counter with a peak mirror) and for
    /// revalidation verdicts.
    metrics: Option<Arc<Metrics>>,
}

impl CacheInner {
    fn shard_of(&self, key: &CacheKey) -> &Mutex<Shard> {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % SHARDS]
    }

    fn finish(
        &self,
        key: &(u64, CacheKey),
        outcome: Result<Arc<Answer>, ServiceError>,
        flight: &Arc<Flight>,
    ) {
        {
            let (epoch, query) = key;
            let mut shard = self.shard_of(query).lock().unwrap();
            // Remove our Pending slot; leave foreign slots alone (a
            // failed flight's key may have been re-claimed already).
            let ours = matches!(shard.flights.get(key), Some(f) if Arc::ptr_eq(f, flight));
            if ours {
                shard.flights.remove(key);
                if let Ok(value) = &outcome {
                    shard.tick += 1;
                    let stamp = shard.tick;
                    // A newer-epoch entry stays: later requests pin newer
                    // epochs, never older ones.
                    let newer = shard.ready.get(query).is_some_and(|r| r.valid_at > *epoch);
                    if !newer {
                        shard.ready.insert(
                            query.clone(),
                            Ready {
                                value: Arc::clone(value),
                                valid_at: *epoch,
                                stamp,
                            },
                        );
                        self.evict_locked(&mut shard);
                    }
                }
            }
        }
        flight.publish(outcome);
    }

    /// Evict lowest-stamped entries until within budget. Holding the
    /// shard lock; O(n) scans are fine at cache scale.
    fn evict_locked(&self, shard: &mut Shard) {
        while shard.ready.len() > self.capacity_per_shard {
            let victim = shard
                .ready
                .iter()
                .min_by_key(|(_, r)| r.stamp)
                .map(|(k, _)| k.clone());
            let Some(k) = victim else { break };
            shard.ready.remove(&k);
            if let Some(metrics) = &self.metrics {
                metrics.gauges().add(gauge::CACHE_EVICTIONS, 1);
            }
        }
    }

    fn record(&self, verdict: Verdict) {
        if let Some(metrics) = &self.metrics {
            metrics.record_revalidation(verdict);
        }
    }
}

/// The sharded result cache.
pub struct ResultCache {
    inner: Arc<CacheInner>,
}

impl ResultCache {
    /// A cache holding up to ~`capacity` completed results (rounded up
    /// to a multiple of the shard count).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache::with_metrics(capacity, None)
    }

    /// [`new`](ResultCache::new) with a metrics sink for eviction and
    /// revalidation accounting.
    pub fn with_metrics(capacity: usize, metrics: Option<Arc<Metrics>>) -> ResultCache {
        let capacity_per_shard = capacity.div_ceil(SHARDS).max(1);
        ResultCache {
            inner: Arc::new(CacheInner {
                shards: (0..SHARDS)
                    .map(|_| {
                        Mutex::new(Shard {
                            ready: HashMap::new(),
                            flights: HashMap::new(),
                            tick: 0,
                        })
                    })
                    .collect(),
                capacity_per_shard,
                metrics,
            }),
        }
    }

    /// Look up `key` for a request pinned at `epoch`, claiming the flight
    /// on a miss. An entry from at most [`RING_BATCHES`] epochs back is
    /// handed to `revalidate` together with its `valid_at`, with no lock
    /// held; see the module docs for what each verdict does.
    pub fn lookup(
        &self,
        key: &CacheKey,
        epoch: u64,
        revalidate: impl FnOnce(&Answer, u64) -> Verdict,
    ) -> Lookup {
        let lock = self.inner.shard_of(key);
        let mut shard = lock.lock().unwrap();
        shard.tick += 1;
        let tick = shard.tick;
        let stale = match shard.ready.get_mut(key) {
            Some(ready) if ready.valid_at == epoch => {
                ready.stamp = tick;
                return Lookup::Hit(Arc::clone(&ready.value));
            }
            Some(ready) if ready.valid_at < epoch => {
                if epoch - ready.valid_at > RING_BATCHES {
                    self.inner.record(Verdict::TooOld);
                    None
                } else {
                    Some((Arc::clone(&ready.value), ready.valid_at))
                }
            }
            _ => None,
        };
        if let Some((value, valid_at)) = stale {
            drop(shard);
            let verdict = revalidate(&value, valid_at);
            self.inner.record(verdict);
            shard = lock.lock().unwrap();
            let current = shard
                .ready
                .get_mut(key)
                .filter(|r| Arc::ptr_eq(&r.value, &value));
            match (verdict, current) {
                (Verdict::Kept, current) => {
                    if let Some(ready) = current {
                        ready.valid_at = ready.valid_at.max(epoch);
                        ready.stamp = tick;
                    }
                    return Lookup::Hit(value);
                }
                (_, Some(_)) => {
                    shard.ready.remove(key);
                }
                (_, None) => {}
            }
        }
        let flight_key = (epoch, key.clone());
        if let Some(flight) = shard.flights.get(&flight_key) {
            return Lookup::Shared(SharedFlight {
                flight: Arc::clone(flight),
            });
        }
        let flight = Arc::new(Flight {
            outcome: Mutex::new(None),
            done: Condvar::new(),
        });
        shard
            .flights
            .insert(flight_key.clone(), Arc::clone(&flight));
        drop(shard);
        Lookup::Miss(InFlight {
            cache: Arc::clone(&self.inner),
            key: flight_key,
            flight,
            resolved: false,
        })
    }

    /// Drop completed entries more than [`RING_BATCHES`] epochs behind
    /// `epoch` (the serving one), returning how many were reaped. No
    /// request can revalidate them any more. Pending flights are left
    /// alone — their owners resolve them.
    pub fn purge_stale(&self, epoch: u64) -> usize {
        let mut reaped = 0;
        for shard in &self.inner.shards {
            let mut shard = shard.lock().unwrap();
            let before = shard.ready.len();
            shard
                .ready
                .retain(|_, r| epoch.saturating_sub(r.valid_at) <= RING_BATCHES);
            reaped += before - shard.ready.len();
        }
        reaped
    }

    /// Number of completed (ready) entries across all shards.
    pub fn len(&self) -> usize {
        self.occupancy().iter().map(|&(ready, _)| ready).sum()
    }

    /// True when no completed entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-shard `(ready, pending)` slot counts, in shard order. One
    /// consistent read per shard (not across shards), which is exactly
    /// the fidelity a live dashboard needs.
    pub fn occupancy(&self) -> Vec<(usize, usize)> {
        self.inner
            .shards
            .iter()
            .map(|s| {
                let shard = s.lock().unwrap();
                (shard.ready.len(), shard.flights.len())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpj_core::{KpjResult, QueryStats};

    fn result_with_tau(tau: u64) -> Arc<Answer> {
        Arc::new(Answer::new(KpjResult {
            paths: kpj_graph::PathSet::new(),
            stats: QueryStats {
                final_tau: tau,
                ..Default::default()
            },
        }))
    }

    fn key(k: usize) -> CacheKey {
        CacheKey::new(Algorithm::Da, &[0], &[1], k)
    }

    /// A revalidation that must not run.
    fn unreachable(_: &Answer, valid_at: u64) -> Verdict {
        panic!("revalidated an entry valid at {valid_at}")
    }

    /// Look up `key` at `epoch` without revalidation.
    fn lookup(cache: &ResultCache, key: &CacheKey, epoch: u64) -> Lookup {
        cache.lookup(key, epoch, unreachable)
    }

    /// Complete a fresh flight for `key` on `epoch`.
    fn fill(cache: &ResultCache, key: &CacheKey, epoch: u64, tau: u64) {
        let Lookup::Miss(token) = lookup(cache, key, epoch) else {
            panic!("expected miss")
        };
        token.complete(result_with_tau(tau));
    }

    fn tau_of(looked: Lookup) -> u64 {
        match looked {
            Lookup::Hit(v) => v.stats.final_tau,
            _ => panic!("expected hit"),
        }
    }

    #[test]
    fn key_normalizes_node_sets() {
        let a = CacheKey::new(Algorithm::Da, &[2, 1, 2], &[5, 4], 3);
        let b = CacheKey::new(Algorithm::Da, &[1, 2], &[4, 5, 5], 3);
        assert_eq!(a, b);
        assert_eq!(a.sources(), &[1, 2]);
        assert_eq!(a.k(), 3);
        assert_ne!(a, CacheKey::new(Algorithm::Da, &[1, 2], &[4, 5], 4));
        assert_ne!(a, CacheKey::new(Algorithm::BestFirst, &[1, 2], &[4, 5], 3));
    }

    #[test]
    fn miss_then_complete_then_hit() {
        let cache = ResultCache::new(8);
        fill(&cache, &key(1), 0, 7);
        assert_eq!(tau_of(lookup(&cache, &key(1), 0)), 7);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn concurrent_lookup_shares_the_flight() {
        let cache = ResultCache::new(8);
        let Lookup::Miss(token) = lookup(&cache, &key(1), 0) else {
            panic!("expected miss")
        };
        let Lookup::Shared(shared) = lookup(&cache, &key(1), 0) else {
            panic!("expected shared")
        };
        let waiter = std::thread::spawn(move || shared.wait());
        token.complete(result_with_tau(9));
        assert_eq!(waiter.join().unwrap().unwrap().stats.final_tau, 9);
    }

    #[test]
    fn a_waiter_on_another_epoch_never_shares_a_flight() {
        let cache = ResultCache::new(8);
        let Lookup::Miss(old) = lookup(&cache, &key(1), 0) else {
            panic!("expected miss")
        };
        // The same query pinned one epoch later claims its own flight...
        let Lookup::Miss(new) = lookup(&cache, &key(1), 1) else {
            panic!("a request on epoch 1 joined the epoch-0 flight")
        };
        // ...and its waiters get its result, not the epoch-0 one.
        let Lookup::Shared(waiter) = lookup(&cache, &key(1), 1) else {
            panic!("expected shared")
        };
        old.complete(result_with_tau(5));
        new.complete(result_with_tau(6));
        assert_eq!(waiter.wait().unwrap().stats.final_tau, 6);
        assert_eq!(tau_of(lookup(&cache, &key(1), 1)), 6);
        assert_eq!(cache.occupancy().iter().map(|o| o.1).sum::<usize>(), 0);
    }

    #[test]
    fn a_request_pinned_older_than_valid_at_is_not_served_the_entry() {
        let cache = ResultCache::new(8);
        fill(&cache, &key(1), 5, 50);
        // Pinned at 4: a miss (no revalidation either), entry untouched.
        let Lookup::Miss(token) = lookup(&cache, &key(1), 4) else {
            panic!("an epoch-4 request was served the epoch-5 entry")
        };
        token.complete(result_with_tau(40));
        // The older flight's result does not replace the newer entry.
        assert_eq!(tau_of(lookup(&cache, &key(1), 5)), 50);
        assert!(matches!(lookup(&cache, &key(1), 4), Lookup::Miss(_)));
    }

    #[test]
    fn revalidation_keeps_restamps_or_removes() {
        let metrics = Arc::new(Metrics::new());
        let cache = ResultCache::with_metrics(8, Some(Arc::clone(&metrics)));
        fill(&cache, &key(1), 0, 1);
        // Kept: served, and re-stamped, so epoch 2 revalidates from 2.
        let looked = cache.lookup(&key(1), 2, |_, valid_at| {
            assert_eq!(valid_at, 0);
            Verdict::Kept
        });
        assert_eq!(tau_of(looked), 1);
        assert_eq!(tau_of(lookup(&cache, &key(1), 2)), 1);
        // Rejected: removed, and this request owns the flight.
        let looked = cache.lookup(&key(1), 3, |_, valid_at| {
            assert_eq!(valid_at, 2);
            Verdict::OnPath
        });
        let Lookup::Miss(token) = looked else {
            panic!("a rejected entry was served")
        };
        assert!(cache.is_empty());
        token.complete(result_with_tau(3));
        assert_eq!(tau_of(lookup(&cache, &key(1), 3)), 3);
        let counts = metrics.snapshot().revalidations;
        assert_eq!(counts, [1, 1, 0, 0]);
    }

    #[test]
    fn a_gap_wider_than_the_ring_is_too_old() {
        let metrics = Arc::new(Metrics::new());
        let cache = ResultCache::with_metrics(8, Some(Arc::clone(&metrics)));
        fill(&cache, &key(1), 0, 1);
        // The widest gap the ring covers still revalidates...
        let edge = cache.lookup(&key(1), RING_BATCHES, |_, _| Verdict::Decrease);
        assert!(matches!(edge, Lookup::Miss(_)));
        drop(edge);
        fill(&cache, &key(2), 0, 2);
        // ...one batch more is too old: a miss that keeps the entry.
        let Lookup::Miss(token) = lookup(&cache, &key(2), RING_BATCHES + 1) else {
            panic!("expected miss")
        };
        assert_eq!(tau_of(lookup(&cache, &key(2), 0)), 2);
        token.complete(result_with_tau(4));
        assert_eq!(tau_of(lookup(&cache, &key(2), RING_BATCHES + 1)), 4);
        assert_eq!(metrics.snapshot().revalidations, [0, 0, 1, 1]);
    }

    #[test]
    fn failure_is_broadcast_and_not_cached() {
        let cache = ResultCache::new(8);
        let Lookup::Miss(token) = lookup(&cache, &key(1), 0) else {
            panic!("expected miss")
        };
        let Lookup::Shared(shared) = lookup(&cache, &key(1), 0) else {
            panic!("expected shared")
        };
        token.fail(ServiceError::Overloaded);
        assert!(matches!(shared.wait(), Err(ServiceError::Overloaded)));
        // The slot is gone: the next lookup re-claims the flight.
        assert!(matches!(lookup(&cache, &key(1), 0), Lookup::Miss(_)));
        assert!(cache.is_empty());
    }

    #[test]
    fn dropped_token_unblocks_waiters() {
        let cache = ResultCache::new(8);
        let Lookup::Miss(token) = lookup(&cache, &key(1), 0) else {
            panic!("expected miss")
        };
        let Lookup::Shared(shared) = lookup(&cache, &key(1), 0) else {
            panic!("expected shared")
        };
        drop(token);
        assert!(matches!(shared.wait(), Err(ServiceError::Internal(_))));
        assert!(matches!(lookup(&cache, &key(1), 0), Lookup::Miss(_)));
    }

    #[test]
    fn panicking_filler_leaves_a_retryable_miss() {
        // A filler that panics between claiming the flight and publishing
        // must not wedge the key: its waiter gets a retryable error, and
        // the *next* caller claims a fresh flight and actually executes.
        let cache = ResultCache::new(8);
        let Lookup::Miss(token) = lookup(&cache, &key(1), 0) else {
            panic!("expected miss")
        };
        let Lookup::Shared(shared) = lookup(&cache, &key(1), 0) else {
            panic!("expected shared")
        };
        let filler = std::thread::Builder::new()
            .name("dying-filler".into())
            .spawn(move || {
                let _owned = token;
                panic!("injected filler fault");
            })
            .unwrap();
        assert!(filler.join().is_err(), "filler must have panicked");
        assert!(matches!(shared.wait(), Err(ServiceError::Internal(_))));
        let Lookup::Miss(retry) = lookup(&cache, &key(1), 0) else {
            panic!("key wedged: next caller did not get the flight")
        };
        retry.complete(result_with_tau(11));
        assert_eq!(tau_of(lookup(&cache, &key(1), 0)), 11);
    }

    #[test]
    fn purge_reaps_exactly_the_entries_beyond_the_ring() {
        let cache = ResultCache::new(1024);
        let now = 40;
        for valid_at in 0..=now {
            fill(&cache, &key(valid_at as usize + 1), valid_at, valid_at);
        }
        // A flight pending on an old epoch must survive the purge.
        let Lookup::Miss(_pending) = lookup(&cache, &key(99), 0) else {
            panic!("expected miss")
        };
        let beyond = now - RING_BATCHES; // valid_at 0..beyond are reaped
        assert_eq!(cache.purge_stale(now), beyond as usize);
        assert_eq!(cache.len(), (RING_BATCHES + 1) as usize);
        for valid_at in 0..=now {
            let key = key(valid_at as usize + 1);
            let held = cache
                .inner
                .shard_of(&key)
                .lock()
                .unwrap()
                .ready
                .contains_key(&key);
            assert_eq!(held, valid_at >= beyond, "valid_at {valid_at}");
        }
        assert!(matches!(lookup(&cache, &key(99), 0), Lookup::Shared(_)));
        // Purging again at the same epoch reaps nothing.
        assert_eq!(cache.purge_stale(now), 0);
    }

    #[test]
    fn lru_evicts_oldest_ready_entries() {
        // Single-shard pressure: use identical sources/targets, varying k,
        // and a capacity small enough to force eviction in any shard.
        let cache = ResultCache::new(1); // 1 per shard
        let mut keys = Vec::new();
        for k in 1..=64usize {
            let key = key(k);
            if let Lookup::Miss(t) = lookup(&cache, &key, 0) {
                t.complete(result_with_tau(k as u64));
            }
            keys.push(key);
        }
        // Each shard holds at most 1 ready entry.
        assert!(cache.len() <= SHARDS);
        // The freshest key must still be present.
        assert!(matches!(
            lookup(&cache, keys.last().unwrap(), 0),
            Lookup::Hit(_)
        ));
    }
}
