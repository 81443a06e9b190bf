//! Zero-allocation structured query tracing.
//!
//! A [`QueryTrace`] is a pre-allocated ring buffer of [`SpanRecord`]s owned
//! by one engine (one pool worker). At the start of each query the owner
//! calls [`QueryTrace::begin`], which applies the runtime sampling knob;
//! stage-scoped code then brackets work with [`QueryTrace::start`] /
//! [`QueryTrace::record`]. When the query is not sampled, `start` returns
//! an inert [`Tick`] and both calls cost one branch; a sampling rate of
//! 0 ([`QueryTrace::set_sampling`]) switches tracing off at runtime.

use std::time::Instant;

/// The stage taxonomy: where a query's wall time can go.
///
/// `QueueWait`, `CacheLookup`, `Encode` and `Total` are observed by the
/// serving layer; the rest are recorded inside the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Time between admission and a pool worker picking the job up.
    QueueWait,
    /// Result-cache probe (hit or miss).
    CacheLookup,
    /// Landmark δ-table assembly (`TargetsLb`/`SourceLb` construction).
    LandmarkBounds,
    /// Shortest-path-tree construction: DA-SPT's full reverse SPT,
    /// `SPT_P`/`SPT_I` builds, and τ-driven `prepare_tau` regrowth.
    SptBuild,
    /// One full (unbounded) constrained shortest-path search.
    SpSearch,
    /// One deviation round: pop a candidate, emit it, divide its subspace.
    DeviationRound,
    /// Rendering the wire response body.
    Encode,
    /// End-to-end service latency (admission to reply).
    Total,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 8;

    /// Every stage, in display order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::QueueWait,
        Stage::CacheLookup,
        Stage::LandmarkBounds,
        Stage::SptBuild,
        Stage::SpSearch,
        Stage::DeviationRound,
        Stage::Encode,
        Stage::Total,
    ];

    /// Dense index for registry cells.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case label used in metric series.
    pub const fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::CacheLookup => "cache_lookup",
            Stage::LandmarkBounds => "landmark_bounds",
            Stage::SptBuild => "spt_build",
            Stage::SpSearch => "sp_search",
            Stage::DeviationRound => "deviation_round",
            Stage::Encode => "encode",
            Stage::Total => "total",
        }
    }
}

/// One recorded span: a stage, its start offset from the query epoch, and
/// its duration. Nanosecond resolution (a deviation round can be sub-µs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Which stage this span timed.
    pub stage: Stage,
    /// Start, nanoseconds since [`QueryTrace::begin`].
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

/// Default ring capacity: enough for every one-shot stage plus ~250
/// deviation rounds; k rarely exceeds that, and the ring wraps (keeping
/// the newest spans) when it does.
pub const DEFAULT_SPAN_CAPACITY: usize = 256;

/// An opaque timestamp from [`QueryTrace::start`]. Inert (and free to
/// drop) when the query is not sampled.
#[derive(Clone, Copy)]
pub struct Tick(Option<Instant>);

/// Pre-allocated span ring buffer for one engine. See the module docs.
pub struct QueryTrace {
    spans: Box<[SpanRecord]>,
    /// Next write position.
    head: usize,
    /// Recorded spans, saturating at capacity.
    len: usize,
    /// Spans lost to ring wrap-around since `begin`.
    dropped: u64,
    epoch: Instant,
    active: bool,
    sample_every: u32,
    /// Queries until the next sampled one.
    countdown: u32,
}

impl QueryTrace {
    /// Allocate a ring of `capacity` spans (the only allocation this
    /// type ever performs). Sampling defaults to every query.
    pub fn new(capacity: usize) -> QueryTrace {
        let filler = SpanRecord {
            stage: Stage::Total,
            start_ns: 0,
            dur_ns: 0,
        };
        QueryTrace {
            spans: vec![filler; capacity.max(1)].into_boxed_slice(),
            head: 0,
            len: 0,
            dropped: 0,
            epoch: Instant::now(),
            active: false,
            sample_every: 1,
            countdown: 0,
        }
    }

    /// Set the sampling rate: trace every `every`-th query; `0`
    /// disables tracing at runtime.
    pub fn set_sampling(&mut self, every: u32) {
        self.sample_every = every;
        self.countdown = 0;
    }

    /// Current sampling rate.
    pub fn sampling(&self) -> u32 {
        self.sample_every
    }

    /// Start a new query: clear the ring, apply the sampling decision
    /// and (when sampled) stamp the epoch. Returns whether this query
    /// is being traced.
    pub fn begin(&mut self) -> bool {
        self.head = 0;
        self.len = 0;
        self.dropped = 0;
        if self.sample_every == 0 {
            self.active = false;
        } else if self.countdown == 0 {
            self.countdown = self.sample_every - 1;
            self.active = true;
            self.epoch = Instant::now();
        } else {
            self.countdown -= 1;
            self.active = false;
        }
        self.active
    }

    /// Whether the current query is being traced.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Take a timestamp for a span about to start.
    #[inline]
    pub fn start(&self) -> Tick {
        Tick(if self.active {
            Some(Instant::now())
        } else {
            None
        })
    }

    /// Close the span opened by `tick` and record it under `stage`.
    #[inline]
    pub fn record(&mut self, stage: Stage, tick: Tick) {
        let Some(t0) = tick.0 else { return };
        if !self.active {
            return;
        }
        let start_ns = t0
            .duration_since(self.epoch)
            .as_nanos()
            .min(u64::MAX as u128) as u64;
        let dur_ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.push(SpanRecord {
            stage,
            start_ns,
            dur_ns,
        });
    }

    fn push(&mut self, span: SpanRecord) {
        self.spans[self.head] = span;
        self.head = (self.head + 1) % self.spans.len();
        if self.len < self.spans.len() {
            self.len += 1;
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded spans in chronological order, as (older, newer)
    /// ring halves — concatenate to iterate.
    pub fn spans(&self) -> (&[SpanRecord], &[SpanRecord]) {
        if self.len < self.spans.len() {
            (&self.spans[..self.len], &[])
        } else {
            (&self.spans[self.head..], &self.spans[..self.head])
        }
    }

    /// Spans lost to ring wrap-around during the current query.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_spans_in_order_with_epoch_relative_starts() {
        let mut t = QueryTrace::new(8);
        assert!(t.begin());
        let a = t.start();
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.record(Stage::SpSearch, a);
        let b = t.start();
        t.record(Stage::DeviationRound, b);
        let (older, newer) = t.spans();
        assert!(newer.is_empty());
        assert_eq!(older.len(), 2);
        assert_eq!(older[0].stage, Stage::SpSearch);
        assert!(older[0].dur_ns >= 1_000_000);
        assert!(older[1].start_ns >= older[0].start_ns);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ring_wraps_keeping_the_newest_spans() {
        let mut t = QueryTrace::new(4);
        assert!(t.begin());
        for _ in 0..6 {
            let tick = t.start();
            t.record(Stage::DeviationRound, tick);
        }
        let (older, newer) = t.spans();
        assert_eq!(older.len() + newer.len(), 4);
        assert_eq!(t.dropped(), 2);
        // Chronological: every span starts no earlier than its predecessor.
        let all: Vec<_> = older.iter().chain(newer).collect();
        assert!(all.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
    }

    #[test]
    fn sampling_skips_queries_and_zero_disables() {
        let mut t = QueryTrace::new(4);
        t.set_sampling(3);
        let sampled: Vec<bool> = (0..6).map(|_| t.begin()).collect();
        assert_eq!(sampled, [true, false, false, true, false, false]);
        t.set_sampling(0);
        assert!(!t.begin());
        let tick = t.start();
        t.record(Stage::SpSearch, tick);
        let (older, newer) = t.spans();
        assert!(older.is_empty() && newer.is_empty());
    }

    #[test]
    fn begin_clears_the_previous_query() {
        let mut t = QueryTrace::new(4);
        t.begin();
        let tick = t.start();
        t.record(Stage::Encode, tick);
        t.begin();
        let (older, newer) = t.spans();
        assert!(older.is_empty() && newer.is_empty());
    }
}
