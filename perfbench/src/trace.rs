//! Tracing from the outside: spans recorded around the benchmark's own
//! calls into the program, and an [`Executor`] wrapper that times every
//! fork–join and every task slot. Nothing inside the program is
//! instrumented.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use wino_probe::Json;
use wino_sched::{Executor, PoolError};

use crate::report::obj;

/// One timed interval. `parent` indexes the enclosing span in the same
/// [`Tracer`]; `id` is the forward or request the span belongs to.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

/// In-memory span store; written out once, when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record `[start, end)` and return its index for use as a parent.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        id: u64,
    ) -> usize {
        let mut spans = self.spans.lock().expect("span store poisoned by a panic");
        spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            id,
        });
        spans.len() - 1
    }

    /// Reserve a parent span before its children run; close it with
    /// [`Tracer::close`].
    pub fn open(
        &self,
        name: &'static str,
        start: Instant,
        parent: Option<usize>,
        id: u64,
    ) -> usize {
        self.record(name, start, start, parent, id)
    }

    pub fn close(&self, index: usize, end: Instant) {
        let end_ns = self.ns(end);
        self.spans.lock().expect("span store poisoned by a panic")[index].end_ns = end_ns;
    }

    pub fn len(&self) -> usize {
        self.spans
            .lock()
            .expect("span store poisoned by a panic")
            .len()
    }

    /// All spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let spans = self.spans.lock().expect("span store poisoned by a panic");
        let mut out = String::with_capacity(spans.len() * 96);
        for (i, s) in spans.iter().enumerate() {
            let v = obj([
                ("i", Json::Num(i as f64)),
                ("name", Json::Str(s.name.into())),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("id", Json::Num(s.id as f64)),
            ]);
            out.push_str(&v.render());
            out.push('\n');
        }
        out
    }
}

/// Totals gathered by [`TimedExec`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedTotals {
    pub forkjoins: u64,
    /// Coordinator wall time inside `run_grid`, summed.
    pub forkjoin_ns: u64,
    /// Task time summed over every slot.
    pub busy_ns: u64,
    /// Σ over fork–joins of the busiest slot's task time.
    pub max_slot_ns: u64,
}

impl SchedTotals {
    /// Share of the slots' fork–join time spent inside tasks.
    pub fn busy_frac(&self, threads: usize) -> f64 {
        self.busy_ns as f64 / (threads as f64 * self.forkjoin_ns.max(1) as f64)
    }

    /// Busiest slot over the mean slot, time-weighted across fork–joins
    /// (1 = perfectly balanced).
    pub fn imbalance(&self, threads: usize) -> f64 {
        self.max_slot_ns as f64 * threads as f64 / self.busy_ns.max(1) as f64
    }
}

/// Parent span index and forward id for spans recorded next.
type SpanContext = (Option<usize>, u64);

/// Wraps an executor to time each fork–join (one span per `run_grid`,
/// parented to the current forward) and each slot's tasks.
pub struct TimedExec<'a> {
    inner: &'a dyn Executor,
    slot_ns: Vec<AtomicU64>,
    totals: Mutex<SchedTotals>,
    /// The tracer, and the parent span and id of the current forward.
    tracer: Option<(&'a Tracer, Mutex<SpanContext>)>,
}

impl<'a> TimedExec<'a> {
    pub fn new(inner: &'a dyn Executor, tracer: Option<&'a Tracer>) -> TimedExec<'a> {
        TimedExec {
            inner,
            slot_ns: (0..inner.threads()).map(|_| AtomicU64::new(0)).collect(),
            totals: Mutex::new(SchedTotals::default()),
            tracer: tracer.map(|t| (t, Mutex::new((None, 0)))),
        }
    }

    /// Parent span and forward id for the fork–join spans that follow.
    pub fn set_parent(&self, parent: Option<usize>, id: u64) {
        if let Some((_, cur)) = &self.tracer {
            *cur.lock().expect("parent cell poisoned by a panic") = (parent, id);
        }
    }

    pub fn totals(&self) -> SchedTotals {
        *self.totals.lock().expect("totals poisoned by a panic")
    }
}

impl Executor for TimedExec<'_> {
    fn run_grid(
        &self,
        dims: &[usize],
        task: &(dyn Fn(usize, usize) + Sync),
    ) -> Result<(), PoolError> {
        for s in &self.slot_ns {
            // ORDERING: Relaxed — per-slot statistics; the pool's join
            // barrier orders these writes before the reads below.
            s.store(0, Ordering::Relaxed);
        }
        let t0 = Instant::now();
        let r = self.inner.run_grid(dims, &|slot, i| {
            let s = Instant::now();
            task(slot, i);
            let dt = s.elapsed().as_nanos() as u64;
            self.slot_ns[slot].fetch_add(dt, Ordering::Relaxed);
        });
        let t1 = Instant::now();
        let per_slot: Vec<u64> = self
            .slot_ns
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect();
        {
            let mut t = self.totals.lock().expect("totals poisoned by a panic");
            t.forkjoins += 1;
            t.forkjoin_ns += (t1 - t0).as_nanos() as u64;
            t.busy_ns += per_slot.iter().sum::<u64>();
            t.max_slot_ns += per_slot.iter().copied().max().unwrap_or(0);
        }
        if let Some((tracer, cur)) = &self.tracer {
            let (parent, id) = *cur.lock().expect("parent cell poisoned by a panic");
            tracer.record("sched.forkjoin", t0, t1, parent, id);
        }
        r
    }

    fn threads(&self) -> usize {
        self.inner.threads()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_sched::{SerialExecutor, StaticExecutor};

    #[test]
    fn timed_exec_counts_forkjoins_and_runs_every_task() {
        let tracer = Tracer::new();
        let inner = StaticExecutor::new(2);
        let ex = TimedExec::new(&inner, Some(&tracer));
        let hits = AtomicU64::new(0);
        for _ in 0..3 {
            ex.run_grid(&[4, 5], &|_, _| {
                hits.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        assert_eq!(hits.load(Ordering::Relaxed), 60);
        let t = ex.totals();
        assert_eq!(t.forkjoins, 3);
        assert!(t.busy_ns <= 2 * t.forkjoin_ns);
        assert_eq!(tracer.len(), 3);
        let serial = TimedExec::new(&SerialExecutor, None);
        serial
            .run_grid(&[3], &|_, i| {
                std::hint::black_box((0..1000 + i).sum::<usize>());
            })
            .unwrap();
        assert!((serial.totals().imbalance(1) - 1.0).abs() < 1e-9);
    }
}
