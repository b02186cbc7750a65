//! Std-only sampling wall-clock profiler.
//!
//! The `span!` facade ([`crate::trace`]) already knows, at every instant,
//! which phase each instrumented thread is inside. This module turns that
//! into a profiler: each thread shares its span stack through a lock-free
//! seqlock snapshot ([`ProfStack`]), and a sampler thread periodically
//! sweeps every registered stack, aggregating identical stacks into
//! counts. The output is the collapsed-stack format `flamegraph.pl`
//! consumes directly: one line per distinct stack, `frame;frame;... count`.
//!
//! # Sampling protocol
//!
//! - Span names are interned to `u32` ids once per distinct `&'static str`
//!   so the per-span cost while profiling is an array store, not a string
//!   copy.
//! - Each thread owns an `Arc<ProfStack>`: a fixed array of atomic frame
//!   ids plus an atomic depth, guarded by a sequence counter that is odd
//!   while the owning thread is mid-push/pop. Writers never block; the
//!   sampler retries a bounded number of times and skips the thread if it
//!   keeps losing the race (counted in [`ProfileReport::skipped_samples`]).
//! - Registration happens lazily on first span push per thread; dead
//!   threads drop out automatically (the registry holds `Weak`).
//! - Profiling is process-global: [`Profiler::start`] bumps an active
//!   counter that the `span!` macro consults, so spans opened while no
//!   profiler (and no trace subscriber) is running cost one relaxed atomic
//!   load. Spans already open when the profiler starts are not retroactively
//!   pushed — a profile window only sees spans entered during it.
//!
//! Stacks deeper than [`MAX_DEPTH`] keep correct depth accounting but only
//! the first `MAX_DEPTH` frames are sampled (counted in
//! [`ProfileReport::truncated_samples`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, Weak};
use std::time::{Duration, Instant};

/// Maximum stack depth captured per sample. Deeper frames are dropped
/// (the workspace's span nesting is ≤ 6 today).
pub const MAX_DEPTH: usize = 64;

/// Sentinel for "no frame" in a `ProfStack` slot.
const EMPTY_FRAME: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// Span-name interning
// ---------------------------------------------------------------------------

struct Interner {
    // id -> name; index is the id.
    names: Vec<&'static str>,
    index: HashMap<&'static str, u32>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            names: Vec::new(),
            index: HashMap::new(),
        })
    })
}

/// Interns a span name, returning its stable id.
pub fn intern(name: &'static str) -> u32 {
    {
        let g = interner().read().expect("interner poisoned");
        if let Some(&id) = g.index.get(name) {
            return id;
        }
    }
    let mut g = interner().write().expect("interner poisoned");
    if let Some(&id) = g.index.get(name) {
        return id;
    }
    let id = g.names.len() as u32;
    g.names.push(name);
    g.index.insert(name, id);
    id
}

/// The name behind an interned id; `"?"` for ids never interned (torn
/// reads the seqlock retry did not catch are tolerated, not fatal).
pub fn name_of(id: u32) -> &'static str {
    let g = interner().read().expect("interner poisoned");
    g.names.get(id as usize).copied().unwrap_or("?")
}

// ---------------------------------------------------------------------------
// Per-thread shared span stack (seqlock)
// ---------------------------------------------------------------------------

/// One thread's span stack, shared with the sampler. The owning thread is
/// the only writer; the sampler reads via the seqlock protocol.
pub struct ProfStack {
    label: Arc<str>,
    /// Odd while the owner is mutating.
    seq: AtomicU64,
    depth: AtomicUsize,
    frames: [AtomicU32; MAX_DEPTH],
}

impl ProfStack {
    fn new(label: Arc<str>) -> Self {
        ProfStack {
            label,
            seq: AtomicU64::new(0),
            depth: AtomicUsize::new(0),
            frames: std::array::from_fn(|_| AtomicU32::new(EMPTY_FRAME)),
        }
    }

    fn push(&self, id: u32) {
        self.seq.fetch_add(1, Ordering::AcqRel);
        let d = self.depth.load(Ordering::Relaxed);
        if d < MAX_DEPTH {
            self.frames[d].store(id, Ordering::Release);
        }
        self.depth.store(d + 1, Ordering::Release);
        self.seq.fetch_add(1, Ordering::AcqRel);
    }

    fn pop(&self) {
        self.seq.fetch_add(1, Ordering::AcqRel);
        let d = self.depth.load(Ordering::Relaxed);
        if d > 0 {
            self.depth.store(d - 1, Ordering::Release);
            if d - 1 < MAX_DEPTH {
                self.frames[d - 1].store(EMPTY_FRAME, Ordering::Release);
            }
        }
        self.seq.fetch_add(1, Ordering::AcqRel);
    }

    /// Seqlock read: `Some((depth, frames))` on a consistent snapshot,
    /// `None` if the owner kept mutating through every retry.
    fn snapshot(&self) -> Option<(usize, Vec<u32>)> {
        for _ in 0..8 {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let depth = self.depth.load(Ordering::Acquire);
            let captured = depth.min(MAX_DEPTH);
            let mut frames = Vec::with_capacity(captured);
            for f in self.frames.iter().take(captured) {
                frames.push(f.load(Ordering::Acquire));
            }
            let s2 = self.seq.load(Ordering::Acquire);
            if s1 == s2 {
                frames.retain(|&f| f != EMPTY_FRAME);
                return Some((depth, frames));
            }
        }
        None
    }
}

fn registry() -> &'static Mutex<Vec<Weak<ProfStack>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Weak<ProfStack>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static THREAD_STACK: Arc<ProfStack> = register_current_thread();
}

fn register_current_thread() -> Arc<ProfStack> {
    let label: Arc<str> = std::thread::current()
        .name()
        .map(Arc::from)
        .unwrap_or_else(|| {
            static ANON: AtomicU64 = AtomicU64::new(0);
            Arc::from(format!("thread-{}", ANON.fetch_add(1, Ordering::Relaxed)).as_str())
        });
    let stack = Arc::new(ProfStack::new(label));
    let mut reg = registry().lock().expect("profile registry poisoned");
    // Opportunistically drop stacks of exited threads.
    reg.retain(|w| w.strong_count() > 0);
    reg.push(Arc::downgrade(&stack));
    stack
}

// ---------------------------------------------------------------------------
// Global profiling mode
// ---------------------------------------------------------------------------

static PROFILERS_ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// Whether at least one [`Profiler`] is running. One relaxed load; this is
/// the only cost `span!` pays for the profiler while it is off.
#[inline]
pub fn profiling_active() -> bool {
    PROFILERS_ACTIVE.load(Ordering::Relaxed) > 0
}

/// Pushes a frame onto the current thread's shared stack. Returns whether
/// the push happened (false during thread teardown); the caller must pop
/// iff it pushed.
pub fn push_frame(name: &'static str) -> bool {
    let id = intern(name);
    THREAD_STACK.try_with(|s| s.push(id)).is_ok()
}

/// Pops the frame pushed by the matching [`push_frame`].
pub fn pop_frame() {
    let _ = THREAD_STACK.try_with(|s| s.pop());
}

// ---------------------------------------------------------------------------
// The sampler
// ---------------------------------------------------------------------------

struct SamplerOutput {
    collapsed: HashMap<(Arc<str>, Vec<u32>), u64>,
    sweeps: u64,
    stack_samples: u64,
    idle_samples: u64,
    truncated_samples: u64,
    skipped_samples: u64,
    busy: Duration,
}

/// A running sampling session. Create with [`Profiler::start`]; collect
/// the aggregate with [`Profiler::stop`]. Multiple profilers may run
/// concurrently (each aggregates independently).
pub struct Profiler {
    stop: Arc<AtomicBool>,
    started: Instant,
    interval: Duration,
    handle: Option<std::thread::JoinHandle<SamplerOutput>>,
}

impl Profiler {
    /// Starts a sampler at roughly `hz` sweeps per second (clamped to
    /// 1..=10_000). Spans entered anywhere in the process from this call
    /// until [`Profiler::stop`] are eligible for sampling.
    pub fn start(hz: u64) -> Profiler {
        let hz = hz.clamp(1, 10_000);
        let interval = Duration::from_nanos(1_000_000_000 / hz);
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        PROFILERS_ACTIVE.fetch_add(1, Ordering::SeqCst);
        // The workspace routes compute parallelism through geoalign-exec;
        // the sampler is observer infrastructure with its own lifecycle
        // (it must keep sweeping while every executor thread is busy), so
        // it owns one named thread, exempted in scripts/check.sh.
        let handle = std::thread::Builder::new()
            .name("geoalign-prof-sampler".into())
            .spawn(move || sampler_loop(interval, &stop2))
            .expect("spawn profiler sampler thread");
        Profiler {
            stop,
            started: Instant::now(),
            interval,
            handle: Some(handle),
        }
    }

    /// Stops the sampler and returns the aggregated profile.
    pub fn stop(mut self) -> ProfileReport {
        self.finish()
    }

    fn finish(&mut self) -> ProfileReport {
        self.stop.store(true, Ordering::SeqCst);
        let out = match self.handle.take() {
            Some(h) => h.join().unwrap_or_else(|_| SamplerOutput {
                collapsed: HashMap::new(),
                sweeps: 0,
                stack_samples: 0,
                idle_samples: 0,
                truncated_samples: 0,
                skipped_samples: 0,
                busy: Duration::ZERO,
            }),
            None => {
                return ProfileReport::empty(self.interval);
            }
        };
        PROFILERS_ACTIVE.fetch_sub(1, Ordering::SeqCst);
        ProfileReport {
            duration: self.started.elapsed(),
            interval: self.interval,
            sweeps: out.sweeps,
            stack_samples: out.stack_samples,
            idle_samples: out.idle_samples,
            truncated_samples: out.truncated_samples,
            skipped_samples: out.skipped_samples,
            sampler_busy: out.busy,
            collapsed: out.collapsed,
        }
    }
}

impl Drop for Profiler {
    fn drop(&mut self) {
        if self.handle.is_some() {
            let _ = self.finish();
        }
    }
}

fn sampler_loop(interval: Duration, stop: &AtomicBool) -> SamplerOutput {
    let mut out = SamplerOutput {
        collapsed: HashMap::new(),
        sweeps: 0,
        stack_samples: 0,
        idle_samples: 0,
        truncated_samples: 0,
        skipped_samples: 0,
        busy: Duration::ZERO,
    };
    while !stop.load(Ordering::SeqCst) {
        let t0 = Instant::now();
        sweep(&mut out);
        out.sweeps += 1;
        let spent = t0.elapsed();
        out.busy += spent;
        std::thread::sleep(interval.saturating_sub(spent));
    }
    out
}

fn sweep(out: &mut SamplerOutput) {
    let reg = registry().lock().expect("profile registry poisoned");
    for weak in reg.iter() {
        let Some(stack) = weak.upgrade() else {
            continue;
        };
        match stack.snapshot() {
            Some((_, frames)) if frames.is_empty() => out.idle_samples += 1,
            Some((depth, frames)) => {
                if depth > MAX_DEPTH {
                    out.truncated_samples += 1;
                }
                out.stack_samples += 1;
                *out.collapsed
                    .entry((Arc::clone(&stack.label), frames))
                    .or_insert(0) += 1;
            }
            None => out.skipped_samples += 1,
        }
    }
}

// ---------------------------------------------------------------------------
// The report
// ---------------------------------------------------------------------------

/// Aggregate of one profiling session.
pub struct ProfileReport {
    /// Wall-clock span of the session.
    pub duration: Duration,
    /// Requested sampling interval.
    pub interval: Duration,
    /// Sampler sweeps performed (each sweep samples every live thread).
    pub sweeps: u64,
    /// Per-thread samples that captured a non-empty span stack.
    pub stack_samples: u64,
    /// Per-thread samples taken while the thread was outside any span.
    pub idle_samples: u64,
    /// Samples whose stack exceeded [`MAX_DEPTH`] (frames beyond it dropped).
    pub truncated_samples: u64,
    /// Samples abandoned because the owner kept mutating the stack.
    pub skipped_samples: u64,
    /// Total time the sampler spent sweeping (its own overhead).
    pub sampler_busy: Duration,
    collapsed: HashMap<(Arc<str>, Vec<u32>), u64>,
}

/// One row of [`ProfileReport::top_phases`].
#[derive(Debug, Clone)]
pub struct PhaseStat {
    /// Span name.
    pub name: &'static str,
    /// Samples with this span on top of the stack (exclusive time).
    pub self_samples: u64,
    /// Samples with this span anywhere on the stack (inclusive time).
    pub total_samples: u64,
}

impl ProfileReport {
    fn empty(interval: Duration) -> ProfileReport {
        ProfileReport {
            duration: Duration::ZERO,
            interval,
            sweeps: 0,
            stack_samples: 0,
            idle_samples: 0,
            truncated_samples: 0,
            skipped_samples: 0,
            sampler_busy: Duration::ZERO,
            collapsed: HashMap::new(),
        }
    }

    /// True when no non-empty stack was ever captured.
    pub fn is_empty(&self) -> bool {
        self.collapsed.is_empty()
    }

    /// The profile in collapsed-stack format, one line per distinct
    /// stack: `thread;span;span;... count`. Feed directly to
    /// `flamegraph.pl`. Lines are sorted for determinism.
    pub fn collapsed_text(&self) -> String {
        let mut lines: Vec<String> = self
            .collapsed
            .iter()
            .map(|((label, frames), count)| {
                let mut line = String::with_capacity(32 + frames.len() * 12);
                line.push_str(label);
                for &f in frames {
                    line.push(';');
                    line.push_str(name_of(f));
                }
                line.push(' ');
                line.push_str(&count.to_string());
                line
            })
            .collect();
        lines.sort();
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }

    /// Per-span sample totals, sorted by inclusive samples descending,
    /// truncated to `n` rows.
    pub fn top_phases(&self, n: usize) -> Vec<PhaseStat> {
        let mut totals: HashMap<u32, (u64, u64)> = HashMap::new();
        for ((_, frames), count) in &self.collapsed {
            for (i, &f) in frames.iter().enumerate() {
                let e = totals.entry(f).or_insert((0, 0));
                e.1 += count;
                if i + 1 == frames.len() {
                    e.0 += count;
                }
            }
        }
        let mut stats: Vec<PhaseStat> = totals
            .into_iter()
            .map(|(id, (self_samples, total_samples))| PhaseStat {
                name: name_of(id),
                self_samples,
                total_samples,
            })
            .collect();
        stats.sort_by(|a, b| {
            b.total_samples
                .cmp(&a.total_samples)
                .then_with(|| a.name.cmp(b.name))
        });
        stats.truncate(n);
        stats
    }

    /// A plain-text top-phases table for terminals.
    pub fn phase_table(&self, n: usize) -> String {
        let stats = self.top_phases(n);
        let denom = self.stack_samples.max(1) as f64;
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>8} {:>7} {:>8} {:>7}\n",
            "phase", "total", "tot%", "self", "self%"
        ));
        for s in &stats {
            out.push_str(&format!(
                "{:<24} {:>8} {:>6.1}% {:>8} {:>6.1}%\n",
                s.name,
                s.total_samples,
                100.0 * s.total_samples as f64 / denom,
                s.self_samples,
                100.0 * s.self_samples as f64 / denom,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Held by every test that starts a profiler: the active count is
    /// process-global, so a profiler one test starts on another thread
    /// would show up in this test's reading of [`profiling_active`].
    static PROFILER_TESTS: Mutex<()> = Mutex::new(());

    fn profiler_tests_lock() -> std::sync::MutexGuard<'static, ()> {
        PROFILER_TESTS.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn interning_is_stable_and_reversible() {
        let a = intern("profile_test_phase_a");
        let b = intern("profile_test_phase_b");
        assert_ne!(a, b);
        assert_eq!(a, intern("profile_test_phase_a"));
        assert_eq!(name_of(a), "profile_test_phase_a");
        assert_eq!(name_of(b), "profile_test_phase_b");
        assert_eq!(name_of(u32::MAX - 1), "?");
    }

    #[test]
    fn prof_stack_push_pop_snapshot() {
        let stack = ProfStack::new(Arc::from("t"));
        let a = intern("snap_a");
        let b = intern("snap_b");
        stack.push(a);
        stack.push(b);
        let (depth, frames) = stack.snapshot().expect("uncontended snapshot");
        assert_eq!(depth, 2);
        assert_eq!(frames, vec![a, b]);
        stack.pop();
        let (depth, frames) = stack.snapshot().unwrap();
        assert_eq!(depth, 1);
        assert_eq!(frames, vec![a]);
        stack.pop();
        assert_eq!(stack.snapshot().unwrap().0, 0);
        // Underflow-safe.
        stack.pop();
        assert_eq!(stack.snapshot().unwrap().0, 0);
    }

    #[test]
    fn deep_stacks_truncate_but_balance() {
        let stack = ProfStack::new(Arc::from("t"));
        let id = intern("deep_frame");
        for _ in 0..(MAX_DEPTH + 8) {
            stack.push(id);
        }
        let (depth, frames) = stack.snapshot().unwrap();
        assert_eq!(depth, MAX_DEPTH + 8);
        assert_eq!(frames.len(), MAX_DEPTH);
        for _ in 0..(MAX_DEPTH + 8) {
            stack.pop();
        }
        let (depth, frames) = stack.snapshot().unwrap();
        assert_eq!(depth, 0);
        assert!(frames.is_empty());
    }

    #[test]
    fn profiler_captures_a_busy_span() {
        let _serial = profiler_tests_lock();
        let profiler = Profiler::start(4000);
        assert!(profiling_active());
        // Keep a distinctive span busy long enough for several sweeps.
        let deadline = Instant::now() + Duration::from_millis(250);
        while Instant::now() < deadline {
            let pushed = push_frame("profiler_busy_phase");
            std::thread::sleep(Duration::from_millis(2));
            if pushed {
                pop_frame();
            }
        }
        let report = profiler.stop();
        assert!(report.sweeps > 0, "sampler never swept");
        assert!(
            report.collapsed_text().contains("profiler_busy_phase"),
            "missing phase in:\n{}",
            report.collapsed_text()
        );
        let top = report.top_phases(5);
        assert!(top.iter().any(|s| s.name == "profiler_busy_phase"));
        // Collapsed lines end in a count.
        for line in report.collapsed_text().lines() {
            let (_, count) = line.rsplit_once(' ').expect("count field");
            count.parse::<u64>().expect("numeric count");
        }
    }

    #[test]
    fn profiling_flag_clears_after_stop() {
        let _serial = profiler_tests_lock();
        let before = profiling_active();
        let p = Profiler::start(100);
        assert!(profiling_active());
        drop(p); // Drop without stop() must also unwind the active count.
                 // Assert we returned to the prior state when none was
                 // active before.
        if !before {
            assert!(!profiling_active());
        }
    }
}
