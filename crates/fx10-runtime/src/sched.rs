//! The work-stealing parallel engine: FX10 programs on real threads.
//!
//! The shape follows the MPL scheduler signature (`push`/`pop`/`steal`,
//! `finish` as a scoped join) and the PR 2 crew patterns:
//!
//! * **`async`** pushes a [`Task`] — the body statement, a fresh
//!   activity id and forked clock, and the enclosing [`Scope`] — onto
//!   the spawning worker's deque (LIFO for locality). Worker 0 starts
//!   on the root task; idle workers pop their own deque from the back,
//!   then steal from the *front* of a seeded-random victim —
//!   `--schedule-seed` perturbs victim order, giving cheap schedule
//!   diversity for the differential oracles.
//! * **`finish`** is a countdown latch: a [`Scope`] counts pending
//!   transitively-spawned tasks and accumulates their final vector
//!   clocks. The activity executing the `finish` runs the body inline,
//!   then waits *helping* — running other tasks while the latch is up —
//!   so a crew of N workers never deadlocks on nested scopes.
//! * **Granularity** — `grain > 0` inlines any `async` whose body has
//!   at most `grain` instructions into the spawning activity (still a
//!   fresh activity id and fork for the detector, so race detection is
//!   unaffected).
//! * **Panic isolation** — each task runs under `catch_unwind`; a latch
//!   guard decrements the scope's counter during unwind, so a panicking
//!   async can never leave a `finish` waiting forever. The first panic
//!   stops the crew and surfaces as [`Fx10Error::WorkerPanicked`]
//!   (exit 4), exactly like the explorer's contract.
//!
//! The shared array is a `Vec<AtomicI64>` with relaxed ordering — FX10
//! races are *detected*, not prevented, and individual cell accesses
//! must still be tear-free. Steps count executed instructions in a
//! shared counter (same accounting as the elision engine, so race-free
//! programs report byte-identical step totals); the stop flag, cancel
//! token, deadline and step caps are polled on a stride.

use crate::detect::{Detector, VClock};
use crate::RunReport;
use fx10_robust::{panic_message, Budget, CancelToken, Exhaustion, FaultPlan, Fx10Error};
use fx10_semantics::ArrayState;
use fx10_syntax::{Expr, Label, Program, Stmt};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Configuration for one parallel run.
#[derive(Debug, Clone)]
pub struct RtConfig {
    /// Worker threads (clamped to at least 1).
    pub jobs: usize,
    /// Seed for the stealing order — different seeds give different
    /// schedules, identical final states for race-free programs.
    pub seed: u64,
    /// Inline `async` bodies of at most this many instructions
    /// (0 disables granularity control: every async is a task).
    pub grain: usize,
    /// Cap on executed instructions.
    pub max_steps: u64,
}

impl Default for RtConfig {
    fn default() -> Self {
        RtConfig {
            jobs: 1,
            seed: 0,
            grain: 0,
            max_steps: u64::MAX,
        }
    }
}

/// One spawned activity awaiting execution.
struct Task<'a> {
    stmt: &'a Stmt,
    scope: Arc<Scope>,
    tid: u32,
    clock: VClock,
    is_root: bool,
}

/// A `finish` scope: the countdown latch plus the clock accumulator the
/// waiter joins when the latch reaches zero.
struct Scope {
    pending: AtomicUsize,
    acc: Mutex<VClock>,
}

impl Scope {
    fn new() -> Scope {
        Scope {
            pending: AtomicUsize::new(0),
            acc: Mutex::new(VClock::new()),
        }
    }
}

/// Releases a scope's latch exactly once — on the normal path *after*
/// the clock has been folded into the accumulator, or during unwind if
/// the task panicked (without the fold: the crew is stopping anyway,
/// but no `finish` is left waiting).
struct Latch<'s> {
    scope: &'s Scope,
    armed: bool,
}

impl Latch<'_> {
    fn release(mut self) {
        self.fire();
    }

    fn fire(&mut self) {
        if self.armed {
            self.armed = false;
            self.scope.pending.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

impl Drop for Latch<'_> {
    fn drop(&mut self) {
        self.fire();
    }
}

/// Per-worker mutable state threaded through the call stack so helping
/// at a `finish` wait shares the same counters as the top-level loop.
struct Wctx {
    w: usize,
    rng: Xorshift,
    processed: u64,
}

struct Xorshift(u64);

impl Xorshift {
    fn new(seed: u64) -> Xorshift {
        Xorshift(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// How often (in instructions) each worker polls cancel and deadline.
const POLL_STRIDE: u64 = 64;

struct Engine<'a> {
    p: &'a Program,
    cells: Vec<AtomicI64>,
    detector: Detector,
    deques: Vec<Mutex<VecDeque<Task<'a>>>>,
    budget: Budget,
    cancel: &'a CancelToken,
    faults: &'a FaultPlan,
    grain: usize,
    max_steps: u64,
    next_tid: AtomicU32,
    steps: AtomicU64,
    stop: AtomicBool,
    cancelled: AtomicBool,
    exhausted: Mutex<Option<Exhaustion>>,
    panicked: Mutex<Option<(usize, String)>>,
    root_done: AtomicBool,
    root_completed: AtomicBool,
}

/// The helper functions return `Err(())` for "stop now"; the reason is
/// already recorded in the engine's control block.
type Go = Result<(), ()>;

impl<'a> Engine<'a> {
    fn trip(&self, e: Exhaustion) {
        self.exhausted.lock().unwrap().get_or_insert(e);
        self.stop.store(true, Ordering::Release);
    }

    fn poll(&self) -> Go {
        if self.cancel.is_cancelled() {
            self.cancelled.store(true, Ordering::Release);
            self.stop.store(true, Ordering::Release);
            return Err(());
        }
        if self.budget.deadline_exceeded() {
            self.trip(Exhaustion::Deadline);
            return Err(());
        }
        Ok(())
    }

    /// Charges one executed instruction and polls the stop conditions.
    fn charge(&self) -> Go {
        if self.stop.load(Ordering::Relaxed) {
            return Err(());
        }
        let n = self.steps.fetch_add(1, Ordering::Relaxed) + 1;
        if n > self.max_steps {
            self.trip(Exhaustion::Steps);
            return Err(());
        }
        if self.budget.max_iters.is_some_and(|cap| n > cap) {
            self.trip(Exhaustion::SolverIterations);
            return Err(());
        }
        if n.is_multiple_of(POLL_STRIDE) {
            self.poll()?;
        }
        Ok(())
    }

    fn eval(&self, e: &Expr, label: Label, tid: u32, clock: &VClock) -> i64 {
        match e {
            Expr::Const(c) => *c,
            Expr::Plus1(d) => {
                self.detector.on_read(*d, label, tid, clock);
                self.cells[*d].load(Ordering::Relaxed).wrapping_add(1)
            }
        }
    }

    /// Executes `s` as activity `tid`, spawning into `scope`.
    fn exec(
        &self,
        s: &'a Stmt,
        tid: u32,
        clock: &mut VClock,
        scope: &Arc<Scope>,
        ctx: &mut Wctx,
    ) -> Go {
        use fx10_syntax::InstrKind::*;
        for ins in s.instrs() {
            self.charge()?;
            match &ins.kind {
                Skip => {}
                Assign { idx, expr } => {
                    let v = self.eval(expr, ins.label, tid, clock);
                    self.detector.on_write(*idx, ins.label, tid, clock);
                    self.cells[*idx].store(v, Ordering::Relaxed);
                }
                While { idx, body } => loop {
                    self.detector.on_read(*idx, ins.label, tid, clock);
                    if self.cells[*idx].load(Ordering::Relaxed) == 0 {
                        break;
                    }
                    self.exec(body, tid, clock, scope, ctx)?;
                    self.charge()?;
                },
                Async { body } => {
                    let child_tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
                    let child_clock = VClock::fork(clock, tid, child_tid);
                    if self.grain > 0 && body.size() <= self.grain {
                        // Below the grain: run inline — still a fresh
                        // activity, so detection is unchanged.
                        let mut cc = child_clock;
                        let r = self.exec(body, child_tid, &mut cc, scope, ctx);
                        scope.acc.lock().unwrap().join(&cc);
                        r?;
                    } else {
                        scope.pending.fetch_add(1, Ordering::AcqRel);
                        self.deques[ctx.w].lock().unwrap().push_back(Task {
                            stmt: body,
                            scope: scope.clone(),
                            tid: child_tid,
                            clock: child_clock,
                            is_root: false,
                        });
                    }
                }
                Finish { body } => {
                    let inner = Arc::new(Scope::new());
                    self.exec(body, tid, clock, &inner, ctx)?;
                    self.wait_scope(&inner, ctx)?;
                    clock.join(&inner.acc.lock().unwrap());
                }
                Call { callee } => {
                    self.exec(self.p.body(*callee), tid, clock, scope, ctx)?;
                }
            }
        }
        Ok(())
    }

    /// Blocks until `scope`'s latch reaches zero, helping: any runnable
    /// task is executed inline rather than spinning.
    fn wait_scope(&self, scope: &Scope, ctx: &mut Wctx) -> Go {
        let mut idle = 0u64;
        while scope.pending.load(Ordering::Acquire) > 0 {
            if self.stop.load(Ordering::Relaxed) {
                return Err(());
            }
            if let Some(task) = self.grab(ctx) {
                idle = 0;
                self.run_task(task, ctx)?;
            } else {
                idle += 1;
                if idle.is_multiple_of(256) {
                    self.poll()?;
                }
                if idle < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::sleep(Duration::from_micros(20));
                }
            }
        }
        Ok(())
    }

    /// Own deque (back) → steal (front of a seeded-random victim).
    fn grab(&self, ctx: &mut Wctx) -> Option<Task<'a>> {
        if let Some(t) = self.deques[ctx.w].lock().unwrap().pop_back() {
            return Some(t);
        }
        let n = self.deques.len();
        let start = ctx.rng.next() as usize % n;
        for i in 0..n {
            let v = (start + i) % n;
            if v == ctx.w {
                continue;
            }
            if let Some(t) = self.deques[v].lock().unwrap().pop_front() {
                return Some(t);
            }
        }
        None
    }

    /// Runs one task to completion (panics propagate to the worker's
    /// `catch_unwind`; the latch guard keeps the scope sound).
    fn run_task(&self, task: Task<'a>, ctx: &mut Wctx) -> Go {
        ctx.processed += 1;
        if self.faults.should_panic(ctx.w, ctx.processed) {
            panic!("injected fault: worker {} poisoned", ctx.w);
        }
        let mut clock = task.clock;
        let latch = Latch {
            scope: &task.scope,
            armed: !task.is_root,
        };
        let r = self.exec(task.stmt, task.tid, &mut clock, &task.scope, ctx);
        if !task.is_root {
            // Fold the final clock before releasing the latch so the
            // waiter's join sees it.
            task.scope.acc.lock().unwrap().join(&clock);
        }
        latch.release();
        if task.is_root {
            r?;
            // The implicit whole-program finish.
            self.wait_scope(&task.scope, ctx)?;
            self.root_completed.store(true, Ordering::Release);
            self.root_done.store(true, Ordering::Release);
            return Ok(());
        }
        r
    }

    /// Runs worker `w`, starting with `first` (the root task, for
    /// worker 0) before it grabs work.
    fn worker(&self, w: usize, seed: u64, mut first: Option<Task<'a>>) {
        let mut ctx = Wctx {
            w,
            rng: Xorshift::new(seed),
            processed: 0,
        };
        let mut idle = 0u64;
        loop {
            if self.root_done.load(Ordering::Acquire) || self.stop.load(Ordering::Acquire) {
                return;
            }
            match first.take().or_else(|| self.grab(&mut ctx)) {
                Some(task) => {
                    idle = 0;
                    let r = catch_unwind(AssertUnwindSafe(|| self.run_task(task, &mut ctx)));
                    match r {
                        Ok(_) => {}
                        Err(payload) => {
                            let message = panic_message(payload.as_ref());
                            self.panicked.lock().unwrap().get_or_insert((w, message));
                            self.stop.store(true, Ordering::Release);
                            return;
                        }
                    }
                }
                None => {
                    idle += 1;
                    if idle.is_multiple_of(256) && self.poll().is_err() {
                        return;
                    }
                    if idle < 64 {
                        std::hint::spin_loop();
                    } else {
                        std::thread::sleep(Duration::from_micros(20));
                    }
                }
            }
        }
    }
}

/// Runs `p` on the work-stealing crew.
///
/// Outcome precedence matches the explorer: worker panic
/// ([`Fx10Error::WorkerPanicked`], exit 4) > cancellation > budget
/// exhaustion (report with `completed: false`) > completion.
pub fn run_parallel(
    p: &Program,
    input: &[i64],
    cfg: &RtConfig,
    budget: Budget,
    cancel: &CancelToken,
    faults: &FaultPlan,
) -> Result<RunReport, Fx10Error> {
    let jobs = cfg.jobs.max(1);
    let init = ArrayState::with_input(p, input);
    let engine = Engine {
        p,
        cells: init.cells().iter().map(|&v| AtomicI64::new(v)).collect(),
        detector: Detector::new(init.cells().len()),
        deques: (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect(),
        budget,
        cancel,
        faults,
        grain: cfg.grain,
        max_steps: cfg.max_steps,
        next_tid: AtomicU32::new(1),
        steps: AtomicU64::new(0),
        stop: AtomicBool::new(false),
        cancelled: AtomicBool::new(false),
        exhausted: Mutex::new(None),
        panicked: Mutex::new(None),
        root_done: AtomicBool::new(false),
        root_completed: AtomicBool::new(false),
    };
    let root_scope = Arc::new(Scope::new());
    let mut root_clock = VClock::new();
    root_clock.bump(0);
    // Worker 0 runs the root itself, so it is the one worker certain
    // to process an item whatever the thread start order (fault plans
    // target it).
    let mut root = Some(Task {
        stmt: p.body(p.main()),
        scope: root_scope,
        tid: 0,
        clock: root_clock,
        is_root: true,
    });
    std::thread::scope(|s| {
        let eng = &engine;
        for w in 0..jobs {
            let wseed = cfg
                .seed
                .wrapping_add((w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let first = root.take();
            s.spawn(move || eng.worker(w, wseed, first));
        }
    });
    if let Some((worker, message)) = engine.panicked.into_inner().unwrap() {
        return Err(Fx10Error::WorkerPanicked { worker, message });
    }
    if engine.cancelled.load(Ordering::Acquire) {
        return Err(Fx10Error::Cancelled);
    }
    let exhausted = engine.exhausted.into_inner().unwrap();
    Ok(RunReport {
        array: engine
            .cells
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect(),
        steps: engine.steps.load(Ordering::Relaxed),
        completed: engine.root_completed.load(Ordering::Acquire) && exhausted.is_none(),
        exhausted,
        races: engine.detector.races(),
        activities: engine.next_tid.load(Ordering::Relaxed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elide::run_elision;
    use fx10_robust::PanicFault;
    use std::time::Instant;

    fn cfg(jobs: usize, seed: u64) -> RtConfig {
        RtConfig {
            jobs,
            seed,
            ..RtConfig::default()
        }
    }

    fn run(src: &str, jobs: usize, seed: u64) -> RunReport {
        let p = Program::parse(src).unwrap();
        run_parallel(
            &p,
            &[],
            &cfg(jobs, seed),
            Budget::unlimited(),
            &CancelToken::new(),
            &FaultPlan::none(),
        )
        .unwrap()
    }

    const FORK_JOIN: &str = "def main() {
        finish { async { a[0] = 1; } async { a[1] = 1; } }
        a[0] = a[1] + 1; a[1] = a[0] + 1;
    }";

    #[test]
    fn fork_join_matches_elision_on_every_crew_size() {
        let p = Program::parse(FORK_JOIN).unwrap();
        let serial =
            run_elision(&p, &[], u64::MAX, Budget::unlimited(), &CancelToken::new()).unwrap();
        assert!(serial.races.is_empty());
        for jobs in [1, 2, 8] {
            for seed in 0..8 {
                let par = run(FORK_JOIN, jobs, seed);
                assert!(par.completed);
                assert_eq!(par.array, serial.array, "jobs={jobs} seed={seed}");
                assert_eq!(par.steps, serial.steps, "jobs={jobs} seed={seed}");
                assert!(par.races.is_empty());
            }
        }
    }

    #[test]
    fn racy_program_is_flagged_by_some_schedule_independently() {
        // Detection is schedule-independent: every run flags the pair.
        for jobs in [1, 4] {
            let out = run("def main() { async { a[0] = 1; } a[0] = 2; }", jobs, 7);
            assert!(out.completed);
            assert_eq!(out.races.len(), 1);
        }
    }

    #[test]
    fn granularity_inlines_without_changing_results() {
        let p = Program::parse(FORK_JOIN).unwrap();
        let coarse = run_parallel(
            &p,
            &[],
            &RtConfig {
                jobs: 4,
                grain: 64,
                ..RtConfig::default()
            },
            Budget::unlimited(),
            &CancelToken::new(),
            &FaultPlan::none(),
        )
        .unwrap();
        let fine = run(FORK_JOIN, 4, 0);
        assert_eq!(coarse.array, fine.array);
        assert_eq!(coarse.steps, fine.steps);
        assert_eq!(coarse.activities, fine.activities);
    }

    #[test]
    fn injected_panic_releases_the_latch_and_reports_exit_4() {
        // finish over several asyncs; worker 0 panics on its 2nd task.
        let src = "def main() { finish {
            async { a[0] = 1; } async { a[1] = 1; }
            async { a[2] = 1; } async { a[3] = 1; }
        } K; }";
        let p = Program::parse(src).unwrap();
        let faults = FaultPlan {
            panic_worker: Some(PanicFault {
                worker: 0,
                after_states: 2,
            }),
            ..FaultPlan::none()
        };
        // Must return (latch released during unwind), not hang.
        let err = run_parallel(
            &p,
            &[],
            &cfg(2, 3),
            Budget::unlimited(),
            &CancelToken::new(),
            &faults,
        )
        .unwrap_err();
        match &err {
            Fx10Error::WorkerPanicked { worker, .. } => assert_eq!(*worker, 0),
            e => panic!("expected WorkerPanicked, got {e}"),
        }
        assert_eq!(err.exit_code(), 4);
    }

    #[test]
    fn cancel_and_deadline_stop_a_diverging_program() {
        let src = "def main() { a[0] = 1; while (a[0] != 0) { S; } }";
        let p = Program::parse(src).unwrap();
        let cancel = CancelToken::new();
        cancel.cancel();
        let err = run_parallel(
            &p,
            &[],
            &cfg(2, 0),
            Budget::unlimited(),
            &cancel,
            &FaultPlan::none(),
        )
        .unwrap_err();
        assert!(matches!(err, Fx10Error::Cancelled));

        let budget = Budget {
            deadline: Some(Instant::now() + Duration::from_millis(50)),
            ..Budget::unlimited()
        };
        let out = run_parallel(
            &p,
            &[],
            &cfg(2, 0),
            budget,
            &CancelToken::new(),
            &FaultPlan::none(),
        )
        .unwrap();
        assert!(!out.completed);
        assert_eq!(out.exhausted, Some(Exhaustion::Deadline));
    }

    #[test]
    fn step_cap_truncates_like_the_elision_engine() {
        let p = Program::parse("def main() { S1; S2; S3; S4; }").unwrap();
        let out = run_parallel(
            &p,
            &[],
            &RtConfig {
                jobs: 1,
                max_steps: 2,
                ..RtConfig::default()
            },
            Budget::unlimited(),
            &CancelToken::new(),
            &FaultPlan::none(),
        )
        .unwrap();
        assert!(!out.completed);
        assert_eq!(out.exhausted, Some(Exhaustion::Steps));
    }
}
