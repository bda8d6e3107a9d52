//! M:N cooperative node scheduler.
//!
//! The SP machine of the paper ran jobs at hundreds-to-1024 nodes; a
//! thread-per-node runtime caps the simulator at a few dozen. This module
//! multiplexes every simulated execution context — node bodies and the
//! engine service loops folded through [`crate::runtime::spawn_service`] —
//! onto a small fixed pool of OS workers, so a 1024-node job costs
//! `~workers` threads instead of ~3000.
//!
//! The pieces:
//!
//! * **Fibers** — each task owns a stack and is entered/left with a
//!   16-instruction x86-64 context switch ([`spsim_ctx_switch`]). A task's
//!   blocking points (queue waits, barrier parks, engine condvars) switch
//!   back to the worker instead of blocking the OS thread, which is what
//!   keeps a 1-core host (`SPSIM_WORKERS=1`) live: a single worker cycles
//!   through every runnable task.
//! * **[`SimCondvar`]** — a condition variable whose waiters park through
//!   the scheduler when called from a fiber and fall back to the raw
//!   condvar on plain threads, so the same call sites serve both the
//!   pooled and the legacy `SPSIM_SCHED=threads` runtime.
//! * **Timers** — a timed wait's deadline is an escape: it bounds how
//!   long a wait may block before the waiter reports a simulated deadlock,
//!   and no wait reaches it in a healthy run, because every wait wakes on
//!   the event it waits for. The timer table holds only parked tasks: an
//!   unpark removes the task's entry, so it never fills with stale
//!   deadlines. No timer fires before its deadline. A sleeping worker
//!   waits toward the earliest deadline, and a park wakes a sleeper only
//!   when its deadline is earlier than the one a sleeper already watches.
//! * **Wake path** — waking a fiber needs no futex syscall and no
//!   cross-core reschedule in the common case. A fiber that wakes an
//!   unpinned task while the global queue is empty puts it in its
//!   worker's *run-next* slot, and the worker runs it as soon as that
//!   fiber parks; since the slot only fills behind an empty queue, the
//!   run order stays FIFO and no fiber pair can starve another. A worker
//!   that runs out of work spins for [`IDLE_SPIN`] on a lock-free push
//!   counter (one spinner at a time), then steals any run-next task, then
//!   sleeps. Every wake goes through one rule, `Sched::wake_one`: no
//!   `notify_one` while a worker spins or when none sleeps. None of it is
//!   a knob.
//!
//! Determinism: traces and results are functions of virtual timestamps and
//! queue insertion sequence only — the existing determinism suite already
//! passes under freely racing OS threads — so any correct scheduler,
//! pooled or not, at any worker count, reproduces them byte-for-byte.
//! `determinism.rs` asserts exactly that.

use std::any::Any;
use std::cell::{Cell, RefCell, UnsafeCell};
use std::collections::{BTreeMap, VecDeque};
use std::mem::MaybeUninit;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::diag::OrDiag;

// ------------------------------------------------------------------ mode

/// How the runtime executes simulated contexts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedMode {
    /// M:N on the worker pool (the default).
    Pool,
    /// Legacy thread-per-node / thread-per-service (`SPSIM_SCHED=threads`)
    /// — the escape hatch and differential baseline.
    Threads,
}

// 0 = no override, 1 = Pool, 2 = Threads.
static MODE_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Programmatically force the scheduler mode (`None` restores the
/// `SPSIM_SCHED` environment default). Process-global, like
/// [`crate::runtime::set_schedule_tiebreak`]: callers that flip it around a
/// simulated run must serialize those runs and restore it afterwards.
pub fn set_sched_mode(mode: Option<SchedMode>) {
    // ordering: callers serialize whole runs around this hook (see above),
    // so no simulated thread races the store.
    MODE_OVERRIDE.store(
        match mode {
            None => 0,
            Some(SchedMode::Pool) => 1,
            Some(SchedMode::Threads) => 2,
        },
        Ordering::Relaxed, // ordering: see serialization note above
    );
}

fn env_mode() -> SchedMode {
    static ENV: OnceLock<SchedMode> = OnceLock::new();
    *ENV.get_or_init(|| {
        match std::env::var("SPSIM_SCHED").as_deref() {
            Ok("threads") => SchedMode::Threads,
            // Anything else (unset, "pool", typos) runs pooled: the default.
            _ => SchedMode::Pool,
        }
    })
}

/// The scheduler mode in effect for newly created contexts.
pub fn sched_mode() -> SchedMode {
    if !FIBERS_SUPPORTED {
        return SchedMode::Threads;
    }
    // ordering: see set_sched_mode — flips are serialized between runs.
    match MODE_OVERRIDE.load(Ordering::Relaxed) {
        1 => SchedMode::Pool,
        2 => SchedMode::Threads,
        _ => env_mode(),
    }
}

// --------------------------------------------------------------- workers

// 0 = no override; otherwise the forced worker-pool cap.
static WORKER_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Programmatically cap the worker pool (`None` restores the
/// `SPSIM_WORKERS`/core-count default). Workers already spawned above a
/// lowered cap go idle rather than exiting; raising the cap re-engages
/// them. Same process-global serialization contract as [`set_sched_mode`].
pub fn set_worker_cap(cap: Option<usize>) {
    // ordering: serialized between runs by the caller, like set_sched_mode.
    WORKER_OVERRIDE.store(cap.unwrap_or(0), Ordering::Relaxed);
    if let Some(s) = Sched::get() {
        let mut st = s.state.lock().unwrap_or_else(|e| e.into_inner());
        st.active_cap = worker_cap();
        let target = st.live.clamp(1, st.active_cap);
        s.ensure_workers(&mut st, target);
        drop(st);
        s.work_cv.notify_all();
        s.idle_cv.notify_all();
    }
}

fn env_workers() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("SPSIM_WORKERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
    })
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The effective pool-size cap: explicit override, else `SPSIM_WORKERS`,
/// else the host core count (`min(cores, n)` is applied against live
/// tasks when the pool grows).
fn worker_cap() -> usize {
    // ordering: serialized between runs by the caller, like set_sched_mode.
    match WORKER_OVERRIDE.load(Ordering::Relaxed) {
        0 => env_workers().unwrap_or_else(host_cores),
        n => n,
    }
}

/// Per-fiber stack size: `SPSIM_STACK_KB` override, else 512 KiB. Stacks
/// are allocated uninitialized so untouched pages stay uncommitted — a
/// 1024-node job reserves address space, not RAM.
fn stack_bytes() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("SPSIM_STACK_KB")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 32)
            .unwrap_or(512)
            * 1024
    })
}

// ---------------------------------------------------------- context switch

#[cfg(target_arch = "x86_64")]
const FIBERS_SUPPORTED: bool = true;
#[cfg(not(target_arch = "x86_64"))]
const FIBERS_SUPPORTED: bool = false;

// System-V x86-64 stack switch: save the callee-saved registers and the
// stack pointer of the current context, restore another's. The fiber's
// first entry is faked as a restore whose popped registers were pre-staged
// by `Task::init_frame` (r12 = the task pointer, return address =
// `spsim_fiber_entry`).
#[cfg(target_arch = "x86_64")]
std::arch::global_asm!(
    ".text",
    ".globl spsim_ctx_switch",
    ".p2align 4",
    "spsim_ctx_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "mov [rdi], rsp",
    "mov rsp, rsi",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    ".globl spsim_fiber_entry",
    ".p2align 4",
    "spsim_fiber_entry:",
    "mov rdi, r12",
    "and rsp, -16",
    "call spsim_fiber_main",
    "ud2",
);

#[cfg(target_arch = "x86_64")]
extern "C" {
    /// Defined in the `global_asm!` block above.
    fn spsim_ctx_switch(save_rsp: *mut usize, restore_rsp: usize);
    /// Label, never called from Rust — its address seeds new fiber frames.
    fn spsim_fiber_entry();
}

#[cfg(not(target_arch = "x86_64"))]
unsafe fn spsim_ctx_switch(_save_rsp: *mut usize, _restore_rsp: usize) {
    unreachable!("fibers are x86-64 only; sched_mode() forces Threads here")
}

/// Rust side of the fiber trampoline: runs the task closure under
/// `catch_unwind`, records the outcome, and switches back to the worker
/// for the last time. Never returns.
#[cfg(target_arch = "x86_64")]
#[no_mangle]
extern "C" fn spsim_fiber_main(task: *const Task) {
    // Safety: the worker that switched us in holds an Arc to this task for
    // the whole time the fiber can run (see `Worker::run_task`).
    let task = unsafe { &*task };
    let body = unsafe { (*task.fiber.get()).entry.take() };
    let body = body.or_diag("fiber entered twice");
    if let Err(p) = catch_unwind(AssertUnwindSafe(body)) {
        task.done.lock().unwrap_or_else(|e| e.into_inner()).panic = Some(p);
    }
    EXIT.with(|e| e.set(ExitKind::Finish));
    switch_to_worker(task);
    unreachable!("finished fiber resumed");
}

// ------------------------------------------------------------------ tasks

const CANARY: u64 = 0x5EED_F1B3_DEAD_CA11;

/// A fiber stack. Uninitialized on purpose: pages commit lazily as the
/// task actually touches them. Stored as u64 words so the canary and the
/// staged register frame are naturally aligned.
struct Stack {
    mem: Box<[MaybeUninit<u64>]>,
}

impl Stack {
    fn new(bytes: usize) -> Stack {
        let words = bytes.div_ceil(8);
        let mut v = Vec::with_capacity(words);
        // Safety: MaybeUninit<u64> is valid uninitialized.
        unsafe { v.set_len(words) };
        Stack {
            mem: v.into_boxed_slice(),
        }
    }

    fn base(&self) -> usize {
        self.mem.as_ptr() as usize
    }

    fn len_bytes(&self) -> usize {
        self.mem.len() * 8
    }

    fn top(&self) -> usize {
        (self.base() + self.len_bytes()) & !15
    }
}

/// Fiber-side state, touched only by the spawner (before the first
/// schedule) and by the single worker currently switching the task —
/// hand-offs are serialized through the scheduler lock.
struct FiberState {
    stack: Stack,
    /// Saved stack pointer while the task is off-CPU.
    rsp: usize,
    entry: Option<Box<dyn FnOnce() + Send + 'static>>,
}

struct Done {
    finished: bool,
    panic: Option<Box<dyn Any + Send + 'static>>,
    /// Fibers parked in `join_task`, unparked when this task finishes.
    fiber_waiters: Vec<Arc<Task>>,
}

/// One scheduled execution context: a node body or an engine service loop.
pub(crate) struct Task {
    name: String,
    fiber: UnsafeCell<FiberState>,
    /// True while the task sits in the parked set (scheduler-lock guarded).
    parked: AtomicBool,
    /// Wake token for unpark-before-park races (scheduler-lock guarded).
    notified: AtomicBool,
    /// Why the last park ended; read by the fiber after it resumes.
    timed_out: AtomicBool,
    /// This task's key in the timer table while it is parked with a
    /// deadline (only touched under the scheduler lock).
    timer: Mutex<Option<TimerKey>>,
    /// Worker index this task must resume on (`usize::MAX` = any): set
    /// when a task parks mid-unwind, because std's panic bookkeeping is
    /// thread-local and must unwind on the thread that started it.
    pin: AtomicUsize,
    done: Mutex<Done>,
    done_cv: Condvar,
}

// Safety: `fiber` is only touched by the spawner before the task is first
// enqueued and by the one worker currently running or switching the task;
// every hand-off between workers goes through the scheduler mutex, which
// orders those accesses.
unsafe impl Send for Task {}
unsafe impl Sync for Task {}

impl Task {
    fn new(name: String, entry: Box<dyn FnOnce() + Send + 'static>) -> Arc<Task> {
        let task = Arc::new(Task {
            name,
            fiber: UnsafeCell::new(FiberState {
                stack: Stack::new(stack_bytes()),
                rsp: 0,
                entry: Some(entry),
            }),
            parked: AtomicBool::new(false),
            notified: AtomicBool::new(false),
            timed_out: AtomicBool::new(false),
            timer: Mutex::new(None),
            pin: AtomicUsize::new(usize::MAX),
            done: Mutex::new(Done {
                finished: false,
                panic: None,
                fiber_waiters: Vec::new(),
            }),
            done_cv: Condvar::new(),
        });
        // Safety: no other reference to `fiber` exists yet.
        unsafe { task.init_frame(Arc::as_ptr(&task)) };
        task
    }

    /// Stage the initial stack frame so the first context switch "returns"
    /// into `spsim_fiber_entry` with r12 = the task pointer.
    ///
    /// # Safety
    /// Must run before the task is first enqueued, with no concurrent
    /// access to `fiber`.
    unsafe fn init_frame(&self, me: *const Task) {
        let fb = &mut *self.fiber.get();
        let base = fb.stack.base() as *mut u64;
        // Canary at the stack's low end: clobbered means overflow.
        base.write(CANARY);
        let top = fb.stack.top();
        // 8 words below the top: r15 r14 r13 r12 rbx rbp ret pad.
        let frame = (top - 8 * 8) as *mut u64;
        for i in 0..6 {
            frame.add(i).write(0);
        }
        frame.add(3).write(me as u64); // restored into r12
        #[cfg(target_arch = "x86_64")]
        frame
            .add(6)
            .write(spsim_fiber_entry as *const () as usize as u64);
        frame.add(7).write(0);
        fb.rsp = frame as usize;
    }

    fn check_canary(&self) {
        // Safety: called by the worker that owns the task right now.
        let fb = unsafe { &*self.fiber.get() };
        // Safety: reads the word init_frame wrote at the stack base.
        let canary = unsafe { (fb.stack.base() as *const u64).read() };
        if canary != CANARY {
            // The guard word is gone: the fiber overran its stack and
            // memory beyond it is already suspect. Nothing can be unwound
            // safely; die loudly.
            eprintln!(
                "spsim: fiber `{}` overflowed its {}-byte stack (canary clobbered); \
                 raise SPSIM_STACK_KB",
                self.name,
                fb.stack.len_bytes()
            );
            std::process::abort();
        }
    }

    pub(crate) fn is_finished(&self) -> bool {
        self.done.lock().unwrap_or_else(|e| e.into_inner()).finished
    }
}

impl std::fmt::Debug for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Task").field("name", &self.name).finish()
    }
}

// --------------------------------------------------------- current fiber

#[derive(Clone, Copy, PartialEq, Eq)]
enum ExitKind {
    Yield,
    Park,
    Finish,
}

thread_local! {
    /// The task currently running on this worker, if any.
    static CURRENT: RefCell<Option<Arc<Task>>> = const { RefCell::new(None) };
    /// Saved worker stack pointer while a fiber runs.
    static WORKER_RSP: Cell<usize> = const { Cell::new(0) };
    /// This worker's index (`usize::MAX` on non-worker threads).
    static WORKER_ID: Cell<usize> = const { Cell::new(usize::MAX) };
    /// Why the fiber last switched back to the worker.
    static EXIT: Cell<ExitKind> = const { Cell::new(ExitKind::Finish) };
    /// Park deadline accompanying an `ExitKind::Park` switch-back.
    static EXIT_DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// The fiber the calling thread is currently executing, if it is one.
pub(crate) fn current_task() -> Option<Arc<Task>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Is the caller running on a pooled fiber (vs a plain OS thread)?
pub fn on_fiber() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Switch from the running fiber back to its worker. Returns when (if)
/// the task is next resumed, possibly on a different worker.
fn switch_to_worker(task: &Task) {
    task.check_canary();
    // Pin mid-unwind fibers to this worker: std's panic count is
    // thread-local, so an unwind that started here must finish here.
    let pin = if std::thread::panicking() {
        WORKER_ID.with(|w| w.get())
    } else {
        usize::MAX
    };
    // ordering: consumed by the worker under the scheduler lock after the
    // switch completes.
    task.pin.store(pin, Ordering::Relaxed);
    let to = WORKER_RSP.with(|c| c.get());
    // Safety: `to` is the rsp this worker saved when it switched the fiber
    // in; the save slot is the task's own, untouched until the switch.
    unsafe { spsim_ctx_switch(std::ptr::addr_of_mut!((*task.fiber.get()).rsp), to) };
}

/// Park the running fiber until [`Sched::unpark`] or `deadline`. Returns
/// true if the park ended by timeout. Must be called from a fiber.
// liveness: wakeups come from Sched::unpark (queue pushes, condvar
// notifies, joins) or, when `deadline` is set, from the timer table: every
// scheduling round promotes due timers, and a sleeping worker waits toward
// the earliest deadline.
pub(crate) fn park_current(deadline: Option<Instant>) -> bool {
    let task = current_task().or_diag("park_current outside a fiber");
    EXIT.with(|e| e.set(ExitKind::Park));
    EXIT_DEADLINE.with(|d| d.set(deadline));
    switch_to_worker(&task);
    // ordering: set by the waking worker before it handed the task back
    // through the scheduler lock.
    task.timed_out.load(Ordering::Relaxed)
}

/// Yield the running fiber to the back of the ready queue; plain
/// `std::thread::yield_now` when called from an OS thread. The scheduler-
/// aware replacement for spin-loop yields (e.g. a full delivery ring).
// liveness: pure yield — the task is immediately runnable again; the
// condition it spins on is advanced by whichever task the worker runs in
// the meantime (a full ring's consumer, woken by the pushes that filled
// it).
pub fn yield_now() {
    if current_task().is_some() {
        EXIT.with(|e| e.set(ExitKind::Yield));
        let task = current_task().or_diag("yield raced task teardown");
        switch_to_worker(&task);
    } else {
        std::thread::yield_now();
    }
}

// -------------------------------------------------------------- scheduler

/// A timer-table key: the deadline, then a sequence number that keeps
/// keys unique and orders equal deadlines by park order.
type TimerKey = (Instant, u64);

struct SchedState {
    /// The global ready queue.
    ready: VecDeque<Arc<Task>>,
    /// Deadlines of parked tasks, earliest first. An unpark removes the
    /// task's entry, so every entry is a task still parked.
    timers: BTreeMap<TimerKey, Arc<Task>>,
    timer_seq: u64,
    /// The earliest deadline a sleeping worker waits toward, if any: a
    /// park with an earlier deadline wakes a sleeper to re-arm.
    watched: Option<Instant>,
    /// Tasks currently executing on a worker.
    running: usize,
    /// Unfinished tasks (running + ready + parked).
    live: usize,
    /// One run-next slot per spawned worker thread: a task the fiber
    /// running there woke, to run on that worker as soon as the fiber
    /// parks, with no cross-worker wake.
    run_next: Vec<Option<Arc<Task>>>,
    /// Workers with index >= this cap idle (test hook / lowered override).
    active_cap: usize,
}

struct Sched {
    state: Mutex<SchedState>,
    /// Where idle workers sleep until there is work.
    work_cv: Condvar,
    /// Where workers above `active_cap` sleep, so a wake meant for a
    /// worker that may run tasks is never absorbed by one that may not.
    idle_cv: Condvar,
    /// Workers waiting on `work_cv`, counted under the lock.
    sleepers: AtomicUsize,
    /// Pushes onto `ready` so far, bumped under the lock: the lock-free
    /// "work available" hint an idle spinner polls for a change.
    pushes: Padded<AtomicU64>,
    /// Workers spinning before sleeping (0 or 1). Raised only under the
    /// lock, lowered by the spinner outside it; see [`Sched::wake_one`].
    spinning: AtomicUsize,
}

/// A value on a cache line of its own, so a spinner polling it does not
/// contend with writes to the scheduler lock beside it.
#[repr(align(128))]
struct Padded<T>(T);

/// How long an idle worker spins on the push hint before it steals
/// another worker's run-next task or sleeps on `work_cv`. Long enough to
/// cover a fiber's run between two handoffs of a ping-pong, short enough
/// that an idle pool sleeps almost at once.
const IDLE_SPIN: Duration = Duration::from_micros(20);

static SCHED: OnceLock<Sched> = OnceLock::new();

impl Sched {
    fn get() -> Option<&'static Sched> {
        SCHED.get()
    }

    fn global() -> &'static Sched {
        SCHED.get_or_init(|| Sched {
            state: Mutex::new(SchedState {
                ready: VecDeque::new(),
                timers: BTreeMap::new(),
                timer_seq: 0,
                watched: None,
                running: 0,
                live: 0,
                run_next: Vec::new(),
                active_cap: worker_cap(),
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            pushes: Padded(AtomicU64::new(0)),
            spinning: AtomicUsize::new(0),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Spawn worker threads up to `target` (never shrinks; a lowered cap
    /// just idles the excess).
    fn ensure_workers(&'static self, st: &mut SchedState, target: usize) {
        while st.run_next.len() < target {
            let wi = st.run_next.len();
            std::thread::Builder::new()
                .name(format!("spsim-worker-{wi}"))
                .spawn(move || self.worker_loop(wi))
                .or_diag("spawn scheduler worker");
            st.run_next.push(None);
        }
    }

    /// Enqueue a new task on the pool.
    fn spawn_task(&'static self, task: Arc<Task>) {
        let mut st = self.lock();
        st.live += 1;
        st.active_cap = worker_cap();
        let target = st.live.clamp(1, st.active_cap);
        self.ensure_workers(&mut st, target);
        self.push_ready(&mut st, task);
        drop(st);
        self.wake_one();
    }

    /// Append a runnable task to the global queue and refresh the hint.
    fn push_ready(&self, st: &mut SchedState, task: Arc<Task>) {
        st.ready.push_back(task);
        // ordering: the hint is advisory; whoever acts on it re-checks
        // `ready` under the lock.
        self.pushes.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Wake one sleeping worker for a task just made runnable (pushed
    /// onto `ready` or put in a run-next slot), unless a worker is
    /// spinning — the spinner takes it without a futex wake — or no worker
    /// sleeps at all. Every unpinned wake site (spawn, unpark, Yield and
    /// early-notified Park re-queues, Finish) goes through here; pinned
    /// wakes use `notify_all`.
    fn wake_one(&self) {
        // No lost wakeup: the task was queued under the lock, before these
        // SeqCst loads. A spinner lowers `spinning` (SeqCst) *before* it
        // takes the lock to re-check the queues. If the first load still
        // reads a spinner's raise, that spinner's lowering comes later in
        // modification order, so its locked re-check cannot precede our
        // queueing critical section (that would make the lowering
        // happen-before this load): it sees the task. A sleeper counts
        // itself in the critical section that found nothing to run and
        // uncounts itself in the one that re-checks after waking: if the
        // count predates our queueing, the lock orders it before the
        // second load; if the uncount is what we read, the re-check in its
        // critical section sees the task.
        // ordering: SeqCst on both loads, per the argument above.
        if self.spinning.load(Ordering::SeqCst) == 0 && self.sleepers.load(Ordering::SeqCst) > 0 {
            self.work_cv.notify_one();
        }
    }

    /// Make a parked task runnable (or leave it a wake token if it has not
    /// finished parking yet). `timed_out=false` marks a genuine notify.
    fn unpark(&self, task: &Arc<Task>) {
        let mut st = self.lock();
        // ordering: both flags are only flipped under the scheduler lock.
        if task.parked.swap(false, Ordering::Relaxed) {
            task.timed_out.store(false, Ordering::Relaxed);
            if let Some(key) = Self::take_timer(task) {
                st.timers.remove(&key);
            }
            // ordering: pin writes happen-before via the scheduler lock.
            let pinned = task.pin.load(Ordering::Relaxed) != usize::MAX;
            let waker = WORKER_ID.with(|w| w.get());
            // A fiber woke it: run it on this worker when that fiber
            // parks. Only into an empty slot with an empty global queue,
            // so it passes no task that was runnable before it — the
            // run order stays the global queue's FIFO order, and a pair
            // of fibers waking each other cannot starve a third.
            let to_run_next = !pinned
                && on_fiber()
                && st.ready.is_empty()
                && st.run_next.get(waker).is_some_and(Option::is_none);
            if to_run_next {
                st.run_next[waker] = Some(Arc::clone(task));
            } else {
                self.push_ready(&mut st, Arc::clone(task));
            }
            drop(st);
            // A pinned task can only run on one worker — wake them all so
            // the right one sees it. A run-next task still wakes one idle
            // worker, which steals it after its spin if this worker's
            // fiber has not parked by then.
            if pinned {
                self.work_cv.notify_all();
            } else {
                self.wake_one();
            }
        } else {
            // ordering: wake token is read back under the same lock.
            task.notified.store(true, Ordering::Relaxed);
        }
    }

    /// Pop the first ready task this worker may run (pin-aware).
    fn pop_ready(st: &mut SchedState, wi: usize) -> Option<Arc<Task>> {
        let idx = st.ready.iter().position(|t| {
            // ordering: pins are written before the task re-enters the
            // ready queue via the scheduler lock.
            let p = t.pin.load(Ordering::Relaxed);
            p == usize::MAX || p == wi
        })?;
        st.ready.remove(idx)
    }

    /// This worker's next task, and whether it came from its run-next
    /// slot (always taken first: it was queued before anything now in the
    /// global queue).
    fn pick(st: &mut SchedState, wi: usize) -> Option<(Arc<Task>, bool)> {
        if let Some(t) = st.run_next[wi].take() {
            return Some((t, true));
        }
        Self::pop_ready(st, wi).map(|t| (t, false))
    }

    /// Clear a task's timer key (caller holds the scheduler lock).
    fn take_timer(task: &Task) -> Option<TimerKey> {
        task.timer.lock().unwrap_or_else(|e| e.into_inner()).take()
    }

    /// Move every wall-clock-due timer out of the table; due tasks become
    /// ready with `timed_out` set. Returns whether any task was promoted.
    fn promote_due(&self, st: &mut SchedState, now: Instant) -> bool {
        let mut promoted = false;
        while let Some(ent) = st.timers.first_entry() {
            if ent.key().0 > now {
                break;
            }
            let task = ent.remove();
            Self::take_timer(&task);
            // ordering: flags flipped under the scheduler lock; the
            // resumed fiber observes timed_out via the lock hand-off.
            task.parked.store(false, Ordering::Relaxed);
            task.timed_out.store(true, Ordering::Relaxed);
            // ordering: pins are written before the task parks, under the
            // same lock.
            if task.pin.load(Ordering::Relaxed) != usize::MAX {
                // Only its own worker may run it: wake them all.
                self.work_cv.notify_all();
            }
            self.push_ready(st, task);
            promoted = true;
        }
        promoted
    }

    fn worker_loop(&'static self, wi: usize) {
        WORKER_ID.with(|w| w.set(wi));
        loop {
            let task = self.next_task(wi);
            self.run_task(task, wi);
        }
    }

    /// Block until this worker has a task to run: pick one (run-next slot
    /// or global queue), else spin for up to [`IDLE_SPIN`], then steal a
    /// run-next task, then sleep until woken or the earliest deadline.
    fn next_task(&'static self, wi: usize) -> Arc<Task> {
        let mut st = self.lock();
        // End of this idle spell's spin budget, once it has started: a
        // spinner that loses a task to another worker spins on for the
        // rest of the budget, then steals a run-next task or sleeps.
        let mut spin_until: Option<Instant> = None;
        loop {
            if wi >= st.active_cap {
                if let Some(t) = st.run_next[wi].take() {
                    self.push_ready(&mut st, t);
                    self.work_cv.notify_all();
                }
                // liveness: set_worker_cap notifies idle_cv when it raises
                // the cap.
                st = self.idle_cv.wait(st).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            let promoted = self.promote_due(&mut st, Instant::now());
            if let Some((t, from_next)) = Self::pick(&mut st, wi) {
                st.running += 1;
                // A spinner's notifiers elided their wakes for it, a
                // run-next pick leaves the global queue to others, and
                // promoted timers were queued with no wake: in each case,
                // pass a wake on to a sleeper if work remains.
                let rewake =
                    (spin_until.is_some() || from_next || promoted) && !st.ready.is_empty();
                drop(st);
                if rewake {
                    self.wake_one();
                }
                return t;
            }
            let until = *spin_until.get_or_insert_with(|| Instant::now() + IDLE_SPIN);
            let spin_left = Instant::now() < until;
            if !spin_left {
                // Spin spent with nothing else to run: steal any worker's
                // run-next task, so an owner whose fiber runs long (or
                // blocks its thread) cannot strand it.
                if let Some(t) = st.run_next.iter_mut().find_map(Option::take) {
                    st.running += 1;
                    return t;
                }
            }
            // ordering: raised only under the lock, so at most one worker
            // spins; lowered SeqCst before the re-check (see wake_one).
            if spin_left && self.spinning.load(Ordering::SeqCst) == 0 {
                self.spinning.store(1, Ordering::SeqCst);
                // ordering: read under the lock every push bumps it under.
                let seen = self.pushes.0.load(Ordering::Relaxed);
                drop(st);
                self.spin_for_work(seen, until);
                // ordering: lowered before the locked re-check (wake_one).
                self.spinning.store(0, Ordering::SeqCst);
                st = self.lock();
                continue;
            }
            // ordering: counted and uncounted under the lock (see wake_one).
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            match st.timers.keys().next().map(|k| k.0) {
                Some(d) => {
                    // Watch the earliest deadline; run_task wakes a sleeper
                    // for an earlier one. Whoever set `watched` clears it
                    // on waking, so a set value always has a sleeper.
                    st.watched = Some(st.watched.map_or(d, |w| w.min(d)));
                    let now = Instant::now();
                    if d > now {
                        let (g, _) = self
                            .work_cv
                            .wait_timeout(st, d - now)
                            .unwrap_or_else(|e| e.into_inner());
                        st = g;
                    }
                    if st.watched == Some(d) {
                        st.watched = None;
                    }
                }
                // liveness: woken by spawn_task/unpark/set_worker_cap
                // notifies, and by run_task when a park brings the first
                // deadline.
                None => st = self.work_cv.wait(st).unwrap_or_else(|e| e.into_inner()),
            }
            // ordering: as above.
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            spin_until = None;
        }
    }

    /// Poll the push hint until it moves past `seen` or `until` passes.
    // liveness: bounded by `until`; the caller re-checks `ready` under the
    // lock either way.
    fn spin_for_work(&self, seen: u64, until: Instant) {
        loop {
            for _ in 0..64 {
                // ordering: advisory hint, re-checked under the lock.
                if self.pushes.0.load(Ordering::Relaxed) != seen {
                    return;
                }
                std::hint::spin_loop();
            }
            if Instant::now() >= until {
                return;
            }
        }
    }

    /// Switch a task in; on switch-back, apply its exit protocol. The park
    /// transition is completed *here*, on the worker side, after the
    /// fiber's context is fully saved — so a task can never be resumed by
    /// another worker while its registers are still in flight.
    fn run_task(&'static self, task: Arc<Task>, _wi: usize) {
        CURRENT.with(|c| *c.borrow_mut() = Some(Arc::clone(&task)));
        // Safety: this worker owns the task until the switch back; rsp was
        // staged by init_frame or the task's last switch-out.
        let restore = unsafe { (*task.fiber.get()).rsp };
        let save = WORKER_RSP.with(|c| c.as_ptr());
        unsafe { spsim_ctx_switch(save, restore) };
        CURRENT.with(|c| *c.borrow_mut() = None);
        let exit = EXIT.with(|e| e.get());
        match exit {
            ExitKind::Yield => {
                let mut st = self.lock();
                st.running -= 1;
                self.push_ready(&mut st, task);
                drop(st);
                self.wake_one();
            }
            ExitKind::Park => {
                let deadline = EXIT_DEADLINE.with(|d| d.take());
                let mut st = self.lock();
                st.running -= 1;
                // ordering: the wake-token handshake is serialized by the
                // scheduler lock (see Sched::unpark).
                if task.notified.swap(false, Ordering::Relaxed) {
                    // Unparked before the park completed: run again soon.
                    // ordering: still under the scheduler lock.
                    task.timed_out.store(false, Ordering::Relaxed);
                    self.push_ready(&mut st, task);
                    drop(st);
                    self.wake_one();
                } else {
                    // ordering: the park flag flips under the lock, where
                    // unpark and promote_due read it.
                    task.parked.store(true, Ordering::Relaxed);
                    if let Some(at) = deadline {
                        st.timer_seq += 1;
                        let key = (at, st.timer_seq);
                        *task.timer.lock().unwrap_or_else(|e| e.into_inner()) = Some(key);
                        st.timers.insert(key, task);
                        // A sleeper watching a later deadline (or none)
                        // would oversleep this one: wake one to re-arm.
                        // ordering: sleepers is counted under this lock.
                        let rearm = self.sleepers.load(Ordering::SeqCst) > 0
                            && st.watched.is_none_or(|w| at < w);
                        drop(st);
                        if rearm {
                            self.work_cv.notify_one();
                        }
                    }
                }
            }
            ExitKind::Finish => {
                {
                    let mut st = self.lock();
                    st.running -= 1;
                    st.live -= 1;
                }
                let waiters = {
                    let mut done = task.done.lock().unwrap_or_else(|e| e.into_inner());
                    done.finished = true;
                    std::mem::take(&mut done.fiber_waiters)
                };
                task.done_cv.notify_all();
                for w in &waiters {
                    self.unpark(w);
                }
                self.wake_one();
            }
        }
    }
}

// ------------------------------------------------------------ public API

/// Spawn a closure as a pooled task. Used by `spsim::runtime` for node
/// bodies and service loops; not exposed outside the crate.
pub(crate) fn spawn(name: String, f: Box<dyn FnOnce() + Send + 'static>) -> Arc<Task> {
    let task = Task::new(name, f);
    Sched::global().spawn_task(Arc::clone(&task));
    task
}

/// Wait until `task` finishes. Parks when called from a fiber, blocks on
/// the task's condvar from a plain thread (e.g. a unit test's main thread
/// dropping a context).
// liveness: the joined task's Finish transition notifies `done_cv` and
// unparks every registered fiber waiter.
pub(crate) fn join_task(task: &Arc<Task>) {
    if let Some(me) = current_task() {
        loop {
            {
                let mut done = task.done.lock().unwrap_or_else(|e| e.into_inner());
                if done.finished {
                    return;
                }
                done.fiber_waiters.push(Arc::clone(&me));
            }
            park_current(None);
        }
    } else {
        let mut done = task.done.lock().unwrap_or_else(|e| e.into_inner());
        while !done.finished {
            done = task.done_cv.wait(done).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Take the panic payload a finished task died with, if any.
pub(crate) fn take_panic(task: &Arc<Task>) -> Option<Box<dyn Any + Send + 'static>> {
    task.done
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .panic
        .take()
}

// -------------------------------------------------------------- condvar

/// Result of a timed [`SimCondvar`] wait (API-compatible with
/// `parking_lot::WaitTimeoutResult`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimWaitTimeoutResult(bool);

impl SimWaitTimeoutResult {
    /// Did the wait end because the timeout elapsed?
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Scheduler-aware condition variable.
///
/// Drop-in for `parking_lot::Condvar` at every blocking point in simulated
/// code: a fiber caller registers as a waiter and parks through the pool
/// (releasing the caller's lock via `MutexGuard::unlocked`), a plain
/// thread falls through to an ordinary condvar wait. Notifies wake one or
/// all of *both* kinds of waiter, so mixed jobs — fiber services with a
/// thread-driven harness, or the `SPSIM_SCHED=threads` legacy mode — need
/// no special-casing at call sites.
#[derive(Default)]
pub struct SimCondvar {
    raw: parking_lot::Condvar,
    fibers: Mutex<VecDeque<Arc<Task>>>,
    /// Registered fiber waiters, mirrored outside the deque lock so the
    /// (hot) notify path of a condvar with no fiber waiters — every
    /// `TimedQueue` push from a plain thread, for instance — skips the
    /// lock entirely. Incremented before the caller's mutex is released in
    /// `fiber_wait`, so a registration that happens-before a notify (via
    /// that mutex) is always visible to the notifier's load.
    nfibers: AtomicUsize,
    /// Plain threads blocked on `raw`, counted the same way, so a notify
    /// with no thread waiter skips the raw condvar's futex wake.
    nthreads: AtomicUsize,
}

impl SimCondvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        SimCondvar {
            raw: parking_lot::Condvar::new(),
            fibers: Mutex::new(VecDeque::new()),
            nfibers: AtomicUsize::new(0),
            nthreads: AtomicUsize::new(0),
        }
    }

    fn waiters(&self) -> std::sync::MutexGuard<'_, VecDeque<Arc<Task>>> {
        self.fibers.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Register, release the caller's lock, park; deregister on the way
    /// out whatever ended the park.
    fn fiber_wait(
        &self,
        me: Arc<Task>,
        guard_unlock: impl FnOnce(&dyn Fn() -> bool) -> bool,
        deadline: Option<Instant>,
    ) -> bool {
        {
            let mut w = self.waiters();
            // ordering: SeqCst pairs with the notify fast-path load; the
            // increment lands before the caller's mutex is released below.
            self.nfibers.fetch_add(1, Ordering::SeqCst);
            w.push_back(Arc::clone(&me));
        }
        let timed_out = guard_unlock(&|| park_current(deadline));
        // Always deregister: a park can also end spuriously (a stale wake
        // token from an earlier timed-out wait), and leaving the entry
        // behind would let a later notify_one be absorbed by a waiter that
        // already left — starving a genuine one.
        let still_registered = {
            let mut w = self.waiters();
            match w.iter().position(|t| Arc::ptr_eq(t, &me)) {
                Some(i) => {
                    w.remove(i);
                    // ordering: as at registration; the popper decrements
                    // otherwise.
                    self.nfibers.fetch_sub(1, Ordering::SeqCst);
                    true
                }
                None => false,
            }
        };
        if !still_registered && timed_out {
            // A notifier popped us concurrently with our timeout and spent
            // its notify on a waiter that is giving up — pass it on so the
            // wakeup is not lost.
            self.notify_one();
        }
        timed_out
    }

    /// Block until notified; the guard is released while waiting and
    /// re-acquired before returning.
    // liveness: woken by notify_one/notify_all from whichever task flips
    // the condition the caller re-checks in its wait loop.
    pub fn wait<T>(&self, guard: &mut parking_lot::MutexGuard<'_, T>) {
        match current_task() {
            Some(me) => {
                self.fiber_wait(
                    me,
                    |park| parking_lot::MutexGuard::unlocked(guard, park),
                    None,
                );
            }
            // An unbounded wait_for is parking_lot's plain wait. Spelled
            // this way, spsim-lint's by-name call graph does not route the
            // call to every `wait` in the workspace (RmwFuture::wait,
            // VBarrier::wait, ...), which would put false lock-order cycles
            // behind every untimed wait on this condvar.
            None => self.thread_wait(|| {
                self.raw.wait_for(guard, Duration::MAX);
            }),
        }
    }

    /// Block a plain thread on `raw`, counted in `nthreads` for the
    /// duration.
    fn thread_wait<R>(&self, block: impl FnOnce() -> R) -> R {
        // ordering: SeqCst, like `nfibers`: the increment lands while the
        // caller still holds its mutex, before `raw` releases it.
        self.nthreads.fetch_add(1, Ordering::SeqCst);
        let r = block();
        // ordering: as above.
        self.nthreads.fetch_sub(1, Ordering::SeqCst);
        r
    }

    /// Wake one (or every) plain thread blocked on `raw`, if any.
    fn notify_threads(&self, all: bool) {
        // ordering: pairs with the increment in thread_wait, as the
        // `nfibers` load pairs with fiber registration.
        if self.nthreads.load(Ordering::SeqCst) == 0 {
            return;
        }
        if all {
            self.raw.notify_all();
        } else {
            self.raw.notify_one();
        }
    }

    /// Block until notified or `timeout` elapses.
    // liveness: notify wakeups as in `wait`; the deadline additionally
    // enters the scheduler's timer table, promoted once it is due.
    pub fn wait_for<T>(
        &self,
        guard: &mut parking_lot::MutexGuard<'_, T>,
        timeout: Duration,
    ) -> SimWaitTimeoutResult {
        self.wait_until(guard, Instant::now() + timeout)
    }

    /// Block until notified or the `deadline` instant passes.
    // liveness: notify wakeups as in `wait`; the deadline additionally
    // enters the scheduler's timer table, promoted once it is due.
    pub fn wait_until<T>(
        &self,
        guard: &mut parking_lot::MutexGuard<'_, T>,
        deadline: Instant,
    ) -> SimWaitTimeoutResult {
        match current_task() {
            Some(me) => {
                if deadline <= Instant::now() {
                    return SimWaitTimeoutResult(true);
                }
                let timed_out = self.fiber_wait(
                    me,
                    |park| parking_lot::MutexGuard::unlocked(guard, park),
                    Some(deadline),
                );
                SimWaitTimeoutResult(timed_out)
            }
            None => SimWaitTimeoutResult(
                self.thread_wait(|| self.raw.wait_until(guard, deadline).timed_out()),
            ),
        }
    }

    /// Wake one waiter (fiber or thread).
    pub fn notify_one(&self) {
        // ordering: SeqCst pairs with the registration increment; a zero
        // here means no fiber registered-before this notify, so the deque
        // lock can be skipped (the raw notify below still covers threads).
        if self.nfibers.load(Ordering::SeqCst) != 0 {
            let w = {
                let mut ws = self.waiters();
                let t = ws.pop_front();
                if t.is_some() {
                    // ordering: as at registration.
                    self.nfibers.fetch_sub(1, Ordering::SeqCst);
                }
                t
            };
            if let (Some(t), Some(s)) = (w, Sched::get()) {
                s.unpark(&t);
            }
        }
        self.notify_threads(false);
    }

    /// Wake all waiters (fibers and threads).
    pub fn notify_all(&self) {
        // ordering: see notify_one.
        if self.nfibers.load(Ordering::SeqCst) != 0 {
            let drained: Vec<_> = {
                let mut ws = self.waiters();
                let d: Vec<_> = ws.drain(..).collect();
                // ordering: as at registration.
                self.nfibers.fetch_sub(d.len(), Ordering::SeqCst);
                d
            };
            if let Some(s) = Sched::get() {
                for t in &drained {
                    s.unpark(t);
                }
            }
        }
        self.notify_threads(true);
    }
}

impl std::fmt::Debug for SimCondvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SimCondvar")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex as PlMutex;

    fn spawn_fn(name: &str, f: impl FnOnce() + Send + 'static) -> Arc<Task> {
        spawn(name.to_string(), Box::new(f))
    }

    #[test]
    fn task_runs_and_joins() {
        let hit = Arc::new(AtomicBool::new(false));
        let h2 = Arc::clone(&hit);
        let t = spawn_fn("t-basic", move || h2.store(true, Ordering::SeqCst));
        join_task(&t);
        assert!(hit.load(Ordering::SeqCst));
        assert!(t.is_finished());
        assert!(take_panic(&t).is_none());
    }

    #[test]
    fn panic_payload_is_captured() {
        let t = spawn_fn("t-panic", || panic!("fiber exploded"));
        join_task(&t);
        let p = take_panic(&t).expect("panic recorded");
        let msg = p.downcast_ref::<&str>().expect("str payload");
        assert_eq!(*msg, "fiber exploded");
    }

    #[test]
    fn many_tasks_on_one_pool_interleave() {
        let n = 64;
        let count = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<_> = (0..n)
            .map(|i| {
                let c = Arc::clone(&count);
                spawn_fn(&format!("t-many-{i}"), move || {
                    for _ in 0..3 {
                        yield_now();
                    }
                    c.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        for t in &tasks {
            join_task(t);
        }
        assert_eq!(count.load(Ordering::SeqCst), n);
    }

    #[test]
    fn simcondvar_handoff_between_fibers() {
        struct Board {
            m: PlMutex<u32>,
            cv: SimCondvar,
        }
        let b = Arc::new(Board {
            m: PlMutex::new(0),
            cv: SimCondvar::new(),
        });
        let (b1, b2) = (Arc::clone(&b), Arc::clone(&b));
        let consumer = spawn_fn("t-cv-consumer", move || {
            let mut v = b1.m.lock();
            while *v < 3 {
                b1.cv.wait(&mut v);
            }
        });
        let producer = spawn_fn("t-cv-producer", move || {
            for _ in 0..3 {
                *b2.m.lock() += 1;
                b2.cv.notify_one();
                yield_now();
            }
        });
        join_task(&producer);
        join_task(&consumer);
        assert_eq!(*b.m.lock(), 3);
    }

    /// (timer-table entries, parked tasks), read in one critical section.
    /// Every task is running, ready, in a run-next slot or parked.
    fn timer_census() -> (usize, usize) {
        let st = Sched::global().lock();
        let queued = st.ready.len() + st.run_next.iter().flatten().count();
        (st.timers.len(), st.live - st.running - queued)
    }

    #[test]
    fn timer_table_holds_only_parked_tasks() {
        // Two fibers hand a token back and forth 10K times, each waiting
        // with a 30 s escape that a notify always ends first. An unpark
        // removes the waiter's entry, so the table never holds more
        // entries than there are parked tasks.
        const ROUNDS: u32 = 10_000;
        let m = Arc::new(PlMutex::new(0u32));
        let cv = Arc::new(SimCondvar::new());
        let side = |me: u32| {
            let (m, cv) = (Arc::clone(&m), Arc::clone(&cv));
            spawn_fn(&format!("t-timer-{me}"), move || {
                let mut turn = m.lock();
                while *turn < ROUNDS {
                    if *turn % 2 == me {
                        *turn += 1;
                        cv.notify_one();
                        if *turn % 1000 == 0 {
                            let (entries, parked) = timer_census();
                            assert!(entries <= parked, "{entries} timers, {parked} parked");
                        }
                    } else {
                        let r = cv.wait_for(&mut turn, Duration::from_secs(30));
                        assert!(!r.timed_out(), "a notify ends every wait");
                    }
                }
                cv.notify_all();
            })
        };
        let (a, b) = (side(0), side(1));
        for t in [a, b] {
            join_task(&t);
            if let Some(p) = take_panic(&t) {
                std::panic::resume_unwind(p);
            }
        }
        let (entries, parked) = timer_census();
        assert!(entries <= parked, "{entries} timers, {parked} parked");
    }

    #[test]
    fn unnotified_timed_wait_times_out_at_its_deadline() {
        let t = spawn_fn("t-deadline", || {
            let m = PlMutex::new(());
            let cv = SimCondvar::new();
            let mut g = m.lock();
            let start = Instant::now();
            let r = cv.wait_for(&mut g, Duration::from_millis(50));
            let took = start.elapsed();
            assert!(r.timed_out());
            assert!(
                took >= Duration::from_millis(50),
                "fired early, after {took:?}"
            );
            assert!(took < Duration::from_secs(5), "fired late, after {took:?}");
        });
        join_task(&t);
        if let Some(p) = take_panic(&t) {
            std::panic::resume_unwind(p);
        }
    }

    #[test]
    fn simcondvar_wait_from_plain_thread_still_works() {
        let m = PlMutex::new(());
        let cv = SimCondvar::new();
        let mut g = m.lock();
        assert!(cv.wait_for(&mut g, Duration::from_millis(2)).timed_out());
    }
}
