//! The completion-driven executor and its reactor.
//!
//! One [`Executor`] owns one OS thread's worth of logical clients. Its
//! loop alternates two moves:
//!
//! 1. **Drain the ready queue**: poll every runnable task. A task runs
//!    host-side code until it posts a doorbell and parks.
//! 2. **Fire the earliest doorbell**: when no task is runnable, every
//!    live task is parked at a posted doorbell; the reactor fires the one
//!    with the smallest (issue time, task id) — generalised discrete-event
//!    min-clock stepping — then wakes exactly that task.
//!
//! Tasks are therefore woken exactly once per doorbell and never polled
//! while their completion is outstanding: there is no spin-polling (the
//! per-task [`TaskReport`] proves it). With a single worker the schedule
//! is a pure function of the posted issue times, so multiplexed runs are
//! deterministic and their tables can sit under the perf gate.
//!
//! [`Runtime`] shards tasks round-robin over several single-threaded
//! executors (shared-nothing, one per OS thread): per-client counts stay
//! deterministic — cross-worker interleaving moves only node-occupancy
//! *timing*, never work.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::task::{Context, Wake, Waker};

use farmem_fabric::{AccessStats, Fabric, FabricClient};

use crate::client::{AsyncClient, Bell, ClientCell, Completion, Park, ReactorQueue};

/// Wake = push the task id; a `Mutex` so wakers satisfy `std::task::Wake`'s
/// `Send + Sync` bound even though the executor itself is single-threaded.
struct ReadyQueue {
    inner: Mutex<ReadyInner>,
}

struct ReadyInner {
    queue: VecDeque<usize>,
    enqueued: Vec<bool>,
}

impl ReadyQueue {
    fn new() -> Arc<ReadyQueue> {
        Arc::new(ReadyQueue {
            inner: Mutex::new(ReadyInner { queue: VecDeque::new(), enqueued: Vec::new() }),
        })
    }

    fn push(&self, tid: usize) {
        let mut inner = self.inner.lock().unwrap();
        if inner.enqueued.len() <= tid {
            inner.enqueued.resize(tid + 1, false);
        }
        if !inner.enqueued[tid] {
            inner.enqueued[tid] = true;
            inner.queue.push_back(tid);
        }
    }

    fn pop(&self) -> Option<usize> {
        let mut inner = self.inner.lock().unwrap();
        let tid = inner.queue.pop_front()?;
        inner.enqueued[tid] = false;
        Some(tid)
    }
}

struct TaskWaker {
    tid: usize,
    ready: Arc<ReadyQueue>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.ready.push(self.tid);
    }
}

struct Task {
    future: Pin<Box<dyn Future<Output = ()>>>,
    cell: Rc<RefCell<ClientCell>>,
    /// Built once at spawn and lent to every poll.
    waker: Waker,
}

/// Per-task scheduling diagnostics: proof that the executor is
/// completion-driven rather than polling.
#[derive(Clone, Copy, Debug, Default)]
pub struct TaskReport {
    /// Doorbells the reactor fired for this task.
    pub doorbells_fired: u64,
    /// Verb-future polls; exactly `2 × doorbells_fired` when nothing
    /// spins (one poll to park, one to consume the completion).
    pub verb_polls: u64,
    /// Polls that found the doorbell still pending after the task had
    /// already parked — spin-polling. Always 0 under this executor.
    pub wasted_polls: u64,
}

/// Handle to one spawned task: its output, and the wrapped client's
/// counters once [`Executor::run`] returns.
pub struct TaskHandle<T> {
    tid: usize,
    out: Rc<RefCell<Option<T>>>,
    cell: Rc<RefCell<ClientCell>>,
}

impl<T> TaskHandle<T> {
    /// This task's id within its executor.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Takes the task's output (`None` until the task has completed, or
    /// if already taken).
    pub fn take(&self) -> Option<T> {
        self.out.borrow_mut().take()
    }

    /// The wrapped client's access counters.
    pub fn stats(&self) -> AccessStats {
        self.cell.borrow().client.stats()
    }

    /// The wrapped client's virtual clock.
    pub fn now_ns(&self) -> u64 {
        self.cell.borrow().client.now_ns()
    }

    /// Scheduling diagnostics for this task.
    pub fn report(&self) -> TaskReport {
        let cell = self.cell.borrow();
        TaskReport {
            doorbells_fired: cell.doorbells_fired,
            verb_polls: cell.verb_polls,
            wasted_polls: cell.wasted_polls,
        }
    }

    /// Runs `f` against the wrapped client (e.g. to pull a trace report
    /// after the run).
    pub fn with_client<R>(&self, f: impl FnOnce(&mut FabricClient) -> R) -> R {
        f(&mut self.cell.borrow_mut().client)
    }
}

/// A single-threaded, completion-driven executor multiplexing many
/// logical far-memory clients over the calling OS thread.
pub struct Executor {
    tasks: Vec<Option<Task>>,
    ready: Arc<ReadyQueue>,
    reactor: ReactorQueue,
    live: usize,
}

impl Default for Executor {
    fn default() -> Executor {
        Executor::new()
    }
}

impl Executor {
    /// An executor with no tasks.
    pub fn new() -> Executor {
        Executor {
            tasks: Vec::new(),
            ready: ReadyQueue::new(),
            reactor: Rc::new(RefCell::new(BinaryHeap::new())),
            live: 0,
        }
    }

    /// Number of spawned tasks (completed ones included).
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether no task was ever spawned.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Spawns a logical client: `client` is wrapped in an [`AsyncClient`]
    /// handed to `f`, and the resulting future runs under [`run`].
    ///
    /// [`run`]: Executor::run
    pub fn spawn<T, F, Fut>(&mut self, client: FabricClient, f: F) -> TaskHandle<T>
    where
        T: 'static,
        F: FnOnce(AsyncClient) -> Fut,
        Fut: Future<Output = T> + 'static,
    {
        let tid = self.tasks.len();
        let cell = Rc::new(RefCell::new(ClientCell {
            client,
            state: Park::Idle,
            waker: None,
            tid,
            reactor: self.reactor.clone(),
            doorbells_fired: 0,
            verb_polls: 0,
            wasted_polls: 0,
        }));
        let out: Rc<RefCell<Option<T>>> = Rc::new(RefCell::new(None));
        let fut = f(AsyncClient { cell: cell.clone() });
        let sink = out.clone();
        let wrapped = async move {
            *sink.borrow_mut() = Some(fut.await);
        };
        let waker = Waker::from(Arc::new(TaskWaker { tid, ready: self.ready.clone() }));
        self.tasks.push(Some(Task { future: Box::pin(wrapped), cell: cell.clone(), waker }));
        self.ready.push(tid);
        self.live += 1;
        TaskHandle { tid, out, cell }
    }

    /// Drives every spawned task to completion.
    ///
    /// # Panics
    ///
    /// Panics if live tasks remain but none is runnable and no doorbell
    /// is posted — a genuine deadlock (e.g. a future awaiting something
    /// that is not a fabric doorbell).
    pub fn run(&mut self) {
        loop {
            while let Some(tid) = self.ready.pop() {
                self.poll_task(tid);
            }
            if self.live == 0 {
                break;
            }
            let Some(tid) = self.next_doorbell() else {
                panic!(
                    "executor deadlock: {} task(s) parked with no posted doorbell",
                    self.live
                );
            };
            self.fire(tid);
        }
    }

    fn poll_task(&mut self, tid: usize) {
        let Some(task) = self.tasks[tid].as_mut() else { return };
        let mut cx = Context::from_waker(&task.waker);
        if task.future.as_mut().poll(&mut cx).is_ready() {
            self.tasks[tid] = None;
            self.live -= 1;
        }
    }

    /// Pops the posted doorbell with the smallest (issue time, task id).
    fn next_doorbell(&mut self) -> Option<usize> {
        let Reverse((_, tid)) = self.reactor.borrow_mut().pop()?;
        Some(tid)
    }

    /// Fires `tid`'s posted doorbell: executes the descriptors against
    /// the task's own client (`FabricClient::issue` or
    /// `FabricClient::ring` — identical accounting to the synchronous
    /// path) and wakes the task.
    fn fire(&mut self, tid: usize) {
        let cell = self
            .tasks
            .get(tid)
            .and_then(|t| t.as_ref())
            .map(|t| t.cell.clone())
            .expect("doorbell posted by a dead task");
        let mut c = cell.borrow_mut();
        let Park::Posted(bell) = std::mem::replace(&mut c.state, Park::Idle) else {
            panic!("reactor entry without a posted doorbell");
        };
        let done = match bell {
            Bell::Yield => Completion::Yield,
            Bell::Serial(op) => Completion::Serial(c.client.issue(&op)),
            Bell::Batch(list) => Completion::Batch(c.client.ring(&list)),
        };
        c.state = Park::Complete(done);
        c.doorbells_fired += 1;
        let waker = c.waker.take();
        drop(c);
        if let Some(w) = waker {
            w.wake();
        } else {
            // The doorbell fired before the task's first park poll (the
            // task posted and was then polled runnable). Mark it ready.
            self.ready.push(tid);
        }
    }
}

/// The outcome of one logical client driven by [`Runtime::run`].
pub struct TaskResult<T> {
    /// The task's global index (as passed to the task factory).
    pub index: usize,
    /// The task future's output.
    pub output: T,
    /// The client's final access counters.
    pub stats: AccessStats,
    /// The client's final virtual clock.
    pub clock_ns: u64,
    /// Scheduling diagnostics.
    pub report: TaskReport,
}

/// A handful of OS threads driving many logical clients: tasks are
/// sharded round-robin over `workers` single-threaded [`Executor`]s
/// (shared-nothing). Per-client access *counts* are identical for every
/// worker count; with more than one worker, cross-worker node occupancy
/// makes per-client *clocks* schedule-dependent, so deterministic
/// experiments (and the perf gate) use one worker.
pub struct Runtime {
    workers: usize,
}

impl Runtime {
    /// A runtime with `workers` OS threads (at least one).
    pub fn new(workers: usize) -> Runtime {
        Runtime { workers: workers.max(1) }
    }

    /// Runs `n_tasks` logical clients to completion: worker `w` spawns
    /// tasks `w, w + workers, …`, each with a fresh client on `fabric`,
    /// and drives them with its own executor. Results come back sorted
    /// by task index.
    pub fn run<T, F>(&self, fabric: &Arc<Fabric>, n_tasks: usize, make: F) -> Vec<TaskResult<T>>
    where
        T: Send + 'static,
        F: Fn(usize, AsyncClient) -> Pin<Box<dyn Future<Output = T>>> + Send + Sync + 'static,
    {
        let make = Arc::new(make);
        let workers = self.workers.min(n_tasks.max(1));
        let mut out: Vec<TaskResult<T>> = std::thread::scope(|scope| {
            let mut joins = Vec::new();
            for w in 0..workers {
                let make = make.clone();
                let fabric = fabric.clone();
                joins.push(scope.spawn(move || {
                    let mut ex = Executor::new();
                    let mut handles = Vec::new();
                    for index in (w..n_tasks).step_by(workers) {
                        let client = fabric.client();
                        let make = make.clone();
                        handles.push((index, ex.spawn(client, move |ac| make(index, ac))));
                    }
                    ex.run();
                    handles
                        .into_iter()
                        .map(|(index, h)| TaskResult {
                            index,
                            stats: h.stats(),
                            clock_ns: h.now_ns(),
                            report: h.report(),
                            output: h.take().expect("task ran to completion"),
                        })
                        .collect::<Vec<_>>()
                }));
            }
            joins.into_iter().flat_map(|j| j.join().expect("worker panicked")).collect()
        });
        out.sort_by_key(|r| r.index);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::task::Poll;

    use farmem_fabric::{CostModel, DescList, FabricConfig, FarAddr, Striping, PAGE};

    fn fabric(nodes: u32) -> Arc<Fabric> {
        FabricConfig {
            nodes,
            node_capacity: 1 << 20,
            striping: Striping::Striped { stripe: PAGE },
            cost: CostModel::DEFAULT,
            ..FabricConfig::default()
        }
        .build()
    }

    #[test]
    fn single_task_verbs_match_sync_accounting() {
        let f = fabric(2);
        // Sync reference on a twin fabric.
        let fs = fabric(2);
        let mut sc = fs.client();
        sc.write_u64(FarAddr(64), 7).unwrap();
        let v = sc.read_u64(FarAddr(64)).unwrap();
        let prev = sc.faa(FarAddr(64), 3).unwrap();
        let sync_stats = sc.stats();
        let sync_ns = sc.now_ns();

        let mut ex = Executor::new();
        let h = ex.spawn(f.client(), |ac| async move {
            ac.write_u64(FarAddr(64), 7).await.unwrap();
            let v = ac.read_u64(FarAddr(64)).await.unwrap();
            let prev = ac.faa(FarAddr(64), 3).await.unwrap();
            (v, prev)
        });
        ex.run();
        assert_eq!(h.take().unwrap(), (v, prev));
        assert_eq!(h.stats().to_array(), sync_stats.to_array());
        assert_eq!(h.now_ns(), sync_ns);
        let r = h.report();
        assert_eq!(r.doorbells_fired, 3);
        assert_eq!(r.verb_polls, 2 * r.doorbells_fired);
        assert_eq!(r.wasted_polls, 0, "completion-driven, not polled");
    }

    #[test]
    fn batch_matches_sync_pipeline_accounting() {
        let f = fabric(4);
        let fs = fabric(4);
        let mut sc = fs.client();
        let mut q = sc.pipeline();
        for i in 0..8u64 {
            q.write_u64(FarAddr(PAGE * i + 64), i + 1);
        }
        q.commit().status().unwrap();
        let sync_stats = sc.stats();
        let sync_ns = sc.now_ns();

        let mut ex = Executor::new();
        let h = ex.spawn(f.client(), |ac| async move {
            let mut b = DescList::new();
            for i in 0..8u64 {
                b.write_u64(FarAddr(PAGE * i + 64), i + 1);
            }
            ac.ring(b).await.status().unwrap();
        });
        ex.run();
        h.take().unwrap();
        assert_eq!(h.stats().to_array(), sync_stats.to_array());
        assert_eq!(h.now_ns(), sync_ns);
    }

    #[test]
    fn many_tasks_interleave_deterministically() {
        let run = || {
            let f = fabric(4);
            let mut ex = Executor::new();
            let handles: Vec<_> = (0..16u64)
                .map(|i| {
                    let addr = FarAddr(PAGE * (i % 4) + 64 + 8 * i);
                    ex.spawn(f.client(), move |ac| async move {
                        let mut sum = 0u64;
                        for k in 0..10u64 {
                            ac.write_u64(addr, i * 100 + k).await.unwrap();
                            sum += ac.read_u64(addr).await.unwrap();
                        }
                        sum
                    })
                })
                .collect();
            ex.run();
            handles
                .into_iter()
                .map(|h| (h.take().unwrap(), h.now_ns(), h.stats().to_array()))
                .collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a.len(), 16);
        assert_eq!(a, b, "single-worker schedules are deterministic");
    }

    #[test]
    fn yield_reorders_but_preserves_counts() {
        let f = fabric(1);
        let mut ex = Executor::new();
        let h = ex.spawn(f.client(), |ac| async move {
            ac.write_u64(FarAddr(64), 1).await.unwrap();
            ac.yield_now().await;
            ac.read_u64(FarAddr(64)).await.unwrap()
        });
        ex.run();
        assert_eq!(h.take().unwrap(), 1);
        assert_eq!(h.report().doorbells_fired, 3, "yield fires like a doorbell");
    }

    #[test]
    fn multi_worker_counts_match_single_worker() {
        let total = |workers: usize| {
            let f = fabric(4);
            let results = Runtime::new(workers).run(&f, 12, |i, ac| {
                Box::pin(async move {
                    let addr = FarAddr(PAGE * (i as u64 % 4) + 64 + 16 * i as u64);
                    for k in 0..8u64 {
                        ac.write_u64(addr, k).await.unwrap();
                        ac.read_u64(addr).await.unwrap();
                    }
                })
            });
            assert_eq!(results.len(), 12);
            let mut sum = AccessStats::default();
            for r in &results {
                sum.merge(&r.stats);
            }
            sum.to_array()
        };
        assert_eq!(total(1), total(3), "counts are worker-count-independent");
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn parking_on_nothing_panics() {
        struct Never;
        impl Future for Never {
            type Output = ();
            fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
                Poll::Pending
            }
        }
        let f = fabric(1);
        let mut ex = Executor::new();
        let _h = ex.spawn(f.client(), |_ac| Never);
        ex.run();
    }
}
