//! [`AsyncClient`]: the leaf fabric verbs as futures that park at a
//! doorbell instead of blocking an OS thread — and [`Doorbell`], the
//! interface a batched adopter is written against once, whether its
//! doorbells suspend ([`AsyncClient`]) or complete on the spot
//! ([`Inline`]).
//!
//! Every async verb posts one descriptor (the same [`PipeOp`] vocabulary
//! the pipeline takes), pushes the doorbell onto the owning executor's
//! reactor queue, and suspends. The reactor later *fires* the doorbell —
//! sending the op through [`FabricClient::issue`], which books it as its
//! blocking verb, so stats and clock movement are byte-identical to
//! blocking code — stores the completion, and wakes the task exactly
//! once. See [`crate::exec`] for the firing order.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use farmem_fabric::pipeline::{CompletionQueue, DescList, PipeOp, PipeOut};
use farmem_fabric::trace::SpanGuard;
use farmem_fabric::{AccessStats, FabricClient, FarAddr, Result};

/// The reactor's pending-doorbell queue, ordered by (issue time, task id).
pub(crate) type ReactorQueue = Rc<RefCell<BinaryHeap<Reverse<(u64, usize)>>>>;

/// What a parked task is waiting on.
pub(crate) enum Bell {
    /// One op sent alone through [`FabricClient::issue`]: accounting is
    /// byte-identical to calling the blocking verb.
    Serial(PipeOp),
    /// A descriptor list, executed through [`FabricClient::ring`]:
    /// accounting is byte-identical to the synchronous pipelined path.
    Batch(DescList),
    /// Cooperative yield: completes with no fabric access at the task's
    /// current virtual time, letting earlier-clocked peers run first.
    Yield,
}

/// A fired doorbell's result, in the same shape it was posted.
pub(crate) enum Completion {
    /// Serial verb outcome.
    Serial(Result<PipeOut>),
    /// Drained completion queue of a batch doorbell.
    Batch(CompletionQueue),
    /// A yield completed.
    Yield,
}

/// Task park state, owned by the cell shared between the task's
/// [`AsyncClient`] and the executor's reactor.
pub(crate) enum Park {
    /// Running (or runnable): nothing posted.
    Idle,
    /// A doorbell is posted; the task suspends until the reactor fires it.
    Posted(Bell),
    /// The reactor fired the doorbell; the next poll returns this.
    Complete(Completion),
}

/// Shared state of one logical client: the wrapped [`FabricClient`], the
/// park state, and the wiring back to the executor's reactor.
pub(crate) struct ClientCell {
    pub(crate) client: FabricClient,
    pub(crate) state: Park,
    pub(crate) waker: Option<Waker>,
    pub(crate) tid: usize,
    pub(crate) reactor: ReactorQueue,
    /// Doorbells the reactor fired for this task.
    pub(crate) doorbells_fired: u64,
    /// Verb-future polls (2 per doorbell when nothing spin-polls).
    pub(crate) verb_polls: u64,
    /// Polls that found the doorbell still pending after the first park —
    /// spin-polling. Zero under this crate's executor.
    pub(crate) wasted_polls: u64,
}

/// A logical far-memory client multiplexed by an [`Executor`]
/// (`crate::exec::Executor`): the blocking [`FabricClient`] verbs as
/// `async fn`s that suspend at the doorbell.
///
/// At most one doorbell may be in flight per client: each verb must be
/// awaited to completion before the next is posted (the `async fn`
/// signatures enforce this under normal control flow).
///
/// [`Executor`]: crate::exec::Executor
#[derive(Clone)]
pub struct AsyncClient {
    pub(crate) cell: Rc<RefCell<ClientCell>>,
}

/// Future for one posted doorbell: `Pending` exactly once (parking), then
/// `Ready` with the completion after the reactor fires and wakes.
struct VerbFuture {
    cell: Rc<RefCell<ClientCell>>,
}

impl Future for VerbFuture {
    type Output = Completion;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Completion> {
        let mut cell = self.cell.borrow_mut();
        cell.verb_polls += 1;
        match std::mem::replace(&mut cell.state, Park::Idle) {
            Park::Complete(done) => Poll::Ready(done),
            Park::Posted(bell) => {
                if cell.waker.is_some() {
                    // Re-polled while still parked: somebody is spinning.
                    cell.wasted_polls += 1;
                }
                cell.state = Park::Posted(bell);
                cell.waker = Some(cx.waker().clone());
                Poll::Pending
            }
            Park::Idle => panic!("verb future polled with no posted doorbell"),
        }
    }
}

impl AsyncClient {
    /// Posts `bell` at the client's current virtual time and returns the
    /// future that parks on it.
    fn post(&self, bell: Bell) -> VerbFuture {
        {
            let mut cell = self.cell.borrow_mut();
            assert!(
                matches!(cell.state, Park::Idle),
                "a doorbell is already in flight for this client"
            );
            let issue = cell.client.now_ns();
            let tid = cell.tid;
            cell.state = Park::Posted(bell);
            cell.reactor.borrow_mut().push(Reverse((issue, tid)));
        }
        VerbFuture { cell: self.cell.clone() }
    }

    async fn serial(&self, op: PipeOp) -> Result<PipeOut> {
        match self.post(Bell::Serial(op)).await {
            Completion::Serial(out) => out,
            _ => unreachable!("serial doorbell completed with a non-serial shape"),
        }
    }

    /// Async [`FabricClient::read`]: `len` bytes at `addr`.
    pub async fn read(&self, addr: FarAddr, len: u64) -> Result<Vec<u8>> {
        self.serial(PipeOp::Read { addr, len }).await.map(PipeOut::into_bytes)
    }

    /// Async [`FabricClient::write`].
    pub async fn write(&self, addr: FarAddr, data: Vec<u8>) -> Result<()> {
        self.serial(PipeOp::Write { addr, data }).await.map(|_| ())
    }

    /// Async [`FabricClient::read_u64`].
    pub async fn read_u64(&self, addr: FarAddr) -> Result<u64> {
        self.serial(PipeOp::ReadU64 { addr }).await.map(|o| o.value())
    }

    /// Async [`FabricClient::write_u64`].
    pub async fn write_u64(&self, addr: FarAddr, value: u64) -> Result<()> {
        self.serial(PipeOp::WriteU64 { addr, value }).await.map(|_| ())
    }

    /// Async [`FabricClient::cas`]; completes with the previous value.
    pub async fn cas(&self, addr: FarAddr, expected: u64, new: u64) -> Result<u64> {
        self.serial(PipeOp::Cas { addr, expected, new }).await.map(|o| o.value())
    }

    /// Async [`FabricClient::faa`]; completes with the previous value.
    pub async fn faa(&self, addr: FarAddr, delta: u64) -> Result<u64> {
        self.serial(PipeOp::Faa { addr, delta }).await.map(|o| o.value())
    }

    /// Rings one doorbell for `list`: parks until the reactor has
    /// committed every descriptor (per-descriptor retries,
    /// abort-on-failure and `PipelineTorn` semantics are exactly
    /// [`FabricClient::ring`]'s).
    pub async fn ring(&self, list: DescList) -> CompletionQueue {
        match self.post(Bell::Batch(list)).await {
            Completion::Batch(cq) => cq,
            _ => unreachable!("batch doorbell completed with a non-batch shape"),
        }
    }

    /// Cooperatively yields: parks at the client's current virtual time
    /// with no fabric access, letting tasks with earlier clocks fire
    /// first. Useful in host-side retry loops.
    pub async fn yield_now(&self) {
        match self.post(Bell::Yield).await {
            Completion::Yield => {}
            _ => unreachable!("yield doorbell completed with a verb shape"),
        }
    }

    /// Runs `f` against the wrapped [`FabricClient`] synchronously —
    /// the escape hatch for near accesses, span management, event
    /// drains, epoch pins, and control-plane calls that issue no
    /// steady-state far traffic. Must not be held across an `await` (the
    /// borrow is released when `f` returns); what `f` returns, an epoch
    /// guard included, may be.
    pub fn with<R>(&self, f: impl FnOnce(&mut FabricClient) -> R) -> R {
        f(&mut self.cell.borrow_mut().client)
    }

    /// Charges one near access (client-local memory).
    pub fn near_access(&self) {
        self.cell.borrow_mut().client.near_access();
    }

    /// Charges `n` near accesses.
    pub fn near_accesses(&self, n: u64) {
        self.cell.borrow_mut().client.near_accesses(n);
    }

    /// Opens a trace span on the wrapped client (no-op when tracing is
    /// off). The guard is independent of the client borrow, so it may be
    /// held across `await` points.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.cell.borrow_mut().client.span(name)
    }

    /// The wrapped client's id.
    pub fn id(&self) -> u32 {
        self.cell.borrow().client.id()
    }

    /// The wrapped client's virtual clock.
    pub fn now_ns(&self) -> u64 {
        self.cell.borrow().client.now_ns()
    }

    /// The wrapped client's access counters.
    pub fn stats(&self) -> AccessStats {
        self.cell.borrow().client.stats()
    }
}

/// What a batched adopter needs from its client, and nothing more: the
/// adopter body is written once against this trait, and the caller picks
/// whether a doorbell suspends the task ([`AsyncClient`]) or completes
/// before its future is first polled ([`Inline`]).
// Doorbells are thread-local by design (`AsyncClient` is `Rc`-based), so
// the futures need no `Send` bound.
#[allow(async_fn_in_trait)]
pub trait Doorbell {
    /// Runs `f` against the underlying [`FabricClient`] synchronously:
    /// control-plane steps and rare serial fallbacks. Must not be held
    /// across an `await`.
    fn with<R>(&self, f: impl FnOnce(&mut FabricClient) -> R) -> R;

    /// Rings one doorbell for every descriptor on `list`.
    async fn ring(&self, list: DescList) -> CompletionQueue;

    /// One word read as a doorbell of its own, charged as the blocking
    /// [`FabricClient::read_u64`].
    async fn read_u64(&self, addr: FarAddr) -> Result<u64>;

    /// `len` bytes read as a doorbell of their own, charged as the
    /// blocking [`FabricClient::read`].
    async fn read(&self, addr: FarAddr, len: u64) -> Result<Vec<u8>>;

    /// Lets peers with earlier clocks run first; no fabric access.
    async fn yield_now(&self);

    /// Opens a trace span on the underlying client.
    fn span(&self, name: &'static str) -> SpanGuard {
        self.with(|c| c.span(name))
    }
}

impl Doorbell for AsyncClient {
    fn with<R>(&self, f: impl FnOnce(&mut FabricClient) -> R) -> R {
        AsyncClient::with(self, f)
    }

    async fn ring(&self, list: DescList) -> CompletionQueue {
        AsyncClient::ring(self, list).await
    }

    async fn read_u64(&self, addr: FarAddr) -> Result<u64> {
        AsyncClient::read_u64(self, addr).await
    }

    async fn read(&self, addr: FarAddr, len: u64) -> Result<Vec<u8>> {
        AsyncClient::read(self, addr, len).await
    }

    async fn yield_now(&self) {
        AsyncClient::yield_now(self).await
    }
}

/// The inline doorbell: a borrowed blocking client. Every doorbell has
/// completed by the time its future is first polled, so an adopter body
/// over `Inline` never parks and [`Inline::run`] needs no executor.
pub struct Inline<'c>(RefCell<&'c mut FabricClient>);

impl<'c> Inline<'c> {
    /// Wraps `client` for the duration of one blocking adopter call.
    pub fn new(client: &'c mut FabricClient) -> Inline<'c> {
        Inline(RefCell::new(client))
    }

    /// Runs an adopter body written over an `Inline` doorbell to
    /// completion with a single poll.
    ///
    /// # Panics
    ///
    /// Panics if the body parks, i.e. awaited something that is not this
    /// doorbell.
    pub fn run<T>(body: impl Future<Output = T>) -> T {
        match std::pin::pin!(body).poll(&mut Context::from_waker(Waker::noop())) {
            Poll::Ready(out) => out,
            Poll::Pending => panic!("an inline doorbell never parks"),
        }
    }
}

impl Doorbell for Inline<'_> {
    fn with<R>(&self, f: impl FnOnce(&mut FabricClient) -> R) -> R {
        f(&mut self.0.borrow_mut())
    }

    async fn ring(&self, list: DescList) -> CompletionQueue {
        self.with(|c| c.ring(&list))
    }

    async fn read_u64(&self, addr: FarAddr) -> Result<u64> {
        self.with(|c| c.read_u64(addr))
    }

    async fn read(&self, addr: FarAddr, len: u64) -> Result<Vec<u8>> {
        self.with(|c| c.read(addr, len))
    }

    async fn yield_now(&self) {}
}
