//! Operation histories for linearizability checking.
//!
//! Bodies running under the explorer record each high-level operation as
//! an invocation/response pair. Stamps come from one shared counter;
//! because the explorer serialises participants (one granted step at a
//! time) the stamps — and therefore the recorded history — are a pure
//! function of the schedule, which is what makes suite output
//! byte-for-byte reproducible.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A high-level operation against one of the checked models.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Atomic add on a counter; the response carries the value read.
    CtrAdd {
        /// Amount added.
        by: u64,
    },
    /// Read of the counter.
    CtrRead,
    /// Write of a (possibly multi-word) register.
    RegWrite {
        /// Register partition.
        part: u64,
        /// Value written, one entry per word.
        v: Vec<u64>,
    },
    /// Read of a register; response carries the words read.
    RegRead {
        /// Register partition.
        part: u64,
    },
    /// FIFO enqueue.
    Enq {
        /// Value enqueued.
        v: u64,
    },
    /// FIFO dequeue; response is the value or `None` for empty.
    Deq,
    /// Map put.
    Put {
        /// Key.
        k: u64,
        /// Value.
        v: u64,
    },
    /// Map get; response is the value or `None` for absent.
    Get {
        /// Key.
        k: u64,
    },
    /// Map remove.
    Remove {
        /// Key.
        k: u64,
    },
}

/// An operation's response value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Ret {
    /// No interesting value (writes, puts, removes).
    Unit,
    /// A single value.
    Val(u64),
    /// An optional value (dequeue, get).
    OptVal(Option<u64>),
    /// A multi-word value (register reads).
    Vals(Vec<u64>),
}

/// One completed (or failed) operation in a history.
#[derive(Clone, Debug)]
pub struct OpRecord {
    /// Issuing client id.
    pub client: u32,
    /// The operation.
    pub op: Op,
    /// Its response.
    pub ret: Ret,
    /// Invocation stamp.
    pub inv: u64,
    /// Response stamp (`u64::MAX` while pending).
    pub res: u64,
    /// True when the operation failed without taking effect; such
    /// records are excluded from linearizability checking.
    pub failed: bool,
}

impl OpRecord {
    /// Stable one-line rendering for violation reports.
    pub fn render(&self) -> String {
        format!("c{} {:?} -> {:?} [{}..{}]", self.client, self.op, self.ret, self.inv, self.res)
    }
}

/// Handle returned by [`History::invoke`]; pass it back to
/// [`History::complete`] or [`History::fail`].
#[derive(Clone, Copy, Debug)]
pub struct OpToken(usize);

/// A shared, append-only operation history.
#[derive(Default)]
pub struct History {
    stamp: AtomicU64,
    ops: Mutex<Vec<OpRecord>>,
}

impl History {
    /// An empty history.
    pub fn new() -> History {
        History::default()
    }

    /// Records an invocation; the operation is pending (and counts as
    /// failed) until completed.
    pub fn invoke(&self, client: u32, op: Op) -> OpToken {
        let inv = self.stamp.fetch_add(1, Ordering::SeqCst);
        let mut v = self.ops.lock().unwrap();
        v.push(OpRecord { client, op, ret: Ret::Unit, inv, res: u64::MAX, failed: true });
        OpToken(v.len() - 1)
    }

    /// Completes a pending operation with its response.
    pub fn complete(&self, t: OpToken, ret: Ret) {
        let res = self.stamp.fetch_add(1, Ordering::SeqCst);
        let mut v = self.ops.lock().unwrap();
        let r = &mut v[t.0];
        r.ret = ret;
        r.res = res;
        r.failed = false;
    }

    /// Marks a pending operation as failed-without-effect (e.g. a lock
    /// acquisition that timed out before touching the protected data).
    pub fn fail(&self, t: OpToken) {
        let res = self.stamp.fetch_add(1, Ordering::SeqCst);
        let mut v = self.ops.lock().unwrap();
        v[t.0].res = res;
        v[t.0].failed = true;
    }

    /// One operation of `client`, start to end: invokes `op`, runs it, and
    /// completes it with `ret` of its answer — or, on an error, marks it
    /// failed without effect.
    pub fn run<T, E>(&self, client: u32, op: Op, run: impl FnOnce() -> Result<T, E>, ret: impl FnOnce(T) -> Ret) {
        let t = self.invoke(client, op);
        match run() {
            Ok(answer) => self.complete(t, ret(answer)),
            Err(_) => self.fail(t),
        }
    }

    /// Records an operation that is known to linearize before everything
    /// still to come (setup writes): invocation and response are stamped
    /// back to back.
    pub fn seed(&self, client: u32, op: Op, ret: Ret) {
        let t = self.invoke(client, op);
        self.complete(t, ret);
    }

    /// Drains the recorded operations.
    pub fn take(&self) -> Vec<OpRecord> {
        std::mem::take(&mut *self.ops.lock().unwrap())
    }
}
