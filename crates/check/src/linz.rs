//! Linearizability checking (Wing & Gong) over recorded histories.
//!
//! A history is linearizable when every completed operation can be
//! assigned a single linearization point between its invocation and
//! response stamps such that the sequence of points is a legal execution
//! of the sequential model. The checker runs the classic Wing–Gong
//! search: repeatedly pick a *minimal* pending operation (one invoked
//! before every pending response), apply it to the model state, and
//! recurse, memoising `(linearized-set, state)` pairs.
//!
//! Histories are first **partitioned** — by key for maps, by register
//! partition for registers — since operations on independent partitions
//! commute; this keeps the search tiny even for map workloads that
//! trigger a structural split. Counter and FIFO histories are a single
//! partition.

use std::collections::HashSet;

use crate::history::{Op, OpRecord, Ret};

/// The sequential model a history is checked against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Model {
    /// A fetch-and-add counter starting at 0 (`CtrAdd` returns the
    /// pre-add value).
    Counter,
    /// Multi-word atomic registers, partitioned by `part`; word 0 of the
    /// register starts as `init`.
    Register {
        /// Initial value of every word of every partition.
        init: u64,
    },
    /// A FIFO queue (`Deq` of an empty queue returns `None`).
    Fifo,
    /// A map of `u64` cells, partitioned by key (absent keys read
    /// `None`).
    Kv,
}

/// Sequential state of one partition.
#[derive(Clone, Debug, PartialEq, Eq)]
enum State {
    Ctr(u64),
    Reg(Vec<u64>),
    Fifo(Vec<u64>),
    Cell(Option<u64>),
}

impl State {
    /// Stable encoding for the memo table.
    fn encode(&self) -> Vec<u64> {
        match self {
            State::Ctr(v) => vec![*v],
            State::Reg(v) => v.clone(),
            State::Fifo(v) => v.clone(),
            State::Cell(None) => vec![0],
            State::Cell(Some(v)) => vec![1, *v],
        }
    }
}

/// Outcome of a check.
#[derive(Clone, Debug)]
pub struct LinReport {
    /// Completed operations examined (failed ops are excluded).
    pub checked_ops: usize,
    /// `None` when linearizable; otherwise a rendering of one
    /// non-linearizable partition.
    pub violation: Option<String>,
}

/// Checks a history against `model`. Failed operations are skipped;
/// pending operations must not remain (the explorer only checks
/// completed runs).
pub fn check(model: Model, ops: &[OpRecord]) -> LinReport {
    let live: Vec<&OpRecord> = ops.iter().filter(|o| !o.failed).collect();
    let mut parts: Vec<(u64, Vec<&OpRecord>)> = Vec::new();
    for o in &live {
        let p = partition(model, &o.op);
        match parts.iter_mut().find(|(k, _)| *k == p) {
            Some((_, v)) => v.push(o),
            None => parts.push((p, vec![o])),
        }
    }
    for (p, mut part_ops) in parts {
        part_ops.sort_by_key(|o| o.inv);
        if part_ops.len() > 63 {
            // The search mask is a u64; programs under check stay far
            // below this, so treat an overflow as a harness bug.
            return LinReport {
                checked_ops: live.len(),
                violation: Some(format!("partition {p}: too many ops ({})", part_ops.len())),
            };
        }
        if !linearizable(model, &part_ops) {
            let mut desc = format!("partition {p} not linearizable:");
            for o in &part_ops {
                desc.push_str(&format!("\n  {}", o.render()));
            }
            return LinReport { checked_ops: live.len(), violation: Some(desc) };
        }
    }
    LinReport { checked_ops: live.len(), violation: None }
}

fn partition(model: Model, op: &Op) -> u64 {
    match (model, op) {
        (Model::Register { .. }, Op::RegWrite { part, .. }) => *part,
        (Model::Register { .. }, Op::RegRead { part }) => *part,
        (Model::Kv, Op::Put { k, .. }) => *k,
        (Model::Kv, Op::Get { k }) => *k,
        (Model::Kv, Op::Remove { k }) => *k,
        _ => 0,
    }
}

fn initial(model: Model, ops: &[&OpRecord]) -> State {
    match model {
        Model::Counter => State::Ctr(0),
        Model::Register { init } => {
            // Width comes from the widest write/read in the partition.
            let w = ops
                .iter()
                .map(|o| match (&o.op, &o.ret) {
                    (Op::RegWrite { v, .. }, _) => v.len(),
                    (_, Ret::Vals(v)) => v.len(),
                    _ => 1,
                })
                .max()
                .unwrap_or(1);
            State::Reg(vec![init; w])
        }
        Model::Fifo => State::Fifo(Vec::new()),
        Model::Kv => State::Cell(None),
    }
}

/// Applies `op` to `state`; `None` when the recorded response is not
/// legal from this state.
fn apply(state: &State, o: &OpRecord) -> Option<State> {
    match (state, &o.op, &o.ret) {
        (State::Ctr(c), Op::CtrAdd { by }, Ret::Val(old)) => {
            (old == c).then(|| State::Ctr(c + by))
        }
        (State::Ctr(c), Op::CtrRead, Ret::Val(v)) => (v == c).then_some(State::Ctr(*c)),
        (State::Reg(_), Op::RegWrite { v, .. }, _) => Some(State::Reg(v.clone())),
        (State::Reg(cur), Op::RegRead { .. }, Ret::Vals(v)) => {
            (v == cur).then(|| State::Reg(cur.clone()))
        }
        (State::Fifo(q), Op::Enq { v }, _) => {
            let mut q = q.clone();
            q.push(*v);
            Some(State::Fifo(q))
        }
        (State::Fifo(q), Op::Deq, Ret::OptVal(None)) => {
            q.is_empty().then(|| State::Fifo(q.clone()))
        }
        (State::Fifo(q), Op::Deq, Ret::OptVal(Some(v))) => {
            (q.first() == Some(v)).then(|| State::Fifo(q[1..].to_vec()))
        }
        (State::Cell(_), Op::Put { v, .. }, _) => Some(State::Cell(Some(*v))),
        (State::Cell(c), Op::Get { .. }, Ret::OptVal(v)) => {
            (v == c).then_some(State::Cell(*c))
        }
        // A remove that reports whether the key was there.
        (State::Cell(c), Op::Remove { .. }, Ret::Val(held)) => {
            ((*held != 0) == c.is_some()).then_some(State::Cell(None))
        }
        (State::Cell(_), Op::Remove { .. }, _) => Some(State::Cell(None)),
        _ => None,
    }
}

fn linearizable(model: Model, ops: &[&OpRecord]) -> bool {
    let n = ops.len();
    if n == 0 {
        return true;
    }
    let full: u64 = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    let mut memo: HashSet<(u64, Vec<u64>)> = HashSet::new();
    let init = initial(model, ops);
    search(ops, 0, &init, full, &mut memo)
}

fn search(
    ops: &[&OpRecord],
    mask: u64,
    state: &State,
    full: u64,
    memo: &mut HashSet<(u64, Vec<u64>)>,
) -> bool {
    if mask == full {
        return true;
    }
    if !memo.insert((mask, state.encode())) {
        return false;
    }
    // An operation can linearize next only if it was invoked before every
    // pending response (otherwise some pending op is strictly earlier).
    let min_res = ops
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) == 0)
        .map(|(_, o)| o.res)
        .min()
        .unwrap();
    for (i, o) in ops.iter().enumerate() {
        if mask & (1 << i) != 0 || o.inv > min_res {
            continue;
        }
        if let Some(next) = apply(state, o) {
            if search(ops, mask | (1 << i), &next, full, memo) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(client: u32, op: Op, ret: Ret, inv: u64, res: u64) -> OpRecord {
        OpRecord { client, op, ret, inv, res, failed: false }
    }

    #[test]
    fn sequential_counter_is_linearizable() {
        let h = vec![
            rec(1, Op::CtrAdd { by: 1 }, Ret::Val(0), 0, 1),
            rec(2, Op::CtrAdd { by: 1 }, Ret::Val(1), 2, 3),
        ];
        assert!(check(Model::Counter, &h).violation.is_none());
    }

    #[test]
    fn lost_update_is_flagged() {
        // Two overlapping adds both observing 0: not linearizable.
        let h = vec![
            rec(1, Op::CtrAdd { by: 1 }, Ret::Val(0), 0, 3),
            rec(2, Op::CtrAdd { by: 1 }, Ret::Val(0), 1, 2),
        ];
        assert!(check(Model::Counter, &h).violation.is_some());
    }

    #[test]
    fn overlapping_reads_may_reorder() {
        // A read overlapping a write may see either value.
        let h = vec![
            rec(1, Op::RegWrite { part: 0, v: vec![5] }, Ret::Unit, 1, 4),
            rec(2, Op::RegRead { part: 0 }, Ret::Vals(vec![0]), 2, 3),
        ];
        assert!(check(Model::Register { init: 0 }, &h).violation.is_none());
    }

    #[test]
    fn torn_register_read_is_flagged() {
        let h = vec![
            rec(1, Op::RegWrite { part: 0, v: vec![1, 1] }, Ret::Unit, 0, 1),
            rec(1, Op::RegWrite { part: 0, v: vec![2, 2] }, Ret::Unit, 2, 5),
            rec(2, Op::RegRead { part: 0 }, Ret::Vals(vec![2, 1]), 3, 4),
        ];
        assert!(check(Model::Register { init: 0 }, &h).violation.is_some());
    }

    #[test]
    fn fifo_duplicate_dequeue_is_flagged() {
        let h = vec![
            rec(0, Op::Enq { v: 7 }, Ret::Unit, 0, 1),
            rec(1, Op::Deq, Ret::OptVal(Some(7)), 2, 3),
            rec(2, Op::Deq, Ret::OptVal(Some(7)), 4, 5),
        ];
        assert!(check(Model::Fifo, &h).violation.is_some());
        let ok = vec![
            rec(0, Op::Enq { v: 7 }, Ret::Unit, 0, 1),
            rec(1, Op::Deq, Ret::OptVal(Some(7)), 2, 3),
            rec(2, Op::Deq, Ret::OptVal(None), 4, 5),
        ];
        assert!(check(Model::Fifo, &ok).violation.is_none());
    }

    #[test]
    fn kv_partitions_are_independent() {
        // Interleaved ops on distinct keys each linearize on their own.
        let h = vec![
            rec(1, Op::Put { k: 1, v: 10 }, Ret::Unit, 0, 5),
            rec(2, Op::Put { k: 2, v: 20 }, Ret::Unit, 1, 4),
            rec(3, Op::Get { k: 1 }, Ret::OptVal(None), 2, 3),
            rec(3, Op::Get { k: 2 }, Ret::OptVal(Some(20)), 6, 7),
        ];
        assert!(check(Model::Kv, &h).violation.is_none());
        let bad = vec![
            rec(1, Op::Put { k: 1, v: 10 }, Ret::Unit, 0, 1),
            rec(3, Op::Get { k: 1 }, Ret::OptVal(None), 2, 3),
        ];
        assert!(check(Model::Kv, &bad).violation.is_some());
    }
}
