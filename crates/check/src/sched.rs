//! Deterministic cooperative scheduling of simulated clients.
//!
//! Every fabric verb attempt calls the installed
//! [`CheckObserver::gate`](farmem_fabric::CheckObserver::gate) before it
//! touches far memory. The [`Scheduler`] turns that hook into a
//! loom-style driver: each registered participant blocks at its gate
//! until the driver grants it exactly one step, so the interleaving of
//! fabric verbs is chosen entirely by the driver — the host OS scheduler
//! has no say. Clients that are not registered (the setup client) pass
//! straight through.
//!
//! The protocol is simple and deadlock-free under one assumption that
//! holds for every fabric verb: a participant thread always reaches its
//! next gate (or finishes) in bounded wall time once granted — verbs
//! never block on other *participants* between gates (waits are bounded
//! slices, locks are bounded attempts). The driver waits until every
//! participant is either parked at a gate or finished, picks one, and
//! repeats. A wall-clock watchdog turns a violated assumption into a
//! truncated (discarded) run instead of a hang.

use std::collections::BTreeSet;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Outcome of waiting for the system to quiesce.
pub enum Quiesce {
    /// Every participant is parked or finished; the sorted ids of the
    /// parked (runnable) ones. Empty means the run is over.
    Runnable(Vec<u32>),
    /// A participant failed to reach its gate within the watchdog
    /// window; the run must be poisoned and discarded.
    Stuck,
}

#[derive(Default)]
struct Inner {
    participants: BTreeSet<u32>,
    at_gate: BTreeSet<u32>,
    finished: BTreeSet<u32>,
    granted: Option<u32>,
    poisoned: bool,
}

/// The gate-and-grant scheduler shared between the driver thread and the
/// participant threads (via the fabric's check observer).
pub struct Scheduler {
    m: Mutex<Inner>,
    cv: Condvar,
}

impl Scheduler {
    /// A scheduler for the given participant client ids.
    pub fn new(participants: &[u32]) -> Scheduler {
        Scheduler {
            m: Mutex::new(Inner {
                participants: participants.iter().copied().collect(),
                ..Inner::default()
            }),
            cv: Condvar::new(),
        }
    }

    /// Called (via the observer) at every verb attempt. Blocks until the
    /// driver grants this client a step. Non-participants and poisoned
    /// runs pass through immediately.
    pub fn gate(&self, client: u32) {
        let mut g = self.m.lock().unwrap();
        if g.poisoned || !g.participants.contains(&client) {
            return;
        }
        g.at_gate.insert(client);
        self.cv.notify_all();
        while g.granted != Some(client) && !g.poisoned {
            g = self.cv.wait(g).unwrap();
        }
        if g.granted == Some(client) {
            g.granted = None;
        }
        g.at_gate.remove(&client);
        self.cv.notify_all();
    }

    /// Marks a participant's body as complete.
    pub fn finish(&self, client: u32) {
        let mut g = self.m.lock().unwrap();
        g.at_gate.remove(&client);
        g.finished.insert(client);
        self.cv.notify_all();
    }

    /// Driver side: waits until every participant is parked at a gate or
    /// finished, then reports the parked ones.
    pub fn wait_quiescent(&self) -> Quiesce {
        let all = self.m.lock().unwrap().participants.len();
        self.wait_parked(all)
    }

    /// Driver side: waits until `n` participants are parked at a gate or
    /// finished, then reports the parked ones. With `n` below the
    /// participant count this lets the driver start bodies one at a time,
    /// so whatever a body does before its first gate (stamping its first
    /// invocation, say) happens in spawn order, not in the order the host
    /// happens to schedule the new threads.
    pub fn wait_parked(&self, n: usize) -> Quiesce {
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut g = self.m.lock().unwrap();
        loop {
            if g.poisoned {
                return Quiesce::Stuck;
            }
            if g.granted.is_none() && g.at_gate.len() + g.finished.len() == n {
                return Quiesce::Runnable(g.at_gate.iter().copied().collect());
            }
            let (g2, _) = self.cv.wait_timeout(g, Duration::from_millis(50)).unwrap();
            g = g2;
            if Instant::now() >= deadline {
                return Quiesce::Stuck;
            }
        }
    }

    /// Driver side: grants one parked participant its next step.
    pub fn grant(&self, client: u32) {
        let mut g = self.m.lock().unwrap();
        debug_assert!(g.at_gate.contains(&client) && g.granted.is_none());
        g.granted = Some(client);
        self.cv.notify_all();
    }

    /// Releases every parked participant to free-run to completion. Used
    /// when truncating a run; results gathered after this are discarded.
    pub fn poison(&self) {
        let mut g = self.m.lock().unwrap();
        g.poisoned = true;
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn driver_serialises_two_participants() {
        let s = Arc::new(Scheduler::new(&[1, 2]));
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for id in [1u32, 2u32] {
            let s2 = s.clone();
            let o2 = order.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..3 {
                    s2.gate(id);
                    o2.lock().unwrap().push(id);
                }
                s2.finish(id);
            }));
        }
        // Alternate strictly: 1, 2, 1, 2, ...
        let mut expect = Vec::new();
        loop {
            match s.wait_quiescent() {
                Quiesce::Runnable(r) if r.is_empty() => break,
                Quiesce::Runnable(r) => {
                    let pick = if expect.len() % 2 == 0 { r[0] } else { *r.last().unwrap() };
                    expect.push(pick);
                    s.grant(pick);
                }
                Quiesce::Stuck => panic!("stuck"),
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), expect);
    }
}
