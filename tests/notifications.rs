//! Cross-crate notification workflows: brokers feeding data structures,
//! equality watches driving synchronization, and the §7.2 policies
//! composing with §5 structures.

use farmem::fabric::Broker;
use farmem::prelude::*;

#[test]
fn broker_feeds_many_dashboards_from_one_hw_subscriber() {
    let f = FabricConfig { cost: CostModel::COUNT_ONLY, ..FabricConfig::single_node(64 << 20) }
        .build();
    let alloc = FarAlloc::new(f.clone());
    let mut producer = f.client();
    let metrics = FarVec::create(&mut producer, &alloc, 64, AllocHint::Spread).unwrap();
    let base = metrics.base(&mut producer).unwrap();

    let mut broker = Broker::new(f.client(), true);
    // 50 dashboards, each watching a disjoint pair of metric slots.
    let sinks: Vec<_> = (0..50u64)
        .map(|i| {
            let sink = broker.make_subscriber_sink(i);
            broker
                .subscribe(base.offset((i % 32) * 16), 16, sink.clone())
                .unwrap();
            sink
        })
        .collect();
    assert!(
        broker.hw_subscriptions() <= 2,
        "coarsening keeps hardware subscriptions per page, got {}",
        broker.hw_subscriptions()
    );
    // Touch metric slot 6 (watched by dashboards with i % 32 == 3).
    metrics.set(&mut producer, 6, 99).unwrap();
    broker.pump();
    for (i, sink) in sinks.iter().enumerate() {
        let expect = i as u64 % 32 == 3;
        assert_eq!(
            sink.try_recv().is_some(),
            expect,
            "dashboard {i} routing (trigger-filtered)"
        );
    }
}

#[test]
fn equality_watch_coordinates_a_countdown() {
    let f = FabricConfig::count_only(16 << 20).build();
    let alloc = FarAlloc::new(f.clone());
    let mut leader = f.client();
    let remaining = FarCounter::create(&mut leader, &alloc, 5, AllocHint::Spread).unwrap();
    let mut watchers: Vec<_> = (0..3).map(|_| f.client()).collect();
    for w in watchers.iter_mut() {
        remaining.watch_equal(w, 0).unwrap();
    }
    for _ in 0..5 {
        remaining.decrement(&mut leader).unwrap();
    }
    for (i, w) in watchers.iter_mut().enumerate() {
        let events = w.recv_events();
        assert!(
            events.iter().any(|e| matches!(e, Event::Equal { value: 0, .. })),
            "watcher {i} saw the zero crossing: {events:?}"
        );
    }
}

#[test]
fn notifye_only_fires_at_the_exact_value() {
    let f = FabricConfig::count_only(16 << 20).build();
    let alloc = FarAlloc::new(f.clone());
    let mut w = f.client();
    let mut watcher = f.client();
    let c = FarCounter::create(&mut w, &alloc, 0, AllocHint::Spread).unwrap();
    c.watch_equal(&mut watcher, 3).unwrap();
    c.set(&mut w, 10).unwrap();
    c.set(&mut w, 2).unwrap();
    assert!(watcher.recv_events().is_empty(), "no fire on non-matching values");
    c.set(&mut w, 3).unwrap();
    assert_eq!(watcher.recv_events().len(), 1);
    // Setting it to 3 again (no change in value, but a write) fires again:
    // the primitive is write-triggered, value-filtered.
    c.set(&mut w, 3).unwrap();
    assert_eq!(watcher.recv_events().len(), 1);
}

#[test]
fn subscriptions_are_isolated_per_range() {
    let f = FabricConfig::count_only(16 << 20).build();
    let mut writer = f.client();
    let mut a = f.client();
    let mut b = f.client();
    a.notify0(FarAddr(4096), 64).unwrap();
    b.notify0(FarAddr(8192), 64).unwrap();
    writer.write_u64(FarAddr(4096), 1).unwrap();
    assert_eq!(a.recv_events().len(), 1);
    assert!(b.recv_events().is_empty());
    writer.write_u64(FarAddr(8192 + 56), 1).unwrap();
    assert!(a.recv_events().is_empty());
    assert_eq!(b.recv_events().len(), 1);
}

#[test]
fn lost_warnings_reach_the_refreshable_vector_through_a_shared_client() {
    // One client holds BOTH a queue handle and a vec reader; a Lost
    // warning must reach whichever consumer claims it first without
    // breaking the other.
    let f = FabricConfig {
        cost: CostModel::COUNT_ONLY,
        delivery: DeliveryPolicy { drop_ppm: 0, coalesce: false, max_queue: 8 },
        ..FabricConfig::single_node(64 << 20)
    }
    .build();
    let alloc = FarAlloc::new(f.clone());
    let mut w = f.client();
    let mut user = f.client();
    let v = RefreshableVec::create(&mut w, &alloc, 256, 8, AllocHint::Spread).unwrap();
    let writer = VecWriter::new(v);
    let mut reader = VecReader::new(
        &mut user,
        v,
        RefreshPolicy { initial: RefreshMode::Notify, dynamic: false, ..RefreshPolicy::default() },
    )
    .unwrap();
    let q = FarQueue::create(&mut w, &alloc, QueueConfig::new(64, 4)).unwrap();
    let mut qh = FarQueue::attach(&mut user, q.hdr()).unwrap();
    // Storm the version array to overflow the tiny queue.
    for i in 0..200u64 {
        writer.write(&mut w, i % 256, i + 1).unwrap();
    }
    reader.refresh(&mut user).unwrap();
    // Converge fully (safety poll path) and verify every write landed.
    for _ in 0..70 {
        reader.refresh(&mut user).unwrap();
    }
    for i in 0..200u64 {
        assert_eq!(reader.get(&mut user, i).unwrap(), i + 1, "element {i}");
    }
    // The queue still works on the same client.
    let mut wq = FarQueue::attach(&mut w, q.hdr()).unwrap();
    wq.enqueue(&mut w, 7).unwrap();
    assert_eq!(qh.dequeue(&mut user).unwrap(), 7);
}

#[test]
fn monitor_and_refvec_share_a_consumer_client() {
    use farmem::monitor::{AlarmSpec, HistogramMonitor};
    let f = FabricConfig::count_only(128 << 20).build();
    let alloc = FarAlloc::new(f.clone());
    let mut producer = f.client();
    let mut consumer = f.client();

    let spec = AlarmSpec { warning: 70, critical: 85, failure: 95, duration: 2 };
    let m = HistogramMonitor::create(&mut producer, &alloc, 101, 100, 4, spec).unwrap();
    let mut p = m.producer(&mut producer);
    let mut cons = m.consumer(&mut consumer, Severity::Warning).unwrap();

    let v = RefreshableVec::create(&mut producer, &alloc, 128, 8, AllocHint::Spread).unwrap();
    let writer = VecWriter::new(v);
    let mut reader = VecReader::new(
        &mut consumer,
        v,
        RefreshPolicy { initial: RefreshMode::Notify, dynamic: false, ..RefreshPolicy::default() },
    )
    .unwrap();
    reader.refresh(&mut consumer).unwrap();

    // Interleave activity on both structures.
    writer.write(&mut producer, 10, 111).unwrap();
    p.record(&mut producer, 90).unwrap();
    p.record(&mut producer, 92).unwrap();
    writer.write(&mut producer, 20, 222).unwrap();

    let alarms = cons.poll(&mut consumer).unwrap();
    assert_eq!(alarms.len(), 1, "critical alarm with duration 2");
    reader.refresh(&mut consumer).unwrap();
    assert_eq!(reader.get(&mut consumer, 10).unwrap(), 111);
    assert_eq!(reader.get(&mut consumer, 20).unwrap(), 222);
}

// --- the idle-poll fast path (DESIGN.md "Notifications") ----------------
//
// A poll that finds the sink's delivery counter unmoved returns after one
// load. These tests pin down that nothing is ever *missed* by that
// shortcut: an event, a coalesce count and a `Lost` warning all move the
// counter, so the first poll after any of them takes the slow path.

/// A thousand idle polls — `take_events` directly and through an epoch
/// `pin` — change nothing, and the first notification after them is seen
/// by the very next poll of each kind.
#[test]
fn a_notification_after_a_thousand_idle_polls_is_seen_at_the_next_poll() {
    let f = FabricConfig::count_only(64 << 20).build();
    let alloc = FarAlloc::new(f.clone());
    let mut writer = f.client();
    let mut poller = f.client();
    let reg = ReclaimRegistry::create(&mut writer, &alloc, 4).unwrap();
    let ws = reg.attach(&mut writer, &alloc).unwrap();
    let ps = reg.attach(&mut poller, &alloc).unwrap();
    let word = alloc.alloc(8, AllocHint::Spread).unwrap();
    let sub = poller.notify0(word, 8).unwrap();

    let idle = poller.stats();
    for _ in 0..1_000 {
        assert!(poller.take_events(|e| e.sub() == Some(sub)).is_empty());
        drop(pin(&ps, &mut poller).unwrap());
    }
    assert_eq!(poller.stats(), idle, "an idle poll books nothing");

    // A plain subscription fires: the next take_events returns it.
    writer.write_u64(word, 7).unwrap();
    let got = poller.take_events(|e| e.sub() == Some(sub));
    assert_eq!(got.len(), 1, "the write after the idle polls was missed");
    assert_eq!(poller.stats().since(&idle).notifications, 1);
    // The epoch moves: the next pin observes it and CASes its slot to the
    // epoch the notification carried — no read.
    let before = (poller.stats(), ps.lock().unwrap().observed_epoch());
    let junk = alloc.alloc(64, AllocHint::Spread).unwrap();
    {
        let mut r = ws.lock().unwrap();
        r.retire(&mut writer, junk, 64).unwrap();
        r.seal(&mut writer).unwrap();
    }
    let guard = pin(&ps, &mut poller).unwrap();
    assert_eq!(guard.epoch(), before.1 + 1, "the pin after the idle polls missed the seal");
    assert_eq!(poller.stats().since(&before.0).round_trips, 1);
}

/// Under coalescing delivery, with idle polls between bursts, the
/// client's `notifications + notifications_coalesced` still equals what
/// the sink counted — a burst that only coalesces into an event the
/// client has not drained yet must not be skipped either.
#[test]
fn coalesced_fires_reconcile_with_the_sink_across_idle_polls() {
    let f = FabricConfig {
        delivery: DeliveryPolicy::COALESCING,
        ..FabricConfig::count_only(1 << 20)
    }
    .build();
    let mut writer = f.client();
    let mut watcher = f.client();
    let addr = FarAddr(4096);
    let sub = watcher.notify0(addr, 8).unwrap();
    let mut fired = 0u64;
    for burst in 1..=6u64 {
        for i in 0..burst {
            writer.write_u64(addr, burst * 100 + i).unwrap();
            fired += 1;
        }
        // One poll drains the (single, coalesced) event; the rest are idle.
        let taken: usize =
            (0..50).map(|_| watcher.take_events(|e| e.sub() == Some(sub)).len()).sum();
        assert_eq!(taken, 1, "burst {burst}");
    }
    let (s, sink) = (watcher.stats(), watcher.sink().stats());
    assert_eq!((s.notifications, s.notifications_coalesced), (sink.delivered, sink.coalesced));
    assert_eq!(s.notifications + s.notifications_coalesced, fired);
    assert_eq!((s.notifications, s.notifications_lost), (6, 0));
}

/// A spike past `max_queue` after a long idle stretch still surfaces as
/// exactly one `Lost` warning carrying the number of suppressed events.
#[test]
fn a_spike_after_idle_polls_surfaces_exactly_one_lost_warning() {
    let f = FabricConfig {
        delivery: DeliveryPolicy { drop_ppm: 0, coalesce: false, max_queue: 4 },
        ..FabricConfig::count_only(1 << 20)
    }
    .build();
    let mut writer = f.client();
    let mut watcher = f.client();
    let addr = FarAddr(4096);
    watcher.notify0(addr, 8).unwrap();
    for _ in 0..1_000 {
        assert!(watcher.take_events(|_| true).is_empty());
    }
    for i in 0..12u64 {
        writer.write_u64(addr, i + 1).unwrap();
    }
    let events = watcher.take_events(|_| true);
    let lost: Vec<u64> = events
        .iter()
        .filter_map(|e| if let Event::Lost { count } = e { Some(*count) } else { None })
        .collect();
    assert_eq!(lost, [8], "12 fires into a 4-deep queue: one warning for 8");
    assert_eq!(events.len(), 5);
    assert!(watcher.take_events(|_| true).is_empty(), "the warning is reported once");
    let s = watcher.stats();
    assert_eq!((s.notifications, s.notifications_lost), (4, 8));
}

/// Two OS threads: one writes a subscribed word, the other polls as fast
/// as it can (almost every poll is idle). Every fire is either returned
/// to the poller or booked as coalesced — none is lost to a poll that
/// raced a delivery.
#[test]
fn a_concurrent_writer_and_poller_lose_no_event() {
    const WRITES: u64 = 20_000;
    let f = FabricConfig {
        delivery: DeliveryPolicy::COALESCING,
        ..FabricConfig::count_only(1 << 20)
    }
    .build();
    let mut writer = f.client();
    let mut poller = f.client();
    let addr = FarAddr(4096);
    let sub = poller.notify0(addr, 8).unwrap();
    let done = std::sync::atomic::AtomicBool::new(false);
    let (taken, polls) = std::thread::scope(|s| {
        let poll = s.spawn(|| {
            let (mut taken, mut polls) = (0u64, 0u64);
            loop {
                // Read the flag first: the poll after the writer finished
                // happens-after its last delivery and must see it.
                let last = done.load(std::sync::atomic::Ordering::Acquire);
                taken += poller.take_events(|e| e.sub() == Some(sub)).len() as u64;
                polls += 1;
                if last {
                    return (taken, polls);
                }
            }
        });
        for i in 0..WRITES {
            writer.write_u64(addr, i + 1).unwrap();
        }
        done.store(true, std::sync::atomic::Ordering::Release);
        poll.join().expect("poller thread")
    });
    let s = poller.stats();
    assert_eq!(taken, s.notifications, "every delivered event reached the consumer");
    assert_eq!(s.notifications + s.notifications_coalesced, WRITES, "after {polls} polls");
    assert_eq!(poller.pending_events(), 0);
    assert_eq!(poller.sink().pending(), 0, "nothing is left behind in the sink");
}
