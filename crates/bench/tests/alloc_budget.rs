//! Steady-state allocation budget: the regression tripwire for the
//! zero-allocation hot path (op arena, envelope slab, pooled wheel slots,
//! SoA wheel lanes, inline avatar frames, ring-buffer snapshot histories).
//!
//! A counting `#[global_allocator]` wraps the system allocator and tallies
//! every `alloc`/`realloc`, and the bytes live. First a warmed-up snapshot
//! stream must encode, decode and acknowledge, and a full-window jitter
//! buffer take pushes, with no allocator call at all, a new jitter buffer
//! must fill its delay window within a handful of calls, an acknowledged
//! snapshot receiver must hold only the few grid-form references its sender
//! can still name and one never acknowledged no more than 128 of them, and a
//! jitter buffer of grid states no more than its 32-bit delay block and a
//! horizon's worth of 88-byte entries. Then, after
//! warm-up simulated time (arenas, slabs and rings grow to their high-water
//! marks), a further simulated second on two session shapes — E3-quick with
//! its remote cohort, and two MR campuses with none — must stay under a
//! committed allocations-per-event ceiling on BOTH engines. The ceilings
//! are about 2x the measured rates: they catch a reintroduced per-frame
//! `Vec` or per-event box immediately without flaking on allocator noise.
//! A third shape, one campus and one flyweight pool, runs serially under a
//! tighter ceiling that a display batch grown push by push exceeds.
//! Last, the serial campus session's envelope slab must stay under a
//! high-water ceiling: an edge server's fan-out to its room's headsets is
//! one stored envelope, not one per headset.
//!
//! Live bytes, and the allocator calls of the single-threaded checks, are
//! counted per thread: other threads of the process (the test harness's
//! among them) allocate while a test runs. With process-wide counts a
//! block of theirs landed inside a measured stretch about once in 70 runs,
//! pushing a receiver's reading 868 bytes past its budget, and on a loaded
//! machine four stray calls landed in the snapshot stream's zero-call
//! stretch. The session rows read a process-wide call count, so the
//! sharded rows include their lane threads' allocations; everything sits in
//! ONE `#[test]` so no other test adds to it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::LocalKey;

use metaclass_avatar::{AvatarCodec, AvatarState, QuantizedState, Vec3};
use metaclass_core::{Activity, ClassroomSession, SessionBuilder};
use metaclass_netsim::{EngineConfig, LinkClass, PopulationProfile, Region, SimDuration, SimTime};
use metaclass_sync::{JitterBuffer, JitterBufferConfig, SnapshotReceiver, SnapshotSender};

struct CountingAlloc;

/// Allocator calls by every thread of the process.
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// `const`-initialised and without destructors, so touching them never
// allocates.
thread_local! {
    /// Allocator calls by this thread.
    static THREAD_CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread requested and has not freed (wrapping: only
    /// differences are read).
    static LIVE_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static LocalKey<Cell<u64>>, delta: u64) {
    counter.with(|c| c.set(c.get().wrapping_add(delta)));
}

fn read(counter: &'static LocalKey<Cell<u64>>) -> u64 {
    counter.with(Cell::get)
}

// SAFETY: defers to `System` for every operation; only adds a relaxed
// counter bump and thread-local adds, all allocation-free and
// reentrancy-safe.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        bump(&THREAD_CALLS, 1);
        bump(&LIVE_BYTES, layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&LIVE_BYTES, (layout.size() as u64).wrapping_neg());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        bump(&THREAD_CALLS, 1);
        bump(&LIVE_BYTES, (new_size as u64).wrapping_sub(layout.size() as u64));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The E3-quick topology: one MR campus plus a remote cohort behind the
/// cloud relay — same shape the engine identity tests use.
fn e3_session(engine: EngineConfig) -> ClassroomSession {
    SessionBuilder::new()
        .seed(3)
        .engine_config(engine)
        .activity(Activity::Seminar)
        .campus("CWB", Region::EastAsia, 4, true)
        .remote_cohort(Region::EastAsia, 10, LinkClass::ResidentialAccess)
        .build()
}

/// The campus shape: two MR classrooms an ocean apart and no remote
/// audience, so headsets, room arrays and the edge servers' fuse → encode →
/// decode path do all the work (the benchmark's `blended_campus`, smaller).
fn campus_session(engine: EngineConfig) -> ClassroomSession {
    SessionBuilder::new()
        .seed(3)
        .engine_config(engine)
        .activity(Activity::Seminar)
        .campus("CWB", Region::EastAsia, 10, true)
        .campus("GZ", Region::Europe, 10, false)
        .build()
}

/// The pooled shape: one MR campus and one flyweight pool of remote
/// members with a few fully simulated tracers, arriving as a flash crowd,
/// so the cloud's per-pool display batches are on the hot path (the
/// benchmark's `planet_pool`, smaller).
fn pooled_session(engine: EngineConfig) -> ClassroomSession {
    SessionBuilder::new()
        .seed(3)
        .engine_config(engine)
        .activity(Activity::Seminar)
        .campus("CWB", Region::EastAsia, 12, true)
        .population(
            Region::Europe,
            2_000,
            4,
            LinkClass::ResidentialAccess,
            PopulationProfile::flash_crowd(
                SimTime::from_millis(200),
                SimDuration::from_millis(500),
            ),
        )
        .build()
}

/// Runs `warmup_secs` then one measured second; returns (alloc calls,
/// events) for the measured second and the envelope slab's high water over
/// the whole run.
fn steady_state_allocs(mut session: ClassroomSession, warmup_secs: u64) -> (u64, u64, u64) {
    session.run_for(SimDuration::from_secs(warmup_secs));
    let events_before = session.sim().events_processed();
    let allocs_before = ALLOC_CALLS.load(Ordering::Relaxed);
    session.run_for(SimDuration::from_secs(1));
    let allocs = ALLOC_CALLS.load(Ordering::Relaxed) - allocs_before;
    let events = session.sim().events_processed() - events_before;
    let slab_high_water = session.sim().metrics().counter_value("engine.env_slab.high_water");
    (allocs, events, slab_high_water)
}

/// One stream, acknowledged a few frames late as on a real link: once the
/// sender's history ring and the receiver's reference ring have grown to
/// their working sizes (the few frames between the acknowledged reference
/// and the newest), a frame's whole life — quantize, pack into the inline
/// payload, decode, prune, store, acknowledge — allocates nothing.
fn snapshot_round_trip_allocs() -> u64 {
    let mut tx = SnapshotSender::new(AvatarCodec::with_defaults(), 60);
    let mut rx = SnapshotReceiver::new(AvatarCodec::with_defaults());
    let mut step = |i: u64| {
        let mut state = AvatarState::at_position(Vec3::new(2.0 + i as f64 * 0.003, 1.6, 4.0));
        state.velocity = Vec3::new(0.18, 0.0, 0.0);
        let frame = tx.encode(&state);
        rx.decode(&frame).expect("valid frame").expect("reference kept");
        tx.on_ack(frame.seq.saturating_sub(4));
    };
    // Warm-up, then a measured stretch in which both rings hold steady.
    (0..300).for_each(&mut step);
    let before = read(&THREAD_CALLS);
    (300..1_300).for_each(&mut step);
    read(&THREAD_CALLS) - before
}

/// A receiver fed 428 frames of a stream that is acknowledged (each frame a
/// delta against the one before, which drops everything older) or never is
/// (each a keyframe, and the receiver fills its 128 references and evicts):
/// the bytes it then holds on the heap. Frames are encoded first, so only
/// the receiver's own storage is counted, and it is kept alive until after
/// the reading.
fn snapshot_receiver_bytes(acked: bool) -> u64 {
    let mut tx = SnapshotSender::new(AvatarCodec::with_defaults(), 60);
    let frames: Vec<_> = (0..428u64)
        .map(|i| {
            let frame =
                tx.encode(&AvatarState::at_position(Vec3::new(2.0 + i as f64 * 0.003, 1.6, 4.0)));
            if acked {
                tx.on_ack(frame.seq);
            }
            frame
        })
        .collect();
    let before = read(&LIVE_BYTES);
    let mut rx = SnapshotReceiver::new(AvatarCodec::with_defaults());
    for frame in &frames {
        rx.decode(frame).expect("valid frame").expect("reference kept");
    }
    let bytes = read(&LIVE_BYTES).wrapping_sub(before);
    drop(rx);
    bytes
}

/// Capture and arrival of the `i`-th update of a 72 Hz stream, after
/// 20–60 ms of network delay drawn from the xorshift state `jitter`.
fn jittered_times(jitter: &mut u64, i: u64) -> (SimTime, SimTime) {
    *jitter ^= *jitter << 13;
    *jitter ^= *jitter >> 7;
    *jitter ^= *jitter << 17;
    let capture = SimTime::from_nanos(i * 13_888_889);
    (capture, capture + SimDuration::from_micros(20_000 + *jitter % 40_000))
}

/// The `i`-th state of a learner walking along x.
fn walking(i: u64) -> AvatarState {
    AvatarState::at_position(Vec3::new(i as f64 * 0.01, 1.6, 4.0))
}

/// One update of a playout buffer for one remote avatar: the `i`-th state
/// of a jittered 72 Hz stream.
fn push_jittered(buffer: &mut JitterBuffer, jitter: &mut u64, i: u64) {
    let (capture, arrival) = jittered_times(jitter, i);
    buffer.push(capture, arrival, walking(i));
}

const JITTER_SEED: u64 = 0x2545_f491_4f6c_dd1d;

/// A new buffer and its first 300 pushes, the stretch in which its delay
/// window fills to the default 128 samples: the window is one block taken
/// in `JitterBuffer::new`, so what is left is the state deque growing to
/// the ~18 states its 250 ms playout horizon holds at 72 Hz. A window kept
/// as a growing `VecDeque` plus a largest-sample `Vec` made 11 calls here.
fn jitter_buffer_fill_allocs() -> u64 {
    let before = read(&THREAD_CALLS);
    let mut buffer = JitterBuffer::new(JitterBufferConfig::default());
    let mut jitter = JITTER_SEED;
    (0..300).for_each(|i| push_jittered(&mut buffer, &mut jitter, i));
    read(&THREAD_CALLS) - before
}

/// The same buffer past its fill: once the delay window holds its 128
/// samples, a push — window slide, floor and largest-sample upkeep (with
/// the occasional rescan), sorted insert, horizon trim — allocates nothing.
/// This loop starts counting after the window is full, so it cannot see
/// the window's own growth; `jitter_buffer_fill_allocs` does.
fn jitter_buffer_push_allocs() -> u64 {
    let mut buffer = JitterBuffer::new(JitterBufferConfig::default());
    let mut jitter = JITTER_SEED;
    (0..300).for_each(|i| push_jittered(&mut buffer, &mut jitter, i));
    let before = read(&THREAD_CALLS);
    (300..1_300).for_each(|i| push_jittered(&mut buffer, &mut jitter, i));
    read(&THREAD_CALLS) - before
}

/// A buffer of grid states, as a remote client keeps, after 300 jittered
/// pushes: the heap bytes it then holds. States are quantized first, so only
/// the buffer's own storage is counted, and it is kept alive until after the
/// reading.
fn jitter_buffer_bytes() -> u64 {
    let codec = AvatarCodec::with_defaults();
    let grids: Vec<QuantizedState> = (0..300).map(|i| codec.quantize(&walking(i))).collect();
    let before = read(&LIVE_BYTES);
    let mut buffer = JitterBuffer::new(JitterBufferConfig::default());
    let mut jitter = JITTER_SEED;
    for (i, grid) in (0..).zip(&grids) {
        let (capture, arrival) = jittered_times(&mut jitter, i);
        buffer.push(capture, arrival, *grid);
    }
    let bytes = read(&LIVE_BYTES).wrapping_sub(before);
    drop(buffer);
    bytes
}

#[test]
fn steady_state_allocations_per_event_stay_under_budget() {
    assert_eq!(
        snapshot_round_trip_allocs(),
        0,
        "a warmed-up snapshot stream allocated: a per-frame Vec, Box or tree node is back on \
         the encode -> decode -> ack path (inline FramePayload, SnapshotSender's history ring, \
         SnapshotReceiver's prune-on-reference ring)"
    );
    eprintln!("alloc_budget[snapshot_round_trip]: 0 allocs / 1000 frames");
    let entry = std::mem::size_of::<(u64, QuantizedState)>();
    // The reference and the newest frame, in a deque's smallest block of 4
    // entries of 88 bytes: 352 bytes. Kept until evicted, the 128
    // references held 11 264.
    let receiver_budget = 4 * entry;
    let receiver = snapshot_receiver_bytes(true);
    eprintln!(
        "alloc_budget[snapshot_receiver_bytes]: {receiver} bytes live after 428 acknowledged \
         frames (budget {receiver_budget})"
    );
    assert!(
        receiver <= receiver_budget as u64,
        "an acknowledged snapshot receiver holds {receiver} heap bytes, over the budget of \
         {receiver_budget}: it no longer drops the states older than an applied delta's \
         reference, or its references are no longer grid-form entries"
    );
    // Never acknowledged: 128 references of 88 bytes, plus a deque header's
    // worth of slack, 11 296 bytes. Float references (200 bytes each) held
    // 25 600.
    let cap_budget = 128 * entry + std::mem::size_of::<VecDeque<(u64, QuantizedState)>>();
    let cap = snapshot_receiver_bytes(false);
    eprintln!(
        "alloc_budget[snapshot_receiver_cap_bytes]: {cap} bytes live after 428 keyframes \
         (budget {cap_budget})"
    );
    assert!(
        cap <= cap_budget as u64,
        "a snapshot receiver fed only keyframes holds {cap} heap bytes, over the budget of \
         {cap_budget}: it keeps more than 128 grid-form references"
    );
    assert_eq!(
        jitter_buffer_push_allocs(),
        0,
        "a full-window jitter buffer allocated on push: the delay window, its largest-sample \
         list or the state deque grew past its working size"
    );
    eprintln!("alloc_budget[jitter_buffer_push]: 0 allocs / 1000 pushes");
    let fill = jitter_buffer_fill_allocs();
    eprintln!("alloc_budget[jitter_buffer_fill]: {fill} allocs / new + 300 pushes (budget 5)");
    assert!(
        fill <= 5,
        "a new jitter buffer made {fill} allocator calls while filling, over the budget of 5: \
         its delay window is no longer one block taken in JitterBuffer::new"
    );
    // The delay block (128 ring + 7 largest-sample slots of 4 bytes) and a
    // state deque grown to 32 slots for the ~19 states the 250 ms horizon
    // keeps at 72 Hz, each 88 bytes: 3 356 bytes. With 8-byte delay slots
    // the buffer held 3 896, and with float entries (200 bytes each) 7 480.
    let buffer_budget = (128 + 7) * 4 + 32 * std::mem::size_of::<(SimTime, QuantizedState)>();
    let buffer = jitter_buffer_bytes();
    eprintln!(
        "alloc_budget[jitter_buffer_bytes]: {buffer} bytes live after 300 pushes \
         (budget {buffer_budget})"
    );
    assert!(
        buffer <= buffer_budget as u64,
        "a grid-state jitter buffer holds {buffer} heap bytes after 300 pushes, over the \
         budget of {buffer_budget}: its delay slots are no longer 32-bit, its entries are \
         no longer 88-byte grid states, or its deque keeps more than the playout horizon \
         reaches"
    );

    // Committed ceilings, in allocations per 1000 events, at about 2x the
    // measured rate. What is left in the serial steady state is metrics and
    // the state deques of new jitter buffers growing to their working
    // sizes. The sharded engine keeps its lanes (wheels, envelope slabs,
    // registries, buffers) from one `run` call to the next, so what it adds
    // is per `run` call and per window, not per event: the worker threads
    // and their channels, the coordinator's slot vectors, and the
    // per-window barrier bookkeeping. Measured, in the order e3 serial /
    // e3 sharded:4 / campus serial / campus sharded:2: 0 (3 calls in 5 758
    // events) / 59 / 0 (2 calls in 13 146 events) / 3 per 1k (40 calls in
    // the last). With lanes rebuilt from empty in every `run` call, fresh
    // lane wheels regrowing their node pools and fresh registries their
    // keys and histograms, the sharded rows measured 106 / 17. With the
    // wheel's slots as 256 separate `Vec`s, each regrown to its largest
    // burst in every fresh wheel, the four runs measured 33 / 230 / 4 /
    // 132. With each delay window grown sample by sample (a `VecDeque` ring
    // plus a largest-sample `Vec`) e3 measured 57 / 253 on top of those
    // slots; with avatar frames in a growing `Vec<u8>` and snapshot
    // histories in `BTreeMap`s the four runs measured 453 / 650 / 363 / 491.
    // The pooled shape measures 9 per 1k (61 calls in 6 294 events), one of
    // them per pool display batch, the exact-size capture list it owns; with
    // each batch a fresh `Vec` grown push by push (4, 8, 16 slots for the
    // campus's 12 learners) it measured 18 (117 calls). Its ceiling sits
    // between.
    type Shape = fn(EngineConfig) -> ClassroomSession;
    let cases: [(&str, Shape, EngineConfig, u64, u64); 5] = [
        ("pooled_serial", pooled_session, EngineConfig::serial(), 3, 13),
        ("e3_serial", e3_session, EngineConfig::serial(), 1, 8),
        ("e3_sharded_4", e3_session, EngineConfig::sharded(4), 1, 120),
        ("campus_serial", campus_session, EngineConfig::serial(), 3, 2),
        ("campus_sharded_2", campus_session, EngineConfig::sharded(2), 3, 8),
    ];
    let mut campus_slab_high_water = None;
    for (label, shape, engine, warmup_secs, budget_per_1k) in cases {
        let (allocs, events, slab_high_water) = steady_state_allocs(shape(engine), warmup_secs);
        if label == "campus_serial" {
            campus_slab_high_water = Some(slab_high_water);
        }
        assert!(events > 1_000, "{label}: measured second processed only {events} events");
        let per_1k = allocs * 1_000 / events;
        eprintln!(
            "alloc_budget[{label}]: {allocs} allocs / {events} events \
             = {per_1k} per 1k events (budget {budget_per_1k})"
        );
        assert!(
            per_1k <= budget_per_1k,
            "{label}: steady-state allocation rate {per_1k}/1k events exceeds the \
             committed budget of {budget_per_1k}/1k — a per-event allocation has \
             crept back into the hot path (check Op arena reuse, the envelope \
             slab, the wheel's shared node pool, the inline frame payload, the edge \
             server's tick scratch, the cloud's pool display batch, and the sync \
             crate's snapshot rings, jitter-buffer push and interest selection)"
        );
    }
    let slab = campus_slab_high_water.expect("the serial campus session ran");
    // Each edge server sends every decoded remote frame to its room's ten
    // headsets as one shared envelope: 240 envelopes live at most. With one
    // envelope per headset the same run held 409. The ceiling sits between.
    let slab_budget = 300;
    eprintln!(
        "alloc_budget[campus_env_slab]: {slab} envelopes live at most (budget {slab_budget})"
    );
    assert!(
        slab <= slab_budget,
        "the serial campus session held {slab} envelopes in flight at once, over the budget of \
         {slab_budget}: a fan-out stopped sharing its payload (an edge server's DisplayUpdate loop \
         sends one copy per headset again instead of one send_all)"
    );
}
