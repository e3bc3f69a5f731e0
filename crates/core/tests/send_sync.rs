//! Compile-time thread-safety pins for the serving layer's load-bearing types.
//!
//! The fleet-scale session host multiplexes thousands of [`Session`]s over a
//! worker pool against one shared [`Engine`]; that design is only sound if the
//! engine is freely shareable across threads (`Send + Sync`) and a session can
//! migrate between workers (`Send`). These bounds held implicitly since PR 3
//! (the threaded determinism test in `engine_sessions.rs` relies on them), but
//! a refactor introducing an `Rc`, a `RefCell`, or a raw pointer into any stage
//! would only surface as a distant borrow-check error in whatever test spawned
//! a thread first. The `const` assertions below turn that into an immediate,
//! named compile failure at the type that regressed.
//!
//! Everything here is evaluated at compile time; the lone `#[test]` exists so
//! the harness reports the file instead of silently linking it.

use ispot_core::prelude::*;
use ispot_core::sink::AlertCounter;
use ispot_core::stages::FrameOutcome;

const fn assert_send<T: Send>() {}
const fn assert_send_sync<T: Send + Sync>() {}

const _: () = {
    // The engine is the shared half of a deployment: one per process, handed by
    // cheap clone to every connection/worker thread.
    assert_send_sync::<Engine>();
    // Sessions hold only per-stream mutable state and hop between pool workers.
    assert_send::<Session>();
    // Events and outcomes cross thread boundaries through sinks and channels.
    assert_send_sync::<PerceptionEvent>();
    assert_send_sync::<FrameOutcome>();
    // The bundled sink adapters must compose into `Box<dyn EventSink + Send>`.
    assert_send::<Vec<PerceptionEvent>>();
    assert_send::<AlertCounter>();
    // Builder and config travel to whatever thread constructs the engine.
    assert_send_sync::<PipelineBuilder>();
    assert_send_sync::<PipelineError>();
};

#[test]
fn thread_safety_bounds_are_pinned_at_compile_time() {
    // The `const` block above is the test; reaching this line means it compiled.
}
