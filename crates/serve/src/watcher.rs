//! Registry-driven hot swap: watch an [`rrc_store::ModelRegistry`]
//! directory and install every newly published version into a running
//! [`ServeEngine`] — the deployment loop that connects offline training
//! (which publishes through the registry) to online serving.
//!
//! The watcher polls the manifest (cheap: one small text file) and only
//! touches a model file when the latest version number advances. Loads go
//! through the store's validated reader, so a torn or corrupt publish can
//! never reach the engine — it is counted in
//! `serve_registry_errors_total` and retried on the next poll. A model
//! whose shape differs from the serving model is likewise rejected
//! (`ServeEngine::swap_model` requires identical dimensions).

use crate::engine::ServeEngine;
use rrc_store::{ModelRegistry, ModelView};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A shared log of completed hot-swaps: `(registry version, install
/// instant)` per installed model. A publisher that records its own
/// publish instants can join the two series to measure publish-to-swap
/// freshness latency — the continuous pipeline's end-to-end deployment
/// lag.
#[derive(Debug, Default)]
pub struct SwapLog {
    entries: Mutex<Vec<(u64, Instant)>>,
}

impl SwapLog {
    /// A fresh, empty log.
    pub fn new() -> Arc<SwapLog> {
        Arc::new(SwapLog::default())
    }

    /// Record one installed version.
    pub fn record(&self, version: u64, at: Instant) {
        self.entries
            .lock()
            .expect("swap log lock")
            .push((version, at));
    }

    /// Snapshot of everything recorded so far, in install order.
    pub fn entries(&self) -> Vec<(u64, Instant)> {
        self.entries.lock().expect("swap log lock").clone()
    }
}

/// One poll of the registry against an engine. Returns the version that
/// was installed, if any. This is the watcher's whole step, factored out
/// so tests (and manual deployment scripts) can drive it synchronously.
pub fn poll_once(
    engine: &ServeEngine,
    dir: &std::path::Path,
    last_seen: &mut Option<u64>,
) -> Result<Option<u64>, String> {
    let registry = ModelRegistry::open(dir).map_err(|e| format!("open registry: {e}"))?;
    let Some((version, path)) = registry.latest() else {
        return Ok(None); // empty registry: nothing published yet
    };
    if last_seen.is_some_and(|seen| version <= seen) {
        return Ok(None);
    }
    let view = ModelView::open(&path).map_err(|e| format!("load version {version}: {e}"))?;
    let current = engine.model();
    if (view.num_users(), view.num_items()) != (current.num_users(), current.num_items()) {
        // Remember the version anyway: a wrongly-shaped publish would
        // otherwise be retried (and fail) every poll forever.
        *last_seen = Some(version);
        return Err(format!(
            "version {version} has shape ({} users, {} items), engine serves ({}, {})",
            view.num_users(),
            view.num_items(),
            current.num_users(),
            current.num_items()
        ));
    }
    engine.swap_model(view.into_model());
    *last_seen = Some(version);
    Ok(Some(version))
}

/// Background thread that keeps a [`ServeEngine`] on the newest
/// registry version.
pub struct RegistryWatcher {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl RegistryWatcher {
    /// Start watching `dir`, polling every `interval`. The engine's own
    /// metrics registry gains `serve_registry_polls_total`,
    /// `serve_registry_swaps_total`, and `serve_registry_errors_total`.
    pub fn spawn(
        engine: Arc<ServeEngine>,
        dir: impl Into<PathBuf>,
        interval: Duration,
    ) -> RegistryWatcher {
        RegistryWatcher::spawn_logged(engine, dir, interval, None)
    }

    /// [`RegistryWatcher::spawn`], additionally recording every completed
    /// install into `log` (registry version + instant) so callers can
    /// measure publish-to-swap freshness.
    pub fn spawn_logged(
        engine: Arc<ServeEngine>,
        dir: impl Into<PathBuf>,
        interval: Duration,
        log: Option<Arc<SwapLog>>,
    ) -> RegistryWatcher {
        let dir = dir.into();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name("registry-watcher".to_string())
            .spawn(move || {
                let polls = engine
                    .metrics_registry()
                    .counter("serve_registry_polls_total");
                let swaps = engine
                    .metrics_registry()
                    .counter("serve_registry_swaps_total");
                let errors = engine
                    .metrics_registry()
                    .counter("serve_registry_errors_total");
                let mut last_seen: Option<u64> = None;
                while !stop_flag.load(Ordering::Relaxed) {
                    polls.inc();
                    match poll_once(&engine, &dir, &mut last_seen) {
                        Ok(Some(version)) => {
                            swaps.inc();
                            if let Some(log) = &log {
                                log.record(version, Instant::now());
                            }
                        }
                        Ok(None) => {}
                        Err(_) => errors.inc(),
                    }
                    // Sleep in short slices so stop() never waits a full
                    // interval.
                    let mut remaining = interval;
                    while !stop_flag.load(Ordering::Relaxed) && remaining > Duration::ZERO {
                        let slice = remaining.min(Duration::from_millis(20));
                        std::thread::sleep(slice);
                        remaining = remaining.saturating_sub(slice);
                    }
                }
            })
            .expect("spawn registry watcher thread");
        RegistryWatcher {
            stop,
            handle: Some(handle),
        }
    }

    /// Stop the watcher and wait for its thread (drops its engine `Arc`,
    /// so the caller can reclaim the engine for shutdown).
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            handle.join().expect("registry watcher thread panicked");
        }
    }
}

impl Drop for RegistryWatcher {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            handle.join().ok();
        }
    }
}
