//! The live ops plane: a background driver thread (metric trend ticks +
//! consistency-sentinel audits) and the optional HTTP exposition endpoint,
//! both owned by one [`OpsPlane`] handle.
//!
//! [`Database::start_ops`] wires everything together:
//!
//! * enables 1-in-N request sampling for the consistency sentinel;
//! * spawns the driver thread, which every [`OpsConfig::tick_every`]
//!   advances [`Registry::tick`] (so `/metrics` trends move while the
//!   process serves) and drains a bounded batch of sentinel audits;
//! * when [`OpsConfig::http_addr`] is set, binds the dependency-free
//!   HTTP/1.1 responder from [`openmldb_obs::ops`] with the
//!   database-specific routes `/healthz` and `/explain/<deployment>`
//!   registered next to the built-in `/metrics` and `/report`.
//!
//! The driver holds only a [`Weak`] database reference: dropping the last
//! `Arc<Database>` ends the thread on its next tick, and dropping the
//! [`OpsPlane`] stops both the driver and the listener deterministically.
//!
//! Under `obs-off` there is nothing to expose; [`Database::start_ops`]
//! returns [`Error::Unsupported`] without spawning anything.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use openmldb_obs::ops::{OpsResponse, OpsServer};
use openmldb_obs::Registry;
use openmldb_online::sentinel;
use openmldb_online::AuditStats;
use openmldb_types::{Error, Result};

use crate::database::Database;

/// Environment variable consulted for the default HTTP bind address.
pub const OPS_ADDR_ENV: &str = "OPENMLDB_OPS_ADDR";

/// Configuration for [`Database::start_ops`].
#[derive(Clone, Debug)]
pub struct OpsConfig {
    /// Bind address for the HTTP exposition endpoint (e.g.
    /// `"127.0.0.1:9527"`; use port `0` to let the kernel pick). `None`
    /// runs the driver without a listener. Defaults to the
    /// [`OPS_ADDR_ENV`] environment variable when set.
    pub http_addr: Option<String>,
    /// Consistency-sentinel sampling rate: audit one in N served requests
    /// (`0` disables sampling).
    pub sample_every: u32,
    /// Driver cadence: each iteration advances the metric trend rings and
    /// drains one audit batch.
    pub tick_every: Duration,
    /// Maximum sentinel samples audited per driver iteration (bounds
    /// background CPU per tick).
    pub audit_batch: usize,
}

impl Default for OpsConfig {
    fn default() -> Self {
        OpsConfig {
            http_addr: std::env::var(OPS_ADDR_ENV).ok(),
            sample_every: 64,
            tick_every: Duration::from_millis(250),
            audit_batch: 256,
        }
    }
}

/// A running ops plane. Dropping it stops the driver thread and the HTTP
/// listener (if any) and joins both.
pub struct OpsPlane {
    stop: Arc<AtomicBool>,
    driver: Option<JoinHandle<()>>,
    server: Option<OpsServer>,
}

impl OpsPlane {
    /// The bound HTTP address, when a listener was configured.
    pub fn addr(&self) -> Option<std::net::SocketAddr> {
        self.server.as_ref().map(|s| s.addr())
    }

    /// Stop the driver and the listener and join both threads.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.driver.take() {
            let _ = t.join();
        }
        if let Some(mut s) = self.server.take() {
            s.shutdown();
        }
    }
}

impl Drop for OpsPlane {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Database {
    /// Start the live ops plane: sentinel sampling, the periodic driver
    /// (trend ticks + audit drains), and — when configured — the HTTP
    /// exposition endpoint. Returns [`Error::Unsupported`] under
    /// `obs-off`, where every surface this plane would expose is compiled
    /// to a no-op.
    pub fn start_ops(self: &Arc<Self>, cfg: OpsConfig) -> Result<OpsPlane> {
        if !openmldb_obs::enabled() {
            return Err(Error::Unsupported(
                "ops plane unavailable: observability is compiled out (obs-off)".into(),
            ));
        }
        sentinel::set_sample_every(cfg.sample_every);
        let stop = Arc::new(AtomicBool::new(false));

        let weak: Weak<Database> = Arc::downgrade(self);
        let driver = {
            let stop = Arc::clone(&stop);
            let weak = Weak::clone(&weak);
            let tick_every = cfg.tick_every;
            let batch = cfg.audit_batch;
            std::thread::Builder::new()
                .name("openmldb-ops-driver".into())
                .spawn(move || loop {
                    std::thread::sleep(tick_every);
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let Some(db) = weak.upgrade() else { break };
                    Registry::global().tick();
                    db.sentinel_drain(batch);
                })
                .map_err(|e| Error::Storage(format!("ops driver spawn failed: {e}")))?
        };

        let server = match &cfg.http_addr {
            Some(addr) => {
                let handler: openmldb_obs::OpsHandler = Arc::new(move |path: &str| {
                    let db = weak.upgrade()?;
                    if path == "/healthz" {
                        return Some(OpsResponse::ok("application/json", db.healthz_json()));
                    }
                    if let Some(name) = path.strip_prefix("/explain/") {
                        if name.is_empty() {
                            return None;
                        }
                        return Some(OpsResponse::ok("text/plain", db.explain_analyze(name)));
                    }
                    None
                });
                Some(
                    openmldb_obs::ops::serve(addr, handler)
                        .map_err(|e| Error::Storage(format!("ops listener bind failed: {e}")))?,
                )
            }
            None => None,
        };

        Ok(OpsPlane {
            stop,
            driver: Some(driver),
            server,
        })
    }

    /// Drain up to `max` queued consistency-sentinel samples through the
    /// oracle replays, synchronously (the driver thread calls this; tests
    /// and benchmarks call it directly for deterministic audits).
    pub fn sentinel_drain(&self, max: usize) -> AuditStats {
        sentinel::drain(self, &|name| self.deployment(name), max)
    }

    /// The sentinel health verdict as a one-line JSON object: cumulative
    /// sample/audit/divergence counters, queue lag, and resilience
    /// counters, plus `"ok"` — `true` iff no divergence has ever been
    /// confirmed in this process.
    pub fn healthz_json(&self) -> String {
        let s = sentinel::stats();
        let timeouts = openmldb_online::metrics::timeouts().value();
        let degraded = openmldb_online::metrics::degraded().value();
        format!(
            "{{\"ok\":{},\"divergences\":{},\"samples\":{},\"audits\":{},\
             \"stale_skips\":{},\"bucket_skips\":{},\"dropped\":{},\"errors\":{},\
             \"queue_lag\":{},\"sample_every\":{},\"timeouts\":{},\"degraded\":{}}}",
            s.divergences == 0,
            s.divergences,
            s.samples,
            s.audits,
            s.stale_skips,
            s.bucket_skips,
            s.dropped,
            s.errors,
            s.queue,
            sentinel::sample_every(),
            timeouts,
            degraded,
        )
    }
}
