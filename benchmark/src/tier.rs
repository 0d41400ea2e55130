//! The system under test: one daemon, or a router in front of two,
//! started in-process on loopback sockets through the same
//! `Server::start` / `RouterServer::start` calls `cbes serve` and
//! `cbes route serve` make.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cbes_cluster::presets;
use cbes_core::monitor::ForecastKind;
use cbes_core::CbesService;
use cbes_router::{MembershipConfig, RouterServer, RouterTierHandle, TierConfig};
use cbes_server::{Client, Server, ServerConfig, ServerHandle};

/// Daemons behind the router on the routed workload.
const ROUTED_BACKENDS: usize = 2;
/// How long set-up waits for the router to see every backend healthy.
const MEMBERSHIP_DEADLINE: Duration = Duration::from_secs(10);

pub struct Backend {
    pub service: Arc<CbesService>,
    pub handle: ServerHandle,
}

/// Layer timings taken while the tier came up, in microseconds.
#[derive(Debug, Clone, Copy)]
pub struct StartTimings {
    /// `CbesService::self_calibrated` on centurion (first backend).
    pub service_build_us: f64,
    /// `Server::start` until the first `Stats` reply (first backend).
    pub server_start_us: f64,
    /// `RouterServer::start` until membership is all-healthy; 0 when direct.
    pub router_start_us: f64,
}

pub struct Tier {
    pub backends: Vec<Backend>,
    router: Option<RouterTierHandle>,
    pub timings: StartTimings,
}

fn micros(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// One daemon on a free loopback port, plus how long the service build
/// and the daemon start (until its first `Stats` reply) took.
fn start_backend() -> Result<(Backend, f64, f64), String> {
    let t = Instant::now();
    let service = Arc::new(CbesService::self_calibrated(
        Arc::new(presets::centurion()),
        ForecastKind::Adaptive(8),
    ));
    let service_build_us = micros(t);
    let t = Instant::now();
    let handle = Server::start(
        service.clone(),
        ServerConfig {
            workers: 2,
            queue_capacity: 4096,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("cannot start daemon: {e}"))?;
    Client::connect(handle.addr())
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("daemon did not answer Stats: {e}"))?;
    Ok((Backend { service, handle }, service_build_us, micros(t)))
}

impl Tier {
    /// Bring up one daemon, or two behind a router that sees both healthy.
    pub fn start(routed: bool) -> Result<Tier, String> {
        let (first, service_build_us, server_start_us) = start_backend()?;
        let mut timings = StartTimings {
            service_build_us,
            server_start_us,
            router_start_us: 0.0,
        };
        let mut backends = vec![first];
        let mut router = None;
        if routed {
            while backends.len() < ROUTED_BACKENDS {
                backends.push(start_backend()?.0);
            }
            let t = Instant::now();
            let handle = RouterServer::start(TierConfig {
                addr: "127.0.0.1:0".to_string(),
                seeds: backends
                    .iter()
                    .map(|b| b.handle.addr().to_string())
                    .collect(),
                membership: MembershipConfig {
                    cluster: "centurion".to_string(),
                    ..MembershipConfig::default()
                },
            })
            .map_err(|e| format!("cannot start router: {e}"))?;
            loop {
                let report = handle.membership().report();
                if report.heartbeats > 0 && handle.membership().counts() == (backends.len(), 0, 0) {
                    break;
                }
                if t.elapsed() > MEMBERSHIP_DEADLINE {
                    return Err("router never saw every backend healthy".to_string());
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            timings.router_start_us = micros(t);
            router = Some(handle);
        }
        Ok(Tier {
            backends,
            router,
            timings,
        })
    }

    /// Where load is sent: the router when there is one, else the daemon.
    pub fn entry(&self) -> SocketAddr {
        match &self.router {
            Some(router) => router.addr(),
            None => self.backends[0].handle.addr(),
        }
    }

    /// Stop the router before the daemons, so its heartbeat never sees
    /// a backend disappear, and wait for every thread to exit.
    pub fn stop(self) {
        if let Some(router) = self.router {
            router.shutdown_and_join();
        }
        for backend in self.backends {
            backend.handle.shutdown_and_join();
        }
    }
}
