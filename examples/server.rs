//! A miniature multi-tenant service: three tenants with heap budgets on
//! one persistent runtime, open-loop Poisson traffic, and an SLO report.
//! The `hog` tenant retains far more than its budget and is shed by
//! admission control while the others keep serving.
//!
//! Run with: `cargo run --release --example server`

use mpl_runtime::{Runtime, RuntimeConfig};
use mpl_serve::{Profile, Server, TenantSpec, TrafficConfig};

fn main() {
    let rt = Runtime::new(RuntimeConfig::managed().with_telemetry());
    let mut server = Server::new(
        &rt,
        vec![
            TenantSpec::new("web", 8 << 20).cache_slots(128),
            TenantSpec::new("feed", 8 << 20).profile(Profile::Entangled),
            TenantSpec::new("hog", 256 * 1024)
                .profile(Profile::Entangled)
                .payload_scale(64),
        ],
    );
    let traffic = TrafficConfig {
        rate_hz: 400.0,
        requests: 2_000,
        tenants: 3,
        ..TrafficConfig::default()
    };
    println!(
        "offering {} requests at {} rps across {} tenants...",
        traffic.requests,
        traffic.rate_hz,
        server.tenants.len()
    );
    let report = server.run(&traffic);
    println!("{}", report.render_table());
    let hog = &report.tenants[2];
    println!(
        "hog shed {} requests against its {} KiB budget; web/feed shed {}",
        hog.counts.shed_budget,
        hog.budget.as_ref().map_or(0, |b| b.limit / 1024),
        report.tenants[0].counts.shed_budget + report.tenants[1].counts.shed_budget,
    );
    server.shutdown();
    rt.assert_heap_sound();
}
