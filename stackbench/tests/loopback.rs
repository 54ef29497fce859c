//! In-process loopback smoke: a real daemon and gateway on loopback TCP,
//! the benchmark's own generators, one compact job each way, and the
//! reports byte-identical to the in-process reference.

use slj_daemon::{Addr, Daemon, DaemonConfig};
use slj_gateway::{Gateway, GatewayConfig};
use slj_stackbench::clips::Clip;
use slj_stackbench::load::{run_http, run_wire, Pace, Stop};
use slj_stackbench::workload::ClipKind;

fn loopback() -> Addr {
    Addr::Tcp("127.0.0.1:0".to_owned())
}

#[test]
fn compact_jobs_come_back_byte_identical_over_http_and_the_wire() {
    let clip = Clip::generate(ClipKind::Compact, 7).expect("reference analysis");
    let clips = std::slice::from_ref(&clip);
    let daemon = Daemon::start(&[loopback()], DaemonConfig::default()).expect("daemon binds");
    let gateway = Gateway::start(
        &loopback(),
        daemon.addrs[0].clone(),
        GatewayConfig::default(),
    )
    .expect("gateway binds");
    let Addr::Tcp(hostport) = gateway.addr.clone() else {
        unreachable!("bound on TCP")
    };
    let one = Stop {
        seconds: 0.0,
        min_jobs: 1,
    };

    let rss = &|| 0.0;
    let http = run_http(&hostport, clips, 0, &Pace::Closed(1), one, rss);
    let wire = run_wire(&daemon.addrs[0], clips, 0, 1, one, rss).expect("connects");

    gateway.drain();
    gateway.shutdown();
    daemon.drain();
    daemon.join();

    for (what, result) in [("http", &http), ("wire", &wire)] {
        let t = result.tally;
        assert_eq!(
            (t.attempted, t.succeeded, t.failed()),
            (1, 1, 0),
            "{what}: {t:?}"
        );
        assert_eq!(result.jobs.len(), 1, "{what}");
        let job = result.jobs[0];
        assert!(job.admit_ms <= job.latency_ms, "{what}: {job:?}");
    }
    assert!(
        http.jobs[0].polls >= 1,
        "a gateway job is fetched by polling"
    );
}
