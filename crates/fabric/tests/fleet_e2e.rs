//! Fleet end-to-end: real `JobServer` nodes on localhost TCP, driven by the
//! coordinator. The load-bearing property is *determinism*: the same
//! campaign must render a byte-identical report serially, on 1 node, on 4
//! nodes, with work stealing, and across a node death mid-sweep.

use std::sync::Arc;
use std::time::{Duration, Instant};
use tracer_core::net::HostClient;
use tracer_fabric::coordinator::{
    fleet_stats, run_campaign, serial_report, CampaignSpec, FleetConfig,
};
use tracer_serve::server::{JobServer, LoadTrace};
use tracer_serve::ServiceConfig;
use tracer_sim::ArraySpec;
use tracer_trace::{Bunch, IoPackage, Trace, TraceHandle, TraceView, WorkloadMode};

const DEVICE: &str = "fleetdev";

/// Deterministic synthetic trace; every call yields identical content, so
/// every node (and the serial baseline) replays the same workload.
fn fleet_trace(bunches: u64) -> TraceHandle {
    let trace = Trace::from_bunches(
        "fleet",
        (0..bunches)
            .map(|i| {
                let pkg = if i % 3 == 0 {
                    IoPackage::write((i * 2_053) % 180_000, 8192)
                } else {
                    IoPackage::read((i * 997) % 200_000, 8192)
                };
                Bunch::new(i * 3_000_000, vec![pkg])
            })
            .collect(),
    );
    Arc::new(TraceView::from_trace(&trace).unwrap())
}

/// The testbed every node serves and the serial baseline measures.
fn fleet_array() -> ArraySpec {
    ArraySpec { name: DEVICE.into(), ..ArraySpec::hdd_raid5(4) }
}

fn spawn_node(workers: usize, bunches: u64) -> JobServer {
    let trace = fleet_trace(bunches);
    let load: LoadTrace = Arc::new(move |_mode| Some(Arc::clone(&trace)));
    JobServer::spawn(ServiceConfig { workers, queue_capacity: 4 }, fleet_array(), load)
        .expect("spawn node")
}

fn campaign(loads: &[u32]) -> CampaignSpec {
    CampaignSpec {
        device: DEVICE.into(),
        mode: WorkloadMode::peak(8192, 50, 70),
        loads: loads.to_vec(),
        intensity_pct: 100,
    }
}

fn baseline(spec: &CampaignSpec, bunches: u64) -> String {
    serial_report(spec, &fleet_array(), &fleet_trace(bunches)).expect("serial baseline")
}

fn config() -> FleetConfig {
    FleetConfig { poll_interval: Duration::from_millis(5), ..Default::default() }
}

#[test]
fn one_node_and_four_nodes_render_the_byte_identical_serial_report() {
    let spec = campaign(&[20, 50, 80, 100]);
    let serial = baseline(&spec, 400);

    let single = spawn_node(2, 400);
    let outcome =
        run_campaign(&[single.addr().to_string()], &spec, &config()).expect("1-node campaign");
    assert_eq!(outcome.report, serial, "1-node report must be byte-identical to serial");
    assert_eq!(outcome.stats.nodes_dead, 0);
    single.shutdown().unwrap();

    let fleet: Vec<JobServer> = (0..4).map(|_| spawn_node(2, 400)).collect();
    let addrs: Vec<String> = fleet.iter().map(|n| n.addr().to_string()).collect();
    let outcome = run_campaign(&addrs, &spec, &config()).expect("4-node campaign");
    assert_eq!(outcome.report, serial, "4-node report must be byte-identical to serial");
    assert_eq!(
        outcome.stats.completed_per_node.iter().sum::<u64>(),
        spec.loads.len() as u64,
        "every cell completed exactly once"
    );

    // Fleet-wide stats aggregation sees every node and every finished cell.
    let agg = fleet_stats(&addrs, Duration::from_secs(5));
    assert_eq!(agg.nodes, 4);
    assert_eq!(agg.workers, 8);
    assert!(agg.done >= spec.loads.len() as u64, "{agg:?}");
    assert_eq!(agg.queued + agg.running, 0, "{agg:?}");

    for node in fleet {
        node.shutdown().unwrap();
    }
}

/// Occupy one worker of `node` with a long evaluation submitted in-process,
/// so wire-submitted campaign cells queue up behind it deterministically.
fn submit_blocker(node: &JobServer, bunches: u64) -> u64 {
    node.service()
        .submit(tracer_core::distributed::EvaluationJob::new(
            "blocker",
            || ArraySpec::hdd_raid5(4).build(),
            fleet_trace(bunches),
            WorkloadMode::peak(8192, 50, 70).at_load(100),
        ))
        .expect("blocker admitted")
}

#[test]
fn killing_a_node_mid_sweep_redispatches_its_cells_and_keeps_the_report_identical() {
    let spec = campaign(&[10, 20, 30, 40, 50, 60, 80, 100]);
    let serial = baseline(&spec, 400);

    let survivor = spawn_node(2, 400);
    // Single worker, occupied by a long blocker: the victim's campaign cells
    // can only ever *queue* there, so the sweep cannot finish before the
    // kill. Stealing is off — re-dispatch after death must do the rescue.
    let victim = spawn_node(1, 400);
    submit_blocker(&victim, 150_000);
    let addrs = vec![survivor.addr().to_string(), victim.addr().to_string()];

    let cfg = FleetConfig { node_timeout: Duration::from_secs(2), steal: false, ..config() };
    let campaign_thread = {
        let addrs = addrs.clone();
        let spec = spec.clone();
        std::thread::spawn(move || run_campaign(&addrs, &spec, &cfg))
    };

    // Kill the victim as soon as the coordinator has queued cells on it
    // (`running >= 1` is the blocker holding the only worker, so anything
    // queued is a campaign cell): abrupt stop, no drain — those cells must
    // complete via re-dispatch.
    let victim_service = victim.service();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = victim_service.stats();
        if (stats.running >= 1 && stats.queued >= 1) || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    victim.kill();

    let outcome = campaign_thread.join().unwrap().expect("campaign survives a dead node");
    assert_eq!(outcome.report, serial, "report must be byte-identical despite the death");
    assert!(outcome.stats.nodes_dead >= 1, "{:?}", outcome.stats);
    assert!(outcome.stats.cells_redispatched >= 1, "{:?}", outcome.stats);
    assert_eq!(
        outcome.stats.completed_per_node.iter().sum::<u64>(),
        spec.loads.len() as u64,
        "every cell completed exactly once: {:?}",
        outcome.stats
    );

    survivor.shutdown().unwrap();
    drop(victim); // drains whatever the killed node still had queued
}

#[test]
fn an_idle_fast_node_steals_queued_cells_from_a_loaded_one() {
    // Node order matters: the single-worker node is first, so pipelined
    // dispatch loads it up; its worker is parked on a long blocker, so its
    // cells stay *queued* — exactly what the fast idle node may steal.
    let spec = campaign(&[10, 20, 30, 40, 60, 80, 90, 100]);
    let serial = baseline(&spec, 400);

    let slow = spawn_node(1, 400);
    submit_blocker(&slow, 150_000);
    let fast = spawn_node(4, 400);
    let addrs = vec![slow.addr().to_string(), fast.addr().to_string()];
    let cfg = FleetConfig { max_inflight_per_node: 4, ..config() };
    let outcome = run_campaign(&addrs, &spec, &cfg).expect("steal campaign");
    assert_eq!(outcome.report, serial, "stealing must not change a single byte");
    assert!(
        outcome.stats.cells_stolen >= 1,
        "the idle fast node should have stolen at least one queued cell: {:?}",
        outcome.stats
    );
    slow.shutdown().unwrap();
    fast.shutdown().unwrap();
}

#[test]
fn a_node_serves_coordinator_and_interactive_clients_concurrently() {
    let spec = campaign(&[20, 40, 60, 80, 100]);
    let serial = baseline(&spec, 600);
    let node = spawn_node(2, 600);
    let addr = node.addr();

    let campaign_thread = {
        let addrs = vec![addr.to_string()];
        std::thread::spawn(move || run_campaign(&addrs, &spec, &config()))
    };

    // While the coordinator hammers the node, a human client on a second
    // connection keeps getting served — no `err busy` at the accept loop,
    // and deferred admission parks an interactive priority job.
    let mut client = HostClient::connect(addr).expect("second connection while campaign runs");
    let mut pinged = 0;
    let mut interactive: Option<u64> = None;
    while !campaign_thread.is_finished() {
        assert!(client.ping().expect("ping mid-campaign"), "node must answer pong");
        pinged += 1;
        if interactive.is_none() {
            let accepted = client
                .submit_job_opts(
                    DEVICE,
                    WorkloadMode::peak(8192, 50, 70),
                    100,
                    Some("human"),
                    5,
                    None,
                )
                .expect("submit io");
            match accepted {
                Ok(id) => interactive = Some(id),
                Err(reply) => panic!("interactive submit must park, got {reply:?}"),
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let outcome = campaign_thread.join().unwrap().expect("campaign");
    assert_eq!(outcome.report, serial, "client traffic must not perturb the report");
    assert!(pinged >= 1);

    // The interactive job eventually completes too.
    let id = interactive.expect("campaign ran long enough to submit");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match client.job_status(id) {
            Ok(Ok(state)) if state == "done" => break,
            Ok(_) => {}
            Err(e) => panic!("status: {e}"),
        }
        assert!(Instant::now() < deadline, "interactive job never finished");
        std::thread::sleep(Duration::from_millis(10));
    }
    node.shutdown().unwrap();
}
