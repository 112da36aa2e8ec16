//! The fleet coordinator: shards a sweep campaign across serve nodes.
//!
//! The coordinator is the fleet-scale analogue of
//! `tracer_core::executor::SweepExecutor`: a campaign is cut into cells (one
//! per load level), the cells are dispatched to registered nodes over the
//! job protocol of [`tracer_core::messages`], and the results are merged in
//! cell order. Three mechanisms keep a heterogeneous fleet busy and a flaky
//! one correct:
//!
//! * **Pipelined dispatch** — up to `max_inflight_per_node` cells queue on
//!   each node, so node-side workers never starve between polls.
//! * **Work stealing** — when the unassigned pool is dry and a node idles
//!   while another still has cells *queued* (not running), the coordinator
//!   cancels one queued cell on the loaded node and hands it to the idle
//!   one.
//! * **Re-dispatch on death** — every reply wait is bounded by
//!   `node_timeout`; an I/O error or timeout marks the node dead and
//!   returns its in-flight cells to the pool. Idle nodes are additionally
//!   probed with `ping` each round, so a dead-but-unloaded node is noticed
//!   too.
//!
//! **Determinism.** A cell's metrics depend only on (trace, mode,
//! intensity) — the measure/commit split guarantees that on every node —
//! and the `result` line renders each `f64` in its shortest exact
//! round-trip form, which `str::parse::<f64>` recovers bit-identically.
//! The report renders those values back with the same `{}` formatting, in
//! cell order, with no node names, counts, or timings in it. A report is
//! therefore byte-identical whether the campaign ran on 1 node, on 4, or
//! serially in-process over the campaign's one resolved trace
//! ([`serial_report`]).

use crate::joblog::JobSpec;
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;
use tracer_core::error::TracerError;
use tracer_core::host::{EvaluationHost, DEFAULT_METER_CYCLE_MS};
use tracer_core::messages::{parse_job_command, JobCommand, Reply};
use tracer_core::metrics::EfficiencyMetrics;
use tracer_core::net::{HostClient, LineServer, Then};
use tracer_sim::ArraySpec;
use tracer_trace::{TraceHandle, WorkloadMode};

/// One sweep campaign: a device, a base workload mode, and the load levels
/// to visit. Cells are the load levels in order.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Device every node drives.
    pub device: String,
    /// Base workload mode; each cell applies its own load level.
    pub mode: WorkloadMode,
    /// Load levels, one cell each.
    pub loads: Vec<u32>,
    /// Inter-arrival intensity, percent.
    pub intensity_pct: u32,
}

impl CampaignSpec {
    /// The cells in dispatch (and report) order.
    pub fn cells(&self) -> Vec<JobSpec> {
        self.loads
            .iter()
            .map(|&load| JobSpec {
                device: self.device.clone(),
                mode: self.mode.at_load(load),
                intensity_pct: self.intensity_pct,
                name: format!("fleet-{}-load{load}", self.device),
                priority: 1, // deferred admission: park, never `err busy`
                deadline_ms: None,
            })
            .collect()
    }
}

/// Metrics of one finished cell, exactly as they crossed the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellResult {
    /// I/O operations per second.
    pub iops: f64,
    /// Throughput, MB/s.
    pub mbps: f64,
    /// Mean response time, ms.
    pub avg_response_ms: f64,
    /// Mean power, watts.
    pub watts: f64,
    /// Total energy, joules.
    pub energy_j: f64,
    /// Energy efficiency, IOPS per watt.
    pub iops_per_watt: f64,
    /// Energy efficiency, MB/s per kilowatt.
    pub mbps_per_kilowatt: f64,
}

impl CellResult {
    /// Build from committed metrics (the serial path).
    pub fn from_metrics(m: &EfficiencyMetrics) -> Self {
        Self {
            iops: m.iops,
            mbps: m.mbps,
            avg_response_ms: m.avg_response_ms,
            watts: m.avg_watts,
            energy_j: m.energy_joules,
            iops_per_watt: m.iops_per_watt,
            mbps_per_kilowatt: m.mbps_per_kilowatt,
        }
    }

    /// Parse from a `result` reply (the wire path). `None` if a metric field
    /// is missing or unparsable.
    pub fn from_reply(reply: &Reply) -> Option<Self> {
        Some(Self {
            iops: reply.num("iops")?,
            mbps: reply.num("mbps")?,
            avg_response_ms: reply.num("avg_response_ms")?,
            watts: reply.num("watts")?,
            energy_j: reply.num("energy_j")?,
            iops_per_watt: reply.num("iops_per_watt")?,
            mbps_per_kilowatt: reply.num("mbps_per_kilowatt")?,
        })
    }
}

/// Coordinator tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Cells queued per node at once (pipelining depth).
    pub max_inflight_per_node: usize,
    /// Pause between poll rounds.
    pub poll_interval: Duration,
    /// Reply-wait bound; exceeding it marks the node dead.
    pub node_timeout: Duration,
    /// Enable work stealing from slow nodes.
    pub steal: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            max_inflight_per_node: 2,
            poll_interval: Duration::from_millis(20),
            node_timeout: Duration::from_secs(5),
            steal: true,
        }
    }
}

/// What happened while running a campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Cells handed to a node (re-dispatches count again).
    pub cells_dispatched: u64,
    /// Cells moved from a loaded node's queue to an idle node.
    pub cells_stolen: u64,
    /// Cells returned to the pool because their node died.
    pub cells_redispatched: u64,
    /// Nodes declared dead.
    pub nodes_dead: u64,
    /// Cells completed per node, in node-list order.
    pub completed_per_node: Vec<u64>,
}

/// A finished campaign: the deterministic report plus the run's statistics.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Byte-stable sweep report (identical for any node count).
    pub report: String,
    /// Dispatch/steal/death accounting for this run.
    pub stats: FleetStats,
}

struct Node {
    addr: String,
    client: Option<HostClient>,
    /// `(cell index, remote job id)` for every cell queued or running here.
    inflight: Vec<(usize, u64)>,
    completed: u64,
}

impl Node {
    fn alive(&self) -> bool {
        self.client.is_some()
    }
}

/// Ensure every fabric metric exists in the obs registry even when its count
/// stays zero for a run, so the exported schema is stable.
fn touch_metrics() {
    if !tracer_obs::enabled() {
        return;
    }
    for name in [
        "fabric.cells_dispatched",
        "fabric.cells_stolen",
        "fabric.cells_redispatched",
        "fabric.nodes_dead",
    ] {
        tracer_obs::counter(name).add(0);
    }
    tracer_obs::histogram("fabric.node_queue_depth").record_n(0, 0);
}

fn bump(name: &str, stat: &mut u64) {
    *stat += 1;
    if tracer_obs::enabled() {
        tracer_obs::counter(name).incr();
    }
}

/// Run `spec` across `nodes` (addresses as `host:port`) and merge the
/// results into a deterministic report. Fails only when every node is dead
/// while cells remain, or when a cell fails identically wherever it runs.
pub fn run_campaign(
    nodes: &[String],
    spec: &CampaignSpec,
    cfg: &FleetConfig,
) -> Result<FleetOutcome, TracerError> {
    if nodes.is_empty() {
        return Err(TracerError::Config("no nodes".to_string()));
    }
    touch_metrics();
    let cells = spec.cells();
    let mut results: Vec<Option<CellResult>> = vec![None; cells.len()];
    let mut unassigned: VecDeque<usize> = (0..cells.len()).collect();
    let mut stats = FleetStats::default();
    let mut fleet: Vec<Node> = nodes
        .iter()
        .map(|addr| Node { addr: addr.clone(), client: None, inflight: Vec::new(), completed: 0 })
        .collect();
    for node in &mut fleet {
        node.client = connect(&node.addr, cfg.node_timeout).ok();
        if !node.alive() {
            bump("fabric.nodes_dead", &mut stats.nodes_dead);
        }
    }

    while results.iter().any(Option::is_none) {
        let mut progressed = false;
        for node in &mut fleet {
            if !node.alive() {
                continue;
            }
            // Dispatch until the node's pipeline is full or the pool is dry.
            while node.inflight.len() < cfg.max_inflight_per_node {
                let Some(ci) = unassigned.pop_front() else { break };
                match submit_cell(node, &cells[ci]) {
                    Ok(Some(id)) => {
                        node.inflight.push((ci, id));
                        bump("fabric.cells_dispatched", &mut stats.cells_dispatched);
                        progressed = true;
                    }
                    Ok(None) => {
                        // `err busy`: even deferred admission has a hard cap.
                        unassigned.push_front(ci);
                        break;
                    }
                    Err(_) => {
                        unassigned.push_front(ci);
                        kill_node(node, &mut unassigned, &mut stats);
                        break;
                    }
                }
            }
            if !node.alive() {
                continue;
            }
            // Poll every in-flight cell; collect finished ones.
            let mut j = 0;
            while j < node.inflight.len() {
                let (ci, id) = node.inflight[j];
                let Some(client) = node.client.as_mut() else { break };
                match client.job_result(id) {
                    Ok(Ok(reply)) => {
                        let cell = CellResult::from_reply(&reply).ok_or_else(|| {
                            TracerError::Config(format!("malformed result line from {}", node.addr))
                        })?;
                        results[ci] = Some(cell);
                        node.inflight.swap_remove(j);
                        node.completed += 1;
                        progressed = true;
                    }
                    Ok(Err(reply)) if reply.head == "pending" => j += 1,
                    Ok(Err(reply)) if reply.head == "failed" => {
                        // Evaluations are deterministic: a job that failed
                        // here fails on every node, so retrying elsewhere loops.
                        return Err(TracerError::Config(format!(
                            "cell {ci} failed on {}: {reply:?}",
                            node.addr
                        )));
                    }
                    Ok(Err(_)) => {
                        // cancelled / expired / unknown after a node restart:
                        // the cell must run again somewhere.
                        node.inflight.swap_remove(j);
                        unassigned.push_back(ci);
                        bump("fabric.cells_redispatched", &mut stats.cells_redispatched);
                    }
                    Err(_) => {
                        kill_node(node, &mut unassigned, &mut stats);
                        break;
                    }
                }
            }
            if tracer_obs::enabled() && node.alive() {
                tracer_obs::histogram("fabric.node_queue_depth").record(node.inflight.len() as u64);
            }
        }

        if unassigned.is_empty() && cfg.steal {
            steal_one(&mut fleet, &cells, &mut unassigned, &mut stats);
        }
        // Heartbeat nodes the round gave no work to — a dead idle node must
        // not go unnoticed until the pool refills.
        for node in &mut fleet {
            if node.alive() && node.inflight.is_empty() {
                let ok = node.client.as_mut().is_some_and(|c| c.ping().unwrap_or(false));
                if !ok {
                    kill_node(node, &mut unassigned, &mut stats);
                }
            }
        }

        if fleet.iter().all(|n| !n.alive()) {
            let left = results.iter().filter(|r| r.is_none()).count();
            return Err(TracerError::Config(format!(
                "all nodes dead with {left} cells unfinished"
            )));
        }
        if !progressed {
            std::thread::sleep(cfg.poll_interval);
        }
    }

    stats.completed_per_node = fleet.iter().map(|n| n.completed).collect();
    // The loop only exits once every slot is Some; a gap here means the loop
    // invariant broke, which must surface as an error, not a panic.
    let merged: Vec<CellResult> = results.into_iter().flatten().collect();
    if merged.len() != cells.len() {
        return Err(TracerError::Config(format!(
            "internal: campaign finished with {}/{} cells",
            merged.len(),
            cells.len()
        )));
    }
    Ok(FleetOutcome { report: render_report(spec, &merged), stats })
}

fn connect(addr: &str, timeout: Duration) -> io::Result<HostClient> {
    let resolved: SocketAddr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::other(format!("unresolvable node address {addr}")))?;
    let client = HostClient::connect(resolved)?;
    client.set_read_timeout(Some(timeout))?;
    Ok(client)
}

/// `Ok(Some(id))` accepted, `Ok(None)` busy, `Err` node I/O failure.
fn submit_cell(node: &mut Node, cell: &JobSpec) -> io::Result<Option<u64>> {
    let Some(client) = node.client.as_mut() else {
        return Err(io::Error::other("submit to a dead node"));
    };
    match client.submit_job_opts(
        &cell.device,
        cell.mode,
        cell.intensity_pct,
        Some(&cell.name),
        cell.priority,
        cell.deadline_ms,
    )? {
        Ok(id) => Ok(Some(id)),
        Err(reply) if reply.head == "busy" => Ok(None),
        Err(reply) => Err(io::Error::other(format!("node rejected submit: {reply:?}"))),
    }
}

fn kill_node(node: &mut Node, unassigned: &mut VecDeque<usize>, stats: &mut FleetStats) {
    node.client = None;
    bump("fabric.nodes_dead", &mut stats.nodes_dead);
    // Its cells go to the *front* of the pool: they were admitted first and
    // another node should pick them up before untouched work.
    for (ci, _) in node.inflight.drain(..).rev() {
        unassigned.push_front(ci);
        bump("fabric.cells_redispatched", &mut stats.cells_redispatched);
    }
}

/// Move one *queued* cell from the most loaded node to an idle one.
fn steal_one(
    fleet: &mut [Node],
    cells: &[JobSpec],
    unassigned: &mut VecDeque<usize>,
    stats: &mut FleetStats,
) {
    let Some(thief) = fleet.iter().position(|n| n.alive() && n.inflight.is_empty()) else {
        return;
    };
    let Some(victim) = (0..fleet.len())
        .filter(|&i| i != thief && fleet[i].alive() && fleet[i].inflight.len() >= 2)
        .max_by_key(|&i| fleet[i].inflight.len())
    else {
        return;
    };
    // The newest submission is the one most likely still queued.
    let Some(&(ci, id)) = fleet[victim].inflight.last() else { return };
    {
        let Some(client) = fleet[victim].client.as_mut() else { return };
        if !matches!(client.job_status(id), Ok(Ok(state)) if state == "queued") {
            return;
        }
        // Between the status probe and the cancel the job may start running;
        // the node then discards its result at the commit boundary
        // (`ok cancelling`), so handing the cell to the thief still yields
        // exactly one result either way.
        if !matches!(client.cancel_job(id), Ok(Ok(()))) {
            return;
        }
    }
    fleet[victim].inflight.pop();
    match submit_cell(&mut fleet[thief], &cells[ci]) {
        Ok(Some(new_id)) => {
            fleet[thief].inflight.push((ci, new_id));
            bump("fabric.cells_stolen", &mut stats.cells_stolen);
        }
        Ok(None) => unassigned.push_front(ci), // thief suddenly full
        Err(_) => {
            unassigned.push_front(ci);
            kill_node(&mut fleet[thief], unassigned, stats);
        }
    }
}

/// Render the merged results as the canonical fleet report. Only
/// deterministic quantities appear: the campaign definition and the metric
/// values in `{}` (shortest exact round-trip) form.
pub fn render_report(spec: &CampaignSpec, results: &[CellResult]) -> String {
    let mut out = format!(
        "fleet-report device={} rs={} rn={} rd={} intensity={} cells={}\n",
        spec.device,
        spec.mode.request_bytes,
        spec.mode.random_pct,
        spec.mode.read_pct,
        spec.intensity_pct,
        results.len()
    );
    for (load, r) in spec.loads.iter().zip(results) {
        out.push_str(&format!(
            "cell load={load} iops={} mbps={} avg_response_ms={} watts={} energy_j={} \
             iops_per_watt={} mbps_per_kilowatt={}\n",
            r.iops,
            r.mbps,
            r.avg_response_ms,
            r.watts,
            r.energy_j,
            r.iops_per_watt,
            r.mbps_per_kilowatt
        ));
    }
    out
}

/// The serial baseline: run every cell in-process, in order, and render the
/// identical report. Every cell drives the same device with the same base
/// mode, so one resolved `trace` serves them all; each is measured on a fresh
/// `array.build()`.
pub fn serial_report(
    spec: &CampaignSpec,
    array: &ArraySpec,
    trace: &TraceHandle,
) -> Result<String, TracerError> {
    let mut results = Vec::with_capacity(spec.loads.len());
    for cell in spec.cells() {
        let measured = EvaluationHost::measure_test(
            DEFAULT_METER_CYCLE_MS,
            &mut array.build(),
            trace,
            cell.mode,
            cell.intensity_pct,
            &cell.name,
        )?;
        results.push(CellResult::from_metrics(&measured.metrics));
    }
    Ok(render_report(spec, &results))
}

/// Fleet-wide aggregation of every node's `stats` line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AggregateStats {
    /// Nodes that answered.
    pub nodes: usize,
    /// Total worker threads.
    pub workers: u64,
    /// Total queue capacity.
    pub capacity: u64,
    /// Jobs queued fleet-wide.
    pub queued: u64,
    /// Jobs running fleet-wide.
    pub running: u64,
    /// Jobs done fleet-wide.
    pub done: u64,
    /// Jobs failed fleet-wide.
    pub failed: u64,
    /// Jobs cancelled fleet-wide.
    pub cancelled: u64,
    /// Jobs expired fleet-wide.
    pub expired: u64,
}

/// Ask every node for its `stats` and sum them. Unreachable nodes are
/// skipped (they contribute nothing); `nodes` counts the responders.
pub fn fleet_stats(nodes: &[String], timeout: Duration) -> AggregateStats {
    let mut agg = AggregateStats::default();
    for addr in nodes {
        let Ok(mut client) = connect(addr, timeout) else { continue };
        let Ok(reply) = client.send_job(&JobCommand::Stats) else { continue };
        if !reply.ok {
            continue;
        }
        let get = |k: &str| reply.field(k).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        agg.nodes += 1;
        agg.workers += get("workers");
        agg.capacity += get("capacity");
        agg.queued += get("queued");
        agg.running += get("running");
        agg.done += get("done");
        agg.failed += get("failed");
        agg.cancelled += get("cancelled");
        agg.expired += get("expired");
    }
    agg
}

/// Connections the registrar serves at once; one more is answered `err busy`.
/// A node's registration is one short connection, so this bounds a flood's
/// threads without slowing a fleet that registers all at once.
const REGISTRAR_CONNECTIONS: usize = 64;

/// Registration listener: nodes started with `--join` announce themselves
/// here, and the coordinator waits until the expected fleet size is
/// reached. Listens from [`Registrar::bind`] until [`Registrar::wait_for`]
/// returns; every connection may send any number of `join` and `ping` lines.
pub struct Registrar {
    server: LineServer,
    joined: Arc<(Mutex<Vec<String>>, Condvar)>,
}

impl Registrar {
    /// Bind the registration port (0 = ephemeral).
    pub fn bind(port: u16) -> io::Result<Self> {
        let joined = Arc::new((Mutex::new(Vec::<String>::new()), Condvar::new()));
        let record = Arc::clone(&joined);
        let server = LineServer::bind(port, REGISTRAR_CONNECTIONS, move |line: &str| {
            let reply = match parse_job_command(line) {
                Ok(JobCommand::Join { addr, workers: _ }) => {
                    let (nodes, cv) = &*record;
                    let mut nodes = nodes.lock().unwrap_or_else(PoisonError::into_inner);
                    if !nodes.contains(&addr) {
                        nodes.push(addr);
                        cv.notify_all();
                    }
                    format!("ok joined nodes={}", nodes.len())
                }
                Ok(JobCommand::Ping) => "ok pong".to_string(),
                Ok(_) => "err not-a-node".to_string(),
                Err(e) => format!("err {e}"),
            };
            (Some(reply), Then::Continue)
        })?;
        Ok(Self { server, joined })
    }

    /// The address nodes `--join`.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Wait until `expect` distinct node addresses registered or `timeout`
    /// elapsed (then an error naming the shortfall), and stop listening.
    /// Returns the nodes in join order. `ping` is answered too, so nodes can
    /// probe the coordinator.
    pub fn wait_for(&self, expect: usize, timeout: Duration) -> io::Result<Vec<String>> {
        let (nodes, cv) = &*self.joined;
        let nodes = nodes.lock().unwrap_or_else(PoisonError::into_inner);
        let (nodes, _) = cv
            .wait_timeout_while(nodes, timeout, |nodes| nodes.len() < expect)
            .unwrap_or_else(PoisonError::into_inner);
        self.server.stop();
        if nodes.len() < expect {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("only {}/{expect} nodes joined", nodes.len()),
            ));
        }
        Ok(nodes.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CampaignSpec {
        CampaignSpec {
            device: "raid5-hdd4".into(),
            mode: WorkloadMode::peak(8192, 50, 100),
            loads: vec![20, 60, 100],
            intensity_pct: 100,
        }
    }

    #[test]
    fn cells_carry_the_load_levels_in_order() {
        let cells = spec().cells();
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[0].mode.load_pct, 20);
        assert_eq!(cells[2].mode.load_pct, 100);
        assert!(cells.iter().all(|c| c.priority == 1), "fleet cells use deferred admission");
        assert_eq!(cells[1].name, "fleet-raid5-hdd4-load60");
    }

    #[test]
    fn report_round_trips_through_wire_formatting() {
        // The wire renders f64 with `{}` and the coordinator parses it back;
        // the report of parsed values must equal the report of the originals.
        let originals = [CellResult {
            iops: 1_234.567_890_123_4,
            mbps: 9.876_543_21,
            avg_response_ms: 0.001_234_567,
            watts: 110.000_000_001,
            energy_j: 42.0,
            iops_per_watt: 11.223_344_556_677,
            mbps_per_kilowatt: 89.0 / 7.0,
        }; 3];
        let direct = render_report(&spec(), &originals);
        let reparsed: Vec<CellResult> = originals
            .iter()
            .map(|r| {
                let line = format!(
                    "ok result id=1 record=0 iops={} mbps={} avg_response_ms={} watts={} \
                     energy_j={} iops_per_watt={} mbps_per_kilowatt={} queue_ms=1 run_ms=2",
                    r.iops,
                    r.mbps,
                    r.avg_response_ms,
                    r.watts,
                    r.energy_j,
                    r.iops_per_watt,
                    r.mbps_per_kilowatt
                );
                let reply = tracer_core::messages::parse_reply(&line).unwrap();
                CellResult::from_reply(&reply).unwrap()
            })
            .collect();
        assert_eq!(render_report(&spec(), &reparsed), direct);
        assert!(direct.starts_with("fleet-report device=raid5-hdd4 rs=8192 rn=50 rd=100 "));
        assert_eq!(direct.lines().count(), 4);
    }

    #[test]
    fn registrar_registers_and_answers_ping() {
        let registrar = Registrar::bind(0).unwrap();
        let addr = registrar.addr();
        let joiner = std::thread::spawn(move || {
            // One connection carries any number of lines.
            let mut c = HostClient::connect(addr).unwrap();
            assert!(c.ping().unwrap());
            let reply = c
                .send_job(&JobCommand::Join { addr: "127.0.0.1:7777".into(), workers: 2 })
                .unwrap();
            assert!(reply.ok, "{reply:?}");
        });
        let nodes = registrar.wait_for(1, Duration::from_secs(10)).unwrap();
        joiner.join().unwrap();
        assert_eq!(nodes, vec!["127.0.0.1:7777".to_string()]);
    }

    #[test]
    fn registrar_refuses_a_newline_less_flood() {
        use std::io::{BufRead, BufReader, Write};
        let registrar = Registrar::bind(0).unwrap();
        let addr = registrar.addr();
        let waiter = std::thread::spawn(move || registrar.wait_for(1, Duration::from_secs(3)));
        let hostile = std::net::TcpStream::connect(addr).unwrap();
        hostile.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // From a thread: once the registrar stops reading, this write only
        // returns when the connection is torn down. The socket stays open.
        let mut flood = hostile.try_clone().unwrap();
        let flooder = std::thread::spawn(move || {
            let _ = flood.write_all(&vec![b'x'; 1 << 20]);
        });
        let mut reply = String::new();
        BufReader::new(&hostile).read_line(&mut reply).unwrap();
        assert_eq!(reply, "err line too long\n");
        // Registration still works for a well-behaved node.
        let mut node = HostClient::connect(addr).unwrap();
        let joined =
            node.send_job(&JobCommand::Join { addr: "127.0.0.1:7001".into(), workers: 1 }).unwrap();
        assert!(joined.ok, "{joined:?}");
        assert_eq!(waiter.join().unwrap().unwrap(), vec!["127.0.0.1:7001".to_string()]);
        flooder.join().unwrap();
    }

    #[test]
    fn silent_connections_do_not_delay_a_join() {
        let registrar = Registrar::bind(0).unwrap();
        let addr = registrar.addr();
        let silent: Vec<_> = (0..3).map(|_| std::net::TcpStream::connect(addr).unwrap()).collect();
        let joiner = std::thread::spawn(move || {
            let mut node = HostClient::connect(addr).unwrap();
            node.send_job(&JobCommand::Join { addr: "127.0.0.1:7002".into(), workers: 1 })
        });
        let nodes = registrar.wait_for(1, Duration::from_secs(1)).unwrap();
        assert_eq!(nodes, vec!["127.0.0.1:7002".to_string()]);
        assert!(joiner.join().unwrap().unwrap().ok);
        drop(silent);
    }

    #[test]
    fn registrar_bounds_its_connections() {
        use std::io::{BufRead, BufReader};
        let registrar = Registrar::bind(0).unwrap();
        let addr = registrar.addr();
        let mut held: Vec<_> = (0..REGISTRAR_CONNECTIONS)
            .map(|_| {
                let c = HostClient::connect(addr).unwrap();
                c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                c
            })
            .collect();
        // Every held connection is served, so the next one is over capacity.
        for c in &mut held {
            assert!(c.ping().unwrap());
        }
        let extra = std::net::TcpStream::connect(addr).unwrap();
        extra.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reply = String::new();
        BufReader::new(&extra).read_line(&mut reply).unwrap();
        assert_eq!(reply, "err busy\n");
        drop(held);
    }

    #[test]
    fn empty_fleet_is_an_error() {
        let err = run_campaign(&[], &spec(), &FleetConfig::default()).unwrap_err();
        assert!(err.to_string().contains("no nodes"));
    }
}
